import copy
import gc
import itertools
import pickle
import re
import tracemalloc
from pathlib import Path

import pytest

from conftest import NoSteps, make_rng
from pdsat import InvalidInputError
from pdsat import automata, cli, games, oracle
from pdsat.automata import (EPS, S_BOT, S_STAR, AltAutomaton, Language, Nfa,
                            Sentinel, _antichain, _fold, _mask_entries,
                            _reachable_product, _run_targets, _saturated,
                            alt, alt_membership, alt_run_targets,
                            eps_closure, nfa, nfa_accepts)
from pdsat.derivation import deriv_relation
from reference import (alt_membership_sets, eps_reach_per_state, minimal,
                       pattern_forbidden_factors, product_intersect, relabel,
                       reverse, run_targets_by_product, words_upto)


def random_nfa(rng, n_states=4, alphabet=("a", "b"), n_trans=6, eps_frac=0.2):
    states = list(range(n_states))
    transitions = set()
    for _ in range(n_trans):
        label = EPS if rng.random() < eps_frac else rng.choice(alphabet)
        transitions.add((rng.choice(states), label, rng.choice(states)))
    finals = frozenset(rng.sample(states, rng.randint(1, n_states)))
    return Nfa(frozenset(states), frozenset(alphabet), finals,
               frozenset(transitions))


def accepts_by_path_search(aut, start, word):
    """Reference semantics: explicit run enumeration with epsilon moves."""
    frontier = {start}
    # epsilon closure by brute force
    def close(states):
        states = set(states)
        changed = True
        while changed:
            changed = False
            for s, a, t in aut.transitions:
                if a is EPS and s in states and t not in states:
                    states.add(t)
                    changed = True
        return states

    frontier = close(frontier)
    for a in word:
        frontier = close({t for s, lab, t in aut.transitions
                          if lab == a and s in frontier})
        if not frontier:
            return False
    return bool(frontier & aut.finals)


def test_accepts_basic():
    aut = nfa(alphabet="ab", finals=[2],
              transitions=[(0, "a", 1), (1, "b", 2), (1, "a", 1)])
    assert nfa_accepts(aut, 0, "ab")
    assert nfa_accepts(aut, 0, "aab")
    assert not nfa_accepts(aut, 0, "a")
    assert not nfa_accepts(aut, 0, "ba")


def test_accepts_unknown_state_and_symbol():
    aut = nfa(alphabet="ab", finals=[0])
    with pytest.raises(InvalidInputError):
        nfa_accepts(aut, 99, "")
    with pytest.raises(InvalidInputError):
        nfa_accepts(aut, 0, "z")
    # the other queries of a language from a state, and alternating ones
    pattern = pattern_forbidden_factors("ab", {("a", "b")})
    alternating = alt(alphabet="ab", finals=[1], transitions=[(0, "a", {1})])
    for query, message in (
            (lambda: _reachable_product(aut, 99, *pattern),
             "unknown state: 99"),
            (lambda: alt_membership(alternating, 99, "a"),
             "unknown state: 99"),
            (lambda: alt_membership(alternating, 0, "az"),
             "unknown symbol: 'z'"),
            (lambda: alt_run_targets(alternating, 99, "a"),
             "unknown state: 99")):
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            query()


def test_accepts_matches_path_search():
    rng = make_rng(101)
    for i in range(60):
        aut = random_nfa(rng)
        for word in itertools.chain.from_iterable(
                itertools.product("ab", repeat=k) for k in range(4)):
            assert nfa_accepts(aut, 0, word) == accepts_by_path_search(aut, 0, word)


@pytest.mark.parametrize("eps_frac", [0.0, 0.3])
def test_accepts_with_and_without_eps_matches_path_search(eps_frac):
    rng = make_rng(103)
    for i in range(60):
        aut = random_nfa(rng, n_states=5, n_trans=14, eps_frac=eps_frac)
        for start in aut.states:
            for word in itertools.chain.from_iterable(
                    itertools.product("ab", repeat=k) for k in range(5)):
                assert nfa_accepts(aut, start, word) \
                    == accepts_by_path_search(aut, start, word), (aut, word)
        # queries on an ε-free automaton build no closure
        assert ("_eps_components" in aut.__dict__) == aut.has_eps()


def _queried_twice(rng, words):
    """Every word twice, in shuffled order."""
    words = list(words) * 2
    rng.shuffle(words)
    return words


def test_membership_steps_are_computed_once_per_automaton(monkeypatch):
    # each step from a set of states is kept on its automaton: answers
    # match the references whatever the order and repetition of the
    # queries, and a second pass over the same words computes no step
    rng = make_rng(111)
    words = [w for k in range(6) for w in itertools.product("ab", repeat=k)]
    queried = []
    for eps_frac in (0.0, 0.3):
        for _ in range(30):
            aut = random_nfa(rng, n_states=6, n_trans=16, eps_frac=eps_frac)
            for start, word in _queried_twice(
                    rng, [(s, w) for s in aut.states for w in words]):
                assert nfa_accepts(aut, start, word) \
                    == accepts_by_path_search(aut, start, word), (aut, word)
            queried.append((aut, nfa_accepts, lambda a: a._subset_steps))
    for _ in range(30):
        aut = random_alt(rng, n_states=5, n_trans=12)
        for start, word in _queried_twice(
                rng, [(s, w) for s in aut.states for w in words]):
            assert alt_membership(aut, start, word) \
                == alt_membership_sets(aut, start, word), (aut, word)
        queried.append((aut, alt_membership, lambda a: a._mask_by_symbol[2]))
    answers = [[query(aut, s, w) for s in aut.states for w in words]
               for aut, query, _ in queried]
    sizes = [len(memo(aut)) for aut, _, memo in queried]
    # not vacuous: both kinds keep many steps from sets of states
    assert sum(sizes[:60]) > 1000 and sum(sizes[60:]) > 200
    with monkeypatch.context() as m:
        m.setattr(automata, "_subset_step", NoSteps().get)
        for aut, query, memo in queried:
            if query is alt_membership:
                finals, _, steps = aut._mask_by_symbol
                m.setitem(aut.__dict__, "_mask_by_symbol",
                          (finals, NoSteps(), steps))
            elif aut.has_eps():  # its every step is a kept one
                m.setitem(aut.__dict__, "_step_index", NoSteps())
        assert answers == [[query(aut, s, w) for s in aut.states
                            for w in words] for aut, query, _ in queried]
        assert sizes == [len(memo(aut)) for aut, _, memo in queried]
    # a word with an unknown symbol is refused before any step is taken
    for aut, query, memo in queried:
        with pytest.raises(InvalidInputError,
                           match=re.escape("unknown symbol: 'z'")):
            query(aut, 0, "abzy")
    assert sizes == [len(memo(aut)) for aut, _, memo in queried]


def test_nfa_constructor_checks_every_input():
    states, alphabet = frozenset({0, 1}), frozenset("ab")
    for finals, transitions in ((frozenset({2}), frozenset()),
                                (frozenset(), frozenset({(0, "a", 2)})),
                                (frozenset(), frozenset({(2, EPS, 0)})),
                                (frozenset(), frozenset({(0, "c", 1)}))):
        with pytest.raises(InvalidInputError):
            Nfa(states, alphabet, finals, transitions)


def test_nfa_refuses_eps_as_an_alphabet_symbol():
    # EPS labels the empty word, so a symbol equal to it would be read as ε
    with pytest.raises(InvalidInputError, match="EPS"):
        Nfa(frozenset({0}), frozenset({"a", EPS}), frozenset(), frozenset())
    with pytest.raises(InvalidInputError, match="EPS"):
        nfa(states={0}, alphabet={EPS}, finals={0})


def test_saturated_automaton_answers_as_the_checked_one():
    rng = make_rng(105)
    words = list(itertools.chain.from_iterable(
        itertools.product("ab", repeat=k) for k in range(5)))
    for i in range(40):
        aut = random_nfa(rng, n_states=5, n_trans=14, eps_frac=0.0)
        # a saturation hands over lists; any collection of distinct targets
        for collect in (list, frozenset):
            index = {key: collect(targets)
                     for key, targets in aut._step_index.items()}
            handed = _saturated(aut.states, aut.alphabet, aut.finals,
                                aut.transitions, index)
            assert handed == aut and hash(handed) == hash(aut)
            assert handed._step_index is index and not handed.has_eps()
            for start in aut.states:
                for word in words:
                    assert nfa_accepts(handed, start, word) \
                        == nfa_accepts(aut, start, word), (aut, start, word)


def test_eps_closure_preserves_language():
    rng = make_rng(202)
    for i in range(40):
        aut = random_nfa(rng, eps_frac=0.4)
        closed = eps_closure(aut)
        assert not closed.has_eps()
        for s in aut.states:
            assert words_upto(aut, s, 3) == words_upto(closed, s, 3)


def test_eps_components_match_per_state_search():
    # 200 automata with an ε-cycle; their states 0..11 sort by repr as
    # 0, 1, 10, 11, 2, ..., so the least repr is not always the least state
    rng = make_rng(120)
    drawn = 0
    while drawn < 200:
        aut = random_nfa(rng, n_states=12, n_trans=24, eps_frac=0.6)
        reach = eps_reach_per_state(aut)
        components = {s: frozenset(t for t in reach[s] if s in reach[t])
                      for s in aut.states}
        if all(len(c) == 1 for c in components.values()):
            continue
        drawn += 1
        rep, closure = aut._eps_components
        assert closure == reach and aut._eps_components[1] is closure, aut
        assert rep == {s: min(c, key=repr) for s, c in components.items()
                       if len(c) > 1}, aut
        # the members of a component share one closure
        for s, c in components.items():
            assert all(closure[t] is closure[s] for t in c), aut


def test_eps_components_are_named_by_least_repr():
    # one cycle b -> c -> a2 -> b with a tail to x, and a self-loop on y
    aut = nfa(alphabet="a", finals=["x"],
              transitions=[("c", EPS, "a2"), ("a2", EPS, "b"), ("b", EPS, "c"),
                           ("b", EPS, "x"), ("x", "a", "c"), ("y", EPS, "y")])
    rep, closure = aut._eps_components
    assert rep == {"a2": "a2", "b": "a2", "c": "a2"}
    assert closure["c"] == {"a2", "b", "c", "x"}
    assert closure["c"] is closure["b"] is closure["a2"]
    assert closure["x"] == {"x"} and closure["y"] == {"y"}
    assert nfa_accepts(aut, "c", "") and nfa_accepts(aut, "x", "a")


def test_eps_components_do_not_recurse():
    # one ε-cycle of 5,000 states, and an ε-chain of 2,000 (a chain of n
    # states has closures of n(n+1)/2 states in all): each searched depth
    # first from state 0 is deeper than Python's default recursion limit
    n = 5000
    cycle = nfa(alphabet="a", finals=[n - 1],
                transitions=[(i, EPS, (i + 1) % n) for i in range(n)])
    rep, closure = cycle._eps_components
    assert set(rep.values()) == {0} and len(rep) == n
    assert len({id(c) for c in closure.values()}) == 1
    assert closure[0] == cycle.states and nfa_accepts(cycle, 0, "")
    n = 2000
    chain = nfa(alphabet="a", finals=[n - 1],
                transitions=[(i, EPS, i + 1) for i in range(n - 1)])
    rep, closure = chain._eps_components
    assert rep == {}
    assert all(closure[i] == frozenset(range(i, n))
               for i in (0, 1, n // 2, n - 1))
    assert sum(map(len, closure.values())) == n * (n + 1) // 2
    assert nfa_accepts(chain, 0, "") and not nfa_accepts(chain, 0, "a")


def test_words_upto_agrees_with_accepts():
    rng = make_rng(303)
    for i in range(30):
        aut = random_nfa(rng)
        found = words_upto(aut, 0, 3)
        for word in itertools.chain.from_iterable(
                itertools.product("ab", repeat=k) for k in range(4)):
            assert (word in found) == nfa_accepts(aut, 0, word)


def test_product_intersect_language():
    rng = make_rng(404)
    for i in range(30):
        left = random_nfa(rng)
        right = random_nfa(rng, eps_frac=0.0)
        prod = product_intersect(left, right, 0)
        for word in itertools.chain.from_iterable(
                itertools.product("ab", repeat=k) for k in range(4)):
            expected = nfa_accepts(left, 0, word) and nfa_accepts(right, 0, word)
            assert nfa_accepts(prod, (0, 0), word) == expected


def test_pattern_forbidden_factors():
    aut, start = pattern_forbidden_factors("ab", {("a", "b")})
    assert nfa_accepts(aut, start, "")
    assert nfa_accepts(aut, start, "ba")
    assert nfa_accepts(aut, start, "aab" * 0 + "ba")
    assert not nfa_accepts(aut, start, "ab")
    assert not nfa_accepts(aut, start, "aab")
    assert nfa_accepts(aut, start, "bba")
    for factor, message in (
            (("a",), "forbidden factor must have length 2: ('a',)"),
            (("a", "c"), "factor symbol not in alphabet: ('a', 'c')")):
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            pattern_forbidden_factors("ab", {factor})


def test_reverse_language():
    rng = make_rng(505)
    for i in range(30):
        aut = random_nfa(rng)
        rev, rstart = reverse(aut, 0)
        fwd = words_upto(aut, 0, 3)
        bwd = words_upto(rev, rstart, 3)
        assert bwd == {tuple(reversed(w)) for w in fwd}


def test_relabel():
    aut = nfa(alphabet="ab", finals=[1], transitions=[(0, "a", 1), (0, "b", 1)])
    upper = relabel(aut, str.upper)
    assert nfa_accepts(upper, 0, "A")
    assert upper.alphabet == frozenset("AB")


def test_language_wrapper():
    aut = nfa(alphabet="a", finals=[1], transitions=[(0, "a", 1)])
    lang = Language(aut, 0)
    assert lang.accepts("a")
    assert not lang.accepts("")
    assert words_upto(lang.aut, lang.start, 2) == {("a",)}


# ---------------------------------------------------------------------------
# Alternating automata


def random_alt(rng, n_states=4, alphabet=("a", "b"), n_trans=6):
    states = list(range(n_states))
    transitions = set()
    for _ in range(n_trans):
        targets = frozenset(rng.sample(states, rng.randint(1, 2)))
        transitions.add((rng.choice(states), rng.choice(alphabet), targets))
    finals = frozenset(rng.sample(states, rng.randint(1, n_states)))
    return AltAutomaton(frozenset(states), frozenset(alphabet), finals,
                        frozenset(transitions))


def powerset_expand(aut):
    """Classical expansion of an alternating automaton into an NFA whose
    states are sets of alternating states."""
    index = {}
    for s, a, targets in aut.transitions:
        index.setdefault((s, a), []).append(targets)
    all_sets = [frozenset(c) for k in range(len(aut.states) + 1)
                for c in itertools.combinations(sorted(aut.states, key=repr), k)]
    transitions = set()
    for sset in all_sets:
        for a in aut.alphabet:
            options = [index.get((s, a), []) for s in sset]
            if any(not o for o in options):
                continue
            for combo in itertools.product(*options):
                transitions.add((sset, a, frozenset().union(*combo)))
    finals = frozenset(s for s in all_sets if s <= aut.finals)
    return Nfa(frozenset(all_sets), aut.alphabet, finals, frozenset(transitions))


def test_alt_membership_matches_powerset_expansion():
    rng = make_rng(606)
    for i in range(25):
        aut = random_alt(rng)
        expanded = powerset_expand(aut)
        for word in itertools.chain.from_iterable(
                itertools.product("ab", repeat=k) for k in range(4)):
            got = alt_membership(aut, 0, word)
            want = nfa_accepts(expanded, frozenset({0}), word)
            assert got == want, (aut, word)


def test_alt_membership_unread_symbol_and_empty_word():
    # "c" is in the alphabet but no state reads it: no word containing it is
    # accepted, even from a final state; the empty word is accepted exactly
    # from the final states
    aut = alt(alphabet="abc", finals=[1],
              transitions=[(0, "a", {1}), (1, "b", {1}), (2, "a", {0, 1})])
    expanded = powerset_expand(aut)
    for word in ("c", "ac", "ca", "bc", "cb", "abc"):
        for start in aut.states:
            assert not alt_membership(aut, start, word), (start, word)
            assert not nfa_accepts(expanded, frozenset({start}), word)
    assert alt_membership(aut, 1, "")
    assert not alt_membership(aut, 0, "")
    assert not alt_membership(aut, 2, "")
    assert alt_membership(aut, 0, "ab")


def test_alt_membership_matches_set_reference():
    # "c" is read by no state but S_STAR, "d" by none at all; targets go
    # through S_STAR, which accepts every word over "abc"
    rng = make_rng(609)
    words = [w for k in range(5) for w in itertools.product("abcd", repeat=k)]
    for i in range(40):
        states = list(range(rng.randint(1, 6))) + [S_STAR]
        transitions = {(S_STAR, a, frozenset({S_STAR})) for a in "abc"}
        for _ in range(rng.randint(0, 12)):
            targets = frozenset(rng.sample(states, rng.randint(1, 3)
                                           if len(states) > 2 else 1))
            transitions.add((rng.choice(states[:-1]), rng.choice("ab"),
                             targets))
        finals = frozenset(rng.sample(states, rng.randint(0, len(states))))
        aut = AltAutomaton(frozenset(states), frozenset("abcd"), finals,
                           frozenset(transitions))
        for start in states:
            for word in words:
                assert alt_membership(aut, start, word) == \
                    alt_membership_sets(aut, start, word), (aut, start, word)


def test_alt_membership_basic():
    aut = alt(alphabet="ab", finals=[1, 2],
              transitions=[(0, "a", {1, 2}), (1, "b", {1}), (2, "b", {2})])
    assert alt_membership(aut, 0, "a")
    assert alt_membership(aut, 0, "ab")
    assert not alt_membership(aut, 0, "b")


def test_alt_run_targets_characterises_membership():
    # start accepts word+suffix iff some minimal run target accepts the suffix
    rng = make_rng(707)
    for i in range(20):
        aut = random_alt(rng)
        for word in itertools.chain.from_iterable(
                itertools.product("ab", repeat=k) for k in range(3)):
            targets = alt_run_targets(aut, 0, word)
            for suffix in itertools.chain.from_iterable(
                    itertools.product("ab", repeat=k) for k in range(3)):
                via_targets = any(
                    all(alt_membership(aut, t, suffix) for t in tset)
                    for tset in targets)
                assert via_targets == alt_membership(aut, 0, word + suffix)


def test_folded_run_targets_match_product_reference():
    rng = make_rng(708)
    for i in range(200):
        states = list(range(6))
        transitions = {(rng.choice(states), rng.choice("ab"),
                        frozenset(rng.sample(states, rng.randint(1, 3))))
                       for _ in range(rng.randint(6, 16))}
        aut = AltAutomaton(frozenset(states), frozenset("ab"),
                           frozenset({0}), frozenset(transitions))
        for word in itertools.chain.from_iterable(
                itertools.product("ab", repeat=k) for k in range(4)):
            for start in (0, 1):
                assert alt_run_targets(aut, start, word) == \
                    run_targets_by_product(aut, start, word), \
                    (aut, start, word)


def test_run_targets_queries_build_one_index(monkeypatch):
    def make():
        return alt(alphabet="ab", finals=[2],
                   transitions=[(0, "a", {1, 2}), (0, "a", {1}),
                                (1, "b", {2}), (2, "b", {2})])

    aut = make()
    first = alt_run_targets(aut, 0, "ab")
    assert first == frozenset({frozenset({2})})

    def build_index(*args):
        raise AssertionError("a query built a second index")

    for name in ("_numbering", "_mask", "_mask_entries"):
        monkeypatch.setattr(automata, name, build_index)
    with pytest.raises(AssertionError):
        alt_run_targets(make(), 0, "ab")  # an equal automaton, unindexed
    for word in ("ab", "a", "", "abb"):
        assert alt_run_targets(aut, 0, word) == \
            run_targets_by_product(aut, 0, word)


# The mask kernel against the references of reference.py, on masks whose
# bit i stands for state i.


def bits_of(mask):
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def mask_of(states):
    return sum(1 << i for i in states)


def random_masks(rng, count, width, max_bits):
    return [mask_of(rng.sample(range(width), rng.randint(1, max_bits)))
            for _ in range(count)]


def test_mask_antichain_matches_minimal():
    rng = make_rng(710)
    inputs = [[], [0], [0, 5, 3], [7, 7, 7], [1 << 100, 1 << 100 | 1, 1 << 100]]
    for width in (6, 20, 90):  # 90 bits: wider than a machine word
        for count in (2, 5, 9, 24, 60):
            for _ in range(10):
                masks = random_masks(rng, count, width, 4)
                inputs.append(masks)
                inputs.append(masks + masks[:count // 2])  # duplicates
                inputs.append(masks + [0])  # the empty set dominates
        # all singletons: the shape of an even level's full value
        inputs.append([1 << b for b in range(width)])
        inputs.append([1 << b for b in range(width)] + random_masks(
            rng, 20, width, 3))
        # nested chains, in both orders, with repeats
        chain = [mask_of(range(k, width)) for k in range(width)]
        inputs += [chain, chain[::-1], chain + chain[::3]]
    for masks in inputs:
        want = minimal({bits_of(m) for m in masks})
        got = _antichain(masks)
        assert {bits_of(m) for m in got} == want, masks
        assert len(got) == len(want)


def test_absorbing_fold_matches_product_reference():
    rng = make_rng(711)
    for width in (6, 20, 90):
        for _ in range(150):
            options = [_antichain(random_masks(rng, rng.randint(0, 5),
                                               width, 3))
                       for _ in range(rng.randint(0, 4))]
            if options and options[0] and rng.random() < 0.5:
                # a choice within one of the first option's absorbs it
                m = rng.choice(sorted(options[0]))
                options.append(_antichain(
                    [m & -m, mask_of(rng.sample(range(width), 2))]))
            want = minimal({frozenset().union(*map(bits_of, combo))
                            for combo in itertools.product(*options)})
            assert {bits_of(m) for m in _fold(options)} == want, options


def test_mask_run_targets_match_product_reference():
    rng = make_rng(712)
    for i in range(120):
        states = list(range(6))
        transitions = {(rng.choice(states), rng.choice("ab"),
                        frozenset(rng.sample(states, rng.randint(1, 3))))
                       for _ in range(rng.randint(6, 16))}
        aut = AltAutomaton(frozenset(states), frozenset("ab"),
                           frozenset({0}), frozenset(transitions))
        # bits spread past 64, in an order unrelated to the states' own
        bit = {s: 7 + 13 * ((5 * s) % 6) for s in states}
        name = {b: s for s, b in bit.items()}
        index = _mask_entries(aut.transitions, bit)
        for word in itertools.chain.from_iterable(
                itertools.product("ab", repeat=k) for k in range(4)):
            for start in (0, 1):
                reads = {}
                got = _run_targets(index, bit[start], word, reads)
                assert {frozenset(name[b] for b in bits_of(m))
                        for m in got} == \
                    run_targets_by_product(aut, start, word), \
                    (aut, start, word)
                # the targets are a function of the entries read
                assert _run_targets({k: v for k, v in reads.items()
                                     if v is not None},
                                    bit[start], word, {}) == got


def test_alt_rejects_empty_target_set():
    with pytest.raises(InvalidInputError):
        AltAutomaton(frozenset({0}), frozenset("a"), frozenset(),
                     frozenset({(0, "a", frozenset())}))


def test_alt_constructor_checks_every_input():
    states, alphabet = frozenset({0, 1}), frozenset("ab")
    for finals, transition, message in (
            ({2}, (0, "a", {1}), "finals must be a subset of states"),
            ({1}, (2, "a", {1}), "transition source not a state: 2"),
            ({1}, (0, "c", {1}), "transition label not in alphabet: 'c'"),
            ({1}, (0, "a", {1, 2}),
             "target set must be a non-empty subset of states")):
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            AltAutomaton(states, alphabet, frozenset(finals), frozenset(
                {(transition[0], transition[1], frozenset(transition[2]))}))


def _equal_pair(make):
    first, second = make(), make()
    assert first == second and first is not second
    return first, second


def test_equal_automata_keep_their_own_indexes():
    def make_nfa():
        return nfa(alphabet="ab", finals=[2],
                   transitions=[(0, "a", 1), (1, EPS, 2), (2, "b", 0)])

    def make_alt():
        return alt(alphabet="ab", finals=[1], transitions=[(0, "a", {1, 2})])

    for index, make in (("_step_index", make_nfa), ("_eps_components", make_nfa),
                        ("_subset_steps", make_nfa),
                        ("_mask_index", make_alt),
                        ("_mask_by_symbol", make_alt)):
        first, second = _equal_pair(make)
        # queried alike, each keeps steps of its own
        query = nfa_accepts if make is make_nfa else alt_membership
        assert query(first, 0, "ab") == query(second, 0, "ab")
        assert getattr(first, index) is getattr(first, index)
        assert getattr(second, index) is not getattr(first, index)
        assert getattr(second, index) == getattr(first, index)
        # the stored index leaves equality and hashing alone
        assert first == second and hash(first) == hash(second)
        assert first == make() and hash(first) == hash(make())


def _query_fresh_automata(count, offset):
    for i in range(offset, offset + count):
        aut = nfa(alphabet="ab", finals=[("f", i)],
                  transitions=[(0, "a", ("f", i)), (0, EPS, ("f", i))])
        assert nfa_accepts(aut, 0, "a")
        assert aut.__dict__["_subset_steps"]
        game = alt(alphabet="ab", finals=[("f", i)],
                   transitions=[(0, "a", {("f", i)})])
        assert alt_membership(game, 0, "a")
        assert game.__dict__["_mask_by_symbol"][2]


def test_indexes_die_with_their_automata():
    tracemalloc.start()
    try:
        _query_fresh_automata(1000, 0)
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        _query_fresh_automata(10_000, 1000)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # 10k automata with indexes kept alive would hold megabytes
    assert grown < 100_000, grown


def test_sentinels_survive_copy_and_pickle():
    data = Path(__file__).parent / "data"
    system, sections = cli.parse((data / "parity_game.pds").read_text())
    region = games.solve_parity_game(
        cli._build_game(sections, system, "paritygame"))
    assert {S_BOT, S_STAR} <= region.aut.states
    system, _ = cli.parse((data / "deriv.pds").read_text())
    rel = deriv_relation(system, "q0", "q3")
    # the behaviour automaton's intermediate states are headed by a Sentinel
    assert any("beh" in repr(s) for s, _ in rel.u_step)
    assert any("beh" in repr(t) for t, _ in rel.v_step)
    for clone in [copy.copy, copy.deepcopy] + [
            lambda x, protocol=protocol: pickle.loads(pickle.dumps(x, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]:
        for sentinel in (S_BOT, S_STAR, oracle.SINK):
            assert clone(sentinel) is sentinel
        assert clone(region.aut) == region.aut
        assert clone(rel.u_step) == rel.u_step
        assert clone(rel.v_step) == rel.v_step
    with pytest.raises(ValueError, match="named 'sink' exists already"):
        Sentinel("sink")
