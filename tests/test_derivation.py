import itertools
import re
from collections import deque
from pathlib import Path

import pytest

from conftest import (configurations_upto, make_rng, random_bottom_free_pds,
                      shaped_bottom_free_pds, stacks_upto)
from pdsat import (Configuration, InvalidInputError, apply_actions, automata,
                   behaviour_automaton, benois_reduce, cli, deriv_member,
                   deriv_relation, derivation, pds, poststar, singleton_view)
from pdsat.automata import EPS, Language, Nfa, eps_closure, nfa_accepts
from pdsat.derivation import (POP, PUSH, ActionAlphabet, _benois_saturate,
                              _phase_pattern, _reduced_pattern,
                              action_alphabet, pop, push)
from reference import (_productive_pattern, _split, decompose,
                       deriv_member_pairwise, pattern_forbidden_factors,
                       product_intersect, productive_filter, reduce_word,
                       relabel, relation_pairs, reverse, words_upto)


def test_apply_actions_basic():
    # pop A, pop B, push C, push D turns ABB into DCB
    actions = [pop("A"), pop("B"), push("C"), push("D")]
    assert apply_actions(("A", "B", "B"), actions) == ("D", "C", "B")
    assert apply_actions(("A",), [pop("B")]) is None
    assert apply_actions((), [push("A")]) == ("A",)
    assert apply_actions(("A",), []) == ("A",)


def test_apply_actions_rejects_garbage():
    with pytest.raises(InvalidInputError):
        apply_actions(("A",), [("?", "A")])


def test_reduce_word_regression():
    word = [pop("B"), push("A"), push("A"), pop("A"), pop("A"), push("C")]
    assert reduce_word(word) == (pop("B"), push("C"))


def test_reduce_word_properties():
    rng = make_rng(31)
    base = ["A", "B"]
    actions = [push(a) for a in base] + [pop(a) for a in base]
    for i in range(200):
        word = tuple(rng.choice(actions) for _ in range(rng.randint(0, 8)))
        red = reduce_word(word)
        # idempotent and actually reduced
        assert reduce_word(red) == red
        assert all(not (red[j][0] == PUSH and red[j + 1][0] == POP
                        and red[j][1] == red[j + 1][1])
                   for j in range(len(red) - 1))
        # same effect on every stack
        for stack in itertools.chain.from_iterable(
                itertools.product(base, repeat=k) for k in range(3)):
            assert apply_actions(stack, word) == apply_actions(stack, red)


def bottom_free(system):
    """Strip the bottom rules a random system might carry."""
    rules = [r for r in system.rules
             if r.from_symbol != system.bottom and system.bottom not in r.pushed]
    return pds(controls=sorted(system.controls, key=str),
               alphabet=sorted(system.alphabet), bottom=system.bottom,
               rules=rules)


def action_words(base, maxlen):
    symbols = [push(a) for a in base] + [pop(a) for a in base]
    for k in range(maxlen + 1):
        yield from itertools.product(symbols, repeat=k)


def test_behaviour_automaton_words_are_rule_sequences():
    sys1 = pds(controls={"p", "q"}, alphabet={"A", "B", "_"}, bottom="_",
               rules=[("p", "A", "q", ("B", "A")), ("q", "B", "p", ())])
    lang = behaviour_automaton(sys1, "p", "p")
    words = words_upto(lang.aut, lang.start, 6)
    assert () in words
    assert (pop("A"), push("A"), push("B"), pop("B")) in words
    assert (pop("A"),) not in words


def test_benois_reduce_matches_per_word_reduction():
    rng = make_rng(32)
    for i in range(25):
        sys_i = bottom_free(random_bottom_free_pds(rng))
        base = sorted(sys_i.alphabet - {sys_i.bottom})
        controls = sorted(sys_i.controls)
        lang = behaviour_automaton(sys_i, controls[0], controls[-1])
        red = benois_reduce(lang)
        expected = {reduce_word(w)
                    for w in words_upto(lang.aut, lang.start, 6)}
        got = words_upto(red.aut, red.start, 4)
        want = {w for w in expected if len(w) <= 4}
        # every reduced form of a short word appears; nothing unreduced does
        assert want <= got, (sys_i, want - got)
        for w in got:
            assert reduce_word(w) == w


def test_productive_filter():
    rng = make_rng(33)
    for i in range(10):
        sys_i = bottom_free(random_bottom_free_pds(rng))
        controls = sorted(sys_i.controls)
        red = benois_reduce(behaviour_automaton(sys_i, controls[0], controls[-1]))
        prod = productive_filter(red)
        for w in words_upto(prod.aut, prod.start, 4):
            # a productive reduced word applies to some concrete stack:
            # its pops must spell a prefix the stack can provide
            pops = [a for k, a in w if k == POP]
            assert apply_actions(tuple(pops), w) is not None
        for w in words_upto(red.aut, red.start, 4):
            bad = any(w[j][0] == PUSH and w[j + 1][0] == POP
                      for j in range(len(w) - 1))
            assert prod.accepts(w) == (not bad), (sys_i, w)


def test_decompose_reassembles():
    rng = make_rng(34)
    for i in range(15):
        sys_i = bottom_free(random_bottom_free_pds(rng))
        controls = sorted(sys_i.controls)
        red = benois_reduce(behaviour_automaton(sys_i, controls[0], controls[-1]))
        prod = productive_filter(red)
        pairs = decompose(prod)
        whole = words_upto(prod.aut, prod.start, 4)
        rebuilt = set()
        for x, y in pairs:
            for u in words_upto(x.aut, x.start, 4):
                for v in words_upto(y.aut, y.start, 4):
                    if len(u) + len(v) <= 4:
                        rebuilt.add(u + v)
        assert rebuilt == whole, (sys_i,)


def test_decompose_refuses_what_is_not_pops_then_pushes():
    def lang(transitions, finals=(2,), alphabet=(pop("A"), push("A"))):
        return Language(Nfa(frozenset({0, 1, 2, 3}), frozenset(alphabet),
                            frozenset(finals), frozenset(transitions)), 0)

    for language, message in (
            (lang([(0, "A", 2)], alphabet=("A",)),
             "not an action symbol: 'A'"),
            (lang([(0, EPS, 2)]),
             "decompose requires an epsilon-free automaton"),
            # a push followed by a pop on an accepting path
            (lang([(0, push("A"), 1), (1, pop("A"), 2)]),
             "language is not included in pops* pushes*")):
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            decompose(language)
    # a push and a pop after it on a path that accepts nothing are trimmed
    # away first: the one boundary state is 1, between the pop and the push
    pairs = decompose(lang([(0, pop("A"), 1), (1, push("A"), 2),
                            (2, push("A"), 3), (3, pop("A"), 3)]))
    assert [(words_upto(x.aut, x.start, 3), y.start,
             words_upto(y.aut, y.start, 3)) for x, y in pairs] == \
        [({(pop("A"),)}, 1, {(push("A"),)})]


def test_deriv_relation_hand_example():
    sys1 = pds(controls={"p"}, alphabet={"A", "B", "C", "D", "_"}, bottom="_",
               rules=[("p", "A", "p", ()), ("p", "B", "p", ("D", "C"))])
    rel = deriv_relation(sys1, "p", "p")
    assert deriv_member(rel, ("A", "B", "B"), ("D", "C", "B"))
    assert deriv_member(rel, ("A", "B", "B"), ("B", "B"))
    assert deriv_member(rel, ("B",), ("D", "C"))
    assert not deriv_member(rel, ("B",), ("C", "D"))
    assert not deriv_member(rel, ("A",), ("B",))
    assert deriv_member(rel, ("X",), ("X",)) is True  # zero steps, any suffix


def test_deriv_member_unknown_symbols_only_in_the_suffix():
    sys1 = pds(controls={"p"}, alphabet={"A", "B", "C", "D", "_"}, bottom="_",
               rules=[("p", "A", "p", ()), ("p", "B", "p", ("D", "C"))])
    rel = deriv_relation(sys1, "p", "p")
    assert deriv_member(rel, ("A", "X"), ("X",))  # pop A, keep X
    assert deriv_member(rel, ("B", "X"), ("D", "C", "X"))
    # every split would pop or push an unknown symbol: no, and no error
    assert deriv_member(rel, ("X",), ("Y",)) is False
    assert deriv_member(rel, ("X", "A"), ("A",)) is False
    assert deriv_member(rel, ("A",), ("Y",)) is False
    assert deriv_member(rel, ("X",), ()) is False
    assert deriv_member(rel, (), ("Y",)) is False


def test_deriv_member_matches_poststar():
    rng = make_rng(35)
    for i in range(20):
        sys_i = bottom_free(random_bottom_free_pds(rng))
        base = sorted(sys_i.alphabet - {sys_i.bottom})
        controls = sorted(sys_i.controls)
        q0, qf = controls[0], controls[-1]
        rel = deriv_relation(sys_i, q0, qf)
        for w1 in itertools.chain.from_iterable(
                itertools.product(base, repeat=k) for k in range(3)):
            start = Configuration(q0, w1 + (sys_i.bottom,))
            reached = poststar(sys_i, singleton_view(sys_i, start))
            for w2 in itertools.chain.from_iterable(
                    itertools.product(base, repeat=k) for k in range(3)):
                want = reached.accepts(Configuration(qf, w2 + (sys_i.bottom,)))
                assert deriv_member(rel, w1, w2) == want, (sys_i, w1, w2)


def all_words(base, maxlen):
    return list(itertools.chain.from_iterable(
        itertools.product(base, repeat=k) for k in range(maxlen + 1)))


def test_deriv_member_matches_pairwise_reference():
    for system, q0, qf in deriv_instances(40, 100):
        rel = deriv_relation(system, q0, qf)
        words = all_words(sorted(system.alphabet - {system.bottom}), 3)
        for w1 in words:
            for w2 in words:
                assert deriv_member(rel, w1, w2) == deriv_member_pairwise(
                    rel, w1, w2), (system, q0, qf, w1, w2)


def test_deriv_member_builds_one_index(monkeypatch):
    sys1 = pds(controls={"p"}, alphabet={"A", "B", "C", "D", "_"}, bottom="_",
               rules=[("p", "A", "p", ()), ("p", "B", "p", ("D", "C"))])
    rel = deriv_relation(sys1, "p", "p")
    assert deriv_member(rel, ("A", "B"), ("D", "C"))

    def build_index(*args):
        raise AssertionError("a query built a second index")

    for name in ("_numbering", "_mask"):
        monkeypatch.setattr(derivation, name, build_index)
    with pytest.raises(AssertionError):
        # an equal-looking relation keeps its own index, unbuilt
        deriv_member(deriv_relation(sys1, "p", "p"), ("A",), ())
    assert deriv_member(rel, ("A", "B", "B"), ("D", "C", "B"))
    assert not deriv_member(rel, ("B",), ("C", "D"))
    assert deriv_member(rel, ("X",), ("X",))


def numbered_states(rel):
    states = {rel.u_start, rel.V_START} | rel.finals
    for step in (rel.u_step, rel.v_step):
        for (s, _), ts in step.items():
            states.add(s)
            states.update(ts)
    return states


def test_deriv_member_matches_pairwise_reference_past_64_states():
    # frontier masks wider than one machine word; the relation has one
    # state per ε-component, so the systems are drawn larger than that
    rng = make_rng(42)
    for _ in range(10):
        system = bottom_free(random_bottom_free_pds(
            rng, n_controls=20, n_symbols=3, n_rules=100))
        controls = sorted(system.controls)
        rel = deriv_relation(system, controls[0], controls[-1])
        if len(numbered_states(rel)) > 64:
            break
    else:
        pytest.fail("no relation with more than 64 states drawn")
    base = sorted(system.alphabet - {system.bottom})
    known = all_words(base, 2)
    # "X" is outside the alphabet: in the common suffix, and out of it
    words = (known + [w + ("X",) for w in known]
             + [("X",) + w for w in all_words(base, 1)])
    answers = {}
    for w1 in words:
        for w2 in words:
            answers[w1, w2] = deriv_member(rel, w1, w2)
            assert answers[w1, w2] == deriv_member_pairwise(rel, w1, w2), \
                (w1, w2)
    assert any(answers[w1, ()] for w1 in known if w1)
    assert any(answers[w1, w2] for w1, w2 in answers
               if "X" in w1 and len(w1) > 1)


def test_deriv_member_matches_pairwise_reference_on_longer_words():
    # one word of each pair has 4-6 symbols, and "X", outside the
    # alphabet, takes each of its positions in turn; the other word often
    # ends in a suffix of it, so both answers occur; the first relation is
    # empty, since no path leads from p to q
    empty = pds(controls={"p", "q"}, alphabet={"A", "B", "_"}, bottom="_",
                rules=[("p", "A", "p", ("B",)), ("q", "B", "q", ())])
    instances = [(empty, "p", "q")] + list(deriv_instances(44, 39))
    rng = make_rng(45)
    positions, answers = set(), []
    for system, q0, qf in instances:
        rel = deriv_relation(system, q0, qf)
        base = sorted(system.alphabet - {system.bottom})
        for _ in range(520):
            long = [rng.choice(base) for _ in range(rng.randint(4, 6))]
            at = rng.randrange(len(long) + 1)
            if at < len(long):
                long[at] = "X"
                positions.add((len(long), at))
            cut = rng.randrange(len(long) + 1)
            other = tuple(rng.choice(base) for _ in range(rng.randint(0, 3)))
            if rng.random() < 0.75:
                other += tuple(long[cut:])
            pair = (tuple(long), other)[::rng.choice((1, -1))]
            answer = deriv_member(rel, *pair)
            assert answer == deriv_member_pairwise(rel, *pair), \
                (system, q0, qf, pair)
            answers.append(answer)
        if system is empty:
            assert not any(answers)
    assert len(answers) >= 20000
    assert positions == {(n, i) for n in (4, 5, 6) for i in range(n)}
    assert 0.05 < sum(answers) / len(answers) < 0.95


def test_deriv_member_memo_holds_unions_of_single_states():
    # each key a query adds to a side's per-symbol table is a frontier of
    # two or more states, and maps to the OR of its states' entries
    rng = make_rng(46)
    system = bottom_free(shaped_bottom_free_pds(rng, 6))
    rel = deriv_relation(system, "q0", "q5")
    words = all_words(sorted(system.alphabet - {system.bottom}), 4)
    for _ in range(400):
        deriv_member(rel, rng.choice(words), rng.choice(words))
    wide = 0
    for moves in rel._mask_index[3:]:
        for table in moves.values():
            for front, succ in table.items():
                union, rest = 0, front
                while rest:
                    low = rest & -rest
                    union |= table.get(low, 0)
                    rest ^= low
                assert succ == union, (front, succ, union)
                wide += front.bit_count() >= 2
    assert wide


def test_deriv_relation_unknown_control_named():
    sys1 = pds(controls={"p"}, alphabet={"A", "_"}, bottom="_",
               rules=[("p", "A", "p", ())])
    with pytest.raises(InvalidInputError, match="unknown control: 'zz'$"):
        deriv_relation(sys1, "zz", "p")
    with pytest.raises(InvalidInputError,
                       match="unknown control: 'zz', 'yy'$"):
        behaviour_automaton(sys1, "zz", "yy")


def test_behaviour_states_never_equal_a_control():
    # p A -> r B B passes through ('beh', 1, 0) in the behaviour automaton;
    # a control of that name used to merge with it, so that the relation
    # took the rule ('beh', 1, 0) B -> r halfway through the push
    # (i: the place of p's rule among the rules in repr order)
    for control, i in (("q", 0), (("beh", 1, 0), 1)):
        system = pds(controls=["p", control, "r"], alphabet=["A", "B", "_"],
                     bottom="_", rules=[("p", "A", "r", ("B", "B")),
                                        (control, "B", "r", ())])
        relation = deriv_relation(system, "p", "r")
        assert not deriv_member(relation, ("A", "B"), ())
        assert deriv_member(relation, ("A",), ("B", "B"))
        states = behaviour_automaton(system, "p", "r").aut.states
        # the fresh states keep their printed names, which the CLI sorts by
        assert sorted(map(repr, states - system.controls)) == \
            [f"('beh', {i}, 0)", f"('beh', {i}, 1)"]


def test_deriv_relation_rejects_bottom_rules():
    sys1 = pds(controls={"p"}, alphabet={"A", "_"}, bottom="_",
               rules=[("p", "_", "p", ("A", "_"))])
    with pytest.raises(InvalidInputError):
        deriv_relation(sys1, "p", "p")


def test_action_alphabet():
    sys1 = pds(controls={"p"}, alphabet={"A", "_"}, bottom="_", rules=[])
    alpha = action_alphabet(sys1)
    assert alpha.symbols == {push("A"), pop("A")}


def naive_saturation(aut):
    """Reference Benois saturation: recompute epsilon reachability and scan
    every transition for each push edge, round after round."""
    transitions = set(aut.transitions)
    pushes = [(s, a[1], t) for s, a, t in transitions if a is not EPS and a[0] == PUSH]
    changed = True
    while changed:
        changed = False
        step = {}
        for s, a, t in transitions:
            if a is EPS:
                step.setdefault(s, set()).add(t)
        for s, base_symbol, mid in pushes:
            for u in reach_from(step, mid):
                for s2, a, t in list(transitions):
                    if (s2 == u and a == (POP, base_symbol)
                            and (s, EPS, t) not in transitions):
                        transitions.add((s, EPS, t))
                        changed = True
    return Nfa(aut.states, aut.alphabet, aut.finals, frozenset(transitions))


def reach_from(step, start):
    seen = {start}
    todo = deque([start])
    while todo:
        for v in step.get(todo.popleft(), ()):
            if v not in seen:
                seen.add(v)
                todo.append(v)
    return seen


def reachable_part(aut, start):
    """The sub-automaton of the states reachable from ``start``."""
    step = {}
    for s, _, t in aut.transitions:
        step.setdefault(s, set()).add(t)
    keep = reach_from(step, start)
    return (keep, aut.finals & keep,
            {tr for tr in aut.transitions if tr[0] in keep})


def random_action_automaton(rng, base=("A", "B"), eps_rate=0.2):
    symbols = sorted(f(a) for a in base for f in (push, pop))
    states = list(range(rng.randint(2, 6)))
    transitions = set()
    for _ in range(rng.randint(2, 10)):
        label = EPS if rng.random() < eps_rate else rng.choice(symbols)
        transitions.add((rng.choice(states), label, rng.choice(states)))
    finals = frozenset(rng.sample(states, rng.randint(1, len(states))))
    return Language(Nfa(frozenset(states), frozenset(symbols), finals,
                        frozenset(transitions)), 0)


def eps_component_names(aut):
    """Each state of ``aut`` named by the member of least ``repr`` of its
    ε-component: the states that ``reach_from`` finds from it by ε moves
    and that find it back."""
    step = {}
    for s, a, t in aut.transitions:
        if a is EPS:
            step.setdefault(s, set()).add(t)
    reach = {s: reach_from(step, s) for s in aut.states}
    return {s: min((t for t in reach[s] if s in reach[t]), key=repr)
            for s in aut.states}


def quotient(aut, names):
    """``aut`` with each state ``(s, p)`` renamed ``(names[s], p)``."""
    def rename(state):
        s, p = state
        return names[s], p
    return Nfa(frozenset(map(rename, aut.states)), aut.alphabet,
               frozenset(map(rename, aut.finals)),
               frozenset((rename(s), a, rename(t))
                         for s, a, t in aut.transitions))


def test_benois_saturation_matches_naive_rounds():
    # the product has one state per ε-component of the saturated automaton,
    # so the reference is quotiented by its own components, then compared
    # state for state; the second hundred draws have more ε moves, so that
    # more of them merge states
    rng = make_rng(36)
    merged = 0
    for i in range(200):
        lang = random_action_automaton(rng, eps_rate=0.2 if i < 100 else 0.6)
        pattern, pstart = pattern_forbidden_factors(
            lang.aut.alphabet, {(push(a), pop(a)) for a in ("A", "B")})
        saturated = naive_saturation(lang.aut)
        names = eps_component_names(saturated)
        merged += any(s != name for s, name in names.items())
        reference = quotient(product_intersect(eps_closure(saturated),
                                               pattern, pstart), names)
        # from the state of least repr, and from the one of greatest, which
        # is not its component's name when the component has two states
        for start in (0, max(lang.aut.states)):
            got = benois_reduce(Language(lang.aut, start))
            assert got.start == (names[start], pstart)
            assert reachable_part(reference, got.start) == (
                got.aut.states, got.aut.finals, got.aut.transitions), \
                (i, start, lang.aut)
    assert merged >= 30, merged


def deriv_instances(seed, count):
    rng = make_rng(seed)
    for i in range(count):
        system = bottom_free(random_bottom_free_pds(
            rng, n_controls=rng.randint(2, 4), n_symbols=rng.randint(1, 3),
            n_rules=rng.randint(3, 9)))
        controls = sorted(system.controls)
        yield system, rng.choice(controls), rng.choice(controls)


def test_products_hold_only_reachable_states():
    for system, q0, qf in deriv_instances(37, 30):
        reduced = benois_reduce(behaviour_automaton(system, q0, qf))
        productive = productive_filter(reduced)
        for lang in (reduced, productive):
            assert reachable_part(lang.aut, lang.start)[0] == lang.aut.states


def is_trimmed(lang):
    keep, _, _ = reachable_part(lang.aut, lang.start)
    back = {}
    for s, _, t in lang.aut.transitions:
        back.setdefault(t, set()).add(s)
    co = set()
    for f in lang.aut.finals:
        co |= reach_from(back, f)
    return keep == lang.aut.states == co


def test_deriv_relation_pairs_are_trimmed():
    for system, q0, qf in deriv_instances(38, 30):
        for u, v in relation_pairs(deriv_relation(system, q0, qf)):
            assert is_trimmed(u) and is_trimmed(v), (system, q0, qf)


def test_deriv_relation_matches_per_pair_reference():
    for system, q0, qf in deriv_instances(39, 50):
        productive = productive_filter(
            benois_reduce(behaviour_automaton(system, q0, qf)))
        pairs = decompose(productive)
        rel_pairs = relation_pairs(deriv_relation(system, q0, qf))
        assert len(rel_pairs) == len(pairs)
        for (x, y), (u, v) in zip(pairs, rel_pairs):
            assert u.aut.finals == set(map(phase_state, x.aut.finals))
            assert u.start == phase_state(x.start)
            u_ref = Language(relabel(x.aut, lambda a: a[1]), x.start)
            v_aut, v_start = reverse(relabel(y.aut, lambda a: a[1]), y.start)
            v_ref = Language(eps_closure(v_aut), v_start)
            assert words_upto(u.aut, u.start, 4) \
                == words_upto(u_ref.aut, u_ref.start, 4), (system, q0, qf)
            assert words_upto(v.aut, v.start, 4) \
                == words_upto(v_ref.aut, v_ref.start, 4), (system, q0, qf)


# ---------------------------------------------------------------------------
# One product with the phase pattern


def action_words(alpha, n):
    symbols = sorted(alpha.symbols)
    return itertools.chain.from_iterable(
        itertools.product(symbols, repeat=k) for k in range(n + 1))


def test_reduced_pattern_is_the_generic_pattern_written_out():
    for n in range(6):
        alpha = ActionAlphabet(frozenset("ABCDE"[:n]))
        assert _reduced_pattern(alpha) == pattern_forbidden_factors(
            alpha.symbols, {(push(a), pop(a)) for a in alpha.base})


def test_phase_pattern_is_the_meet_of_the_two_patterns():
    # the words in pops* pushes* are those with no A+A- and no A+B- factor
    for base in ("A", "AB", "ABC"):
        alpha = ActionAlphabet(frozenset(base))
        patterns = [_phase_pattern(alpha), _reduced_pattern(alpha),
                    _productive_pattern(alpha)]
        answers = set()
        for word in action_words(alpha, 5):
            phase, reduced, productive = (nfa_accepts(aut, start, word)
                                          for aut, start in patterns)
            assert phase == (reduced and productive), (base, word)
            answers.add(phase)
        assert answers == {True, False}


def phase_state(state):
    """The state of ``deriv_relation``'s product that stands for ``state``
    of ``productive_filter(benois_reduce(...))``: ``((s, r), p)`` is ``(s,
    POP)`` when r is the reduced pattern's start, and ``(s, PUSH)`` after a
    push."""
    (s, r), _ = state
    return (s, POP if r == ("pat", None) else PUSH)


def relation_fields(rel):
    def targets(step):
        return {key: set(ts) for key, ts in step.items()}
    return (rel.alphabet, rel.u_start, rel.finals, rel.boundary,
            targets(rel.u_step), targets(rel.v_step))


def relation_of_public_steps(system, q0, qf):
    """The relation as the public steps build it: the split of
    ``productive_filter(benois_reduce(...))``, relabelled and reversed, its
    states renamed by ``phase_state``."""
    lang = productive_filter(benois_reduce(behaviour_automaton(system, q0, qf)))
    _, finals, pop_trans, push_trans, boundary = _split(lang)
    finals = frozenset(map(phase_state, finals))
    u_step, v_step = {}, {}
    for s, a, t in pop_trans:
        u_step.setdefault((phase_state(s), a[1]), set()).add(phase_state(t))
    v_start = derivation.PrefixRewriteRelation.V_START
    for s, a, t in push_trans:
        s, t = phase_state(s), phase_state(t)
        v_step.setdefault((t, a[1]), set()).add(s)
        if t in finals:
            v_step.setdefault((v_start, a[1]), set()).add(s)
    alphabet = frozenset(a[1] for a in lang.aut.alphabet)
    return (alphabet, phase_state(lang.start), finals,
            tuple(map(phase_state, boundary)), u_step, v_step)


def bench_sized_instances(seed, count):
    """Systems at the sizes of the derivation benchmark: 5-8 controls, each
    with one rule pushing a word of each length of 0, 0, 0, 1, 1, 2, as
    ``bench/gen.py``'s ``bottom_free_system`` draws them.  The first has a
    single base symbol, the others three."""
    rng = make_rng(seed)
    for i in range(count):
        system = shaped_bottom_free_pds(rng, n_controls=rng.randint(5, 8),
                                        n_symbols=1 if i == 0 else 3)
        controls = sorted(system.controls)
        yield system, rng.choice(controls), rng.choice(controls)


def test_deriv_relation_equals_the_split_of_the_public_steps():
    for system, q0, qf in itertools.chain(deriv_instances(42, 40),
                                          bench_sized_instances(44, 20)):
        assert relation_fields(deriv_relation(system, q0, qf)) == \
            relation_of_public_steps(system, q0, qf), (system, q0, qf)


def test_deriv_boundary_has_one_state_per_eps_component():
    # on the deriv fixture, the ten boundary states of the product over the
    # unmerged states lie in five ε-components of the saturated automaton
    data = Path(__file__).parent / "data"
    system, _ = cli.parse((data / "deriv.pds").read_text())
    rel = deriv_relation(system, "q0", "q3")
    saturated, alpha = _benois_saturate(behaviour_automaton(system, "q0", "q3"))
    rep = saturated._eps_components[0]
    pattern, start = _phase_pattern(alpha)
    full = product_intersect(saturated, pattern, start)
    unmerged = _split(Language(full, ("q0", start)))[4]
    assert len(unmerged) == 10 and len(rel.boundary) == 5
    assert {(rep.get(s, s), p) for s, p in unmerged} == set(rel.boundary)


def test_deriv_relation_builds_one_product(monkeypatch):
    # one call to the product loop, with the phase pattern, and no product Nfa
    calls = []

    def counted(aut, start, pattern, pattern_start):
        calls.append((pattern, pattern_start))
        return automata._product_out(aut, start, pattern, pattern_start)

    def refused(*args):
        raise AssertionError("deriv_relation built a product Nfa")

    monkeypatch.setattr(derivation, "_product_out", counted)
    monkeypatch.setattr(derivation, "_reachable_product", refused)
    system, q0, qf = next(deriv_instances(43, 1))
    deriv_relation(system, q0, qf)
    alpha = action_alphabet(system)
    assert calls == [_phase_pattern(alpha)]


def test_deriv_relation_step_lists_hold_distinct_targets():
    # the push start takes the sources of the last push into every final:
    # a source that pushes into several finals is listed once
    for system, q0, qf in itertools.chain(deriv_instances(45, 40),
                                          bench_sized_instances(46, 20)):
        rel = deriv_relation(system, q0, qf)
        for step in (rel.u_step, rel.v_step):
            for key, targets in step.items():
                assert len(set(targets)) == len(targets), (system, q0, qf, key)
