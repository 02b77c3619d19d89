import copy
import inspect
import pickle
from collections import deque
from dataclasses import dataclass, replace
from functools import cached_property

import pytest

from conftest import configurations_upto, make_rng, random_pds, random_view
from pdsat import (EPS, Configuration, InvalidInputError, Nfa, PAutomatonView,
                   buchi_target_automaton, pds, pop_relation, poststar,
                   predecessors, prestar, singleton_view, successors)
from pdsat.oracle import bfs_prestar_member
from pdsat.reachability import view_errors


def simple_system():
    return pds(controls={"p", "q"}, alphabet={"A", "B", "_"}, bottom="_",
               rules=[("p", "A", "p", ()),
                      ("p", "A", "q", ("B", "A")),
                      ("q", "B", "p", ()),
                      ("q", "_", "p", ("A", "_"))])


def test_prestar_hand_example():
    sys1 = simple_system()
    target = singleton_view(sys1, Configuration("p", ("_",)))
    result = prestar(sys1, target)
    assert result.accepts(Configuration("p", ("_",)))
    assert result.accepts(Configuration("p", ("A", "A", "_")))
    assert result.accepts(Configuration("q", ("B", "A", "_")))
    assert result.accepts(Configuration("q", ("_",)))  # q_ -> pA_ -> p_
    assert not result.accepts(Configuration("q", ("A", "_")))


def test_singleton_view_accepts_exactly_one():
    sys1 = simple_system()
    c = Configuration("q", ("B", "A", "_"))
    view = singleton_view(sys1, c)
    assert view.accepts(c)
    for other in configurations_upto(sys1, 3):
        if other != c:
            assert not view.accepts(other)


def test_prestar_contains_input_language():
    rng = make_rng(21)
    for i in range(20):
        sys_i = random_pds(rng)
        view = random_view(rng, sys_i)
        result = prestar(sys_i, view)
        for c in configurations_upto(sys_i, 3):
            if view.accepts(c):
                assert result.accepts(c)


def test_prestar_completeness_against_bounded_search():
    # anything that demonstrably reaches the target must be accepted
    rng = make_rng(22)
    for i in range(20):
        sys_i = random_pds(rng)
        view = random_view(rng, sys_i)
        result = prestar(sys_i, view)
        for c in configurations_upto(sys_i, 3):
            if bfs_prestar_member(sys_i, view.accepts, c, 6):
                assert result.accepts(c), (sys_i, c)


def test_prestar_minimality_against_bounded_search():
    # accepted small configurations must reach the target within a generous
    # height bound; seeds are fixed so this cannot flake
    rng = make_rng(23)
    for i in range(20):
        sys_i = random_pds(rng)
        view = random_view(rng, sys_i)
        result = prestar(sys_i, view)
        for c in configurations_upto(sys_i, 2):
            if result.accepts(c):
                assert bfs_prestar_member(sys_i, view.accepts, c, len(c.stack) + 6), \
                    (sys_i, c)


def test_prestar_is_a_predecessor_fixpoint():
    rng = make_rng(24)
    for i in range(20):
        sys_i = random_pds(rng)
        view = random_view(rng, sys_i)
        result = prestar(sys_i, view)
        for c in configurations_upto(sys_i, 3):
            expanded = view.accepts(c) or any(
                result.accepts(c2) for c2 in successors(sys_i, c))
            assert result.accepts(c) == expanded, (sys_i, c)


def test_poststar_is_a_successor_fixpoint():
    rng = make_rng(25)
    for i in range(20):
        sys_i = random_pds(rng)
        view = random_view(rng, sys_i)
        result = poststar(sys_i, view)
        for c in configurations_upto(sys_i, 3):
            expanded = view.accepts(c) or any(
                result.accepts(c0) for c0 in predecessors(sys_i, c))
            assert result.accepts(c) == expanded, (sys_i, c)


def test_poststar_contains_forward_closure():
    rng = make_rng(26)
    for i in range(15):
        sys_i = random_pds(rng)
        view = random_view(rng, sys_i)
        result = poststar(sys_i, view)
        seeds = [c for c in configurations_upto(sys_i, 2) if view.accepts(c)]
        seen = set(seeds)
        todo = deque(seeds)
        while todo:
            c = todo.popleft()
            assert result.accepts(c), (sys_i, c)
            for c2 in successors(sys_i, c):
                if len(c2.stack) <= 4 and c2 not in seen:
                    seen.add(c2)
                    todo.append(c2)


def _reached_from(system, view, c, h):
    """Whether some configuration accepted by ``view`` reaches ``c`` over
    stacks of height at most ``h`` (a bounded search backwards from ``c``)."""
    seen = {c}
    todo = deque(seen)
    while todo:
        c1 = todo.popleft()
        if view.accepts(c1):
            return True
        for c0 in predecessors(system, c1):
            if len(c0.stack) <= h and c0 not in seen:
                seen.add(c0)
                todo.append(c0)
    return False


def _assert_poststar_matches_search(system, view, result):
    for c in configurations_upto(system, 2):
        assert result.accepts(c) == _reached_from(system, view, c, 5), (system, c)


def _with_extra_transitions(view, extra, finals=()):
    aut = view.aut
    return PAutomatonView(
        Nfa(aut.states, aut.alphabet, aut.finals | frozenset(finals),
            aut.transitions | frozenset(extra)),
        dict(view.control_embed))


def _with_eps(rng, view):
    """``view`` with ε-edges added (``view`` needs three extra states)."""
    extras = sorted(set(view.aut.states) - set(view.control_embed.values()))
    sources = sorted(view.aut.states)
    eps = {(rng.choice(sources), EPS, rng.choice(extras)) for _ in range(2)}
    eps.add((rng.choice(extras), EPS, min(view.aut.finals)))
    return _with_extra_transitions(view, eps)


def _needing_repair(rng, system, view):
    """``view`` with edges into its controls and a final control."""
    controls = sorted(view.control_embed.values())
    into = {(rng.choice(sorted(view.aut.states)), rng.choice(
        sorted(system.alphabet)), rng.choice(controls)) for _ in range(2)}
    return _with_extra_transitions(view, into, {rng.choice(controls)})


def test_poststar_eps_input_matches_bounded_search():
    rng = make_rng(31)
    for i in range(12):
        sys_i = random_pds(rng)
        view = _with_eps(rng, random_view(rng, sys_i, n_extra=3))
        assert view.aut.has_eps()
        _assert_poststar_matches_search(sys_i, view, poststar(sys_i, view))


def test_poststar_repaired_input_matches_bounded_search():
    rng = make_rng(32)
    for i in range(12):
        sys_i = random_pds(rng)
        view = _needing_repair(rng, sys_i, random_view(rng, sys_i))
        assert view_errors(view)
        with pytest.warns(UserWarning):
            result = poststar(sys_i, view)
        _assert_poststar_matches_search(sys_i, view, result)


def _push_targets(system):
    return {(r.to_control, r.pushed[0]) for r in system.rules
            if len(r.pushed) == 2}


def test_poststar_is_eps_free_with_one_state_per_push_target():
    rng = make_rng(33)
    for i in range(20):
        sys_i = random_pds(rng, n_rules=8)
        view = random_view(rng, sys_i)
        result = poststar(sys_i, view)
        assert not result.aut.has_eps()
        assert all(a is not EPS for _, a, _ in result.aut.transitions)
        assert view.aut.states <= result.aut.states
        added = result.aut.states - view.aut.states
        assert len(added) <= len(_push_targets(sys_i)), (sys_i, added)
        assert result.control_embed == view.control_embed


@dataclass(frozen=True)
class _PushState:
    """Same name and fields as the states post* adds."""

    control: object
    symbol: object


def test_poststar_with_state_names_imitating_fresh_states():
    rng = make_rng(34)
    for i in range(12):
        sys_i = random_pds(rng, n_rules=8)
        targets = sorted(_push_targets(sys_i)) or [("q0", "A")]
        fakes = [_PushState(*t) for t in targets] + targets
        view = random_view(rng, sys_i, n_extra=len(fakes))
        rename = {("x", k): fake for k, fake in enumerate(fakes)}
        aut = view.aut
        mimic = PAutomatonView(
            Nfa(frozenset(rename.get(s, s) for s in aut.states), aut.alphabet,
                frozenset(rename.get(s, s) for s in aut.finals),
                frozenset((rename.get(s, s), a, rename.get(t, t))
                          for s, a, t in aut.transitions)),
            dict(view.control_embed))
        plain, mimicked = poststar(sys_i, view), poststar(sys_i, mimic)
        assert (len(mimicked.aut.states - mimic.aut.states)
                == len(plain.aut.states - view.aut.states))
        for c in configurations_upto(sys_i, 3):
            assert mimicked.accepts(c) == plain.accepts(c), (sys_i, c)


def test_poststar_results_on_one_input_are_equal():
    sys1 = simple_system()
    view = singleton_view(sys1, Configuration("p", ("A", "_")))
    first, second = poststar(sys1, view), poststar(sys1, view)
    assert first.aut == second.aut and first.aut is not second.aut
    assert hash(first.aut) == hash(second.aut)
    fresh = sorted(first.aut.states - view.aut.states, key=repr)
    # the CLI sorts states by repr, so the repr is part of the output
    assert list(map(repr, fresh)) == ["_PushState(control='p', symbol='A')",
                                      "_PushState(control='q', symbol='B')"]
    assert [(m.control, m.symbol) for m in fresh] == [("p", "A"), ("q", "B")]
    assert ("q", "B") not in first.aut.states
    rng = make_rng(37)
    for i in range(10):
        sys_i = random_pds(rng, n_rules=8)
        view = random_view(rng, sys_i)
        assert poststar(sys_i, view).aut == poststar(sys_i, view).aut


def test_poststar_results_survive_copy_and_pickle():
    sys1 = simple_system()
    view = singleton_view(sys1, Configuration("p", ("A", "_")))
    result = poststar(sys1, view)
    fresh = result.aut.states - view.aut.states
    assert fresh
    copies = [copy.deepcopy(result.aut)]
    copies += [pickle.loads(pickle.dumps(result.aut, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for aut in copies:
        assert aut == result.aut
        assert aut.states - view.aut.states == fresh
        assert (sorted(map(repr, aut.transitions))
                == sorted(map(repr, result.aut.transitions)))
        copied = PAutomatonView(aut, result.control_embed)
        for c in configurations_upto(sys1, 3):
            assert copied.accepts(c) == result.accepts(c), c
    for m in fresh:
        assert copy.copy(m) == m and repr(copy.copy(m)) == repr(m)


def _over_alphabet(view, alphabet):
    """``view`` over ``alphabet``, less the transitions reading other symbols."""
    aut = view.aut
    return PAutomatonView(
        Nfa(aut.states, frozenset(alphabet), aut.finals,
            frozenset(t for t in aut.transitions if t[1] in alphabet)),
        dict(view.control_embed))


def test_saturations_check_labels_against_a_narrower_view_alphabet():
    sys1 = simple_system()
    # pre*: pA_ -> p_ pops the A that the view's alphabet lacks
    narrow = _over_alphabet(singleton_view(sys1, Configuration("p", ("_",))),
                            {"B", "_"})
    with pytest.raises(InvalidInputError, match="label not in alphabet: 'A'"):
        prestar(sys1, narrow)
    # post*: q_ -> pA_ pushes it
    narrow = _over_alphabet(singleton_view(sys1, Configuration("q", ("_",))),
                            {"B", "_"})
    with pytest.raises(InvalidInputError, match="label not in alphabet: 'A'"):
        poststar(sys1, narrow)

    # Otherwise the result is the one over the system's alphabet, checked.
    rng = make_rng(38)
    outcomes = set()
    for i in range(30):
        sys_i = random_pds(rng)
        dropped = rng.choice(sorted(sys_i.alphabet - {sys_i.bottom}))
        narrow = _over_alphabet(random_view(rng, sys_i),
                                sys_i.alphabet - {dropped})
        wide = _over_alphabet(narrow, sys_i.alphabet)
        for saturate in (prestar, poststar):
            expected = saturate(sys_i, wide)
            if any(a == dropped for _, a, _ in expected.aut.transitions):
                with pytest.raises(InvalidInputError,
                                   match="label not in alphabet"):
                    saturate(sys_i, narrow)
                outcomes.add("raised")
                continue
            result = saturate(sys_i, narrow)
            aut = result.aut
            assert aut.transitions == expected.aut.transitions
            assert Nfa(aut.states, aut.alphabet, aut.finals,
                       aut.transitions) == aut
            for c in configurations_upto(sys_i, 3):
                if dropped not in c.stack:
                    assert result.accepts(c) == expected.accepts(c), c
            outcomes.add("returned")
    assert outcomes == {"raised", "returned"}


# ---------------------------------------------------------------------------
# Step indexes handed over by the saturations


def _saturation_results(rng, count):
    """``(system, result)`` of pre*, post* (on plain, ε and repaired
    inputs) and the pop-guessing automaton, on ``count`` random systems."""
    results = []
    for i in range(count):
        sys_i = random_pds(rng)
        view = random_view(rng, sys_i, n_extra=3)
        inputs = [view, _with_eps(rng, view)]
        repaired = _needing_repair(rng, sys_i, view)
        with pytest.warns(UserWarning):
            results += [(sys_i, prestar(sys_i, repaired)),
                        (sys_i, poststar(sys_i, repaired))]
        results += [(sys_i, saturate(sys_i, v))
                    for v in inputs for saturate in (prestar, poststar)]
        results += [(sys_i, buchi_target_automaton(sys_i, q_f))
                    for q_f in sorted(sys_i.controls)]
    return results


def test_saturations_hand_over_the_index_a_checked_nfa_builds():
    for system, result in _saturation_results(make_rng(35), 12):
        aut = result.aut
        handed = aut.__dict__["_step_index"]  # there before any query
        assert aut.__dict__["_has_eps"] is False
        assert all(len(set(targets)) == len(targets)
                   for targets in handed.values())
        # the checked constructor accepts what the unchecked one built
        checked = Nfa(aut.states, aut.alphabet, aut.finals, aut.transitions)
        assert checked == aut and not checked.has_eps()
        assert ({key: set(targets) for key, targets in handed.items()}
                == {key: set(targets)
                    for key, targets in checked._step_index.items()})


def test_a_handed_step_index_raises_on_a_missing_key_and_never_grows():
    # a saturation hands over its worklist's own index: a read of it must
    # neither make up an entry nor add a key
    for system, result in _saturation_results(make_rng(37), 6):
        index = result.aut.__dict__["_step_index"]
        before = {key: list(targets) for key, targets in index.items()}
        for key in [(s, a) for s in result.aut.states
                    for a in system.alphabet if (s, a) not in index]:
            with pytest.raises(KeyError):
                index[key]
        for c in configurations_upto(system, 3):
            result.accepts(c)
        assert {key: list(targets) for key, targets in index.items()} == before


def test_queries_on_saturation_results_build_no_index(monkeypatch):
    results = _saturation_results(make_rng(36), 6)
    sys1, first = results[0]
    unindexed = PAutomatonView(
        Nfa(first.aut.states, first.aut.alphabet, first.aut.finals,
            first.aut.transitions), first.control_embed)

    def build_index(aut):
        raise AssertionError("a query built a second step index")

    replaced = cached_property(build_index)
    replaced.__set_name__(Nfa, "_step_index")
    monkeypatch.setattr(Nfa, "_step_index", replaced)
    c = Configuration(sorted(sys1.controls)[0], (sys1.bottom,))
    with pytest.raises(AssertionError):
        unindexed.accepts(c)  # an automaton without a handed-over index
    accepted = 0
    for system, result in results:
        for c in configurations_upto(system, 3):
            accepted += result.accepts(c)
    assert accepted > 0


# ---------------------------------------------------------------------------
# Pop relation


def _bottom_free_rules(system):
    return [r for r in system.rules
            if r.from_symbol != system.bottom and system.bottom not in r.pushed]


def _bounded_stack_reach(system, start_control, start_stack, h):
    """All (control, stack) pairs reachable over bottom-free stacks of height
    at most ``h``; the empty stack is a dead end."""
    rules = _bottom_free_rules(system)
    seen = {(start_control, start_stack)}
    todo = deque(seen)
    while todo:
        p, stack = todo.popleft()
        if not stack:
            continue
        for r in rules:
            if r.from_control == p and r.from_symbol == stack[0]:
                nxt = (r.to_control, r.pushed + stack[1:])
                if len(nxt[1]) <= h and nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
    return seen


def test_pop_relation_matches_bounded_simulation():
    rng = make_rng(27)
    for i in range(25):
        sys_i = random_pds(rng)
        rel = pop_relation(sys_i)
        for p in sys_i.controls:
            for a in sys_i.alphabet - {sys_i.bottom}:
                reached = _bounded_stack_reach(sys_i, p, (a,), 5)
                for q in sys_i.controls:
                    assert ((p, a, q) in rel) == ((q, ()) in reached), \
                        (sys_i, p, a, q)


def test_buchi_target_matches_prestar():
    rng = make_rng(29)
    for i in range(20):
        sys_i = random_pds(rng)
        for q_f in sorted(sys_i.controls):
            direct = buchi_target_automaton(sys_i, q_f)
            target = singleton_view(sys_i, Configuration(q_f, (sys_i.bottom,)))
            saturated = prestar(sys_i, target)
            for c in configurations_upto(sys_i, 3):
                assert direct.accepts(c) == saturated.accepts(c), (sys_i, q_f, c)


def test_prestar_trace_targets_satisfy_pop_relation():
    rng = make_rng(30)
    audited = 0
    for i in range(20):
        sys_i = random_pds(rng)
        view = singleton_view(sys_i, Configuration(
            sorted(sys_i.controls)[0], (sys_i.bottom,)))
        trace = []
        prestar(sys_i, view, trace=trace)
        state_control = {s: p for p, s in view.control_embed.items()}
        for p, a, target in trace:
            if target in state_control and a != sys_i.bottom:
                assert (p, a, state_control[target]) in pop_relation(sys_i)
                audited += 1
    assert audited > 0


# ---------------------------------------------------------------------------
# View validation and repair


def test_view_errors_and_repair():
    sys1 = simple_system()
    embed = {p: ("ctrl", p) for p in sys1.controls}
    # a transition back into an embedded control and a final control state
    states = frozenset(set(embed.values()) | {"f"})
    transitions = frozenset({(("ctrl", "p"), "A", ("ctrl", "q")),
                             (("ctrl", "q"), "_", "f")})
    aut = Nfa(states, sys1.alphabet, frozenset({"f", ("ctrl", "p")}), transitions)
    view = PAutomatonView(aut, embed)
    errors = view_errors(view)
    assert any("into embedded" in e for e in errors)
    assert any("is final" in e for e in errors)
    # pre* and post* under no rules are the repaired view's own language,
    # which is the view's
    no_rules = replace(sys1, rules=frozenset())
    for saturate in (prestar, poststar):
        with pytest.warns(UserWarning):
            fixed = saturate(no_rules, view)
        assert view_errors(fixed) == []
        for c in configurations_upto(sys1, 2):
            assert view.accepts(c) == fixed.accepts(c), (saturate, c)


def test_repair_clones_never_equal_a_callers_state():
    # p is final, so it is cloned; a caller's state ("clone", "p"), which
    # prints as the clone does, must stay apart from the clone.  The view
    # reads "_ A" into a final, which no stack is, so it accepts nothing,
    # and neither do pre* and post* of it
    system = pds(controls={"p"}, alphabet={"A", "_"}, bottom="_",
                 rules=[("p", "A", "p", ())])
    for other in (("clone", "p"), ("other", "p")):
        aut = Nfa(frozenset({"p", other, "f"}), system.alphabet,
                  frozenset({"p", "f"}),
                  frozenset({("p", "_", other), (other, "A", "f")}))
        view = PAutomatonView(aut, {"p": "p"})
        for saturate in (prestar, poststar):
            with pytest.warns(UserWarning):
                result = saturate(system, view)
            assert not any(map(result.accepts,
                               configurations_upto(system, 3))), \
                (other, saturate)


def test_singleton_view_refuses_an_unknown_control():
    with pytest.raises(InvalidInputError, match="unknown control: 'r'"):
        singleton_view(simple_system(), Configuration("r", ("_",)))


def test_repair_warning_names_the_callers_line():
    sys1 = simple_system()
    embed = {p: ("ctrl", p) for p in sys1.controls}
    aut = Nfa(frozenset(embed.values()) | {"f"}, sys1.alphabet,
              frozenset({"f"}),
              frozenset({(("ctrl", "p"), "A", ("ctrl", "q")),
                         (("ctrl", "q"), "_", "f")}))
    view = PAutomatonView(aut, embed)
    for system in (sys1, replace(sys1, rules=frozenset())):
        for saturate in (prestar, poststar):
            with pytest.warns(UserWarning) as record:
                line = inspect.currentframe().f_lineno + 1
                saturate(system, view)
            assert len(record) == 1
            assert (record[0].filename, record[0].lineno) == (__file__, line)


def test_prestar_requires_embedded_controls():
    sys1 = simple_system()
    view = singleton_view(sys1, Configuration("p", ("_",)))
    partial = PAutomatonView(view.aut, {"p": view.control_embed["p"]})
    with pytest.raises(InvalidInputError):
        prestar(sys1, partial)
    with pytest.raises(InvalidInputError, match="control not embedded: 'q'"):
        partial.accepts(Configuration("q", ("_",)))
    # an embedded state the automaton does not have
    missing = PAutomatonView(view.aut, dict(view.control_embed, q="gone"))
    assert view_errors(missing) == \
        ["embedded state missing from automaton: 'gone'"]
    with pytest.raises(InvalidInputError, match="unknown control: 'zzz'"):
        buchi_target_automaton(sys1, "zzz")


def test_controls_sharing_an_embedded_state_are_rejected():
    # q's rule adds a transition out of the shared state e, which p would
    # read too: (p, A _) would be accepted, though p has no rule on A
    system = pds(controls={"p", "q"}, alphabet={"A", "_"}, bottom="_",
                 rules=[("q", "A", "q", ())])
    aut = Nfa(frozenset({"e", "f"}), system.alphabet, frozenset({"f"}),
              frozenset({("e", "_", "f")}))
    view = PAutomatonView(aut, {"p": "e", "q": "e"})
    assert view_errors(view) == \
        ["controls 'p' and 'q' share the embedded state 'e'"]
    for saturate in (prestar, poststar):
        with pytest.raises(InvalidInputError,
                           match="'p' and 'q' share the embedded state 'e'"):
            saturate(system, view)
