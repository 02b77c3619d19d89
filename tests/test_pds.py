import copy
import gc
import importlib
import itertools
import pickle
import tracemalloc

import pytest

import pdsat as P
from conftest import configurations_upto, make_rng, random_pds
from pdsat import (Configuration, InvalidInputError, PushdownSystem, Rule, pds,
                   predecessors, successors, validate)
from pdsat.pds import check_valid, is_valid_configuration
from reference import (is_valid_configuration_by_scan, predecessors_by_scan,
                       successors_by_scan)

# the module; the package's ``pdsat.pds`` is the constructor
pds_module = importlib.import_module("pdsat.pds")


def simple_system():
    return pds(controls={"p", "q"}, alphabet={"A", "B", "_"}, bottom="_",
               rules=[("p", "A", "p", ()),
                      ("p", "A", "q", ("B", "A")),
                      ("q", "B", "p", ()),
                      ("q", "_", "p", ("A", "_"))])


def test_validate_accepts_well_formed():
    assert validate(simple_system()) == []


def test_validate_rejects_bottom_violations():
    bad_pop = pds(bottom="_", rules=[("p", "_", "p", ())])
    assert any("pops bottom" in e for e in validate(bad_pop))
    bad_push = pds(bottom="_", rules=[("p", "A", "p", ("_",))])
    assert any("pushes bottom" in e for e in validate(bad_push))
    bad_shape = pds(bottom="_", rules=[("p", "_", "p", ("_", "A"))])
    assert any("malformed bottom rule" in e for e in validate(bad_shape))


def test_validate_rejects_wide_push():
    bad = pds(bottom="_", rules=[Rule("p", "A", "p", ("A", "A", "A"))])
    assert any("more than two" in e for e in validate(bad))


def test_validate_rejects_names_the_system_does_not_declare():
    # pds() declares every name its rules use, so build the systems directly
    controls, alphabet = frozenset({"p"}), frozenset({"A", "_"})
    for system, errors in (
            (PushdownSystem(controls, frozenset({"A"}), "_", frozenset()),
             ["bottom symbol is not in the alphabet"]),
            (PushdownSystem(controls, alphabet, "_",
                            frozenset({Rule("p", "A", "q", ())})),
             ["rule (p,A)->(q,ε): unknown control state"]),
            (PushdownSystem(controls, alphabet, "_",
                            frozenset({Rule("p", "A", "p", ("B",))})),
             ["rule (p,A)->(p,B): unknown stack symbol"])):
        assert validate(system) == errors
        with pytest.raises(InvalidInputError) as err:
            check_valid(system)
        assert str(err.value) == errors[0]


def test_a_none_stack_symbol_is_refused_as_eps():
    # None is EPS, the automata's empty word: as a bottom, poststar from
    # (q, None) used to reject (q, None) itself and (q, A None), both of
    # which it accepts with the bottom named "_"
    rules = [("p", "A", "q", ()), ("q", "_", "q", ("A", "_"))]
    named = pds(controls=["p", "q"], alphabet=["A"], bottom="_", rules=rules)
    start = Configuration("q", ("_",))
    view = P.singleton_view(named, start)
    forward = P.poststar(named, view)
    assert forward.accepts(start)
    assert forward.accepts(Configuration("q", ("A", "_")))

    system = pds(controls=["p", "q"], alphabet=["A"], bottom=None,
                 rules=[("p", "A", "q", ()), ("q", None, "q", ("A", None))])
    assert system.bottom is None and None in system.alphabet
    assert validate(system) == [
        "stack symbol None is EPS, the empty word; give every symbol, "
        "the bottom too, another value"]
    owner = dict.fromkeys(system.controls, P.ELOISE)
    buchi = P.PushdownGame(system, owner, P.BuchiCondition(frozenset({"q"})))
    parity = P.PushdownGame(system, owner, P.ParityCondition(
        dict.fromkeys(system.controls, 0), 0))
    for analysis in (
            lambda: P.singleton_view(system, Configuration("q", (None,))),
            lambda: P.prestar(system, view),
            lambda: P.poststar(system, view),
            lambda: P.pop_relation(system),
            lambda: P.buchi_target_automaton(system, "q"),
            lambda: P.deriv_relation(system, "p", "q"),
            lambda: P.solve_buchi_game(buchi),
            lambda: P.solve_parity_game(parity),
            lambda: P.bounded_graph(buchi, 2),
            lambda: P.bfs_prestar_member(system, bool,
                                         Configuration("q", (None,)), 2)):
        with pytest.raises(InvalidInputError, match="EPS"):
            analysis()


def test_rules_and_configurations_are_their_fields_as_tuples():
    rule = Rule("p", "A", "q", ("B", "C"))
    config = Configuration("p", ("A", "_"))
    assert repr(rule) == "(p,A)->(q,BC)"
    assert repr(Rule("p", "_", "q", ())) == "(p,_)->(q,ε)"
    assert repr(config) == "(p, A_)"
    for value, fields in ((rule, ("p", "A", "q", ("B", "C"))),
                          (config, ("p", ("A", "_")))):
        assert value == fields and fields == value
        assert hash(value) == hash(fields)
        assert {value: 1}[fields] == 1
        assert tuple(value) == fields
        for twin in (copy.copy(value), copy.deepcopy(value),
                     pickle.loads(pickle.dumps(value))):
            assert twin == value and type(twin) is type(value)
            assert repr(twin) == repr(value)
    p, a, q, pushed = rule
    assert (p, a, q, pushed) == (rule.from_control, rule.from_symbol,
                                 rule.to_control, rule.pushed)
    control, stack = config
    assert (control, stack) == (config.control, config.stack)
    assert sorted([Rule("q", "A", "p", ()), rule]) == \
        [rule, Rule("q", "A", "p", ())]


def test_pds_builds_one_system_from_rules_and_tuples():
    as_rules = pds(controls=["p"], bottom="_",
                   rules=[Rule("p", "A", "q", ("B", "A")),
                          Rule("q", "_", "p", ("A", "_"))])
    as_tuples = pds(controls=("p",), bottom="_",
                    rules=[("p", "A", "q", ["B", "A"]),
                           ("q", "_", "p", ["A", "_"])])
    assert as_rules == as_tuples
    assert hash(as_rules) == hash(as_tuples)
    assert as_tuples.controls == {"p", "q"}
    assert as_tuples.alphabet == {"A", "B", "_"}
    assert all(type(r) is Rule and type(r.pushed) is tuple
               for r in as_tuples.rules)
    assert validate(as_tuples) == []
    empty = pds(controls=["p"], alphabet=["A"], bottom="_")
    assert empty.rules == frozenset() and empty.alphabet == {"A", "_"}
    with pytest.raises(TypeError):
        pds(controls=["p"], rules=[("p", "A", "p", ())])  # no bottom


def test_configuration_validity():
    sys1 = simple_system()
    assert is_valid_configuration(sys1, Configuration("p", ("A", "_")))
    assert not is_valid_configuration(sys1, Configuration("p", ("A",)))
    assert not is_valid_configuration(sys1, Configuration("p", ("_", "A", "_")))
    assert not is_valid_configuration(sys1, Configuration("z", ("_",)))


def test_successors():
    sys1 = simple_system()
    succ = successors(sys1, Configuration("p", ("A", "_")))
    assert succ == {Configuration("p", ("_",)),
                    Configuration("q", ("B", "A", "_"))}
    assert successors(sys1, Configuration("q", ("_",))) == {
        Configuration("p", ("A", "_"))}


def test_predecessors_inverts_successors():
    rng = make_rng(11)
    for i in range(25):
        sys_i = random_pds(rng)
        for c in configurations_upto(sys_i, 2):
            for c2 in successors(sys_i, c):
                if len(c2.stack) <= 3:
                    assert c in predecessors(sys_i, c2), (sys_i, c, c2)
        for c in configurations_upto(sys_i, 2):
            for c0 in predecessors(sys_i, c):
                assert c in successors(sys_i, c0), (sys_i, c0, c)


def test_one_step_semantics_match_rule_scans():
    rng = make_rng(12)
    systems = [random_pds(rng, n_rules=rng.randint(1, 12)) for _ in range(20)]
    # one rule pushes three symbols: one more length of pushed word to index
    systems.append(pds(controls={"p", "q"}, alphabet={"A", "B", "_"},
                       bottom="_",
                       rules=[Rule("p", "A", "q", ("A", "B", "A")),
                              ("q", "A", "q", ("B",)), ("q", "B", "p", ()),
                              ("p", "_", "q", ("B", "_"))]))
    for system in systems:
        for c in configurations_upto(system, 3):
            assert successors(system, c) == successors_by_scan(system, c), c
            assert predecessors(system, c) == predecessors_by_scan(system, c), c
        # every stack up to height 3 over the alphabet, an unknown symbol
        # and the bottom symbol anywhere
        symbols = sorted(system.alphabet) + ["Z"]
        for k in range(4):
            for stack in itertools.product(symbols, repeat=k):
                for q in ("p", "q0", "z"):
                    c = Configuration(q, stack)
                    assert is_valid_configuration(system, c) == \
                        is_valid_configuration_by_scan(system, c), c


def test_successors_rejects_invalid_configuration():
    with pytest.raises(InvalidInputError):
        successors(simple_system(), Configuration("p", ()))


def test_predecessors_on_an_unchecked_system_keeps_only_valid_ones():
    # (p, A) pushing the bottom symbol is a fault of the system; the
    # candidate (p, A) it gives for (q, _) has no bottom and is dropped
    system = pds(bottom="_", rules=[("p", "A", "q", ("_",)),
                                    ("r", "_", "q", ("_",))])
    assert validate(system) == ["rule (p,A)->(q,_): pushes bottom"]
    assert predecessors(system, Configuration("q", ("_",))) == {
        Configuration("r", ("_",))}


# ---------------------------------------------------------------------------
# Each system is checked once


def _count_checks(monkeypatch):
    calls = []
    find = pds_module._find_violations

    def counted(system):
        calls.append(system)
        return find(system)

    monkeypatch.setattr(pds_module, "_find_violations", counted)
    return calls


def _identity_view(system):
    aut = P.Nfa(frozenset(system.controls) | {"f"}, system.alphabet,
                frozenset({"f"}),
                frozenset((p, system.bottom, "f") for p in system.controls))
    return P.PAutomatonView(aut, {p: p for p in system.controls})


def test_saturations_check_a_system_once(monkeypatch):
    calls = _count_checks(monkeypatch)
    system = simple_system()
    view = _identity_view(system)
    P.prestar(system, view)
    P.poststar(system, view)
    P.pop_relation(system)
    P.buchi_target_automaton(system, "p")
    P.prestar(system, view)
    assert len(calls) == 1 and calls[0] is system
    # an equal but distinct system is checked on its own
    P.pop_relation(simple_system())
    assert len(calls) == 2


def _bad_system():
    return pds(controls={"p", "q"}, bottom="_",
               rules=[("p", "_", "q", ()), ("q", "A", "p", ("_",)),
                      ("p", "A", "q", ("A", "A"))])


def test_invalid_system_fails_alike_at_every_entry_point(monkeypatch):
    calls = _count_checks(monkeypatch)
    system = _bad_system()
    expected = "; ".join(validate(system))
    assert "pops bottom" in expected and "pushes bottom" in expected
    view = _identity_view(system)
    owner = {p: P.ELOISE for p in system.controls}
    reach = P.ReachabilityCondition(
        P.alt(states={"p", "q", "f"}, alphabet=system.alphabet, finals={"f"},
              transitions=[("p", "_", {"f"})]), {"p": "p", "q": "q"})
    start = Configuration("p", ("_",))
    entry_points = {
        "prestar": lambda: P.prestar(system, view),
        "poststar": lambda: P.poststar(system, view),
        "pop_relation": lambda: P.pop_relation(system),
        "buchi_target_automaton": lambda: P.buchi_target_automaton(system, "p"),
        "deriv_relation": lambda: P.deriv_relation(system, "p", "q"),
        "solve_reachability_game": lambda: P.solve_reachability_game(
            P.PushdownGame(system, owner, reach)),
        "solve_buchi_game": lambda: P.solve_buchi_game(
            P.PushdownGame(system, owner, P.BuchiCondition(frozenset({"p"})))),
        "solve_parity_game": lambda: P.solve_parity_game(
            P.PushdownGame(system, owner,
                           P.ParityCondition({"p": 0, "q": 1}, 1))),
        "bounded_graph": lambda: P.bounded_graph(
            P.PushdownGame(system, owner, P.BuchiCondition(frozenset())), 2),
        "bfs_prestar_member": lambda: P.bfs_prestar_member(
            system, lambda c: False, start, 2),
    }
    for _ in range(2):
        for name, call in entry_points.items():
            with pytest.raises(InvalidInputError) as info:
                call()
            assert str(info.value) == expected, name
    assert len(calls) == 1 and calls[0] is system


def test_validate_returns_a_fresh_list():
    good, bad = simple_system(), _bad_system()
    validate(good).append("not a violation")
    assert validate(good) == []
    check_valid(good)
    P.pop_relation(good)
    errors = validate(bad)
    errors.clear()
    assert validate(bad) != []
    with pytest.raises(InvalidInputError):
        P.pop_relation(bad)
    assert validate(bad) is not validate(bad)


def _check_fresh_systems(count, offset):
    for i in range(offset, offset + count):
        system = pds(controls={("p", i)}, alphabet={"A"}, bottom="_",
                     rules=[(("p", i), "A", ("p", i), ())])
        check_valid(system)


def test_checks_die_with_their_systems():
    tracemalloc.start()
    try:
        _check_fresh_systems(1000, 0)
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        _check_fresh_systems(10_000, 1000)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # 10k systems with their checks kept alive would hold megabytes
    assert grown < 100_000, grown
