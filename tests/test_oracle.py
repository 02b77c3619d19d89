import re

import pytest

from conftest import (make_rng, random_pds, random_reachability_condition,
                      random_total_game)
from pdsat import (ABELARD, BuchiCondition, Configuration, ELOISE,
                   InvalidInputError, ParityCondition, PushdownGame,
                   ReachabilityCondition, ResourceLimitError, alt, pds,
                   region_member, solve_buchi_game, solve_parity_game,
                   solve_reachability_game)
from pdsat import oracle
from pdsat.oracle import (SINK, _regions, bfs_prestar_member, bounded_graph,
                          bounded_nodes, bracket_region)
from pdsat.pds import _predecessors, _successors, predecessors, successors
from reference import (attractor_by_own_preds, bounded_graph_by_filter,
                       bounded_search_by_filter, finite_game_region)


def one_owner_game(system):
    """``system`` as a game: Éloïse owns every control, and no control is
    Büchi-final."""
    return PushdownGame(system, dict.fromkeys(system.controls, ELOISE),
                        BuchiCondition(frozenset()))


def attract(nodes, edges, owner, target, player):
    """``oracle._attract`` reading the predecessor index of ``nodes``."""
    return oracle._attract(nodes, oracle._predecessor_index(nodes, edges),
                           edges, owner, target, player)


def test_bounded_nodes_count():
    sys1 = pds(controls={"p", "q"}, alphabet={"A", "B", "_"}, bottom="_",
               rules=[])
    # 2 controls x (1 + 2 + 4) stacks
    assert len(bounded_nodes(sys1, 3)) == 14


def test_bounded_graph_redirects_tall_pushes_to_sink():
    sys1 = pds(controls={"p"}, alphabet={"A", "_"}, bottom="_",
               rules=[("p", "A", "p", ("A", "A")), ("p", "_", "p", ("A", "_"))])
    g = bounded_graph(one_owner_game(sys1), 2)
    tall = Configuration("p", ("A", "_"))
    assert g.edges[tall] == {SINK}
    assert g.edges[SINK] == {SINK}


def test_bounded_graph_caps(monkeypatch):
    sys1 = pds(controls={"p"}, alphabet={"A", "B", "C", "D", "_"}, bottom="_",
               rules=[])

    def fail(*args):
        raise AssertionError("a bounded node was listed")

    # 1 + 4 + ... + 4**9 = 349,525 stacks, more than DEFAULT_NODE_CAP
    monkeypatch.setattr(oracle, "_config_of", fail)
    with pytest.raises(ResourceLimitError):
        bounded_graph(one_owner_game(sys1), 10)
    with pytest.raises(InvalidInputError):
        bounded_graph(one_owner_game(sys1), 0)
    # the bounded search stops once it has found more than the cap: from
    # (p, A _) it finds 1 + 2 + 4 + 8 = 15 stacks up to height 5
    growing = pds(controls={"p"}, alphabet={"A", "B", "_"}, bottom="_",
                  rules=[("p", x, "p", (y, x)) for x in "AB" for y in "AB"])
    start = Configuration("p", ("A", "_"))
    assert not bfs_prestar_member(growing, lambda c: False, start, 5)
    monkeypatch.setattr(oracle, "DEFAULT_NODE_CAP", 14)
    with pytest.raises(ResourceLimitError,
                       match="bounded search exceeded the node cap"):
        bfs_prestar_member(growing, lambda c: False, start, 5)


def test_bfs_prestar_member():
    sys1 = pds(controls={"p", "q"}, alphabet={"A", "_"}, bottom="_",
               rules=[("p", "A", "q", ()), ("q", "A", "q", ())])
    target = lambda c: c.control == "q" and c.stack == ("_",)
    assert bfs_prestar_member(sys1, target, Configuration("p", ("A", "_")), 3)
    assert bfs_prestar_member(sys1, target, Configuration("q", ("A", "A", "_")), 3)
    assert not bfs_prestar_member(sys1, target, Configuration("p", ("_",)), 3)
    with pytest.raises(InvalidInputError,
                       match="start configuration exceeds the height bound"):
        bfs_prestar_member(sys1, target, Configuration("q", ("A", "A", "_")), 2)
    # the start is checked before the search, whatever the target says of it
    for start in (Configuration("zz", ("A", "A", "_")),
                  Configuration("p", ("A", "A"))):
        for anything in (lambda c: True, lambda c: False):
            with pytest.raises(InvalidInputError,
                               match="invalid configuration"):
                bfs_prestar_member(sys1, anything, start, 5)


def test_attractor_hand_example():
    # a -> b -> goal, with an Abelard escape from b to a dead end
    nodes = {"a", "b", "goal", "dead"}
    edges = {"a": {"b"}, "b": {"goal", "dead"}, "goal": {"goal"},
             "dead": {"dead"}}
    owner_e = {"a": ELOISE, "b": ELOISE, "goal": ELOISE, "dead": ELOISE}
    assert attract(nodes, edges, owner_e, {"goal"}, ELOISE) == \
        {"a", "b", "goal"}
    owner_a = dict(owner_e, b=ABELARD)
    assert attract(nodes, edges, owner_a, {"goal"}, ELOISE) == {"goal"}


def test_attractor_never_attracts_stuck_opponent():
    nodes = {"a", "goal"}
    edges = {"a": set(), "goal": {"goal"}}
    owner = {"a": ABELARD, "goal": ELOISE}
    assert attract(nodes, edges, owner, {"goal"}, ELOISE) == {"goal"}


def test_stuck_abelard_outside_the_target_is_lost_for_eloise():
    # (q, _) has no move and is not in the target {(p, _)}; from (q, A _)
    # Abelard's only move pops into the target
    sys1 = pds(controls={"p", "q"}, alphabet={"A", "_"}, bottom="_",
               rules=[("q", "A", "p", ())])
    target = alt(states={"p", "q"}, alphabet={"A", "_"}, finals={"f"},
                 transitions=[("p", "_", {"f"})])
    game = PushdownGame(sys1, {"p": ELOISE, "q": ABELARD},
                        ReachabilityCondition(target, {"p": "p", "q": "q"}))
    region = solve_reachability_game(game)
    under, over = bracket_region(game, 3)
    for stack, won in ((("_",), False), (("A", "_"), True)):
        c = Configuration("q", stack)
        assert region_member(region, c) == under(c) == over(c) == won


def test_finite_buchi_region_hand_example():
    # p loops on the spot; q is forced into p. Büchi target p.
    sys1 = pds(controls={"p", "q"}, alphabet={"_"}, bottom="_",
               rules=[("p", "_", "p", ("_",)), ("q", "_", "p", ("_",))])
    game = PushdownGame(sys1, {"p": ELOISE, "q": ABELARD},
                        BuchiCondition(frozenset({"p"})))
    g = bounded_graph(game, 2)
    region = finite_game_region(g, game.condition, ABELARD)
    assert Configuration("p", ("_",)) in region
    assert Configuration("q", ("_",)) in region


def test_finite_parity_region_respects_colours():
    # one control bouncing between two colours: min colour decides
    sys1 = pds(controls={"p", "q"}, alphabet={"_"}, bottom="_",
               rules=[("p", "_", "q", ("_",)), ("q", "_", "p", ("_",))])
    game_even = PushdownGame(sys1, {"p": ELOISE, "q": ELOISE},
                             ParityCondition({"p": 0, "q": 1}, 1))
    game_odd = PushdownGame(sys1, {"p": ELOISE, "q": ELOISE},
                            ParityCondition({"p": 1, "q": 2}, 3))
    for game, expect in ((game_even, True), (game_odd, False)):
        g = bounded_graph(game, 2)
        region = finite_game_region(g, game.condition, ABELARD)
        assert (Configuration("p", ("_",)) in region) == expect


def test_bracket_monotone_in_height():
    rng = make_rng(51)
    for i in range(10):
        system, owner = random_total_game(rng)
        colours = {p: rng.randint(0, 2) for p in sorted(system.controls)}
        game = PushdownGame(system, owner, ParityCondition(colours, 2))
        u3, o3 = bracket_region(game, 3)
        u4, o4 = bracket_region(game, 4)
        for c in bounded_nodes(system, 3):
            # higher bounds refine the bracket from both sides
            assert not (u3(c) and not u4(c)), (system, c)
            assert not (o4(c) and not o3(c)), (system, c)
            assert not (u3(c) and not o3(c)), (system, c)


def test_totality_enforcement():
    stuck = pds(controls={"p"}, alphabet={"A", "_"}, bottom="_",
                rules=[("p", "A", "p", ())])
    game = PushdownGame(stuck, {"p": ELOISE},
                        BuchiCondition(frozenset({"p"})))
    with pytest.raises(InvalidInputError):
        bracket_region(game, 3)


def test_target_shape_errors_do_not_depend_on_the_hash_seed():
    # every fault of the target is named, each kind sorted by repr
    sys1 = pds(controls={"p", "q"}, alphabet={"A", "_"}, bottom="_",
               rules=[])
    target = alt(states={"f"}, alphabet={"A", "_"}, finals={"f", "q", "p"},
                 transitions=[("f", "A", {"p"}), ("f", "_", {"q", "f"}),
                              ("q", "A", {"p"})])
    game = PushdownGame(sys1, {"p": ELOISE, "q": ELOISE},
                        ReachabilityCondition(target, {"p": "p", "q": "q"}))
    message = "; ".join(
        [f"transition into embedded control state: {t!r}"
         for t in (("f", "A", "p"), ("f", "_", "q"), ("q", "A", "p"))]
        + ["embedded control state is final: 'p'",
           "embedded control state is final: 'q'"])
    for check in (solve_reachability_game, lambda g: bracket_region(g, 3)):
        with pytest.raises(InvalidInputError) as err:
            check(game)
        assert str(err.value) == message


def test_oracle_rejects_invalid_games_as_the_solvers_do():
    sys1 = pds(controls={"p", "q"}, alphabet={"A", "_"}, bottom="_",
               rules=[("p", "A", "q", ()), ("p", "_", "p", ("_",)),
                      ("q", "A", "p", ("A", "A")),
                      ("q", "_", "q", ("A", "_"))])
    owner = {"p": ELOISE, "q": ABELARD}
    target = alt(states={"ep", "eq", "f"}, alphabet={"A", "_"}, finals={"f"},
                 transitions=[("eq", "_", {"f"})])
    reach = ReachabilityCondition(target, {"p": "ep", "q": "eq"})
    cases = [
        (solve_reachability_game, {"p": ELOISE}, reach,
         "control has no owner: 'q'"),
        (solve_reachability_game, dict(owner, q="X"), reach,
         "control has no owner: 'q'"),
        (solve_parity_game, owner, ParityCondition({"p": 0}, 1),
         "control has no colour: 'q'"),
        (solve_reachability_game, owner,
         ReachabilityCondition(target, {"p": "ep"}),
         "control not embedded in target: 'q'"),
        (solve_buchi_game, owner, BuchiCondition(frozenset({"p", "zzz"})),
         "unknown Büchi controls"),
        # targets out of P-automaton shape
        (solve_reachability_game, owner,
         ReachabilityCondition(target, {"p": "eq", "q": "eq"}),
         "controls 'p' and 'q' share the embedded state 'eq'"),
        (solve_reachability_game, owner, ReachabilityCondition(
            alt(states={"ep", "eq", "f"}, alphabet={"A", "_"}, finals={"f"},
                transitions=[("eq", "_", {"f"}), ("f", "A", {"ep", "f"})]),
            reach.embed),
         "transition into embedded control state: ('f', 'A', 'ep')"),
        (solve_reachability_game, owner, ReachabilityCondition(
            alt(states={"ep", "eq", "f"}, alphabet={"A", "_"},
                finals={"f", "ep"}, transitions=[("eq", "_", {"f"})]),
            reach.embed),
         "embedded control state is final: 'ep'"),
        (solve_reachability_game, owner, ReachabilityCondition(
            alt(states={"ep", "eq", "f"}, alphabet={"A", "B", "_"},
                finals={"f"}, transitions=[("eq", "_", {"f"})]),
            reach.embed),
         "target alphabet differs from the game alphabet"),
    ]
    for solve, owners, cond, message in cases:
        game = PushdownGame(sys1, owners, cond)
        with pytest.raises(InvalidInputError, match=re.escape(message)) as err:
            solve(game)
        with pytest.raises(InvalidInputError) as oracle_err:
            bracket_region(game, 3)
        assert str(oracle_err.value) == str(err.value)
    # a condition of no kind: every solver refuses it by its own name, and
    # the oracle names the condition
    game = PushdownGame(sys1, owner, "reach")
    for solve in (solve_reachability_game, solve_buchi_game, solve_parity_game):
        with pytest.raises(InvalidInputError,
                           match=f"{solve.__name__} needs a .* condition"):
            solve(game)
    with pytest.raises(InvalidInputError,
                       match=re.escape("unsupported condition: 'reach'")):
        bracket_region(game, 3)


def test_bounded_searches_match_the_filtering_reference():
    # the steps build nothing past the bound, the reference cuts a full
    # step; seeds up to height 2, bounds 1-5 on either side of them
    rng = make_rng(3901)
    for _ in range(200):
        system = random_pds(rng, n_controls=rng.randint(1, 3),
                            n_symbols=rng.randint(1, 3),
                            n_rules=rng.randint(2, 8))
        seeds = rng.sample(bounded_nodes(system, 2), 2)
        for h in range(1, 6):
            start = [c for c in seeds if len(c.stack) <= h]
            for step, public in ((_successors, successors),
                                 (_predecessors, predecessors)):
                assert set(oracle._bounded_search(system, start, step, h)) \
                    == bounded_search_by_filter(system, start, public, h), \
                    (system, start, step.__name__, h)


def test_bounded_games_match_the_references(monkeypatch):
    # one graph built in one pass and one predecessor index per graph,
    # against the graph built in full and cut, solved with the attractor
    # that builds its own predecessor sets
    rng = make_rng(3902)
    cases = []
    for i in range(200):
        system, owner = random_total_game(rng, n_controls=rng.randint(1, 3),
                                          max_rules=rng.randint(1, 2))
        if i % 3 == 0:
            condition = random_reachability_condition(rng, system)
        elif i % 3 == 1:
            condition = BuchiCondition(frozenset(
                p for p in sorted(system.controls) if rng.random() < 0.5))
        else:
            condition = ParityCondition(
                {p: rng.randint(0, 3) for p in sorted(system.controls)}, 3)
        game = PushdownGame(system, owner, condition)
        h = rng.randint(1, 4)
        g, ref = bounded_graph(game, h), bounded_graph_by_filter(game, h)
        assert list(g.edges.items()) == list(ref.edges.items()), (game, h)
        # ``pdsat --oracle-check`` reads the bounded nodes off the graph
        assert list(g.edges)[1:] == bounded_nodes(system, h), (game, h)
        assert g.nodes == ref.nodes and g.owner == ref.owner, (game, h)
        # an attractor inside a subgame, as Zielonka's recursion asks for
        # one, reads the whole graph's index
        preds = oracle._predecessor_index(g.nodes, g.edges)
        order = sorted(g.nodes, key=repr)
        inside = {n for n in order if rng.random() < 0.7}
        target = {n for n in order if rng.random() < 0.2}
        for player in (ELOISE, ABELARD):
            assert oracle._attract(inside, preds, g.edges, g.owner, target,
                                   player) == attractor_by_own_preds(
                inside, g.edges, g.owner, target, player), (game, h)
        cases.append((game, h, _regions(g, condition),
                      bracket_region(game, h)))
    monkeypatch.setattr(
        oracle, "_attract",
        lambda nodes, preds, edges, owner, target, player:
        attractor_by_own_preds(nodes, edges, owner, target, player))
    for game, h, regions, (under, over) in cases:
        expected = _regions(bounded_graph_by_filter(game, h), game.condition)
        assert regions == expected, (game, h)
        for c in bounded_nodes(game.pds, h):
            assert (under(c), over(c)) == (c in expected[0],
                                           c in expected[1]), (game, c)
