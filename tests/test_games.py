import pytest

from conftest import (BOT, NoSteps, configurations_upto, make_rng,
                      random_reachability_condition, random_total_game)
from pdsat import (ABELARD, AltAutomaton, BuchiCondition, Configuration,
                   ELOISE, InvalidInputError, ParityCondition, PushdownGame,
                   ReachabilityCondition, alt, alt_membership, dual_game,
                   pds, prestar, region_member, singleton_view,
                   solve_buchi_game, solve_parity_game,
                   solve_reachability_game)
from pdsat import automata, games
from pdsat.automata import S_BOT, S_STAR, _members
from pdsat.oracle import bounded_nodes, bracket_region
from reference import (alt_membership_sets, initial_region_automaton,
                       pre_step, project, subsume)


def loop_or_pop_game():
    """Éloïse owns p, Abelard owns q; one rule per pair, so the game is total."""
    system = pds(controls={"p", "q"}, alphabet={"A", "_"}, bottom="_",
                 rules=[("p", "A", "q", ()),
                        ("p", "_", "p", ("_",)),
                        ("q", "A", "p", ("A", "A")),
                        ("q", "_", "q", ("A", "_"))])
    return system, {"p": ELOISE, "q": ABELARD}


def all_stack_target(system, winning_controls):
    """Target automaton accepting every stack from the given controls."""
    embed = {p: ("e", p) for p in system.controls}
    states = set(embed.values()) | {S_STAR, S_BOT}
    transitions = set()
    for a in system.alphabet:
        tgt = frozenset({S_BOT if a == system.bottom else S_STAR})
        transitions.add((S_STAR, a, tgt))
        for p in winning_controls:
            transitions.add((embed[p], a, tgt))
    aut = AltAutomaton(frozenset(states), system.alphabet, frozenset({S_BOT}),
                       frozenset(transitions))
    return ReachabilityCondition(aut, embed)


def test_projection_example():
    # {p1 -A-> {p0}, p1 -bot-> {s_bot}, p0 -bot-> {s_bot}} projected from
    # level 1 onto level 0 becomes {p0 -A-> {p0}, p0 -bot-> {s_bot}}
    states = frozenset({("p", 0), ("p", 1), S_BOT})
    transitions = frozenset({
        (("p", 1), "A", frozenset({("p", 0)})),
        (("p", 1), "_", frozenset({S_BOT})),
        (("p", 0), "_", frozenset({S_BOT})),
    })
    aut = AltAutomaton(states, frozenset({"A", "_"}), frozenset({S_BOT}),
                       transitions)
    out = project(aut, 1, 0)
    assert out.states == frozenset({("p", 0), S_BOT})
    assert out.transitions == frozenset({
        (("p", 0), "A", frozenset({("p", 0)})),
        (("p", 0), "_", frozenset({S_BOT})),
    })
    with pytest.raises(InvalidInputError,
                       match="projection indices must differ"):
        project(aut, 1, 1)
    with pytest.raises(InvalidInputError, match="no states at level 2"):
        project(aut, 2, 0)


def test_buchi_pop_loop_example():
    # a control in F that can always pop an A wins from every A^n stack
    system = pds(controls={"p"}, alphabet={"A", "_"}, bottom="_",
                 rules=[("p", "A", "p", ()), ("p", "_", "p", ("_",))])
    game = PushdownGame(system, {"p": ELOISE},
                        BuchiCondition(frozenset({"p"})))
    region = solve_buchi_game(game)
    for n in range(6):
        c = Configuration("p", ("A",) * n + ("_",))
        assert region_member(region, c)
    assert alt_membership(region.aut, ("p", 0), ("A",) * 3 + ("_",))


def test_reachability_game_hand_example():
    system, owner = loop_or_pop_game()
    cond = all_stack_target(system, {"q"})
    game = PushdownGame(system, owner, cond)
    region = solve_reachability_game(game)
    # p with an A on top can pop straight into q
    assert region_member(region, Configuration("p", ("A", "_")))
    assert region_member(region, Configuration("q", ("_",)))
    # p at the bottom can only loop on p forever
    assert not region_member(region, Configuration("p", ("_",)))


def agrees_with_set_reference(region, c):
    """``region_member(region, c)``, asserted equal to the answer of the
    frozenset evaluation on the same automaton."""
    member = region_member(region, c)
    assert member == alt_membership_sets(region.aut, region.entry[c.control],
                                         c.stack), c
    return member


def test_reachability_game_brackets():
    rng = make_rng(41)
    for i in range(20):
        system, owner = random_total_game(rng)
        cond = random_reachability_condition(rng, system)
        game = PushdownGame(system, owner, cond)
        region = solve_reachability_game(game)
        under, over = bracket_region(game, 4)
        for c in bounded_nodes(system, 4):
            member = agrees_with_set_reference(region, c)
            assert not (under(c) and not member), (system, c)
            assert not (member and not over(c)), (system, c)


def test_reachability_embedding_outside_the_target():
    # p is embedded as "ep", which is not a state of the target: the region
    # has it as a state all the same.  p wins by popping its As and moving
    # to q at the bottom; a B loops forever.
    system = pds(controls={"p", "q"}, alphabet={"A", "B", "_"}, bottom="_",
                 rules=[("p", "_", "q", ("_",)), ("q", "_", "q", ("_",)),
                        ("p", "A", "p", ()), ("q", "A", "q", ()),
                        ("p", "B", "p", ("B",)), ("q", "B", "q", ("B",))])
    target = alt(states={"eq", "f"}, alphabet={"A", "B", "_"}, finals={"f"},
                 transitions=[("eq", "_", {"f"})])
    cond = ReachabilityCondition(target, {"p": "ep", "q": "eq"})
    for owner in (ELOISE, ABELARD):
        game = PushdownGame(system, {"p": owner, "q": owner}, cond)
        region = solve_reachability_game(game)
        assert region.aut.states == {"ep", "eq", "f"}
        assert region_member(region, Configuration("p", ("_",)))
        assert region_member(region, Configuration("p", ("A", "A", "_")))
        assert not region_member(region, Configuration("p", ("B", "_")))
        under, over = bracket_region(game, 4)
        for c in bounded_nodes(system, 4):
            assert under(c) == agrees_with_set_reference(region, c) == over(c)


def test_solved_regions_answer_queries_over_the_solvers_masks(monkeypatch):
    # A solver hands its region the numbering and mask entries it solved
    # over: the first query only groups its entries by symbol, and the
    # second builds nothing at all.
    rng = make_rng(53)
    system, owner = random_total_game(rng, n_controls=3)
    controls = sorted(system.controls)
    colours = {p: rng.randint(0, 3) for p in controls}
    solves = [(solve_reachability_game, random_reachability_condition(
                  rng, system)),
              (solve_buchi_game, BuchiCondition(frozenset(controls[:2]))),
              (solve_parity_game, ParityCondition(colours, 3))]
    nodes = bounded_nodes(system, 3)
    for solve, cond in solves:
        region = solve(PushdownGame(system, owner, cond))
        handed = region.aut.__dict__["_mask_index"]  # there before any query
        names, bit, entries = handed
        assert set(names) == region.aut.states and len(names) == len(bit)
        assert all(names[b] == s for s, b in bit.items())
        assert {(names[b], a, _members(m, names))
                for (b, a), masks in entries.items() for m in masks} == \
            region.aut.transitions

        def build_index(*args):
            raise AssertionError("a query built an index")

        with monkeypatch.context() as m:
            for name in ("_numbering", "_mask_entries", "_antichain"):
                m.setattr(automata, name, build_index)
            region_member(region, nodes[0])
            built = dict(region.aut.__dict__)
            assert built["_mask_index"] is handed
            assert {k for k in built if k.startswith("_")} == \
                {"_mask_index", "_mask_by_symbol"}
            m.setattr(automata, "_mask", build_index)
            for c in nodes:
                agrees_with_set_reference(region, c)
            assert region.aut.__dict__ == built
            assert all(region.aut.__dict__[k] is v for k, v in built.items())


def test_region_queries_compute_each_step_once(monkeypatch):
    # a region keeps every step its queries computed: the answers match the
    # set reference however often and in whatever order the configurations
    # come, and a second pass computes no step and keeps no new one
    rng = make_rng(59)
    regions, answers = [], []
    for _ in range(4):
        system, owner = random_total_game(rng, n_controls=3, max_rules=2)
        controls = sorted(system.controls)
        colours = {p: rng.randint(0, 3) for p in controls}
        nodes = bounded_nodes(system, 3)
        for solve, cond in (
                (solve_reachability_game,
                 random_reachability_condition(rng, system)),
                (solve_buchi_game, BuchiCondition(frozenset(controls[:2]))),
                (solve_parity_game, ParityCondition(colours, 3))):
            region = solve(PushdownGame(system, owner, cond))
            queries = nodes * 2
            rng.shuffle(queries)
            for c in queries:
                agrees_with_set_reference(region, c)
            regions.append((region, nodes))
            answers.append([region_member(region, c) for c in nodes])
    steps = [region.aut._mask_by_symbol[2] for region, _ in regions]
    sizes = [len(kept) for kept in steps]
    # not vacuous: steps are kept, and the regions answer both ways
    assert sum(sizes) >= 30
    assert {True, False} <= {a for row in answers for a in row}

    with monkeypatch.context() as m:
        for region, _ in regions:
            finals, _, kept = region.aut._mask_by_symbol
            m.setitem(region.aut.__dict__, "_mask_by_symbol",
                      (finals, NoSteps(), kept))
        assert answers == [[region_member(region, c) for c in nodes]
                           for region, nodes in regions]
    assert sizes == list(map(len, steps))


def test_buchi_game_brackets_and_parity_agreement():
    rng = make_rng(42)
    for i in range(15):
        system, owner = random_total_game(rng)
        finals = frozenset(
            p for p in sorted(system.controls) if rng.random() < 0.5)
        game = PushdownGame(system, owner, BuchiCondition(finals))
        region = solve_buchi_game(game)
        under, over = bracket_region(game, 4)
        for c in bounded_nodes(system, 4):
            member = agrees_with_set_reference(region, c)
            assert not (under(c) and not member), (system, finals, c)
            assert not (member and not over(c)), (system, finals, c)
        # the parity solver with colours {0, 1} computes the same region
        colours = {p: 0 if p in finals else 1 for p in system.controls}
        pgame = PushdownGame(system, owner, ParityCondition(colours, 1))
        pregion = solve_parity_game(pgame)
        for c in bounded_nodes(system, 5):
            assert region_member(region, c) == region_member(pregion, c)


def test_parity_game_brackets():
    rng = make_rng(43)
    for i in range(10):
        system, owner = random_total_game(rng)
        colours = {p: rng.randint(0, 3) for p in sorted(system.controls)}
        game = PushdownGame(system, owner, ParityCondition(colours, 3))
        region = solve_parity_game(game)
        under, over = bracket_region(game, 4)
        for c in bounded_nodes(system, 4):
            member = agrees_with_set_reference(region, c)
            assert not (under(c) and not member), (system, colours, c)
            assert not (member and not over(c)), (system, colours, c)


def test_parity_extreme_colours():
    rng = make_rng(44)
    for i in range(5):
        system, owner = random_total_game(rng)
        even = PushdownGame(system, owner,
                            ParityCondition({p: 0 for p in system.controls}, 0))
        odd = PushdownGame(system, owner,
                           ParityCondition({p: 1 for p in system.controls}, 1))
        even_region = solve_parity_game(even)
        odd_region = solve_parity_game(odd)
        for c in bounded_nodes(system, 4):
            assert region_member(even_region, c)
            assert not region_member(odd_region, c)


def test_eloise_only_reachability_matches_prestar():
    rng = make_rng(45)
    for i in range(10):
        system, _ = random_total_game(rng)
        owner = {p: ELOISE for p in system.controls}
        target_conf = Configuration(sorted(system.controls)[0], (BOT,))
        view = singleton_view(system, target_conf)
        # alternating copy of the singleton target, in game form
        transitions = frozenset((s, a, frozenset({t}))
                                for s, a, t in view.aut.transitions)
        target = AltAutomaton(view.aut.states, view.aut.alphabet,
                              view.aut.finals, transitions)
        cond = ReachabilityCondition(target, dict(view.control_embed))
        game = PushdownGame(system, owner, cond)
        region = solve_reachability_game(game)
        saturated = prestar(system, view)
        for c in configurations_upto(system, 4):
            assert region_member(region, c) == saturated.accepts(c), (system, c)


def test_dual_game_determinacy():
    rng = make_rng(46)
    for i in range(10):
        system, owner = random_total_game(rng)
        colours = {p: rng.randint(0, 3) for p in sorted(system.controls)}
        game = PushdownGame(system, owner, ParityCondition(colours, 3))
        region = solve_parity_game(game)
        dual_region = solve_parity_game(dual_game(game))
        for c in bounded_nodes(system, 3):
            assert region_member(region, c) != region_member(dual_region, c), \
                (system, colours, c)


def test_reachability_game_rejects_a_shared_embedding():
    # q's rule would add a transition out of e, which p would read too
    system = pds(controls={"p", "q"}, alphabet={"A", "_"}, bottom="_",
                 rules=[("q", "A", "q", ())])
    target = alt(states={"e", "f"}, alphabet={"A", "_"}, finals={"f"},
                 transitions=[("e", "_", {"f"})])
    game = PushdownGame(system, {"p": ELOISE, "q": ELOISE},
                        ReachabilityCondition(target, {"p": "e", "q": "e"}))
    with pytest.raises(InvalidInputError,
                       match="'p' and 'q' share the embedded state 'e'"):
        solve_reachability_game(game)


def test_solver_input_validation():
    system, owner = loop_or_pop_game()
    game = PushdownGame(system, owner, BuchiCondition(frozenset({"p"})))
    with pytest.raises(InvalidInputError):
        solve_reachability_game(game)
    with pytest.raises(InvalidInputError):
        solve_parity_game(game)
    nobody = PushdownGame(system, {"p": ELOISE}, BuchiCondition(frozenset()))
    with pytest.raises(InvalidInputError):
        solve_buchi_game(nobody)
    with pytest.raises(InvalidInputError,
                       match="solve_buchi_game needs a Büchi condition"):
        solve_buchi_game(PushdownGame(system, owner,
                                      ParityCondition({"p": 0, "q": 1}, 1)))
    with pytest.raises(InvalidInputError,
                       match="dual_game is defined for parity conditions"):
        dual_game(game)
    region = solve_buchi_game(game)
    with pytest.raises(InvalidInputError,
                       match="control has no entry state: 'zzz'"):
        region_member(region, Configuration("zzz", ("_",)))
    with pytest.raises(InvalidInputError):
        solve_buchi_game(PushdownGame(system, owner,
                                      BuchiCondition(frozenset({"zzz"}))))
    # a colour is a non-negative int, and a bool does not count as one
    for colour in (0.5, 2.0, True, "0", -1):
        game = PushdownGame(system, owner,
                            ParityCondition({"p": colour, "q": 1}, 2))
        with pytest.raises(InvalidInputError,
                           match="colour must be a non-negative integer.*'p'"):
            solve_parity_game(game)
    for max_colour in (2.0, True, "2", -1):
        game = PushdownGame(system, owner,
                            ParityCondition({"p": 0, "q": 1}, max_colour))
        with pytest.raises(InvalidInputError,
                           match="max_colour must be a non-negative integer"):
            solve_parity_game(game)
    with pytest.raises(InvalidInputError, match="'q' exceeds max_colour 2"):
        solve_parity_game(PushdownGame(system, owner,
                                       ParityCondition({"p": 0, "q": 3}, 2)))


# Reference solvers: the round loops written over whole automata, one new
# automaton per round, with the frozenset pre_step, project and subsume of
# reference.py, which share no code with the solvers' kernel.


def extend(aut, states, transitions):
    return subsume(AltAutomaton(aut.states | states, aut.alphabet, aut.finals,
                                aut.transitions | transitions))


def full_value(system, level, states):
    return frozenset(((p, level), a, frozenset({S_BOT if a == BOT else s}))
                     for p in system.controls for a in system.alphabet
                     for s in states if s is not S_BOT)


def reference_parity(game):
    colour_of, top = game.condition.colours, game.condition.max_colour | 1
    controls = game.pds.controls

    def fix(aut, level):
        fresh = frozenset((p, level) for p in controls)
        current = extend(aut, fresh, full_value(
            game.pds, level, aut.states | fresh) if level % 2 == 0 else frozenset())
        while True:
            nxt = (pre_step(current, game, level + 1, colour_of)
                   if level == top else fix(current, level + 1))
            nxt = subsume(project(nxt, level + 1, level))
            if nxt == current:
                return current
            current = nxt

    return fix(initial_region_automaton(game.pds), 0)


def reference_buchi(game):
    controls = game.pds.controls
    colour_of = {p: 0 if p in game.condition.finals else 1 for p in controls}
    level0 = frozenset((p, 0) for p in controls)
    level1 = frozenset((p, 1) for p in controls)
    base = initial_region_automaton(game.pds)
    current = extend(base, level0,
                     full_value(game.pds, 0, base.states | level0))
    while True:
        inner = extend(current, level1, frozenset())
        while True:
            nxt = subsume(project(pre_step(inner, game, 2, colour_of), 2, 1))
            if nxt == inner:
                break
            inner = nxt
        nxt = subsume(project(inner, 1, 0))
        if nxt == current:
            return current
        current = nxt


def reference_reachability(game):
    """Runs pre_step on a copy whose embedded states are renamed (p, 0),
    with every control of colour 0, and adds its level-1 moves at level 0."""
    target, embed = game.condition.target, game.condition.embed
    name = {s: (p, 0) for p, s in embed.items()}
    back = {v: k for k, v in name.items()}
    fresh = {(p, 1) for p in game.pds.controls}
    assert len(back) == len(name) and not (set(back) | fresh) & target.states
    aut = subsume(AltAutomaton(
        frozenset(name.get(s, s) for s in target.states), target.alphabet,
        target.finals, frozenset((name.get(s, s), a, ts)
                                 for s, a, ts in target.transitions)))
    colour_of = {p: 0 for p in game.pds.controls}
    while True:
        moves = frozenset(((s[0], 0), a, ts) for s, a, ts
                          in pre_step(aut, game, 1, colour_of).transitions
                          if s in fresh)
        nxt = extend(aut, frozenset(), moves)
        if nxt == aut:
            break
        aut = nxt
    return AltAutomaton(
        target.states, aut.alphabet, aut.finals,
        frozenset((back.get(s, s), a, frozenset(back.get(t, t) for t in ts))
                  for s, a, ts in aut.transitions))


def test_solvers_match_round_loop_references():
    rng = make_rng(48)
    for i in range(60):
        system, owner = random_total_game(rng)
        controls = sorted(system.controls)
        game = PushdownGame(system, owner,
                            random_reachability_condition(rng, system))
        assert solve_reachability_game(game).aut == \
            reference_reachability(game), (system, owner)
        finals = frozenset(p for p in controls if rng.random() < 0.5)
        game = PushdownGame(system, owner, BuchiCondition(finals))
        assert solve_buchi_game(game).aut == reference_buchi(game), \
            (system, owner, finals)
        max_colour = rng.randint(0, 4)
        colours = {p: rng.randint(0, max_colour) for p in controls}
        game = PushdownGame(system, owner,
                            ParityCondition(colours, max_colour))
        assert solve_parity_game(game).aut == reference_parity(game), \
            (system, owner, colours)


def test_deeper_nests_match_round_loop_references():
    # three controls and colours up to 5: a six-level nest
    rng = make_rng(49)
    for i in range(15):
        system, owner = random_total_game(rng, n_controls=3)
        controls = sorted(system.controls)
        colours = {p: rng.randint(0, 5) for p in controls}
        game = PushdownGame(system, owner, ParityCondition(colours, 5))
        assert solve_parity_game(game).aut == reference_parity(game), \
            (system, owner, colours)
        finals = frozenset(p for p in controls if rng.random() < 0.5)
        game = PushdownGame(system, owner, BuchiCondition(finals))
        assert solve_buchi_game(game).aut == reference_buchi(game), \
            (system, owner, finals)


# Seeded games on which the regions depend on the solve adding a recomputed
# run's new reads to ``readers``: a solve that added only a run's first reads
# gets each of them wrong under some hash seeds, at least two of the Büchi
# games under each of hash seeds 0-12 and at least three of the parity games
# under each of 0-8.  They were found among seeds 0-999 of seven shapes,
# 7,000 Büchi and 7,000 parity games (colours 0-3), where that solve gets
# 28-46 and 20-37 wrong under hash seeds 0-2.  (seed, controls, symbols,
# rules per pair)
BUCHI_READERS = [(400, 3, 3, 2), (413, 3, 3, 2), (594, 2, 3, 2),
                 (839, 3, 2, 2), (910, 2, 3, 2), (941, 3, 2, 2)]
PARITY_READERS = [(76, 3, 3, 2), (179, 2, 3, 2), (413, 3, 3, 2),
                  (851, 4, 2, 2), (982, 4, 2, 2), (999, 3, 3, 2)]


def test_games_that_read_recomputed_runs_match_the_references():
    for kind, cases in (("buchi", BUCHI_READERS), ("parity", PARITY_READERS)):
        for seed, n_controls, n_symbols, max_rules in cases:
            rng = make_rng(seed)
            system, owner = random_total_game(rng, n_controls, n_symbols,
                                              max_rules)
            controls = sorted(system.controls)
            if kind == "buchi":
                game = PushdownGame(system, owner, BuchiCondition(frozenset(
                    p for p in controls if rng.random() < 0.5)))
                assert solve_buchi_game(game).aut == reference_buchi(game), \
                    seed
            else:
                game = PushdownGame(system, owner, ParityCondition(
                    {p: rng.randint(0, 3) for p in controls}, 3))
                assert solve_parity_game(game).aut == \
                    reference_parity(game), seed


def test_gapped_colours_match_the_reference_that_keeps_every_colour():
    # Colours drawn from 0-9 leave gaps and neighbours of one parity, which
    # the solver compresses to ranks; the reference nests one level per
    # colour up to max_colour, so its cost grows with the colours (four
    # games keep it under 2 s).
    rng = make_rng(61)
    for i in range(4):
        system, owner = random_total_game(rng, n_controls=rng.randint(2, 3))
        controls = sorted(system.controls)
        colours = {p: rng.randint(0, 9) for p in controls}
        game = PushdownGame(system, owner,
                            ParityCondition(colours, max(colours.values())))
        assert solve_parity_game(game).aut == reference_parity(game), \
            (system, owner, colours)


@pytest.mark.parametrize("colours, ranks, top", [
    ((0, 2, 3, 7, 8), (0, 0, 1, 1, 2), 3),
    ((1, 3), (1, 1), 1),
    ((2,), (0,), 1),
    ((1, 2), (1, 2), 3),
    ((8, 3, 0, 7, 2, 3), (2, 1, 0, 1, 0, 1), 3),
    ((), (), 1),
])
def test_colour_ranks(colours, ranks, top):
    rank, padded = games._ranks(colours)
    assert tuple(rank[c] for c in colours) == ranks
    assert set(rank) == set(colours)
    assert padded == top


def test_unused_colours_cost_no_level(monkeypatch):
    # Colours {0, 10} under max_colour 11 compress to the one rank of
    # {0, 0} under max_colour 1: the same nest, so the same number of
    # game-predecessor steps and the same region.
    calls = [0]
    moves, saturate = games._moves, games._Saturation.saturate

    def counting_moves(*args):
        calls[0] += 1
        return moves(*args)

    def counting_saturate(*args):
        calls[0] += 1
        return saturate(*args)

    monkeypatch.setattr(games, "_moves", counting_moves)
    monkeypatch.setattr(games._Saturation, "saturate", counting_saturate)
    system, owner = loop_or_pop_game()
    regions, counts = [], []
    for colours, max_colour in (({"p": 0, "q": 10}, 11),
                                ({"p": 0, "q": 0}, 1)):
        calls[0] = 0
        regions.append(solve_parity_game(PushdownGame(
            system, owner, ParityCondition(colours, max_colour))).aut)
        counts.append(calls[0])
    assert counts[0] == counts[1] > 0
    assert regions[0] == regions[1]


def test_choice_games_match_round_loop_references():
    # up to three rules per (control, symbol): Éloïse chooses between
    # rules, Abelard's moves are unions across rules, and target sets grow
    # past singletons
    rng = make_rng(54)
    for i in range(40):
        system, owner = random_total_game(rng, n_controls=rng.randint(2, 3),
                                          max_rules=3)
        controls = sorted(system.controls)
        game = PushdownGame(system, owner,
                            random_reachability_condition(rng, system))
        assert solve_reachability_game(game).aut == \
            reference_reachability(game), (system, owner)
        finals = frozenset(p for p in controls if rng.random() < 0.5)
        game = PushdownGame(system, owner, BuchiCondition(finals))
        assert solve_buchi_game(game).aut == reference_buchi(game), \
            (system, owner, finals)
        colours = {p: rng.randint(0, 3) for p in controls}
        game = PushdownGame(system, owner, ParityCondition(colours, 3))
        assert solve_parity_game(game).aut == reference_parity(game), \
            (system, owner, colours)


def renamed_condition(cond, rename):
    target = cond.target
    aut = AltAutomaton(
        frozenset(rename[s] for s in target.states), target.alphabet,
        frozenset(rename[s] for s in target.finals),
        frozenset((rename[s], a, frozenset(rename[t] for t in ts))
                  for s, a, ts in target.transitions))
    return ReachabilityCondition(
        aut, {p: rename[s] for p, s in cond.embed.items()})


def test_target_state_names_never_meet_bit_positions():
    # The kernel numbers the target's states; names that are ints, that are
    # the parity layout's own sentinels, or that look like its (p, level)
    # states must give the same region as any other names.
    rng = make_rng(52)
    for i in range(25):
        system, owner = random_total_game(rng, n_controls=3)
        cond = random_reachability_condition(rng, system, n_extra=3,
                                             n_trans=6)
        states = sorted(cond.target.states, key=repr)
        shuffled = rng.sample(range(len(states)), len(states))
        schemes = [
            dict(zip(states, shuffled)),  # ints, in shuffled order
            dict(zip(states, [S_BOT, S_STAR] + [("s", k) for k in
                                                range(len(states) - 2)])),
            {s: (repr(s), 7) if k % 2 else (7, repr(s))
             for k, s in enumerate(states)},
        ]
        expected = solve_reachability_game(PushdownGame(system, owner, cond))
        for rename in schemes:
            game = PushdownGame(system, owner, renamed_condition(cond, rename))
            region = solve_reachability_game(game)
            assert region.aut == reference_reachability(game), (system, rename)
            for c in configurations_upto(system, 3):
                assert region_member(region, c) == region_member(expected, c)


def test_stuck_configurations_are_lost_for_eloise():
    # Abelard's q has no rule on A.  Every play that does not get stuck
    # stays in colour 0 or the Büchi set, so Éloïse wins it; a configuration
    # with no move is lost for her, whoever owns it.
    system = pds(controls={"p", "q"}, alphabet={"A", "_"}, bottom="_",
                 rules=[("p", "A", "p", ("A",)), ("p", "_", "q", ("A", "_")),
                        ("q", "_", "q", ("_",))])
    for owner in ({"p": ELOISE, "q": ABELARD}, {"p": ELOISE, "q": ELOISE}):
        for cond in (ParityCondition({"p": 0, "q": 0}, 0),
                     ParityCondition({"p": 2, "q": 0}, 3),
                     BuchiCondition(frozenset({"p", "q"}))):
            game = PushdownGame(system, owner, cond)
            solve = (solve_buchi_game if isinstance(cond, BuchiCondition)
                     else solve_parity_game)
            region = solve(game)
            assert region_member(region, Configuration("p", ("A", "_")))
            assert region_member(region, Configuration("q", ("_",)))
            assert not region_member(region, Configuration("q", ("A", "_")))
            # p at the bottom moves only into the stuck (q, A _)
            assert not region_member(region, Configuration("p", ("_",)))
            # the oracle refuses a game with a stuck configuration
            with pytest.raises(InvalidInputError, match="stuck"):
                bracket_region(game, 3)


def test_run_memo_skips_runs_and_lives_for_one_solve(monkeypatch):
    def parity_game(seed):
        rng = make_rng(seed)
        system, owner = random_total_game(rng, n_controls=3)
        colours = {p: rng.randint(0, 5) for p in sorted(system.controls)}
        return PushdownGame(system, owner, ParityCondition(colours, 5))

    def containers():
        return {name: len(value) for name, value in vars(games).items()
                if not name.startswith("__")
                and isinstance(value, (dict, list, set))}

    asked, computed = [0], [0]
    run, run_targets = games._run, games._run_targets

    def counting_run(*args):
        # every run the solve asks for, in _moves or in the worklist; the
        # memo answers some of them without computing them
        asked[0] += 1
        return run(*args)

    def counting_run_targets(*args):
        computed[0] += 1
        return run_targets(*args)

    monkeypatch.setattr(games, "_run", counting_run)
    monkeypatch.setattr(games, "_run_targets", counting_run_targets)
    a, b = parity_game(50), parity_game(51)
    before = containers()
    rules = {key: list(applicable)
             for key, applicable in a.pds._rules_from.items()}
    first = solve_parity_game(a).aut
    assert 0 < computed[0] < asked[0]
    assert containers() == before
    assert solve_parity_game(b).aut != first
    assert solve_parity_game(a).aut == first == reference_parity(a)
    assert containers() == before
    # the solves read the system's own rule index and leave it as it was
    assert a.pds._rules_from == rules


def test_a_run_is_computed_again_only_when_an_entry_it_read_changed(
        monkeypatch):
    # The memo is the one rule for reusing a run: within a solve, the run
    # (state, pushed) is computed again only when some entry that its last
    # computation read no longer compares equal to what it read then.
    last = {}  # run -> the entries its last computation read, and values
    again = [0]
    run_targets = games._run_targets

    def checked_run_targets(index, start, word, reads=None):
        key = (start, word)
        if key in last:
            assert any(index.get(k) != v for k, v in last[key].items()), \
                f"run {key} computed again on the entries it read"
            again[0] += 1
        seen = {}
        targets = run_targets(index, start, word, seen)
        if reads is not None:
            reads.update(seen)
        last[key] = seen
        return targets

    monkeypatch.setattr(games, "_run_targets", checked_run_targets)
    rng = make_rng(63)
    for i in range(30):
        system, owner = random_total_game(rng, n_controls=rng.randint(2, 4),
                                          max_rules=3)
        controls = sorted(system.controls)
        finals = frozenset(p for p in controls if rng.random() < 0.5)
        colours = {p: rng.randint(0, 3) for p in controls}
        for solve, cond in (
                (solve_reachability_game,
                 random_reachability_condition(rng, system)),
                (solve_buchi_game, BuchiCondition(finals)),
                (solve_parity_game, ParityCondition(colours, 3))):
            last.clear()  # a memo lives for one solve
            solve(PushdownGame(system, owner, cond))
    # runs are computed again, so the check above is not vacuous
    assert again[0] > 0


def test_wider_choice_games_match_round_loop_references():
    # four and five controls with up to three rules per (control, symbol):
    # the worklist queues a move again only when an entry its runs read
    # was written, and its fixed point is the round loop's.  The reference
    # nests one level per colour, so one game in six gets colours 0-3 and
    # the others 0-1 (this keeps the test near 3 s).
    rng = make_rng(62)
    for i in range(60):
        system, owner = random_total_game(rng, n_controls=rng.randint(4, 5),
                                          max_rules=3)
        controls = sorted(system.controls)
        game = PushdownGame(system, owner,
                            random_reachability_condition(rng, system))
        assert solve_reachability_game(game).aut == \
            reference_reachability(game), (system, owner)
        finals = frozenset(p for p in controls if rng.random() < 0.5)
        game = PushdownGame(system, owner, BuchiCondition(finals))
        assert solve_buchi_game(game).aut == reference_buchi(game), \
            (system, owner, finals)
        max_colour = 3 if i % 6 == 0 else 1
        colours = {p: rng.randint(0, max_colour) for p in controls}
        game = PushdownGame(system, owner,
                            ParityCondition(colours, max_colour))
        assert solve_parity_game(game).aut == reference_parity(game), \
            (system, owner, colours)
