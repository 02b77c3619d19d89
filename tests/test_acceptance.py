"""End-to-end acceptance checks.

Each test prints a single pass/fail line on the real terminal (bypassing
pytest capture) so the run log shows the verdicts at a glance.  The random
corpora are seeded, so every run exercises the same instances.
"""

import itertools
import time
from collections import deque
from functools import lru_cache

import pytest

from conftest import (BOT, make_rng, random_pds, random_bottom_free_pds,
                      random_reachability_condition, random_total_game)
import pdsat as P
from pdsat.automata import S_BOT, S_STAR
from pdsat.derivation import pop, push
from pdsat.oracle import bounded_nodes, bracket_region
from reference import project, reduce_word, words_upto


def announce(capsys, number, label, failures):
    verdict = "PASS" if not failures else "FAIL"
    with capsys.disabled():
        print(f"\nacceptance criterion {number:2d} [{label}]: {verdict}")
    assert not failures, f"criterion {number}: {failures[:3]}"


# ---------------------------------------------------------------------------
# Shared corpus (criteria 4, 5, 12)


@lru_cache(maxsize=None)
def corpus():
    rng = make_rng(90210)
    return [random_pds(rng, n_controls=3, n_symbols=3, n_rules=6)
            for _ in range(200)]


#: invariant audit shared across the corpus criteria: counts and violations
AUDIT = {"count": 0, "violations": []}


def audited_prestar(system, view):
    trace = []
    result = P.prestar(system, view, trace=trace)
    state_control = {s: p for p, s in view.control_embed.items()}
    pops = P.pop_relation(system)
    for p, a, target in trace:
        if target in state_control and a != system.bottom:
            AUDIT["count"] += 1
            if (p, a, state_control[target]) not in pops:
                AUDIT["violations"].append((system, p, a, target))
    return result


def accepted_configs(view, system, max_len):
    """Set of (control, stack) accepted with at most ``max_len`` symbols in
    the stack including the bottom."""
    found = set()
    for q in system.controls:
        for w in words_upto(view.aut, view.control_embed[q], max_len):
            found.add((q, w))
    return found


# ---------------------------------------------------------------------------


def test_criterion_01_benois_regression(capsys):
    # the reduced forms of {B- A+ A+ A- A- C+} are exactly {B- C+}
    word = (pop("B"), push("A"), push("A"), pop("A"), pop("A"), push("C"))
    symbols = frozenset(
        f(a) for a in ("A", "B", "C") for f in (push, pop))
    states = list(range(len(word) + 1))
    transitions = frozenset(
        (i, a, i + 1) for i, a in enumerate(word))
    aut = P.Nfa(frozenset(states), symbols, frozenset({len(word)}), transitions)
    reduced = P.benois_reduce(P.Language(aut, 0))
    failures = []
    words = words_upto(reduced.aut, reduced.start, 6)
    if words != {(pop("B"), push("C"))}:
        failures.append(words)
    announce(capsys, 1, "benois reduction regression", failures)


def test_criterion_02_apply_actions_regression(capsys):
    got = P.apply_actions(("A", "B", "B"),
                          [pop("A"), pop("B"), push("C"), push("D")])
    failures = [] if got == ("D", "C", "B") else [got]
    announce(capsys, 2, "action application regression", failures)


def test_criterion_03_projection_and_buchi_example(capsys):
    failures = []
    states = frozenset({("p", 0), ("p", 1), S_BOT})
    transitions = frozenset({
        (("p", 1), "A", frozenset({("p", 0)})),
        (("p", 1), BOT, frozenset({S_BOT})),
        (("p", 0), BOT, frozenset({S_BOT})),
    })
    aut = P.AltAutomaton(states, frozenset({"A", BOT}), frozenset({S_BOT}),
                         transitions)
    out = project(aut, 1, 0)
    expected = frozenset({
        (("p", 0), "A", frozenset({("p", 0)})),
        (("p", 0), BOT, frozenset({S_BOT})),
    })
    if out.transitions != expected or out.states != frozenset({("p", 0), S_BOT}):
        failures.append(out)

    system = P.pds(controls={"p"}, alphabet={"A", BOT}, bottom=BOT,
                   rules=[("p", "A", "p", ()), ("p", BOT, "p", (BOT,))])
    game = P.PushdownGame(system, {"p": P.ELOISE},
                          P.BuchiCondition(frozenset({"p"})))
    region = P.solve_buchi_game(game)
    for n in range(6):
        stack = ("A",) * n + (BOT,)
        if not P.alt_membership(region.aut, ("p", 0), stack):
            failures.append(("buchi", n))
    announce(capsys, 3, "projection and pop-loop example", failures)


def test_criterion_04_pop_guessing_matches_prestar(capsys):
    failures = []
    for system in corpus():
        for q_f in sorted(system.controls):
            direct = P.buchi_target_automaton(system, q_f)
            target = P.singleton_view(
                system, P.Configuration(q_f, (system.bottom,)))
            saturated = audited_prestar(system, target)
            lhs = accepted_configs(direct, system, 5)
            rhs = accepted_configs(saturated, system, 5)
            if lhs != rhs:
                failures.append((system, q_f, lhs ^ rhs))
    announce(capsys, 4, "pop-guessing automaton vs saturation", failures)


def test_criterion_05_prestar_poststar_duality(capsys):
    failures = []
    for system in corpus():
        configs = bounded_nodes(system, 3)
        post_sets = {}
        for c in configs:
            view = P.poststar(system, P.singleton_view(system, c))
            post_sets[c] = accepted_configs(view, system, 3)
        for c2 in configs:
            view = audited_prestar(system, P.singleton_view(system, c2))
            pre_set = accepted_configs(view, system, 3)
            for c in configs:
                forward = (c2.control, c2.stack) in post_sets[c]
                backward = (c.control, c.stack) in pre_set
                if forward != backward:
                    failures.append((system, c, c2))
    announce(capsys, 5, "pre*/post* duality", failures)


def _reduces_into(aut, start, w, push_cap=8):
    """Independent membership oracle for the reduced language: search the
    original automaton for a path whose word reduces to ``w``.  The running
    reduced prefix always splits into a permanent part (which must be a
    prefix of ``w``) plus a cancellable all-push tail, which bounds the
    search space."""
    from pdsat.derivation import POP, PUSH
    index = {}
    for s, a, t in aut.transitions:
        index.setdefault(s, []).append((a, t))

    def admissible(u):
        k = len(u)
        while k and u[k - 1][0] == PUSH:
            k -= 1
        core, tail = u[:k], u[k:]
        return core == w[:len(core)] and len(tail) <= push_cap

    seen = {(start, ())}
    todo = deque(seen)
    while todo:
        s, u = todo.popleft()
        if s in aut.finals and u == w:
            return True
        for a, t in index.get(s, ()):
            if u and u[-1][0] == PUSH and a[0] == POP and u[-1][1] == a[1]:
                nu = u[:-1]
            else:
                nu = u + (a,)
            if admissible(nu) and (t, nu) not in seen:
                seen.add((t, nu))
                todo.append((t, nu))
    return False


def test_criterion_06_benois_oracle_equivalence(capsys):
    # Equality is checked in two independent halves: per-word reductions of
    # short language members must all be accepted, and every accepted short
    # word must have a concrete witness found by forward search.  (A plain
    # depth-6 truncation is not enough for the converse: accepted words can
    # have shortest witnesses of length 10 and beyond.)
    rng = make_rng(606060)
    base = ("A", "B")
    symbols = tuple(f(a) for a in base for f in (push, pop))
    reduced_words = [w for k in range(5)
                     for w in itertools.product(symbols, repeat=k)
                     if reduce_word(w) == w]
    failures = []
    for i in range(100):
        states = list(range(4))
        transitions = frozenset(
            (rng.choice(states), rng.choice(symbols), rng.choice(states))
            for _ in range(rng.randint(3, 7)))
        finals = frozenset(rng.sample(states, rng.randint(1, 4)))
        aut = P.Nfa(frozenset(states), frozenset(symbols), finals, transitions)
        lang = P.Language(aut, 0)
        reduced = P.benois_reduce(lang)
        got = words_upto(reduced.aut, reduced.start, 4)
        truncated = {reduce_word(w)
                     for w in words_upto(lang.aut, lang.start, 6)}
        truncated = {w for w in truncated if len(w) <= 4}
        if not truncated <= got:
            failures.append((aut, truncated - got))
        for w in reduced_words:
            if (w in got) != _reduces_into(aut, 0, w):
                failures.append((aut, w))
    announce(capsys, 6, "benois reduction vs per-word oracle", failures)


def test_criterion_07_derivation_end_to_end(capsys):
    rng = make_rng(707070)
    failures = []
    for i in range(100):
        system = random_bottom_free_pds(rng)
        base = sorted(system.alphabet - {system.bottom})
        controls = sorted(system.controls)
        q0, qf = rng.choice(controls), rng.choice(controls)
        rel = P.deriv_relation(system, q0, qf)
        stacks = list(itertools.chain.from_iterable(
            itertools.product(base, repeat=k) for k in range(4)))
        for w1 in stacks:
            start = P.Configuration(q0, w1 + (system.bottom,))
            reached = P.poststar(system, P.singleton_view(system, start))
            for w2 in stacks:
                want = reached.accepts(
                    P.Configuration(qf, w2 + (system.bottom,)))
                if P.deriv_member(rel, w1, w2) != want:
                    failures.append((system, q0, qf, w1, w2))
    announce(capsys, 7, "derivation relation vs poststar oracle", failures)


def _bracket_failures(game, region, heights):
    failures = []
    for h in heights:
        under, over = bracket_region(game, h)
        for c in bounded_nodes(game.pds, h):
            member = P.region_member(region, c)
            if under(c) and not member:
                failures.append((game.pds, h, c, "under"))
            if member and not over(c):
                failures.append((game.pds, h, c, "over"))
            if under(c) and over(c) and not member:
                failures.append((game.pds, h, c, "tight"))
    return failures


def test_criterion_08_game_brackets(capsys):
    rng = make_rng(808080)
    failures = []
    for i in range(100):
        system, owner = random_total_game(rng)
        cond = random_reachability_condition(rng, system)
        game = P.PushdownGame(system, owner, cond)
        failures += _bracket_failures(
            game, P.solve_reachability_game(game), (3, 4))
    for i in range(100):
        system, owner = random_total_game(rng)
        finals = frozenset(p for p in sorted(system.controls)
                           if rng.random() < 0.5)
        game = P.PushdownGame(system, owner, P.BuchiCondition(finals))
        failures += _bracket_failures(game, P.solve_buchi_game(game), (3, 4))
    for i in range(100):
        system, owner = random_total_game(rng)
        colours = {p: rng.randint(0, 3) for p in sorted(system.controls)}
        game = P.PushdownGame(system, owner, P.ParityCondition(colours, 3))
        failures += _bracket_failures(game, P.solve_parity_game(game), (3, 4))
    announce(capsys, 8, "winning-region brackets", failures)


def test_criterion_09_degenerations(capsys):
    rng = make_rng(909090)
    failures = []
    # single-player reachability collapses to plain pre*
    for i in range(15):
        system, _ = random_total_game(rng)
        owner = {p: P.ELOISE for p in system.controls}
        target_conf = P.Configuration(sorted(system.controls)[0],
                                      (system.bottom,))
        view = P.singleton_view(system, target_conf)
        transitions = frozenset((s, a, frozenset({t}))
                                for s, a, t in view.aut.transitions)
        target = P.AltAutomaton(view.aut.states, view.aut.alphabet,
                                view.aut.finals, transitions)
        game = P.PushdownGame(
            system, owner,
            P.ReachabilityCondition(target, dict(view.control_embed)))
        region = P.solve_reachability_game(game)
        saturated = P.prestar(system, view)
        for c in bounded_nodes(system, 5):
            if P.region_member(region, c) != saturated.accepts(c):
                failures.append(("prestar", system, c))
    # a Büchi condition is a two-colour parity condition
    for i in range(15):
        system, owner = random_total_game(rng)
        finals = frozenset(p for p in sorted(system.controls)
                           if rng.random() < 0.5)
        buchi = P.solve_buchi_game(
            P.PushdownGame(system, owner, P.BuchiCondition(finals)))
        colours = {p: 0 if p in finals else 1 for p in system.controls}
        parity = P.solve_parity_game(
            P.PushdownGame(system, owner, P.ParityCondition(colours, 1)))
        for c in bounded_nodes(system, 5):
            if P.region_member(buchi, c) != P.region_member(parity, c):
                failures.append(("buchi-parity", system, c))
    # all-even colours win everything on a total game; all-odd win nothing
    for i in range(10):
        system, owner = random_total_game(rng)
        even = P.solve_parity_game(P.PushdownGame(
            system, owner,
            P.ParityCondition({p: 0 for p in system.controls}, 0)))
        odd = P.solve_parity_game(P.PushdownGame(
            system, owner,
            P.ParityCondition({p: 1 for p in system.controls}, 1)))
        for c in bounded_nodes(system, 4):
            if not P.region_member(even, c):
                failures.append(("all-even", system, c))
            if P.region_member(odd, c):
                failures.append(("all-odd", system, c))
    announce(capsys, 9, "degenerate game classes", failures)


def test_criterion_10_determinacy_partition(capsys):
    rng = make_rng(101010)
    failures = []
    for i in range(50):
        system, owner = random_total_game(rng)
        colours = {p: rng.randint(0, 3) for p in sorted(system.controls)}
        game = P.PushdownGame(system, owner, P.ParityCondition(colours, 3))
        region = P.solve_parity_game(game)
        dual_region = P.solve_parity_game(P.dual_game(game))
        for c in bounded_nodes(system, 3):
            mine = P.region_member(region, c)
            theirs = P.region_member(dual_region, c)
            if mine == theirs:
                failures.append((system, colours, c, mine))
    announce(capsys, 10, "determinacy partition", failures)


def test_criterion_11_complexity_smoke(capsys):
    rng = make_rng(111111)
    controls = [f"q{i:02d}" for i in range(50)]
    base = [f"A{i}" for i in range(9)]
    rules = set()
    while len(rules) < 500:
        i = rng.randrange(50)
        p, q = controls[i], controls[(i + 1) % 50]  # chain-shaped flow
        if rng.random() < 0.1:
            pushed = (BOT,) if rng.random() < 0.5 else (rng.choice(base), BOT)
            rules.add((p, BOT, q, pushed))
        else:
            k = rng.choice([0, 1, 1, 2])
            rules.add((p, rng.choice(base), q,
                       tuple(rng.choice(base) for _ in range(k))))
    system = P.pds(controls=controls, alphabet=base + [BOT], bottom=BOT,
                   rules=sorted(rules))
    view = P.singleton_view(system, P.Configuration(controls[0], (BOT,)))
    trace = []
    start = time.perf_counter()
    P.prestar(system, view, trace=trace)
    elapsed = time.perf_counter() - start
    bound = (len(system.controls) * len(view.aut.states)
             * len(system.alphabet))
    failures = []
    if elapsed >= 5.0:
        failures.append(("time", elapsed))
    if len(trace) > bound:
        failures.append(("transitions", len(trace), bound))
    announce(capsys, 11, f"complexity smoke ({elapsed:.2f}s, "
                         f"{len(trace)} added)", failures)


def test_criterion_12_saturation_invariant_audit(capsys):
    # audited during criteria 4 and 5 above
    failures = list(AUDIT["violations"])
    if AUDIT["count"] == 0:
        failures.append("no transitions were audited")
    announce(capsys, 12, f"saturation invariant audit "
                         f"({AUDIT['count']} transitions)", failures)
