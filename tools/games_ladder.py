"""The games ladder: seeded game solves past the sizes the steady benchmark
reaches, each reported with its solve time, the region's transition count,
a SHA-256 of the region and a SHA-256 and count of the region's membership
answers.

    python3 tools/games_ladder.py [--cap S] [RUNG ...]
    python3 tools/games_ladder.py --check BENCH_games.json RUNG ...

Run it from the root of a checkout: it imports pdsat from ``src/`` and the
instance generators from ``bench/`` (read-only).  Rungs are named
``reach-<controls>-s<seed>``, ``parity-<controls>-s<seed>`` (colours 0-7),
``parity-<controls>-c<top>-s<seed>`` (colours 0-<top>),
``parity-empty-<k>`` (k colours and no rules) and ``parity-sink-<k>`` (k
colours and one swap rule per control and symbol); any other name is
refused as an unknown rung.  With no rung named, every rung of ``RUNGS`` runs.
Each rung is solved in its own process and reported as one JSON line; a
solve that exceeds ``--cap`` seconds is reported as ``"timeout"``.  With
``--check``, each named rung's transition count, both hashes and
``members`` must equal the file's ``"rungs"`` entry, and its answers must
not all be one value (see ``ladder.py``), or the command exits with code
1; so it does, with or without ``--check``, if a rung's ``"cross"`` report
(below) holds anything but ``"agree"``.

The region hash (``sha256``) is over the sorted ``repr``s of the region's
states, finals and transitions, each target set written as its sorted
member ``repr``s.  The answers hash (``members_sha256``) is over one
character, ``1`` or ``0``, per ``region_member`` answer on the
configurations of ``oracle.bounded_nodes(pds, 4)``, in that function's
order; ``answers`` is their number and ``members`` the number of ``1``s.
None of these depends on ``PYTHONHASHSEED``.

Last, the rung solves the game a second way, by the bounded oracle:
``oracle.bracket_region(game, H)`` solves the game truncated at stack
height H with the sink lost for Éloïse, then won, and brackets the region
on the same height-4 configurations.  H is the highest of 6, 5 and 4 whose
graph fits ``oracle.DEFAULT_NODE_CAP``: a bracket built higher is just as
sound, and it decides more of them, since fewer of their plays climb into
the sink.  The rung reports ``"cross": {"bracket": ...}``: ``"agree"``
when every answer lies within the bracket, and otherwise the first
configuration whose answer does not; ``cross_s`` times the route,
``bracket_h`` is H, and ``undecided`` counts the configurations where the
two bounds differ, on which the bracket checks nothing.  ``--check``
compares neither.  A parity rung also solves ``dual_game(game)``, whose
region is Abelard's, and reports ``"determinacy"``: ``"agree"`` when the
two regions split the configurations, and otherwise the first one that
lies in both or in neither; ``dual_s`` times that route.  Determinacy
checks only that a game and its dual are consistent, so a fault that flips
both regions alike still passes it (a ``_ranks`` mutant that flips the
parity test does, on ``parity-8-s8`` and ``parity-12-s1``); only
``"bracket"`` checks the answers themselves.

A ``parity-empty-<k>`` rung has neither route: its configurations have no
move, and the oracle refuses a parity game with a stuck configuration.
There a player who cannot move loses, so every answer is known: yes
exactly where Abelard is to move, which is nowhere.  The rung reports
``"cross": {"exact": ...}``, ``"agree"`` or the first configuration that
has a move or whose answer differs.  An exact route checks every answer,
so the rung may answer all one way under ``--check`` (see ``ladder.py``).
A ``parity-sink-<k>`` rung runs both routes of a parity rung; no rule
pushes, so the bracket leaves no configuration undecided at any height.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import sys
from time import perf_counter

import ladder

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNGS = ([f"reach-16-s{s}" for s in range(3)]
         + [f"reach-32-s{s}" for s in range(3)]
         + [f"parity-8-s{s}" for s in (0, 1, 2, 8)]
         + [f"parity-8-c11-s{s}" for s in range(3)]
         + [f"parity-12-s{s}" for s in range(2)]
         + [f"parity-empty-{k}" for k in (16, 24, 32, 64)]
         + [f"parity-sink-{k}" for k in (8, 10, 12)])


def build(rung):
    """The game of one rung, drawn by ``bench/gen.py`` and built as the
    ``games`` workload builds its games.

    Reachability: ``game_system(rng_for("found-reach", seed), n, n_base=5)``
    with ``alt_target``.  Parity: ``game_system(rng_for("ladder-parity",
    seed), n)`` with every colour uniform in 0..top, where top is 7 unless
    the rung names it, and ``max_colour`` top.  Empty parity: k controls
    with the colours 0..k-1, one each, all Éloïse's, over one stack symbol
    and no rules.  Every play is stuck at once, so the region is empty, but
    the solver still nests one level per colour.  Sink parity: the same
    controls, colours and owner, and on each symbol, ``A`` and the bottom,
    one swap rule per control to the first control, but the second
    control's, which goes to itself.  So Éloïse wins everywhere but at the
    second control: she moves to the colour-0 loop, and the second control
    loops on colour 1.  No rule pushes, so the bounded oracle's bracket
    decides every answer.
    """
    cliff = re.fullmatch(r"parity-(empty|sink)-(\d+)", rung)
    named = re.fullmatch(r"(reach|parity)-(\d+)(?:-c(\d+))?-s(\d+)", rung)
    if cliff is None and (named is None or named[1] == "reach" and named[3]):
        raise SystemExit(f"unknown rung: {rung}")
    import gen
    import workloads
    if cliff is not None:
        k = int(cliff[2])
        controls = gen._names("p", k)
        rules = () if cliff[1] == "empty" else tuple(sorted(
            (p, a, p if i == 1 else controls[0], (a,))
            for i, p in enumerate(controls) for a in ("A", gen.BOT)))
        s = gen.System(controls, ("A",), rules)
        cond = (tuple((p, i) for i, p in enumerate(s.controls)), k - 1)
        owner = tuple((p, gen.ELOISE) for p in s.controls)
        return "parity", workloads._game(workloads._pds(s),
                                         ("parity", s, owner, cond))
    kind, n, seed = named[1], int(named[2]), int(named[4])
    top = int(named[3] or 7)
    if kind == "reach":
        rng = gen.rng_for("found-reach", seed)
        s, owner = gen.game_system(rng, n, n_base=5)
        cond = gen.alt_target(rng, s)
    else:
        rng = gen.rng_for("ladder-parity", seed)
        s, owner = gen.game_system(rng, n)
        cond = (tuple((p, rng.randint(0, top)) for p in s.controls), top)
    return kind, workloads._game(workloads._pds(s), (kind, s, owner, cond))


def digest(aut) -> str:
    lines = sorted(repr(("state", repr(s))) for s in aut.states)
    lines += sorted(repr(("final", repr(s))) for s in aut.finals)
    lines += sorted(repr((repr(s), repr(a), sorted(map(repr, ts))))
                    for s, a, ts in aut.transitions)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def solve(rung):
    """Solve one rung in this process and print its JSON line."""
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]
    import pdsat
    from pdsat import oracle
    kind, game = build(rung)
    solver = (pdsat.solve_reachability_game if kind == "reach"
              else pdsat.solve_parity_game)
    start = perf_counter()
    region = solver(game)
    seconds = perf_counter() - start
    nodes = oracle.bounded_nodes(game.pds, 4)
    answers = [pdsat.region_member(region, c) for c in nodes]
    out = {"rung": rung, "seconds": round(seconds, 2),
           "transitions": len(region.aut.transitions),
           "sha256": digest(region.aut), **ladder.members_digest(answers)}
    if rung.startswith("parity-empty-"):
        # no configuration has a move, and a player who cannot move loses
        def wrong(c, yes):
            return bool(pdsat.successors(game.pds, c)) \
                or yes != (game.owner[c.control] == pdsat.ABELARD)
        out["cross"] = {"exact": first_of(nodes, answers, wrong)}
    else:
        start = perf_counter()
        h, (under, over) = deepest_bracket(game)
        out["cross"] = {"bracket": first_of(
            nodes, answers, lambda c, yes: not under(c) <= yes <= over(c))}
        out["cross_s"] = round(perf_counter() - start, 2)
        out["bracket_h"] = h
        out["undecided"] = sum(under(c) != over(c) for c in nodes)
        if kind == "parity":
            start = perf_counter()
            dual = pdsat.solve_parity_game(pdsat.dual_game(game))
            out["cross"]["determinacy"] = first_of(
                nodes, answers,
                lambda c, yes: yes == pdsat.region_member(dual, c))
            out["dual_s"] = round(perf_counter() - start, 2)
    print(json.dumps(out))


def deepest_bracket(game):
    """The highest H of 6, 5 and 4 whose bounded graph fits the oracle's
    node cap, and ``oracle.bracket_region(game, H)``; ``bounded_nodes``
    raises ``ResourceLimitError`` before it lists anything."""
    from pdsat import ResourceLimitError, oracle
    for h in (6, 5):
        try:
            return h, oracle.bracket_region(game, h)
        except ResourceLimitError:
            pass
    return 4, oracle.bracket_region(game, 4)


def first_of(nodes, answers, wrong):
    """``"agree"``, or the ``repr`` of the first configuration c of
    ``nodes`` with ``wrong(c, yes)``, yes its answer in ``answers``."""
    first = next((c for c, yes in zip(nodes, answers) if wrong(c, yes)), None)
    return "agree" if first is None else repr(first)


if __name__ == "__main__":
    ladder.main(os.path.abspath(__file__), RUNGS, solve,
                ("transitions", "sha256", "members_sha256", "members"),
                "seconds")
