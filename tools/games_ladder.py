"""The games ladder: seeded game solves past the sizes the steady benchmark
reaches, each reported with its solve time, the region's transition count
and a SHA-256 of the region.

    python3 tools/games_ladder.py [--cap S] [RUNG ...]
    python3 tools/games_ladder.py --check BENCH_games.json RUNG ...

Run it from the root of a checkout: it imports pdsat from ``src/`` and the
instance generators from ``bench/`` (read-only).  Rungs are named
``reach-<controls>-s<seed>`` and ``parity-<controls>-s<seed>``; with no rung
named, every rung of ``RUNGS`` runs.  Each rung is solved in its own process
and reported as one JSON line; a solve that exceeds ``--cap`` seconds is
reported as ``"timeout"``.  With ``--check``, each named rung's transition
count and hash must equal the file's ``"rungs"`` entry, or the command
exits with code 1.

The hash is over the sorted ``repr``s of the region's states, finals and
transitions, each target set written as its sorted member ``repr``s, so it
does not depend on ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNGS = ([f"reach-16-s{s}" for s in range(3)]
         + [f"reach-32-s{s}" for s in range(3)]
         + [f"parity-8-s{s}" for s in range(3)])


def build(rung):
    """The game of one rung, drawn by ``bench/gen.py`` and built as the
    ``games`` workload builds its games.

    Reachability: ``game_system(rng_for("found-reach", seed), n, n_base=5)``
    with ``alt_target``.  Parity: ``game_system(rng_for("ladder-parity",
    seed), n)`` with every colour uniform in 0..7.
    """
    import gen
    import workloads
    kind, n, seed = rung.split("-")
    n, seed = int(n), int(seed.lstrip("s"))
    if kind == "reach":
        rng = gen.rng_for("found-reach", seed)
        s, owner = gen.game_system(rng, n, n_base=5)
        cond = gen.alt_target(rng, s)
    elif kind == "parity":
        rng = gen.rng_for("ladder-parity", seed)
        s, owner = gen.game_system(rng, n)
        cond = (tuple((p, rng.randint(0, 7)) for p in s.controls), 7)
    else:
        raise SystemExit(f"unknown rung: {rung}")
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
    kind, game = build(rung)
    solver = (pdsat.solve_reachability_game if kind == "reach"
              else pdsat.solve_parity_game)
    start = perf_counter()
    region = solver(game)
    seconds = perf_counter() - start
    print(json.dumps({"rung": rung, "seconds": round(seconds, 2),
                      "transitions": len(region.aut.transitions),
                      "sha256": digest(region.aut)}))


def run(rung, cap):
    """One rung in a fresh process; ``"timeout"`` past ``cap`` seconds."""
    try:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__),
                               "--solve", rung], stdout=subprocess.PIPE,
                              text=True, timeout=cap, check=True)
    except subprocess.TimeoutExpired:
        return {"rung": rung, "seconds": "timeout", "cap_s": cap}
    return json.loads(proc.stdout.splitlines()[-1])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("rungs", nargs="*")
    parser.add_argument("--cap", type=float, default=150.0)
    parser.add_argument("--check")
    parser.add_argument("--solve", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.solve:
        solve(args.solve)
        return
    expected = {}
    if args.check:
        with open(args.check) as f:
            expected = json.load(f)["rungs"]
    bad = []
    for rung in args.rungs or RUNGS:
        result = run(rung, args.cap)
        print(json.dumps(result), flush=True)
        if args.check:
            want = expected[rung]
            if (result.get("transitions"), result.get("sha256")) != \
                    (want["transitions"], want["sha256"]):
                bad.append(rung)
    if bad:
        sys.exit(f"region differs from {args.check}: {', '.join(bad)}")


if __name__ == "__main__":
    main()
