"""Benchmark entry point; run from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload runs in its own fresh, single-threaded Python process with
PYTHONHASHSEED fixed, so that the program's set iteration order (and with it
every traced call and size counter) repeats exactly.  ``--workload all`` runs
the four workloads one after another.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HASH_SEED = "0"
WORKLOADS = ("saturation", "games", "derivation", "cli-check")
TIMEOUT_S = 170
HERE = os.path.dirname(os.path.abspath(__file__))


def run_workload(name, seed, seconds, trace):
    """The worker's result object; its other output lines are passed on."""
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED,
               PYTHONPATH=os.path.abspath("src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        env=env, stdout=subprocess.PIPE, text=True, timeout=TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{name}: worker exited with code {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("src", "pdsat", "__init__.py")):
        sys.exit("bench/run.py: no src/pdsat here; run it from the root of a checkout")

    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args.seed, args.seconds,
                                      args.trace)))
        return
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        print(f"{name} {json.dumps(result)}")
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}.{k}": v
                                 for k, v in result["metrics"].items()})
    print(json.dumps(total))


if __name__ == "__main__":
    main()
