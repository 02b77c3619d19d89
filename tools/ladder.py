"""What the ladder tools share: each rung runs in a fresh process under a
time cap and prints one JSON line, and ``--check FILE RUNG ...`` compares
named fields of each rung's line with the file's ``"rungs"`` entry.

A checked rung must also not answer all one way: its ``members`` (the
number of ``True`` answers) must lie strictly between 0 and ``answers``,
since a hash of all ``1``s or all ``0``s pins nothing.

A tool with a second route to its answers runs it in the rung's process
and reports ``"cross": {route: "agree" | the first disagreement}``; a rung
whose report holds anything but ``"agree"`` fails the command, with or
without ``--check``.  The routes record no hash.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys


def run(script, rung, cap, timed):
    """One rung of ``script`` in a fresh process; its ``timed`` field reads
    ``"timeout"`` past ``cap`` seconds."""
    try:
        proc = subprocess.run([sys.executable, script, "--measure", rung],
                              stdout=subprocess.PIPE, text=True, timeout=cap,
                              check=True)
    except subprocess.TimeoutExpired:
        return {"rung": rung, timed: "timeout", "cap_s": cap}
    return json.loads(proc.stdout.splitlines()[-1])


def main(script, rungs, measure, fields, timed):
    """The command line of a ladder tool: ``measure(rung)`` prints one
    rung's line in this process; ``fields`` are compared by ``--check``."""
    parser = argparse.ArgumentParser()
    parser.add_argument("rungs", nargs="*")
    parser.add_argument("--cap", type=float, default=150.0)
    parser.add_argument("--check")
    parser.add_argument("--measure", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.measure:
        measure(args.measure)
        return
    expected = {}
    if args.check:
        with open(args.check) as f:
            expected = json.load(f)["rungs"]
    bad = []
    for rung in args.rungs or rungs:
        result = run(script, rung, args.cap, timed)
        print(json.dumps(result), flush=True)
        if args.check:
            want = expected[rung]
            if [result.get(k) for k in fields] != [want.get(k) for k in fields] \
                    or result.get("members") in (0, result.get("answers")):
                bad.append(rung)
        if any(v != "agree" for v in result.get("cross", {}).values()):
            bad.append(rung)
    if bad:
        sys.exit("differ from the record, answer all one way, or disagree "
                 f"across routes: {', '.join(dict.fromkeys(bad))}")
