"""What the ladder tools share: each rung runs in a fresh process under a
time cap and prints one JSON line, and ``--check FILE RUNG ...`` compares
named fields of each rung's line with the file's ``"rungs"`` entry.

A checked rung must also not answer all one way: its ``members`` (the
number of ``True`` answers) must lie strictly between 0 and ``answers``,
since a hash of all ``1``s or all ``0``s pins nothing.  The one exception
is a rung whose ``"cross"`` report (below) holds an ``"exact"`` route, one
that knows every answer, not a bound on it.  A rung missing from the
file's ``"rungs"`` fails the check too.

A rung whose process exits non-zero is reported as ``{"rung": ...,
"error": "exit N"}``, its stderr passed through, and fails the command
whether checked or not; the rungs after it still run, and the last line
names every failed rung.

A tool with a second route to its answers runs it in the rung's process
and reports ``"cross": {route: "agree" | the first disagreement}``; a rung
whose report holds anything but ``"agree"`` fails the command, with or
without ``--check``.  The routes record no hash.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from time import perf_counter


def run(script, rung, cap, timed):
    """One rung of ``script`` in a fresh process; its ``timed`` field reads
    ``"timeout"`` past ``cap`` seconds, and a process that exits non-zero
    gives an ``"error"`` field instead of its line."""
    try:
        proc = subprocess.run([sys.executable, script, "--measure", rung],
                              stdout=subprocess.PIPE, text=True, timeout=cap)
    except subprocess.TimeoutExpired:
        return {"rung": rung, timed: "timeout", "cap_s": cap}
    if proc.returncode:
        return {"rung": rung, "error": f"exit {proc.returncode}"}
    return json.loads(proc.stdout.splitlines()[-1])


def members_digest(answers) -> dict:
    """A rung's boolean ``answers``: their number, the number of ``True``s,
    and a SHA-256 over one character, ``1`` or ``0``, per answer."""
    answers = "".join("1" if yes else "0" for yes in answers)
    return {"answers": len(answers), "members": answers.count("1"),
            "members_sha256": hashlib.sha256(answers.encode()).hexdigest()}


@contextlib.contextmanager
def _files(lines):
    """A temporary document of ``lines``, and a path for a command's output
    next to it."""
    with tempfile.TemporaryDirectory() as folder:
        doc, out = os.path.join(folder, "rung.pds"), os.path.join(folder, "out")
        with open(doc, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        yield doc, out


def _sha256(path) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def cli_output(rung, lines, name, *options):
    """The seconds of ``pdsat.cli.main([name, "--in", doc, *options, "--out",
    out])`` alone, ``doc`` a temporary document of ``lines``, and the SHA-256
    of ``out``; a command that does not exit 0 ends the rung's process."""
    import pdsat.cli
    with _files(lines) as (doc, out):
        start = perf_counter()
        code = pdsat.cli.main([name, "--in", doc, *options, "--out", out])
        seconds = perf_counter() - start
        if code != 0:
            sys.exit(f"{rung}: pdsat {name} exited with code {code}")
        return seconds, _sha256(out)


# Starts the command in its argv, times it to its exit, and prints its
# seconds, exit code and peak RSS in KB as JSON.  A child's ``ru_maxrss``
# starts from its parent's resident size at the fork, so the command is
# started from this small process, not from a rung's large one.
_LAUNCH = """\
import json, os, subprocess, sys
from time import perf_counter
start = perf_counter()
child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(child.pid, 0)
seconds = perf_counter() - start
child.returncode = os.waitstatus_to_exitcode(status)
print(json.dumps([seconds, child.returncode, usage.ru_maxrss]))
"""


def console_output(rung, lines, name, *options):
    """The console entry, ``python -m pdsat.cli`` with ``cli_output``'s
    arguments, run as a process of its own on the pdsat this process
    imported: the seconds from its start to its exit, the SHA-256 of
    ``out``, and its peak RSS in MB (``ru_maxrss``).  A command that does
    not exit 0 ends the rung's process."""
    import pdsat
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(
        pdsat.__file__)))
    with _files(lines) as (doc, out):
        launched = subprocess.run(
            [sys.executable, "-c", _LAUNCH, sys.executable, "-m", "pdsat.cli",
             name, "--in", doc, *options, "--out", out],
            env=env, stdout=subprocess.PIPE, text=True, check=True)
        seconds, code, rss_kb = json.loads(launched.stdout)
        if code != 0:
            sys.exit(f"{rung}: python -m pdsat.cli {name} exited with code {code}")
        return seconds, _sha256(out), rss_kb / 1024


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
        cross = result.get("cross", {})
        if "error" in result:
            bad.append(rung)
        elif args.check:
            want = expected.get(rung)
            if want is None \
                    or [result.get(k) for k in fields] != [want.get(k) for k in fields] \
                    or (result.get("members") in (0, result.get("answers"))
                        and "exact" not in cross):
                bad.append(rung)
        if any(v != "agree" for v in cross.values()):
            bad.append(rung)
    if bad:
        sys.exit("fail, differ from the record or are missing from it, "
                 "answer all one way, or disagree across routes: "
                 f"{', '.join(dict.fromkeys(bad))}")
