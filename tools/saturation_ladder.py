"""The saturation ladder: ``prestar``, ``poststar`` and ``pop_relation`` on
systems past the sizes the steady benchmark reaches, then seeded ``accepts``
queries on both saturated automata, and last ``buchi_target_automaton`` and
the same queries on it, each rung reported with the time of every step,
each result's transition count and SHA-256, a SHA-256 and count of the
answers, and the time and output SHA-256 of the ``prestar`` and
``poststar`` commands on the rung's document, in the rung's process and
through the console entry.

    python3 tools/saturation_ladder.py [--cap S] [RUNG ...]
    python3 tools/saturation_ladder.py --check BENCH_saturation.json RUNG ...

Run it from the root of a checkout: it imports pdsat from ``src/`` and the
instance generators from ``bench/`` (read-only).  Rungs are named
``sat-<controls>``: ``sat-800``, ``sat-3200`` and ``sat-12800``; with no
rung named, every rung of ``RUNGS`` runs.  Each rung runs in its own
process and is reported as one JSON line; a rung that exceeds ``--cap``
seconds is reported as ``"timeout"``.  With ``--check``, each named rung's
transition counts, result hashes, pop count and hash, answer counts and
hash, and command output hashes (``FIELDS``) must equal the file's
``"rungs"`` entry, and its pre* and post* answers must not all be one value
(see ``ladder.py``), or the command exits with code 1; so it does, with or
without ``--check``, if a rung's ``"cross"`` report (below) holds anything
but ``"agree"``.

A rung's system is ``saturation_system(rng, controls)`` with the target
``target(rng, system)``, built as the ``saturation`` workload builds its
inputs, with ``rng = rng_for("sat-ladder", controls)``.  ``build_s`` times
the system and its view; ``prestar_s``, ``poststar_s``, ``pop_relation_s``
and ``buchi_s`` time one call each, and ``prestar_queries_per_s`` and
``poststar_queries_per_s`` the queries on each result, each timed after a
full collection: the first young-generation collection after a saturation
traverses the large containers it has just built, and would land in
whichever query first allocates.

A result hash (``prestar_sha256``, ``poststar_sha256``) is over the sorted
``repr``s of the result's states, finals, transitions and embedding; the
pop hash (``pops_sha256``) over the sorted ``repr``s of the triples.  The
queries are ``QUERIES`` configurations drawn from the same generator:
a quarter visited by walks backwards from the target, a quarter by walks
forwards from it, and half uniform.  Each is asked of pre* and then of
post*, and the answers hash (``members_sha256``) is over one character,
``1`` or ``0``, per answer: all of pre*'s in query order, then all of
post*'s.  ``answers`` is their number, ``members`` the number of ``1``s and
``prestar_members`` and ``poststar_members`` each result's share of them.
``buchi_target_automaton`` targets ``(q_f, ⊥)`` and is reported apart
from those answers: ``buchi_transitions`` and ``buchi_sha256`` as for the
other results, and ``buchi_members`` the number of the same configurations
it accepts.  q_f (``buchi_control``) is the control with the widest bottom
stratum among the first ``CANDIDATES`` controls, the earlier one on a tie,
drawing no random number.  The bottom stratum of q_f is the set of
controls p with ``(p, ⊥) =>* (q_f, ⊥)``; the tool computes it itself, from
the pop relation and the rules on ``⊥`` (``strata``), and reports its size
(``buchi_stratum``).  None of these depends on ``PYTHONHASHSEED``.

Last, the rung builds pre* of ``(q_f, ⊥)`` by ``prestar`` from
``singleton_view``, a second route to the target automaton's language
(acceptance criterion 4), asks it the same configurations, and reports
``"cross": {"prestar": ...}``: ``"agree"``, or the first configuration on
which the two differ; ``cross_s`` times the route and its queries.  Next
to it, ``"stratum"`` is ``"agree"`` when the tool's stratum of q_f is the
set of controls that ``buchi_target_automaton`` lets read ``⊥`` into
``S_BOT``, and otherwise the control of least ``repr`` that only one of
the two holds.  That
check reads the rules as the library does, so only the ``prestar`` route
is independent of it.

``cli_prestar_s`` and ``cli_poststar_s`` are the end-to-end times of
``pdsat.cli.main(["prestar", ...])`` and ``(["poststar", ...])`` in the
same process: each parses the rung's system and view, rendered as one
document by ``workloads._pds_text`` and ``workloads._view_text``, builds
its result again and writes it with ``--out`` to a temporary file.  A
command that does not exit 0 fails the rung.  ``cli_prestar_sha256`` and
``cli_poststar_sha256`` are the SHA-256s of those files, and ``--check``
compares them too: the printed automata must not depend on
``PYTHONHASHSEED`` either.

``proc_prestar_s`` and ``proc_poststar_s`` time the same two commands
through the console entry, ``python -m pdsat.cli``, run as a child process
from its start to its exit, as a user runs ``pdsat``: the interpreter's
start, the import, and the run with the collector off.  Each must write the
bytes that ``pdsat.cli.main`` wrote, or the rung fails, so ``--check`` pins
them through ``cli_*_sha256``.  ``proc_prestar_maxrss_mb`` and
``proc_poststar_maxrss_mb`` are the child's peak RSS.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import sys
from time import perf_counter

import ladder

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
QUERIES = 2000
RUNGS = ("sat-800", "sat-3200", "sat-12800")
CANDIDATES = 200  # the controls searched for the widest bottom stratum


def sha256(lines) -> str:
    return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()


def digest(view) -> str:
    aut = view.aut
    return sha256([repr(("state", repr(s))) for s in aut.states]
                  + [repr(("final", repr(s))) for s in aut.finals]
                  + [repr(tuple(map(repr, t))) for t in aut.transitions]
                  + [repr(("embed", repr(p), repr(s)))
                     for p, s in view.control_embed.items()])


def queries(rng, s, t):
    """``QUERIES`` configurations of the system ``s`` around its target
    ``t``, as ``(control, stack)`` pairs."""
    import explicit
    import gen
    step = explicit.Stepper(s)
    quarter = QUERIES // 4
    return (gen.walk_queries(rng, step.predecessors, lambda: t.sample(rng),
                             quarter)
            + gen.walk_queries(rng, step.successors, lambda: t.sample(rng),
                               quarter)
            + [gen.uniform_config(rng, s) for _ in range(QUERIES - 2 * quarter)])


def strata(rules, bottom, pops, targets) -> list:
    """For each q_f of ``targets``, the controls p with ``(p, ⊥) =>* (q_f,
    ⊥)``, ``⊥`` the ``bottom``: a rule ``(p, ⊥) -> (q, ⊥)`` steps from p to
    q, and a rule ``(p, ⊥) -> (q, A ⊥)`` from p to each q' of a triple
    ``(q, A, q')`` of ``pops``, the pop relation; searched backwards from
    q_f."""
    popped = {}
    for q, a, q2 in pops:
        popped.setdefault((q, a), []).append(q2)
    into = {}
    for p, a, q, pushed in rules:
        if a == bottom:
            ends = [q] if len(pushed) == 1 else popped.get((q, pushed[0]), ())
            for q2 in ends:
                into.setdefault(q2, []).append(p)
    found = []
    for q_f in targets:
        seen, todo = {q_f}, [q_f]
        while todo:
            for p in into.get(todo.pop(), ()):
                if p not in seen:
                    seen.add(p)
                    todo.append(p)
        found.append(seen)
    return found


def measure(rung):
    """Run one rung in this process and print its JSON line."""
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]
    import gen
    import pdsat
    import workloads
    from pdsat.automata import S_BOT
    if rung not in RUNGS:
        raise SystemExit(f"unknown rung: {rung}")
    n = int(rung.split("-")[1])
    rng = gen.rng_for("sat-ladder", n)
    s = gen.saturation_system(rng, n)
    t = gen.target(rng, s)
    configs = [workloads._config(c) for c in queries(rng, s, t)]
    out = {"rung": rung}
    start = perf_counter()
    system = workloads._pds(s)
    view = workloads._view(system, s, t)
    out["build_s"] = round(perf_counter() - start, 2)
    results = {}
    for name, call in (("prestar", lambda: pdsat.prestar(system, view)),
                       ("poststar", lambda: pdsat.poststar(system, view)),
                       ("pop_relation", lambda: pdsat.pop_relation(system))):
        start = perf_counter()
        results[name] = call()
        out[f"{name}_s"] = round(perf_counter() - start, 2)
    answers = []
    for name in ("prestar", "poststar"):
        result = results[name]
        gc.collect()  # bill no collection of the saturations to the queries
        start = perf_counter()
        mine = [result.accepts(c) for c in configs]
        out[f"{name}_queries_per_s"] = round(len(mine) / (perf_counter() - start))
        out[f"{name}_transitions"] = len(result.aut.transitions)
        out[f"{name}_sha256"] = digest(result)
        out[f"{name}_members"] = sum(mine)
        answers += mine
    pops = results["pop_relation"]
    out.update(pops=len(pops), pops_sha256=sha256(map(repr, pops)),
               **ladder.members_digest(answers))
    found = strata(s.rules, system.bottom, pops, s.controls[:CANDIDATES])
    widest = max(found, key=len)  # the first of the widest
    q_f = s.controls[found.index(widest)]
    start = perf_counter()
    buchi = pdsat.buchi_target_automaton(system, q_f)
    out["buchi_s"] = round(perf_counter() - start, 2)
    accepted = [buchi.accepts(c) for c in configs]
    out.update(buchi_control=q_f, buchi_stratum=len(widest),
               buchi_transitions=len(buchi.aut.transitions),
               buchi_sha256=digest(buchi), buchi_members=sum(accepted))
    start = perf_counter()
    target = pdsat.singleton_view(
        system, pdsat.Configuration(q_f, (system.bottom,)))
    pre = pdsat.prestar(system, target)
    first = next((c for c, yes in zip(configs, accepted)
                  if pre.accepts(c) != yes), None)
    out["cross_s"] = round(perf_counter() - start, 2)
    apart = widest ^ {p for p, _, t in buchi.aut.transitions if t is S_BOT}
    out["cross"] = {"prestar": "agree" if first is None else repr(first),
                    "stratum": "agree" if not apart else min(apart, key=repr)}
    del results, buchi, pre  # each command builds its own result
    lines = workloads._pds_text(s) + workloads._view_text(t)
    for name in ("prestar", "poststar"):
        seconds, printed = ladder.cli_output(rung, lines, name)
        out.update({f"cli_{name}_s": round(seconds, 2),
                    f"cli_{name}_sha256": printed})
        seconds, console, rss = ladder.console_output(rung, lines, name)
        if console != printed:
            sys.exit(f"{rung}: python -m pdsat.cli {name} printed other bytes "
                     "than pdsat.cli.main")
        out.update({f"proc_{name}_s": round(seconds, 2),
                    f"proc_{name}_maxrss_mb": round(rss, 1)})
    print(json.dumps(out))


FIELDS = ("prestar_transitions", "prestar_sha256", "poststar_transitions",
          "poststar_sha256", "pops", "pops_sha256", "prestar_members",
          "poststar_members", "members", "members_sha256", "buchi_control",
          "buchi_stratum", "buchi_transitions", "buchi_sha256",
          "buchi_members", "cli_prestar_sha256", "cli_poststar_sha256")

if __name__ == "__main__":
    ladder.main(os.path.abspath(__file__), RUNGS, measure, FIELDS,
                "prestar_s")
