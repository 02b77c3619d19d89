"""The derivation ladder: ``deriv_relation`` on bottom-free systems past the
sizes the steady benchmark reaches, then seeded ``deriv_member`` queries,
each rung reported with the ``deriv_relation`` time, the time to build the
relation's query index, the queries per second, a SHA-256 and count of the
answers, and the time of the ``deriv`` command on the rung's document.

    python3 tools/deriv_ladder.py [--cap S] [RUNG ...]
    python3 tools/deriv_ladder.py --check BENCH_derivation.json RUNG ...

Run it from the root of a checkout: it imports pdsat from ``src/`` and the
instance generators from ``bench/`` (read-only).  The rungs are the systems
of ``BENCH_derivation.json``'s ``"ladder"``, named by their rule count:
``rules-240``, ``rules-320``, ``rules-480``, ``rules-640`` and
``rules-1920``; with no rung named, every rung of ``RUNGS`` runs.  Each rung runs in its own process and is reported
as one JSON line; a rung that exceeds ``--cap`` seconds is reported as
``"timeout"``.  With ``--check``, each named rung's ``members``,
``members_sha256`` and ``cli_sha256`` must equal the file's ``"rungs"``
entry, and its answers must not all be one value (see ``ladder.py``), or
the command exits with code 1.

The relation runs from the system's first control to its last.  The
queries are ``QUERIES`` pairs of ``gen.deriv_queries`` drawn from
``gen.rng_for("deriv-ladder", rules)``.  ``index_s`` times the build of
the relation's index (``_mask_index``, which the first query would
otherwise build) before the query timer starts, so ``queries_per_s``
counts the queries alone.  The answers hash (``members_sha256``) is over
one character, ``1`` or ``0``, per answer in query order; ``answers`` is
their number and ``members`` the number of ``1``s.  None of these depends
on ``PYTHONHASHSEED``.

``cli_s`` is the end-to-end time of ``pdsat.cli.main(["deriv", ...])``
in the same process: it parses the rung's system, rendered as a document
by ``workloads._pds_text``, builds the relation again and writes it with
``--out`` to a temporary file.  A command that does not exit 0 fails the
rung.  ``cli_sha256`` is the SHA-256 of that file, and ``--check``
compares it too: the printed relation must not depend on
``PYTHONHASHSEED`` either.
"""

from __future__ import annotations

import json
import os
import sys
from time import perf_counter

import ladder

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
QUERIES = 2000
# rules -> (controls, rule shapes; None for the generator's default)
RUNGS = {"rules-240": (40, None),
         "rules-320": (40, (0, 0, 0, 0, 1, 1, 2, 2)),
         "rules-480": (80, None),
         "rules-640": (80, (0, 0, 0, 0, 1, 1, 2, 2)),
         "rules-1920": (320, None)}


def build(rung):
    """The system, its end controls and the queries of one rung: the system
    is ``bottom_free_system(rng_for("found-deriv", 1), controls[, shapes])``
    as ``BENCH_derivation.json``'s ladder draws it."""
    import gen
    if rung not in RUNGS:
        raise SystemExit(f"unknown rung: {rung}")
    n, shapes = RUNGS[rung]
    rng = gen.rng_for("found-deriv", 1)
    s = (gen.bottom_free_system(rng, n) if shapes is None
         else gen.bottom_free_system(rng, n, shapes=shapes))
    q0, qf = s.controls[0], s.controls[-1]
    rules = int(rung.split("-")[1])
    queries = gen.deriv_queries(gen.rng_for("deriv-ladder", rules), s, q0, qf,
                                QUERIES)
    return s, q0, qf, queries


def measure(rung):
    """Run one rung in this process and print its JSON line."""
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]
    import pdsat
    import workloads
    s, q0, qf, queries = build(rung)
    system = workloads._pds(s)
    start = perf_counter()
    rel = pdsat.deriv_relation(system, q0, qf)
    relation_s = perf_counter() - start
    start = perf_counter()
    rel._mask_index  # the cached index every query reads
    index_s = perf_counter() - start
    start = perf_counter()
    answers = [pdsat.deriv_member(rel, w1, w2) for w1, w2 in queries]
    query_s = perf_counter() - start
    del rel  # the command builds its own: hold one relation at a time
    cli_s, cli_sha256 = ladder.cli_output(
        rung, workloads._pds_text(s), "deriv", "--from", q0, "--to", qf)
    print(json.dumps({"rung": rung, "deriv_relation_s": round(relation_s, 2),
                      "index_s": round(index_s, 4),
                      "cli_s": round(cli_s, 2), "cli_sha256": cli_sha256,
                      "queries_per_s": round(len(answers) / query_s),
                      **ladder.members_digest(answers)}))


if __name__ == "__main__":
    ladder.main(os.path.abspath(__file__), RUNGS, measure,
                ("members", "members_sha256", "cli_sha256"),
                "deriv_relation_s")
