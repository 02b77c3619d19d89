"""One workload run in a fresh process.  ``run.py`` starts it with a fixed
PYTHONHASHSEED and ``src`` on PYTHONPATH, from the root of the checkout.

Prints the instance fingerprint, the phases' wall times, a summary of the
checks made, the unscaled figures, and as its last line one JSON object: the
end-to-end metrics, or with ``--trace 1`` the per-layer metrics.  Every time
reported in the JSON object is scaled to the machine's reference speed (see
``machine.py``).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
from time import perf_counter

import machine

SETUP_REPEATS = 5
OUT_DIR = ".bench_out"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    speed = machine.Speed()

    # Each import and each build starts from a freshly collected heap.
    imports = []
    for _ in range(SETUP_REPEATS):
        speed.sample(force=True)
        gc.collect()
        for name in [m for m in sys.modules if m.split(".")[0] == "pdsat"]:
            del sys.modules[name]
        start = perf_counter()
        import pdsat.cli  # noqa: F401  (the program's import is part of set-up)
        imports.append((start, perf_counter()))

    import gen
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    rounds = workload.rounds(args.seconds)
    phases = {"make": perf_counter()}
    specs = workload.make(args.seed, rounds)
    print(f"fingerprint {gen.fingerprint(specs)} "
          f"({args.workload}, seed {args.seed}, {rounds} rounds)")

    phases["build"] = perf_counter()
    builds = []
    inputs = None
    for _ in range(SETUP_REPEATS):
        speed.sample(force=True)
        inputs = None
        gc.collect()
        start = perf_counter()
        inputs = workload.build(specs)
        builds.append((start, perf_counter()))
    # The inputs stay alive for the whole run; keep the collector from
    # traversing them again and again, so that a collection costs what the
    # program's own live data costs.
    gc.freeze()

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        tracer.on = True
    rec = workloads.Recorder(speed)
    phases["run"] = perf_counter()
    try:
        results = workload.run(inputs, rec)
    finally:
        rec.finish()
        if tracer:
            tracer.on = False
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    speed.sample(force=True)
    layer = tracer.metrics(rec.counts, speed.scale()) if tracer else None

    phases["check"] = perf_counter()
    try:
        workload.check(specs, inputs, results, rec)
    finally:
        if hasattr(workload, "cleanup"):
            workload.cleanup(inputs)
    phases["end"] = perf_counter()
    marks = list(phases.items())
    print("phase seconds: " + ", ".join(
        f"{name} {end - start:.2f}" for (name, start), (_, end) in zip(marks, marks[1:])))

    def summary(scale_over):
        """The timed figures, each interval multiplied by ``scale_over(start, end)``."""
        def scaled(intervals):
            return [(end - start) * scale_over(start, end) for start, end in intervals]
        times = sorted(scaled(rec.analyses))
        return {
            "analyses_per_s": len(times) / sum(times),
            "analysis_p50_ms": statistics.median(times) * 1000,
            "analysis_tail_ms": times[max(0, len(times) - 11)] * 1000,
            "queries_per_s": rec.queries / sum(scaled(rec.batches)),
            "setup_s": statistics.median(scaled(imports))
            + statistics.median(scaled(builds)),
        }

    raw = summary(lambda start, end: 1.0)
    ref = summary(speed.scale_over)
    n = len(rec.analyses)
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}"
                        + ("-trace" if args.trace else ""))
    with open(stem + "-checks.txt", "w") as handle:
        handle.write("".join(f"{kind}\t{count}\t{rec.decided[kind]}\n"
                             for kind, count in sorted(rec.checks.items())))
        handle.write("".join(f"FAILED\t{note}\n" for note in rec.notes))
    print(f"checks {sum(rec.checks.values())}, of which {sum(rec.decided.values())} "
          f"brackets fixed the answer "
          f"({', '.join(f'{k} {v}' for k, v in sorted(rec.checks.items()))}); "
          f"analyses {n}, queries {rec.queries}, "
          f"tail = analysis {max(1, n - 10)} of {n} by time")
    print("unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items())
          + f"; reference loop median {speed.median_ms():.2f} ms "
          f"over {len(speed.samples)} samples")
    for note in rec.notes[:20]:
        print(f"FAILED {note}", file=sys.stderr)

    if tracer:
        tracer.write_spans(stem + "-spans.tsv.gz")
        if tracer.absent:
            print("absent: " + " ".join(tracer.absent))
        layer["trace.analyses_per_s"] = {"value": ref["analyses_per_s"], "unit": "1/s"}
        metrics = layer
    else:
        units = {"analyses_per_s": "1/s", "analysis_p50_ms": "ms",
                 "analysis_tail_ms": "ms", "queries_per_s": "1/s", "setup_s": "s"}
        metrics = {name: {"value": ref[name], "unit": unit}
                   for name, unit in units.items()}
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    print(json.dumps({"correct": rec.mismatches == 0, "attempted": rec.attempted,
                      "failed": rec.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
