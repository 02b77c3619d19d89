"""Spans around pdsat's public functions, installed from outside the package.

Each traced function is replaced by a wrapper under every name the program
looks it up through: the defining module and every pdsat module that
imported it by name (``games.alt_run_targets``, ``oracle.successors``, ...),
so the program's own internal calls are timed too.  Spans (name, start, end,
parent) are kept in memory and written out when the run ends.  A function
that no longer exists is reported as absent and its metrics read 0.
"""

from __future__ import annotations

import functools
import gzip
import importlib
from array import array
from collections import defaultdict
from time import perf_counter

MODULES = ("automata", "pds", "reachability", "derivation", "games",
           "oracle", "cli")


def _transitions(result):
    return len(result.aut.transitions)


def _states(result):
    return len(result.aut.states)


# module -> function -> {counter name: size of the function's result}
TRACED = {
    "reachability": {
        "prestar": {"reachability.prestar.transitions_out": _transitions},
        "poststar": {}, "pop_relation": {}, "buchi_target_automaton": {}},
    "pds": {
        "invert": {"pds.invert.rules_out": lambda r: len(r.rules)},
        "successors": {}, "check_valid": {}},
    "automata": {
        "nfa_accepts": {}, "alt_membership": {}, "alt_run_targets": {},
        "antichain": {}, "product_intersect": {}, "eps_closure": {}},
    "games": {
        "solve_reachability_game": {"games.region_transitions_out": _transitions},
        "solve_buchi_game": {"games.region_transitions_out": _transitions},
        "solve_parity_game": {"games.region_transitions_out": _transitions},
        "pre_step": {}, "subsume": {}, "project": {}},
    "derivation": {
        "behaviour_automaton": {},
        "benois_reduce": {"derivation.benois_reduce.states_out": _states},
        "productive_filter": {"derivation.productive_filter.states_out": _states},
        "decompose": {"derivation.decompose.pairs_out": len},
        "deriv_relation": {}, "deriv_member": {}},
    "oracle": {
        "bounded_graph": {"oracle.bounded_graph.nodes_out": lambda g: len(g.nodes)},
        "finite_game_region": {}, "attractor": {}, "bfs_prestar_member": {}},
    "cli": {"parse": {}, "main": {}},
}

# Reported per-layer metrics: (name, unit).  "<fn>.ms" is busy time including
# children, "<fn>.self_ms" excludes child spans, "<fn>.calls" counts calls.
LAYER_METRICS = [
    ("reachability.prestar.self_ms", "ms"),
    ("reachability.prestar.calls", "count"),
    ("reachability.prestar.transitions_out", "count"),
    ("reachability.poststar.self_ms", "ms"),
    ("pds.invert.ms", "ms"),
    ("pds.invert.rules_out", "count"),
    ("reachability.pop_relation.ms", "ms"),
    ("reachability.buchi_target_automaton.self_ms", "ms"),
    ("automata.nfa_accepts.ms", "ms"),
    ("automata.nfa_accepts.calls", "count"),
    ("games.solve_reachability_game.ms", "ms"),
    ("games.solve_buchi_game.ms", "ms"),
    ("games.solve_parity_game.ms", "ms"),
    ("games.pre_step.calls", "count"),
    ("games.pre_step.self_ms", "ms"),
    ("games.subsume.calls", "count"),
    ("games.subsume.self_ms", "ms"),
    ("games.project.calls", "count"),
    ("games.project.self_ms", "ms"),
    ("automata.alt_run_targets.calls", "count"),
    ("automata.alt_run_targets.self_ms", "ms"),
    ("automata.antichain.calls", "count"),
    ("automata.antichain.self_ms", "ms"),
    ("games.region_transitions_out", "count"),
    ("automata.alt_membership.ms", "ms"),
    ("derivation.behaviour_automaton.ms", "ms"),
    ("derivation.benois_reduce.self_ms", "ms"),
    ("derivation.productive_filter.self_ms", "ms"),
    ("derivation.decompose.self_ms", "ms"),
    ("derivation.deriv_relation.self_ms", "ms"),
    ("derivation.benois_reduce.states_out", "count"),
    ("derivation.productive_filter.states_out", "count"),
    ("derivation.decompose.pairs_out", "count"),
    ("automata.product_intersect.ms", "ms"),
    ("automata.eps_closure.ms", "ms"),
    ("derivation.deriv_member.ms", "ms"),
    ("automata.index_cache_entries", "count"),
    ("oracle.bounded_graph.ms", "ms"),
    ("oracle.bounded_graph.nodes_out", "count"),
    ("oracle.finite_game_region.self_ms", "ms"),
    ("oracle.attractor.calls", "count"),
    ("oracle.bfs_prestar_member.calls", "count"),
    ("oracle.bfs_prestar_member.self_ms", "ms"),
    ("pds.successors.calls", "count"),
    ("pds.successors.self_ms", "ms"),
    ("cli.parse.ms", "ms"),
    ("cli.main.self_ms", "ms"),
    ("cli.output_bytes", "count"),
    ("pds.check_valid.calls", "count"),
]


class Tracer:
    def __init__(self):
        self.on = False
        self.names = []
        self.calls = []        # per name index
        self.busy = []         # seconds, children included
        self.self_time = []    # seconds, child spans excluded
        self.counts = defaultdict(int)
        self.absent = []
        # Spans, one entry per call, in the order calls began.
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self._open = []        # indexes of open spans
        self._child = []       # child busy time of each open span

    def install(self):
        modules = {m: importlib.import_module(f"pdsat.{m}") for m in MODULES}
        packages = list(modules.values()) + [importlib.import_module("pdsat")]
        for module_name, functions in TRACED.items():
            home = modules[module_name]
            for fn_name, outputs in functions.items():
                name = f"{module_name}.{fn_name}"
                fn = getattr(home, fn_name, None)
                if fn is None:
                    self.absent.append(name)
                    continue
                wrapper = self._wrap(name, fn, tuple(outputs.items()))
                for module in packages:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, attr, wrapper)

    def _wrap(self, name, fn, outputs):
        idx = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.busy.append(0.0)
        self.self_time.append(0.0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            me = len(self.span_name)
            self.span_name.append(idx)
            self.span_parent.append(self._open[-1] if self._open else -1)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            self._open.append(me)
            self._child.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._open.pop()
                children = self._child.pop()
                took = end - start
                if self._child:
                    self._child[-1] += took
                self.span_start[me] = start
                self.span_end[me] = end
                self.calls[idx] += 1
                self.busy[idx] += took
                self.self_time[idx] += took - children
            for counter, size in outputs:
                self.counts[counter] += size(result)
            return result

        return traced

    def metrics(self, extra_counts, scale):
        """Per-layer metrics; times are multiplied by ``scale``."""
        values = dict(self.counts)
        values.update(extra_counts)
        values["automata.index_cache_entries"] = index_cache_entries()
        for i, name in enumerate(self.names):
            values[f"{name}.calls"] = self.calls[i]
            values[f"{name}.ms"] = self.busy[i] * 1000 * scale
            values[f"{name}.self_ms"] = self.self_time[i] * 1000 * scale
        return {name: {"value": values.get(name, 0), "unit": unit}
                for name, unit in LAYER_METRICS}

    def write_spans(self, path):
        """Gzipped lines, one per span: name, start and end in microseconds
        from the first span, and the index of the parent span (-1 at the
        top)."""
        origin = self.span_start[0] if self.span_start else 0.0
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write("name\tstart_us\tend_us\tparent\n")
            for i in range(len(self.span_name)):
                handle.write(
                    f"{self.names[self.span_name[i]]}\t"
                    f"{(self.span_start[i] - origin) * 1e6:.1f}\t"
                    f"{(self.span_end[i] - origin) * 1e6:.1f}\t"
                    f"{self.span_parent[i]}\n")


def index_cache_entries() -> int:
    """Entries held by pdsat's memoised (lru_cache) functions right now."""
    cached = {}
    for m in MODULES:
        for value in vars(importlib.import_module(f"pdsat.{m}")).values():
            if callable(getattr(value, "cache_info", None)):
                cached[id(value)] = value
    return sum(fn.cache_info().currsize for fn in cached.values())
