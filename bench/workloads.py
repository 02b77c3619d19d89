"""The four workloads.

A workload runs whole rounds; a round is a fixed mix of instances, drawn
fresh from (seed, round, slot) so that no instance is analysed twice in one
process.  Each workload has four steps:

* ``make``: the instances as plain data (the fingerprint covers these);
* ``build``: pdsat inputs from them, through the program's constructors
  (this is what ``setup_s`` times);
* ``run``: the timed analyses, each followed by its timed membership queries;
* ``check``: every answer against ground truth that does not come from the
  code under measurement, outside the timed region.
"""

from __future__ import annotations

import contextlib
import gc
import io
import os
from collections import Counter
from time import perf_counter

import pdsat as P
from pdsat import cli

import explicit
import gen
from gen import BOT


class Recorder:
    """Times analyses one by one and queries in batches; counts operations
    attempted and failed.  A failed check marks its operation failed.
    Before each analysis and each batch, outside the timed regions, it
    samples the machine's speed.

    The collector is paused from the start of a query batch to the start of
    the next analysis.  A batch is short, and a full collection landing in it
    (the program's memoised indexes keep every automaton alive, so one costs
    0.1-0.2 s late in a run) would cost more than the batch.  The collector
    is switched back on inside the next analysis's timed region, so the
    collections the batch's allocations call for are timed with it."""

    def __init__(self, speed):
        self.speed = speed
        self.analyses = []  # (start, end) of each analysis
        self.batches = []  # (start, end) of each query batch
        self.queries = 0
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0
        self.checks = Counter()  # check kind -> number made
        self.decided = Counter()  # bracket checks whose bracket fixed the answer
        self.counts = Counter()  # per-layer counts measured by the workload
        self.notes = []

    def analyse(self, label, fn, *args):
        self.speed.sample()
        self.attempted += 1
        start = perf_counter()
        gc.enable()
        try:
            result = fn(*args)
        except Exception as exc:  # counted as a failed operation; the run goes on
            self._fail(f"{label}: {exc!r}")
            return None
        self.analyses.append((start, perf_counter()))
        return result

    def ask(self, label, result, fn, items):
        """Answers of ``fn(result, item)`` for every item, timed as a batch."""
        self.attempted += len(items)
        if result is None:
            self._fail(f"{label}: no result to query", len(items))
            return None
        self.speed.sample()
        gc.disable()
        start = perf_counter()
        try:
            answers = [fn(result, item) for item in items]
        except Exception as exc:  # counted as failed operations; the run goes on
            self._fail(f"{label}: {exc!r}", len(items))
            return None
        self.batches.append((start, perf_counter()))
        self.queries += len(items)
        return answers

    def finish(self):
        gc.enable()

    def expect(self, kind, ok, what):
        """One check of one operation's output; a miss fails the operation."""
        self.checks[kind] += 1
        if not ok:
            self.mismatches += 1
            self._fail(f"{kind}: {what}")

    def _fail(self, note, count=1):
        self.failed += count
        self.notes.append(note)


def _config(c):
    return P.Configuration(c[0], c[1])


def _pds(s: gen.System):
    return P.pds(controls=s.controls, alphabet=s.base + (BOT,), bottom=BOT,
                 rules=s.rules)


def _target_transitions(t: gen.Target):
    return ([(p, a, "x0") for p in t.heads for a in t.first]
            + [(p, BOT, "xf") for p in t.heads]
            + [("x0", a, "x0") for a in t.rest] + [("x0", BOT, "xf")])


def _view(system, s: gen.System, t: gen.Target):
    aut = P.Nfa(frozenset(s.controls) | {"x0", "xf"}, system.alphabet,
                frozenset({"xf"}), frozenset(_target_transitions(t)))
    return P.PAutomatonView(aut, {p: p for p in s.controls})


def _game(system, spec):
    """pdsat game from ``(kind, System, owner, condition spec)``."""
    kind, s, owner, cond = spec[:4]
    if kind == "reach":
        extras, final, transitions = cond
        embed = {p: f"e.{p}" for p in s.controls}
        aut = P.AltAutomaton(
            frozenset(embed.values()) | frozenset(extras), system.alphabet,
            frozenset({final}),
            frozenset((src, a, frozenset(ts)) for src, a, ts in transitions))
        condition = P.ReachabilityCondition(aut, embed)
    elif kind == "buchi":
        condition = P.BuchiCondition(frozenset(cond))
    else:
        colours, max_colour = cond
        condition = P.ParityCondition(dict(colours), max_colour)
    return P.PushdownGame(system, dict(owner), condition)


SOLVERS = {"reach": "solve_reachability_game", "buchi": "solve_buchi_game",
           "parity": "solve_parity_game"}


def _solve(game_input):
    kind, game = game_input
    return getattr(P, SOLVERS[kind])(game)


def _region_member(region, c):
    return P.region_member(region, c)


def _height_for(n_controls):
    return 4 if n_controls <= 6 else 3


def _check_bracket(rec, kind, label, answer, found, left):
    rec.decided[kind] += found or not left
    rec.expect(kind, explicit.within_bracket(answer, found, left),
               f"{label}: answer {answer}, found {found}, left bound {left}")


class Workload:
    name = ""
    round_s = 1.0  # nominal seconds of analysis per round on the reference machine

    def rounds(self, seconds):
        return max(1, round(seconds / self.round_s))


class Saturation(Workload):
    """pre*, post* and the pop-guessing pre* automaton on large systems,
    each followed by membership queries on its result."""

    name = "saturation"
    round_s = 4.5
    # pre*, the pop-guessing automaton and post* form three clusters of
    # times; a narrow size range makes the last two overlap, so the median
    # analysis falls where times are dense.
    SIZES = (400, 500, 600, 700, 800)
    # Many queries per result, so that a collector pause landing in a query
    # batch moves the batch total little.
    WALK_QUERIES = 400
    UNIFORM_QUERIES = 400
    CHECKED = 5  # of each kind, per analysis

    def make(self, seed, rounds):
        out = []
        for r in range(rounds):
            for i, n in enumerate(self.SIZES):
                rng = gen.rng_for(self.name, seed, r, i)
                s = gen.saturation_system(rng, n)
                t = gen.target(rng, s)
                qf = rng.choice(s.controls)
                step = explicit.Stepper(s)

                def queries(step_fn, start):
                    return tuple(
                        gen.walk_queries(rng, step_fn, start, self.WALK_QUERIES)
                        + [gen.uniform_config(rng, s)
                           for _ in range(self.UNIFORM_QUERIES)])

                out.append((s, t, qf,
                            queries(step.predecessors, lambda: t.sample(rng)),
                            queries(step.successors, lambda: t.sample(rng)),
                            queries(step.predecessors, lambda: (qf, (BOT,)))))
        return out

    def build(self, specs):
        inputs = []
        for s, t, qf, q_pre, q_post, q_buchi in specs:
            system = _pds(s)
            inputs.append((system, _view(system, s, t), qf,
                           [_config(c) for c in q_pre],
                           [_config(c) for c in q_post],
                           [_config(c) for c in q_buchi]))
        return inputs

    def run(self, inputs, rec):
        results = []
        for system, view, qf, q_pre, q_post, q_buchi in inputs:
            answers = []
            for label, fn, args, queries in (
                    ("prestar", P.prestar, (system, view), q_pre),
                    ("poststar", P.poststar, (system, view), q_post),
                    ("buchi_target_automaton", P.buchi_target_automaton,
                     (system, qf), q_buchi)):
                result = rec.analyse(label, fn, *args)
                answers.append(rec.ask(label, result, _accepts, queries))
            results.append(answers)
        return results

    def check(self, specs, inputs, results, rec):
        for (s, t, qf, *queries), answers in zip(specs, results):
            step = explicit.Stepper(s)
            in_target = lambda c: t.accepts(*c)  # noqa: E731
            for kind, qs, ans, goal, search in zip(
                    ("prestar", "poststar", "buchi_target_automaton"),
                    queries, answers,
                    (in_target, in_target, lambda c: c == (qf, (BOT,))),
                    (step.successors, step.predecessors, step.successors)):
                if ans is None:
                    continue
                picked = (list(range(self.CHECKED)) + list(range(
                    self.WALK_QUERIES, self.WALK_QUERIES + self.CHECKED)))
                for k in picked:
                    c = qs[k]
                    found, left = explicit.bounded_search(
                        search, c, goal, max(len(c[1]), 4) + 2)
                    _check_bracket(rec, kind, f"{kind} {c}", ans[k], found, left)


def _accepts(view, c):
    return view.accepts(c)


class Games(Workload):
    """Reachability, Büchi and parity games, each solve followed by
    region membership queries."""

    name = "games"
    round_s = 1.0
    # Many small instances rather than a few large ones: one solve's time
    # varies with its seed by a coefficient of variation of 0.4-0.7, so the
    # spread of a run's total shrinks with the square root of the count.
    REACH = (4, 6, 7, 8)
    BUCHI = (6, 7, 8, 8)
    # (controls, max colour).  The heaviest shape comes three times, so that
    # the tail (the 11th-slowest solve) sits well inside forty-five instances
    # of one shape rather than at the edge of fifteen.
    PARITY = ((3, 2), (2, 5), (2, 5), (2, 5))
    QUERIES = 400
    # Büchi games up to this size are also solved as two-colour parity games.
    BUCHI_AS_PARITY = 6
    # Parity games of this shape are also solved dual.  With an even top
    # colour the shift by one adds no fixed-point level, so the dual costs
    # about as much as the game; an odd top colour makes it 10-20x dearer.
    DETERMINACY = (3, 2)

    def make(self, seed, rounds):
        out = []
        for r in range(rounds):
            slots = ([("reach", n, None) for n in self.REACH]
                     + [("buchi", n, None) for n in self.BUCHI]
                     + [("parity", n, m) for n, m in self.PARITY])
            for i, (kind, n, max_colour) in enumerate(slots):
                rng = gen.rng_for(self.name, seed, r, i)
                s, owner = gen.game_system(rng, n)
                if kind == "reach":
                    cond = gen.alt_target(rng, s)
                elif kind == "buchi":
                    cond = tuple(p for p in s.controls if rng.random() < 0.5)
                else:
                    cond = (tuple((p, rng.randint(0, max_colour))
                                  for p in s.controls), max_colour)
                h = _height_for(n)
                step = explicit.Stepper(s).successors
                queries = gen.walk_queries(
                    rng, step, lambda: gen.uniform_config(rng, s, h - 1),
                    self.QUERIES // 2, max_height=h)
                queries += [gen.uniform_config(rng, s, h - 1)
                            for _ in range(self.QUERIES - len(queries))]
                out.append((kind, s, owner, cond, tuple(queries)))
        return out

    def build(self, specs):
        return [((spec[0], _game(_pds(spec[1]), spec)),
                 [_config(c) for c in spec[4]]) for spec in specs]

    def run(self, inputs, rec):
        results = []
        for (kind, game), queries in inputs:
            region = rec.analyse(kind, _solve, (kind, game))
            results.append((region, rec.ask(kind, region, _region_member, queries)))
        return results

    def check(self, specs, inputs, results, rec):
        from pdsat import oracle
        for spec, ((kind, game), queries), (region, answers) in zip(
                specs, inputs, results):
            if region is None:
                continue
            h = _height_for(len(spec[1].controls))
            under, over = oracle.bracket_region(game, h)
            nodes = oracle.bounded_nodes(game.pds, h)
            member = {c: P.region_member(region, c) for c in nodes}
            bad = [c for c in nodes if under(c) and not member[c]
                   or member[c] and not over(c)]
            rec.expect(f"{kind} region within bracket_region", not bad,
                       f"{kind} region leaves the bracket at {bad[:3]}")
            if answers is not None:
                for c, ans in zip(queries, answers):
                    rec.decided[f"{kind} region_member"] += under(c) == over(c)
                    rec.expect(f"{kind} region_member", ans == member[c]
                               and (not under(c) or ans) and (not ans or over(c)),
                               f"{kind} region_member {c}: {ans}")
            n = len(spec[1].controls)
            if kind == "buchi" and n <= self.BUCHI_AS_PARITY:
                colours = {p: 0 if p in spec[3] else 1 for p in spec[1].controls}
                parity = P.solve_parity_game(P.PushdownGame(
                    game.pds, game.owner, P.ParityCondition(colours, 1)))
                rec.expect("buchi equals two-colour parity",
                           all(P.region_member(parity, c) == member[c] for c in nodes),
                           f"Büchi and two-colour parity regions differ ({n} controls)")
            if kind == "parity" and (n, spec[3][1]) == self.DETERMINACY:
                dual = P.solve_parity_game(P.dual_game(game))
                rec.expect("parity determinacy",
                           all(P.region_member(dual, c) != member[c] for c in nodes),
                           f"parity regions of a game and its dual overlap ({n} controls)")


class Derivation(Workload):
    """deriv_relation on bottom-free systems, then deriv_member queries."""

    name = "derivation"
    round_s = 1.1
    # Small systems, many of them: see Games for why.
    SIZES = (5, 6, 7, 8)
    QUERIES = 400

    def make(self, seed, rounds):
        out = []
        for r in range(rounds):
            for i, n in enumerate(self.SIZES):
                rng = gen.rng_for(self.name, seed, r, i)
                s = gen.bottom_free_system(rng, n)
                q0, qf = rng.choice(s.controls), rng.choice(s.controls)
                out.append((s, q0, qf, gen.deriv_queries(rng, s, q0, qf, self.QUERIES)))
        return out

    def build(self, specs):
        return [(_pds(s), q0, qf, list(queries)) for s, q0, qf, queries in specs]

    def run(self, inputs, rec):
        results = []
        for system, q0, qf, queries in inputs:
            rel = rec.analyse("deriv_relation", P.deriv_relation, system, q0, qf)
            results.append(rec.ask("deriv_member", rel, _deriv_member, queries))
        return results

    def check(self, specs, inputs, results, rec):
        for (s, q0, qf, queries), answers in zip(specs, results):
            if answers is None:
                continue
            step = explicit.Stepper(s).successors
            for (w1, w2), ans in zip(queries, answers):
                found, left = explicit.bounded_search(
                    step, (q0, w1), lambda c, goal=(qf, w2): c == goal,
                    max(len(w1), len(w2)) + 3)
                _check_bracket(rec, "deriv_member", f"{q0}{w1} => {qf}{w2}",
                               ans, found, left)


def _deriv_member(rel, pair):
    return P.deriv_member(rel, pair[0], pair[1])


# ---------------------------------------------------------------------------
# CLI documents


def _pds_text(s: gen.System):
    lines = ["pds", "states " + " ".join(s.controls),
             "alphabet " + " ".join(s.base), f"bottom {BOT}"]
    lines += [f"rule {p} {a} -> {q} {' '.join(w)}".rstrip()
              for p, a, q, w in s.rules]
    return lines


def _view_text(t: gen.Target):
    return (["automaton", "states x0 xf", "final xf"]
            + [f"trans {p} {a} {q}" for p, a, q in _target_transitions(t)])


def _game_text(kind, s, owner, cond):
    lines = []
    if kind == "reach":
        extras, final, transitions = cond
        lines += ["automaton",
                  "states " + " ".join(f"e.{p}" for p in s.controls) + " "
                  + " ".join(extras), f"final {final}"]
        lines += [f"alttrans {src} {a} {{ {' '.join(ts)} }}"
                  for src, a, ts in transitions]
        lines += [f"embed {p} e.{p}" for p in s.controls]
    lines.append("game")
    for who in (gen.ELOISE, gen.ABELARD):
        mine = [p for p, o in owner if o == who]
        if mine:
            lines.append(f"owner {who} " + " ".join(mine))
    if kind == "buchi" and cond:
        lines.append("final " + " ".join(cond))
    if kind == "parity":
        lines += [f"colour {p} {c}" for p, c in cond[0]]
    return lines


COMMANDS = {"reach": "reachgame", "buchi": "buchigame", "parity": "paritygame"}


class CliCheck(Workload):
    """``pdsat.cli.main`` called in-process on generated documents."""

    name = "cli-check"
    round_s = 1.25
    ORACLE_H = 4
    LARGE = 800
    CHECKED = 10  # configurations checked per large output

    def make(self, seed, rounds):
        out = []
        for r in range(rounds):
            slot = iter(range(100))

            def rng():
                return gen.rng_for(self.name, seed, r, next(slot))

            def reach_doc(n_controls, kind):
                g = rng()
                if n_controls == self.LARGE:
                    s = gen.saturation_system(g, n_controls)
                    t = gen.target(g, s)
                else:
                    s = gen.saturation_system(g, n_controls, n_base=3,
                                              rules_per_control=8)
                    t = gen.target(g, s, n_heads=2)
                step = explicit.Stepper(s)
                walk = step.predecessors if kind == "prestar" else step.successors
                qs = tuple(gen.walk_queries(g, walk, lambda: t.sample(g), self.CHECKED)
                           + [gen.uniform_config(g, s) for _ in range(self.CHECKED)])
                return s, t, qs

            def game_doc(kind, n_controls, max_colour=3):
                g = rng()
                s, owner = gen.game_system(g, n_controls)
                if kind == "reach":
                    cond = gen.alt_target(g, s)
                elif kind == "buchi":
                    cond = tuple(p for p in s.controls if g.random() < 0.5)
                else:
                    cond = (tuple((p, g.randint(0, max_colour)) for p in s.controls),
                            max_colour)
                return kind, s, owner, cond

            oracle = ["--oracle-check", str(self.ORACLE_H)]
            deep = ["--oracle-check", str(self.ORACLE_H + 1)]
            jobs = [
                ("prestar", reach_doc(8, "prestar"), deep),
                ("poststar", reach_doc(8, "poststar"), deep),
                ("reach", game_doc("reach", 6), oracle),
                ("buchi", game_doc("buchi", 6), oracle),
                ("parity", game_doc("parity", 3), oracle),
                ("prestar", reach_doc(6, "prestar"), ["--format", "dot"]),
                ("reach", game_doc("reach", 5), ["--format", "dot"]),
            ]
            # One large document per round rather than two, so that the
            # small, oracle-checked documents keep most of this workload's time.
            large = ("prestar", "poststar")[r % 2]
            jobs.append((large, reach_doc(self.LARGE, large), []))
            g = rng()
            s = gen.bottom_free_system(g, 4)
            q0, qf = s.controls[0], s.controls[-1]
            jobs.append(("deriv", (s, q0, qf,
                                   gen.deriv_queries(g, s, q0, qf, 2 * self.CHECKED)),
                         ["--from", q0, "--to", qf]))
            # member queries, one document each; the configuration comes from
            # a walk (likely yes) or is uniform (likely no)
            for j, kind in enumerate(("prestar", "poststar") * 4):
                s, t, qs = reach_doc(6, kind)
                jobs.append(("member", (kind, s, t, qs[j // 2 % 2 * self.CHECKED]), []))
            for kind, n_controls, max_colour in (("reach", 5, 0),) * 4 + (
                    ("buchi", 5, 0), ("buchi", 5, 0), ("parity", 2, 2), ("parity", 2, 2)):
                doc = game_doc(kind, n_controls, max_colour)
                c = gen.uniform_config(rng(), doc[1], self.ORACLE_H - 1)
                jobs.append(("member", doc + (c,), []))
            out.append(tuple(jobs))
        return out

    def build(self, specs):
        """Documents rendered and written to files; the argv of each call."""
        folder = os.path.join(".bench_out", f"docs-{os.getpid()}")
        os.makedirs(folder, exist_ok=True)
        rounds = []
        for r, jobs in enumerate(specs):
            calls = []
            rounds.append(calls)
            for j, (kind, spec, extra) in enumerate(jobs):
                path = os.path.join(folder, f"r{r}-{j}.pds")
                if kind in ("prestar", "poststar"):
                    s, t, _ = spec
                    lines, argv = _pds_text(s) + _view_text(t), [kind]
                elif kind == "deriv":
                    lines, argv = _pds_text(spec[0]), ["deriv"]
                elif kind == "member":
                    lines, argv = self._member_doc(spec)
                else:
                    lines, argv = _pds_text(spec[1]) + _game_text(*spec), [COMMANDS[kind]]
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write("\n".join(lines) + "\n")
                calls.append((kind, argv + ["--in", path] + extra))
        return folder, rounds

    @staticmethod
    def _member_doc(spec):
        if spec[0] in ("prestar", "poststar"):
            analysis, s, t, c = spec
            lines = _pds_text(s) + _view_text(t)
        else:
            kind, s, owner, cond, c = spec
            analysis = COMMANDS[kind]
            lines = _pds_text(s) + _game_text(kind, s, owner, cond)
        config = f"{c[0]} : {' '.join(c[1])}"
        return lines, ["member", "--analysis", analysis, "--config", config]

    def run(self, inputs, rec):
        folder, rounds = inputs
        results, answers = [], []
        for calls in rounds:
            results += [rec.analyse(kind, _invoke, argv)
                        for kind, argv in calls if kind != "member"]
            # Each member call parses, builds and analyses its own document.
            members = [argv for kind, argv in calls if kind == "member"]
            answers += (rec.ask("member", True, lambda _, argv: _invoke(argv), members)
                        or [None] * len(members))
        rec.counts["cli.output_bytes"] = sum(
            len(out) for _, out in filter(None, results + answers))
        return results, answers

    def check(self, specs, inputs, results, rec):
        from pdsat import oracle
        outputs, answers = map(iter, results)
        for jobs in specs:
            for kind, spec, extra in jobs:
                if kind == "member":
                    got = next(answers)
                    if got is not None:
                        self._check_member(rec, spec, got, oracle)
                    continue
                got = next(outputs)
                if got is None:
                    continue
                code, text = got
                label = f"{kind} {' '.join(extra)}".strip()
                rec.expect("cli exit code", code == 0, f"{label}: exit code {code}")
                if "--oracle-check" in extra:
                    line = ("bracket agreement" if kind in COMMANDS
                            else "oracle agreement")
                    rec.expect("cli agreement line", text.startswith(line),
                               f"{label}: no agreement line")
                elif "dot" in extra:
                    rec.expect("cli dot output",
                               text.startswith("digraph") and text.endswith("}\n"),
                               f"{label}: not a dot graph")
                elif kind == "deriv":
                    self._check_deriv(rec, spec, text)
                else:
                    self._check_large(rec, kind, spec, text)

    def _check_large(self, rec, kind, spec, text):
        s, t, queries = spec
        finals, step, embed = explicit.read_automaton(text)
        stepper = explicit.Stepper(s)
        search = stepper.successors if kind == "prestar" else stepper.predecessors
        for control, stack in queries:
            answer = explicit.nfa_accepts(step, finals, embed[control], stack)
            found, left = explicit.bounded_search(
                search, (control, stack), lambda c: t.accepts(*c),
                max(len(stack), 4) + 2)
            _check_bracket(rec, f"cli {kind} output", f"{kind} {control} {stack}",
                           answer, found, left)

    def _check_deriv(self, rec, spec, text):
        s, q0, qf, queries = spec
        pairs = explicit.read_relation(text)
        step = explicit.Stepper(s).successors
        for w1, w2 in queries:
            found, left = explicit.bounded_search(
                step, (q0, w1), lambda c, goal=(qf, w2): c == goal,
                max(len(w1), len(w2)) + 3)
            _check_bracket(rec, "cli deriv output", f"{q0}{w1} => {qf}{w2}",
                           explicit.relation_member(pairs, w1, w2), found, left)

    def _check_member(self, rec, spec, got, oracle):
        code, text = got
        answer = code == 0
        rec.expect("cli member exit code", code in (0, 1)
                   and text == ("yes\n" if answer else "no\n"),
                   f"member: exit code {code}, output {text!r}")
        if spec[0] in ("prestar", "poststar"):
            analysis, s, t, c = spec
            stepper = explicit.Stepper(s)
            search = stepper.successors if analysis == "prestar" else stepper.predecessors
            found, left = explicit.bounded_search(
                search, c, lambda x: t.accepts(*x), max(len(c[1]), 4) + 2)
            _check_bracket(rec, "cli member", f"{analysis} {c}", answer, found, left)
        else:
            kind, s, owner, cond, c = spec
            under, over = oracle.bracket_region(_game(_pds(s), spec), self.ORACLE_H)
            config = _config(c)
            _check_bracket(rec, "cli member", f"{kind} {c}", answer,
                           under(config), over(config))

    @staticmethod
    def cleanup(inputs):
        folder, rounds = inputs
        for _, argv in (call for calls in rounds for call in calls):
            path = argv[argv.index("--in") + 1]
            if os.path.exists(path):
                os.remove(path)
        os.rmdir(folder)


def _invoke(argv):
    """``pdsat.cli.main(argv)`` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


WORKLOADS = {w.name: w for w in (Saturation, Games, Derivation, CliCheck)}
