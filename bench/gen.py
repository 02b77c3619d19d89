"""Seeded instance generators.

Instances are plain tuples of strings and ints; ``workloads.py`` turns them
into pdsat objects.  Every random draw is made over a list in a fixed order,
never while iterating a set, so an instance depends on its seed alone and not
on ``PYTHONHASHSEED``.  These generators belong to the benchmark: a change to
the test suite's helpers cannot change the benchmark's inputs.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

import explicit

BOT = "_"
ELOISE, ABELARD = "E", "A"
# Lengths of the word a non-bottom rule pushes, drawn uniformly.  With about
# one rule per (control, symbol), lengths (0, 1, 1, 2) make the pop relation a
# critical branching process: its size, and with it the time of one analysis,
# then varies by orders of magnitude from seed to seed (one post* on 650
# controls took 17 s where its neighbours took 0.3 s).  Two more pops keep it
# clearly subcritical.
PUSHED_LENGTHS = (0, 0, 0, 1, 2)


def rng_for(workload: str, seed: int, *tags) -> random.Random:
    """A generator seeded from text; str seeds are hashed with SHA-512, so the
    stream does not depend on PYTHONHASHSEED."""
    return random.Random(":".join(map(str, (workload, seed) + tags)))


def fingerprint(instances) -> str:
    return hashlib.sha256(repr(instances).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class System:
    controls: tuple
    base: tuple  # stack symbols other than the bottom symbol
    rules: tuple  # sorted (from_control, from_symbol, to_control, pushed)


def _names(prefix, n):
    width = len(str(n - 1))
    return tuple(f"{prefix}{i:0{width}d}" for i in range(n))


def _pushed(rng, base):
    return tuple(rng.choice(base) for _ in range(rng.choice(PUSHED_LENGTHS)))


def _bottom_pushed(rng, base):
    return (BOT,) if rng.random() < 0.5 else (rng.choice(base), BOT)


def saturation_system(rng, n_controls, n_base=9, rules_per_control=10):
    """Distinct rules drawn per control, about one in ten on the bottom."""
    controls, base = _names("q", n_controls), _names("A", n_base)
    rules = set()
    for p in controls:
        mine = set()
        while len(mine) < rules_per_control:
            q = rng.choice(controls)
            if rng.random() < 0.1:
                mine.add((p, BOT, q, _bottom_pushed(rng, base)))
            else:
                mine.add((p, rng.choice(base), q, _pushed(rng, base)))
        rules |= mine
    return System(controls, base, tuple(sorted(rules)))


def game_system(rng, n_controls, n_base=3, rules_per_pair=2):
    """``rules_per_pair`` distinct rules for every (control, symbol), the
    bottom included, so no configuration is stuck."""
    controls, base = _names("q", n_controls), _names("A", n_base)
    rules = set()
    for p in controls:
        for a in base + (BOT,):
            mine = set()
            while len(mine) < rules_per_pair:
                pushed = _bottom_pushed(rng, base) if a == BOT else _pushed(rng, base)
                mine.add((p, a, rng.choice(controls), pushed))
            rules |= mine
    owner = tuple((p, rng.choice((ELOISE, ABELARD))) for p in controls)
    return System(controls, base, tuple(sorted(rules))), owner


def bottom_free_system(rng, n_controls, n_base=3, shapes=(0, 0, 0, 1, 1, 2)):
    """One rule per entry of ``shapes`` for every control, pushing a word of
    that length.  Fixing the shapes, rather than drawing them, keeps the
    number of push rules, and with it the time of one deriv_relation, from
    swinging with the seed."""
    controls, base = _names("q", n_controls), _names("A", n_base)
    rules = set()
    for p in controls:
        for k in shapes:
            while True:
                rule = (p, rng.choice(base), rng.choice(controls),
                        tuple(rng.choice(base) for _ in range(k)))
                if rule not in rules:
                    rules.add(rule)
                    break
    return System(controls, base, tuple(sorted(rules)))


@dataclass(frozen=True)
class Target:
    """The configuration set {(p, bottom) | p in heads} together with
    {(p, A w bottom) | p in heads, A in first, w in rest*}."""

    heads: tuple
    first: tuple
    rest: tuple

    def accepts(self, control, stack) -> bool:
        if control not in self.heads:
            return False
        body = stack[:-1]
        return not body or (body[0] in self.first
                            and all(a in self.rest for a in body[1:]))

    def sample(self, rng, max_body=3):
        body = ()
        if rng.random() < 0.8:
            k = rng.randint(0, max_body - 1)
            body = (rng.choice(self.first),) + tuple(
                rng.choice(self.rest) for _ in range(k))
        return rng.choice(self.heads), body + (BOT,)


def target(rng, system: System, n_heads=5):
    return Target(tuple(sorted(rng.sample(system.controls, n_heads))),
                  tuple(sorted(rng.sample(system.base, 2))),
                  tuple(sorted(rng.sample(system.base, 3))))


def alt_target(rng, system: System, n_extra=2):
    """Random alternating target automaton in P-automaton shape: control
    ``p`` is embedded as ``e.p``; extra states ``x0 x1 ...``; one final."""
    extras = tuple(f"x{i}" for i in range(n_extra))
    sources = tuple(f"e.{p}" for p in system.controls) + extras
    symbols = system.base + (BOT,)
    transitions = set()
    for _ in range(2 * len(system.controls)):
        size = rng.choice((1, 1, 2))
        targets = tuple(sorted(rng.sample(extras, min(size, n_extra))))
        transitions.add((rng.choice(sources), rng.choice(symbols), targets))
    return extras, rng.choice(extras), tuple(sorted(transitions))


def uniform_config(rng, system: System, max_body=4):
    body = tuple(rng.choice(system.base)
                 for _ in range(rng.randint(0, max_body)))
    return rng.choice(system.controls), body + (BOT,)


def walk(rng, step, start, steps, max_height):
    """Configurations visited by a random walk of at most ``steps`` moves;
    ``step`` gives the sorted neighbours of a configuration."""
    seen = [start]
    cur = start
    for _ in range(steps):
        options = [c for c in step(cur) if len(c[1]) <= max_height]
        if not options:
            break
        cur = rng.choice(options)
        seen.append(cur)
    return seen


def walk_queries(rng, step, starts, n, max_height=8):
    """``n`` configurations visited by random walks started at ``starts()``
    (a walk that cannot move gives its start)."""
    out = []
    while len(out) < n:
        path = walk(rng, step, starts(), rng.randint(1, 12), max_height)
        out += path[1:] or path
    return out[:n]


def deriv_queries(rng, system: System, q0, qf, n):
    """Pairs (w1, w2) of bottom-free stacks.  Half are read off random walks
    from (q0, w1) where the walk stands at qf; half are uniform."""
    step = explicit.Stepper(system).successors
    pairs = []
    attempts = 0
    while len(pairs) < n // 2 and attempts < 20 * n:
        attempts += 1
        w1 = tuple(rng.choice(system.base) for _ in range(rng.randint(1, 3)))
        path = walk(rng, step, (q0, w1), rng.randint(1, 12), 6)
        hits = [c[1] for c in path if c[0] == qf]
        if hits:
            pairs.append((w1, rng.choice(hits)))
    while len(pairs) < n:
        w1 = tuple(rng.choice(system.base) for _ in range(rng.randint(0, 3)))
        w2 = tuple(rng.choice(system.base) for _ in range(rng.randint(0, 3)))
        pairs.append((w1, w2))
    return tuple(pairs)
