"""Shared helpers: seeded random instances for property tests."""

import itertools
import random

import pdsat as P

BOT = "_"


def make_rng(seed):
    return random.Random(seed)


class NoSteps(dict):
    """A mapping whose every lookup fails the test: put in place of the
    data a membership step reads, it shows that a query took no step."""

    def get(self, *args):
        raise AssertionError("a query computed a step")

    __getitem__ = get


def random_pds(rng, n_controls=3, n_symbols=3, n_rules=6, bottom_rules=True):
    """A small valid pushdown system with exactly ``n_rules`` distinct rules."""
    controls = [f"q{i}" for i in range(n_controls)]
    base = ["A", "B", "C", "D"][:n_symbols]
    rules = set()
    guard = 0
    while len(rules) < n_rules and guard < 50 * n_rules:
        guard += 1
        p = rng.choice(controls)
        q = rng.choice(controls)
        if bottom_rules and rng.random() < 0.2:
            pushed = (BOT,) if rng.random() < 0.5 else (rng.choice(base), BOT)
            rules.add((p, BOT, q, pushed))
        else:
            a = rng.choice(base)
            k = rng.choice([0, 1, 1, 2])
            pushed = tuple(rng.choice(base) for _ in range(k))
            rules.add((p, a, q, pushed))
    return P.pds(controls=controls, alphabet=base + [BOT], bottom=BOT,
                 rules=sorted(rules))


def random_bottom_free_pds(rng, n_controls=3, n_symbols=3, n_rules=6):
    return random_pds(rng, n_controls, n_symbols, n_rules, bottom_rules=False)


def shaped_bottom_free_pds(rng, n_controls, n_symbols=3,
                           shapes=(0, 0, 0, 1, 1, 2)):
    """A bottom-free system with, for every control, one distinct rule per
    entry of ``shapes``, pushing a word of that length."""
    controls = [f"q{i}" for i in range(n_controls)]
    base = ["A", "B", "C", "D"][:n_symbols]
    rules = set()
    for p in controls:
        for k in shapes:
            while True:
                rule = (p, rng.choice(base), rng.choice(controls),
                        tuple(rng.choice(base) for _ in range(k)))
                if rule not in rules:
                    rules.add(rule)
                    break
    return P.pds(controls=controls, alphabet=base + [BOT], bottom=BOT,
                 rules=sorted(rules))


def random_view(rng, system, n_extra=2, n_trans=5):
    """A random P-automaton over ``system`` with identity-style embedding."""
    embed = {p: ("ctrl", p) for p in system.controls}
    extras = [("x", i) for i in range(n_extra)]
    states = set(embed.values()) | set(extras)
    finals = {rng.choice(extras)}
    transitions = set()
    symbols = sorted(system.alphabet)
    sources = sorted(states, key=repr)
    for _ in range(n_trans):
        transitions.add((rng.choice(sources), rng.choice(symbols),
                         rng.choice(extras)))
    aut = P.Nfa(frozenset(states), system.alphabet, frozenset(finals),
                frozenset(transitions))
    return P.PAutomatonView(aut, embed)


def random_total_game(rng, n_controls=2, n_symbols=2, max_rules=1):
    """A game pds with 1 to ``max_rules`` rules per (control, symbol) pair
    (duplicates merge), so no configuration is ever stuck, plus a random
    owner map.  With ``max_rules=1`` every pair has exactly one rule and
    no player ever chooses between rules."""
    controls = [f"q{i}" for i in range(n_controls)]
    base = ["A", "B", "C"][:n_symbols]
    rules = []
    for p in controls:
        for a in base + [BOT]:
            for _ in range(1 if max_rules == 1 else rng.randint(1, max_rules)):
                q = rng.choice(controls)
                if a == BOT:
                    pushed = ((BOT,) if rng.random() < 0.5
                              else (rng.choice(base), BOT))
                else:
                    k = rng.choice([0, 1, 1, 2])
                    pushed = tuple(rng.choice(base) for _ in range(k))
                rules.append((p, a, q, pushed))
    system = P.pds(controls=controls, alphabet=base + [BOT], bottom=BOT,
                   rules=rules)
    owner = {p: rng.choice([P.ELOISE, P.ABELARD]) for p in controls}
    return system, owner


def random_reachability_condition(rng, system, n_extra=2, n_trans=4):
    """A random alternating target automaton in P-automaton shape."""
    embed = {p: ("e", p) for p in system.controls}
    extras = [("x", i) for i in range(n_extra)]
    states = set(embed.values()) | set(extras)
    finals = {rng.choice(extras)}
    symbols = sorted(system.alphabet)
    transitions = set()
    sources = sorted(states, key=repr)
    for _ in range(n_trans):
        size = rng.choice([1, 1, 2])
        targets = frozenset(rng.sample(extras, min(size, len(extras))))
        transitions.add((rng.choice(sources), rng.choice(symbols), targets))
    aut = P.AltAutomaton(frozenset(states), system.alphabet, frozenset(finals),
                         frozenset(transitions))
    return P.ReachabilityCondition(aut, embed)


def stacks_upto(system, max_len):
    """All valid stacks with at most ``max_len`` symbols above the bottom."""
    base = sorted(system.alphabet - {system.bottom})
    for k in range(max_len + 1):
        for w in itertools.product(base, repeat=k):
            yield w + (system.bottom,)


def configurations_upto(system, max_len):
    for q in sorted(system.controls):
        for stack in stacks_upto(system, max_len):
            yield P.Configuration(q, stack)
