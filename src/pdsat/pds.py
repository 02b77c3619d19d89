"""Pushdown systems, configurations, and one-step semantics.

A rule ``(q, A) -> (p, w)`` with ``|w| <= 2`` rewrites the top stack symbol.
Stacks are tuples with the top at index 0 and the bottom symbol last.  The
one-step successor/predecessor enumeration here is the semantic ground truth
the oracles are built on.

A system is checked once, on first use: the violations ``validate`` reports
are computed the first time an analysis (or ``validate`` itself) asks for
them and kept on the frozen system, so every later entry point reads them
instead of walking the rules again.  ``pds()`` does not check.  The rule
indexes ``successors`` and ``predecessors`` look rules up in are built on
first use and kept the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .automata import EPS
from .errors import InvalidInputError


@dataclass(frozen=True)
class Rule:
    from_control: object
    from_symbol: object
    to_control: object
    pushed: tuple  # length <= 2

    def __repr__(self):
        w = "".join(str(a) for a in self.pushed) or "ε"
        return f"({self.from_control},{self.from_symbol})->({self.to_control},{w})"


@dataclass(frozen=True)
class PushdownSystem:
    controls: frozenset
    alphabet: frozenset  # stack symbols, including the bottom symbol
    bottom: object
    rules: frozenset

    # Cached in the instance ``__dict__`` like ``Nfa``'s indexes: each lives
    # as long as its system, and equality and hashing only look at the fields.
    @cached_property
    def _violations(self) -> tuple:
        return tuple(_find_violations(self))

    @cached_property
    def _rules_from(self) -> dict:
        """dict (from_control, from_symbol) -> the rules rewriting it."""
        index = {}
        for r in self.rules:
            index.setdefault((r.from_control, r.from_symbol), []).append(r)
        return index

    @cached_property
    def _rules_into(self) -> dict:
        """dict to_control -> length of the pushed word -> pushed word ->
        the rules into that control pushing that word."""
        index = {}
        for r in self.rules:
            index.setdefault(r.to_control, {}).setdefault(len(r.pushed), {}) \
                .setdefault(r.pushed, []).append(r)
        return index


@dataclass(frozen=True)
class Configuration:
    control: object
    stack: tuple  # top at index 0, bottom symbol last

    def __repr__(self):
        return f"({self.control}, {''.join(str(a) for a in self.stack)})"


def pds(controls=(), alphabet=(), bottom=None, rules=()) -> PushdownSystem:
    """Convenience constructor from rule tuples ``(q, A, p, w)``.  Give
    ``bottom``: its default ``None`` is ``EPS``, which ``validate`` refuses."""
    rs = frozenset(
        r if isinstance(r, Rule) else Rule(r[0], r[1], r[2], tuple(r[3]))
        for r in rules)
    controls = frozenset(controls) | {r.from_control for r in rs} \
        | {r.to_control for r in rs}
    alphabet = frozenset(alphabet) | {bottom} | {r.from_symbol for r in rs} \
        | {a for r in rs for a in r.pushed}
    return PushdownSystem(controls, alphabet, bottom, rs)


def validate(pds: PushdownSystem):
    """List of invariant violations; empty means the system is well formed.

    No stack symbol may be ``EPS`` (``None``), the automata's empty word.
    Rules on the bottom symbol must preserve it at the bottom: allowed shapes
    are ``(q,⊥)->(p,⊥)`` and ``(q,⊥)->(p,A⊥)`` with ``A != ⊥``.  Rules on
    other symbols may not mention the bottom symbol at all.  The check runs
    once per system; the list is a fresh copy on every call.
    """
    return list(pds._violations)


def _find_violations(pds: PushdownSystem):
    errors = []
    controls, alphabet, bot = pds.controls, pds.alphabet, pds.bottom
    if bot not in alphabet:
        errors.append("bottom symbol is not in the alphabet")
    if EPS in alphabet:
        errors.append(f"stack symbol {EPS!r} is EPS, the empty word; "
                      "give every symbol, the bottom too, another value")
    for r in pds.rules:
        if r.from_control not in controls or r.to_control not in controls:
            errors.append(f"rule {r!r}: unknown control state")
        pushed = r.pushed
        if r.from_symbol not in alphabet or not alphabet.issuperset(pushed):
            errors.append(f"rule {r!r}: unknown stack symbol")
            continue
        if len(pushed) > 2:
            errors.append(f"rule {r!r}: pushes more than two symbols")
            continue
        if r.from_symbol == bot:
            ok = pushed == (bot,) or (
                len(pushed) == 2 and pushed[1] == bot and pushed[0] != bot)
            if not ok:
                errors.append(f"rule {r!r}: pops bottom" if bot not in pushed
                              else f"rule {r!r}: malformed bottom rule")
        elif bot in pushed:
            errors.append(f"rule {r!r}: pushes bottom")
    return errors


def check_valid(pds: PushdownSystem):
    errors = pds._violations
    if errors:
        raise InvalidInputError("; ".join(errors))


def is_valid_configuration(pds: PushdownSystem, c: Configuration) -> bool:
    if c.control not in pds.controls or not c.stack:
        return False
    if c.stack[-1] != pds.bottom:
        return False
    body = c.stack[:-1]
    return pds.bottom not in body and pds.alphabet.issuperset(body)


def check_configuration(pds: PushdownSystem, c: Configuration):
    if not is_valid_configuration(pds, c):
        raise InvalidInputError(f"invalid configuration: {c!r}")


def successors(pds: PushdownSystem, c: Configuration):
    """Exact one-step successors of ``c``: the rules on its control and top
    symbol, looked up in the system's ``_rules_from`` index."""
    check_configuration(pds, c)
    rest = c.stack[1:]
    return {Configuration(r.to_control, r.pushed + rest)
            for r in pds._rules_from.get((c.control, c.stack[0]), ())}


def predecessors(pds: PushdownSystem, c: Configuration):
    """Valid configurations with ``c`` among their one-step successors: the
    rules into its control whose pushed word of length k is the top k
    symbols of its stack, looked up in the system's ``_rules_into`` index."""
    check_configuration(pds, c)
    stack = c.stack
    result = set()
    for k, by_word in pds._rules_into.get(c.control, {}).items():
        for r in by_word.get(stack[:k], ()):
            pre = Configuration(r.from_control, (r.from_symbol,) + stack[k:])
            if is_valid_configuration(pds, pre):
                result.add(pre)
    return result
