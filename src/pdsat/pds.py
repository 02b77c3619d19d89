"""Pushdown systems, configurations, and one-step semantics.

A rule ``(q, A) -> (p, w)`` with ``|w| <= 2`` rewrites the top stack symbol.
Stacks are tuples with the top at index 0 and the bottom symbol last.  The
one-step successor/predecessor enumeration here is the semantic ground truth
the oracles are built on.  One enumeration serves each direction: the
private ``_successors`` and ``_predecessors`` take a checked system and a
valid configuration, check nothing, and given a height bound build no
configuration above it, so the oracle's searches never leave their bound;
the public ``successors`` and ``predecessors`` check the configuration and
call them.  (The oracle builds each bounded graph's predecessor index once,
for every attractor that solves it.)

A system is checked once, on first use: the violations ``validate`` reports
are computed the first time an analysis (or ``validate`` itself) asks for
them and kept on the frozen system, so every later entry point reads them
instead of walking the rules again.  ``pds()`` does not check.  The rule
indexes ``successors`` and ``predecessors`` look rules up in are built on
first use and kept the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain
from math import inf
from typing import NamedTuple

from .automata import EPS
from .errors import InvalidInputError


class Rule(NamedTuple):
    """The rule ``(from_control, from_symbol) -> (to_control, pushed)``: the
    tuple of its four fields, hashed and compared in C, so it equals the
    plain tuple ``(p, A, q, w)`` and unpacks like one."""

    from_control: object
    from_symbol: object
    to_control: object
    pushed: tuple  # length <= 2

    def __repr__(self):
        p, a, q, pushed = self
        w = "".join(str(b) for b in pushed) or "ε"
        return f"({p},{a})->({q},{w})"


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

    # The indexes hold the fields of a rule that their readers need as plain
    # tuples: a plain tuple unpacks several times faster than a ``Rule``.
    @cached_property
    def _rules_from(self) -> dict:
        """dict (from_control, from_symbol) -> ``(to_control, pushed)`` for
        each rule rewriting it."""
        index = {}
        for r in self.rules:
            index.setdefault(r[:2], []).append(r[2:])
        return index

    @cached_property
    def _rules_into(self) -> dict:
        """dict to_control -> length of the pushed word -> pushed word ->
        ``(from_control, from_symbol)`` for each rule into that control
        pushing that word."""
        index = {}
        for r in self.rules:
            _, _, q, pushed = r
            index.setdefault(q, {}).setdefault(len(pushed), {}) \
                .setdefault(pushed, []).append(r[:2])
        return index


class Configuration(NamedTuple):
    """The configuration ``(control, stack)``: a tuple of its two fields, so
    it equals the plain tuple ``(p, w)`` and unpacks like one."""

    control: object
    stack: tuple  # top at index 0, bottom symbol last

    def __repr__(self):
        return f"({self[0]}, {''.join(str(a) for a in self[1])})"


# A rule from the tuple of its four fields, built by ``tuple.__new__`` in C:
# ``Rule(...)`` runs the ``__new__`` that ``NamedTuple`` writes in Python.
_rule_of = partial(tuple.__new__, Rule)
# A configuration from the tuple of its two fields, built the same way.
_config_of = partial(tuple.__new__, Configuration)


def pds(controls=(), alphabet=(), *, bottom, rules=()) -> PushdownSystem:
    """Convenience constructor from rules: ``Rule``s or 4-tuples
    ``(q, A, p, w)`` with ``w`` any sequence.  The controls take every
    control the rules name, and the alphabet ``bottom`` and every symbol
    the rules read or push.  The rules are read in one pass, as the four
    columns of their fields."""
    froms, symbols, tos, words = tuple(zip(*rules)) or ((), (), (), ())
    words = tuple(map(tuple, words))
    # Joined set by set: a set iterates in an order that depends on how it
    # was built, the solvers number controls and symbols in that order, and
    # the cost of a solve depends on the numbering.
    return PushdownSystem(
        frozenset(controls) | set(froms) | set(tos),
        frozenset(alphabet) | {bottom} | set(symbols)
        | set(chain.from_iterable(words)),
        bottom, frozenset(map(_rule_of, zip(froms, symbols, tos, words))))


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
    errors, found = [], []  # found: the rules' faults, in no fixed order
    controls, alphabet, bot = pds.controls, pds.alphabet, pds.bottom
    if bot not in alphabet:
        errors.append("bottom symbol is not in the alphabet")
    if EPS in alphabet:
        errors.append(f"stack symbol {EPS!r} is EPS, the empty word; "
                      "give every symbol, the bottom too, another value")
    for r in pds.rules:
        p, a, q, pushed = r
        if p not in controls or q not in controls:
            found.append(f"rule {r!r}: unknown control state")
        if a not in alphabet or not alphabet.issuperset(pushed):
            found.append(f"rule {r!r}: unknown stack symbol")
            continue
        if len(pushed) > 2:
            found.append(f"rule {r!r}: pushes more than two symbols")
            continue
        if a == bot:
            ok = pushed == (bot,) or (
                len(pushed) == 2 and pushed[1] == bot and pushed[0] != bot)
            if not ok:
                found.append(f"rule {r!r}: pops bottom" if bot not in pushed
                             else f"rule {r!r}: malformed bottom rule")
        elif bot in pushed:
            found.append(f"rule {r!r}: pushes bottom")
    # sorted as text, so by the rule's repr first, the same in every process
    return errors + sorted(found)


def check_valid(pds: PushdownSystem):
    errors = pds._violations
    if errors:
        raise InvalidInputError("; ".join(errors))


def is_valid_configuration(pds: PushdownSystem, c: Configuration) -> bool:
    stack = c.stack
    if c.control not in pds.controls or not stack or stack[-1] != pds.bottom:
        return False
    body = stack[:-1]
    return pds.bottom not in body and pds.alphabet.issuperset(body)


def check_configuration(pds: PushdownSystem, c: Configuration):
    if not is_valid_configuration(pds, c):
        raise InvalidInputError(f"invalid configuration: {c!r}")


def _successors(pds: PushdownSystem, c: Configuration, h=None):
    """One-step successors of ``c``, no more than ``h`` high if ``h`` is
    given: the rules on its control and top symbol, looked up in the
    system's ``_rules_from`` index.  A successor by a rule pushing ``w`` is
    ``len(w) + len(rest)`` high, ``rest`` the stack below the top, so a rule
    that would climb past ``h`` builds nothing.

    ``pds`` must be checked and ``c`` valid in it, and nothing is checked
    here: then every successor is valid.  Its control is a rule's target.
    On a non-bottom top the rule pushes known non-bottom symbols onto the
    rest of a valid stack, which still ends with the bottom symbol; on the
    bottom the rest is empty and the rule pushes ``⊥`` or ``A⊥``."""
    stack = c[1]
    rest = stack[1:]
    room = inf if h is None else h - len(rest)  # the longest word to push
    return {_config_of((q, pushed + rest))
            for q, pushed in pds._rules_from.get((c[0], stack[0]), ())
            if len(pushed) <= room}


def _predecessors(pds: PushdownSystem, c: Configuration, h=None):
    """Configurations with ``c`` among their one-step successors, no more
    than ``h`` high if ``h`` is given: the rules into its control whose
    pushed word of length k is the top k symbols of its stack, looked up in
    the system's ``_rules_into`` index.  A predecessor by such a rule is
    ``1 + len(stack) - k`` high, one symbol higher than ``c`` by a pop rule,
    so a word length that would climb past ``h`` is not looked up.

    ``pds`` must be checked and ``c`` valid in it, and nothing is checked
    here: then every predecessor is valid.  Its control is a rule's source.
    A rule on a non-bottom symbol pushes no ``⊥``, so its word is a proper
    prefix of the stack, and the symbol goes onto the rest of a valid
    stack.  A rule on the bottom pushes a word ending with ``⊥``, which only
    the whole stack matches, so the predecessor is ``(p, ⊥)``."""
    stack = c[1]
    # the shortest pushed word whose predecessor is at most h high
    shortest = 0 if h is None else len(stack) + 1 - h
    result = set()
    for k, by_word in pds._rules_into.get(c[0], {}).items():
        if k >= shortest:
            rest = stack[k:]
            result.update(_config_of((p, (a,) + rest))
                          for p, a in by_word.get(stack[:k], ()))
    return result


def successors(pds: PushdownSystem, c: Configuration):
    """Exact one-step successors of ``c``, a configuration checked here."""
    check_configuration(pds, c)
    return _successors(pds, c)


def predecessors(pds: PushdownSystem, c: Configuration):
    """Valid configurations with ``c``, a configuration checked here, among
    their one-step successors.  Each candidate is checked too, since the
    system may not be."""
    check_configuration(pds, c)
    return {pre for pre in _predecessors(pds, c)
            if is_valid_configuration(pds, pre)}
