"""Two-player pushdown games solved by alternating-automaton saturation.

Reachability games need a single least fixed point.  Parity games nest one
fixed point per colour, greatest for even colours and least for odd ones,
dispatched recursively; a Büchi game is the parity game with colour 0 on its
designated controls and colour 1 elsewhere.  Winning-region automata use one
state ``(p, i)`` per control ``p`` and fixed-point level ``i``, plus the
universal state ``S_STAR`` and the bottom-accepting state ``S_BOT``.

All solvers run on one kernel.  It keeps the region as a mutable dict
``(state, symbol) -> antichain of target sets`` for the whole solve and builds
the ``AltAutomaton`` once at the end.  Each parity level rewrites, projects
and compares only its own entries.  The public ``pre_step``, ``project`` and
``subsume`` apply the kernel's operations to a whole automaton.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from .automata import (AltAutomaton, S_BOT, S_STAR, _alt_entries,
                       _minimal_unions, _run_targets, alt_membership,
                       antichain)
from .errors import InvalidInputError
from .pds import Configuration, PushdownSystem, check_valid

ELOISE = "E"
ABELARD = "A"


@dataclass(frozen=True, eq=False)
class ReachabilityCondition:
    target: AltAutomaton
    embed: dict  # control -> target-automaton state


@dataclass(frozen=True)
class BuchiCondition:
    finals: frozenset  # controls to visit infinitely often


@dataclass(frozen=True, eq=False)
class ParityCondition:
    colours: dict  # control -> colour in 0..max_colour
    max_colour: int


@dataclass(frozen=True, eq=False)
class PushdownGame:
    pds: PushdownSystem
    owner: dict  # control -> ELOISE | ABELARD
    condition: object


@dataclass(frozen=True, eq=False)
class RegionAutomaton:
    """Alternating automaton accepting the winning region, with an entry
    state per control."""

    aut: AltAutomaton
    entry: dict  # control -> automaton state


def check_game(game: PushdownGame):
    check_valid(game.pds)
    for q in game.pds.controls:
        if game.owner.get(q) not in (ELOISE, ABELARD):
            raise InvalidInputError(f"control has no owner: {q!r}")
    cond = game.condition
    if isinstance(cond, ParityCondition):
        for q in game.pds.controls:
            c = cond.colours.get(q)
            if c is None or not 0 <= c <= cond.max_colour:
                raise InvalidInputError(f"control has no colour: {q!r}")


def region_member(region: RegionAutomaton, c: Configuration) -> bool:
    entry = region.entry.get(c.control)
    if entry is None:
        raise InvalidInputError(f"control has no entry state: {c.control!r}")
    return alt_membership(region.aut, entry, c.stack)


def _automaton(states, alphabet, finals, entries) -> AltAutomaton:
    return AltAutomaton(frozenset(states), alphabet, finals,
                        frozenset((s, a, targets)
                                  for (s, a), sets in entries.items()
                                  for targets in sets))


def subsume(aut: AltAutomaton) -> AltAutomaton:
    """Drop every transition whose target set strictly contains another
    target for the same source and symbol; languages are unchanged."""
    return _automaton(aut.states, aut.alphabet, aut.finals,
                      _alt_entries(aut.transitions))


def _rules_by_source(system: PushdownSystem):
    index = defaultdict(list)
    for r in system.rules:
        index[(r.from_control, r.from_symbol)].append(r)
    return index


def _moves(entries, states, owner, rules, entry_for) -> dict:
    """Entries of one game-predecessor step, keyed ``(p, A)``.

    For every control p and top symbol A: an Éloïse control gets one target
    per rule and per minimal run of the rule's pushed word; an Abelard
    control gets the minimal unions of one run target per rule.
    ``entry_for(p, q)`` names the state standing for the successor control
    ``q`` when moving from ``p``; runs read ``entries`` and start only from
    ``states``.
    """
    runs = {}  # (state, pushed) -> minimal run targets, shared by the rules
    moves = {}
    for (p, a), applicable in rules.items():
        per_rule = []
        for r in applicable:
            key = (entry_for(p, r.to_control), r.pushed)
            if key not in runs:
                runs[key] = (_run_targets(entries, *key) if key[0] in states
                             else frozenset())
            per_rule.append(runs[key])
        if owner[p] == ELOISE:
            sets = antichain(frozenset().union(*per_rule))
        else:
            sets = _minimal_unions(per_rule)  # empty if Abelard escapes
        if sets:
            moves[(p, a)] = sets
    return moves


def _project_entries(entries, rename, dropped, reduce=frozenset) -> dict:
    """Delete the entries out of ``dropped`` and move those out of each
    state of ``rename`` onto its image, renaming inside their target sets
    too.  Returns the moved entries, each cut by ``reduce``."""
    moved = {}
    for key in [k for k in entries if k[0] in rename or k[0] in dropped]:
        sets = entries.pop(key)
        if key[0] in rename:
            moved[(rename[key[0]], key[1])] = reduce(
                targets if rename.keys().isdisjoint(targets)
                else frozenset(rename.get(t, t) for t in targets)
                for targets in sets)
    entries.update(moved)
    return moved


def solve_reachability_game(game: PushdownGame) -> RegionAutomaton:
    """Least fixed point of the game-predecessor rules over the target
    automaton: Éloïse needs one rule whose pushed word runs into the set,
    Abelard needs every rule to."""
    check_game(game)
    cond = game.condition
    if not isinstance(cond, ReachabilityCondition):
        raise InvalidInputError("solve_reachability_game needs a reachability condition")
    embed = dict(cond.embed)
    for q in game.pds.controls:
        if q not in embed:
            raise InvalidInputError(f"control not embedded in target: {q!r}")
    embedded = set(embed.values())
    for s, a, targets in cond.target.transitions:
        if targets & embedded:
            raise InvalidInputError(
                "target automaton has transitions into embedded controls")
    if embedded & cond.target.finals:
        raise InvalidInputError("embedded control state is final")
    if cond.target.alphabet != game.pds.alphabet:
        raise InvalidInputError("target alphabet differs from the game alphabet")

    target, rules = cond.target, _rules_by_source(game.pds)
    entries = _alt_entries(target.transitions)
    changed = True
    while changed:
        grown = defaultdict(set)
        for (p, a), sets in _moves(entries, target.states, game.owner, rules,
                                   lambda p, q: embed[q]).items():
            grown[(embed[p], a)] |= sets
        changed = False
        for key, sets in grown.items():
            sets = antichain(sets | entries.get(key, frozenset()))
            if sets != entries.get(key):
                entries[key] = sets
                changed = True
    return RegionAutomaton(
        _automaton(target.states, target.alphabet, target.finals, entries), embed)


# ---------------------------------------------------------------------------
# Büchi and parity games


def _initial_region_automaton(system: PushdownSystem) -> AltAutomaton:
    bot = system.bottom
    transitions = {(S_STAR, a, frozenset({S_STAR}))
                   for a in system.alphabet if a != bot}
    transitions.add((S_STAR, bot, frozenset({S_BOT})))
    return AltAutomaton(frozenset({S_STAR, S_BOT}), system.alphabet,
                        frozenset({S_BOT}), frozenset(transitions))


def project(aut: AltAutomaton, from_idx, to_idx) -> AltAutomaton:
    """Transfer the value of the states ``(p, from_idx)`` onto
    ``(p, to_idx)`` and delete the former.

    Old transitions out of ``(p, to_idx)`` are dropped; transitions out of
    ``(p, from_idx)`` are re-sourced at ``(p, to_idx)`` with ``from_idx``
    renamed to ``to_idx`` inside their target sets.  Target occurrences of
    ``(p, to_idx)`` are deliberately left alone: runs reaching them pick up
    the new value, which only accelerates the fixed point.
    """
    if from_idx == to_idx:
        raise InvalidInputError("projection indices must differ")

    def level(idx):
        return {s for s in aut.states
                if isinstance(s, tuple) and len(s) == 2 and s[1] == idx}

    rename = {s: (s[0], to_idx) for s in level(from_idx)}
    if not rename:
        raise InvalidInputError(f"no states at level {from_idx!r}")
    entries = _alt_entries(aut.transitions, minimal=False)
    _project_entries(entries, rename, level(to_idx))
    return _automaton(aut.states - rename.keys(), aut.alphabet, aut.finals,
                      entries)


def pre_step(aut: AltAutomaton, game: PushdownGame, fresh_idx, colour_of) -> AltAutomaton:
    """Add states ``(p, fresh_idx)`` holding one game-predecessor step.

    A rule from ``p`` is evaluated at the successor state indexed by the
    colour of the source control, per the fixed-point formula: a
    configuration of colour c must step into the variable of colour c.
    """
    moves = _moves(_alt_entries(aut.transitions), aut.states, game.owner,
                   _rules_by_source(game.pds), lambda p, q: (q, colour_of[p]))
    transitions = set(aut.transitions)
    transitions.update(((p, fresh_idx), a, targets)
                       for (p, a), sets in moves.items() for targets in sets)
    states = aut.states | {(p, fresh_idx) for p in game.pds.controls}
    return AltAutomaton(states, aut.alphabet, aut.finals,
                        frozenset(transitions))


def _full_value(system: PushdownSystem, level, states) -> dict:
    """Entries giving a fresh even level the largest value: in subsumed
    form, one singleton target per non-bottom state, plus the bottom entry
    into S_BOT."""
    top = frozenset(frozenset({s}) for s in states if s is not S_BOT)
    bottom = frozenset({frozenset({S_BOT})})
    return {((p, level), a): bottom if a == system.bottom else top
            for p in system.controls for a in system.alphabet}


def solve_parity_game(game: PushdownGame) -> RegionAutomaton:
    """Winning region of a parity game (Éloïse wins when the least colour
    seen infinitely often is even), via one nested fixed point per colour."""
    check_game(game)
    cond = game.condition
    if not isinstance(cond, ParityCondition):
        raise InvalidInputError("solve_parity_game needs a parity condition")
    max_colour = cond.max_colour
    if max_colour % 2 == 0:
        max_colour += 1  # pad with an unused odd colour
    system, colour_of = game.pds, dict(cond.colours)
    by_colour = defaultdict(dict)  # colour -> rules of the controls of it
    for (p, a), applicable in _rules_by_source(system).items():
        by_colour[colour_of[p]][(p, a)] = applicable
    base = _initial_region_automaton(system)
    states, entries = set(base.states), _alt_entries(base.transitions)
    known = {}  # colour c -> moves of its controls, whose runs start at level c

    def forget(level):
        """Level-c entries only target states of levels <= c, so the moves
        of colour c stay valid until an entry of level <= c changes."""
        for c in [c for c in known if c >= level]:
            del known[c]

    def fix(level):
        """Level ``level``'s fixed point: even levels start from the largest
        value (greatest fixed point), odd levels from the empty one (least).
        Each round solves level + 1 (or, at the top, takes one pre_step into
        it) and projects it back; only this level's entries change."""
        fresh = {(p, level) for p in system.controls}
        states.update(fresh)
        if level % 2 == 0:
            entries.update(_full_value(system, level, states))
        forget(level)
        rename = {(p, level + 1): (p, level) for p in system.controls}
        while True:
            if level == max_colour:
                for c, rules in by_colour.items():
                    if c not in known:
                        known[c] = _moves(entries, states, game.owner, rules,
                                          lambda p, q: (q, c))
                    entries.update({((p, level + 1), a): sets
                                    for (p, a), sets in known[c].items()})
            else:
                fix(level + 1)
            before = {k: v for k, v in entries.items() if k[0] in fresh}
            after = _project_entries(entries, rename, fresh, antichain)
            states.difference_update(rename)
            if after == before:
                return
            forget(level)

    fix(0)
    return RegionAutomaton(
        _automaton(states, system.alphabet, base.finals, entries),
        {p: (p, 0) for p in system.controls})


def solve_buchi_game(game: PushdownGame) -> RegionAutomaton:
    """Winning region of a Büchi game: the parity game with colour 0 on the
    designated controls and colour 1 elsewhere, that is, a greatest fixed
    point over the Büchi controls wrapping a least fixed point over the
    others."""
    check_game(game)
    cond = game.condition
    if not isinstance(cond, BuchiCondition):
        raise InvalidInputError("solve_buchi_game needs a Büchi condition")
    unknown = cond.finals - game.pds.controls
    if unknown:
        raise InvalidInputError(f"unknown Büchi controls: {unknown!r}")
    colours = {p: 0 if p in cond.finals else 1 for p in game.pds.controls}
    return solve_parity_game(
        PushdownGame(game.pds, game.owner, ParityCondition(colours, 1)))


def dual_game(game: PushdownGame) -> PushdownGame:
    """Owners swapped and every colour shifted up by one, so that Éloïse's
    winning region of the dual is Abelard's region of the original."""
    cond = game.condition
    if not isinstance(cond, ParityCondition):
        raise InvalidInputError("dual_game is defined for parity conditions")
    owner = {q: ELOISE if o == ABELARD else ABELARD for q, o in game.owner.items()}
    colours = {q: c + 1 for q, c in cond.colours.items()}
    max_colour = cond.max_colour + 1
    if max_colour % 2 == 0:
        max_colour += 1
    return PushdownGame(game.pds, owner, ParityCondition(colours, max_colour))
