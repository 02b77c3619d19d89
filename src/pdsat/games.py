"""Two-player pushdown games solved by alternating-automaton saturation.

Reachability games need a single least fixed point.  Parity games nest one
fixed point per colour, greatest for even colours and least for odd ones,
dispatched recursively; a Büchi game is the parity game with colour 0 on its
designated controls and colour 1 elsewhere.  Winning-region automata use one
state ``(p, i)`` per control ``p`` and fixed-point level ``i``, plus the
universal state ``S_STAR`` and the bottom-accepting state ``S_BOT``.

All solvers run on one kernel.  It keeps the region as a mutable dict
``(state, symbol) -> antichain of target sets`` for the whole solve and builds
the ``AltAutomaton`` once at the end.  The public ``pre_step``, ``project``
and ``subsume`` apply the kernel's operations to a whole automaton.

A parity round costs what its own level changed:

- Each level's entries are the keys ``((p, level), A)``, listed once per
  solve.  A round takes the level above's entries off by those keys, renames
  them down, compares them with this level's and replaces only the entries
  that differ; an entry that compares equal keeps its object.
- The top level, which is always odd, takes the game-predecessor moves as its
  next value directly.  Each colour's moves are kept until a level at or
  below that colour changes, since a run from level c reads levels <= c
  only.
- A memo lives for one solve, of the parity top level or of the
  reachability loop.  It keeps each run, ``(state, pushed) -> (run targets,
  entries read)``, and computes it again only when an entry it read no
  longer compares equal, so the rules whose inputs did not change are not
  run again (as in Cachat's saturation, ICALP 2002).  It keeps each move
  ``(p, A)`` with the runs of its rules, and combines them again only when
  one of those runs changed.

None of this changes an automaton; every solver returns what the round loop
written over whole automata returns.  The sequence of iterates is the same:
a run is a function of the entries it reads and a move of its rules' runs,
so a reused one equals the one it stands for.  Renaming the top level's
moves would be a no-op, because no target is at the level above the top,
and the moves are antichains already.  Below the top, every entry is an
antichain, so an entry none of whose targets was renamed is one as it
stands, and only the others are cut again.
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
        if not _is_colour(cond.max_colour):
            raise InvalidInputError(
                f"max_colour must be a non-negative integer: {cond.max_colour!r}")
        for q in game.pds.controls:
            c = cond.colours.get(q)
            if c is None:
                raise InvalidInputError(f"control has no colour: {q!r}")
            if not _is_colour(c):
                raise InvalidInputError(
                    f"colour must be a non-negative integer: {c!r} of control {q!r}")
            if c > cond.max_colour:
                raise InvalidInputError(
                    f"colour {c!r} of control {q!r} exceeds max_colour "
                    f"{cond.max_colour!r}")


def _is_colour(c) -> bool:
    """A non-negative ``int``; ``bool`` does not count as one."""
    return isinstance(c, int) and not isinstance(c, bool) and c >= 0


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


class _Memo:
    """The runs and moves of one solve, each with what it was computed
    from: ``runs`` maps ``(state, pushed)`` to the run's targets and the
    ``(key, value)`` of each entry it read, ``moves`` maps ``(p, A)`` to the
    runs of the rules and the move made of them."""

    __slots__ = ("runs", "moves")

    def __init__(self):
        self.runs, self.moves = {}, {}


def _moves(entries, states, owner, rules, entry_for, memo) -> dict:
    """Entries of one game-predecessor step, keyed ``(p, A)``.

    For every control p and top symbol A: an Éloïse control gets one target
    per rule and per minimal run of the rule's pushed word; an Abelard
    control gets the minimal unions of one run target per rule.
    ``entry_for(p, q)`` names the state standing for the successor control
    ``q`` when moving from ``p``; runs read ``entries`` and start only from
    ``states``.  From the ``_Memo``, a run is computed again only when an
    entry it read no longer compares equal, and a move only when a run of
    one of its rules does.
    """
    runs = {}  # (state, pushed) -> minimal run targets, shared by the rules
    moves = {}
    for (p, a), applicable in rules.items():
        per_rule = []
        for r in applicable:
            key = (entry_for(p, r.to_control), r.pushed)
            if key not in runs:
                runs[key] = (_run(entries, key, memo) if key[0] in states
                             else frozenset())
            per_rule.append(runs[key])
        last = memo.moves.get((p, a))
        if last is None or last[0] != per_rule:
            if owner[p] == ELOISE:
                sets = antichain(frozenset().union(*per_rule))
            else:
                sets = _minimal_unions(per_rule)  # empty if Abelard escapes
            memo.moves[(p, a)] = last = (per_rule, sets)
        if last[1]:
            moves[(p, a)] = last[1]
    return moves


def _run(entries, key, memo):
    """Minimal targets of the run ``key = (state, pushed)`` over
    ``entries``, reused from ``memo`` while each entry it read still
    compares equal: a run is a function of the entries it reads."""
    hit = memo.runs.get(key)
    if hit is not None and all(entries.get(k) is v or entries.get(k) == v
                               for k, v in hit[1]):
        return hit[0]
    reads = {}
    targets = _run_targets(entries, *key, reads)
    memo.runs[key] = (targets, tuple(reads.items()))
    return targets


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
    memo = _Memo()
    changed = True
    while changed:
        grown = defaultdict(set)
        for (p, a), sets in _moves(entries, target.states, game.owner, rules,
                                   lambda p, q: embed[q], memo).items():
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
    dropped = level(to_idx)
    entries = {}
    for (s, a), sets in _alt_entries(aut.transitions, minimal=False).items():
        if s in rename:
            entries[(rename[s], a)] = frozenset(
                frozenset(rename.get(t, t) for t in targets) for targets in sets)
        elif s not in dropped:
            entries[(s, a)] = sets
    return _automaton(aut.states - rename.keys(), aut.alphabet, aut.finals,
                      entries)


def pre_step(aut: AltAutomaton, game: PushdownGame, fresh_idx, colour_of) -> AltAutomaton:
    """Add states ``(p, fresh_idx)`` holding one game-predecessor step.

    A rule from ``p`` is evaluated at the successor state indexed by the
    colour of the source control, per the fixed-point formula: a
    configuration of colour c must step into the variable of colour c.
    """
    moves = _moves(_alt_entries(aut.transitions), aut.states, game.owner,
                   _rules_by_source(game.pds), lambda p, q: (q, colour_of[p]),
                   _Memo())
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


def _renamed(sets, rename):
    """An entry moved down a level: ``rename`` applied inside its target
    sets.  Every entry is an antichain, so it is cut again only when a
    target was renamed."""
    if sets is None or all(rename.keys().isdisjoint(targets)
                           for targets in sets):
        return sets
    return antichain(frozenset(rename.get(t, t) for t in targets)
                     for targets in sets)


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
    # each level's entry keys ((p, level), A), in the order of ``pairs``
    pairs = [(p, a) for p in system.controls for a in system.alphabet]
    keys = [[((p, level), a) for p, a in pairs]
            for level in range(max_colour + 1)]
    base = _initial_region_automaton(system)
    states, entries = set(base.states), _alt_entries(base.transitions)
    known = {}  # colour c -> moves of its controls, whose runs start at level c
    memo = _Memo()

    def forget(level):
        """Level-c entries only target states of levels <= c, so the moves
        of colour c stay valid until an entry of level <= c changes."""
        for c in [c for c in known if c >= level]:
            del known[c]

    def fix(level):
        """Level ``level``'s fixed point: even levels start from the largest
        value (greatest fixed point), odd levels from the empty one (least).
        Each round solves level + 1 and projects it back or, at the top,
        takes one game-predecessor step; only this level's entries change,
        and an entry that compares equal is kept as it is."""
        states.update((p, level) for p in system.controls)
        if level % 2 == 0:
            entries.update(_full_value(system, level, states))
        forget(level)
        rename = {(p, level + 1): (p, level) for p in system.controls}
        while True:
            if level == max_colour:
                # A run from level c reads levels <= c only, so no target
                # is at level + 1: the moves, antichains already, are this
                # level's next value as they stand.
                moves = {}
                for c, rules in by_colour.items():
                    if c not in known:
                        known[c] = _moves(entries, states, game.owner, rules,
                                          lambda p, q: (q, c), memo)
                    moves.update(known[c])
                values = [moves.get(pair) for pair in pairs]
            else:
                fix(level + 1)
                values = [_renamed(entries.pop(key, None), rename)
                          for key in keys[level + 1]]
                states.difference_update(rename)
            changed = False
            for key, new in zip(keys[level], values):
                old = entries.get(key)
                if old is not new and old != new:
                    changed = True
                    if new is None:
                        del entries[key]
                    else:
                        entries[key] = new
            if not changed:
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
