"""Two-player pushdown games solved by alternating-automaton saturation.

Reachability games need a single least fixed point.  Parity games nest one
fixed point per colour, greatest for even colours and least for odd ones,
dispatched recursively (Cachat, ICALP 2002; Hague and Ong, CONCUR 2009); a
Büchi game is the parity game with colour 0 on its designated controls and
colour 1 elsewhere.  Winning-region automata use one state ``(p, i)`` per
control ``p`` and fixed-point level ``i``, plus the universal state
``S_STAR`` and the bottom-accepting state ``S_BOT``.

Before it nests anything, a parity solve compresses the colours its
controls use to ranks (priority compression, Friedmann and Lange, ATVA
2009): sorted, the least gets 0 or 1 by its parity, and each next one the
rank before it if the two have one parity and the next rank if not; the
top rank is padded to odd.  The nest then has one level per rank, however
large ``max_colour`` or the colours are.  The region is the same set: the
level of a colour no control uses is a fixed point whose variable nothing
reads, which is its body, and two nested fixed points of one kind are one,
μX.μY.f(X, Y) = μX.f(X, X) and the same for ν (Arnold and Niwiński,
"Rudiments of μ-calculus", 2001).  The region keeps only level 0, so its
automaton names no level that compression removed.

A configuration with no move is lost for Éloïse, whoever owns it: a
reachability game has it in the region only if the target accepts it, and
a Büchi or parity game never has it there.  (``oracle.bracket_region``
refuses Büchi and parity games that have one.)

All solvers run on one kernel.  It keeps the region as a mutable dict
``(state, symbol) -> antichain of target sets`` for the whole solve and builds
the ``AltAutomaton`` once at the end; it only reads the system's own rule
index, ``PushdownSystem._rules_from``.  The round loop it stands for, one
game-predecessor step, projection and subsumption over whole automata per
round, is written out in the tests as a frozenset reference, its start
value (``S_STAR`` reading the bottom symbol into ``S_BOT`` and any other
into itself) included, that shares no code with the kernel.

Inside the kernel a state is a bit and a target set an ``int`` mask:

- Each solve numbers its states once, and the numbering dies with it.  For
  parity and Büchi, ``S_STAR`` is bit 0, ``S_BOT`` bit 1 and ``(p, level)``
  bit ``2 + level * n + index of p`` for ``n`` controls, so moving level
  L + 1 down onto L is ``(m & ~hi) | ((m & hi) >> n)`` with ``hi`` the
  mask of level L + 1, and an entry none of whose targets is renamed is
  one whose masks all miss ``hi``.  A reachability game numbers the
  target's states and the embedded states.  A solver's ``AltAutomaton``
  is built by ``automata._alt_from_masks``, which decodes the masks into
  its transitions once and keeps the kernel's numbering and masks as the
  index its queries read (``alt_membership``, ``alt_run_targets``).
- A subset test is ``r & s == r``.  Antichains and minimal unions are the
  mask functions of ``automata`` (``_antichain``, ``_fold``).  A fold of
  Abelard's choices keeps a partial union x alone as soon as some choice
  y lies within it (absorption): x | y = x lies within every x | y'.

The reachability solver's fixed point and the parity solver's top level
are least fixed points, each made by a worklist (``_Saturation``), as the
saturations of Caucal (1988) and Cachat (ICALP 2002) are: a rule is looked
at again only when an entry that its run reads is written.

- The worklist queues every move ``(p, A)`` once.  ``readers`` maps each
  entry to the runs that read it, from the keys ``_run_targets`` records,
  and ``users`` maps each run to the moves made from it.  When a move
  changes its entry, the moves of the runs that read it are queued again
  unless they are queued already, first in, first out.  A move adds its
  targets to its entry, which starts from the target's transitions in a
  reachability game and from nothing at the top level.
- One memo per solve alone decides what is computed again.  It keeps each
  run, ``(state, pushed) -> (run targets, entries read)``, and computes it
  again only when an entry it read no longer compares equal, and each
  move ``(p, A)`` with the runs of its rules, combined again only when one
  of them changed.  A parity solve's levels share it: a run of colour c
  starts at a level-c bit, and a move belongs to its control's colour.

Below the top, a parity round costs what its own level changed:

- Each level's entries are the keys ``((p, level), A)``, listed once per
  solve.  A round takes the level above's entries off by those keys, renames
  them down, compares them with this level's and replaces only the entries
  that differ; an entry that compares equal keeps its object.
- Each colour below the top keeps its moves until a level at or below that
  colour changes, since a run from level c reads levels <= c only.  So
  those moves are fixed while the top level is solved, and only the top
  colour's moves, which read the top level, go through the worklist.

None of this changes an automaton; every solver returns what the round loop
written over whole automata returns.  Each fixed point below the top is
reached by the same sequence of iterates: a run is a function of the
entries it reads and a move of its rules' runs, so a reused one equals the
one it stands for.  The top level's iterates, and the reachability loop's,
differ from the round loop's, but not their fixed point.  With the levels
below held fixed, each is the least fixed point of a monotone operator on
maps of antichains, and any fair chaotic iteration from the same start
reaches it (Cousot and Cousot, "Asynchronous iterative methods", 1977): the
worklist updates one entry at a time and queues every move whose inputs
changed, so it stops only where no move adds anything.  An antichain has
one form, so every level below sees the same values, and the solvers
return the same automata.  Renaming the top level's moves would be a
no-op, because no target is at the level above the top, and the moves are
antichains already.  Below the top, every entry is an antichain, so an
entry none of whose targets was renamed is one as it stands, and only the
others are cut again.  Masks and absorption change only how each value is
computed: a set of target sets has one antichain form whatever the order
it is built in, so each entry, decoded, is the one the round loop computes.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass

from .automata import (AltAutomaton, S_BOT, S_STAR, _alt_from_masks,
                       _antichain, _fold, _mask_entries, _numbering,
                       _run_targets, alt_membership)
from .errors import InvalidInputError
from .pds import Configuration, PushdownSystem, check_valid
from .reachability import _embedding_errors

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
    # A fault of several controls names their least, or all, by repr.
    check_valid(game.pds)
    controls = game.pds.controls
    unowned = [q for q in controls if game.owner.get(q) not in (ELOISE, ABELARD)]
    if unowned:
        raise InvalidInputError(f"control has no owner: {min(unowned, key=repr)!r}")
    cond = game.condition
    if isinstance(cond, ParityCondition):
        top, colours = cond.max_colour, cond.colours
        if not _is_colour(top):
            raise InvalidInputError(
                f"max_colour must be a non-negative integer: {top!r}")
        bad = [q for q in controls
               if not _is_colour(colours.get(q)) or colours[q] > top]
        for q in sorted(bad, key=repr):  # the least one raises
            c = colours.get(q)
            if c is None:
                raise InvalidInputError(f"control has no colour: {q!r}")
            if not _is_colour(c):
                raise InvalidInputError(
                    f"colour must be a non-negative integer: {c!r} of control {q!r}")
            raise InvalidInputError(
                f"colour {c!r} of control {q!r} exceeds max_colour {top!r}")
    elif isinstance(cond, ReachabilityCondition):
        missing = [q for q in controls if q not in cond.embed]
        if missing:
            raise InvalidInputError("control not embedded in target: "
                                    f"{min(missing, key=repr)!r}")
        target = cond.target
        errors = _embedding_errors(cond.embed, target.finals,
                                   target.transitions)
        if target.alphabet != game.pds.alphabet:
            errors.append("target alphabet differs from the game alphabet")
        if errors:
            raise InvalidInputError("; ".join(errors))
    elif isinstance(cond, BuchiCondition):
        unknown = cond.finals - controls
        if unknown:
            raise InvalidInputError(
                f"unknown Büchi controls: {sorted(unknown, key=repr)!r}")


def _is_colour(c) -> bool:
    """A non-negative ``int``; ``bool`` does not count as one."""
    return isinstance(c, int) and not isinstance(c, bool) and c >= 0


def region_member(region: RegionAutomaton, c: Configuration) -> bool:
    entry = region.entry.get(c.control)
    if entry is None:
        raise InvalidInputError(f"control has no entry state: {c.control!r}")
    return alt_membership(region.aut, entry, c.stack)


class _Memo:
    """The runs and moves of one solve, each with what it was computed
    from: ``runs`` maps ``(state, pushed)`` to the run's targets, the keys
    of the entries it read and their values, ``moves`` maps ``(p, A)`` to
    the runs of the rules and the move made of them."""

    __slots__ = ("runs", "moves")

    def __init__(self):
        self.runs, self.moves = {}, {}


def _moves(entries, owner, rules, entry, memo) -> dict:
    """Entries of one game-predecessor step, keyed ``(p, A)``: each move of
    ``rules`` made by ``_move``, the empty ones left out."""
    moves = {}
    for move, applicable in rules.items():
        sets = _move(entries, move, applicable, owner, entry, memo)
        if sets:
            moves[move] = sets
    return moves


def _move(entries, move, applicable, owner, entry, memo, readers=None):
    """The move ``(p, A)`` of the rules ``applicable``.

    Each rule's run starts at ``entry[q]``, the bit of the state standing
    for its successor control ``q``, and reads the mask ``entries``
    through ``_run``.  An Éloïse control gets one target per rule and per
    minimal run of the rule's pushed word; an Abelard control gets the
    minimal unions of one run target per rule.  The move is reused from
    ``memo`` while every run is the one it was made of.
    """
    per_rule = [_run(entries, (entry[q], pushed), memo, readers)
                for q, pushed in applicable]
    last = memo.moves.get(move)
    if last is None or last[0] != per_rule:
        if owner[move[0]] == ELOISE:
            sets = _antichain(m for masks in per_rule for m in masks)
        else:
            sets = _fold(per_rule)  # empty if Abelard escapes
        memo.moves[move] = last = (per_rule, sets)
    return last[1]


class _Saturation:
    """The least fixed point of one solve's moves ``rules``, made by a
    worklist: the move ``(p, A)`` adds its targets to the entry
    ``(entry[p], A)``, and its runs start at ``entry[q]`` for each rule's
    control q.

    A call queues every move once, and a move is queued again only when an
    entry that one of its runs read was written, unless it is queued
    already.  ``readers`` maps an entry to every run that has read it in
    this solve, ``users`` a run to the moves made from it; both live for
    the solve, as the solve's ``_Memo`` does.  Every run goes through
    ``_run``, so the memo alone decides what is computed again: a run
    whose entries all compare equal is reused.  The queue is first in,
    first out: last in, first out gives the same entries, but it was more
    than five times slower on the games ladder's ``reach-32-s2``.
    """

    __slots__ = ("owner", "rules", "entry", "users", "readers", "memo")

    def __init__(self, owner, rules, entry, memo):
        self.owner, self.rules, self.entry = owner, rules, entry
        self.users = defaultdict(list)  # run -> the moves made from it
        for move, applicable in rules.items():
            for q, pushed in applicable:
                self.users[(entry[q], pushed)].append(move)
        self.readers = defaultdict(set)  # entry -> the runs that read it
        self.memo = memo

    def saturate(self, entries):
        """Write the fixed point into ``entries``."""
        owner, rules, entry = self.owner, self.rules, self.entry
        users, readers, memo = self.users, self.readers, self.memo
        queue, queued = deque(rules), set(rules)
        while queue:
            move = queue.popleft()
            queued.remove(move)
            sets = _move(entries, move, rules[move], owner, entry, memo,
                         readers)
            if not sets:
                continue
            key = (entry[move[0]], move[1])
            old = entries.get(key)
            if old:
                if sets <= old:  # no target is new
                    continue
                sets = _antichain(sets | old)
                if sets == old:
                    continue
            entries[key] = sets
            for run in readers.get(key, ()):
                for user in users[run]:
                    if user not in queued:
                        queued.add(user)
                        queue.append(user)


def _run(entries, key, memo, readers=None):
    """Minimal targets of the run ``key = (state, pushed)`` over
    ``entries``, reused from ``memo`` while each entry it read still
    compares equal: a run is a function of the entries it reads.  A run
    computed again is added to ``readers[k]`` for each entry ``k`` it
    read, if ``readers`` is given."""
    hit = memo.runs.get(key)
    # tuples compare item by item, each by identity first
    if hit is not None and tuple(map(entries.get, hit[1])) == hit[2]:
        return hit[0]
    reads = {}
    targets = _run_targets(entries, *key, reads)
    memo.runs[key] = (targets, tuple(reads), tuple(reads.values()))
    if readers is not None:
        for read in reads:
            readers[read].add(key)
    return targets


def solve_reachability_game(game: PushdownGame) -> RegionAutomaton:
    """Least fixed point of the game-predecessor rules over the target
    automaton: Éloïse needs one rule whose pushed word runs into the set,
    Abelard needs every rule to."""
    check_game(game)
    cond = game.condition
    if not isinstance(cond, ReachabilityCondition):
        raise InvalidInputError("solve_reachability_game needs a reachability condition")
    # The target's states and the embedded states that are not among them,
    # which are states of the region too, are bits 0.. in some order.
    embed, target = dict(cond.embed), cond.target
    names, bit = _numbering(target.states | set(embed.values()))
    entries = _mask_entries(target.transitions, bit)
    entry = {q: bit[s] for q, s in embed.items()}
    # check_game holds the embedding injective: one entry per move
    _Saturation(game.owner, game.pds._rules_from, entry,
                _Memo()).saturate(entries)
    return RegionAutomaton(_alt_from_masks(
        names, bit, target.alphabet, target.finals, entries), embed)


# ---------------------------------------------------------------------------
# Büchi and parity games


def _lowered(sets, hi, n):
    """An entry moved down a level: the bits of ``hi``, the level above's,
    shifted ``n`` down onto this level's inside its target masks.  Every
    entry is an antichain, so it is cut again only when a target was
    renamed."""
    if sets is None or all(m & hi == 0 for m in sets):
        return sets
    lo = ~hi
    return _antichain((m & lo) | ((m & hi) >> n) for m in sets)


def _ranks(colours):
    """The rank of each colour in ``colours``, and the top level.

    The least colour gets rank 0 if it is even and 1 if it is odd; each
    larger one gets the rank before it if the two have one parity, and the
    next rank if not.  So a rank has its colours' parity, no rank is
    skipped, and ranks differ only where the parity does.  The top level is
    the largest rank padded to odd (1 without colours).
    """
    rank, r = {}, 0
    for c in sorted(set(colours)):
        if (c - r) % 2:
            r += 1
        rank[c] = r
    return rank, r | 1


def solve_parity_game(game: PushdownGame) -> RegionAutomaton:
    """Winning region of a parity game (Éloïse wins when the least colour
    seen infinitely often is even), via one nested fixed point per rank.

    The colours the controls use are compressed to ranks first
    (``_ranks``), so ``max_colour`` only bounds the colours: an unused
    colour costs no level, and neighbouring colours of one parity share
    one.  This is exact: a fixed point whose variable nothing reads is its
    body, and two nested fixed points of one kind are one, μX.μY.f(X, Y) =
    μX.f(X, X) and the same for ν, so level 0, the region, keeps its value.
    """
    check_game(game)
    cond = game.condition
    if not isinstance(cond, ParityCondition):
        raise InvalidInputError("solve_parity_game needs a parity condition")
    system = game.pds
    rank, top = _ranks(cond.colours[p] for p in system.controls)
    # from here on a control's colour is its rank
    by_colour = defaultdict(dict)  # colour -> rules of the controls of it
    for (p, a), applicable in system._rules_from.items():
        by_colour[rank[cond.colours[p]]][(p, a)] = applicable
    # The bit layout: S_STAR is bit 0, S_BOT bit 1, (p, level) bit
    # 2 + level * n + index of p.
    controls, n = list(system.controls), len(system.controls)
    index = {p: i for i, p in enumerate(controls)}

    def bit(p, level):
        return 2 + level * n + index[p]

    # each level's entry keys (bit of (p, level), A), in the order of ``pairs``
    pairs = [(p, a) for p in controls for a in system.alphabet]
    keys = [[(bit(p, level), a) for p, a in pairs]
            for level in range(top + 1)]
    bottom = frozenset((1 << 1,))  # the bottom entry into S_BOT
    # the start value: S_STAR's entries, a loop on bit 0 but at the bottom
    entries = {(0, a): bottom if a == system.bottom else frozenset((1,))
               for a in system.alphabet}
    known = {}  # colour c -> moves of its controls, whose runs start at level c
    memo = _Memo()
    # the top colour's moves, whose runs read the top level
    at_top = {q: bit(q, top) for q in controls}
    top_moves = (_Saturation(game.owner, by_colour[top], at_top, memo)
                 if top in by_colour else None)

    def forget(level):
        """Level-c entries only target states of levels <= c, so the moves
        of colour c stay valid until an entry of level <= c changes."""
        for c in [c for c in known if c >= level]:
            del known[c]

    def fix(level):
        """Level ``level``'s fixed point: even levels start from the largest
        value (greatest fixed point), odd levels from the empty one (least).
        Below the top, each round solves level + 1 and projects it back;
        only this level's entries change, and an entry that compares equal
        is kept as it is.  The top level is saturated by the worklist."""
        if level % 2 == 0:
            # in antichain form, one singleton target per state of a level
            # <= this one but S_BOT, and the bottom entry into S_BOT
            full = frozenset(1 << b for b in range(2 + (level + 1) * n)
                             if b != 1)
            entries.update((key, bottom if key[1] == system.bottom else full)
                           for key in keys[level])
        if level == top:
            # The top level is odd and empty here.  A run from level c
            # reads levels <= c only, so the moves of a colour below the
            # top are its fixed value, and only the top colour's moves
            # read this level's entries.
            for c, rules in by_colour.items():
                if c == top:
                    continue
                if c not in known:
                    known[c] = _moves(entries, game.owner, rules,
                                      {q: bit(q, c) for q in controls}, memo)
                entries.update(((bit(p, top), a), sets)
                               for (p, a), sets in known[c].items())
            if top_moves is not None:
                top_moves.saturate(entries)
            return
        forget(level)
        hi = ((1 << n) - 1) << (2 + (level + 1) * n)  # level + 1's bits
        while True:
            fix(level + 1)
            values = [_lowered(entries.pop(key, None), hi, n)
                      for key in keys[level + 1]]
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
    # only level 0's entries and S_STAR's are left, and they target nothing
    # above level 0, so the region names bits 0 to 2 + n - 1 alone
    names = [S_STAR, S_BOT] + [(p, 0) for p in controls]
    return RegionAutomaton(
        _alt_from_masks(*_numbering(names), system.alphabet,
                        frozenset({S_BOT}), entries),
        {p: (p, 0) for p in controls})


def solve_buchi_game(game: PushdownGame) -> RegionAutomaton:
    """Winning region of a Büchi game: the parity game with colour 0 on the
    designated controls and colour 1 elsewhere, that is, a greatest fixed
    point over the Büchi controls wrapping a least fixed point over the
    others."""
    check_game(game)
    cond = game.condition
    if not isinstance(cond, BuchiCondition):
        raise InvalidInputError("solve_buchi_game needs a Büchi condition")
    colours = {p: 0 if p in cond.finals else 1 for p in game.pds.controls}
    return solve_parity_game(
        PushdownGame(game.pds, game.owner, ParityCondition(colours, 1)))


def dual_game(game: PushdownGame) -> PushdownGame:
    """Owners swapped and every colour shifted up by one, so that Éloïse's
    winning region of the dual is Abelard's region of the original.

    The shift adds a level that no control's colour names; the solver's
    colour compression removes it, so the dual's nest is at most one rank
    deeper than the game's."""
    cond = game.condition
    if not isinstance(cond, ParityCondition):
        raise InvalidInputError("dual_game is defined for parity conditions")
    owner = {q: ELOISE if o == ABELARD else ABELARD for q, o in game.owner.items()}
    colours = {q: c + 1 for q, c in cond.colours.items()}
    return PushdownGame(game.pds, owner,
                        ParityCondition(colours, cond.max_colour + 1))
