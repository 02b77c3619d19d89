"""Nondeterministic and alternating finite automata on bounded alphabets.

States and symbols are arbitrary hashable values (strings, tuples, ...).
Automata do not store initial states; every query names its start state
explicitly.  All values are immutable after construction and all operations
are pure; the lookup indexes a query builds are kept on the automaton itself.
So are the subset steps of the membership queries: ``nfa_accepts`` and
``alt_membership`` compute each step from a set of states at most once per
automaton, keeping at most one entry per distinct (set, symbol) pair their
queries have read, freed with the automaton.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property

from .errors import InvalidInputError

# Epsilon label for Nfa transitions.  Never a valid alphabet symbol.
EPS = None


class Sentinel:
    """A named unique value, used for special automaton states.  A name has
    one instance, in ``_SENTINELS``: a second is refused, and copies and
    unpickled ones are that instance, so their states still compare equal."""

    __slots__ = ("name",)

    def __init__(self, name):
        if name in _SENTINELS:
            raise ValueError(f"a Sentinel named {name!r} exists already")
        self.name = name
        _SENTINELS[name] = self

    def __repr__(self):
        return self.name

    def __reduce__(self):
        return _sentinel, (self.name,)


_SENTINELS = {}  # every Sentinel (S_BOT, S_STAR, oracle.SINK, ...) by name


def _sentinel(name) -> Sentinel:
    return _SENTINELS[name]


#: Sole accepting state of region automata; reached by reading the bottom symbol.
S_BOT = Sentinel("s_bot")
#: Universal state of region automata; accepts every stack.
S_STAR = Sentinel("s_star")


@dataclass(frozen=True)
class Nfa:
    """Nondeterministic finite automaton with optional epsilon transitions."""

    states: frozenset
    alphabet: frozenset
    finals: frozenset
    transitions: frozenset  # of (state, label, state), label a symbol or EPS

    def __post_init__(self):
        if EPS in self.alphabet:
            raise InvalidInputError(
                f"{EPS!r} is EPS, the epsilon label, not an alphabet symbol")
        if not self.finals <= self.states:
            raise InvalidInputError("finals must be a subset of states")
        for s, a, t in self.transitions:
            if s not in self.states or t not in self.states:
                raise InvalidInputError(f"transition endpoint not a state: {(s, a, t)!r}")
            if a is not EPS and a not in self.alphabet:
                raise InvalidInputError(f"transition label not in alphabet: {a!r}")

    def has_eps(self) -> bool:
        return self._has_eps

    # The lookup indexes are cached in the instance ``__dict__``: each lives
    # exactly as long as its automaton, equal but distinct automata never
    # share one, and equality and hashing only look at the declared fields.
    # A saturation's result gets its step index there when it is built.

    @cached_property
    def _has_eps(self) -> bool:
        return any(a is EPS for _, a, _ in self.transitions)

    @cached_property
    def _step_index(self):
        """dict (state, label) -> a sequence of the distinct targets (a
        tuple here; a saturation hands over its own lists, see
        ``_saturated``)."""
        index = {}
        for s, a, t in self.transitions:
            index.setdefault((s, a), []).append(t)
        return {k: tuple(v) for k, v in index.items()}

    @cached_property
    def _subset_steps(self):
        """dict ``(states, symbol) -> states``, both tuples: the steps
        ``nfa_accepts`` has computed from a set of states, each closed under
        ε moves; it grows with the queries."""
        return {}

    @cached_property
    def _eps_components(self):
        """``(rep, closure)`` from one iterative Tarjan pass over the ε
        moves.  ``rep`` maps each state of an ε-component with two or more
        members to the member of least ``repr``, which names it; the states
        of one component reach each other by ε moves, so they accept one
        language.  ``closure`` maps each state to its ε-closure.

        Components are completed sinks first, so the closure of one is its
        members united with the closures its ε moves enter, all complete by
        then; its members share that frozenset."""
        succ = defaultdict(list)
        for s, a, t in self.transitions:
            if a is EPS:
                succ[s].append(t)
        index, low = {}, {}  # discovery number, least number reached
        stack, on_stack = [], set()  # states of unfinished components
        work = []  # the search path: (state, its unread ε moves)
        rep, closure = {}, {}

        def visit(v):
            index[v] = low[v] = len(index)
            stack.append(v)
            on_stack.add(v)
            work.append((v, iter(succ.get(v, ()))))

        for root in self.states:
            if root in index:
                continue
            visit(root)
            while work:
                v, edges = work[-1]
                for w in edges:
                    if w not in index:
                        visit(w)
                        break
                    if w in on_stack and index[w] < low[v]:
                        low[v] = index[w]
                else:
                    work.pop()
                    if work and low[v] < low[work[-1][0]]:
                        low[work[-1][0]] = low[v]
                    if low[v] < index[v]:
                        continue  # v's component has a member found earlier
                    members = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        members.append(w)
                        if w == v:
                            break
                    entered = {}  # the closures its ε moves enter, by id
                    for u in members:
                        for t in succ.get(u, ()):
                            if t in closure:  # not a member, so complete
                                entered[id(closure[t])] = closure[t]
                    shared = frozenset(members).union(*entered.values())
                    for u in members:
                        closure[u] = shared
                    if len(members) > 1:
                        name = min(members, key=repr)
                        for u in members:
                            rep[u] = name
        return rep, closure


def _reach(index, sources, within=None):
    """States reachable from ``sources`` through ``index``, a dict from a
    state to ``(label, state)`` pairs, never leaving ``within`` when it is
    given: the library's one plain search, each caller with its own index."""
    seen = set(sources)
    todo = list(seen)
    while todo:
        for _, v in index.get(todo.pop(), ()):
            if v not in seen and (within is None or v in within):
                seen.add(v)
                todo.append(v)
    return seen


def _saturated(states, alphabet, finals, transitions, step_index) -> Nfa:
    """The ε-free ``Nfa`` a saturation built from checked parts, carrying
    the step index it built on the way, so that no query builds it again.

    Skips ``__post_init__``, so the caller vouches for its checks: every
    endpoint must be one of ``states`` and every label one of ``alphabet``
    (a saturation's labels are its checked system's symbols, so that
    system's alphabet must lie within ``alphabet``).  ``step_index`` must
    map each ``(state, symbol)`` of ``transitions`` to a sequence of its
    distinct targets, and nothing else, and a read of a key it lacks must
    add none (a ``defaultdict`` needs its default factory cleared).
    """
    aut = object.__new__(Nfa)
    aut.__dict__.update(states=states, alphabet=alphabet, finals=finals,
                        transitions=transitions, _step_index=step_index,
                        _has_eps=False)
    return aut


def _alt_from_masks(names, bit, alphabet, finals, entries) -> AltAutomaton:
    """The ``AltAutomaton`` over the states ``names``, numbered by ``bit``,
    whose transitions are the mask ``entries``: each key ``(bit, symbol)``
    and each target mask decoded through ``names``, each distinct mask
    once.  The result keeps ``(names, bit, entries)`` as its
    ``_mask_index``, so its queries build no index: each entry must be an
    antichain, and none of the three may change after."""
    members = {}
    for masks in entries.values():
        for m in masks:
            if m not in members:
                members[m] = _members(m, names)
    aut = AltAutomaton(frozenset(names), alphabet, finals, frozenset(
        (names[b], a, members[m])
        for (b, a), masks in entries.items() for m in masks))
    aut.__dict__["_mask_index"] = (names, bit, entries)
    return aut


def nfa(states=(), alphabet=(), finals=(), transitions=()) -> Nfa:
    """Convenience constructor; endpoints of transitions are added to states."""
    transitions = frozenset(transitions)
    states = frozenset(states) | frozenset(finals) \
        | {s for s, _, _ in transitions} | {t for _, _, t in transitions}
    return Nfa(states, frozenset(alphabet), frozenset(finals), transitions)


def nfa_accepts(aut: Nfa, start, word) -> bool:
    """True iff some run over ``word`` from ``start`` ends in a final state.

    A step from one state of an ε-free automaton reads the step index; any
    other step, from two or more states or closed under ε moves, is looked
    up in ``_subset_steps`` and computed only when it is not there yet.
    """
    if start not in aut.states:
        raise InvalidInputError(f"unknown state: {start!r}")
    if not aut.alphabet.issuperset(word):
        raise _unknown_symbol(aut.alphabet, word)
    index, memo = aut._step_index, aut._subset_steps
    if aut._has_eps:
        closure = aut._eps_components[1]
        current = tuple(closure[start])
    else:
        closure = None
        current = (start,)
    for a in word:
        if closure is None and len(current) == 1:
            [s] = current
            current = index.get((s, a), ())
        else:
            key = (tuple(current), a)  # the index may hold lists
            nxt = memo.get(key)
            if nxt is None:
                nxt = memo[key] = _subset_step(index, closure, current, a)
            current = nxt
        if not current:
            return False
    return not aut.finals.isdisjoint(current)


def _subset_step(index, closure, states, a) -> tuple:
    """The states that reading ``a`` leads to from ``states`` through the
    step ``index``, closed under ``closure`` unless it is None."""
    nxt = set()
    for s in states:
        nxt.update(index.get((s, a), ()))
    if closure is not None and nxt:
        nxt = set().union(*map(closure.__getitem__, nxt))
    return tuple(nxt)


def _unknown_symbol(alphabet, word) -> InvalidInputError:
    """The error for the first symbol of ``word`` outside ``alphabet``."""
    a = next(a for a in word if a not in alphabet)
    return InvalidInputError(f"unknown symbol: {a!r}")


def eps_closure(aut: Nfa) -> Nfa:
    """Equivalent epsilon-free automaton (same language from every state)."""
    closure = aut._eps_components[1]
    index = aut._step_index
    transitions = set()
    finals = set()
    for s in aut.states:
        if closure[s] & aut.finals:
            finals.add(s)
        for u in closure[s]:
            for a in aut.alphabet:
                for t in index.get((u, a), ()):
                    transitions.add((s, a, t))
    return Nfa(aut.states, aut.alphabet, frozenset(finals), frozenset(transitions))


def _reachable_product(aut: Nfa, start, pattern, pattern_start) -> Language:
    """The product :func:`_product_out` builds, as a :class:`Language`: the
    intersection of the languages of ``aut`` from ``start`` and of
    ``pattern`` from ``pattern_start``."""
    origin, finals, out = _product_out(aut, start, pattern, pattern_start)
    return Language(Nfa(frozenset(out), aut.alphabet, frozenset(finals),
                        frozenset((s, a, t) for s, edges in out.items()
                                  for a, t in edges)), origin)


def _product_out(aut: Nfa, start, pattern, pattern_start):
    """Product of ``aut`` with ``pattern``, built forwards from ``(start,
    pattern_start)`` so that only reachable states exist.  Returns its
    start, its finals and its out-index ``state -> {(symbol, target)}``,
    whose keys are its states, each a pair ``(state of aut, state of
    pattern)``.  The state of ``aut`` names its ε-component (see
    ``Nfa._eps_components``): the members of one accept one language, so
    they make one product state, named by the member of least ``repr``.

    The pattern must be deterministic and epsilon-free, and every one of
    its states accepting, as ``derivation._reduced_pattern`` and
    ``derivation._phase_pattern`` build them: so a product state is final
    when its state of ``aut`` reaches a final state by epsilon moves.
    Epsilon moves of ``aut`` are closed in as the product steps."""
    if start not in aut.states:
        raise InvalidInputError(f"unknown state: {start!r}")
    rows = defaultdict(dict)  # pattern state -> {symbol: next state}
    for t, a, t2 in pattern.transitions:
        rows[t][a] = t2
    rep, closure = aut._eps_components
    steps = defaultdict(list)
    for s, a, t in aut.transitions:
        if a is not EPS:
            steps[s].append((a, rep.get(t, t)))
    origin = (rep.get(start, start), pattern_start)
    out = {origin: set()}
    todo = [origin]
    finals = set()
    while todo:
        name = todo.pop()
        s, t = name
        row = rows[t]
        edges = out[name]
        if not closure[s].isdisjoint(aut.finals):
            finals.add(name)
        for u in closure[s]:
            for a, u2 in steps.get(u, ()):
                t2 = row.get(a)
                if t2 is None:
                    continue
                target = (u2, t2)
                edges.add((a, target))
                if target not in out:
                    out[target] = set()
                    todo.append(target)
    return origin, finals, out


@dataclass(frozen=True, eq=False)
class Language:
    """A regular language as an automaton plus its designated start state."""

    aut: Nfa
    start: object

    def accepts(self, word) -> bool:
        return nfa_accepts(self.aut, self.start, tuple(word))


# ---------------------------------------------------------------------------
# Alternating automata


@dataclass(frozen=True)
class AltAutomaton:
    """Alternating automaton: transitions lead into sets of states, all of
    which must accept the remaining word.
    """

    states: frozenset
    alphabet: frozenset
    finals: frozenset
    transitions: frozenset  # of (state, symbol, frozenset of states)

    def __post_init__(self):
        if not self.finals <= self.states:
            raise InvalidInputError("finals must be a subset of states")
        for s, a, targets in self.transitions:
            if s not in self.states:
                raise InvalidInputError(f"transition source not a state: {s!r}")
            if a not in self.alphabet:
                raise InvalidInputError(f"transition label not in alphabet: {a!r}")
            if not targets or not targets <= self.states:
                raise InvalidInputError(
                    f"target set must be a non-empty subset of states: {targets!r}")

    @cached_property
    def _mask_index(self):
        """``(names, bit, entries)``: the states numbered densely, and
        ``entries`` mapping each ``(bit of state, symbol)`` with a
        transition to the antichain of its target masks, as ``_run_targets``
        reads it.  An automaton built by ``_alt_from_masks`` is handed its
        numbering and entries, so that no query builds them again."""
        names, bit = _numbering(self.states)
        return names, bit, _mask_entries(self.transitions, bit)

    @cached_property
    def _mask_by_symbol(self):
        """``(finals mask, dict symbol -> [(state, target mask)], steps)``:
        the entries of ``_mask_index`` grouped by symbol, one pair per
        target mask, each state given as its mask ``1 << bit``, as
        ``alt_membership`` reads them; and the dict ``steps`` of the steps
        it has computed, ``(good, symbol) -> accepting``, which grows with
        the queries."""
        _, bit, entries = self._mask_index
        index = defaultdict(list)
        for (b, a), masks in entries.items():
            index[a].extend((1 << b, m) for m in masks)
        return _mask(self.finals, bit), dict(index), {}


def alt(states=(), alphabet=(), finals=(), transitions=()) -> AltAutomaton:
    """Convenience constructor; canonicalises target sets to frozensets."""
    transitions = frozenset((s, a, frozenset(ts)) for s, a, ts in transitions)
    states = frozenset(states) | frozenset(finals) \
        | {s for s, _, _ in transitions} \
        | {t for _, _, ts in transitions for t in ts}
    return AltAutomaton(states, frozenset(alphabet), frozenset(finals), transitions)


def alt_membership(aut: AltAutomaton, start, word) -> bool:
    """True iff there is an accepting run over ``word`` from ``start``.

    Evaluated backwards over the masks of ``_mask_index``: the set of
    states accepting the suffix read so far starts as the finals, and a
    state accepts one more symbol iff one of its target masks on that
    symbol lies within the set.  Every target set is non-empty, so once
    the set is empty no state accepts a longer suffix.  Each step, from a
    set and a symbol to the next set, is computed once per automaton and
    kept with the index.
    """
    bit = aut._mask_index[1].get(start)
    if bit is None:
        raise InvalidInputError(f"unknown state: {start!r}")
    if not aut.alphabet.issuperset(word):
        raise _unknown_symbol(aut.alphabet, word)
    good, by_symbol, memo = aut._mask_by_symbol
    for a in reversed(word):
        key = (good, a)
        accepting = memo.get(key)
        if accepting is None:
            accepting = 0
            for state, m in by_symbol.get(a, ()):
                if m & good == m:
                    accepting |= state
            memo[key] = accepting
        if not accepting:
            return False
        good = accepting
    return good >> bit & 1 == 1


# The mask kernel.  A caller numbers its states densely and writes each set
# of states as an ``int`` whose bit ``i`` stands for state ``names[i]``, so a
# subset test is ``r & s == r`` and a union is ``r | s``.


def _numbering(states):
    """``(names, bit)``: the states in some order and each one's bit."""
    names = list(states)
    return names, {s: i for i, s in enumerate(names)}


def _mask(states, bit) -> int:
    m = 0
    for s in states:
        m |= 1 << bit[s]
    return m


def _members(mask, names) -> frozenset:
    out = []
    while mask:
        low = mask & -mask
        out.append(names[low.bit_length() - 1])
        mask ^= low
    return frozenset(out)


def _mask_entries(transitions, bit) -> dict:
    """dict ``(bit of state, symbol) -> antichain of target masks`` of the
    alternating ``transitions``."""
    grouped = defaultdict(list)
    for s, a, targets in transitions:
        grouped[(bit[s], a)].append(_mask(targets, bit))
    return {key: _antichain(masks) for key, masks in grouped.items()}


def _antichain(masks) -> frozenset:
    """The subset-minimal masks of an iterable of masks.

    Candidates are taken smallest first, so a kept mask is never dominated
    later.  The kept masks are bucketed by their lowest bit: a kept subset
    of a candidate has its lowest bit among the candidate's bits, so only
    those buckets are searched.  The empty mask ``0`` has no lowest bit,
    and dominates everything, so it is settled first.
    """
    masks = set(masks)
    if len(masks) < 2:
        return frozenset(masks)
    if 0 in masks:
        return frozenset((0,))
    buckets = {}  # lowest bit -> the kept masks with that lowest bit
    lows = 0  # the bits that have a bucket
    for m in sorted(masks, key=int.bit_count):
        rest = m & lows
        while rest:
            low = rest & -rest
            for r in buckets[low]:
                if r & m == r:
                    break
            else:
                rest ^= low
                continue
            break  # a kept mask lies within m
        if not rest:
            low = m & -m
            if low & lows:
                buckets[low].append(m)
            else:
                buckets[low] = [m]
                lows |= low
    return frozenset(m for bucket in buckets.values() for m in bucket)


def _fold(options) -> frozenset:
    """The minimal unions of one mask from each of ``options``, each an
    antichain of masks; empty if some option is empty.

    Folded one option at a time, fewest choices first, with an antichain
    after each step, instead of taking the whole product: the minimal unions
    of a product are unions of minimal elements, so the result is the same.
    A choice y within a partial union x absorbs it: x | y = x lies within
    every other x | y', so x is kept alone.
    """
    options = sorted(options, key=len)
    if not options:
        return frozenset((0,))
    acc = options[0]
    for choices in options[1:]:
        if not acc:
            break
        unions = []
        for x in acc:
            grown = [x | y for y in choices]
            if x in grown:
                unions.append(x)
            else:
                unions += grown
        acc = _antichain(unions)
    return frozenset(acc)


def _run_targets(index, start, word, reads=None) -> frozenset:
    """``alt_run_targets`` over masks: ``index`` maps ``(bit of state,
    symbol)`` to an antichain of target masks, and ``start`` is a bit.  With
    a dict ``reads``, each entry the run looks up is recorded in it as
    ``key -> value`` (None when absent): the targets are a function of those
    values alone."""
    frontier = (1 << start,)
    for a in word:
        runs = []
        for mask in frontier:
            options = []
            while mask:
                low = mask & -mask
                mask ^= low
                key = (low.bit_length() - 1, a)
                sets = index.get(key)
                if reads is not None:
                    reads[key] = sets
                options.append(sets or ())
            runs.append(options[0] if len(options) == 1 else _fold(options))
        frontier = runs[0] if len(runs) == 1 else _antichain(
            m for masks in runs for m in masks)
        if not frontier:
            break
    return frozenset(frontier)


def alt_run_targets(aut: AltAutomaton, start, word) -> frozenset:
    """All subset-minimal state sets S with a run ``start -word-> S``."""
    if start not in aut.states:
        raise InvalidInputError(f"unknown state: {start!r}")
    names, bit, entries = aut._mask_index
    return frozenset(_members(m, names)
                     for m in _run_targets(entries, bit[start], word))
