"""Rational characterisation of the derivation relation of a bottom-free
pushdown system.

Each stack symbol A gets a push action A+ and a pop action A-.  The system is
turned into a finite automaton over action symbols, epsilon-saturated so that
push-then-pop factors can be skipped, restricted to reduced sequences (no
A+A- factor) and productive ones (no A+B- factor with A != B), and finally
decomposed into a finite union of (pop-prefix language, push-prefix language)
pairs.  Together the two restrictions forbid exactly a push followed at once
by a pop, so they leave the words in pops* pushes*: :func:`deriv_relation`
makes them in one product of the saturated automaton with the two-state
:func:`_phase_pattern`, and splits that product from the out-index it is
built in, with no ``Nfa`` of it.  :func:`benois_reduce` makes the first
restriction alone, as an ``Nfa``.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from functools import cached_property

from .automata import (EPS, Language, Nfa, Sentinel, _mask, _numbering,
                       _product_out, _reach, _reachable_product)
from .errors import InvalidInputError
from .pds import PushdownSystem, check_valid

PUSH = "+"
POP = "-"

# Head of the behaviour automaton's intermediate states ``(_BEH, i, k)``,
# which no control can equal.  It prints as the string ``'beh'`` it replaced,
# so the states keep their reprs, which the CLI sorts by.
_BEH = Sentinel("'beh'")


def push(symbol):
    return (PUSH, symbol)


def pop(symbol):
    return (POP, symbol)


@dataclass(frozen=True)
class ActionAlphabet:
    """Push/pop action symbols for a bottom-free stack alphabet."""

    base: frozenset

    @property
    def symbols(self) -> frozenset:
        return frozenset(push(a) for a in self.base) \
            | frozenset(pop(a) for a in self.base)


def action_alphabet(system: PushdownSystem) -> ActionAlphabet:
    return ActionAlphabet(frozenset(system.alphabet) - {system.bottom})


def apply_actions(stack, actions):
    """The unique stack obtained by running ``actions`` on ``stack``, or
    ``None`` when some pop does not match the top symbol."""
    stack = list(stack)
    for kind, symbol in actions:
        if kind == PUSH:
            stack.insert(0, symbol)
        elif kind == POP:
            if not stack or stack[0] != symbol:
                return None
            stack.pop(0)
        else:
            raise InvalidInputError(f"not an action symbol: {(kind, symbol)!r}")
    return tuple(stack)


def _check_bottom_free(system: PushdownSystem):
    check_valid(system)
    bot = system.bottom
    for r in system.rules:
        if r.from_symbol == bot or bot in r.pushed:
            raise InvalidInputError(
                f"rule touches the bottom symbol: {r!r}; the derivation "
                "relation is defined on bottom-free systems")


def behaviour_automaton(system: PushdownSystem, q0, qf):
    """Automaton of all action sequences (productive or not) the system can
    perform from control ``q0`` to control ``qf``.  Returns a
    :class:`Language` whose start state is ``q0``.

    A rule contributes its stack effect read left to right: pop the consumed
    symbol, then push the replacement word in reverse.  Multi-action rules are
    split into single letters through fresh intermediate states.
    """
    _check_bottom_free(system)
    if q0 not in system.controls or qf not in system.controls:
        unknown = [q for q in dict.fromkeys((q0, qf))
                   if q not in system.controls]
        raise InvalidInputError(
            f"unknown control: {', '.join(map(repr, unknown))}")
    alpha = action_alphabet(system)
    states = set(system.controls)
    transitions = set()
    # Rules pushing "B C" and "BC" have equal reprs; the reprs of the pushed
    # symbols order them, so the states are numbered alike in every process.
    ordered = sorted(system.rules,
                     key=lambda r: (repr(r), tuple(map(repr, r.pushed))))
    for i, (p, a, q, pushed) in enumerate(ordered):
        word = [pop(a)]
        word += [push(b) for b in reversed(pushed)]
        prev = p
        for k, action in enumerate(word[:-1]):
            mid = (_BEH, i, k)
            states.add(mid)
            transitions.add((prev, action, mid))
            prev = mid
        transitions.add((prev, word[-1], q))
    aut = Nfa(frozenset(states), alpha.symbols, frozenset({qf}),
              frozenset(transitions))
    return Language(aut, q0)


def _check_action_alphabet(aut: Nfa) -> ActionAlphabet:
    base = set()
    for a in aut.alphabet:
        if not (isinstance(a, tuple) and len(a) == 2 and a[0] in (PUSH, POP)):
            raise InvalidInputError(f"not an action symbol: {a!r}")
        base.add(a[1])
    return ActionAlphabet(frozenset(base))


def _benois_saturate(lang: Language):
    """The automaton of ``lang`` with epsilon edges saturated in, and its
    action alphabet.

    An edge is added from p to t whenever p -A+-> m -eps*-> u -A--> t, by an
    indexed worklist over the pairs (m, u) with m a push target and u
    epsilon-reachable from m; each new edge p -> t extends every pair ending
    in p.
    """
    alpha = _check_action_alphabet(lang.aut)
    aut = lang.aut
    pushes_into = defaultdict(list)  # m -> [(p, A)] for p -A+-> m
    pops = defaultdict(list)  # (u, A) -> [t] for u -A--> t
    eps = defaultdict(set)
    for s, a, t in aut.transitions:
        if a is EPS:
            eps[s].add(t)
        elif a[0] == PUSH:
            pushes_into[t].append((s, a[1]))
        else:
            pops[(s, a[1])].append(t)
    reached = defaultdict(set)  # u -> push targets m with m -eps*-> u
    todo = deque()

    def add_reach(m, u):
        if m not in reached[u]:
            reached[u].add(m)
            todo.append((m, u))

    for m in pushes_into:
        add_reach(m, m)
    while todo:
        m, u = todo.popleft()
        for p, base_symbol in pushes_into[m]:
            for t in pops.get((u, base_symbol), ()):
                if t not in eps[p]:
                    eps[p].add(t)
                    for m2 in list(reached[p]):
                        add_reach(m2, t)
        for v in list(eps[u]):
            add_reach(m, v)
    saturated = Nfa(aut.states, aut.alphabet, aut.finals, aut.transitions
                    | {(p, EPS, t) for p, ts in eps.items() for t in ts})
    return saturated, alpha


def _reduced_pattern(alpha: ActionAlphabet):
    """The pattern of the reduced words, those with no A+A- factor: its
    states are ``("pat", None)`` and ``("pat", A+)``, and all accept.  Any
    push A+ leads to ``("pat", A+)`` and any pop to ``("pat", None)``,
    except that ``("pat", A+)`` reads no A-.  Returns ``(nfa, start)``."""
    start = ("pat", None)
    states = frozenset({start} | {("pat", push(a)) for a in alpha.base})
    transitions = {(s, push(a), ("pat", push(a)))
                   for s in states for a in alpha.base}
    transitions |= {(s, pop(a), start) for s in states for a in alpha.base
                    if s[1] != push(a)}
    return Nfa(states, alpha.symbols, states, frozenset(transitions)), start


def _phase_pattern(alpha: ActionAlphabet):
    """The pattern of the reduced productive words, those in pops* pushes*:
    its states are the phase, ``POP`` then ``PUSH``, and both accept.
    ``POP`` reads the pops and any push leads to ``PUSH``, which reads only
    the pushes.  Returns ``(nfa, start)``, as :func:`_reduced_pattern` does."""
    transitions = {(POP, pop(a), POP) for a in alpha.base}
    transitions |= {(phase, push(a), PUSH)
                    for a in alpha.base for phase in (POP, PUSH)}
    phases = frozenset({POP, PUSH})
    return Nfa(phases, alpha.symbols, phases, frozenset(transitions)), POP


def benois_reduce(lang: Language) -> Language:
    """Language of the reduced forms of the words of ``lang``.

    Epsilon edges are saturated in (see ``_benois_saturate``), and the
    result is intersected with the words containing no A+A- factor, building
    only the product states reachable from ``(lang.start, pattern start)``.
    Its states ``(s, r)`` name s by its ε-component in the saturated
    automaton: one product state per component and pattern state (see
    ``automata._product_out``).
    :func:`deriv_relation` does not call it: its one product, with
    :func:`_phase_pattern`, makes this cut and the productive one.
    """
    saturated, alpha = _benois_saturate(lang)
    return _reachable_product(saturated, lang.start, *_reduced_pattern(alpha))


def _split_out(out, start, finals):
    """Trim and split the automaton whose out-index ``out`` maps each state
    to its ``(action, target)`` pairs.  Every state must be reachable from
    ``start``, and ``finals`` must be states.  Returns the trimmed states,
    the pop step ``(s, A) -> [t]``, the reversed push step ``(t, A) -> [s]``
    and the boundary states in the order of ``repr``.

    A boundary state is reachable from the start by pops only and reaches a
    final state by pushes only.  The precondition is that no trimmed pop
    follows a trimmed push: :func:`deriv_relation`'s product holds it by
    construction, since its ``PUSH`` phase reads no pop.  Then every
    trimmed path from the start to a pop transition is all pops, and every
    one from a push transition to a final state all pushes.  So the
    boundary is the start and the pop targets, met with the finals and the
    push sources, with no search."""
    into = defaultdict(list)
    for s, edges in out.items():
        for a, t in edges:
            into[t].append((a, s))
    keep = _reach(into, finals)
    pops, pushes = defaultdict(list), defaultdict(list)
    for s in keep:
        for (kind, symbol), t in out[s]:
            if t in keep:
                if kind == POP:
                    pops[(s, symbol)].append(t)
                else:
                    pushes[(t, symbol)].append(s)
    # none when nothing is kept: then there are no finals and no pushes
    boundary = (({start} | {t for ts in pops.values() for t in ts})
                & (finals | {s for ss in pushes.values() for s in ss}))
    return keep, dict(pops), dict(pushes), sorted(boundary, key=repr)


@dataclass(frozen=True, eq=False)
class PrefixRewriteRelation:
    """The derivation relation in shared form: the pairs (U_q, V_q) of
    prefix-rewrite languages, one per boundary state q, kept as one pop
    automaton and one push automaton that every pair cuts with its own final
    state.  A pair pops a stack prefix in U_q and pushes a replacement in
    V_q, keeping the untouched suffix.  Its states but ``V_START`` are
    those of :func:`deriv_relation`'s product, ``(s, phase)``, with s the
    member of least ``repr`` of its ε-component in the saturated behaviour
    automaton: the members of one component accept one language, so they
    make one state, and one pair when it is a boundary state.

    The pop side reads a popped prefix A1 ... An, top first, from ``u_start``;
    U_q accepts what it reads into q.  The push side is reversed: it reads a
    pushed prefix, top first, from ``V_START``; V_q accepts what it reads into
    q, and the empty word when q is in ``finals``.  Both sides are step
    indexes (state, A) -> [distinct targets] over the base alphabet.  No
    pair is kept apart from them: ``pdsat deriv`` cuts each pair it prints
    from the two sides.

    :func:`deriv_member` reads the two sides through ``_mask_index``, which
    the first query builds and which lives on the relation: no other
    relation, however equal, shares it.  A query reads each word in one
    flat loop per side, and a frontier it has read before costs one dict
    lookup per symbol.
    """

    V_START = ("rev", "start")

    alphabet: frozenset  # the base alphabet
    u_step: dict  # pop side
    u_start: object
    v_step: dict  # reversed push side, from V_START
    finals: frozenset
    boundary: tuple  # in the order of ``repr``

    @cached_property
    def _mask_index(self):
        """``(u start, v start, finals, u moves, v moves)`` over one dense
        numbering of the states of both sides, each set of states an
        ``int`` mask.  ``moves`` maps a symbol to a dict from a frontier
        mask to the mask of its successors on that symbol.  The dict starts
        with one entry per state with a move on the symbol, keyed by the
        state's bit, and :func:`_union` adds the union for each wider
        frontier a query reads: at most one entry per distinct (frontier,
        symbol) pair that the relation's queries have read."""
        states = {self.u_start, self.V_START} | self.finals
        for step in (self.u_step, self.v_step):
            for (s, _), ts in step.items():
                states.add(s)
                states.update(ts)
        bit = _numbering(states)[1]

        def moves(step):
            by_symbol = defaultdict(dict)
            for (s, a), ts in step.items():
                by_symbol[a][1 << bit[s]] = _mask(ts, bit)
            return dict(by_symbol)

        return (1 << bit[self.u_start], 1 << bit[self.V_START],
                _mask(self.finals, bit), moves(self.u_step),
                moves(self.v_step))


def deriv_relation(system: PushdownSystem, q0, qf) -> PrefixRewriteRelation:
    """The relation {(u, v) | (q0, u) =>* (qf, v)} over bottom-free stacks.

    The behaviour automaton is epsilon-saturated and cut, in one product
    with :func:`_phase_pattern`, to its reduced productive words, those in
    pops* pushes*.  Its states are ``(s, phase)``.  :func:`_split_out`
    splits the product from the out-index it is built in, with no ``Nfa``
    of it, into its pop side and its reversed push side, once for all
    pairs.  No pair is built: see :class:`PrefixRewriteRelation`.  The s
    of a state names its ε-component in the saturated automaton, as in
    :func:`benois_reduce`, so the relation has one boundary state per
    component and phase, not one per member.
    """
    behaviour = behaviour_automaton(system, q0, qf)
    saturated, alpha = _benois_saturate(behaviour)
    start, finals, out = _product_out(saturated, behaviour.start,
                                      *_phase_pattern(alpha))
    # The pop side reads A1- ... An- for the popped prefix A1 ... An, and
    # the push side An+ ... A1+ reversed; its fresh start takes, without
    # epsilon, the reversed last step into a final state, each source once.
    _, u_step, v_step, boundary = _split_out(out, start, finals)
    starts = defaultdict(dict)  # symbol -> its sources, as dict keys
    for (t, a), sources in v_step.items():
        if t in finals:
            starts[a].update(dict.fromkeys(sources))
    v_start = PrefixRewriteRelation.V_START
    v_step.update(((v_start, a), list(ss)) for a, ss in starts.items())
    return PrefixRewriteRelation(alpha.base, u_step, start, v_step,
                                 frozenset(finals), tuple(boundary))


def _union(table, front) -> int:
    """The successors of the frontier mask ``front`` in ``table``, one
    symbol's dict of a side's ``moves`` (see
    :attr:`PrefixRewriteRelation._mask_index`): the OR of the entries of its
    bits, kept in ``table`` under ``front``."""
    succ, rest = 0, front
    while rest:
        low = rest & -rest
        succ |= table.get(low, 0)
        rest ^= low
    table[front] = succ
    return succ


def deriv_member(rel: PrefixRewriteRelation, w1, w2) -> bool:
    """True iff ``w1 = u·w`` and ``w2 = v·w`` for some pair ``(U, V)`` of the
    relation with ``u ∈ U``, ``v ∈ V`` and a common suffix ``w``.

    One loop reads ``w1`` on the pop side, and at most one reads ``w2`` on
    the push side, up to the longest split still open.  Split k pops
    ``w1[:k]`` and pushes ``w2[:j]``, with ``j = len(w2) - len(w1) + k``; it
    holds iff the pop frontier after k symbols meets the push frontier
    after j, or, for j = 0, meets ``rel.finals``.  A state in both
    frontiers is a boundary state.  A symbol outside the base alphabet can
    only sit in the suffix ``w``: every split that would pop or push one
    fails, and no symbol raises an error.

    Each frontier is an ``int`` mask over the numbering of the relation's
    ``_mask_index``, built by the first query, and a meet is a nonzero AND.
    A step looks the frontier up in the symbol's dict of successor masks;
    only a frontier read for the first time calls :func:`_union`, which ORs
    the successor masks of its states and keeps the result there.  Both
    loops stop at the first symbol with no move or empty frontier.
    """
    w1, w2 = tuple(w1), tuple(w2)
    shared = 0  # length of the longest common suffix
    for a, b in zip(reversed(w1), reversed(w2)):
        if a != b:
            break
        shared += 1
    n, offset = len(w1), len(w2) - len(w1)
    first = n - shared  # the shortest split whose rest of w1 is shared
    u_start, v_start, finals, u_moves, v_moves = rel._mask_index
    wanted = {}  # j > 0 -> the pop frontier of split j - offset
    front, k = u_start, 0
    while True:
        if k >= first:
            if k + offset:
                wanted[k + offset] = front
            elif front & finals:
                return True
        if k == n:
            break
        table = u_moves.get(w1[k])
        if table is None:
            break
        succ = table.get(front)
        front = _union(table, front) if succ is None else succ
        if not front:
            break
        k += 1
    if not wanted:
        return False
    front = v_start
    for j, a in enumerate(w2[:max(wanted)], 1):
        table = v_moves.get(a)
        if table is None:
            return False
        succ = table.get(front)
        front = _union(table, front) if succ is None else succ
        if front & wanted.get(j, 0):
            return True
        if not front:
            return False
    return False
