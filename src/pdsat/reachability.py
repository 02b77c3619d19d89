"""Saturation-based reachability: pre* and post*, each by direct saturation
of a P-automaton; the pop relation as a least fixed point; and the classical
guess-the-intermediate-states construction for single-target pre*.  pre* and
post* are independent algorithms that check each other (``c'`` is in
post*({c}) iff ``c`` is in pre*({c'})), and the pop-guessing construction is
a second route to single-target pre*.
"""

from __future__ import annotations

import warnings
from collections import defaultdict, deque
from dataclasses import dataclass
from operator import itemgetter

from .automata import (EPS, Nfa, S_BOT, Sentinel, _reach, _saturated,
                       eps_closure, nfa_accepts)
from .errors import InvalidInputError
from .pds import Configuration, PushdownSystem, check_valid


@dataclass(frozen=True, eq=False)
class PAutomatonView:
    """An automaton accepting configuration sets: ``(p, w)`` is accepted when
    ``w`` is accepted from the state embedding the control ``p``.
    """

    aut: Nfa
    control_embed: dict  # control -> automaton state

    def accepts(self, c: Configuration) -> bool:
        state = self.control_embed.get(c.control)
        if state is None:
            raise InvalidInputError(f"control not embedded: {c.control!r}")
        return nfa_accepts(self.aut, state, c.stack)


def _embedding_errors(embed, finals, transitions) -> list:
    """Violations of the P-automaton shape by the embedding ``embed`` of
    controls into an automaton with these ``finals`` and ``transitions``,
    each ``(source, label, target set)``.  No two controls may share an
    embedded state: a saturation adds transitions out of a control's state,
    so every other control in that state would read them too.  Embedded
    states must have no incoming transitions and must not be final.  The
    last two kinds are listed sorted by ``repr``, whatever the hash seed."""
    first, errors = {}, []  # embedded state -> its first control
    for p, s in embed.items():
        q = first.setdefault(s, p)
        if q != p:
            errors.append(f"controls {q!r} and {p!r} share the embedded "
                          f"state {s!r}")
    embedded, into = first.keys(), []
    for s, a, targets in transitions:
        if not embedded.isdisjoint(targets):
            into.extend((s, a, t) for t in targets if t in embedded)
    for t in sorted(into, key=repr):
        errors.append(f"transition into embedded control state: {t!r}")
    for s in sorted(embedded & finals, key=repr):
        errors.append(f"embedded control state is final: {s!r}")
    return errors


def view_errors(view: PAutomatonView):
    """Violations of the P-automaton shape (``_embedding_errors``), and
    embedded states missing from the automaton, sorted by ``repr``."""
    aut, embed = view.aut, view.control_embed
    errors = _embedding_errors(embed, aut.finals,
                               ((s, a, (t,)) for s, a, t in aut.transitions))
    for s in sorted(set(embed.values()) - aut.states, key=repr):
        errors.append(f"embedded state missing from automaton: {s!r}")
    return errors


# Head of the clones ``(_CLONE, s)`` that ``_repaired`` adds, which no
# caller's state can equal.  It prints as the string ``'clone'`` it
# replaced, so the clones keep their reprs, which the CLI sorts by.
_CLONE = Sentinel("'clone'")


def _repaired(view: PAutomatonView) -> PAutomatonView:
    """``view`` with each embedded control state that has incoming transitions
    or is final cloned, the offending role moved to the copy.  The warning
    names the line that called prestar or poststar, four frames up."""
    embedded = set(view.control_embed.values())
    offending = {t for _, _, t in view.aut.transitions if t in embedded}
    offending |= embedded & view.aut.finals
    if not offending:
        return view
    warnings.warn("P-automaton has transitions into control states; "
                  "cloning the offending states", stacklevel=4)
    clone = {s: (_CLONE, s) for s in offending}
    transitions = set()
    for s, a, t in view.aut.transitions:
        src = clone.get(s, s)  # clones inherit outgoing transitions
        transitions.add((src, a, clone.get(t, t)))
        if s in clone:
            transitions.add((s, a, clone.get(t, t)))
    finals = {clone.get(s, s) for s in view.aut.finals}
    states = view.aut.states | set(clone.values())
    aut = Nfa(frozenset(states), view.aut.alphabet, frozenset(finals),
              frozenset(transitions))
    return PAutomatonView(aut, dict(view.control_embed))


def _saturation_input(system: PushdownSystem, view: PAutomatonView):
    """The ε-free automaton and embedding a saturation starts from, after
    checking the system and the view and repairing the view's shape."""
    check_valid(system)
    missing = [q for q in system.controls if q not in view.control_embed]
    if missing:
        raise InvalidInputError(
            f"controls not embedded: {sorted(missing, key=repr)!r}")
    view = _repaired(view)
    errors = view_errors(view)
    if errors:
        raise InvalidInputError("; ".join(errors))
    aut = eps_closure(view.aut) if view.aut.has_eps() else view.aut
    return aut, view.control_embed


def _result(system: PushdownSystem, aut: Nfa, states, transitions,
            by_source) -> Nfa:
    """The saturation of ``aut`` with these states and transitions, handed
    the worklist's own step index ``by_source``, a ``defaultdict`` whose
    default factory is cleared first, so that a read never adds a key.  If
    a rule of ``system`` added a label outside ``aut``'s alphabet, the least
    such label by ``repr`` raises."""
    by_source.default_factory = None
    if not system.alphabet <= aut.alphabet:
        outside = {a for _, a in by_source} - aut.alphabet
        if outside:
            raise InvalidInputError("transition label not in alphabet: "
                                    f"{min(outside, key=repr)!r}")
    return _saturated(states, aut.alphabet, aut.finals, transitions,
                      by_source)


def prestar(system: PushdownSystem, view: PAutomatonView, trace=None) -> PAutomatonView:
    """Saturate ``view`` so that it accepts exactly pre*(L(view)).

    One rule, applied to a fixed point: add ``p -A-> s`` whenever
    ``(p,A)->(q,w)`` is a rule and the current automaton can read ``w`` from
    the embedding of ``q`` to ``s``.  Only transitions out of embedded
    controls are ever added; the state set never grows.  Newly added
    transitions are processed FIFO and only the rules that can consume a new
    transition are re-examined.

    ``trace``, if given, is a list receiving every added transition as
    ``(control, symbol, target_state)``.
    """
    aut, embed = _saturation_input(system, view)

    # Rule indexes keyed by the automaton transition that can fire them.
    swap_idx = defaultdict(list)  # (state(q), B)  -> [(state(p), A)]
    push_idx = defaultdict(list)  # (state(q), B)  -> [(state(p), A, C)]
    initial = set(aut.transitions)
    rel = set()
    by_source = defaultdict(list)  # (state, symbol) -> targets, the step index
    worklist = deque(initial)
    for p, a, q, pushed in system.rules:
        ps, qs = embed[p], embed[q]
        if not pushed:
            worklist.append((ps, a, qs))
        elif len(pushed) == 1:
            swap_idx[(qs, pushed[0])].append((ps, a))
        else:
            push_idx[(qs, pushed[0])].append((ps, a, pushed[1]))

    state_control = {s: p for p, s in embed.items()}
    pending = defaultdict(set)  # (state, symbol) -> {(source state, A)} waiting
    while worklist:
        t = worklist.popleft()
        if t in rel:
            continue
        rel.add(t)
        s, a, s2 = t
        key = (s, a)
        by_source[key].append(s2)
        if trace is not None and t not in initial:
            trace.append((state_control[s], a, s2))
        for ps, A in swap_idx.get(key, ()):
            worklist.append((ps, A, s2))
        for ps, A, c in push_idx.get(key, ()):
            below = (s2, c)
            pending[below].add((ps, A))
            for s3 in by_source.get(below, ()):
                worklist.append((ps, A, s3))
        for ps, A in pending.get(key, ()):
            worklist.append((ps, A, s2))

    del swap_idx, push_idx, pending, initial  # the result needs none of them
    out = _result(system, aut, aut.states, frozenset(rel), by_source)
    return PAutomatonView(out, dict(embed))


_PUSH = object()  # first item of every _PushState; private to this module


class _PushState(tuple):
    """The state post* adds for the push target ``(control, symbol)``: the
    stacks below a ``symbol`` pushed on entering ``control``.  A tuple, so
    that it hashes and compares in C, headed by a private marker, so that a
    caller's state can never equal one of these."""

    __slots__ = ()

    def __new__(cls, control, symbol):
        return tuple.__new__(cls, (_PUSH, control, symbol))

    control = property(itemgetter(1))
    symbol = property(itemgetter(2))

    def __reduce__(self):  # copies and unpickles get this process's marker
        return _PushState, (self[1], self[2])

    def __repr__(self):  # the CLI sorts states by repr
        return f"_PushState(control={self[1]!r}, symbol={self[2]!r})"


def poststar(system: PushdownSystem, view: PAutomatonView) -> PAutomatonView:
    """Saturate ``view`` so that it accepts exactly post*(L(view)).

    Direct saturation (Schwoon 2002, Alg. 2).  Each push target
    ``(q, B)`` gets one fresh state ``m``; a rule fires on a transition
    ``p -A-> s`` out of an embedded control:

    - ``(p,A)->(q,ε)`` adds ``q -ε-> s``;
    - ``(p,A)->(q,B)`` adds ``q -B-> s``;
    - ``(p,A)->(q,BC)`` adds ``q -B-> m`` and ``m -C-> s``.

    An edge ``p -ε-> s`` adds ``p -X-> t`` for every ``s -X-> t``, including
    those added to a fresh ``s`` later.  Transitions out of embedded
    controls go through a FIFO worklist; the others fire no rule and go
    straight into the result.  ε-edges only ever leave embedded controls, and stacks are never empty,
    so the returned automaton drops them and is ε-free.
    """
    aut, embed = _saturation_input(system, view)

    # Rule indexes keyed by the transition out of a control that fires them.
    pop_idx = defaultdict(list)   # (state(p), A) -> [state(q)]
    swap_idx = defaultdict(list)  # (state(p), A) -> [(state(q), B)]
    push_idx = defaultdict(list)  # (state(p), A) -> [(state(q), B, m, C)]
    fresh = set()
    for p, a, q, pushed in system.rules:
        key, qs = (embed[p], a), embed[q]
        if not pushed:
            pop_idx[key].append(qs)
        elif len(pushed) == 1:
            swap_idx[key].append((qs, pushed[0]))
        else:
            b, c = pushed
            m = _PushState(q, b)
            fresh.add(m)
            push_idx[key].append((qs, b, m, c))

    embedded = set(embed.values())
    rel = set()
    by_source = defaultdict(list)  # (state, symbol) -> targets, the step index
    out = defaultdict(list)       # state outside the controls -> [(X, t)]
    eps_into = defaultdict(list)  # state -> [control state with an ε-edge to it]
    worklist = deque()
    for t in aut.transitions:
        if t[0] in embedded:
            worklist.append(t)
        else:
            rel.add(t)
            by_source[t[:2]].append(t[2])
            out[t[0]].append(t[1:])
    while worklist:
        t = worklist.popleft()
        if t in rel:
            continue
        rel.add(t)
        s, a, s2 = t
        if a is EPS:
            eps_into[s2].append(s)
            for x, s3 in out.get(s2, ()):
                worklist.append((s, x, s3))
            continue
        by_source[(s, a)].append(s2)
        for qs in pop_idx.get((s, a), ()):
            worklist.append((qs, EPS, s2))
        for qs, b in swap_idx.get((s, a), ()):
            worklist.append((qs, b, s2))
        for qs, b, m, c in push_idx.get((s, a), ()):
            worklist.append((qs, b, m))
            below = (m, c, s2)
            if below not in rel:
                rel.add(below)
                by_source[(m, c)].append(s2)
                out[m].append((c, s2))
                for ps in eps_into.get(m, ()):
                    worklist.append((ps, c, s2))

    del pop_idx, swap_idx, push_idx, out, eps_into  # the result needs none
    transitions = frozenset(t for t in rel if t[1] is not EPS)
    result = _result(system, aut, aut.states | fresh, transitions, by_source)
    return PAutomatonView(result, dict(embed))


def pop_relation(system: PushdownSystem) -> frozenset:
    """Least set of triples ``(p, A, q)`` with ``pA =>* q`` (the symbol is
    consumed entirely, control ends in ``q``), closed under:
    a pop rule gives a triple directly; a swap rule chains into one; a push
    rule chains into two.

    New triples are processed FIFO; each one fires only the rules indexed by
    its ``(q, B)``, as the first pushed symbol of a swap or push rule, or as
    the second pushed symbol a push rule is waiting to see popped.
    """
    check_valid(system)
    return frozenset(_pops(system)[0])


def _pops(system: PushdownSystem):
    """``pop_relation``'s worklist on a checked system: the set of triples
    and the dict ``(p, A) -> [q]`` of their distinct targets."""
    swap_idx = defaultdict(list)   # (q, B) -> [(p, A)] for pA -> qB
    first_idx = defaultdict(list)  # (q, B) -> [(p, A, C)] for pA -> qBC
    pending = defaultdict(set)     # (s, C) -> {(p, A)} waiting for sC =>* ·
    by_pa = defaultdict(list)      # (p, A) -> [q]
    rel = set()
    worklist = deque()
    for p, a, q, pushed in system.rules:
        if not pushed:
            worklist.append((p, a, q))
        elif len(pushed) == 1:
            swap_idx[(q, pushed[0])].append((p, a))
        else:
            first_idx[(q, pushed[0])].append((p, a, pushed[1]))
    while worklist:
        t = worklist.popleft()
        if t in rel:
            continue
        rel.add(t)
        q, b, s = t
        by_pa[(q, b)].append(s)
        for p, a in swap_idx.get((q, b), ()):
            worklist.append((p, a, s))
        for p, a, c in first_idx.get((q, b), ()):
            pending[(s, c)].add((p, a))
            for s2 in by_pa.get((s, c), ()):
                worklist.append((p, a, s2))
        for p, a in pending.get((q, b), ()):
            worklist.append((p, a, s))
    return rel, by_pa


def buchi_target_automaton(system: PushdownSystem, q_f) -> PAutomatonView:
    """P-automaton for pre*({(q_f, ⊥)}) built without saturation.

    Reading ``A_1 .. A_n ⊥`` from ``p``, the automaton guesses the controls
    reached as each symbol is consumed (the pop relation), and accepts on the
    bottom symbol when the remaining control can reach ``(q_f, ⊥)`` while
    dipping above the bottom only through full excursions.
    """
    check_valid(system)
    if q_f not in system.controls:
        raise InvalidInputError(f"unknown control: {q_f!r}")
    pops, pops_from = _pops(system)  # pops_from: (p, A) -> [q] with pA =>* q
    bot = system.bottom

    # Control-to-control moves at the bottom stratum, reversed.
    preds = defaultdict(set)  # q -> {(⊥, p)}, as _reach reads them
    for p, a, q, pushed in system.rules:
        if a != bot:
            continue
        if pushed == (bot,):
            preds[q].add((bot, p))
        else:  # (p,⊥)->(q,A⊥): must return to the bottom via a full pop
            for q2 in pops_from.get((q, pushed[0]), ()):
                preds[q2].add((bot, p))
    reaches_qf = _reach(preds, (q_f,))

    # A checked system never pops its bottom symbol, so no triple reads ⊥;
    # the index becomes the result's, and a read of it must add no key.
    pops_from.default_factory = None
    for p in reaches_qf:
        pops.add((p, bot, S_BOT))
        pops_from[(p, bot)] = (S_BOT,)
    aut = _saturated(system.controls | {S_BOT}, system.alphabet,
                     frozenset({S_BOT}), frozenset(pops), pops_from)
    return PAutomatonView(aut, {p: p for p in system.controls})


def singleton_view(system: PushdownSystem, c: Configuration) -> PAutomatonView:
    """P-automaton accepting exactly the configuration ``c``."""
    check_valid(system)
    embed = {p: ("ctrl", p) for p in system.controls}
    states = set(embed.values())
    transitions = set()
    control, stack = c
    if control not in embed:
        raise InvalidInputError(f"unknown control: {control!r}")
    prev = embed[control]
    for i, a in enumerate(stack):
        nxt = ("chain", i + 1)
        states.add(nxt)
        transitions.add((prev, a, nxt))
        prev = nxt
    aut = Nfa(frozenset(states), system.alphabet, frozenset({prev}),
              frozenset(transitions))
    return PAutomatonView(aut, embed)
