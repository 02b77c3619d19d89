"""Rational characterisation of the derivation relation of a bottom-free
pushdown system.

Each stack symbol A gets a push action A+ and a pop action A-.  The system is
turned into a finite automaton over action symbols, epsilon-saturated so that
push-then-pop factors can be skipped, restricted to reduced and productive
sequences, and finally decomposed into a finite union of (pop-prefix language,
push-prefix language) pairs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .automata import (EPS, Language, Nfa, eps_closure,
                       pattern_forbidden_factors, product_intersect, relabel,
                       reverse)
from .errors import InvalidInputError
from .pds import PushdownSystem, check_valid

PUSH = "+"
POP = "-"


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

    def contains(self, action) -> bool:
        return (isinstance(action, tuple) and len(action) == 2
                and action[0] in (PUSH, POP) and action[1] in self.base)


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
        raise InvalidInputError("behaviour_automaton: unknown control state")
    alpha = action_alphabet(system)
    states = set(system.controls)
    transitions = set()
    for i, r in enumerate(sorted(system.rules, key=repr)):
        word = [pop(r.from_symbol)]
        word += [push(a) for a in reversed(r.pushed)]
        prev = r.from_control
        for k, action in enumerate(word[:-1]):
            mid = ("beh", i, k)
            states.add(mid)
            transitions.add((prev, action, mid))
            prev = mid
        transitions.add((prev, word[-1], r.to_control))
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


def benois_reduce(lang: Language) -> Language:
    """Language of the reduced forms of the words of ``lang``.

    Epsilon edges are saturated in: one is added from p to q whenever q is
    reachable from p reading a word of the shape A+ ε* A-.  The saturated
    automaton is epsilon-closed and intersected with the words containing no
    A+A- factor.
    """
    alpha = _check_action_alphabet(lang.aut)
    aut = lang.aut
    transitions = set(aut.transitions)
    pushes = [(s, a[1], t) for s, a, t in transitions if a is not EPS and a[0] == PUSH]
    changed = True
    while changed:
        changed = False
        eps_step = {}
        for s, a, t in transitions:
            if a is EPS:
                eps_step.setdefault(s, set()).add(t)
        # epsilon reachability, recomputed per round (cubic overall)
        reach = {}
        for s in aut.states:
            seen = {s}
            todo = deque([s])
            while todo:
                u = todo.popleft()
                for v in eps_step.get(u, ()):
                    if v not in seen:
                        seen.add(v)
                        todo.append(v)
            reach[s] = seen
        for s, base_symbol, mid in pushes:
            for u in reach[mid]:
                for s2, a, t in list(transitions):
                    if s2 == u and a == (POP, base_symbol):
                        edge = (s, EPS, t)
                        if edge not in transitions:
                            transitions.add(edge)
                            changed = True
    saturated = Nfa(aut.states, aut.alphabet, aut.finals, frozenset(transitions))
    closed = eps_closure(saturated)
    factors = {(push(a), pop(a)) for a in alpha.base}
    pattern, pstart = pattern_forbidden_factors(alpha.symbols, factors)
    product = product_intersect(closed, pattern, pstart)
    return Language(product, (lang.start, pstart))


def reduce_word(actions):
    """Brute-force reduction: erase A+A- factors until none remain.  The
    rewriting is confluent, so the order does not matter."""
    word = list(actions)
    changed = True
    while changed:
        changed = False
        for i in range(len(word) - 1):
            (k1, a1), (k2, a2) = word[i], word[i + 1]
            if k1 == PUSH and k2 == POP and a1 == a2:
                del word[i:i + 2]
                changed = True
                break
    return tuple(word)


def productive_filter(lang: Language) -> Language:
    """Drop the non-productive sequences from a language of reduced
    sequences: exactly those containing a factor A+B- with A != B."""
    alpha = _check_action_alphabet(lang.aut)
    factors = {(push(a), pop(b)) for a in alpha.base for b in alpha.base if a != b}
    pattern, pstart = pattern_forbidden_factors(alpha.symbols, factors)
    product = product_intersect(lang.aut, pattern, pstart)
    return Language(product, (lang.start, pstart))


def _trim(aut: Nfa, start):
    """States reachable from ``start`` and co-reachable to a final state."""
    fwd = {start}
    todo = deque([start])
    succ = {}
    pred = {}
    for s, a, t in aut.transitions:
        succ.setdefault(s, []).append((a, t))
        pred.setdefault(t, []).append((a, s))
    while todo:
        s = todo.popleft()
        for _, t in succ.get(s, ()):
            if t not in fwd:
                fwd.add(t)
                todo.append(t)
    bwd = set(aut.finals)
    todo = deque(aut.finals)
    while todo:
        s = todo.popleft()
        for _, t in pred.get(s, ()):
            if t not in bwd:
                bwd.add(t)
                todo.append(t)
    keep = fwd & bwd
    transitions = frozenset((s, a, t) for s, a, t in aut.transitions
                            if s in keep and t in keep)
    return keep, transitions


def decompose(lang: Language):
    """Split a language included in pops* pushes* into pairs ``(X, Y)`` of a
    pop-only language and a push-only language whose concatenations union to
    the input language.  One pair per boundary state sitting between the pop
    prefix and the push suffix of some accepting path.
    """
    _check_action_alphabet(lang.aut)
    if lang.aut.has_eps():
        raise InvalidInputError("decompose requires an epsilon-free automaton")
    keep, transitions = _trim(lang.aut, lang.start)
    if lang.start not in keep:
        return []
    # Validation: in the trimmed automaton no pop may follow a push.
    after_push = set()
    todo = deque(t for s, a, t in transitions if a[0] == PUSH)
    after_push.update(todo)
    while todo:
        s = todo.popleft()
        for s2, a, t in transitions:
            if s2 == s and t not in after_push:
                after_push.add(t)
                todo.append(t)
    for s, a, _ in transitions:
        if a[0] == POP and s in after_push:
            raise InvalidInputError("language is not included in pops* pushes*")
    pop_trans = frozenset((s, a, t) for s, a, t in transitions if a[0] == POP)
    push_trans = frozenset((s, a, t) for s, a, t in transitions if a[0] == PUSH)

    # Boundary candidates: reachable from the start via pops only.
    boundary = {lang.start}
    todo = deque([lang.start])
    while todo:
        s = todo.popleft()
        for s2, a, t in pop_trans:
            if s2 == s and t not in boundary:
                boundary.add(t)
                todo.append(t)
    pairs = []
    for q in sorted(boundary, key=repr):
        x = Language(Nfa(lang.aut.states, lang.aut.alphabet, frozenset({q}),
                         pop_trans), lang.start)
        y = Language(Nfa(lang.aut.states, lang.aut.alphabet, lang.aut.finals,
                         push_trans), q)
        if x.is_empty() or y.is_empty():
            continue
        pairs.append((x, y))
    return pairs


def _trimmed_language(lang: Language) -> Language:
    keep, transitions = _trim(lang.aut, lang.start)
    keep = keep | {lang.start}
    aut = Nfa(frozenset(keep), lang.aut.alphabet,
              frozenset(lang.aut.finals & keep), transitions)
    return Language(aut, lang.start)


@dataclass(frozen=True, eq=False)
class PrefixRewriteRelation:
    """Finite union of prefix-rewrite pairs: pop a stack prefix in U_i, push
    a replacement in V_i, keeping the untouched suffix."""

    pairs: tuple  # of (U: Language, V: Language) over the base alphabet


def deriv_relation(system: PushdownSystem, q0, qf) -> PrefixRewriteRelation:
    """The relation {(u, v) | (q0, u) =>* (qf, v)} over bottom-free stacks."""
    behaviour = behaviour_automaton(system, q0, qf)
    reduced = benois_reduce(behaviour)
    productive = productive_filter(reduced)
    pairs = []
    for x, y in decompose(productive):
        # X reads A1- ... An- for the popped prefix A1 ... An: strip the tag.
        u_aut = relabel(x.aut, lambda a: a[1])
        u = Language(u_aut, x.start)
        # Y reads An+ ... A1+ for the pushed prefix A1 ... An: strip and reverse.
        y_base = relabel(y.aut, lambda a: a[1])
        v_aut, v_start = reverse(y_base, y.start)
        v = Language(eps_closure(v_aut), v_start)
        pairs.append((_trimmed_language(u), _trimmed_language(v)))
    return PrefixRewriteRelation(tuple(pairs))


def deriv_member(rel: PrefixRewriteRelation, w1, w2) -> bool:
    """True iff ``w1 = u·w`` and ``w2 = v·w`` for some pair ``(U, V)`` of the
    relation with ``u ∈ U``, ``v ∈ V`` and a common suffix ``w``."""
    w1, w2 = tuple(w1), tuple(w2)
    for u_lang, v_lang in rel.pairs:
        for k in range(len(w1) + 1):
            suffix = w1[k:]
            if len(suffix) > len(w2) or (len(suffix) and w2[-len(suffix):] != suffix):
                continue
            v = w2[:len(w2) - len(suffix)]
            if u_lang.accepts(w1[:k]) and v_lang.accepts(v):
                return True
    return False
