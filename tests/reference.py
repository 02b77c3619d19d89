"""Reference automaton constructions and queries that the tests compare
pdsat against: each is the textbook definition, built in full, with no
pruning."""

from collections import defaultdict

from pdsat import InvalidInputError
from pdsat.automata import EPS, AltAutomaton, Nfa, eps_closure


def product_intersect(aut: Nfa, pattern: Nfa, pattern_start) -> Nfa:
    """Product automaton; the language from ``(s, pattern_start)`` is the
    intersection of the two component languages.

    ``pattern`` must be epsilon-free; ``aut`` is epsilon-closed first.
    """
    if aut.alphabet != pattern.alphabet:
        raise InvalidInputError("product_intersect requires matching alphabets")
    if pattern.has_eps():
        raise InvalidInputError("pattern must be epsilon-free")
    if pattern_start not in pattern.states:
        raise InvalidInputError(f"unknown pattern state: {pattern_start!r}")
    left = eps_closure(aut) if aut.has_eps() else aut
    ridx = pattern._step_index
    states = {(s, t) for s in left.states for t in pattern.states}
    transitions = set()
    for s, a, s2 in left.transitions:
        for t in pattern.states:
            for t2 in ridx.get((t, a), ()):
                transitions.add(((s, t), a, (s2, t2)))
    finals = {(s, t) for s in left.finals for t in pattern.finals}
    return Nfa(frozenset(states), aut.alphabet, frozenset(finals), frozenset(transitions))


def reverse(aut: Nfa, start):
    """Automaton for the reversed language; returns ``(nfa, new_start)``."""
    new_start = ("rev", "start")
    transitions = {(t, a, s) for s, a, t in aut.transitions}
    transitions |= {(new_start, EPS, f) for f in aut.finals}
    states = aut.states | {new_start}
    return Nfa(frozenset(states), aut.alphabet, frozenset({start}),
               frozenset(transitions)), new_start


def relabel(aut: Nfa, mapping) -> Nfa:
    """Apply ``mapping`` to every non-epsilon transition label."""
    alphabet = frozenset(mapping(a) for a in aut.alphabet)
    transitions = frozenset(
        (s, a if a is EPS else mapping(a), t) for s, a, t in aut.transitions)
    return Nfa(aut.states, alphabet, aut.finals, transitions)


def alt_membership_sets(aut: AltAutomaton, start, word) -> bool:
    """``alt_membership`` by backward evaluation over frozensets: the states
    accepting the empty suffix are the finals, and a state accepts ``a·w``
    iff one of its transitions on ``a`` leads into a set of states all
    accepting ``w``."""
    if start not in aut.states:
        raise InvalidInputError(f"unknown state: {start!r}")
    for a in word:
        if a not in aut.alphabet:
            raise InvalidInputError(f"unknown symbol: {a!r}")
    by_symbol = defaultdict(list)
    for s, a, targets in aut.transitions:
        by_symbol[a].append((s, targets))
    good = set(aut.finals)
    for a in reversed(word):
        good = {s for s, targets in by_symbol[a] if targets <= good}
    return start in good


def deriv_member_pairwise(rel, w1, w2) -> bool:
    """``deriv_member`` by the definition: for every pair ``(U, V)`` of
    ``rel.pairs`` and every split ``w1 = u·w``, test ``u ∈ U`` and whether
    ``w2 = v·w`` with ``v ∈ V``.  A split that pops or pushes a symbol
    outside ``rel.alphabet`` fails."""
    w1, w2 = tuple(w1), tuple(w2)
    for u_lang, v_lang in rel.pairs:
        for k in range(len(w1) + 1):
            suffix = w1[k:]
            if len(suffix) > len(w2) or (len(suffix) and w2[-len(suffix):] != suffix):
                continue
            v = w2[:len(w2) - len(suffix)]
            if not set(w1[:k] + v) <= rel.alphabet:
                continue
            if u_lang.accepts(w1[:k]) and v_lang.accepts(v):
                return True
    return False
