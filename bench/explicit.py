"""The benchmark's own explicit-state ground truth.

Configurations are pairs ``(control, stack)`` of plain values; stacks are
tuples with the top first.  Nothing here calls pdsat, so the checks built on
it are independent of the code under measurement.
"""

from __future__ import annotations

from collections import defaultdict, deque


class Stepper:
    """One-step successors and predecessors of a ``gen.System``.  An empty
    stack has no successors."""

    def __init__(self, system):
        self.by_source = defaultdict(list)
        self.by_target = defaultdict(list)
        for p, a, q, pushed in system.rules:
            self.by_source[(p, a)].append((q, pushed))
            self.by_target[q].append((p, a, pushed))

    def successors(self, c):
        control, stack = c
        if not stack:
            return []
        rest = stack[1:]
        return [(q, pushed + rest)
                for q, pushed in self.by_source.get((control, stack[0]), ())]

    def predecessors(self, c):
        control, stack = c
        return [(p, (a,) + stack[len(pushed):])
                for p, a, pushed in self.by_target.get(control, ())
                if stack[:len(pushed)] == pushed]


def bounded_search(step, start, goal, max_height, node_cap=20_000):
    """Breadth-first search from ``start`` through configurations whose stack
    is at most ``max_height`` high.

    Returns ``(found, left)``: ``found`` when a configuration satisfying
    ``goal`` is reached inside the bound, ``left`` when some move leaves the
    bound or the node cap stops the search.  A true answer must then have
    ``found`` implying it, and it must imply ``found or left``.
    """
    seen = {start}
    todo = deque([start])
    left = False
    while todo:
        c = todo.popleft()
        if goal(c):
            return True, left
        for nxt in step(c):
            if len(nxt[1]) > max_height:
                left = True
            elif nxt not in seen:
                if len(seen) >= node_cap:
                    left = True
                    continue
                seen.add(nxt)
                todo.append(nxt)
    return False, left


def within_bracket(answer, found, left) -> bool:
    return (answer or not found) and (not answer or found or left)


# ---------------------------------------------------------------------------
# Readers for the CLI's text output, independent of pdsat.cli


def read_automaton(text):
    """``(finals, step, embed)`` of an ``automaton`` block; ``step`` maps
    ``(state, symbol)`` to a set of targets."""
    finals, embed = set(), {}
    step = defaultdict(set)
    for line in text.splitlines():
        tokens = line.split()
        if not tokens:
            continue
        if tokens[0] == "final":
            finals.update(tokens[1:])
        elif tokens[0] == "trans":
            step[(tokens[1], tokens[2])].add(tokens[3])
        elif tokens[0] == "embed":
            embed[tokens[1]] = tokens[2]
    return finals, step, embed


def nfa_accepts(step, finals, start, word, eps="eps") -> bool:
    def close(states):
        todo = list(states)
        states = set(states)
        while todo:
            for t in step.get((todo.pop(), eps), ()):
                if t not in states:
                    states.add(t)
                    todo.append(t)
        return states

    current = close({start})
    for a in word:
        current = close({t for s in current for t in step.get((s, a), ())})
    return bool(current & finals)


def read_relation(text):
    """Pairs ``((start, finals, step), (start, finals, step))`` of a
    ``relation`` block (pop language, push language)."""
    pairs = []
    for line in text.splitlines():
        tokens = line.split()
        if not tokens or tokens[0] == "relation":
            continue
        if tokens[0] == "pair":
            pairs.append({tag: [None, set(), defaultdict(set)]
                          for tag in ("pop", "push")})
            continue
        lang = pairs[-1][tokens[0]]
        if tokens[1] == "start":
            lang[0] = tokens[2]
        elif tokens[1] == "final":
            lang[1].update(tokens[2:])
        elif tokens[1] == "trans":
            lang[2][(tokens[2], tokens[3])].add(tokens[4])
    return [(p["pop"], p["push"]) for p in pairs]


def relation_member(pairs, w1, w2) -> bool:
    """``w1 = u w`` and ``w2 = v w`` with ``(u, v)`` in some pair."""
    for (u_start, u_finals, u_step), (v_start, v_finals, v_step) in pairs:
        for k in range(len(w1) + 1):
            suffix = w1[k:]
            if len(suffix) > len(w2) or w2[len(w2) - len(suffix):] != suffix:
                continue
            if (nfa_accepts(u_step, u_finals, u_start, w1[:k]) and
                    nfa_accepts(v_step, v_finals, v_start,
                                w2[:len(w2) - len(suffix)])):
                return True
    return False
