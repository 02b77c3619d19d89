"""Brute-force ground truth at desk scale.

Configurations up to a stack-height bound form a finite graph; pushes past
the bound are redirected to a sink, whose winner is chosen when the graph is
solved.  Solving the truncated game with the sink lost, then won, for Éloïse
brackets the true winning region from below and above.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

from .automata import Sentinel, alt_membership
from .errors import InvalidInputError, ResourceLimitError
from .games import (ABELARD, BuchiCondition, ELOISE, ParityCondition,
                    PushdownGame, ReachabilityCondition, check_game)
from .pds import (Configuration, PushdownSystem, _config_of, _successors,
                  check_configuration, check_valid)

SINK = Sentinel("sink")

DEFAULT_NODE_CAP = 200_000


@dataclass(eq=False)
class BoundedGraph:
    nodes: set  # configurations plus SINK
    edges: dict  # node -> set of successors; SINK, then bounded_nodes order
    owner: dict  # node -> ELOISE | ABELARD


def bounded_nodes(system: PushdownSystem, h: int):
    """All valid configurations with stack height at most ``h``.  Raises
    ``ResourceLimitError``, before listing any, when there are more than
    ``DEFAULT_NODE_CAP``."""
    base = sorted(system.alphabet - {system.bottom}, key=repr)
    # Summed level by level, so that a huge ``h`` fails as fast as a small
    # one.  A level counts at least one stack per control even with no stack
    # symbols, because listing it still takes time; so no more than
    # ``DEFAULT_NODE_CAP`` levels fit under the cap.
    size, level = 0, len(system.controls)
    for _ in range(min(h, DEFAULT_NODE_CAP + 1)):
        size += level
        level *= max(1, len(base))
        if size > DEFAULT_NODE_CAP:
            raise ResourceLimitError(
                f"bounded graph would have more than {DEFAULT_NODE_CAP} nodes")
    return [_config_of((q, word + (system.bottom,)))
            for q in sorted(system.controls, key=repr)
            for k in range(h)
            for word in itertools.product(base, repeat=k)]


def bounded_graph(game: PushdownGame, h: int) -> BoundedGraph:
    """Finite restriction of the game's configuration graph to stacks of
    length at most ``h``; moves growing past ``h`` lead to the sink.  Stuck
    nodes are kept without moves: in a reachability game one outside the
    target is lost for Éloïse, whoever owns it, and Büchi and parity solving
    refuse them.  Each node's moves are read in one pass over the system's
    rules on its control and top symbol; a move past ``h`` goes to the sink
    without its configuration being built.
    """
    if h < 1:
        raise InvalidInputError("height bound must be at least 1")
    check_game(game)
    edges = {SINK: {SINK}}
    # The sink belongs to nobody in particular; its self-loop decides it.
    owner = {SINK: ELOISE}
    rules_from = game.pds._rules_from
    for c in bounded_nodes(game.pds, h):
        q0, stack = c
        rest = stack[1:]
        room = h - len(rest)  # the longest word a move may push
        edges[c] = {_config_of((q, pushed + rest)) if len(pushed) <= room
                    else SINK
                    for q, pushed in rules_from.get((q0, stack[0]), ())}
        owner[c] = game.owner[q0]
    return BoundedGraph(set(edges), edges, owner)


def _bounded_search(system: PushdownSystem, seeds, step, h: int):
    """Breadth-first search from ``seeds`` through ``step`` (``pds``'s
    ``_successors`` or ``_predecessors``, which build nothing above ``h``),
    keeping to stacks at most ``h`` high: yields each configuration found,
    seeds first, once.  ``system`` must be checked and the seeds valid
    configurations in it at most ``h`` high.  Raises
    ``ResourceLimitError`` once more than ``DEFAULT_NODE_CAP``
    configurations have been found."""
    seen = set(seeds)
    todo = deque(seen)
    while todo:
        cur = todo.popleft()
        yield cur
        if len(seen) > DEFAULT_NODE_CAP:
            raise ResourceLimitError("bounded search exceeded the node cap")
        found = step(system, cur, h) - seen
        seen |= found
        todo.extend(found)


def bfs_prestar_member(system: PushdownSystem, target, c: Configuration,
                       h: int) -> bool:
    """True iff some path from ``c`` reaches a configuration satisfying the
    ``target`` predicate with every intermediate stack at most ``h`` high.
    Monotone in ``h``; a sound under-approximation of pre* membership.
    Raises ``InvalidInputError`` for a start above ``h`` or not valid in
    ``system``."""
    check_valid(system)
    if len(c.stack) > h:
        raise InvalidInputError("start configuration exceeds the height bound")
    check_configuration(system, c)
    return any(target(cur)
               for cur in _bounded_search(system, [c], _successors, h))


def _predecessor_index(nodes, edges):
    """dict node of ``nodes`` -> list of the nodes of ``nodes`` with a move
    to it."""
    preds = {n: [] for n in nodes}
    for n in nodes:
        for m in edges.get(n, ()):
            if m in preds:
                preds[m].append(n)
    return preds


def _attract(nodes, preds, edges, owner, target, player):
    """Least set from which ``player`` forces reaching ``target`` inside
    ``nodes``, a subset of the graph whose predecessor index is ``preds``:
    one index serves every node set of a graph.  A node whose owner cannot
    move is never attracted.  An opponent's count of moves inside ``nodes``
    is taken when the search first reaches that node."""
    attracted = set(target) & nodes
    todo = list(attracted)
    remaining = {}  # opponent node -> its moves inside nodes not yet attracted
    while todo:
        for m in preds[todo.pop()]:
            if m in attracted or m not in nodes:
                continue
            if owner[m] != player:
                left = remaining.get(m)
                if left is None:
                    left = len(nodes.intersection(edges[m]))
                remaining[m] = left = left - 1
                if left:
                    continue
            attracted.add(m)
            todo.append(m)
    return attracted


def _zielonka(nodes, preds, edges, owner, colour):
    """Winning sets (for-even, for-odd) of a min-parity game on a finite
    total graph, by the classical recursive decomposition; ``preds`` is the
    whole graph's predecessor index."""
    if not nodes:
        return set(), set()
    m = min(colour[n] for n in nodes)
    player = m % 2  # 0: Éloïse favours colour m, 1: Abelard does
    mine = ELOISE if player == 0 else ABELARD
    top = {n for n in nodes if colour[n] == m}
    a = _attract(nodes, preds, edges, owner, top, mine)
    w0, w1 = _zielonka(nodes - a, preds, edges, owner, colour)
    opponent_win = w1 if player == 0 else w0
    if not opponent_win:
        return (set(nodes), set()) if player == 0 else (set(), set(nodes))
    theirs = ABELARD if player == 0 else ELOISE
    b = _attract(nodes, preds, edges, owner, opponent_win, theirs)
    w0b, w1b = _zielonka(nodes - b, preds, edges, owner, colour)
    if player == 0:
        return w0b, w1b | b
    return w0b | b, w1b


def _regions(g: BoundedGraph, condition):
    """Exact Éloïse winning sets ``(under, over)`` of the truncated game
    ``g``, with the sink lost for her, then won; what only depends on
    ``condition`` (a reachability game's target set, the colours, the
    predecessor index) is computed once for both."""
    preds = _predecessor_index(g.nodes, g.edges)
    if isinstance(condition, ReachabilityCondition):
        aut, embed = condition.target, condition.embed
        # an embedded state that is not one of the target's accepts nothing
        target = {n for n in g.nodes
                  if n is not SINK and embed[n.control] in aut.states
                  and alt_membership(aut, embed[n.control], n.stack)}
        return tuple(_attract(g.nodes, preds, g.edges, g.owner, target | sink,
                              ELOISE) for sink in (set(), {SINK}))
    if isinstance(condition, BuchiCondition):
        colour = {n: (0 if n is not SINK and n.control in condition.finals else 1)
                  for n in g.nodes}
    elif isinstance(condition, ParityCondition):
        colour = {n: (condition.colours[n.control] if n is not SINK else 0)
                  for n in g.nodes}
    else:
        raise InvalidInputError(f"unsupported condition: {condition!r}")
    stuck = [n for n in g.nodes if not g.edges.get(n)]
    if stuck:
        raise InvalidInputError("finite Büchi/parity solving needs a total "
                                f"graph; {min(stuck, key=repr)!r} is stuck")
    # the sink's colour decides it: odd is lost for Éloïse, even is won
    return tuple(_zielonka(set(g.nodes), preds, g.edges, g.owner,
                           {**colour, SINK: sink})[0] for sink in (1, 0))


def bracket_region(game: PushdownGame, h: int):
    """Lower and upper bounds on Éloïse's winning region, as predicates on
    configurations with stack height at most ``h``: the truncated game solved
    with the sink lost for her, then won."""
    under, over = _regions(bounded_graph(game, h), game.condition)
    return under.__contains__, over.__contains__
