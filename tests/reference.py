"""Reference automaton constructions and queries that the tests compare
pdsat against: each is the textbook definition, built in full, with no
pruning."""

import functools
import itertools
from collections import defaultdict, deque

from pdsat import ELOISE, Configuration, InvalidInputError
from pdsat.automata import (EPS, S_BOT, S_STAR, AltAutomaton, Language, Nfa,
                            _reach, _reachable_product, eps_closure)
from pdsat.cli import _dot_escape
from pdsat.derivation import (POP, PUSH, ActionAlphabet,
                              _check_action_alphabet, _split_out, pop, push)
from pdsat.oracle import SINK, BoundedGraph, _regions, bounded_nodes
from pdsat.pds import successors


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


def eps_reach_per_state(aut: Nfa) -> dict:
    """The ``closure`` of ``Nfa._eps_components`` by one search per state:
    dict state -> frozenset of the states its epsilon moves reach, itself
    included."""
    step = defaultdict(list)
    for s, a, t in aut.transitions:
        if a is EPS:
            step[s].append((EPS, t))
    return {s: frozenset(_reach(step, (s,))) for s in aut.states}


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


def words_upto(aut: Nfa, start, maxlen: int):
    """The set of words of length at most ``maxlen`` (as tuples) that ``aut``
    accepts from ``start``, by a subset construction read off
    ``aut.transitions`` and ``aut.finals``, with its own ε-closure.  Words
    reaching the same set of states are extended together."""
    step = defaultdict(set)
    for s, a, t in aut.transitions:
        step[s, a].add(t)

    def closure(states):
        seen, todo = set(states), list(states)
        while todo:
            for t in step.get((todo.pop(), EPS), ()):
                if t not in seen:
                    seen.add(t)
                    todo.append(t)
        return frozenset(seen)

    found = set()
    words = {closure({start}): {()}}  # reached set of states -> its words
    for k in range(maxlen + 1):
        for states, ws in words.items():
            if states & aut.finals:
                found |= ws
        if k == maxlen:
            break
        longer = defaultdict(set)
        for states, ws in words.items():
            for a in aut.alphabet:
                reached = closure({t for s in states
                                   for t in step.get((s, a), ())})
                if reached:
                    longer[reached] |= {w + (a,) for w in ws}
        words = longer
    return found


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


def minimal(sets):
    """The subset-minimal sets among ``sets``."""
    sets = set(sets)
    return frozenset(t for t in sets if not any(u < t for u in sets))


def run_targets_by_product(aut, start, word):
    """The minimal sets S with a run ``start -word-> S``: the union of every
    combination of per-state choices, through the full product, cut to the
    minimal sets at the end."""
    index = {}
    for s, a, targets in aut.transitions:
        index.setdefault((s, a), []).append(targets)
    frontier = {frozenset({start})}
    for a in word:
        frontier = {frozenset().union(*combo) for sset in frontier
                    for combo in itertools.product(
                        *(index.get((s, a), []) for s in sset))}
    return minimal(frontier)


def subsume(aut: AltAutomaton) -> AltAutomaton:
    """``aut`` keeping, for each source and symbol, only the subset-minimal
    target sets; every language is unchanged."""
    grouped = defaultdict(set)
    for s, a, targets in aut.transitions:
        grouped[(s, a)].add(targets)
    return AltAutomaton(aut.states, aut.alphabet, aut.finals, frozenset(
        (s, a, targets) for (s, a), sets in grouped.items()
        for targets in minimal(sets)))


def run_targets(index, start, word):
    """The minimal sets S with a run ``start -word-> S``, where ``index``
    maps ``(state, symbol)`` to target sets: each set of the frontier steps
    to the unions of one target set per member state, cut to the minimal
    sets after each state."""
    frontier = {frozenset({start})}
    for a in word:
        stepped = set()
        for sset in frontier:
            unions = {frozenset()}
            for s in sset:
                unions = minimal(u | t for u in unions
                                 for t in index.get((s, a), ()))
            stepped |= unions
        frontier = minimal(stepped)
    return frozenset(frontier)


def initial_region_automaton(system) -> AltAutomaton:
    """The round loops' start value: ``S_STAR`` reads every symbol but the
    bottom one into itself and the bottom symbol into ``S_BOT``, the one
    final state, so it accepts every valid stack."""
    transitions = {(S_STAR, a, frozenset({S_STAR}))
                   for a in system.alphabet if a != system.bottom}
    transitions.add((S_STAR, system.bottom, frozenset({S_BOT})))
    return AltAutomaton(frozenset({S_STAR, S_BOT}), system.alphabet,
                        frozenset({S_BOT}), frozenset(transitions))


def pre_step(aut: AltAutomaton, game, fresh_idx, colour_of) -> AltAutomaton:
    """``aut`` plus states ``(p, fresh_idx)`` holding one game-predecessor
    step.  A rule ``p A -> q w`` leads to the run targets of ``w`` from
    ``(q, colour_of[p])``, and to none if that is not a state of ``aut``.
    Éloïse's ``p`` reads ``A`` into the minimal targets of any of its rules,
    Abelard's into the minimal unions of one target per rule."""
    index = defaultdict(list)
    for s, a, targets in aut.transitions:
        index[(s, a)].append(targets)
    rules = defaultdict(list)
    for r in game.pds.rules:
        rules[(r.from_control, r.from_symbol)].append(r)
    transitions = set(aut.transitions)
    for (p, a), applicable in rules.items():
        per_rule = []
        for r in applicable:
            state = (r.to_control, colour_of[p])
            per_rule.append(run_targets(index, state, r.pushed)
                            if state in aut.states else frozenset())
        if game.owner[p] == ELOISE:
            sets = minimal(t for targets in per_rule for t in targets)
        else:
            sets = minimal(frozenset().union(*combo)
                           for combo in itertools.product(*per_rule))
        transitions.update(((p, fresh_idx), a, t) for t in sets)
    states = aut.states | {(p, fresh_idx) for p in game.pds.controls}
    return AltAutomaton(states, aut.alphabet, aut.finals,
                        frozenset(transitions))


def project(aut: AltAutomaton, from_idx, to_idx) -> AltAutomaton:
    """Transfer the value of the states ``(p, from_idx)`` onto
    ``(p, to_idx)`` and delete the former.

    Old transitions out of ``(p, to_idx)`` are dropped; transitions out of
    ``(p, from_idx)`` are re-sourced at ``(p, to_idx)`` with ``from_idx``
    renamed to ``to_idx`` inside their target sets.  Target occurrences of
    ``(p, to_idx)`` are deliberately left alone: runs reaching them pick up
    the new value, which only accelerates the fixed point.  The solvers
    make this step on masks (``games._lowered``).
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
    transitions = set()
    for s, a, targets in aut.transitions:
        if s in rename:
            transitions.add((rename[s], a,
                             frozenset(rename.get(t, t) for t in targets)))
        elif s not in dropped:
            transitions.add((s, a, targets))
    return AltAutomaton(aut.states - rename.keys(), aut.alphabet, aut.finals,
                        frozenset(transitions))


def _closure(edges, sources) -> frozenset:
    """The states reachable from ``sources`` along ``edges``, a set of pairs
    ``(from, to)``: the least fixed point, one layer per round."""
    seen = frozenset(sources)
    while True:
        more = seen | {t for s, t in edges if s in seen}
        if more == seen:
            return seen
        seen = more


@functools.lru_cache(maxsize=4)  # a relation hashes by identity
def relation_pairs(rel) -> tuple:
    """The pairs ``(U_q, V_q)`` of ``rel`` as trimmed languages over
    ``rel.alphabet``, in the order of ``rel.boundary``, by the definition.
    U_q is the pop side from ``rel.u_start`` with final state q.  V_q is
    the push side from ``rel.V_START`` with final state q, and also
    ``V_START`` when q is in ``rel.finals``.  Each keeps its start and the
    states on a path from the start to one of its finals, and every
    transition of its side between them."""
    def cut(transitions, start, finals):
        fwd = _closure({(s, t) for s, _, t in transitions}, {start})
        keep = (fwd & _closure({(t, s) for s, _, t in transitions},
                               finals & fwd)) | {start}
        return Language(Nfa(keep, rel.alphabet, finals & keep,
                            frozenset(tr for tr in transitions
                                      if tr[0] in keep and tr[2] in keep)),
                        start)

    u_trans, v_trans = (
        frozenset((s, a, t) for (s, a), ts in step.items() for t in ts)
        for step in (rel.u_step, rel.v_step))
    return tuple(
        (cut(u_trans, rel.u_start, frozenset({q})),
         cut(v_trans, rel.V_START,
             frozenset({q, rel.V_START} if q in rel.finals else {q})))
        for q in rel.boundary)


def deriv_member_pairwise(rel, w1, w2) -> bool:
    """``deriv_member`` by the definition: for every pair ``(U, V)`` of
    ``relation_pairs(rel)`` and every split ``w1 = u·w``, test ``u ∈ U``
    and whether ``w2 = v·w`` with ``v ∈ V``.  A split that pops or pushes a
    symbol outside ``rel.alphabet`` fails."""
    w1, w2 = tuple(w1), tuple(w2)
    for u_lang, v_lang in relation_pairs(rel):
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


def _pair_names(lang):
    """The names ``s0``, ``s1``, ... of ``lang``'s states, given in the order
    of ``repr``."""
    return dict(zip(sorted(lang.aut.states, key=repr),
                    map("s{}".format, itertools.count())))


def emit_relation_pairwise(rel) -> str:
    """``pdsat deriv``'s text output, each pair's two sides sorted by
    ``repr`` on their own."""
    lines = ["relation"]
    for i, (u, v) in enumerate(relation_pairs(rel)):
        lines.append(f"pair {i}")
        for tag, lang in (("pop", u), ("push", v)):
            names = _pair_names(lang)
            lines.append(f"{tag} start {names[lang.start]}")
            if lang.aut.finals:
                lines.append(f"{tag} final " +
                             " ".join(sorted(names[s] for s in lang.aut.finals)))
            for s, a, t in sorted(lang.aut.transitions, key=repr):
                lines.append(f"{tag} trans {names[s]} {a} {names[t]}")
    return "\n".join(lines) + "\n"


def emit_relation_dot_pairwise(rel) -> str:
    """``pdsat deriv --format dot``'s output, each pair's two sides sorted
    by ``repr`` on their own."""
    lines = ["digraph relation {", "  rankdir=LR;"]
    for i, (u, v) in enumerate(relation_pairs(rel)):
        for tag, lang in (("pop", u), ("push", v)):
            names = _pair_names(lang)
            prefix = f"p{i}_{tag}_"
            lines.append(f"  subgraph cluster_{i}_{tag} {{")
            lines.append(f'    label="pair {i} {tag}";')
            for s in sorted(lang.aut.states, key=repr):
                shape = "doublecircle" if s in lang.aut.finals else "circle"
                lines.append(f"    {_dot_escape(prefix + names[s])} [shape={shape}];")
            for s, a, t in sorted(lang.aut.transitions, key=repr):
                lines.append(f"    {_dot_escape(prefix + names[s])} -> "
                             f"{_dot_escape(prefix + names[t])} "
                             f"[label={_dot_escape(a)}];")
            lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _names_by_repr(states, embed):
    """The printable names of the old emitters: embedded controls keep
    their own names, and the other states take ``s0``, ``s1``, ... in the
    order of ``repr``, skipping the names of controls."""
    names = {state: str(control) for control, state
             in sorted(embed.items(), key=lambda kv: str(kv[0]))}
    taken = {str(control) for control in embed}
    fresh = (name for name in map("s{}".format, itertools.count())
             if name not in taken)
    names.update(zip(sorted((s for s in states if s not in names), key=repr),
                     fresh))
    return names


def _alt_key_by_repr(transition):
    s, a, targets = transition
    return repr(s), repr(a), sorted(map(repr, targets))


def emit_automaton_by_repr(aut, embed) -> str:
    """``pdsat prestar``'s (or a game's) text output as the emitter wrote it
    before it ranked the states: every transition sorted by ``repr``."""
    names = _names_by_repr(aut.states, embed)
    lines = ["automaton", "states " + " ".join(sorted(set(names.values())))]
    if aut.finals:
        lines.append("final " + " ".join(sorted(names[s] for s in aut.finals)))
    if isinstance(aut, Nfa):
        for s, a, t in sorted(aut.transitions, key=repr):
            lines.append(f"trans {names[s]} {a} {names[t]}")
    else:
        for s, a, targets in sorted(aut.transitions, key=_alt_key_by_repr):
            ts = " ".join(sorted(names[t] for t in targets))
            lines.append(f"alttrans {names[s]} {a} {{ {ts} }}")
    for p, s in sorted(embed.items(), key=lambda kv: str(kv[0])):
        lines.append(f"embed {p} {names[s]}")
    return "\n".join(lines) + "\n"


def emit_automaton_dot_by_repr(aut, embed) -> str:
    """``emit_automaton_by_repr``'s input as the dot emitter wrote it
    before it ranked the states."""
    names = {s: _dot_escape(name)
             for s, name in _names_by_repr(aut.states, embed).items()}
    alternating = not isinstance(aut, Nfa)
    lines = ["digraph region {" if alternating else "digraph pautomaton {",
             "  rankdir=LR;"]
    for s in sorted(aut.states, key=repr):
        shape = "doublecircle" if s in aut.finals else "circle"
        lines.append(f"  {names[s]} [shape={shape}];")
    if not alternating:
        for s, a, t in sorted(aut.transitions, key=repr):
            lines.append(f"  {names[s]} -> {names[t]} [label={_dot_escape(a)}];")
    else:
        for i, (s, a, targets) in enumerate(sorted(aut.transitions,
                                                   key=_alt_key_by_repr)):
            lines.append(f"  h{i} [shape=point];")
            lines.append(f"  {names[s]} -> h{i} [label={_dot_escape(a)}];")
            for t in sorted(targets, key=repr):
                lines.append(f"  h{i} -> {names[t]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# The generic pattern that ``derivation._reduced_pattern`` and
# ``derivation._phase_pattern`` write out for their own factors.
def pattern_forbidden_factors(alphabet, factors):
    """Deterministic automaton of the words containing none of the two-symbol
    ``factors``.  Returns ``(nfa, start)``; every state is accepting and the
    dead sink is omitted.
    """
    alphabet = frozenset(alphabet)
    factors = set(factors)
    for f in factors:
        if len(f) != 2:
            raise InvalidInputError(f"forbidden factor must have length 2: {f!r}")
        if f[0] not in alphabet or f[1] not in alphabet:
            raise InvalidInputError(f"factor symbol not in alphabet: {f!r}")
    heads = {f[0] for f in factors}
    start = ("pat", None)
    states = {start} | {("pat", a) for a in heads}
    transitions = set()
    for state in states:
        _, last = state
        for a in alphabet:
            if last is not None and (last, a) in factors:
                continue  # dead sink, omitted
            nxt = ("pat", a) if a in heads else start
            transitions.add((state, a, nxt))
    aut = Nfa(frozenset(states), alphabet, frozenset(states), frozenset(transitions))
    return aut, start


def _productive_pattern(alpha: ActionAlphabet):
    """The pattern of the productive words: no A+B- factor with A != B."""
    return pattern_forbidden_factors(
        alpha.symbols,
        {(push(a), pop(b)) for a in alpha.base for b in alpha.base if a != b})


def productive_filter(lang: Language) -> Language:
    """Drop the non-productive sequences from a language of reduced
    sequences: exactly those containing a factor A+B- with A != B.  The
    product holds only the states reachable from ``(lang.start, pattern
    start)``.  With ``benois_reduce`` it is the route of two products that
    ``deriv_relation``'s one product with the phase pattern stands for."""
    alpha = _check_action_alphabet(lang.aut)
    return _reachable_product(lang.aut, lang.start, *_productive_pattern(alpha))


def _split(lang: Language):
    """Trim and split ``lang`` by ``derivation._split_out``, after a forward
    search (``decompose`` accepts any language, not only a reachable
    product), then check ``_split_out``'s precondition, that no trimmed pop
    follows a trimmed push, by a search from the push targets.  Returns its
    trimmed states, finals, pop and push transitions, and boundary states in
    the order of ``repr``."""
    _check_action_alphabet(lang.aut)
    if lang.aut.has_eps():
        raise InvalidInputError("decompose requires an epsilon-free automaton")
    out = defaultdict(list)
    for s, a, t in lang.aut.transitions:
        out[s].append((a, t))
    fwd = _reach(out, {lang.start})
    finals = lang.aut.finals & fwd
    keep, pops, pushes, boundary = _split_out(
        {s: out[s] for s in fwd}, lang.start, finals)
    after_push = _reach(out, {t for t, _ in pushes}, within=keep)
    if not after_push.isdisjoint(s for s, _ in pops):
        raise InvalidInputError("language is not included in pops* pushes*")
    return (frozenset(keep), finals,
            frozenset((s, pop(a), t) for (s, a), ts in pops.items() for t in ts),
            frozenset((s, push(a), t) for (t, a), ss in pushes.items() for s in ss),
            boundary)


def decompose(lang: Language):
    """Split a language included in pops* pushes* into pairs ``(X, Y)`` of a
    pop-only language and a push-only language whose concatenations union to
    the input language: one pair per boundary state q between the pop prefix
    and the push suffix of some accepting path, in the order of ``repr(q)``.
    Every X and Y holds the trimmed states: X the pop transitions and final
    state q, Y the push transitions and start q.  Raises
    ``InvalidInputError`` when a trimmed pop follows a trimmed push."""
    keep, finals, pop_trans, push_trans, boundary = _split(lang)
    alphabet = lang.aut.alphabet
    return [(Language(Nfa(keep, alphabet, frozenset({q}), pop_trans), lang.start),
             Language(Nfa(keep, alphabet, finals, push_trans), q))
            for q in boundary]


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


def finite_game_region(g: BoundedGraph, condition, sink_winner):
    """Exact Éloïse winning set of the truncated game, with the sink won by
    ``sink_winner``: one of the two solves of ``oracle.bracket_region``."""
    return _regions(g, condition)[sink_winner == ELOISE]


def is_valid_configuration_by_scan(system, c) -> bool:
    """A known control and a stack of known non-bottom symbols over the
    bottom symbol, each symbol tested in turn."""
    return (c.control in system.controls and bool(c.stack)
            and c.stack[-1] == system.bottom
            and all(a in system.alphabet and a != system.bottom
                    for a in c.stack[:-1]))


def successors_by_scan(system, c):
    """One-step successors of ``c``, scanning every rule for its control and
    top symbol."""
    top, rest = c.stack[0], c.stack[1:]
    return {Configuration(r.to_control, r.pushed + rest)
            for r in system.rules
            if r.from_control == c.control and r.from_symbol == top}


def predecessors_by_scan(system, c):
    """Valid one-step predecessors of ``c``, scanning every rule for one
    into its control whose pushed word tops its stack."""
    result = set()
    for r in system.rules:
        k = len(r.pushed)
        if r.to_control == c.control and c.stack[:k] == r.pushed:
            pre = Configuration(r.from_control, (r.from_symbol,) + c.stack[k:])
            if is_valid_configuration_by_scan(system, pre):
                result.add(pre)
    return result


def bounded_search_by_filter(system, seeds, step, h: int) -> set:
    """The configurations a search from ``seeds`` finds through ``step``
    (``successors`` or ``predecessors``), each step built in full and then
    cut to stacks at most ``h`` high."""
    seen = set(seeds)
    todo = list(seen)
    while todo:
        for nxt in step(system, todo.pop()):
            if len(nxt.stack) <= h and nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return seen


def bounded_graph_by_filter(game, h: int) -> BoundedGraph:
    """``oracle.bounded_graph(game, h)``, with every successor built in full
    and then sent to the sink if it is taller than ``h``."""
    system = game.pds
    edges = {SINK: {SINK}}
    owner = {SINK: ELOISE}
    for c in bounded_nodes(system, h):
        edges[c] = {SINK if len(c2.stack) > h else c2
                    for c2 in successors(system, c)}
        owner[c] = game.owner[c.control]
    return BoundedGraph(set(edges), edges, owner)


def attractor_by_own_preds(nodes, edges, owner, target, player):
    """``oracle._attract``, building the predecessor sets and move counts
    of ``nodes`` afresh on every call instead of reading the graph's
    index."""
    attracted = set(target) & nodes
    todo = deque(attracted)
    preds = {n: set() for n in nodes}
    for n in nodes:
        for m in edges.get(n, ()):
            if m in preds:
                preds[m].add(n)
    remaining = {}
    for n in nodes:
        remaining[n] = len([m for m in edges.get(n, ()) if m in nodes])
    while todo:
        n = todo.popleft()
        for m in preds[n]:
            if m in attracted:
                continue
            if owner[m] == player:
                attracted.add(m)
                todo.append(m)
            else:
                remaining[m] -= 1
                if remaining[m] == 0:
                    attracted.add(m)
                    todo.append(m)
    return attracted
