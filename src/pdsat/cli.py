"""Command line front end.

Input documents are UTF-8 text, line oriented: a line holding just ``pds``,
``automaton`` or ``game`` opens a block, ``#`` starts a comment, tokens are
whitespace separated.  Exit codes: 0 success (or membership yes),
1 membership no, 2 parse or validation failure, 3 oracle disagreement.
"""

from __future__ import annotations

import argparse
import functools
import gc
import itertools
import sys

from . import derivation, games, oracle, reachability
from .automata import AltAutomaton, Nfa, _reach
from .errors import InvalidInputError, ResourceLimitError
from .pds import (Configuration, PushdownSystem, _predecessors, _rule_of,
                  _successors, validate)

SECTION_NAMES = ("pds", "automaton", "game")


class ParseError(Exception):
    def __init__(self, lineno, message):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def parse(text: str):
    """Read the textual input format in one pass: ``(system, sections)``,
    the checked system of the pds section, built as its lines are read, and
    a dict mapping each other section's name to its ``[(lineno, tokens)]``,
    in document order.

    A pds line's tokens die with the line.  ``controls`` and ``alphabet``
    map each declared name to the string its first declaration read, and a
    rule line's one lookup of a name both checks it and fetches that string:
    every rule shares the declared strings, and keeps none of its line's
    own.  A structural error (content before any section, a duplicate
    section, no pds section) is reported before any error inside the pds
    section, even one on an earlier line: the first pds error waits in
    ``pending`` until the whole document is read."""
    controls, alphabet, rules = {}, {}, set()
    bottom = pending = None
    sections, current, in_pds = {}, None, False
    for lineno, line in enumerate(text.split("\n"), start=1):
        if "#" in line:
            line = line[:line.index("#")]
        tokens = line.split()
        if not tokens:
            continue
        key = tokens[0]
        if len(tokens) == 1 and key in SECTION_NAMES:
            if key in sections:
                raise ParseError(lineno, f"duplicate section {key!r}")
            current = sections[key] = []
            in_pds = key == "pds"
        elif not in_pds:
            if current is None:
                raise ParseError(lineno, "content before any section: "
                                         f"{line.strip()!r}")
            current.append((lineno, tokens))
        elif pending is not None:
            continue
        elif key == "rule":
            n = len(tokens)
            if n < 5 or tokens[3] != "->":
                pending = ParseError(lineno, "rule syntax: rule p A -> q [B [C]]")
                continue
            if n > 7:
                pending = ParseError(lineno, "a rule may push at most two symbols")
                continue
            try:
                p, q = controls[tokens[1]], controls[tokens[4]]
            except KeyError as missing:
                pending = ParseError(lineno, "undeclared control state "
                                             f"{missing.args[0]!r}")
                continue
            try:
                a = alphabet[tokens[2]]
                pushed = (() if n == 5 else (alphabet[tokens[5]],) if n == 6
                          else (alphabet[tokens[5]], alphabet[tokens[6]]))
            except KeyError as missing:
                pending = ParseError(lineno, "undeclared stack symbol "
                                             f"{missing.args[0]!r}")
                continue
            rules.add(_rule_of((p, a, q, pushed)))
        elif key == "states":
            for name in tokens[1:]:
                controls.setdefault(name, name)
        elif key == "alphabet":
            for name in tokens[1:]:
                alphabet.setdefault(name, name)
        elif key == "bottom":
            if len(tokens) != 2:
                pending = ParseError(lineno, "bottom takes exactly one symbol")
            elif bottom is not None:
                pending = ParseError(lineno, "duplicate bottom declaration")
            else:
                bottom = alphabet.setdefault(tokens[1], tokens[1])
        else:
            pending = ParseError(lineno, f"unknown keyword {key!r} in pds section")
    if sections.pop("pds", None) is None:
        raise ParseError(0, "document has no pds section")
    if pending is not None:
        raise pending
    if bottom is None:
        raise ParseError(0, "pds section declares no bottom symbol")
    system = PushdownSystem(frozenset(controls), frozenset(alphabet), bottom,
                            frozenset(rules))
    errors = validate(system)
    if errors:
        raise ParseError(0, "; ".join(errors))
    return system, sections


def _build_automaton(sections: dict, system: PushdownSystem, alternating: bool):
    """The automaton section of ``sections``: a pre*/post* view, or with
    ``alternating`` a reachability game's target, which reads each ``trans``
    line as an ``alttrans`` line with one target."""
    body = sections.get("automaton")
    if body is None:
        raise ParseError(0, "this command needs an automaton section")
    states, finals, trans, alttrans = set(), set(), set(), set()
    embed = {}

    def need_state(lineno, name):
        if name not in states and name not in system.controls:
            raise ParseError(lineno, f"undeclared automaton state {name!r}")

    for lineno, tokens in body:
        key = tokens[0]
        if key == "states":
            states.update(tokens[1:])
        elif key == "final":
            for name in tokens[1:]:
                need_state(lineno, name)
                finals.add(name)
        elif key == "trans":
            if len(tokens) != 4:
                raise ParseError(lineno, "trans syntax: trans s A t")
            s, a, t = tokens[1:]
            need_state(lineno, s)
            need_state(lineno, t)
            if a not in system.alphabet:
                raise ParseError(lineno, f"undeclared stack symbol {a!r}")
            trans.add((s, a, t))
        elif key == "alttrans":
            if len(tokens) < 6 or tokens[3] != "{" or tokens[-1] != "}":
                raise ParseError(lineno, "alttrans syntax: alttrans s A { t... }")
            s, a = tokens[1], tokens[2]
            targets = tokens[4:-1]
            need_state(lineno, s)
            for t in targets:
                need_state(lineno, t)
            if a not in system.alphabet:
                raise ParseError(lineno, f"undeclared stack symbol {a!r}")
            alttrans.add((s, a, frozenset(targets)))
        elif key == "embed":
            if len(tokens) != 3:
                raise ParseError(lineno, "embed syntax: embed p s")
            p, s = tokens[1], tokens[2]
            if p not in system.controls:
                raise ParseError(lineno, f"undeclared control state {p!r}")
            need_state(lineno, s)
            if p in embed:
                raise ParseError(lineno, f"duplicate embed for {p!r}")
            embed[p] = s
        else:
            raise ParseError(lineno, f"unknown keyword {key!r} in automaton section")
    # Every control is embedded; by default a control names its own state.
    for p in system.controls:
        embed.setdefault(p, p)
    states |= set(embed.values())
    states |= {s for s, _, _ in trans} | {t for _, _, t in trans}
    states |= {s for s, _, _ in alttrans} | {t for _, _, ts in alttrans for t in ts}
    if alternating:
        alttrans |= {(s, a, frozenset({t})) for s, a, t in trans}
        return games.ReachabilityCondition(AltAutomaton(
            frozenset(states), system.alphabet, frozenset(finals),
            frozenset(alttrans)), embed)
    if alttrans:
        raise ParseError(0, "this command needs a nondeterministic automaton "
                            "(trans lines only)")
    return reachability.PAutomatonView(Nfa(
        frozenset(states), system.alphabet, frozenset(finals),
        frozenset(trans)), embed)


def _build_game(sections: dict, system: PushdownSystem, kind: str):
    body = sections.get("game")
    if body is None:
        raise ParseError(0, "this command needs a game section")
    owner, colours, buchi = {}, {}, set()
    for lineno, tokens in body:
        key = tokens[0]
        if key == "owner":
            if len(tokens) < 3 or tokens[1] not in ("E", "A"):
                raise ParseError(lineno, "owner syntax: owner E|A p...")
            for p in tokens[2:]:
                if p not in system.controls:
                    raise ParseError(lineno, f"undeclared control state {p!r}")
                if p in owner:
                    raise ParseError(lineno, f"duplicate owner for {p!r}")
                owner[p] = tokens[1]
        elif key == "colour":
            if len(tokens) != 3:
                raise ParseError(lineno, "colour syntax: colour p n")
            p, n = tokens[1], tokens[2]
            if p not in system.controls:
                raise ParseError(lineno, f"undeclared control state {p!r}")
            if p in colours:
                raise ParseError(lineno, f"duplicate colour for {p!r}")
            try:
                colours[p] = int(n)
            except ValueError:
                colours[p] = -1
            if colours[p] < 0:
                raise ParseError(
                    lineno, f"colour must be a non-negative integer: {n!r}")
        elif key == "final":
            for p in tokens[1:]:
                if p not in system.controls:
                    raise ParseError(lineno, f"undeclared control state {p!r}")
                buchi.add(p)
        else:
            raise ParseError(lineno, f"unknown keyword {key!r} in game section")
    missing = [p for p in system.controls if p not in owner]
    if missing:
        raise ParseError(0, f"controls without owner: {sorted(missing)}")
    if kind == "reachgame":
        condition = _build_automaton(sections, system, True)
    elif kind == "buchigame":
        condition = games.BuchiCondition(frozenset(buchi))
    else:
        missing = [p for p in system.controls if p not in colours]
        if missing:
            raise ParseError(0, f"controls without colour: {sorted(missing)}")
        condition = games.ParityCondition(colours,
                                          max(colours.values(), default=0))
    return games.PushdownGame(system, owner, condition)


def _parse_config(system: PushdownSystem, text: str) -> Configuration:
    if ":" not in text:
        raise ParseError(0, 'config syntax: "p : A B _" (top first, bottom last)')
    left, right = text.split(":", 1)
    control = left.strip()
    stack = tuple(right.split())
    if control not in system.controls:
        raise ParseError(0, f"unknown control state {control!r}")
    if not stack or stack[-1] != system.bottom:
        raise ParseError(0, "the stack must end with the bottom symbol")
    for a in stack:
        if a not in system.alphabet:
            raise ParseError(0, f"unknown stack symbol {a!r}")
    if system.bottom in stack[:-1]:
        raise ParseError(0, "the bottom symbol may only appear last")
    return Configuration(control, stack)


# ---------------------------------------------------------------------------
# Output


def _state_order(aut, embed):
    """``aut``'s states sorted by ``repr`` once, and what the output reads
    off that order: ``(rank, names, key)``.

    - ``rank`` maps each state to its place in that order, and lists the
      states in it.
    - ``names`` are stable printable names: embedded controls keep their
      own names, and the other states take ``s0``, ``s1``, ... in that
      order, skipping the names of controls, so that no printed state
      merges with a control's.
    - ``key`` sorts ``aut``'s transitions as ``repr`` sorts them, from int
      ranks, a symbol's rank being its place in the ``repr`` order of the
      alphabet.  A transition's key is the int made of its source, symbol
      and target ranks, or for an alternating transition the int of its
      source and symbol with its target ranks sorted (the ``repr`` of a
      frozenset of targets lists them in hash order, which varies with the
      hash seed).

    Ranks give the order of ``repr`` because every state's ``repr`` is
    unique and none is a proper prefix of another's, so the ``repr``s of
    two transitions first differ inside the first part in which they
    differ.  The states the command can hold are the document's strings,
    and around them post*'s ``_PushState(control='q', symbol='B')``, the
    clones ``('clone', 's')`` of ``reachability._repaired``, a parity or
    Büchi region's ``('p', 0)``, and ``s_star`` and ``s_bot``.  A string's
    ``repr`` is quoted, and its quote appears unescaped only at its end, so
    two different string ``repr``s with the same quote are not prefixes of
    each other, and with different quotes they differ at once.  Each other
    kind begins with its own character (``_``, ``(`` or ``s``) and is fixed
    text around string ``repr``s and the ``0``, closed by ``)``; the two
    sentinels differ at their third character."""
    rank = {s: i for i, s in enumerate(sorted(aut.states, key=repr))}
    names = {state: str(control) for control, state
             in sorted(embed.items(), key=lambda kv: str(kv[0]))}
    taken = {str(control) for control in embed}
    fresh = (name for name in map("s{}".format, itertools.count())
             if name not in taken)
    names.update(zip((s for s in rank if s not in names), fresh))
    symbols = {a: i for i, a in enumerate(sorted(aut.alphabet, key=repr))}
    width, n = len(symbols), len(rank)
    if isinstance(aut, Nfa):
        def key(transition):
            s, a, t = transition
            return (rank[s] * width + symbols[a]) * n + rank[t]
    else:
        def key(transition):
            s, a, targets = transition
            return (rank[s] * width + symbols[a],
                    sorted([rank[t] for t in targets]))
    return rank, names, key


def _emit_automaton(aut, embed):
    """The lines of a P-automaton (``trans``) or a region (``alttrans``)
    with its ``embed`` of controls, in the input format."""
    _, names, key = _state_order(aut, embed)
    yield "automaton\n"
    yield "states " + " ".join(sorted(set(names.values()))) + "\n"
    if aut.finals:
        yield "final " + " ".join(sorted(names[s] for s in aut.finals)) + "\n"
    if isinstance(aut, Nfa):
        for s, a, t in sorted(aut.transitions, key=key):
            yield f"trans {names[s]} {a} {names[t]}\n"
    else:
        for s, a, targets in sorted(aut.transitions, key=key):
            ts = " ".join(sorted(names[t] for t in targets))
            yield f"alttrans {names[s]} {a} {{ {ts} }}\n"
    for p, s in sorted(embed.items(), key=lambda kv: str(kv[0])):
        yield f"embed {p} {names[s]}\n"


def _cut_orders(tag, step, start, ends):
    """One side of a relation, given by its step index ``step`` and its
    ``start``, cut once for each set of final states in ``ends``.  Each cut
    is ``(tag, start, states, transitions)``: its states as ``(name,
    final)`` and its transitions as ``(name, symbol, name)``, both in the
    order of ``repr``, with the states named ``s0``, ``s1``, ... in that
    order, and ``start`` the name of the start state.

    A cut keeps the states on a path from the start to its finals (the
    start too: each side reads every boundary state from its start), and
    every transition of the side between them.  So one forward search
    serves every cut, the side's states and transitions are each sorted
    once, and each cut filters those orders: a transition is its own when
    it names both ends."""
    transitions = sorted(((s, a, t) for (s, a), ts in step.items()
                          for t in ts), key=repr)
    out, into = {}, {}
    for s, a, t in transitions:
        out.setdefault(s, []).append((a, t))
        into.setdefault(t, []).append((a, s))
    fwd = _reach(out, {start})
    states = sorted(fwd, key=repr)
    for finals in ends:
        keep = _reach(into, finals & fwd, within=fwd)
        names = {s: f"s{i}" for i, s in enumerate(
            s for s in states if s in keep)}
        yield (tag, names[start],
               [(name, s in finals) for s, name in names.items()],
               [(names[s], a, names[t]) for s, a, t in transitions
                if s in names and t in names])


def _relation_sides(rel):
    """Each pair of ``rel`` as its index and its pop and push sides, each
    side as ``_cut_orders`` gives it: the pair of boundary state q ends in
    q on the pop side, and on the push side in q, and also in the push
    start when q is final."""
    v_start = rel.V_START
    return enumerate(zip(
        _cut_orders("pop", rel.u_step, rel.u_start,
                    [{q} for q in rel.boundary]),
        _cut_orders("push", rel.v_step, v_start,
                    [{q, v_start} if q in rel.finals else {q}
                     for q in rel.boundary])))


def _emit_relation(rel):
    yield "relation\n"
    for i, sides in _relation_sides(rel):
        yield f"pair {i}\n"
        for tag, start, states, transitions in sides:
            yield f"{tag} start {start}\n"
            finals = sorted(name for name, final in states if final)
            if finals:
                yield f"{tag} final " + " ".join(finals) + "\n"
            for s, a, t in transitions:
                yield f"{tag} trans {s} {a} {t}\n"


def _dot_escape(name) -> str:
    """``name`` as a quoted dot id: each backslash doubled first, then each
    quote escaped, so no backslash of the name escapes a quote."""
    return '"' + str(name).replace("\\", "\\\\").replace('"', r'\"') + '"'


def _emit_automaton_dot(aut, embed):
    """``_emit_automaton``'s input as a dot graph; an alternating
    transition is a hyperedge through a point node."""
    rank, names, key = _state_order(aut, embed)
    names = {s: _dot_escape(name) for s, name in names.items()}
    alternating = not isinstance(aut, Nfa)
    yield "digraph region {\n" if alternating else "digraph pautomaton {\n"
    yield "  rankdir=LR;\n"
    for s in rank:
        shape = "doublecircle" if s in aut.finals else "circle"
        yield f"  {names[s]} [shape={shape}];\n"
    if not alternating:
        for s, a, t in sorted(aut.transitions, key=key):
            yield f"  {names[s]} -> {names[t]} [label={_dot_escape(a)}];\n"
    else:
        for i, (s, a, targets) in enumerate(sorted(aut.transitions, key=key)):
            yield f"  h{i} [shape=point];\n"
            yield f"  {names[s]} -> h{i} [label={_dot_escape(a)}];\n"
            for t in sorted(targets, key=rank.__getitem__):
                yield f"  h{i} -> {names[t]};\n"
    yield "}\n"


def _emit_relation_dot(rel):
    yield "digraph relation {\n  rankdir=LR;\n"
    for i, sides in _relation_sides(rel):
        for tag, _, states, transitions in sides:
            prefix = f"p{i}_{tag}_"
            yield f"  subgraph cluster_{i}_{tag} {{\n"
            yield f'    label="pair {i} {tag}";\n'
            for name, final in states:
                shape = "doublecircle" if final else "circle"
                yield f"    {_dot_escape(prefix + name)} [shape={shape}];\n"
            for s, a, t in transitions:
                yield (f"    {_dot_escape(prefix + s)} -> "
                       f"{_dot_escape(prefix + t)} [label={_dot_escape(a)}];\n")
            yield "  }\n"
    yield "}\n"


# ---------------------------------------------------------------------------
# Entry point


def _height(text: str) -> int:
    """An ``--oracle-check`` height: an integer of at least 1."""
    try:
        h = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if h < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1: {h}")
    return h


@functools.cache  # one fixed parser, built on the first call, not at import
def _make_parser():
    parser = argparse.ArgumentParser(prog="pdsat")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = ("prestar", "poststar", "deriv", "reachgame", "buchigame",
                "paritygame", "member")
    for name in commands:
        p = sub.add_parser(name)
        p.add_argument("--in", dest="infile", required=True)
        if name == "member":
            p.add_argument("--config", required=True)
            p.add_argument("--analysis", default="prestar",
                           choices=("prestar", "poststar", "reachgame",
                                    "buchigame", "paritygame"))
            continue
        p.add_argument("--out", dest="outfile")
        p.add_argument("--format", choices=("text", "dot"), default="text")
        p.add_argument("--oracle-check", dest="oracle_check", type=_height)
        if name == "deriv":
            p.add_argument("--from", dest="from_control", required=True)
            p.add_argument("--to", dest="to_control", required=True)
    return parser


def _write(handle, lines):
    """Write ``lines`` as they are made, joined a few thousand at a time, so
    that the output is never held whole and each write carries many lines."""
    while chunk := "".join(itertools.islice(lines, 4096)):
        handle.write(chunk)


def _inputs(args):
    """Read ``--in`` and build what the command runs on: ``(command,
    system, config, view or game)``, with ``command`` the analysis that
    ``member`` runs, ``config`` None but for ``member``, and neither view
    nor game for ``deriv``.  The document's sections die on return, before
    any analysis runs.  A leading UTF-8 byte-order mark is skipped."""
    with open(args.infile, encoding="utf-8-sig") as handle:
        system, sections = parse(handle.read())
    command, config = args.command, None
    if command == "member":
        config = _parse_config(system, args.config)
        command = args.analysis
    if command in ("prestar", "poststar"):
        built = _build_automaton(sections, system, False)
    elif command == "deriv":
        built = None
    else:
        built = _build_game(sections, system, command)
    return command, system, config, built


def _run(args) -> int:
    command, system, config, built = _inputs(args)
    h = getattr(args, "oracle_check", None)

    emit = {"text": _emit_automaton, "dot": _emit_automaton_dot}
    # deriv sets no membership test: neither member nor the oracle runs it.
    if command in ("prestar", "poststar"):
        # the bracket's steps check nothing: the system passed ``validate``
        # in ``parse``, and its seeds are bounded nodes
        saturate, step = ((reachability.prestar, _predecessors)
                          if command == "prestar"
                          else (reachability.poststar, _successors))
        result = saturate(system, built)
        member = result.accepts
        printed = result.aut, result.control_embed
    elif command == "deriv":
        if h is not None:
            raise InvalidInputError("--oracle-check is not supported for deriv")
        result = derivation.deriv_relation(system, args.from_control,
                                           args.to_control)
        emit = {"text": _emit_relation, "dot": _emit_relation_dot}
        printed = result,
    else:
        solve = {"reachgame": games.solve_reachability_game,
                 "buchigame": games.solve_buchi_game,
                 "paritygame": games.solve_parity_game}[command]
        result = solve(built)
        member = lambda c: games.region_member(result, c)
        printed = result.aut, result.entry

    if args.command == "member":
        answer = member(config)
        sys.stdout.write("yes\n" if answer else "no\n")
        return 0 if answer else 1
    if h is not None:
        if command in ("prestar", "poststar"):
            nodes = oracle.bounded_nodes(system, h)
            found = set(oracle._bounded_search(
                system, [c for c in nodes if built.accepts(c)], step, h))
            # a bounded search cannot refute an accepted node: its path may
            # climb above the bound, so every node is in the upper side
            under, over = found.__contains__, lambda c: True
            agreement = "oracle agreement"
        else:
            graph = oracle.bounded_graph(built, h)
            nodes = list(graph.edges)[1:]  # the sink, then ``bounded_nodes``
            under, over = (region.__contains__ for region
                           in oracle._regions(graph, built.condition))
            agreement = f"bracket agreement on {len(nodes)} nodes"
        # the first bounded node outside the oracle's bracket, in
        # ``bounded_nodes`` order
        bad = next((c for c in nodes if not under(c) <= member(c) <= over(c)),
                   None)
        if bad is not None:
            sys.stdout.write(f"oracle disagreement at {bad!r}\n")
            return 3
        sys.stdout.write(agreement + "\n")
    lines = emit[args.format](*printed)
    if args.outfile:
        with open(args.outfile, "w", newline="\n") as handle:
            _write(handle, lines)
    else:
        _write(sys.stdout, lines)
    return 0


def main(argv=None) -> int:
    args = _make_parser().parse_args(argv)
    try:
        return _run(args)
    except (ParseError, InvalidInputError, ResourceLimitError, OSError,
            UnicodeDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def _console() -> int:
    """The ``pdsat`` command and ``python -m pdsat.cli``: ``main`` with the
    cyclic collector switched off.  The command owns its process, which
    ends with the run, and a run leaves only a few hundred objects of
    cyclic garbage, so every full collection would walk the whole live
    heap (the rules, the automata, the worklist) to free almost nothing.
    ``main`` itself sets no collector policy: its callers own their
    processes."""
    gc.disable()
    return main()


if __name__ == "__main__":
    sys.exit(_console())
