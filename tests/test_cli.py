import gc
import os
import re
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import pytest

from conftest import make_rng, random_bottom_free_pds
from pdsat import (S_BOT, S_STAR, AltAutomaton, alt, alt_membership, cli,
                   deriv_relation, games)
from pdsat.automata import Nfa
from pdsat.oracle import bfs_prestar_member, bounded_nodes, bracket_region
from pdsat.reachability import _CLONE, _PushState
from reference import (emit_automaton_by_repr, emit_automaton_dot_by_repr,
                       emit_relation_dot_pairwise, emit_relation_pairwise)

REACH_DOC = """\
pds
states p q
alphabet A B
bottom _
rule p A -> p
rule p A -> q B A
rule q B -> p

automaton
states f
final f
trans p _ f
"""

GAME_DOC = """\
pds
states p q
alphabet A
bottom _
rule p A -> q
rule p _ -> p _
rule q A -> p A A
rule q _ -> q A _

game
owner E p
owner A q
final p
colour p 0
colour q 1
"""


# REACH_DOC's pds section with the starting language {(p, A _)}
POST_DOC = (REACH_DOC.split("automaton")[0]
            + "automaton\nstates m f\nfinal f\ntrans p A m\ntrans m _ f\n")


def test_parse_sections_and_comments():
    system, sections = cli.parse("# header\npds\nstates p  # trailing comment\n"
                                 "bottom _\ngame\nowner E p # comment\n")
    assert (system.controls, system.bottom) == ({"p"}, "_")
    assert sections == {"game": [(6, ["owner", "E", "p"])]}


def test_rules_share_one_string_per_declared_name():
    # names of two characters or more: CPython keeps one object per
    # 1-character string, but each line's split makes its own longer ones
    rules = "".join(f"rule {p} {a} -> {q} {w}\n" for p, a, q, w in
                    [("pp", "AA", "qq", ""), ("qq", "BB", "pp", "AA BB"),
                     ("pp", "BB", "pp", "BB"), ("qq", "__", "pp", "AA __")])
    system, _ = cli.parse(
        "pds\nstates pp qq\nstates pp\nalphabet AA BB\nbottom __\n" + rules)
    names = [name for rule in system.rules for name in
             (rule.from_control, rule.from_symbol, rule.to_control,
              *rule.pushed)]
    declared = {id(name) for name in system.controls | system.alphabet}
    assert len(system.rules) == 4 and len(declared) == 5
    assert len({id(name) for name in names}) == len(set(names)) == 5
    assert {id(name) for name in names} <= declared


def test_reading_holds_no_token_list_of_the_pds_section():
    # 800 controls with 10 rules each, pushing 0, 1 or 2 symbols; a reader
    # that listed every line's tokens before building the system peaked at
    # 5.95 MB on this document (Python 3.11), and the one-pass reader at
    # 2.05 MB, of which 1.19 MB is the system it returns
    lines = ["pds", "states " + " ".join(f"q{i:03}" for i in range(800)),
             "alphabet " + " ".join(f"A{j}" for j in range(9)), "bottom _"]
    for i in range(8000):
        pushed = "".join(f" A{(i + k) % 9}" for k in range(i % 3))
        lines.append(f"rule q{i // 10:03} A{i % 9} -> q{i * 7 % 800:03}{pushed}")
    text = "\n".join(lines) + "\nautomaton\nstates f\nfinal f\n"
    tracemalloc.start()
    try:
        system, _ = cli.parse(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(system.rules) == 8000
    assert peak < 3 * 2**20, f"{peak / 2**20:.2f} MB"


def test_parse_errors_carry_line_numbers():
    with pytest.raises(cli.ParseError) as err:
        cli.parse("states p\n")
    assert "line 1" in str(err.value)
    with pytest.raises(cli.ParseError) as err:
        cli.parse("pds\nbottom _\npds\n")
    assert "line 3" in str(err.value)
    with pytest.raises(cli.ParseError):
        cli.parse("automaton\n")  # no pds section


def test_build_pds_validates():
    with pytest.raises(cli.ParseError) as err:
        cli.parse("pds\nstates p\nbottom _\nrule p A -> p\n")
    assert "undeclared stack symbol" in str(err.value)
    with pytest.raises(cli.ParseError):
        cli.parse("pds\nstates p\nalphabet A\n")


def run_cli(tmp_path, doc, *args, capsys=None):
    path = tmp_path / "in.pds"
    path.write_text(doc)
    return cli.main([args[0], "--in", str(path), *args[1:]])


def test_member_exit_codes(tmp_path, capsys):
    assert run_cli(tmp_path, REACH_DOC, "member", "--config", "q : B A _") == 0
    assert capsys.readouterr().out.strip() == "yes"
    assert run_cli(tmp_path, REACH_DOC, "member", "--config", "q : A _") == 1
    assert capsys.readouterr().out.strip() == "no"


def test_parser_is_built_once_and_reused(tmp_path, capsys):
    parser = cli._make_parser()
    assert cli._make_parser() is parser
    # a failed parse leaves the shared parser as it was
    with pytest.raises(SystemExit):
        run_cli(tmp_path, REACH_DOC, "member", "--format", "dot")
    assert run_cli(tmp_path, REACH_DOC, "member", "--config", "q : A _") == 1
    assert run_cli(tmp_path, REACH_DOC, "prestar", "--format", "dot") == 0
    assert run_cli(tmp_path, REACH_DOC, "member", "--config", "q : B A _") == 0
    assert capsys.readouterr().out.splitlines()[-1] == "yes"
    assert cli._make_parser() is parser


def test_member_rejects_output_flags(tmp_path, capsys):
    for flag in (["--out", "out.pds"], ["--format", "dot"],
                 ["--oracle-check", "3"]):
        with pytest.raises(SystemExit) as exit_:
            run_cli(tmp_path, REACH_DOC, "member", "--config", "q : B A _", *flag)
        assert exit_.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_member_game_analysis(tmp_path, capsys):
    code = run_cli(tmp_path, GAME_DOC, "member", "--config", "p : A _",
                   "--analysis", "buchigame")
    assert code == 0
    code = run_cli(tmp_path, GAME_DOC, "member", "--config", "p : A _",
                   "--analysis", "paritygame")
    assert code == 0


def test_prestar_output_round_trips(tmp_path, capsys):
    out = tmp_path / "out.pds"
    code = run_cli(tmp_path, REACH_DOC, "prestar", "--out", str(out))
    assert code == 0
    text = out.read_text()
    assert text.startswith("automaton")
    # the emitted automaton section parses back under the same pds
    system, doc = cli.parse(REACH_DOC.split("automaton")[0] + text)
    view = cli._build_automaton(doc, system, False)
    from pdsat import Configuration
    assert view.accepts(Configuration("q", ("B", "A", "_")))
    assert not view.accepts(Configuration("q", ("A", "_")))


def test_poststar_output_round_trips(tmp_path, capsys):
    out = tmp_path / "out.pds"
    assert run_cli(tmp_path, POST_DOC, "poststar", "--out", str(out)) == 0
    text = out.read_text()
    assert "None" not in text  # no ε-labels in the saturated automaton
    system, back = cli.parse(POST_DOC.split("automaton")[0] + text)
    view = cli._build_automaton(back, system, False)
    from pdsat import Configuration
    for stack in [("A", "_"), ("_",)]:
        assert view.accepts(Configuration("p", stack))
    assert view.accepts(Configuration("q", ("B", "A", "_")))
    assert not view.accepts(Configuration("q", ("A", "_")))


def test_oracle_check_agreement(tmp_path, capsys):
    assert run_cli(tmp_path, REACH_DOC, "prestar", "--oracle-check", "4") == 0
    assert "oracle agreement" in capsys.readouterr().out
    assert run_cli(tmp_path, GAME_DOC, "buchigame", "--oracle-check", "3") == 0
    assert "bracket agreement" in capsys.readouterr().out


def test_oracle_check_height_below_one_rejected(tmp_path, capsys):
    # argparse refuses the height before the document is read
    for command in ("prestar", "poststar", "deriv", "reachgame", "buchigame",
                    "paritygame"):
        extra = ["--from", "p", "--to", "p"] if command == "deriv" else []
        for h in ("0", "-1"):
            with pytest.raises(SystemExit) as exit_:
                run_cli(tmp_path, REACH_DOC, command, "--oracle-check", h, *extra)
            assert exit_.value.code == 2
            assert "must be at least 1" in capsys.readouterr().err


def test_oracle_check_refuses_a_large_height_before_listing(tmp_path, capsys,
                                                             monkeypatch):
    def fail(*args):
        raise AssertionError("a bounded node was listed")

    # REACH_DOC has 2 * (2**18 - 1) configurations up to height 18
    monkeypatch.setattr(cli.oracle, "Configuration", fail)
    for command in ("prestar", "poststar"):
        assert run_cli(tmp_path, REACH_DOC, command, "--oracle-check", "18") == 2
        assert "more than 200000 nodes" in capsys.readouterr().err


def _disagreement(capsys):
    out = capsys.readouterr().out
    assert out.startswith("oracle disagreement at ")
    return out[len("oracle disagreement at "):].strip()


def test_oracle_disagreement_names_a_counterexample(tmp_path, capsys,
                                                   monkeypatch):
    # Each analysis is replaced by one returning too small a result; the
    # check must exit 3 and print a configuration the true result holds.
    h = 4
    system, doc = cli.parse(POST_DOC)
    view = cli._build_automaton(doc, system, False)
    nodes = bounded_nodes(system, h)
    sources = [c for c in nodes if view.accepts(c)]
    monkeypatch.setattr(cli.reachability, "prestar", lambda s, v: v)
    monkeypatch.setattr(cli.reachability, "poststar", lambda s, v: v)

    assert run_cli(tmp_path, POST_DOC, "prestar", "--oracle-check", str(h)) == 3
    missed = {repr(c) for c in nodes if not view.accepts(c)
              and bfs_prestar_member(system, view.accepts, c, h)}
    assert missed and _disagreement(capsys) in missed

    assert run_cli(tmp_path, POST_DOC, "poststar", "--oracle-check", str(h)) == 3
    missed = {repr(c) for c in nodes if not view.accepts(c)
              and any(bfs_prestar_member(system, c.__eq__, s, h)
                      for s in sources)}
    assert missed and _disagreement(capsys) in missed

    def empty_region(game):
        nowhere = alt(states={"x"}, alphabet=game.pds.alphabet)
        return games.RegionAutomaton(nowhere, dict.fromkeys(game.pds.controls, "x"))

    monkeypatch.setattr(games, "solve_buchi_game", empty_region)
    assert run_cli(tmp_path, GAME_DOC, "buchigame", "--oracle-check", "3") == 3
    game_system, game_doc = cli.parse(GAME_DOC)
    game = cli._build_game(game_doc, game_system, "buchigame")
    under, _ = bracket_region(game, 3)
    winning = {repr(c) for c in bounded_nodes(game.pds, 3) if under(c)}
    assert winning and _disagreement(capsys) in winning


def test_dot_output(tmp_path, capsys):
    assert run_cli(tmp_path, REACH_DOC, "prestar", "--format", "dot") == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")
    assert "->" in out
    assert run_cli(tmp_path, GAME_DOC, "buchigame", "--format", "dot") == 0
    out = capsys.readouterr().out
    assert "shape=point" in out  # hyperedges drawn through point nodes


# REACH_DOC with the controls renamed p\ and q", so that a name ends in a
# backslash and another holds a quote
ESCAPE_DOC = REACH_DOC.replace(" p", " p\\").replace(" q", ' q"')
# a dot id: a quoted string whose backslashes each escape one character
DOT_ID = re.compile(r'"(?:[^"\\]|\\.)*"')


def test_names_with_backslashes_and_quotes(tmp_path, capsys):
    # text: the names are printed as they are and parse back
    assert run_cli(tmp_path, ESCAPE_DOC, "prestar") == 0
    text = capsys.readouterr().out
    assert "embed p\\ " in text and 'embed q" ' in text
    system, doc = cli.parse(ESCAPE_DOC.split("automaton")[0] + text)
    view = cli._build_automaton(doc, system, False)
    from pdsat import Configuration
    assert view.accepts(Configuration('q"', ("B", "A", "_")))
    assert not view.accepts(Configuration('q"', ("A", "_")))
    # dot: every quoted id is terminated, and the ids spell the names
    assert run_cli(tmp_path, ESCAPE_DOC, "prestar", "--format", "dot") == 0
    lines = capsys.readouterr().out.splitlines()
    for line in lines:
        rest = DOT_ID.sub("", line)
        assert '"' not in rest and "\\" not in rest, line
    ids = {m for line in lines for m in DOT_ID.findall(line)}
    assert {'"p\\\\"', '"q\\""'} <= ids


# Names whose reprs share prefixes (q1, q10, q1x) or take either quote or
# a backslash
ODD_NAMES = ("q1", "q10", "q1x", "q1'", "it's", 'say"hi"', "both'\"",
             "back\\", "back\\\\")
ODD_SYMBOLS = ("A", "A1", "A'", 'A"', "\\", "_")


def test_ranked_output_lists_lines_in_repr_order():
    # automata over every kind of state the command prints, all at once:
    # the odd names, post*'s push states, the clones of a repaired view, a
    # parity region's (p, 0), S_STAR and S_BOT; each emitter must print
    # what the emitters that sorted by repr printed
    kinds = [list(ODD_NAMES),
             [_PushState(q, a) for q in ODD_NAMES[:5] for a in ODD_SYMBOLS[:3]],
             [(_CLONE, q) for q in ODD_NAMES],
             [(q, 0) for q in ODD_NAMES],
             [S_STAR, S_BOT]]
    every = [state for kind in kinds for state in kind]
    embed = {q: q for q in ODD_NAMES[:4]}
    rng = make_rng(45)
    for _ in range(30):
        states = set(rng.sample(every, rng.randint(2, len(every)))) \
            | set(embed.values())
        ordered = sorted(states, key=repr)
        finals = frozenset(rng.sample(ordered, 3))
        nfa_trans = frozenset(
            (rng.choice(ordered), rng.choice(ODD_SYMBOLS), rng.choice(ordered))
            for _ in range(60))
        alt_trans = frozenset(
            (rng.choice(ordered), rng.choice(ODD_SYMBOLS),
             frozenset(rng.sample(ordered, rng.randint(1, 4))))
            for _ in range(60))
        for aut in (Nfa(frozenset(states), frozenset(ODD_SYMBOLS), finals,
                        nfa_trans),
                    AltAutomaton(frozenset(states), frozenset(ODD_SYMBOLS),
                                 finals, alt_trans)):
            assert "".join(cli._emit_automaton(aut, embed)) == \
                emit_automaton_by_repr(aut, embed)
            assert "".join(cli._emit_automaton_dot(aut, embed)) == \
                emit_automaton_dot_by_repr(aut, embed)


# A system over the odd names whose view has transitions into controls and
# a final control, so that pre* and post* clone them, and whose push rules
# give post* its push states; its parity game's region holds (p, 0),
# S_STAR and S_BOT
ODD_DOC = (
    "pds\nstates " + " ".join(ODD_NAMES) + "\nalphabet "
    + " ".join(ODD_SYMBOLS) + "\nbottom _\n"
    + "".join(f"rule {p} {a} -> {q} {b} {c}\nrule {p} {b} -> {r}\n"
              f"rule {p} {c} -> {q} {a}\nrule {p} _ -> {r} {c} _\n"
              for p, q, r, a, b, c in zip(
                  ODD_NAMES, ODD_NAMES[1:] + ODD_NAMES[:1],
                  ODD_NAMES[3:] + ODD_NAMES[:3], ODD_SYMBOLS[:5] * 2,
                  ODD_SYMBOLS[1:5] * 3, ODD_SYMBOLS[2:5] * 3))
    + "automaton\nstates f\nfinal f q1x\ntrans q1 A q10\ntrans q10 A' f\n"
    "trans it's _ f\ntrans back\\ A1 q1\n"
    "game\nowner E " + " ".join(ODD_NAMES[::2]) + "\nowner A "
    + " ".join(ODD_NAMES[1::2]) + "\n"
    + "".join(f"colour {q} {i % 3}\n" for i, q in enumerate(ODD_NAMES)))


def test_ranked_output_of_results_on_odd_names():
    system, sections = cli.parse(ODD_DOC)
    view = cli._build_automaton(sections, system, False)
    with pytest.warns(UserWarning, match="cloning"):
        results = [cli.reachability.prestar(system, view),
                   cli.reachability.poststar(system, view)]
    region = games.solve_parity_game(
        cli._build_game(sections, system, "paritygame"))
    printed = [(r.aut, r.control_embed) for r in results] \
        + [(region.aut, region.entry)]
    states = set().union(*(aut.states for aut, _ in printed))
    assert any(isinstance(s, _PushState) for s in states)
    assert any(type(s) is tuple and s[0] is _CLONE for s in states)
    assert {S_STAR, S_BOT, ("q1", 0)} <= states
    for aut, embed in printed:
        assert "".join(cli._emit_automaton(aut, embed)) == \
            emit_automaton_by_repr(aut, embed)
        assert "".join(cli._emit_automaton_dot(aut, embed)) == \
            emit_automaton_dot_by_repr(aut, embed)


# Controls named like the printed names of unembedded states
COLLIDING_DOC = """\
pds
states s0 s1
alphabet A
bottom _
rule s0 A -> s1
rule s0 _ -> s0 A _

automaton
states m f
final f
trans s0 A m
trans m _ f

game
owner E s0
owner A s1
"""


@pytest.mark.parametrize("command", ["prestar", "reachgame"])
def test_printed_states_never_take_a_control_name(command, tmp_path, capsys):
    system, doc = cli.parse(COLLIDING_DOC)
    if command == "prestar":
        result = cli.reachability.prestar(
            system, cli._build_automaton(doc, system, False))
    else:
        result = games.solve_reachability_game(
            cli._build_game(doc, system, command))

    assert run_cli(tmp_path, COLLIDING_DOC, command) == 0
    _, back = cli.parse(COLLIDING_DOC.split("automaton")[0]
                     + capsys.readouterr().out)
    if command == "prestar":
        printed = cli._build_automaton(back, system, False).accepts
        expected = result.accepts
    else:
        target = cli._build_automaton(back, system, True)
        printed = lambda c: alt_membership(target.target, target.embed[c.control],
                                           c.stack)
        expected = lambda c: games.region_member(result, c)
    assert all(printed(c) == expected(c) for c in bounded_nodes(system, 4))

    assert run_cli(tmp_path, COLLIDING_DOC, command, "--format", "dot") == 0
    nodes = re.findall(r'^  ("[^"]*") \[shape=(?:double)?circle\];$',
                       capsys.readouterr().out, re.MULTILINE)
    assert len(set(nodes)) == len(nodes) == len(result.aut.states)


def outputs_under_hash_seeds(args, seeds):
    """The distinct outputs of ``pdsat args``, run in a fresh process under
    each hash seed."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    outputs = set()
    for seed in seeds:
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-m", "pdsat.cli", *args],
                             env=env, capture_output=True, check=True,
                             timeout=60)
        outputs.add(run.stdout)
    return outputs


def test_console_entry_prints_the_fixture():
    # python -m pdsat.cli runs the console entry, as the pdsat script does
    data = Path(__file__).parent / "data"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(
        cli.__file__)))
    run = subprocess.run([sys.executable, "-m", "pdsat.cli", "prestar", "--in",
                          str(data / "prestar.pds")],
                         env=env, capture_output=True, check=True, timeout=60)
    assert run.stdout == (data / "prestar.txt").read_bytes()
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    assert re.search(r'^pdsat = "pdsat\.cli:_console"$', pyproject, re.M)


def test_console_entry_runs_main_with_the_collector_off(monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "main", lambda: seen.append(gc.isenabled()) or 0)
    was = gc.isenabled()
    try:
        assert cli._console() == 0
    finally:
        if was:
            gc.enable()
    assert seen == [False]


def test_main_leaves_the_collector_as_it_found_it(tmp_path, capsys):
    was = gc.isenabled()
    try:
        for enabled in (True, False):
            if enabled:
                gc.enable()
            else:
                gc.disable()
            assert run_cli(tmp_path, REACH_DOC, "prestar") == 0
            assert gc.isenabled() is enabled
    finally:
        if was:
            gc.enable()


def test_a_pipe_closed_early_exits_2(tmp_path):
    # the output, far larger than a pipe holds, is written as it is made:
    # a reader that closes the pipe after the first line leaves pdsat
    # writing into a closed pipe, which is an error (exit code 2), with
    # standard output buffered or not
    n = 20_000
    path = tmp_path / "chain.pds"
    path.write_text(
        "pds\nstates p\nalphabet A\nbottom _\nrule p A -> p\n"
        "automaton\nstates " + " ".join(f"s{i}" for i in range(n + 1))
        + f"\nfinal s{n}\n"
        + "".join(f"trans s{i} A s{i + 1}\n" for i in range(n)))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(
        cli.__file__)))
    env.pop("PYTHONUNBUFFERED", None)
    for unbuffered in ({}, {"PYTHONUNBUFFERED": "1"}):
        proc = subprocess.Popen(
            [sys.executable, "-m", "pdsat.cli", "prestar", "--in", str(path)],
            env=dict(env, **unbuffered), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE)
        try:
            assert proc.stdout.readline() == b"automaton\n"
            proc.stdout.close()
            error = proc.stderr.read()
            assert proc.wait(timeout=60) == 2, unbuffered
        finally:
            proc.kill()
            proc.wait()
        assert error.startswith(b"error: ") and b"Broken pipe" in error


def test_game_output_independent_of_hash_seed():
    # The fixture's region has several alternating transitions with one
    # source and symbol; the CLI must print them in the same order, and wire
    # the same dot hyperedges, whatever the hash seed.
    fixture = Path(__file__).parent / "data" / "parity_game.pds"
    for fmt in ("text", "dot"):
        outputs = outputs_under_hash_seeds(
            ["paritygame", "--in", str(fixture), "--format", fmt],
            ("1", "2", "3"))
        assert len(outputs) == 1, fmt


TIE_DOC = ("pds\nstates p q r\nalphabet A B C BC\nbottom _\n"
           "rule p A -> q B C\nrule p A -> q BC\nrule q C -> r\n"
           "rule q B -> r\nrule q BC -> r\nrule r B -> r\n")


def test_deriv_output_independent_of_hash_seed(tmp_path):
    # The two rules on (p, A) push "B C" and "BC", so their reprs are equal:
    # the behaviour automaton must number their states alike, and the CLI
    # print the same relation, whatever the hash seed.
    doc = tmp_path / "tie.pds"
    doc.write_text(TIE_DOC)
    outputs = outputs_under_hash_seeds(
        ["deriv", "--in", str(doc), "--from", "p", "--to", "r"],
        ("0", "5", "9"))
    assert len(outputs) == 1


POPS_DOC = ("pds\nstates p q r\nalphabet A\nbottom _\n"
            "rule p _ -> q\nrule q _ -> r\nrule r _ -> p\n")

# Every error message below names several rules or controls, or one of
# several: the labels outside the view's alphabet that pre* adds.
SEVERAL_ERRORS = """\
import sys
from pdsat import (ABELARD, BuchiCondition, Configuration, ELOISE, Nfa,
                   PAutomatonView, ParityCondition, PushdownGame,
                   ReachabilityCondition, alt, cli, pds, prestar,
                   singleton_view, solve_buchi_game, solve_parity_game,
                   solve_reachability_game)
sys.stderr = sys.stdout
cli.main(["prestar", "--in", sys.argv[1]])
system = pds([f"p{i}" for i in range(8)], ["A"], bottom="_")
owner = dict.fromkeys(system.controls, ELOISE)
target = alt(states=["f"], alphabet=["A", "_"], finals=["f"])
view = singleton_view(system, Configuration("p0", ("_",)))
pops = pds(bottom="_", rules=[("p", a, "q", ()) for a in "CAB"])
single = singleton_view(pops, Configuration("q", ("_",))).aut
narrow = Nfa(single.states, frozenset("_"), single.finals, single.transitions)
for attempt in (
        lambda: solve_buchi_game(PushdownGame(
            system, {"p0": ABELARD}, BuchiCondition(frozenset()))),
        lambda: solve_parity_game(PushdownGame(
            system, owner, ParityCondition({"p0": 0}, 1))),
        lambda: solve_buchi_game(PushdownGame(system, owner, BuchiCondition(
            frozenset(f"x{i}" for i in range(8))))),
        lambda: solve_reachability_game(PushdownGame(
            system, owner, ReachabilityCondition(target, {}))),
        lambda: prestar(system, PAutomatonView(view.aut, {})),
        lambda: prestar(pops, PAutomatonView(
            narrow, {"p": ("ctrl", "p"), "q": ("ctrl", "q")}))):
    try:
        attempt()
    except Exception as exc:
        print(exc)
"""


def test_errors_naming_several_things_are_independent_of_hash_seed(tmp_path):
    doc = tmp_path / "pops.pds"
    doc.write_text(POPS_DOC)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(
        cli.__file__)))
    outputs = set()
    for seed in ("0", "1"):
        run = subprocess.run(
            [sys.executable, "-c", SEVERAL_ERRORS, str(doc)],
            env=dict(env, PYTHONHASHSEED=seed), capture_output=True,
            check=True, timeout=60)
        outputs.add(run.stdout)
    (output,) = outputs
    assert output.decode().splitlines() == [
        "error: line 0: rule (p,_)->(q,ε): pops bottom; "
        "rule (q,_)->(r,ε): pops bottom; rule (r,_)->(p,ε): pops bottom",
        "control has no owner: 'p1'",
        "control has no colour: 'p1'",
        "unknown Büchi controls: ['x0', 'x1', 'x2', 'x3', 'x4', 'x5', "
        "'x6', 'x7']",
        "control not embedded in target: 'p0'",
        "controls not embedded: ['p0', 'p1', 'p2', 'p3', 'p4', 'p5', "
        "'p6', 'p7']",
        "transition label not in alphabet: 'A'"]


def test_deriv_emitters_match_pairwise_reference():
    # the emitters sort each side of the relation once and cut every pair
    # from that order; the reference sorts each pair on its own
    relations = [deriv_relation(cli.parse(TIE_DOC)[0], "p", "r")]
    rng = make_rng(83)
    for _ in range(100):
        system = random_bottom_free_pds(
            rng, n_controls=rng.randint(2, 4), n_symbols=rng.randint(1, 3),
            n_rules=rng.randint(3, 10))
        controls = sorted(system.controls)
        relations.append(deriv_relation(system, rng.choice(controls),
                                        rng.choice(controls)))
    for rel in relations:
        assert "".join(cli._emit_relation(rel)) == \
            emit_relation_pairwise(rel)
        assert "".join(cli._emit_relation_dot(rel)) == \
            emit_relation_dot_pairwise(rel)
    # not vacuous: at least 50 systems print pairs, many several
    assert len(relations[0].boundary) > 1
    assert sum(len(rel.boundary) > 0 for rel in relations[1:]) >= 50
    assert sum(len(rel.boundary) > 1 for rel in relations[1:]) >= 30
    # both shapes of a push side: a final boundary state, whose push side
    # also accepts at its start, and a boundary state that is not final
    assert sum(q in rel.finals
               for rel in relations[1:] for q in rel.boundary) >= 30
    assert sum(q not in rel.finals
               for rel in relations[1:] for q in rel.boundary) >= 30


def test_deriv_emitters_build_no_automaton(monkeypatch):
    # each printed pair is cut from the relation's two sides: no pair is
    # built as an automaton of its own
    fixture = Path(__file__).parent / "data" / "deriv.pds"
    system, _ = cli.parse(fixture.read_text())
    rel = deriv_relation(system, "q0", "q3")
    assert len(rel.boundary) > 1

    def fail(self):
        raise AssertionError("an automaton was built")

    monkeypatch.setattr(Nfa, "__post_init__", fail)
    assert "".join(cli._emit_relation(rel)) == \
        (fixture.parent / "deriv.txt").read_text()
    assert "".join(cli._emit_relation_dot(rel)) == \
        (fixture.parent / "deriv.dot").read_text()


def test_deriv_command(tmp_path, capsys):
    doc = ("pds\nstates p\nalphabet A B C D\nbottom _\n"
           "rule p A -> p\nrule p B -> p D C\n")
    code = run_cli(tmp_path, doc, "deriv", "--from", "p", "--to", "p")
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("relation")
    assert "pair" in out


def test_deriv_unknown_control_named(capsys):
    data = Path(__file__).parent / "data"
    assert cli.main(["deriv", "--in", str(data / "deriv.pds"),
                     "--from", "zz", "--to", "q3"]) == 2
    assert "unknown control: 'zz'" in capsys.readouterr().err


def test_oracle_check_refutes_a_region_above_the_bracket(capsys, monkeypatch):
    # Each game solver is replaced by one returning every configuration; the
    # check must exit 3 and name the first bounded node outside the upper
    # side of the bracket.
    def everywhere(game):
        alphabet = game.pds.alphabet
        every = alt(states={"x"}, alphabet=alphabet, finals={"x"},
                    transitions=[("x", a, {"x"}) for a in alphabet])
        return games.RegionAutomaton(every, dict.fromkeys(game.pds.controls, "x"))

    monkeypatch.setattr(games, "solve_reachability_game", everywhere)
    monkeypatch.setattr(games, "solve_buchi_game", everywhere)
    data = Path(__file__).parent / "data"
    for command, won, listed in (("reachgame", 9, 65), ("buchigame", 6, 78)):
        path = data / f"{command}.pds"
        system, doc = cli.parse(path.read_text())
        game = cli._build_game(doc, system, command)
        _, over = bracket_region(game, 3)
        nodes = bounded_nodes(game.pds, 3)
        assert (sum(map(over, nodes)), len(nodes)) == (won, listed)
        assert cli.main([command, "--in", str(path), "--oracle-check", "3"]) == 3
        assert _disagreement(capsys) == next(repr(c) for c in nodes
                                             if not over(c))


# Each fixture document comes with the bytes the command printed for it,
# as text (.txt) and as dot (.dot)
FIXTURES = {"prestar": ("prestar", []), "poststar": ("poststar", []),
            "deriv": ("deriv", ["--from", "q0", "--to", "q3"]),
            "reachgame": ("reachgame", []), "buchigame": ("buchigame", []),
            "paritygame": ("parity_game", [])}


@pytest.mark.parametrize("command", FIXTURES)
def test_output_matches_fixture(command, capsys):
    data = Path(__file__).parent / "data"
    name, extra = FIXTURES[command]
    for fmt, suffix in (("text", ".txt"), ("dot", ".dot")):
        assert cli.main([command, "--in", str(data / f"{name}.pds"), *extra,
                         "--format", fmt]) == 0
        assert capsys.readouterr().out.encode() == \
            (data / f"{name}{suffix}").read_bytes()


class _Document(dict):
    """The sections a parse keeps (the automaton and game lines), as a dict
    that a weak reference can follow."""


# the analysis each command's run calls, as (module, name)
ANALYSES = {"prestar": (cli.reachability, "prestar"),
            "poststar": (cli.reachability, "poststar"),
            "deriv": (cli.derivation, "deriv_relation"),
            "reachgame": (games, "solve_reachability_game")}


@pytest.mark.parametrize("command", ANALYSES)
def test_parsed_document_dies_before_the_analysis(command, capsys,
                                                  monkeypatch):
    documents, ran = [], []
    parse = cli.parse

    def traced_parse(text):
        system, sections = parse(text)
        doc = _Document(sections)
        documents.append(weakref.ref(doc))
        return system, doc

    module, name = ANALYSES[command]
    analysis = getattr(module, name)

    def checked(*args):
        gc.collect()
        assert [ref() for ref in documents] == [None], \
            "the parsed document outlived the build of its inputs"
        ran.append(name)
        return analysis(*args)

    monkeypatch.setattr(cli, "parse", traced_parse)
    monkeypatch.setattr(module, name, checked)
    data = Path(__file__).parent / "data"
    doc, extra = FIXTURES[command]
    assert cli.main([command, "--in", str(data / f"{doc}.pds"), *extra]) == 0
    assert ran == [name]
    assert capsys.readouterr().out.encode() == \
        (data / f"{doc}.txt").read_bytes()


def test_paritygame_with_a_large_colour(tmp_path, capsys):
    # Colours {0, 0, 3001} compress to the ranks of {0, 0, 3}, so the region
    # is the fixture's; the nest used to recurse once per colour up to 3001
    # and fail with a RecursionError.
    data = Path(__file__).parent / "data"
    doc = (data / "parity_game.pds").read_text()
    assert "colour q2 3\n" in doc
    path = tmp_path / "large_colour.pds"
    path.write_text(doc.replace("colour q2 3\n", "colour q2 3001\n"))
    assert cli.main(["paritygame", "--in", str(path)]) == 0
    assert capsys.readouterr().out.encode() == \
        (data / "parity_game.txt").read_bytes()


def test_reachgame_oracle_check_computes_the_target_set_once(capsys,
                                                            monkeypatch):
    # one alt_membership per bounded node for both solves of the bracket
    calls = []
    membership = cli.oracle.alt_membership

    def counted(*args):
        calls.append(args)
        return membership(*args)

    monkeypatch.setattr(cli.oracle, "alt_membership", counted)
    data = Path(__file__).parent / "data"
    assert cli.main(["reachgame", "--in", str(data / "reachgame.pds"),
                     "--oracle-check", "4"]) == 0
    assert len(calls) == 200
    assert capsys.readouterr().out.encode() == \
        b"bracket agreement on 200 nodes\n" \
        + (data / "reachgame.txt").read_bytes()


@pytest.mark.parametrize("command", [c for c in FIXTURES if c != "deriv"])
def test_oracle_check_lists_the_bounded_nodes_once(command, capsys,
                                                   monkeypatch):
    # one list of the bounded nodes gives a search its seeds, or a game its
    # graph, and the nodes that the check compares
    heights = []
    listing = cli.oracle.bounded_nodes

    def counted(system, h):
        heights.append(h)
        return listing(system, h)

    monkeypatch.setattr(cli.oracle, "bounded_nodes", counted)
    data = Path(__file__).parent / "data"
    name, _ = FIXTURES[command]
    assert cli.main([command, "--in", str(data / f"{name}.pds"),
                     "--oracle-check", "3"]) == 0
    assert heights == [3]
    agreement, printed = capsys.readouterr().out.encode().split(b"\n", 1)
    assert b"agreement" in agreement
    assert printed == (data / f"{name}.txt").read_bytes()


def test_deriv_oracle_check_rejected_before_analysis(tmp_path, capsys, monkeypatch):
    def fail(*args):
        raise AssertionError("deriv_relation ran before the flag was rejected")

    monkeypatch.setattr(cli.derivation, "deriv_relation", fail)
    doc = "pds\nstates p\nalphabet A\nbottom _\nrule p A -> p\n"
    code = run_cli(tmp_path, doc, "deriv", "--from", "p", "--to", "p",
                   "--oracle-check", "3")
    assert code == 2
    assert "--oracle-check is not supported for deriv" in capsys.readouterr().err


def test_bad_input_exit_code(tmp_path, capsys):
    assert run_cli(tmp_path, "pds\nstates p\nrule p A -> p\n", "prestar") == 2
    assert "error:" in capsys.readouterr().err
    assert cli.main(["prestar", "--in", str(tmp_path / "missing.pds")]) == 2


# Lines 1-4 of every document below
HEAD = "pds\nstates p q\nalphabet A\nbottom _\n"
AUT = HEAD + "automaton\nstates f\nfinal f\n"  # lines 5-7
GAME = HEAD + "game\nowner E p q\n"  # lines 5-6

# (document, arguments, line, message): one row per parse error message of
# the pds, automaton and game sections and of --config; line 0 stands for
# the whole document
PARSE_ERRORS = [
    (HEAD + "bottom _ _\n", ["prestar"], 5,
     "bottom takes exactly one symbol"),
    (HEAD + "bottom _\n", ["prestar"], 5, "duplicate bottom declaration"),
    (HEAD + "rule p A q\n", ["prestar"], 5,
     "rule syntax: rule p A -> q [B [C]]"),
    (HEAD + "rule p A -> q A A A\n", ["prestar"], 5,
     "a rule may push at most two symbols"),
    (HEAD + "rule p A -> r\n", ["prestar"], 5,
     "undeclared control state 'r'"),
    (HEAD + "rule p B -> q\n", ["prestar"], 5, "undeclared stack symbol 'B'"),
    (HEAD + "stack A\n", ["prestar"], 5,
     "unknown keyword 'stack' in pds section"),
    ("pds\nstates p\nalphabet A\n", ["prestar"], 0,
     "pds section declares no bottom symbol"),
    (HEAD + "rule p _ -> q\n", ["prestar"], 0, "rule (p,_)->(q,ε): pops bottom"),
    (HEAD, ["prestar"], 0, "this command needs an automaton section"),
    (AUT + "final g\n", ["prestar"], 8, "undeclared automaton state 'g'"),
    (AUT + "trans p A\n", ["prestar"], 8, "trans syntax: trans s A t"),
    (AUT + "trans p B f\n", ["prestar"], 8, "undeclared stack symbol 'B'"),
    (AUT + "alttrans p A f\ngame\nowner E p q\n", ["reachgame"], 8,
     "alttrans syntax: alttrans s A { t... }"),
    (AUT + "alttrans p B { f }\ngame\nowner E p q\n", ["reachgame"], 8,
     "undeclared stack symbol 'B'"),
    (AUT + "embed p\n", ["prestar"], 8, "embed syntax: embed p s"),
    (AUT + "embed r f\n", ["prestar"], 8, "undeclared control state 'r'"),
    (AUT + "embed p p\nembed p p\n", ["prestar"], 9,
     "duplicate embed for 'p'"),
    (AUT + "transition p A f\n", ["prestar"], 8,
     "unknown keyword 'transition' in automaton section"),
    (AUT + "alttrans p A { f }\n", ["prestar"], 0,
     "this command needs a nondeterministic automaton (trans lines only)"),
    (HEAD, ["buchigame"], 0, "this command needs a game section"),
    (GAME + "owner X p\n", ["buchigame"], 7, "owner syntax: owner E|A p..."),
    (GAME + "owner A r\n", ["buchigame"], 7, "undeclared control state 'r'"),
    (GAME + "owner A p\n", ["buchigame"], 7, "duplicate owner for 'p'"),
    (GAME + "colour p\n", ["paritygame"], 7, "colour syntax: colour p n"),
    (GAME + "colour r 0\n", ["paritygame"], 7, "undeclared control state 'r'"),
    (GAME + "colour p 0\ncolour p 0\n", ["paritygame"], 8,
     "duplicate colour for 'p'"),
    (GAME + "colour p x\n", ["paritygame"], 7,
     "colour must be a non-negative integer: 'x'"),
    (GAME + "final r\n", ["buchigame"], 7, "undeclared control state 'r'"),
    (GAME + "color p 0\n", ["paritygame"], 7,
     "unknown keyword 'color' in game section"),
    (HEAD + "game\nowner E p\n", ["buchigame"], 0,
     "controls without owner: ['q']"),
    (GAME + "colour p 0\n", ["paritygame"], 0,
     "controls without colour: ['q']"),
    (HEAD, ["member", "--config", "p _"], 0,
     'config syntax: "p : A B _" (top first, bottom last)'),
    (HEAD, ["member", "--config", "r : _"], 0, "unknown control state 'r'"),
    (HEAD, ["member", "--config", "p : A"], 0,
     "the stack must end with the bottom symbol"),
    (HEAD, ["member", "--config", "p : B _"], 0, "unknown stack symbol 'B'"),
    (HEAD, ["member", "--config", "p : _ _"], 0,
     "the bottom symbol may only appear last"),
]


def test_parse_errors_exit_2_naming_their_line(tmp_path, capsys):
    for doc, args, lineno, message in PARSE_ERRORS:
        assert run_cli(tmp_path, doc, *args) == 2, (doc, args)
        assert capsys.readouterr().err == \
            f"error: line {lineno}: {message}\n", (doc, args)
    with pytest.raises(SystemExit) as exit_:
        run_cli(tmp_path, HEAD, "prestar", "--oracle-check", "x")
    assert exit_.value.code == 2
    assert "not an integer: 'x'" in capsys.readouterr().err


# (document, line, message): documents with several errors, each reporting
# the error that a reader of the whole document's sections first, and of
# the pds lines after it, reported: a structural error (a duplicate or
# missing section) before any error inside the pds section, and then the
# first of those, before a missing bottom and before ``validate``
SEVERAL_PARSE_ERRORS = [
    (HEAD + "rule p A q\npds\n", 6, "duplicate section 'pds'"),
    ("pds\nstates p q\nalphabet A\nrule p A q\n", 4,
     "rule syntax: rule p A -> q [B [C]]"),
    (HEAD + "rule p B -> q\nautomaton\nstates f\nautomaton\n", 8,
     "duplicate section 'automaton'"),
    ("automaton\nstates f\ngame\nowner E p\n", 0,
     "document has no pds section"),
    (HEAD + "rule p _ -> q\nrule p A -> r\n", 6,
     "undeclared control state 'r'"),
    (HEAD + "stack A\nbottom _ _\n", 5,
     "unknown keyword 'stack' in pds section"),
    ("automaton\nstates f\npds\nstates p\nbottom _\nrule p A q\n", 6,
     "rule syntax: rule p A -> q [B [C]]"),
    (HEAD + "rule p A q\nautomaton\nstates f\nfinal g\n", 5,
     "rule syntax: rule p A -> q [B [C]]"),
]


def test_several_parse_errors_report_the_first_by_precedence(tmp_path,
                                                             capsys):
    for doc, lineno, message in SEVERAL_PARSE_ERRORS:
        assert run_cli(tmp_path, doc, "prestar") == 2, doc
        assert capsys.readouterr().err == \
            f"error: line {lineno}: {message}\n", doc


def test_input_that_is_not_utf8_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.pds"
    path.write_bytes(b"pds\nstates p\nalphabet A\nbottom _\n# \xff\n")
    for args in (["member", "--config", "p : _"], ["prestar"]):
        assert cli.main([args[0], "--in", str(path), *args[1:]]) == 2
        assert "error: 'utf-8' codec can't decode" in capsys.readouterr().err


def test_input_with_a_byte_order_mark(tmp_path, capsys):
    # a leading UTF-8 byte-order mark is no text; one anywhere else is
    path = tmp_path / "bom.pds"
    path.write_bytes(b"\xef\xbb\xbf" + REACH_DOC.encode())
    assert cli.main(["prestar", "--in", str(path)]) == 0
    with_mark = capsys.readouterr().out
    assert run_cli(tmp_path, REACH_DOC, "prestar") == 0
    assert capsys.readouterr().out == with_mark
    path.write_bytes(b"\xef\xbb\xbf" * 2 + REACH_DOC.encode())
    assert cli.main(["prestar", "--in", str(path)]) == 2
    assert capsys.readouterr().err == \
        "error: line 1: content before any section: '\\ufeffpds'\n"


def test_input_without_a_byte_order_mark_reads_as_utf8(tmp_path, capsys):
    # only a leading mark is dropped: a document's first character is kept
    path = tmp_path / "in.pds"
    path.write_bytes(("\u00e9" + REACH_DOC).encode())
    assert cli.main(["prestar", "--in", str(path)]) == 2
    assert capsys.readouterr().err == \
        "error: line 1: content before any section: '\u00e9pds'\n"
    path.write_bytes(REACH_DOC.replace("q", "\u00e9").encode())
    assert cli.main(["prestar", "--in", str(path)]) == 0
    assert "embed \u00e9 \u00e9\n" in capsys.readouterr().out


def test_controls_sharing_an_embedded_state_rejected(tmp_path, capsys):
    # p has no rule on A, so p : A _ is in neither pre* nor the region
    doc = ("pds\nstates p q\nalphabet A\nbottom _\nrule q A -> q\n"
           "automaton\nstates e f\ntrans e _ f\nfinal f\n"
           "embed p e\nembed q e\ngame\nowner E p q\n")
    for analysis in ("prestar", "poststar", "reachgame"):
        assert run_cli(tmp_path, doc, "member", "--config", "p : A _",
                       "--analysis", analysis) == 2
        assert "'p' and 'q' share the embedded state 'e'" in \
            capsys.readouterr().err


def test_paritygame_without_controls(tmp_path, capsys):
    doc = "pds\nalphabet A\nbottom _\ngame\n"
    assert run_cli(tmp_path, doc, "buchigame") == 0
    buchi = capsys.readouterr().out
    assert run_cli(tmp_path, doc, "paritygame") == 0
    assert capsys.readouterr().out == buchi


def test_game_section_required(tmp_path, capsys):
    assert run_cli(tmp_path, REACH_DOC, "buchigame") == 2
    assert "game section" in capsys.readouterr().err


def test_reachgame_uses_automaton_target(tmp_path, capsys):
    doc = GAME_DOC + "\nautomaton\nstates f\nfinal f\ntrans q _ f\n"
    code = run_cli(tmp_path, doc, "member", "--config", "p : A _",
                   "--analysis", "reachgame")
    # p can pop its A straight into q at the bottom
    assert code == 0


def test_duplicate_colour_rejected(tmp_path, capsys):
    # GAME_DOC ends with the colour lines 14-15; a second colour for p is
    # line 16, even when it is the same value
    for extra in ("colour p 1\n", "colour p 0\n"):
        assert run_cli(tmp_path, GAME_DOC + extra, "paritygame") == 2
        err = capsys.readouterr().err
        assert "line 16" in err and "duplicate colour for 'p'" in err


def test_negative_colour_rejected_at_its_line(tmp_path, capsys):
    doc = GAME_DOC.replace("colour q 1", "colour q -1")
    assert run_cli(tmp_path, doc, "paritygame") == 2
    err = capsys.readouterr().err
    assert "line 15" in err and "colour must be a non-negative integer" in err
    assert "has no colour" not in err
    assert run_cli(tmp_path, GAME_DOC.replace("colour q 1", "colour q x"),
                   "paritygame") == 2
    assert "line 15" in capsys.readouterr().err
