"""The ladder tools' shared command line (tools/ladder.py) on a throwaway
rung script: a rung that fails, prints no result line or is missing from
the record is reported as a bad rung, and the rungs after it still run; a rung may answer all one
way only beside an exact route.  A ladder tool refuses a rung name it does
not know."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"
sys.path.insert(0, str(TOOLS))
import ladder  # noqa: E402

RUNG_SCRIPT = """\
import json, sys
rung = sys.argv[sys.argv.index("--measure") + 1]
if rung == "bad":
    sys.exit("rung bad broke")
if rung == "mute":  # exits 0 without a result line
    sys.exit(0)
if rung == "garbled":
    print("done, no JSON")
    sys.exit(0)
print(json.dumps({"rung": rung, "answers": 2, "members": 1, "sha": "ab"}))
"""
FIELDS = ("members", "sha")


def run_main(monkeypatch, tmp_path, *argv, rungs=RUNG_SCRIPT):
    script = tmp_path / "rungs.py"
    script.write_text(rungs)

    def measure(rung):
        raise AssertionError("the parent measured a rung in its own process")

    monkeypatch.setattr(sys, "argv", ["rungs.py", *argv])
    ladder.main(str(script), ("good",), measure, FIELDS, "seconds")


def lines(out):
    return [json.loads(line) for line in out.splitlines()]


def test_a_failing_rung_is_bad_and_the_next_rung_runs(monkeypatch, tmp_path,
                                                      capfd):
    with pytest.raises(SystemExit) as exited:
        run_main(monkeypatch, tmp_path, "bad", "mute", "garbled", "good")
    out, err = capfd.readouterr()
    assert lines(out) == [
        {"rung": "bad", "error": "exit 1"},
        {"rung": "mute", "error": "no result line"},
        {"rung": "garbled", "error": "no result line"},
        {"rung": "good", "answers": 2, "members": 1, "sha": "ab"}]
    assert "rung bad broke" in err  # the rung's stderr passes through
    assert str(exited.value.code).endswith(": bad, mute, garbled")


def test_a_rung_missing_from_the_record_is_bad(monkeypatch, tmp_path, capfd):
    record = tmp_path / "record.json"
    record.write_text(json.dumps({"rungs": {"other": {"members": 1,
                                                      "sha": "ab"}}}))
    with pytest.raises(SystemExit) as exited:
        run_main(monkeypatch, tmp_path, "--check", str(record), "good")
    assert str(exited.value.code).endswith(": good")
    assert lines(capfd.readouterr().out)[0]["rung"] == "good"
    # recorded with the same fields, the rung passes
    record.write_text(json.dumps({"rungs": {"good": {"members": 1,
                                                     "sha": "ab"}}}))
    run_main(monkeypatch, tmp_path, "--check", str(record), "good")


# Both rungs answer no to both configurations; only "exact" reports a route
# that knows every answer.
ONE_WAY_SCRIPT = """\
import json, sys
rung = sys.argv[sys.argv.index("--measure") + 1]
route = "exact" if rung == "exact" else "bracket"
print(json.dumps({"rung": rung, "answers": 2, "members": 0, "sha": "ab",
                  "cross": {route: "agree"}}))
"""


def test_only_an_exact_route_lets_a_rung_answer_all_one_way(
        monkeypatch, tmp_path, capfd):
    record = tmp_path / "record.json"
    record.write_text(json.dumps({"rungs": {
        rung: {"members": 0, "sha": "ab"} for rung in ("exact", "bounded")}}))
    check = ("--check", str(record))
    run_main(monkeypatch, tmp_path, *check, "exact", rungs=ONE_WAY_SCRIPT)
    with pytest.raises(SystemExit) as exited:
        run_main(monkeypatch, tmp_path, *check, "bounded", "exact",
                 rungs=ONE_WAY_SCRIPT)
    assert str(exited.value.code).endswith(": bounded")
    # a rung that differs from the record fails, exact route or not
    record.write_text(json.dumps({"rungs": {"exact": {"members": 0,
                                                      "sha": "cd"}}}))
    with pytest.raises(SystemExit) as exited:
        run_main(monkeypatch, tmp_path, *check, "exact", rungs=ONE_WAY_SCRIPT)
    assert str(exited.value.code).endswith(": exact")
    capfd.readouterr()


@pytest.mark.parametrize("tool", ["games_ladder.py", "deriv_ladder.py"])
def test_an_unknown_rung_name_is_refused(tool):
    proc = subprocess.run([sys.executable, str(TOOLS / tool), "--measure",
                           "nope-1"], capture_output=True, text=True)
    assert proc.returncode != 0
    assert "unknown rung: nope-1" in proc.stderr
