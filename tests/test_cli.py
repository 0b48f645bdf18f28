"""End-to-end checks for the byzrank command-line interface."""

import json
import math
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from byzrank import scenarios
from byzrank.cli import main, scenario_record, simulate_record
from byzrank.rankings import Profile, validate_ranking

CYCLE_PROFILE = "a > b > c\nb > c > a\nc > a > b\n"
TIE_PROFILE = "x > y\ny > x\n"
# twelve candidates, one ballot and its reverse: all 12! rankings are optimal
ALL_TIE_12 = " > ".join("abcdefghijkl") + "\n" + " > ".join("lkjihgfedcba") + "\n"


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- kemeny ---------------------------------------------------------------------


def test_kemeny_from_file(tmp_path, capsys):
    p = tmp_path / "profile.txt"
    p.write_text(CYCLE_PROFILE)
    code, out, _ = run_cli(["kemeny", "--profile", str(p)], capsys)
    assert code == 0
    assert "median: a > b > c" in out
    assert "(cost 4)" in out


def test_kemeny_ties_and_verify(tmp_path, capsys):
    p = tmp_path / "profile.txt"
    p.write_text(TIE_PROFILE)
    code, out, _ = run_cli(["kemeny", "--profile", str(p), "--ties", "--verify"], capsys)
    assert code == 0
    assert "2 optimal ranking(s):" in out
    assert "  x > y" in out and "  y > x" in out
    assert "brute-force cross-check: ok" in out


def test_kemeny_stdin_json_stdout(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", __import__("io").StringIO(CYCLE_PROFILE))
    code, out, _ = run_cli(["kemeny", "--profile", "-", "--json", "-"], capsys)
    assert code == 0
    record = json.loads(out)
    assert record["schema"] == "byzrank-run/1"
    assert record["result"]["chosen"] == ["a", "b", "c"]
    assert record["result"]["cost"] == 4
    assert record["result"]["median_count"] == 3
    assert record["ok"] is True
    assert isinstance(record["wall_ms"], int)


def test_kemeny_all_tie_counts_but_refuses_to_list(tmp_path, capsys):
    p = tmp_path / "ties.txt"
    p.write_text(ALL_TIE_12)
    code, out, err = run_cli(["kemeny", "--profile", str(p), "--ties"], capsys)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert str(math.factorial(12)) in err
    code, out, _ = run_cli(["kemeny", "--profile", str(p), "--json", "-"], capsys)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["median_count"] == math.factorial(12)
    assert result["chosen"] == list("abcdefghijkl") and result["cost"] == 66


def test_kemeny_parse_error_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("a >> b\n")
    code, _, err = run_cli(["kemeny", "--profile", str(p)], capsys)
    assert code == 2
    assert "error:" in err and "line 1" in err


def test_kemeny_missing_file_exits_2(tmp_path, capsys):
    code, _, err = run_cli(["kemeny", "--profile", str(tmp_path / "nope.txt")], capsys)
    assert code == 2
    assert "error:" in err


# --- simulate -------------------------------------------------------------------


def test_simulate_summary_and_exit(capsys):
    code, out, _ = run_cli(
        ["simulate", "--protocol", "alg1", "--strategy", "equivocate",
         "--n", "7", "--t", "2", "--m", "3", "--seeds", "5"],
        capsys,
    )
    assert code == 0
    assert "alg1 vs equivocate: n=7 t=2 m=3, 5 run(s)" in out
    assert "agreement    5/5" in out
    assert "ok" in out.splitlines()[-1]


def test_simulate_json_record_shape(tmp_path, capsys):
    dest = tmp_path / "rec.json"
    code, _, _ = run_cli(
        ["simulate", "--protocol", "alg2", "--strategy", "opposite-median",
         "--n", "4", "--t", "1", "--m", "3", "--seeds", "2", "--seed-start", "7",
         "--json", str(dest)],
        capsys,
    )
    assert code == 0
    record = json.loads(dest.read_text())
    assert record["command"] == "simulate"
    assert record["config"]["seed_start"] == 7
    assert len(record["runs"]) == 2
    run = record["runs"][0]
    assert run["seed"] == 7
    assert run["rounds"] == 4  # t + 3
    assert set(run["properties"]) >= {"agreement", "pareto", "rounds", "messages"}
    assert "ratio_bound" in run["properties"]
    assert len(run["consensus"]) == 3


def test_simulate_rejects_inconsistent_flags(capsys):
    code, _, err = run_cli(["simulate", "--n", "9", "--m", "3"], capsys)
    assert code == 2
    assert "need --n, --t and --m" in err


def test_simulate_rejects_broken_resilience(capsys):
    code, _, err = run_cli(["simulate", "--n", "6", "--t", "2", "--m", "3"], capsys)
    assert code == 2
    assert "3t < n" in err


def test_simulate_profile_file(tmp_path, capsys):
    p = tmp_path / "profile.txt"
    p.write_text("a > b > c\n" * 5 + "c > b > a\n" * 2)
    dest = tmp_path / "rec.json"
    code, _, _ = run_cli(
        ["simulate", "--profile", str(p), "--t", "2", "--json", str(dest)],
        capsys,
    )
    assert code == 0
    record = json.loads(dest.read_text())
    assert record["config"]["n"] == 7 and record["config"]["m"] == 3
    assert record["runs"][0]["consensus"] == [0, 1, 2]


def test_simulate_profile_n_mismatch(tmp_path, capsys):
    p = tmp_path / "profile.txt"
    p.write_text("a > b\nb > a\n")
    code, _, err = run_cli(
        ["simulate", "--profile", str(p), "--n", "5", "--t", "0"], capsys
    )
    assert code == 2
    assert "disagrees with the profile" in err


# --- scenario -------------------------------------------------------------------


def test_scenario_binary(capsys):
    code, out, _ = run_cli(
        ["scenario", "binary-worst", "--n", "12", "--t", "3", "--m", "2"], capsys
    )
    assert code == 0
    assert "measured 2/1, closed form 2/1" in out
    assert "witness: [0, 1]" in out


def test_scenario_binary_worst_at_capacity():
    # every completed view is all-tie, so m = 16 has 16! medians: the
    # protocol run and the ratio read only the chosen one and the cost
    record = scenario_record("binary-worst", 12, 3, 16, "both", "C231")
    assert record["report"]["ratio_measured"] == "2/1"
    assert record["ok"] is True


def test_scenario_cycle_json(tmp_path, capsys):
    dest = tmp_path / "cyc.json"
    code, _, _ = run_cli(
        ["scenario", "cycle-worst", "--n", "18", "--t", "2", "--m", "3",
         "--json", str(dest)],
        capsys,
    )
    assert code == 0
    record = json.loads(dest.read_text())
    assert record["report"]["ratio_measured"] == "11/9"
    assert record["report"]["ratio_closed_form"] == "11/9"
    assert record["ok"] is True


def test_scenario_appendix(capsys):
    code, out, _ = run_cli(
        ["scenario", "appendix-c", "--n", "12", "--t", "2", "--case", "C231"], capsys
    )
    assert code == 0
    assert "measured 4/3" in out
    assert "witness: [8, 6, 6]" in out


def test_scenario_needs_name(capsys):
    code, _, err = run_cli(["scenario", "--n", "12", "--t", "3"], capsys)
    assert code == 2
    assert "need a scenario name" in err


def test_scenario_needs_m(capsys):
    code, _, err = run_cli(["scenario", "binary-worst", "--n", "12", "--t", "3"], capsys)
    assert code == 2
    assert "need --m" in err


def test_scenario_infeasible_exits_2(capsys):
    code, _, err = run_cli(
        ["scenario", "cycle-worst", "--n", "13", "--t", "3", "--m", "3"], capsys
    )
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("side", ["left", "right", "both"])
@pytest.mark.parametrize("name,n,t,m", [("binary-worst", 12, 3, 2), ("cycle-worst", 90, 10, 3)])
def test_scenario_each_side_passes(name, n, t, m, side, capsys):
    # the left side is the cheap one (ratio 1): one side only has to stay
    # under the closed form, both sides together have to reach it
    code, out, _ = run_cli(
        ["scenario", name, "--n", str(n), "--t", str(t), "--m", str(m), "--side", side],
        capsys,
    )
    assert code == 0
    assert out.endswith("ok\n")


def test_scenario_breach_is_reported_not_raised(tmp_path, capsys, monkeypatch):
    construct, _ = scenarios._FAMILIES["binary-worst"]
    monkeypatch.setitem(
        scenarios._FAMILIES, "binary-worst", (construct, lambda n, t, m: Fraction(3, 2))
    )
    dest = tmp_path / "breach.json"
    code, out, _ = run_cli(
        ["scenario", "binary-worst", "--n", "12", "--t", "3", "--m", "2",
         "--json", str(dest)],
        capsys,
    )
    assert code == 1
    assert "FAILED" in out
    record = json.loads(dest.read_text())
    assert record["report"]["ratio_measured"] == "2/1"
    assert record["report"]["ratio_closed_form"] == "3/2"
    assert record["ok"] is False


# --- replay ---------------------------------------------------------------------


def test_replay_simulate_identical(tmp_path, capsys):
    dest = tmp_path / "rec.json"
    argv = ["simulate", "--protocol", "alg1", "--strategy", "random",
            "--n", "4", "--t", "1", "--m", "3", "--seeds", "3",
            "--json", str(dest)]
    assert run_cli(argv, capsys)[0] == 0
    code, out, _ = run_cli(["simulate", "--replay", str(dest)], capsys)
    assert code == 0
    assert "replay: identical" in out


def test_replay_detects_tampering(tmp_path, capsys):
    dest = tmp_path / "rec.json"
    argv = ["scenario", "binary-worst", "--n", "12", "--t", "3", "--m", "2",
            "--json", str(dest)]
    assert run_cli(argv, capsys)[0] == 0
    record = json.loads(dest.read_text())
    record["report"]["ratio_measured"] = "3/1"
    dest.write_text(json.dumps(record))
    code, out, _ = run_cli(["scenario", "--replay", str(dest)], capsys)
    assert code == 1
    assert "replay: MISMATCH" in out


def test_replay_json_stdout_status_on_stderr(tmp_path, capsys):
    dest = tmp_path / "rec.json"
    argv = ["scenario", "appendix-c", "--n", "12", "--t", "2", "--json", str(dest)]
    assert run_cli(argv, capsys)[0] == 0
    code, out, err = run_cli(
        ["scenario", "--replay", str(dest), "--json", "-"], capsys
    )
    assert code == 0
    assert "replay: identical" in err
    assert json.loads(out)["report"]["ratio_measured"] == "4/3"


def test_replay_kemeny_identical(tmp_path, capsys):
    profile = tmp_path / "profile.txt"
    profile.write_text(CYCLE_PROFILE)
    dest = tmp_path / "rec.json"
    argv = ["kemeny", "--profile", str(profile), "--ties", "--verify", "--json", str(dest)]
    assert run_cli(argv, capsys)[0] == 0
    code, out, _ = run_cli(["simulate", "--replay", str(dest)], capsys)
    assert code == 0
    assert "replay: identical" in out


def test_replay_ignores_wall_clock(tmp_path, capsys):
    dest = tmp_path / "rec.json"
    argv = ["simulate", "--protocol", "stv-baseline", "--strategy", "silent",
            "--n", "4", "--t", "1", "--m", "3", "--json", str(dest)]
    assert run_cli(argv, capsys)[0] == 0
    record = json.loads(dest.read_text())
    record["wall_ms"] = 999_999
    dest.write_text(json.dumps(record))
    assert run_cli(["simulate", "--replay", str(dest)], capsys)[0] == 0


def test_replay_admits_the_benchmarks_largest_record(tmp_path, capsys):
    # one seed at (31,10,4) stv-baseline: 43,989 messages, under the cap
    dest = tmp_path / "rec.json"
    argv = ["simulate", "--protocol", "stv-baseline", "--strategy", "random",
            "--n", "31", "--t", "10", "--m", "4", "--json", str(dest)]
    assert run_cli(argv, capsys)[0] == 0
    assert json.loads(dest.read_text())["runs"][0]["messages_total"] == 43_989
    code, out, _ = run_cli(["simulate", "--replay", str(dest)], capsys)
    assert code == 0 and "replay: identical" in out


def test_replay_unknown_command_exits_2(tmp_path, capsys):
    dest = tmp_path / "rec.json"
    dest.write_text(json.dumps({"command": "mystery", "config": {}}))
    code, _, err = run_cli(["simulate", "--replay", str(dest)], capsys)
    assert code == 2
    assert "unknown command" in err


SIM_CONFIG = {
    "protocol": "alg1", "strategy": "honest", "n": 4, "t": 1, "m": 2,
    "seeds": 1, "seed_start": 0, "profile": None,
}
SCENARIO_CONFIG = {"name": "binary-worst", "n": 12, "t": 3, "m": 2, "side": "both", "case": None}


def sim(**changes):
    return {"command": "simulate", "config": {**SIM_CONFIG, **changes}, "runs": [{}]}


def scenario(**changes):
    return {"command": "scenario", "config": {**SCENARIO_CONFIG, **changes}}


@pytest.mark.parametrize(
    "record,message",
    [
        ({"command": "simulate", "config": {"protocol": "alg1"}}, "config lacks strategy"),
        ([{"command": "simulate"}], "not a JSON object"),
        (sim(n="x"), "bad values: n='x'"),
        (sim(t=True), "bad values: t=True"),
        (sim(seeds=1.0), "bad values: seeds=1.0"),
        (sim(protocol="nope", strategy=None), "bad values: protocol='nope', strategy=None"),
        (sim(profile=5), "bad values: profile=5"),
        (sim(profile=[[True, False]] * 4), "not a permutation"),
        (scenario(name="nope"), "bad values: name='nope'"),
        (scenario(side="top"), "bad values: side='top'"),
        (scenario(case="C999"), "bad values: case='C999'"),
        (scenario(m="2"), "bad values: m='2'"),
        ({"command": "kemeny", "config": {"profile": "a > b", "ties": 1, "verify": False}},
         "bad values: ties=1"),
        (sim(seeds=0), "need at least one seed, got 0"),
        # one stored run cannot vouch for a billion seeds; replaying them
        # would run until killed
        (sim(seeds=10**9), "asks for 1000000000 seeds but holds 1 run(s)"),
        ({"command": "simulate", "config": SIM_CONFIG}, "asks for 1 seeds but holds 0 run(s)"),
        # 400 million messages: priced by the closed form, never run
        (sim(n=10_000), "asks for 399,980,000 messages; replay stops at 250,000"),
        (sim(t=2), "resilience requires 3t < n"),
    ],
)
def test_replay_malformed_record_exits_2(tmp_path, capsys, record, message):
    dest = tmp_path / "rec.json"
    dest.write_text(json.dumps(record))
    started = time.monotonic()
    code, _, err = run_cli(["simulate", "--replay", str(dest)], capsys)
    assert time.monotonic() - started < 1.0
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error: ") and message in err


@pytest.mark.parametrize("seeds", ["0", "-3"])
def test_simulate_without_seeds_exits_2(capsys, seeds):
    # zero runs would print "0 run(s)" and "ok" and exit 0
    code, out, err = run_cli(
        ["simulate", "--n", "4", "--t", "1", "--m", "3", "--seeds", seeds], capsys
    )
    assert code == 2 and out == ""
    assert err == f"error: need at least one seed, got {seeds}\n"


def test_bool_profile_is_refused():
    # True/False compare equal to 1/0; accepted, they came back as the consensus
    with pytest.raises(ValueError):
        Profile.of([[True, False]] * 4)
    with pytest.raises(ValueError):
        validate_ranking((True, False))
    with pytest.raises(ValueError):
        simulate_record("alg1", "honest", 4, 1, 2, 1, 0, [[True, False]] * 4)


# --- process-level ----------------------------------------------------------------


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "byzrank.cli", "kemeny", "--profile", "-"],
        input=TIE_PROFILE, capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "median: x > y" in proc.stdout


def test_bad_subcommand_exits_2():
    proc = subprocess.run(
        [sys.executable, "-m", "byzrank.cli", "frobnicate"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
