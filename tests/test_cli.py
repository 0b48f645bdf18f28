"""End-to-end checks for the byzrank command-line interface."""

import copy
import io
import json
import math
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import byzrank
from byzrank import cli, kemeny, scenarios
from byzrank.cli import kemeny_record, main, scenario_record, simulate_record
from byzrank.rankings import Profile, validate_ranking

CYCLE_PROFILE = "a > b > c\nb > c > a\nc > a > b\n"
TIE_PROFILE = "x > y\ny > x\n"
# one ballot over seventeen candidates, one more than the exact solver takes
WIDE_PROFILE = " > ".join(f"c{i}" for i in range(17)) + "\n"
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


def test_kemeny_over_capacity_exits_2_before_the_tally(tmp_path, capsys, monkeypatch):
    # the m×m tally grows as m²: a profile of 30,000 names would take gigabytes
    calls = []
    monkeypatch.setattr(kemeny, "weight_matrix", lambda *args: calls.append(args))
    p = tmp_path / "wide.txt"
    p.write_text(WIDE_PROFILE)
    code, out, err = run_cli(["kemeny", "--profile", str(p)], capsys)
    assert code == 2 and out == ""
    assert err == "error: exact solver handles m <= 16, got 17\n"
    with pytest.raises(kemeny.CapacityError):
        kemeny.approx_ratio(tuple(range(17)), Profile.of([tuple(range(17))]))
    assert calls == []


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


def test_scenario_appendix_refuses_other_m(capsys):
    # the grid search has three candidates; any other m would be recorded as 3
    code, out, err = run_cli(
        ["scenario", "appendix-c", "--n", "30", "--t", "3", "--m", "9"], capsys
    )
    assert code == 2 and out == ""
    assert err == "error: appendix-c has three candidates, got m=9\n"


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


def tie_blocks_profile(*sizes: int) -> str:
    """Two ballots that keep blocks of ``sizes`` in order, the second with
    each block reversed: every pair inside a block ties, so every order of
    each block is optimal and the optima are the product of the sizes'
    factorials."""
    names = iter("abcdefghijklmnop")
    blocks = [[next(names) for _ in range(size)] for size in sizes]
    return "".join(
        " > ".join(c for block in blocks for c in (block[::-1] if rev else block)) + "\n"
        for rev in (False, True)
    )


def test_replay_prices_a_kemeny_listing_before_it_lists(tmp_path, capsys, monkeypatch):
    listed = []
    medians = kemeny.MedianResult.medians
    monkeypatch.setattr(kemeny.MedianResult, "medians",
                        property(lambda res: listed.append(res.count) or medians.func(res)))
    dest = tmp_path / "rec.json"

    def replay(profile: str, ties: bool = True):
        config = {"profile": profile, "ties": ties, "verify": False}
        dest.write_text(json.dumps({"command": "kemeny", "config": config}))
        return run_cli(["scenario", "--replay", str(dest)], capsys)

    # a 149-byte record over two reversed 9-candidate ballots asks for 9! optima
    code, out, err = replay(tie_blocks_profile(9))
    assert (code, out, listed) == (2, "", [])
    assert err == "error: record lists 362,880 optimal rankings; replay stops at 80,000\n"
    # 8! · 2! = 80,640 is refused, 8! listed; a record that lists nothing is
    # not priced, and mismatches only because it holds no result
    assert replay(tie_blocks_profile(8, 2))[0] == 2 and listed == []
    assert replay(tie_blocks_profile(8, 2), ties=False)[0] == 1 and listed == []
    assert replay(tie_blocks_profile(8))[0] == 1 and listed == [40_320]
    # the cap admits a count equal to it
    monkeypatch.setattr(cli, "REPLAY_MEDIANS_MAX", 12)
    assert replay(tie_blocks_profile(3, 2))[0] == 1 and listed == [40_320, 12]
    assert replay(tie_blocks_profile(3, 3))[0] == 2 and listed == [40_320, 12]
    # every record the kemeny command writes with --ties replays identical
    record = kemeny_record(tie_blocks_profile(3, 2), True, True)
    dest.write_text(json.dumps(record))
    assert run_cli(["simulate", "--replay", str(dest)], capsys)[:2] == (0, "replay: identical\n")


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


@pytest.mark.parametrize("name,n,t,m", [("cycle-worst", 1000, 100, 3),
                                        ("binary-worst", 400, 100, 8)])
def test_replay_admits_scenarios_priced_by_their_ballots(tmp_path, capsys, name, n, t, m):
    # each builds in about 1 ms; priced as a one-seed alg2 simulate record,
    # over 9,000,000 messages·m², both were refused
    dest = tmp_path / "rec.json"
    argv = ["scenario", name, "--n", str(n), "--t", str(t), "--m", str(m), "--json", str(dest)]
    assert run_cli(argv, capsys)[0] == 0
    code, out, _ = run_cli(["scenario", "--replay", str(dest)], capsys)
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
        (sim(seeds=0), "bad values: seeds=0"),
        # one stored run cannot vouch for a billion seeds; replaying them
        # would run until killed
        (sim(seeds=10**9), "asks for 1000000000 seeds but holds 1 run(s)"),
        ({"command": "simulate", "config": SIM_CONFIG}, "asks for 1 seeds but holds 0 run(s)"),
        # 400 million messages, refused on their lower bound seeds·n²
        (sim(n=10_000),
         "record asks for over 100,000,000 messages at m=2, over 400,000,000 messages·m²"
         " plus 1 run(s) at 1,500 each, over 400,001,500 in all; replay stops at 3,750,000"),
        (sim(t=2), "resilience requires 3t < n"),
        # 56 messages, but each costs about m²
        (sim(strategy="random", m=400), "asks for 56 messages at m=400, 8,960,000 messages·m²"),
        # the grid search is cubic in n: 0.14 s at n=400, still running at
        # 60 s at n=4000
        (scenario(name="appendix-c", n=4000, t=1, m=3, case="C231"),
         "asks for a 8,000,000,000-cell weight grid; replay stops at 1,000,000"),
        # a scenario's n ballots are priced as n messages, plus three solves
        (scenario(n=1_000_000, t=1),
         "asks for 1,000,000 messages at m=2, 4,000,000 messages·m² plus 1 run(s) at 1,500"
         " each plus 3 Kemeny solve(s) at 2 each, 4,001,506 in all"),
        ({"command": "kemeny", "config": {"profile": WIDE_PROFILE, "ties": False,
                                          "verify": False}},
         "exact solver handles m <= 16, got 17"),
        # under the cap on seeds·n², over it on the closed-form count
        (sim(n=300, t=99), "asks for 12,090,000 messages at m=2, 48,360,000 messages·m²"),
        (sim(strategy="random", m=259), "asks for 56 messages at m=259, 3,756,536 messages·m²"),
        # appendix-c searches three candidates; "m": 9 would be rewritten as 3
        (scenario(name="appendix-c", m=9, case="C231"), "appendix-c has three candidates, got m=9"),
        # an unhashable command is unknown, not a TypeError from the lookup
        ({"command": ["kemeny"], "config": {}}, "unknown command ['kemeny']"),
        # 937,448 messages at m=2 sat on the cap of messages·m² alone, yet its
        # runs' fixed work took 8-12 s to replay, against 1.5 s for a one-seed
        # (4,1,258) record; it is now refused on its lower bound
        ({**sim(protocol="alg2", strategy="equivocate", seeds=13_786), "runs": [{}] * 13_786},
         "asks for over 220,576 messages at m=2, over 882,304 messages·m² plus 13,786 run(s)"
         " at 1,500 each, over 21,561,304 in all"),
        # 198 seeds sat under the cap on messages and runs alone, yet each
        # seed's five m = 16 Kemeny solves took 0.37-0.73 s, about 74 s in all
        ({**sim(protocol="alg2", strategy="equivocate", m=16, seeds=198), "runs": [{}] * 198},
         "asks for 13,464 messages at m=16, 3,446,784 messages·m² plus 198 run(s) at 1,500"
         " each plus 990 Kemeny solve(s) at 349,525 each, 349,773,534 in all"),
        # a negative t is refused before any ballot is built: at t = -10⁹
        # the construction would have allocated gigabytes
        (scenario(n=4, t=-10**9), "need n >= 1 and t >= 0"),
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


@pytest.mark.parametrize("where", ["top", "config"])
def test_replay_deeply_nested_record_exits_2(tmp_path, capsys, where):
    # json.dumps cannot build such a record, so the text is written directly;
    # json.load gives up on it with a RecursionError
    deep = "[" * 100_000 + "]" * 100_000
    text = deep if where == "top" else f'{{"command": "simulate", "config": {deep}, "runs": [{{}}]}}'
    dest = tmp_path / "rec.json"
    dest.write_text(text)
    code, _, err = run_cli(["simulate", "--replay", str(dest)], capsys)
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error: ") and "nests too deeply" in err


@pytest.mark.parametrize(
    "record",
    [
        sim(n=3 * 10**9 + 1, t=10**9, m=3),
        sim(protocol="stv-baseline", n=4, t=1, m=10**9),
        # runs: [] held -1 seeds, and the priced total came out negative
        {**sim(n=3 * 10**9 + 1, t=10**9, m=3, seeds=-1), "runs": []},
        scenario(name="cycle-worst", n=3 * 10**9 + 1, t=10**9, m=3),
        # m < 2 prices a record at next to nothing: zero at m = 0, and its
        # bare message count at m = 1
        sim(n=3 * 10**9 + 1, t=10**9, m=0),
        sim(t=10**9, m=1),
    ],
)
def test_replay_is_priced_before_it_allocates(tmp_path, capsys, monkeypatch, record):
    # the closed-form count builds a t+1-entry schedule and up to (m-1)(t+1)
    # round counts, gigabytes at t = 10⁹, so these records must be refused
    # without either
    def unreachable(*args):
        raise AssertionError("replay priced a record by its full closed form")

    monkeypatch.setattr(cli, "ProtocolConfig", unreachable)
    monkeypatch.setattr(cli, "expected_messages", unreachable)
    dest = tmp_path / "rec.json"
    dest.write_text(json.dumps(record))
    started = time.monotonic()
    code, _, err = run_cli(["simulate", "--replay", str(dest)], capsys)
    assert time.monotonic() - started < 1.0
    assert code == 2 and err.startswith("error: ")


def test_replay_cap_prices_messages_times_m_squared():
    # one run of 937,125 messages at m = 2 sits exactly on the cap
    cli._refuse_above(1, 937_125, 2)
    with pytest.raises(ValueError, match="937,126 messages at m=2, 3,748,504 messages·m²"):
        cli._refuse_above(1, 937_126, 2)
    # and so do 2,500 runs of fixed work alone
    cli._refuse_above(2_500, 0, 2)
    with pytest.raises(ValueError, match="2,501 run\\(s\\) at 1,500 each, 3,751,500 in all"):
        cli._refuse_above(2_501, 0, 2)


def test_replay_cap_prices_each_kemeny_solve():
    # a solve at m = 16 costs 2^16·16 / 3 units: ten of them and one run's
    # fixed work fit under the cap, eleven do not
    cli._refuse_above(1, 0, 16, solves=10)
    with pytest.raises(ValueError, match="11 Kemeny solve\\(s\\) at 349,525 each, 3,846,275 in all"):
        cli._refuse_above(1, 0, 16, solves=11)
    # a one-seed alg2 record solves its ratio and up to n views; above
    # EXACT_MAX_M nothing is solved, so nothing is charged
    cli._price("alg2", 4, 1, 16, 2, 5)
    with pytest.raises(ValueError, match="15 Kemeny solve"):
        cli._price("alg2", 4, 1, 16, 3, 5)
    cli._price("alg1", 4, 1, 17, 1, 1)
    with pytest.raises(ValueError) as refused:
        cli._refuse_above(1, 10**6, 17, solves=3)
    assert "Kemeny" not in str(refused.value)


@pytest.mark.parametrize("seeds", ["0", "-3"])
def test_simulate_without_seeds_exits_2(capsys, seeds):
    # zero runs would print "0 run(s)" and "ok" and exit 0
    code, out, err = run_cli(
        ["simulate", "--n", "4", "--t", "1", "--m", "3", "--seeds", seeds], capsys
    )
    assert code == 2 and out == ""
    assert err == f"error: need at least one seed, got {seeds}\n"


# --- untrusted input ------------------------------------------------------------


def run_untrusted(argv) -> tuple[int, str]:
    """Run the CLI in process; an exception escaping ``main`` fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    return code, err.getvalue()


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


NAMES = st.sampled_from(["a", "b", "c", "d", "a b", "é", "-1", "0"])
PROFILE_LINES = st.one_of(
    # whole rankings, repeated, ragged, with duplicates within a line
    st.lists(NAMES, min_size=1, max_size=5).map(" > ".join),
    st.sampled_from(["", "   ", "# comment", "#", "a >", "> a", "a >> b", "a>b>c", "\t", "\x00"]),
)
PROFILE_TEXTS = st.one_of(
    st.lists(PROFILE_LINES, max_size=12).map("\n".join),
    st.lists(st.sampled_from(["#", "# x", "", " "]), max_size=4).map("\n".join),
    st.text(st.sampled_from("ab >#\n\r\t\x1c\u2028"), max_size=40),
)


@settings(max_examples=150, deadline=None)
@given(PROFILE_TEXTS, st.sampled_from([[], ["--ties"], ["--verify"], ["--ties", "--verify"]]))
def test_kemeny_profile_text_never_escapes(fuzz_file, text, flags):
    fuzz_file.write_text(text, encoding="utf-8")
    run_untrusted(["kemeny", "--profile", str(fuzz_file), *flags])


DELETE = object()
RECORD_VALUES = st.sampled_from([
    DELETE, None, True, False, 0, -1, 2.5, float("nan"), 10**30, "", "kemeny", "simulate",
    "a > b", "a >> b", "# only a comment\n", CYCLE_PROFILE, TIE_PROFILE, ALL_TIE_12,
    WIDE_PROFILE, [], ["a > b"], [[0, 1]], {}, {"profile": "a > b"},
])
RECORD_PLACES = st.sampled_from([
    (), ("command",), ("config",), ("config", "profile"), ("config", "ties"),
    ("config", "verify"), ("config", "extra"), ("result",), ("result", "chosen"),
    ("result", "cost"), ("result", "median_count"), ("result", "medians"), ("ok",),
])


def replay_mutated(fuzz_file, stored: dict, mutations) -> None:
    """Replay ``stored`` with each ``(place, value)`` written at its key path.

    A place is a path of keys into the record; ``DELETE`` removes the key,
    and a path through a value that is no longer an object changes nothing.
    """
    record = {"record": stored}
    for place, value in mutations:
        holder, key = record, "record"
        for step in place:
            holder, key = holder.get(key), step
            if not isinstance(holder, dict):
                break
        else:
            if value is DELETE:
                holder.pop(key, None)
            else:
                holder[key] = copy.deepcopy(value)
    fuzz_file.write_text(json.dumps(record.get("record")), encoding="utf-8")
    run_untrusted(["simulate", "--replay", str(fuzz_file)])


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([(CYCLE_PROFILE, True, True), (TIE_PROFILE, False, False),
                     ("x > y > z\nz > y > x\nx > y > z\n", True, False)]),
    st.lists(st.tuples(RECORD_PLACES, RECORD_VALUES), min_size=1, max_size=3),
)
def test_mutated_kemeny_replay_never_escapes(fuzz_file, base, mutations):
    replay_mutated(fuzz_file, {**kemeny_record(*base), "wall_ms": 0}, mutations)


@pytest.fixture(scope="module")
def run_records():
    """One simulate or scenario record of each kind a replay can hold."""
    profile = [[0, 1, 2], [1, 2, 0], [2, 0, 1], [0, 2, 1]]
    return [
        simulate_record("alg1", "equivocate", 7, 2, 3, 2, 0),
        simulate_record("stv-baseline", "scripted", 4, 1, 3, 1, 0, profile),
        scenario_record("cycle-worst", 18, 2, 3, "both", None),
        scenario_record("appendix-c", 12, 2, 3, "both", "C231"),
        scenario_record("binary-worst", 12, 3, 2, "left", None),
    ]


RUN_RECORD_VALUES = st.sampled_from([
    DELETE, None, True, False, 0, 1, -1, 2, 3, 7, 2.5, float("nan"), 10**30, "", "3",
    "alg1", "alg3", "stv-baseline", "equivocate", "byzantine", "simulate", "scenario", "kemeny",
    "cycle-worst", "appendix-c", "worst", "left", "both", "top", "C231", "C999", 16, 17, 40,
    [], {}, [[0, 1, 2]], [[0, 1, 2], [0, 1]] * 2, [[True, False, 2]] * 4, [[0.0, 1, 2]] * 4,
    [[0, 1, 2]] * 7, [list(range(16))] * 7, [[0, 1, 2]] * 3 + ["abc"], [{}],
])
RUN_RECORD_PLACES = st.sampled_from([
    ("command",), ("runs",), ("report",), ("config",),
    *(("config", key) for key in dict.fromkeys([*cli.REPLAY["simulate"][1],
                                                *cli.REPLAY["scenario"][1]])),
])


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 4),
    st.lists(st.tuples(RUN_RECORD_PLACES, RUN_RECORD_VALUES), min_size=1, max_size=3),
)
def test_mutated_run_replay_never_escapes(fuzz_file, run_records, base, mutations):
    replay_mutated(fuzz_file, copy.deepcopy(run_records[base]), mutations)


# any JSON value: scalars inside lists and objects inside each other
NESTED_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 8) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=4),
    max_leaves=16,
)
NESTED_REPLAY_BUDGET_S = 5.0


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 6), st.data())
def test_nested_values_in_replay_never_escape(fuzz_file, run_records, base, data):
    # bases 0-1 are kemeny records, 2-6 the simulate and scenario ones
    if base < 2:
        stored = {**kemeny_record(CYCLE_PROFILE if base else TIE_PROFILE, True, True),
                  "wall_ms": 0}
        places = RECORD_PLACES
    else:
        stored, places = copy.deepcopy(run_records[base - 2]), RUN_RECORD_PLACES
    mutations = data.draw(st.lists(st.tuples(places, NESTED_VALUES), min_size=1, max_size=3))
    started = time.monotonic()
    replay_mutated(fuzz_file, stored, mutations)
    assert time.monotonic() - started < NESTED_REPLAY_BUDGET_S


def test_bool_profile_is_refused():
    # True/False compare equal to 1/0; accepted, they came back as the consensus
    with pytest.raises(ValueError):
        Profile.of([[True, False]] * 4)
    with pytest.raises(ValueError):
        validate_ranking((True, False))
    with pytest.raises(ValueError):
        simulate_record("alg1", "honest", 4, 1, 2, 1, 0, [[True, False]] * 4)


# --- process-level ----------------------------------------------------------------

# child interpreters import the byzrank this suite imports, installed or not
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(Path(byzrank.__file__).parents[1]), os.environ.get("PYTHONPATH")])
)}


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "byzrank.cli", "kemeny", "--profile", "-"],
        input=TIE_PROFILE, capture_output=True, text=True, env=CHILD_ENV,
    )
    assert proc.returncode == 0
    assert "median: x > y" in proc.stdout


def test_python_dash_m_byzrank_runs(tmp_path):
    # an uninstalled checkout runs the tool as `PYTHONPATH=src python -m byzrank`
    profile = tmp_path / "profile.txt"
    profile.write_text(TIE_PROFILE)
    proc = subprocess.run(
        [sys.executable, "-m", "byzrank", "kemeny", "--profile", str(profile)],
        capture_output=True, text=True, env=CHILD_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    assert "median: x > y" in proc.stdout


def test_bad_subcommand_exits_2():
    proc = subprocess.run(
        [sys.executable, "-m", "byzrank.cli", "frobnicate"],
        capture_output=True, text=True, env=CHILD_ENV,
    )
    assert proc.returncode == 2


def test_closed_stdout_exits_without_traceback():
    # the reader goes away before the child writes: its JSON (about 80 kB, over
    # a pipe's buffer) hits a closed pipe, as under `byzrank ... | head -1`
    proc = subprocess.Popen(
        [sys.executable, "-m", "byzrank.cli", "simulate", "--n", "7", "--t", "2",
         "--m", "3", "--seeds", "200", "--json", "-"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=CHILD_ENV,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err, err
