"""Command-line front end: kemeny solving, protocol simulation, scenarios.

Every command can emit a schema-versioned JSON run record (--json); replay
RECORD re-runs a stored record of any command and verifies that it regenerates
bit-identical apart from wall-clock time.  Exit status: 0 when every asserted
property holds (or a replay matches), 1 on property failure or replay mismatch,
2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from fractions import Fraction

from .kemeny import EXACT_MAX_M, MEDIANS_MAX, approx_ratio, kemeny_brute, kemeny_exact
from .rankings import Profile, parse_profile
from .protocol import ProtocolConfig, expected_messages
from .scenarios import CASES, SCENARIO_NAMES, SIDES, appendix_c_search, measure_scenario
from .simnet import PROTOCOLS, STRATEGY_NAMES, make_strategy, random_rankings, run_sync

SCHEMA = "byzrank-run/1"
# the most work a replayed simulate record may ask for, summed over its seeds:
# each run's correct-sender messages times m², as a message's replay cost grows
# about as m², plus REPLAY_RUN_WORK and its Kemeny solves.  That is over five
# times the largest record the tests and the benchmark write (43,989 messages at
# n=31, t=10, m=4: 705,345).  Slowest equivocate replays it admits, on a 2-core
# VM: alg1 (4,1,258) 1.5-1.8 s, alg2 (4,1,16) × 2 seeds 0.9-1.3 s, alg2 (7,2,2) ×
# 1,453 seeds 0.7-1.1 s, alg2 (4,1,2) × 2,104 seeds 0.7-1.1 s
REPLAY_WORK_MAX = 3_750_000
# a run's fixed work, in the same units: a one-seed m = 2 run costs 0.2-1 ms
# whatever its message count, which is what 500-3,000 messages·m² cost at m = 258
REPLAY_RUN_WORK = 1_500
# a Kemeny solve at m <= EXACT_MAX_M runs a subset DP of up to 2^m·m steps, and
# this many steps take about what one unit does: a 16-candidate DP took
# 0.08-0.13 s against 0.33-0.38 µs per unit of a (4,1,258) replay.  2^m·m is an
# upper bound: only a majority block with a strict pair runs the DP, and a
# block whose pairs all tie is solved in closed form (under 1 ms at m = 16)
REPLAY_DP_STEPS = 3
# the most cells an appendix-c replay's weight grid may hold, the cube of the
# weights' range n - t - ⌈n/2⌉ + 1: a 10⁶-cell grid (n=200, t=1) took 0.02 s,
# and the largest record the tests and the benchmark write has 2,197 cells
REPLAY_GRID_MAX = 1_000_000
# the most optima a replayed kemeny record may list: 78,624 in one 16-candidate block
# replayed in 1.27-1.43 s, against 1.37-1.96 s for alg1 (4,1,258) in the same sitting
REPLAY_MEDIANS_MAX = 80_000


def _ratio_str(ratio) -> str:
    if isinstance(ratio, Fraction):
        return f"{ratio.numerator}/{ratio.denominator}"
    return str(ratio)


# --- kemeny -------------------------------------------------------------------


def kemeny_record(profile: str, ties: bool, verify: bool) -> dict:
    parsed, names = parse_profile(profile)
    result = kemeny_exact(parsed)
    record: dict = {
        "schema": SCHEMA,
        "command": "kemeny",
        "config": {"profile": profile, "ties": ties, "verify": verify},
        "result": {
            "chosen": [names[c] for c in result.chosen],
            "cost": result.cost,
            "median_count": result.count,
        },
    }
    if ties:
        record["result"]["medians"] = [[names[c] for c in r] for r in result.medians]
    if verify:
        brute = kemeny_brute(parsed)
        # MedianResult equality compares cost, chosen and count, not the listings
        agreed = brute == result and brute.medians == result.medians
        record["result"]["verified"] = agreed
        record["ok"] = agreed
    else:
        record["ok"] = True
    return record


def cmd_kemeny(args) -> dict:
    if args.profile == "-":
        text = sys.stdin.read()
    else:
        with open(args.profile, encoding="utf-8") as fh:
            text = fh.read()
    return kemeny_record(text, args.ties, args.verify)


def _print_kemeny(record: dict) -> None:
    res = record["result"]
    print(f"median: {' > '.join(res['chosen'])}   (cost {res['cost']})")
    if "medians" in res:
        print(f"{res['median_count']} optimal ranking(s):")
        for r in res["medians"]:
            print(f"  {' > '.join(r)}")
    if "verified" in res:
        print("brute-force cross-check:", "ok" if res["verified"] else "MISMATCH")


# --- simulate -----------------------------------------------------------------


def simulate_record(
    protocol: str,
    strategy: str,
    n: int,
    t: int,
    m: int,
    seeds: int,
    seed_start: int,
    profile: list | None = None,
) -> dict:
    if seeds < 1:
        raise ValueError(f"need at least one seed, got {seeds}")
    cfg = ProtocolConfig(n, t, m)
    budget = 2 * n * n + n  # per round
    runs = []
    all_ok = True
    for i in range(seeds):
        seed = seed_start + i
        adversary = make_strategy(strategy, n=n, t=t, m=m)
        if profile is not None:
            inputs = [tuple(r) for r in profile]
        else:
            rng = random.Random(f"{n}/{t}/{m}/{strategy}/{seed}/inputs")
            inputs = random_rankings(rng, m, n)
        result = run_sync(protocol, inputs, adversary, cfg, seed=seed)
        per_round = list(result.stats.messages_per_round)
        expected = expected_messages(protocol, n, t, m, result.byz_ids, cfg.dictator_schedule)
        props = {
            "agreement": result.agreement,
            "pareto": result.pareto,
            "rounds": len(per_round) == len(expected),
            "messages": per_round == expected and max(per_round) <= budget,
        }
        ratio = None
        if result.agreement and m <= EXACT_MAX_M:
            rep = approx_ratio(
                result.consensus, Profile.of(list(result.correct_inputs.values()), m)
            )
            ratio = rep.ratio
            if protocol == "alg2":
                props["ratio_bound"] = ratio <= Fraction(n, n - 2 * t)
        ok = all(props.values())
        all_ok = all_ok and ok
        runs.append(
            {
                "seed": seed,
                "consensus": list(result.consensus) if result.agreement else None,
                "rounds": result.stats.rounds,
                "messages_total": result.stats.messages_total,
                "messages_per_round": per_round,
                "integrity_errors": [e.to_json() for e in result.stats.integrity_errors],
                "ratio": _ratio_str(ratio) if ratio is not None else None,
                "properties": props,
                "ok": ok,
            }
        )
    return {
        "schema": SCHEMA,
        "command": "simulate",
        "config": {
            "protocol": protocol,
            "strategy": strategy,
            "n": n,
            "t": t,
            "m": m,
            "seeds": seeds,
            "seed_start": seed_start,
            "profile": profile,
        },
        "runs": runs,
        "ok": all_ok,
    }


def cmd_simulate(args) -> dict:
    profile_rankings = None
    n, m = args.n, args.m
    if args.profile:
        with open(args.profile, encoding="utf-8") as fh:
            profile, _names = parse_profile(fh.read())
        profile_rankings = [list(r) for r in profile.rankings]
        if args.n is not None and args.n != len(profile.rankings):
            raise ValueError("--n disagrees with the profile's ranking count")
        if args.m is not None and args.m != profile.m:
            raise ValueError("--m disagrees with the profile's candidate count")
        n, m = len(profile.rankings), profile.m
    if n is None or m is None or args.t is None:
        raise ValueError("need --n, --t and --m (or --profile plus --t)")
    return simulate_record(
        args.protocol, args.strategy, n, args.t, m,
        args.seeds, args.seed_start, profile_rankings,
    )


def _print_simulate(record: dict) -> None:
    cfg = record["config"]
    runs = record["runs"]
    print(
        f"{cfg['protocol']} vs {cfg['strategy']}: "
        f"n={cfg['n']} t={cfg['t']} m={cfg['m']}, {len(runs)} run(s)"
    )
    prop_names = sorted({p for r in runs for p in r["properties"]})
    for p in prop_names:
        good = sum(1 for r in runs if r["properties"].get(p, True))
        print(f"  {p:12s} {good}/{len(runs)}")
    bad = [r for r in runs if not r["ok"]]
    for r in bad[:10]:
        failed = [p for p, v in r["properties"].items() if not v]
        print(f"  seed {r['seed']}: FAILED {', '.join(failed)}")
    if len(bad) > 10:
        print(f"  ... and {len(bad) - 10} more failing seeds")
    events = sum(len(r["integrity_errors"]) for r in runs)
    if events:
        print(f"  integrity events: {events}")
    print("ok" if record["ok"] else "FAILED")


# --- scenario -----------------------------------------------------------------


def scenario_record(name: str, n: int, t: int, m: int, side: str, case: str) -> dict:
    if name == "appendix-c":
        if m != 3:
            raise ValueError(f"appendix-c has three candidates, got m={m}")
        ratio, argmax = appendix_c_search(n, t, case)
        measured, closed, witness = _ratio_str(ratio), None, list(argmax)
        ok = True
        config = {"name": name, "n": n, "t": t, "m": 3, "side": side, "case": case}
    else:
        report = measure_scenario(name, n, t, m, side)
        measured = _ratio_str(report.ratio_measured)
        closed = _ratio_str(report.ratio_closed_form)
        witness = list(report.witness)
        config = {"name": name, "n": n, "t": t, "m": m, "side": side, "case": None}
        # both sides must reach the closed form for binary-worst and for
        # cycle-worst up to m = 4, which reaches it exactly where n >= 2mt
        # (ROADMAP item 2); one side, or cycle-worst above m = 4, stays under
        if side == "both" and (name == "binary-worst" or m <= 4):
            ok = report.ratio_measured == report.ratio_closed_form
        else:
            ok = report.ratio_measured <= report.ratio_closed_form
    return {
        "schema": SCHEMA,
        "command": "scenario",
        "config": config,
        "report": {
            "ratio_measured": measured,
            "ratio_closed_form": closed,
            "witness": witness,
        },
        "ok": ok,
    }


def cmd_scenario(args) -> dict:
    if args.name != "appendix-c" and args.m is None:
        raise ValueError("need --m for this scenario")
    return scenario_record(
        args.name, args.n, args.t, args.m if args.m is not None else 3,
        args.side, args.case,
    )


def _print_scenario(record: dict) -> None:
    cfg = record["config"]
    rep = record["report"]
    closed = rep["ratio_closed_form"]
    print(
        f"{cfg['name']} n={cfg['n']} t={cfg['t']} m={cfg['m']}: "
        f"measured {rep['ratio_measured']}"
        + (f", closed form {closed}" if closed else "")
    )
    print(f"witness: {json.dumps(rep['witness'])}")
    print("ok" if record["ok"] else "FAILED")


# --- replay -------------------------------------------------------------------


def _exactly(kind: type):
    # exact type: True/False would pass isinstance(..., int) as 1/0
    return lambda value: type(value) is kind


def _one_of(*choices):
    return lambda value: value in choices


def _at_least(low: int):
    return lambda value: type(value) is int and value >= low


# each replayable command's record function and the config keys it takes,
# named as its parameters, each with the test its value must pass
REPLAY = {
    "simulate": (simulate_record, {
        "protocol": _one_of(*PROTOCOLS),
        "strategy": _one_of(*STRATEGY_NAMES),
        **dict.fromkeys(("n", "t"), _exactly(int)), "m": _at_least(2),
        "seeds": _at_least(1),
        "seed_start": _exactly(int),
        "profile": lambda v: v is None or type(v) is list and all(type(r) is list for r in v),
    }),
    "scenario": (scenario_record, {
        "name": _one_of(*SCENARIO_NAMES),
        **dict.fromkeys(("n", "t"), _exactly(int)), "m": _at_least(2),
        "side": _one_of(*SIDES),
        "case": _one_of(*CASES, None),
    }),
    "kemeny": (kemeny_record, {"profile": _exactly(str),
                               **dict.fromkeys(("ties", "verify"), _exactly(bool))}),
}


def _price(protocol: str, n: int, t: int, m: int, seeds: int, solves: int) -> None:
    """Refuse, before any of it runs, a simulate replay that costs too much.

    A run costs its closed-form message count times m², plus
    :data:`REPLAY_RUN_WORK`, plus ``solves`` Kemeny solves; every built-in
    strategy corrupts the last t ids.  The count needs a t+1-entry schedule,
    so the bound n² per run is checked first: every run has a king round
    whose n-t > 2n/3 correct senders send over n² messages, so the bound
    refuses only records the count refuses too.
    """
    _refuse_above(seeds, n * n, m, "over ")
    schedule = ProtocolConfig(n, t, m).dictator_schedule
    byz = frozenset(range(n - t, n))
    messages = sum(expected_messages(protocol, n, t, m, byz, schedule))
    _refuse_above(seeds, messages, m, solves=solves)


def _refuse_above(seeds: int, messages: int, m: int, over: str = "", solves: int = 0) -> None:
    """Refuse ``seeds`` runs of ``messages`` messages and ``solves`` Kemeny
    solves at ``m`` candidates above the replay cap; none runs above EXACT_MAX_M."""
    total = seeds * messages
    each = 2**m * m // REPLAY_DP_STEPS if solves and m <= EXACT_MAX_M else 0
    work = total * m * m + seeds * (REPLAY_RUN_WORK + solves * each)
    if work > REPLAY_WORK_MAX:
        dp = f" plus {seeds * solves:,} Kemeny solve(s) at {each:,} each" if each else ""
        raise ValueError(
            f"record asks for {over}{total:,} messages at m={m}, {over}{total * m * m:,}"
            f" messages·m² plus {seeds:,} run(s) at {REPLAY_RUN_WORK:,} each{dp}, {over}{work:,}"
            f" in all; replay stops at {REPLAY_WORK_MAX:,}"
        )


def replay(path: str) -> tuple[dict, bool]:
    """Re-run a stored record from its own config; True iff bit-identical.

    Raises ValueError when the record nests too deeply for the JSON parser,
    when it is not an object with a known command
    and every config key that command needs, each with a valid value, or
    when a simulate record asks for more seeds than it holds runs or for
    more than :data:`REPLAY_WORK_MAX` in all, counting messages times m²,
    :data:`REPLAY_RUN_WORK` per run and 2^m·m / :data:`REPLAY_DP_STEPS` per
    Kemeny solve: one per run for its ratio, and for alg2 one more per
    distinct round-1 view, of which there are at most n.  A two-sided
    scenario record is priced as one run of n messages, its ballots, with
    three solves, an appendix-c record by its grid against
    :data:`REPLAY_GRID_MAX`, and a kemeny record that lists its medians is
    solved first and refused above :data:`REPLAY_MEDIANS_MAX` optima.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            stored = json.load(fh)
        except RecursionError:
            raise ValueError("record nests too deeply to parse") from None
    if not isinstance(stored, dict):
        raise ValueError("record is not a JSON object")
    command = stored.get("command")
    if type(command) is not str or command not in REPLAY:
        raise ValueError(f"record has unknown command {command!r}")
    cfg = stored.get("config")
    if not isinstance(cfg, dict):
        raise ValueError("record has no config object")
    record, checks = REPLAY[command]
    missing = [k for k in checks if k not in cfg]
    if missing:
        raise ValueError(f"record config lacks {', '.join(missing)}")
    bad = [f"{k}={cfg[k]!r}" for k, valid in checks.items() if not valid(cfg[k])]
    if bad:
        raise ValueError(f"record config has bad values: {', '.join(bad)}")
    if command == "simulate":
        # a simulate record holds one run per seed, so one that asks for more
        # seeds than it holds runs can never replay identical: refuse it unrun
        held = len(stored["runs"]) if isinstance(stored.get("runs"), list) else 0
        if cfg["seeds"] > held:
            raise ValueError(f"record asks for {cfg['seeds']} seeds but holds {held} run(s)")
        # the record's ratio, and alg2's median of each distinct round-1 view
        solves = 1 + (cfg["n"] if cfg["protocol"] == "alg2" else 0)
        _price(cfg["protocol"], cfg["n"], cfg["t"], cfg["m"], cfg["seeds"], solves)
    elif command == "scenario" and cfg["name"] == "appendix-c":
        n, t = cfg["n"], cfg["t"]
        grid = (n - t - (n + 1) // 2 + 1) ** 3
        if grid > REPLAY_GRID_MAX:
            raise ValueError(
                f"record asks for a {grid:,}-cell weight grid; replay stops at {REPLAY_GRID_MAX:,}"
            )
    elif command == "scenario":
        # n m-tuple ballots that three profiles build, hash and check; 3 solves
        _refuse_above(1, cfg["n"], cfg["m"], solves=3)
    elif cfg["ties"]:  # kemeny: the count needs the solve, which m <= EXACT_MAX_M bounds
        count = kemeny_exact(parse_profile(cfg["profile"])[0]).count
        if count > REPLAY_MEDIANS_MAX:
            raise ValueError(
                f"record lists {count:,} optimal rankings; replay stops at {REPLAY_MEDIANS_MAX:,}"
            )
    fresh = record(**{k: cfg[k] for k in checks})

    def strip(rec: dict) -> dict:
        rec = json.loads(json.dumps(rec))
        rec.pop("wall_ms", None)
        return rec

    return fresh, strip(fresh) == strip(stored)


# --- entry point --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="byzrank",
        description="Byzantine agreement on preference rankings: solver, simulator, scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    k = sub.add_parser("kemeny", help="exact Kemeny median of a ranking profile")
    k.add_argument("--profile", required=True, help="profile file, or - for stdin")
    k.add_argument(
        "--ties", action="store_true",
        help=f"list every optimal ranking (refused above {MEDIANS_MAX:,})",
    )
    k.add_argument("--verify", action="store_true", help="cross-check against brute force")
    k.add_argument("--json", metavar="PATH", help="write the JSON record to PATH (- for stdout)")
    k.set_defaults(run=cmd_kemeny, show=_print_kemeny)

    s = sub.add_parser("simulate", help="run a protocol against an adversary strategy")
    s.add_argument("--protocol", choices=PROTOCOLS, default="alg1")
    s.add_argument("--strategy", choices=STRATEGY_NAMES, default="honest")
    s.add_argument("--n", type=int)
    s.add_argument("--t", type=int)
    s.add_argument("--m", type=int)
    s.add_argument("--seeds", type=int, default=1, help="number of seeded runs")
    s.add_argument("--seed-start", type=int, default=0)
    s.add_argument("--profile", help="use this profile as the input rankings")
    s.add_argument("--json", metavar="PATH", help="write the JSON record to PATH (- for stdout)")
    s.set_defaults(run=cmd_simulate, show=_print_simulate)

    c = sub.add_parser("scenario", help="worst-case lower-bound constructions")
    c.add_argument("name", choices=SCENARIO_NAMES)
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--t", type=int, required=True)
    c.add_argument("--m", type=int)
    c.add_argument("--side", choices=SIDES, default="both")
    c.add_argument("--case", choices=CASES, default="C231")
    c.add_argument("--json", metavar="PATH", help="write the JSON record to PATH (- for stdout)")
    c.set_defaults(run=cmd_scenario, show=_print_scenario)

    r = sub.add_parser("replay", help="re-run a stored record of any command and compare")
    r.add_argument("record", help="the stored JSON record")
    r.add_argument("--json", metavar="PATH",
                   help="write the regenerated record to PATH (- for stdout)")
    return parser


def _emit_json(record: dict, dest: str) -> None:
    text = json.dumps(record, indent=2)
    if dest == "-":
        print(text)
    else:
        with open(dest, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        if args.command == "replay":
            record, ok = replay(args.record)
        else:
            record = args.run(args)
            ok = record["ok"]
        record["wall_ms"] = int((time.monotonic() - started) * 1000)
        if args.json:
            _emit_json(record, args.json)
        if args.command == "replay":
            status = "replay: identical" if ok else "replay: MISMATCH"
            print(status, file=sys.stderr if args.json == "-" else sys.stdout)
        elif args.json != "-":
            args.show(record)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull so the interpreter's
        # flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
