"""Command-line front end: kemeny solving, protocol simulation, scenarios.

Every command can emit a schema-versioned JSON run record (--json); simulate
and scenario can replay a stored record (--replay FILE) and verify that the
regenerated record is bit-identical apart from wall-clock time.  Exit status:
0 when every asserted property holds (or a replay matches), 1 on property
failure or replay mismatch, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from fractions import Fraction

from .kemeny import (
    MEDIANS_MAX,
    CapacityError,
    approx_ratio,
    kemeny_brute,
    kemeny_exact,
)
from .rankings import ParseError, Profile, parse_profile
from .protocol import ProtocolConfig, expected_messages
from .scenarios import (
    CASES,
    SCENARIO_NAMES,
    SIDES,
    InfeasibleError,
    ScenarioSpec,
    appendix_c_search,
    measure_scenario,
)
from .simnet import PROTOCOLS, STRATEGY_NAMES, make_strategy, run_sync

SCHEMA = "byzrank-run/1"
# the most correct-sender messages a replayed simulate record may ask for,
# summed over its seeds: over five times the largest record the tests and the
# benchmark write (43,989 for one seed at n=31, t=10, m=4, stv-baseline)
REPLAY_MESSAGES_MAX = 250_000


def _ratio_str(ratio) -> str:
    if isinstance(ratio, Fraction):
        return f"{ratio.numerator}/{ratio.denominator}"
    return str(ratio)


# --- kemeny -------------------------------------------------------------------


def kemeny_record(profile_text: str, ties: bool, verify: bool) -> dict:
    profile, names = parse_profile(profile_text)
    result = kemeny_exact(profile)
    record: dict = {
        "schema": SCHEMA,
        "command": "kemeny",
        "config": {"profile": profile_text, "ties": ties, "verify": verify},
        "result": {
            "chosen": [names[c] for c in result.chosen],
            "cost": result.cost,
            "median_count": result.count,
        },
    }
    if ties:
        record["result"]["medians"] = [[names[c] for c in r] for r in result.medians]
    if verify:
        brute = kemeny_brute(profile)
        agreed = (
            brute.cost == result.cost
            and brute.chosen == result.chosen
            and brute.count == result.count
            and set(brute.medians) == set(result.medians)
        )
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
    strategy_name: str,
    n: int,
    t: int,
    m: int,
    seeds: int,
    seed_start: int,
    profile_rankings: list | None = None,
) -> dict:
    if seeds < 1:
        raise ValueError(f"need at least one seed, got {seeds}")
    cfg = ProtocolConfig(n, t, m)
    budget = 2 * n * n + n  # per round
    runs = []
    all_ok = True
    for i in range(seeds):
        seed = seed_start + i
        strategy = make_strategy(strategy_name, n=n, t=t, m=m)
        if profile_rankings is not None:
            inputs = [tuple(r) for r in profile_rankings]
        else:
            rng = random.Random(f"{n}/{t}/{m}/{strategy_name}/{seed}/inputs")
            inputs = [tuple(rng.sample(range(m), m)) for _ in range(n)]
        result = run_sync(protocol, inputs, strategy, cfg, seed=seed)
        per_round = list(result.stats.messages_per_round)
        expected = expected_messages(protocol, n, t, m, result.byz_ids, cfg.dictator_schedule)
        props = {
            "agreement": result.agreement,
            "pareto": result.pareto,
            "rounds": len(per_round) == len(expected),
            "messages": per_round == expected and max(per_round) <= budget,
        }
        ratio = None
        if result.agreement and m <= 16:
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
            "strategy": strategy_name,
            "n": n,
            "t": t,
            "m": m,
            "seeds": seeds,
            "seed_start": seed_start,
            "profile": profile_rankings,
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
        ratio, argmax = appendix_c_search(n, t, case)
        measured, closed, witness = _ratio_str(ratio), None, list(argmax)
        ok = True
        config = {"name": name, "n": n, "t": t, "m": 3, "side": side, "case": case}
    else:
        spec = ScenarioSpec(name, n, t, m, side)
        report = measure_scenario("alg2", spec)
        measured = _ratio_str(report.ratio_measured)
        closed = _ratio_str(report.ratio_closed_form)
        witness = list(report.witness)
        config = {"name": name, "n": n, "t": t, "m": m, "side": side, "case": None}
        # both sides reach the closed form where it is exact; one side, or
        # cycle-worst from m = 5 on, only stays under it
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
    if args.name is None:
        raise ValueError("need a scenario name (or --replay)")
    if args.n is None or args.t is None:
        raise ValueError("need --n and --t")
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


# config keys each replayable command needs, in its record function's argument
# order, each with the test its value must pass
REPLAY_KEYS = {
    "simulate": {
        "protocol": _one_of(*PROTOCOLS),
        "strategy": _one_of(*STRATEGY_NAMES),
        **dict.fromkeys(("n", "t", "m", "seeds", "seed_start"), _exactly(int)),
        "profile": lambda v: v is None or type(v) is list and all(type(r) is list for r in v),
    },
    "scenario": {
        "name": _one_of(*SCENARIO_NAMES),
        **dict.fromkeys(("n", "t", "m"), _exactly(int)),
        "side": _one_of(*SIDES),
        "case": _one_of(*CASES, None),
    },
    "kemeny": {"profile": _exactly(str), **dict.fromkeys(("ties", "verify"), _exactly(bool))},
}
RECORDS = {"simulate": simulate_record, "scenario": scenario_record, "kemeny": kemeny_record}


def replay(path: str) -> tuple[dict, bool]:
    """Re-run a stored record from its own config; True iff bit-identical.

    Raises ValueError when the record is not an object with a known command
    and every config key that command needs, each with a valid value, or
    when a simulate record asks for more seeds than it holds runs or for
    more than :data:`REPLAY_MESSAGES_MAX` messages in all.
    """
    with open(path, encoding="utf-8") as fh:
        stored = json.load(fh)
    if not isinstance(stored, dict):
        raise ValueError("record is not a JSON object")
    command = stored.get("command")
    if command not in REPLAY_KEYS:
        raise ValueError(f"record has unknown command {command!r}")
    cfg = stored.get("config")
    if not isinstance(cfg, dict):
        raise ValueError("record has no config object")
    missing = [k for k in REPLAY_KEYS[command] if k not in cfg]
    if missing:
        raise ValueError(f"record config lacks {', '.join(missing)}")
    bad = [f"{k}={cfg[k]!r}" for k, valid in REPLAY_KEYS[command].items() if not valid(cfg[k])]
    if bad:
        raise ValueError(f"record config has bad values: {', '.join(bad)}")
    if command == "simulate":
        # a simulate record holds one run per seed, so one that asks for more
        # seeds than it holds runs can never replay identical: refuse it unrun
        held = len(stored["runs"]) if isinstance(stored.get("runs"), list) else 0
        if cfg["seeds"] > held:
            raise ValueError(f"record asks for {cfg['seeds']} seeds but holds {held} run(s)")
        # price the run by its closed-form message count before any of it
        # runs; every built-in strategy corrupts the last t ids
        n, t, m = cfg["n"], cfg["t"], cfg["m"]
        schedule = ProtocolConfig(n, t, m).dictator_schedule
        byz = frozenset(range(n - t, n))
        total = cfg["seeds"] * sum(expected_messages(cfg["protocol"], n, t, m, byz, schedule))
        if total > REPLAY_MESSAGES_MAX:
            raise ValueError(
                f"record asks for {total:,} messages; replay stops at {REPLAY_MESSAGES_MAX:,}"
            )
    fresh = RECORDS[command](*(cfg[k] for k in REPLAY_KEYS[command]))

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
    s.add_argument("--replay", metavar="RECORD", help="re-run a stored record and compare")
    s.set_defaults(run=cmd_simulate, show=_print_simulate)

    c = sub.add_parser("scenario", help="worst-case lower-bound constructions")
    c.add_argument("name", choices=SCENARIO_NAMES, nargs="?", default=None)
    c.add_argument("--n", type=int, required=False)
    c.add_argument("--t", type=int, required=False)
    c.add_argument("--m", type=int)
    c.add_argument("--side", choices=SIDES, default="both")
    c.add_argument("--case", choices=CASES, default="C231")
    c.add_argument("--json", metavar="PATH", help="write the JSON record to PATH (- for stdout)")
    c.add_argument("--replay", metavar="RECORD", help="re-run a stored record and compare")
    c.set_defaults(run=cmd_scenario, show=_print_scenario)
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
        if getattr(args, "replay", None):
            record, identical = replay(args.replay)
            record["wall_ms"] = int((time.monotonic() - started) * 1000)
            if args.json:
                _emit_json(record, args.json)
            status = "replay: identical" if identical else "replay: MISMATCH"
            print(status, file=sys.stderr if args.json == "-" else sys.stdout)
            return 0 if identical else 1
        record = args.run(args)
    except (ParseError, CapacityError, InfeasibleError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    record["wall_ms"] = int((time.monotonic() - started) * 1000)
    if args.json:
        _emit_json(record, args.json)
    if args.json != "-":
        args.show(record)
    return 0 if record["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
