"""The benchmark's workloads: seeded op lists over byzrank's CLI entry points.

An op is one call to a workload's entry point.  A workload builds one *pass*
of ops from ``(seed, pass_no)``; every pass has the same composition (the
same protocols, cells, sizes and specs) and differs only in its seeded
inputs, so per-pass cost is steady across seeds.  Scenario inputs are fixed
constructions, so its passes repeat them.  Each op carries a check that
digests its output and names the first broken invariant, if any.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

PROTOCOLS = ("alg1", "alg2", "stv-baseline")
STRATEGIES = ("honest", "silent", "opposite-median", "equivocate", "scripted", "random")
# ROADMAP item 1's fixed cells; all lie in the n <= (m+1)t band, so Pareto
# gaps occur and are pinned through the digest, not counted as failures.
SWEEP_CELLS = ((7, 2, 3), (13, 4, 5), (31, 10, 4))

# Safe cells (n > (m+1)t) of acceptance criterion 9: no search finds a
# violation there, so every call spends its full budget.
SEARCH_PROTOCOLS = ("alg1", "stv-baseline")
SEARCH_CELLS = ((13, 3, 3), (9, 2, 3), (7, 1, 5), (6, 1, 4))
SEARCH_OBJECTIVES = ("trigger-integrity", "break-validity")
SEARCH_BUDGET = 10

# (m, profiles per pass): uneven counts put p50 inside the m=11 group and
# p90 inside the m=13 group, rather than on a boundary between two sizes.
KEMENY_SIZES = ((10, 5), (11, 5), (12, 4), (13, 2))

SCENARIOS = (
    ("binary-worst", 12, 3, 5, "C231"),
    ("binary-worst", 12, 3, 6, "C231"),
    ("binary-worst", 12, 3, 7, "C231"),
    ("binary-worst", 12, 3, 8, "C231"),
    ("cycle-worst", 18, 2, 5, "C231"),
    ("cycle-worst", 40, 4, 3, "C231"),
    ("cycle-worst", 90, 10, 3, "C231"),
    ("appendix-c", 30, 3, 3, "C231"),
    ("appendix-c", 16, 2, 3, "C312"),
)


@dataclass(frozen=True)
class Op:
    """One entry-point call; ``check`` maps its output to (digest, problem)."""

    key: str
    call: Callable[[], object]
    check: Callable[[object], tuple[str, str | None]]


def digest(value: object) -> str:
    text = json.dumps(value, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# --- sweep --------------------------------------------------------------------


def _simulate(prog, protocol, strategy, n, t, m, k):
    return prog.cli.simulate_record(protocol, strategy, n, t, m, seeds=1, seed_start=k)


def _check_simulate(protocol: str, record: dict) -> tuple[str, str | None]:
    props = record["runs"][0]["properties"]
    required = ("agreement", "rounds", "messages") + (
        ("ratio_bound",) if protocol == "alg2" else ()
    )
    broken = [p for p in required if not props.get(p)]
    return digest(record), (f"broken: {', '.join(broken)}" if broken else None)


def sweep_ops(prog, seed: int, pass_no: int) -> list[Op]:
    rng = random.Random(f"sweep/{seed}/{pass_no}")
    ops = []
    for protocol in PROTOCOLS:
        for strategy in STRATEGIES:
            for n, t, m in SWEEP_CELLS:
                k = rng.randrange(1 << 30)
                ops.append(Op(
                    f"sweep/{protocol}/{strategy}/{n},{t},{m}/{k}",
                    partial(_simulate, prog, protocol, strategy, n, t, m, k),
                    partial(_check_simulate, protocol),
                ))
    return ops


# --- search -------------------------------------------------------------------


def _search(prog, protocol, n, t, m, objective, search_seed):
    cfg = prog.protocol.ProtocolConfig(n, t, m)
    return prog.simnet.adversary_search(protocol, cfg, objective, SEARCH_BUDGET, search_seed)


def _check_search(report) -> tuple[str, str | None]:
    witness = report.witness
    value = {
        "objective": report.objective,
        "runs": report.runs,
        "found": report.found,
        "max_ratio": report.max_ratio,
        "witness_config": report.witness_config,
        "witness_outputs": sorted(witness.outputs.items()) if witness else None,
    }
    problem = None
    if report.found:
        problem = f"found a violation at a safe cell: {report.witness_config}"
    elif report.runs != SEARCH_BUDGET:
        problem = f"spent {report.runs} of {SEARCH_BUDGET} runs"
    return digest(value), problem


def search_ops(prog, seed: int, pass_no: int) -> list[Op]:
    ops = []
    for protocol in SEARCH_PROTOCOLS:
        for n, t, m in SEARCH_CELLS:
            for objective in SEARCH_OBJECTIVES:
                search_seed = f"bench/{seed}/{pass_no}"
                ops.append(Op(
                    f"search/{protocol}/{n},{t},{m}/{objective}/{search_seed}",
                    partial(_search, prog, protocol, n, t, m, objective, search_seed),
                    _check_search,
                ))
    return ops


# --- kemeny -------------------------------------------------------------------


def _profile(rng: random.Random, m: int) -> list[list[str]]:
    """An odd number (5..31) of noisy copies of one random reference ranking.

    Each copy takes m random adjacent swaps.  Such concentrated profiles nearly
    always have a single optimal ranking, so this traffic times the subset
    DP rather than tie enumeration.
    """
    reference = [f"c{c}" for c in rng.sample(range(m), m)]
    ballots = []
    for _ in range(rng.randrange(5, 32, 2)):
        ballot = list(reference)
        for _ in range(m):
            i = rng.randrange(m - 1)
            ballot[i], ballot[i + 1] = ballot[i + 1], ballot[i]
        ballots.append(ballot)
    return ballots


def _kemeny(prog, text):
    return prog.cli.kemeny_record(text, ties=False, verify=False)


def _check_kemeny(ballots: list[list[str]], record: dict) -> tuple[str, str | None]:
    result = record["result"]
    chosen = result["chosen"]
    problem = None
    if sorted(chosen) != sorted(ballots[0]):
        problem = f"chosen {chosen} is not a ranking of the profile's candidates"
    else:
        # Kendall-tau cost of the chosen ranking, computed independently
        cost = 0
        for ballot in ballots:
            pos = {c: i for i, c in enumerate(ballot)}
            cost += sum(
                pos[chosen[i]] > pos[chosen[j]]
                for i in range(len(chosen)) for j in range(i + 1, len(chosen))
            )
        if cost != result["cost"]:
            problem = f"profile cost of chosen is {cost}, record says {result['cost']}"
        elif result["median_count"] < 1:
            problem = "no optimal ranking reported"
    return digest(record), problem


def kemeny_ops(prog, seed: int, pass_no: int) -> list[Op]:
    rng = random.Random(f"kemeny/{seed}/{pass_no}")
    ops = []
    for m, count in KEMENY_SIZES:
        for j in range(count):
            ballots = _profile(rng, m)
            text = "\n".join(" > ".join(b) for b in ballots) + "\n"
            ops.append(Op(
                f"kemeny/m={m}/{seed}/{pass_no}/{j}",
                partial(_kemeny, prog, text),
                partial(_check_kemeny, ballots),
            ))
    return ops


# --- scenario -----------------------------------------------------------------


def _scenario(prog, name, n, t, m, case):
    return prog.cli.scenario_record(name, n, t, m, "both", case)


def _check_scenario(record: dict) -> tuple[str, str | None]:
    return digest(record), (None if record["ok"] else f"not ok: {record['report']}")


def scenario_ops(prog, seed: int, pass_no: int) -> list[Op]:
    # inputs are fixed constructions; the seed only sets the op order
    return [
        Op(
            f"scenario/{name}/{n},{t},{m}/{case}",
            partial(_scenario, prog, name, n, t, m, case),
            _check_scenario,
        )
        for name, n, t, m, case in SCENARIOS
    ]


WORKLOADS = {
    "sweep": sweep_ops,
    "search": search_ops,
    "kemeny": kemeny_ops,
    "scenario": scenario_ops,
}
