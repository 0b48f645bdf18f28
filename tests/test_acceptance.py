"""Acceptance suite: every advertised guarantee, one printed verdict each.

Each criterion prints `ACCEPTANCE CRITERION k: PASS|FAIL - detail` on the
real stdout (so the verdicts survive pytest's output capture) and then
asserts, making a failure simultaneously grep-able and red.  Criteria 1, 2,
3 and 10 share one 72,000-run protocol sweep (module-scoped fixture) and
judge each run by the properties ``cli.simulate_record`` reports for it,
the verdict ``byzrank simulate --json`` prints; criterion 4 runs the check
of ``byzrank kemeny --verify``.  The whole module takes about two minutes
on one core.

Two guarantees hold only inside a boundary, and the criteria check each one
exactly where it can hold:

  * Pareto (criterion 1) needs n > max(3,m)*t.  At n <= m*t no algorithm
    can give it: split the nodes into m groups of at most t, group s holding
    the rotation (s, s+1, ..., s-1) of the cycle 0 -> 1 -> ... -> m-1 -> 0.
    Each cycle edge i -> i+1 is contradicted by exactly one group (s = i+1)
    and every output reverses some cycle edge.  Corrupting the group that
    contradicts that edge, and letting it behave honestly, leaves every
    correct node's view unchanged, so the output is unchanged, yet the
    correct nodes are now unanimous on the reversed edge
    (test_rotation_groups_defeat_pareto runs this argument).  At
    n > max(3,m)*t alg1 keeps every unanimous pair: in a fixed-pair cycle
    of length L the unanimous edge has n-t correct supporters and every
    other edge at least n-2t, while each of the n-t correct ballots backs
    at most L-1 of its edges, so (n-t) + (L-1)(n-2t) <= (L-1)(n-t), i.e.
    n <= L*t <= m*t.  alg2 keeps it too: a correct node's median view
    holds the unanimous pair on at least n-t of at most n ballots, every
    Kemeny median keeps a pair held by more than (m-1)/m of the ballots
    (proved and checked in tests/test_lemmas.py), and (n-t)/n > (m-1)/m
    iff n > m*t.  So every correct node's median already keeps the pair.
  * Fixed-pair cycles (criterion 9) occur iff n <= (m+1)*t.
    cycle_lock_attack builds one whenever n <= (L+1)*t for some L <= m.
    Without a unanimous edge the same count gives L(n-2t) <= (L-1)(n-t),
    i.e. n <= (L+1)*t, so above (m+1)*t no cycle can form.

The census tests pin both outside-the-boundary sets exactly, so drift in
either turns a test red.
"""

import random
import sys
import time
from fractions import Fraction
from math import comb

import pytest

from byzrank.cli import kemeny_record, simulate_record
from byzrank.kemeny import approx_ratio
from byzrank.protocol import ProtocolConfig
from byzrank.rankings import Profile
from byzrank.scenarios import (
    appendix_c_search,
    binary_closed_form,
    cycle_closed_form,
    gen_binary_worst,
    measure_scenario,
)
from byzrank.simnet import STRATEGY_NAMES, Honest, adversary_search, run_sync

PROTOCOLS = ("alg1", "alg2", "stv-baseline")
SWEEP_NS = range(4, 14)
SWEEP_MS = range(2, 6)
SWEEP_SEEDS = 100

# Every sweep run that ends without one of the correct nodes' unanimous
# pairs, keyed (n, t, m, strategy, protocol, seed).  All five lie at
# n <= m*t, where no algorithm can give Pareto (module docstring).  Three
# mechanisms reach it: a perfect rotation-orbit input profile (every node
# locks the full cycle and the canonical resolution drops the one unanimous
# pair), a byzantine ballot diluting a unanimous pair to exactly n-t votes,
# and an adaptive reversed-median ballot doing the same at m=4.
KNOWN_PARETO_GAPS = frozenset(
    {
        (4, 1, 4, "honest", "alg1", 22),
        (4, 1, 4, "honest", "alg2", 22),
        (4, 1, 4, "honest", "stv-baseline", 22),
        (4, 1, 5, "random", "alg2", 12),
        (10, 3, 4, "opposite-median", "alg2", 3),
    }
)

# Cells where cycle_lock_attack forces the fixed-pair cycle error
# (n <= (m+1)*t) and cells where no adversary can (n > (m+1)*t; module
# docstring).
ATTACKABLE_CELLS = ((4, 1, 3), (7, 2, 3), (9, 2, 4), (6, 1, 5), (10, 3, 3))
SAFE_CELLS = ((5, 1, 3), (6, 1, 3), (9, 2, 3), (6, 1, 4), (7, 1, 5), (13, 3, 3))


def pareto_possible(n, t, m):
    return n > m * t


def cycle_forcible(n, t, m):
    return n <= (m + 1) * t


def verdict(capfd, k: int, ok: bool, detail: str) -> bool:
    # capfd.disabled() lifts pytest's fd-level capture so the verdict reaches
    # the real stdout even when the criterion passes
    with capfd.disabled():
        print(f"ACCEPTANCE CRITERION {k}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    return ok


def fmt_run(rid):
    n, t, m, strategy, protocol, seed = rid
    return f"(n={n},t={t},m={m},{strategy},{protocol},seed={seed})"


def fmt_cells(cells):
    return ", ".join(f"(n={n},t={t},m={m})" for n, t, m in cells) or "no cell"


@pytest.fixture(scope="module")
def sweep():
    """Every run of the sweep as (run id, properties, ratio), judged by
    ``simulate_record``, the function behind ``byzrank simulate --json``."""
    rows = []
    started = time.monotonic()
    for n in SWEEP_NS:
        t = (n - 1) // 3
        for m in SWEEP_MS:
            for strategy in STRATEGY_NAMES:
                for protocol in PROTOCOLS:
                    record = simulate_record(protocol, strategy, n, t, m, SWEEP_SEEDS, 0)
                    rows += [
                        ((n, t, m, strategy, protocol, run["seed"]),
                         run["properties"], run["ratio"])
                        for run in record["runs"]
                    ]
        print(
            f"  sweep: n={n} done, {len(rows)} runs,"
            f" {time.monotonic() - started:.0f}s elapsed",
            file=sys.__stdout__,
            flush=True,
        )
    return rows


def failures(sweep, prop):
    """The runs whose record reports ``prop`` false (absent counts as held)."""
    return [rid for rid, props, _ in sweep if not props.get(prop, True)]


def max_alg2_ratio(sweep):
    """The largest alg2 ratio within the n/(n-2t) bound, and its first run."""
    best, at = Fraction(0), None
    for rid, props, ratio in sweep:
        if props.get("ratio_bound") and Fraction(ratio) > best:
            best, at = Fraction(ratio), rid
    return best, at


def test_criterion_1_agreement_and_pareto(sweep, capfd):
    disagreements = failures(sweep, "agreement")
    pareto_failures = failures(sweep, "pareto")
    in_scope = [r for r in pareto_failures if pareto_possible(*r[:3])]
    scope_runs = sum(pareto_possible(*rid[:3]) for rid, _, _ in sweep)
    ok = not disagreements and not in_scope
    detail = (
        f"{len(sweep)} runs: agreement 100%"
        if not disagreements
        else f"{len(disagreements)} agreement failures"
    )
    if in_scope:
        detail += f"; {len(in_scope)} runs with n > m*t lost a unanimous pair: " + ", ".join(
            fmt_run(r) for r in in_scope
        )
    else:
        detail += f", unanimous pairs preserved in all {scope_runs} runs with n > m*t"
    detail += (
        f"; {len(sweep) - scope_runs} runs with n <= m*t excluded (Pareto impossible there),"
        f" {len(pareto_failures) - len(in_scope)} of them lost a pair"
    )
    verdict(capfd, 1, ok, detail)
    assert disagreements == []
    assert scope_runs == 43_200
    assert in_scope == []


def test_pareto_gap_census(sweep):
    # regression pin: the criterion-1 failures are exactly the known five
    assert set(failures(sweep, "pareto")) == KNOWN_PARETO_GAPS


class HonestGroup(Honest):
    """Corrupts one fixed group of nodes, which then follow the protocol."""

    def __init__(self, group):
        self.group = frozenset(group)

    def pick_byzantine(self, n, t):
        return self.group


@pytest.mark.parametrize("n,t,m", [(4, 1, 4), (4, 1, 5), (10, 3, 4)])
def test_rotation_groups_defeat_pareto(n, t, m):
    # the n <= m*t impossibility argument of the module docstring, run on
    # the three cells of KNOWN_PARETO_GAPS; with n < m the cycle spans the
    # first L = n candidates and the rest trail every ballot
    L = min(n, m)
    sizes = [n // L + (s < n % L) for s in range(L)]
    assert max(sizes) <= t
    starts = [sum(sizes[:s]) for s in range(L)]
    groups = [range(a, a + size) for a, size in zip(starts, sizes)]
    tail = tuple(range(L, m))
    inputs = [
        tuple((s + i) % L for i in range(L)) + tail for s in range(L) for _ in groups[s]
    ]
    cfg = ProtocolConfig(n, t, m)
    for protocol in PROTOCOLS:
        results = [run_sync(protocol, inputs, HonestGroup(g), cfg, seed=0) for g in groups]
        assert all(r.agreement for r in results), protocol
        # the corrupted group behaves honestly, so no correct node can tell
        # which group it was: the output is the same in every run ...
        assert len({r.consensus for r in results}) == 1, protocol
        # ... and it reverses some cycle edge, which is unanimous among the
        # correct nodes once the group contradicting it is the corrupted one
        assert not all(r.pareto for r in results), protocol


def test_criterion_2_round_exactness(sweep, capfd):
    mismatches = failures(sweep, "rounds")
    verdict(capfd, 2,
        not mismatches,
        f"rounds == t+1 / t+3 / (m-1)(t+1) in all {len(sweep)} runs"
        if not mismatches
        else f"{len(mismatches)} mismatches, first " + fmt_run(mismatches[0]),
    )
    assert mismatches == []


def test_criterion_3_message_budget(sweep, capfd):
    breaches = failures(sweep, "messages")
    verdict(capfd, 3,
        not breaches,
        f"per-round counts match the closed form and stay <= 2n^2+n in all {len(sweep)} runs"
        if not breaches
        else f"{len(breaches)} runs off the closed form or over 2n^2+n, first "
        + fmt_run(breaches[0]),
    )
    assert breaches == []


def test_criterion_4_kemeny_oracle_equivalence(capfd):
    # byzrank kemeny --verify's check: exact and brute force agree on the
    # cost, the chosen median, the optima count and every median
    rng = random.Random("acceptance/kemeny-oracle")
    mismatches = 0
    for _ in range(500):
        m = rng.randint(2, 6)
        voters = rng.randint(1, 9)
        text = "\n".join(
            " > ".join(map(str, rng.sample(range(m), m))) for _ in range(voters)
        )
        if not kemeny_record(text, ties=False, verify=True)["result"]["verified"]:
            mismatches += 1
    ok = mismatches == 0
    verdict(capfd, 4, ok, "exact == brute in cost, median, optima count and every median"
            " on 500/500 random profiles (m<=6, n<=9)"
            if ok else f"{mismatches}/500 mismatches")
    assert mismatches == 0


def test_criterion_5_reversal_identity(capfd):
    rng = random.Random("acceptance/reversal-identity")
    bad = 0
    for _ in range(200):
        m = rng.randint(2, 7)
        voters = rng.randint(1, 12)
        profile = Profile.of(
            [tuple(rng.sample(range(m), m)) for _ in range(voters)], m
        )
        r = tuple(rng.sample(range(m), m))
        forward, backward = (approx_ratio(x, profile).candidate_cost for x in (r, r[::-1]))
        if forward + backward != voters * comb(m, 2):
            bad += 1
    ok = bad == 0
    verdict(capfd, 5, ok, "tau(r,P) + tau(reverse(r),P) == |P|*C(m,2) on 200/200 random pairs"
            if ok else f"{bad}/200 identity failures")
    assert bad == 0


def test_criterion_6_binary_worst_reproduction(capfd):
    report = measure_scenario("binary-worst", 12, 3, 2)
    sides = gen_binary_worst(12, 3, 2)
    left, right = sides["left"], sides["right"]
    same_completed = sorted(left[0] + left[1]) == sorted(right[0] + right[1])
    ok = (
        report.ratio_measured == Fraction(2)
        and report.ratio_closed_form == Fraction(2)
        and binary_closed_form(12, 3) == Fraction(2)
        and same_completed
    )
    verdict(capfd, 6,
        ok,
        f"n=12 t=3: measured {report.ratio_measured} == k/(k-2) == 2/1; "
        f"completed left/right profiles identical: {same_completed}",
    )
    assert ok


def test_criterion_7_cycle_worst_reproduction(capfd):
    report = measure_scenario("cycle-worst", 90, 10, 3)
    ok = (
        report.ratio_measured == Fraction(11, 9)
        and report.ratio_closed_form == Fraction(11, 9)
        and report.ratio_measured < Fraction(5, 4)
    )
    verdict(capfd, 7,
        ok,
        f"n=90 t=10 m=3: measured {report.ratio_measured} == (k+2)/k == 11/9 < 5/4",
    )
    assert ok


def test_criterion_8_weight_grid_verification(capfd):
    named = [
        # (n, t, case, closed form, optimizer the formula predicts)
        (12, 2, "C231", Fraction(4, 3), (8, 6, 6)),  # 2 - 4/k, k = 6
        (30, 3, "C231", Fraction(19, 16), (19, 19, 16)),  # (2k-1)/(2k-4), k = 10
        (16, 2, "C312", Fraction(5, 4), (10, 10, 8)),  # 3/2 - 2/k, k = 8
    ]
    exact_ok = all(appendix_c_search(n, t, case) == (r, arg) for n, t, case, r, arg in named)
    fractional = [
        # fractional optimum coordinates: integer grid max may only fall short
        (15, 3, "C231", 2 - Fraction(12, 15)),
        (19, 4, "C231", 2 - Fraction(16, 19)),
        (25, 3, "C231", Fraction(47, 38)),
        (18, 2, "C231", Fraction(17, 14)),
        (14, 2, "C312", Fraction(3, 2) - Fraction(4, 14)),
        (10, 2, "C312", Fraction(3, 2) - Fraction(4, 10)),
    ]
    under_ok = all(appendix_c_search(n, t, case)[0] <= r for n, t, case, r in fractional)
    ok = exact_ok and under_ok
    verdict(capfd, 8,
        ok,
        "4/3, 19/16, 5/4 reproduced exactly at their integer instances; "
        "6 fractional-optimum instances stay <= the closed form",
    )
    assert exact_ok
    assert under_ok


def test_criterion_9_cycle_integrity_stress(capfd):
    safe_runs = 0
    triggered = []
    for n, t, m in ATTACKABLE_CELLS + SAFE_CELLS:
        budget = 40 if cycle_forcible(n, t, m) else 1700
        report = adversary_search(
            "alg1", ProtocolConfig(n, t, m), "trigger-integrity", budget,
            seed=f"acceptance/integrity/{n}/{t}/{m}",
        )
        if not cycle_forcible(n, t, m):
            safe_runs += report.runs
        if report.found:
            triggered.append((n, t, m))
    expected = [c for c in ATTACKABLE_CELLS + SAFE_CELLS if cycle_forcible(*c)]
    ok = safe_runs >= 10_000 and triggered == expected
    detail = (
        f"{safe_runs} adversarial runs at the n > (m+1)t cells;"
        f" cycle forced at {fmt_cells(triggered)}"
    ) + (
        " - exactly the cells with n <= (m+1)t"
        if triggered == expected
        else f", expected {fmt_cells(expected)}"
    )
    verdict(capfd, 9, ok, detail)
    assert safe_runs >= 10_000
    assert [c for c in triggered if c in SAFE_CELLS] == []
    assert triggered == expected


def test_integrity_trigger_census():
    # regression pin: the attack succeeds exactly where n <= (m+1)*t
    for n, t, m in ATTACKABLE_CELLS + SAFE_CELLS:
        report = adversary_search(
            "alg1", ProtocolConfig(n, t, m), "trigger-integrity", 40,
            seed=f"acceptance/integrity-census/{n}/{t}/{m}",
        )
        assert report.found == (n <= (m + 1) * t), (n, t, m)


def test_criterion_10_upper_bound_conformance(sweep, capfd):
    scenario_cells = [
        ("binary-worst", 8, 2, 2),
        ("binary-worst", 12, 3, 2),
        ("binary-worst", 12, 3, 3),
        ("binary-worst", 12, 3, 5),
        ("binary-worst", 20, 4, 2),
        ("cycle-worst", 18, 2, 3),
        ("cycle-worst", 18, 2, 4),
        ("cycle-worst", 18, 2, 5),
        ("cycle-worst", 40, 4, 3),
        ("cycle-worst", 90, 10, 3),
    ]
    scenario_breaches = []
    for cell in scenario_cells:
        report = measure_scenario(*cell)
        if report.ratio_measured > report.ratio_closed_form:
            scenario_breaches.append(cell)

    # the closed forms themselves behave like the limits they approach:
    # the cycle bound rises with m toward n/(n-2t), never crossing it, and
    # both families' bounds rise as n/t falls toward 3
    cycle_bounds = [cycle_closed_form(90, 10, m) for m in range(3, 31)]
    limit = Fraction(90, 90 - 20)
    monotone_ok = (
        all(a <= b for a, b in zip(cycle_bounds, cycle_bounds[1:]))
        and all(b < limit for b in cycle_bounds)
        and limit - cycle_closed_form(90, 10, 400) < Fraction(1, 100)
        and all(
            binary_closed_form(60, t) < binary_closed_form(60, t + 1)
            for t in range(2, 19)
        )
    )

    violations = failures(sweep, "ratio_bound")
    ok = not violations and not scenario_breaches and monotone_ok
    best, at = max_alg2_ratio(sweep)
    tight = f"; sweep max {best} at {fmt_run(at)}" if at else ""
    verdict(capfd, 10,
        ok,
        f"ratio <= n/(n-2t) in every alg2 sweep run and <= the family closed form "
        f"in all {len(scenario_cells)} scenario cells{tight}",
    )
    assert violations == []
    assert scenario_breaches == []
    assert monotone_ok


def test_sweep_max_ratio_is_tight(sweep):
    # the n/(n-2t) bound is attained, so it cannot be improved wholesale
    best, at = max_alg2_ratio(sweep)
    assert best == Fraction(5, 2)
    assert at[:3] == (10, 3, 2)
