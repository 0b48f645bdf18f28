"""Exact Kemeny-median solvers and approximation-ratio reports."""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from byzrank import kemeny
from byzrank.kemeny import (
    BRUTE_MAX_M,
    EXACT_MAX_M,
    INFINITE,
    CapacityError,
    approx_ratio,
    kemeny_brute,
    kemeny_exact,
)
from byzrank.rankings import Profile
from byzrank.tournament import weight_matrix
from conftest import rand_profile, rand_ranking, tau_profile

CYCLE = Profile.of([(0, 1, 2), (1, 2, 0), (2, 0, 1)])


def tie_heavy_profiles(rng):
    """All-tie profiles (each ballot next to its reverse, m! optima) and
    two-bloc profiles (a ranking against its reverse, balanced or not)."""
    for m in (2, 3, 5, 8):
        r = rand_ranking(rng, m)
        yield Profile.of([r, r[::-1]] * rng.randint(1, 3))
        yield Profile.of([r] * rng.randint(1, 4) + [r[::-1]] * rng.randint(1, 4))


def test_condorcet_cycle_medians():
    res = kemeny_exact(CYCLE)
    assert res.cost == 4
    assert set(res.medians) == {(0, 1, 2), (1, 2, 0), (2, 0, 1)}
    assert res.chosen == (0, 1, 2)  # lexicographically first median


def test_two_candidate_tie():
    res = kemeny_exact(Profile.of([(0, 1), (1, 0)]))
    assert res.cost == 1
    assert set(res.medians) == {(0, 1), (1, 0)}
    assert res.chosen == (0, 1)


def test_unanimous_profile():
    res = kemeny_exact(Profile.of([(2, 0, 1)] * 5))
    assert res.medians == ((2, 0, 1),) and res.cost == 0 and res.chosen == (2, 0, 1)


def test_two_bloc_profile_cost():
    # majority bloc wins; cost is the minority bloc's full disagreement
    n, t, m = 12, 3, 3
    r, opp = (0, 1, 2), (2, 1, 0)
    p = Profile.of([r] * (n // 2) + [opp] * (n // 2 - t))
    res = kemeny_exact(p)
    assert res.chosen == r
    assert res.cost == (n // 2 - t) * math.comb(m, 2)


def test_profile_cost_matches_tau_profile():
    rng = random.Random(31)
    for _ in range(40):
        m = rng.randint(2, 5)
        p = rand_profile(rng, rng.randint(1, 7), m)
        r = rand_ranking(rng, m)
        assert approx_ratio(r, p).candidate_cost == tau_profile(r, p)


def test_medians_are_lex_sorted_and_chosen_is_first():
    rng = random.Random(32)
    randoms = [rand_profile(rng, rng.randint(1, 7), rng.randint(2, 5)) for _ in range(25)]
    for p in randoms + list(tie_heavy_profiles(rng)):
        res = kemeny_exact(p)
        assert list(res.medians) == sorted(res.medians)
        assert res.chosen == res.medians[0]
        assert res.count == len(res.medians)


def test_brute_capacity():
    p = Profile.of([tuple(range(BRUTE_MAX_M + 1))])
    with pytest.raises(CapacityError):
        kemeny_brute(p)


def test_exact_capacity():
    p = Profile.of([tuple(range(EXACT_MAX_M + 1))])
    with pytest.raises(CapacityError):
        kemeny_exact(p)


def test_exact_matches_brute_on_random_profiles():
    rng = random.Random(33)
    randoms = [rand_profile(rng, rng.randint(1, 7), rng.randint(2, 5)) for _ in range(60)]
    for p in randoms + list(tie_heavy_profiles(rng)):
        b, e = kemeny_brute(p), kemeny_exact(p)
        assert b.cost == e.cost
        assert b.chosen == e.chosen
        assert set(b.medians) == set(e.medians)
        assert e.count == b.count == len(e.medians)


def test_all_tie_solve_at_capacity_counts_without_listing():
    # [id, rev] * 3 at m = 16: every ranking is optimal, 3 * C(16, 2) = 360
    m = EXACT_MAX_M
    ident = tuple(range(m))
    started = time.monotonic()
    res = kemeny_exact(Profile.of([ident, ident[::-1]] * 3))
    assert time.monotonic() - started < 5.0
    assert res.count == math.factorial(m)
    assert res.chosen == ident
    assert res.cost == 3 * math.comb(m, 2) == 360


def test_median_cost_is_global_minimum():
    rng = random.Random(34)
    for _ in range(20):
        m = rng.randint(2, 4)
        p = rand_profile(rng, rng.randint(1, 6), m)
        res = kemeny_exact(p)
        costs = {r: tau_profile(r, p) for r in itertools.permutations(range(m))}
        assert res.cost == min(costs.values())
        assert set(res.medians) == {r for r, c in costs.items() if c == res.cost}


def test_condorcet_winner_heads_every_median():
    # a candidate beating all others pairwise starts every optimal ranking
    rng = random.Random(35)
    checked = 0
    for _ in range(200):
        m = rng.randint(2, 5)
        n = rng.choice([1, 3, 5, 7])  # odd: no pairwise ties
        p = rand_profile(rng, n, m)
        w = weight_matrix(list(p), m)
        winners = [
            i for i in range(m) if all(w[i][j] > w[j][i] for j in range(m) if j != i)
        ]
        if not winners:
            continue
        checked += 1
        res = kemeny_exact(p)
        assert all(r[0] == winners[0] for r in res.medians)
    assert checked > 20


def test_reversal_duality_of_costs():
    # cost(reverse(r)) mirrors cost(r); maximizers are reversed minimizers
    rng = random.Random(36)
    for _ in range(20):
        m = rng.randint(2, 4)
        n = rng.randint(1, 6)
        p = rand_profile(rng, n, m)
        total = n * math.comb(m, 2)
        costs = {r: tau_profile(r, p) for r in itertools.permutations(range(m))}
        assert max(costs.values()) == total - min(costs.values())
        best = min(costs.values())
        maximizers = {r for r, c in costs.items() if c == total - best}
        assert maximizers == {r[::-1] for r, c in costs.items() if c == best}


def test_doubling_the_profile_preserves_medians():
    rng = random.Random(37)
    for _ in range(15):
        p = rand_profile(rng, rng.randint(1, 5), rng.randint(2, 4))
        doubled = Profile.of(list(p) + list(p), p.m)
        a, b = kemeny_exact(p), kemeny_exact(doubled)
        assert set(a.medians) == set(b.medians)
        assert b.cost == 2 * a.cost


def test_approx_ratio_exact_fraction():
    rep = approx_ratio((2, 1, 0), CYCLE)
    assert rep.candidate_cost == 5 and rep.optimal_cost == 4
    assert rep.ratio == Fraction(5, 4)


def test_approx_ratio_of_a_median_is_one():
    rep = approx_ratio((0, 1, 2), CYCLE)
    assert rep.ratio == Fraction(1)


def test_approx_ratio_zero_over_zero_is_one():
    p = Profile.of([(0, 1, 2)] * 3)
    assert approx_ratio((0, 1, 2), p).ratio == Fraction(1)


def test_approx_ratio_infinite():
    p = Profile.of([(0, 1, 2)] * 3)
    rep = approx_ratio((2, 1, 0), p)
    assert rep.optimal_cost == 0 and rep.candidate_cost > 0
    assert rep.ratio is INFINITE


def test_infinite_dominates_every_fraction():
    assert INFINITE > Fraction(10**9)
    assert Fraction(1) < INFINITE
    assert not (INFINITE < Fraction(5))
    assert INFINITE == INFINITE


def test_approx_ratio_tallies_once(monkeypatch):
    calls = []

    def counted(rankings, m):
        calls.append(m)
        return weight_matrix(rankings, m)

    monkeypatch.setattr(kemeny, "weight_matrix", counted)
    rep = approx_ratio((2, 1, 0), Profile.of([(0, 1, 2), (1, 0, 2), (0, 2, 1)]))
    assert len(calls) == 1
    assert (rep.candidate_cost, rep.optimal_cost) == (7, 2)
