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
from conftest import blocks_by_pairs, rand_profile, rand_ranking, tau_profile

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


def block_profiles(rng):
    """Profiles whose majority graph splits into 2-4 ordered blocks.

    A leading bloc of voters ranks the planned blocks in order, each in a
    random inner order, and a smaller or equal number of random voters
    makes cross-block pairs strict but not unanimous, or, with an even
    voter count, ties one of them, which merges two would-be blocks.
    """
    for _ in range(150):
        m = rng.randint(4, BRUTE_MAX_M)
        ref = rand_ranking(rng, m)
        cuts = sorted(rng.sample(range(1, m), rng.randint(1, 3)))
        planned = [ref[a:b] for a, b in zip([0] + cuts, cuts + [m])]
        bloc = rng.randint(2, 5)
        ballots = [
            tuple(c for block in planned for c in rng.sample(block, len(block)))
            for _ in range(bloc)
        ]
        ballots += [rand_ranking(rng, m) for _ in range(rng.randint(1, bloc))]
        yield Profile.of(ballots, m)


def test_exact_matches_brute_on_block_profiles():
    # 0 beats 1 and 1 beats 2 by 3 to 1, not unanimously; 2 and 3 tie
    split = Profile.of([(0, 1, 2, 3), (1, 0, 3, 2), (0, 2, 1, 3), (0, 1, 3, 2)])
    # 1 and 2 tie 2 to 2 with four voters, so {1} and {2} merge
    merged = Profile.of([(0, 1, 2, 3), (1, 0, 3, 2), (0, 2, 1, 3), (2, 0, 1, 3)])
    assert kemeny._blocks(weight_matrix(split.rankings, 4)) == [[0], [1], [2, 3]]
    assert kemeny._blocks(weight_matrix(merged.rankings, 4)) == [[0], [1, 2], [3]]
    rng = random.Random(38)
    block_counts = set()
    for p in [split, merged, *block_profiles(rng)]:
        block_counts.add(len(kemeny._blocks(weight_matrix(p.rankings, p.m))))
        b, e = kemeny_brute(p), kemeny_exact(p)
        assert (e.cost, e.chosen, e.count) == (b.cost, b.chosen, b.count)
        assert e.medians == b.medians
        r = rand_ranking(rng, p.m)
        rep = approx_ratio(r, p)
        assert (rep.candidate_cost, rep.optimal_cost) == (tau_profile(r, p), b.cost)
        if b.cost:
            assert rep.ratio == Fraction(rep.candidate_cost, b.cost)
    assert {2, 3, 4} <= block_counts


def test_blocks_match_the_pairwise_copeland_oracle():
    rng = random.Random(40)
    profiles = [rand_profile(rng, rng.randint(1, 8), m) for m in range(1, 9) for _ in range(40)]
    profiles += [*tie_heavy_profiles(rng), *block_profiles(rng)]
    profiles += [Profile.of([(0,)] * n) for n in (1, 2)]
    assert {p.m for p in profiles} == set(range(1, BRUTE_MAX_M + 1))
    for p in profiles:
        w = weight_matrix(p.rankings, p.m)
        assert kemeny._blocks(w) == blocks_by_pairs(w)
    assert kemeny._blocks([]) == blocks_by_pairs([]) == []


def _dp_sizes(monkeypatch) -> list[int]:
    sizes: list[int] = []
    solve = kemeny._prefix_dp

    def recorded(w):
        sizes.append(len(w))
        return solve(w)

    monkeypatch.setattr(kemeny, "_prefix_dp", recorded)
    return sizes


def test_dp_runs_per_majority_block(monkeypatch):
    m = EXACT_MAX_M
    ident = tuple(range(m))
    sizes = _dp_sizes(monkeypatch)
    # three ballots move 3 below 4 and 5 and swap 11 and 12: ties against the
    # three identity ballots join {3, 4, 5} and {11, 12}, every other pair is
    # unanimous
    moved = list(ident)
    moved[3:6], moved[11:13] = [4, 5, 3], [12, 11]
    res = kemeny_exact(Profile.of([ident] * 3 + [tuple(moved)] * 3))
    # a lone candidate needs no table, and neither does the all-tie {11, 12};
    # {3, 4, 5} holds the strict pair 4 over 5
    assert sizes == [3]
    assert (res.cost, res.chosen, res.count) == (9, ident, 3 * 2)
    sizes.clear()
    all_tie = kemeny_exact(Profile.of([ident, ident[::-1]] * 3))
    assert sizes == [] and all_tie.count == math.factorial(m)
    # the 16 rotations of the identity: one block, tied only at distance 8,
    # so the DP still runs at capacity; the rotations are the optima, at
    # cost m(m^2 - 1)/6
    started = time.monotonic()
    rotations = kemeny_exact(Profile.of([ident[i:] + ident[:i] for i in range(m)]))
    assert time.monotonic() - started < 5.0
    assert sizes == [m]
    assert (rotations.cost, rotations.chosen, rotations.count) == (m * (m * m - 1) // 6, ident, m)


@pytest.mark.parametrize("b", range(1, 9))
def test_prefix_dp_rows_on_random_weights(b):
    # any non-negative weights with a zero diagonal, not only a tournament's:
    # odd and even b split the rows into halves of k = b // 2 and b - k, and
    # b = 1 leaves the low half empty
    rng = random.Random(b)
    everyone = range(b)
    for _ in range(6 if b < 8 else 2):
        w = [[0 if d == c else rng.randint(0, 3) for c in everyone] for d in everyone]
        h, cnt, append_cost = kemeny._prefix_dp(w)
        for s in range(1 << b):
            unplaced = [d for d in everyone if not s >> d & 1]
            for c in unplaced:
                assert append_cost(s, c) == sum(w[d][c] for d in unplaced if d != c)
        costs = [kemeny._backward(w, order) for order in itertools.permutations(everyone)]
        assert (h[0], cnt[0]) == (min(costs), costs.count(min(costs)))


def tie_block_profiles(rng):
    """A bloc of ballots that keeps 2-4 planned blocks in order, each in a
    random inner order per ballot, and its copy with one block of two or
    more candidates reversed: that block ties on every pair, and the other
    blocks are as strict, tied or cyclic as the bloc makes them."""
    for _ in range(120):
        m = rng.randint(3, BRUTE_MAX_M)
        ref = rand_ranking(rng, m)
        cuts = sorted(rng.sample(range(1, m), rng.randint(1, min(3, m - 2))))
        planned = [ref[a:b] for a, b in zip([0] + cuts, cuts + [m])]
        tied = rng.choice([i for i, block in enumerate(planned) if len(block) > 1])
        bloc = [
            [tuple(rng.sample(block, len(block))) for block in planned]
            for _ in range(rng.randint(1, 5))
        ]
        copy = [
            [block[::-1] if i == tied else block for i, block in enumerate(ballot)]
            for ballot in bloc
        ]
        yield Profile.of([sum(ballot, ()) for ballot in bloc + copy], m), sorted(planned[tied])


def test_all_tie_block_between_strict_blocks_matches_brute(monkeypatch):
    sizes = _dp_sizes(monkeypatch)
    # the rotations of 0 > 1 > 2 and of 5 > 6 > 7 make two cyclic blocks, and
    # the copy's reversal of 3 > 4 ties the block between them
    rotations = [(j, j + 1, j + 2)[k:] + (j, j + 1, j + 2)[:k] for j in (0, 5) for k in range(3)]
    bloc = [rotations[k] + (3, 4) + rotations[3 + k] for k in range(3)]
    p = Profile.of(bloc + [r[:3] + (4, 3) + r[5:] for r in bloc])
    assert kemeny._blocks(weight_matrix(p.rankings, 8)) == [[0, 1, 2], [3, 4], [5, 6, 7]]
    b, e = kemeny_brute(p), kemeny_exact(p)
    assert sizes == [3, 3]
    # each cycle costs 2 * 4 and the tie 3; 3 * 2 * 3 optima
    assert (e.cost, e.chosen, e.count) == (b.cost, b.chosen, b.count) == (19, tuple(range(8)), 18)
    assert e.medians == b.medians
    rng = random.Random(39)
    strict_blocks = 0
    for p, tied in tie_block_profiles(rng):
        sizes.clear()
        w = weight_matrix(p.rankings, p.m)
        blocks = kemeny._blocks(w)
        assert tied in blocks
        b, e = kemeny_brute(p), kemeny_exact(p)
        assert (e.cost, e.chosen, e.count) == (b.cost, b.chosen, b.count)
        assert e.medians == b.medians
        # the DP runs exactly on the blocks that hold a strict pair
        strict = [
            len(block) for block in blocks
            if any(w[a][c] != w[c][a] for a, c in itertools.combinations(block, 2))
        ]
        assert sizes == strict
        strict_blocks += len(strict)
    assert strict_blocks > 0


def test_exact_refuses_above_capacity_before_tallying(monkeypatch):
    sizes = _dp_sizes(monkeypatch)
    tallies = []
    monkeypatch.setattr(kemeny, "weight_matrix", lambda *args: tallies.append(args))
    p = Profile.of([tuple(range(EXACT_MAX_M + 1))] * 3)
    with pytest.raises(CapacityError):
        kemeny_exact(p)
    with pytest.raises(CapacityError):
        approx_ratio(tuple(range(EXACT_MAX_M + 1)), p)
    assert tallies == [] and sizes == []


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
