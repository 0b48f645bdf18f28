"""Pairwise-preference tallies built from rankings: weight matrices and packed lanes."""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from byzrank.rankings import Profile, pairs_of
from byzrank.tournament import pair_lanes, weight_matrix
from conftest import (
    bloc_ballots,
    rand_profile,
    rand_ranking,
    triangle_holds,
    weight_matrix_per_ballot,
)

CYCLE = Profile.of([(0, 1, 2), (1, 2, 0), (2, 0, 1)])


def test_weight_matrix_condorcet_cycle():
    w = weight_matrix(list(CYCLE), 3)
    assert w[0][1] == 2 and w[1][0] == 1
    assert w[1][2] == 2 and w[2][1] == 1
    assert w[2][0] == 2 and w[0][2] == 1


def test_weight_matrix_empty():
    assert weight_matrix([], 3) == [[0] * 3 for _ in range(3)]


def test_weights_antisymmetric_sum():
    rng = random.Random(21)
    for _ in range(25):
        p = rand_profile(rng, rng.randint(1, 8), rng.randint(2, 5))
        w = weight_matrix(p.rankings, p.m)
        for i in range(p.m):
            assert w[i][i] == 0
            for j in range(i + 1, p.m):
                assert w[i][j] + w[j][i] == len(p)


def test_adding_a_ballot_increments_its_pairs():
    rng = random.Random(22)
    for _ in range(20):
        m = rng.randint(2, 5)
        rows = [rand_ranking(rng, m) for _ in range(rng.randint(1, 6))]
        extra = rand_ranking(rng, m)
        before = weight_matrix(rows, m)
        after = weight_matrix(rows + [extra], m)
        pos = {c: i for i, c in enumerate(extra)}
        for i in range(m):
            for j in range(m):
                if i == j:
                    continue
                bump = 1 if pos[i] < pos[j] else 0
                assert after[i][j] == before[i][j] + bump


def test_unanimous_profile_all_majority_forward():
    w = weight_matrix([(1, 0, 2)] * 5, 3)
    assert w[1][0] == w[1][2] == w[0][2] == 5
    assert w[0][1] == w[2][1] == w[2][0] == 0


def test_triangle_inequality_holds_for_real_profiles():
    rng = random.Random(24)
    for _ in range(40):
        p = rand_profile(rng, rng.randint(1, 9), rng.randint(2, 5))
        assert triangle_holds(weight_matrix(p.rankings, p.m))


def test_lane_width_leaves_the_top_bit_clear():
    # a count up to n must stay below a lane's top bit
    assert [pair_lanes(n, 3).width for n in (1, 127, 128, 32767, 32768)] == [1, 1, 2, 2, 3]


def test_weight_matrix_across_lane_width_boundaries():
    # lanes are 1, 2, 2 and 3 bytes wide at these ballot counts; a ranking and
    # itself with its top or bottom pair swapped, each many times, fill most
    # lanes to n while the oracle tallies only the distinct rankings
    rng = random.Random(26)
    for n in (127, 128, 32767, 32768):
        for m in (1, 2, 16):
            r = rand_ranking(rng, m)
            distinct = list(dict.fromkeys([r, r[1::-1] + r[2:], r[:-2] + r[:-3:-1]]))
            mult = [n // (i + 2) for i in range(len(distinct) - 1)]
            mult.append(n - sum(mult))
            ballots = [x for x, k in zip(distinct, mult) for _ in range(k)]
            expect = [[0] * m for _ in range(m)]
            for x, k in zip(distinct, mult):
                for row, once in zip(expect, weight_matrix_per_ballot([x], m)):
                    row[:] = [a + k * b for a, b in zip(row, once)]
            assert len(ballots) == n
            assert weight_matrix(ballots, m) == expect


def lane_counts(lanes, tally: int, n: int) -> list:
    """Each pair's count in ``tally``, read back through ``at_least`` at every
    threshold 1..n: a pair's count is the number of thresholds it reaches."""
    m = lanes.m
    w = [[0] * m for _ in range(m)]
    for need in range(1, n + 1):
        for a, b in lanes.unpack(lanes.at_least(tally, need)):
            w[a][b] += 1
    return w


def test_packed_tallies_match_the_weight_matrix():
    rng = random.Random(25)
    for n in (4, 127, 128):
        for m in (2, 3, 6):
            lanes = pair_lanes(n, m)
            rows = [rand_ranking(rng, m) for _ in range(rng.randint(0, n))]
            tally = sum(map(lanes.ranking, rows))
            assert lane_counts(lanes, tally, n) == weight_matrix_per_ballot(rows, m)
            for r in rows[:3]:
                assert lanes.unpack(lanes.ranking(r)) == pairs_of(r)
                assert lanes.pairs(pairs_of(r)) == lanes.ranking(r)


def test_full_lanes_unpack_to_every_ordered_pair():
    for n in (127, 128):
        lanes = pair_lanes(n, 4)
        every = {(a, b) for a in range(4) for b in range(4) if a != b}
        tally = n * lanes.pairs(every)
        assert lanes.unpack(lanes.at_least(tally, n)) == every
        assert lanes.unpack(lanes.at_least(tally - lanes.pairs([(0, 1)]), n)) == every - {(0, 1)}


def distinct_ballots(m: int):
    # every ballot a different ranking, as in a profile of independent voters
    return st.lists(
        st.permutations(range(m)).map(tuple),
        min_size=1, max_size=min(math.factorial(m), 40), unique=True,
    )


@settings(max_examples=120, deadline=None)
@given(st.integers(2, 8).flatmap(
    lambda m: st.tuples(st.just(m), st.one_of(bloc_ballots(m), distinct_ballots(m)))
))
def test_weight_matrix_matches_the_per_ballot_tally(case):
    # bloc profiles reach n = 800, so their lanes are two bytes wide
    m, ballots = case
    w = weight_matrix_per_ballot(ballots, m)
    assert weight_matrix(ballots, m) == w
    n = len(ballots)
    lanes = pair_lanes(n, m)
    assert lane_counts(lanes, sum(map(lanes.ranking, ballots)), n) == w
