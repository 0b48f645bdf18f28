"""The majority lemmas behind alg2's Pareto argument, checked on every small
multiset profile, with the witnesses that break them at weaker thresholds.

The README's alg2 proof needs one fact about Kemeny medians: a pair backed by
more than 2/3 of the ballots at m = 3, or by more than 3/4 at m = 4 and
above (Betzler et al., AAMAS 2014), is kept by every median.  A correct
node's median view holds a unanimous pair with weight at least n − t of n,
which clears those thresholds where n > 3t and n > 4t respectively.

(c) The counting behind alg1's Pareto proof and the cycle region: an L-cycle
of fixed pairs through a unanimous edge needs n <= L·t, and any L-cycle of
fixed pairs needs n <= (L+1)·t, which is exactly where
``cycle_lock_attack`` builds one.
"""

from fractions import Fraction
from itertools import combinations_with_replacement, permutations

from hypothesis import given, settings
from hypothesis import strategies as st

from byzrank.kemeny import kemeny_exact
from byzrank.rankings import Profile, pairs_of
from byzrank.simnet import cycle_lock_attack
from byzrank.tournament import weight_matrix
from conftest import bloc_ballots


def dropped_strong_pairs(profile: Profile, above: Fraction) -> tuple[int, list]:
    """How many pairs hold more than ``above`` of the ballots, and each
    (pair, median) where a Kemeny median orders such a pair the other way."""
    m, n = profile.m, len(profile)
    w = weight_matrix(profile.rankings, m)
    strong = {(a, b) for a in range(m) for b in range(m) if a != b and w[a][b] > above * n}
    if not strong:
        return 0, []
    return len(strong), [
        (pair, median)
        for median in kemeny_exact(profile).medians
        for pair in sorted(strong - pairs_of(median))
    ]


def multisets(m: int, n_max: int):
    """Every profile of 1..n_max ballots over m candidates, up to voter order."""
    rankings = list(permutations(range(m)))
    for n in range(1, n_max + 1):
        for ballots in combinations_with_replacement(rankings, n):
            yield Profile(ballots, m)


def check_every_multiset(m: int, n_max: int, above: Fraction) -> tuple[int, int]:
    profiles = strong = 0
    for profile in multisets(m, n_max):
        count, dropped = dropped_strong_pairs(profile, above)
        assert not dropped, (profile.rankings, dropped)
        profiles += 1
        strong += count
    return profiles, strong


# --- (a) m = 3: more than 2/3 ------------------------------------------------


def test_two_thirds_pairs_are_kept_by_every_median_at_m3():
    profiles, strong = check_every_multiset(3, 10, Fraction(2, 3))
    assert profiles == 8007
    assert strong == 12_330


def test_the_condorcet_cycle_breaks_the_m3_lemma_at_three_fifths():
    # each cycle edge holds 2 of 3 ballots: more than 3/5, not more than 2/3
    cycle = Profile.of([(0, 1, 2), (1, 2, 0), (2, 0, 1)])
    assert dropped_strong_pairs(cycle, Fraction(2, 3)) == (0, [])
    strong, dropped = dropped_strong_pairs(cycle, Fraction(3, 5))
    assert strong == 3
    assert {pair for pair, _ in dropped} == {(0, 1), (1, 2), (2, 0)}


# --- (b) m = 4: more than 3/4 ------------------------------------------------


def test_three_quarter_pairs_are_kept_by_every_median_at_m4():
    # at n <= 4 only a unanimous pair clears 3/4
    profiles, strong = check_every_multiset(4, 4, Fraction(3, 4))
    assert profiles == 20_474
    assert strong == 21_828


def test_four_rotations_break_the_m4_lemma_at_two_thirds():
    # why the README needs n > 4t at m >= 4, not n > 3t
    rotations = Profile.of([(0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1), (3, 0, 1, 2)])
    assert weight_matrix(rotations.rankings, 4)[0][1] == 3
    assert dropped_strong_pairs(rotations, Fraction(3, 4)) == (0, [])
    _, dropped = dropped_strong_pairs(rotations, Fraction(2, 3))
    assert any(pair == (0, 1) for pair, _ in dropped)


@settings(max_examples=40, deadline=None)
@given(st.integers(5, 7).flatmap(lambda m: st.tuples(st.just(m), bloc_ballots(m, max_size=30))))
def test_three_quarter_pairs_are_kept_by_every_median_at_m5_to_7(case):
    m, ballots = case
    assert dropped_strong_pairs(Profile.of(ballots, m), Fraction(3, 4))[1] == []


# --- (c) the cycle-region counting inequalities --------------------------------


def test_cycle_counting_inequalities_reduce_to_their_closed_forms():
    # the unanimous edge has n−t receipts and each other cycle edge at least
    # n−2t, while the n−t correct ballots back at most L−1 of the L edges each
    for t in range(0, 14):
        for n in range(1, 41):
            for L in range(1, 11):
                assert ((n - t) + (L - 1) * (n - 2 * t) <= (L - 1) * (n - t)) == (n <= L * t)
                assert (L * (n - 2 * t) <= (L - 1) * (n - t)) == (n <= (L + 1) * t)


def test_cycle_lock_attack_exists_exactly_where_the_count_allows_a_cycle():
    for n in range(2, 41):
        for t in range(0, (n - 1) // 3 + 1):
            for m in range(2, 9):
                lengths = [
                    L for L in range(3, min(m, n - t) + 1)
                    if L * (n - 2 * t) <= (L - 1) * (n - t)
                ]
                attack = cycle_lock_attack(n, t, m)
                assert (attack is not None) == bool(lengths), (n, t, m)
                if attack is not None:
                    _inputs, _script, info = attack
                    assert info["cycle_len"] == lengths[0]
                    assert sum(info["groups"]) == n - t
                    assert all(1 <= g <= t for g in info["groups"])
