"""The majority lemmas behind alg2's Pareto argument, checked on every small
multiset profile, with the witnesses that break them at weaker thresholds.

(a) The distance form.  Write N_ab for the number of ballots with a above b.
If a Kemeny median r puts b above a with k−1 candidates between them, then
N_ab ≤ k·N_ba.  Proof: lift a to just above b (move A), or drop b to just
below a (move B).  Both moves flip (a, b), and each flips one pair at every
candidate c between them.  At each c a ballot changes the cost of the two
moves together by +2 only if it holds b > c > a, and by at most 0
otherwise.  So Δ_A + Δ_B ≤ 2(N_ba − N_ab) + 2(k−1)·N_ba = 2(k·N_ba − N_ab),
and if N_ab > k·N_ba one move lowers the cost and r is no median.  As
k ≤ m−1, every median keeps each pair held by more than (m−1)/m of the
ballots: the ⅔ lemma at m = 3, the ¾ fact at m = 4.

The alg2 corollary: a correct node's median view holds a unanimous pair on
at least n − t of at most n ballots, and (n−t)/n > (m−1)/m ⟺ n > m·t, so at
n > m·t every correct median keeps the pair.  The bound is tight: in the m
rotations of an m-cycle each adjacent pair holds exactly (m−1)/m of the
ballots, and one median drops (0, 1).

(b) The fixed thresholds.  A flat ¾ rule for m >= 4 is false: the
3/4-majority rule (Betzler et al., AAMAS 2014) is about non-dirty
candidates, those whose every pair is backed by more than 3/4 one way, and
the m = 6 witness below drops a 31-of-41 pair between two dirty candidates.
Relabelled, it makes alg2 lose Pareto at (41, 10, 6), where n > 4t but
n ≤ 6t; 31/41 < 5/6, as (a) requires.

(c) The counting behind alg1's Pareto proof and the cycle region: an L-cycle
of fixed pairs through a unanimous edge needs n <= L·t, and any L-cycle of
fixed pairs needs n <= (L+1)·t, which is exactly where
``cycle_lock_attack`` builds one.
"""

from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement, permutations

from hypothesis import given, settings
from hypothesis import strategies as st

from byzrank.kemeny import kemeny_exact
from byzrank.protocol import ProtocolConfig
from byzrank.rankings import Profile, pairs_of, unanimous_pairs
from byzrank.simnet import completion_script, cycle_lock_attack, run_sync
from byzrank.tournament import weight_matrix
from conftest import bloc_ballots


@cache
def solve(profile: Profile):
    """``kemeny_exact`` once per profile: the m = 4 checks of (a) and (b) share
    their 20,474 multisets."""
    return kemeny_exact(profile)


def non_dirty(profile: Profile, above: Fraction) -> set[int]:
    """The candidates whose every pair holds more than ``above`` of the
    ballots one way or the other."""
    m, n = profile.m, len(profile)
    w = weight_matrix(profile.rankings, m)
    return {
        c for c in range(m)
        if all(
            max(w[c][x], w[x][c]) * above.denominator > above.numerator * n
            for x in range(m) if x != c
        )
    }


def dropped_strong_pairs(
    profile: Profile, above: Fraction, at: set[int] | None = None
) -> tuple[int, list]:
    """How many pairs hold more than ``above`` of the ballots (only those
    touching a candidate in ``at``, if given), and each (pair, median) where
    a Kemeny median orders such a pair the other way."""
    m, n = profile.m, len(profile)
    w = weight_matrix(profile.rankings, m)
    strong = {
        (a, b) for a in range(m) for b in range(m)
        if a != b
        and w[a][b] * above.denominator > above.numerator * n
        and (at is None or a in at or b in at)
    }
    if not strong:
        return 0, []
    return len(strong), [
        (pair, median)
        for median in solve(profile).medians
        for pair in sorted(strong - pairs_of(median))
    ]


def distance_form_breaches(profile: Profile) -> list:
    """Each (median, a, b) where a Kemeny median puts b k places above a
    although more than k times as many ballots put a above b."""
    w = weight_matrix(profile.rankings, profile.m)
    return [
        (median, a, b)
        for median in solve(profile).medians
        for i, b in enumerate(median)
        for k, a in enumerate(median[i + 1:], 1)
        if w[a][b] > k * w[b][a]
    ]


def rotations(m: int) -> Profile:
    """The m rotations (s, s+1, ..., s−1) of the cycle 0 -> 1 -> ... -> 0."""
    return Profile.of([tuple((s + i) % m for i in range(m)) for s in range(m)], m)


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


# --- (a) the distance form and its (m−1)/m corollary ---------------------------


def test_no_median_inverts_a_pair_beyond_its_distance():
    # every profile of up to 4 ballots at m = 4 and up to 2 at m = 5
    for m, n_max, count in ((4, 4, 20_474), (5, 2, 7_380)):
        profiles = 0
        for profile in multisets(m, n_max):
            assert distance_form_breaches(profile) == [], profile.rankings
            profiles += 1
        assert profiles == count


def test_rotations_make_the_m_minus_1_over_m_bound_tight():
    # each cycle edge holds exactly (m−1)/m, and the rotation starting at 1
    # is a median that puts 1 above 0
    for m in range(4, 8):
        profile = rotations(m)
        w = weight_matrix(profile.rankings, m)
        assert all(w[i][(i + 1) % m] == m - 1 for i in range(m))
        medians = kemeny_exact(profile).medians
        assert len(medians) == m
        assert [r for r in medians if (0, 1) not in pairs_of(r)] == [(1, *range(2, m), 0)]
        assert distance_form_breaches(profile) == []


# --- (b) m = 3: more than 2/3 ------------------------------------------------


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


# --- (b) m >= 4: more than 3/4 ----------------------------------------------


def test_three_quarter_pairs_are_kept_by_every_median_at_m4():
    # at n <= 4 only a unanimous pair clears 3/4
    profiles, strong = check_every_multiset(4, 4, Fraction(3, 4))
    assert profiles == 20_474
    assert strong == 21_828


def test_four_rotations_break_the_m4_lemma_at_two_thirds():
    # why alg2 needs n > 4t at m = 4, not n > 3t
    four = rotations(4)
    assert weight_matrix(four.rankings, 4)[0][1] == 3
    assert dropped_strong_pairs(four, Fraction(3, 4)) == (0, [])
    _, dropped = dropped_strong_pairs(four, Fraction(2, 3))
    assert any(pair == (0, 1) for pair, _ in dropped)


@settings(max_examples=40, deadline=None)
@given(st.integers(5, 7).flatmap(lambda m: st.tuples(st.just(m), bloc_ballots(m, max_size=30))))
def test_three_quarter_pairs_are_kept_by_every_median_at_m5_to_7(case):
    # the 3/4-majority rule: every 3/4 pair at a non-dirty candidate is kept;
    # and the distance form, on profiles too large to enumerate
    m, ballots = case
    profile = Profile.of(ballots, m)
    at = non_dirty(profile, Fraction(3, 4))
    assert dropped_strong_pairs(profile, Fraction(3, 4), at)[1] == []
    assert distance_form_breaches(profile) == []


# 41 ballots at m = 6; 31 of them put 4 above 3, and 10 put 3 above 4
M6_WITNESS = (
    [(0, 1, 2, 5, 4, 3)] * 12
    + [(1, 2, 4, 3, 0, 5)] * 4
    + [(4, 3, 2, 1, 0, 5)] * 15
    + [(0, 3, 2, 1, 5, 4)] * 10
)


def test_the_m6_witness_breaks_the_pair_rule_at_three_quarters():
    # a pair over 3/4 between two dirty candidates need not be kept
    profile = Profile.of(M6_WITNESS, 6)
    assert weight_matrix(profile.rankings, 6)[4][3] == 31
    result = kemeny_exact(profile)
    assert result.cost == 216
    assert set(result.medians) == {(0, 2, 1, 4, 3, 5), (0, 3, 2, 1, 5, 4)}
    assert dropped_strong_pairs(profile, Fraction(3, 4))[1] == [((4, 3), (0, 3, 2, 1, 5, 4))]
    assert not {3, 4} & non_dirty(profile, Fraction(3, 4))


def test_alg2_loses_pareto_on_the_relabelled_m6_witness():
    # relabel so the dropping median is the identity, which the first-median
    # choice then outputs; the ten (0,3,2,1,5,4) ballots are Byzantine
    n, t, m = 41, 10, 6
    assert n > 4 * t
    label = {c: i for i, c in enumerate((0, 3, 2, 1, 5, 4))}
    ballots = [tuple(label[c] for c in r) for r in M6_WITNESS]
    byz = ballots[n - t:]
    result = run_sync("alg2", ballots, completion_script(byz, n), ProtocolConfig(n, t, m))
    assert set(result.outputs.values()) == {tuple(range(m))}
    assert (label[4], label[3]) in unanimous_pairs(Profile.of(ballots[: n - t], m))
    assert not result.pareto


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
