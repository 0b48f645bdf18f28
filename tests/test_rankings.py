"""Ranking values, the Kendall cost the engine computes, and the profile text format."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from byzrank.kemeny import approx_ratio
from byzrank.rankings import (
    Pair,
    ParseError,
    Profile,
    is_ranking,
    pairs_of,
    parse_profile,
    unanimous_pairs,
    validate_ranking,
)
from conftest import rand_profile, rand_ranking

rankings_st = st.integers(min_value=1, max_value=7).flatmap(
    lambda m: st.permutations(range(m)).map(tuple)
)
ranking_pairs_st = st.integers(min_value=1, max_value=7).flatmap(
    lambda m: st.tuples(
        st.permutations(range(m)).map(tuple), st.permutations(range(m)).map(tuple)
    )
)


# --- the engine's Kendall cost -----------------------------------------------


def cost(r, profile):
    """The Kendall cost of ``r`` against ``profile``, as the engine computes it."""
    return approx_ratio(r, profile).candidate_cost


def kendall(r, p):
    """The Kendall distance between two rankings: the cost against ``[p]``."""
    return cost(r, Profile.of([p]))


def test_kendall_identical_is_zero():
    assert kendall((0, 1, 2), (0, 1, 2)) == 0


def test_kendall_full_reversal():
    assert kendall((0, 1, 2), (2, 1, 0)) == 3


def test_kendall_single_rotation():
    assert kendall((0, 1, 2), (1, 2, 0)) == 2


def test_kendall_symmetric():
    rng = random.Random(11)
    for _ in range(50):
        m = rng.randint(1, 6)
        a, b = rand_ranking(rng, m), rand_ranking(rng, m)
        assert kendall(a, b) == kendall(b, a)


def test_kendall_range():
    rng = random.Random(12)
    for _ in range(50):
        m = rng.randint(2, 6)
        a, b = rand_ranking(rng, m), rand_ranking(rng, m)
        assert 0 <= kendall(a, b) <= m * (m - 1) // 2


def test_kendall_universe_mismatch():
    with pytest.raises(ValueError):
        kendall((0, 1, 2), (0, 1))


def test_kendall_rejects_non_permutation():
    with pytest.raises(ValueError):
        kendall((0, 0, 2), (0, 1, 2))


@settings(max_examples=60, deadline=None)
@given(ranking_pairs_st)
def test_kendall_counts_discordant_pairs(pair):
    # distance == number of pairs ordered one way by a and the other by b
    a, b = pair
    assert kendall(a, b) == len(pairs_of(a) - pairs_of(b))


def test_kendall_triangle_inequality():
    rng = random.Random(13)
    for _ in range(100):
        m = rng.randint(2, 6)
        a, b, c = (rand_ranking(rng, m) for _ in range(3))
        assert kendall(a, c) <= kendall(a, b) + kendall(b, c)


def test_kendall_is_a_metric_point_separation():
    rng = random.Random(14)
    for _ in range(50):
        m = rng.randint(2, 5)
        a, b = rand_ranking(rng, m), rand_ranking(rng, m)
        assert (kendall(a, b) == 0) == (a == b)


# --- reversal / pairs ---------------------------------------------------------


def test_opposite_is_farthest():
    rng = random.Random(16)
    for _ in range(30):
        m = rng.randint(2, 6)
        r = rand_ranking(rng, m)
        assert kendall(r, r[::-1]) == m * (m - 1) // 2


def test_pairs_of_small():
    assert pairs_of((1, 0, 2)) == {Pair(1, 0), Pair(1, 2), Pair(0, 2)}


def test_pairs_of_count():
    for m in range(1, 7):
        assert len(pairs_of(tuple(range(m)))) == math.comb(m, 2)


@settings(max_examples=40, deadline=None)
@given(rankings_st)
def test_opposite_flips_every_pair(r):
    assert pairs_of(r[::-1]) == {Pair(b, a) for a, b in pairs_of(r)}


# --- profiles -----------------------------------------------------------------


def test_tau_profile_condorcet_cycle():
    p = Profile.of([(0, 1, 2), (1, 2, 0), (2, 0, 1)])
    assert cost((0, 1, 2), p) == 4


def test_tau_profile_rejects_universe_mismatch():
    p = Profile.of([(0, 1, 2)])
    with pytest.raises(ValueError):
        cost((0, 1), p)


def test_profile_requires_rankings():
    with pytest.raises(ValueError):
        Profile.of([])


def test_profile_rejects_bad_ballot():
    with pytest.raises(ValueError):
        Profile.of([(0, 1), (0, 0)])


def test_profile_preserves_order_and_multiplicity():
    rows = [(0, 1), (1, 0), (0, 1)]
    p = Profile.of(rows)
    assert list(p) == rows and len(p) == 3


def test_unanimous_pairs_of_cycle_is_empty():
    p = Profile.of([(0, 1, 2), (1, 2, 0), (2, 0, 1)])
    assert unanimous_pairs(p) == frozenset()


def test_unanimous_pairs_of_identical_ballots():
    p = Profile.of([(2, 0, 1)] * 4)
    assert unanimous_pairs(p) == pairs_of((2, 0, 1))


def test_unanimous_pairs_partial():
    p = Profile.of([(0, 1, 2), (0, 2, 1)])
    assert unanimous_pairs(p) == {Pair(0, 1), Pair(0, 2)}


def test_unanimous_pairs_singleton_profile():
    rng = random.Random(17)
    for _ in range(20):
        m = rng.randint(1, 6)
        r = rand_ranking(rng, m)
        assert unanimous_pairs(Profile.of([r])) == pairs_of(r)


def test_tau_profile_reversal_identity():
    # cost(r,P) + cost(reverse(r),P) covers every pair of every ballot once
    rng = random.Random(18)
    for _ in range(60):
        m = rng.randint(2, 6)
        p = rand_profile(rng, rng.randint(1, 7), m)
        r = rand_ranking(rng, m)
        total = len(p) * math.comb(m, 2)
        assert cost(r, p) + cost(r[::-1], p) == total


# --- validation ---------------------------------------------------------------


def test_validate_ranking_roundtrip():
    assert validate_ranking([2, 0, 1]) == (2, 0, 1)
    assert validate_ranking((0,), 1) == (0,)


@pytest.mark.parametrize("bad", [(0, 0), (1, 2), (0, 1, 3), ()])
def test_validate_ranking_rejects(bad):
    with pytest.raises(ValueError):
        validate_ranking(bad, 2)


def test_is_ranking_predicate():
    assert is_ranking((1, 0, 2), 3)
    assert not is_ranking([1, 0, 2], 3)  # tuples only on the wire
    assert not is_ranking((1, 0), 3)
    assert not is_ranking((0, 0, 1), 3)
    assert not is_ranking("012", 3)
    assert not is_ranking((True, False, 2), 3)  # bools would alias 1 and 0


# --- text format ----------------------------------------------------------------


def test_parse_profile_basic():
    profile, names = parse_profile("c1>c2>c3\nc2>c3>c1\n")
    assert names == ["c1", "c2", "c3"]
    assert profile.rankings == ((0, 1, 2), (1, 2, 0))


def test_parse_profile_names_by_first_appearance():
    profile, names = parse_profile("b>a\na>b\n")
    assert names == ["b", "a"]
    assert profile.rankings == ((0, 1), (1, 0))


def test_parse_profile_comments_and_blanks():
    text = "# header\n\nc1 > c2\n   \nc2>c1\n"
    profile, names = parse_profile(text)
    assert len(profile) == 2 and names == ["c1", "c2"]


def test_parse_profile_empty_name():
    with pytest.raises(ParseError) as exc:
        parse_profile("c1>>c2\n")
    assert exc.value.line_no == 1
    assert "line 1" in str(exc.value)


def test_parse_profile_duplicate_candidate():
    with pytest.raises(ParseError) as exc:
        parse_profile("c1>c2\nc1>c1\n")
    assert exc.value.line_no == 2


def test_parse_profile_partial_coverage():
    with pytest.raises(ParseError) as exc:
        parse_profile("c1>c2>c3\nc1>c2\n")
    assert exc.value.line_no == 2


def test_parse_profile_empty_input():
    with pytest.raises(ParseError) as exc:
        parse_profile("# nothing here\n")
    assert exc.value.line_no == 1


def test_format_parse_roundtrip():
    rng = random.Random(19)
    for _ in range(20):
        m = rng.randint(1, 6)
        rows = [rand_ranking(rng, m) for _ in range(rng.randint(1, 5))]
        names = [f"c{i + 1}" for i in range(m)]
        text = "\n".join(" > ".join(names[c] for c in r) for r in rows)
        # candidate ids may be permuted by first appearance; compare by name
        profile, got_names = parse_profile(text)
        back = [tuple(got_names[c] for c in r) for r in profile]
        want = [tuple(names[c] for c in r) for r in rows]
        assert back == want
