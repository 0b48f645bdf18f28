"""Ranking values, the Kendall cost the engine computes, and the profile text format."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from byzrank.cli import kemeny_record
from byzrank.kemeny import approx_ratio, kemeny_exact
from byzrank.rankings import (
    ParseError,
    Profile,
    is_ranking,
    pairs_of,
    parse_profile,
    unanimous_pairs,
    validate_ranking,
)
from byzrank.tournament import weight_matrix
from conftest import bloc_ballots, parse_profile_per_line, rand_profile, rand_ranking

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
    assert pairs_of((1, 0, 2)) == {(1, 0), (1, 2), (0, 2)}


def test_pairs_of_count():
    for m in range(1, 7):
        assert len(pairs_of(tuple(range(m)))) == math.comb(m, 2)


@settings(max_examples=40, deadline=None)
@given(rankings_st)
def test_opposite_flips_every_pair(r):
    assert pairs_of(r[::-1]) == {(b, a) for a, b in pairs_of(r)}


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


def test_profile_refusals_keep_their_type_and_message():
    # an unhashable entry is refused as a bad ballot, not by the hash
    with pytest.raises(ValueError) as exc:
        Profile.of([([0], 1)], 2)
    assert str(exc.value) == "not a permutation of 0..1: ([0], 1)"
    # a ballot equal to an earlier valid one, but holding a bool or a float
    for alias in ((False, 1), (0.0, 1), (True, False)):
        with pytest.raises(ValueError) as exc:
            Profile(((0, 1), (1, 0), (0, 1), alias), 2)
        assert str(exc.value) == f"not a permutation of 0..1: {alias!r}"
    # entry types are read once per ballot object, and still for every object
    with pytest.raises(ValueError) as exc:
        Profile(((1, 0, 2),) * 10**5 + ((True, 0, 2),), 3)
    assert str(exc.value) == "not a permutation of 0..2: (True, 0, 2)"
    # the first bad ballot is named, whatever follows it
    with pytest.raises(ValueError) as exc:
        Profile(((0, 1), (1, 1), 5), 2)
    assert str(exc.value) == "not a permutation of 0..1: (1, 1)"
    with pytest.raises(TypeError, match="not iterable"):
        Profile(((0, 1), 5, (1, 1)), 2)


def test_profile_takes_list_ballots_as_tuples():
    p = Profile(([0, 1], [1, 0], [0, 1]), 2)
    assert p.rankings == ((0, 1), (1, 0), (0, 1))
    assert p == Profile.of([(0, 1), (1, 0), (0, 1)])
    assert weight_matrix(p.rankings, 2) == [[0, 2], [1, 0]]
    assert unanimous_pairs(p) == frozenset()


# ways to spoil a valid ranking; the last two stay equal to it by value
SPOILERS = (
    lambda r: r[:-1],
    lambda r: r[:-1] + (r[0],),
    lambda r: r + (len(r),),
    lambda r: (list(r[:1]),) + r[1:],
    lambda r: tuple(bool(c) if c < 2 else c for c in r),
    lambda r: tuple(float(c) if c == 0 else c for c in r),
)


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 6).flatmap(
    lambda m: st.tuples(st.just(m), bloc_ballots(m, max_size=20))
), st.data())
def test_profile_names_the_first_bad_ballot(case, data):
    # spoiled ballots go anywhere, behind repeats of valid rankings and
    # before repeats of their own value; the first in ballot order is named
    m, valid = case
    ballots, spoiled = list(valid), []
    for _ in range(data.draw(st.integers(1, 3))):
        spoil = data.draw(st.sampled_from(SPOILERS))
        spoiled.append(spoil(data.draw(st.sampled_from(valid))))
        ballots.insert(data.draw(st.integers(0, len(ballots))), spoiled[-1])
    first = next(b for b in ballots if any(b is s for s in spoiled))
    with pytest.raises(ValueError) as exc:
        Profile(tuple(ballots), m)
    assert str(exc.value) == f"not a permutation of 0..{m - 1}: {first!r}"


class Row(tuple):
    """A tuple subclass: a ballot that is a tuple, but not a plain one."""


class Id(int):
    """An int subclass: equal to a candidate id, but not a plain int."""


# more ways to spoil a ranking, and two ballot types that keep it valid
VARIANTS = SPOILERS + (
    lambda r: (-1,) + r[1:],
    lambda r: r[:-1] + (len(r),),
    lambda r: tuple(map(Id, r)),
    Row,
    list,
)


def typed(rankings):
    """Rankings with the type of each ballot and entry, which ``==`` ignores."""
    return [(type(r), *((type(c), c) for c in r)) for r in rankings]


def outcome(build):
    try:
        return typed(build())
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5).flatmap(lambda m: st.tuples(
    st.just(m),
    st.lists(st.permutations(range(m)).map(tuple), min_size=1, max_size=3),
    st.lists(st.tuples(st.sampled_from(VARIANTS), st.integers(0, 2)), max_size=3),
    st.sampled_from([m, m, m + 1, m - 1]),
)), st.data())
def test_profile_validates_as_the_per_ballot_loop_does(case, data):
    # the whole-profile check of plain tuples accepts and refuses exactly
    # what validate_ranking ballot by ballot does, with the same message
    m, valid, variants, claimed = case
    pool = valid + [vary(valid[i % len(valid)]) for vary, i in variants]
    ballots = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    want = outcome(lambda: [validate_ranking(r, claimed) for r in ballots])
    assert outcome(lambda: Profile(tuple(ballots), claimed).rankings) == want


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
    assert unanimous_pairs(p) == {(0, 1), (0, 2)}


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
    assert not is_ranking((1.0, 0, 2), 3)  # and so would floats
    assert not is_ranking((Id(1), 0, 2), 3)  # entries are plain ints
    assert is_ranking(Row((1, 0, 2)), 3)  # a tuple subclass is a tuple
    assert not is_ranking(Row((1, 1, 2)), 3)



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


# every boundary str.splitlines knows, and whitespace str.strip removes
LINE_ENDS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
PADS = st.sampled_from(["", "", " ", "\t", "\x1f", "\xa0", "\u2003", "\u3000"])
NAME_POOL = ["a", "b", "c", "d", "a b", "é", "#x"]
NOT_BALLOTS = ["", "   ", "\xa0", "#", "# a > b", "a >> b", "> a"]


@st.composite
def profile_texts(draw):
    """Profile text with repeated, blank and comment lines, padded names,
    empty and repeated names and lines that miss a name."""
    universe = draw(st.lists(st.sampled_from(NAME_POOL), min_size=1, max_size=4, unique=True))
    names_st = st.one_of(
        st.permutations(universe),
        st.lists(st.sampled_from(universe + [""]), min_size=1, max_size=5),
    )
    pool = [
        ">".join(draw(PADS) + name + draw(PADS) for name in draw(names_st))
        for _ in range(draw(st.integers(1, 4)))
    ] + draw(st.lists(st.sampled_from(NOT_BALLOTS), max_size=2))
    lines = draw(st.lists(st.sampled_from(pool), max_size=12))
    ends = draw(st.lists(st.sampled_from(LINE_ENDS), min_size=len(lines), max_size=len(lines)))
    return "".join(map(str.__add__, lines, ends))[: draw(st.sampled_from([None, -1]))]


def parsed(parse, text):
    try:
        profile, names = parse(text)
    except ParseError as exc:
        return str(exc), exc.line_no
    return profile.rankings, profile.m, names


@settings(max_examples=400, deadline=None)
@given(profile_texts())
def test_parse_profile_reads_as_the_per_line_parser_does(text):
    # one split per distinct line gives what one split per line gave, and
    # refuses the same first bad line with the same message
    assert parsed(parse_profile, text) == parsed(parse_profile_per_line, text)


def test_parse_profile_shares_equal_lines_and_keeps_their_order():
    text = "a > b > c\n# b > c > a\nb>c>a\n\n  a > b > c  \nb>c>a\na>b>c\n"
    profile, names = parse_profile(text)
    assert names == ["a", "b", "c"]
    assert profile.rankings == ((0, 1, 2), (1, 2, 0), (0, 1, 2), (1, 2, 0), (0, 1, 2))
    first, second, third, fourth, fifth = profile.rankings
    assert first is third and second is fourth
    assert fifth is not first  # "a>b>c" is another line than "a > b > c"


def test_large_two_bloc_text_solves_as_its_ballots_do():
    rng = random.Random(20)
    blocs = [rand_ranking(rng, 7), rand_ranking(rng, 7)]
    ballots = [blocs[rng.random() < 0.4] for _ in range(30_000)]
    names = [f"c{c}" for c in range(7)]
    text = "\n".join(" > ".join(names[c] for c in r) for r in ballots) + "\n"
    got = kemeny_record(text, False, False)["result"]
    want = kemeny_exact(Profile.of(ballots))
    assert got["chosen"] == [names[c] for c in want.chosen]
    assert (got["cost"], got["median_count"]) == (want.cost, want.count)
