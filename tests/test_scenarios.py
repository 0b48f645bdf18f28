"""Worst-case scenario families and the exact grid search."""

from collections import Counter
from fractions import Fraction

import pytest

from byzrank import scenarios
from byzrank.kemeny import approx_ratio
from byzrank.protocol import ProtocolConfig
from byzrank.rankings import Profile
from byzrank.scenarios import (
    InfeasibleError,
    LowerBoundReport,
    appendix_c_search,
    binary_closed_form,
    cycle_closed_form,
    gen_binary_worst,
    gen_cycle_worst,
    measure_scenario,
)
from byzrank.simnet import Honest, completion_script, run_sync
from byzrank.tournament import weight_matrix
from conftest import triangle_holds


def completed(correct, byz):
    return Counter(correct) + Counter(byz)


# --- two-bloc family --------------------------------------------------------------


def test_binary_shapes():
    sides = gen_binary_worst(12, 3, 2)
    correct, byz = sides["left"]
    r, opp = (0, 1), (1, 0)
    assert Counter(correct) == Counter({r: 6, opp: 3})
    assert byz == (opp,) * 3
    correct_r, byz_r = sides["right"]
    assert Counter(correct_r) == Counter({r: 3, opp: 6})
    assert byz_r == (r,) * 3


def test_binary_completed_sides_are_indistinguishable():
    sides = gen_binary_worst(12, 3, 3)
    assert completed(*sides["left"]) == completed(*sides["right"])


def test_binary_completed_graph_is_all_ties():
    correct, byz = gen_binary_worst(12, 3, 3)["left"]
    w = weight_matrix(list(correct) + list(byz), 3)
    for i in range(3):
        for j in range(3):
            if i != j:
                assert w[i][j] == 6


def test_binary_triangle_inequality_before_and_after():
    for side in ("left", "right"):
        correct, byz = gen_binary_worst(12, 3, 3)[side]
        assert triangle_holds(weight_matrix(list(correct), 3))
        assert triangle_holds(weight_matrix(list(correct) + list(byz), 3))


def test_binary_reverse_ballot_costs_the_closed_form():
    correct, _ = gen_binary_worst(12, 3, 2)["left"]
    rep = approx_ratio((1, 0), Profile.of(list(correct), 2))
    assert rep.ratio == Fraction(2) == binary_closed_form(12, 3)


def test_binary_infeasible_parameters():
    with pytest.raises(InfeasibleError):
        gen_binary_worst(13, 3, 2)
    with pytest.raises(InfeasibleError):
        gen_binary_worst(12, 3, 1)


def test_binary_measured_ratio():
    rep = measure_scenario("binary-worst", 12, 3, 2)
    assert isinstance(rep, LowerBoundReport)
    assert rep.ratio_measured == Fraction(2) == rep.ratio_closed_form
    assert rep.witness == (0, 1)  # the tie-break answer, wrong for the right side


def test_binary_sides_measured_separately():
    left = measure_scenario("binary-worst", 12, 3, 2, "left")
    right = measure_scenario("binary-worst", 12, 3, 2, "right")
    assert left.ratio_measured == 1
    assert right.ratio_measured == 2


# --- cycle family ------------------------------------------------------------------


def test_cycle_ballot_shapes():
    sides = gen_cycle_worst(18, 2, 5)
    correct, byz = sides["left"]
    a = (0, 1, 4, 3, 2)
    b = (4, 3, 2, 0, 1)
    c = (1, 4, 3, 2, 0)
    assert Counter(correct) == Counter({a: 7, b: 5, c: 4})
    assert byz == (b,) * 2
    correct_r, byz_r = sides["right"]
    assert Counter(correct_r) == Counter({a: 5, b: 7, c: 4})
    assert byz_r == (a,) * 2


def test_cycle_completed_sides_are_indistinguishable():
    for m in (3, 4, 5):
        sides = gen_cycle_worst(90, 10, m)
        assert completed(*sides["left"]) == completed(*sides["right"])


def test_cycle_triangle_inequality_before_and_after():
    for side in ("left", "right"):
        correct, byz = gen_cycle_worst(90, 10, 3)[side]
        assert triangle_holds(weight_matrix(list(correct), 3))
        assert triangle_holds(weight_matrix(list(correct) + list(byz), 3))


def test_cycle_measured_ratio_headline_cell():
    rep = measure_scenario("cycle-worst", 90, 10, 3)
    assert rep.ratio_measured == Fraction(11, 9) == rep.ratio_closed_form
    assert rep.ratio_measured < Fraction(5, 4)


def test_cycle_sides_measured_separately():
    left = measure_scenario("cycle-worst", 90, 10, 3, "left")
    right = measure_scenario("cycle-worst", 90, 10, 3, "right")
    assert left.ratio_measured == 1
    assert right.ratio_measured == Fraction(11, 9)


def test_cycle_more_candidates():
    # alg2 reaches the closed form where n >= 2mt, so at n = 18 through m=4;
    # at m=5, n < 2mt = 20 and it stays strictly under the formula
    rep3 = measure_scenario("cycle-worst", 18, 2, 3)
    assert rep3.ratio_measured == Fraction(11, 9) == cycle_closed_form(18, 2, 3)
    rep4 = measure_scenario("cycle-worst", 18, 2, 4)
    assert rep4.ratio_measured == Fraction(5, 4) == cycle_closed_form(18, 2, 4)
    rep5 = measure_scenario("cycle-worst", 18, 2, 5)
    assert cycle_closed_form(18, 2, 5) == Fraction(29, 23)
    assert rep5.ratio_measured == Fraction(24, 23) < Fraction(29, 23)
    # and at t = 3, m = 4 below n = 2mt = 24
    rep = measure_scenario("cycle-worst", 22, 3, 4)
    assert cycle_closed_form(22, 3, 4) == Fraction(25, 19)
    assert rep.ratio_measured == Fraction(39, 38) < Fraction(25, 19)


def test_cycle_infeasible_parameters():
    for n, t, m in [
        (13, 3, 3),  # odd n
        (10, 3, 3),  # n < 4t
        (12, 0, 3),  # no corruption
        (12, 3, 2),  # needs a cycle
    ]:
        with pytest.raises(InfeasibleError):
            gen_cycle_worst(n, t, m)


# --- measurement plumbing ----------------------------------------------------------


def test_measure_rejects_unknown_kind_and_side():
    with pytest.raises(ValueError):
        measure_scenario("nope", 12, 3, 2)
    with pytest.raises(ValueError):
        measure_scenario("binary-worst", 12, 3, 2, side="middle")


def test_measure_rejects_grid_search_kind():
    with pytest.raises(ValueError):
        measure_scenario("appendix-c", 12, 2, 3)


# both families, t in {1, 2, 3}, even n from 4t to 10t, m = 2..6: 189 cells
ALG2_GRID = [
    (kind, n, t, m)
    for kind in ("binary-worst", "cycle-worst")
    for t in (1, 2, 3)
    for n in range(4 * t, 10 * t + 1, 2)
    for m in range(2 if kind == "binary-worst" else 3, 7)
]


def test_measure_is_what_alg2_outputs_on_the_completed_view():
    # measure_scenario runs no simulation: its witness must be what alg2
    # outputs, with agreement, on the completed view with every node honest
    # and on each side with the corrupted nodes broadcasting its completion,
    # even inside the cycle region n <= (m+1)t where an equivocating
    # adversary could split agreement
    assert len(ALG2_GRID) == 189
    for kind, n, t, m in ALG2_GRID:
        witness = measure_scenario(kind, n, t, m).witness
        sides = scenarios._FAMILIES[kind][0](n, t, m)
        cfg = ProtocolConfig(n, t, m)
        correct, byz = sides["left"]
        runs = [run_sync("alg2", correct + byz, Honest(), cfg)]
        runs += [run_sync("alg2", c + b, completion_script(b, n), cfg) for c, b in sides.values()]
        for result in runs:
            assert result.agreement and result.consensus == witness, (kind, n, t, m)


# cells on both sides of cycle-worst's n = 2mt boundary, and binary-worst's
ONE_ANSWER_CELLS = [
    ("binary-worst", 12, 3, 2), ("binary-worst", 4, 1, 3),
    ("cycle-worst", 12, 3, 3), ("cycle-worst", 8, 2, 4),
    ("cycle-worst", 18, 2, 3), ("cycle-worst", 18, 2, 5),
]


@pytest.mark.parametrize("kind,n,t,m", ONE_ANSWER_CELLS)
def test_both_sides_get_one_answer(kind, n, t, m):
    witnesses = {side: measure_scenario(kind, n, t, m, side).witness
                 for side in ("left", "right", "both")}
    assert len(set(witnesses.values())) == 1, witnesses


def test_cycle_worst_reaches_its_closed_form_iff_n_at_least_2mt():
    # below n = 2mt the 2t C-ballots outweigh a bloc; in these cells alg2's
    # one answer is then optimal for both sides: (8, 2, 3) measures 1, not 3/2
    for m in (3, 4):
        for t in (1, 2):
            for n in range(4 * t, 8 * t + 1, 2):
                rep = measure_scenario("cycle-worst", n, t, m)
                assert (rep.ratio_measured == rep.ratio_closed_form) == (n >= 2 * m * t), (n, t, m)
                if n < 2 * m * t:
                    assert rep.ratio_measured == 1


def test_scenarios_agree_inside_the_cycle_region():
    # n <= (m+1)t is where an equivocating adversary can split agreement;
    # the completed view's median is a full ranking there too
    cells = [
        ("binary-worst", 4, 1, 3), ("binary-worst", 10, 3, 3), ("binary-worst", 6, 1, 5),
        ("cycle-worst", 4, 1, 3), ("cycle-worst", 8, 2, 3), ("cycle-worst", 6, 1, 5),
    ]
    for kind, n, t, m in cells:
        assert n <= (m + 1) * t
        rep = measure_scenario(kind, n, t, m)
        assert sorted(rep.witness) == list(range(m))


# --- appendix grid search -----------------------------------------------------------


@pytest.mark.parametrize(
    "n,t,case,ratio,argmax",
    [
        (12, 2, "C231", Fraction(4, 3), (8, 6, 6)),
        (30, 3, "C231", Fraction(19, 16), (19, 19, 16)),
        (16, 2, "C312", Fraction(5, 4), (10, 10, 8)),
        (16, 2, "C231", Fraction(5, 4), (10, 10, 8)),
        (18, 2, "C312", Fraction(11, 9), (12, 11, 9)),
        (18, 2, "C231", Fraction(23, 19), (11, 11, 9)),
        (10, 2, "C231", Fraction(6, 5), (6, 5, 5)),
        (12, 3, "C231", Fraction(1, 1), (6, 6, 6)),
    ],
)
def test_appendix_grid_values(n, t, case, ratio, argmax):
    assert appendix_c_search(n, t, case) == (ratio, argmax)


def test_appendix_closed_form_regimes():
    # 2-4/k on k in [4,6]; 1+2/k above that for this case
    for n, t in [(8, 2), (10, 2), (12, 2)]:
        k = Fraction(n, t)
        assert appendix_c_search(n, t, "C231")[0] == 2 - Fraction(4, 1) / k
    for n, t in [(14, 2), (16, 2)]:
        k = Fraction(n, t)
        assert appendix_c_search(n, t, "C231")[0] == 1 + Fraction(2, 1) / k
    for n, t in [(18, 2), (20, 2)]:
        k = Fraction(n, t)
        assert appendix_c_search(n, t, "C312")[0] == 1 + Fraction(2, 1) / k


def test_appendix_non_integer_instances_stay_under_closed_form():
    # fractional optimum coordinates: the integer grid max may only fall short
    cells = [
        (15, 3, "C231", 2 - Fraction(4 * 3, 15)),          # low-k regime
        (19, 4, "C231", 2 - Fraction(4 * 4, 19)),
        (25, 3, "C231", Fraction(2 * 25 - 3, 2 * 25 - 12)),  # high-k regime
        (18, 2, "C231", Fraction(2 * 18 - 2, 2 * 18 - 8)),
        (14, 2, "C312", Fraction(3, 2) - Fraction(2 * 2, 14)),  # mid-k regime
        (10, 2, "C312", Fraction(3, 2) - Fraction(2 * 2, 10)),
    ]
    for n, t, case, closed in cells:
        ratio, _ = appendix_c_search(n, t, case)
        assert ratio <= closed


def test_appendix_equality_can_survive_fractional_k():
    # n=14, t=3: k is fractional but the low-k optimum lands on the grid
    assert appendix_c_search(14, 3, "C231") == (Fraction(8, 7), (8, 7, 7))


def test_appendix_odd_n_needs_more_room():
    # integer weights force every coordinate up to (n+1)/2, so an odd-n grid
    # is empty until n >= 4t+3
    for n, t in [(13, 3), (17, 4), (21, 5)]:
        with pytest.raises(InfeasibleError):
            appendix_c_search(n, t, "C231")
    assert appendix_c_search(15, 3, "C231")[0] == 1


def test_appendix_infeasible_below_four():
    with pytest.raises(InfeasibleError):
        appendix_c_search(6, 2, "C231")
    with pytest.raises(InfeasibleError):
        appendix_c_search(11, 3, "C312")
    with pytest.raises(InfeasibleError):
        appendix_c_search(12, 0, "C231")
    with pytest.raises(ValueError):
        appendix_c_search(12, 2, "C999")


def test_closed_form_helpers():
    assert binary_closed_form(12, 3) == Fraction(2)
    assert binary_closed_form(90, 10) == Fraction(45, 35)
    assert cycle_closed_form(90, 10, 3) == Fraction(11, 9)
    assert cycle_closed_form(18, 2, 4) == Fraction(5, 4)
    assert cycle_closed_form(18, 2, 5) == Fraction(29, 23)
