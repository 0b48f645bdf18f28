"""Worst-case scenario families and the exact grid search."""

from collections import Counter
from fractions import Fraction

import pytest

from byzrank.kemeny import approx_ratio
from byzrank.rankings import Profile
from byzrank.scenarios import (
    InfeasibleError,
    LowerBoundReport,
    ScenarioSpec,
    appendix_c_search,
    binary_closed_form,
    cycle_closed_form,
    gen_binary_worst,
    gen_cycle_worst,
    measure_scenario,
)
from byzrank.simnet import ScriptedViews, completion_script
from byzrank.tournament import weight_matrix
from conftest import triangle_holds


def completed(correct, byz):
    return Counter(correct) + Counter(byz)


# --- spec validation -------------------------------------------------------------


def test_spec_rejects_unknown_kind_and_side():
    with pytest.raises(ValueError):
        ScenarioSpec("nope", 12, 3, 2)
    with pytest.raises(ValueError):
        ScenarioSpec("binary-worst", 12, 3, 2, side="middle")


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
    rep = measure_scenario("alg2", ScenarioSpec("binary-worst", 12, 3, 2))
    assert isinstance(rep, LowerBoundReport)
    assert rep.ratio_measured == Fraction(2) == rep.ratio_closed_form
    assert rep.witness == (0, 1)  # the tie-break answer, wrong for the right side


def test_binary_sides_measured_separately():
    left = measure_scenario("alg2", ScenarioSpec("binary-worst", 12, 3, 2, "left"))
    right = measure_scenario("alg2", ScenarioSpec("binary-worst", 12, 3, 2, "right"))
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
    rep = measure_scenario("alg2", ScenarioSpec("cycle-worst", 90, 10, 3))
    assert rep.ratio_measured == Fraction(11, 9) == rep.ratio_closed_form
    assert rep.ratio_measured < Fraction(5, 4)


def test_cycle_sides_measured_separately():
    left = measure_scenario("alg2", ScenarioSpec("cycle-worst", 90, 10, 3, "left"))
    right = measure_scenario("alg2", ScenarioSpec("cycle-worst", 90, 10, 3, "right"))
    assert left.ratio_measured == 1
    assert right.ratio_measured == Fraction(11, 9)


def test_cycle_more_candidates():
    # the closed form stays exact through m=4; from m=5 on the construction
    # yields strictly less than the formula, which stays a valid upper bound
    rep3 = measure_scenario("alg2", ScenarioSpec("cycle-worst", 18, 2, 3))
    assert rep3.ratio_measured == Fraction(11, 9) == cycle_closed_form(18, 2, 3)
    rep4 = measure_scenario("alg2", ScenarioSpec("cycle-worst", 18, 2, 4))
    assert rep4.ratio_measured == Fraction(5, 4) == cycle_closed_form(18, 2, 4)
    rep5 = measure_scenario("alg2", ScenarioSpec("cycle-worst", 18, 2, 5))
    assert cycle_closed_form(18, 2, 5) == Fraction(29, 23)
    assert rep5.ratio_measured == Fraction(24, 23) < Fraction(29, 23)


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


def test_measure_rejects_grid_search_kind():
    with pytest.raises(ValueError):
        measure_scenario("alg2", ScenarioSpec("appendix-c", 12, 2, 3))


def test_measure_unknown_protocol():
    with pytest.raises(ValueError):
        measure_scenario("alg9", ScenarioSpec("binary-worst", 12, 3, 2))


def test_completion_script_targets_the_last_nodes():
    s = completion_script(((1, 0), (0, 1)), n=6)
    assert isinstance(s, ScriptedViews)
    assert s.script == {(1, "ranking", 4): (1, 0), (1, "ranking", 5): (0, 1)}


def test_measure_other_protocols_also_survive_the_scenario():
    rep = measure_scenario("alg1", ScenarioSpec("binary-worst", 12, 3, 2))
    assert rep.ratio_measured >= 1


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
