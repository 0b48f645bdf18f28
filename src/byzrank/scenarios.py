"""Worst-case scenario generators and lower-bound measurements.

Each scenario family builds a correct-node profile plus the Byzantine ballots
that complete it, such that the completed views of two different correct
profiles ("left"/"right" sides) are the same ranking multiset.  Any
deterministic protocol that decides from the completed view gives both sides
one answer, so one side is stuck with the closed-form approximation ratio.
For alg2 that answer is the completed view's lexicographically first Kemeny
median; measure_scenario computes it directly and scores it against each
side's correct profile, next to the closed form.

The third family, ``appendix-c``, has no two sides: it is an exact grid
search over three-candidate cyclic tournaments for the worst ratio between a
forced cyclic-median answer and the optimal one, subject to feasibility
constraints tying the tournament weights to n and t.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .kemeny import approx_ratio, kemeny_exact
from .protocol import ProtocolConfig
from .rankings import Profile, Ranking

SCENARIO_NAMES = ("binary-worst", "cycle-worst", "appendix-c")
SIDES = ("left", "right", "both")
CASES = ("C231", "C312")


class InfeasibleError(ValueError):
    """The requested scenario has no instance at these parameters."""


@dataclass(frozen=True)
class LowerBoundReport:
    """Measured vs. predicted worst-case ratio, with the consensus reached."""

    ratio_measured: Fraction
    ratio_closed_form: Fraction
    witness: Ranking


def _sides(x: Ranking, y: Ranking, big: int, rest: list[Ranking], t: int) -> dict:
    """The two correct profiles and the Byzantine ballots completing each.

    Left: ``big`` x-ballots, ``big - t`` y-ballots, then ``rest``, completed
    by t y-ballots.  Right swaps the two counts and is completed by t
    x-ballots.  Both completions are the same multiset.
    """
    return {
        "left": (tuple([x] * big + [y] * (big - t) + rest), (y,) * t),
        "right": (tuple([x] * (big - t) + [y] * big + rest), (x,) * t),
    }


def binary_closed_form(n: int, t: int) -> Fraction:
    return Fraction(n // 2, n // 2 - t)


def gen_binary_worst(n: int, t: int, m: int) -> dict:
    """Two opposite blocs; the corrupted nodes complete whichever is smaller.

    Left side: n/2 correct nodes hold the identity ranking r, n/2 - t hold
    its reverse, corrupted ballots are the reverse.  Right side swaps the
    bloc sizes and the corrupted ballot.  Both completed views are n/2 vs
    n/2, under which every ranking is a median and the tie-break answers r —
    costing the right side a factor (n/2)/(n/2 - t).

    Returns ``{side: (correct profile, Byzantine ballots)}``.
    """
    if n % 2 != 0:
        raise InfeasibleError("binary-worst needs an even number of nodes")
    if m < 2:
        raise InfeasibleError("binary-worst needs at least two candidates")
    if n // 2 - t < 0:
        raise InfeasibleError("binary-worst needs t <= n/2")
    r = tuple(range(m))
    return _sides(r, r[::-1], n // 2, [], t)


def cycle_closed_form(n: int, t: int, m: int) -> Fraction:
    # integer form of (2 + (m-2)k) / (2 + (m-2)(k-2)) at k = n/t
    return Fraction(2 * t + (m - 2) * n, 2 * t + (m - 2) * (n - 2 * t))


def gen_cycle_worst(n: int, t: int, m: int) -> dict:
    """Three-bloc construction whose completed view is a majority cycle.

    Ballots: A = c1>c2>cm>...>c3, B = cm>...>c3>c1>c2, C = c2>cm>...>c3>c1.
    The corrupted nodes top up the A-bloc or the B-bloc so both sides
    complete to the same cyclic tournament; the tie on the cycle's medians
    then costs one side the closed-form ratio.

    Returns ``{side: (correct profile, Byzantine ballots)}``.
    """
    if n % 2 != 0:
        raise InfeasibleError("cycle-worst needs an even number of nodes")
    if t < 1 or n < 4 * t:
        raise InfeasibleError("cycle-worst needs t >= 1 and n >= 4t")
    if m < 3:
        raise InfeasibleError("cycle-worst needs at least three candidates")
    block = tuple(range(m - 1, 1, -1))
    a, b, c = (0, 1) + block, block + (0, 1), (1,) + block + (0,)
    return _sides(a, b, n // 2 - t, [c] * (2 * t), t)


# each two-sided family: its construction and its closed-form ratio
_FAMILIES = {
    "binary-worst": (gen_binary_worst, lambda n, t, m: binary_closed_form(n, t)),
    "cycle-worst": (gen_cycle_worst, cycle_closed_form),
}


def measure_scenario(kind: str, n: int, t: int, m: int, side: str = "both") -> LowerBoundReport:
    """Score alg2's one answer M on each selected side; report the worse.

    M, the completed view's lexicographically first Kemeny median, is what
    every node outputs in an alg2 run of that view: in round 1 every node
    receives the completed view and takes M; in each king round every node
    holds M, so it proposes, fixes and locks exactly ``pairs_of(M)`` and
    ``adjust_ranking`` leaves M unchanged; the dictators 0..t are correct
    (the corrupted nodes are the last t, and n > 2t) and all send M.  The
    closed form is reported beside the ratio, not checked here.
    """
    if kind not in _FAMILIES:
        raise ValueError(f"{kind!r} is not a simulation scenario")
    if side not in SIDES:
        raise ValueError("side must be left, right, or both")
    construct, closed_form = _FAMILIES[kind]
    views = construct(n, t, m)
    ProtocolConfig(n, t, m)  # refuse what an alg2 run would, with its messages
    correct, byz_ballots = views["left"]
    median = kemeny_exact(Profile.of(correct + byz_ballots, m)).chosen
    scored = ("left", "right") if side == "both" else (side,)
    worst = max(approx_ratio(median, Profile.of(views[s][0], m)).ratio for s in scored)
    return LowerBoundReport(worst, closed_form(n, t, m), median)


def appendix_c_search(n: int, t: int, case: str) -> tuple[Fraction, tuple[int, int, int]]:
    """Exact worst-ratio grid search over feasible cyclic weight triples.

    Weights (x, y, z) with x >= y >= z range over [n/2, n-t] subject to
    n-t <= x+y+z <= 2(n-t); the case constraint (x-z <= t for C231,
    y-z <= t for C312) pins which median the forced answer is.  Integer
    weights mean the lower bound is ceil(n/2), so odd n needs n >= 4t+3
    for the grid to be non-empty; even n needs n >= 4t (and t >= 1).

    Returns the exact maximum ratio and one argmax (x, y, z) — on ties, the
    lexicographically smallest triple.
    """
    if case not in CASES:
        raise ValueError("case must be C231 or C312")
    if t < 1 or n < 4 * t:
        raise InfeasibleError("appendix-c grid is infeasible below n/t = 4")
    best_ratio: Fraction | None = None
    best_arg: tuple[int, int, int] | None = None
    lo, hi = (n + 1) // 2, n - t
    for x in range(lo, hi + 1):
        for y in range(lo, x + 1):
            for z in range(lo, y + 1):
                if not (n - t <= x + y + z <= 2 * (n - t)):
                    continue
                lead, other = (x, y) if case == "C231" else (y, x)
                if lead - z > t:
                    continue
                num = 2 * (n - t) + lead - other - z
                den = 2 * (n - t) - x - y + z  # >= z > 0, as x, y <= n - t
                ratio = Fraction(num, den)
                if best_ratio is None or ratio > best_ratio:
                    best_ratio, best_arg = ratio, (x, y, z)
    if best_ratio is None:
        raise InfeasibleError("no feasible weight triple at these parameters")
    return best_ratio, best_arg
