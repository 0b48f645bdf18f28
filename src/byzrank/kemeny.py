"""Exact Kemeny-median computation and approximation-ratio measurement.

Two independent solvers: :func:`kemeny_brute` enumerates all m! rankings
(m <= 8, the test oracle) and :func:`kemeny_exact` runs a dynamic program
over candidate subsets (m <= 16).  Both return every minimizer and break
ties identically: ``chosen`` is the lexicographically smallest median under
candidate-index order, so equal inputs yield equal outputs everywhere in the
simulator.

Ratios are exact :class:`fractions.Fraction` values; a positive-cost ranking
measured against a zero-cost optimum reports :data:`INFINITE`
(``math.inf``) instead of raising.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .rankings import Profile, Ranking, validate_ranking
from .tournament import weight_matrix

BRUTE_MAX_M = 8
EXACT_MAX_M = 16


class CapacityError(ValueError):
    """Candidate count exceeds what the requested solver enumerates."""


INFINITE = math.inf  # ratio of a positive cost against a zero-cost optimum


@dataclass(frozen=True)
class MedianResult:
    """All Kemeny medians of a profile plus the deterministic representative."""

    medians: tuple[Ranking, ...]
    cost: int
    chosen: Ranking


@dataclass(frozen=True)
class ApproxReport:
    candidate_cost: int
    optimal_cost: int
    ratio: Fraction | float


def _backward(w: Sequence[Sequence[int]], perm: Sequence[int]) -> int:
    total = 0
    m = len(perm)
    for i in range(m):
        wrow_idx = perm[i]
        for j in range(i + 1, m):
            total += w[perm[j]][wrow_idx]
    return total


def kemeny_brute(profile: Profile) -> MedianResult:
    """Exhaustive minimizer scan over all m! rankings (m <= 8)."""
    m = profile.m
    if m > BRUTE_MAX_M:
        raise CapacityError(f"brute-force solver handles m <= {BRUTE_MAX_M}, got {m}")
    w = weight_matrix(profile.rankings, m)
    best: int | None = None
    medians: list[Ranking] = []
    for perm in itertools.permutations(range(m)):
        c = _backward(w, perm)
        if best is None or c < best:
            best = c
            medians = [perm]
        elif c == best:
            medians.append(perm)
    assert best is not None
    # itertools.permutations enumerates in lexicographic order, so the first
    # minimizer found is the lexicographically smallest.
    return MedianResult(medians=tuple(medians), cost=best, chosen=medians[0])


def _prefix_dp(w: Sequence[Sequence[int]]) -> tuple[list[int], Callable[[int, int], int]]:
    """Subset dynamic program over candidate prefixes of the weights ``w``.

    ``h[S]`` is the cheapest way to order the candidates outside ``S`` below
    a fixed prefix that contains exactly ``S``; appending candidate ``c``
    costs the yet-unplaced ballots' preferences for the remaining candidates
    over ``c``.  Returns ``(h, append_cost)``; ``h[0]`` is the optimum.
    """
    m = len(w)
    if m > EXACT_MAX_M:
        raise CapacityError(f"exact solver handles m <= {EXACT_MAX_M}, got {m}")
    colsum = [sum(w[d][c] for d in range(m)) for c in range(m)]
    full = (1 << m) - 1

    def append_cost(s: int, c: int) -> int:
        # sum of w[d][c] over candidates d not yet placed (d != c)
        cost = colsum[c]
        d = 0
        rest = s
        while rest:
            if rest & 1:
                cost -= w[d][c]
            rest >>= 1
            d += 1
        return cost

    h = [0] * (full + 1)
    for s in sorted(range(full), key=lambda x: x.bit_count(), reverse=True):
        best = None
        for c in range(m):
            bit = 1 << c
            if s & bit:
                continue
            cand = append_cost(s, c) + h[s | bit]
            if best is None or cand < best:
                best = cand
        h[s] = best  # type: ignore[assignment]
    return h, append_cost


def kemeny_exact(profile: Profile) -> MedianResult:
    """Exact medians by the subset dynamic program (m <= 16).

    Reconstruction walks greedily by candidate index, which yields the
    lexicographically smallest optimum first.
    """
    m = profile.m
    h, append_cost = _prefix_dp(weight_matrix(profile.rankings, m))
    full = (1 << m) - 1
    cost = h[0]

    # Enumerate every optimal ranking by following all zero-slack branches in
    # candidate-index order; the first leaf is the lexicographic minimum.
    medians: list[Ranking] = []
    stack: list[tuple[int, tuple[int, ...]]] = [(0, ())]
    while stack:
        s, prefix = stack.pop()
        if s == full:
            medians.append(prefix)
            continue
        branches = []
        for c in range(m):
            bit = 1 << c
            if s & bit:
                continue
            if append_cost(s, c) + h[s | bit] == h[s]:
                branches.append((s | bit, prefix + (c,)))
        stack.extend(reversed(branches))
    return MedianResult(medians=tuple(medians), cost=cost, chosen=medians[0])


def profile_cost(r: Sequence[int], profile: Profile) -> int:
    """Kendall-tau distance from ``r`` to the whole profile via edge weights."""
    r = validate_ranking(r, profile.m)
    w = weight_matrix(profile.rankings, profile.m)
    return _backward(w, r)


def approx_ratio(candidate: Sequence[int], profile: Profile) -> ApproxReport:
    """Exact cost ratio of ``candidate`` against the profile's true median."""
    candidate = validate_ranking(candidate, profile.m)
    w = weight_matrix(profile.rankings, profile.m)
    cand_cost = _backward(w, candidate)
    h, _append_cost = _prefix_dp(w)
    opt = h[0]
    if opt == 0:
        ratio = Fraction(1) if cand_cost == 0 else INFINITE
    else:
        ratio = Fraction(cand_cost, opt)
    return ApproxReport(candidate_cost=cand_cost, optimal_cost=opt, ratio=ratio)
