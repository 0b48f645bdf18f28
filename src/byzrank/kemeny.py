"""Exact Kemeny-median computation and approximation-ratio measurement.

Two independent solvers: :func:`kemeny_brute` enumerates all m! rankings
(m <= 8, the test oracle) and :func:`kemeny_exact` runs a dynamic program
over candidate subsets (m <= 16) once per majority block that holds a strict
pair, in O(2^b * b) for the largest such block's size b, reading each append
cost from one table of summed weight rows per half of the block; a block
whose pairs all tie is solved in closed form, since every order of it costs
the same.
Both report the optimal cost, the number of optimal rankings and the same
deterministic representative: ``chosen`` is the lexicographically smallest
median under candidate-index order, so equal inputs yield equal outputs
everywhere in the simulator.  The medians themselves are listed, in
lexicographic order, only when a caller reads ``MedianResult.medians``, and
only up to :data:`MEDIANS_MAX` of them.

Ratios are exact :class:`fractions.Fraction` values; a positive-cost ranking
measured against a zero-cost optimum reports :data:`INFINITE`
(``math.inf``) instead of raising.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from typing import Callable, Iterable, Iterator, Sequence

from .rankings import Profile, Ranking, validate_ranking
from .tournament import weight_matrix

BRUTE_MAX_M = 8
EXACT_MAX_M = 16
# the most optimal rankings MedianResult.medians lists, and so the most a kemeny
# record holds: 78,624 optima of one 16-candidate block replayed in 1.27-1.43 s
# on a 2-core VM, about what the slowest simulate record replay admits takes
MEDIANS_MAX = 80_000


class CapacityError(ValueError):
    """The input exceeds what the requested solver or listing handles."""


INFINITE = math.inf  # ratio of a positive cost against a zero-cost optimum


@dataclass(frozen=True)
class MedianResult:
    """Kemeny optimum of a profile: its cost, how many rankings reach it and
    the deterministic representative (the lexicographically smallest)."""

    cost: int
    chosen: Ranking
    count: int
    _listing: Callable[[], Iterable[Ranking]] = field(repr=False, compare=False)

    @cached_property
    def medians(self) -> tuple[Ranking, ...]:
        """Every optimal ranking in lexicographic order, listed on first read.

        Raises :class:`CapacityError` when there are more than
        :data:`MEDIANS_MAX` of them.
        """
        if self.count > MEDIANS_MAX:
            raise CapacityError(
                f"{self.count} optimal rankings; listing them stops at {MEDIANS_MAX}"
            )
        return tuple(self._listing())


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
    return MedianResult(
        cost=best, chosen=medians[0], count=len(medians), _listing=lambda: medians
    )


def _exact_weights(profile: Profile) -> list[list[int]]:
    """The profile's weight matrix, refused above :data:`EXACT_MAX_M` before it is built."""
    if profile.m > EXACT_MAX_M:
        raise CapacityError(f"exact solver handles m <= {EXACT_MAX_M}, got {profile.m}")
    return weight_matrix(profile.rankings, profile.m)


def _blocks(w: Sequence[Sequence[int]]) -> list[list[int]]:
    """Strong components of the weak-majority graph (a -> b when
    ``w[a][b] >= w[b][a]``), each in ascending index order.

    Each block beats every later one by strict majority on every pair, so
    every Kemeny ranking keeps this block order (Truchon 1998).  Sorted by
    Copeland score (2 per strict win, 1 per tie), the top k candidates close
    a block exactly when their scores sum to k(k-1) + 2k(m-k).  Every pair
    is ranked by all N ballots, so a score reads only its candidate's row: a
    strict win is ``w > N//2`` and a tie ``w == N/2``.
    """
    m = len(w)
    if m < 2:
        return [[c] for c in range(m)]
    n = w[0][1] + w[1][0]
    half = n // 2
    score = [
        2 * sum(map(half.__lt__, row)) + (0 if n % 2 else row.count(half)) for row in w
    ]
    order = sorted(range(m), key=lambda c: -score[c])
    blocks: list[list[int]] = []
    start = total = 0
    for k, c in enumerate(order, 1):
        total += score[c]
        if total == k * (k - 1) + 2 * k * (m - k):
            blocks.append(sorted(order[start:k]))
            start = k
    return blocks


def _prefix_dp(w: list[list[int]]) -> tuple[list[int], list[int], Callable[[int, int], int]]:
    """Subset dynamic program over candidate prefixes of the weights ``w``.

    ``h[S]`` is the cheapest way to order the candidates outside ``S`` below
    a fixed prefix that contains exactly ``S``, and ``cnt[S]`` the number of
    orders that reach it; appending candidate ``c`` costs the yet-unplaced
    candidates' weight over ``c``, read in O(1) from one row table per half
    of the b candidates: ``lo[x]`` is the column sums minus the rows of the
    low-half set ``x``, ``hi[y]`` the sum of the rows of the high-half set
    ``y``, each row built by one C-level ``map``, so the cost of ``c`` after
    ``S`` is ``lo[S & mask][c] - hi[S >> k][c]``.  The program costs
    O(2^b * b); the solvers run it once per majority block that holds a
    strict pair.  Returns ``(h, cnt, append_cost)``; ``h[0]`` is the
    optimum, ``cnt[0]`` the number of optimal rankings.
    """
    m = len(w)
    k = m // 2
    mask = (1 << k) - 1
    # each row doubles its table: entry x + 2^d adds row d to entry x
    lo = [[sum(col) for col in zip(*w)]]
    for row in w[:k]:
        lo += [list(map(operator.sub, x, row)) for x in lo]
    hi = [[0] * m]
    for row in w[k:]:
        hi += [list(map(operator.add, y, row)) for y in hi]

    def append_cost(s: int, c: int) -> int:
        return lo[s & mask][c] - hi[s >> k][c]

    full = (1 << m) - 1
    h, cnt = [0] * (full + 1), [0] * full + [1]
    bits = [(c, 1 << c) for c in range(m)]
    above = sum(lo[0]) + 1  # exceeds every cost
    # every successor s | bit is larger than s, so it is already solved
    for s in range(full - 1, -1, -1):
        lo_s, hi_s = lo[s & mask], hi[s >> k]
        best, ways = above, 0
        for c, bit in bits:
            if s & bit:
                continue
            nxt = s | bit
            cand = lo_s[c] - hi_s[c] + h[nxt]
            if cand < best:
                best, ways = cand, cnt[nxt]
            elif cand == best:
                ways += cnt[nxt]
        h[s] = best
        cnt[s] = ways
    return h, cnt, append_cost


def _optima(
    h: list[int], append_cost: Callable[[int, int], int], ids: Sequence[int]
) -> Iterator[Ranking]:
    """Every optimal order of the ascending candidates ``ids``, whose weights
    :func:`_prefix_dp` solved, in lexicographic order.

    Depth-first along the zero-slack branches in index order, so the first
    order is the greedy walk that takes the lowest-index candidate which
    keeps the prefix optimal.
    """
    full = (1 << len(ids)) - 1
    stack: list[tuple[int, Ranking]] = [(0, ())]
    while stack:
        s, prefix = stack.pop()
        if s == full:
            yield prefix
            continue
        branches = []
        for i, c in enumerate(ids):
            bit = 1 << i
            if not s & bit and append_cost(s, i) + h[s | bit] == h[s]:
                branches.append((s | bit, prefix + (c,)))
        stack.extend(reversed(branches))


def _solve(w: Sequence[Sequence[int]]) -> tuple[int, int, list[Callable[[], Iterator[Ranking]]]]:
    """Optimal cost, optima count and, per block in order, a lister of the
    block's optimal orders: every optimal ranking concatenates one of each."""
    cost, count, listers, above = 0, 1, [], []
    for block in _blocks(w):
        cost += sum(w[b][a] for a in above for b in block)
        above += block
        if len(block) == 1:  # a lone candidate has one order at no cost
            listers.append(partial(iter, (tuple(block),)))
            continue
        pairs = list(itertools.combinations(block, 2))
        if all(w[a][b] == w[b][a] for a, b in pairs):
            # every order of an all-tie block costs the same; permutations
            # lists them lexicographically, from the block itself, as the DP would
            cost += sum(w[a][b] for a, b in pairs)
            count *= math.factorial(len(block))
            listers.append(partial(itertools.permutations, block))
            continue
        h, cnt, append_cost = _prefix_dp([[w[a][b] for b in block] for a in block])
        cost += h[0]
        count *= cnt[0]
        listers.append(partial(_optima, h, append_cost, block))
    return cost, count, listers


def kemeny_exact(profile: Profile) -> MedianResult:
    """Exact optimum by the subset dynamic program per majority block (m <= 16).

    Only a block with a strict pair pays the DP's O(2^b * b); a block whose
    pairs all tie has all b! of its orders optimal.  The optimal rankings
    are counted per block; ``chosen`` is the first of them in lexicographic
    order, and the rest are listed only when ``medians`` is read: all optima
    share the block order, so the product of the blocks' listings is in
    lexicographic order too.
    """
    cost, count, listers = _solve(_exact_weights(profile))

    def listing() -> Iterator[Ranking]:
        for orders in itertools.product(*(lister() for lister in listers)):
            yield tuple(itertools.chain.from_iterable(orders))

    chosen = tuple(c for lister in listers for c in next(lister()))
    return MedianResult(cost=cost, chosen=chosen, count=count, _listing=listing)


def approx_ratio(candidate: Sequence[int], profile: Profile) -> ApproxReport:
    """Exact cost ratio of ``candidate`` against the profile's true median."""
    candidate = validate_ranking(candidate, profile.m)
    w = _exact_weights(profile)
    cand_cost = _backward(w, candidate)
    opt, _count, _listers = _solve(w)
    if opt == 0:
        ratio = Fraction(1) if cand_cost == 0 else INFINITE
    else:
        ratio = Fraction(cand_cost, opt)
    return ApproxReport(candidate_cost=cand_cost, optimal_cost=opt, ratio=ratio)
