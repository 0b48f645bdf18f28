"""Pairwise-preference tallies over candidates.

``w[i][j]`` counts the ballots that rank candidate ``i`` above candidate
``j``; for any pair the two directions sum to the ballot count.

The king rounds keep the same counts packed in one int (:class:`PairLanes`),
so a tally grows by one big-int add per ballot or batch and is thresholded
for every pair at once.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import compress
from typing import Iterable, Sequence

from .rankings import Pair, Ranking


def weight_matrix(rankings: Sequence[Ranking], m: int) -> list[list[int]]:
    """Pairwise-preference counts of a plain ranking list (no validation).

    Each distinct ranking is added once, times its multiplicity, so a
    profile of a few blocs costs its distinct rankings, not its ballots.
    """
    w = [[0] * m for _ in range(m)]
    for r, k in Counter(rankings).items():
        for i, a in enumerate(r):
            row = w[a]
            for b in r[i + 1:]:
                row[b] += k
    return w


class PairLanes:
    """One counter per ordered pair ``(a, b)`` of ``m`` candidates, in one int.

    Pair ``(a, b)`` owns lane ``a*m + b``: ``width`` whole bytes, little-endian,
    with ``8*width >= n.bit_length() + 1`` so a count up to ``n`` never
    reaches the lane's top bit.  Tallies of at most ``n`` senders therefore
    add lane by lane with no carry.  A pair set is the int with 1 in each
    of its lanes, and :meth:`at_least` turns a tally into the pair set of
    the lanes that reach a threshold.  Packing and unpacking are linear in
    the lane count.
    """

    def __init__(self, n: int, m: int):
        self.m = m
        self.width = width = (n.bit_length() + 8) // 8
        self.size = m * m * width
        self._top = 8 * width - 1
        self._ones = int.from_bytes((b"\1" + bytes(width - 1)) * (m * m), "little")
        self._high = self._ones << self._top
        self._pairs = [divmod(lane, m) for lane in range(m * m)]

    def ranking(self, ranking: Ranking) -> int:
        """The pair set of a ranking: row ``a`` holds every candidate below ``a``."""
        width = self.width
        row = bytearray(self.m * width)
        rows: list[bytes] = [b""] * self.m
        for c in reversed(ranking):
            rows[c] = bytes(row)
            row[c * width] = 1
        return int.from_bytes(b"".join(rows), "little")

    def pairs(self, pairs: Iterable[Pair]) -> int:
        """The pair set of plain ``(a, b)`` pairs over ``range(m)``."""
        m, width = self.m, self.width
        buf = bytearray(self.size)
        for a, b in pairs:
            buf[(a * m + b) * width] = 1
        return int.from_bytes(buf, "little")

    def at_least(self, tally: int, need: int) -> int:
        """The pair set of the lanes whose count is ``need`` or more (1 <= need <= n).

        Adding ``2**top - need`` to every lane sets a lane's top bit exactly
        when its count reaches ``need``, and never carries out of the lane.
        """
        top = self._top
        return ((tally + ((1 << top) - need) * self._ones) & self._high) >> top

    def unpack(self, pair_set: int) -> frozenset[Pair]:
        """The plain ``(a, b)`` pairs of a pair set."""
        lane_starts = pair_set.to_bytes(self.size, "little")[:: self.width]
        return frozenset(compress(self._pairs, lane_starts))


@lru_cache(maxsize=32)
def pair_lanes(n: int, m: int) -> PairLanes:
    """The lane layout for tallies of at most ``n`` senders over ``m`` candidates."""
    return PairLanes(n, m)
