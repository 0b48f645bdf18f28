"""Pairwise-preference tallies over candidates.

``w[i][j]`` counts the ballots that rank candidate ``i`` above candidate
``j``; for any pair the two directions sum to the ballot count.

Both tallies walk a ranking once with one big-int step per candidate, into
byte-aligned lanes: :func:`weight_matrix` keeps one int per row, and the king
rounds keep all rows in one int (:class:`PairLanes`), so a tally grows by one
big-int add per ballot or batch and is thresholded for every pair at once.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import compress
from typing import Iterable, Sequence

from .rankings import Pair, Ranking


@lru_cache(maxsize=64)
def _lane_starts(width: int, m: int) -> tuple[int, ...]:
    """A 1 in the lowest bit of each of ``m`` lanes of ``width`` bytes."""
    return tuple(1 << s for s in range(0, 8 * width * m, 8 * width))


def weight_matrix(rankings: Sequence[Ranking], m: int) -> list[list[int]]:
    """Pairwise-preference counts of a plain ranking list (no validation).

    Row ``a`` is one int, lane ``b`` counting the ballots ranking ``a`` over ``b``;
    each distinct ranking is walked once, one big-int step per candidate times
    its multiplicity, so a bloc profile costs its distinct rankings, not ballots.
    """
    width = (len(rankings).bit_length() + 8) // 8  # as in PairLanes: no carry
    lane = _lane_starts(width, m)
    rows = [0] * m
    for r, k in Counter(rankings).items():
        below = 0
        for c in reversed(r):
            rows[c] += below * k
            below += lane[c]
    size = m * width
    w = [list(row.to_bytes(size, "little")[::width]) for row in rows]
    for j in range(1, width):  # byte j of a lane weighs 256**j
        w = [list(map(int.__add__, lo, map((256**j).__mul__, x.to_bytes(size, "little")[j::width])))
             for lo, x in zip(w, rows)]
    return w


class PairLanes:
    """One counter per ordered pair ``(a, b)`` of ``m`` candidates, in one int.

    Pair ``(a, b)`` owns lane ``a*m + b``: ``width`` whole bytes, little-endian,
    with ``8*width >= n.bit_length() + 1`` so a count up to ``n`` never
    reaches the lane's top bit.  Tallies of at most ``n`` senders therefore
    add lane by lane with no carry.  A pair set is the int with 1 in each
    of its lanes, and :meth:`at_least` turns a tally into the pair set of
    the lanes that reach a threshold.  :meth:`pairs` and :meth:`unpack` are
    linear in the lane count; :meth:`ranking` takes one big-int step per candidate.
    """

    def __init__(self, n: int, m: int):
        self.m = m
        self.width = width = (n.bit_length() + 8) // 8
        self.size = m * m * width
        self._top = 8 * width - 1
        self._ones = int.from_bytes((b"\1" + bytes(width - 1)) * (m * m), "little")
        self._high = self._ones << self._top
        self._pairs = [divmod(lane, m) for lane in range(m * m)]
        self._lane = _lane_starts(width, m)
        self._row = list(range(0, 8 * width * m * m, 8 * width * m))

    def ranking(self, ranking: Ranking) -> int:
        """The pair set of a ranking: row ``a`` holds every candidate below ``a``."""
        lane, row = self._lane, self._row
        packed = below = 0
        for c in reversed(ranking):
            packed += below << row[c]
            below += lane[c]
        return packed

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
