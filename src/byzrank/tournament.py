"""Pairwise-preference weight matrices over candidates.

``w[i][j]`` counts the ballots that rank candidate ``i`` above candidate
``j``; for any pair the two directions sum to the ballot count.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .rankings import Ranking


def weight_matrix(rankings: Sequence[Ranking], m: int) -> list[list[int]]:
    """Pairwise-preference counts of a plain ranking list (no validation)."""
    w = [[0] * m for _ in range(m)]
    add_ballots(w, rankings)
    return w


def add_ballots(w: list[list[int]], rankings: Iterable[Ranking]) -> None:
    """Add each ranking's pairwise preferences onto ``w`` in place.

    Counts are sums, so a matrix tallied in parts equals one tallied at once.
    """
    m = len(w)
    for r in rankings:
        for i in range(m):
            a = r[i]
            row = w[a]
            for j in range(i + 1, m):
                row[r[j]] += 1
