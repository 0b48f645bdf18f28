"""Shared helpers for the test suite: seeded random rankings and profiles."""

import random

from byzrank.rankings import Profile


def rand_ranking(rng: random.Random, m: int) -> tuple:
    return tuple(rng.sample(range(m), m))


def rand_profile(rng: random.Random, n: int, m: int) -> Profile:
    return Profile.of([rand_ranking(rng, m) for _ in range(n)], m)


def triangle_holds(w) -> bool:
    """Directed triangle inequality w[i][j] + w[j][k] >= w[i][k].

    Every voter ranking i above k ranks i above j or j above k, so the
    weight matrix of any profile meets it.
    """
    m = len(w)
    return all(
        w[i][j] + w[j][k] >= w[i][k] for i in range(m) for j in range(m) for k in range(m)
    )
