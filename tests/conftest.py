"""Shared helpers for the test suite: seeded random rankings and profiles,
bloc profiles for hypothesis, and per-item oracles for the engine's bulk
computations, the Kemeny solver's block split and the profile parser's
whole-profile passes."""

import random

from hypothesis import strategies as st

from byzrank.rankings import ParseError, Profile, pairs_of


def rand_ranking(rng: random.Random, m: int) -> tuple:
    return tuple(rng.sample(range(m), m))


def rand_profile(rng: random.Random, n: int, m: int) -> Profile:
    return Profile.of([rand_ranking(rng, m) for _ in range(n)], m)


def bloc_ballots(m: int, max_blocs: int = 4, max_size: int = 200):
    """A hypothesis strategy for a ballot list of at most ``max_blocs``
    distinct rankings over ``m`` candidates, each held by 1..``max_size``
    ballots, shuffled into ballot order."""

    def spread(blocs_and_rng):
        blocs, rng = blocs_and_rng
        ballots = [r for r, size in blocs for _ in range(size)]
        rng.shuffle(ballots)
        return ballots

    bloc = st.tuples(st.permutations(range(m)).map(tuple), st.integers(1, max_size))
    return st.tuples(
        st.lists(bloc, min_size=1, max_size=max_blocs), st.randoms(use_true_random=False)
    ).map(spread)


def parse_profile_per_line(text: str) -> tuple[Profile, list[str]]:
    """The profile text format read line by line: an oracle for
    ``parse_profile``, which splits and checks each distinct line once."""
    names: list[str] = []
    index: dict[str, int] = {}
    raw: list[tuple[int, list[str]]] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = [p.strip() for p in stripped.split(">")]
        if any(not p for p in parts):
            raise ParseError(line_no, f"empty candidate name in {stripped!r}")
        if len(set(parts)) != len(parts):
            raise ParseError(line_no, f"duplicate candidate in {stripped!r}")
        for name in parts:
            if name not in index:
                index[name] = len(names)
                names.append(name)
        raw.append((line_no, parts))
    if not raw:
        raise ParseError(1, "no rankings found")
    m = len(names)
    rankings = []
    for line_no, parts in raw:
        if len(parts) != m:
            raise ParseError(
                line_no,
                f"ranking covers {len(parts)} of {m} candidates "
                f"(every line must rank the full universe)",
            )
        rankings.append(tuple(map(index.__getitem__, parts)))
    return Profile.of(rankings, m), names


def weight_matrix_per_ballot(rankings, m: int) -> list:
    """Pairwise-preference counts with one pass per ballot: an oracle for
    ``weight_matrix``, which adds each distinct ranking once."""
    w = [[0] * m for _ in range(m)]
    for r in rankings:
        for i in range(m):
            row = w[r[i]]
            for j in range(i + 1, m):
                row[r[j]] += 1
    return w


def blocks_by_pairs(w) -> list:
    """Majority blocks with each Copeland score read pair by pair: an oracle
    for ``kemeny._blocks``, which reads each score from one row.

    Sorted by score (2 per strict win, 1 per tie), the top k candidates
    close a block exactly when their scores sum to k(k-1) + 2k(m-k).
    """
    m = len(w)
    score = [
        sum(2 if w[c][d] > w[d][c] else 1 if w[c][d] == w[d][c] else 0 for d in range(m) if d != c)
        for c in range(m)
    ]
    order = sorted(range(m), key=lambda c: -score[c])
    blocks = []
    start = total = 0
    for k, c in enumerate(order, 1):
        total += score[c]
        if total == k * (k - 1) + 2 * k * (m - k):
            blocks.append(sorted(order[start:k]))
            start = k
    return blocks


def tau_profile(r, profile: Profile) -> int:
    """Kendall cost of ``r`` against ``profile``, counted pair by pair: an
    oracle for the solvers that shares no code with ``weight_matrix``."""
    return sum(len(pairs_of(r) - pairs_of(p)) for p in profile)


def resolve_per_pair(pairs) -> tuple:
    """Greedy cycle resolution with one breadth-first search per pair: an
    oracle for ``resolve_acyclic``, which searches once per source candidate.

    Pairs are added in lexicographic order; one that would close a directed
    cycle is dropped and listed with that cycle's length.
    """
    dropped = []
    kept = set()
    adj: dict = {}

    def reachable(src, dst) -> int:
        # path edge count from src to dst over kept edges, 0 if none
        frontier = [src]
        dist = {src: 0}
        while frontier:
            nxt = []
            for c in frontier:
                for d in adj.get(c, ()):
                    if d not in dist:
                        dist[d] = dist[c] + 1
                        if d == dst:
                            return dist[d]
                        nxt.append(d)
            frontier = nxt
        return 0

    for p in sorted(pairs):
        above, below = p
        path = reachable(below, above)
        if path:
            dropped.append((p, path + 1))
            continue
        kept.add(p)
        adj.setdefault(above, set()).add(below)
    return frozenset(kept), dropped


def triangle_holds(w) -> bool:
    """Directed triangle inequality w[i][j] + w[j][k] >= w[i][k].

    Every voter ranking i above k ranks i above j or j above k, so the
    weight matrix of any profile meets it.
    """
    m = len(w)
    return all(
        w[i][j] + w[j][k] >= w[i][k] for i in range(m) for j in range(m) for k in range(m)
    )
