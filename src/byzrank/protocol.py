"""Byzantine agreement on preference rankings: node logic and run loops.

Three protocols share one round engine.  A *king round* has three phases:
every node broadcasts its current ranking; every node broadcasts the batch
of pairs supported by at least n-t of the rankings it received; then a
pre-scheduled dictator broadcasts its (adjusted) ranking, which a node adopts
unless the dictator value is malformed or omits one of the node's
well-supported pairs.

Pair thresholds are asymmetric on purpose.  A pair is *fixed* (merged into
the node's own ranking) once t+1 senders propose it — at least one of them
correct.  A pair is a *lock* (grounds for rejecting the dictator) only at
n-t receipts, which every pair unanimous among correct inputs reaches at
every correct node.  Running both tests at one common threshold breaks either
agreement or validity; the split keeps both.

With fewer than n/3 corruptions the fixed set of a correct node can still be
cyclic when n <= (L+1)*t for some cycle length L <= m: rotations of an
L-cycle can each clear t+1 receipts at one node.  Resolution drops the
lexicographically last-added edge of any cycle, records an integrity event,
and continues, so runs remain comparable instead of aborting.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

from .kemeny import kemeny_exact
from .rankings import Pair, Profile, Ranking, is_ranking, validate_ranking
from .simnet import (
    DICTATOR,
    PROPOSE,
    RANKING,
    AdversaryStrategy,
    IntegrityEvent,
    RunResult,
    RunStats,
    SyncNetwork,
)
from .tournament import weight_matrix


@dataclass(frozen=True)
class ProtocolConfig:
    """Static parameters of one run.

    Requires 3t < n.  ``dictator_schedule`` lists the dictator of each king
    round; it must hold t+1 distinct ids so at least one scheduled dictator
    is correct.  Default schedule: nodes 0..t.
    """

    n: int
    t: int
    m: int
    dictator_schedule: tuple[int, ...] | None = None

    def __post_init__(self):
        if not all(type(x) is int for x in (self.n, self.t, self.m)):
            raise TypeError("n, t, m must be ints")
        if self.t < 0 or self.n < 1:
            raise ValueError("need n >= 1 and t >= 0")
        if 3 * self.t >= self.n:
            raise ValueError(f"resilience requires 3t < n, got n={self.n}, t={self.t}")
        if self.m < 2:
            raise ValueError("protocols need at least two candidates")
        sched = self.dictator_schedule
        sched = tuple(range(self.t + 1)) if sched is None else tuple(sched)
        object.__setattr__(self, "dictator_schedule", sched)
        if len(sched) != self.t + 1:
            raise ValueError(f"dictator schedule must have t+1={self.t + 1} entries")
        if len(set(sched)) != len(sched):
            raise ValueError("dictator schedule entries must be distinct")
        if any(not (0 <= d < self.n) for d in sched):
            raise ValueError("dictator schedule entries must be node ids")


# --- closed forms -------------------------------------------------------------


def expected_messages(
    protocol: str, n: int, t: int, m: int, byz_ids: frozenset[int], schedule: Sequence[int]
) -> list[int]:
    """Closed-form per-round correct-sender message counts.

    One count per round, so the list's length is the run's round count:
    t+1 for alg1, t+3 for alg2 and (m-1)(t+1) for stv-baseline.
    """
    c = n - len(byz_ids)

    def king(dictator: int) -> int:
        return 2 * c * n + (n if dictator not in byz_ids else 0)

    if protocol == "alg1":
        return [king(schedule[r]) for r in range(t + 1)]
    if protocol == "alg2":
        return [c * n, 0] + [king(schedule[r]) for r in range(t + 1)]
    return [king(schedule[r % (t + 1)]) for r in range((m - 1) * (t + 1))]


# --- pure per-node steps ------------------------------------------------------


def compute_proposals(
    received: Sequence[Ranking | None], n: int, t: int, m: int
) -> frozenset[Pair]:
    """Pairs supported by at least n-t of the received rankings.

    ``received`` holds one sanitized slot per sender; a slot is None when
    that sender's broadcast was missing or malformed, and contributes no
    support.
    """
    w = weight_matrix([r for r in received if r is not None], m)
    need = n - t
    return frozenset(
        Pair(a, b) for a in range(m) for b in range(m) if a != b and w[a][b] >= need
    )


def collect_fixed_pairs(
    batches: Iterable[frozenset[Pair] | None],
    n: int,
    t: int,
    *,
    round_no: int,
    node: int,
) -> tuple[frozenset[Pair], frozenset[Pair], list[IntegrityEvent]]:
    """Fix, resolve and lock the pairs of one node's received batches.

    Each slot is one sender's sanitized batch (None when absent).  A pair
    proposed by at least t+1 senders is fixed; :func:`resolve_acyclic` makes
    the fixed set acyclic.  Returns ``(kept, locks, events)``: the kept
    fixed pairs, those of them with at least n-t receipts, and the
    integrity events of the resolution.
    """
    receipts: Counter = Counter()
    for batch in batches:
        if batch:
            receipts.update(batch)
    fixed = frozenset(p for p, c in receipts.items() if c >= t + 1)
    kept, events = resolve_acyclic(fixed, receipts, n, t, round_no=round_no, node=node)
    locks = frozenset(p for p in kept if receipts[p] >= n - t)
    return kept, locks, events


def resolve_acyclic(
    pairs: frozenset[Pair],
    receipts: Mapping[Pair, int],
    n: int,
    t: int,
    *,
    round_no: int = 0,
    node: int = -1,
) -> tuple[frozenset[Pair], list[IntegrityEvent]]:
    """Extract an acyclic subset of ``pairs``, logging every dropped edge.

    Pairs are added greedily in lexicographic order; an edge that would close
    a directed cycle is dropped with a ``fixed-cycle`` event recording the
    cycle length and whether the edge had lock-level (>= n-t) receipts.  A
    pair given in both orientations is the 2-cycle case: the
    lexicographically first edge is kept and the other dropped.
    """
    events: list[IntegrityEvent] = []
    kept: set[Pair] = set()
    adj: dict[int, set[int]] = {}

    def reachable(src: int, dst: int) -> int:
        # BFS over kept edges; returns path edge count, 0 if unreachable
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

    lock_level = n - t
    for p in sorted(pairs):
        path = reachable(p.below, p.above)
        if path:
            events.append(
                IntegrityEvent(
                    kind="fixed-cycle",
                    round=round_no,
                    node=node,
                    pair=(p.above, p.below),
                    level="lock" if receipts.get(p, 0) >= lock_level else "fix",
                    cycle_len=path + 1,
                )
            )
            continue
        kept.add(p)
        adj.setdefault(p.above, set()).add(p.below)
    return frozenset(kept), events


def adjust_ranking(ranking: Ranking, fixed_pairs: frozenset[Pair]) -> Ranking:
    """Merge fixed pairs into a ranking, moving constrained candidates up.

    Candidates touched by any fixed pair form the top block, ordered by a
    topological sort of the pairs that breaks ties by the candidate's
    position in the node's own ranking; everyone else follows below in the
    node's own order.  Cyclic input raises ValueError.
    """
    validate_ranking(ranking)
    pos = {c: i for i, c in enumerate(ranking)}
    constrained: set[int] = set()
    adj: dict[int, list[int]] = {}
    indeg: Counter = Counter()
    for p in fixed_pairs:
        if p.above not in pos or p.below not in pos:
            raise ValueError(f"pair {p} mentions a candidate outside the ranking")
        constrained.update((p.above, p.below))
        adj.setdefault(p.above, []).append(p.below)
        indeg[p.below] += 1
    heap = [pos[c] for c in constrained if indeg[c] == 0]
    heapq.heapify(heap)
    block: list[int] = []
    while heap:
        c = ranking[heapq.heappop(heap)]
        block.append(c)
        for d in adj.get(c, ()):
            indeg[d] -= 1
            if indeg[d] == 0:
                heapq.heappush(heap, pos[d])
    if len(block) != len(constrained):
        raise ValueError("fixed pairs contain a cycle")
    rest = [c for c in ranking if c not in constrained]
    return tuple(block + rest)


def decide_dictator(
    own: Ranking,
    fixed_pairs: frozenset[Pair],
    dictator_ranking: object,
) -> Ranking:
    """Adopt the dictator's ranking unless it is malformed or misses a pair."""
    if not is_ranking(dictator_ranking, len(own)):
        return own
    dpos = {c: i for i, c in enumerate(dictator_ranking)}
    for p in fixed_pairs:
        if dpos[p.above] > dpos[p.below]:
            return own
    return dictator_ranking


# --- round engine -------------------------------------------------------------


def _views(inboxes: Sequence[Mapping[int, object]], n: int) -> list[tuple]:
    """One slot tuple per recipient (sender order, None where nothing came).

    Recipients that share an inbox object share one tuple, built once.
    """
    slots: dict[int, tuple] = {}
    views = []
    for box in inboxes:
        view = slots.get(id(box))
        if view is None:
            view = slots[id(box)] = tuple(box.get(u) for u in range(n))
        views.append(view)
    return views


def _king_rounds(
    net: SyncNetwork, cfg: ProtocolConfig, m: int, rankings: dict[int, Ranking], start_round: int
) -> list[IntegrityEvent]:
    """Run one king round per scheduled dictator, updating rankings in place.

    The instance inputs the adversary sees are the correct nodes' rankings
    on entry.  Rankings are kept for every node: corrupted nodes keep an
    honest shadow ranking (fed by real inboxes) so the network can answer
    exactly what they would have sent.  A node's steps depend only on its
    view, so each step runs once per distinct view and is shared.
    """
    n, t, byz_ids = cfg.n, cfg.t, net.byz_ids
    instance_inputs = {v: r for v, r in rankings.items() if v not in byz_ids}
    events: list[IntegrityEvent] = []
    for ground, dict_id in enumerate(cfg.dictator_schedule, start_round):
        inboxes = net.exchange(ground, RANKING, m, rankings, instance_inputs)
        tally: dict[tuple, frozenset[Pair]] = {}
        proposals: dict[int, frozenset[Pair]] = {}
        for v, view in enumerate(_views(inboxes, n)):
            if view not in tally:
                tally[view] = compute_proposals(view, n, t, m)
            proposals[v] = tally[view]

        inboxes = net.exchange(ground, PROPOSE, m, proposals, instance_inputs)
        fixed: dict[tuple, tuple] = {}
        adjusted: dict[tuple, Ranking] = {}
        locks: dict[int, frozenset[Pair]] = {}
        for v, view in enumerate(_views(inboxes, n)):
            if view not in fixed:
                fixed[view] = collect_fixed_pairs(view, n, t, round_no=ground, node=v)
            kept, locks[v], evs = fixed[view]
            if v not in byz_ids:
                events.extend(replace(e, node=v) for e in evs)
            key = (rankings[v], kept)
            if key not in adjusted:
                adjusted[key] = adjust_ranking(*key)
            rankings[v] = adjusted[key]

        inboxes = net.exchange(ground, DICTATOR, m, {dict_id: rankings[dict_id]}, instance_inputs)
        for v in range(n):
            rankings[v] = decide_dictator(rankings[v], locks[v], inboxes[v].get(dict_id))
        net.end_round()
    return events


def _setup(
    inputs: Sequence[Ranking],
    adversary: AdversaryStrategy,
    cfg: ProtocolConfig,
    seed: int | str,
    record_transcript: bool,
) -> SyncNetwork:
    if len(inputs) != cfg.n:
        raise ValueError(f"need {cfg.n} inputs, got {len(inputs)}")
    for r in inputs:
        validate_ranking(r, cfg.m)
    byz = frozenset(adversary.pick_byzantine(cfg.n, cfg.t))
    if len(byz) > cfg.t or any(not (0 <= v < cfg.n) for v in byz):
        raise ValueError("corruption set exceeds t or names unknown nodes")
    return SyncNetwork(cfg.n, adversary, seed, byz, record_transcript)


def _finish(net: SyncNetwork, outputs, inputs, events) -> RunResult:
    correct = [v for v in range(net.n) if v not in net.byz_ids]
    return RunResult(
        outputs={v: outputs[v] for v in correct},
        correct_inputs={v: inputs[v] for v in correct},
        byz_ids=net.byz_ids,
        stats=RunStats(tuple(net.messages_per_round), tuple(events)),
        transcript=tuple(net.transcript) if net.transcript is not None else None,
    )


def run_algorithm1(
    inputs: Sequence[Ranking],
    adversary: AdversaryStrategy,
    cfg: ProtocolConfig,
    seed: int | str = 0,
    record_transcript: bool = False,
) -> RunResult:
    """t+1 king rounds straight over the input rankings."""
    net = _setup(inputs, adversary, cfg, seed, record_transcript)
    rankings = dict(enumerate(inputs))
    events = _king_rounds(net, cfg, cfg.m, rankings, 1)
    return _finish(net, rankings, inputs, events)


def run_algorithm2(
    inputs: Sequence[Ranking],
    adversary: AdversaryStrategy,
    cfg: ProtocolConfig,
    seed: int | str = 0,
    record_transcript: bool = False,
) -> RunResult:
    """Broadcast inputs, take local Kemeny medians, then agree on the medians.

    Round 1 is the only full exchange; round 2 is message-free local median
    computation; rounds 3..t+3 run the king engine over the medians.  Total:
    t+3 rounds.
    """
    net = _setup(inputs, adversary, cfg, seed, record_transcript)
    rankings = dict(enumerate(inputs))
    correct_inputs = {v: r for v, r in rankings.items() if v not in net.byz_ids}
    inboxes = net.exchange(1, RANKING, cfg.m, rankings, correct_inputs)
    net.end_round()

    median_memo: dict[tuple, Ranking] = {}
    for v, view in enumerate(_views(inboxes, cfg.n)):
        if view not in median_memo:
            ballots = [r for r in view if r is not None]
            median_memo[view] = kemeny_exact(Profile.of(ballots, cfg.m)).chosen
        rankings[v] = median_memo[view]
    net.end_round()  # round 2: local computation only

    events = _king_rounds(net, cfg, cfg.m, rankings, 3)
    return _finish(net, rankings, inputs, events)


def run_baseline_stv(
    inputs: Sequence[Ranking],
    adversary: AdversaryStrategy,
    cfg: ProtocolConfig,
    seed: int | str = 0,
    record_transcript: bool = False,
) -> RunResult:
    """Sequential-elimination baseline: m-1 agreement stages, one per seat.

    Stage k agrees on the input profile restricted to the candidates still
    standing (candidate ids re-indexed densely), takes the top of the agreed
    ranking as the stage winner, and removes it.  Every stage runs the full
    t+1 king rounds, so the total is (m-1)(t+1) rounds.
    """
    net = _setup(inputs, adversary, cfg, seed, record_transcript)
    remaining: dict[int, list[int]] = {v: list(range(cfg.m)) for v in range(cfg.n)}
    prefix: dict[int, list[int]] = {v: [] for v in range(cfg.n)}
    events: list[IntegrityEvent] = []

    for stage in range(cfg.m - 1):
        rankings: dict[int, Ranking] = {}
        old_ids: dict[int, list[int]] = {}
        for v in range(cfg.n):
            olds = sorted(remaining[v])
            old_ids[v] = olds
            to_new = {c: i for i, c in enumerate(olds)}
            rankings[v] = tuple(to_new[c] for c in inputs[v] if c in to_new)
        events += _king_rounds(net, cfg, cfg.m - stage, rankings, stage * (cfg.t + 1) + 1)
        for v in range(cfg.n):
            winner = old_ids[v][rankings[v][0]]
            prefix[v].append(winner)
            remaining[v].remove(winner)

    final = {v: tuple(prefix[v] + remaining[v]) for v in range(cfg.n)}
    return _finish(net, final, inputs, events)
