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
from dataclasses import dataclass
from functools import partial
from typing import Callable, Mapping, Sequence

from .kemeny import kemeny_exact
from .rankings import Pair, Profile, Ranking, is_ranking, pairs_of, validate_ranking
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
from .tournament import PairLanes, pair_lanes


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
        # exact type: True and 1.0 would pass the range test as node 1
        if any(type(d) is not int or not (0 <= d < self.n) for d in sched):
            raise ValueError("dictator schedule entries must be node ids")
        if len(set(sched)) != len(sched):
            raise ValueError("dictator schedule entries must be distinct")


# --- closed forms -------------------------------------------------------------


def expected_messages(
    protocol: str, n: int, t: int, m: int, byz_ids: frozenset[int], schedule: Sequence[int]
) -> list[int]:
    """Closed-form per-round correct-sender message counts.

    One count per round, so the list's length is the run's round count:
    t+1 for alg1, t+3 for alg2 and (m-1)(t+1) for stv-baseline.
    """
    c = n - len(byz_ids)
    kings = [2 * c * n + (n if d not in byz_ids else 0) for d in schedule[: t + 1]]
    if protocol == "alg1":
        return kings
    if protocol == "alg2":
        return [c * n, 0] + kings
    return kings * (m - 1)


# --- pure per-node steps ------------------------------------------------------


def compute_proposals(tally: int, n: int, t: int, m: int) -> frozenset[Pair]:
    """Pairs that at least n-t of the tallied rankings support.

    ``tally`` packs the pair counts of the rankings one node received in
    the lanes of ``pair_lanes(n, m)``.
    """
    lanes = pair_lanes(n, m)
    return lanes.unpack(lanes.at_least(tally, n - t))


def collect_fixed_pairs(
    tally: int, n: int, t: int, m: int, memo: dict | None = None
) -> tuple[frozenset[Pair], frozenset[Pair], list[tuple[Pair, str, int]]]:
    """Fix, resolve and lock the pairs of one node's receipt counts.

    ``tally`` packs the receipts in the lanes of ``pair_lanes(n, m)``.  A
    pair proposed by at least t+1 senders is fixed; :func:`resolve_acyclic`
    makes the fixed set acyclic.  Returns ``(kept, locks, drops)``: the kept
    fixed pairs, those of them with at least n-t receipts, and one
    ``(pair, level, cycle_len)`` per dropped edge, its level ``"lock"`` when
    the edge had lock-level receipts and ``"fix"`` otherwise.  The answer
    depends only on the fixed and lock-level pair sets, so a ``memo`` shared
    by calls with equal ``(n, t, m)`` resolves each fixed set once and
    answers each pair of sets once.
    """
    lanes = pair_lanes(n, m)
    fix, lock = lanes.at_least(tally, t + 1), lanes.at_least(tally, n - t)
    if memo is None:
        memo = {}
    key = (fix, lock)
    if key not in memo:
        if fix not in memo:
            memo[fix] = resolve_acyclic(lanes.unpack(fix))
        kept, dropped = memo[fix]
        locks = lanes.unpack(lock)
        drops = [(p, "lock" if p in locks else "fix", cycle_len) for p, cycle_len in dropped]
        memo[key] = kept, kept & locks, drops
    return memo[key]


def resolve_acyclic(pairs: frozenset[Pair]) -> tuple[frozenset[Pair], list[tuple[Pair, int]]]:
    """Extract an acyclic subset of ``pairs`` and list the dropped edges.

    Pairs are added greedily in lexicographic order; an edge that would close
    a directed cycle is dropped, listed with the length of that cycle.  A
    pair given in both orientations is the 2-cycle case: the
    lexicographically first edge is kept and the other dropped.

    Sorted pairs come grouped by ``above``, and no path back to ``above``
    uses an edge out of it, so one backward search from ``above`` over the
    kept edges (a bitmask ring per distance) decides its group: O(m²)
    big-int steps per call for candidates 0..m-1.
    """
    dropped: list[tuple[Pair, int]] = []
    kept: list[Pair] = []
    sources: dict[int, int] = {}  # candidate -> mask of its kept edges' sources
    above = None
    for p in sorted(pairs):
        if p[0] != above:  # a new source: one search back to it decides its group
            above, hops, length = p[0], {}, 0  # hops: path length to `above`
            ring = seen = 1 << above
            while ring:
                ahead = 0
                while ring:
                    low = ring & -ring
                    ring ^= low
                    c = low.bit_length() - 1
                    hops[c] = length
                    ahead |= sources.get(c, 0)
                ring = ahead & ~seen
                seen |= ring
                length += 1
        path = hops.get(p[1])  # 0 at `above` itself: a self-loop closes no cycle
        if path:
            dropped.append((p, path + 1))
        else:
            kept.append(p)
            sources[p[1]] = sources.get(p[1], 0) | 1 << above
    return frozenset(kept), dropped


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
    for above, below in fixed_pairs:
        if above not in pos or below not in pos:
            raise ValueError(f"pair ({above}, {below}) mentions a candidate outside the ranking")
        constrained.update((above, below))
        adj.setdefault(above, []).append(below)
        indeg[below] += 1
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
    if is_ranking(dictator_ranking, len(own)) and fixed_pairs <= pairs_of(dictator_ranking):
        return dictator_ranking
    return own


# --- round engine -------------------------------------------------------------


def _each_view(
    inboxes: Sequence[Mapping[int, object]], byz_ids: frozenset[int], step: Callable[[tuple], object]
) -> list:
    """``step(view)`` for every recipient, run once per distinct view.

    A view is the tuple of a recipient's Byzantine senders' slots, in sender
    id order, None where nothing came, built once per inbox object.  An
    inbox from :meth:`SyncNetwork.exchange` maps Byzantine senders to their
    sanitized payloads; correct senders broadcast, so the caller adds their
    payloads from its own state.
    """
    byz = sorted(byz_ids)
    by_view: dict[tuple, object] = {}
    by_box: dict[int, object] = {}  # id(inbox) -> answer; `inboxes` keeps each id unique
    out = []
    for box in inboxes:
        key = id(box)
        if key not in by_box:
            view = tuple(map(box.get, byz))
            if view not in by_view:
                by_view[view] = step(view)
            by_box[key] = by_view[view]
        out.append(by_box[key])
    return out


def _tally(base: int, slots: Sequence, pack: Callable[[object], int], packed: dict) -> int:
    """``base`` plus the packed pair set of every slot that is not None.

    ``packed`` caches ``pack`` per value, so a ballot or batch that reaches
    many views is packed once.
    """
    for x in slots:
        if x is not None:
            if x not in packed:
                packed[x] = pack(x)
            base += packed[x]
    return base


def _settled(lanes: PairLanes, tally: int, slack: int, *needs: int) -> bool:
    """Whether every view of ``tally`` meets each of ``needs`` where ``tally`` does.

    A view adds at most ``slack = len(byz_ids)`` sanitized slots, each at
    most one per lane, so a lane at ``need`` stays there and one below
    ``need - slack`` cannot reach it (the phase-king argument).  Needs
    ``need - slack >= 1``, which 3t < n gives for t+1 and n-t.
    """
    return all(lanes.at_least(tally, need) == lanes.at_least(tally, need - slack) for need in needs)


def _king_rounds(
    net: SyncNetwork, cfg: ProtocolConfig, m: int, rankings: dict[int, Ranking], start_round: int
) -> list[IntegrityEvent]:
    """Run one king round per scheduled dictator, updating rankings in place.

    The instance inputs the adversary sees are the correct nodes' rankings
    on entry.  Rankings are kept for every node: corrupted nodes keep an
    honest shadow ranking (fed by real inboxes) so the network can answer
    exactly what they would have sent.  An inbox holds only the Byzantine
    deliveries, since correct senders broadcast: a phase tallies the correct
    payloads from its own maps once into one packed int of per-pair lanes
    (:class:`PairLanes`), each view adds one big-int per Byzantine slot,
    None slots counting nothing, and a correct dictator's ranking is read
    from ``rankings``.  The ranking and proposal phases run through one
    helper, which tallies through :func:`_tally`, packing each distinct
    ballot or batch once per round.  When the correct tally alone settles a
    phase's thresholds (:func:`_settled`), every node shares its answer and
    no inbox is read, so the tally is taken before the phase's exchange,
    which then skips the adversary (``read=False``) unless a transcript is
    recorded.  Otherwise a node's step depends only on its view, so
    :func:`_each_view` runs it once per distinct view.  Fixed sets are
    resolved once per run, and the ranking adjustments and dictator
    decisions are shared run-wide too.  Each dropped edge becomes one integrity event per correct
    node that holds it.
    """
    n, t, byz_ids = cfg.n, cfg.t, net.byz_ids
    slack = len(byz_ids)
    correct = [v for v in range(n) if v not in byz_ids]
    instance_inputs = {v: rankings[v] for v in correct}
    lanes = pair_lanes(n, m)
    resolved: dict = {}
    adjusted: dict[tuple, Ranking] = {}
    decided: dict[tuple, Ranking] = {}
    events: list[IntegrityEvent] = []

    def threshold_phase(phase, payloads, pack, step, *needs) -> list:
        """``step(tally, n, t, m)`` per node for ``phase`` of round ``ground``."""
        tally = _tally(0, [payloads[u] for u in correct], pack, packed)
        settled = _settled(lanes, tally, slack, *needs)
        inboxes = net.exchange(ground, phase, m, payloads, instance_inputs, read=not settled)
        if settled:
            return [step(tally, n, t, m)] * n
        return _each_view(inboxes, byz_ids, lambda view: step(
            _tally(tally, view, pack, packed), n, t, m))

    fix = partial(collect_fixed_pairs, memo=resolved)
    for ground, dict_id in enumerate(cfg.dictator_schedule, start_round):
        packed: dict[object, int] = {}  # this round's ballots and batches
        proposals = threshold_phase(RANKING, rankings, lanes.ranking, compute_proposals, n - t)
        fixed = threshold_phase(PROPOSE, dict(enumerate(proposals)), lanes.pairs, fix, t + 1, n - t)
        locks: dict[int, frozenset[Pair]] = {}
        for v, (kept, locks[v], drops) in enumerate(fixed):
            if v not in byz_ids:
                events.extend(
                    IntegrityEvent("fixed-cycle", ground, v, pair, level, cycle_len)
                    for pair, level, cycle_len in drops
                )
            key = (rankings[v], kept)
            if key not in adjusted:
                adjusted[key] = adjust_ranking(*key)
            rankings[v] = adjusted[key]

        sent = rankings[dict_id]
        inboxes = net.exchange(ground, DICTATOR, m, {dict_id: sent}, instance_inputs)
        for v in range(n):
            key = (rankings[v], locks[v], inboxes[v].get(dict_id) if dict_id in byz_ids else sent)
            if key not in decided:
                decided[key] = decide_dictator(*key)
            rankings[v] = decided[key]
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

    # the median depends on the ballots' weights alone, so the correct
    # ballots go first and each view adds its Byzantine slots
    ballots = list(correct_inputs.values())
    rankings.update(enumerate(_each_view(inboxes, net.byz_ids, lambda view: kemeny_exact(
        Profile.of(ballots + [r for r in view if r is not None], cfg.m)).chosen)))

    # round 2 is local computation only; the network counts it as 0 messages
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
        for v in range(cfg.n):
            to_new = {c: i for i, c in enumerate(remaining[v])}  # `remaining` stays ascending
            rankings[v] = tuple(to_new[c] for c in inputs[v] if c in to_new)
        events += _king_rounds(net, cfg, cfg.m - stage, rankings, stage * (cfg.t + 1) + 1)
        for v in range(cfg.n):
            prefix[v].append(remaining[v].pop(rankings[v][0]))

    final = {v: tuple(prefix[v] + remaining[v]) for v in range(cfg.n)}
    return _finish(net, final, inputs, events)
