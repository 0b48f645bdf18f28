"""A naive reference engine: the three protocols run the slow, plain way.

This is an oracle for the round engine in ``byzrank.protocol`` and
``byzrank.simnet``, which share inboxes between recipients, run each step
once per distinct view, pack tallies into integer lanes, sanitize each
payload object once and memoize fixed sets, adjustments and dictator
decisions.  Here every node keeps its own inbox, counts pairs with a
``Counter`` of the rankings and batches it received, resolves cycles with
``conftest.resolve_per_pair``, adjusts its ranking with its own merge and
sanitizes every delivery on its own.  Only the adversary strategies,
``kemeny_brute`` and the result types come from the library.

``run(protocol, inputs, adversary, cfg, seed)`` returns a
:class:`byzrank.simnet.RunResult` with its transcript recorded, so it can be
compared field by field with ``run_sync(..., record_transcript=True)``.
"""

from collections import Counter

from byzrank.kemeny import kemeny_brute
from byzrank.rankings import Profile
from byzrank.simnet import AdversaryContext, IntegrityEvent, RunResult, RunStats
from conftest import resolve_per_pair

RANKING, PROPOSE, DICTATOR = "ranking", "propose", "dictator"


def is_ranking(x, m) -> bool:
    """A tuple of ``m`` plain ints holding each of ``0..m-1`` once."""
    if not isinstance(x, tuple) or len(x) != m:
        return False
    return all(type(c) is int for c in x) and set(x) == set(range(m))


def pairs(ranking) -> set:
    """Every ``(above, below)`` pair of a ranking."""
    return {(a, b) for i, a in enumerate(ranking) for b in ranking[i + 1:]}


def clean_ranking(x, m):
    return x if is_ranking(x, m) else None


def clean_batch(x, m):
    """Well-formed distinct pairs of candidates, minus any given both ways."""
    if x is None or isinstance(x, (str, bytes)):
        return None
    try:
        items = list(x)
    except TypeError:
        return None
    good = set()
    for item in items:
        if isinstance(item, tuple) and len(item) == 2:
            a, b = item
            if type(a) is int and type(b) is int and a != b and 0 <= a < m and 0 <= b < m:
                good.add((a, b))
    return frozenset((a, b) for a, b in good if (b, a) not in good)


class Network:
    """Per-recipient inboxes, message counts and the transcript of one run."""

    def __init__(self, n, adversary, seed, byz):
        self.n, self.adversary, self.seed, self.byz = n, adversary, seed, byz
        self.transcript = []
        self.messages_per_round = []
        self.sent = 0

    def exchange(self, round_no, phase, m, payloads, correct_inputs):
        n = self.n
        clean = clean_batch if phase == PROPOSE else clean_ranking
        inboxes = [{} for _ in range(n)]
        senders = sorted(payloads)
        for sender in senders:
            if sender not in self.byz:
                self.sent += n
                for v in range(n):
                    self.transcript.append((round_no, phase, sender, v, payloads[sender]))
                    inboxes[v][sender] = payloads[sender]
        ctx = AdversaryContext(seed=self.seed, round=round_no, phase=phase, n=n, m=m,
                               correct_inputs=correct_inputs, honest=lambda u: payloads[u])
        for sender in senders:
            if sender in self.byz:
                out = self.adversary.send(ctx, sender)
                if isinstance(out, dict):
                    deliveries = [(v, out[v]) for v in sorted(k for k in out if type(k) is int)
                                  if 0 <= v < n]
                else:
                    deliveries = [(v, out) for v in range(n)]
                for v, raw in deliveries:
                    if raw is None:
                        continue
                    self.transcript.append((round_no, phase, sender, v, raw))
                    if clean(raw, m) is not None:
                        inboxes[v][sender] = clean(raw, m)
        return inboxes

    def end_round(self):
        self.messages_per_round.append(self.sent)
        self.sent = 0


def adjust(ranking, fixed):
    """The fixed pairs' candidates first, each time the earliest one in
    ``ranking`` with no unplaced candidate fixed above it; the rest after,
    in ``ranking``'s order."""
    touched = {c for p in fixed for c in p}
    block = []
    while len(block) < len(touched):
        ready = [c for c in ranking if c in touched and c not in block
                 and all(a in block for a, b in fixed if b == c)]
        block.append(ready[0])
    return tuple(block + [c for c in ranking if c not in touched])


def king_rounds(net, n, t, m, schedule, rankings, start_round):
    byz = net.byz
    correct = [v for v in range(n) if v not in byz]
    instance_inputs = {v: rankings[v] for v in correct}
    events = []
    for ground, dictator in enumerate(schedule, start_round):
        inboxes = net.exchange(ground, RANKING, m, dict(rankings), instance_inputs)
        proposals = {}
        for v in range(n):
            support = Counter(p for r in inboxes[v].values() for p in pairs(r))
            proposals[v] = frozenset(p for p, k in support.items() if k >= n - t)

        inboxes = net.exchange(ground, PROPOSE, m, proposals, instance_inputs)
        locks = {}
        for v in range(n):
            receipts = Counter(p for batch in inboxes[v].values() for p in batch)
            fixed = {p for p, k in receipts.items() if k >= t + 1}
            lock_level = {p for p, k in receipts.items() if k >= n - t}
            kept, dropped = resolve_per_pair(fixed)
            if v not in byz:
                events += [
                    IntegrityEvent("fixed-cycle", ground, v, p,
                                   "lock" if p in lock_level else "fix", cycle_len)
                    for p, cycle_len in dropped
                ]
            locks[v] = kept & lock_level
            rankings[v] = adjust(rankings[v], kept)

        inboxes = net.exchange(ground, DICTATOR, m, {dictator: rankings[dictator]}, instance_inputs)
        for v in range(n):
            offer = inboxes[v].get(dictator)
            if is_ranking(offer, m) and locks[v] <= pairs(offer):
                rankings[v] = offer
        net.end_round()
    return events


def run(protocol, inputs, adversary, cfg, seed=0) -> RunResult:
    n, t, m, schedule = cfg.n, cfg.t, cfg.m, cfg.dictator_schedule
    byz = frozenset(adversary.pick_byzantine(n, t))
    net = Network(n, adversary, seed, byz)
    correct = [v for v in range(n) if v not in byz]
    rankings = dict(enumerate(inputs))
    events = []
    if protocol == "alg1":
        events = king_rounds(net, n, t, m, schedule, rankings, 1)
        final = rankings
    elif protocol == "alg2":
        inboxes = net.exchange(1, RANKING, m, dict(rankings), {v: inputs[v] for v in correct})
        net.end_round()
        for v in range(n):
            rankings[v] = kemeny_brute(Profile.of(list(inboxes[v].values()), m)).chosen
        net.end_round()
        events = king_rounds(net, n, t, m, schedule, rankings, 3)
        final = rankings
    else:  # stv-baseline: seat one winner per stage, then drop it
        remaining = {v: list(range(m)) for v in range(n)}
        prefix = {v: [] for v in range(n)}
        for stage in range(m - 1):
            stage_rankings = {
                v: tuple(remaining[v].index(c) for c in inputs[v] if c in remaining[v])
                for v in range(n)
            }
            events += king_rounds(net, n, t, m - stage, schedule, stage_rankings,
                                  stage * (t + 1) + 1)
            for v in range(n):
                winner = remaining[v][stage_rankings[v][0]]
                prefix[v].append(winner)
                remaining[v].remove(winner)
        final = {v: tuple(prefix[v] + remaining[v]) for v in range(n)}
    return RunResult(
        outputs={v: final[v] for v in correct},
        correct_inputs={v: inputs[v] for v in correct},
        byz_ids=byz,
        stats=RunStats(tuple(net.messages_per_round), tuple(events)),
        transcript=tuple(net.transcript),
    )
