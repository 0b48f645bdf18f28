"""Deterministic synchronous network with pluggable Byzantine strategies.

One run is a sequence of lockstep rounds; each round has up to three message
phases (ranking broadcast, proposal batch, dictator ranking).  Correct nodes
broadcast uniformly; the adversary is *rushing* — it sees every correct
payload of the current phase before choosing its own messages — and may send
different payloads to different recipients (equivocation) or nothing at all.
Corruption is static: the Byzantine set is fixed before the run, by default
the last ``t`` node ids.

The network asks the adversary for a phase only when some node reads that
phase's inboxes or a transcript is recorded, so a strategy's answer must
depend on its ``AdversaryContext`` and sender alone, never on which earlier
phases it was asked about.  A strategy that sends rankings gets their
payloads from ``AdversaryContext.payloads``; the context lives one phase, so
no built-in strategy keeps per-phase state.

All randomness is derived from string seeds via ``random.Random``, which is
hash-seed independent, so equal ``(protocol, inputs, adversary, cfg, seed)``
reproduce bit-identical transcripts.
"""

from __future__ import annotations

import itertools
import random
from collections import defaultdict
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .kemeny import EXACT_MAX_M, CapacityError, approx_ratio, kemeny_exact
from .rankings import Pair, Profile, Ranking, is_ranking, pairs_of, unanimous_pairs

# message phases
RANKING = "ranking"
PROPOSE = "propose"
DICTATOR = "dictator"

Payload = object  # Ranking in ranking/dictator phases, frozenset[Pair] in propose


@dataclass(frozen=True)
class IntegrityEvent:
    """A protocol-integrity violation observed by one correct node.

    The one kind is ``fixed-cycle``: the node's threshold-fixed pairs
    contained a directed cycle of ``cycle_len`` edges, ``pair`` is the
    dropped edge and ``level`` records whether that edge had lock-level
    receipts.  ``kind`` stays in the record so stored runs keep their shape.
    """

    kind: str
    round: int
    node: int
    pair: tuple[int, int]
    level: str
    cycle_len: int

    def to_json(self) -> dict:
        return dict(kind=self.kind, round=self.round, node=self.node, pair=list(self.pair),
                    level=self.level, cycle_len=self.cycle_len)


@dataclass(frozen=True)
class RunStats:
    messages_per_round: tuple[int, ...]
    integrity_errors: tuple[IntegrityEvent, ...] = ()

    @property
    def rounds(self) -> int:
        """Rounds the network counted, message-free ones included."""
        return len(self.messages_per_round)

    @property
    def messages_total(self) -> int:
        return sum(self.messages_per_round)


@dataclass(frozen=True)
class RunResult:
    """Correct-node outputs plus accounting for one protocol run."""

    outputs: dict[int, Ranking]
    correct_inputs: dict[int, Ranking]
    byz_ids: frozenset[int]
    stats: RunStats
    transcript: tuple | None = None

    @property
    def agreement(self) -> bool:
        return len(set(self.outputs.values())) == 1

    @property
    def consensus(self) -> Ranking | None:
        if not self.agreement:
            return None
        return next(iter(self.outputs.values()))

    @property
    def pareto(self) -> bool:
        """Every pair unanimous among correct inputs appears in every output."""
        must = unanimous_pairs(Profile.of(list(self.correct_inputs.values())))
        return all(must <= pairs_of(out) for out in self.outputs.values())


@dataclass
class AdversaryContext:
    """Everything a strategy may look at when choosing one sender's messages.

    ``honest`` returns what any sender of this phase sends when correct, the
    correct senders' payloads included, which makes the adversary rushing.
    """

    seed: int | str
    round: int
    phase: str
    n: int
    m: int
    correct_inputs: Mapping[int, Ranking]
    honest: Callable[[int], Payload]
    _payloads: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def payloads(self, rankings: Sequence[Ranking]) -> list[Payload]:
        """Each ranking's payload in this phase: itself, or its pairs as a
        proposal batch.  Equal rankings get one object for the whole phase, so
        the network sanitizes each value once, whoever sends it to whom."""
        table = self._payloads
        for ranking in set(rankings).difference(table):
            table[ranking] = pairs_of(ranking) if self.phase == PROPOSE else ranking
        return list(map(table.__getitem__, rankings))


class AdversaryStrategy:
    """Base strategy: owns the corruption set and per-phase message choice."""

    name = "abstract"

    def pick_byzantine(self, n: int, t: int) -> frozenset[int]:
        return frozenset(range(n - t, n))

    def send(self, ctx: AdversaryContext, sender: int):
        """Return None (silence), a payload (uniform broadcast), or a
        recipient->payload dict (equivocation).

        The answer must be a function of ``ctx`` and ``sender`` alone: the
        network skips a phase that no node reads unless a transcript is
        recorded, so a strategy whose state carried over between calls would
        answer differently with and without one.  ``ctx.payloads`` builds the
        phase's payloads for a list of rankings.
        """
        raise NotImplementedError


def random_rankings(rng: random.Random, m: int, count: int) -> list[Ranking]:
    """``count`` draws of ``tuple(rng.sample(range(m), m))``, bit for bit.

    ``sample`` takes its pool branch for every full permutation: one
    ``getrandbits(k)`` rejection loop per position, whose pick leaves the
    pool's live part.  This inlines it over one step table, so the batch
    draws exactly the words those calls draw; each pick is swapped to the
    pool's end, where the picks end up in reverse order.
    """
    getrandbits = rng.getrandbits
    steps = [(size, size.bit_length(), size - 1) for size in range(m, 0, -1)]
    start = list(range(m))
    out = []
    for _ in range(count):
        pool = start.copy()
        for size, k, last in steps:
            j = getrandbits(k)
            while j >= size:
                j = getrandbits(k)
            pool[j], pool[last] = pool[last], pool[j]
        pool.reverse()
        out.append(tuple(pool))
    return out


class Honest(AdversaryStrategy):
    """Corrupted nodes follow the protocol with their own inputs."""

    name = "honest"

    def send(self, ctx, sender):
        return ctx.honest(sender)


class Silent(AdversaryStrategy):
    """Corrupted nodes never send anything."""

    name = "silent"

    def send(self, ctx, sender):
        return None


class OppositeMedian(AdversaryStrategy):
    """Pushes the exact reverse of the correct nodes' Kemeny median.

    The same reversed ranking is broadcast in every phase: as the round
    ranking, as a (transitive) full proposal batch, and as the dictator
    value.  It needs the exact median, so :func:`make_strategy` refuses it
    above :data:`EXACT_MAX_M` candidates.
    """

    name = "opposite-median"

    def __init__(self):
        self._memo: dict = {}  # (m, correct inputs) -> reversed median

    def send(self, ctx, sender):
        key = (ctx.m, tuple(sorted(ctx.correct_inputs.items())))
        target = self._memo.get(key)
        if target is None:
            med = kemeny_exact(Profile.of(list(ctx.correct_inputs.values()), ctx.m))
            target = self._memo[key] = tuple(reversed(med.chosen))
        return ctx.payloads((target,))[0]


class Equivocate(AdversaryStrategy):
    """Every message is a fresh random value, chosen per recipient.

    Each sender's values are one batch from its own seed, built through
    :meth:`AdversaryContext.payloads`.
    """

    name = "equivocate"

    def send(self, ctx, sender):
        rng = random.Random(f"{ctx.seed}/equivocate/{ctx.round}/{ctx.phase}/{sender}")
        return dict(enumerate(ctx.payloads(random_rankings(rng, ctx.m, ctx.n))))


class RandomRankings(AdversaryStrategy):
    """One fresh random ranking per round, used consistently in all phases.

    Each call draws it again from a generator seeded by round and sender.
    """

    name = "random"

    def send(self, ctx, sender):
        rng = random.Random(f"{ctx.seed}/random/{ctx.round}/{sender}")
        return ctx.payloads(random_rankings(rng, ctx.m, 1))[0]


class ScriptedViews(AdversaryStrategy):
    """Plays an explicit script; silent wherever the script says nothing.

    The script maps ``(round, phase, sender)`` to a payload, a
    recipient->payload dict, or None.  Rounds are global (Kemeny-median
    agreement's broadcast round is round 1; sequential-elimination stages
    continue the count).
    """

    name = "scripted"

    def __init__(self, script: Mapping[tuple[int, str, int], object] | None = None):
        self.script = dict(script or {})

    def send(self, ctx, sender):
        return self.script.get((ctx.round, ctx.phase, sender))


def completion_script(byz_ballots: Sequence[Ranking], n: int) -> ScriptedViews:
    """Round-1 broadcast of one fixed ballot per corrupted node, silent after.

    Corrupted nodes are the last ``len(byz_ballots)`` ids, matching the
    default static-corruption choice.
    """
    t = len(byz_ballots)
    return ScriptedViews({(1, RANKING, n - t + i): b for i, b in enumerate(byz_ballots)})


def default_script(n: int, t: int, m: int) -> dict:
    """Round-1 ballot script used when `scripted` is selected with no scenario.

    Even n: every corrupted node broadcasts the full reversal of the identity
    ranking (the classic indistinguishable-view completion).  Odd n:
    corrupted node j broadcasts the j-th cyclic rotation of the identity.
    """
    base = tuple(range(m))
    if n % 2 == 0:
        ballots = [base[::-1]] * t
    else:
        ballots = [base[j % m:] + base[:j % m] for j in range(t)]
    return completion_script(ballots, n).script


# built-in strategies by CLI name
_STRATEGIES = {
    cls.name: cls
    for cls in (Honest, Silent, OppositeMedian, Equivocate, ScriptedViews, RandomRankings)
}
STRATEGY_NAMES = tuple(_STRATEGIES)

# protocol name -> its runner in byzrank.protocol
_RUNNERS = {"alg1": "run_algorithm1", "alg2": "run_algorithm2", "stv-baseline": "run_baseline_stv"}
PROTOCOLS = tuple(_RUNNERS)


def make_strategy(name: str, *, n: int, t: int, m: int) -> AdversaryStrategy:
    """Instantiate a built-in strategy by CLI name; refuses opposite-median above EXACT_MAX_M."""
    cls = _STRATEGIES.get(name)
    if cls is None:
        raise ValueError(f"unknown strategy {name!r} (choose from {', '.join(STRATEGY_NAMES)})")
    if cls is OppositeMedian and m > EXACT_MAX_M:
        raise CapacityError(f"opposite-median needs m <= {EXACT_MAX_M}, got {m}")
    return cls(default_script(n, t, m)) if cls is ScriptedViews else cls()


class SyncNetwork:
    """Round/phase message fabric: delivery, counting, transcript, adversary.

    The network holds the corruption set ``byz_ids``.  Correct-sender
    messages are logged and counted (a broadcast is n point-to-point copies,
    self included) but filed in no inbox, as every recipient gets the same
    payload; Byzantine messages are delivered and logged but never counted.
    Counts go under the round number each exchange carries, from 1, so a
    round with no exchange (alg2's round 2) counts 0.
    Byzantine payloads are sanitized at delivery: the transcript logs them
    raw, the inbox gets the clean value, and a malformed one is left out,
    exactly as if it were never sent.
    """

    def __init__(
        self,
        n: int,
        adversary: AdversaryStrategy,
        seed: int | str,
        byz_ids: frozenset[int],
        record_transcript: bool = False,
    ):
        self.n = n
        self.adversary = adversary
        self.seed = seed
        self.byz_ids = byz_ids
        self.transcript: list | None = [] if record_transcript else None
        self.messages_per_round: list[int] = []  # index r-1 counts round r

    def exchange(
        self,
        round_no: int,
        phase: str,
        m: int,
        payloads: Mapping[int, Payload],
        correct_inputs: Mapping[int, Ranking],
        read: bool = True,
    ) -> list[dict[int, Payload]]:
        """Deliver one phase; returns per-recipient inboxes (sender->payload).

        ``payloads`` maps each sender of the phase to what it sends when
        correct.  Correct senders broadcast: their payloads are logged and
        counted but filed in no inbox, since every recipient gets the same
        one and the caller already holds it.  The adversary chooses for the
        Byzantine senders (``ctx.honest`` looks them up here), so an inbox
        maps each Byzantine sender that delivered to its sanitized payload.
        A Byzantine payload is sanitized once per distinct payload object per
        phase, so a value sent to many recipients as one object, or broadcast
        by several senders, is checked once; every delivered slot still
        equals the sanitizer applied to its own transcript row.  One loop
        logs, sanitizes and files every delivery: a broadcast's, and one per
        plain-int node id of an equivocation (its other keys are skipped).
        Recipients with equal deliveries share one inbox object (every one
        of them when nobody equivocates), so callers must not mutate it.

        ``read=False`` says no recipient will read this phase's inboxes.
        Without a transcript the correct broadcasts are still counted, but
        the adversary is not asked, nothing is sanitized, and every recipient
        gets one shared empty inbox, as in a phase with no Byzantine sender;
        with a transcript the phase is delivered and logged in full, so
        recorded transcripts do not depend on it.
        """
        n = self.n
        transcript = self.transcript
        byz_senders = []
        for sender in sorted(payloads):
            if sender in self.byz_ids:
                byz_senders.append(sender)
            elif transcript is not None:
                payload = payloads[sender]
                transcript.extend((round_no, phase, sender, v, payload) for v in range(n))
        counts = self.messages_per_round
        counts.extend([0] * (round_no - len(counts)))  # a message-free round counts 0
        counts[round_no - 1] += n * (len(payloads) - len(byz_senders))
        if not byz_senders or (not read and transcript is None):
            return [{}] * n
        # the adversary moves last (rushing)
        ctx = AdversaryContext(
            seed=self.seed,
            round=round_no,
            phase=phase,
            n=n,
            m=m,
            correct_inputs=correct_inputs,
            honest=payloads.__getitem__,
        )
        sanitize = sanitize_batch if phase == PROPOSE else sanitize_ranking
        # id(raw) -> (raw, clean); holding raw keeps its id unique for the call
        checked: dict[int, tuple[Payload, Payload | None]] = {}
        shared: dict[int, Payload] = {}  # broadcast deliveries
        own: defaultdict[int, dict[int, Payload]] = defaultdict(dict)  # equivocated deliveries
        for sender in byz_senders:
            out = self.adversary.send(ctx, sender)
            # (recipient, raw) per delivery, recipient None for a broadcast
            if isinstance(out, dict):
                # True or 1.0 would alias node 1, and mixed keys would not sort
                keys = sorted(v for v in out if type(v) is int and 0 <= v < n)
                deliveries = zip(keys, map(out.__getitem__, keys))
            else:
                deliveries = [(None, out)]  # None is silence
            for v, raw in deliveries:
                if raw is None:
                    continue
                if transcript is not None:
                    to = range(n) if v is None else (v,)
                    transcript.extend((round_no, phase, sender, u, raw) for u in to)
                hit = checked.get(id(raw))
                if hit is None:
                    hit = checked[id(raw)] = (raw, sanitize(raw, m))
                if hit[1] is None:
                    continue
                if v is None:
                    shared[sender] = hit[1]
                else:
                    own[v][sender] = hit[1]
        return [shared | own[v] if v in own else shared for v in range(n)]


# --- payload sanitization (recipient side) ----------------------------------


def sanitize_ranking(payload: object, m: int) -> Ranking | None:
    """A malformed or absent ranking counts as nothing received."""
    return payload if is_ranking(payload, m) else None


def sanitize_batch(payload: object, m: int) -> frozenset[Pair] | None:
    """Validate a proposal batch; enforce within-batch antisymmetry.

    Bad containers count as no batch; individual bad entries (bools
    included) are dropped; a pair proposed in both orientations by one
    sender is dropped entirely.
    """
    if payload is None or isinstance(payload, (str, bytes)):
        return None
    try:
        items = list(payload)  # type: ignore[arg-type]
    except TypeError:
        return None
    pairs = set()
    for item in items:
        if not isinstance(item, tuple) or len(item) != 2:
            continue
        a, b = item
        if type(a) is int and type(b) is int and 0 <= a < m and 0 <= b < m and a != b:
            pairs.add((a, b))
    return frozenset(p for p in pairs if (p[1], p[0]) not in pairs)


# --- targeted attack constructions -------------------------------------------


def cycle_lock_attack(n: int, t: int, m: int):
    """Inputs + script that drive every correct node to lock a full L-cycle.

    Feasible exactly when some cycle length L in [3, m] satisfies
    n <= (L+1)*t: each cycle edge then retains >= n-2t correct supporters
    even though no single ranking can contain the whole cycle.  Correct
    inputs are cycle rotations; the corrupted nodes echo each node's own
    ballot back to it in round 1 (per-recipient equivocation) and broadcast
    the full cycle as their proposal batch.  Returns
    ``(inputs, ScriptedViews, info)`` or None when no L is feasible.
    """
    feasible = [L for L in range(3, min(m, n - t) + 1) if n <= (L + 1) * t]
    if not feasible:
        return None
    L = feasible[0]
    tail = tuple(range(L, m))
    rotations = [tuple((s + i) % L for i in range(L)) + tail for s in range(L)]
    # group sizes: 1 <= g_i <= t, sum = n - t, which fits as n - t <= L*t
    g = [1] * L
    extra = (n - t) - L
    for i in range(L):
        take = min(t - g[i], extra)
        g[i] += take
        extra -= take
    inputs: list[Ranking] = []
    for i in range(L):
        inputs.extend([rotations[(i + 1) % L]] * g[i])
    byz_ids = list(range(n - t, n))
    inputs.extend([rotations[0]] * t)
    cycle_pairs = frozenset((i, (i + 1) % L) for i in range(L))
    script: dict = {}
    for sender in byz_ids:
        script[(1, RANKING, sender)] = {v: inputs[v] for v in range(n)}
        script[(1, PROPOSE, sender)] = cycle_pairs
    info = {"cycle_len": L, "groups": tuple(g)}
    return inputs, ScriptedViews(script), info


def split_lock_script(n: int, t: int, m: int, rng: random.Random) -> ScriptedViews:
    """Randomized receipt-splitting script for the adversarial search.

    Round-1 rankings are equivocated at random; the proposal batch for a
    randomly planted pair is sent only to a random subset of recipients,
    trying to place some nodes just above a threshold and others just below.
    """
    script: dict = {}
    planted = tuple(rng.sample(range(m), 2))
    for sender in range(n - t, n):
        script[(1, RANKING, sender)] = dict(enumerate(random_rankings(rng, m, n)))
        favored = {v for v in range(n) if rng.random() < 0.5}
        script[(1, PROPOSE, sender)] = {
            v: frozenset({planted}) if v in favored else None for v in range(n)
        }
        for r in range(2, t + 2):
            if rng.random() < 0.5:
                script[(r, DICTATOR, sender)] = dict(enumerate(random_rankings(rng, m, n)))
    return ScriptedViews(script)


@dataclass
class SearchReport:
    objective: str
    runs: int
    found: bool
    witness: RunResult | None = None
    witness_config: dict | None = None
    max_ratio: Fraction | None = None


# search objective -> the test that makes a run a hit; max-ratio has none and
# keeps the worst ratio instead
_HITS = {
    "trigger-integrity": lambda r: bool(r.stats.integrity_errors),
    "break-validity": lambda r: not (r.agreement and r.pareto),
    "max-ratio": None,
}


def run_sync(
    protocol: str,
    inputs: Sequence[Ranking],
    adversary: AdversaryStrategy,
    cfg,
    seed: int | str = 0,
    record_transcript: bool = False,
) -> RunResult:
    """Dispatch a named protocol ('alg1', 'alg2', 'stv-baseline') onto one run."""
    from . import protocol as proto

    if protocol not in _RUNNERS:
        raise ValueError(f"unknown protocol {protocol!r}")
    runner = getattr(proto, _RUNNERS[protocol])
    return runner(inputs, adversary, cfg, seed=seed, record_transcript=record_transcript)


def _trials(protocol: str, cfg, seed: int | str, inputs: tuple[Ranking, ...] | None):
    """The search's runs in order, each ``(inputs, strategy, schedule, seed, config)``.

    Without fixed inputs, the cycle-lock construction comes first where one
    exists (alg1 and stv-baseline only), straight and with a corrupted
    dictator scheduled first.  With fixed inputs, every corrupted node first
    echoes each ballot already on the table, then the opposite-median
    strategy plays.  Random trials follow without end.
    """
    n, t, m = cfg.n, cfg.t, cfg.m
    if inputs is None:
        attack = cycle_lock_attack(n, t, m) if protocol in ("alg1", "stv-baseline") else None
        if attack is not None:
            attack_inputs, strategy, info = attack
            for schedule in (cfg.dictator_schedule, (n - 1,) + tuple(range(t))):
                config = {"kind": "cycle-lock", "schedule": schedule, **info}
                yield attack_inputs, strategy, schedule, f"{seed}/scripted", config
    else:
        arms = [completion_script((ballot,) * t, n) for ballot in dict.fromkeys(inputs)]
        arms.append(OppositeMedian())
        for j, strategy in enumerate(arms):
            config = {"kind": "echo", "arm": j}
            yield inputs, strategy, cfg.dictator_schedule, f"{seed}/echo/{j}", config
    for i in itertools.count(1):
        rng = random.Random(f"{seed}/search/{i - 1}")
        run_inputs = inputs
        if inputs is None:
            run_inputs = random_rankings(rng, m, n)
        strategy = Equivocate() if rng.random() < 0.5 else split_lock_script(n, t, m, rng)
        if rng.random() < 0.5:
            schedule = cfg.dictator_schedule
        else:
            ids = list(range(n))
            rng.shuffle(ids)
            schedule = tuple(sorted(ids[: t + 1]))
        config = {"kind": "random", "iteration": i, "schedule": schedule}
        yield run_inputs, strategy, schedule, f"{seed}/search/{i}", config


def adversary_search(
    protocol: str,
    cfg,
    objective: str,
    budget: int,
    seed: int | str = 0,
    inputs: Sequence[Ranking] | None = None,
) -> SearchReport:
    """Scripted + randomized search for protocol violations.

    Objectives: ``trigger-integrity`` (fire the fixed-pairs cycle error),
    ``break-validity`` (agreement or Pareto failure), ``max-ratio`` (worst
    Kemeny-median approximation ratio; only meaningful for alg2).

    With ``inputs`` given, the search holds that input slate fixed and only
    varies the adversary (completion scripts over the ballots present, the
    opposite-median strategy, then randomized behaviours); otherwise inputs
    are resampled per run and a scripted fixed-pair cycle attack is tried
    first where one exists.  The first hit ends the search, except under
    ``max-ratio``, which spends the whole budget; it needs the exact median,
    so above :data:`EXACT_MAX_M` candidates it raises
    :class:`CapacityError` before any run.
    """
    if protocol not in _RUNNERS:
        raise ValueError(f"unknown protocol {protocol!r}")
    if objective not in _HITS:
        raise ValueError(f"unknown objective {objective!r}")
    if objective == "max-ratio" and cfg.m > EXACT_MAX_M:
        raise CapacityError(f"max-ratio needs m <= {EXACT_MAX_M}, got {cfg.m}")
    if budget < 0:
        raise ValueError(f"budget must be at least 0, got {budget}")
    hit = _HITS[objective]
    report = SearchReport(objective=objective, runs=0, found=False)
    trials = _trials(protocol, cfg, seed, None if inputs is None else tuple(inputs))
    for run_inputs, strategy, schedule, run_seed, config in itertools.islice(trials, budget):
        scfg = replace(cfg, dictator_schedule=schedule)
        result = run_sync(protocol, run_inputs, strategy, scfg, seed=run_seed)
        report.runs += 1
        if hit is not None:
            if hit(result):
                report.found, report.witness, report.witness_config = True, result, config
                break
        elif result.agreement:
            rep = approx_ratio(result.consensus, Profile.of(list(result.correct_inputs.values())))
            if rep.optimal_cost > 0 and (report.max_ratio is None or rep.ratio > report.max_ratio):
                report.max_ratio, report.witness, report.witness_config = rep.ratio, result, config
    return report
