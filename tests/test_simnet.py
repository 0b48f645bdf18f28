"""Deterministic network engine, adversary strategies, and the attack search."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from byzrank import simnet
from byzrank.kemeny import CapacityError
from byzrank.protocol import ProtocolConfig, expected_messages
from byzrank.rankings import is_ranking, pairs_of, validate_ranking
from byzrank.simnet import (
    DICTATOR,
    PROPOSE,
    RANKING,
    AdversaryContext,
    Equivocate,
    Honest,
    OppositeMedian,
    RandomRankings,
    ScriptedViews,
    Silent,
    adversary_search,
    completion_script,
    cycle_lock_attack,
    default_script,
    make_strategy,
    run_sync,
    sanitize_batch,
    sanitize_ranking,
)
import reference
from conftest import rand_ranking
from test_transcript_pin import canonical, run_form

INPUTS4 = [(0, 1, 2), (1, 0, 2), (2, 0, 1), (0, 2, 1)]


# --- determinism ---------------------------------------------------------------


@pytest.mark.parametrize("protocol", ["alg1", "alg2", "stv-baseline"])
@pytest.mark.parametrize("strategy_name", ["equivocate", "random", "opposite-median"])
def test_bit_identical_reruns(protocol, strategy_name):
    cfg = ProtocolConfig(5, 1, 3)
    rng = random.Random(f"det/{protocol}/{strategy_name}")
    inputs = [rand_ranking(rng, 3) for _ in range(5)]

    def go():
        strategy = make_strategy(strategy_name, n=5, t=1, m=3)
        return run_sync(protocol, inputs, strategy, cfg, seed=42, record_transcript=True)

    a, b = go(), go()
    assert a.outputs == b.outputs
    assert a.transcript == b.transcript
    assert a.stats == b.stats


def test_seed_changes_equivocation():
    cfg = ProtocolConfig(4, 1, 3)
    a = run_sync("alg1", INPUTS4, Equivocate(), cfg, seed=0, record_transcript=True)
    b = run_sync("alg1", INPUTS4, Equivocate(), cfg, seed=1, record_transcript=True)
    assert a.transcript != b.transcript


# --- message accounting ----------------------------------------------------------


@pytest.mark.parametrize("protocol", ["alg1", "alg2", "stv-baseline"])
@pytest.mark.parametrize("n,t,m", [(4, 1, 3), (7, 2, 3), (7, 2, 4)])
def test_message_counts_match_closed_form(protocol, n, t, m):
    cfg = ProtocolConfig(n, t, m)
    rng = random.Random(f"msg/{protocol}/{n}/{t}/{m}")
    inputs = [rand_ranking(rng, m) for _ in range(n)]
    res = run_sync(protocol, inputs, Silent(), cfg, seed=7)
    expected = expected_messages(protocol, n, t, m, res.byz_ids, cfg.dictator_schedule)
    assert list(res.stats.messages_per_round) == expected
    assert res.stats.messages_total == sum(res.stats.messages_per_round)


def test_message_count_with_byzantine_dictator_round():
    # schedule the corrupted node's round first: its dictator send is free
    cfg = ProtocolConfig(4, 1, 3, (3, 0))
    res = run_sync("alg1", INPUTS4, Honest(), cfg, seed=2)
    assert res.stats.messages_per_round == (24, 28)
    assert res.stats.messages_total == 52


def test_message_budget_per_round():
    for n, t, m in [(4, 1, 3), (10, 3, 4), (13, 4, 5)]:
        cfg = ProtocolConfig(n, t, m)
        rng = random.Random(f"budget/{n}")
        inputs = [rand_ranking(rng, m) for _ in range(n)]
        res = run_sync("alg1", inputs, Equivocate(), cfg, seed=3)
        assert all(per <= 2 * n * n + n for per in res.stats.messages_per_round)


# --- built-in strategies ----------------------------------------------------------


def test_make_strategy_all_names():
    types = {
        "honest": Honest,
        "silent": Silent,
        "opposite-median": OppositeMedian,
        "equivocate": Equivocate,
        "scripted": ScriptedViews,
        "random": RandomRankings,
    }
    for name, cls in types.items():
        assert isinstance(make_strategy(name, n=4, t=1, m=3), cls)
    with pytest.raises(ValueError, match="unknown strategy"):
        make_strategy("nope", n=4, t=1, m=3)


def test_honest_byzantine_nodes_broadcast_their_inputs():
    cfg = ProtocolConfig(4, 1, 3)
    res = run_sync("alg1", INPUTS4, Honest(), cfg, seed=11, record_transcript=True)
    sent = {
        recipient: payload
        for rnd, phase, sender, recipient, payload in res.transcript
        if phase == RANKING and rnd == 1 and sender == 3
    }
    assert sent == {v: INPUTS4[3] for v in range(4)}


def test_silent_adversary_sends_nothing_yet_agreement_holds():
    cfg = ProtocolConfig(7, 2, 3)
    rng = random.Random("silent")
    inputs = [rand_ranking(rng, 3) for _ in range(7)]
    res = run_sync("alg1", inputs, Silent(), cfg, seed=5, record_transcript=True)
    assert all(sender < 5 for _rnd, _phase, sender, _to, _payload in res.transcript)
    assert res.agreement and res.pareto


def test_equivocate_sends_per_recipient_payloads():
    cfg = ProtocolConfig(4, 1, 3)
    res = run_sync("alg1", INPUTS4, Equivocate(), cfg, seed=1, record_transcript=True)
    r1 = {
        recipient: payload
        for rnd, phase, sender, recipient, payload in res.transcript
        if phase == RANKING and rnd == 1 and sender == 3
    }
    assert len(set(r1.values())) == 4  # a different story for everyone


def test_equivocate_interns_within_one_phase_only():
    # equal values of one phase go out as one object, so the network checks
    # each once; the intern table starts afresh every phase, so no value is
    # held past the phase it was sent in
    cfg = ProtocolConfig(4, 1, 2)
    res = run_sync("alg1", [(0, 1)] * 4, Equivocate(), cfg, seed=1, record_transcript=True)
    sent = {}
    for rnd, phase, sender, _to, payload in res.transcript:
        if sender == 3:
            sent.setdefault((rnd, phase), []).append(payload)
    for payloads in sent.values():
        assert len({id(p) for p in payloads}) == len(set(payloads))
    first = {p: id(p) for p in sent[1, RANKING]}
    again = [p for p in sent[2, RANKING] if p in first]
    assert again and all(id(p) != first[p] for p in again)


def test_equivocating_dictator_splits_then_heals():
    # corrupted dictator in round 1 can scatter the correct nodes; the round-2
    # correct dictator pulls them back together
    cfg = ProtocolConfig(4, 1, 3, (3, 0))
    res = run_sync("alg1", INPUTS4, Equivocate(), cfg, seed=1, record_transcript=True)
    states_r2 = [
        payload
        for rnd, phase, sender, recipient, payload in res.transcript
        if phase == RANKING and rnd == 2
        and sender < 3 and recipient == sender
    ]
    assert len(set(states_r2)) > 1  # divergence after the corrupted round
    assert res.agreement  # healed by round 2


def test_random_strategy_is_uniform_within_a_round():
    cfg = ProtocolConfig(4, 1, 3)
    res = run_sync("alg1", INPUTS4, RandomRankings(), cfg, seed=11, record_transcript=True)
    per_round = {}
    for rnd, phase, sender, _recipient, payload in res.transcript:
        if phase == RANKING and sender == 3:
            per_round.setdefault(rnd, set()).add(payload)
    assert per_round and all(len(v) == 1 for v in per_round.values())


# (protocol, n, t, m, seed): seeds and cells change from run to run; the t = 0
# runs call no strategy, so a memo kept from the run before would leak into
# the next one's round 1, and stv-baseline shrinks m every stage
MEMO_RUNS = (
    ("alg1", 4, 1, 3, 0), ("alg1", 4, 1, 3, 1), ("alg1", 4, 0, 3, 2), ("alg1", 4, 1, 3, 2),
    ("alg1", 4, 1, 4, 2), ("alg1", 1, 0, 3, 3), ("alg2", 7, 2, 3, 3), ("alg2", 7, 2, 3, 4),
    ("stv-baseline", 7, 2, 4, 4), ("stv-baseline", 7, 2, 4, 5), ("stv-baseline", 7, 2, 5, "5"),
    ("alg1", 7, 2, 4, 5), ("alg1", 4, 1, 3, 0),
)


@pytest.mark.parametrize("strategy", [RandomRankings, Equivocate, OppositeMedian])
def test_reused_strategy_runs_like_a_fresh_one(strategy):
    shared = strategy()
    for protocol, n, t, m, seed in MEMO_RUNS:
        rng = random.Random(f"memo/{protocol}/{n}/{t}/{m}/{seed}")
        inputs = [rand_ranking(rng, m) for _ in range(n)]
        cfg = ProtocolConfig(n, t, m)
        reused, fresh = (
            run_form(run_sync(protocol, inputs, s, cfg, seed=seed, record_transcript=True))
            for s in (shared, strategy())
        )
        assert json.dumps(reused, sort_keys=True) == json.dumps(fresh, sort_keys=True)
    # each run starts at round 1, after the last round of the run before, so
    # runs never reach the one round a memo holds; direct sends do, under a
    # new seed, then a new m
    for seed, m in ((0, 3), (1, 3), (1, 4), ("1", 4), (0, 3)):
        inputs = {v: tuple(range(v, m)) + tuple(range(v)) for v in range(3)}
        for phase in (RANKING, PROPOSE, DICTATOR):
            ctx = AdversaryContext(seed, 1, phase, 4, m, inputs, inputs.__getitem__)
            assert shared.send(ctx, 3) == strategy().send(ctx, 3)


@pytest.mark.parametrize("name", simnet.STRATEGY_NAMES)
def test_strategy_answer_depends_on_context_and_sender_alone(name):
    # the network skips phases that nobody reads, so an instance asked about
    # phases out of order, some of them never, must answer as a fresh one
    # asked about every phase in order; m changes between rounds, as it does
    # between stv-baseline stages
    n, t = 7, 2
    rng = random.Random(name)
    contexts = {}
    for rnd in range(1, 5):
        m = 4 - rnd % 2
        rankings = {v: rand_ranking(rng, m) for v in range(n)}
        inputs = {v: rankings[v] for v in range(n - t)}
        batches = {v: pairs_of(r) for v, r in rankings.items()}
        for phase in (RANKING, PROPOSE, DICTATOR):
            honest = (batches if phase == PROPOSE else rankings).__getitem__
            contexts[rnd, phase] = AdversaryContext("contract", rnd, phase, n, m, inputs, honest)
    byz = range(n - t, n)
    fresh = make_strategy(name, n=n, t=t, m=3)
    expected = {(key, u): fresh.send(ctx, u) for key, ctx in contexts.items() for u in byz}
    assert name == "silent" or any(answer is not None for answer in expected.values())
    keys = list(contexts)
    rng.shuffle(keys)
    shuffled = make_strategy(name, n=n, t=t, m=3)
    for key in keys[: len(keys) * 2 // 3]:  # the rest are skipped
        for u in byz:
            assert shuffled.send(contexts[key], u) == expected[key, u]


def test_scripted_views_follows_script_and_defaults_to_silence():
    script = {
        (1, "ranking", 3): (2, 1, 0),
        (2, "ranking", 3): {0: (0, 1, 2), 1: (1, 0, 2), 2: (2, 0, 1), 3: None},
    }
    cfg = ProtocolConfig(4, 1, 3)
    res = run_sync("alg1", INPUTS4, ScriptedViews(script), cfg, seed=0, record_transcript=True)
    byz = [msg for msg in res.transcript if msg[2] == 3]
    r1 = {to: payload for rnd, phase, _s, to, payload in byz if rnd == 1 and phase == RANKING}
    r2 = {to: payload for rnd, phase, _s, to, payload in byz if rnd == 2 and phase == RANKING}
    assert set(r1.values()) == {(2, 1, 0)}
    assert r2[0] == (0, 1, 2) and r2[1] == (1, 0, 2) and 3 not in r2
    assert not [msg for msg in byz if msg[1] == PROPOSE]  # unscripted: silent
    assert res.agreement


def test_completion_script_targets_the_last_nodes():
    s = completion_script(((1, 0), (0, 1)), n=6)
    assert isinstance(s, ScriptedViews)
    assert s.script == {(1, "ranking", 4): (1, 0), (1, "ranking", 5): (0, 1)}


def test_default_script_round_one_ballots():
    script = default_script(4, 1, 3)
    assert script == {(1, "ranking", 3): (2, 1, 0)}
    script = default_script(7, 2, 3)
    assert set(script) == {(1, "ranking", 5), (1, "ranking", 6)}
    for ballot in script.values():
        assert sorted(ballot) == [0, 1, 2]


def test_random_rankings_draws_what_sample_draws():
    # the engine's draw must stay stdlib's full-permutation sample, bit for
    # bit, or every seeded transcript moves: a batch of k rankings is k
    # samples, and the generator's state matches after every call, also
    # between the other draws that _trials and split_lock_script make
    for m in range(41):
        for k in range(30):
            rng, twin = random.Random(f"draw/{m}/{k}"), random.Random(f"draw/{m}/{k}")
            for count in (k % 6, 1, 0, 5):
                batch = simnet.random_rankings(rng, m, count)
                assert batch == [tuple(twin.sample(range(m), m)) for _ in range(count)]
                assert rng.getstate() == twin.getstate()
                assert rng.random() == twin.random()
                ids, twin_ids = list(range(m + 3)), list(range(m + 3))
                rng.shuffle(ids)
                twin.shuffle(twin_ids)
                assert ids == twin_ids and rng.getstate() == twin.getstate()


# --- payload sanitizing -----------------------------------------------------------


def test_sanitize_ranking():
    assert sanitize_ranking((0, 1, 2), 3) == (0, 1, 2)
    assert sanitize_ranking([0, 1, 2], 3) is None  # wire format is tuples
    assert sanitize_ranking((0, 0, 2), 3) is None
    assert sanitize_ranking((0, 1), 3) is None
    assert sanitize_ranking("ab", 2) is None
    assert sanitize_ranking(None, 3) is None


def test_sanitize_batch_drops_garbage_keeps_valid():
    assert sanitize_batch([(0, 1), (2, 2)], 3) == {(0, 1)}
    assert sanitize_batch([(0, 1), (5, 1)], 3) == {(0, 1)}
    assert sanitize_batch([(0, 1, 2)], 3) == frozenset()
    assert sanitize_batch([], 3) == frozenset()
    assert sanitize_batch(None, 3) is None
    assert sanitize_batch("junk", 3) is None


def test_sanitizers_refuse_bool_candidates():
    # True/False compare equal to 1/0, so a lax check adopts them as aliases
    assert sanitize_ranking((True, False, 2), 3) is None
    assert sanitize_batch([(True, 0), (0, False), (1, 0)], 2) == {(1, 0)}
    payloads = [(True, False, 2), (0, 1, 2), [(True, 0), (2, 1)], [(0, 2), (False, 1)]]
    for payload in payloads:
        ranking = sanitize_ranking(payload, 3)
        batch = sanitize_batch(payload, 3) or frozenset()
        assert all(type(c) is int for c in ranking or ())
        assert all(type(c) is int for pair in batch for c in pair)


def test_sanitize_batch_rejects_double_orientation():
    got = sanitize_batch([(0, 1), (1, 0), (2, 1)], 3)
    assert got == {(2, 1)}


_small = st.integers(min_value=-1, max_value=4) | st.booleans()
payloads_st = st.recursive(
    st.none()
    | _small
    | st.text(max_size=2)
    | st.tuples(_small, _small)
    | st.permutations(range(3)).map(tuple),
    lambda inner: st.lists(inner, max_size=6) | st.lists(inner, max_size=6).map(tuple),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(payloads_st, st.integers(min_value=1, max_value=4))
def test_sanitizers_fuzz(payload, m):
    ranking = sanitize_ranking(payload, m)
    assert ranking is None or (
        all(type(c) is int for c in ranking) and sorted(ranking) == list(range(m))
    )
    batch = sanitize_batch(payload, m)
    if batch is not None:
        assert isinstance(batch, frozenset)
        for p in batch:
            assert type(p) is tuple
            assert all(type(c) is int and 0 <= c < m for c in p) and p[0] != p[1]
            assert (p[1], p[0]) not in batch
    if isinstance(payload, tuple):
        try:
            validate_ranking(payload, m)
            valid = True
        except ValueError:
            valid = False
        assert valid == is_ranking(payload, m)


# --- sanitization at delivery ------------------------------------------------------


@pytest.mark.parametrize("strategy,calls", [(RandomRankings, 2), (Equivocate, 7)])
def test_byzantine_batches_are_sanitized_once_per_distinct_payload(monkeypatch, strategy, calls):
    # alg1 at (4,1,3): two PROPOSE phases, one Byzantine sender; a uniform
    # broadcast is checked once, an equivocation once per distinct batch of
    # its phase, and two recipients of one equivocation drew the same ranking
    seen = []
    real = simnet.sanitize_batch

    def counted(payload, m):
        seen.append(payload)
        return real(payload, m)

    monkeypatch.setattr(simnet, "sanitize_batch", counted)
    res = run_sync("alg1", INPUTS4, strategy(), ProtocolConfig(4, 1, 3), seed=0,
                   record_transcript=True)
    distinct = {
        (rnd, payload)
        for rnd, phase, sender, _to, payload in res.transcript
        if phase == PROPOSE and sender in res.byz_ids
    }
    assert len(seen) == len(distinct) == calls


def test_equal_rankings_of_one_phase_are_sanitized_once_across_senders(monkeypatch):
    # at m = 2 three senders draw at most two distinct rankings; each sender
    # asks the strategy alone, yet equal batches share one object per phase
    n, m = 7, 2
    seen = []
    real = simnet.sanitize_batch

    def counted(payload, m):
        seen.append(payload)
        return real(payload, m)

    monkeypatch.setattr(simnet, "sanitize_batch", counted)
    byz = frozenset({4, 5, 6})
    net = simnet.SyncNetwork(n, RandomRankings(), seed=0, byz_ids=byz)
    rankings = {v: (v % 2, 1 - v % 2) for v in range(n)}
    payloads = {v: pairs_of(r) for v, r in rankings.items()}
    boxes = net.exchange(1, PROPOSE, m, payloads, {v: rankings[v] for v in range(4)})
    sent = [boxes[0][u] for u in sorted(byz)]
    assert len(seen) == len(set(sent)) <= 2
    assert all(batch in (frozenset({(0, 1)}), frozenset({(1, 0)})) for batch in sent)


def test_malformed_byzantine_payload_is_logged_raw_and_ignored():
    # (True, False, 2) would alias (1, 0, 2), which moves every median here
    cfg = ProtocolConfig(4, 1, 3, (0, 3))
    inputs = [(0, 1, 2), (0, 2, 1), (0, 2, 1), (0, 1, 2)]
    junk = {
        (1, RANKING, 3): (True, False, 2),
        (3, PROPOSE, 3): [(2, 1), (1, 2), "xy", (True, 2)],
        (4, DICTATOR, 3): (1, 1, 0),
    }
    res = run_sync("alg2", inputs, ScriptedViews(junk), cfg, seed=0, record_transcript=True)
    raw = {
        (rnd, phase, sender): payload
        for rnd, phase, sender, _recipient, payload in res.transcript
        if sender == 3
    }
    assert raw == junk
    silent = run_sync("alg2", inputs, Silent(), cfg, seed=0)
    assert res.outputs == silent.outputs and res.stats == silent.stats
    alias = ScriptedViews({(1, RANKING, 3): (1, 0, 2)})
    assert run_sync("alg2", inputs, alias, cfg, seed=0).consensus != res.consensus
    net = simnet.SyncNetwork(4, ScriptedViews(junk), seed=0, byz_ids=frozenset({3}))
    boxes = net.exchange(1, RANKING, 3, {0: (0, 1, 2), 3: (0, 1, 2)}, {})
    assert boxes == [{}] * 4


def test_uniform_phase_shares_one_inbox():
    net = simnet.SyncNetwork(4, RandomRankings(), seed=0, byz_ids=frozenset({3}))
    correct = {v: (0, 1, 2) for v in range(3)}
    boxes = net.exchange(1, RANKING, 3, {**correct, 3: (0, 1, 2)}, correct)
    assert len({id(b) for b in boxes}) == 1
    assert boxes[0] == {3: boxes[0][3]}


@pytest.mark.parametrize("phase", [RANKING, PROPOSE])
def test_unread_phase_asks_the_adversary_only_for_a_transcript(phase):
    # read=False still counts every correct broadcast; without a transcript
    # the adversary is not asked and every recipient shares one empty inbox,
    # and with one the phase is delivered and logged as a read phase is
    n, m = 7, 3
    rng = random.Random(phase)
    rankings = {v: rand_ranking(rng, m) for v in range(n)}
    payloads = {v: pairs_of(r) for v, r in rankings.items()} if phase == PROPOSE else rankings
    correct = {v: rankings[v] for v in range(5)}
    byz = frozenset({5, 6})
    out = []
    for read, record in ((False, False), (False, True), (True, True)):
        asked = []
        strategy = Equivocate()
        send = strategy.send
        strategy.send = lambda ctx, sender: asked.append(sender) or send(ctx, sender)
        net = simnet.SyncNetwork(n, strategy, seed=0, byz_ids=byz, record_transcript=record)
        boxes = net.exchange(1, phase, m, payloads, correct, read=read)
        assert net.messages_per_round == [5 * n]
        out.append((asked, boxes, net.transcript))
    (asked, boxes, transcript), logged, full = out
    assert asked == [] and transcript is None
    assert boxes == [{}] * n and len({id(box) for box in boxes}) == 1
    assert logged == full and full[0] == [5, 6]


def test_messages_are_counted_under_the_round_each_exchange_carries():
    # an exchange at round 3 after one at round 1 leaves round 2 message-free,
    # as alg2's local-median round is, and it still counts as a round
    n = 4
    correct = {v: (0, 1, 2) for v in range(3)}
    net = simnet.SyncNetwork(n, Equivocate(), seed=0, byz_ids=frozenset({3}))
    net.exchange(1, RANKING, 3, {**correct, 3: (0, 1, 2)}, correct)
    net.exchange(3, RANKING, 3, {**correct, 3: (0, 1, 2)}, correct)
    net.exchange(3, DICTATOR, 3, {0: (0, 1, 2)}, correct)
    assert net.messages_per_round == [3 * n, 0, 3 * n + n]


@pytest.mark.parametrize("record", [False, True])
def test_phase_without_byzantine_senders_asks_no_adversary(record):
    # a correct dictator's phase (or one nobody sends in) has no Byzantine
    # sender to ask: every recipient shares one empty inbox, and a transcript
    # logs the correct broadcast alone.  A Byzantine dictator is still asked
    n = 4
    asked = []
    strategy = Equivocate()
    send = strategy.send
    strategy.send = lambda ctx, sender: asked.append((ctx.round, sender)) or send(ctx, sender)
    net = simnet.SyncNetwork(n, strategy, seed=0, byz_ids=frozenset({3}), record_transcript=record)
    correct = {v: (0, 1, 2) for v in range(3)}
    for read in (True, False):
        for payloads in ({0: (2, 1, 0)}, {}):
            boxes = net.exchange(1, DICTATOR, 3, payloads, correct, read=read)
            assert boxes == [{}] * n and len({id(box) for box in boxes}) == 1
    assert asked == []
    rows = [(1, DICTATOR, 0, v, (2, 1, 0)) for v in range(n)]
    assert net.transcript == (rows * 2 if record else None)
    boxes = net.exchange(2, DICTATOR, 3, {3: (0, 1, 2)}, correct)
    assert asked == [(2, 3)] and all(set(box) == {3} for box in boxes)
    assert net.messages_per_round == [2 * n, 0]


def test_equivocated_deliveries_stay_per_recipient():
    # sender 5 equivocates to recipients 0 and 2 only; sender 6 broadcasts
    n = 7
    to_some = {0: (2, 1, 0), 2: (1, 2, 0)}
    script = {(1, RANKING, 5): to_some, (1, RANKING, 6): (0, 2, 1)}
    net = simnet.SyncNetwork(n, ScriptedViews(script), seed=0, byz_ids=frozenset({5, 6}))
    correct = {v: (0, 1, 2) for v in range(5)}
    boxes = net.exchange(1, RANKING, 3, {v: (0, 1, 2) for v in range(n)}, correct)
    for v in range(n):
        expected = {6: (0, 2, 1)}
        if v in to_some:
            expected[5] = to_some[v]
        assert boxes[v] == expected
    assert boxes[1] is boxes[3] and boxes[0] is not boxes[2]


def test_one_object_broadcast_and_equivocated_is_sanitized_once(monkeypatch):
    # sender 5 broadcasts a raw batch; sender 6 sends that same object to
    # recipients 0 and 2 and another one to recipient 4
    n, m = 7, 3
    raw, other = [(2, 1), (1, 0), (0, 0)], [(0, 1)]
    seen = []
    real = simnet.sanitize_batch

    def counted(payload, m):
        seen.append(payload)
        return real(payload, m)

    monkeypatch.setattr(simnet, "sanitize_batch", counted)
    script = {(1, PROPOSE, 5): raw, (1, PROPOSE, 6): {0: raw, 2: raw, 4: other}}
    byz = frozenset({5, 6})
    net = simnet.SyncNetwork(n, ScriptedViews(script), seed=0, byz_ids=byz, record_transcript=True)
    correct = {u: frozenset({(0, 1)}) for u in range(5)}
    boxes = net.exchange(1, PROPOSE, m, {**correct, 5: frozenset(), 6: frozenset()}, {})
    assert [id(x) for x in seen] == [id(raw), id(other)]
    assert net.transcript == (
        [(1, PROPOSE, u, v, correct[u]) for u in correct for v in range(n)]
        + [(1, PROPOSE, 5, v, raw) for v in range(n)]
        + [(1, PROPOSE, 6, v, x) for v, x in ((0, raw), (2, raw), (4, other))]
    )
    clean = frozenset({(2, 1), (1, 0)})
    from_six = {0: clean, 2: clean, 4: frozenset({(0, 1)})}
    for v, box in enumerate(boxes):
        assert box == {5: clean, **({6: from_six[v]} if v in from_six else {})}
    assert boxes[1] is boxes[3] is boxes[5] is boxes[6]
    assert boxes[6][5] is boxes[0][5] is boxes[0][6]


@pytest.mark.parametrize("strategy_name", [*simnet.STRATEGY_NAMES, "mixed-keys"])
@pytest.mark.parametrize("phase", [RANKING, PROPOSE, DICTATOR])
def test_inboxes_hold_only_byzantine_deliveries(strategy_name, phase):
    # correct senders broadcast, so the round engine reads their payloads
    # from its own maps: an inbox files only what the Byzantine senders
    # delivered, while the transcript still logs every correct copy
    n, t, m = 7, 2, 3
    rng = random.Random(f"{strategy_name}/{phase}")
    rankings = {v: rand_ranking(rng, m) for v in range(n)}
    payloads = {v: pairs_of(r) for v, r in rankings.items()} if phase == PROPOSE else rankings
    if strategy_name == "mixed-keys":
        # per-recipient payloads, silence, and keys that are no node id
        junk = dict.fromkeys((True, "x", None, 6.0), payloads[0])
        script = {(1, phase, u): {**junk, 0: payloads[1], 2: payloads[u], 3: None} for u in (5, 6)}
        strategy = ScriptedViews(script)
    else:
        strategy = make_strategy(strategy_name, n=n, t=t, m=m)
    byz = frozenset({5, 6})
    net = simnet.SyncNetwork(n, strategy, seed=0, byz_ids=byz, record_transcript=True)
    correct = range(n - t)
    boxes = net.exchange(1, phase, m, payloads, {v: rankings[v] for v in correct})
    assert all(set(box) <= byz for box in boxes)
    rows = [(sender, to, raw) for _r, _p, sender, to, raw in net.transcript if sender not in byz]
    assert rows == [(u, v, payloads[u]) for u in correct for v in range(n)]
    assert all(raw is payloads[u] for u, _to, raw in rows)


@pytest.mark.parametrize("strategy_name", [*simnet.STRATEGY_NAMES, "shared-objects"])
@pytest.mark.parametrize("phase", [RANKING, PROPOSE, DICTATOR])
def test_byzantine_slots_are_their_transcript_rows_sanitized(strategy_name, phase):
    # sanitization is shared per payload object, never per value: a bool
    # payload equals and hashes like its int twin, yet (True, False, 2) is
    # malformed where (1, 0, 2) is a ranking
    n, t, m = 7, 2, 3
    rng = random.Random(f"{strategy_name}/{phase}")
    rankings = {v: rand_ranking(rng, m) for v in range(n)}
    payloads = {v: pairs_of(r) for v, r in rankings.items()} if phase == PROPOSE else rankings
    if strategy_name == "shared-objects":
        if phase == PROPOSE:
            one, alias, real = [(2, 1), (1, 0), (2, 0)], frozenset({(True, 2)}), frozenset({(1, 2)})
        else:
            one, alias, real = [2, 1, 0], (True, False, 2), (1, 0, 2)
        from_five = {0: one, 1: one, 2: one, 3: None, 4: alias, 5: alias}
        strategy = ScriptedViews({(1, phase, 5): from_five, (1, phase, 6): real})
    else:
        strategy = make_strategy(strategy_name, n=n, t=t, m=m)
    byz = frozenset({5, 6})
    net = simnet.SyncNetwork(n, strategy, seed=0, byz_ids=byz, record_transcript=True)
    correct = range(n - t)
    boxes = net.exchange(1, phase, m, payloads, {v: rankings[v] for v in correct})
    sanitize = sanitize_batch if phase == PROPOSE else sanitize_ranking
    rows = {(sender, to): raw for _r, _p, sender, to, raw in net.transcript if sender in byz}
    for v, box in enumerate(boxes):
        for u in byz:
            clean = sanitize(rows[u, v], m) if (u, v) in rows else None
            assert box.get(u) == clean and (clean is None) == (u not in box)


def test_equivocation_reaches_only_plain_int_node_ids():
    # True and 1.0 would alias node 1; "x" and None would not sort with ints
    r = (2, 1, 0)
    script = {
        (1, RANKING, 3): {0: r, True: r, "x": r, None: r, 4: r, -1: r},
        (1, PROPOSE, 3): {1.0: pairs_of(r), 0: pairs_of(r), "x": pairs_of(r)},
    }
    res = run_sync(
        "alg1", INPUTS4, ScriptedViews(script), ProtocolConfig(4, 1, 3), seed=0,
        record_transcript=True,
    )
    sent = [(rnd, phase, to) for rnd, phase, sender, to, _payload in res.transcript if sender == 3]
    assert sent == [(1, RANKING, 0), (1, PROPOSE, 0)]
    assert all(type(to) is int for to in (msg[3] for msg in res.transcript))
    net = simnet.SyncNetwork(4, ScriptedViews(script), seed=0, byz_ids=frozenset({3}))
    boxes = net.exchange(1, RANKING, 3, {v: (0, 1, 2) for v in range(4)}, {})
    assert [3 in box for box in boxes] == [True, False, False, False]


@pytest.mark.parametrize("phase", [RANKING, PROPOSE])
@pytest.mark.parametrize(
    "keys",
    [
        (0, 1, 2, 3),
        (3, 2, 1, 0),  # every node id, inserted out of order
        (0, True, 2, 3),
        (0, 1.0, 2, 3),
        (-1, 0, 1, 2),
        (-1, 0, 1, 3),
        (1, 2, 3, 4),
        (0, 1, 2, 4),
        ("0", 1, 2, 3),
        (0, 1, 3),
        (0, 1, 2, 3, 4),
    ],
)
def test_equivocation_keys_deliver_what_the_reference_network_delivers(keys, phase):
    # every key set goes through one filter and must deliver what the naive
    # network does; its inboxes also hold the correct senders, which the
    # engine's leave out
    r = (2, 1, 0)
    values = [r, None, [0, 1, 2], (0, True, 2), (0, 2, 1), pairs_of(r), {(0, 1), (1, 0), (0, 2)}]
    script = {
        (1, phase, u): {k: values[(i + u) % len(values)] for i, k in enumerate(keys)}
        for u in (2, 3)
    }
    payloads = {v: (0, 1, 2) if phase == RANKING else pairs_of((0, 1, 2)) for v in range(4)}
    if phase == RANKING:
        script[1, phase, 2] = {k: r for k in keys}  # one object to every recipient
    nets = (
        simnet.SyncNetwork(4, ScriptedViews(script), 0, frozenset({2, 3}), record_transcript=True),
        reference.Network(4, ScriptedViews(script), 0, frozenset({2, 3})),
    )
    (boxes, transcript), (ref_boxes, ref_transcript) = (
        (net.exchange(1, phase, 3, payloads, {}), net.transcript) for net in nets
    )
    ref_boxes = [{u: x for u, x in box.items() if u in (2, 3)} for box in ref_boxes]
    # as JSON, so that True and 1 stay apart
    assert json.dumps(canonical(boxes)) == json.dumps(canonical(ref_boxes))
    assert json.dumps(canonical(transcript)) == json.dumps(canonical(ref_transcript))


# --- scripted cycle attack ---------------------------------------------------------


@pytest.mark.parametrize(
    "n,t,m,feasible",
    [
        (4, 1, 3, True),
        (7, 2, 3, True),
        (9, 2, 4, True),
        (5, 1, 4, True),
        (13, 4, 3, True),
        (10, 3, 3, True),
        (6, 1, 5, True),
        (9, 2, 3, False),
        (5, 1, 3, False),
        (6, 1, 4, False),
    ],
)
def test_cycle_lock_attack_feasibility(n, t, m, feasible):
    # an L-cycle of threshold-fixed pairs needs n <= (L+1)t for some L <= m
    attack = cycle_lock_attack(n, t, m)
    assert (attack is not None) == feasible
    assert feasible == any(n <= (L + 1) * t for L in range(3, m + 1))
    if attack is not None:
        inputs, strategy, info = attack
        res = run_sync("alg1", inputs, strategy, ProtocolConfig(n, t, m), seed=0)
        assert any(e.kind == "fixed-cycle" for e in res.stats.integrity_errors)
        assert res.agreement


# --- adversary search --------------------------------------------------------------


def test_search_finds_scripted_cycle_first():
    rep = adversary_search("alg1", ProtocolConfig(4, 1, 3), "trigger-integrity", budget=5)
    assert rep.found and rep.runs == 1
    assert rep.witness_config["kind"] == "cycle-lock"
    assert rep.witness is not None
    assert any(e.kind == "fixed-cycle" for e in rep.witness.stats.integrity_errors)


def test_search_cannot_break_validity_on_a_safe_cell():
    rep = adversary_search("alg1", ProtocolConfig(5, 1, 3), "break-validity", budget=40, seed=1)
    assert not rep.found and rep.runs == 40


def test_search_max_ratio_on_two_bloc_inputs():
    # completing the smaller bloc pushes the answer to the other side's cost
    r, opp = (0, 1), (1, 0)
    inputs = [r] * 3 + [opp] * 6 + [r] * 3
    rep = adversary_search(
        "alg2", ProtocolConfig(12, 3, 2), "max-ratio", budget=6, seed=0, inputs=inputs
    )
    assert rep.max_ratio is not None
    assert rep.max_ratio == 2


def test_search_rejects_unknown_objective():
    # before any run: a zero budget used to return an empty report
    for budget in (1, 0):
        with pytest.raises(ValueError, match="objective"):
            adversary_search("alg1", ProtocolConfig(4, 1, 3), "who-knows", budget=budget)


def test_search_refuses_max_ratio_above_the_exact_solver_before_any_run(monkeypatch):
    # a zero budget used to return an empty report, and a positive one ran a
    # whole simulation before approx_ratio refused m = 17
    runs = []
    monkeypatch.setattr(simnet, "run_sync", lambda *args, **kw: runs.append(args))
    for budget in (0, 3):
        with pytest.raises(CapacityError, match="m <= 16, got 17"):
            adversary_search("alg1", ProtocolConfig(4, 1, 17), "max-ratio", budget=budget)
    assert runs == []


def test_search_rejects_unknown_protocol_and_negative_budget():
    with pytest.raises(ValueError, match="protocol"):
        adversary_search("nope", ProtocolConfig(4, 1, 3), "break-validity", budget=0)
    with pytest.raises(ValueError, match="budget"):
        adversary_search("alg1", ProtocolConfig(4, 1, 3), "break-validity", budget=-1)
