"""Node-level protocol steps and full agreement runs."""

import itertools
import random
from collections import Counter, namedtuple
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from byzrank import protocol
from byzrank.kemeny import approx_ratio
from byzrank.protocol import (
    ProtocolConfig,
    adjust_ranking,
    collect_fixed_pairs,
    compute_proposals,
    decide_dictator,
    expected_messages,
    resolve_acyclic,
    run_algorithm1,
    run_algorithm2,
    run_baseline_stv,
)
from byzrank.rankings import Profile, pairs_of, unanimous_pairs
from byzrank.simnet import (
    DICTATOR,
    PROPOSE,
    RANKING,
    STRATEGY_NAMES,
    Equivocate,
    Honest,
    IntegrityEvent,
    OppositeMedian,
    ScriptedViews,
    Silent,
    SyncNetwork,
    adversary_search,
    cycle_lock_attack,
    make_strategy,
    run_sync,
    sanitize_batch,
)
from byzrank.tournament import PairLanes, pair_lanes
from conftest import rand_ranking, resolve_per_pair


def tallied(rankings, n, m):
    """The rankings' pair counts, packed as a node's ranking tally."""
    return sum(map(pair_lanes(n, m).ranking, rankings))


def receipts(counts, n, m):
    """Per-pair receipt counts, packed as a node's receipt tally."""
    lanes = pair_lanes(n, m)
    return sum(c * lanes.pairs([p]) for p, c in counts.items())


# --- configuration --------------------------------------------------------------


def test_config_defaults():
    cfg = ProtocolConfig(7, 2, 3)
    assert cfg.dictator_schedule == (0, 1, 2)


def test_config_rejects_thirds_bound():
    with pytest.raises(ValueError, match="3t < n"):
        ProtocolConfig(6, 2, 3)
    with pytest.raises(ValueError, match="3t < n"):
        ProtocolConfig(3, 1, 3)


def test_config_schedule_validation():
    with pytest.raises(ValueError):
        ProtocolConfig(4, 1, 3, (0,))  # wrong length
    with pytest.raises(ValueError):
        ProtocolConfig(4, 1, 3, (0, 0))  # duplicates
    with pytest.raises(ValueError):
        ProtocolConfig(4, 1, 3, (0, 9))  # out of range
    assert ProtocolConfig(4, 1, 3, (3, 1)).dictator_schedule == (3, 1)


@pytest.mark.parametrize("alias", [True, 1.0])
def test_config_schedule_refuses_aliases_of_node_ids(alias):
    # True and 1.0 pass the range test as node 1
    with pytest.raises(ValueError, match="entries must be node ids"):
        ProtocolConfig(4, 1, 3, (0, alias))


def test_config_with_schedule():
    cfg = replace(ProtocolConfig(7, 2, 4), dictator_schedule=[6, 0, 1])
    assert cfg.dictator_schedule == (6, 0, 1)
    assert replace(cfg, dictator_schedule=None).dictator_schedule == (0, 1, 2)
    with pytest.raises(ValueError):
        replace(cfg, dictator_schedule=(6, 0))


def test_config_rejects_non_ints_and_small_m():
    with pytest.raises(TypeError):
        ProtocolConfig(4.0, 1, 3)
    with pytest.raises(TypeError):
        ProtocolConfig(True, 0, 2)  # a bool would alias 1
    with pytest.raises(ValueError):
        ProtocolConfig(4, 1, 1)
    with pytest.raises(ValueError):
        ProtocolConfig(0, 0, 2)


# --- proposals ------------------------------------------------------------------


def test_proposals_unanimous():
    r = (2, 0, 1)
    assert compute_proposals(tallied([r] * 4, 4, 3), 4, 1, 3) == pairs_of(r)


def test_proposals_threshold_met():
    got = compute_proposals(tallied([(0, 1), (0, 1), (0, 1), (1, 0)], 4, 2), 4, 1, 2)
    assert got == {(0, 1)}  # 3 of 4 is exactly n-t


def test_proposals_split_vote():
    tally = tallied([(0, 1), (0, 1), (1, 0), (1, 0)], 4, 2)
    assert compute_proposals(tally, 4, 1, 2) == frozenset()


def test_proposals_missing_slots_count_nothing():
    # n=7, t=2: node 0 gets (0, 1) from sender 5 and nothing from sender 6,
    # the other correct nodes get nothing from either; the round engine
    # tallies a missing slot as no ranking at all
    inputs = [(0, 1)] * 4 + [(1, 0)] * 3
    script = {(1, RANKING, 5): {0: (0, 1)}}
    res = run_algorithm1(
        inputs, ScriptedViews(script), ProtocolConfig(7, 2, 2), record_transcript=True
    )
    sent = {s: p for r, ph, s, _, p in res.transcript if (r, ph) == (1, PROPOSE) and s < 5}
    assert sent == {0: {(0, 1)}, **dict.fromkeys(range(1, 5), frozenset())}


# --- fixing pairs ---------------------------------------------------------------


def test_collect_fixed_pairs_threshold():
    # t+1 = 2 receipts fix a pair; one receipt does not
    kept, locks, drops = collect_fixed_pairs(receipts({(0, 1): 2}, 4, 2), 4, 1, 2)
    assert kept == {(0, 1)} and drops == []
    kept, locks, drops = collect_fixed_pairs(receipts({(0, 1): 1}, 4, 2), 4, 1, 2)
    assert kept == locks == frozenset() and drops == []


def test_collect_fixed_pairs_lock_threshold():
    # n=7, t=2: 3 receipts fix a pair, only n-t = 5 lock it
    kept, locks, _ = collect_fixed_pairs(receipts({(0, 1): 4}, 7, 2), 7, 2, 2)
    assert kept == {(0, 1)} and locks == frozenset()
    kept, locks, _ = collect_fixed_pairs(receipts({(0, 1): 5}, 7, 2), 7, 2, 2)
    assert kept == locks == {(0, 1)}


def test_collect_fixed_pairs_resolves_cycle():
    tally = receipts({(0, 1): 2, (1, 2): 2, (2, 0): 2}, 4, 3)
    kept, locks, drops = collect_fixed_pairs(tally, 4, 1, 3)
    assert kept == {(0, 1), (1, 2)}  # acyclic: the closing edge is dropped
    assert locks == frozenset()  # two receipts each, below n-t = 3
    assert drops == [((2, 0), "fix", 3)]
    assert adjust_ranking((2, 1, 0), kept) == (0, 1, 2)


def test_resolve_acyclic_keeps_one_of_both_orientations():
    # both orientations of a pair are a 2-cycle: the first edge stays
    pairs = frozenset({(0, 1), (1, 0), (2, 0)})
    assert resolve_acyclic(pairs) == ({(0, 1), (2, 0)}, [((1, 0), 2)])
    counts = {(0, 1): 3, (1, 0): 5, (2, 0): 3}
    _, _, drops = collect_fixed_pairs(receipts(counts, 7, 3), 7, 2, 3)
    assert drops == [((1, 0), "lock", 2)]
    _, _, drops = collect_fixed_pairs(receipts({**counts, (1, 0): 4}, 7, 3), 7, 2, 3)
    assert drops == [((1, 0), "fix", 2)]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_no_two_cycle_reaches_resolution(data):
    # Opposite orientations of one pair at t+1 receipts each need a correct
    # proposer of each, and two correct proposers with opposite orientations
    # need n <= 3t.  Views are built as the network delivers them: uniform
    # correct payloads, per-recipient Byzantine ones, batches sanitized, and
    # each view's full tally is counted from its received slots.
    t = data.draw(st.integers(0, 3))
    n = data.draw(st.integers(3 * t + 1, 3 * t + 4))
    m = data.draw(st.integers(2, 5))
    byz = range(n - data.draw(st.integers(0, t)), n)
    ranking = st.permutations(range(m)).map(tuple)
    batch = st.lists(st.tuples(st.integers(-1, m), st.integers(-1, m)), max_size=12)
    inputs = {u: data.draw(ranking) for u in range(n) if u not in byz}
    proposals = {}
    for v in inputs:
        slots = [data.draw(st.none() | ranking) for _ in byz]
        ballots = [*inputs.values(), *(r for r in slots if r is not None)]
        proposals[v] = compute_proposals(tallied(ballots, n, m), n, t, m)
    for v in inputs:
        slots = [sanitize_batch(data.draw(st.none() | batch), m) for _ in byz]
        received = [*proposals.values(), *(b for b in slots if b is not None)]
        tally = sum(pair_lanes(n, m).pairs(b) for b in received)
        _, _, drops = collect_fixed_pairs(tally, n, t, m)
        assert all(cycle_len != 2 for _, _, cycle_len in drops)


def test_resolve_acyclic_breaks_cycle_and_grades_level():
    cyc = frozenset({(0, 1), (1, 2), (2, 0)})
    # lex-greedy keeps the first two
    assert resolve_acyclic(cyc) == ({(0, 1), (1, 2)}, [((2, 0), 3)])
    kept, _, drops = collect_fixed_pairs(receipts({p: 3 for p in cyc}, 7, 3), 7, 2, 3)
    assert kept == {(0, 1), (1, 2)} and drops == [((2, 0), "fix", 3)]
    kept, _, drops = collect_fixed_pairs(receipts({p: 5 for p in cyc}, 7, 3), 7, 2, 3)
    assert kept == {(0, 1), (1, 2)}
    assert drops == [((2, 0), "lock", 3)]  # n-t receipts


# (n, t) cells for the packed-tally checks: small ones, both sides of the
# step from 1-byte to 2-byte lanes at n = 128, and counts past one byte's
# carry-free range at n = 255 and 256
TALLY_CELLS = st.one_of(
    st.integers(0, 3).flatmap(lambda t: st.tuples(st.integers(3 * t + 1, 3 * t + 4), st.just(t))),
    st.tuples(st.sampled_from([127, 128, 255, 256]), st.integers(0, 42)),
)


@settings(max_examples=200, deadline=None)
@given(TALLY_CELLS, st.integers(2, 5), st.data())
def test_packed_proposals_match_per_pair_counts(cell, m, data):
    # the engine's ranking tally: one packed ranking per correct ballot,
    # plus one per Byzantine slot; the oracle counts each pair's supporters
    # one ballot at a time
    n, t = cell
    byz = data.draw(st.integers(0, t))
    ranking = st.permutations(range(m)).map(tuple)
    first, second = data.draw(ranking), data.draw(ranking)
    # `first`'s share sits on a threshold, or all of them agree
    k = data.draw(st.sampled_from(sorted({0, 1, t, t + 1, n - t - 1, n - t, n - byz})))
    k = min(max(k, 0), n - byz)
    correct = [first] * k + [second] * (n - byz - k)
    slots = [data.draw(st.none() | st.just(first) | ranking) for _ in range(byz)]
    ballots = correct + [r for r in slots if r is not None]
    lanes = pair_lanes(n, m)
    tally = sum(map(lanes.ranking, correct))
    for r in slots:
        if r is not None:
            tally += lanes.ranking(r)
    support = Counter(p for r in ballots for p in pairs_of(r))
    want = {p for p, count in support.items() if count >= n - t}
    assert compute_proposals(tally, n, t, m) == want


@settings(max_examples=200, deadline=None)
@given(TALLY_CELLS, st.integers(2, 5), st.data())
def test_packed_fixed_pairs_match_per_pair_counts(cell, m, data):
    # receipt counts on and around both thresholds, up to all n senders;
    # sender i proposes every pair with more than i receipts, so batches
    # hold both orientations of a pair whenever both have receipts
    n, t = cell
    ordered = [(a, b) for a in range(m) for b in range(m) if a != b]
    levels = sorted({0, 1, t, t + 1, n - t - 1, n - t, n} - {-1})
    counts = {p: data.draw(st.sampled_from(levels)) for p in ordered}
    lanes = pair_lanes(n, m)
    tally = sum(lanes.pairs([p for p in ordered if counts[p] > i]) for i in range(n))
    kept, dropped = resolve_acyclic(frozenset(p for p in ordered if counts[p] >= t + 1))
    want = (
        kept,
        frozenset(p for p in kept if counts[p] >= n - t),
        [(p, "lock" if counts[p] >= n - t else "fix", cycle_len) for p, cycle_len in dropped],
    )
    memo = {}
    assert collect_fixed_pairs(tally, n, t, m) == want
    assert collect_fixed_pairs(tally, n, t, m, memo) == want
    assert collect_fixed_pairs(tally, n, t, m, memo) == want  # answered from the memo


def test_resolve_acyclic_passthrough():
    pairs = frozenset({(0, 1), (1, 2)})
    assert resolve_acyclic(pairs) == (pairs, [])


def _tournaments(m: int, both: bool):
    # every pair of m candidates in one orientation, or with `both` in either
    # or both orientations
    pairs = [(a, b) for a in range(m) for b in range(a + 1, m)]
    ways = [(0,), (1,)] + ([(0, 1)] if both else [])
    return st.lists(st.sampled_from(ways), min_size=len(pairs), max_size=len(pairs)).map(
        lambda picks: frozenset(
            ((a, b), (b, a))[way] for (a, b), pick in zip(pairs, picks) for way in pick
        )
    )


def _ring(order, chords):
    # one cycle through every candidate, plus a few chords: long cycles
    return frozenset(zip(order, order[1:] + order[:1])) | chords


def _pair_sets(m: int):
    pair = st.tuples(st.integers(0, m - 1), st.integers(0, m - 1))
    return st.one_of(
        st.frozensets(pair),  # self-loops and both orientations included
        _tournaments(m, both=False),
        _tournaments(m, both=True),
        st.builds(_ring, st.permutations(range(m)), st.frozensets(pair, max_size=3)),
    )


@settings(max_examples=500, deadline=None)
@given(st.integers(1, 12).flatmap(_pair_sets))
def test_resolve_acyclic_matches_per_pair_search(pairs):
    # the same kept set, the same drops in the same order, the same cycle lengths
    assert resolve_acyclic(pairs) == resolve_per_pair(pairs)


def test_integrity_event_json():
    event = IntegrityEvent("fixed-cycle", 2, 5, (2, 0), "fix", 3)
    assert list(event.to_json().items()) == [
        ("kind", "fixed-cycle"),
        ("round", 2),
        ("node", 5),
        ("pair", [2, 0]),
        ("level", "fix"),
        ("cycle_len", 3),
    ]


# --- adjust / decide -------------------------------------------------------------


def test_adjust_no_fixed_pairs():
    assert adjust_ranking((0, 1, 2), frozenset()) == (0, 1, 2)


def test_adjust_single_pair_pulls_block_up():
    assert adjust_ranking((0, 1, 2), frozenset({(2, 0)})) == (2, 0, 1)


def test_adjust_full_chain():
    assert adjust_ranking((2, 1, 0), frozenset({(0, 1), (1, 2)})) == (0, 1, 2)


def test_adjust_rejects_cycle():
    cyc = frozenset({(0, 1), (1, 2), (2, 0)})
    with pytest.raises(ValueError):
        adjust_ranking((0, 1, 2), cyc)


def test_adjust_contains_fixed_and_preserves_rest():
    rng = random.Random(41)
    for _ in range(60):
        m = rng.randint(2, 6)
        own = rand_ranking(rng, m)
        target = rand_ranking(rng, m)
        # any subset of one ranking's pairs is acyclic
        fixed = frozenset(p for p in pairs_of(target) if rng.random() < 0.4)
        out = adjust_ranking(own, fixed)
        assert sorted(out) == list(range(m))
        assert fixed <= pairs_of(out)
        constrained = {c for p in fixed for c in p}
        free = [c for c in own if c not in constrained]
        assert [c for c in out if c not in constrained] == free


def test_decide_dictator_adopts_superset():
    assert decide_dictator((0, 1, 2), frozenset({(0, 1)}), (0, 2, 1)) == (0, 2, 1)


def test_decide_dictator_rejects_violation():
    assert decide_dictator((0, 1, 2), frozenset({(0, 1)}), (1, 0, 2)) == (0, 1, 2)
    # no ranking of 0..2 holds a lock naming candidate 5
    assert decide_dictator((0, 1, 2), frozenset({(0, 5)}), (2, 1, 0)) == (0, 1, 2)


def test_decide_dictator_absent_or_garbage():
    own = (0, 1, 2)
    assert decide_dictator(own, frozenset(), None) == own
    assert decide_dictator(own, frozenset(), [0, 2, 1]) == own  # not a tuple
    assert decide_dictator(own, frozenset(), (0, 1)) == own
    assert decide_dictator(own, frozenset(), (0, 0, 1)) == own
    assert decide_dictator(own, frozenset(), "abc") == own


def test_decide_dictator_without_locks_always_adopts_valid():
    # pairs fixed below the lock threshold never block adoption; that check
    # runs against locks only, which is what keeps agreement alive
    assert decide_dictator((0, 1, 2), frozenset(), (2, 1, 0)) == (2, 1, 0)


# --- full runs --------------------------------------------------------------------


def test_single_round_trace_without_faults():
    # three nodes, t=0: one round, dictator 0 decides for everyone
    cfg = ProtocolConfig(3, 0, 3)
    res = run_algorithm1([(0, 1, 2), (1, 0, 2), (0, 1, 2)], Honest(), cfg, seed=0)
    assert res.stats.rounds == 1
    assert res.agreement
    assert res.consensus == (0, 1, 2)
    assert res.consensus[-1] == 2  # both unanimous pairs put candidate 2 last
    assert res.stats.messages_total == 21  # 2*3*3 + 3


@pytest.mark.parametrize("runner", [run_algorithm1, run_algorithm2, run_baseline_stv])
@pytest.mark.parametrize("strategy_name", ["silent", "equivocate"])
def test_all_same_validity(runner, strategy_name):
    cfg = ProtocolConfig(4, 1, 3)
    strategy = make_strategy(strategy_name, n=4, t=1, m=3)
    res = runner([(2, 0, 1)] * 4, strategy, cfg, seed=3)
    assert res.agreement and res.consensus == (2, 0, 1)


@pytest.mark.parametrize("strategy_name", ["silent", "equivocate", "random", "scripted"])
def test_condorcet_inputs_still_agree(strategy_name):
    cfg = ProtocolConfig(4, 1, 3)
    inputs = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 1, 2)]
    strategy = make_strategy(strategy_name, n=4, t=1, m=3)
    res = run_algorithm1(inputs, strategy, cfg, seed=9)
    assert res.agreement
    assert sorted(res.consensus) == [0, 1, 2]


@pytest.mark.parametrize(
    "n,t,m",
    [(4, 1, 2), (4, 1, 3), (7, 2, 3), (10, 3, 4), (13, 4, 5)],
)
def test_round_exactness(n, t, m):
    cfg = ProtocolConfig(n, t, m)
    rng = random.Random(f"rounds/{n}/{t}/{m}")
    inputs = [rand_ranking(rng, m) for _ in range(n)]
    assert run_algorithm1(inputs, Honest(), cfg, seed=1).stats.rounds == t + 1
    assert run_algorithm2(inputs, Honest(), cfg, seed=1).stats.rounds == t + 3
    assert run_baseline_stv(inputs, Honest(), cfg, seed=1).stats.rounds == (m - 1) * (t + 1)


@pytest.mark.parametrize("protocol", ["alg1", "alg2", "stv-baseline"])
def test_rounds_are_the_network_rounds(protocol):
    # rounds are counted by the network, not restated by the runner
    cfg = ProtocolConfig(7, 2, 4)
    rng = random.Random("network-rounds")
    inputs = [rand_ranking(rng, 4) for _ in range(7)]
    res = run_sync(protocol, inputs, Equivocate(), cfg, seed=2)
    stats = res.stats
    expected = expected_messages(protocol, 7, 2, 4, res.byz_ids, cfg.dictator_schedule)
    assert stats.rounds == len(stats.messages_per_round) == len(expected)
    assert stats.messages_total == sum(stats.messages_per_round)


def test_message_closed_form_lists_one_count_per_round():
    # the closed form is also the round reference; pin its length to the
    # paper's round counts, whoever is corrupted and whatever the schedule
    for n, t, m in [(1, 0, 2), (4, 1, 2), (4, 1, 3), (7, 2, 3), (10, 3, 4), (13, 4, 5)]:
        rounds = {"alg1": t + 1, "alg2": t + 3, "stv-baseline": (m - 1) * (t + 1)}
        for byz in (frozenset(), frozenset(range(t)), frozenset(range(n - t, n))):
            for schedule in (tuple(range(t + 1)), tuple(range(n - t - 1, n))):
                for protocol, count in rounds.items():
                    closed = expected_messages(protocol, n, t, m, byz, schedule)
                    assert len(closed) == count, (protocol, n, t, m, byz, schedule)


def test_baseline_round_count_small_cell():
    cfg = ProtocolConfig(4, 1, 3)
    res = run_baseline_stv([(0, 1, 2), (1, 0, 2), (2, 0, 1), (0, 2, 1)], Honest(), cfg, seed=0)
    assert res.stats.rounds == 4  # (m-1)(t+1)


def test_algorithm2_unanimous_inputs():
    cfg = ProtocolConfig(7, 2, 3)
    res = run_algorithm2([(1, 2, 0)] * 7, Silent(), cfg, seed=2)
    assert res.agreement and res.consensus == (1, 2, 0)


def test_algorithm2_two_bloc_ratio_within_bound():
    # 6 nodes hold r, 3 hold its reverse, 3 corrupted complete either way
    cfg = ProtocolConfig(12, 3, 3)
    r, opp = (0, 1, 2), (2, 1, 0)
    inputs = [r] * 6 + [opp] * 3 + [r] * 3
    res = run_algorithm2(inputs, OppositeMedian(), cfg, seed=4)
    assert res.agreement
    profile = Profile.of(list(res.correct_inputs.values()))
    assert approx_ratio(res.consensus, profile).ratio <= Fraction(2)


def test_algorithm2_reports_original_inputs():
    cfg = ProtocolConfig(4, 1, 3)
    inputs = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1)]
    res = run_algorithm2(inputs, Honest(), cfg, seed=5)
    assert res.correct_inputs == {i: inputs[i] for i in range(3)}


def test_outputs_only_cover_correct_nodes():
    cfg = ProtocolConfig(4, 1, 3)
    res = run_algorithm1([(0, 1, 2)] * 4, Honest(), cfg, seed=6)
    assert sorted(res.outputs) == [0, 1, 2]
    assert res.byz_ids == frozenset({3})


def test_input_validation_on_runs():
    cfg = ProtocolConfig(4, 1, 3)
    with pytest.raises(ValueError):
        run_algorithm1([(0, 1, 2)] * 3, Honest(), cfg)  # wrong count
    with pytest.raises(ValueError):
        run_algorithm1([(0, 1, 2)] * 3 + [(0, 0, 1)], Honest(), cfg)


def test_stability_after_first_correct_dictator():
    # corrupted dictator first, then a correct one: all correct nodes land on
    # one ranking at the correct dictator's round and never move again
    cfg = ProtocolConfig(7, 2, 3, (5, 0, 6))
    rng = random.Random("stability")
    for seed in range(6):
        inputs = [rand_ranking(rng, 3) for _ in range(7)]
        res = run_algorithm1(inputs, Equivocate(), cfg, seed=seed, record_transcript=True)
        # state at end of round 2 (the correct dictator's round) is what each
        # correct node broadcasts at the start of round 3
        states_r3 = [
            payload
            for rnd, phase, sender, recipient, payload in res.transcript
            if phase == RANKING and rnd == 3 and sender < 5 and recipient == sender
        ]
        assert len(states_r3) == 5
        assert len(set(states_r3)) == 1  # everyone adopted the dictator
        assert Counter(states_r3) == Counter([res.consensus] * 5)
        assert res.agreement


def test_propose_batches_are_antisymmetric():
    cfg = ProtocolConfig(4, 1, 3)
    res = run_algorithm1(
        [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1)],
        Equivocate(),
        cfg,
        seed=8,
        record_transcript=True,
    )
    batches = [payload for _r, phase, _s, _to, payload in res.transcript if phase == PROPOSE]
    assert batches
    for batch in batches:
        for a, b in batch:
            assert (b, a) not in batch


def test_transcript_requires_recording():
    cfg = ProtocolConfig(4, 1, 3)
    res = run_algorithm1([(0, 1, 2)] * 4, Honest(), cfg, seed=0)
    assert res.transcript is None
    res = run_algorithm1([(0, 1, 2)] * 4, Honest(), cfg, seed=0, record_transcript=True)
    phases = {phase for _r, phase, _s, _to, _payload in res.transcript}
    assert phases == {RANKING, PROPOSE, DICTATOR}


# --- engineered integrity and validity edge cases ---------------------------------


def test_every_pair_is_a_plain_tuple():
    # a pair is (above, below) wherever it comes from, whatever type came in
    Labeled = namedtuple("Labeled", "above below")
    profile = Profile.of([(0, 1, 2), (0, 2, 1)])
    counts = {(0, 1): 3, (1, 2): 3, (2, 0): 3}
    kept, locks, drops = collect_fixed_pairs(receipts(counts, 4, 3), 4, 1, 3)
    inputs, strategy, _ = cycle_lock_attack(4, 1, 3)
    res = run_algorithm1(inputs, strategy, ProtocolConfig(4, 1, 3), seed=0)
    sources = {
        "pairs_of": pairs_of((2, 0, 1)),
        "unanimous_pairs": unanimous_pairs(profile),
        "compute_proposals": compute_proposals(tallied(profile.rankings, 2, 3), 2, 0, 3),
        "kept": kept,
        "locks": locks,
        "drops": [p for p, _, _ in drops],
        "sanitize_batch": sanitize_batch([Labeled(0, 1)], 3),
        "events": [e.pair for e in res.stats.integrity_errors],
    }
    for name, pairs in sources.items():
        assert pairs and all(type(p) is tuple for p in pairs), name


def test_scripted_cycle_fires_integrity_events_but_agreement_survives():
    inputs, strategy, info = cycle_lock_attack(4, 1, 3)
    res = run_algorithm1(inputs, strategy, ProtocolConfig(4, 1, 3), seed=0)
    events = res.stats.integrity_errors
    assert len(events) == 3  # one per correct node
    assert {e.kind for e in events} == {"fixed-cycle"}
    assert {e.level for e in events} == {"lock"}
    assert {e.cycle_len for e in events} == {3}
    assert info["cycle_len"] == 3
    assert res.agreement and res.pareto


def test_scripted_cycle_larger_cell():
    inputs, strategy, _ = cycle_lock_attack(7, 2, 4)
    res = run_algorithm1(inputs, strategy, ProtocolConfig(7, 2, 4), seed=0)
    assert len(res.stats.integrity_errors) == 5
    assert res.agreement


def test_cycle_lock_attack_infeasible_cells():
    assert cycle_lock_attack(5, 1, 3) is None
    assert cycle_lock_attack(9, 2, 3) is None
    assert cycle_lock_attack(6, 1, 4) is None


def test_median_agreement_can_shed_a_unanimous_pair():
    # heavy-but-not-unanimous support can push the local medians away from a
    # pair every correct node agreed on; agreement holds, the pair is gone
    rng = random.Random("10/3/4/opposite-median/3/inputs")
    inputs = [tuple(rng.sample(range(4), 4)) for _ in range(10)]
    res = run_algorithm2(inputs, OppositeMedian(), ProtocolConfig(10, 3, 4), seed=3)
    assert res.agreement
    assert not res.pareto
    correct = Profile.of(list(res.correct_inputs.values()))
    missing = unanimous_pairs(correct) - pairs_of(res.consensus)
    assert missing == {(2, 1)}


def test_bool_dictator_ranking_is_not_adopted():
    # (True, False, 2) equals (1, 0, 2) element-wise but is not a ranking
    cfg = ProtocolConfig(4, 1, 3, (3, 0))
    strategy = ScriptedViews({(1, DICTATOR, 3): (True, False, 2)})
    res = run_algorithm1([(1, 0, 2)] * 4, strategy, cfg, seed=0)
    assert res.agreement and res.consensus == (1, 0, 2)
    assert all(type(c) is int for out in res.outputs.values() for c in out)


def test_events_attributed_to_correct_nodes_only():
    inputs, strategy, _ = cycle_lock_attack(4, 1, 3)
    res = run_algorithm1(inputs, strategy, ProtocolConfig(4, 1, 3), seed=0)
    assert all(e.node not in res.byz_ids for e in res.stats.integrity_errors)


def test_shared_fixed_pairs_events_are_stamped_per_node():
    # round 1's PROPOSE phase is a uniform broadcast, so all five correct
    # nodes share one collect_fixed_pairs result; each event names its node
    inputs, strategy, _ = cycle_lock_attack(7, 2, 4)
    for name in ("alg1", "stv-baseline"):
        res = run_sync(name, inputs, strategy, ProtocolConfig(7, 2, 4), seed=0)
        got = [(e.kind, e.round, e.node, e.pair, e.level) for e in res.stats.integrity_errors]
        assert got == [("fixed-cycle", 1, v, (2, 0), "lock") for v in range(5)], name


# Agreement fails inside n <= (m+1)t: at (4,1,3) node 2 locks (2,0) at n-t
# receipts while each correct dictator fixes the whole 3-cycle at t+1 and
# drops (2,0), so node 2 rejects both dictators.
SPLIT_RANKINGS = {0: None, 1: (1, 2, 0), 2: (2, 0, 1)}
SPLIT_SCRIPT = {
    (1, RANKING, 3): SPLIT_RANKINGS,
    (2, RANKING, 3): SPLIT_RANKINGS,
    (1, PROPOSE, 3): {
        0: frozenset({(0, 1), (1, 2)}),
        1: frozenset({(2, 0)}),
        2: frozenset({(1, 2), (2, 0)}),
    },
    (2, PROPOSE, 3): {0: None, 1: frozenset({(0, 1), (1, 2)}), 2: frozenset({(2, 0)})},
}
SPLIT_INPUTS = [(0, 1, 2), (1, 2, 0), (2, 0, 1)]


@pytest.mark.parametrize("ballot", [(0, 1, 2), (2, 1, 0)])
@pytest.mark.parametrize("seed", [0, 1, "x"])
def test_cyclic_dictator_fix_set_loses_agreement(seed, ballot):
    cfg = ProtocolConfig(4, 1, 3)
    inputs = SPLIT_INPUTS + [ballot]
    for name in ("alg1", "stv-baseline"):
        res = run_sync(name, inputs, ScriptedViews(SPLIT_SCRIPT), cfg, seed=seed)
        assert res.outputs == {0: (0, 1, 2), 1: (0, 1, 2), 2: (2, 0, 1)}, name
        got = [(e.kind, e.round, e.pair, e.level) for e in res.stats.integrity_errors]
        assert got == [("fixed-cycle", r, (2, 0), "fix") for r in (1, 2)], name
    res = run_sync("alg2", inputs, ScriptedViews(SPLIT_SCRIPT), cfg, seed=seed)
    assert res.agreement


@pytest.mark.parametrize("m", [3, 4, 5])
def test_search_finds_disagreement_at_n4_t1(m):
    rep = adversary_search("alg1", ProtocolConfig(4, 1, m), "break-validity", 2000, seed=0)
    assert rep.found and not rep.witness.agreement


# --- one step call per distinct view ----------------------------------------------


@pytest.mark.parametrize("strategy_name", ["honest", "silent", "random", "equivocate"])
def test_steps_run_once_per_distinct_view(monkeypatch, strategy_name):
    calls = Counter()
    for name in ("compute_proposals", "collect_fixed_pairs", "kemeny_exact"):
        real = getattr(protocol, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(protocol, name, counted)
    n, t, m = 7, 2, 3
    rng = random.Random(0)
    inputs = [rand_ranking(rng, m) for _ in range(n)]
    strategy = make_strategy(strategy_name, n=n, t=t, m=m)
    run_algorithm1(inputs, strategy, ProtocolConfig(n, t, m), seed=0)
    if strategy_name == "equivocate":
        # every inbox may differ, but never more than one call per node
        assert max(calls.values()) <= n * (t + 1)
    else:
        # all n nodes hold one view per phase: one call per round
        assert calls == {"compute_proposals": t + 1, "collect_fixed_pairs": t + 1}
    # alg2's round-1 median is a step of the view too
    calls.clear()
    strategy = make_strategy(strategy_name, n=n, t=t, m=m)
    run_algorithm2(inputs, strategy, ProtocolConfig(n, t, m), seed=0)
    if strategy_name == "equivocate":
        assert 1 <= calls["kemeny_exact"] <= n
    else:
        assert calls["kemeny_exact"] == 1


def test_fixed_sets_resolve_once_per_run(monkeypatch):
    # under equivocation the receipt tallies differ from view to view, but
    # many share one fixed set; each distinct fixed set is resolved once
    n, t, m = 7, 2, 3
    lanes = pair_lanes(n, m)
    seen, resolved = [], []
    real_collect, real_resolve = protocol.collect_fixed_pairs, protocol.resolve_acyclic

    def collect(tally, *args, **kwargs):
        seen.append(lanes.unpack(lanes.at_least(tally, t + 1)))
        return real_collect(tally, *args, **kwargs)

    def resolve(pairs):
        resolved.append(pairs)
        return real_resolve(pairs)

    monkeypatch.setattr(protocol, "collect_fixed_pairs", collect)
    monkeypatch.setattr(protocol, "resolve_acyclic", resolve)
    rng = random.Random(0)
    inputs = [rand_ranking(rng, m) for _ in range(n)]
    run_algorithm1(inputs, Equivocate(), ProtocolConfig(n, t, m), seed=0)
    assert len(resolved) == len(set(resolved)) == len(set(seen)) < len(seen)
    assert set(resolved) == set(seen)


def test_ranking_phase_packs_each_distinct_ballot_once_per_round(monkeypatch):
    # both king-round phases tally through one packer with a per-round cache:
    # a ballot held by several nodes is packed once per round
    # (a ballot is packed before the exchange of its round's next phase, so
    # each pack takes its round from the next exchange's round number)
    packs, pending = [], []
    real_ranking, real_exchange = PairLanes.ranking, SyncNetwork.exchange

    def ranking(self, r):
        pending.append(r)
        return real_ranking(self, r)

    def exchange(self, round_no, *args, **kwargs):
        packs.extend((round_no, r) for r in pending)
        pending.clear()
        return real_exchange(self, round_no, *args, **kwargs)

    monkeypatch.setattr(PairLanes, "ranking", ranking)
    monkeypatch.setattr(SyncNetwork, "exchange", exchange)
    n, t, m = 7, 2, 3
    inputs = [(0, 1, 2)] * 3 + [(2, 1, 0)] * 2 + [(1, 0, 2), (0, 1, 2)]
    run_algorithm1(inputs, Honest(), ProtocolConfig(n, t, m), seed=0)
    assert pending == [] and len(packs) == len(set(packs))
    assert {r for r, _ in packs} == set(range(1, t + 2))
    assert sum(r == 1 for r, _ in packs) == len(set(inputs))


# --- phases that no Byzantine slot can move ---------------------------------------


def _batches(m):
    """None and every antisymmetric batch over candidates 0..2, plus two full orders."""
    small = [(a, b) for a in range(3) for b in range(a + 1, 3)]
    out = [None]
    for signs in itertools.product((0, 1, -1), repeat=len(small)):
        out.append(frozenset(p if s == 1 else p[::-1] for p, s in zip(small, signs) if s))
    return out + [pairs_of(tuple(range(m))), pairs_of(tuple(reversed(range(m))))]


# (4,1,3) and (7,2,4) are n = 3t+1 cells, where the fix threshold's lower
# edge t+1-t is 1; each cell is checked at every slack up to t
@pytest.mark.parametrize("n, t, m", [(4, 1, 3), (7, 2, 4), (8, 2, 3), (10, 3, 3)])
@pytest.mark.parametrize("phase", ["propose", "fix"])
def test_settled_phase_gives_every_view_the_shared_answer(n, t, m, phase):
    # lane (0,1) runs through every count a correct tally can hold; lane
    # (1,2) sits at n-t, settled on both thresholds.  A phase is settled
    # exactly when no lane lies in [need - slack, need) for any need: at
    # need - slack the all-supporting Byzantine view crosses the threshold,
    # and one lower every view of up to slack slots answers as the tally does
    lanes = pair_lanes(n, m)
    if phase == "propose":
        needs, pack, support = (n - t,), lanes.ranking, tuple(range(m))
        options = [None, *itertools.permutations(range(m))]

        def step(tally):
            return compute_proposals(tally, n, t, m)
    else:
        needs, pack, support = (t + 1, n - t), lanes.pairs, frozenset({(0, 1)})
        options, memo = _batches(m), {}

        def step(tally):
            return collect_fixed_pairs(tally, n, t, m, memo)
    for slack in range(1, t + 1):
        views = list(itertools.product(options, repeat=slack))
        edges = {need - slack for need in needs}
        for count in range(n - slack + 1):
            tally = count * lanes.pairs([(0, 1)]) + (n - t) * lanes.pairs([(1, 2)])
            expect = [not need - slack <= count < need for need in needs]
            assert [protocol._settled(lanes, tally, slack, need) for need in needs] == expect
            settled = protocol._settled(lanes, tally, slack, *needs)
            assert settled == all(expect)
            shared = step(tally)
            if settled:
                assert all(step(protocol._tally(tally, v, pack, {})) == shared for v in views)
            if count in edges:
                assert step(protocol._tally(tally, (support,) * slack, pack, {})) != shared


class CountingEquivocate(Equivocate):
    """Equivocate that counts its sends per (round, phase)."""

    def __init__(self):
        super().__init__()
        self.asked = Counter()

    def send(self, ctx, sender):
        self.asked[ctx.round, ctx.phase] += 1
        return super().send(ctx, sender)


@pytest.mark.parametrize("protocol_name", ["alg1", "alg2", "stv-baseline"])
def test_settled_phases_read_no_inbox(monkeypatch, protocol_name):
    # with unanimous correct inputs every lane is at n - |byz| or 0, so no
    # king-round phase goes per view, under any adversary, and without a
    # transcript the adversary answers only in alg2's round-1 exchange
    calls = []
    real = protocol._each_view
    monkeypatch.setattr(protocol, "_each_view", lambda *a: calls.append(a) or real(*a))
    n, t, m = 7, 2, 4
    cfg = ProtocolConfig(n, t, m)
    unanimous = [(2, 0, 3, 1)] * n
    strategy = CountingEquivocate()
    res = run_sync(protocol_name, unanimous, strategy, cfg, seed=0)
    assert res.agreement and res.consensus == (2, 0, 3, 1)
    assert len(calls) == (protocol_name == "alg2")  # alg2's round-1 median only
    first = Counter({(1, RANKING): t} if protocol_name == "alg2" else {})
    assert strategy.asked == first
    # a transcript logs every Byzantine sender of every phase; the default
    # schedule's dictators are correct, so no dictator phase has one
    kings = {
        "alg1": range(1, t + 2),
        "alg2": range(3, t + 4),
        "stv-baseline": range(1, (m - 1) * (t + 1) + 1),
    }[protocol_name]
    strategy = CountingEquivocate()
    recorded = run_sync(protocol_name, unanimous, strategy, cfg, seed=0, record_transcript=True)
    every = Counter({(r, phase): t for r in kings for phase in (RANKING, PROPOSE)})
    assert strategy.asked == first + every
    assert recorded.outputs == res.outputs and recorded.stats == res.stats
    calls.clear()
    rng = random.Random(0)
    inputs = [rand_ranking(rng, m) for _ in range(n)]
    run_sync(protocol_name, inputs, Equivocate(), cfg, seed=0)
    assert len(calls) > 1 + (protocol_name == "alg2")


@pytest.mark.parametrize("protocol_name", ["alg1", "alg2", "stv-baseline"])
@pytest.mark.parametrize("strategy_name", STRATEGY_NAMES)
@pytest.mark.parametrize("n, t, m", [(4, 1, 3), (7, 2, 4), (13, 4, 5)])
def test_recording_a_transcript_changes_no_run(protocol_name, strategy_name, n, t, m):
    # a transcript makes the network ask the adversary for every phase, read
    # or not; each built-in strategy answers from its context and sender
    # alone, so the runs must not differ
    for seed in range(4):
        # odd seeds put a Byzantine dictator first: its phase is read after
        # phases that may be unread
        cfg = ProtocolConfig(n, t, m, (n - 1,) + tuple(range(t)) if seed % 2 else None)
        rng = random.Random(f"{protocol_name}/{strategy_name}/{n}/{seed}")
        inputs = [rand_ranking(rng, m) for _ in range(n)]
        plain, recorded = (
            run_sync(protocol_name, inputs, make_strategy(strategy_name, n=n, t=t, m=m), cfg,
                     seed=seed, record_transcript=record)
            for record in (False, True)
        )
        assert plain.transcript is None and recorded.transcript
        assert plain.outputs == recorded.outputs
        assert plain.stats.messages_per_round == recorded.stats.messages_per_round
        assert plain.stats.integrity_errors == recorded.stats.integrity_errors
