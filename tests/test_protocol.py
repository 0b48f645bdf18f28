"""Node-level protocol steps and full agreement runs."""

import random
from collections import Counter
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
from byzrank.rankings import Pair, Profile, pairs_of, unanimous_pairs
from byzrank.simnet import (
    DICTATOR,
    PROPOSE,
    RANKING,
    Equivocate,
    Honest,
    OppositeMedian,
    ScriptedViews,
    Silent,
    adversary_search,
    cycle_lock_attack,
    make_strategy,
    run_sync,
    sanitize_batch,
)
from conftest import rand_ranking

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
    assert compute_proposals([r] * 4, 4, 1, 3) == pairs_of(r)


def test_proposals_threshold_met():
    got = compute_proposals([(0, 1), (0, 1), (0, 1), (1, 0)], 4, 1, 2)
    assert got == {Pair(0, 1)}  # 3 of 4 is exactly n-t


def test_proposals_split_vote():
    assert compute_proposals([(0, 1), (0, 1), (1, 0), (1, 0)], 4, 1, 2) == frozenset()


def test_proposals_missing_slots_count_nothing():
    assert compute_proposals([(0, 1), (0, 1), (0, 1), None], 4, 1, 2) == {Pair(0, 1)}
    assert compute_proposals([(0, 1), (0, 1), None, None], 4, 1, 2) == frozenset()


# --- fixing pairs ---------------------------------------------------------------


def collect(batches, n, t):
    return collect_fixed_pairs(batches, n, t, round_no=1, node=0)


def test_collect_fixed_pairs_threshold():
    # t+1 = 2 receipts fix a pair; one receipt does not
    batch = frozenset({Pair(0, 1)})
    kept, locks, events = collect([batch, batch, None, frozenset()], 4, 1)
    assert kept == {Pair(0, 1)} and events == []
    kept, locks, events = collect([batch, frozenset(), None, frozenset()], 4, 1)
    assert kept == locks == frozenset() and events == []


def test_collect_fixed_pairs_lock_threshold():
    # n=7, t=2: 3 receipts fix a pair, only n-t = 5 lock it
    fixed_only = [frozenset({Pair(0, 1)})] * 4 + [None] * 3
    kept, locks, _ = collect(fixed_only, 7, 2)
    assert kept == {Pair(0, 1)} and locks == frozenset()
    locked = [frozenset({Pair(0, 1)})] * 5 + [None] * 2
    kept, locks, _ = collect(locked, 7, 2)
    assert kept == locks == {Pair(0, 1)}


def test_collect_fixed_pairs_resolves_cycle():
    ab = frozenset({Pair(0, 1), Pair(1, 2)})
    ca = frozenset({Pair(2, 0)})
    kept, locks, events = collect_fixed_pairs([ab, ab, ca, ca], 4, 1, round_no=3, node=2)
    assert kept == {Pair(0, 1), Pair(1, 2)}  # acyclic: the closing edge is dropped
    assert locks == frozenset()  # two receipts each, below n-t = 3
    assert [(e.kind, e.pair, e.level, e.round, e.node) for e in events] == [
        ("fixed-cycle", (2, 0), "fix", 3, 2)
    ]
    assert adjust_ranking((2, 1, 0), kept) == (0, 1, 2)


def test_resolve_acyclic_keeps_one_of_both_orientations():
    # both orientations of a pair are a 2-cycle: the first edge stays
    pairs = frozenset({Pair(0, 1), Pair(1, 0), Pair(2, 0)})
    receipts = {Pair(0, 1): 3, Pair(1, 0): 5, Pair(2, 0): 2}
    kept, events = resolve_acyclic(pairs, receipts, n=7, t=2, round_no=4, node=1)
    assert kept == {Pair(0, 1), Pair(2, 0)}
    assert [e.to_json() for e in events] == [
        {"kind": "fixed-cycle", "round": 4, "node": 1, "pair": [1, 0], "level": "lock",
         "cycle_len": 2}
    ]
    _, events = resolve_acyclic(pairs, {**receipts, Pair(1, 0): 4}, n=7, t=2)
    assert events[0].level == "fix"


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_no_two_cycle_reaches_resolution(data):
    # Opposite orientations of one pair at t+1 receipts each need a correct
    # proposer of each, and two correct proposers with opposite orientations
    # need n <= 3t.  Views are built as the network delivers them: uniform
    # correct payloads, per-recipient Byzantine ones, batches sanitized.
    t = data.draw(st.integers(0, 3))
    n = data.draw(st.integers(3 * t + 1, 3 * t + 4))
    m = data.draw(st.integers(2, 5))
    byz = range(n - data.draw(st.integers(0, t)), n)
    ranking = st.permutations(range(m)).map(tuple)
    batch = st.lists(st.tuples(st.integers(-1, m), st.integers(-1, m)), max_size=12)
    inputs = {u: data.draw(ranking) for u in range(n) if u not in byz}
    proposals = {
        v: compute_proposals(
            [data.draw(st.none() | ranking) if u in byz else inputs[u] for u in range(n)],
            n, t, m,
        )
        for v in inputs
    }
    for v in inputs:
        batches = [
            sanitize_batch(data.draw(st.none() | batch), m) if u in byz else proposals[u]
            for u in range(n)
        ]
        _, _, events = collect_fixed_pairs(batches, n, t, round_no=1, node=v)
        assert all(e.cycle_len != 2 for e in events)


def test_resolve_acyclic_breaks_cycle_and_grades_level():
    cyc = frozenset({Pair(0, 1), Pair(1, 2), Pair(2, 0)})
    kept, events = resolve_acyclic(cyc, {p: 3 for p in cyc}, n=7, t=2)
    assert kept == {Pair(0, 1), Pair(1, 2)}  # lex-greedy keeps the first two
    assert [(e.kind, e.level, e.cycle_len) for e in events] == [("fixed-cycle", "fix", 3)]
    kept, events = resolve_acyclic(cyc, {p: 5 for p in cyc}, n=7, t=2)
    assert kept == {Pair(0, 1), Pair(1, 2)}
    assert events[0].level == "lock"  # n-t receipts


def test_resolve_acyclic_passthrough():
    pairs = frozenset({Pair(0, 1), Pair(1, 2)})
    kept, events = resolve_acyclic(pairs, {p: 2 for p in pairs}, n=4, t=1)
    assert kept == pairs and events == []


def test_integrity_event_json():
    cyc = frozenset({Pair(0, 1), Pair(1, 2), Pair(2, 0)})
    _, events = resolve_acyclic(cyc, {p: 3 for p in cyc}, n=7, t=2, round_no=2, node=5)
    assert events[0].to_json() == {
        "kind": "fixed-cycle",
        "round": 2,
        "node": 5,
        "pair": [2, 0],
        "level": "fix",
        "cycle_len": 3,
    }


# --- adjust / decide -------------------------------------------------------------


def test_adjust_no_fixed_pairs():
    assert adjust_ranking((0, 1, 2), frozenset()) == (0, 1, 2)


def test_adjust_single_pair_pulls_block_up():
    assert adjust_ranking((0, 1, 2), frozenset({Pair(2, 0)})) == (2, 0, 1)


def test_adjust_full_chain():
    assert adjust_ranking((2, 1, 0), frozenset({Pair(0, 1), Pair(1, 2)})) == (0, 1, 2)


def test_adjust_rejects_cycle():
    cyc = frozenset({Pair(0, 1), Pair(1, 2), Pair(2, 0)})
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
    assert decide_dictator((0, 1, 2), frozenset({Pair(0, 1)}), (0, 2, 1)) == (0, 2, 1)


def test_decide_dictator_rejects_violation():
    assert decide_dictator((0, 1, 2), frozenset({Pair(0, 1)}), (1, 0, 2)) == (0, 1, 2)


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
            assert Pair(b, a) not in batch


def test_transcript_requires_recording():
    cfg = ProtocolConfig(4, 1, 3)
    res = run_algorithm1([(0, 1, 2)] * 4, Honest(), cfg, seed=0)
    assert res.transcript is None
    res = run_algorithm1([(0, 1, 2)] * 4, Honest(), cfg, seed=0, record_transcript=True)
    phases = {phase for _r, phase, _s, _to, _payload in res.transcript}
    assert phases == {RANKING, PROPOSE, DICTATOR}


# --- engineered integrity and validity edge cases ---------------------------------


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
    assert missing == {Pair(2, 1)}


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
    for name in ("compute_proposals", "collect_fixed_pairs"):
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
