"""Seeded runs replay byte-identically: one digest pins every recorded run.

Each run is reduced to a canonical JSON form (sets sorted, keys sorted)
covering its outputs, Byzantine ids, per-round message counts, integrity
events and the full recorded transcript.  The digests were generated at
commit 34d02af and must not change under a refactor of the round engine;
a change here means seeded replay changed.
"""

import hashlib
import json
import random

import pytest

from byzrank.protocol import ProtocolConfig
from byzrank.simnet import STRATEGY_NAMES, cycle_lock_attack, make_strategy, run_sync

PROTOCOLS = ("alg1", "alg2", "stv-baseline")
CELLS = ((4, 1, 3), (7, 2, 3), (7, 2, 4), (10, 3, 4), (13, 4, 5))
SEEDS = (0, 1, 2)

PINNED = {
    "alg1": "772a5d3185824f1cb8755c46f23a897f1d46916cc78be07722558c70520405f2",
    "alg2": "b55d0f292c416510a80e4475218bab83bf1b52c7af9e9eda9b19a5bfc3a241a4",
    "stv-baseline": "1c406827defc0ddedba9ca626050c7cdd6c72cfbb66fe28d2cbd0c9b1f9b5be4",
}


def canonical(x):
    if isinstance(x, (set, frozenset)):
        return sorted(canonical(e) for e in x)
    if isinstance(x, (tuple, list)):
        return [canonical(e) for e in x]
    if isinstance(x, dict):
        return {str(k): canonical(v) for k, v in x.items()}
    return x


def run_form(result) -> dict:
    return {
        "outputs": canonical(result.outputs),
        "byz_ids": canonical(result.byz_ids),
        "messages_per_round": canonical(result.stats.messages_per_round),
        "integrity_events": [e.to_json() for e in result.stats.integrity_errors],
        "transcript": canonical(result.transcript),
    }


def protocol_runs(protocol: str):
    for n, t, m in CELLS:
        cfg = ProtocolConfig(n, t, m)
        for name in STRATEGY_NAMES:
            for seed in SEEDS:
                rng = random.Random(f"pin/{n}/{t}/{m}/{name}/{seed}")
                inputs = [tuple(rng.sample(range(m), m)) for _ in range(n)]
                strategy = make_strategy(name, n=n, t=t, m=m)
                yield run_sync(protocol, inputs, strategy, cfg, seed=seed, record_transcript=True)
        attack = cycle_lock_attack(n, t, m)
        if attack is not None:
            inputs, strategy, _info = attack
            for seed in SEEDS:
                yield run_sync(protocol, inputs, strategy, cfg, seed=seed, record_transcript=True)


def digest(protocol: str) -> str:
    h = hashlib.sha256()
    for result in protocol_runs(protocol):
        h.update(json.dumps(run_form(result), sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_seeded_runs_are_pinned(protocol):
    assert digest(protocol) == PINNED[protocol]
