"""Seeded adversary searches are reproducible: one digest pins their reports.

Each ``SearchReport`` is reduced to a canonical JSON form covering its run
count, verdict, maximum ratio, witness configuration and the witness run's
outputs, inputs, message counts and integrity events.  The cases reach every
arm of the search: the cycle-lock arm under both of its schedules, the
fixed-input echo arm and its opposite-median follow-up, and the random arm;
under all three objectives, at budgets from 0 up.  The digests were
generated at commit 4185875 and must not change under a refactor of the
adversary layer; a change here means a seeded search changed.
"""

import hashlib
import json

import pytest

from byzrank.protocol import ProtocolConfig
from byzrank.simnet import adversary_search
from test_transcript_pin import canonical

PROTOCOLS = ("alg1", "alg2", "stv-baseline")
OBJECTIVES = ("trigger-integrity", "break-validity", "max-ratio")
# all but (7,1,3) admit the cycle-lock construction
CELLS = ((4, 1, 3), (4, 1, 4), (7, 2, 4), (7, 1, 3))
BUDGETS = (0, 1, 2, 4, 12)
# fixed input slates: four distinct ballots at (7,2,3), two blocs at (6,1,2)
FIXED = (
    ((7, 2, 3), ((0, 1, 2), (0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 2, 0), (0, 1, 2), (2, 1, 0))),
    ((6, 1, 2), ((0, 1), (0, 1), (0, 1), (1, 0), (1, 0), (1, 0))),
)
FIXED_BUDGETS = (0, 1, 3, 4, 6)

PINNED = {
    "alg1": "4eb16c34c3e799be5f6dfa9de960837270a0bf9c4f60ca54f5073f3bbde34a16",
    "alg2": "04183b48e644b72c301ac51b131f5b0a21a8587ea2036df1b8e2298237264d74",
    "stv-baseline": "ef525c2b1337aae1fd69bfcb3bf8a0560f409a2bef8117b635da030824e40691",
}


def report_form(report) -> dict:
    witness = report.witness
    return {
        "objective": report.objective,
        "runs": report.runs,
        "found": report.found,
        "max_ratio": str(report.max_ratio) if report.max_ratio is not None else None,
        "witness_config": canonical(report.witness_config),
        "witness": None if witness is None else {
            "outputs": canonical(witness.outputs),
            "correct_inputs": canonical(witness.correct_inputs),
            "byz_ids": canonical(witness.byz_ids),
            "messages_per_round": canonical(witness.stats.messages_per_round),
            "integrity_events": [e.to_json() for e in witness.stats.integrity_errors],
        },
    }


def protocol_reports(protocol: str):
    for objective in OBJECTIVES:
        for n, t, m in CELLS:
            for budget in BUDGETS:
                yield adversary_search(protocol, ProtocolConfig(n, t, m), objective, budget, seed=3)
        for (n, t, m), inputs in FIXED:
            for budget in FIXED_BUDGETS:
                yield adversary_search(
                    protocol, ProtocolConfig(n, t, m), objective, budget, seed="f", inputs=inputs
                )
    # the random arm breaks validity here on its 32nd draw (alg1, stv-baseline)
    yield adversary_search(protocol, ProtocolConfig(4, 1, 4), "break-validity", 40, seed=1)


def digest(protocol: str) -> str:
    h = hashlib.sha256()
    for report in protocol_reports(protocol):
        h.update(json.dumps(report_form(report), sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_seeded_searches_are_pinned(protocol):
    assert digest(protocol) == PINNED[protocol]
