"""The round engine against the naive reference engine in ``reference.py``.

Each example draws a cell (n <= 13, m <= 6), a protocol, a dictator schedule
that may start with a Byzantine dictator, inputs and an adversary: a built-in
strategy, the cycle-lock attack where the cell has one, the search's
receipt-splitting script, or a random per-recipient script.  Scripts mix
valid rankings and batches with malformed ones, bool entries, pairs given
both ways and non-node recipient keys, and an entry may go out from every
Byzantine sender of its phase at once.  Both engines must agree on the whole
run form that ``test_transcript_pin`` pins: outputs, Byzantine ids, messages
per round, integrity events and the full transcript, compared as JSON so
that True and 1 stay apart.
"""

import json
import random
from itertools import combinations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference
from byzrank.protocol import ProtocolConfig
from byzrank.simnet import (
    DICTATOR,
    PROPOSE,
    RANKING,
    STRATEGY_NAMES,
    PROTOCOLS,
    ScriptedViews,
    cycle_lock_attack,
    make_strategy,
    run_sync,
    split_lock_script,
)
from test_transcript_pin import run_form

# n = 3t+1 half the time: the tightest cells leave the least slack between
# the thresholds t+1 and n−t
CELLS = st.integers(0, 4).flatmap(lambda t: st.tuples(
    st.just(3 * t + 1) | st.integers(3 * t + 1, 13), st.just(t), st.integers(2, 6)
))


def payloads(m: int):
    """Valid and malformed values for any phase's slot."""
    ranking = st.permutations(range(m)).map(tuple)
    aliased = ranking.map(lambda r: tuple(True if c == 1 else c for c in r))  # a bool alias
    entry = st.integers(-1, m) | st.sampled_from([True, False])
    pair = st.tuples(entry, entry)
    return st.one_of(
        ranking,
        aliased,
        ranking.map(list),
        ranking.map(lambda r: r[:-1]),
        ranking.map(lambda r: frozenset(combinations(r, 2))),  # an honest batch
        aliased.map(lambda r: frozenset(combinations(r, 2))),
        ranking.map(lambda r: frozenset(combinations(r, 2)) | {(r[1], r[0])}),  # a pair both ways
        st.frozensets(pair, max_size=6),
        st.lists(pair | st.sampled_from([(0, 1, 2), [0, 1], 3, "ab", None]), max_size=6),
        st.sampled_from([None, 7, "ab", b"\0", (), frozenset()]),
    )


def recipient_keys(n: int):
    return st.integers(0, n - 1) | st.sampled_from([-1, n, True, 1.0, "0", None])


def send_slots(protocol: str, n: int, t: int, m: int, schedule) -> list:
    """Every ``(round, phase, sender)`` at which a Byzantine node sends."""
    byz = range(n - t, n)
    king = [(r, d) for r, d in enumerate(schedule, 1)]
    if protocol == "alg2":
        king = [(r + 2, d) for r, d in king]
    elif protocol == "stv-baseline":
        king = [(r + s * (t + 1), d) for s in range(m - 1) for r, d in king]
    slots = [(1, RANKING, b) for b in byz] if protocol == "alg2" else []
    for r, d in king:
        slots += [(r, phase, b) for b in byz for phase in (RANKING, PROPOSE)]
        slots += [(r, DICTATOR, d)] if d in byz else []
    return slots


@st.composite
def scripts(draw, slots, n, m):
    """A ScriptedViews script of broadcasts and per-recipient dicts.

    An entry may go out from every Byzantine sender of its phase at once,
    so that together they can push a pair across a threshold.
    """
    if not slots:
        return {}
    value = st.one_of(
        payloads(m),
        st.dictionaries(recipient_keys(n), payloads(m), max_size=n + 2),
        # one value to some recipients only, splitting them around a threshold
        st.tuples(st.sets(st.integers(0, n - 1)), payloads(m)).map(lambda x: dict.fromkeys(*x)),
    )
    script = {}
    for slot, x, joint in draw(st.lists(st.tuples(st.sampled_from(slots), value, st.booleans()),
                                        min_size=1, max_size=12)):
        script.update({s: x for s in slots if s[:2] == slot[:2]} if joint else {slot: x})
    return script


@st.composite
def runs(draw):
    n, t, m = draw(CELLS)
    protocol = draw(st.sampled_from(PROTOCOLS))
    ids = draw(st.permutations(range(n)))
    schedule = tuple(ids[: t + 1])
    if t and draw(st.booleans()):  # a Byzantine dictator first
        schedule = (n - 1,) + tuple(v for v in schedule if v != n - 1)[:t]
    pool = draw(st.lists(st.permutations(range(m)).map(tuple), min_size=1, max_size=3))
    ranking = st.sampled_from(pool) | st.permutations(range(m)).map(tuple)
    inputs = draw(st.lists(ranking, min_size=n, max_size=n))
    kind = draw(st.sampled_from(["builtin", "script", "script", "split", "cycle-lock"]))
    if kind == "split":
        rng_seed = draw(st.integers(0, 2**16))
        make = lambda: split_lock_script(n, t, m, random.Random(rng_seed))
    elif kind == "cycle-lock" and cycle_lock_attack(n, t, m) is not None:
        inputs, attack, _info = cycle_lock_attack(n, t, m)
        script = attack.script
        make = lambda: ScriptedViews(script)
    elif kind == "script":
        script = draw(scripts(send_slots(protocol, n, t, m, schedule), n, m))
        make = lambda: ScriptedViews(script)
    else:
        name = draw(st.sampled_from(STRATEGY_NAMES))
        make = lambda: make_strategy(name, n=n, t=t, m=m)
    seed = draw(st.integers(0, 3) | st.sampled_from(["a", "b/1"]))
    return protocol, inputs, make, ProtocolConfig(n, t, m, schedule), seed


def as_json(x) -> str:
    return json.dumps(x, sort_keys=True, default=repr)


def first_difference(a, b):
    """Where two JSON-ready values differ: the first unequal entry of two
    lists, with its index, or the two values themselves."""
    if not (isinstance(a, list) and isinstance(b, list)):
        return a, b
    for i in range(max(len(a), len(b))):
        x, y = (a[i] if i < len(a) else None), (b[i] if i < len(b) else None)
        if as_json(x) != as_json(y):
            return i, x, y


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(runs())
def test_engine_matches_the_reference_engine(case):
    protocol, inputs, make, cfg, seed = case
    engine = run_form(run_sync(protocol, inputs, make(), cfg, seed=seed, record_transcript=True))
    naive = run_form(reference.run(protocol, inputs, make(), cfg, seed=seed))
    for field, value in engine.items():
        # compared as booleans: a long transcript's string diff would take minutes
        same = as_json(value) == as_json(naive[field])
        assert same, (field, first_difference(value, naive[field]))
