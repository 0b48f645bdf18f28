"""The benchmark's tracer wraps byzrank functions by module path.

``bench/tracer.py`` names every function it times as ``(module, attribute)``
on ``byzrank``, and ``bench/workloads.py`` names protocols and strategies; a
rename in ``src/`` would break ``bench/run.py``, so the names are checked here.
"""

import importlib
import importlib.util
import random
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

import reference

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("span,module,attr", load_bench("tracer").FUNCTIONS)
def test_traced_function_resolves(span, module, attr):
    assert callable(getattr(importlib.import_module(f"byzrank.{module}"), attr)), span


def test_workload_names_are_known():
    # a protocol or strategy renamed in src/ would make every op that names
    # the old one fail in the benchmark; fail here first
    simnet = importlib.import_module("byzrank.simnet")
    workloads = load_bench("workloads")
    assert set(workloads.PROTOCOLS) <= set(simnet.PROTOCOLS)
    assert set(workloads.SEARCH_PROTOCOLS) <= set(simnet.PROTOCOLS)
    assert set(workloads.STRATEGIES) <= set(simnet.STRATEGY_NAMES)


def test_traced_exchange_resolves():
    simnet = importlib.import_module("byzrank.simnet")
    assert callable(simnet.SyncNetwork.exchange)


def test_tracer_counts_sanitization():
    # sanitization runs inside the network; the per-layer metrics must still
    # see it in every phase a node reads, and see none where no node does
    tracer_module = load_bench("tracer")
    modules = {module for _span, module, _attr in tracer_module.FUNCTIONS}
    prog = SimpleNamespace(**{m: importlib.import_module(f"byzrank.{m}") for m in modules})
    simnet = prog.simnet
    original = simnet.sanitize_batch
    # the correct ballots leave (0,1) at 2 = n-t-1 receipts and rankings, so
    # node 3 can still move it in round 1's two phases; it sends two distinct
    # objects in each, and round 2, unanimous, is settled
    inputs = [(0, 1, 2), (0, 1, 2), (1, 0, 2), (0, 1, 2)]
    script = {
        (1, simnet.RANKING, 3): {0: (0, 1, 2), 1: (0, 1, 2), 2: (1, 0, 2)},
        (1, simnet.PROPOSE, 3): {0: frozenset({(0, 1)}), 2: [(1, 0), (0, 0)]},
    }
    cfg = prog.protocol.ProtocolConfig(4, 1, 3)
    tracer = tracer_module.Tracer(prog)
    with tracer.installed(0):
        res = simnet.run_sync("alg1", inputs, simnet.ScriptedViews(script), cfg, seed=0)
    assert simnet.sanitize_batch is original
    assert res.agreement and res.consensus == (0, 1, 2)
    assert tracer.calls["simnet.adversary_send"] == 2
    assert tracer.calls["simnet.sanitize_ranking"] == 2
    assert tracer.calls["simnet.sanitize_batch"] == 2
    # unanimous inputs settle every king-round phase, so even an equivocating
    # adversary is never asked and nothing is sanitized
    tracer = tracer_module.Tracer(prog)
    with tracer.installed(0):
        prog.cli.simulate_record("alg1", "equivocate", 4, 1, 3, 1, 0, [[2, 0, 1]] * 4)
    assert tracer.calls["simnet.exchange"] == 6
    assert tracer.calls["simnet.adversary_send"] == 0
    assert tracer.calls["simnet.sanitize_ranking"] == 0
    assert tracer.calls["simnet.sanitize_batch"] == 0


def test_tracer_times_every_strategy_send():
    # each built-in strategy's own send is timed as simnet.adversary_send; a
    # send inherited from the base class would drop out of that metric
    tracer_module = load_bench("tracer")
    modules = {module for _span, module, _attr in tracer_module.FUNCTIONS}
    prog = SimpleNamespace(**{m: importlib.import_module(f"byzrank.{m}") for m in modules})
    simnet = prog.simnet
    tracer = tracer_module.Tracer(prog)
    ctx = simnet.AdversaryContext(
        seed=0, round=1, phase=simnet.RANKING, n=4, m=3,
        correct_inputs={v: (0, 1, 2) for v in range(3)}, honest=lambda v: (0, 1, 2),
    )
    with tracer.installed(0):
        for calls, name in enumerate(simnet.STRATEGY_NAMES, 1):
            simnet.make_strategy(name, n=4, t=1, m=3).send(ctx, 3)
            assert tracer.calls["simnet.adversary_send"] == calls, name


def test_tracer_counts_shared_inboxes():
    # recipients of one phase may share an inbox object; the tracer must
    # still count n inboxes per exchange, and one distinct inbox when no
    # one equivocates
    tracer_module = load_bench("tracer")
    modules = {module for _span, module, _attr in tracer_module.FUNCTIONS}
    prog = SimpleNamespace(**{m: importlib.import_module(f"byzrank.{m}") for m in modules})
    tracer = tracer_module.Tracer(prog)
    with tracer.installed(0):
        prog.cli.simulate_record("alg1", "honest", 7, 2, 3, 1, 0)
    exchanges = tracer.calls["simnet.exchange"]
    assert tracer.counts["inboxes"] == 7 * exchanges
    assert tracer.counts["distinct_inboxes"] == exchanges
    # the king rounds add packed ballots lane by lane and build no weight
    # matrix (the record's ratio makes its own tallies, outside the run)
    names = {span_id: name for _op, span_id, _parent, name, _start, _end in tracer.spans}
    in_run = [
        names[parent] == "protocol.run"
        for _op, _id, parent, name, _start, _end in tracer.spans
        if name == "tournament.weight_matrix"
    ]
    assert in_run and sum(in_run) == 0


def test_tracer_counts_distinct_full_inboxes(monkeypatch):
    # an inbox holds only the Byzantine deliveries; full inboxes, which add
    # every correct sender's broadcast, differ exactly where those do, so in
    # every exchange the engine reads distinct_inbox_frac counts what the
    # naive network delivers; an unread exchange returns one empty inbox
    tracer_module = load_bench("tracer")
    modules = {module for _span, module, _attr in tracer_module.FUNCTIONS}
    prog = SimpleNamespace(**{m: importlib.import_module(f"byzrank.{m}") for m in modules})
    rng = random.Random("full-inboxes")
    inputs = [rng.sample(range(3), 3) for _ in range(7)]
    exchanges = []  # (read, the tracer's distinct count) per engine exchange
    engine = prog.simnet.SyncNetwork.exchange

    def logged(net, *args, read=True):
        boxes = engine(net, *args, read=read)
        counts = Counter()
        tracer_module._AFTER["simnet.exchange"](counts, boxes)
        exchanges.append((read, counts["distinct_inboxes"], boxes))
        return boxes

    # patched first, so the tracer wraps the logger and counts the same boxes
    monkeypatch.setattr(prog.simnet.SyncNetwork, "exchange", logged)
    tracer = tracer_module.Tracer(prog)
    with tracer.installed(0):
        prog.cli.simulate_record("alg1", "equivocate", 7, 2, 3, 1, 0, inputs)
    distinct = []
    exchange = reference.Network.exchange

    def counted(net, *args):
        boxes = exchange(net, *args)
        distinct.append(len({frozenset(box.items()) for box in boxes}))
        return boxes

    monkeypatch.setattr(reference.Network, "exchange", counted)
    strategy = prog.simnet.make_strategy("equivocate", n=7, t=2, m=3)
    cfg = prog.protocol.ProtocolConfig(7, 2, 3)
    reference.run("alg1", [tuple(r) for r in inputs], strategy, cfg, seed=0)
    assert len(distinct) == len(exchanges) == tracer.calls["simnet.exchange"]
    assert sum(count for _read, count, _boxes in exchanges) == tracer.counts["distinct_inboxes"]
    read = [i for i, (was_read, _count, _boxes) in enumerate(exchanges) if was_read]
    unread = [i for i in range(len(exchanges)) if i not in read]
    assert [exchanges[i][1] for i in read] == [distinct[i] for i in read]
    assert sum(distinct[i] for i in read) > len(read)
    assert unread and all(exchanges[i][1] == 1 for i in unread)
    assert all(box == {} for i in unread for box in exchanges[i][2])


def test_tracer_reads_medians_as_a_sized_tuple():
    # the tracer counts medians with len(result.medians)
    after = load_bench("tracer")._AFTER["kemeny.kemeny_exact"]
    kemeny = importlib.import_module("byzrank.kemeny")
    rankings = importlib.import_module("byzrank.rankings")
    for ballots in ([(0, 1, 2), (1, 2, 0), (2, 0, 1)], [(0, 1, 2, 3), (3, 2, 1, 0)] * 2):
        result = kemeny.kemeny_exact(rankings.Profile.of(ballots))
        assert type(result.medians) is tuple
        assert len(result.medians) == result.count
        counts = Counter()
        after(counts, result)
        assert counts["medians"] == result.count
