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
    # sanitization runs inside the network; the per-layer metrics must still see it
    tracer_module = load_bench("tracer")
    modules = {module for _span, module, _attr in tracer_module.FUNCTIONS}
    prog = SimpleNamespace(**{m: importlib.import_module(f"byzrank.{m}") for m in modules})
    original = prog.simnet.sanitize_batch
    tracer = tracer_module.Tracer(prog)
    with tracer.installed(0):
        prog.cli.simulate_record("alg1", "random", 4, 1, 3, 1, 0)
    assert prog.simnet.sanitize_batch is original
    # one uniform Byzantine broadcast per round: a RANKING and a PROPOSE
    assert tracer.calls["simnet.sanitize_batch"] == 2
    assert tracer.calls["simnet.sanitize_ranking"] == 2


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
    # every correct sender's broadcast, differ exactly where those do, so
    # distinct_inbox_frac keeps counting what the naive network delivers
    tracer_module = load_bench("tracer")
    modules = {module for _span, module, _attr in tracer_module.FUNCTIONS}
    prog = SimpleNamespace(**{m: importlib.import_module(f"byzrank.{m}") for m in modules})
    rng = random.Random("full-inboxes")
    inputs = [rng.sample(range(3), 3) for _ in range(7)]
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
    assert len(distinct) == tracer.calls["simnet.exchange"]
    assert sum(distinct) == tracer.counts["distinct_inboxes"] > len(distinct)


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
