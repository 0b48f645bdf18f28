"""Span tracing of byzrank's public functions, installed from outside the package.

Each traced function is replaced, under every name a ``byzrank`` module
binds it to, by a wrapper that records a span (op, id, parent, name, start,
end) and accumulates calls and self time (span time minus the time of its
child spans).  Wrappers are installed only around traced calls and every
original is restored afterwards, so untraced calls run the unmodified
program.
"""

from __future__ import annotations

import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

# Spans kept for the output file; aggregates count every span.  Bounds the
# traced run's memory (a sweep pass opens about 3 * 10^5 spans).
SPAN_CAP = 100_000

# (span name, module, attribute): module functions to wrap.
FUNCTIONS = (
    ("cli.simulate_record", "cli", "simulate_record"),
    ("cli.kemeny_record", "cli", "kemeny_record"),
    ("cli.scenario_record", "cli", "scenario_record"),
    ("simnet.run_sync", "simnet", "run_sync"),
    ("simnet.sanitize_batch", "simnet", "sanitize_batch"),
    ("simnet.sanitize_ranking", "simnet", "sanitize_ranking"),
    ("simnet.adversary_search", "simnet", "adversary_search"),
    ("protocol.run", "protocol", "run_algorithm1"),
    ("protocol.run", "protocol", "run_algorithm2"),
    ("protocol.run", "protocol", "run_baseline_stv"),
    ("protocol.resolve_acyclic", "protocol", "resolve_acyclic"),
    ("protocol.adjust_ranking", "protocol", "adjust_ranking"),
    ("protocol.decide_dictator", "protocol", "decide_dictator"),
    ("tournament.weight_matrix", "tournament", "weight_matrix"),
    ("kemeny.kemeny_exact", "kemeny", "kemeny_exact"),
    ("kemeny.approx_ratio", "kemeny", "approx_ratio"),
    ("rankings.pairs_of", "rankings", "pairs_of"),
    ("rankings.unanimous_pairs", "rankings", "unanimous_pairs"),
    ("rankings.parse_profile", "rankings", "parse_profile"),
    ("scenarios.measure_scenario", "scenarios", "measure_scenario"),
    ("scenarios.appendix_c_search", "scenarios", "appendix_c_search"),
)

# Per-layer metrics, in BENCHMARK.json order, each with its unit.
# Calls, self times and counts are per traced op.
PER_LAYER = (
    ("cli.simulate_record.self_ms", "ms/op"),
    ("cli.kemeny_record.self_ms", "ms/op"),
    ("cli.scenario_record.self_ms", "ms/op"),
    ("simnet.run_sync.calls", "count/op"),
    ("simnet.exchange.calls", "count/op"),
    ("simnet.exchange.self_ms", "ms/op"),
    ("simnet.exchange.distinct_inbox_frac", "frac"),
    ("simnet.adversary_send.self_ms", "ms/op"),
    ("simnet.sanitize_batch.calls", "count/op"),
    ("simnet.sanitize_batch.self_ms", "ms/op"),
    ("simnet.sanitize_ranking.self_ms", "ms/op"),
    ("simnet.adversary_search.self_ms", "ms/op"),
    ("simnet.messages_per_run", "count"),
    ("protocol.run.self_ms", "ms/op"),
    ("protocol.resolve_acyclic.calls", "count/op"),
    ("protocol.resolve_acyclic.self_ms", "ms/op"),
    ("protocol.adjust_ranking.self_ms", "ms/op"),
    ("protocol.decide_dictator.self_ms", "ms/op"),
    ("protocol.integrity_events", "count/op"),
    ("tournament.weight_matrix.calls", "count/op"),
    ("tournament.weight_matrix.self_ms", "ms/op"),
    ("kemeny.kemeny_exact.calls", "count/op"),
    ("kemeny.kemeny_exact.self_ms", "ms/op"),
    ("kemeny.medians_per_call", "count"),
    ("kemeny.approx_ratio.self_ms", "ms/op"),
    ("rankings.pairs_of.calls", "count/op"),
    ("rankings.pairs_of.self_ms", "ms/op"),
    ("rankings.unanimous_pairs.self_ms", "ms/op"),
    ("rankings.parse_profile.self_ms", "ms/op"),
    ("scenarios.measure_scenario.self_ms", "ms/op"),
    ("scenarios.appendix_c_search.self_ms", "ms/op"),
    ("trace.overhead_frac", "frac"),
    ("trace.unattributed_frac", "frac"),
)


def _after_run_sync(counts: Counter, result) -> None:
    counts["messages"] += result.stats.messages_total
    counts["integrity_events"] += len(result.stats.integrity_errors)


def _after_exchange(counts: Counter, inboxes) -> None:
    counts["inboxes"] += len(inboxes)
    counts["distinct_inboxes"] += len({frozenset(box.items()) for box in inboxes})


def _after_kemeny_exact(counts: Counter, result) -> None:
    counts["medians"] += len(result.medians)


# Counts read off return values, outside the span's own time.
_AFTER = {
    "simnet.run_sync": _after_run_sync,
    "simnet.exchange": _after_exchange,
    "kemeny.kemeny_exact": _after_kemeny_exact,
}


class Tracer:
    """Spans and per-name aggregates for the traced ops of one run."""

    def __init__(self, prog):
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []
        self.span_total = 0
        self.root_ns = 0  # time covered by spans that have no parent
        self.op = -1
        self._stack: list[list[int]] = []  # [span id, child ns]
        self._patches = self._plan(prog)

    def _wrap(self, name: str, fn):
        after = _AFTER.get(name)
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            span_id = tracer.span_total
            tracer.span_total += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                dur = end - start
                tracer.calls[name] += 1
                tracer.self_ns[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                else:
                    tracer.root_ns += dur
                if len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append((tracer.op, span_id, parent, name, start, end))
            if after is not None:
                after(tracer.counts, result)
            return result

        return traced

    def _plan(self, prog) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every binding to replace."""
        modules = [
            m for key, m in sys.modules.items()
            if key == "byzrank" or key.startswith("byzrank.")
        ]
        patches = []
        for name, module, attr in FUNCTIONS:
            original = getattr(getattr(prog, module), attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for binding, value in vars(mod).items():
                    if value is original:
                        patches.append((mod, binding, original, wrapper))
        net = prog.simnet.SyncNetwork
        patches.append((net, "exchange", net.exchange, self._wrap("simnet.exchange", net.exchange)))
        for cls in vars(prog.simnet).values():
            if (
                isinstance(cls, type)
                and issubclass(cls, prog.simnet.AdversaryStrategy)
                and cls is not prog.simnet.AdversaryStrategy
                and "send" in vars(cls)
            ):
                send = vars(cls)["send"]
                patches.append((cls, "send", send, self._wrap("simnet.adversary_send", send)))
        return patches

    @contextmanager
    def installed(self, op: int):
        """Run the body with every wrapper in place; restore the originals."""
        self.op = op
        for owner, attr, _original, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            for owner, attr, original, _wrapper in self._patches:
                setattr(owner, attr, original)

    def per_layer(
        self, ops: int, untraced_ns: int, traced_ns: int, speed: float
    ) -> dict[str, float]:
        """Every PER_LAYER metric over ``ops`` traced ops; times scaled by ``speed``."""
        calls, self_ns, counts = self.calls, self.self_ns, self.counts
        out: dict[str, float] = {}
        for metric, _unit in PER_LAYER:
            name, _, kind = metric.rpartition(".")
            if kind == "calls":
                out[metric] = calls[name] / ops
            elif kind == "self_ms":
                out[metric] = self_ns[name] * speed / 1e6 / ops
        out["simnet.exchange.distinct_inbox_frac"] = (
            counts["distinct_inboxes"] / counts["inboxes"] if counts["inboxes"] else 0.0
        )
        runs = calls["simnet.run_sync"]
        out["simnet.messages_per_run"] = counts["messages"] / runs if runs else 0.0
        out["protocol.integrity_events"] = counts["integrity_events"] / ops
        solves = calls["kemeny.kemeny_exact"]
        out["kemeny.medians_per_call"] = counts["medians"] / solves if solves else 0.0
        # both are 0 only when every op raised before it could be traced
        out["trace.overhead_frac"] = (traced_ns - untraced_ns) / untraced_ns if untraced_ns else 0.0
        out["trace.unattributed_frac"] = (traced_ns - self.root_ns) / traced_ns if traced_ns else 0.0
        return {metric: out[metric] for metric, _unit in PER_LAYER}
