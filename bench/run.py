"""Benchmark byzrank through the entry points its CLI uses.

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the repository root.  One process, one thread, closed loop: the next
op is sent only after the previous one returns.  The program is imported
from ``src/`` and receives only the inputs generated from ``--seed``.

Times are reported at reference speed.  On a shared host the CPU's speed can
drift by 2x within a minute (seen on a 2-core Xeon VM), so a fixed
stdlib-only reference kernel is timed between ops, and each op's wall time
is scaled by REF_NS over the kernel times around it: a time is what the op
would take on a machine where the kernel takes exactly 1 ms.  Raw wall-clock
values go to the record too.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every op
untraced and then traced, requires equal outputs, and prints the per-layer
metrics from the traced calls.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the full result, with
its stamp, goes to ``.bench_out/``, and the spans of a traced run too.

``--pin`` rewrites ``bench/digests.json`` for one workload from the first
PIN_PASSES passes at the default seed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from tracer import PER_LAYER, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DIGESTS = HERE / "digests.json"

DEFAULT_SEED = 0
PIN_PASSES = 2
SETUP_REPS = 11
# one reference-kernel run defines 1 ms at reference speed
REF_NS = 1_000_000
# at least ten samples beyond p90
MIN_OPS = 100
MODULES = ("cli", "simnet", "protocol", "tournament", "kemeny", "rankings", "scenarios")

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
)


def reference_kernel() -> int:
    """Fixed pure-Python work in the program's mix, independent of byzrank.

    Half is tally work on tuples, dicts and sets (as in the king rounds),
    half a subset DP over bitmasks (as in the Kemeny solver).
    """
    rng = random.Random(20180307)
    m = 7
    rankings = [tuple(rng.sample(range(m), m)) for _ in range(40)]
    w = [[0] * m for _ in range(m)]
    counts: dict[tuple[int, int], int] = {}
    for r in rankings:
        for i in range(m):
            for j in range(i + 1, m):
                counts[r[i], r[j]] = counts.get((r[i], r[j]), 0) + 1
                w[r[i]][r[j]] += 1
    kept = frozenset(p for p, c in counts.items() if 2 * c > len(rankings))
    full = (1 << m) - 1
    h = [0] * (full + 1)
    for s in range(full - 1, -1, -1):
        best = None
        for c in range(m):
            if s >> c & 1:
                continue
            cost = sum(w[d][c] for d in range(m) if not s >> d & 1)
            if best is None or cost + h[s | 1 << c] < best:
                best = cost + h[s | 1 << c]
        h[s] = best
    return len(kept) + sorted(rankings)[0][0] + h[0]


def time_reference() -> int:
    start = time.perf_counter_ns()
    reference_kernel()
    return time.perf_counter_ns() - start


def at_reference_speed(raw_ns: list[int], ref_ns: list[int]) -> list[float]:
    """Scale each raw time by REF_NS over the kernel times just before and after it.

    ``ref_ns`` has one more entry than ``raw_ns``: kernel i runs before op i
    and kernel i+1 after it.  The speed changes within a second, so the two
    adjacent kernel runs track it better than a median over a wider window.
    """
    return [
        raw * REF_NS / ((ref_ns[i] + ref_ns[i + 1]) / 2)
        for i, raw in enumerate(raw_ns)
    ]


def load_program() -> SimpleNamespace:
    """Import byzrank afresh from ``src/`` (dropping any earlier import)."""
    for name in [k for k in sys.modules if k == "byzrank" or k.startswith("byzrank.")]:
        del sys.modules[name]
    prog = SimpleNamespace(**{m: importlib.import_module(f"byzrank.{m}") for m in MODULES})
    if SRC.resolve() not in Path(prog.cli.__file__).resolve().parents:
        raise ImportError(f"byzrank was imported from {prog.cli.__file__}, not from src/")
    return prog


def setup(workload: str, seed: int) -> tuple[SimpleNamespace, float, float]:
    """Import, build pass 0 and run its first op, SETUP_REPS times.

    Returns the program and the median set-up seconds, at reference speed
    and raw.
    """
    raw_ns, ref_ns = [], []
    for _ in range(SETUP_REPS):
        ref_ns.append(time_reference())
        start = time.perf_counter_ns()
        prog = load_program()
        try:
            WORKLOADS[workload](prog, seed, 0)[0].call()
        except Exception:  # the op runs again in pass 0, which counts the failure
            pass
        raw_ns.append(time.perf_counter_ns() - start)
    ref_ns.append(time_reference())
    scaled = at_reference_speed(raw_ns, ref_ns)
    return prog, statistics.median(scaled) / 1e9, statistics.median(raw_ns) / 1e9


def measure(prog, workload: str, seed: int, seconds: float, tracer: Tracer | None) -> dict:
    """Run whole passes until ``seconds`` have gone by; time and check each op."""
    pins = {}
    if seed == DEFAULT_SEED and DIGESTS.is_file():
        pins = json.loads(DIGESTS.read_text()).get(workload, {})
    seen: dict[str, str] = {}
    latencies: list[int] = []
    refs: list[int] = []
    failures: list[tuple[str, str]] = []
    untraced_ns = traced_ns = 0
    passes = 0
    start = time.perf_counter()
    while True:
        ops = WORKLOADS[workload](prog, seed, passes)
        random.Random(f"order/{workload}/{seed}/{passes}").shuffle(ops)
        for op in ops:
            refs.append(time_reference())
            t0 = time.perf_counter_ns()
            try:
                out = op.call()
            except Exception as exc:  # an op that raises is a failed op
                latencies.append(time.perf_counter_ns() - t0)
                failures.append((op.key, f"raised {exc!r}"))
                continue
            t1 = time.perf_counter_ns()
            latencies.append(t1 - t0)
            got, problem = op.check(out)
            if problem is None and pins.get(op.key, got) != got:
                problem = f"digest {got} differs from pinned {pins[op.key]}"
            if problem is None and seen.setdefault(op.key, got) != got:
                problem = "output differs from an earlier call with the same input"
            if tracer is not None:
                t2 = time.perf_counter_ns()
                try:
                    with tracer.installed(len(latencies) - 1):
                        traced_out = op.call()
                except Exception as exc:
                    traced_out, problem = None, problem or f"traced call raised {exc!r}"
                untraced_ns += t1 - t0
                traced_ns += time.perf_counter_ns() - t2
                if traced_out is not None and op.check(traced_out)[0] != got:
                    problem = problem or "traced output differs from untraced"
            if problem is not None:
                failures.append((op.key, problem))
        passes += 1
        if time.perf_counter() - start >= seconds and (
            tracer is not None or len(latencies) >= MIN_OPS
        ):
            break
    refs.append(time_reference())
    return {
        "latencies": latencies,
        "refs": refs,
        "failures": failures,
        "passes": passes,
        "untraced_ns": untraced_ns,
        "traced_ns": traced_ns,
    }


def end_to_end(lat: list[float], failed: int, setup_s: float) -> dict[str, float]:
    """End-to-end metrics from per-op latencies in ns and set-up seconds."""
    ops = len(lat)
    return {
        "setup_s": setup_s,
        "ops_per_s": ops / (sum(lat) / 1e9),
        "op_ms_p50": statistics.median(lat) / 1e6,
        "op_ms_p90": statistics.quantiles(lat, n=10)[8] / 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": (ops - failed) / ops,
    }


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "byzrank").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def pin(workload: str) -> int:
    prog = load_program()
    digests = {}
    for pass_no in range(PIN_PASSES):
        for op in WORKLOADS[workload](prog, DEFAULT_SEED, pass_no):
            got, problem = op.check(op.call())
            if problem is not None:
                print(f"error: {op.key}: {problem}; nothing pinned", file=sys.stderr)
                return 1
            digests[op.key] = got
    table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    table[workload] = digests
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(digests)} digests for {workload}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true", help="rewrite the pinned digests")
    args = parser.parse_args(argv)

    if not (SRC / "byzrank" / "__init__.py").is_file():
        print(f"error: no byzrank sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.pin:
        return pin(args.workload)

    prog, setup_s, raw_setup_s = setup(args.workload, args.seed)
    tracer = Tracer(prog) if args.trace else None
    gc.collect()
    run = measure(prog, args.workload, args.seed, args.seconds, tracer)

    ops = len(run["latencies"])
    failed = len(run["failures"])
    speed = REF_NS / statistics.median(run["refs"])
    if tracer is None:
        values = end_to_end(at_reference_speed(run["latencies"], run["refs"]), failed, setup_s)
        raw = end_to_end(run["latencies"], failed, raw_setup_s)
        units = dict(END_TO_END)
    else:
        values = tracer.per_layer(ops, run["untraced_ns"], run["traced_ns"], speed)
        raw = tracer.per_layer(ops, run["untraced_ns"], run["traced_ns"], 1.0)
        units = dict(PER_LAYER)
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    stamp = {
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "ops": ops,
        "passes": run["passes"],
        "seconds": args.seconds,
        "trace": args.trace,
        "ref_kernel_ms_median": REF_NS / speed / 1e6,
    }
    result = {
        "correct": not run["failures"],
        "attempted": ops,
        "failed": failed,
        "metrics": metrics,
    }

    OUT.mkdir(exist_ok=True)
    record = {"stamp": stamp, **result, "raw_wall": raw, "failures": run["failures"][:50]}
    if tracer is not None:
        record["spans_total"] = tracer.span_total
        record["spans_kept"] = len(tracer.spans)
        with open(OUT / f"spans-{args.workload}.jsonl", "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["op", "id", "parent", "name", "start_ns", "end_ns"]}) + "\n")
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({"stamp": stamp}))
    for key, problem in run["failures"][:10]:
        print(f"FAILED {key}: {problem}")
    print(f"{'metric':40s} {'at ref speed':>14s} {'raw wall':>14s}")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:14.6g} {raw[name]:14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
