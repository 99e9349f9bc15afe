"""detreact benchmark: one workload, end-to-end metrics or a span run.

    python3 perfbench/run.py --workload micro-w1 --seed 1 --seconds 28 --trace 0

``--trace 0`` is a plain run: it prints every end-to-end metric of
BENCHMARK.json, with times scaled to a nominal host speed. ``--trace 1`` is the span run: reaction bodies and their ctx
calls are wrapped in spans, the spans are written to
``perfbench/out/spans-<workload>-<seed>.json`` (Chrome Trace Event JSON), a
self-time table is printed, and the metrics are the per-layer ones. Both
check every output and print, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. See
``perfbench/README.md`` for what each metric means and should move.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
from functools import cache
from heapq import heappop, heappush
from pathlib import Path
from types import SimpleNamespace
from time import perf_counter, perf_counter_ns
from typing import NamedTuple

from checkout import ROOT, MissingSources, use_checkout_sources

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
SETUP_PROBES = 4  # fresh interpreters per run; setup_s is their median
CALIB_SAMPLES = 5
# End-to-end times are scaled to a host on which calib_ms() takes this long.
# See README.md: the host's speed drifts by up to 2x within minutes.
REF_NOMINAL_MS = 25.0
REF_NUMPY_MS = 30.0  # the same for numpy_calib_ms(), on workloads with numpy_scale
SPAN_EXPORT_LIMIT = 200_000  # rows written to the Chrome trace file


# -- host ---------------------------------------------------------------------

def calib_ms() -> float:
    """A fixed pure-Python loop that allocates small objects and uses a heap
    and a dict, as the runtime does. Independent of detreact: it tells a slow
    host from a slow change, and scales end-to-end times."""
    t0 = perf_counter_ns()
    heap, index, acc = [], {}, 0
    for i in range(20_000):
        key = (i >> 3, i & 7)
        heappush(heap, key)
        index[key] = i
        if len(heap) > 64:
            acc += index.pop(heappop(heap))
        acc += SimpleNamespace(a=i).a
    return (perf_counter_ns() - t0) / 1e6


def host_scale() -> float:
    """Factor that turns a time measured right now into nominal-host time.
    calib_ms() runs on each CPU the process may use, in turn, because a unit
    with two workers runs on all of them."""
    cpus = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(calib_ms())
    finally:
        os.sched_setaffinity(0, cpus)
    return REF_NOMINAL_MS / statistics.mean(times)


@cache
def _numpy_inputs():
    import numpy as np
    return (np.sin(0.001 * np.arange(32768.0)), np.cos(0.1 * np.arange(64.0)),
            np.arange(500_000, dtype=np.float64), 1.0 - 2.0 * (np.arange(500_000) % 2),
            np.linspace(0.0, 1.0, 250_001))


def _numpy_share() -> float:
    import numpy as np
    frame, taps, ks, signs, grid = _numpy_inputs()
    acc = 0.0
    for _ in range(10):
        acc += float(np.sum(np.convolve(frame, taps, mode="valid")))
    for _ in range(2):
        acc += float(np.sum(4.0 * signs / (2.0 * ks + 1.0)))
        acc += float(np.sum(4.0 / (1.0 + grid * grid)))
    return acc


def numpy_calib_ms() -> float:
    """numeric-w2's kernels without detreact: two threads each run a fixed
    share of the convolutions and series sums its reaction bodies run. They
    release the GIL and use both CPUs at once, so load on the host slows
    them unlike calib_ms(), which runs on one CPU at a time."""
    start = threading.Barrier(2)

    def share():
        start.wait()
        _numpy_share()

    threads = [threading.Thread(target=share) for _ in range(2)]
    t0 = perf_counter_ns()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return (perf_counter_ns() - t0) / 1e6


def host_facts() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "affinity": sorted(os.sched_getaffinity(0)),
            "loadavg": [round(x, 2) for x in os.getloadavg()]}


def setup_probes(workload: str, seed: int) -> list[dict]:
    probes = []
    for _ in range(SETUP_PROBES):
        scale = host_scale()
        done = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
                              cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        probes.append(dict(json.loads(done.stdout.strip().splitlines()[-1]), scale=scale))
    return probes


# -- units: one pass (fast workloads) or one batch (physical-rt) ----------------

class Unit(NamedTuple):
    run_ns: int  # sum of report.duration_ns
    digest_ns: int
    reactions: int
    events: int
    build_ns: int
    graph_ns: int
    attempted: int
    failed: int
    errors: list
    latencies_ns: list  # per program run, or per event
    stats: dict  # summed topology/graph stats (max for max_width)
    records: int  # trace records, traced units only
    trace_bytes: int  # canonical trace bytes, first traced unit of a span run only
    summary: dict | None  # span summary, span units only
    batch: object  # workloads.Batch on physical-rt
    scale: float  # host_scale() before the unit; see Runner.unit

    @property
    def ok(self) -> bool:
        return self.failed == 0

    @property
    def total_ns(self) -> int:
        return self.run_ns + self.digest_ns


def _sum_stats(items) -> dict:
    out: dict = {}
    for st in items:
        for k, v in st.items():
            out[k] = max(out.get(k, 0), v) if k == "max_width" else out.get(k, 0) + v
    return out


class Runner:
    """Runs units of one workload and seed, and keeps the checks' tally."""

    def __init__(self, workload, seed: int):
        import workloads
        self.wl = workloads
        self.w = workload
        self.seed = seed
        self.cases = None if workload.physical else workloads.cases(workload, seed)
        self.digests = None
        self.batches = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list = []

    def reference(self) -> None:
        """Fast workloads: trace digests at workers=1 and 2 must agree.
        physical-rt: one checked warm-up batch, kept out of the timings."""
        if self.cases is None:
            self.unit()
            return
        digests, failures, attempted = self.wl.reference_digests(self.cases)
        self.digests = digests
        self._tally(attempted, len(failures), [f"{f.what}: {f.error}" for f in failures])

    def _tally(self, attempted, failed, errors) -> None:
        self.attempted += attempted
        self.failed += failed
        self.errors += errors[:max(0, 20 - len(self.errors))]

    def unit(self, trace=False, spans=None, workers=None, want_bytes=False) -> Unit:
        workers = workers or self.w.workers
        gc.collect()
        scale = host_scale()
        numpy_ms = numpy_calib_ms() if self.w.numpy_scale else 0.0
        if self.cases is not None:
            runs, failures = self.wl.run_pass(self.cases, workers, trace=trace, spans=spans,
                                              digests=self.digests if trace else None)
            errors = [f"{f.what}: {f.error}" for f in failures]
            records = sum(len(r.trace.records) for r in runs) if trace else 0
            nbytes = (sum(len(r.trace.canonical_bytes()) for r in runs)
                      if trace and want_bytes else 0)
            u = Unit(sum(r.run_ns for r in runs), sum(r.digest_ns for r in runs),
                     sum(r.reactions for r in runs), sum(r.events for r in runs),
                     sum(r.build_ns for r in runs), sum(r.graph_ns for r in runs),
                     len(self.cases), len(failures), errors, [r.run_ns for r in runs],
                     _sum_stats(r.stats for r in runs), records, nbytes, None, None, scale)
        else:
            offsets = self.wl.arrival_offsets(self.seed, self.batches, self.w.events, self.w.rate)
            self.batches += 1
            b = self.wl.run_batch(self.w, offsets, trace=trace, spans=spans)
            u = Unit(b.run_ns, b.digest_ns, b.reactions, b.events, b.build_ns,
                     b.graph_ns, len(offsets), b.failed, b.errors, b.latencies_ns, b.stats,
                     b.records, b.trace_bytes, None, b, scale)
        if self.w.numpy_scale:
            # geometric mean of the Python-loop scale and the numpy-kernel
            # scale, the latter bracketing the unit
            numpy_ms += numpy_calib_ms()
            u = u._replace(scale=math.sqrt(scale * 2 * REF_NUMPY_MS / numpy_ms))
        self._tally(u.attempted, u.failed, u.errors)
        return u


def median(xs):
    # 0 only when every unit of a kind failed, which already makes the run incorrect
    return statistics.median(xs) if xs else 0.0


def percentile(xs, p: int):
    return statistics.quantiles(xs, n=100, method="inclusive")[p - 1] if len(xs) > 1 else median(xs)


def unit_latency(u: Unit):
    """(p50, tail) latency of one unit in ns. A batch: the median and p99 of
    its events (1000, so 10 beyond it). A pass: the pass itself (every
    program once), and its slowest program run."""
    if u.batch is None:
        return u.run_ns, max(u.latencies_ns)
    return median(u.latencies_ns), percentile(u.latencies_ns, 99)


def rate(u: Unit, traced=False, scale=1.0) -> float:
    return u.reactions / ((u.total_ns if traced else u.run_ns) * scale / 1e9)


# -- plain run ----------------------------------------------------------------

def plain_run(runner: Runner, seconds: float, probes: list[dict]):
    """Alternate plain and traced units until the time is up. A unit with a
    failure is counted and kept out of the timings."""
    w = runner.w
    done = {"plain": [], "traced": []}
    step = 0
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or not all(done.values()):
        # physical-rt batches are open-loop (timed by the schedule), so one
        # traced batch in four is enough for its traced rate; fast workloads
        # alternate, so both rates get as many samples
        kind = "traced" if step % (4 if w.physical else 2) == 1 else "plain"
        done[kind].append(runner.unit(trace=kind == "traced"))
        step += 1
    plain = [u for u in done["plain"] if u.ok]
    traced = [u for u in done["traced"] if u.ok]
    def scaled_rate(u, traced=False):
        # physical-rt's rates are the offered load, set by its schedule: unscaled
        return rate(u, traced, scale=1.0 if w.physical else u.scale)

    metrics = {
        "setup_s": median([p["setup_s"] * p["scale"] for p in probes]),
        "reactions_per_s": median([scaled_rate(u) for u in plain]),
        "traced_reactions_per_s": median([scaled_rate(u, traced=True) for u in traced]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw = {
        "setup_s": median([p["setup_s"] for p in probes]),
        "reactions_per_s": median([rate(u) for u in plain]),
        "traced_reactions_per_s": median([rate(u, traced=True) for u in traced]),
    }
    notes = [
        f"samples: {len(plain)} plain and {len(traced)} traced "
        f"{'batches' if w.physical else 'passes'}, {len(probes)} set-up probes",
        f"host scale (nominal {REF_NOMINAL_MS} ms / calib_ms before each unit"
        f"{', with numpy_calib_ms' if w.numpy_scale else ''}): median "
        f"{median([u.scale for u in plain + traced]):.3f}",
        "unscaled: " + "  ".join(f"{k} {v:.6g}" for k, v in raw.items()),
    ]
    lat = [unit_latency(u) for u in plain]
    notes.append(f"latency, unscaled median over units: p50 {median([a for a, _ in lat]) / 1e3:.1f}"
                 f" us, tail {median([b for _, b in lat]) / 1e3:.1f} us")
    if plain and not w.physical:
        times = sorted(u.run_ns / 1e6 for u in plain)
        notes.append(f"pass_ms: p50 {median(times):.2f}  min {times[0]:.2f}  "
                     f"max {times[-1]:.2f}  reactions/pass {plain[0].reactions}")
    if w.physical:
        limit_us = runner.wl.LATE_LIMIT_US
        late = sum(1 for u in done["plain"] for x in u.latencies_ns if x > limit_us * 1e3)
        due = sum(u.attempted for u in done["plain"])
        lost = sum(u.failed for u in done["plain"])
        notes.append(f"late_share: {(late + lost) / max(due, 1):.5f} of {due} due events "
                     f"over {limit_us:.0f} us or not handled")
        gen = [x for u in plain for x in u.batch.late_ns]
        if gen:
            notes.append(f"generator lateness: p50 {median(gen) / 1e3:.1f} us  "
                         f"p99 {percentile(gen, 99) / 1e3:.1f} us")
    return metrics, notes, []


# -- span run -----------------------------------------------------------------

def span_run(runner: Runner, seconds: float, probes: list[dict], tag: str):
    """Round-robin over plain, span, traced, traced-span and single-worker
    units; per-layer metrics come from comparing them."""
    from spans import Spans, export_chrome, format_table, summarize

    w = runner.w
    kinds = ("plain", "spans", "traced", "traced_spans", "w1")
    units = {k: [] for k in kinds}
    export_rows = None
    step = 0
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or step < len(kinds):
        kind = kinds[step % len(kinds)]
        spans = Spans() if kind.endswith("spans") else None
        if spans is not None:
            spans.iteration = step
        traced = kind.startswith("traced")
        u = runner.unit(trace=traced, spans=spans, workers=1 if kind == "w1" else None,
                        want_bytes=kind == "traced" and not units["traced"])
        if spans is not None:
            u = u._replace(summary=summarize(spans.rows))
            if export_rows is None and kind == "spans":
                export_rows = spans.rows
        if u.ok:
            units[kind].append(u)
        step += 1

    missing = [k for k in kinds if not units[k]]
    if missing:
        return {}, [], [f"no {k} unit succeeded" for k in missing]
    checks = []
    plain, sp = units["plain"], units["spans"]
    counts = lambda u: (u.reactions, u.events)  # noqa: E731
    if not w.physical:
        for k in kinds:
            distinct = {counts(u) for u in units[k]} | {counts(plain[0])}
            if len(distinct) != 1:
                checks.append(f"{k} units disagree on (reactions, events): {sorted(distinct)}")
        calls = {tuple(sorted((n, v["count"]) for n, v in u.summary["layers"].items()))
                 for u in sp}
        if len(calls) != 1:
            checks.append("span units disagree on span counts")

    def layer(u, name, field="total_ns"):
        return u.summary["layers"].get(name, {}).get(field, 0)

    def ctx_calls(u):
        return sum(v["count"] for n, v in u.summary["layers"].items() if n.startswith("ctx."))

    def ctx_ns(u):
        return sum(v["total_ns"] for n, v in u.summary["layers"].items() if n.startswith("ctx."))

    exec_ns = [layer(u, "exec") for u in sp]
    body_ns = [layer(u, "body") for u in sp]
    if w.workers == 1:
        for e, bsum in zip(exec_ns, body_ns):
            if bsum > e:
                checks.append(f"sum of body spans {bsum} ns exceeds exec {e} ns at workers=1")
    s0 = sp[0]
    plain_ms = median([u.run_ns for u in plain]) / 1e6
    traced_ms = median([u.total_ns for u in units["traced"]]) / 1e6
    traced_set = [(layer(u, "ctx.set"), layer(u, "ctx.set", "count")) for u in units["traced_spans"]]
    ctx_ops = ("get", "set", "present", "schedule")
    stats = s0.stats
    all_units = [u for v in units.values() for u in v]
    metrics = {
        "import.detreact_ms": median([p["import_detreact_ms"] for p in probes]),
        "import.bench_ms": median([p["import_bench_ms"] for p in probes]),
        "core.build_ms": median([u.build_ns for u in all_units]) / 1e6,
        "core.reactions": stats["reactions"],
        "core.channels": stats["channels"],
        "core.connections": stats["connections"],
        "graph.build_ms": median([u.graph_ns for u in all_units]) / 1e6,
        "graph.levels": stats["levels"],
        "graph.max_width": stats["max_width"],
        "sched.exec_ms": median(exec_ns) / 1e6,
        "sched.reactions": s0.reactions,
        "sched.events": s0.events,
        "sched.tags": s0.summary["tags"],
        "sched.levels_run": s0.summary["levels_run"],
        "sched.reactions_per_level": s0.reactions / max(s0.summary["levels_run"], 1),
        "sched.self_us_per_reaction": median(
            [layer(u, "exec", "self_ns") / u.reactions for u in sp]) / 1e3,
        "sched.body_share": median([b / (w.workers * e) for b, e in zip(body_ns, exec_ns)]),
        "sched.parallelism": median([b / e for b, e in zip(body_ns, exec_ns)]),
        "sched.speedup_vs_w1": median([u.run_ns for u in units["w1"]]) / 1e6 / plain_ms,
        **{f"ctx.calls.{op}": layer(s0, f"ctx.{op}", "count") for op in ctx_ops},
        "ctx.us_per_call": median([ctx_ns(u) / max(ctx_calls(u), 1) for u in sp]) / 1e3,
        "ctx.share": median([ctx_ns(u) / b for u, b in zip(sp, body_ns)]),
        "trace.cost_factor": traced_ms / plain_ms,
        "trace.records": units["traced"][0].records,
        "trace.bytes": units["traced"][0].trace_bytes,
        "trace.digest_ms": median([u.digest_ns for u in units["traced"]]) / 1e6,
        "trace.ctx_set_us": median([t / max(c, 1) for t, c in traced_set]) / 1e3,
        "span.overhead": median([u.run_ns for u in sp]) / 1e6 / plain_ms,
        "latency.p50_us": median([unit_latency(u)[0] for u in plain]) / 1e3,
        "latency.tail_us": median([unit_latency(u)[1] for u in plain]) / 1e3,
    }
    if w.physical:
        # heartbeats make physical-rt's trace size timing-dependent
        metrics["trace.records"] = median([u.records for u in units["traced"]])

    notes = [f"units: " + ", ".join(f"{k}={len(v)}" for k, v in units.items()),
             f"sum of body spans / exec: {median([b / e for b, e in zip(body_ns, exec_ns)]):.3f}"
             f" (workers={w.workers})",
             "self time per layer, median span unit:"]
    mid = sorted(sp, key=lambda u: layer(u, "exec"))[len(sp) // 2]
    notes += format_table(mid.summary, label="batch" if w.physical else "pass").splitlines()
    if w.physical:
        notes += physical_notes([u.batch for u in units["plain"]])
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{tag}.json"
    written = export_chrome(export_rows, path, {"workload": w.name, "seed": runner.seed},
                            SPAN_EXPORT_LIMIT)
    notes.append(f"spans: {written} of {len(export_rows)} rows of the first span unit "
                 f"written to {path.relative_to(ROOT)}")
    return metrics, notes, checks


def physical_notes(batches) -> list[str]:
    def pcts(name, key):
        xs = [x for b in batches for x in getattr(b, key)]
        if not xs:
            return f"{name}: no samples"
        return (f"{name}: p50 {median(xs) / 1e3:.1f} us  p99 {percentile(xs, 99) / 1e3:.1f} us"
                f"  (n={len(xs)})")

    return [pcts("gen.late_us", "late_ns"), pcts("phys.schedule_us", "schedule_ns"),
            pcts("phys.wake_us", "wake_ns"), pcts("phys.pipeline_us", "pipeline_ns"),
            f"phys.events_injected: {sum(b.injected for b in batches)}  "
            f"phys.events_handled: {sum(len(b.latencies_ns) for b in batches)}"]


# -- entry point ----------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        use_checkout_sources()
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (MissingSources, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    facts = host_facts()
    allowed = os.sched_getaffinity(0)
    if w.workers == 1:
        # One worker thread: keep the process on one CPU of those it may use.
        # Unpinned, the scheduler moves it between CPUs, which on a 2-core
        # host made pass medians drift by about 20% from run to run.
        os.sched_setaffinity(0, {max(allowed)})
        facts["pinned_to"] = max(allowed)
    try:
        calib = [calib_ms() for _ in range(CALIB_SAMPLES)]
        probes = setup_probes(w.name, args.seed)
        runner = Runner(w, args.seed)
        runner.reference()
        if args.trace:
            metrics, notes, checks = span_run(runner, args.seconds, probes,
                                              f"{w.name}-{args.seed}")
        else:
            metrics, notes, checks = plain_run(runner, args.seconds, probes)
        calib += [calib_ms() for _ in range(CALIB_SAMPLES)]
    finally:
        os.sched_setaffinity(0, allowed)
    if args.trace:
        metrics["host.calib_ms"] = median(calib)
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[section]}
    missing = set(units) ^ set(metrics)
    if missing:
        checks.append(f"metrics not matching BENCHMARK.json {section}: {sorted(missing)}")

    print(f"workload {w.name}  seed {args.seed}  workers {w.workers}  "
          f"{'span run' if args.trace else 'plain run'}  {args.seconds:g} s")
    print("host: " + "  ".join(f"{k}={v}" for k, v in facts.items())
          + f"  calib_ms before {median(calib[:CALIB_SAMPLES]):.2f}"
          f" after {median(calib[CALIB_SAMPLES:]):.2f}")
    for note in notes:
        print(note)
    for name in units:
        if name in metrics:
            print(f"{name} = {metrics[name]:.6g} {units[name]}")
    print(f"failed_share = {runner.failed / max(runner.attempted, 1):.6g} "
          f"({runner.failed} of {runner.attempted} operations)")
    for err in runner.errors + checks:
        print(f"FAILED: {err}")
    ok = not checks and runner.failed == 0
    print(json.dumps({
        "correct": ok, "attempted": runner.attempted, "failed": runner.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]}
                    for k in units if k in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
