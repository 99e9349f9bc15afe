"""The benchmark's workloads and the code that runs one pass of each.

Fast workloads repeat a *pass* over registered detreact programs; each
program in a pass gets a fresh Environment, and the pass time is the sum of
``report.duration_ns``. ``physical-rt`` runs *batches*: a small real-time
program fed by a generator thread that calls ``schedule_physical`` open-loop
on a seeded Poisson schedule.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import NamedTuple

from detreact import MSEC, Builder, Environment, bank, connect, trace_digest
from detreact.bench import BenchmarkValidationError, get_benchmark
from detreact.errors import ExecutionError, ShutdownError
from detreact.graph import max_level_width


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int
    # (registered benchmark name, parameter overrides); the workload seed is
    # passed to every program that declares a ``seed`` parameter.
    programs: tuple = ()
    # physical-rt only
    events: int = 0  # events per batch
    rate: float = 0.0  # mean arrivals per second
    # scale unit times by numpy_calib_ms() as well as calib_ms() (run.py)
    numpy_scale: bool = False

    @property
    def physical(self) -> bool:
        return not self.programs


MICRO = (("PingPong", {}), ("ThreadRing", {}), ("CountingActor", {}), ("Big", {}),
         ("Chameneos", {}), ("ForkJoin", {}))
NUMERIC = (("FilterBank", {"frame": 32768}), ("PiPrecision", {"terms": 2_000_000}),
           ("Trapezoidal", {"pieces": 1_000_000}))

WORKLOADS = {w.name: w for w in (
    Workload("micro-w1", 1, MICRO),
    Workload("micro-w2", 2, MICRO),
    Workload("numeric-w2", 2, NUMERIC, numpy_scale=True),
    Workload("physical-rt", 1, events=1000, rate=2000.0),
)}


# -- fast workloads -----------------------------------------------------------

class Case(NamedTuple):
    spec: object
    params: dict


def cases(workload: Workload, seed: int) -> list[Case]:
    out = []
    for name, overrides in workload.programs:
        spec = get_benchmark(name)
        params = spec.resolve_params(overrides)
        if "seed" in params:
            params["seed"] = seed
        out.append(Case(spec, params))
    return out


class ProgramRun(NamedTuple):
    name: str
    reactions: int
    events: int
    run_ns: int  # report.duration_ns
    digest_ns: int  # trace_digest time; 0 when not traced
    build_ns: int
    graph_ns: int
    trace: object  # detreact Trace, or None
    digest: int | None
    stats: dict  # topology.stats() plus graph levels and width


class Failure(NamedTuple):
    what: str
    error: str


def run_program(case: Case, workers: int, trace: bool = False, spans=None) -> ProgramRun:
    """Build, run and validate one fresh instance. Raises on a validator
    error or an ExecutionError."""
    program = spans.new_id() if spans is not None else None
    t0 = perf_counter_ns()
    instance = case.spec.build(case.params)
    t1 = perf_counter_ns()
    if spans is not None:
        spans.instrument(instance.topology)
    t2 = perf_counter_ns()
    env = Environment(instance.topology, workers=workers, fast=True, trace=trace)
    t3 = perf_counter_ns()
    exec_sid = None
    if spans is not None:
        exec_sid = spans.exec_sid = spans.new_id()
    report = env.run()
    t4 = perf_counter_ns()
    instance.validate(report)
    t5 = perf_counter_ns()
    digest = None
    if trace:
        digest = trace_digest(env.trace)
    t6 = perf_counter_ns()
    if spans is not None:
        spans.add(spans.new_id(), "build", t0, t1, program)
        spans.add(spans.new_id(), "graph", t2, t3, program)
        spans.add(exec_sid, "exec", t3, t4, program)
        spans.add(spans.new_id(), "validate", t4, t5, program)
        if trace:
            spans.add(spans.new_id(), "digest", t5, t6, program)
        spans.add(program, "program", t0, t6, None, {"program": case.spec.name})
    stats = dict(instance.topology.stats(), levels=env.apg.num_levels,
                 max_width=max_level_width(env.apg))
    return ProgramRun(case.spec.name, report.reactions, report.events, report.duration_ns,
                      t6 - t5, t1 - t0, t3 - t2, env.trace, digest, stats)


def run_pass(case_list, workers, trace=False, spans=None, digests=None):
    """Run every case once. Returns (runs, failures); a failed program is
    recorded, never dropped. ``digests`` maps program name to the trace
    digest every traced run must reproduce."""
    runs, failures = [], []
    for case in case_list:
        name = case.spec.name
        try:
            run = run_program(case, workers, trace=trace, spans=spans)
        except (BenchmarkValidationError, ExecutionError) as exc:
            failures.append(Failure(name, f"{type(exc).__name__}: {exc}"))
            continue
        if digests is not None and run.digest != digests.get(name):
            failures.append(Failure(name, f"trace digest {run.digest:016x} at workers={workers} "
                                          f"differs from {digests.get(name) or 0:016x}"))
            continue
        runs.append(run)
    return runs, failures


def reference_digests(case_list, workers_a=1, workers_b=2):
    """The determinism promise, checked per program: the trace digest at
    ``workers_a`` must equal the one at ``workers_b``. Returns (digests,
    failures, attempted)."""
    digests, failures = {}, []
    for case in case_list:
        a, fa = run_pass([case], workers_a, trace=True)
        b, fb = run_pass([case], workers_b, trace=True)
        failures += fa + fb
        if a and b:
            if a[0].digest == b[0].digest:
                digests[case.spec.name] = a[0].digest
            else:
                failures.append(Failure(case.spec.name, f"digest at workers={workers_a} "
                                        f"{a[0].digest:016x} != workers={workers_b} "
                                        f"{b[0].digest:016x}"))
    return digests, failures, 2 * len(case_list)


# -- physical-rt ----------------------------------------------------------------

HEARTBEAT_NS = 10 * MSEC
LEAD_NS = 5 * MSEC  # first arrival after the runtime has started
STOP_GRACE_S = 1.0  # how long the generator waits for the last event
LATE_LIMIT_US = 1000.0  # late_share: events slower than this, or not handled


@dataclass
class Batch:
    """One physical-rt program run."""

    injected: int = 0
    refused: int = 0
    failed: int = 0
    reactions: int = 0
    events: int = 0
    run_ns: int = 0
    digest_ns: int = 0
    records: int = 0
    trace_bytes: int = 0
    build_ns: int = 0
    graph_ns: int = 0
    stats: dict = field(default_factory=dict)
    latencies_ns: list = field(default_factory=list)  # due -> end of sink reaction
    late_ns: list = field(default_factory=list)  # generator lateness
    schedule_ns: list = field(default_factory=list)  # schedule_physical call
    wake_ns: list = field(default_factory=list)  # physical - logical time at ingest
    pipeline_ns: list = field(default_factory=list)  # ingest start -> sink end
    errors: list = field(default_factory=list)


def physical_program(n: int, handled: list, done: threading.Event):
    """physical action -> 2-way fan-out -> join sink, plus a heartbeat timer
    that keeps the event queue non-empty (the runtime ends when it empties,
    even in real-time mode). The sink stops the run after event ``n - 1``."""
    b = Builder("PhysicalFanout")
    src = b.reactor("source")
    event = src.physical_action("event")
    out = src.output("out")
    beat = src.timer("heartbeat", offset=0, period=HEARTBEAT_NS)

    @src.reaction(event, effects=[out])
    def _ingest(ctx):
        start = perf_counter_ns()
        wake = ctx.elapsed_physical_ns() - ctx.tag.time
        eid, due = ctx.get(event)
        ctx.set(out, (eid, due, start, wake))

    @src.reaction(beat)
    def _beat(ctx):
        pass  # a timer needs a reaction to be scheduled at all

    def branch(r, bank_index):
        inp = r.input("in")
        res = r.output("out")

        @r.reaction(inp, effects=[res])
        def _relay(ctx):
            ctx.set(res, ctx.get(inp) + (bank_index,))

    fan = bank(b, "fan", 2, branch)
    sink = b.reactor("sink")
    parts = sink.input("parts", width=2)

    @sink.reaction(parts)
    def _join(ctx):
        got = [v for _, v in ctx.present(parts)]
        eid = got[0][0]
        joined = len(got) == 2 and got[1][0] == eid
        tag = ctx.tag
        end = perf_counter_ns()
        handled.append((eid, (tag.time, tag.microstep), joined, got[0][1:4], end))
        if eid == n - 1:
            done.set()
            ctx.request_stop()

    connect(out, fan.port("in"), broadcast=True)
    connect(fan.port("out"), parts)
    return b.build(), event


def arrival_offsets(seed: int, batch: int, n: int, rate: float) -> list[int]:
    """Seeded Poisson arrivals: cumulative ns offsets of ``n`` events."""
    rng = random.Random(seed * 1_000_003 + batch)
    t, out = 0.0, []
    for _ in range(n):
        t += rng.expovariate(rate)
        out.append(round(t * 1e9))
    return out


def run_batch(w: Workload, offsets, trace=False, spans=None) -> Batch:
    """Run one physical-rt batch and check that every injected event was
    handled exactly once, in injection order, at strictly increasing tags."""
    n = len(offsets)
    handled: list = []
    done = threading.Event()
    program = spans.new_id() if spans is not None else None
    t0 = perf_counter_ns()
    topo, event = physical_program(n, handled, done)
    tb = perf_counter_ns()
    if spans is not None:
        spans.instrument(topo)
    tg = perf_counter_ns()
    env = Environment(topo, workers=w.workers, fast=False, trace=trace)
    out = Batch(build_ns=tb - t0, graph_ns=perf_counter_ns() - tg,
                stats=dict(topo.stats(), levels=env.apg.num_levels,
                           max_width=max_level_width(env.apg)))
    exec_sid = None
    if spans is not None:
        exec_sid = spans.exec_sid = spans.new_id()

    def generate():
        env.started.wait()
        base = perf_counter_ns() + LEAD_NS
        for i, off in enumerate(offsets):
            due = base + off
            wait = due - perf_counter_ns()
            if wait > 0:
                time.sleep(wait / 1e9)
            start = perf_counter_ns()
            try:
                env.schedule_physical(event, (i, due))
            except ShutdownError:
                out.refused = n - i
                break
            end = perf_counter_ns()
            out.injected += 1
            out.late_ns.append(start - due)
            out.schedule_ns.append(end - start)
            if spans is not None:
                spans.add(spans.new_id(), "gen.schedule", start, end, program, {"event": i})
        if not done.wait(STOP_GRACE_S):
            env.request_stop()  # the last event was lost: end the run anyway

    gen = threading.Thread(target=generate, name="perfbench-generator")
    gen.start()
    t1 = perf_counter_ns()
    try:
        report = env.run()
    except ExecutionError as exc:
        out.errors.append(f"ExecutionError: {exc}")
        report = None
    finally:
        gen.join()
    t2 = perf_counter_ns()
    if report is not None:
        out.reactions, out.events, out.run_ns = report.reactions, report.events, report.duration_ns
    if trace and env.trace is not None:
        trace_digest(env.trace)
    t3 = perf_counter_ns()
    if trace and env.trace is not None:
        out.digest_ns = t3 - t2
        out.records = len(env.trace.records)
        out.trace_bytes = len(env.trace.canonical_bytes())
    if spans is not None:
        spans.add(spans.new_id(), "build", t0, tb, program)
        spans.add(spans.new_id(), "graph", tg, tg + out.graph_ns, program)
        spans.add(exec_sid, "exec", t1, t2, program)
        if trace:
            spans.add(spans.new_id(), "digest", t2, t3, program)
        spans.add(program, "program", t0, t3, None, {"program": "PhysicalFanout"})
    _check_stream(out, handled, n)
    return out


def _check_stream(out: Batch, handled: list, n: int) -> None:
    seen = set()
    last_id, last_tag = -1, None
    for eid, tag, joined, (due, start, wake), end in handled:
        if eid in seen:
            out.failed += 1
            out.errors.append(f"event {eid} handled twice")
            continue
        seen.add(eid)
        if eid < last_id or (last_tag is not None and tag <= last_tag) or not joined:
            out.failed += 1
            out.errors.append(f"event {eid} out of order or not joined at tag {tag}")
        last_id, last_tag = eid, tag
        out.latencies_ns.append(end - due)
        out.pipeline_ns.append(end - start)
        out.wake_ns.append(wake)
    lost = out.injected - len(seen & set(range(out.injected)))
    if lost:
        out.errors.append(f"{lost} of {out.injected} events never handled")
    out.failed += lost + out.refused
