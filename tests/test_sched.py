"""Scheduler behavior: tag ordering, level barriers, workers, ready queue."""

import json
import os
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

import detreact.sched as sched
from detreact import (MSEC, SEC, SHUTDOWN, STARTUP, USEC, Builder, Environment, ExecutionError,
                      ReadyQueue, ShutdownError, Tag, connect, trace_digest)
from detreact.bench.registry import get_benchmark
from detreact.graph import build_precedence_graph
from programs import jittered, proxied_bank, two_user_bank
from test_bench import small_params


# -- end-to-end example programs -------------------------------------------


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_two_user_bank_any_worker_count(workers):
    topo, acct = two_user_bank()
    report = Environment(topo, workers=workers, fast=True).run()
    assert acct.state.balance == 10.0
    assert acct.state.outcomes == [("granted", Tag(2 * SEC, 0))]
    assert report.events == 2
    assert report.reactions == 4


@pytest.mark.parametrize("workers", [1, 4])
def test_proxied_bank_denies_then_deposits(workers):
    topo, acct = proxied_bank(proxy_delay_ns=2 * SEC)
    report = Environment(topo, workers=workers, fast=True).run()
    assert acct.state.outcomes == [("denied", Tag(2 * SEC, 0))]
    assert acct.state.balance == 20.0
    assert report.last_tag == Tag(3 * SEC, 1)


def test_empty_program_terminates_immediately():
    report = Environment(Builder().build(), fast=True).run()
    assert report.events == 0
    assert report.reactions == 0


# -- ReadyQueue --------------------------------------------------------------


def test_ready_queue_pop_semantics():
    q = ReadyQueue(capacity=4)
    assert q.pop() is None  # fresh queue is empty
    q.refill(["a", "b", "c"])
    got = [q.pop(), q.pop(), q.pop()]
    assert sorted(got) == ["a", "b", "c"]  # each exactly once
    assert q.pop() is None
    assert q.pop() is None  # stays empty however often it is polled


def test_ready_queue_capacity_enforced():
    q = ReadyQueue(capacity=2)
    with pytest.raises(ValueError):
        q.refill([1, 2, 3])


def test_ready_queue_eight_workers_five_items():
    # Eight workers racing for five items: exactly five successful pops and
    # three empty results.
    q = ReadyQueue(capacity=8)
    q.refill(list(range(5)))
    results = [None] * 8
    barrier = threading.Barrier(8)

    def worker(slot):
        barrier.wait()
        results[slot] = q.pop()

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    hits = [r for r in results if r is not None]
    assert sorted(hits) == [0, 1, 2, 3, 4]
    assert results.count(None) == 3


def test_ready_queue_concurrent_pops_exact():
    q = ReadyQueue(capacity=8)
    q.refill(list(range(5)))
    results = [[] for _ in range(8)]
    barrier = threading.Barrier(8)

    def worker(slot):
        barrier.wait()
        while True:
            item = q.pop()
            if item is None:
                return
            results[slot].append(item)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    popped = [x for r in results for x in r]
    assert sorted(popped) == [0, 1, 2, 3, 4]


# -- barriers and parallelism -------------------------------------------------


class Probe:
    """Thread-safe record of reaction execution intervals."""

    def __init__(self):
        self.lock = threading.Lock()
        self.records = []  # (name, tag, level, start_ns, end_ns)
        self.active = 0
        self.high_water = 0

    def wrap(self, name, level, body=None, hold_ms=2.0):
        def wrapped(ctx):
            with self.lock:
                self.active += 1
                self.high_water = max(self.high_water, self.active)
            start = time.monotonic_ns()
            if body is not None:
                body(ctx)
            time.sleep(hold_ms / 1000)
            end = time.monotonic_ns()
            with self.lock:
                self.active -= 1
                self.records.append((name, ctx.tag, level, start, end))
        return wrapped


def _diamond_program(probe):
    # src fans out to two middle reactors that rejoin at a sink; two tags.
    b = Builder()
    src = b.reactor("src")
    t = src.timer("t", offset=0, period=MSEC)
    out = src.output("out")
    src.state.rounds = 0

    def src_body(ctx):
        ctx.state.rounds += 1
        ctx.set(out, ctx.state.rounds)
        if ctx.state.rounds == 2:
            ctx.request_stop()

    src.reaction(t, effects=[out], body=probe.wrap("src", 0, src_body))

    mids = []
    sink = b.reactor("sink")
    sink_in = sink.input("in", width=2)
    for i in range(2):
        m = b.reactor(f"mid{i}")
        m_in = m.input("in")
        m_out = m.output("out")

        def mid_body(ctx, m_in=m_in, m_out=m_out):
            ctx.set(m_out, ctx.get(m_in))

        m.reaction(m_in, effects=[m_out], body=probe.wrap(f"mid{i}", 1, mid_body))
        connect(out, m_in)
        connect(m_out, sink_in[i])
        mids.append(m)

    sink.reaction(sink_in, body=probe.wrap("sink", 2))
    return b.build()


def test_tag_atomicity_and_level_barrier():
    probe = Probe()
    topo = _diamond_program(probe)
    Environment(topo, workers=4, fast=True).run()
    recs = probe.records
    assert len(recs) == 8  # (src + 2 mids + sink) x 2 tags
    # Tag atomicity: every reaction of tag g ends before any of tag g' > g starts.
    for name_a, tag_a, _lv_a, _s_a, end_a in recs:
        for name_b, tag_b, _lv_b, start_b, _e_b in recs:
            if tag_a < tag_b:
                assert end_a <= start_b, f"{name_a}@{tag_a} overlaps {name_b}@{tag_b}"
    # Level barrier: within one tag, level k starts only after level k-1 ends.
    for _na, tag_a, lv_a, _sa, end_a in recs:
        for _nb, tag_b, lv_b, start_b, _eb in recs:
            if tag_a == tag_b and lv_a < lv_b:
                assert end_a <= start_b


def test_same_level_reactions_can_overlap():
    # With two workers, the two independent mid reactions of one tag should
    # actually overlap (they sleep 2ms each), showing parallel execution.
    probe = Probe()
    topo = _diamond_program(probe)
    Environment(topo, workers=2, fast=True).run()
    mids = [r for r in probe.records if r[0].startswith("mid")]
    by_tag = {}
    for name, tag, _lv, start, end in mids:
        by_tag.setdefault(tag, []).append((start, end))
    overlaps = 0
    for intervals in by_tag.values():
        (s1, e1), (s2, e2) = intervals
        if s1 < e2 and s2 < e1:
            overlaps += 1
    assert overlaps > 0, "independent same-level reactions never overlapped"
    assert probe.high_water <= 2


def test_exclusivity_within_one_reactor():
    # Two reactions of one reactor triggered at the same tag must never
    # overlap, regardless of worker count.
    probe = Probe()
    b = Builder()
    r = b.reactor("solo")
    t = r.timer("t")
    r.reaction(t, body=probe.wrap("solo.1", 0, hold_ms=3.0))
    r.reaction(t, body=probe.wrap("solo.2", 1, hold_ms=3.0))
    Environment(b.build(), workers=4, fast=True).run()
    (n1, _t1, _l1, s1, e1), (n2, _t2, _l2, s2, e2) = probe.records
    assert not (s1 < e2 and s2 < e1), "same-reactor reactions overlapped"


def test_worker_count_soundness():
    # Eight independent reactions, two workers: at most two bodies at once.
    probe = Probe()
    b = Builder()
    src = b.reactor("src")
    t = src.timer("t")
    out = src.output("out", width=8)

    def fan(ctx):
        for i in range(8):
            ctx.set(out, i, index=i)

    src.reaction(t, effects=[out], body=probe.wrap("src", 0, fan, hold_ms=0.0))
    for i in range(8):
        w = b.reactor(f"w{i}")
        w_in = w.input("in")
        w.reaction(w_in, body=probe.wrap(f"w{i}", 1, hold_ms=1.0))
        connect(out[i], w_in)
    Environment(b.build(), workers=2, fast=True).run()
    assert probe.high_water <= 2
    assert len(probe.records) == 9


def test_level_bucket_publishes_both_reactions_together():
    # A periodic deposit through the delaying proxy lines up a tag where the
    # proxy's forwarder output and a fresh deposit trigger simultaneously:
    # the level-1 bucket then holds two reactions of two different reactors,
    # both of which must run (and may overlap) within that tag.
    probe = Probe()
    b = Builder()
    user = b.reactor("user")
    u_t = user.timer("t", offset=SEC, period=2 * SEC)
    u_out = user.output("out")
    user.state.sent = 0

    def send(ctx):
        ctx.state.sent += 1
        ctx.set(u_out, 10.0 * ctx.state.sent)
        if ctx.state.sent == 3:
            ctx.request_stop()

    user.reaction(u_t, effects=[u_out], body=send)

    proxy = b.reactor("proxy")
    p_in = proxy.input("in")
    p_out = proxy.output("out")
    hold = proxy.action("hold")
    proxy.reaction(hold, effects=[p_out],
                   body=probe.wrap("proxy.fwd", 0,
                                   lambda ctx: ctx.set(p_out, ctx.get(hold))))
    proxy.reaction(p_in, effects=[hold],
                   body=probe.wrap("proxy.hold", 1,
                                   lambda ctx: ctx.schedule(hold, ctx.get(p_in),
                                                            delay=2 * SEC)))

    acct = b.reactor("acct")
    a_in = acct.input("in")
    acct.state.total = 0.0
    acct.reaction(a_in, body=probe.wrap(
        "acct.apply", 1, lambda ctx: setattr(
            ctx.state, "total", ctx.state.total + ctx.get(a_in))))

    connect(u_out, p_in)
    connect(p_out, a_in)
    Environment(b.build(), workers=2, fast=True).run()
    # At (3s,0) the user's second deposit and the proxy's release of the
    # first one coincide: proxy.hold and acct.apply share the level-1 bucket.
    at_3s = [(name, lv) for name, tag, lv, _s, _e in probe.records
             if tag == Tag(3 * SEC, 0)]
    assert ("proxy.hold", 1) in at_3s
    assert ("acct.apply", 1) in at_3s
    # Deposits 1 and 2 are released at 3s and 5s; the third one's release at
    # 7s falls beyond the stop tag requested at 5s and is dropped.
    assert acct.state.total == 30.0


def test_no_lost_work_counts():
    for workers in (1, 2, 8):
        probe = Probe()
        topo = _diamond_program(probe)
        report = Environment(topo, workers=workers, fast=True).run()
        assert report.reactions == 8
        assert len(probe.records) == 8


def test_no_channel_lost_under_contention():
    # Sixteen same-level senders on eight workers, with thread switches
    # forced every microsecond: each makes one channel of the sink's
    # multiport present per tag, so a lost or repeated channel in the
    # barrier fold shows up in ctx.present.
    width, ticks = 16, 40
    b = Builder()
    sink = b.reactor("sink")
    sink_in = sink.input("in", width=width)
    sink.state.seen = []

    @sink.reaction(sink_in)
    def _(ctx):
        ctx.state.seen.append([i for i, _ in ctx.present(sink_in)])

    for i in range(width):
        s = b.reactor(f"s{i}")
        t = s.timer("t", offset=0, period=MSEC)
        out = s.output("out")
        s.reaction(t, effects=[out], body=lambda ctx, out=out: ctx.set(out, ctx.tag.time))
        connect(out, sink_in[i])
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        Environment(b.build(), workers=8, fast=True, stop_time=(ticks - 1) * MSEC).run()
    finally:
        sys.setswitchinterval(old)
    assert sink.state.seen == [list(range(width))] * ticks


@pytest.mark.parametrize("low_first", [True, False], ids=["low-first", "high-first"])
@pytest.mark.parametrize("workers", [1, 2])
def test_one_multiport_fed_from_two_levels(workers, low_first):
    # w.1 (level 0, every 2 ms) and w.2 (level 1, every ms) each feed one
    # channel of the reader's multiport, so the folds of two levels stage
    # the reader; at 1 ms only w.2 fires. p.1 shares level 0 with w.1, which
    # is then published at two workers. The reader runs once per tag and
    # sees the present channels in ascending order, whichever level wrote
    # the lower one.
    early, late = (0, 2) if low_first else (2, 0)
    b = Builder()
    w = b.reactor("w")
    every_2ms, every_ms = w.timer("a", period=2 * MSEC), w.timer("c", period=MSEC)
    o1, o2 = w.output("o1"), w.output("o2")
    w.reaction(every_2ms, effects=[o1], body=lambda ctx: ctx.set(o1, (early, ctx.tag.time)))
    w.reaction(every_ms, effects=[o2], body=lambda ctx: ctx.set(o2, (late, ctx.tag.time)))
    p = b.reactor("p")
    p.reaction(p.timer("t", period=MSEC), body=lambda ctx: None)
    r = b.reactor("r")
    inp = r.input("in", width=3)
    r.state.seen = []
    r.reaction(inp, body=lambda ctx: ctx.state.seen.append((ctx.tag.time, list(ctx.present(inp)))))
    connect(o1, inp[early])
    connect(o2, inp[late])
    report = Environment(b.build(), workers=workers, fast=True, stop_time=2 * MSEC).run()

    def both(t):
        return [(0, (0, t)), (2, (2, t))]

    assert r.state.seen == [(0, both(0)), (MSEC, [(late, (late, MSEC))]),
                            (2 * MSEC, both(2 * MSEC))]
    assert report.reactions == 2 + 3 + 3 + 3  # w.1, w.2, p.1, r.1
    assert report.events == 2 + 3 + 3


# -- who runs a level ---------------------------------------------------------


def _counted_refills(env):
    """Record the width of every level ``env`` publishes to its ready queue."""
    widths = []
    refill = env._ready.refill

    def counting(items):
        widths.append(len(items))
        return refill(items)

    env._ready.refill = counting
    return widths


class _CountingSemaphore(threading.Semaphore):
    """A semaphore that counts its acquisitions and the permits it releases."""

    acquired = released = 0

    def acquire(self, *args, **kwargs):
        self.acquired += 1
        return super().acquire(*args, **kwargs)

    def release(self, n=1):
        self.released += n
        return super().release(n)


@pytest.mark.parametrize("name, params", [
    ("PingPong", {"messages": 50}),
    ("ThreadRing", {"actors": 10, "hops": 100}),  # its startup level is 10 wide
])
def test_one_worker_publishes_no_level_and_starts_no_thread(name, params, monkeypatch):
    spec = get_benchmark(name)
    instance = spec.build(spec.resolve_params(params))
    env = Environment(instance.topology, workers=1, fast=True)
    widths = _counted_refills(env)
    env._sem = sem = _CountingSemaphore(0)
    pops = []
    env._ready.pop = lambda: pops.append(1)
    started = []
    start = threading.Thread.start

    def counting_start(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    report = env.run()
    instance.validate(report)
    assert report.reactions > 0
    assert widths == []
    # a plain loop: no semaphore, not even at its end, and no ready queue
    assert sem.acquired == sem.released == 0 and pops == []
    assert started == []


@pytest.mark.parametrize("name, params", [
    ("ForkJoin", {"rounds": 30}),
    ("Big", {"pings": 20}),
    ("ThreadRing", {"actors": 10, "hops": 100}),
])
def test_two_workers_publish_only_levels_wider_than_one(name, params):
    spec = get_benchmark(name)
    digests = {}
    for workers in (1, 2):
        instance = spec.build(spec.resolve_params(params))
        env = Environment(instance.topology, workers=workers, fast=True, trace=True)
        widths = _counted_refills(env)
        instance.validate(env.run())
        digests[workers] = trace_digest(env.trace)
    # Every executed level is a (tag, level) pair of the trace.
    executed = Counter((rec.tag, rec.level) for rec in env.trace.records)
    wide = sorted(n for n in executed.values() if n > 1)
    assert wide  # the program has levels for the ready queue
    assert sorted(widths) == wide
    assert digests[2] == digests[1]


# -- logical schedules folded at the barrier ----------------------------------


@pytest.mark.parametrize("workers", [1, 2])
def test_later_level_schedule_wins(workers):
    # Reactions 1 and 2 of one reactor run on successive levels and schedule
    # the same action at the same tag: the fold keeps level order.
    b = Builder()
    r = b.reactor("r")
    act = r.action("a")
    r.state.fired = []
    r.reaction(STARTUP, effects=[act], body=lambda ctx: ctx.schedule(act, "first"))
    r.reaction(STARTUP, effects=[act], body=lambda ctx: ctx.schedule(act, "second"))
    r.reaction(act, body=lambda ctx: ctx.state.fired.append((ctx.tag, ctx.get(act))))
    report = Environment(b.build(), workers=workers, fast=True).run()
    assert r.state.fired == [(Tag(0, 1), "second")]
    assert report.events == 2


def test_logical_and_physical_events_each_handled_once_in_tag_order():
    # Eight same-level reactors on four workers each schedule their own
    # action every tick, at eight different offsets, while another thread
    # injects physical events, with thread switches forced every microsecond.
    n, injected = 8, 40
    b = Builder()
    nodes = []
    for i in range(n):
        r = b.reactor(f"n{i}")
        t = r.timer("t", offset=0, period=MSEC)
        act = r.action("a")
        r.state.scheduled, r.state.handled = [], []

        @r.reaction(t, effects=[act])
        def _(ctx, act=act, i=i):
            value = (i, ctx.tag.time // MSEC)
            ctx.state.scheduled.append((ctx.schedule(act, value, delay=i * 100 * USEC), value))

        r.reaction(act, body=lambda ctx, act=act: ctx.state.handled.append((ctx.tag, ctx.get(act))))
        nodes.append(r)

    sink = b.reactor("sink")
    irq = sink.physical_action("irq")
    sink.state.handled = []
    sink.reaction(irq, body=lambda ctx: ctx.state.handled.append((ctx.tag, ctx.get(irq))))

    sent = []
    done = threading.Event()
    keeper = b.reactor("keeper")
    tick = keeper.timer("t", offset=0, period=MSEC)

    @keeper.reaction(tick)
    def _(ctx):
        # stop once every physical event is behind this tag, or at 10 s
        if (done.is_set() and ctx.tag > sent[-1]) or ctx.tag.time >= 10 * SEC:
            ctx.request_stop()

    env = Environment(b.build(), workers=4)

    def inject():
        env.started.wait(10)
        for k in range(injected):
            sent.append(env.schedule_physical(irq, k))
            time.sleep(0.0005)
        done.set()

    injector = threading.Thread(target=inject)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        injector.start()
        report = env.run()
    finally:
        sys.setswitchinterval(old)
        injector.join(10)
    assert not injector.is_alive()
    assert sink.state.handled == [(g, k) for k, g in enumerate(sent)]
    assert sent == sorted(set(sent))
    for r in nodes:
        assert r.state.handled == [x for x in r.state.scheduled if x[0] <= report.last_tag]
        assert len(r.state.handled) >= len(r.state.scheduled) - 1  # only the last may lie beyond the stop


# -- time advancement ---------------------------------------------------------


def test_fast_mode_processes_back_to_back():
    b = Builder()
    r = b.reactor("r")
    t = r.timer("t", offset=1 * SEC, period=1 * SEC)
    r.state.count = 0

    @r.reaction(t)
    def _(ctx):
        ctx.state.count += 1
        if ctx.state.count == 2:
            ctx.request_stop()

    report = Environment(b.build(), fast=True).run()
    assert r.state.count == 2
    assert report.duration_ns < 200 * MSEC  # no waiting for 2s of logical time


def test_chase_rule_holds_back_execution():
    b = Builder()
    r = b.reactor("r")
    t = r.timer("t", offset=60 * MSEC)
    r.state.fired_at = None

    @r.reaction(t)
    def _(ctx):
        ctx.state.fired_at = ctx.elapsed_physical_ns()

    Environment(b.build(), fast=False).run()
    assert r.state.fired_at > 60 * MSEC  # strictly after the tag's time value


def test_earlier_physical_event_interrupts_wait():
    # While the scheduler waits for a tag at 300ms, a physical event with an
    # earlier tag arrives and must be processed first.
    b = Builder()
    r = b.reactor("r")
    t = r.timer("t", offset=300 * MSEC)
    phys = r.physical_action("irq")
    r.state.order = []

    @r.reaction(t)
    def _(ctx):
        ctx.state.order.append(("timer", ctx.tag))

    @r.reaction(phys)
    def _(ctx):
        ctx.state.order.append(("irq", ctx.tag))

    env = Environment(b.build(), fast=False)
    box = {}
    runner = threading.Thread(target=lambda: box.setdefault("report", env.run()))
    runner.start()
    env.started.wait(5)
    time.sleep(0.03)
    tag = env.schedule_physical(phys, None)
    runner.join(10)
    assert not runner.is_alive()
    assert tag.time < 300 * MSEC
    assert [name for name, _ in r.state.order] == ["irq", "timer"]
    tags = [g for _, g in r.state.order]
    assert tags == sorted(tags)


def _stop_time_program(workers, stop_time):
    """A real-time run with nothing queued after startup; it logs the tag of
    each reaction it runs, with the physical time."""
    b = Builder()
    r = b.reactor("r")
    irq = r.physical_action("irq")
    r.state.log = []
    for trigger in (STARTUP, irq, SHUTDOWN):
        r.reaction(trigger, body=lambda ctx: ctx.state.log.append(
            (ctx.tag, ctx.elapsed_physical_ns())))
    env = Environment(b.build(), workers=workers, fast=False, stop_time=stop_time)
    box = {}
    runner = threading.Thread(target=lambda: box.setdefault("report", env.run()))
    runner.start()
    env.started.wait(5)
    return env, irq, r.state.log, runner, box


@pytest.mark.parametrize("workers", [1, 2])
def test_the_stop_tag_waits_for_physical_time(workers):
    # Nothing is queued at or before the stop tag, which still chases
    # physical time as a queued tag does.
    _, _, log, runner, box = _stop_time_program(workers, 200 * MSEC)
    runner.join(10)
    assert not runner.is_alive()
    assert box["report"].last_tag == Tag(200 * MSEC, 0)
    (startup, _), (shutdown, fired_at) = log
    assert (startup, shutdown) == (Tag(0, 0), Tag(200 * MSEC, 0))
    assert fired_at >= shutdown.time


@pytest.mark.parametrize("workers", [1, 2])
def test_a_physical_event_or_stop_before_the_stop_tag_is_taken(workers):
    # While the scheduler waits for the stop tag, a physical event is handled,
    # not refused, and an outside stop request then ends the run early.
    env, irq, log, runner, box = _stop_time_program(workers, 10 * SEC)
    time.sleep(0.05)
    tag = env.schedule_physical(irq, None)  # raises ShutdownError if the run ended
    time.sleep(0.02)
    env.request_stop()
    runner.join(10)
    assert not runner.is_alive()
    assert tag.time >= 50 * MSEC
    assert [g for g, _ in log] == [Tag(0, 0), tag, Tag(tag.time, 1)]
    assert box["report"].last_tag == Tag(tag.time, 1)


def test_stop_time_config():
    b = Builder()
    r = b.reactor("r")
    t = r.timer("t", offset=0, period=MSEC)
    r.state.ticks = []

    @r.reaction(t)
    def _(ctx):
        ctx.state.ticks.append(ctx.tag.time)

    report = Environment(b.build(), fast=True, stop_time=3 * MSEC).run()
    # Ticks at 0,1,2,3 ms are at or before the stop tag; later ones are not.
    assert r.state.ticks == [0, MSEC, 2 * MSEC, 3 * MSEC]
    assert report.last_tag == Tag(3 * MSEC, 0)


def test_jitter_does_not_change_behavior():
    topo, acct = two_user_bank()
    report = Environment(jittered(topo, 1.0, 3), workers=4, fast=True).run()
    assert acct.state.balance == 10.0
    assert report.reactions == 4


@pytest.mark.parametrize("workers", [1, 2])
def test_request_stop_before_stop_time_wins(workers):
    b = Builder()
    r = b.reactor("r")
    t = r.timer("t", offset=0, period=MSEC)
    r.state.ticks = 0

    @r.reaction(t)
    def _(ctx):
        ctx.state.ticks += 1
        if ctx.state.ticks == 20:
            ctx.request_stop()

    report = Environment(b.build(), workers=workers, fast=True, stop_time=2 * SEC).run()
    assert r.state.ticks == 20
    assert report.reactions == 20
    assert report.last_tag == Tag(19 * MSEC, 1)


# -- the two-part event queue ---------------------------------------------------


def _event_order_program():
    """In its startup tag, one reaction schedules a zero-delay action twice
    with different values, an action whose min_delay is reached with delay
    0, and an action with a positive delay. The zero-delay event starts a
    microstep chain; the min_delay event requests a stop, and what it
    schedules at the next microstep runs with shutdown."""
    b = Builder("event_order")
    r = b.reactor("r")
    now, held = r.action("now"), r.action("held", min_delay=MSEC)
    later, nxt = r.action("later"), r.action("next")
    out = r.output("out")
    r.state.seen = []

    @r.reaction(STARTUP, effects=[now, held, later])
    def _start(ctx):
        ctx.schedule(now, "first")
        ctx.schedule(held, "held")  # (1 ms, 0) through min_delay
        ctx.schedule(later, "later", delay=MSEC // 2)
        ctx.schedule(now, "second")  # the same tag: the later call wins

    @r.reaction(now, held, later, nxt, effects=[out, nxt])
    def _see(ctx):
        fired = [(a.name, ctx.get(a)) for a in (now, held, later, nxt) if ctx.is_present(a)]
        ctx.state.seen.append((ctx.tag, fired))
        ctx.set(out, len(ctx.state.seen))
        if ctx.is_present(now) and ctx.tag.microstep < 3:  # a stale event cannot chain on
            ctx.schedule(nxt, ctx.tag.microstep)
        if ctx.is_present(held):
            ctx.schedule(nxt, "at stop")
            ctx.request_stop()

    @r.reaction(SHUTDOWN)
    def _stop(ctx):
        ctx.state.seen.append((ctx.tag, "shutdown"))

    return b.build(), r


EVENT_ORDER_SEEN = [
    (Tag(0, 1), [("now", "second")]),
    (Tag(0, 2), [("next", 1)]),
    (Tag(MSEC // 2, 0), [("later", "later")]),
    (Tag(MSEC, 0), [("held", "held")]),
    (Tag(MSEC, 1), [("next", "at stop")]),
    (Tag(MSEC, 1), "shutdown"),
]

EVENT_ORDER_LINES = (
    "TAG=0.0 RX=r.1 FX= SCHED=r.now@0.1,r.held@1000000.0,r.later@500000.0,r.now@0.1",
    "TAG=0.1 RX=r.2 FX=r.out:9b7ab796d0cacec6 SCHED=r.next@0.2",
    "TAG=0.2 RX=r.2 FX=r.out:49aef57b20c5ec31 SCHED=",
    "TAG=500000.0 RX=r.2 FX=r.out:50163cd4ae7e6fb1 SCHED=",
    "TAG=1000000.0 RX=r.2 FX=r.out:96057dbf61640407 SCHED=r.next@1000000.1",
    "TAG=1000000.1 RX=r.2 FX=r.out:1cc39f6a22473b12 SCHED=",
    "TAG=1000000.1 RX=r.3 FX= SCHED=",
)


@pytest.mark.parametrize("jitter", [False, True], ids=["plain", "jittered"])
@pytest.mark.parametrize("workers", [1, 2])
def test_next_microstep_events_precede_the_heap_and_the_later_call_wins(workers, jitter):
    topo, r = _event_order_program()
    if jitter:
        jittered(topo, 0.5, workers)
    env = Environment(topo, workers=workers, fast=True, trace=True)
    report = env.run()
    assert r.state.seen == EVENT_ORDER_SEEN
    assert env.trace.lines == EVENT_ORDER_LINES
    assert report[:3] == (Tag(MSEC, 1), 6, 7)  # startup and five events; seven bodies


@pytest.mark.parametrize("workers", [1, 2])
def test_a_physical_event_lands_while_a_microstep_chain_runs(workers):
    # Real time. At microstep 5 of a chain at time 0, the body waits until
    # another thread's schedule_physical has returned: the physical event
    # is queued while the chain runs, and is handled after its last step.
    b = Builder("chain")
    r = b.reactor("r")
    step = r.action("step")
    irq = r.physical_action("irq")
    chain_running, landed = threading.Event(), threading.Event()
    seen = []

    @r.reaction(STARTUP, step, effects=[step])
    def _chain(ctx):
        k = ctx.tag.microstep
        seen.append(("step", ctx.tag))
        if k == 5:
            chain_running.set()
            landed.wait(5)
        if k < 20:
            ctx.schedule(step, k)

    @r.reaction(irq)
    def _irq(ctx):
        seen.append(("irq", ctx.tag, ctx.get(irq)))
        ctx.request_stop()

    env = Environment(b.build(), workers=workers)
    tags = []

    def inject():
        chain_running.wait(5)
        tags.append(env.schedule_physical(irq, "irq"))
        landed.set()

    thread = threading.Thread(target=inject)
    thread.start()
    try:
        report = env.run()
    finally:
        thread.join(10)
    g, = tags
    assert g.microstep == 0 and g.time > 0
    assert seen == [("step", Tag(0, k)) for k in range(21)] + [("irq", g, "irq")]
    assert report.last_tag == Tag(g.time, 1)
    assert report.events == 22  # startup, 20 steps and the physical event


def _counted_heap_operations(monkeypatch):
    counts = Counter()
    for name in ("heappush", "heappop"):
        def counting(*args, _real=getattr(sched.heapq, name), _name=name):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(sched.heapq, name, counting)
    return counts


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name, params", [
    ("CountingActor", {"count": 1000}),
    ("PingPong", {}),
], ids=["CountingActor", "PingPong"])
def test_microstep_chain_takes_no_heap_operation(name, params, workers, monkeypatch):
    # Every event after startup is at the next microstep of the tag that
    # scheduled it.
    spec = get_benchmark(name)
    instance = spec.build(spec.resolve_params(params))
    env = Environment(instance.topology, workers=workers, fast=True)
    counts = _counted_heap_operations(monkeypatch)
    report = env.run()
    instance.validate(report)
    assert report.events == report.last_tag.microstep >= 1000
    assert counts == {"heappush": 1, "heappop": 1}  # the startup event


@pytest.mark.parametrize("workers", [1, 2])
def test_the_running_tags_successor_is_made_once_per_tag(workers, monkeypatch):
    # Big's zero-delay schedules (12 a tag) all return the one successor that
    # the tag advance makes; run() makes the startup tag.
    spec = get_benchmark("Big")
    instance = spec.build(spec.resolve_params())
    env = Environment(instance.topology, workers=workers, fast=True)
    made = Counter()

    def counting(*args, _real=sched.Tag):
        made["Tag"] += 1
        return _real(*args)

    def counting_new(cls, fields, _real=sched.Tag):  # cls is the patched Tag
        made["tuple.__new__"] += 1
        return tuple.__new__(_real, fields)

    monkeypatch.setattr(sched, "Tag", counting)
    monkeypatch.setattr(sched, "_new_tuple", counting_new)
    report = env.run()
    instance.validate(report)
    assert report.last_tag.time == 0  # so the tags run are microsteps 0..last
    assert made["tuple.__new__"] >= report.last_tag.microstep  # the successors
    assert made["Tag"] + made["tuple.__new__"] <= report.last_tag.microstep + 1 + 2


class _CountingLevels(tuple):
    """A level table that counts its reads."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return tuple.__getitem__(self, i)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name, counts", [
    ("Big", (2401, 6412, (0, 201))),
    ("Chameneos", (4001, 8421, (0, 401))),
])
def test_the_tag_loop_reads_no_level_table(name, counts, workers):
    # Each context holds its level's bucket from the build on, so neither
    # staging nor the fold looks a level up.
    spec = get_benchmark(name)
    instance = spec.build(spec.resolve_params())
    env = Environment(instance.topology, workers=workers, fast=True)
    env.apg.level = levels = _CountingLevels(env.apg.level)
    report = env.run()
    instance.validate(report)
    assert levels.reads == 0
    assert (report.events, report.reactions, tuple(report.last_tag)) == counts


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name, counts", [
    ("PingPong", (1000, 3000, (0, 1000))),
    ("ThreadRing", (2001, 4101, (0, 2001))),
    ("CountingActor", (10001, 20003, (0, 10001))),
    ("Big", (2401, 6412, (0, 201))),
    ("Chameneos", (4001, 8421, (0, 401))),
    ("ForkJoin", (1001, 9001, (0, 1001))),
])
def test_micro_programs_count_events_reactions_and_last_tag(name, counts, workers):
    spec = get_benchmark(name)
    instance = spec.build(spec.resolve_params())
    report = Environment(instance.topology, workers=workers, fast=True).run()
    instance.validate(report)
    assert (report.events, report.reactions, tuple(report.last_tag)) == counts


def _moved(monkeypatch, reaction, level):
    """Build every Environment with ``reaction`` moved to ``level`` in the
    graph's level table alone (``Reaction.level`` keeps its old copy): down,
    as a precedence graph that misses a data edge would place it, or up."""
    def build(topology, _real=sched.build_precedence_graph):
        apg = _real(topology)
        moved = list(apg.level)
        moved[reaction.rid] = level
        apg.level = tuple(moved)
        return apg

    monkeypatch.setattr(sched, "build_precedence_graph", build)


@pytest.mark.parametrize("workers", [1, 2])
def test_a_trace_record_names_the_level_its_reaction_ran_in(workers, monkeypatch):
    # A reaction that writes nothing, moved up from level 0 to its peer's
    # level 1, runs there; the trace orders and labels it by the graph's level.
    b = Builder()
    a, c, z = b.reactor("a"), b.reactor("c"), b.reactor("z")
    out, z_in = a.output("out"), z.input("in")
    a.reaction(STARTUP, effects=[out], body=lambda ctx: ctx.set(out, 1))
    idle = c.reaction(STARTUP, body=lambda ctx: None)
    z.reaction(z_in, body=lambda ctx: None)
    connect(out, z_in)
    topology = b.build()
    assert build_precedence_graph(topology).level[idle.rid] == 0
    _moved(monkeypatch, idle, 1)
    env = Environment(topology, workers=workers, fast=True, trace=True)
    env.run()
    assert [(rec.reactor_path, rec.level) for rec in env.trace.records] == [
        ("a", 0), ("c", 1), ("z", 1)]


@pytest.mark.parametrize("workers", [1, 2])
def test_staging_at_or_below_the_running_level_fails_the_run(workers, monkeypatch):
    # Two writers at level 0 (published at workers=2) and a reader of the
    # first, moved down to its writer's level: no fold could stage the
    # reader, so the Environment is refused before any worker starts.
    b = Builder()
    a, c = b.reactor("a"), b.reactor("c")
    out = a.output("out")
    a.reaction(STARTUP, effects=[out], body=lambda ctx: ctx.set(out, 1))
    c.reaction(STARTUP, body=lambda ctx: None)
    z = b.reactor("z")
    z_in = z.input("in")
    reader = z.reaction(z_in, body=lambda ctx: None)
    connect(out, z_in)
    topology = b.build()
    assert build_precedence_graph(topology).level[reader.rid] == 1
    _moved(monkeypatch, reader, 0)
    with pytest.raises(RuntimeError, match=r"z\.1 staged at level 0, at or below the "
                                           r"running level 0"):
        Environment(topology, workers=workers, fast=True)
    assert _worker_threads() == []


def test_the_staging_check_names_the_reader_of_a_multiport_fan_in(monkeypatch):
    # Three writers at levels 0, 1 and 2 feed one channel each of a width-3
    # multiport; its reader, at level 3, is moved down to level 1, so the
    # writer at level 1 is the first that could not stage it.
    b = Builder()
    sink = b.reactor("sink")
    port = sink.input("in", width=3)
    reader = sink.reaction(port, body=lambda ctx: None)
    writers = [b.reactor(f"w{i}") for i in range(3)]
    triggers = [STARTUP] + [w.input("in") for w in writers[1:]]
    for i, w in enumerate(writers):
        out = w.output("out")
        w.reaction(triggers[i], effects=[out], body=lambda ctx: None)
        connect(out, port[i])
        if i < 2:
            connect(out, triggers[i + 1])
    topology = b.build()
    assert build_precedence_graph(topology).level[reader.rid] == 3
    _moved(monkeypatch, reader, 1)
    with pytest.raises(RuntimeError, match=r"^sink\.1 staged at level 1, at or below the "
                                           r"running level 1$"):
        Environment(topology, fast=True)


# -- what a body writes ---------------------------------------------------------


@pytest.mark.parametrize("name", ["PingPong", "Big", "Chameneos", "ProducerConsumer"])
def test_a_body_writes_no_shared_state(name):
    # A body writes only its own context: the per-tag slot arrays are the
    # same objects with the same contents after each body call as before it.
    spec = get_benchmark(name)
    instance = spec.build(small_params(spec))
    box, changed = {}, []

    def watched(reaction, body):
        def wrapped(ctx):
            env = box["env"]
            values, present = list(env._value), bytes(env._present)
            body(ctx)
            if any(a is not b for a, b in zip(values, env._value)) or present != env._present:
                changed.append(reaction.label())
            box["calls"] += 1
        return wrapped

    for reaction in instance.topology.reactions:
        reaction.body = watched(reaction, reaction.body)
    box["env"] = env = Environment(instance.topology, workers=1, fast=True)
    box["calls"] = 0
    report = env.run()
    instance.validate(report)
    assert box["calls"] == report.reactions > 0
    assert changed == []


# -- what takes the lock -------------------------------------------------------


class _CountingLock:
    """A lock that counts its acquisitions."""

    def __init__(self):
        self._lock = threading.Lock()
        self.acquired = 0

    def acquire(self, blocking=True, timeout=-1):
        got = self._lock.acquire(blocking, timeout)
        self.acquired += got  # only while holding the lock
        return got

    __enter__ = acquire

    def release(self):
        self._lock.release()

    def __exit__(self, *exc_info):
        self.release()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name, params", [
    ("CountingActor", {"count": 1000}),  # one logical schedule per tag
    ("Big", {"pings": 200}),
])
def test_the_lock_is_taken_once_per_tag_advance(name, params, workers):
    # Besides the advances, only the run-once check, a stop request and the
    # end of the run take the lock: no body, schedule or fold does.
    spec = get_benchmark(name)
    instance = spec.build(spec.resolve_params(params))
    env = Environment(instance.topology, workers=workers, fast=True)
    lock = _CountingLock()
    env._evlock = threading.Condition(lock)
    report = env.run()
    instance.validate(report)
    # one advance per tag run, every tag at time 0 here, and the final one
    assert report.last_tag.time == 0
    advances = report.last_tag.microstep + 1 + 1
    assert advances > 100
    assert lock.acquired <= advances + 3


# -- threads, failures and interrupts ------------------------------------------


def _worker_threads():
    return [t.name for t in threading.enumerate() if t.name.startswith("detreact-worker-")]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_caller_is_worker_zero(workers):
    b = Builder()
    r = b.reactor("r")
    t = r.timer("t")
    r.state.threads = None

    @r.reaction(t)
    def _(ctx):
        ctx.state.threads = _worker_threads()

    Environment(b.build(), workers=workers, fast=True).run()
    assert len(r.state.threads) == workers - 1
    assert _worker_threads() == []


@pytest.mark.parametrize("workers", [1, 2])
def test_failing_reaction_stops_before_the_next_level(workers):
    b = Builder()
    a = b.reactor("a")
    out = a.output("out")

    @a.reaction(STARTUP, effects=[out])
    def _(ctx):
        ctx.set(out, 1)
        raise ValueError("boom")

    z = b.reactor("z")
    z_in = z.input("in")
    z.state.seen = []

    @z.reaction(z_in)
    def _(ctx):
        ctx.state.seen.append(ctx.get(z_in))

    connect(out, z_in)
    with pytest.raises(ExecutionError, match=r"a\.1"):
        Environment(b.build(), workers=workers, fast=True).run()
    assert z.state.seen == []


def _raise(exc):
    raise exc


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_the_first_declared_failure_is_reported_at_any_worker_count(workers):
    # Three reactions of one level raise, finishing in an order the jitter
    # varies: the error names the one declared first, every time.
    for seed in range(10):
        b = Builder()
        for name in ("a", "b", "c"):
            b.reactor(name).reaction(STARTUP, body=lambda ctx, n=name: _raise(ValueError(n)))
        program = jittered(b.build(), 1.0, seed)
        with pytest.raises(ExecutionError, match=r"^reaction a\.1 failed: ValueError\('a'\)$"):
            Environment(program, workers=workers, fast=True).run()


@pytest.mark.parametrize("workers", [1, 2])
def test_physical_scheduling_after_a_reaction_failure(workers):
    # A real-time run kept alive by a far-off timer; a generator thread
    # schedules a physical event every millisecond, and the reaction to the
    # fourth one raises.
    b = Builder()
    r = b.reactor("r")
    irq = r.physical_action("irq")
    r.reaction(r.timer("keepalive", offset=10 * SEC), body=lambda ctx: None)
    handled = []

    @r.reaction(irq)
    def _(ctx):
        handled.append(ctx.get(irq))
        if len(handled) == 4:
            raise ValueError("boom")

    env = Environment(b.build(), workers=workers)
    threads_before = threading.enumerate()
    outcomes = []  # True per accepted event, False per ShutdownError

    def generate():
        env.started.wait(5)
        for n in range(5000):
            try:
                env.schedule_physical(irq, n)
                outcomes.append(True)
            except ShutdownError:
                outcomes.append(False)
                if outcomes.count(False) == 5:
                    return
            time.sleep(0.001)

    generator = threading.Thread(target=generate)
    generator.start()
    try:
        with pytest.raises(ExecutionError, match=r"r\.2"):
            env.run()
    finally:
        generator.join(10)
    assert not generator.is_alive()
    assert handled == [0, 1, 2, 3]
    first_refusal = outcomes.index(False)
    assert not any(outcomes[first_refusal:])  # once refused, always refused
    with pytest.raises(ShutdownError):
        env.schedule_physical(irq, -1)
    assert handled == [0, 1, 2, 3]
    assert threading.enumerate() == threads_before  # no worker or generator is left


# Runs in its own interpreter, so the interrupt cannot reach pytest. The
# program is real-time with a 5 ms timer fanning out to a width-2 level, and
# is interrupted about 100 ms into a 3 s run.
_INTERRUPTED_RUN = """
import _thread, json, signal, sys, threading, time
from detreact import MSEC, SEC, Builder, Environment, ExecutionError, connect

b = Builder()
src = b.reactor("src")
tick = src.timer("t", offset=0, period=5 * MSEC)
out = src.output("out")
src.reaction(tick, effects=[out], body=lambda ctx: ctx.set(out, ctx.tag.time))
for i in range(2):
    sink = b.reactor(f"sink{i}")
    sink_in = sink.input("in")
    sink.reaction(sink_in, body=lambda ctx: None)
    connect(out, sink_in)
env = Environment(b.build(), workers=int(sys.argv[1]), stop_time=3 * SEC)
# a background job inherits an ignored SIGINT, which interrupt_main would not raise
signal.signal(signal.SIGINT, signal.default_int_handler)
threading.Timer(0.1, _thread.interrupt_main).start()
t0 = time.monotonic()
try:
    env.run()
    outcome = "returned"
except KeyboardInterrupt:
    outcome = "KeyboardInterrupt"
except ExecutionError as exc:
    outcome = "ExecutionError from " + type(exc.__cause__).__name__
print(json.dumps({"outcome": outcome, "elapsed_s": time.monotonic() - t0,
                  "threads": [t.name for t in threading.enumerate()
                              if t.name.startswith("detreact-worker-")]}))
"""


@pytest.mark.parametrize("workers", [1, 2])
def test_interrupt_stops_a_real_time_run(workers):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-c", _INTERRUPTED_RUN, str(workers)],
                          capture_output=True, text=True, timeout=30, env=env)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["outcome"] == "KeyboardInterrupt"
    assert result["elapsed_s"] < 1.0
    assert result["threads"] == []


# Runs in its own interpreter under ``python -O``, which strips asserts.
_OPTIMIZED_RUN = """
import json, sys
from detreact import STARTUP, Builder, Environment, ExecutionError, trace_digest
from programs import two_user_bank

topo, _ = two_user_bank()
env = Environment(topo, workers=2, fast=True, trace=True)
env.run()
b = Builder()
r = b.reactor("r")
other = r.input("other")
r.reaction(STARTUP, body=lambda ctx: ctx.get(other))
contract = None
try:
    Environment(b.build(), fast=True).run()
except ExecutionError as exc:
    contract = repr(exc.__cause__)
print(json.dumps({"optimize": sys.flags.optimize, "digest": trace_digest(env.trace),
                  "contract": contract}))
"""


def test_traced_run_under_python_O_has_the_same_digest():
    tests = Path(__file__).resolve().parent
    path = (str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    done = subprocess.run([sys.executable, "-O", "-c", _OPTIMIZED_RUN],
                          capture_output=True, text=True, timeout=30, env=env)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["optimize"] == 1
    # an undeclared read is caught by a check that -O keeps
    assert result["contract"] == "ContractViolationError('r.1 reads undeclared trigger r.other')"

    topo, _ = two_user_bank()
    normal = Environment(topo, workers=2, fast=True, trace=True)
    normal.run()
    assert result["digest"] == trace_digest(normal.trace)
