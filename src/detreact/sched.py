"""Tag-ordered multi-worker execution.

An :class:`Environment` is the runtime: one object owns the run config, the
run-once lifecycle, the stop tag and all per-run state. It processes events
strictly in tag order. For each tag it stages every triggered reaction into
its level's bucket, then runs the levels in ascending order: the triggered
reactions of one level may execute on any worker in parallel; no reaction of
level k starts before every triggered reaction below k has completed, and no
reaction of a later tag starts before the whole tag is done.

Every port channel, timer and action owns one slot of a dense value and
presence array, which is all a reaction reads or writes within a tag. Each
reaction owns one :class:`ReactionContext`, built with the Environment: it
maps the reaction's declared triggers and effects to their slots, so a
``ctx`` call finds its slot with one dict lookup, and it logs what the body
makes present, schedules and raises.

The calling thread is worker 0 and ``workers - 1`` threads join it. A body
writes only its own context and the slots of the channels it sets (each has
one writer per tag). The last worker to finish a level becomes the
coordinator while every other worker is parked, and it alone writes run
state: it folds the contexts of the level that just ran, recording the
channels they made present, staging the reactions those ports trigger,
collecting their logical schedules for the tag advance, tracing each
completed reaction and recording the failure of the first declared reaction
that raised; then it goes on to the next level, or ends the tag and advances
logical time. It runs a level itself when no other worker could share it
(one reaction, or one worker); only a wider level is published to the ready
queue, so a one-worker run is a plain loop on the calling thread, in one
call of ``_coordinate``.

The event queue has two parts. An event at a microstep above 0 can only come
from a zero-delay ``ctx.schedule`` in the tag just before it, so the tag
advance moves those into ``_micro``, a plain dict that precedes everything
else; every other event (startup, a timer, a delayed schedule, a physical
action) is at microstep 0 and goes to a heap of tags with a map of their
triggers. The one lock, ``_evlock``, guards what other threads touch (the
event heap, the stop tag, the run-once flag, the end of the run) and the tag
advance that reads it; ``_micro`` is the coordinator's alone, and the fold
takes the lock only to record a failure.

In normal mode, a tag with time value t is not processed before the physical
clock passes t (logical time chases physical time); fast mode skips the
waiting and is what benchmarks use.
"""

from __future__ import annotations

import heapq
import itertools
import operator
import threading
import time
from typing import NamedTuple

from .core import (SHUTDOWN, STARTUP, Action, Port, PortChannel, ReactorTopology, Tag,
                   Timer, as_time, checked_time_add)
from .errors import ContractViolationError, ExecutionError, ShutdownError
from .graph import build_precedence_graph, max_level_width


class TerminationReport(NamedTuple):
    """Outcome of one run. Counts are exact: ``events`` is the number of
    event-queue entries processed (timers, actions, startup), ``reactions``
    the number of reaction bodies invoked."""

    last_tag: Tag
    events: int
    reactions: int
    duration_ns: int


class ReadyQueue:
    """Fixed-size buffer drained through a decrementing counter.

    ``pop`` consumes one counter value; a negative value means empty,
    otherwise it is the buffer index to read. The counter is an
    ``itertools.count``, whose ``next`` is a single C call and therefore
    atomic under the GIL, so pops are wait-free and each slot is handed out
    exactly once per refill. Refilling is only legal while no worker can pop
    (the coordinator moment between levels).
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._buf: list = []
        self._counter = itertools.count(-1, -1)

    def refill(self, items: list) -> None:
        if len(items) > self.capacity:
            raise ValueError(f"ready queue capacity {self.capacity} exceeded: {len(items)}")
        self._buf = items
        self._counter = itertools.count(len(items) - 1, -1)

    def pop(self):
        i = next(self._counter)
        if i < 0:
            return None
        return self._buf[i]


class ReactionContext:
    """One reaction's view of the runtime, built once with its Environment
    and handed to every invocation of the reaction's body; valid only for
    the duration of that call. What the body makes present, schedules or
    raises is logged here and folded at the level barrier."""

    __slots__ = ("_rt", "_reaction", "_triggers", "_effects", "tag", "state", "_set_log",
                 "_fx_log", "_sched_log", "_ev_log", "_rx", "_exc")

    def __init__(self, rt, reaction):
        self._rt = rt
        self._reaction = reaction
        # the declared ports, timers and actions, as triggers and as
        # effects, mapped to their first slot
        self._triggers = {t: t.base for t in reaction.triggers
                          if isinstance(t, (Port, Timer, Action))}
        self._effects = {e: e.base for e in reaction.effects}
        self.tag = None  # the running tag
        self.state = reaction.owner.state
        # Logs, each only where a declared effect can fill it: the channels
        # made present and the (tag, action, value) schedules, and when
        # traced, the text of each set ("label:digest") and of each schedule
        # ("label@time.microstep").
        tr = rt._tr
        sets = any(isinstance(e, Port) for e in reaction.effects)
        schedules = any(isinstance(e, Action) for e in reaction.effects)
        self._set_log: list[int] | None = [] if sets else None
        self._sched_log: list[tuple] | None = [] if schedules else None
        self._fx_log: list[str] | None = [] if sets and tr is not None else None
        self._ev_log: list[str] | None = [] if schedules and tr is not None else None
        # what follows the tag prefix in this reaction's trace lines
        self._rx = (tr.reaction_prefix(reaction.owner.name, reaction.index)
                    if tr is not None else None)
        self._exc: BaseException | None = None  # what the body raised

    def _slot(self, target, index, declared: dict, misuse: str) -> int:
        """Slot of one channel of a port, or of a timer or an action (one
        slot each), that is a key of ``declared``: this reaction's map from
        each declared trigger or effect to its first slot."""
        if isinstance(target, PortChannel):
            target, index = target.port, target.index
        try:
            base = declared[target]
        except (KeyError, TypeError):  # undeclared, or unhashable
            if not isinstance(target, (Port, Timer, Action)):
                raise ContractViolationError(
                    f"{self._reaction.label()}: {target!r} is not a port, timer or action"
                ) from None
            raise ContractViolationError(
                f"{self._reaction.label()} {misuse} {target.label()}") from None
        if index is None:
            if target.width != 1:
                raise ContractViolationError(
                    f"{self._reaction.label()}: {target.label()} is a multiport, "
                    "pass an index or a channel")
            return base
        if not 0 <= index < target.width:
            raise ContractViolationError(
                f"{self._reaction.label()}: index {index} out of range for {target.label()}")
        return base + index

    def set(self, target, value, index: int | None = None) -> None:
        """Make a declared output port present with ``value`` for the rest of
        the current tag. Within one body, the last write to a channel wins."""
        slot = self._slot(target, index, self._effects, "sets undeclared effect")
        rt = self._rt
        topo = rt.topology
        if slot >= topo.channel_count:
            raise ContractViolationError(f"{self._reaction.label()}: {target!r} is not a port")
        # One writer per channel and tag (an output's reactions never overlap,
        # an input has one source), so nothing here races.
        values, present, log = rt._value, rt._present, self._set_log
        values[slot] = value
        if not present[slot]:
            present[slot] = 1
            log.append(slot)
        for dst in topo.conn_targets[slot]:
            values[dst] = value
            if not present[dst]:
                present[dst] = 1
                log.append(dst)
        if self._fx_log is not None:
            self._fx_log.append(rt._slot_part[slot] + rt._tr.value_digest(value))

    def get(self, target, index: int | None = None):
        """Value of a declared trigger at the current tag, or None if absent."""
        return self._rt._value[self._slot(target, index, self._triggers,
                                          "reads undeclared trigger")]

    def is_present(self, target, index: int | None = None) -> bool:
        return bool(self._rt._present[self._slot(target, index, self._triggers,
                                                 "reads undeclared trigger")])

    def present(self, port: Port):
        """Iterate (index, value) over the channels of a declared multiport
        trigger that are present at this tag, in ascending index order. Cost
        is proportional to the number of present channels, not the width."""
        if not isinstance(port, Port):
            raise ContractViolationError(f"{self._reaction.label()}: {port!r} is not a port")
        base = self._slot(port, 0, self._triggers, "reads undeclared trigger")
        rt = self._rt
        for local in sorted(rt._touched.get(port.pid, ())):
            yield local, rt._value[base + local]

    def schedule(self, action: Action, value=None, delay: int = 0) -> Tag:
        """Enqueue an event on a declared logical action at a strictly later
        tag: (now + delay, 0) for a positive total delay, otherwise the next
        microstep. Returns the assigned tag. The event reaches the queue when
        the current tag closes, and the later of two calls for one tag wins."""
        if not isinstance(action, Action) or action not in self._reaction.effects:
            label = action.label() if isinstance(action, Action) else repr(action)
            raise ContractViolationError(
                f"{self._reaction.label()} schedules undeclared action {label}")
        if type(delay) is not int:
            delay = as_time(delay, ContractViolationError, f"{self._reaction.label()}: delay")
        if delay < 0:
            raise ContractViolationError(f"{self._reaction.label()}: negative delay")
        total = checked_time_add(delay, action.min_delay)
        cur = self.tag
        if total > 0:
            g = Tag(checked_time_add(cur.time, total), 0)
        else:
            g = Tag(cur.time, cur.microstep + 1)
        self._sched_log.append((g, action, value))
        if self._ev_log is not None:
            self._ev_log.append(self._rt._slot_part[action.base] % g)
        return g

    def request_stop(self) -> None:
        self._rt.request_stop()

    def elapsed_physical_ns(self) -> int:
        """Physical nanoseconds since this run's logical epoch."""
        return self._rt._now()


class Environment:
    """One executable composition: topology, precedence graph, run config and
    the runtime state of its single run.

    An Environment runs exactly once. ``schedule_physical`` and
    ``request_stop`` are safe to call from any thread; all other methods
    belong to the building/owning thread.
    """

    def __init__(self, topology: ReactorTopology, workers: int = 1, fast: bool = False,
                 stop_time: int | None = None, trace: bool = False):
        try:
            workers = operator.index(workers)
        except TypeError:
            raise ValueError(f"workers must be an integer, got {workers!r}") from None
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if stop_time is not None:
            stop_time = as_time(stop_time, ValueError, "stop_time")
            if stop_time < 0:
                raise ValueError("stop_time must be a non-negative nanosecond value")
        self.topology = topology
        self.apg = build_precedence_graph(topology)
        self.workers = workers
        self.fast = fast
        self.stop_time = stop_time
        self.trace = None  # populated after a traced run
        self.started = threading.Event()

        # Per-tag state of every slot (port channels, then timers and
        # actions); a value is None wherever its presence byte is 0.
        self._value: list = [None] * topology.slot_count
        self._present = bytearray(topology.slot_count)
        # written only at the coordinator moment: the present slots, and the
        # present channels of each port touched in this tag
        self._live: list[int] = []
        self._touched: dict[int, list[int]] = {}

        # The one lock. It guards the event heap and map, the run-once flag,
        # the stop tag and the tag it is derived from, the failure and the end
        # of the run.
        self._evlock = threading.Lock()
        self._evcv = threading.Condition(self._evlock)
        self._ran = False
        self._event_heap: list[Tag] = []  # microstep-0 tags only
        self._event_map: dict[Tag, dict] = {}
        self._schedules: list[tuple] = []  # this tag's, enqueued by the tag advance
        self._micro: dict = {}  # the next microstep's events, coordinator only

        # one bucket per level: its staged rids, each once, in staging order
        self._levels: list[dict[int, None]] = [{} for _ in range(self.apg.num_levels)]
        self._current_level = -1
        self._bucket: dict[int, None] = {}  # the level that ran last, folded next

        self._ready = ReadyQueue(max_level_width(self.apg))
        self._pending = itertools.count(-1, -1)
        self._sem = threading.Semaphore(0)

        # None until the first tag is selected; the run ends after the stop tag
        self._current_tag: Tag | None = None
        self._stop_tag: Tag | None = Tag(stop_time, 0) if stop_time is not None else None
        self._terminated = False
        self._failure: tuple | None = None

        self._events_processed = 0
        self._reactions_run = 0
        self._epoch = 0

        # Traced runs only: the trace module, which owns the line format, the
        # run's canonical lines so far, and the parts they are composed of:
        # the running tag's prefix and each slot's part; and each reaction's
        # rank in the canonical order of one tag's lines.
        self._tr = None
        self._lines: list[str] | None = None
        if trace:
            from . import trace as tr  # an untraced run never loads it
            self._tr = tr
            self._lines = []
            self._tag_prefix = ""
            self._slot_part = tr.slot_parts(topology)
            self._rank = tr.canonical_ranks(topology)
        self._ctxs = [ReactionContext(self, r) for r in topology.reactions]  # by rid

    def _now(self) -> int:
        return time.monotonic_ns() - self._epoch

    # -- event queue ------------------------------------------------------

    def _enqueue(self, tag: Tag, trigger, value) -> None:
        m = self._event_map.get(tag)
        if m is None:
            self._event_map[tag] = m = {}
            heapq.heappush(self._event_heap, tag)
        m[trigger] = value  # same (trigger, tag): the later call wins

    def schedule_physical(self, action: Action, value=None) -> Tag:
        """Enqueue an event on a physical action from any thread while the
        run is on.

        The event's tag derives from the physical clock but is always
        strictly after the tag currently being processed.
        """
        if not action.physical:
            raise ContractViolationError(
                f"{action.label()} is a logical action; schedule it from a reaction body")
        with self._evcv:
            if not self.started.is_set() or self._terminated:
                raise ShutdownError(f"cannot schedule {action.label()}: environment is not running")
            ct = self._current_tag
            g = Tag(max(self._now(), ct.time + 1 if ct is not None else 0), 0)
            self._enqueue(g, action, value)
            self._evcv.notify_all()
        return g

    def request_stop(self) -> None:
        """Ask the scheduler to finish the current tag, run shutdown
        reactions at the next microstep, and terminate; before the run, stop
        at (0, 0). The earliest stop tag wins, ``stop_time`` included, so
        this is idempotent."""
        with self._evcv:
            tag = self._next_stop_tag()
            if self._stop_tag is None or tag < self._stop_tag:
                self._stop_tag = tag
                self._evcv.notify_all()

    # -- tracing ----------------------------------------------------------

    def _trace_level(self, bucket: dict) -> None:
        """Append the canonical line of each reaction of the bucket that
        completed, in canonical order: levels are folded in ascending order,
        so sorting one level's reactions by their rank orders the tag's
        lines by (level, reactor path, index)."""
        ctxs, append = self._ctxs, self._lines.append
        tag, sep = self._tag_prefix, self._tr.SCHED
        for rid in sorted(bucket, key=self._rank.__getitem__) if len(bucket) > 1 else bucket:
            ctx = ctxs[rid]
            fx, ev = ctx._fx_log, ctx._ev_log
            if ctx._exc is None:  # a body that raised leaves no line
                append(tag + ctx._rx + (",".join(fx) if fx else "") + sep
                       + (",".join(ev) if ev else ""))
            if fx:
                fx.clear()
            if ev:
                ev.clear()

    # -- tag lifecycle ------------------------------------------------------

    def _next_stop_tag(self) -> Tag:
        ct = self._current_tag
        return Tag(ct.time, ct.microstep + 1) if ct is not None else Tag(0, 0)

    def _advance_and_stage(self) -> bool:
        """Enqueue the closed tag's logical schedules, select the next tag
        (waiting for physical time unless in fast mode) and stage its
        triggered reactions. False when execution is over.

        The event queue has two parts. ``_micro`` holds the events at the
        next microstep of the tag that just closed: an event at a microstep
        above 0 can only come from a zero-delay ``ctx.schedule`` in the tag
        just before it, so these events all share one tag. It precedes every
        other pending event, all of which are at a later time, and physical
        time has already passed it, so it is selected first and without a
        wait. ``_micro`` is a plain dict, written and consumed only here by
        the coordinator between tags, so it needs no heap and no lock of its
        own. Every other event (startup, a timer, a physical action, a
        schedule with a positive total delay) is at microstep 0 and goes to
        ``_event_heap``, with its triggers in ``_event_map``; other threads
        write these, so the lock is taken for them and the stop tag, once
        per advance."""
        topo, levels, level_of = self.topology, self._levels, self.apg.level
        micro = self._micro
        with self._evlock:
            for g, action, value in self._schedules:
                if g.microstep:
                    micro[action] = value  # same action: the later call wins
                    upnext = g
                else:
                    self._enqueue(g, action, value)
            self._schedules.clear()
            while True:
                ct = self._current_tag
                if (ct is not None and ct == self._stop_tag) or self._failure is not None:
                    return False  # shutdown has run, or (re-checked after a wait) a failure
                if micro:  # never beyond the stop tag, which is later than ct
                    g = upnext
                    trigmap = micro
                    break
                heap = self._event_heap
                g = heap[0] if heap else None
                if g is not None and self._stop_tag is not None and g > self._stop_tag:
                    g = None  # beyond the stop tag: dropped
                if g is None:
                    if self._stop_tag is None:
                        self._stop_tag = self._next_stop_tag()
                    g = self._stop_tag
                    trigmap = None
                    break
                if not self.fast:
                    now = self._now()
                    if now <= g.time:
                        self._evcv.wait((g.time - now + 1) / 1e9)
                        continue  # re-check: an earlier event may have arrived
                heapq.heappop(heap)
                trigmap = self._event_map.pop(g)
                for trigger in trigmap:
                    if isinstance(trigger, Timer) and trigger.period is not None:
                        self._enqueue(Tag(checked_time_add(g.time, trigger.period), 0),
                                      trigger, None)
                break
            self._current_tag = g
            shutdown_now = g == self._stop_tag

        if self._tr is not None:
            self._tag_prefix = self._tr.tag_prefix(g)
        self._current_level = -1
        if trigmap:
            self._events_processed += len(trigmap)
            values, present, live = self._value, self._present, self._live
            for trigger, value in trigmap.items():
                if trigger is not STARTUP:
                    slot = trigger.base
                    values[slot] = value
                    present[slot] = 1
                    live.append(slot)
                for rid in topo.trigger_reactions[trigger]:
                    levels[level_of[rid]][rid] = None
            trigmap.clear()  # consumed
        if shutdown_now:
            for rid in topo.trigger_reactions[SHUTDOWN]:
                levels[level_of[rid]][rid] = None
        return True

    # -- worker protocol ----------------------------------------------------

    def _coordinate(self) -> bool:
        """The tag loop. Runs on the last worker to finish a level (worker 0
        at startup) while every other worker is parked: folds the level that
        just ran, then runs or publishes the next non-empty level, or closes
        the tag and advances. A level no other worker could share, one
        reaction or a one-worker run, runs right here, so a one-worker run
        never leaves this loop; only a wider level is published to the ready
        queue. Runs and publishes nothing once a reaction has failed.
        Returns False once the run has terminated.

        The fold empties the bucket that ran: it traces each reaction that
        completed, records the channels its context made present and stages
        the reactions those ports trigger, collects its logical schedules for
        the tag advance, and records the failure of the first declared
        (lowest rid) reaction that raised. Bucket order cannot matter: a
        level holds at most one reaction per reactor, so no two contexts
        schedule the same action, and the trace puts a level's lines in
        canonical order itself."""
        topo = self.topology
        chan_owner, port_reactions, level_of = topo.chan_owner, topo.port_reactions, self.apg.level
        levels, nlevels = self._levels, len(self._levels)
        ctxs, touched, live, schedules = self._ctxs, self._touched, self._live, self._schedules
        values, present = self._value, self._present
        alone = self.workers == 1
        traced = self._tr is not None
        bucket = self._bucket
        while True:
            if bucket:  # fold the level that ran
                if traced:
                    self._trace_level(bucket)
                running = self._current_level
                failed = None
                for rid in bucket:
                    ctx = ctxs[rid]
                    log = ctx._set_log
                    if log:
                        for gid in log:
                            pid, local = chan_owner[gid]
                            chans = touched.get(pid)
                            if chans is None:
                                touched[pid] = chans = []
                                for r in port_reactions[pid]:
                                    lvl = level_of[r]
                                    if lvl <= running:
                                        raise RuntimeError(
                                            f"{topo.reactions[r].label()} staged at level {lvl}, "
                                            f"at or below the running level {running}")
                                    levels[lvl][r] = None
                            chans.append(local)
                        live += log
                        log.clear()
                    sched = ctx._sched_log
                    if sched:
                        schedules += sched
                        sched.clear()
                    if ctx._exc is not None and (failed is None or rid < failed):
                        failed = rid
                bucket.clear()
                if failed is not None:
                    ctx = ctxs[failed]
                    with self._evlock:  # an interrupt recorded by _terminate comes first
                        if self._failure is None:
                            self._failure = (ctx._reaction, ctx._exc)
            lvl = self._current_level + 1
            while lvl < nlevels and not levels[lvl]:
                lvl += 1
            if lvl < nlevels and self._failure is None:
                self._bucket = bucket = levels[lvl]  # emptied by its fold
                self._current_level = lvl
                count = len(bucket)
                self._reactions_run += count  # every reaction of a bucket runs
                if count == 1 or alone:
                    tag = self._current_tag
                    for rid in reversed(bucket):  # the order the ready queue pops
                        ctx = ctxs[rid]
                        ctx.tag = tag
                        try:
                            ctx._reaction.body(ctx)
                        except BaseException as exc:  # recorded by the fold
                            ctx._exc = exc
                    continue
                self._pending = itertools.count(count - 1, -1)
                self._ready.refill(list(bucket))
                self._sem.release(min(count, self.workers) - 1)  # the coordinator drains too
                return True
            # close the tag: what it made present is absent in the next
            for slot in live:
                values[slot] = None
                present[slot] = 0
            live.clear()
            touched.clear()
            if not self._advance_and_stage():
                self._terminate()
                return False
            bucket = None  # the new tag's buckets are staged, none has run

    def _terminate(self, exc: BaseException | None = None) -> None:
        """End the run and release every parked worker; ``exc`` is a broken
        invariant or an interrupt."""
        with self._evcv:
            if exc is not None and self._failure is None:
                self._failure = (None, exc)
            self._terminated = True
            self._evcv.notify_all()
        self._sem.release(self.workers)

    def _execute(self, rid: int) -> None:
        ctx = self._ctxs[rid]
        ctx.tag = self._current_tag
        try:
            ctx._reaction.body(ctx)
        except BaseException as exc:  # recorded by the fold, like the body's other effects
            ctx._exc = exc

    def _drain(self) -> bool:
        while True:
            rid = self._ready.pop()
            if rid is None:
                return True  # level exhausted from this worker's view: park
            self._execute(rid)
            if next(self._pending) == 0:
                if not self._coordinate():
                    return False

    def _worker_loop(self, first: bool = False) -> None:
        """The ``first`` worker is the calling thread: it coordinates first,
        and at one worker it never parks. The others start parked."""
        try:
            if first and not (self._coordinate() and self._drain()):
                return
            while True:
                self._sem.acquire()
                if self._terminated or not self._drain():
                    return
        except BaseException as exc:  # broken invariant or interrupt: do not hang;
            self._terminate(exc)      # run() raises it once every worker is joined

    def run(self) -> TerminationReport:
        """Execute to completion, once.

        Processes startup, then all events in tag order until the queue
        empties or the stop tag is reached, fires shutdown reactions at the
        stop tag, and returns exact execution counts. A reaction failure
        aborts the run at the end of its level and is re-raised as
        ExecutionError naming, of the reactions that failed in that level,
        the one declared first; an interrupt is re-raised as is. Either is
        raised once every worker thread has been joined.
        """
        with self._evlock:
            if self._ran:
                raise RuntimeError("an Environment runs exactly once; build a fresh one")
            self._ran = True
        topo = self.topology
        self._epoch = time.monotonic_ns()
        if topo.trigger_reactions[STARTUP]:
            self._enqueue(Tag(0, 0), STARTUP, None)
        for timer in topo.timers:
            if topo.trigger_reactions[timer]:
                self._enqueue(Tag(timer.offset, 0), timer, None)

        threads = [threading.Thread(target=self._worker_loop,
                                    name=f"detreact-worker-{w}", daemon=True)
                   for w in range(1, self.workers)]
        for t in threads:
            t.start()
        self.started.set()

        t0 = time.perf_counter_ns()
        try:
            self._worker_loop(first=True)
        finally:
            for t in threads:
                t.join()
        duration = time.perf_counter_ns() - t0

        if self._tr is not None:
            self.trace = self._tr.Trace(
                header={"program": topo.name, "workers": self.workers},
                lines=tuple(self._lines),
                levels={ctx._rx: ctx._reaction.level for ctx in self._ctxs})
        if self._failure is not None:
            reaction, exc = self._failure
            if not isinstance(exc, Exception):
                raise exc  # an interrupt or exit is not a reaction failure
            where = reaction.label() if reaction is not None else "scheduler"
            raise ExecutionError(f"reaction {where} failed: {exc!r}") from exc
        return TerminationReport(
            last_tag=self._current_tag,
            events=self._events_processed,
            reactions=self._reactions_run,
            duration_ns=duration)

