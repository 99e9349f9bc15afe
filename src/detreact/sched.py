"""Tag-ordered multi-worker execution.

An :class:`Environment` is the runtime: one object owns the run config, the
run-once lifecycle, the stop tag and all per-run state. It processes events
strictly in tag order. For each tag it stages every triggered reaction into
its level's bucket, then runs the levels in ascending order: the triggered
reactions of one level may execute on any worker in parallel; no reaction of
level k starts before every triggered reaction below k has completed, and no
reaction of a later tag starts before the whole tag is done.

Every port channel, timer and action owns one slot of a dense value array
and presence bytearray, the whole per-tag state a reaction reads or writes.
An output channel's slot holds no value, since no reaction can read an
output: a set writes the input channels it feeds. Each reaction owns one
:class:`ReactionContext`, built with the Environment. Its three tables are
the only record of what the body may touch: ``_reads`` and ``_writes`` map
each declared trigger and output channel to its slot, and ``_delays`` each
declared logical action to its min_delay. A ``ctx`` call is one hit in one
table; a miss goes to the cold ``_miss``, which accepts an index-like integer
or names the misuse. The context logs what the body makes present, schedules
and raises.

The calling thread is worker 0 and ``workers - 1`` threads join it; each
runs ``_worker_loop`` until ``_terminated`` is set, running the published
level's next reaction or parking when none is left. A body writes only its
own context and the input channels its sets feed (each has one writer per
tag). The worker that finishes a level's last reaction becomes the
coordinator while every other worker is parked, and it alone writes run
state: it folds the contexts of the level that just ran, in one loop that
records the input channels they made present, stages the reactions they
trigger, collects their logical schedules for the tag advance, writes the
trace line of each completed reaction (in canonical order, when traced) and
records the failure of the first declared reaction that raised; then
it goes on to the next level, or ends the tag and advances logical time. It
runs a level itself when no other worker could share it (one reaction, or
one worker); only a wider level is published to the ready queue, so a
one-worker run is a plain loop on the calling thread, in one call of
``_coordinate``, that touches neither the queue nor a semaphore.

The event queue has two parts. An event at a microstep above 0 can only come
from a zero-delay ``ctx.schedule`` in the tag just before it, so all of them
share one tag; the tag advance moves them into ``_micro``, a plain dict. It
precedes every other pending event, all of which are at a later time, and
physical time has already passed it, so it is selected first and without a
wait; written and consumed only by the coordinator between tags, it needs no
heap and no lock of its own. Every other event (startup, a timer, a delayed
schedule, a physical action) is at microstep 0 and goes to ``_event_heap``,
with its triggers in ``_event_map``. The one lock, ``_evlock``, guards what
other threads touch (the event heap, the stop tag, the run-once flag, the end
of the run) and the tag advance that reads it; ``_micro`` is the
coordinator's alone, and the fold takes the lock only to record a failure.

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


def _channel_slots(targets) -> dict:
    """Each channel's slot, keyed (target, i) and, at width 1, by the target."""
    table = {(t, i): t.base + i for t in targets for i in range(t.width)}
    return table | {t: slot for (t, _), slot in table.items() if t.width == 1}


def _present_channels(present: bytearray, values: list, base: int, end: int):
    i = present.find(1, base, end)
    while i >= 0:
        yield i - base, values[i]
        i = present.find(1, i + 1, end)


class ReactionContext:
    """One reaction's view of the runtime, built with its Environment and
    handed to every call of its body; all but ``tag``, the running tag, is
    valid only during that call. What the body makes present, schedules or
    raises is logged here and folded at the level barrier."""

    __slots__ = ("_rt", "_reaction", "_reads", "_writes", "_delays", "state",
                 "_set_log", "_fx_log", "_sched_log", "_rx", "_exc")

    def __init__(self, rt, reaction):
        self._rt = rt
        self._reaction = reaction
        # What the body may touch, the only record of it: each declared trigger
        # and output channel's slot, and each declared action's min_delay.
        self._reads = _channel_slots(t for t in reaction.triggers
                                     if isinstance(t, (Port, Timer, Action)))
        self._writes = _channel_slots(e for e in reaction.effects if isinstance(e, Port))
        self._delays = {e: e.min_delay for e in reaction.effects if isinstance(e, Action)}
        self.state = reaction.owner.state
        # Logs, each only where a declared effect can fill it: the input
        # channels made present, the (tag, action, value) schedules and,
        # when traced, the text of each set ("label:digest").
        tr = rt._tr
        self._set_log: list[int] | None = [] if self._writes else None
        self._sched_log: list[tuple] | None = [] if self._delays else None
        self._fx_log: list[str] | None = [] if self._writes and tr is not None else None
        # what follows the tag prefix in this reaction's trace lines
        self._rx = (tr.reaction_prefix(reaction.owner.name, reaction.index)
                    if tr is not None else None)
        self._exc: BaseException | None = None  # what the body raised

    @property
    def tag(self) -> Tag:
        """The running tag."""
        return self._rt._current_tag

    def _miss(self, target, index, table: dict, misuse: str) -> int:
        """Slot of an access that missed ``table`` only because its index is an
        integer of a type other than int (True, a numpy integer, any
        ``__index__`` type); any other miss is a misuse, raised and named."""
        label = self._reaction.label()
        if isinstance(target, PortChannel):
            target, index = target.port, target.index
        if not isinstance(target, (Port, Timer, Action)):
            raise ContractViolationError(f"{label}: {target!r} is not a port, timer or action")
        if (target, 0) not in table:
            if table is self._writes and target in self._delays:
                raise ContractViolationError(f"{label}: {target!r} is not a port")
            raise ContractViolationError(f"{label} {misuse} {target.label()}")
        if index is None:  # a declared target of width 1 is a key itself
            raise ContractViolationError(
                f"{label}: {target.label()} is a multiport, pass an index or a channel")
        try:
            index = operator.index(index)
        except TypeError:
            raise ContractViolationError(
                f"{label}: index {index!r} for {target.label()} is not an integer") from None
        if not 0 <= index < target.width:
            raise ContractViolationError(
                f"{label}: index {index} out of range for {target.label()}")
        return table[target, index]

    def set(self, target, value, index: int | None = None) -> None:
        """Make the inputs a declared output channel feeds present with
        ``value`` for the rest of the current tag; the output holds no value.
        Within one body, the last write to a channel wins."""
        # 1.0 hashes like 1: any other index takes the key None, which no table has
        key = target if index is None else (target, index) if type(index) is int else None
        try:
            slot = self._writes[key]
        except (KeyError, TypeError):  # a miss, or an unhashable target
            slot = self._miss(target, index, self._writes, "sets undeclared effect")
        rt = self._rt
        # An input has one source and an output's reactions never overlap, so
        # each input channel has one writer per tag and nothing here races.
        values, present, log = rt._value, rt._present, self._set_log
        for dst in rt.topology.conn_targets[slot]:
            values[dst] = value
            if not present[dst]:
                present[dst] = 1
                log.append(dst)
        if self._fx_log is not None:
            self._fx_log.append(rt._slot_part[slot] + rt._tr.value_digest(value))

    def get(self, target, index: int | None = None):
        """Value of a declared trigger at the current tag, or None if absent."""
        key = target if index is None else (target, index) if type(index) is int else None
        try:
            slot = self._reads[key]
        except (KeyError, TypeError):
            slot = self._miss(target, index, self._reads, "reads undeclared trigger")
        return self._rt._value[slot]

    def is_present(self, target, index: int | None = None) -> bool:
        key = target if index is None else (target, index) if type(index) is int else None
        try:
            slot = self._reads[key]
        except (KeyError, TypeError):
            slot = self._miss(target, index, self._reads, "reads undeclared trigger")
        return bool(self._rt._present[slot])

    def present(self, port: Port):
        """Iterate (index, value) over the channels of a declared multiport
        trigger that are present at this tag, in ascending index order. The
        port is checked at the call; the cost is one C scan of the port's
        presence bytes plus one step per present channel."""
        if not isinstance(port, Port):
            raise ContractViolationError(f"{self._reaction.label()}: {port!r} is not a port")
        try:
            base = self._reads[port, 0]
        except KeyError:
            base = self._miss(port, 0, self._reads, "reads undeclared trigger")
        return _present_channels(self._rt._present, self._rt._value, base, base + port.width)

    def schedule(self, action: Action, value=None, delay: int = 0) -> Tag:
        """Enqueue an event on a declared logical action at a strictly later
        tag: (now + delay, 0) for a positive total delay, otherwise the next
        microstep. Returns the assigned tag. The event reaches the queue when
        the current tag closes, and the later of two calls for one tag wins."""
        try:
            min_delay = self._delays[action]
        except (KeyError, TypeError):
            label = action.label() if isinstance(action, Action) else repr(action)
            raise ContractViolationError(
                f"{self._reaction.label()} schedules undeclared action {label}") from None
        if type(delay) is not int:
            delay = as_time(delay, ContractViolationError, f"{self._reaction.label()}: delay")
        if delay < 0:
            raise ContractViolationError(f"{self._reaction.label()}: negative delay")
        rt, total = self._rt, delay + min_delay  # one check: the running time is >= 0
        g = Tag(checked_time_add(rt._current_tag.time, total), 0) if total > 0 else rt._successor
        self._sched_log.append((g, action, value))
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
        # actions); a value is None wherever its presence byte is 0, as at
        # every output channel.
        self._value: list = [None] * topology.slot_count
        self._present = bytearray(topology.slot_count)
        # the present slots, written only at the coordinator moment
        self._live: list[int] = []

        # The one lock. It guards the event heap and map, the run-once flag,
        # the stop tag and the tag it is derived from, the failure and the end
        # of the run.
        self._evlock = threading.Lock()
        self._evcv = threading.Condition(self._evlock)
        self._event_heap: list[Tag] = []  # microstep-0 tags only
        self._event_map: dict[Tag, dict] = {}
        self._schedules: list[tuple] = []  # this tag's, enqueued by the tag advance
        self._micro: dict = {}  # the next microstep's events, coordinator only

        # one bucket per level: its staged rids, each once, in staging order
        self._levels: list[dict[int, None]] = [{} for _ in range(self.apg.num_levels)]
        self._current_level = -1  # the level that ran last, folded next

        self._ready = ReadyQueue(max_level_width(self.apg))
        self._pending = itertools.count(-1, -1)
        self._sem = threading.Semaphore(0)

        # None until the first tag is selected; the run ends after the stop tag
        self._current_tag: Tag | None = None
        self._successor = Tag(0, 0)  # the running tag's next microstep; before it, (0, 0)
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
            if self._stop_tag is None or self._successor < self._stop_tag:
                self._stop_tag = self._successor
                self._evcv.notify_all()

    # -- tag lifecycle ------------------------------------------------------

    def _advance_and_stage(self) -> bool:
        """Enqueue the closed tag's logical schedules, select the next tag
        (waiting for physical time unless in fast mode) and stage its
        triggered reactions. False when execution is over. The lock is taken
        once per advance; the module docstring describes the event queue."""
        topo, levels, level_of = self.topology, self._levels, self.apg.level
        micro = self._micro
        with self._evlock:
            for g, action, value in self._schedules:
                if g.microstep:
                    micro[action] = value  # same action: the later call wins
                else:
                    self._enqueue(g, action, value)
            self._schedules.clear()
            while True:
                ct = self._current_tag
                if (ct is not None and ct == self._stop_tag) or self._failure is not None:
                    return False  # shutdown has run, or (re-checked after a wait) a failure
                if micro:  # never beyond the stop tag, which is later than ct
                    g = self._successor
                    trigmap = micro
                    break
                heap = self._event_heap
                g = heap[0] if heap else None
                if g is not None and self._stop_tag is not None and g > self._stop_tag:
                    g = None  # beyond the stop tag: dropped
                if g is None:
                    if self._stop_tag is None:
                        self._stop_tag = self._successor
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
            self._successor = Tag(g.time, g.microstep + 1)
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

    def _coordinate(self) -> None:
        """The tag loop, run by the worker that finishes a level's last
        reaction (worker 0 at startup) while every other worker is parked:
        folds the level that just ran, then runs or publishes the next
        non-empty level, or closes the tag and advances. It runs a level
        itself when no other worker could share it (one reaction, or one
        worker), and returns when it publishes a wider one or the run ends.
        Runs and publishes nothing once a reaction has failed.

        The fold empties the bucket that ran, in one pass over its contexts:
        it records the input channels each made present and stages the
        reactions each one triggers (a reaction staged by several channels
        of a port is one key of its level's dict, so it runs once), collects
        its logical schedules for the tag advance, in a traced run appends
        its line unless its body raised, and records the failure of the
        first declared (lowest rid) reaction that raised. Bucket order
        cannot matter to the run: a level holds at most one reaction per
        reactor, so no two contexts schedule the same action. A traced fold
        walks a wider bucket in rank order, and levels are folded in
        ascending order, so a tag's lines come in canonical order."""
        topo = self.topology
        channel_reactions, level_of = topo.channel_reactions, self.apg.level
        levels, nlevels = self._levels, len(self._levels)
        ctxs, live, schedules = self._ctxs, self._live, self._schedules
        values, present = self._value, self._present
        alone = self.workers == 1
        if traced := self._tr is not None:
            rank, slot_part, lines, sep = self._rank, self._slot_part, self._lines, self._tr.SCHED
        bucket = levels[self._current_level] if self._current_level >= 0 else None
        while True:
            if bucket:  # fold the level that ran
                running = self._current_level
                failed = None
                for rid in (sorted(bucket, key=rank.__getitem__)
                            if traced and len(bucket) > 1 else bucket):
                    ctx = ctxs[rid]
                    log = ctx._set_log
                    if log:
                        for slot in log:
                            for r in channel_reactions[slot]:
                                lvl = level_of[r]
                                if lvl <= running:
                                    raise RuntimeError(
                                        f"{topo.reactions[r].label()} staged at level {lvl}, "
                                        f"at or below the running level {running}")
                                levels[lvl][r] = None
                        live += log
                        log.clear()
                    sched = ctx._sched_log
                    if traced:
                        fx = ctx._fx_log
                        if ctx._exc is None:  # a body that raised leaves no line
                            line = self._tag_prefix + ctx._rx + (",".join(fx) if fx else "") + sep
                            if sched:  # a loop: a comprehension would cost a call per line
                                comma = ""
                                for g, action, _ in sched:
                                    line += comma + slot_part[action.base] % g
                                    comma = ","
                            lines.append(line)
                        if fx:
                            fx.clear()
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
                bucket = levels[lvl]  # emptied by its fold
                self._current_level = lvl
                count = len(bucket)
                self._reactions_run += count  # every reaction of a bucket runs
                if count == 1 or alone:
                    for rid in reversed(bucket):  # the order the ready queue pops
                        ctx = ctxs[rid]
                        try:
                            ctx._reaction.body(ctx)
                        except BaseException as exc:  # recorded by the fold
                            ctx._exc = exc
                    continue
                self._pending = itertools.count(count - 1, -1)
                self._ready.refill(list(bucket))
                self._sem.release(min(count, self.workers) - 1)  # the coordinator drains too
                return
            # close the tag: what it made present is absent in the next
            for slot in live:
                values[slot] = None
                present[slot] = 0
            live.clear()
            if not self._advance_and_stage():
                self._terminate()
                return
            bucket = None  # the new tag's buckets are staged, none has run

    def _terminate(self, exc: BaseException | None = None) -> None:
        """End the run and release every other worker, which is parked or
        about to park; the caller leaves its loop without parking. ``exc``
        is a broken invariant or an interrupt."""
        with self._evcv:
            if exc is not None and self._failure is None:
                self._failure = (None, exc)
            self._terminated = True
            self._evcv.notify_all()
        if self.workers > 1:  # release(0) raises
            self._sem.release(self.workers - 1)

    def _worker_loop(self, first: bool = False) -> None:
        """The ``first`` worker is the calling thread: it coordinates first,
        and at one worker returns only once the run is over. The others park."""
        ctxs, ready, sem = self._ctxs, self._ready, self._sem
        try:
            if first:
                self._coordinate()
            else:
                sem.acquire()
            while not self._terminated:
                rid = ready.pop()
                if rid is None:  # level exhausted from this worker's view: park
                    sem.acquire()
                    continue
                ctx = ctxs[rid]
                try:
                    ctx._reaction.body(ctx)
                except BaseException as exc:  # recorded by the fold, like the body's other effects
                    ctx._exc = exc
                if next(self._pending) == 0:
                    self._coordinate()
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
        topo = self.topology
        with self._evlock:
            if self.started.is_set():
                raise RuntimeError("an Environment runs exactly once; build a fresh one")
            self._epoch = time.monotonic_ns()
            if topo.trigger_reactions[STARTUP]:
                self._enqueue(Tag(0, 0), STARTUP, None)
            for timer in topo.timers:
                if topo.trigger_reactions[timer]:
                    self._enqueue(Tag(timer.offset, 0), timer, None)
            self.started.set()

        threads = [threading.Thread(target=self._worker_loop,
                                    name=f"detreact-worker-{w}", daemon=True)
                   for w in range(1, self.workers)]
        for t in threads:
            t.start()

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

