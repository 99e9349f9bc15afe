"""Tag-ordered multi-worker execution.

An :class:`Environment` is the runtime: one object owns the run config, the
run-once lifecycle, the stop tag and all per-run state. It processes events
strictly in tag order. For each tag it stages every triggered reaction into
its level's bucket, then runs the levels in ascending order: the triggered
reactions of one level may execute on any worker in parallel; no reaction of
level k starts before every triggered reaction below k has completed, and no
reaction of a later tag starts before the whole tag is done.

Every trigger owns slots of a dense value array and presence bytearray, the
whole per-tag state a reaction reads, from its ``base`` on: startup and
shutdown slots 0 and 1, a port one per channel. The slot is the only name
the run gives a trigger: events are keyed by slot, and a slot's fan-out is
``topology.slot_reactions[slot]``. An output channel's slot holds no value,
since no reaction can read an output: a set reaches the input channels it
feeds. Each reaction owns one :class:`ReactionContext`, built with the
Environment. Its three tables are the only record of what the body may
touch: ``_reads`` and ``_writes`` map each declared trigger and output
channel to its slot, and ``_delays`` each declared logical action to its
min_delay. A ``ctx`` call is one hit in one table; a miss goes to the cold
``_miss``, which accepts an index-like integer or names the misuse. The
context logs what the body sets, schedules and raises, and holds its body
and its level's bucket, so staging is one store and the tag loop reads no
level table; the build checks that a set's readers sit above it.

The calling thread is worker 0 and ``workers - 1`` threads join it; each
runs ``_worker_loop`` until ``_terminated`` is set, running the published
level's next reaction or parking when none is left. A body writes only its
own context, and the fold applies and digests its sets: the worker that
finishes a level's last reaction becomes the coordinator while every other
worker is parked, and it alone writes the per-tag arrays and run state. It
folds the contexts of the level that just ran, in one loop that writes each
set value to the input channels it feeds, stages the reactions they trigger,
collects the logical schedules for the tag advance, appends the parts of the
trace line of each completed reaction to the run's one list (in canonical
order, when traced; the run joins the list once, into the trace's text) and
records the failure of the first declared reaction that raised; then it goes
on to the next level, or ends the tag and advances logical time, in the same
loop. It runs a level itself when no other worker could share it (one
reaction, or one worker); only a wider level is published to the ready
queue, so a one-worker run is one call of ``_coordinate`` on the calling
thread, with no call per tag, that touches neither the queue nor a semaphore.

The event queue has two parts. An event at a microstep above 0 can only come
from a zero-delay ``ctx.schedule`` in the tag just before it, so all of them
share one tag; the tag advance moves them into ``_micro``, a plain dict. It
precedes every other pending event, all of which are at a later time, and
physical time has already passed it, so it is selected first and without a
wait; written and consumed only by the coordinator between tags, it needs no
heap and no lock of its own. Every other event (startup, a timer, a delayed
schedule, a physical action) is at microstep 0 and goes to ``_event_heap``,
with its slots and values in ``_event_map``; every event, whatever its
trigger, is staged by the same loop. The one lock, the condition ``_evlock``,
guards what other threads touch (the event heap, the stop tag, the run-once
flag, the end of the run) and the tag advance that reads it; ``_micro`` is
the coordinator's alone, and the fold takes the lock only for a failure.

In normal mode, a tag with time value t, the stop tag included, is not
processed before the physical clock passes t (logical time chases physical
time); fast mode skips the waiting and is what benchmarks use.
"""

from __future__ import annotations

import heapq
import itertools
import operator
import threading
import time
from typing import NamedTuple

from .core import (SHUTDOWN, STARTUP, Action, Port, PortChannel, ReactorTopology, Tag,
                   Trigger, as_time, checked_time_add)
from .errors import ContractViolationError, ExecutionError, ShutdownError
from .graph import build_precedence_graph, max_level_width


_new_tuple = tuple.__new__  # makes the successor tag without Tag's Python-level __new__
_by_rank = operator.attrgetter("_rank")


class TerminationReport(NamedTuple):
    """Outcome of one run. Counts are exact: ``events`` is the number of
    event-queue entries processed (timers, actions, startup), ``reactions``
    the number of reaction bodies invoked."""

    last_tag: Tag
    events: int
    reactions: int
    duration_ns: int


class ReadyQueue:
    """Fixed-size buffer of a published level's reaction contexts, drained
    through a decrementing counter.

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
    valid only during that call. What the body sets, schedules or raises is
    logged here, the body's only writes, and folded at the level barrier."""

    __slots__ = ("_rt", "_reaction", "_body", "_bucket", "_value", "_present",
                 "_reads", "_writes", "_delays", "state",
                 "_set_log", "_sched_log", "_rx", "_rank", "_exc")

    def __init__(self, rt, reaction):
        self._rt = rt
        self._reaction = reaction
        # objects the Environment holds: the level's bucket, and what get reads
        self._body = reaction.body
        self._bucket = rt._levels[rt.apg.level[reaction.rid]]
        self._value, self._present = rt._value, rt._present
        # What the body may touch, the only record of it: each declared trigger
        # and output channel's slot, and each declared action's min_delay.
        self._reads = _channel_slots(t for t in reaction.triggers if t.owner is not None)
        self._writes = _channel_slots(e for e in reaction.effects if isinstance(e, Port))
        self._delays = {e: e.min_delay for e in reaction.effects if isinstance(e, Action)}
        self.state = reaction.owner.state
        # Logs, each a list only where a declared effect can fill it: the
        # (output slot, value) sets and the (tag, action slot, value) schedules.
        self._set_log: list[tuple] | tuple = [] if self._writes else ()
        self._sched_log: list[tuple] | tuple = [] if self._delays else ()
        tr = rt._tr
        # what follows the tag prefix in this reaction's trace lines
        self._rx = (tr.reaction_prefix(reaction.owner.name, reaction.index)
                    if tr is not None else None)
        self._rank = rt._rank[reaction.rid] if tr is not None else None  # a traced fold's sort key
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
            if index is not None:
                raise ContractViolationError(
                    f"{label}: {target.label()} is a channel, pass no index")
            target, index = target.port, target.index
        if not isinstance(target, Trigger) or target.owner is None:  # STARTUP, SHUTDOWN
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
        """Log ``value`` for a declared output channel: the fold makes the
        inputs it feeds present with it for the rest of the current tag, and
        the output holds no value. Within one body, the last write wins."""
        # 1.0 hashes like 1: any other index takes the key None, which no table has
        key = target if index is None else (target, index) if type(index) is int else None
        try:
            slot = self._writes[key]
        except (KeyError, TypeError):  # a miss, or an unhashable target
            slot = self._miss(target, index, self._writes, "sets undeclared effect")
        self._set_log.append((slot, value))

    def get(self, target, index: int | None = None):
        """Value of a declared trigger at the current tag, or None if absent."""
        key = target if index is None else (target, index) if type(index) is int else None
        try:
            slot = self._reads[key]
        except (KeyError, TypeError):
            slot = self._miss(target, index, self._reads, "reads undeclared trigger")
        return self._value[slot]

    def is_present(self, target, index: int | None = None) -> bool:
        key = target if index is None else (target, index) if type(index) is int else None
        try:
            slot = self._reads[key]
        except (KeyError, TypeError):
            slot = self._miss(target, index, self._reads, "reads undeclared trigger")
        return bool(self._present[slot])

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
        return _present_channels(self._present, self._value, base, base + port.width)

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
        self._sched_log.append((g, action.base, value))
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
        self.trace = None  # populated after a traced run
        self.started = threading.Event()

        # Per-tag state of every slot (port channels, timers, actions, startup
        # and shutdown); a value is None wherever its presence byte is 0, as
        # at every output channel.
        self._value: list = [None] * len(topology.slot_reactions)
        self._present = bytearray(len(topology.slot_reactions))
        # the present slots, written only at the coordinator moment
        self._live: list[int] = []

        # The one lock, over a plain Lock (an RLock is slower). It guards the event heap
        # and map, the run-once flag, the stop tag, the failure and the end of the run.
        self._evlock = threading.Condition(threading.Lock())
        self._event_heap: list[Tag] = []  # microstep-0 tags only
        self._event_map: dict[Tag, dict[int, object]] = {}  # tag -> {slot: value}
        self._schedules: list[tuple] = []  # this tag's, enqueued by the tag advance
        self._micro: dict[int, object] = {}  # the next microstep's events, coordinator only
        self._periods = {t.base: t.period for t in topology.timers if t.period is not None}
        self._physical = frozenset(a for a in topology.actions if a.physical)

        # one bucket per level: its staged contexts, each once, in staging order
        self._levels: list[dict] = [{} for _ in range(self.apg.num_levels)]
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

        # Traced runs only: the trace module, which owns the line format; the
        # parts of the run's canonical lines so far, in one flat list that the
        # run joins once; the running tag's line start and each slot's part;
        # and each reaction's rank in the canonical order of one tag's lines.
        self._tr = None
        self._parts: list[str] | None = None
        if trace:
            from . import trace as tr  # an untraced run never loads it
            self._tr = tr
            self._parts = []
            self._tag_prefix = ""
            self._slot_part = tr.slot_parts(topology)
            self._rank = tr.canonical_ranks(self.apg)
        self._ctxs = [ReactionContext(self, r) for r in topology.reactions]  # by rid
        # The fold stages a set's readers unchecked: each sits above its writer's
        # level unless the graph misses a data edge, which is checked here, once.
        level_of, slot_reactions = self.apg.level, topology.slot_reactions
        for ctx in self._ctxs:
            running = level_of[ctx._reaction.rid]
            for slot in ctx._writes.values():
                for dst in topology.conn_targets[slot]:
                    for r in slot_reactions[dst]:
                        if level_of[r] <= running:
                            raise RuntimeError(
                                f"{topology.reactions[r].label()} staged at level "
                                f"{level_of[r]}, at or below the running level {running}")

    def _now(self) -> int:
        return time.monotonic_ns() - self._epoch

    # -- event queue ------------------------------------------------------

    def _enqueue(self, tag: Tag, slot: int, value) -> None:
        m = self._event_map.get(tag)
        if m is None:
            self._event_map[tag] = m = {}
            heapq.heappush(self._event_heap, tag)
        m[slot] = value  # same (slot, tag): the later call wins

    def schedule_physical(self, action: Action, value=None) -> Tag:
        """Enqueue an event on a physical action from any thread while the
        run is on.

        The event's tag derives from the physical clock but is always
        strictly after the tag currently being processed.
        """
        if action not in self._physical:  # a logical or another program's action, or none
            raise ContractViolationError(
                f"{action.label()} is a logical action; schedule it from a reaction body"
                if action in self.topology.actions else
                f"{action!r} is not a physical action of {self.topology.name}")
        with self._evlock:
            if not self.started.is_set() or self._terminated:
                raise ShutdownError(f"cannot schedule {action.label()}: environment is not running")
            ct = self._current_tag
            g = Tag(max(self._now(), ct.time + 1 if ct is not None else 0), 0)
            self._enqueue(g, action.base, value)
            self._evlock.notify_all()
        return g

    def request_stop(self) -> None:
        """Ask the scheduler to finish the current tag, run shutdown
        reactions at the next microstep, and terminate; before the run, stop
        at (0, 0). The earliest stop tag wins, ``stop_time`` included, so
        this is idempotent."""
        with self._evlock:
            if self._stop_tag is None or self._successor < self._stop_tag:
                self._stop_tag = self._successor
                self._evlock.notify_all()

    # -- worker protocol ----------------------------------------------------

    def _coordinate(self) -> None:
        """The tag loop, run by the worker that finishes a level's last
        reaction (worker 0 at startup) while every other worker is parked:
        folds the level that just ran, then runs or publishes the next
        non-empty level, or closes the tag and advances, inline. It runs a
        level itself when no other worker could share it (one reaction, or
        one worker), and returns when it publishes a wider one or the run
        ends. Runs and publishes nothing once a reaction has failed.

        The fold empties the bucket that ran, in one pass over its contexts:
        it writes each set value to the input channels it feeds, stages the
        readers of each channel it makes present (once each: a bucket is a
        dict), collects the logical schedules for the tag advance, in a
        traced run appends the parts of the line of each body that did not
        raise to the run's list (a set value with no digest fails its setter
        instead, and the parts of its line are cut back), and records the
        failure of the first declared (lowest rid) reaction that raised. A
        zero-delay schedule names the running tag's successor: the first one
        formats that tag's text and the tag advance reuses it as the next
        line start, so within one call a tag's text is formatted once.
        Bucket order cannot matter to the run: a level holds at most one
        reaction per reactor, so no two contexts write one input or schedule
        one action. A traced fold walks a wider bucket in rank order, and
        levels are folded in ascending order, so a tag's lines come in
        canonical order.

        The advance enqueues the closed tag's schedules, selects the next tag
        (waiting for physical time unless in fast mode) and stages it, taking
        the lock once; the module docstring describes the event queue."""
        slot_reactions, conn_targets = self.topology.slot_reactions, self.topology.conn_targets
        levels, nlevels = self._levels, len(self._levels)
        ctxs, live, schedules = self._ctxs, self._live, self._schedules
        values, present = self._value, self._present
        micro, periods, heap = self._micro, self._periods, self._event_heap
        lock, alone = self._evlock, self.workers == 1
        if traced := self._tr is not None:
            tr, parts, slot_part, prefix = self._tr, self._parts, self._slot_part, self._tag_prefix
            add, digest, tag_text = parts.append, tr.value_digest, tr.tag_text
            sep, sched_start, end, no_sched = tr.SEP, tr.SCHED, tr.END, tr.NO_SCHED
            succ, succ_text = self._successor, None  # and that tag's text, once formatted
        bucket = levels[self._current_level] if self._current_level >= 0 else None
        while True:
            if bucket:  # fold the level that ran
                failed = None
                for ctx in (sorted(bucket, key=_by_rank)
                            if traced and len(bucket) > 1 else bucket):
                    log, sched = ctx._set_log, ctx._sched_log
                    if traced and ctx._exc is None:  # a body that raised leaves no line
                        mark = len(parts)
                        try:  # appends only: a concatenation would allocate a str
                            add(prefix)
                            add(ctx._rx)
                            comma = False  # a separator goes before every later item
                            for slot, value in log:
                                if comma:
                                    add(sep)
                                add(slot_part[slot])
                                add(digest(value))
                                comma = True
                            if sched:
                                add(sched_start)
                                comma = False
                                for g, slot, _ in sched:
                                    if comma:
                                        add(sep)
                                    add(slot_part[slot])
                                    if g is succ:  # a zero-delay schedule
                                        if succ_text is None:
                                            succ_text = tag_text(g)
                                        add(succ_text)
                                    else:
                                        add(tag_text(g))
                                    comma = True
                                add(end)
                            else:
                                add(no_sched)
                        except BaseException as exc:  # no part of the line is kept
                            del parts[mark:]
                            if not isinstance(exc, Exception):
                                raise  # an interrupt ends the run
                            ctx._exc = exc  # a value with no digest fails its setter
                    if log:
                        for slot, value in log:
                            for dst in conn_targets[slot]:
                                values[dst] = value
                                if not present[dst]:
                                    present[dst] = 1
                                    live.append(dst)
                                    for r in slot_reactions[dst]:
                                        c = ctxs[r]
                                        c._bucket[c] = None  # above this level: checked at build
                        log.clear()
                    if sched:
                        schedules += sched
                        sched.clear()
                    if ctx._exc is not None and (
                            failed is None or ctx._reaction.rid < failed._reaction.rid):
                        failed = ctx
                bucket.clear()
                if failed is not None:
                    with self._evlock:  # an interrupt recorded by _terminate comes first
                        if self._failure is None:
                            self._failure = (failed._reaction, failed._exc)
            lvl = self._current_level + 1
            while lvl < nlevels and not levels[lvl]:
                lvl += 1
            if lvl < nlevels and self._failure is None:
                bucket = levels[lvl]  # emptied by its fold
                self._current_level = lvl
                count = len(bucket)
                self._reactions_run += count  # every reaction of a bucket runs
                if count == 1 or alone:
                    for ctx in reversed(bucket):  # the order the ready queue pops
                        try:
                            ctx._body(ctx)
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
            # advance: None once the run is over (a with on a Condition costs two Python calls)
            lock.acquire()
            try:
                for g, slot, value in schedules:
                    if g.microstep:
                        micro[slot] = value  # same action: the later call wins
                    else:
                        self._enqueue(g, slot, value)
                schedules.clear()
                while True:
                    ct = self._current_tag
                    if (ct is not None and ct == self._stop_tag) or self._failure is not None:
                        g = None  # shutdown has run, or (re-checked after a wait) a failure
                        break
                    if micro:  # never beyond the stop tag, which is later than ct
                        g = self._successor
                        trigmap = micro
                        break
                    g, stop = heap[0] if heap else None, self._stop_tag
                    queued = g is not None and (stop is None or g <= stop)
                    if not queued:  # nothing at or before the stop tag: shut down there
                        if stop is None:
                            self._stop_tag = stop = self._successor
                        g = stop
                    if not self.fast:
                        now = self._now()
                        if now <= g.time:
                            lock.wait((g.time - now + 1) / 1e9)
                            continue  # re-check: an earlier event or stop may have arrived
                    if not queued:
                        trigmap = None
                        break
                    heapq.heappop(heap)
                    trigmap = self._event_map.pop(g)
                    for slot in trigmap:
                        if slot in periods:  # a periodic timer
                            self._enqueue(Tag(checked_time_add(g.time, periods[slot]), 0),
                                          slot, None)
                    break
                if g is not None:
                    self._current_tag = g
                    self._successor = _new_tuple(Tag, (g.time, g.microstep + 1))
                    shutdown_now = g == self._stop_tag
            finally:
                lock.release()
            if g is None:
                self._terminate()
                return
            if traced:  # a tag that a zero-delay schedule named has its text
                text = succ_text if g is succ else None
                self._tag_prefix = prefix = tr.TAG + (text or tag_text(g))
                succ, succ_text = self._successor, None
            self._current_level = -1
            if trigmap:
                self._events_processed += len(trigmap)
                for slot, value in trigmap.items():
                    values[slot] = value
                    present[slot] = 1
                    live.append(slot)
                    for r in slot_reactions[slot]:
                        c = ctxs[r]
                        c._bucket[c] = None
                trigmap.clear()  # consumed
            if shutdown_now:  # not an event: nothing reads the shutdown slot
                for r in slot_reactions[SHUTDOWN.base]:
                    c = ctxs[r]
                    c._bucket[c] = None
            bucket = None  # the new tag's buckets are staged, none has run

    def _terminate(self, exc: BaseException | None = None) -> None:
        """End the run and release every other worker, which is parked or
        about to park; the caller leaves its loop without parking. ``exc``
        is a broken invariant or an interrupt."""
        with self._evlock:
            if exc is not None and self._failure is None:
                self._failure = (None, exc)
            self._terminated = True
            self._evlock.notify_all()
        if self.workers > 1:  # release(0) raises
            self._sem.release(self.workers - 1)

    def _worker_loop(self, first: bool = False) -> None:
        """The ``first`` worker is the calling thread: it coordinates first,
        and at one worker returns only once the run is over. The others park."""
        ready, sem = self._ready, self._sem
        try:
            if first:
                self._coordinate()
            else:
                sem.acquire()
            while not self._terminated:
                ctx = ready.pop()
                if ctx is None:  # level exhausted from this worker's view: park
                    sem.acquire()
                    continue
                try:
                    ctx._body(ctx)
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
            if topo.slot_reactions[STARTUP.base]:
                self._enqueue(Tag(0, 0), STARTUP.base, None)
            for timer in topo.timers:
                if topo.slot_reactions[timer.base]:
                    self._enqueue(Tag(timer.offset, 0), timer.base, None)
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
        if self._tr is not None:  # the one join of the run's text, timed with the run
            self.trace = self._tr.Trace("".join(self._parts))
            self._parts = None
        duration = time.perf_counter_ns() - t0

        # A context points back at its Environment; with the contexts dropped,
        # a finished run is freed by reference count.
        del self._ctxs, self._ready
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

