"""Reactor composition: tags, ports, actions, timers, reactions, topologies.

A program is assembled through a :class:`Builder`: declare reactor instances,
give them ports, timers, actions and reactions, wire outputs to inputs, and
freeze the result into a :class:`ReactorTopology`. This module is composition
only; a :class:`detreact.sched.Environment` runs a topology.

Logical time is superdense: a :class:`Tag` is a (nanoseconds, microstep)
pair, totally ordered lexicographically. Delay-free scheduling advances the
microstep, so "the next available tag" is always well defined without
moving the clock.
"""

from __future__ import annotations

import operator
from types import SimpleNamespace
from typing import Callable, NamedTuple

from .errors import CompositionError

NSEC = 1
USEC = 1_000
MSEC = 1_000_000
SEC = 1_000_000_000

TIME_MAX = 2**63 - 1


class Tag(NamedTuple):
    """A point on the logical timeline: nanoseconds since epoch + microstep."""

    time: int
    microstep: int = 0

    def __str__(self) -> str:
        return f"({self.time}, {self.microstep})"


def as_time(value, error: type[Exception], what: str) -> int:
    """Return ``value`` as an int: logical time is integer nanoseconds, so
    anything that is not an integer (numpy integers are) raises ``error``."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{what} must be integer nanoseconds, got {value!r}") from None


def checked_time_add(a: int, b: int) -> int:
    """Add two non-negative nanosecond values, rejecting 64-bit overflow."""
    total = a + b
    if total > TIME_MAX:
        raise CompositionError(f"time arithmetic overflows 64-bit nanoseconds: {a} + {b}")
    return total


class _BuiltinTrigger:
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:
        return self.name


#: Fires once when execution starts, at tag (0, 0).
STARTUP = _BuiltinTrigger("startup")
#: Fires once at the stop tag, after the final ordinary tag completes.
SHUTDOWN = _BuiltinTrigger("shutdown")


class Port:
    """A declared port. Multiports have ``width > 1``; ``port[i]`` addresses
    one channel."""

    __slots__ = ("owner", "pid", "name", "direction", "width", "base")

    def __init__(self, owner, pid, name, direction, width):
        self.owner = owner
        self.pid = pid
        self.name = name
        self.direction = direction  # "input" | "output"
        self.width = width
        self.base = -1  # global channel offset, assigned at build()

    @property
    def is_input(self) -> bool:
        return self.direction == "input"

    def __getitem__(self, index: int) -> "PortChannel":
        if not 0 <= index < self.width:
            raise IndexError(f"{self.label()} has width {self.width}, index {index} out of range")
        return PortChannel(self, index)

    def channels(self):
        return [PortChannel(self, i) for i in range(self.width)]

    def label(self) -> str:
        return f"{self.owner.name}.{self.name}"

    def __repr__(self) -> str:
        return f"<Port {self.label()} {self.direction} w={self.width}>"


class PortChannel(NamedTuple):
    """One channel of a (multi)port."""

    port: Port
    index: int

    def label(self) -> str:
        if self.port.width == 1:
            return self.port.label()
        return f"{self.port.label()}[{self.index}]"


class Timer:
    """Produces events at (offset, 0) and then every ``period`` thereafter.
    A timer without a period fires exactly once."""

    __slots__ = ("owner", "name", "offset", "period", "base")
    width = 1  # one slot

    def __init__(self, owner, name, offset, period):
        self.owner = owner
        self.name = name
        self.offset = offset
        self.period = period
        self.base = -1  # slot, assigned at build()

    def label(self) -> str:
        return f"{self.owner.name}.{self.name}"

    def __repr__(self) -> str:
        return f"<Timer {self.label()}>"


class Action:
    """A schedulable trigger. Logical actions are scheduled from reaction
    bodies relative to the current tag; physical actions are scheduled from
    arbitrary threads and receive a tag derived from the physical clock."""

    __slots__ = ("owner", "name", "physical", "min_delay", "base")
    width = 1  # one slot

    def __init__(self, owner, name, physical, min_delay):
        self.owner = owner
        self.name = name
        self.physical = physical
        self.min_delay = min_delay
        self.base = -1  # slot, assigned at build()

    def label(self) -> str:
        return f"{self.owner.name}.{self.name}"

    def __repr__(self) -> str:
        kind = "physical" if self.physical else "logical"
        return f"<Action {self.label()} {kind}>"


class Reaction:
    """A declared code block with explicit triggers and effects."""

    __slots__ = ("owner", "rid", "index", "triggers", "effects", "body", "level")

    def __init__(self, owner, rid, index, triggers, effects, body):
        self.owner = owner
        self.rid = rid  # dense id across the whole topology
        self.index = index  # 1-based lexical index within the reactor
        self.triggers = tuple(triggers)
        self.effects = frozenset(effects)
        self.body = body
        self.level = -1  # assigned by the precedence graph

    def label(self) -> str:
        return f"{self.owner.name}.{self.index}"

    def __repr__(self) -> str:
        return f"<Reaction {self.label()}>"


class ReactorInstance:
    """One reactor in a topology. Declaration methods return handles used to
    declare reactions and wire connections."""

    __slots__ = ("builder", "name", "state", "bank_index", "ports", "timers",
                 "actions", "reactions", "_names")

    def __init__(self, builder: "Builder", name: str):
        self.builder = builder
        self.name = name
        self.state = SimpleNamespace()
        self.bank_index: int | None = None
        self.ports: list[Port] = []
        self.timers: list[Timer] = []
        self.actions: list[Action] = []
        self.reactions: list[Reaction] = []
        self._names: set[str] = set()

    def _claim_name(self, name: str) -> None:
        if name in self._names:
            raise CompositionError(f"duplicate element name {name!r} in reactor {self.name!r}")
        self._names.add(name)

    def input(self, name: str, width: int = 1) -> Port:
        return self._port(name, "input", width)

    def output(self, name: str, width: int = 1) -> Port:
        return self._port(name, "output", width)

    def _port(self, name, direction, width) -> Port:
        self.builder._check_open()
        self._claim_name(name)
        if width < 1:
            raise CompositionError(f"port {self.name}.{name}: width must be >= 1, got {width}")
        port = Port(self, len(self.ports), name, direction, width)
        self.ports.append(port)
        return port

    def timer(self, name: str, offset: int = 0, period: int | None = None) -> Timer:
        self.builder._check_open()
        self._claim_name(name)
        offset = as_time(offset, CompositionError, f"timer {self.name}.{name}: offset")
        if period is not None:
            period = as_time(period, CompositionError, f"timer {self.name}.{name}: period")
        if offset < 0:
            raise CompositionError(f"timer {self.name}.{name}: negative offset")
        if period is not None and period <= 0:
            raise CompositionError(
                f"timer {self.name}.{name}: period must be positive (omit it for a one-shot timer)")
        checked_time_add(offset, period or 0)
        timer = Timer(self, name, offset, period)
        self.timers.append(timer)
        return timer

    def action(self, name: str, min_delay: int = 0) -> Action:
        """Declare a logical action."""
        return self._action(name, physical=False, min_delay=min_delay)

    def physical_action(self, name: str) -> Action:
        return self._action(name, physical=True, min_delay=0)

    def _action(self, name, physical, min_delay) -> Action:
        self.builder._check_open()
        self._claim_name(name)
        min_delay = as_time(min_delay, CompositionError, f"action {self.name}.{name}: min_delay")
        if min_delay < 0:
            raise CompositionError(f"action {self.name}.{name}: negative min_delay")
        action = Action(self, name, physical, min_delay)
        self.actions.append(action)
        return action

    def reaction(self, *triggers, effects=(), body: Callable | None = None):
        """Declare a reaction. Lexical priority follows declaration order.

        Usable directly (``r.reaction(t, effects=[p], body=fn)``) or as a
        decorator when ``body`` is omitted.
        """
        if body is None:
            def decorate(fn):
                self.reaction(*triggers, effects=effects, body=fn)
                return fn
            return decorate

        self.builder._check_open()
        if not triggers:
            raise CompositionError(f"reaction in {self.name!r} declares no triggers")
        for t in triggers:
            if isinstance(t, _BuiltinTrigger):
                continue
            if isinstance(t, Port):
                if not t.is_input or t.owner is not self:
                    raise CompositionError(
                        f"reaction in {self.name!r}: trigger {t.label()} is not an input of this reactor")
            elif isinstance(t, (Timer, Action)):
                if t.owner is not self:
                    raise CompositionError(
                        f"reaction in {self.name!r}: trigger {t.label()} belongs to another reactor")
            else:
                raise CompositionError(f"reaction in {self.name!r}: invalid trigger {t!r}")
        for e in effects:
            if isinstance(e, Port):
                if e.is_input or e.owner is not self:
                    raise CompositionError(
                        f"reaction in {self.name!r}: effect {e.label()} is not an output of this reactor")
            elif isinstance(e, Action):
                if e.owner is not self:
                    raise CompositionError(
                        f"reaction in {self.name!r}: effect {e.label()} belongs to another reactor")
                if e.physical:
                    raise CompositionError(
                        f"reaction in {self.name!r}: physical action {e.label()} is scheduled "
                        "through the environment, not as a reaction effect")
            else:
                raise CompositionError(f"reaction in {self.name!r}: invalid effect {e!r}")
        reaction = Reaction(self, -1, len(self.reactions) + 1, triggers, effects, body)
        self.reactions.append(reaction)
        return reaction


class ReactorTopology:
    """A frozen composition of reactors. Produced by :meth:`Builder.build`."""

    def __init__(self, name, instances, connections):
        self.name = name
        self.instances: tuple[ReactorInstance, ...] = tuple(instances)
        self.reactions: tuple[Reaction, ...] = tuple(
            r for inst in instances for r in inst.reactions)
        for rid, r in enumerate(self.reactions):
            r.rid = rid
        self.ports: tuple[Port, ...] = tuple(p for inst in instances for p in inst.ports)
        self.timers: tuple[Timer, ...] = tuple(t for inst in instances for t in inst.timers)
        self.actions: tuple[Action, ...] = tuple(a for inst in instances for a in inst.actions)

        # One dense slot space: every port channel, then one slot for each
        # timer and each action.
        base = 0
        chan_owner = []
        for gpid, p in enumerate(self.ports):
            p.pid = gpid
            p.base = base
            chan_owner.extend((gpid, i) for i in range(p.width))
            base += p.width
        self.channel_count = base
        self.chan_owner: tuple[tuple[int, int], ...] = tuple(chan_owner)
        for slot, t in enumerate(self.timers + self.actions, start=base):
            t.base = slot
        self.slot_count = base + len(self.timers) + len(self.actions)

        conn_targets: list[list[int]] = [[] for _ in range(self.channel_count)]
        for src, dst in connections:
            conn_targets[src.port.base + src.index].append(dst.port.base + dst.index)
        self.conn_targets = tuple(tuple(t) for t in conn_targets)
        self.connections = tuple(connections)

        # Trigger fan-out: port id -> reaction ids, and STARTUP, SHUTDOWN,
        # each timer and each action -> reaction ids.
        port_reactions: list[list[int]] = [[] for _ in self.ports]
        trigger_reactions: dict = {t: [] for t in (STARTUP, SHUTDOWN, *self.timers, *self.actions)}
        for r in self.reactions:
            for t in r.triggers:
                if isinstance(t, Port):
                    port_reactions[t.pid].append(r.rid)
                else:
                    trigger_reactions[t].append(r.rid)
        self.port_reactions = tuple(tuple(x) for x in port_reactions)
        self.trigger_reactions = {t: tuple(x) for t, x in trigger_reactions.items()}

    def stats(self) -> dict:
        return {
            "reactors": len(self.instances),
            "reactions": len(self.reactions),
            "connections": len(self.connections),
            "channels": self.channel_count,
        }


class Builder:
    """Mutable assembly surface for one topology. Single-threaded; frozen by
    :meth:`build`."""

    def __init__(self, name: str = "main"):
        self.name = name
        self._instances: list[ReactorInstance] = []
        self._instance_names: set[str] = set()
        self._connections: list[tuple[PortChannel, PortChannel]] = []
        self._writers: set[int] = set()  # (port id, channel) pairs already driven
        self._built = False

    def _check_open(self) -> None:
        if self._built:
            raise CompositionError("topology is frozen; no structural change after build()")

    def reactor(self, name: str) -> ReactorInstance:
        self._check_open()
        if name in self._instance_names:
            raise CompositionError(f"duplicate reactor name {name!r}")
        self._instance_names.add(name)
        inst = ReactorInstance(self, name)
        self._instances.append(inst)
        return inst

    def _connect_channels(self, src: PortChannel, dst: PortChannel) -> None:
        self._check_open()
        if src.port.owner.builder is not self or dst.port.owner.builder is not self:
            raise CompositionError("connection endpoints belong to a different topology")
        if src.port.is_input:
            raise CompositionError(
                f"connection source {src.label()} is an input (outputs feed inputs)")
        if not dst.port.is_input:
            raise CompositionError(
                f"connection target {dst.label()} is an output (outputs feed inputs)")
        key = (id(dst.port), dst.index)
        if key in self._writers:
            raise CompositionError(f"multiple writers: input {dst.label()} already has a connection")
        self._writers.add(key)
        self._connections.append((src, dst))

    def connect(self, src, dst) -> None:
        """Wire an output to an input, pairwise across equal widths.

        ``src``/``dst`` may be ports or single channels. Bank and broadcast
        wiring lives in :mod:`detreact.patterns`.
        """
        src_ch = [src] if isinstance(src, PortChannel) else src.channels()
        dst_ch = [dst] if isinstance(dst, PortChannel) else dst.channels()
        if len(src_ch) != len(dst_ch):
            raise CompositionError(
                f"width mismatch: {len(src_ch)} source channel(s) vs {len(dst_ch)} target channel(s)")
        for s, d in zip(src_ch, dst_ch):
            self._connect_channels(s, d)

    def build(self) -> ReactorTopology:
        self._check_open()
        self._built = True
        return ReactorTopology(self.name, self._instances, self._connections)


def build_topology(program: Callable[[Builder], None], name: str = "main") -> ReactorTopology:
    """Run a builder program and return the frozen topology."""
    b = Builder(name)
    program(b)
    return b.build()

