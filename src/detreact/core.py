"""Reactor composition: tags, ports, actions, timers, reactions, topologies.

A program is assembled through a :class:`Builder`: declare reactor instances,
give them ports, timers, actions and reactions, and freeze the result into a
:class:`ReactorTopology`. Wiring lives in :mod:`detreact.patterns`, whose
``connect`` is the one operator that connects outputs to inputs, from a
single channel up to banks of multiports; it records the channel pairs of
one call, all or none, through :meth:`Builder._connect_channels`. This
module is composition only; a :class:`detreact.sched.Environment` runs a
topology.

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


def _as_width(value, what: str) -> int:
    """Return ``value`` as the width of a port or a bank: an integer of at
    least 1, else a CompositionError naming ``what``."""
    try:
        width = operator.index(value)
    except TypeError:
        raise CompositionError(f"{what}: width must be an integer, got {value!r}") from None
    if width < 1:
        raise CompositionError(f"{what}: width must be >= 1, got {width}")
    return width


def _check_str(name, what: str) -> None:
    if not isinstance(name, str):
        raise CompositionError(f"{what} {name!r} is not a str")


def _check_name(name: str, what: str) -> None:
    """Refuse a name that is not a ``str``, or that a trace line cannot
    carry: one holding a line break (anywhere ``str.splitlines`` splits),
    ``,``, `` FX=`` or `` SCHED=``."""
    _check_str(name, what)
    if "".join(name.splitlines()) != name or any(s in name for s in (",", " FX=", " SCHED=")):
        raise CompositionError(f"{what} {name!r} holds a separator of the trace line format")


def checked_time_add(a: int, b: int) -> int:
    """Add two non-negative nanosecond values, rejecting 64-bit overflow."""
    total = a + b
    if total > TIME_MAX:
        raise CompositionError(f"time arithmetic overflows 64-bit nanoseconds: {a} + {b}")
    return total


class Trigger:
    """What a reaction can be triggered by: a port, timer or action of its
    reactor, or the owner-less STARTUP or SHUTDOWN. It owns ``width`` slots of
    its topology, from ``base`` on."""

    __slots__ = ("owner", "name", "width", "base")

    def __init__(self, owner, name, width=1, base=-1):
        self.owner = owner
        self.name = name
        self.width = width
        self.base = base  # first slot: assigned at build(), fixed for the built-ins

    def label(self) -> str:
        return f"{self.owner.name}.{self.name}"

    def __repr__(self) -> str:
        return self.name


#: Fires once when execution starts, at tag (0, 0); slot 0 of every topology.
STARTUP = Trigger(None, "startup", base=0)
#: Fires once at the stop tag, after the final ordinary tag completes; slot 1.
SHUTDOWN = Trigger(None, "shutdown", base=1)


class Port(Trigger):
    """A declared port. Multiports have ``width > 1``; ``port[i]`` addresses
    one channel."""

    __slots__ = ("is_input",)

    def __init__(self, owner, name, is_input, width):
        super().__init__(owner, name, width)
        self.is_input = is_input

    def __getitem__(self, index: int) -> "PortChannel":
        try:
            index = operator.index(index)
        except TypeError:
            raise TypeError(
                f"{self.label()}: channel index must be an integer, got {index!r}") from None
        if not 0 <= index < self.width:
            raise IndexError(f"{self.label()} has width {self.width}, index {index} out of range")
        return PortChannel(self, index)

    def __repr__(self) -> str:
        return f"<Port {self.label()} {'input' if self.is_input else 'output'} w={self.width}>"


class PortChannel(NamedTuple):
    """One channel of a (multi)port."""

    port: Port
    index: int

    def label(self) -> str:
        if self.port.width == 1:
            return self.port.label()
        return f"{self.port.label()}[{self.index}]"


class Timer(Trigger):
    """Produces events at (offset, 0) and then every ``period`` thereafter.
    A timer without a period fires exactly once."""

    __slots__ = ("offset", "period")

    def __init__(self, owner, name, offset, period):
        super().__init__(owner, name)
        self.offset = offset
        self.period = period

    def __repr__(self) -> str:
        return f"<Timer {self.label()}>"


class Action(Trigger):
    """A schedulable trigger. Logical actions are scheduled from reaction
    bodies relative to the current tag; physical actions are scheduled from
    arbitrary threads and receive a tag derived from the physical clock."""

    __slots__ = ("physical", "min_delay")

    def __init__(self, owner, name, physical, min_delay):
        super().__init__(owner, name)
        self.physical = physical
        self.min_delay = min_delay

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
        self.level = -1  # the precedence graph's published copy; a run reads apg.level

    def label(self) -> str:
        return f"{self.owner.name}.{self.index}"

    def __repr__(self) -> str:
        return f"<Reaction {self.label()}>"


class ReactorInstance:
    """One reactor in a topology. Declaration methods return handles used to
    declare reactions and wire connections."""

    __slots__ = ("builder", "name", "state", "ports", "timers", "actions",
                 "reactions", "_names")

    def __init__(self, builder: "Builder", name: str):
        self.builder = builder
        self.name = name
        self.state = SimpleNamespace()
        self.ports: list[Port] = []
        self.timers: list[Timer] = []
        self.actions: list[Action] = []
        self.reactions: list[Reaction] = []
        self._names: set[str] = set()

    def _claim_name(self, name: str) -> None:
        _check_name(name, f"reactor {self.name!r}: element name")
        if name in self._names:
            raise CompositionError(f"duplicate element name {name!r} in reactor {self.name!r}")
        self._names.add(name)

    def input(self, name: str, width: int = 1) -> Port:
        return self._port(name, True, width)

    def output(self, name: str, width: int = 1) -> Port:
        return self._port(name, False, width)

    def _port(self, name, is_input, width) -> Port:
        self.builder._check_open()
        self._claim_name(name)
        width = _as_width(width, f"port {self.name}.{name}")
        port = Port(self, name, is_input, width)
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
        if not callable(body):
            raise CompositionError(f"reaction in {self.name!r}: body {body!r} is not callable")
        for t in triggers:
            if isinstance(t, Port):
                if not t.is_input or t.owner is not self:
                    raise CompositionError(
                        f"reaction in {self.name!r}: trigger {t.label()} is not an input of this reactor")
            elif isinstance(t, Trigger):
                if t.owner is not self and t.owner is not None:  # STARTUP, SHUTDOWN: no owner
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
    """A frozen composition of reactors, produced by :meth:`Builder.build`: the
    one record of the declarations (``ports``, ``timers``, ``actions``, ``reactions``)
    and slot tables (``slot_reactions``, ``conn_targets``: one entry per slot, so their
    length is the slot count); an instance keeps none, so none points back up."""

    def __init__(self, name, instances, sources):
        self.name = name
        self.instances: tuple[ReactorInstance, ...] = tuple(instances)
        self.reactions: tuple[Reaction, ...] = tuple(
            r for inst in instances for r in inst.reactions)
        for rid, r in enumerate(self.reactions):
            r.rid = rid
        self.ports: tuple[Port, ...] = tuple(p for inst in instances for p in inst.ports)
        self.timers: tuple[Timer, ...] = tuple(t for inst in instances for t in inst.timers)
        self.actions: tuple[Action, ...] = tuple(a for inst in instances for a in inst.actions)
        for inst in self.instances:
            inst.ports = inst.timers = inst.actions = inst.reactions = ()

        # One dense slot space, the only name a run gives a trigger: slots 0 and
        # 1 for startup and shutdown, then every port channel and one slot for
        # each timer and each action. A per-slot table has one entry per slot:
        # the fan-out to reaction ids, shared by a port's channels, and the input
        # channels an output channel feeds, a shared () if none; its own slot holds no value.
        fanout: dict = {t: [] for t in (STARTUP, SHUTDOWN, *self.ports, *self.timers, *self.actions)}
        for r in self.reactions:
            for t in r.triggers:
                fanout[t].append(r.rid)
        slot_reactions: list[tuple[int, ...]] = []
        for t, rids in fanout.items():
            t.base = len(slot_reactions)  # the built-ins' own: 0 and 1
            slot_reactions += [tuple(rids)] * t.width
        self.slot_reactions = tuple(slot_reactions)

        feeds: dict[int, list[int]] = {}  # by source slot, in connect order
        for dst, src in sources.items():
            feeds.setdefault(src.port.base + src.index, []).append(dst.port.base + dst.index)
        conn_targets: list = [()] * len(slot_reactions)
        for slot, targets in feeds.items():
            conn_targets[slot] = tuple(targets)
        self.conn_targets = tuple(conn_targets)

    def stats(self) -> dict:
        return {
            "reactors": len(self.instances),
            "reactions": len(self.reactions),
            "connections": sum(map(len, self.conn_targets)),
            "channels": sum(p.width for p in self.ports),
        }


class Builder:
    """Mutable assembly surface for one topology. Single-threaded; frozen by
    :meth:`build`. Its ports are wired with :func:`detreact.patterns.connect`."""

    def __init__(self, name: str = "main"):
        _check_str(name, "builder name")
        self.name = name
        self._instances: dict[str, ReactorInstance] = {}  # by name
        self._sources: dict[PortChannel, PortChannel] = {}  # driven input -> its source
        self._built = False

    def _check_open(self) -> None:
        if self._built:
            raise CompositionError("topology is frozen; no structural change after build()")

    def reactor(self, name: str) -> ReactorInstance:
        self._check_open()
        _check_name(name, "reactor name")
        if name in self._instances:
            raise CompositionError(f"duplicate reactor name {name!r}")
        inst = self._instances[name] = ReactorInstance(self, name)
        return inst

    def _connect_channels(self, pairs: list[tuple[PortChannel, PortChannel]]) -> None:
        """Check output-to-input channel pairs and record them all, in order,
        or none: the one place a connection enters the topology."""
        self._check_open()
        new = {}
        for src, dst in pairs:
            if src.port.owner.builder is not self or dst.port.owner.builder is not self:
                raise CompositionError("connection endpoints belong to a different topology")
            if src.port.is_input:
                raise CompositionError(
                    f"connection source {src.label()} is an input (outputs feed inputs)")
            if not dst.port.is_input:
                raise CompositionError(
                    f"connection target {dst.label()} is an output (outputs feed inputs)")
            if dst in self._sources or dst in new:
                raise CompositionError(f"multiple writers: input {dst.label()} already has a connection")
            new[dst] = src
        self._sources.update(new)

    def build(self) -> ReactorTopology:
        self._check_open()
        self._built = True
        topology = ReactorTopology(self.name, self._instances.values(), self._sources)
        self._instances, self._sources = {}, {}  # handed over: instances point here
        return topology

