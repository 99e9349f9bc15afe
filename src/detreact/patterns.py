"""Wiring: the one connection operator, banks, unfolding, broadcast,
interleaving.

`connect` is the only way to wire outputs to inputs, as Lingua Franca's one
connection statement is. A bank is a statically sized array of structurally
identical reactors, each built by the same definition function and told its
own index; plain ports need no bank. `bank.port(name)` is a plain list of
ports, the members' ports of that name in bank order. `connect` works over
flat lists of port channels, which `unfold` produces from three kinds of
reference:

* a channel ``port[i]``, which is itself;
* a port or multiport, which is its channels in index order;
* a list or tuple of references, concatenated in the order given, so a bank
  port lists all channels of its first member, then all of the second, and
  so on (bank-major). This is also how a cascade is wired: offset the left
  side with the source and append the sink on the right.

`interleaved(ports)` is such a list: the channels of same-width ports
port-index-major (every port's channel 0, then every channel 1, ...), which
wires the fully connected pattern on one side of a self-connection.
"""

from __future__ import annotations

from typing import Callable

from .core import Builder, Port, PortChannel, ReactorInstance, _as_width
from .errors import CompositionError


class Bank:
    """Handle for a bank of reactor instances."""

    def __init__(self, name: str, members: list[ReactorInstance]):
        self.name = name
        self.members = members

    def __repr__(self) -> str:
        return f"<Bank {self.name} w={len(self.members)}>"

    def port(self, name: str) -> list[Port]:
        """The members' ports named ``name``, in bank order."""
        self.members[0].builder._check_open()  # built members hold no ports
        ports = [next((p for p in m.ports if p.name == name), None) for m in self.members]
        if None in ports:
            raise CompositionError(f"bank {self.name!r}: member has no port {name!r}")
        return ports


def bank(builder: Builder, name: str, width: int, define: Callable[..., None]) -> Bank:
    """Instantiate ``width`` reactors from one definition function.

    Members are named ``name[i]`` and ``define(instance, bank_index=i)``
    builds each one, so members can differentiate their behavior by index.
    """
    width = _as_width(width, f"bank {name!r}")
    members = []
    for i in range(width):
        inst = builder.reactor(f"{name}[{i}]")
        define(inst, bank_index=i)
        members.append(inst)
    return Bank(name, members)


def interleaved(ports) -> list[PortChannel]:
    """The channels of a list of ports of one width, port-index-major: every
    port's channel 0, then every channel 1, ...; one port or channel unchanged."""
    if isinstance(ports, (Port, PortChannel)):
        return unfold(ports)
    if not isinstance(ports, (list, tuple)) or not all(isinstance(p, Port) for p in ports):
        raise CompositionError(f"cannot interleave {ports!r}: expected a list of ports")
    for p in ports:
        if p.width != ports[0].width:
            raise CompositionError(
                f"cannot interleave ports of different widths: {ports[0].label()} "
                f"has {ports[0].width}, {p.label()} has {p.width}")
    return [PortChannel(p, c) for c in range(ports[0].width if ports else 0) for p in ports]


def unfold(ref) -> list[PortChannel]:
    """Flatten a reference into a concrete channel list: a PortChannel, a
    Port, or a list or tuple of references, concatenated in the order given."""
    if isinstance(ref, PortChannel):  # a NamedTuple: tested before tuple
        return [ref]
    if isinstance(ref, Port):
        return [PortChannel(ref, i) for i in range(ref.width)]
    if isinstance(ref, (list, tuple)):
        return [ch for r in ref for ch in unfold(r)]
    raise CompositionError(f"cannot unfold {ref!r}")


def connect(lhs, rhs, broadcast: bool = False) -> list[tuple[PortChannel, PortChannel]]:
    """Wire unfolded ``lhs`` outputs to ``rhs`` inputs: the one wiring
    operator. Each side is anything :func:`unfold` takes.

    Pairwise by default, which requires equal widths. With ``broadcast`` the
    left side repeats cyclically until the right side is covered, so the
    right width must be a multiple of the left width. Width mismatches are
    hard errors, never truncation. A failing call records no pair. Returns
    the created channel pairs.
    """
    left = unfold(lhs)
    right = unfold(rhs)
    if not left or not right:
        raise CompositionError("connect: empty side")
    if broadcast:
        if len(right) % len(left) != 0:
            raise CompositionError(
                f"broadcast width mismatch: {len(right)} targets is not a "
                f"multiple of {len(left)} sources")
        pairs = [(left[k % len(left)], right[k]) for k in range(len(right))]
    else:
        if len(left) != len(right):
            raise CompositionError(
                f"width mismatch: {len(left)} source channels vs {len(right)} target channels")
        pairs = list(zip(left, right))
    left[0].port.owner.builder._connect_channels(pairs)
    return pairs
