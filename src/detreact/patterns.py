"""Wiring: the one connection operator, banks, unfolding, broadcast,
interleaving.

`connect` is the only way to wire outputs to inputs, as Lingua Franca's one
connection statement is: a single channel, a port or multiport, a bank port,
a list of these, broadcast and interleaved. A bank is a statically sized
array of structurally identical reactors, each built by the same definition
function and told its own index; plain ports need no bank. `connect` works
over flat lists of port channels, which `unfold` produces from ports, bank
ports, or mixes of both:

* default order lists all channels of the first bank member, then all of the
  second, and so on (bank-major);
* `Interleaved(...)` flips that to port-index-major: first every member's
  channel 0, then every member's channel 1, ... which wires the fully
  connected pattern when used on one side of a self-connection.

Several references in one `unfold` call concatenate in the order given,
which is how a cascade is wired: offset the left side with the source and
append the sink on the right.
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

    def port(self, name: str) -> "BankPort":
        self.members[0].builder._check_open()  # built members hold no ports
        ports = []
        for m in self.members:
            match = [p for p in m.ports if p.name == name]
            if not match:
                raise CompositionError(f"bank {self.name!r}: member has no port {name!r}")
            ports.append(match[0])
        return BankPort(self, name, ports)


class BankPort:
    """The same-named port across every member of a bank."""

    def __init__(self, bank: Bank, name: str, ports: list[Port]):
        self.bank = bank
        self.name = name
        self.ports = ports


class Interleaved:
    """Marks one reference for port-index-major unfolding."""

    def __init__(self, ref):
        self.ref = ref


def bank(builder: Builder, name: str, width: int,
         define: Callable[..., None], **params) -> Bank:
    """Instantiate ``width`` reactors from one definition function.

    Members are named ``name[i]`` and ``define(instance, bank_index=i,
    **params)`` builds each one, so members can differentiate their behavior
    by index.
    """
    width = _as_width(width, f"bank {name!r}")
    members = []
    for i in range(width):
        inst = builder.reactor(f"{name}[{i}]")
        inst.bank_index = i
        define(inst, bank_index=i, **params)
        members.append(inst)
    return Bank(name, members)


def _ref_channels(ref) -> list[PortChannel]:
    interleaved = isinstance(ref, Interleaved)
    if interleaved:
        ref = ref.ref
    if isinstance(ref, PortChannel):
        return [ref]
    if isinstance(ref, Port):
        return [PortChannel(ref, i) for i in range(ref.width)]
    if isinstance(ref, BankPort):
        ports = ref.ports
        if interleaved:
            width = ports[0].width
            if any(p.width != width for p in ports):
                raise CompositionError(
                    f"bank port {ref.bank.name}.{ref.name}: members disagree on width")
            return [PortChannel(p, c) for c in range(width) for p in ports]
        return [PortChannel(p, i) for p in ports for i in range(p.width)]
    raise CompositionError(f"cannot unfold {ref!r}")


def unfold(refs) -> list[PortChannel]:
    """Flatten port references into a concrete channel list.

    ``refs`` is a single reference or a list or tuple of them; each may be
    a Port, a PortChannel, a BankPort, or any of those wrapped in
    ``Interleaved``. Lists concatenate in the order given.
    """
    if isinstance(refs, PortChannel) or not isinstance(refs, (list, tuple)):
        refs = [refs]  # one reference, unfolded or named by the error below
    out: list[PortChannel] = []
    for ref in refs:
        out.extend(_ref_channels(ref))
    return out


def connect(lhs, rhs, broadcast: bool = False) -> list[tuple[PortChannel, PortChannel]]:
    """Wire unfolded ``lhs`` outputs to ``rhs`` inputs: the one wiring
    operator. Each side is anything :func:`unfold` takes.

    Pairwise by default, which requires equal widths. With ``broadcast`` the
    left side repeats cyclically until the right side is covered, so the
    right width must be a multiple of the left width. Width mismatches are
    hard errors, never truncation. Returns the created channel pairs.
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
    builder = left[0].port.owner.builder
    for s, d in pairs:
        builder._connect_channels(s, d)
    return pairs
