"""Canonical execution traces.

A trace records, for every executed reaction, the tag, the reactor path and
lexical index, the ports it set (as value digests, not values) and the events
it scheduled. Records within one tag are sorted by (level, reactor path,
lexical index), so the physical interleaving of workers never shows through:
two runs are behaviorally identical exactly when their trace digests match.

Text form, one record per line:

    TAG=<time_ns>.<microstep> RX=<reactor-path>.<index> FX=<port:digest,...> SCHED=<action@time_ns.microstep,...>

The digest is a 64-bit BLAKE2b of the canonical text, so it is stable across
platforms and runs.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import dataclass
from typing import NamedTuple


def _encode_value(v, out: bytearray) -> None:
    # Canonical, type-tagged byte encoding. repr() of Python floats is the
    # shortest round-trip form, identical on all IEEE-754 platforms.
    if v is None:
        out += b"N;"
    elif v is True:
        out += b"T;"
    elif v is False:
        out += b"F;"
    elif isinstance(v, int):
        out += b"i%d;" % v
    elif isinstance(v, float):
        # float(v) normalizes float subclasses (e.g. numpy scalars) whose
        # repr is not the shortest round-trip form
        out += b"f" + repr(float(v)).encode() + b";"
    elif isinstance(v, str):
        b = v.encode("utf-8")
        out += b"s%d:" % len(b) + b
    elif isinstance(v, bytes):
        out += b"b%d:" % len(v) + v
    elif isinstance(v, (tuple, list)):
        out += b"l%d:" % len(v)
        for item in v:
            _encode_value(item, out)
    # numpy is looked up, never imported: the runtime does not depend on it,
    # and a numpy value can only exist once numpy is loaded.
    elif (np := sys.modules.get("numpy")) is not None and isinstance(v, np.bool_):
        out += b"T;" if v else b"F;"
    elif np is not None and isinstance(v, np.integer):
        out += b"i%d;" % int(v)
    elif np is not None and isinstance(v, np.floating):
        out += b"f" + repr(float(v)).encode() + b";"
    elif np is not None and isinstance(v, np.ndarray):
        arr = np.ascontiguousarray(v)
        le = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
        out += b"a" + str(arr.dtype).encode() + b"|" + repr(arr.shape).encode() + b"|"
        out += le.tobytes()
    else:
        r = repr(v).encode("utf-8")
        out += b"r%d:" % len(r) + r


def value_digest(v) -> str:
    """16-hex-digit digest of one payload."""
    buf = bytearray()
    _encode_value(v, buf)
    return hashlib.blake2b(bytes(buf), digest_size=8).hexdigest()


class TraceRecord(NamedTuple):
    tag: tuple  # (time_ns, microstep)
    level: int
    reactor_path: str
    reaction_index: int
    effects: tuple  # ((port_label, digest), ...) in set order
    scheduled: tuple  # ((action_label, (time_ns, microstep)), ...) in call order

    def sort_key(self):
        return (self.level, self.reactor_path, self.reaction_index)

    def to_line(self) -> str:
        fx = ",".join(f"{p}:{d}" for p, d in self.effects)
        sched = ",".join(f"{a}@{t}.{m}" for a, (t, m) in self.scheduled)
        return (f"TAG={self.tag[0]}.{self.tag[1]} "
                f"RX={self.reactor_path}.{self.reaction_index} "
                f"FX={fx} SCHED={sched}")


@dataclass(frozen=True)
class Trace:
    """Finalized trace. The digest covers the canonical record serialization;
    the header (program name, parameters, worker count) is carried for human
    consumption and deliberately excluded, so runs that differ only in worker
    count can compare equal."""

    header: dict
    records: tuple

    def canonical_bytes(self) -> bytes:
        return "".join(r.to_line() + "\n" for r in self.records).encode("utf-8")

    def to_text(self) -> str:
        return self.canonical_bytes().decode("utf-8")


def trace_digest(trace: Trace) -> int:
    """Stable 64-bit digest of the canonical serialization."""
    h = hashlib.blake2b(trace.canonical_bytes(), digest_size=8)
    return int.from_bytes(h.digest(), "big")


class TraceSink:
    """Collects records during execution.

    The scheduler records each tag's reactions at its level barriers, where
    it runs alone, and canonicalizes them when the tag closes.
    """

    def __init__(self):
        self._tag = []
        self._records = []

    def record(self, rec: TraceRecord) -> None:
        self._tag.append(rec)

    def merge_tag(self) -> None:
        self._tag.sort(key=TraceRecord.sort_key)
        self._records += self._tag
        self._tag.clear()

    def finalize(self, header: dict) -> Trace:
        self.merge_tag()
        return Trace(header=dict(header), records=tuple(self._records))
