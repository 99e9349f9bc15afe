"""Canonical execution traces.

A trace is text: one line for every executed reaction, giving the tag, the
reactor path and lexical index, the ports it set (as value digests, not
values) and the events it scheduled. Lines within one tag are ordered by
(level, reactor path, lexical index), so the physical interleaving of
workers never shows through: two runs are behaviorally identical exactly
when their trace digests match.

    TAG=<time_ns>.<microstep> RX=<reactor-path>.<index> FX=<port:digest,...> SCHED=<action@time_ns.microstep,...>

This module owns that format, the parts of a line and the parse of one; a
name that holds one of its separators is refused when it is declared. The
parts are computed once: a tag's text (:func:`tag_text`), which follows
:data:`TAG` at the start of a line and an action's part in a scheduled
event, a prefix per reaction (:func:`reaction_prefix`), and a part per slot
(:func:`slot_parts`) for each value set and event scheduled; :data:`SEP`
separates the items of a list, :data:`SCHED` the two lists, and :data:`END`
ends a line; :meth:`TraceRecord.to_line` writes a line from the same
constants, so the format is defined here alone. The fold at the level
barrier, not the body, digests each set value and appends each completed
reaction's parts to one list per run, which the run joins once into the
text. A :class:`Trace` is that text alone, so a trace file reads back as
one; its lines and :attr:`Trace.records` are views of it. A traced run
makes no object per line, and the digests of small exact values (ints
within 32 bits, short strs and flat tuples of them) are memoised. On the
benchmark's micro-w1 workload (2-vCPU VM, Python 3.11) a traced run costs
about 1.45-1.5x the plain run, digest included (a span run's
``trace.cost_factor``); a traced Chameneos alone costs about 1.6x.

The digest is a 64-bit BLAKE2b of the canonical text, so it is stable across
platforms and runs. It comes from CPython's built-in ``_blake2``, the class
that ``hashlib.blake2b`` names: hashlib never takes BLAKE2 from OpenSSL, but
importing it loads ``_hashlib`` and maps OpenSSL's libcrypto, which nothing
here uses: about 3.4 MB of peak resident memory and 3 ms of start-up on a
2-vCPU VM with Python 3.11.

Run as a module, it reads two trace files, each as a :class:`Trace`, and
names the first record where they differ; a file that cannot be read as one
exits 2::

    python -m detreact.trace diff A.trace B.trace
"""

from __future__ import annotations

import functools
import operator
import os
import sys
# hashlib.blake2b is this class on CPython, but importing hashlib maps OpenSSL.
from _blake2 import blake2b as _blake2b
from collections.abc import Sequence
from dataclasses import dataclass
from types import ModuleType
from typing import NamedTuple

from .core import PortChannel, ReactorTopology, Tag
from .graph import PrecedenceGraph


def _encode_value(v, out: bytearray) -> None:
    # Canonical, type-tagged byte encoding. repr() of Python floats is the
    # shortest round-trip form, identical on all IEEE-754 platforms. A set's
    # items are sorted by encoding: its order follows the string hash seed.
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
    elif isinstance(v, (set, frozenset)):
        items = [bytearray() for _ in range(len(v))]
        for item, buf in zip(v, items):
            _encode_value(item, buf)
        out += b"S%d:" % len(v) + b"".join(sorted(items))
    elif isinstance(v, dict):
        out += b"d%d:" % len(v)
        for key, item in v.items():
            _encode_value(key, out)
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
        out += _array_header(arr)
        if arr.dtype.hasobject:  # its buffer holds item pointers
            _encode_value(arr.ravel().tolist(), out)
        else:
            out += arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes()
    # a repr that holds an address, CPython's " at 0x" form, differs from
    # run to run (print's holds none), and a module's, which holds its file
    # path, from install to install
    elif " at 0x" in (r := repr(v)) or isinstance(v, ModuleType):
        t = type(v)
        raise TypeError(f"no canonical encoding for a {t.__module__}.{t.__qualname__}: "
                        "its repr holds an address")
    else:
        r = r.encode("utf-8")
        out += b"r%d:" % len(r) + r


def _array_header(arr) -> bytes:
    return b"a" + str(arr.dtype).encode() + b"|" + repr(arr.shape).encode() + b"|"


def _encoded_digest(v) -> str:
    buf = bytearray()
    _encode_value(v, buf)
    return _blake2b(buf, digest_size=8).hexdigest()


#: The longest exact ``str`` (in characters) and flat ``tuple`` (in items)
#: whose digest is memoised, so that no memo entry pins a large payload.
_MEMO_MAX_LEN = 32
# Small exact values only, each tested by its exact type before the lookup:
# 1, True and 1.0 are equal and hash alike, so they would share an entry.
_small_digest = functools.lru_cache(maxsize=4096)(_encoded_digest)

_NONE_DIGEST = _blake2b(b"N;", digest_size=8).hexdigest()
_TRUE_DIGEST = _blake2b(b"T;", digest_size=8).hexdigest()
_FALSE_DIGEST = _blake2b(b"F;", digest_size=8).hexdigest()
# dtype byte orders whose buffer already is the little-endian encoding
_LITTLE_ENDIAN = ("<", "|", "=") if sys.byteorder == "little" else ("<", "|")


def value_digest(v) -> str:
    """16-hex-digit digest of one payload: BLAKE2b-64 of its canonical
    encoding. Only values that can repeat are memoised: an exact ``int``
    within 32 bits (``-2**32 < v < 2**32``), an exact ``str`` of at
    most ``_MEMO_MAX_LEN`` characters, and a ``tuple`` of at most
    ``_MEMO_MAX_LEN`` items that are all such ints and strs. A larger int,
    such as a nanosecond timestamp, or a tuple holding one is encoded each
    time, so it does not evict the values that do repeat. An ndarray whose
    buffer already is its encoding (C-contiguous, little-endian or byte-order
    free, at least one dimension) is hashed in place, without a copy."""
    t = type(v)
    if t is int:  # literal bounds: a global would cost a lookup and a negation per call
        return _small_digest(v) if -0x1_0000_0000 < v < 0x1_0000_0000 else _encoded_digest(v)
    if v is None:
        return _NONE_DIGEST
    if t is bool:
        return _TRUE_DIGEST if v else _FALSE_DIGEST
    if t is str:
        if len(v) <= _MEMO_MAX_LEN:
            return _small_digest(v)
    elif t is tuple and len(v) <= _MEMO_MAX_LEN:
        for x in v:  # a loop: all() over a generator costs a frame per item
            tx = type(x)
            if tx is int:
                if not -0x1_0000_0000 < x < 0x1_0000_0000:
                    break
            elif tx is not str or len(x) > _MEMO_MAX_LEN:
                break
        else:
            return _small_digest(v)
    np = sys.modules.get("numpy")
    # The encoder gives a 0-d array shape (1,), and memoryview cannot export
    # every dtype (datetime, object): only bool and numeric arrays of at
    # least one dimension are hashed in place.
    if (np is not None and t is np.ndarray and v.ndim and v.flags.c_contiguous
            and v.dtype.kind in "biufc" and v.dtype.byteorder in _LITTLE_ENDIAN):
        h = _blake2b(_array_header(v), digest_size=8)
        h.update(memoryview(v))
        return h.hexdigest()
    return _encoded_digest(v)


# -- the parts of a line -----------------------------------------------------

#: A completed reaction's line is :data:`TAG`, its tag's text, its reaction
#: prefix, its effects joined by :data:`SEP`, :data:`SCHED`, its scheduled
#: events joined by :data:`SEP`, and :data:`END`; a line that schedules
#: nothing ends with :data:`NO_SCHED`.
TAG = "TAG="
SEP = ","
SCHED = " SCHED="
END = "\n"
NO_SCHED = SCHED + END


def tag_text(tag) -> str:
    """``<time_ns>.<microstep>``, a tag as a line writes it: after
    :data:`TAG`, and after an action's part for an event at that tag."""
    return "%s.%s" % tag


def reaction_prefix(path: str, index: int) -> str:
    """`` RX=<path>.<index> FX=``, what follows the tag's text in every line
    of one reaction; the effects come next."""
    return " RX=%s.%s FX=" % (path, index)


def slot_parts(topology: ReactorTopology) -> list[str]:
    """For every slot of the topology, the part of a line it writes, placed
    at that slot: for an output channel, the prefix of a value digest
    (``<label>:``); for a logical action, the prefix of a scheduled tag's
    text (``<label>@``). A set names only an output channel and a
    reaction schedules only a logical action, so every other slot (startup,
    shutdown, an input channel, a timer, a physical action) holds ``""``."""
    parts = [""] * len(topology.slot_reactions)
    for p in topology.ports:
        if not p.is_input:
            for i in range(p.width):
                parts[p.base + i] = PortChannel(p, i).label() + ":"
    for a in topology.actions:
        if not a.physical:
            parts[a.base] = a.label() + "@"
    return parts


def canonical_ranks(graph: PrecedenceGraph) -> list[int]:
    """For every reaction (by rid), its rank in (graph level, reactor path,
    index) order: the order of the lines of one tag."""
    rank = [0] * len(graph.reactions)
    order = sorted(graph.reactions, key=lambda r: (graph.level[r.rid], r.owner.name, r.index))
    for n, r in enumerate(order):
        rank[r.rid] = n
    return rank


class TraceRecord(NamedTuple):
    """One line of a trace, parsed: exactly what the line says."""

    tag: tuple  # (time_ns, microstep), a Tag
    reactor_path: str
    reaction_index: int
    effects: tuple  # ((port_label, digest), ...) in set order
    scheduled: tuple  # ((action_label, (time_ns, microstep)), ...) in call order

    def to_line(self) -> str:
        """The line, without its line end, in the parts the fold writes."""
        tag, path, index, fx, sched = self
        return "".join((
            TAG, tag_text(tag), reaction_prefix(path, index),
            SEP.join([f"{p}:{d}" for p, d in fx]), SCHED,
            SEP.join([f"{a}@{tag_text(t)}" for a, t in sched])))


def _parse(line: str) -> TraceRecord:
    # Every search but the first splits at the first separator after the
    # previous field, and every field splits from the right, so names may
    # hold ".", ":", "@" and spaces.
    i = line.index(" RX=")
    j = line.index(" FX=", i) + 4
    k = line.index(SCHED, j)
    time_ns, _, microstep = line[len(TAG):i].partition(".")
    path, _, index = line[i + 4:j - 4].rpartition(".")
    fx, sched = line[j:k], line[k + len(SCHED):]
    return TraceRecord(
        Tag(int(time_ns), int(microstep)), path, int(index),
        tuple([tuple(part.rsplit(":", 1)) for part in fx.split(SEP)]) if fx else (),
        tuple([_parse_event(part) for part in sched.split(SEP)]) if sched else ())


def _parse_event(part: str) -> tuple:
    label, _, at = part.rpartition("@")
    time_ns, _, microstep = at.partition(".")
    return label, Tag(int(time_ns), int(microstep))


class TraceRecords(Sequence):
    """Read-only view of a trace's lines as :class:`TraceRecord` s, each
    exactly its line, since no name holds a separator. A record is parsed
    when it is accessed and is not kept; ``len()`` counts line ends and
    parses nothing, and the text is split into the trace's lines only when a
    record is accessed. The view equals any sequence of the same records, so
    an empty view equals ``()``."""

    __slots__ = ("_trace",)

    def __init__(self, trace: Trace):
        self._trace = trace

    def __len__(self) -> int:
        return self._trace.text.count(END)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(_parse, self._trace.lines[i]))
        return _parse(self._trace.lines[i])

    def __iter__(self):
        return map(_parse, self._trace.lines)

    def __eq__(self, other):
        if not isinstance(other, (TraceRecords, tuple, list)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    __hash__ = None


@dataclass(frozen=True)
class Trace:
    """Finalized trace: its canonical text, every line ended by ``"\\n"``,
    and nothing else. A trace file is the same text, so
    ``Trace(path.read_text())`` reads one back whole. The digest covers the
    text, which names no program and no worker count, so runs that differ
    only in worker count compare equal."""

    text: str

    def __post_init__(self):
        if self.text and self.text[-1] != END:
            raise ValueError("a trace's text ends every line, the last included, with a line end")

    @functools.cached_property
    def lines(self) -> tuple:
        """The lines of the text, without their line ends, split once: only
        at :data:`END`, so there are as many as line ends."""
        return tuple(self.text.split(END)[:-1])

    @property
    def records(self) -> TraceRecords:
        """The lines as :class:`TraceRecord` s, each parsed when accessed;
        ``record.to_line()`` gives back the line it was parsed from."""
        return TraceRecords(self)

    def canonical_bytes(self) -> bytes:
        return self.text.encode()


def trace_digest(trace: Trace) -> int:
    """Stable 64-bit digest of the canonical text, UTF-8 encoded."""
    h = _blake2b(trace.canonical_bytes(), digest_size=8)
    return int.from_bytes(h.digest(), "big")


# -- trace diff ------------------------------------------------------------

_DIFF_CONTEXT = 2  # lines shown around the first difference


def diff(a: list[str], b: list[str]) -> list[str]:
    """Report of the first line where two traces, given as lines, differ:
    ``_DIFF_CONTEXT`` common lines before it, then that line and the
    ``_DIFF_CONTEXT`` lines after it from each side. A trace that is a
    prefix of the other differs at the first line it lacks. Empty when they
    are identical."""
    i = next((n for n, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    if i == len(a) == len(b):
        return []
    out = [f"first difference at line {i + 1}"]
    out += [f"  {n + 1}: {a[n]}" for n in range(max(0, i - _DIFF_CONTEXT), i)]
    for mark, lines in (("-", a), ("+", b)):
        out += [f"{mark} {n + 1}: {lines[n]}"
                for n in range(i, min(i + _DIFF_CONTEXT + 1, len(lines)))]
        if len(lines) <= i + _DIFF_CONTEXT:
            out.append(f"{mark} end of trace ({len(lines)} lines)")
    return out


def _guard_stdout(main):
    """Decorate a command line's ``main(argv) -> exit code`` to return 1,
    without a word on stderr, when the reader of stdout is gone."""
    @functools.wraps(main)
    def guarded(argv: list[str] | None = None) -> int:
        try:
            try:
                return main(argv)
            finally:  # also when --help or a usage error leaves through SystemExit
                sys.stdout.flush()
        except BrokenPipeError:
            # stdout goes to os.devnull: the interpreter's flush at exit has nothing to fail on
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 1
    return guarded


@_guard_stdout
def main(argv: list[str] | None = None) -> int:
    """Tools for canonical trace files."""
    import argparse  # command-line use only: importing detreact stays lean
    from pathlib import Path

    parser = argparse.ArgumentParser(prog="python -m detreact.trace", description=main.__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("diff", help="name the first record where two traces differ; "
                                    "exit 0 when identical, 1 when they differ")
    p.add_argument("a", type=Path)
    p.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    traces = []
    for path in (args.a, args.b):
        try:
            traces.append(Trace(path.read_text(encoding="utf-8")).lines)
        except OSError as exc:
            parser.exit(2, f"error: {exc}\n")
        except UnicodeDecodeError as exc:  # a ValueError too
            parser.exit(2, f"error: {path} is not UTF-8 text: {exc}\n")
        except ValueError as exc:
            parser.exit(2, f"error: {path} is not a trace: {exc}\n")
    a, b = traces
    report = diff(a, b)
    if not report:
        print(f"identical: {len(a)} records")
        return 0
    print(f"--- {args.a}\n+++ {args.b}")
    print("\n".join(report))
    return 1


if __name__ == "__main__":
    sys.exit(main())
