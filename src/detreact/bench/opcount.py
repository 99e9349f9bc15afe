"""Bytecodes per reaction: a noise-free cost counter for the runtime.

Runs benchmarks once each at workers=1, plain and traced, with a
``sys.settrace`` hook that counts every ``opcode`` event
(``frame.f_trace_opcodes``) during ``Environment.run()``, and divides by the
reactions run. Each count goes to the file of its frame: ``sched.py``,
``trace.py`` and ``core.py`` are the runtime, ``ctx`` methods included;
``bodies`` are the reaction bodies and every frame they call outside the
runtime; ``other`` is the rest (``threading``, say). It also splits the
counts by function, and ``_coordinate``, the tag loop, by line.

    python -m detreact.bench.opcount [NAME ...]
    python -m detreact.bench.opcount --golden tests/golden/opcodes.json

With no name it counts the six micro programs at their default sizes.
``--golden PATH`` recounts the programs of that file at the sizes it holds
and rewrites it.

The count is exact and repeatable: the same on every run and under every
``PYTHONHASHSEED``, and it differs only between Python versions. Each count
starts with an empty digest memo, whatever ran before it in the process. It does not
see C-level work: dict and hash operations, allocation, the lock and
BLAKE2b. So a traced run costs more wall time than its bytecodes show, and
a claimed speed gain still needs timed pairs; the count sizes a change
without them.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

from .. import core, sched, trace
from ..sched import Environment
from .registry import UnknownBenchmarkError, get_benchmark, list_benchmarks

#: The runtime's files, in column order, then the two other columns.
RUNTIME = ("sched.py", "trace.py", "core.py")
COLUMNS = (*RUNTIME, "bodies", "other")
_FILES = {m.__file__: name for m, name in zip((sched, trace, core), RUNTIME)}
_COORDINATE = Environment._coordinate.__code__


class Count:
    """One run's opcode counts: ``by_code`` keyed ``(column, code object)``,
    ``by_line`` the lines of ``_coordinate``, and the reactions run."""

    def __init__(self, reactions: int, by_code: Counter, by_line: Counter):
        self.reactions = reactions
        self.by_code = by_code
        self.by_line = by_line

    def totals(self) -> dict:
        """Opcodes per column, every column present."""
        out = dict.fromkeys(COLUMNS, 0)
        for (column, _), n in self.by_code.items():
            out[column] += n
        return out

    def functions(self) -> Counter:
        """Opcodes per ``file:function``, bodies under their own names."""
        out = Counter()
        for (column, code), n in self.by_code.items():
            out[f"{column}:{code.co_qualname}"] += n
        return out


def count(name: str, params: dict | None = None, traced: bool = False) -> Count:
    """Count the opcodes of one workers=1 run of benchmark ``name``, its
    validator passed; ``params`` override the defaults."""
    spec = get_benchmark(name)
    inst = spec.build(spec.resolve_params(params))
    bodies = {getattr(r.body, "__code__", None) for r in inst.topology.reactions}
    env = Environment(inst.topology, workers=1, fast=True, trace=traced)
    trace._small_digest.cache_clear()  # a memo hit costs fewer bytecodes than a miss
    by_code, by_line = Counter(), Counter()

    def column(frame) -> str:
        if (own := _FILES.get(frame.f_code.co_filename)) is not None:
            return own
        while frame is not None:  # the nearest body or runtime frame decides
            if frame.f_code in bodies:
                return "bodies"
            if frame.f_code.co_filename in _FILES:
                return "other"
            frame = frame.f_back
        return "other"

    def on_call(frame, event, arg):
        frame.f_trace_opcodes = True
        key = (column(frame), frame.f_code)
        if frame.f_code is _COORDINATE:
            def on_opcode(frame, event, arg):
                if event == "opcode":
                    by_code[key] += 1
                    by_line[frame.f_lineno] += 1
                return on_opcode
        else:
            def on_opcode(frame, event, arg):
                if event == "opcode":
                    by_code[key] += 1
                return on_opcode
        return on_opcode

    outer = sys.gettrace()
    sys.settrace(on_call)
    try:
        report = env.run()
    finally:
        sys.settrace(outer)
    inst.validate(report)
    return Count(report.reactions, by_code, by_line)


def golden_entry(name: str, params: dict) -> dict:
    """What ``tests/golden/opcodes.json`` pins for one program: its sizes and,
    plain and traced, the reactions run and the opcodes per column."""
    entry = {"params": params}
    for mode in ("plain", "traced"):
        c = count(name, params, traced=mode == "traced")
        entry[mode] = {"reactions": c.reactions, **c.totals()}
    return entry


def _table(rows: list[tuple[str, Count]]) -> list[str]:
    out = [f"{'benchmark':<22}{'reactions':>10}" + "".join(f"{c:>10}" for c in COLUMNS)
           + f"{'runtime':>10}"]
    for name, c in rows:
        t = c.totals()
        per = [t[col] / c.reactions for col in COLUMNS]
        out.append(f"{name:<22}{c.reactions:>10}" + "".join(f"{v:>10.2f}" for v in per)
                   + f"{sum(per[:len(RUNTIME)]):>10.2f}")
    return out


def _split(name: str, mode: str, c: Count) -> list[str]:
    out = [f"{name}, {mode}: bytecodes per reaction by function"]
    for fn, n in c.functions().most_common():
        out.append(f"  {n / c.reactions:>9.2f}  {fn}")
    out.append(f"{name}, {mode}: Environment._coordinate by line")
    for line, n in sorted(c.by_line.items(), key=lambda item: item[0] or 0):
        out.append(f"  {n / c.reactions:>9.2f}  sched.py:{line or '?'}")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m detreact.bench.opcount",
                                     description="Bytecodes per reaction at workers=1.")
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help="benchmarks to count (default: the micro group)")
    parser.add_argument("--golden", type=Path, metavar="PATH",
                        help="recount the programs of this file at its sizes and rewrite it")
    args = parser.parse_args(argv)
    if args.golden is not None:
        programs = json.loads(args.golden.read_text())["programs"]
        golden = {"python": "%d.%d" % sys.version_info[:2],
                  "programs": {name: golden_entry(name, entry["params"])
                               for name, entry in programs.items()}}
        args.golden.write_text(json.dumps(golden, indent=2) + "\n")
        return 0
    names = args.names or [s.name for s in list_benchmarks() if s.group == "micro"]
    for name in names:  # an unknown name fails before any count
        try:
            get_benchmark(name)
        except UnknownBenchmarkError as exc:
            parser.error(exc.message)
    counts = {mode: [(name, count(name, traced=mode == "traced")) for name in names]
              for mode in ("plain", "traced")}
    for mode, rows in counts.items():
        print(f"{mode}, workers=1: bytecodes per reaction")
        print("\n".join(_table(rows)))
        print()
    for mode, rows in counts.items():
        for name, c in rows:
            print("\n".join(_split(name, mode, c)))
            print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
