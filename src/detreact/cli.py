"""Benchmark runner CLI, on the standard library's ``argparse``.

Selects benchmarks, sweeps worker counts, prints a human-readable table and
optionally writes CSV and canonical trace files. Benchmarks always run in
fast mode, at ``--workers`` (default 1). ``main(argv)`` returns the exit
code: 0 when every validator passed (and, with ``--trace``, every benchmark
gave one trace digest across the worker sweep), 1 otherwise. A run whose
validator or reaction fails prints a ``FAIL`` row, and the sweep goes on.
Usage errors exit 2 through argparse before any run starts, among them
malformed numbers (``--param`` values are integers), a ``--csv`` file whose
directory does not exist and a ``--trace`` directory under a file; so does,
on one stderr line, a parameter that a builder rejects as out of its range.
When a sweep's digests differ, the trace diff names the first divergent
record.

CSV layout: per-iteration rows ``benchmark,workers,iteration,millis`` for the
retained (post-warmup) iterations, followed by summary rows
``benchmark,workers,mean_ms,ci99_ms``. Everything except the timing columns
is stable for a fixed configuration and seed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bench import (BenchmarkValidationError, UnknownBenchmarkError,
                    get_benchmark, list_benchmarks, run_benchmark, run_once)
from .errors import ExecutionError
from .trace import Trace, _guard_stdout, diff, trace_digest


def _parse_workers(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        values = []
    if not values or min(values) < 1:
        raise argparse.ArgumentTypeError(
            f"invalid value {text!r}: expected counts >= 1, e.g. 4 or 1,2,4,8")
    return values


def _parse_param(pair: str) -> tuple[str, int]:
    key, _, raw = pair.partition("=")
    try:
        if key:
            return key, int(raw)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"invalid value {pair!r}: expected key=integer")


def _print_listing():
    print(f"{'name':24s} {'group':12s} {'title':28s} defaults")
    for spec in list_benchmarks():
        defaults = " ".join(f"{k}={v}" for k, v in spec.defaults.items())
        print(f"{spec.name:24s} {spec.group:12s} {spec.title:28s} {defaults}")


def _trace_one(spec, params, workers: int, trace_dir: Path) -> Trace:
    """Extra untimed run with tracing on; writes the canonical text."""
    _, env, _ = run_once(spec, params, workers=workers, trace=True)
    path = trace_dir / f"{spec.name}_w{workers}.trace"
    path.write_text(env.trace.text, encoding="utf-8")
    return env.trace


def _fail(failures: list, spec, workers: int, exc: Exception) -> None:
    """Record a run that failed its validator or a reaction, as a FAIL row;
    the sweep goes on and the exit code is 1."""
    failures.append(str(exc))
    print(f"{spec.name:24s} {workers:7d} {'-':>4s} {'-':>10s} "
          f"{'-':>9s} {'-':>9s} {'-':>9s}  FAIL: {exc}", flush=True)


def main(argv: list[str] | None = None) -> int:
    """Run deterministic reactor benchmarks and report timing statistics."""
    return _guard_stdout(_main, argv)


def _main(argv: list[str] | None) -> int:
    parser = argparse.ArgumentParser(prog="detreact", description=main.__doc__)
    add = parser.add_argument
    add("-b", "--benchmark", dest="benchmarks", action="append", default=[], metavar="NAME",
        help="Benchmark name, repeatable; 'all' selects every benchmark.")
    add("--workers", type=_parse_workers, default=[1], metavar="N[,N...]",
        help="Worker count or comma-separated sweep (default: 1).")
    add("--iterations", type=int, default=32, metavar="N",
        help="Iterations per measurement (default: 32).")
    add("--warmup", type=int, default=2, metavar="N",
        help="Leading iterations excluded from statistics (default: 2).")
    add("--param", dest="params", type=_parse_param, action="append", default=[], metavar="K=V",
        help="Integer benchmark parameter override, repeatable.")
    add("--csv", type=Path, metavar="FILE",
        help="Write per-iteration and summary rows to this file.")
    add("--trace", type=Path, metavar="DIR",
        help="Write a canonical trace per benchmark/worker-count here.")
    add("--seed", type=int, metavar="N", help="Override the 'seed' benchmark parameter.")
    add("--list", action="store_true", help="List benchmarks and exit.")
    args = parser.parse_args(argv)
    if args.csv is not None and args.csv.is_dir():
        parser.error(f"argument --csv: {str(args.csv)!r} is a directory")
    if args.csv is not None and not args.csv.parent.is_dir():
        parser.error(f"argument --csv: {str(args.csv.parent)!r} is not a directory")
    if args.trace is not None:  # the nearest existing path must be a directory to mkdir under
        existing = next(p for p in (args.trace, *args.trace.parents) if p.exists())
        if not existing.is_dir():
            parser.error(f"argument --trace: {str(existing)!r} is not a directory")
    if args.list:
        _print_listing()
        return 0
    if not args.benchmarks:
        parser.print_help()
        return 2
    iterations, warmup = args.iterations, args.warmup
    if iterations < 1:
        parser.error(f"argument --iterations: must be >= 1, got {iterations}")
    if not 0 <= warmup < iterations:
        parser.error(f"argument --warmup: must be >= 0 and below --iterations, got {warmup}")
    try:
        selected = (list_benchmarks() if "all" in args.benchmarks
                    else [get_benchmark(name) for name in args.benchmarks])
    except UnknownBenchmarkError as exc:
        parser.error(str(exc))
    overrides = dict(args.params)
    try:
        runs = [(spec, spec.resolve_params(
                    {**overrides, "seed": args.seed}
                    if args.seed is not None and "seed" in spec.defaults else overrides))
                for spec in selected]
    except KeyError as exc:
        parser.error(exc.args[0])
    try:
        for spec, params in runs:
            spec.build(params)  # a builder rejects a count out of its range
    except ValueError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2

    if args.trace is not None:
        args.trace.mkdir(parents=True, exist_ok=True)
    iteration_rows, summary_rows, failures = [], [], []
    print(f"{'benchmark':24s} {'workers':>7s} {'n':>4s} {'mean_ms':>10s} "
          f"{'ci99_ms':>9s} {'min_ms':>9s} {'max_ms':>9s}  status")
    for spec, params in runs:
        first = None  # (workers, digest, trace) of the first traced worker count
        for workers in args.workers:
            try:
                stats = run_benchmark(spec, params, workers=workers,
                                      iterations=iterations, warmup=warmup)
            except (BenchmarkValidationError, ExecutionError) as exc:
                _fail(failures, spec, workers, exc)
                continue
            samples = stats.samples_ms
            print(f"{spec.name:24s} {workers:7d} {len(samples):4d} {stats.mean_ms:10.3f} "
                  f"{stats.ci99_ms:9.3f} {min(samples):9.3f} {max(samples):9.3f}  ok", flush=True)
            for i, ms in enumerate(samples):
                iteration_rows.append(f"{spec.name},{workers},{warmup + i},{ms:.6f}")
            summary_rows.append(f"{spec.name},{workers},{stats.mean_ms:.6f},{stats.ci99_ms:.6f}")
            if args.trace is not None:
                try:
                    trace = _trace_one(spec, params, workers, args.trace)
                except (BenchmarkValidationError, ExecutionError) as exc:
                    _fail(failures, spec, workers, exc)
                    continue
                digest = trace_digest(trace)
                print(f"{'':24s} trace digest {digest:016x} -> "
                      f"{args.trace / f'{spec.name}_w{workers}.trace'}", flush=True)
                if first is None:
                    first = (workers, digest, trace)
                elif digest != first[1]:
                    failures.append(f"{spec.name}: the trace at workers={workers} "
                                    f"differs from workers={first[0]}")
                    print(f"{'':24s} FAIL: trace differs from workers={first[0]}")
                    for line in diff(first[2].lines, trace.lines):
                        print(f"{'':24s} {line}")

    if args.csv is not None:
        lines = ["benchmark,workers,iteration,millis", *iteration_rows,
                 "benchmark,workers,mean_ms,ci99_ms", *summary_rows]
        args.csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"wrote {args.csv}")
    if failures:
        print(f"{len(failures)} failure(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
