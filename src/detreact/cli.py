"""Benchmark runner CLI.

Selects benchmarks, sweeps worker counts, prints a human-readable table and
optionally writes CSV and canonical trace files. Exit codes: 0 when every
validator passed (and, with ``--trace``, every benchmark gave one trace
digest across the worker sweep), 1 otherwise, 2 on usage errors. When a
sweep's digests differ, the trace diff names the first divergent record.

CSV layout: per-iteration rows ``benchmark,workers,iteration,millis`` for the
retained (post-warmup) iterations, followed by summary rows
``benchmark,workers,mean_ms,ci99_ms``. Everything except the timing columns
is stable for a fixed configuration and seed.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import click

from .bench import (BenchmarkValidationError, UnknownBenchmarkError,
                    get_benchmark, list_benchmarks, run_benchmark, run_once)
from .trace import Trace, diff, trace_digest

WORKERS_ENV_VAR = "DETREACT_WORKERS"


def _parse_workers(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise click.UsageError(f"invalid --workers value {text!r}: expected e.g. 4 or 1,2,4,8")
    if not values or any(w < 1 for w in values):
        raise click.UsageError(f"invalid --workers value {text!r}: counts must be >= 1")
    return values


def _parse_params(pairs) -> dict:
    params = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise click.UsageError(f"invalid --param {pair!r}: expected key=value")
        try:
            value: object = int(raw)
        except ValueError:
            try:
                value = float(raw)
            except ValueError:
                value = raw
        params[key] = value
    return params


def _print_listing():
    click.echo(f"{'name':24s} {'group':12s} {'title':28s} defaults")
    for spec in list_benchmarks():
        defaults = " ".join(f"{k}={v}" for k, v in spec.defaults.items())
        click.echo(f"{spec.name:24s} {spec.group:12s} {spec.title:28s} {defaults}")


def _trace_one(spec, params, workers: int, fast: bool, trace_dir: Path) -> Trace:
    """Extra untimed run with tracing on; writes the canonical text."""
    _, env, _ = run_once(spec, params, workers=workers, fast=fast, trace=True)
    path = trace_dir / f"{spec.name}_w{workers}.trace"
    path.write_text(env.trace.to_text(), encoding="utf-8")
    return env.trace


@click.command(context_settings={"help_option_names": ["-h", "--help"]})
@click.option("--benchmark", "-b", "benchmarks", multiple=True,
              help="Benchmark name, repeatable; 'all' selects every benchmark.")
@click.option("--workers", "workers_text", default=None,
              help=f"Worker count or comma-separated sweep (default: ${WORKERS_ENV_VAR} or 1).")
@click.option("--iterations", default=32, show_default=True, help="Iterations per measurement.")
@click.option("--warmup", default=2, show_default=True,
              help="Leading iterations excluded from statistics.")
@click.option("--fast/--no-fast", default=True, show_default=True,
              help="Advance logical time without waiting for the physical clock.")
@click.option("--param", "params_kv", multiple=True, metavar="K=V",
              help="Benchmark parameter override, repeatable.")
@click.option("--csv", "csv_path", type=click.Path(dir_okay=False, path_type=Path),
              default=None, help="Write per-iteration and summary rows to this file.")
@click.option("--trace", "trace_dir", type=click.Path(file_okay=False, path_type=Path),
              default=None, help="Write a canonical trace per benchmark/worker-count here.")
@click.option("--seed", default=None, type=int, help="Override the 'seed' benchmark parameter.")
@click.option("--list", "list_only", is_flag=True, help="List benchmarks and exit.")
def main(benchmarks, workers_text, iterations, warmup, fast, params_kv, csv_path,
         trace_dir, seed, list_only):
    """Run deterministic reactor benchmarks and report timing statistics."""
    if list_only:
        _print_listing()
        return
    if not benchmarks:
        click.echo(click.get_current_context().get_help())
        sys.exit(2)
    if workers_text is None:
        workers_text = os.environ.get(WORKERS_ENV_VAR, "1")
    worker_counts = _parse_workers(workers_text)
    if not warmup < iterations:
        raise click.UsageError(f"--warmup ({warmup}) must be smaller than --iterations ({iterations})")
    overrides = _parse_params(params_kv)

    if any(name == "all" for name in benchmarks):
        selected = list_benchmarks()
    else:
        try:
            selected = [get_benchmark(name) for name in benchmarks]
        except UnknownBenchmarkError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)

    if trace_dir is not None:
        trace_dir.mkdir(parents=True, exist_ok=True)

    iteration_rows = []
    summary_rows = []
    failures = []
    click.echo(f"{'benchmark':24s} {'workers':>7s} {'n':>4s} {'mean_ms':>10s} "
               f"{'ci99_ms':>9s} {'min_ms':>9s} {'max_ms':>9s}  status")
    for spec in selected:
        try:
            params = spec.resolve_params(
                {**overrides, **({"seed": seed} if seed is not None and "seed" in spec.defaults else {})})
        except KeyError as exc:
            click.echo(f"error: {exc.args[0]}", err=True)
            sys.exit(2)
        first = None  # (workers, digest, trace) of the first traced worker count
        for workers in worker_counts:
            try:
                stats = run_benchmark(spec, params, workers=workers,
                                      iterations=iterations, warmup=warmup, fast=fast)
            except BenchmarkValidationError as exc:
                failures.append(str(exc))
                click.echo(f"{spec.name:24s} {workers:7d} {'-':>4s} {'-':>10s} "
                           f"{'-':>9s} {'-':>9s} {'-':>9s}  FAIL: {exc}")
                continue
            samples = stats.samples_ms
            click.echo(f"{spec.name:24s} {workers:7d} {len(samples):4d} {stats.mean_ms:10.3f} "
                       f"{stats.ci99_ms:9.3f} {min(samples):9.3f} {max(samples):9.3f}  ok")
            for i, ms in enumerate(samples):
                iteration_rows.append(f"{spec.name},{workers},{warmup + i},{ms:.6f}")
            summary_rows.append(f"{spec.name},{workers},{stats.mean_ms:.6f},{stats.ci99_ms:.6f}")
            if trace_dir is not None:
                trace = _trace_one(spec, params, workers, fast, trace_dir)
                digest = trace_digest(trace)
                click.echo(f"{'':24s} trace digest {digest:016x} -> "
                           f"{trace_dir / f'{spec.name}_w{workers}.trace'}")
                if first is None:
                    first = (workers, digest, trace)
                elif digest != first[1]:
                    failures.append(f"{spec.name}: the trace at workers={workers} "
                                    f"differs from workers={first[0]}")
                    click.echo(f"{'':24s} FAIL: trace differs from workers={first[0]}")
                    for line in diff(first[2].lines, trace.lines):
                        click.echo(f"{'':24s} {line}")

    if csv_path is not None:
        lines = ["benchmark,workers,iteration,millis"]
        lines.extend(iteration_rows)
        lines.append("benchmark,workers,mean_ms,ci99_ms")
        lines.extend(summary_rows)
        csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        click.echo(f"wrote {csv_path}")

    if failures:
        click.echo(f"{len(failures)} failure(s)", err=True)
        sys.exit(1)


if __name__ == "__main__":
    main()
