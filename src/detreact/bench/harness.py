"""Measurement harness.

One measurement runs a benchmark for a number of iterations, building a
fresh Environment every time and timing only the execution phase (topology
construction and validation are excluded). Benchmarks always run in fast
mode: logical time does not wait for the physical clock. The leading warmup
iterations are dropped from the statistics. The validator must pass on
every iteration, warmup included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..sched import Environment
from .registry import BenchmarkSpec, BenchmarkValidationError


@dataclass(frozen=True)
class MeasurementStats:
    benchmark: str
    workers: int
    warmup_ms: tuple  # excluded from the statistics below
    samples_ms: tuple  # retained per-iteration execution times
    mean_ms: float
    ci99_ms: float  # half-width of the Student-t 99% confidence interval

    @property
    def iterations(self) -> int:
        return len(self.warmup_ms) + len(self.samples_ms)


def student_t_quantile(p: float, df: int) -> float:
    """Quantile of Student's t distribution for 1/2 <= p < 1 and integer
    ``df`` >= 1. Bisects on theta = atan(t / sqrt(df)) with the exact finite
    series for P(|T| < t), Abramowitz & Stegun 26.7.3 (odd) and 26.7.4 (even)."""
    odd = df % 2
    lo, hi = 0.0, math.pi / 2
    for _ in range(100):
        theta = (lo + hi) / 2
        sin, cos = math.sin(theta), math.cos(theta)
        term, total = 1.0, 0.0
        for k in range(df // 2):
            total += term
            term *= (2 * k + 1 + odd) / (2 * k + 2 + odd) * cos * cos
        mass = 2 / math.pi * (theta + sin * cos * total) if odd else sin * total
        lo, hi = (theta, hi) if mass < 2 * p - 1 else (lo, theta)
    return math.sqrt(df) * math.tan((lo + hi) / 2)


def student_t_ci99(samples) -> float:
    """Half-width of the two-sided 99% confidence interval for the mean."""
    n = len(samples)
    if n < 2:
        return 0.0
    mean = sum(samples) / n
    var = sum((x - mean) ** 2 for x in samples) / (n - 1)
    t_crit = student_t_quantile(0.995, n - 1)
    return t_crit * math.sqrt(var / n)


def run_once(spec: BenchmarkSpec, params: dict, workers: int = 1, trace: bool = False):
    """Build, run and validate a single fresh instance, in fast mode. Returns
    (instance, environment, report)."""
    instance = spec.build(params)
    env = Environment(instance.topology, workers=workers, fast=True, trace=trace)
    report = env.run()
    instance.validate(report)
    return instance, env, report


def run_benchmark(spec: BenchmarkSpec, params: dict | None = None, workers: int = 1,
                  iterations: int = 32, warmup: int = 2) -> MeasurementStats:
    """Measure a benchmark. ``params`` are overrides on top of the
    benchmark's defaults; unknown keys and non-integer values are rejected
    before the first iteration."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    if not warmup < iterations:
        raise ValueError(f"warmup ({warmup}) must be smaller than iterations ({iterations})")
    resolved = spec.resolve_params(params)
    times_ms = []
    for i in range(iterations):
        try:
            _, _, report = run_once(spec, resolved, workers=workers)
        except BenchmarkValidationError as exc:
            raise BenchmarkValidationError(
                f"{spec.name} (workers={workers}, iteration {i}): {exc}") from None
        times_ms.append(report.duration_ns / 1e6)
    retained = times_ms[warmup:]
    return MeasurementStats(
        benchmark=spec.name,
        workers=workers,
        warmup_ms=tuple(times_ms[:warmup]),
        samples_ms=tuple(retained),
        mean_ms=sum(retained) / len(retained),
        ci99_ms=student_t_ci99(retained))
