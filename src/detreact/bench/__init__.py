"""Benchmark suite: desk-scale actor-style workloads with exact validators.

Importing this package loads only the registry and the generator. A program
module (``micro``, ``concurrency``, ``parallel``) loads on the first lookup
that needs it: ``get_benchmark(name)`` imports them in group order until one
registers ``name``, and ``list_benchmarks()`` imports all three. The harness
(``run_once``, ``run_benchmark`` and its statistics) loads on first use of
one of its names. Defaults are intentionally 10-100x smaller than the classic
actor-suite sizes so a full sweep runs on a laptop; the original scales
remain reachable through parameter overrides.
"""

from .lcg import Lcg64
from .registry import (GROUP_CONCURRENCY, GROUP_MICRO, GROUP_PARALLELISM,
                       BenchmarkInstance, BenchmarkSpec,
                       BenchmarkValidationError, UnknownBenchmarkError,
                       get_benchmark, list_benchmarks)

__all__ = [
    "BenchmarkInstance", "BenchmarkSpec", "BenchmarkValidationError",
    "GROUP_CONCURRENCY", "GROUP_MICRO", "GROUP_PARALLELISM", "Lcg64",
    "MeasurementStats", "UnknownBenchmarkError", "get_benchmark",
    "list_benchmarks", "run_benchmark", "run_once", "student_t_ci99",
]

_HARNESS_NAMES = frozenset({"MeasurementStats", "run_benchmark", "run_once",
                            "student_t_ci99"})


def __getattr__(name: str):
    # The harness loads on first use, not with the package: a lookup or a
    # build needs only the registry and the program that declares it.
    if name in _HARNESS_NAMES:
        from . import harness
        return getattr(harness, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
