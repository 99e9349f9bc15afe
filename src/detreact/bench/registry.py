"""Benchmark registry: named, parameterized topology builders with validators.

A benchmark is a builder function decorated with ``@register(name, title,
group)``. Its keyword arguments are the benchmark's parameters, and their
defaults, in signature order, are ``BenchmarkSpec.defaults``. Every parameter
is an integer: ``BenchmarkSpec.resolve_params`` rejects any other override,
and each builder rejects a count below its least meaningful value
(``at_least``).

Each benchmark builds a fresh topology per iteration and checks its own
functional result after the run; timing without a passing validator is
meaningless, so validation failures abort the measurement.
"""

from __future__ import annotations

import inspect
import operator
from dataclasses import dataclass, field
from typing import Callable, Mapping

from ..core import ReactorTopology

GROUP_MICRO = "micro"
GROUP_CONCURRENCY = "concurrency"
GROUP_PARALLELISM = "parallelism"


class BenchmarkValidationError(Exception):
    """A benchmark's functional result was wrong."""


class UnknownBenchmarkError(KeyError):
    def __init__(self, name: str, known):
        super().__init__(name)
        self.message = f"unknown benchmark {name!r}; known: {', '.join(known)}"

    def __str__(self) -> str:
        return self.message


@dataclass
class BenchmarkInstance:
    """One freshly built, runnable copy of a benchmark."""

    topology: ReactorTopology
    validate: Callable  # validate(report) -> None, raises BenchmarkValidationError


@dataclass(frozen=True)
class BenchmarkSpec:
    name: str  # registry key, e.g. "DiningPhilosophers"
    title: str  # display name, e.g. "Dining Philosophers"
    group: str
    defaults: Mapping[str, object] = field(default_factory=dict)
    build: Callable[[dict], BenchmarkInstance] = None

    def resolve_params(self, overrides: Mapping[str, object] | None = None) -> dict:
        params = dict(self.defaults)
        for key, value in (overrides or {}).items():
            if key not in params:
                raise KeyError(
                    f"benchmark {self.name}: unknown parameter {key!r} "
                    f"(accepts: {', '.join(sorted(params))})")
            try:
                params[key] = operator.index(value)
            except TypeError:
                raise ValueError(f"benchmark {self.name}: parameter {key!r} must be "
                                 f"an integer, got {value!r}") from None
        return params


_REGISTRY: dict[str, BenchmarkSpec] = {}


def register(name: str, title: str, group: str):
    """Decorator: register ``builder(**params) -> BenchmarkInstance`` as the
    benchmark ``name``, with its keyword arguments' defaults as parameters."""
    def decorate(builder: Callable[..., BenchmarkInstance]):
        if name in _REGISTRY:
            raise ValueError(f"benchmark {name!r} registered twice")
        defaults = {p.name: p.default
                    for p in inspect.signature(builder).parameters.values()}
        _REGISTRY[name] = BenchmarkSpec(name, title, group, defaults,
                                        lambda params: builder(**params))
        return builder
    return decorate


def list_benchmarks() -> list[BenchmarkSpec]:
    """All registered benchmarks, in registration (group) order."""
    return list(_REGISTRY.values())


def get_benchmark(name: str) -> BenchmarkSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownBenchmarkError(name, list(_REGISTRY)) from None


def at_least(benchmark: str, **bounds: tuple[int, int]) -> None:
    """Reject each parameter given as ``name=(value, least)`` whose value is
    below the least its benchmark can mean, with a ``ValueError`` naming the
    benchmark, the parameter and the value. Builders call it first, so an
    out-of-range count fails at build, not as a wrong or endless run."""
    for name, (value, least) in bounds.items():
        if value < least:
            raise ValueError(f"benchmark {benchmark}: parameter {name!r} must be at least "
                             f"{least}, got {value}")


def check(condition: bool, message: str) -> None:
    if not condition:
        raise BenchmarkValidationError(message)
