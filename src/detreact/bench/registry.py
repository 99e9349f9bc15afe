"""Benchmark registry: named, parameterized topology builders with validators.

A benchmark is one function, ``builder(b, **params) -> validate``, decorated
with ``@register(name, title, group)``: it declares its program on the
``Builder`` ``b``, which the registry names after it and builds, and returns
its validator. The keyword arguments after ``b`` are the benchmark's
parameters, and their defaults, in signature order, are
``BenchmarkSpec.defaults``; ``register`` refuses a builder whose parameter
after ``b`` is not a keyword argument with a default. Every parameter is an
integer: ``resolve_params`` rejects any other override, and each builder
rejects a count below its least meaningful value (``at_least``); the
registry prefixes the ``ValueError`` with the benchmark's name.

Each group's benchmarks are declared in one program module, and a program
module loads on the first lookup that needs it: ``get_benchmark(name)``
imports the modules in group order (micro, concurrency, parallelism) until
``name`` is registered, and ``list_benchmarks()`` imports all of them.
``sys.modules`` is the only record of which are loaded.

Each benchmark builds a fresh topology per iteration and checks its own
functional result after the run; timing without a passing validator is
meaningless, so validation failures abort the measurement.
"""

from __future__ import annotations

import operator
from importlib import import_module
from typing import Callable, Mapping, NamedTuple

from ..core import Builder, ReactorTopology

GROUP_MICRO = "micro"
GROUP_CONCURRENCY = "concurrency"
GROUP_PARALLELISM = "parallelism"

#: Each group and the module that declares its benchmarks, in group order.
_PROGRAMS = {GROUP_MICRO: ".micro", GROUP_CONCURRENCY: ".concurrency",
             GROUP_PARALLELISM: ".parallel"}


class BenchmarkValidationError(Exception):
    """A benchmark's functional result was wrong."""


class UnknownBenchmarkError(KeyError):
    def __init__(self, name: str, known):
        super().__init__(name)
        self.message = f"unknown benchmark {name!r}; known: {', '.join(known)}"

    def __str__(self) -> str:
        return self.message


class BenchmarkInstance(NamedTuple):
    """One freshly built, runnable copy of a benchmark."""

    topology: ReactorTopology
    validate: Callable  # validate(report) -> None, raises BenchmarkValidationError


class BenchmarkSpec(NamedTuple):
    name: str  # registry key, e.g. "DiningPhilosophers"
    title: str  # display name, e.g. "Dining Philosophers"
    group: str
    defaults: Mapping[str, object]
    build: Callable[[dict], BenchmarkInstance]

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
    """Decorator: register ``builder(b, **params) -> validate`` as the
    benchmark ``name``, with the defaults of its keyword arguments after
    ``b`` as parameters."""
    def decorate(builder: Callable[..., Callable]):
        if name in _REGISTRY:
            raise ValueError(f"benchmark {name!r} registered twice")
        defaults = _parameters(name, builder)

        def build(params: dict) -> BenchmarkInstance:
            b = Builder(name)
            try:
                validate = builder(b, **params)
            except ValueError as exc:
                raise ValueError(f"benchmark {name}: {exc}") from exc
            return BenchmarkInstance(b.build(), validate)

        _REGISTRY[name] = BenchmarkSpec(name, title, group, defaults, build)
        return builder
    return decorate


#: The flags of a code object that takes ``*args`` and ``**kwargs``, as
#: ``inspect.CO_VARARGS`` and ``inspect.CO_VARKEYWORDS``.
_CO_VARARGS, _CO_VARKEYWORDS = 0x04, 0x08


def _parameters(name: str, builder: Callable) -> dict:
    """The parameters of ``builder(b, **params)`` after ``b``, in signature
    order, each with its default. They are read from its code object, so
    that importing the registry loads no ``inspect``. Each must be a keyword
    argument with a default: any other, ``*args``, ``**kwargs`` and a
    keyword-only one included, is refused with a ``ValueError`` naming the
    benchmark and the parameter."""
    code = builder.__code__
    count = code.co_argcount
    extra = (code.co_kwonlyargcount + bool(code.co_flags & _CO_VARARGS)
             + bool(code.co_flags & _CO_VARKEYWORDS))
    names = code.co_varnames[:count + extra]
    defaults = builder.__defaults__ or ()
    first_default = count - len(defaults)
    params = {}
    for i, param in enumerate(names[1:], 1):
        if not max(first_default, code.co_posonlyargcount) <= i < count:
            raise ValueError(f"benchmark {name}: parameter {param!r} is not a keyword "
                             f"argument with a default")
        params[param] = defaults[i - first_default]
    return params


def list_benchmarks() -> list[BenchmarkSpec]:
    """All benchmarks, in group order and, within a group, in declaration
    order, whichever program modules a caller imported first."""
    for module in _PROGRAMS.values():
        import_module(module, __package__)
    groups = list(_PROGRAMS)
    return sorted(_REGISTRY.values(), key=lambda spec: groups.index(spec.group))


def get_benchmark(name: str) -> BenchmarkSpec:
    """The benchmark ``name``, importing the program modules in group order
    until one registers it."""
    for module in _PROGRAMS.values():
        if name in _REGISTRY:
            break
        import_module(module, __package__)
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownBenchmarkError(name, [spec.name for spec in list_benchmarks()]) from None


def at_least(**bounds: tuple[int, int]) -> None:
    """Reject each parameter given as ``name=(value, least)`` whose value is
    below the least its benchmark can mean, with a ``ValueError`` naming the
    parameter and the value. Builders call it first, so an out-of-range
    count fails at build, not as a wrong or endless run."""
    for name, (value, least) in bounds.items():
        if value < least:
            raise ValueError(f"parameter {name!r} must be at least {least}, got {value}")


def check(condition: bool, message: str) -> None:
    if not condition:
        raise BenchmarkValidationError(message)
