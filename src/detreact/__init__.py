"""detreact: a deterministic reactor runtime.

Programs are compositions of reactors connected through ports. All events
carry a superdense logical tag and are processed strictly in tag order;
within a tag, a precedence graph over the reactions decides what may run in
parallel, so a program's observable behavior is identical whether it runs
on one worker thread or eight.
"""

from .core import (MSEC, NSEC, SEC, SHUTDOWN, STARTUP, USEC, Action, Builder, Port,
                   PortChannel, ReactorTopology, Tag, Timer)
from .errors import (CausalityCycleError, CompositionError,
                     ContractViolationError, ExecutionError, ShutdownError)
from .graph import PrecedenceGraph, build_precedence_graph, max_level_width, to_dot
from .patterns import Bank, Interleaved, bank, connect, unfold
from .sched import Environment, ReadyQueue, TerminationReport

__all__ = [
    "Action", "Bank", "Builder", "CausalityCycleError", "CompositionError",
    "ContractViolationError", "Environment", "ExecutionError", "Interleaved",
    "MSEC", "NSEC", "Port", "PortChannel", "PrecedenceGraph", "ReactorTopology",
    "ReadyQueue", "SEC", "SHUTDOWN", "STARTUP", "ShutdownError", "Tag",
    "TerminationReport", "Timer", "Trace", "TraceRecord", "USEC", "bank",
    "build_precedence_graph", "connect", "max_level_width",
    "to_dot", "trace_digest", "unfold", "value_digest",
]

__version__ = "0.1.0"

_TRACE_NAMES = frozenset({"Trace", "TraceRecord", "trace_digest", "value_digest"})


def __getattr__(name: str):
    # The trace module loads on first use, not with the package, so that
    # ``python -m detreact.trace`` runs it as a fresh ``__main__``.
    if name in _TRACE_NAMES:
        from . import trace
        return getattr(trace, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
