"""Set-up time of one workload, measured in a fresh interpreter.

Run as ``python3 perfbench/setup_probe.py <workload> <seed>``. Prints one JSON
object: seconds from before ``import detreact`` until the workload's first
program has its Environment, split into import, ``detreact.bench`` import,
``spec.build`` and graph construction.
"""

import json
import sys
from time import perf_counter_ns

from checkout import use_checkout_sources


def main(workload_name: str, seed: int) -> dict:
    use_checkout_sources()
    t0 = perf_counter_ns()
    import detreact
    t1 = perf_counter_ns()
    import detreact.bench  # noqa: F401
    t2 = perf_counter_ns()
    import workloads
    w = workloads.WORKLOADS[workload_name]
    t3 = perf_counter_ns()
    if w.physical:
        import threading
        topology, _ = workloads.physical_program(w.events, [], threading.Event())
    else:
        case = workloads.cases(w, seed)[0]
        topology = case.spec.build(case.params).topology
    t4 = perf_counter_ns()
    detreact.Environment(topology, workers=w.workers, fast=not w.physical)
    t5 = perf_counter_ns()
    return {"setup_s": (t5 - t0) / 1e9, "import_detreact_ms": (t1 - t0) / 1e6,
            "import_bench_ms": (t2 - t1) / 1e6, "build_ms": (t4 - t3) / 1e6,
            "graph_ms": (t5 - t4) / 1e6}


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1], int(sys.argv[2]))))
