"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every declared metric is printed with its unit, that the span
run's counts repeat, and that sabotaged runs are counted as failures.
"""

import dataclasses
import json

import pytest

from checkout import ROOT, use_checkout_sources

use_checkout_sources()

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from detreact import Environment  # noqa: E402
from detreact.bench.registry import BenchmarkInstance, check  # noqa: E402

TINY = {
    "PingPong": {"messages": 20}, "ThreadRing": {"actors": 5, "hops": 20},
    "CountingActor": {"count": 50}, "Big": {"actors": 3, "pings": 5},
    "Chameneos": {"chameneos": 3, "meetings": 10}, "ForkJoin": {"workers": 3, "rounds": 5},
    "FilterBank": {"frame": 256, "rounds": 2}, "PiPrecision": {"terms": 10_000, "rounds": 2},
    "Trapezoidal": {"pieces": 10_000, "rounds": 2},
}
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    small = {}
    for name, w in workloads.WORKLOADS.items():
        programs = tuple((p, dict(o, **TINY[p])) for p, o in w.programs)
        small[name] = dataclasses.replace(w, programs=programs, events=w.events and 40)
    monkeypatch.setattr(workloads, "WORKLOADS", small)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)


def bench(capsys, workload, trace, seed=3):
    assert run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0.05",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.splitlines()
    return json.loads(lines[-1]), lines


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_every_metric_printed_with_unit(capsys, workload, trace):
    result, lines = bench(capsys, workload, trace)
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(f"{m['name']} = ") and line.endswith(f" {m['unit']}")
                   for line in lines), m["name"]
    assert any(line.startswith("failed_share = 0 ") for line in lines)


def test_metric_table_covers_benchmark_json():
    table = json.loads((ROOT / "perfbench" / "metrics.json").read_text())
    names = [m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]]
    assert sorted(table) == sorted(names)
    assert all(v["layer"] and v["moves"] for v in table.values())


def test_span_counts_repeat_and_export_reads_back(capsys):
    first, _ = bench(capsys, "micro-w2", 1)
    second, _ = bench(capsys, "micro-w2", 1)
    counts = [m["name"] for m in DECLARED["per_layer"] if m["unit"] in ("count", "bytes")]
    assert {k: first["metrics"][k] for k in counts} == {k: second["metrics"][k] for k in counts}
    rows = spans.load_chrome(run.OUT_DIR / "spans-micro-w2-3.json")
    summary = spans.summarize(rows)
    assert summary["layers"]["body"]["count"] == first["metrics"]["sched.reactions"]["value"]
    assert {"program", "build", "graph", "exec", "ctx.set"} <= set(summary["layers"])


def test_wrong_validator_is_counted(capsys, monkeypatch):
    real = workloads.cases

    def sabotaged(w, seed):
        out = real(w, seed)
        spec = out[0].spec

        class WrongCount:
            name = spec.name

            @staticmethod
            def build(params):
                inst = spec.build(params)

                def validate(report):
                    check(report.reactions == report.reactions + 1, "wrong expected count")
                return BenchmarkInstance(inst.topology, validate)

        return [workloads.Case(WrongCount, out[0].params)] + out[1:]

    monkeypatch.setattr(workloads, "cases", sabotaged)
    result, lines = bench(capsys, "micro-w1", 0)
    assert not result["correct"] and result["failed"] >= 1
    assert any(line.startswith("FAILED: PingPong") for line in lines)
    assert not any(line.startswith("failed_share = 0 ") for line in lines)


def test_dropped_physical_event_is_counted(capsys, monkeypatch):
    real = Environment.schedule_physical

    def drop_fourth(env, action, value=None):
        if value[0] == 3:
            return None
        return real(env, action, value)

    monkeypatch.setattr(Environment, "schedule_physical", drop_fourth)
    result, lines = bench(capsys, "physical-rt", 0)
    assert not result["correct"] and result["failed"] >= 1
    assert any("never handled" in line for line in lines if line.startswith("FAILED"))
