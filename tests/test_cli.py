"""CLI contract: flags, exit codes, CSV schema, trace files."""

import io
import os
import re
import subprocess
import sys
import threading
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import pytest

from detreact import MSEC, Builder, Trace, trace_digest
from detreact import cli
from detreact.bench import BenchmarkInstance, BenchmarkSpec, BenchmarkValidationError, registry
from detreact.cli import main
from detreact.trace import diff
from test_bench import SMALL


def invoke(*args):
    """Run ``main(args)`` with stdout and stderr captured together; a usage
    error leaves through argparse's ``SystemExit``."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(out):
        try:
            code = main(list(args))
        except SystemExit as exc:
            code = exc.code
    return SimpleNamespace(exit_code=code, output=out.getvalue())


def test_no_arguments_prints_usage_exit_2():
    result = invoke()
    assert result.exit_code == 2
    assert "usage:" in result.output


def test_unknown_flag_exit_2():
    result = invoke("--frobnicate")
    assert result.exit_code == 2


def test_unknown_benchmark_exit_2():
    result = invoke("-b", "NoSuchBenchmark")
    assert result.exit_code == 2
    assert "unknown benchmark" in result.output


def test_list_exit_0():
    result = invoke("--list")
    assert result.exit_code == 0
    assert "DiningPhilosophers" in result.output
    assert "concurrency" in result.output
    assert "PingPong" in result.output


def test_run_with_csv(tmp_path):
    csv_path = tmp_path / "out.csv"
    result = invoke("-b", "PingPong", "--workers", "1",
                    "--iterations", "6", "--warmup", "2",
                    "--param", "messages=30", "--csv", str(csv_path))
    assert result.exit_code == 0, result.output
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "benchmark,workers,iteration,millis"
    iteration_rows = [ln for ln in lines[1:] if re.match(r"PingPong,1,\d+,[\d.]+$", ln)]
    assert len(iteration_rows) == 4  # iterations - warmup
    assert [ln.split(",")[2] for ln in iteration_rows] == ["2", "3", "4", "5"]
    summary_at = lines.index("benchmark,workers,mean_ms,ci99_ms")
    summary = lines[summary_at + 1:]
    assert len(summary) == 1
    assert summary[0].startswith("PingPong,1,")


def test_csv_stable_apart_from_timing(tmp_path):
    paths = []
    for i in range(2):
        p = tmp_path / f"run{i}.csv"
        result = invoke("-b", "CigaretteSmokers", "--workers", "1,2",
                        "--iterations", "4", "--warmup", "1",
                        "--param", "rounds=30", "--seed", "9", "--csv", str(p))
        assert result.exit_code == 0, result.output
        paths.append(p)

    def strip_timing(text):
        # Timing columns are the only decimal-formatted fields.
        rows = []
        for line in text.splitlines():
            kept = [f for f in line.split(",") if not re.match(r"^\d+\.\d+$", f)]
            rows.append(",".join(kept))
        return rows

    a, b = (strip_timing(p.read_text()) for p in paths)
    assert a == b


def test_worker_sweep_traces_identical(tmp_path):
    trace_dir = tmp_path / "traces"
    result = invoke("-b", "DiningPhilosophers", "--workers", "1,2,4,8",
                    "--iterations", "3", "--warmup", "1",
                    "--param", "philosophers=5", "--param", "eat_rounds=4",
                    "--trace", str(trace_dir))
    assert result.exit_code == 0, result.output
    files = sorted(trace_dir.glob("DiningPhilosophers_w*.trace"))
    assert len(files) == 4
    contents = {f.read_bytes() for f in files}
    assert len(contents) == 1, "trace files differ across worker counts"
    digests = re.findall(r"trace digest ([0-9a-f]{16})", result.output)
    assert len(set(digests)) == 1 and len(digests) == 4


@pytest.mark.parametrize("name", list(SMALL))
def test_a_trace_file_reads_back_as_the_run_trace(name, tmp_path, monkeypatch):
    # A trace is its text: the file that --trace writes is a Trace with the
    # run's digest and records.
    traces, trace_one = {}, cli._trace_one
    monkeypatch.setattr(cli, "_trace_one", lambda spec, params, workers, trace_dir: traces.setdefault(
        workers, trace_one(spec, params, workers, trace_dir)))
    params = [arg for k, v in SMALL[name].items() for arg in ("--param", f"{k}={v}")]
    result = invoke("-b", name, "--workers", "1,2", "--iterations", "2", "--warmup", "1",
                    *params, "--trace", str(tmp_path))
    assert result.exit_code == 0, result.output
    assert sorted(traces) == [1, 2]
    for workers, trace in traces.items():
        path = tmp_path / f"{name}_w{workers}.trace"
        read = Trace(path.read_text(encoding="utf-8"))
        assert read == trace and path.read_bytes() == trace.canonical_bytes()
        assert trace_digest(read) == trace_digest(trace)
        assert len(read.records) > 0 and read.records == trace.records


def test_sweep_names_the_first_divergent_record(tmp_path, monkeypatch):
    # A body that reads how many threads are alive: the run's own workers
    # make that one more at workers=2 than at workers=1, so the traces part
    # at the first tick, whatever the OS schedules.
    def build(params):
        b = Builder("threads")
        r = b.reactor("r")
        t = r.timer("t", offset=0, period=MSEC)
        out = r.output("out")
        r.state.n = 0

        def tick(ctx):
            ctx.state.n += 1
            ctx.set(out, threading.active_count())
            if ctx.state.n == 3:
                ctx.request_stop()

        r.reaction(t, effects=[out], body=tick)
        return BenchmarkInstance(b.build(), lambda report: None)

    spec = BenchmarkSpec(name="ThreadCount", title="Thread Count", group="micro",
                         defaults={}, build=build)
    monkeypatch.setitem(registry._REGISTRY, spec.name, spec)
    result = invoke("-b", "ThreadCount", "--workers", "1,2", "--iterations", "2",
                    "--warmup", "1", "--trace", str(tmp_path))
    assert result.exit_code == 1, result.output
    a, b = ((tmp_path / f"ThreadCount_w{w}.trace").read_text().splitlines() for w in (1, 2))
    report = diff(a, b)
    assert report[0] == "first difference at line 1"
    assert "FAIL: trace differs from workers=1" in result.output
    for line in report:
        assert line in result.output


def test_validator_failure_exit_1(monkeypatch):
    def build(params):
        b = Builder("AlwaysWrong")
        r = b.reactor("r")
        r.reaction(r.timer("t"), body=lambda ctx: None)

        def validate(report):
            raise BenchmarkValidationError("deliberately wrong")

        return BenchmarkInstance(b.build(), validate)

    spec = BenchmarkSpec(name="AlwaysWrong", title="Always Wrong", group="micro",
                         defaults={}, build=build)
    monkeypatch.setitem(registry._REGISTRY, spec.name, spec)
    result = invoke("-b", "AlwaysWrong", "--iterations", "2", "--warmup", "1")
    assert result.exit_code == 1
    assert "FAIL" in result.output and "deliberately wrong" in result.output


def test_a_failing_reaction_fails_its_row_and_the_sweep_goes_on(tmp_path, monkeypatch):
    def build(params):
        b = Builder("Boom")
        r = b.reactor("r")

        def explode(ctx):
            raise ValueError("deliberately raised")

        r.reaction(r.timer("t"), body=explode)
        return BenchmarkInstance(b.build(), lambda report: None)

    spec = BenchmarkSpec(name="Boom", title="Boom", group="micro", defaults={}, build=build)
    monkeypatch.setitem(registry._REGISTRY, spec.name, spec)
    csv = tmp_path / "out.csv"
    result = invoke("-b", "Boom", "-b", "PingPong",
                    "--iterations", "2", "--warmup", "1", "--csv", str(csv))
    assert result.exit_code == 1, result.output
    assert re.search(r"Boom\s+1 .*FAIL: reaction r\.1 failed: ValueError", result.output)
    assert re.search(r"PingPong\s+1\s.*ok", result.output)
    assert "Traceback" not in result.output
    rows = csv.read_text().splitlines()
    assert rows[0] == "benchmark,workers,iteration,millis"
    assert {row.split(",")[0] for row in rows[1:]} == {"PingPong", "benchmark"}


def test_a_reaction_that_fails_only_when_traced_fails_its_row(tmp_path, monkeypatch):
    builds = []

    def build(params):
        # The CLI builds every selected benchmark once to check its
        # parameters, then once per timed iteration (two here), then once for
        # the traced run: the fourth build is the traced run.
        builds.append(1)
        b = Builder("TracedBoom")
        r = b.reactor("r")

        def body(ctx, _fail=len(builds) == 4):
            if _fail:
                raise ValueError("deliberately raised")

        r.reaction(r.timer("t"), body=body)
        return BenchmarkInstance(b.build(), lambda report: None)

    spec = BenchmarkSpec(name="TracedBoom", title="Traced Boom", group="micro",
                         defaults={}, build=build)
    monkeypatch.setitem(registry._REGISTRY, spec.name, spec)
    result = invoke("-b", "TracedBoom", "-b", "PingPong",
                    "--iterations", "2", "--warmup", "1", "--trace", str(tmp_path))
    assert result.exit_code == 1, result.output
    assert len(builds) == 4
    rows = [line.split() for line in result.output.splitlines() if line.startswith("TracedBoom")]
    assert [row[:3] + row[7:8] for row in rows] == [["TracedBoom", "1", "1", "ok"],
                                                    ["TracedBoom", "1", "-", "FAIL:"]], rows
    assert "FAIL: reaction r.1 failed: ValueError" in result.output
    assert not (tmp_path / "TracedBoom_w1.trace").exists()
    assert (tmp_path / "PingPong_w1.trace").is_file()


def test_unknown_param_exit_2_naming_it():
    result = invoke("-b", "PingPong", "--param", "nosuch=1")
    assert result.exit_code == 2
    assert "benchmark PingPong: unknown parameter 'nosuch'" in result.output


def test_bad_workers_value_exit_2():
    result = invoke("-b", "PingPong", "--workers", "zero")
    assert result.exit_code == 2


def test_warmup_not_below_iterations_exit_2():
    result = invoke("-b", "PingPong", "--iterations", "2", "--warmup", "2")
    assert result.exit_code == 2


@pytest.mark.parametrize("args, named", [
    (("--iterations", "4", "--warmup", "-1"), "--warmup"),
    (("--iterations", "-1", "--warmup", "-3"), "--iterations"),
    (("--param", "messages=10.9"), "messages=10.9"),
    (("--param", "messages=x"), "messages=x"),
], ids=["negative-warmup", "negative-iterations", "fractional-param", "non-numeric-param"])
def test_malformed_number_exit_2(args, named):
    result = invoke("-b", "PingPong", *args)
    assert result.exit_code == 2
    assert named in result.output


@pytest.mark.parametrize("benchmarks, param, message", [
    (["ThreadRing"], "hops=-1", "ThreadRing: parameter 'hops' must be at least 0, got -1"),
    (["PingPong"], "messages=0", "PingPong: parameter 'messages' must be at least 1, got 0"),
    (["Chameneos"], "chameneos=1", "Chameneos: parameter 'chameneos' must be at least 2, got 1"),
    # ForkJoin accepts 0 rounds and would run first
    (["ForkJoin", "CigaretteSmokers"], "rounds=0",
     "CigaretteSmokers: parameter 'rounds' must be at least 1, got 0"),
    # at the default capacity and seed, 19 customers are the fewest that balk
    (["SleepingBarber"], "customers=12", "SleepingBarber: customers=12, capacity=5 and seed=1 "
                                         "turn no customer away, so nothing contends"),
], ids=["ThreadRing", "PingPong", "Chameneos", "second-benchmark", "SleepingBarber"])
def test_count_below_its_least_exit_2_on_one_line(benchmarks, param, message, monkeypatch):
    def run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr("detreact.cli.run_benchmark", run)
    selected = [arg for name in benchmarks for arg in ("-b", name)]
    result = invoke(*selected, "--param", param, "--iterations", "2", "--warmup", "1")
    assert result.exit_code == 2
    assert result.output == f"detreact: error: benchmark {message}\n"


def test_trace_naming_a_file_exit_2(tmp_path):
    existing = tmp_path / "file.trace"
    existing.write_text("")
    result = invoke("-b", "PingPong", "--trace", str(existing))
    assert result.exit_code == 2
    assert "--trace" in result.output


def test_csv_naming_a_directory_exit_2(tmp_path):
    result = invoke("-b", "PingPong", "--csv", str(tmp_path))
    assert result.exit_code == 2
    assert "--csv" in result.output


def _no_run(*args, **kwargs):
    raise AssertionError("a run started")


@pytest.mark.parametrize("flag, path", [
    ("--csv", "missing/out.csv"),
    ("--csv", "file/out.csv"),
    ("--trace", "file/sub"),
    ("--trace", "file/sub/deeper"),
], ids=["csv-missing-dir", "csv-under-a-file", "trace-under-a-file", "trace-deep-under-a-file"])
def test_output_path_that_cannot_be_written_exit_2_before_any_run(tmp_path, monkeypatch,
                                                                  flag, path):
    monkeypatch.setattr("detreact.cli.run_benchmark", _no_run)
    (tmp_path / "file").write_text("")
    result = invoke("-b", "PingPong", flag, str(tmp_path / path))
    assert result.exit_code == 2
    errors = [ln for ln in result.output.splitlines() if "error" in ln]
    assert errors == [result.output.splitlines()[-1]]  # after the usage, one error line
    assert errors[0].startswith(f"detreact: error: argument {flag}: ")
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("module", ["detreact.cli", "detreact.trace"])
def test_closed_stdout_exits_1_quietly(tmp_path, module, unbuffered):
    trace = tmp_path / "a.trace"
    trace.write_text("x\n", encoding="utf-8")
    args = ["--list"] if module == "detreact.cli" else ["diff", str(trace), str(trace)]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write
    try:
        done = subprocess.run([sys.executable, *(["-u"] if unbuffered else []), "-m", module,
                               *args],
                              stdout=write_end, stderr=subprocess.PIPE, text=True,
                              timeout=60, env=env)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (1, "")
