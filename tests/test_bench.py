"""Benchmark registry, harness statistics, and per-benchmark validators."""

import gc
import inspect
import json
import math
import os
import shutil
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from detreact import Environment, trace_digest
from detreact.bench import (BenchmarkInstance, BenchmarkSpec,
                            BenchmarkValidationError, Lcg64,
                            UnknownBenchmarkError, get_benchmark,
                            list_benchmarks, run_benchmark, run_once)
# A program module loads on the first lookup that needs it. Importing all
# three here, before any test runs, puts every benchmark in the registry
# itself: a test that swaps registry._REGISTRY for a copy would lose the
# benchmarks of a program module first loaded while the copy is in place.
from detreact.bench import concurrency, harness, micro, opcount, parallel, registry
from detreact.bench.harness import student_t_quantile

SMALL = {
    "PingPong": {"messages": 60},
    "ThreadRing": {"actors": 7, "hops": 90},
    "CountingActor": {"count": 150},
    "ForkJoin": {"workers": 4, "rounds": 40},
    "Big": {"actors": 5, "pings": 15},
    "Chameneos": {"chameneos": 5, "meetings": 40},
    "ConcurrentDictionary": {"workers": 4, "ops": 30},
    "SleepingBarber": {"customers": 120},
    "CigaretteSmokers": {"rounds": 80},
    "DiningPhilosophers": {"philosophers": 5, "eat_rounds": 8},
    "BankTransaction": {"accounts": 5, "rounds": 12, "batch": 4},
    "ProducerConsumer": {"producers": 3, "consumers": 2, "items": 25, "buffer": 5},
    "Trapezoidal": {"pieces": 20_000, "rounds": 2},
    "PiPrecision": {"terms": 20_000, "rounds": 2},
    "RadixSort": {"size": 400, "bits": 8, "rounds": 2},
    "FilterBank": {"branches": 4, "frame": 256, "taps": 12, "rounds": 3},
}


def small_params(spec):
    return spec.resolve_params(SMALL[spec.name])


def test_registry_contents_and_groups():
    specs = {s.name: s for s in list_benchmarks()}
    assert len(specs) == 16
    assert specs["PingPong"].group == "micro"
    assert specs["DiningPhilosophers"].group == "concurrency"
    assert specs["DiningPhilosophers"].title == "Dining Philosophers"
    assert specs["Trapezoidal"].group == "parallelism"
    micro = [s.name for s in list_benchmarks() if s.group == "micro"]
    assert micro == ["PingPong", "ThreadRing", "CountingActor", "ForkJoin",
                     "Big", "Chameneos"]


def test_unknown_benchmark_rejected():
    with pytest.raises(UnknownBenchmarkError):
        get_benchmark("Nope")


def test_registry_names_each_program_and_takes_its_parameters_from_its_builder():
    builders = set()
    for spec in list_benchmarks():
        builder = inspect.getclosurevars(spec.build).nonlocals["builder"]
        first, *params = inspect.signature(builder).parameters.values()
        assert first.name == "b" and first.default is inspect.Parameter.empty
        assert spec.defaults == {p.name: p.default for p in params}, spec.name
        assert spec.build(small_params(spec)).topology.name == spec.name
        builders.add(builder)
    assert builders == {f for module in (micro, concurrency, parallel)
                        for name, f in vars(module).items() if name.startswith("_build_")}


def test_register_prefixes_a_builders_value_error_and_refuses_a_name_twice(monkeypatch):
    monkeypatch.setattr(registry, "_REGISTRY", dict(registry._REGISTRY))

    @registry.register("X", "X", "micro")
    def _build_x(b, n=1):
        raise ValueError("x")

    spec = get_benchmark("X")
    assert spec.defaults == {"n": 1}
    with pytest.raises(ValueError) as exc:
        spec.build(spec.resolve_params())
    assert str(exc.value) == "benchmark X: x"
    with pytest.raises(ValueError, match="registered twice"):
        registry.register("X", "X", "micro")(_build_x)


def _no_default(b, n): ...
def _star_args(b, n=1, *rest): ...
def _star_kwargs(b, n=1, **rest): ...
def _keyword_only(b, n=1, *, rest=2): ...
def _positional_only(b, rest=1, /, n=2): ...


@pytest.mark.parametrize("builder", [_no_default, _star_args, _star_kwargs,
                                     _keyword_only, _positional_only])
def test_register_refuses_a_parameter_that_is_not_a_keyword_argument_with_a_default(
        builder, monkeypatch):
    monkeypatch.setattr(registry, "_REGISTRY", dict(registry._REGISTRY))
    param = "n" if builder is _no_default else "rest"
    with pytest.raises(ValueError, match=f"^benchmark X: parameter '{param}' is not a "
                                         f"keyword argument with a default$"):
        registry.register("X", "X", "micro")(builder)
    assert "X" not in registry._REGISTRY


def test_the_code_flags_the_registry_reads_are_inspects():
    assert (registry._CO_VARARGS, registry._CO_VARKEYWORDS) == (
        inspect.CO_VARARGS, inspect.CO_VARKEYWORDS)


def test_unknown_parameter_rejected():
    spec = get_benchmark("PingPong")
    with pytest.raises(KeyError, match="unknown parameter"):
        spec.resolve_params({"bogus": 1})


@pytest.mark.parametrize("name", sorted(SMALL))
def test_benchmark_validates_and_is_deterministic(name):
    spec = get_benchmark(name)
    params = small_params(spec)
    digests = set()
    for workers in (1, 2, 4):
        _inst, env, report = run_once(spec, params, workers=workers, trace=True)
        assert report.reactions > 0
        digests.add(trace_digest(env.trace))
    assert len(digests) == 1, f"{name}: behavior varies with worker count"


def test_lcg_sequence_frozen():
    # Independent re-implementation of the recurrence as the oracle: seed
    # mixing, one advance consumed by the constructor, then visible draws.
    mask = (1 << 64) - 1

    def advance(s):
        return (s * 6364136223846793005 + 1442695040888963407) & mask

    s = advance((42 ^ 0x9E3779B97F4A7C15) & mask)
    expected = []
    for _ in range(3):
        s = advance(s)
        expected.append(s)

    rng = Lcg64(42)
    assert [rng.next_u64() for _ in range(3)] == expected
    assert 0 <= rng.next_below(10) < 10
    assert 0.0 <= rng.next_double() < 1.0


def test_stats_shape_and_ci():
    spec = get_benchmark("PingPong")
    stats = run_benchmark(spec, {"messages": 20}, workers=1, iterations=7, warmup=2)
    assert len(stats.warmup_ms) == 2
    assert len(stats.samples_ms) == 5
    assert stats.iterations == 7
    assert stats.mean_ms == pytest.approx(sum(stats.samples_ms) / 5)
    # Student-t 99% half-width against the textbook formula with the frozen
    # critical value for 4 degrees of freedom (4.604).
    s = stats.samples_ms
    mean = sum(s) / len(s)
    var = sum((x - mean) ** 2 for x in s) / (len(s) - 1)
    expected = 4.604 * math.sqrt(var / len(s))
    assert stats.ci99_ms == pytest.approx(expected, rel=1e-3)


@pytest.mark.parametrize("df, tabulated", [(1, 63.657), (4, 4.604), (29, 2.756)])
def test_student_t_quantile_matches_table(df, tabulated):
    assert student_t_quantile(0.995, df) == pytest.approx(tabulated, rel=1e-3)


def test_warmup_must_be_smaller_than_iterations():
    spec = get_benchmark("PingPong")
    with pytest.raises(ValueError, match="warmup"):
        run_benchmark(spec, {"messages": 5}, iterations=2, warmup=2)


@pytest.mark.parametrize("counts, message", [
    ({"workers": 0}, "workers must be >= 1"),
    ({"iterations": 0, "warmup": 0}, "iterations must be >= 1"),
], ids=["zero-workers", "zero-iterations"])
def test_run_benchmark_rejects_a_count_below_one(counts, message):
    spec = get_benchmark("PingPong")
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_benchmark(spec, {"messages": 5}, **counts)


def test_warmup_must_not_be_negative():
    spec = get_benchmark("PingPong")
    with pytest.raises(ValueError, match="warmup"):
        run_benchmark(spec, {"messages": 5}, iterations=4, warmup=-1)


def test_validator_failure_aborts():
    def build(params):
        from detreact import Builder
        b = Builder("always_wrong")
        r = b.reactor("r")
        t = r.timer("t")
        r.reaction(t, body=lambda ctx: None)

        def validate(report):
            raise BenchmarkValidationError("deliberately wrong")

        return BenchmarkInstance(b.build(), validate)

    spec = BenchmarkSpec(name="AlwaysWrong", title="x", group="micro",
                         defaults={}, build=build)
    with pytest.raises(BenchmarkValidationError, match="iteration 0"):
        run_benchmark(spec, {}, iterations=3, warmup=1)


def test_bank_transaction_conserves_money_at_every_tag():
    spec = get_benchmark("BankTransaction")
    params = spec.resolve_params({"accounts": 5, "rounds": 10, "batch": 4})
    inst = spec.build(params)
    # Log each account's balance after every body call, per tag; each batch
    # tag, and the final one, must leave the total invariant.
    per_tag = {}

    def logged(body):
        def log(ctx):
            body(ctx)
            per_tag.setdefault(ctx.tag, []).append(ctx.state.balance)
        return log

    accounts = [r for r in inst.topology.reactions if r.owner.name.startswith("account[")]
    assert len(accounts) == 5
    for reaction in accounts:
        reaction.body = logged(reaction.body)
    inst.validate(Environment(inst.topology, workers=4, fast=True).run())
    assert len(per_tag) == params["rounds"] + 1
    for tag, balances in per_tag.items():
        assert len(balances) == 5, f"missing account updates at {tag}"
        assert sum(balances) == 5 * params["initial"], f"not conserved at {tag}"


def test_ping_pong_thousand_exchanges():
    spec = get_benchmark("PingPong")
    inst, _env, _report = run_once(spec, spec.resolve_params())  # default 1000
    pong = next(i for i in inst.topology.instances if i.name == "pong")
    assert pong.state.count == 1000


def test_trapezoid_matches_closed_form_tightly():
    spec = get_benchmark("Trapezoidal")
    inst, _env, _report = run_once(
        spec, spec.resolve_params({"pieces": 10_000, "rounds": 1}), workers=4)
    disp = next(i for i in inst.topology.instances if i.name == "dispatcher")
    assert abs(disp.state.results[0] - math.pi) < 1e-6

    inst, _env, _report = run_once(spec, spec.resolve_params({"pieces": 50_000,
                                                              "rounds": 1}))
    disp = next(i for i in inst.topology.instances if i.name == "dispatcher")
    assert abs(disp.state.results[0] - math.pi) < 1e-8


def test_radix_sort_output_is_sorted_permutation():
    import numpy as np
    spec = get_benchmark("RadixSort")
    params = spec.resolve_params({"size": 300, "bits": 10, "rounds": 2})
    inst, _env, _report = run_once(spec, params)
    sink = next(i for i in inst.topology.instances if i.name == "sink")
    for arr in sink.state.outputs:
        assert len(arr) == 300
        assert bool(np.all(arr[1:] >= arr[:-1]))


# -- golden trace digests -----------------------------------------------------

GOLDEN_DIGESTS = json.loads((Path(__file__).parent / "golden" / "digests.json").read_text())
# These three trace numpy float results (np.sin, np.sum), whose last bits may
# differ across CPUs and numpy builds; they are checked across worker counts
# only.
FLOAT_TRACED = {"FilterBank", "PiPrecision", "Trapezoidal"}


def test_golden_digests_cover_every_benchmark():
    assert not set(GOLDEN_DIGESTS) & FLOAT_TRACED
    assert set(GOLDEN_DIGESTS) | FLOAT_TRACED == {s.name for s in list_benchmarks()}


@pytest.mark.parametrize("name", [spec.name for spec in list_benchmarks()])
def test_default_trace_digest_is_pinned(name):
    spec = get_benchmark(name)
    digests = set()
    for workers in (1, 2):
        _inst, env, _report = run_once(spec, spec.resolve_params({}), workers=workers,
                                       trace=True)
        digests.add(f"{trace_digest(env.trace):016x}")
    assert len(digests) == 1, f"{name}: behavior varies with worker count"
    if name not in FLOAT_TRACED:
        assert digests == {GOLDEN_DIGESTS[name]}


# -- golden bytecode counts -----------------------------------------------------

GOLDEN_OPCODES = json.loads((Path(__file__).parent / "golden" / "opcodes.json").read_text())


def test_golden_opcodes_cover_the_micro_programs():
    assert list(GOLDEN_OPCODES["programs"]) == [
        s.name for s in list_benchmarks() if s.group == "micro"]


@pytest.mark.skipif("%d.%d" % sys.version_info[:2] != GOLDEN_OPCODES["python"],
                    reason="bytecode differs between Python versions")
@pytest.mark.parametrize("name", list(GOLDEN_OPCODES["programs"]))
def test_bytecode_counts_are_pinned(name):
    # Exact, noise-free counts of the runtime's work: a change that moves one
    # recounts with `python -m detreact.bench.opcount --golden <this file>`
    # and says why.
    golden = GOLDEN_OPCODES["programs"][name]
    assert opcount.golden_entry(name, golden["params"]) == golden


# -- a finished run is freed by reference count --------------------------------


def _run_and_drop(spec, workers, trace):
    """Build, run and validate one instance, drop it, and return weak
    references to its Environment and its topology."""
    instance, env, _report = run_once(spec, small_params(spec), workers=workers, trace=trace)
    return weakref.ref(env), weakref.ref(instance.topology)


def test_a_finished_run_leaves_nothing_to_the_cycle_collector():
    # A built program holds no reference back up (an instance keeps no
    # declaration lists, the builder no instance), and run() drops the
    # contexts that point at their Environment: the last reference to a
    # finished run frees it, with the collector switched off.
    enabled = gc.isenabled()
    gc.disable()
    try:
        for spec in list_benchmarks():  # a program's first run imports what it uses
            _run_and_drop(spec, 1, False)
        gc.collect()
        for spec in list_benchmarks():
            for workers in (1, 2):
                for trace in (False, True):
                    env, topology = _run_and_drop(spec, workers, trace)
                    run = (spec.name, workers, trace)
                    assert env() is None and topology() is None, run
                    assert gc.collect() == 0, run
    finally:
        if enabled:
            gc.enable()


# -- parameters are integers --------------------------------------------------


@pytest.mark.parametrize("value", [10.9, "10"])
def test_non_integer_parameter_rejected(value):
    spec = get_benchmark("PingPong")
    with pytest.raises(ValueError, match="PingPong: parameter 'messages' must be an integer"):
        spec.resolve_params({"messages": value})


def test_non_integer_parameter_rejected_before_any_iteration(monkeypatch):
    def iteration(*args, **kwargs):
        raise AssertionError("an iteration ran")

    monkeypatch.setattr(harness, "run_once", iteration)
    with pytest.raises(ValueError, match="'messages'"):
        run_benchmark(get_benchmark("PingPong"), {"messages": 10.9})


def test_integer_parameters_accepted():
    import numpy as np
    params = get_benchmark("BankTransaction").resolve_params({"accounts": np.int64(5)})
    assert params["accounts"] == 5 and type(params["accounts"]) is int


# -- counts below their least meaningful value fail at build --------------------


def test_every_count_rejects_a_negative_value_at_build():
    # Every parameter but a seed is a count, a size or a flag.
    for spec in list_benchmarks():
        for key in spec.defaults:
            if key == "seed":
                continue
            params = spec.resolve_params({key: -1})
            with pytest.raises(ValueError, match=rf"^benchmark {spec.name}: parameter "
                                                 rf"'{key}' must be at least \d+, got -1$"):
                spec.build(params)


@pytest.mark.parametrize("name, key, least", [
    ("PingPong", "messages", 1),  # 0 used to fail its validator
    ("ThreadRing", "hops", 0),  # -1 used to run forever
    ("ThreadRing", "actors", 1),
    ("CountingActor", "count", 0),
    ("Chameneos", "chameneos", 2),
    ("CigaretteSmokers", "rounds", 1),
    ("DiningPhilosophers", "philosophers", 2),
    ("ProducerConsumer", "buffer", 3),  # one slot per producer, of 3
])
def test_a_count_below_its_least_is_rejected_and_the_least_runs(name, key, least):
    spec = get_benchmark(name)
    below = spec.resolve_params({**SMALL[name], key: least - 1})
    with pytest.raises(ValueError, match=rf"^benchmark {name}: parameter '{key}' must be at "
                                         rf"least {least}, got {least - 1}$"):
        spec.build(below)
    run_once(spec, spec.resolve_params({**SMALL[name], key: least}))  # validates


def test_a_sleeping_barber_that_turns_no_customer_away_fails_at_build():
    # whether anyone balks depends on customers, capacity and seed together;
    # the builder replays the fixed schedule to tell
    spec = get_benchmark("SleepingBarber")
    with pytest.raises(ValueError, match=r"^benchmark SleepingBarber: customers=12, capacity=5 "
                                         r"and seed=1 turn no customer away"):
        spec.build(spec.resolve_params({"customers": 12}))
    run_once(spec, spec.resolve_params({"customers": 19}))  # the fewest that balk: validates


def test_every_default_is_an_int():
    for spec in list_benchmarks():
        for key, value in spec.defaults.items():
            assert type(value) is int, f"{spec.name}: default {key}={value!r}"


# -- numpy serves only the numeric benchmarks ---------------------------------

NUMPY_BENCHMARKS = {"FilterBank", "PiPrecision", "RadixSort", "Trapezoidal"}


def _python(code: str, *args: str, python: str = sys.executable) -> subprocess.CompletedProcess:
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([python, "-c", code, *args],
                          capture_output=True, text=True, timeout=60, env=env)


def test_import_bench_does_not_load_numpy():
    done = _python("import sys, detreact.bench; print('numpy' in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


# Runs in its own interpreter: which of the modules named in argv are loaded
# after importing detreact, then detreact.bench, then after a traced run and
# its digest.
_UNUSED_MODULES = """
import json, sys
import detreact

def loaded():
    return [m for m in sys.argv[1:] if m in sys.modules]

seen = [loaded()]
import detreact.bench
seen.append(loaded())
spec = detreact.bench.get_benchmark("PingPong")
env = detreact.Environment(spec.build(spec.resolve_params({})).topology, fast=True, trace=True)
env.run()
seen.append([f"{detreact.trace_digest(env.trace):016x}", *loaded()])
print(json.dumps(seen))
"""


def test_detreact_loads_neither_openssl_nor_inspect_until_a_program_needs_them():
    # The trace hashes with _blake2 itself: hashlib would load _hashlib and
    # map OpenSSL. The registry reads builders' code objects: inspect and
    # dataclasses load only with the trace module's Trace.
    done = _python(_UNUSED_MODULES, "hashlib", "_hashlib", "inspect", "dataclasses")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [
        [], [], [GOLDEN_DIGESTS["PingPong"], "inspect", "dataclasses"]]


# -- a cold start loads only the program modules it looks up -----------------

# Runs in its own interpreter: the modules of detreact.bench loaded after
# each step, then the message of an unknown lookup.
_COLD_START = """
import json, sys
import detreact.bench as bench

def loaded():
    return [m for m in ("micro", "concurrency", "parallel", "harness")
            if f"detreact.bench.{m}" in sys.modules]

seen = [loaded()]
for name in sys.argv[1:]:
    bench.get_benchmark(name)
seen.append(loaded())
from detreact.bench import run_once
seen.append(loaded())
try:
    bench.get_benchmark("Nope")
except bench.UnknownBenchmarkError as exc:
    seen.append(str(exc))
print(json.dumps(seen))
"""


def test_a_cold_start_loads_only_the_program_modules_it_looks_up():
    micro_w1 = ["PingPong", "ThreadRing", "CountingActor", "Big", "Chameneos", "ForkJoin"]
    done = _python(_COLD_START, *micro_w1)
    assert done.returncode == 0, done.stderr
    names = ", ".join(spec.name for spec in list_benchmarks())
    assert json.loads(done.stdout) == [[], ["micro"], ["micro", "harness"],
                                       f"unknown benchmark 'Nope'; known: {names}"]


# Imports the last program module first, then lists.
_PARALLEL_FIRST = """
import contextlib, io, json
import detreact.bench.parallel
from detreact.bench import list_benchmarks
from detreact.cli import main

names = [spec.name for spec in list_benchmarks()]
listing = io.StringIO()
with contextlib.redirect_stdout(listing):
    main(["--list"])
print(json.dumps({"names": names, "list": listing.getvalue()}))
"""


def test_the_benchmark_order_does_not_follow_the_import_order(capsys):
    from detreact.cli import main

    done = _python(_PARALLEL_FIRST)
    assert done.returncode == 0, done.stderr
    specs = list_benchmarks()
    groups = [spec.group for spec in specs]
    assert groups == sorted(groups, key=["micro", "concurrency", "parallelism"].index)
    assert main(["--list"]) == 0
    assert json.loads(done.stdout) == {"names": [spec.name for spec in specs],
                                       "list": capsys.readouterr().out}


# Runs in its own interpreter, where any import of numpy raises ImportError.
_WITHOUT_NUMPY = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
from detreact import trace_digest
from detreact.bench import get_benchmark, list_benchmarks, run_once
from detreact.cli import main

listing = io.StringIO()
with contextlib.redirect_stdout(listing):
    code = main(["--list"])
digests = {}
for spec in list_benchmarks():
    if spec.name not in sys.argv[1:]:
        _, env, _ = run_once(spec, spec.resolve_params({}), trace=True)
        digests[spec.name] = f"{trace_digest(env.trace):016x}"
radix_sort = get_benchmark("RadixSort")
try:
    radix_sort.build(radix_sort.resolve_params({}))
    radix = "built"
except ImportError:
    radix = "ImportError"
print(json.dumps({"list": [code, len(listing.getvalue().splitlines())],
                  "digests": digests, "radix": radix}))
"""


def _versions(minor: int) -> list[str]:
    """Where to look for CPython 3.minor: its name on the PATH, then each
    3.minor that pyenv installed, which starts even where the PATH's name is
    a pyenv shim set to another version."""
    versions = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv"), "versions")
    return ([f"python3.{minor}"] if shutil.which(f"python3.{minor}") else []) + sorted(
        str(path) for path in versions.glob(f"3.{minor}.*/bin/python3.{minor}"))


#: The running interpreter, then each other CPython 3.10 to 3.13 found: the
#: test runs the first of its places that starts, and skips if none does.
_INTERPRETERS = [pytest.param([sys.executable], id="running"), *(
    pytest.param(_versions(minor), id=f"python3.{minor}") for minor in range(10, 14)
    if minor != sys.version_info.minor and _versions(minor))]


@pytest.mark.parametrize("places", _INTERPRETERS)
def test_twelve_benchmarks_run_without_numpy(places):
    # The script uses the standard library only, so the golden digests can
    # be checked under every interpreter found, packages or none.
    for python in places:
        probe = _python("pass", python=python)
        if probe.returncode == 0:
            break
    else:
        reason = (probe.stderr.strip().splitlines() or [f"exit {probe.returncode}"])[0]
        pytest.skip(f"none of {', '.join(places)} starts; the last: {reason}")
    done = _python(_WITHOUT_NUMPY, *sorted(NUMPY_BENCHMARKS), python=python)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["list"] == [0, 17]
    assert result["radix"] == "ImportError"
    assert result["digests"] == {name: digest for name, digest in GOLDEN_DIGESTS.items()
                                 if name not in NUMPY_BENCHMARKS}
