"""Trace canonicalization, digests, and the text format."""

import enum
import functools
import gc
import hashlib
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from detreact import (MSEC, SEC, STARTUP, Builder, Environment, ExecutionError, TraceRecord,
                      connect, trace_digest, value_digest)
from detreact import trace as trace_module
from detreact.bench import get_benchmark, list_benchmarks, run_once
from detreact.trace import _encode_value, diff
from programs import jittered, record_levels, two_user_bank
from test_bench import small_params


def traced_run(topology, workers=1, **kwargs):
    env = Environment(topology, workers=workers, fast=True, trace=True, **kwargs)
    report = env.run()
    return env.trace, report


def test_two_user_bank_trace_order():
    topo, _ = two_user_bank()
    trace, _ = traced_run(topo)
    rx = [(rec.reactor_path, rec.reaction_index, rec.tag) for rec in trace.records]
    assert rx == [
        ("userA", 1, (1 * SEC, 0)),
        ("account", 1, (1 * SEC, 0)),
        ("userB", 1, (2 * SEC, 0)),
        ("account", 2, (2 * SEC, 0)),
    ]


def test_empty_run_has_fixed_digest():
    topo = Builder().build()
    trace, _ = traced_run(topo)
    assert trace.records == ()
    assert trace.canonical_bytes() == b""
    # blake2b-8 of the empty byte string, frozen
    # (int.from_bytes(hashlib.blake2b(b"", digest_size=8).digest(), "big")).
    assert trace_digest(trace) == 0xE4A6A0577479B2B4


def test_digest_is_function_of_content():
    topo1, _ = two_user_bank()
    topo2, _ = two_user_bank()
    t1, _ = traced_run(topo1)
    t2, _ = traced_run(topo2)
    assert t1.text == t2.text
    assert trace_digest(t1) == trace_digest(t2)


def test_digest_differs_when_one_value_differs():
    def build(amount):
        b = Builder()
        src = b.reactor("src")
        t = src.timer("t")
        out = src.output("out")
        src.reaction(t, effects=[out], body=lambda ctx: ctx.set(out, amount))
        sink = b.reactor("sink")
        inp = sink.input("in")
        sink.reaction(inp, body=lambda ctx: ctx.get(inp))
        connect(out, inp)
        return b.build()

    t1, _ = traced_run(build(1.0))
    t2, _ = traced_run(build(2.0))
    assert trace_digest(t1) != trace_digest(t2)


def test_workers_do_not_affect_digest():
    digests = set()
    for workers in (1, 2, 4, 8):
        topo, _ = two_user_bank()
        trace, _ = traced_run(topo, workers=workers)
        digests.add(trace_digest(trace))
    assert len(digests) == 1


def test_swapped_completion_order_same_digest():
    # Two independent same-level reactions plus jitter: wall-clock completion
    # order varies, the canonical trace must not.
    def build():
        b = Builder()
        src = b.reactor("src")
        t = src.timer("t", offset=0, period=SEC)
        out = src.output("out", width=2)
        src.state.rounds = 0

        def fan(ctx):
            ctx.state.rounds += 1
            ctx.set(out, ctx.state.rounds, index=0)
            ctx.set(out, -ctx.state.rounds, index=1)
            if ctx.state.rounds == 5:
                ctx.request_stop()

        src.reaction(t, effects=[out], body=fan)
        for i in range(2):
            w = b.reactor(f"w{i}")
            w_in = w.input("in")
            w_out = w.output("out")
            w.reaction(w_in, effects=[w_out],
                       body=lambda ctx, w_in=w_in, w_out=w_out:
                           ctx.set(w_out, ctx.get(w_in) * 3))
            connect(out[i], w_in)
        return b.build()

    digests = set()
    for seed in range(4):
        trace, _ = traced_run(jittered(build(), 1.5, seed), workers=2)
        digests.add(trace_digest(trace))
    assert len(digests) == 1


@pytest.mark.parametrize("workers", [1, 2])
def test_failed_level_traces_only_the_reactions_that_completed(workers):
    # One level of three reactions, each setting its output; at the second
    # tag two of them raise after their set. Records are built when the
    # level is folded: the failed level keeps only the completed reaction's
    # record, and the first tag's records stay whole.
    b = Builder()
    for name, fails in (("a", True), ("b", False), ("c", True)):
        r = b.reactor(name)
        t = r.timer("t", offset=0, period=MSEC)
        out = r.output("out")

        def body(ctx, out=out, fails=fails):
            ctx.set(out, ctx.tag.time)
            if fails and ctx.tag.time > 0:
                raise ValueError("injected")

        r.reaction(t, effects=[out], body=body)
    env = Environment(b.build(), workers=workers, fast=True, trace=True)
    with pytest.raises(ExecutionError):
        env.run()
    assert env.trace.text.splitlines() == [
        f"TAG=0.0 RX={name}.1 FX={name}.out:{value_digest(0)} SCHED=" for name in "abc"
    ] + [f"TAG={MSEC}.0 RX=b.1 FX=b.out:{value_digest(MSEC)} SCHED="]


@pytest.mark.parametrize("workers", [1, 2])
def test_a_set_value_with_no_digest_fails_its_setter(workers):
    # The fold digests each set value; one whose repr raises fails the
    # reaction that set it, which leaves no line, and the next level never runs.
    class Opaque:
        def __repr__(self):
            raise ValueError("no repr")

    b = Builder()
    a, s, sink = b.reactor("a"), b.reactor("s"), b.reactor("sink")
    a_out, s_out, sink_in = a.output("out"), s.output("out"), sink.input("in")
    a.reaction(STARTUP, effects=[a_out], body=lambda ctx: ctx.set(a_out, 1))
    s.reaction(STARTUP, effects=[s_out], body=lambda ctx: ctx.set(s_out, Opaque()))
    sink.reaction(sink_in, body=lambda ctx: setattr(ctx.state, "ran", True))
    connect(s_out, sink_in)
    env = Environment(b.build(), workers=workers, fast=True, trace=True)
    with pytest.raises(ExecutionError, match=re.escape("reaction s.1 failed: ValueError('no repr')")):
        env.run()
    assert env.trace.text.splitlines() == [f"TAG=0.0 RX=a.1 FX=a.out:{value_digest(1)} SCHED="]
    assert not hasattr(sink.state, "ran")


class _Plain:
    def method(self):
        return 0


@pytest.mark.parametrize("workers", [1, 2])
def test_a_set_value_whose_repr_holds_an_address_fails_its_setter(workers):
    # object.__repr__ shows an address, which differs from run to run, and so
    # does the repr of a function, a method, a built-in method bound to an
    # object, a method-wrapper, a generator, a lock, a code object and a
    # partial of a function: the encoder refuses a value whose repr holds
    # " at 0x", and the fold fails the reaction that set it. A built-in
    # function of a module, print, has none. A module's repr holds its file
    # path, which differs from install to install, so a module is refused
    # the same way, a built-in one too.
    for value, kind in ((_Plain(), "test_trace._Plain"), (lambda: 0, "builtins.function"),
                        (_Plain().method, "builtins.method"),
                        ([].append, "builtins.builtin_function_or_method"),
                        ([].__add__, "builtins.method-wrapper"),
                        ((x for x in ()), "builtins.generator"),
                        (threading.Lock(), "_thread.lock"),
                        ((lambda: 0).__code__, "builtins.code"),
                        (functools.partial(lambda: 0), "functools.partial"),
                        (functools, "builtins.module"), (sys, "builtins.module")):
        b = Builder()
        a, s = b.reactor("a"), b.reactor("s")
        a_out, s_out = a.output("out"), s.output("out")
        a.reaction(STARTUP, effects=[a_out], body=lambda ctx: ctx.set(a_out, print))
        s.reaction(STARTUP, effects=[s_out], body=lambda ctx, v=value: ctx.set(s_out, v))
        env = Environment(b.build(), workers=workers, fast=True, trace=True)
        with pytest.raises(ExecutionError, match=re.escape(
                f"reaction s.1 failed: TypeError('no canonical encoding for a {kind}: "
                "its repr holds an address')")):
            env.run()
        assert env.trace.text.splitlines() == [
            f"TAG=0.0 RX=a.1 FX=a.out:{value_digest(print)} SCHED="], kind


@pytest.mark.parametrize("workers", [1, 2])
def test_a_failing_setter_leaves_no_part_of_its_line(workers):
    # s sets a value with a digest, then one whose repr holds an address,
    # then schedules: its line's parts are cut back when the second digest
    # fails, and the lines of a and z, around it in the level, stay whole.
    b = Builder()
    lines = []
    for name in "asz":
        r = b.reactor(name)
        ok, bad, act = r.output("ok"), r.output("bad"), r.action("act")

        def body(ctx, ok=ok, bad=bad, act=act, name=name):
            ctx.set(ok, 1)
            if name == "s":
                ctx.set(bad, _Plain())
            ctx.schedule(act)

        r.reaction(STARTUP, effects=[ok, bad, act], body=body)
        r.reaction(act, body=lambda ctx: None)
        if name != "s":
            lines.append(f"TAG=0.0 RX={name}.1 FX={name}.ok:{value_digest(1)} SCHED={name}.act@0.1")
    env = Environment(b.build(), workers=workers, fast=True, trace=True)
    with pytest.raises(ExecutionError, match=re.escape(
            "reaction s.1 failed: TypeError('no canonical encoding for a test_trace._Plain")):
        env.run()
    assert env.trace.text == "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("workers", [1, 2])
def test_an_interrupt_in_a_digest_leaves_no_part_of_its_line(workers):
    # An interrupt is no reaction failure: it ends the run as itself, and
    # the trace it leaves holds whole lines only.
    class Interrupting:
        def __repr__(self):
            raise KeyboardInterrupt

    b = Builder()
    a, s = b.reactor("a"), b.reactor("s")
    a_out, s_ok, s_out = a.output("out"), s.output("ok"), s.output("out")
    a.reaction(STARTUP, effects=[a_out], body=lambda ctx: ctx.set(a_out, 1))
    s.reaction(STARTUP, effects=[s_ok, s_out],
               body=lambda ctx: (ctx.set(s_ok, 1), ctx.set(s_out, Interrupting())))
    env = Environment(b.build(), workers=workers, fast=True, trace=True)
    with pytest.raises(KeyboardInterrupt):
        env.run()
    assert env.trace.text == f"TAG=0.0 RX=a.1 FX=a.out:{value_digest(1)} SCHED=\n"


def test_a_value_whose_repr_holds_no_address_has_one_digest_in_every_process():
    # print, a partial of it and a bound method of an object whose own repr
    # holds no address are encoded by their repr, which no process changes.
    code = ("import functools; from detreact.trace import value_digest\n"
            "class P:\n"
            "    def __repr__(self): return 'P'\n"
            "    def m(self): return 0\n"
            "print([value_digest(v) for v in (print, functools.partial(print, 1), P().m)])")
    outs = set()
    for _ in range(2):
        done = _run_src("-c", code)
        assert done.returncode == 0, done.stderr
        outs.add(done.stdout)
    assert len(outs) == 1, outs


def test_an_object_array_digest_is_the_same_in_every_process():
    # An object array's buffer holds item pointers: it is encoded as its
    # header plus its items, so its digest does not depend on the process.
    code = ("import numpy as np; from detreact.trace import value_digest; "
            "print(value_digest(np.array(['a', None, (1, 'b')], dtype=object)), "
            "value_digest(np.array([[2.5], [{'x'}]], dtype=object)), value_digest(print))")
    outs = set()
    for _ in range(2):
        done = _run_src("-c", code)
        assert done.returncode == 0, done.stderr
        outs.add(done.stdout)
    assert len(outs) == 1, outs
    import numpy as np
    assert value_digest(np.array(["a", 1], dtype=object)) == _reference_digest(
        np.array(["a", 1], dtype=object))
    assert value_digest(np.array(["a", 1], dtype=object)) != value_digest(
        np.array([1, "a"], dtype=object))
    # numeric arrays keep the digests they had when they were encoded by their bytes
    assert [value_digest(v) for v in (
        np.arange(6, dtype=">i8"), np.asfortranarray(np.arange(6, dtype="<f8").reshape(2, 3)),
        np.array([True, False]))] == ["c584d0480293dc0d", "975411c8a6d1c8c8", "bb7750eeeb0055ea"]


_SETS = "[frozenset({'alpha', 'beta', 'gamma'}), {'k': {'x', 'y', 'z'}, 'n': [{2, 'q', None}]}]"


def test_a_set_digest_does_not_depend_on_the_hash_seed():
    # A set iterates in string-hash order, which PYTHONHASHSEED changes: its
    # items are encoded in sorted order, so a stored digest stays valid.
    code = f"from detreact.trace import value_digest; print([value_digest(v) for v in {_SETS}])"
    outs = set()
    for seed in ("0", "1", "2"):
        done = _run_src("-c", code, PYTHONHASHSEED=seed)
        assert done.returncode == 0, done.stderr
        outs.add(done.stdout)
    assert len(outs) == 1, outs
    assert value_digest({"b", "a"}) == value_digest(frozenset({"a", "b"}))
    assert value_digest({"a": 1, "b": 2}) != value_digest({"b": 2, "a": 1})  # in order


def test_text_format():
    topo, _ = two_user_bank()
    trace, _ = traced_run(topo)
    lines = trace.text.splitlines()
    pattern = re.compile(
        r"^TAG=\d+\.\d+ RX=[\w\[\]]+\.\d+ FX=(\w[\w.\[\]]*:[0-9a-f]{16}(,\w[\w.\[\]]*:[0-9a-f]{16})*)? "
        r"SCHED=([\w.\[\]]+@\d+\.\d+(,[\w.\[\]]+@\d+\.\d+)*)?$")
    for line in lines:
        assert pattern.match(line), line
    assert lines[0] == ("TAG=1000000000.0 RX=userA.1 "
                        f"FX=userA.out:{value_digest(20.0)} SCHED=")
    assert lines[1] == "TAG=1000000000.0 RX=account.1 FX= SCHED="


def test_scheduled_events_recorded():
    b = Builder()
    r = b.reactor("r")
    t = r.timer("t")
    act = r.action("a")
    r.reaction(t, effects=[act],
               body=lambda ctx: ctx.schedule(act, 5, delay=2 * SEC))
    r.reaction(act, body=lambda ctx: None)
    trace, _ = traced_run(b.build())
    assert trace.records[0].scheduled == (("r.a", (2 * SEC, 0)),)
    line = trace.records[0].to_line()
    assert line.endswith(f"SCHED=r.a@{2 * SEC}.0")


def test_tracing_does_not_change_counts():
    topo1, _ = two_user_bank()
    plain = Environment(topo1, fast=True).run()
    topo2, _ = two_user_bank()
    traced = Environment(topo2, fast=True, trace=True).run()
    assert (plain.events, plain.reactions) == (traced.events, traced.reactions)
    assert plain.last_tag == traced.last_tag


def test_value_digest_stability_and_types():
    # Frozen digests: these values must never change across releases or
    # platforms, or stored golden traces would rot.
    assert value_digest(20.0) == value_digest(20.0)
    assert value_digest(20.0) != value_digest(20)
    assert value_digest((1, "x")) != value_digest((1, "y"))
    assert value_digest(None) == value_digest(None)
    import numpy as np
    assert value_digest(np.float64(2.5)) == value_digest(2.5)
    assert value_digest(np.int64(3)) == value_digest(3)
    a = np.array([1, 2, 3], dtype=np.int64)
    b = np.array([1, 2, 3], dtype=np.int64)
    assert value_digest(a) == value_digest(b)
    assert value_digest(a) != value_digest(np.array([1, 2, 4], dtype=np.int64))


class _Level(enum.IntEnum):
    HIGH = 3


class _Name(str):
    pass


def _value_corpus():
    import numpy as np
    big = np.arange(6, dtype=">i8")
    fortran = np.asfortranarray(np.arange(6, dtype="<f8").reshape(2, 3))
    return [
        0, -1, 1, 2**63 - 1, 2**63, 2**63 + 1, -2**63 - 1, -2**63, -2**63 + 1, 2**200,
        True, False, 1, 0, 1.0, 0.0, -0.0, 2.5,
        _Level.HIGH, 3, _Name("x"), "x", "", "Grüße, 世界", b"", b"\x00x",
        (1, (2, "a"), [3.0, None]), [True, 1, (False, 0)], (), [],
        (1, "x"), (True, "x"), (1.0, "x"), (_Level.HIGH, "x"), (_Name("x"), 1),
        (np.int64(1), "x"), ("x",), ((1,), "x"), (1,), (True,), [1, "x"],
        None,
        np.int64(3), np.uint8(255), np.float64(2.5), np.float32(0.1), np.bool_(True),
        np.bool_(False),
        np.arange(6, dtype="<i8"), big, big.astype("<i8"), fortran,
        np.arange(12, dtype=np.int32)[::3], np.array(7, dtype=np.int64),
        np.array([True, False, True]), np.arange(4, dtype=np.complex128),
        np.zeros((0, 3)), np.arange(6, dtype=np.float16).reshape(3, 2),
    ]


def _reference_digest(v) -> str:
    buf = bytearray()
    _encode_value(v, buf)
    return hashlib.blake2b(bytes(buf), digest_size=8).hexdigest()


def test_value_digest_matches_the_canonical_encoding():
    # The memoised ints, the constants and the in-place array hash must give
    # exactly the digest of the canonical encoding. The corpus runs forwards
    # and backwards, so a cache that keys 1, True and 1.0 alike fails either
    # way round.
    corpus = _value_corpus()
    for v in corpus + corpus[::-1]:
        assert value_digest(v) == _reference_digest(v), repr(v)
    import numpy as np
    assert len({value_digest(v) for v in (1, True, 1.0, np.int64(1), np.bool_(True))}) == 3
    assert len({value_digest(v) for v in ((1, "x"), (True, "x"), (1.0, "x"))}) == 3


def test_the_digest_hashes_with_hashlibs_own_blake2b():
    # trace.py imports _blake2 directly, to keep hashlib's OpenSSL out of a
    # run; an interpreter whose hashlib.blake2b is another class fails here.
    assert trace_module._blake2b is hashlib.blake2b


def test_the_memo_pins_no_large_payload():
    long = "y" * (trace_module._MEMO_MAX_LEN + 1)
    memo = trace_module._small_digest
    memo.cache_clear()
    for v in (long, (1, long), (long,), tuple(range(trace_module._MEMO_MAX_LEN + 1))):
        assert value_digest(v) == _reference_digest(v)
    info = memo.cache_info()
    assert info.currsize == info.misses == 0


@pytest.mark.parametrize("name", ["Chameneos", "CountingActor"])
def test_a_warm_memo_gives_the_pinned_digest(name):
    # The second run finds its small values' digests in the memo.
    from test_bench import GOLDEN_DIGESTS
    spec, memo = get_benchmark(name), trace_module._small_digest
    for _ in range(2):
        hits = memo.cache_info().hits
        _inst, env, _report = run_once(spec, spec.resolve_params({}), trace=True)
        assert f"{trace_digest(env.trace):016x}" == GOLDEN_DIGESTS[name]
    assert memo.cache_info().hits > hits


def _shape_program(failing=()):
    # Level 0 holds c.1, a.1 and b.1 (declared out of path order); level 1
    # holds b.2, sink.1 and a.2; b.3 is at level 2. a.1 schedules a.act 5 ms
    # later and b.1 schedules b.act at the next microstep: each of those
    # tags has exactly one record.
    b = Builder()
    sink = b.reactor("sink")
    ins = sink.input("in", width=3)
    sink.reaction(ins, body=lambda ctx: list(ctx.present(ins)))
    for i, name in enumerate("cab"):
        r = b.reactor(name)
        t = r.timer("t")
        out = r.output("out")
        act = r.action("act")
        connect(out, ins[i])

        def first(ctx, out=out, act=act, name=name, value=i * 10):
            ctx.set(out, value)
            if name in failing:
                raise ValueError("injected")
            if name == "a":
                ctx.schedule(act, None, delay=5 * MSEC)
            elif name == "b":
                ctx.schedule(act, "again")

        r.reaction(t, effects=[out, act], body=first)
        if name == "b":
            r.reaction(t, body=lambda ctx: None)
        r.reaction(act, body=lambda ctx: None)
    return b.build()


@pytest.mark.parametrize("workers", [1, 2])
def test_record_shape_and_order(workers):
    for seed in range(3):
        env = Environment(jittered(_shape_program(), 1.0, seed), workers=workers,
                          fast=True, trace=True)
        env.run()
        recs = env.trace.records
        assert all(type(rec) is TraceRecord for rec in recs)
        assert [(rec.tag, level, rec.reactor_path, rec.reaction_index)
                for rec, level in zip(recs, record_levels(env), strict=True)] == [
            ((0, 0), 0, "a", 1), ((0, 0), 0, "b", 1), ((0, 0), 0, "c", 1),
            ((0, 0), 1, "b", 2), ((0, 0), 1, "sink", 1),
            ((0, 1), 2, "b", 3),
            ((5 * MSEC, 0), 1, "a", 2),
        ]
        assert recs[0].scheduled == (("a.act", (5 * MSEC, 0)),)
        assert recs[1].scheduled == (("b.act", (0, 1)),)
        assert recs[2].scheduled == ()
        assert [rec.effects for rec in recs[:3]] == [
            (("a.out", value_digest(10)),), (("b.out", value_digest(20)),),
            (("c.out", value_digest(0)),)]

    # a failed level keeps only its completed reactions' records
    env = Environment(jittered(_shape_program(failing="ca"), 1.0, 0), workers=workers,
                      fast=True, trace=True)
    with pytest.raises(ExecutionError):
        env.run()
    assert [(rec.reactor_path, rec.reaction_index) for rec in env.trace.records] == [("b", 1)]


def _counter_trace(bad_at=None):
    b = Builder()
    r = b.reactor("r")
    t = r.timer("t", offset=0, period=MSEC)
    out = r.output("out")
    r.state.n = 0

    def count(ctx):
        ctx.state.n += 1
        ctx.set(out, -1 if ctx.state.n == bad_at else ctx.state.n)
        if ctx.state.n == 8:
            ctx.request_stop()

    r.reaction(t, effects=[out], body=count)
    trace, _ = traced_run(b.build())
    return trace.text


def test_diff_names_the_first_divergent_record():
    a = _counter_trace().splitlines()
    b = _counter_trace(bad_at=5).splitlines()
    assert diff(a, a) == []
    assert diff(a, b) == [
        "first difference at line 5",
        f"  3: {a[2]}", f"  4: {a[3]}",
        f"- 5: {a[4]}", f"- 6: {a[5]}", f"- 7: {a[6]}",
        f"+ 5: {b[4]}", f"+ 6: {b[5]}", f"+ 7: {b[6]}",
    ]
    assert "FX=r.out:" + value_digest(-1) in b[4]
    # a trace that is a prefix of the other differs at the first missing line
    assert diff(a[:7], a)[:4] == ["first difference at line 8", f"  6: {a[5]}",
                                  f"  7: {a[6]}", "- end of trace (7 lines)"]


def _run_src(*args, **env):
    """Run ``python *args`` in a subprocess with this checkout's ``src`` on
    its path and ``env`` added to its environment."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=60, env=env)


def _diff_command(*paths):
    return _run_src("-m", "detreact.trace", "diff", *map(str, paths))


def test_diff_command(tmp_path):
    a, b = tmp_path / "a.trace", tmp_path / "b.trace"
    a.write_text(_counter_trace(), encoding="utf-8")
    b.write_text(_counter_trace(bad_at=5), encoding="utf-8")
    same = _diff_command(a, a)
    assert same.returncode == 0, same.stderr
    assert same.stdout.strip() == "identical: 8 records"
    differ = _diff_command(a, b)
    assert differ.returncode == 1, differ.stderr
    # importing the package does not load detreact.trace before it runs as
    # __main__, so Python has nothing to warn about
    assert same.stderr == differ.stderr == ""
    lines = differ.stdout.splitlines()
    assert lines[:3] == [f"--- {a}", f"+++ {b}", "first difference at line 5"]
    assert f"- 5: {_counter_trace().splitlines()[4]}" in lines
    assert _diff_command(a, tmp_path / "missing.trace").returncode == 2


def test_diff_command_refuses_a_file_that_is_not_utf8(tmp_path):
    # exit 1 means "the traces differ": a file that cannot be decoded is an
    # error, exit 2 with one line, not a traceback
    a, raw = tmp_path / "a.trace", tmp_path / "raw.trace"
    a.write_text(_counter_trace(), encoding="utf-8")
    raw.write_bytes(b"TAG=0.0 \xff\n")
    for paths in ((a, raw), (raw, a)):
        done = _diff_command(*paths)
        assert done.returncode == 2, done.stderr
        assert done.stdout == ""
        [line] = done.stderr.splitlines()
        assert line.startswith(f"error: {raw} is not UTF-8 text: "), line


def test_import_does_not_load_numpy():
    done = _run_src("-c", "import sys, detreact; print('numpy' in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


# -- the lines are the trace, the records a parsed view -----------------------


def _round_trips(trace, report):
    assert "".join(r.to_line() + "\n" for r in trace.records).encode() == trace.canonical_bytes()
    assert len(trace.records) == len(trace.lines) == report.reactions


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", [spec.name for spec in list_benchmarks()])
def test_records_view_round_trips(name, workers):
    spec = get_benchmark(name)
    _, env, report = run_once(spec, small_params(spec), workers=workers, trace=True)
    _round_trips(env.trace, report)


def _odd_names_program():
    # Names holding ".", ":", "@" and spaces, in reactors, ports, a
    # multiport, an action and a timer; "sink @1.2" reads at level 1.
    b = Builder()
    src = b.reactor("src.a:1 @b")
    t = src.timer("t.x @0:1", offset=0, period=MSEC)
    out = src.output("out:v.1@ w", width=2)
    act = src.action("act@2.3: %s z")
    src.state.n = 0

    def tick(ctx):
        ctx.state.n += 1
        ctx.set(out, ctx.state.n, index=0)
        ctx.set(out[1], f"x:{ctx.state.n}@")
        ctx.schedule(act, None, delay=MSEC // 2)
        if ctx.state.n == 3:
            ctx.request_stop()

    src.reaction(t, effects=[out, act], body=tick)
    src.reaction(act, body=lambda ctx: None)
    sink = b.reactor("sink @1.2")
    inp = sink.input("in. @:", width=2)
    sink.reaction(inp, body=lambda ctx: list(ctx.present(inp)))
    connect(out, inp)
    return b.build()


@pytest.mark.parametrize("workers", [1, 2])
def test_records_view_parses_names_from_the_right(workers):
    env = Environment(_odd_names_program(), workers=workers, fast=True, trace=True)
    report = env.run()
    trace = env.trace
    _round_trips(trace, report)
    first, second = trace.records[:2]
    assert first == TraceRecord(
        (0, 0), "src.a:1 @b", 1,
        (("src.a:1 @b.out:v.1@ w[0]", value_digest(1)),
         ("src.a:1 @b.out:v.1@ w[1]", value_digest("x:1@"))),
        (("src.a:1 @b.act@2.3: %s z", (MSEC // 2, 0)),))
    assert (second.tag, second.reactor_path, second.reaction_index) == ((0, 0), "sink @1.2", 1)
    assert record_levels(env)[:2] == [0, 1]


def test_records_are_parsed_on_access(monkeypatch):
    topo, _ = two_user_bank()
    trace, _ = traced_run(topo)
    records = trace.records
    assert records[0] == records[0] and records[0] is not records[0]  # built, not kept
    assert list(records[1:3]) == [records[1], records[2]]
    assert records == tuple(records) and records != records[:-1]
    calls = []
    parse = trace_module._parse
    monkeypatch.setattr(trace_module, "_parse", lambda *args: calls.append(args) or parse(*args))
    assert len(records) == 4 and calls == []  # len() parses nothing
    assert records[-1].reactor_path == "account" and len(calls) == 1


def test_the_record_count_parses_nothing(monkeypatch):
    # len() of the records counts the text's line ends.
    def refuse(line):
        raise AssertionError(f"parsed {line!r}")

    spec = get_benchmark("CountingActor")
    _, env, report = run_once(spec, small_params(spec), trace=True)
    monkeypatch.setattr(trace_module, "_parse", refuse)
    assert len(env.trace.records) == report.reactions > 0


def test_a_trace_text_ends_every_line():
    # The canonical text ends its last line too, so counting line ends counts lines.
    assert len(trace_module.Trace("TAG=0.0 RX=r.1 FX= SCHED=\n").records) == 1
    with pytest.raises(ValueError, match="ends every line, the last included"):
        trace_module.Trace("TAG=0.0 RX=r.1 FX= SCHED=")


def test_a_text_splits_into_lines_at_its_line_ends_only():
    # str.splitlines() also splits at "\x0b", "\x0c", "\x1c"-"\x1e", "\x85",
    # "\u2028" and "\u2029", which a text read from a file may hold: its
    # lines, its records and its record count still agree.
    line = "TAG=0.0 RX=r\x0cs\u2028.1 FX=p\x85:d SCHED=a\x1e@1.0"
    trace = trace_module.Trace(f"{line}\n{line}\n")
    assert trace.lines == (line, line) and trace.lines is trace.lines  # split once
    assert len(trace.records) == len(list(trace.records)) == 2
    assert trace.records[1] == TraceRecord((0, 0), "r\x0cs\u2028", 1, (("p\x85", "d"),),
                                           (("a\x1e", (1, 0)),))
    assert trace.records[1].to_line() == line


def _tracked_objects_left(count):
    spec = get_benchmark("CountingActor")
    gc.collect()
    before = len(gc.get_objects())
    env = Environment(spec.build(spec.resolve_params({"count": count})).topology,
                      fast=True, trace=True)
    env.run()
    trace = env.trace
    del env
    gc.collect()
    left = len(gc.get_objects()) - before
    assert len(trace.records) == 2 * count + 3
    return left


def test_a_trace_keeps_no_gc_tracked_object_per_record():
    # A line is a str, which the cycle collector never tracks: holding a
    # trace of 8003 records keeps no more tracked objects than one of 2003.
    _tracked_objects_left(10)  # warm up imports and caches
    assert _tracked_objects_left(4000) - _tracked_objects_left(1000) < 50
