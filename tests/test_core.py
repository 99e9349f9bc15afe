"""Core semantics: tags, builder validation, port/action access rules."""

import gc
import re
import sys
import threading
from types import SimpleNamespace

import pytest

from detreact import (MSEC, SEC, SHUTDOWN, STARTUP, Builder, CompositionError,
                      ContractViolationError, Environment, ExecutionError,
                      ShutdownError, Tag, connect)
from detreact import core
from detreact.bench import get_benchmark, list_benchmarks
from detreact.core import TIME_MAX, Action, Port, PortChannel
from detreact.trace import slot_parts
from programs import record_wiring, two_user_bank


def run_env(topology, **kwargs):
    env = Environment(topology, fast=True, **kwargs)
    return env.run()


# -- tags ---------------------------------------------------------------


def test_tag_total_order():
    tags = [Tag(2, 0), Tag(1, 5), Tag(1, 0), Tag(2, 1), Tag(0, 0)]
    assert sorted(tags) == [Tag(0, 0), Tag(1, 0), Tag(1, 5), Tag(2, 0), Tag(2, 1)]
    assert Tag(1, 1) < Tag(2, 0)
    assert Tag(1, 0) < Tag(1, 1)
    assert not Tag(1, 0) < Tag(1, 0)


# -- topology building ----------------------------------------------------


def test_two_user_bank_shape():
    topo, _ = two_user_bank()
    stats = topo.stats()
    assert stats["reactors"] == 3
    assert stats["connections"] == 2
    assert stats["reactions"] == 4


def test_empty_builder_is_valid():
    topo = Builder().build()
    assert topo.stats()["reactors"] == 0
    report = run_env(topo)
    assert report.events == 0
    assert report.reactions == 0


def _tracked_objects_of_a_built_big(actors):
    spec = get_benchmark("Big")
    gc.collect()
    before = len(gc.get_objects())
    topology = spec.build(spec.resolve_params({"actors": actors})).topology
    gc.collect()
    assert topology.stats()["connections"] == 2 * actors * actors + actors
    return len(gc.get_objects()) - before


def test_a_built_topology_keeps_no_tracked_object_per_connection():
    # Big wires every member to every member, so its connections grow as
    # actors squared and all else it declares grows linearly. A connection's
    # one record is its entry in conn_targets, a tuple of ints, which the
    # cycle collector does not track: doubling the actors must not come near
    # quadrupling the tracked objects a built topology holds.
    _tracked_objects_of_a_built_big(5)  # warm up imports and caches
    assert _tracked_objects_of_a_built_big(40) < 2.5 * _tracked_objects_of_a_built_big(20)


def _core_bytecodes_of_build(width):
    # The bytecodes that build() runs in core.py frames, counted as
    # bench/opcount.py counts a run, for one reactor with one unwired output
    # multiport of ``width`` channels.
    b = Builder()
    b.reactor("r").output("out", width=width)
    count = 0

    def on_opcode(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return on_opcode

    def on_call(frame, event, arg):
        if frame.f_code.co_filename != core.__file__:
            return None
        frame.f_trace_opcodes = True
        return on_opcode

    outer = sys.gettrace()
    sys.settrace(on_call)
    try:
        b.build()
    finally:
        sys.settrace(outer)
    return count


def test_build_does_no_python_work_per_slot():
    # A slot table is filled by C-level list operations and only a wired
    # slot gets its own entry, so 1024 times the slots run the same bytecodes.
    assert _core_bytecodes_of_build(16) == _core_bytecodes_of_build(16_384) > 0


def test_two_writers_per_input_rejected():
    b = Builder()
    r1 = b.reactor("r1")
    o1 = r1.output("out")
    r2 = b.reactor("r2")
    o2 = r2.output("out")
    sink = b.reactor("sink")
    inp = sink.input("in")
    connect(o1, inp)
    with pytest.raises(CompositionError, match="multiple writers"):
        connect(o2, inp)


def test_connection_direction_checked():
    b = Builder()
    r1 = b.reactor("r1")
    i1 = r1.input("in")
    r2 = b.reactor("r2")
    i2 = r2.input("in")
    o2 = r2.output("out")
    with pytest.raises(CompositionError, match="input"):
        connect(i1, i2)
    with pytest.raises(CompositionError, match="output"):
        connect(o2, o2)


def test_duplicate_names_rejected():
    b = Builder()
    b.reactor("x")
    with pytest.raises(CompositionError, match="duplicate reactor"):
        b.reactor("x")
    r = b.reactor("y")
    r.input("p")
    with pytest.raises(CompositionError, match="duplicate element"):
        r.output("p")


@pytest.mark.parametrize("name", ["a\nb", "a\r\nb", "a\n", "a\x1cb", "a\u2028b", "a,b",
                                  "a FX=b", "a SCHED=b", 3, None, 1.5, b"r"],
                         ids=["newline", "crlf", "trailing-newline", "file-separator",
                              "line-separator", "comma", "fx", "sched", "int", "none",
                              "float", "bytes"])
def test_a_name_that_a_trace_line_cannot_carry_is_refused(name):
    # A trace line writes reactor, port and action names as they are: a line
    # break or a field separator in one would make a file that reads back
    # as another trace, and a name that is not a str is no text at all.
    why = "holds a separator of the trace line format" if isinstance(name, str) else "is not a str"
    b = Builder()
    with pytest.raises(CompositionError, match=re.escape(f"reactor name {name!r} {why}")):
        b.reactor(name)
    r = b.reactor("r")
    for declare in (r.input, r.output, r.action, r.physical_action, r.timer):
        with pytest.raises(CompositionError, match=re.escape(
                f"reactor 'r': element name {name!r} {why}")):
            declare(name)
    assert not (r.ports or r.timers or r.actions)
    if not isinstance(name, str):  # a builder's name is not in its trace, but it is a str
        with pytest.raises(CompositionError, match=re.escape(f"builder name {name!r} {why}")):
            Builder(name)
    assert list(b.build().instances) == [r]


@pytest.mark.parametrize("declare,message", [
    (lambda r: r.input("x", width=2.0), "must be an integer, got 2.0"),
    (lambda r: r.output("x", width=1.5), "must be an integer, got 1.5"),
    (lambda r: r.input("x", width="2"), "must be an integer, got '2'"),
    (lambda r: r.output("x", width=0), "must be >= 1, got 0"),
], ids=["input-float", "output-float", "input-str", "output-zero"])
def test_bad_port_width_rejected_at_declaration(declare, message):
    b = Builder()
    r = b.reactor("r")
    with pytest.raises(CompositionError, match=r"port r\.x: width " + re.escape(message)):
        declare(r)
    assert not r.ports


def test_channel_index_must_be_an_integer():
    b = Builder()
    o = b.reactor("r").output("o", width=2)
    with pytest.raises(TypeError, match=r"r\.o: channel index must be an integer, got 1\.0"):
        o[1.0]
    with pytest.raises(IndexError, match="out of range"):
        o[2]
    assert o[True] == (o, 1)  # an integer in all but name is accepted


def test_timer_period_zero_rejected():
    b = Builder()
    r = b.reactor("r")
    with pytest.raises(CompositionError, match="period"):
        r.timer("t", offset=0, period=0)


def test_time_overflow_rejected():
    b = Builder()
    r = b.reactor("r")
    with pytest.raises(CompositionError, match="overflow"):
        r.timer("t", offset=2**62, period=2**62)


def _interleaved_slots_topology():
    # Timers and actions declared in interleaved reactors, a multiport, and
    # reactions on STARTUP and SHUTDOWN.
    b = Builder()
    a, c = b.reactor("a"), b.reactor("c")
    out = a.output("out", width=3)
    t1 = a.timer("t1", period=MSEC)
    act1 = c.action("act1")
    inp = c.input("inp", width=3)
    t2 = c.timer("t2")
    act2 = a.physical_action("act2")
    a.reaction(STARTUP, t1, act2, effects=[out], body=lambda ctx: None)
    c.reaction(inp, t2, body=lambda ctx: None)
    c.reaction(STARTUP, SHUTDOWN, act1, effects=[act1], body=lambda ctx: None)
    a.reaction(SHUTDOWN, body=lambda ctx: None)
    connect(out, inp)
    return b.build()


@pytest.mark.parametrize("name", ["interleaved", *(spec.name for spec in list_benchmarks())])
def test_slot_tables_match_the_declarations(name, monkeypatch):
    wiring = record_wiring(monkeypatch)
    if name == "interleaved":
        topo = _interleaved_slots_topology()
    else:
        spec = get_benchmark(name)
        topo = spec.build(spec.resolve_params()).topology
    # The slot is the only name a run gives a trigger: startup and shutdown own
    # slots 0 and 1, every other trigger the slots from its base on, and each
    # slot's fan-out, connections and trace part are those of the trigger there.
    # A line names only an output channel or a logical action: every other
    # slot's trace part is empty.
    assert (STARTUP.base, SHUTDOWN.base) == (0, 1)
    owner = {}  # slot -> (its trigger, the label its trace part starts with)
    for t in (STARTUP, SHUTDOWN, *topo.ports, *topo.timers, *topo.actions):
        for i in range(t.width):
            assert t.base + i not in owner, (name, t)
            owner[t.base + i] = (t, PortChannel(t, i).label()
                                 if isinstance(t, Port) and not t.is_input else
                                 t.label() if isinstance(t, Action) and not t.physical else None)
    assert sorted(owner) == list(range(len(topo.slot_reactions)))
    parts = slot_parts(topo)
    for table in (topo.slot_reactions, topo.conn_targets, parts):
        assert len(table) == len(topo.slot_reactions)
    feeds = {slot: [] for slot in owner}
    for src, dst in wiring[topo]:
        feeds[src.port.base + src.index].append(dst.port.base + dst.index)
    for slot, (trigger, label) in owner.items():
        assert topo.slot_reactions[slot] == tuple(
            r.rid for r in topo.reactions if trigger in r.triggers), (name, slot)
        assert topo.conn_targets[slot] == tuple(feeds[slot]), (name, slot)
        assert parts[slot] == "" if label is None else parts[slot].startswith(label), (name, slot)


def test_only_an_output_channel_or_a_logical_action_has_a_trace_part():
    # A set logs only an output channel and a schedule only a logical action:
    # no line names any other slot, so its part is empty.
    topo = _interleaved_slots_topology()
    parts = slot_parts(topo)
    slot = {t.name: t.base for t in (*topo.ports, *topo.timers, *topo.actions)}
    assert parts[slot["out"]:slot["out"] + 3] == ["a.out[0]:", "a.out[1]:", "a.out[2]:"]
    assert parts[slot["act1"]] == "c.act1@"
    empty = [STARTUP.base, SHUTDOWN.base, *range(slot["inp"], slot["inp"] + 3),
             slot["t1"], slot["t2"], slot["act2"]]
    assert [parts[s] for s in empty] == [""] * 8
    assert sorted(empty + [*range(slot["out"], slot["out"] + 3), slot["act1"]]) == list(
        range(len(topo.slot_reactions)))


def test_frozen_after_build():
    b = Builder()
    b.reactor("r")
    b.build()
    with pytest.raises(CompositionError, match="frozen"):
        b.reactor("another")


def test_trigger_and_effect_ownership_validated():
    b = Builder()
    r1 = b.reactor("r1")
    out1 = r1.output("out")
    r2 = b.reactor("r2")
    with pytest.raises(CompositionError, match="another reactor|not an input"):
        r2.reaction(out1, body=lambda ctx: None)
    inp2 = r2.input("in")
    with pytest.raises(CompositionError, match="not an output"):
        r2.reaction(inp2, effects=[out1], body=lambda ctx: None)
    with pytest.raises(CompositionError, match="no triggers"):
        r2.reaction(effects=[], body=lambda ctx: None)


def _nothing(ctx):
    pass


@pytest.mark.parametrize("declare, message", [
    (lambda r1, r2: r2.reaction(r1.timer("t"), body=_nothing),
     "reaction in 'r2': trigger r1.t belongs to another reactor"),
    (lambda r1, r2: r2.reaction(r1.action("a"), body=_nothing),
     "reaction in 'r2': trigger r1.a belongs to another reactor"),
    (lambda r1, r2: r2.reaction("in", body=_nothing), "reaction in 'r2': invalid trigger 'in'"),
    (lambda r1, r2: r2.reaction(STARTUP, effects=[r1.action("a")], body=_nothing),
     "reaction in 'r2': effect r1.a belongs to another reactor"),
    (lambda r1, r2: r2.reaction(STARTUP, effects=["out"], body=_nothing),
     "reaction in 'r2': invalid effect 'out'"),
], ids=["foreign-timer-trigger", "foreign-action-trigger", "name-as-trigger",
        "foreign-action-effect", "name-as-effect"])
def test_a_trigger_or_effect_of_another_reactor_or_of_no_kind_is_refused(declare, message):
    b = Builder()
    r1, r2 = b.reactor("r1"), b.reactor("r2")
    with pytest.raises(CompositionError, match="^" + re.escape(message) + "$"):
        declare(r1, r2)
    assert not r2.reactions


def test_a_body_that_is_not_callable_is_refused_at_declaration():
    r = Builder().reactor("r")
    t = r.timer("t")
    message = "reaction in 'r': body 5 is not callable"
    with pytest.raises(CompositionError, match="^" + re.escape(message) + "$"):
        r.reaction(t, body=5)
    with pytest.raises(CompositionError, match="^" + re.escape(message) + "$"):
        r.reaction(t)(5)
    assert not r.reactions


@pytest.mark.parametrize("declare, message", [
    (lambda r: r.timer("t", offset=-1), "timer r.t: negative offset"),
    (lambda r: r.action("a", min_delay=-1), "action r.a: negative min_delay"),
], ids=["offset", "min_delay"])
def test_negative_composition_times_rejected(declare, message):
    r = Builder().reactor("r")
    with pytest.raises(CompositionError, match="^" + re.escape(message) + "$"):
        declare(r)
    assert not (r.timers or r.actions)


def test_physical_action_cannot_be_an_effect():
    b = Builder()
    r = b.reactor("r")
    phys = r.physical_action("irq")
    with pytest.raises(CompositionError, match="physical"):
        r.reaction(STARTUP, effects=[phys], body=lambda ctx: None)


# -- set/get semantics ----------------------------------------------------


def test_set_port_delivers_same_tag():
    topo, acct = two_user_bank()
    run_env(topo)
    assert acct.state.balance == 10.0
    assert acct.state.outcomes == [("granted", Tag(2 * SEC, 0))]


def test_last_write_wins_within_one_body():
    b = Builder()
    src = b.reactor("src")
    out = src.output("out")

    @src.reaction(STARTUP, effects=[out])
    def _(ctx):
        ctx.set(out, 1)
        ctx.set(out, 2)

    sink = b.reactor("sink")
    inp = sink.input("in")
    sink.state.got = None

    @sink.reaction(inp)
    def _(ctx):
        ctx.state.got = ctx.get(inp)

    connect(out, inp)
    run_env(b.build())
    assert sink.state.got == 2


def _exclusive_writers_program():
    b = Builder()
    src = b.reactor("src")
    out = src.output("out")

    @src.reaction(STARTUP, effects=[out])
    def _first(ctx):
        ctx.set(out, 10)

    @src.reaction(STARTUP, effects=[out])
    def _second(ctx):
        ctx.set(out, 20)

    sink = b.reactor("sink")
    inp = sink.input("in")
    sink.state.got = None

    @sink.reaction(inp)
    def _(ctx):
        ctx.state.got = ctx.get(inp)

    connect(out, inp)
    return b.build(), sink


def test_mutually_exclusive_writers_lexical_order():
    # Oracle: a single worker executes the two reactions of one reactor in
    # lexical order and the port keeps the final write, so value 20 from the
    # lexically later reaction is what the sink observes.
    writes = {1: 10, 2: 20}
    final = None
    for index in sorted(writes):
        final = writes[index]
    assert final == 20

    for workers in (1, 4):
        topo, sink = _exclusive_writers_program()
        run_env(topo, workers=workers)
        assert sink.state.got == final


def test_get_absent_and_clearing_across_tags():
    b = Builder()
    src = b.reactor("src")
    out = src.output("out")
    t1 = src.timer("t1", offset=0)

    @src.reaction(t1, effects=[out])
    def _(ctx):
        ctx.set(out, 42)

    sink = b.reactor("sink")
    inp = sink.input("in")
    t2 = sink.timer("t2", offset=0, period=MSEC)
    sink.state.reads = []

    @sink.reaction(t2, inp)
    def _(ctx):
        ctx.state.reads.append((ctx.tag.time, ctx.get(inp), ctx.is_present(inp)))

    sink.state.stopper = None

    @sink.reaction(t2)
    def _(ctx):
        if ctx.tag.time >= 2 * MSEC:
            ctx.request_stop()

    connect(out, inp)
    run_env(b.build())
    # Oracle: two tags run; the value written at tag 0 must not survive into
    # the next timer tick.
    assert sink.state.reads[0] == (0, 42, True)
    assert sink.state.reads[1] == (MSEC, None, False)


def test_undeclared_effect_fails_fast():
    b = Builder()
    r = b.reactor("r")
    out = r.output("out")
    t = r.timer("t")

    @r.reaction(t)  # out not declared as effect
    def _(ctx):
        ctx.set(out, 1)

    with pytest.raises(ExecutionError, match="r.1") as exc_info:
        run_env(b.build())
    assert isinstance(exc_info.value.__cause__, ContractViolationError)


def test_undeclared_trigger_read_fails_fast():
    b = Builder()
    src = b.reactor("src")
    out = src.output("out")
    t = src.timer("t")

    @src.reaction(t, effects=[out])
    def _(ctx):
        ctx.set(out, 1)

    sink = b.reactor("sink")
    inp = sink.input("in")
    other = sink.input("other")
    connect(out, inp)

    @sink.reaction(inp)
    def _(ctx):
        ctx.get(other)

    with pytest.raises(ExecutionError, match="sink.1"):
        run_env(b.build())


def test_present_checks_when_called():
    # The body never iterates what present returns: the check is at the call.
    b = Builder()
    src = b.reactor("src")
    out = src.output("out")
    src.reaction(STARTUP, effects=[out], body=lambda ctx: ctx.set(out, 1))
    r = b.reactor("r")
    inp, j = r.input("inp"), r.input("j", width=2)
    r.reaction(inp, body=lambda ctx: ctx.present(j))
    connect(out, inp)
    with pytest.raises(ExecutionError, match="r.1") as exc_info:
        run_env(b.build())
    cause = exc_info.value.__cause__
    assert isinstance(cause, ContractViolationError)
    assert str(cause) == "r.1 reads undeclared trigger r.j"


def _misuse_program(misuse):
    b = Builder()
    r = b.reactor("r")
    h = SimpleNamespace(t=r.timer("t"), a=r.action("a"), inp=r.input("inp", width=2),
                        out=r.output("out"), solo=r.input("solo"), fx=r.output("fx"),
                        wide=r.output("wide", width=2))
    r.reaction(STARTUP, h.t, h.inp, effects=[h.a, h.wide], body=lambda ctx: misuse(ctx, h))
    # r.2 declares a width-1 trigger and effect that r.1 does not
    r.reaction(h.solo, effects=[h.fx], body=lambda ctx: None)
    return b.build()


@pytest.mark.parametrize("misuse, message", [
    (lambda ctx, h: ctx.set(h.a, 1), "is not a port"),
    (lambda ctx, h: ctx.get(STARTUP), "startup is not a port, timer or action"),
    (lambda ctx, h: ctx.get(h.t, index=1), "index 1 out of range for r.t"),
    (lambda ctx, h: ctx.get(h.inp), "r.inp is a multiport"),
    (lambda ctx, h: ctx.is_present(h.inp, index=2), "index 2 out of range for r.inp"),
    (lambda ctx, h: ctx.get(h.out), "r.1 reads undeclared trigger r.out"),
    (lambda ctx, h: ctx.set(h.out, 1), "r.1 sets undeclared effect r.out"),
    (lambda ctx, h: ctx.get([1]), "[1] is not a port, timer or action"),
    (lambda ctx, h: ctx.set([1], 1), "[1] is not a port, timer or action"),
    (lambda ctx, h: ctx.set(h.out[0], 1), "r.1 sets undeclared effect r.out"),
    (lambda ctx, h: ctx.is_present(h.solo), "r.1 reads undeclared trigger r.solo"),
    (lambda ctx, h: ctx.set(h.fx, 1), "r.1 sets undeclared effect r.fx"),
    (lambda ctx, h: ctx.get(h.inp, index=1.0), "index 1.0 for r.inp is not an integer"),
    (lambda ctx, h: ctx.is_present(h.inp, index="1"), "index '1' for r.inp is not an integer"),
    (lambda ctx, h: ctx.schedule([1]), "r.1 schedules undeclared action [1]"),
    (lambda ctx, h: ctx.schedule(h.inp), "r.1 schedules undeclared action <Port r.inp"),
    (lambda ctx, h: ctx.present(h.t), "r.1: <Timer r.t> is not a port"),
    (lambda ctx, h: ctx.present(h.solo), "r.1 reads undeclared trigger r.solo"),
    # a channel names its index already: a second one is not silently dropped
    (lambda ctx, h: ctx.set(h.wide[1], 1, 0), "r.1: r.wide[1] is a channel, pass no index"),
    (lambda ctx, h: ctx.get(h.inp[0], 1), "r.1: r.inp[0] is a channel, pass no index"),
    (lambda ctx, h: ctx.is_present(h.inp[0], 1), "r.1: r.inp[0] is a channel, pass no index"),
    (lambda ctx, h: ctx.schedule(h.a, delay=-1), "r.1: negative delay"),
], ids=["set-action", "get-startup", "timer-index", "multiport-no-index",
        "port-index-range", "undeclared-trigger", "undeclared-effect", "get-unhashable",
        "set-unhashable", "undeclared-channel-effect", "other-reactions-trigger",
        "other-reactions-effect", "float-index", "str-index", "schedule-unhashable",
        "schedule-port", "present-timer", "present-other-reactions-trigger",
        "set-channel-index", "get-channel-index", "is-present-channel-index",
        "schedule-negative-delay"])
def test_one_contract_for_every_slot_kind(misuse, message):
    with pytest.raises(ExecutionError, match="r.1") as exc_info:
        run_env(_misuse_program(misuse))
    cause = exc_info.value.__cause__
    assert isinstance(cause, ContractViolationError)
    assert message in str(cause)


def test_channel_of_a_single_port_reads_and_writes():
    b = Builder()
    src = b.reactor("src")
    out = src.output("out")
    src.reaction(STARTUP, effects=[out], body=lambda ctx: ctx.set(out[0], 7))
    sink = b.reactor("sink")
    inp = sink.input("in")
    sink.reaction(inp, body=lambda ctx: setattr(ctx.state, "seen", (
        ctx.get(inp[0]), ctx.is_present(inp[0]), ctx.get(inp, index=0), ctx.get(inp))))
    connect(out, inp)
    env = Environment(b.build(), fast=True, trace=True)
    env.run()
    assert sink.state.seen == (7, True, 7, 7)
    assert env.trace.records[0].effects[0][0] == "src.out"


def test_an_index_like_integer_addresses_a_channel():
    # As in as_time, True, numpy integers and any type with __index__ are
    # integers.
    import numpy as np

    class Two:
        def __index__(self):
            return 2

    b = Builder()
    src = b.reactor("src")
    out = src.output("out", width=3)
    src.reaction(STARTUP, effects=[out], body=lambda ctx: (
        ctx.set(out, "a", index=np.int64(0)), ctx.set(out, "b", index=True),
        ctx.set(out, "c", index=Two())))
    sink = b.reactor("sink")
    inp = sink.input("in", width=3)
    sink.reaction(inp, body=lambda ctx: setattr(ctx.state, "seen", (
        list(ctx.present(inp)), ctx.get(inp, index=True), ctx.is_present(inp, index=Two()),
        ctx.get(inp, index=np.intp(2)))))
    connect(out, inp)
    run_env(b.build())
    assert sink.state.seen == ([(0, "a"), (1, "b"), (2, "c")], "b", True, "c")


@pytest.mark.parametrize("workers", [1, 2])
def test_timer_and_action_presence_is_per_tag(workers):
    # The timer ticks every millisecond; the action fires with it at 1 ms,
    # alone at 2.5 ms and alone at the microstep after 3 ms. Each slot must
    # read absent at every other tag. Startup shares (0, 0) with the timer and
    # is staged by the same loop: the second reaction runs there once.
    b = Builder()
    r = b.reactor("r")
    t = r.timer("t", offset=0, period=MSEC)
    act = r.action("a")
    r.state.seen = []
    delays = {0: MSEC, 2: MSEC // 2, 3: 0}

    @r.reaction(t, effects=[act])
    def _(ctx):
        tick = ctx.tag.time // MSEC
        if tick in delays:
            ctx.schedule(act, f"a{tick}", delay=delays[tick])

    @r.reaction(STARTUP, t, act)
    def _(ctx):
        ctx.state.seen.append((ctx.tag, ctx.get(t), ctx.is_present(t),
                               ctx.get(act), ctx.is_present(act)))

    report = run_env(b.build(), workers=workers, stop_time=4 * MSEC)
    assert r.state.seen == [
        (Tag(0, 0), None, True, None, False),
        (Tag(MSEC, 0), None, True, "a0", True),
        (Tag(2 * MSEC, 0), None, True, None, False),
        (Tag(2 * MSEC + MSEC // 2, 0), None, False, "a2", True),
        (Tag(3 * MSEC, 0), None, True, None, False),
        (Tag(3 * MSEC, 1), None, False, "a3", True),
        (Tag(4 * MSEC, 0), None, True, None, False),
    ]
    # startup, the timer at 0, 1, 2, 3 and 4 ms, the action at 1 ms, 2.5 ms
    # and (3 ms, 1)
    assert report.events == 1 + 5 + 3


# -- schedule_logical -----------------------------------------------------


def test_schedule_logical_tags():
    b = Builder()
    r = b.reactor("r")
    t = r.timer("t", offset=1 * SEC)
    act = r.action("a")
    r.state.tags = []

    @r.reaction(t, effects=[act])
    def _(ctx):
        ctx.state.tags.append(ctx.schedule(act, "x", delay=2 * SEC))

    @r.reaction(act)
    def _(ctx):
        ctx.state.tags.append(("fired", ctx.tag, ctx.get(act)))

    run_env(b.build())
    assert r.state.tags[0] == Tag(3 * SEC, 0)
    assert r.state.tags[1] == ("fired", Tag(3 * SEC, 0), "x")


def test_schedule_zero_delay_increments_microstep():
    b = Builder()
    r = b.reactor("r")
    t = r.timer("t", offset=5 * SEC)
    act = r.action("a")
    r.state.tags = []

    @r.reaction(t, act, effects=[act])
    def _(ctx):
        r.state.tags.append(ctx.tag)
        if ctx.tag.microstep < 4:
            returned = ctx.schedule(act)
            assert returned == Tag(ctx.tag.time, ctx.tag.microstep + 1)

    run_env(b.build())
    # From (5s,3) a zero-delay schedule lands at (5s,4).
    assert r.state.tags == [Tag(5 * SEC, m) for m in range(5)]


def test_same_action_same_tag_replaces_value():
    b = Builder()
    r = b.reactor("r")
    t = r.timer("t")
    act = r.action("a")
    r.state.fired = []

    @r.reaction(t, effects=[act])
    def _(ctx):
        ctx.schedule(act, "first", delay=SEC)
        ctx.schedule(act, "second", delay=SEC)

    @r.reaction(act)
    def _(ctx):
        ctx.state.fired.append(ctx.get(act))

    report = run_env(b.build())
    # Oracle: the event queue keys events by (action, tag): one event total,
    # carrying the later value.
    assert r.state.fired == ["second"]
    assert report.events == 2  # the timer event plus the single action event


def test_min_delay_applies():
    b = Builder()
    r = b.reactor("r")
    t = r.timer("t")
    act = r.action("a", min_delay=1 * SEC)
    r.state.got = None

    @r.reaction(t, effects=[act])
    def _(ctx):
        assert ctx.schedule(act, 1) == Tag(1 * SEC, 0)

    @r.reaction(act)
    def _(ctx):
        ctx.state.got = ctx.tag

    run_env(b.build())
    assert r.state.got == Tag(1 * SEC, 0)


def test_fractional_delay_rejected():
    b = Builder()
    r = b.reactor("r")
    t = r.timer("t")
    act = r.action("a")
    r.reaction(t, effects=[act], body=lambda ctx: ctx.schedule(act, delay=0.5))
    r.reaction(act, body=lambda ctx: None)

    with pytest.raises(ExecutionError, match="r.1") as exc_info:
        run_env(b.build())
    cause = exc_info.value.__cause__
    assert isinstance(cause, ContractViolationError)
    assert "r.1: delay must be integer nanoseconds" in str(cause)


@pytest.mark.parametrize("offset, min_delay", [(MSEC, 0), (0, 1)],
                         ids=["past-the-running-time", "past-the-min-delay"])
def test_schedule_beyond_64_bit_time_fails_the_run(offset, min_delay):
    b = Builder()
    r = b.reactor("r")
    t = r.timer("t", offset=offset)
    act = r.action("a", min_delay=min_delay)
    r.reaction(t, effects=[act], body=lambda ctx: ctx.schedule(act, delay=TIME_MAX))
    r.reaction(act, body=lambda ctx: None)

    with pytest.raises(ExecutionError, match="r.1") as exc_info:
        run_env(b.build())
    cause = exc_info.value.__cause__
    assert isinstance(cause, CompositionError)
    assert "overflows" in str(cause)


def test_numpy_integer_times_accepted():
    np = pytest.importorskip("numpy")
    b = Builder()
    r = b.reactor("r")
    t = r.timer("t", offset=np.int64(MSEC), period=np.int32(MSEC))
    act = r.action("a", min_delay=np.int64(MSEC))
    r.state.tags = []

    @r.reaction(t, effects=[act])
    def _(ctx):
        g = ctx.schedule(act, delay=np.int64(1))
        assert type(g.time) is int

    @r.reaction(act)
    def _(ctx):
        ctx.state.tags.append(ctx.tag)

    run_env(b.build(), stop_time=np.int64(3 * MSEC))
    assert r.state.tags == [Tag(2 * MSEC + 1, 0)]


@pytest.mark.parametrize("declare, what", [
    (lambda r: r.timer("t", offset=0.5), "timer r.t: offset"),
    (lambda r: r.timer("t", period=1.0), "timer r.t: period"),
    (lambda r: r.action("a", min_delay=0.5), "action r.a: min_delay"),
], ids=["offset", "period", "min_delay"])
def test_fractional_composition_times_rejected(declare, what):
    r = Builder().reactor("r")
    with pytest.raises(CompositionError, match=f"{what} must be integer nanoseconds"):
        declare(r)


def test_fractional_stop_time_rejected():
    b = Builder()
    b.reactor("r").timer("t")
    with pytest.raises(ValueError, match="stop_time must be integer nanoseconds"):
        Environment(b.build(), stop_time=0.5)


@pytest.mark.parametrize("kwargs, message", [
    ({"workers": 0}, "workers must be >= 1, got 0"),
    ({"stop_time": -1}, "stop_time must be a non-negative nanosecond value"),
], ids=["zero-workers", "negative-stop-time"])
def test_out_of_range_environment_arguments_rejected(kwargs, message):
    b = Builder()
    b.reactor("r").timer("t")
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        Environment(b.build(), **kwargs)


@pytest.mark.parametrize("workers", [2.0, "2"])
def test_non_integer_workers_rejected(workers):
    b = Builder()
    b.reactor("r").timer("t")
    with pytest.raises(ValueError, match="workers must be an integer"):
        Environment(b.build(), workers=workers)


def test_numpy_integer_workers_accepted():
    import numpy as np
    topo, acct = two_user_bank()
    env = Environment(topo, workers=np.int64(2), fast=True)
    assert type(env.workers) is int
    env.run()
    assert acct.state.balance == 10.0


def test_schedule_physical_action_via_logical_op_rejected():
    b = Builder()
    r = b.reactor("r")
    t = r.timer("t")
    phys = r.physical_action("irq")

    @r.reaction(t)
    def _(ctx):
        ctx.schedule(phys)

    with pytest.raises(ExecutionError, match="undeclared action"):
        run_env(b.build())


# -- schedule_physical ----------------------------------------------------


def test_schedule_physical_clock_ahead_of_logical():
    b = Builder()
    r = b.reactor("r")
    phys = r.physical_action("irq")
    keepalive = b.reactor("keep")
    kt = keepalive.timer("t", offset=500 * MSEC)
    r.state.fired = []

    @r.reaction(phys)
    def _(ctx):
        ctx.state.fired.append(ctx.tag)

    @keepalive.reaction(kt)
    def _(ctx):
        pass

    env = Environment(b.build(), fast=False)
    done = {}

    def runner():
        done["report"] = env.run()

    thread = threading.Thread(target=runner)
    thread.start()
    env.started.wait(5)
    import time
    time.sleep(0.05)
    before = time.monotonic_ns()
    tag = env.schedule_physical(phys, "ping")
    after = time.monotonic_ns()
    thread.join(10)
    assert not thread.is_alive()
    # The assigned time is the physical reading: bounded by the clock around
    # the call (translated to the run's epoch), and certainly before 500ms.
    assert 0 < tag.time < 500 * MSEC
    assert tag.microstep == 0
    assert (after - before) < 50 * MSEC
    assert r.state.fired == [tag]


def test_schedule_physical_stays_after_current_tag():
    # Fast mode races logical time far ahead of the clock; an injection made
    # while the tag at 4s is processed must land at 4s + 1ns, not at the
    # (much smaller) physical clock reading.
    box = {}
    b = Builder()
    r = b.reactor("r")
    t = r.timer("t", offset=4 * SEC)
    phys = r.physical_action("irq")
    r.state.tag = None
    r.state.fired = None

    @r.reaction(t)
    def _(ctx):
        ctx.state.tag = box["env"].schedule_physical(phys, "skewed")

    @r.reaction(phys)
    def _(ctx):
        ctx.state.fired = ctx.tag

    env = Environment(b.build(), fast=True)
    box["env"] = env
    env.run()
    assert r.state.tag == Tag(4 * SEC + 1, 0)
    assert r.state.fired == Tag(4 * SEC + 1, 0)


def test_concurrent_physical_scheduling_from_two_threads():
    b = Builder()
    r = b.reactor("r")
    p1 = r.physical_action("irq1")
    p2 = r.physical_action("irq2")
    keep = b.reactor("keep")
    kt = keep.timer("t", offset=300 * MSEC)
    r.state.fired = []

    @keep.reaction(kt)
    def _(ctx):
        pass

    @r.reaction(p1)
    def _(ctx):
        ctx.state.fired.append(("p1", ctx.tag))

    @r.reaction(p2)
    def _(ctx):
        ctx.state.fired.append(("p2", ctx.tag))

    env = Environment(b.build(), fast=False)
    result = {}
    runner = threading.Thread(target=lambda: result.setdefault("r", env.run()))
    runner.start()
    env.started.wait(5)
    tags = {}
    barrier = threading.Barrier(2)

    def inject(name, action):
        barrier.wait()
        tags[name] = env.schedule_physical(action, name)

    t1 = threading.Thread(target=inject, args=("p1", p1))
    t2 = threading.Thread(target=inject, args=("p2", p2))
    t1.start(); t2.start()
    t1.join(); t2.join()
    runner.join(10)
    assert not runner.is_alive()
    # Both events were enqueued and processed in tag order.
    fired = dict(r.state.fired)
    assert fired["p1"] == tags["p1"]
    assert fired["p2"] == tags["p2"]
    observed = [tag for _n, tag in r.state.fired]
    assert observed == sorted(observed)


def test_schedule_physical_after_termination_rejected():
    b = Builder()
    r = b.reactor("r")
    phys = r.physical_action("irq")
    t = r.timer("t")

    @r.reaction(t)
    def _(ctx):
        pass

    @r.reaction(phys)
    def _(ctx):
        pass

    env = Environment(b.build(), fast=True)
    env.run()
    with pytest.raises(ShutdownError):
        env.schedule_physical(phys, 1)


def test_schedule_physical_takes_only_a_physical_action_of_its_program():
    # Another program's action names a slot of its own topology, which here may
    # be any trigger's: only this program's physical actions are taken.
    def program(name):
        b = Builder(name)
        r = b.reactor("r")
        t, irq = r.timer("t", offset=MSEC), r.physical_action("irq")
        act, out = r.action("act"), r.output("out")
        r.state.log = []
        r.reaction(STARTUP, body=lambda ctx: ctx.state.log.append(("startup", ctx.tag)))
        r.reaction(t, body=lambda ctx: ctx.state.log.append(inject(irq, act, out)))
        r.reaction(irq, body=lambda ctx: ctx.state.log.append(("irq", ctx.get(irq))))
        r.reaction(act, effects=[out], body=lambda ctx: None)
        return b.build(), r, irq

    def inject(irq, act, out):
        rejected = []
        for arg in (foreign, out, "irq", None, act):
            with pytest.raises(ContractViolationError) as info:
                env.schedule_physical(arg, 1)
            rejected.append(str(info.value))
        env.schedule_physical(irq, 2)
        return rejected

    _, _, foreign = program("there")
    topo, r, _ = program("here")
    env = Environment(topo, fast=True)
    env.run()
    assert r.state.log == [("startup", Tag(0, 0)), [
        "<Action r.irq physical> is not a physical action of here",
        "<Port r.out output w=1> is not a physical action of here",
        "'irq' is not a physical action of here",
        "None is not a physical action of here",
        "r.act is a logical action; schedule it from a reaction body",
    ], ("irq", 2)]


# -- request_stop and termination ------------------------------------------


def test_stop_mid_tag_completes_the_tag():
    b = Builder()
    r = b.reactor("r")
    t = r.timer("t")
    r.state.ran = []

    @r.reaction(t)
    def _(ctx):
        ctx.state.ran.append(1)
        ctx.request_stop()

    @r.reaction(t)
    def _(ctx):
        ctx.state.ran.append(2)  # same tag: still executes

    run_env(b.build())
    assert r.state.ran == [1, 2]


def test_stop_idempotent():
    b = Builder()
    r = b.reactor("r")
    t = r.timer("t", offset=0, period=MSEC)
    r.state.count = 0

    @r.reaction(t)
    def _(ctx):
        ctx.state.count += 1
        ctx.request_stop()
        ctx.request_stop()

    report = run_env(b.build())
    assert r.state.count == 1
    assert report.last_tag == Tag(0, 1)


def test_natural_termination_one_shot_timer():
    # Oracle: a single one-shot timer produces one event; after it the queue
    # is empty and the scheduler must terminate on its own.
    b = Builder()
    r = b.reactor("r")
    t = r.timer("t", offset=3 * MSEC)
    r.state.count = 0

    @r.reaction(t)
    def _(ctx):
        ctx.state.count += 1

    report = run_env(b.build())
    assert r.state.count == 1
    assert report.events == 1
    assert report.last_tag == Tag(3 * MSEC, 1)


def test_shutdown_reaction_runs_at_stop_tag():
    from detreact import SHUTDOWN

    b = Builder()
    r = b.reactor("r")
    t = r.timer("t", offset=2 * MSEC)
    r.state.log = []

    @r.reaction(t)
    def _(ctx):
        ctx.state.log.append(("tick", ctx.tag))

    @r.reaction(SHUTDOWN)
    def _(ctx):
        ctx.state.log.append(("shutdown", ctx.tag))

    run_env(b.build())
    assert r.state.log == [("tick", Tag(2 * MSEC, 0)),
                           ("shutdown", Tag(2 * MSEC, 1))]


def test_stop_requested_before_run_ends_at_startup():
    from detreact import SHUTDOWN

    b = Builder()
    r = b.reactor("r")
    t = r.timer("t", offset=MSEC)
    r.state.log = []

    @r.reaction(STARTUP)
    def _(ctx):
        ctx.state.log.append(("startup", ctx.tag))

    @r.reaction(t)
    def _(ctx):
        ctx.state.log.append(("tick", ctx.tag))

    @r.reaction(SHUTDOWN)
    def _(ctx):
        ctx.state.log.append(("shutdown", ctx.tag))

    env = Environment(b.build(), fast=True)
    env.request_stop()
    report = env.run()
    assert r.state.log == [("startup", Tag(0, 0)), ("shutdown", Tag(0, 0))]
    assert report.last_tag == Tag(0, 0)


def test_schedule_physical_before_run_rejected():
    b = Builder()
    r = b.reactor("r")
    phys = r.physical_action("irq")

    @r.reaction(phys)
    def _(ctx):
        pass

    env = Environment(b.build(), fast=True)
    with pytest.raises(ShutdownError, match="not running"):
        env.schedule_physical(phys, 1)


def test_environment_runs_once():
    topo, _ = two_user_bank()
    env = Environment(topo, fast=True)
    env.run()
    with pytest.raises(RuntimeError, match="exactly once"):
        env.run()


def test_reaction_failure_names_reaction():
    b = Builder()
    r = b.reactor("bomb")
    t = r.timer("t")

    @r.reaction(t)
    def _(ctx):
        raise ValueError("boom")

    with pytest.raises(ExecutionError, match="bomb.1"):
        run_env(b.build())
