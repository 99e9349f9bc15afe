"""Connection patterns: unfolding orders, widths, broadcast, sparse access."""

import re
from pathlib import Path

import pytest

from detreact import (Builder, CompositionError, Environment, Interleaved,
                      STARTUP, bank, connect, unfold)
from programs import (bank_multiport_direct, bank_multiport_interleaved,
                      broadcast_pattern, cascade_pattern, edges_text,
                      fork_join_pattern, sparse_multiport)

GOLDEN = Path(__file__).parent / "golden"


def _bank_with_multiport(n=3, width=2):
    b = Builder()

    def node(r, bank_index):
        r.input("p", width=width)
        r.output("q", width=width)
        t = r.timer("t")
        r.reaction(t, body=lambda ctx: None)

    nodes = bank(b, "b", n, node)
    return b, nodes


def test_unfold_default_is_bank_major():
    _, nodes = _bank_with_multiport(n=3, width=2)
    labels = [ch.label() for ch in unfold(nodes.port("p"))]
    assert labels == ["b[0].p[0]", "b[0].p[1]",
                      "b[1].p[0]", "b[1].p[1]",
                      "b[2].p[0]", "b[2].p[1]"]


def test_unfold_interleaved_is_port_major():
    _, nodes = _bank_with_multiport(n=3, width=2)
    labels = [ch.label() for ch in unfold(Interleaved(nodes.port("p")))]
    assert labels == ["b[0].p[0]", "b[1].p[0]", "b[2].p[0]",
                      "b[0].p[1]", "b[1].p[1]", "b[2].p[1]"]


def test_unfold_orders_are_permutations():
    _, nodes = _bank_with_multiport(n=4, width=3)
    default = unfold(nodes.port("p"))
    interleaved = unfold(Interleaved(nodes.port("p")))
    assert sorted(c.label() for c in default) == sorted(c.label() for c in interleaved)
    assert default != interleaved


def test_unfold_scalar_port():
    b = Builder()
    r = b.reactor("r")
    p = r.output("out")
    channels = unfold(p)
    assert len(channels) == 1
    assert channels[0].label() == "r.out"


def test_unfold_concatenates_refs_in_order():
    b = Builder()
    r = b.reactor("r")
    a = r.output("a")
    c = r.output("c", width=2)
    labels = [ch.label() for ch in unfold([c, a])]
    assert labels == ["r.c[0]", "r.c[1]", "r.a"]


def _plain_ports(widths):
    """One output named ``p`` on each of reactors ``r0``, ``r1``, ... (no bank)."""
    b = Builder()
    return b, [b.reactor(f"r{i}").output("p", width=w) for i, w in enumerate(widths)]


def test_bank_port_is_a_list_of_ports():
    _, nodes = _bank_with_multiport(n=3, width=2)
    ports = nodes.port("p")
    assert type(ports) is list
    assert ports == [m.ports[0] for m in nodes.members]


def test_unfold_interleaved_ports_outside_a_bank():
    _, ports = _plain_ports([2, 2])
    labels = [ch.label() for ch in unfold(Interleaved(ports))]
    assert labels == ["r0.p[0]", "r1.p[0]", "r0.p[1]", "r1.p[1]"]
    assert unfold(Interleaved(tuple(ports))) == unfold(Interleaved(ports))


def test_unfold_interleaved_width_mismatch_names_two_ports():
    _, ports = _plain_ports([2, 2, 3])
    with pytest.raises(CompositionError, match=r"^cannot interleave ports of different "
                                               r"widths: r0\.p has 2, r2\.p has 3$"):
        unfold(Interleaved(ports))


@pytest.mark.parametrize("ref", ["x", [["nested"]], Interleaved([]), None],
                         ids=["a-name", "a-nested-list", "interleaved-twice", "none"])
def test_unfold_interleaved_of_anything_else_is_an_error(ref):
    with pytest.raises(CompositionError, match="cannot interleave"):
        unfold(Interleaved(ref))


def test_unfold_interleaved_one_port_or_channel_is_unchanged():
    _, (p,) = _plain_ports([3])
    assert unfold(Interleaved(p)) == unfold(p)
    assert unfold(Interleaved(p[1])) == [p[1]]


def test_unfold_bank_port_rotated_with_list_operations():
    b = Builder()
    ps = bank(b, "n", 3, lambda r, bank_index: r.output("out")).port("out")
    labels = [ch.label() for ch in unfold(ps[1:] + ps[:1])]
    assert labels == ["n[1].out", "n[2].out", "n[0].out"]


def test_unfold_nested_lists_concatenate_depth_first():
    _, (a, c, d) = _plain_ports([1, 2, 1])
    labels = [ch.label() for ch in unfold([a, [c, (d,)], [], c[0]])]
    assert labels == ["r0.p", "r1.p[0]", "r1.p[1]", "r2.p", "r1.p[0]"]


def test_unfold_empty_list_is_no_channels_and_connect_rejects_it():
    b, (out,) = _plain_ports([1])
    assert unfold([]) == unfold(Interleaved([])) == []
    with pytest.raises(CompositionError, match="connect: empty side"):
        connect(out, Interleaved([]))
    with pytest.raises(CompositionError, match="connect: empty side"):
        connect([[], ()], out)
    assert not b._connections


def test_connect_width_mismatch_is_an_error():
    b = Builder()
    src = b.reactor("src")
    out = src.output("out", width=3)
    dst = b.reactor("dst")
    inp = dst.input("in", width=2)
    with pytest.raises(CompositionError, match="3.*2|width mismatch"):
        connect(out, inp)


def test_connect_excess_sources_rejected():
    # More sources than targets is rejected outright, not truncated.
    b = Builder()
    src = b.reactor("src")
    out = src.output("out", width=4)
    dst = b.reactor("dst")
    inp = dst.input("in", width=2)
    with pytest.raises(CompositionError, match="width mismatch"):
        connect(out, inp)
    assert not b._connections


def test_broadcast_requires_multiple():
    b = Builder()
    src = b.reactor("src")
    out = src.output("out", width=2)
    dst = b.reactor("dst")
    inp = dst.input("in", width=5)
    with pytest.raises(CompositionError, match="multiple"):
        connect(out, inp, broadcast=True)


def test_broadcast_cycles_the_left_side():
    b = Builder()
    src = b.reactor("src")
    out = src.output("out", width=2)
    dst = b.reactor("dst")
    inp = dst.input("in", width=4)
    pairs = connect(out, inp, broadcast=True)
    rendered = [(s.label(), d.label()) for s, d in pairs]
    assert rendered == [("src.out[0]", "dst.in[0]"),
                        ("src.out[1]", "dst.in[1]"),
                        ("src.out[0]", "dst.in[2]"),
                        ("src.out[1]", "dst.in[3]")]


def _wired_builder():
    """A builder with one connection, and a free output and input."""
    b = Builder()
    src, dst = b.reactor("src"), b.reactor("dst")
    connect(src.output("a"), dst.input("a"))
    return b, src.output("out"), dst.input("in")


def _second_writer(out, inp):
    # one call whose second pair drives dst.a, already driven by src.a
    src, dst = out.owner, inp.owner
    connect([out, src.output("o2")], [inp, dst.ports[0]])


def _same_target_twice(out, inp):
    wide = out.owner.output("wide", width=2)
    connect(wide, [inp, inp])


def _foreign_second_target(out, inp):
    connect([out, out], [inp, Builder().reactor("other").input("in")])


@pytest.mark.parametrize("wire,message", [
    (lambda out, inp: connect(out, Builder().reactor("other").input("in")),
     "connection endpoints belong to a different topology"),
    (lambda out, inp: connect(Builder().reactor("other").output("out"), inp),
     "connection endpoints belong to a different topology"),
    (lambda out, inp: connect([], inp), "connect: empty side"),
    (lambda out, inp: connect(out, []), "connect: empty side"),
    (lambda out, inp: connect("x", inp), "cannot unfold 'x'"),
    (lambda out, inp: connect(out, [inp, "x"]), "cannot unfold 'x'"),
    (lambda out, inp: connect("out", inp), "cannot unfold 'out'"),
    (lambda out, inp: connect(out.owner.timer("t"), inp), "cannot unfold <Timer src.t>"),
    (_second_writer, r"multiple writers: input dst\.a already"),
    (_same_target_twice, r"multiple writers: input dst\.in already"),
    (_foreign_second_target, "connection endpoints belong to a different topology"),
], ids=["foreign-target", "foreign-source", "empty-left", "empty-right",
        "not-a-port", "not-a-port-in-list", "a-name", "a-timer",
        "second-pair-already-driven", "same-target-twice", "second-target-foreign"])
def test_connect_errors_leave_the_connections_unchanged(wire, message):
    b, out, inp = _wired_builder()
    before = list(b._connections)
    with pytest.raises(CompositionError, match=message):
        wire(out, inp)
    assert b._connections == before


@pytest.mark.parametrize("width,message", [
    (2.0, "must be an integer, got 2.0"),
    ("2", "must be an integer, got '2'"),
    (0, "must be >= 1, got 0"),
], ids=["float", "str", "zero"])
def test_bad_bank_width_rejected(width, message):
    b = Builder()
    with pytest.raises(CompositionError, match=r"bank 'n': width " + re.escape(message)):
        bank(b, "n", width, lambda r, bank_index: None)
    assert not b._instances


def test_bank_port_after_build_is_refused():
    # Built members hold no ports, the topology does: a bank port is taken
    # while the builder is open, and after build() the bank says so.
    b, nodes = _bank_with_multiport()
    b.build()
    with pytest.raises(CompositionError, match=r"^topology is frozen; no structural change "
                                               r"after build\(\)$"):
        nodes.port("p")


# -- golden edge sets ---------------------------------------------------------


@pytest.mark.parametrize("builder,golden,expected_count", [
    (fork_join_pattern, "fork_join.edges", 6),
    (broadcast_pattern, "broadcast.edges", 6),
    (cascade_pattern, "cascade.edges", 3),
    (bank_multiport_direct, "bank_direct.edges", 9),
    (bank_multiport_interleaved, "bank_interleaved.edges", 9),
])
def test_golden_edge_sets(builder, golden, expected_count):
    topo, _ = builder()
    text = edges_text(topo)
    assert text == (GOLDEN / golden).read_text()
    assert len(topo.connections) == expected_count


def test_fork_join_edges_per_statement():
    topo, _ = fork_join_pattern(w=3)
    by_stmt = {}
    for s, d in topo.connections:
        by_stmt.setdefault(s.port.owner.name.split("[")[0], []).append((s, d))
    assert len(by_stmt["src"]) == 3  # w connections for the fan-out statement
    assert len(by_stmt["wrk"]) == 3  # and w for the fan-in statement


def test_broadcast_single_output_feeds_three():
    topo, _ = broadcast_pattern(w=3)
    from_src = [d for s, d in topo.connections if s.port.owner.name == "src"]
    assert len(from_src) == 3


def test_cascade_is_a_chain():
    topo, dst = cascade_pattern(n=2)
    Environment(topo, fast=True).run()
    # 1 flows src -> wrk0 (*10+0) -> wrk1 (*10+1) -> dst
    assert dst.state.got == [101]


def test_interleaved_pattern_runs_fully_connected():
    topo, nodes = bank_multiport_interleaved(w=3)
    Environment(topo, workers=2, fast=True).run()
    for j, node in enumerate(nodes.members):
        got = node.state.got
        # node j's channel i carries member i's value for port index j.
        assert got == [(i, i * 100 + j) for i in range(3)]


def test_direct_pattern_loops_back():
    topo, nodes = bank_multiport_direct(w=3)
    Environment(topo, workers=2, fast=True).run()
    for i, node in enumerate(nodes.members):
        assert node.state.got == [(j, i * 100 + j) for j in range(3)]


# -- sparse multiport access ---------------------------------------------------


@pytest.mark.parametrize("receiver", ["sparse", "scan"])
def test_sparse_receivers_agree(receiver):
    topo, rx, (count, total) = sparse_multiport(
        width=200, set_per_tag=5, tags=20, receiver=receiver)
    Environment(topo, fast=True).run()
    assert rx.state.count == count
    assert rx.state.sum == total


def test_present_iter_ascending_and_exact():
    b = Builder()
    src = b.reactor("src")
    out = src.output("out", width=100)

    @src.reaction(STARTUP, effects=[out])
    def _(ctx):
        for i in (42, 7, 93):  # deliberately unsorted writes
            ctx.set(out, i * 2, index=i)

    rx = b.reactor("rx")
    inp = rx.input("in", width=100)
    rx.state.seen = None
    rx.state.scan = None

    @rx.reaction(inp)
    def _(ctx):
        ctx.state.seen = list(ctx.present(inp))
        ctx.state.scan = [(i, ctx.get(inp, index=i)) for i in range(100)
                          if ctx.is_present(inp, index=i)]

    connect(out, inp)
    Environment(b.build(), fast=True).run()
    assert rx.state.seen == [(7, 14), (42, 84), (93, 186)]
    assert rx.state.seen == rx.state.scan  # agrees with the brute-force scan


def test_present_iter_empty_and_full():
    for set_count, width in ((0, 10), (10, 10)):
        b = Builder()
        src = b.reactor("src")
        out = src.output("out", width=width)

        def write(ctx, n=set_count):
            for i in range(n):
                ctx.set(out, i, index=i)

        src.reaction(STARTUP, effects=[out], body=write)
        rx = b.reactor("rx")
        inp = rx.input("in", width=width)
        rx.state.seen = None

        def read(ctx):
            ctx.state.seen = list(ctx.present(inp))

        rx.reaction(STARTUP, inp, body=read)
        connect(out, inp)
        Environment(b.build(), fast=True).run()
        assert rx.state.seen == [(i, i) for i in range(set_count)]


def test_bank_members_know_their_index():
    b = Builder()
    seen = []

    def member(r, bank_index):
        t = r.timer("t")
        r.reaction(t, body=lambda ctx, i=bank_index: seen.append(i))

    nodes = bank(b, "n", 4, member)
    assert [m.name for m in nodes.members] == ["n[0]", "n[1]", "n[2]", "n[3]"]
    Environment(b.build(), fast=True).run()
    assert sorted(seen) == [0, 1, 2, 3]
