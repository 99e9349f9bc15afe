"""Precedence graph: levels, cycles, and the brute-force oracle."""

import random

import pytest

from detreact import (STARTUP, Builder, CausalityCycleError, Environment,
                      build_precedence_graph, connect, max_level_width, to_dot)
from programs import fork_join_pattern, proxied_bank, record_wiring


# -- independent oracle -----------------------------------------------------
# Edges are re-derived straight from the declarations (each reaction's effect
# ports joined to every reaction's trigger ports through the channel pairs that
# connect handed the builder, plus adjacent lexical pairs of each reactor,
# grouped by owner and ordered by index), then levels come from a memoized
# depth-first longest path and the cycle verdict from three-color DFS. No code
# or table is shared with the graph module, which works on the topology's
# slot tables instead.


@pytest.fixture
def wiring(monkeypatch):
    """Each topology built in the test -> the channel pairs of its wiring."""
    return record_wiring(monkeypatch)


def oracle_edges(topology, pairs):
    edges = set()
    for u in topology.reactions:
        out_ports = {e for e in u.effects if hasattr(e, "base")}
        for src, dst in pairs:
            if src.port in out_ports:
                for v in topology.reactions:
                    if dst.port in v.triggers:
                        edges.add((u.rid, v.rid))
    by_owner = {}
    for r in topology.reactions:
        by_owner.setdefault(r.owner, []).append(r)
    for group in by_owner.values():
        group.sort(key=lambda r: r.index)
        for a, b in zip(group, group[1:]):
            edges.add((a.rid, b.rid))
    return edges


def oracle_analysis(topology, pairs):
    """Returns (is_acyclic, levels or None)."""
    n = len(topology.reactions)
    succ = {u: set() for u in range(n)}
    pred = {u: set() for u in range(n)}
    for u, v in oracle_edges(topology, pairs):
        succ[u].add(v)
        pred[v].add(u)

    color = {}  # 1 = visiting, 2 = done

    def has_cycle(u):
        color[u] = 1
        for v in succ[u]:
            c = color.get(v)
            if c == 1:
                return True
            if c is None and has_cycle(v):
                return True
        color[u] = 2
        return False

    for u in range(n):
        if color.get(u) is None and has_cycle(u):
            return False, None

    memo = {}

    def depth(v):
        if v not in memo:
            memo[v] = 0 if not pred[v] else 1 + max(depth(p) for p in pred[v])
        return memo[v]

    return True, [depth(v) for v in range(n)]


# -- frozen example ---------------------------------------------------------


def test_proxied_bank_levels(wiring):
    topo, _ = proxied_bank()
    graph = build_precedence_graph(topo)
    levels = {r.label(): graph.level[r.rid] for r in topo.reactions}
    # Frozen from the longest-path oracle over this topology's edge set.
    acyclic, oracle = oracle_analysis(topo, wiring[topo])
    assert acyclic
    assert list(graph.level) == oracle
    assert levels == {
        "userA.1": 0, "userB.1": 0, "proxy.1": 0,
        "proxy.2": 1, "account.1": 1,
        "account.2": 2,
    }
    # The three level-0 reactions are exactly the ones free to run together.
    assert sorted(r.label() for r in topo.reactions if graph.level[r.rid] == 0) == \
        ["proxy.1", "userA.1", "userB.1"]
    assert max_level_width(graph) == 3


def test_single_isolated_reaction():
    b = Builder()
    r = b.reactor("solo")
    t = r.timer("t")

    @r.reaction(t)
    def _(ctx):
        pass

    graph = build_precedence_graph(b.build())
    assert list(graph.level) == [0]
    assert max_level_width(graph) == 1


def _two_reactor_loop():
    b = Builder()
    ra = b.reactor("a")
    a_in = ra.input("in")
    a_out = ra.output("out")

    @ra.reaction(a_in, effects=[a_out])
    def _(ctx):
        pass

    rb = b.reactor("b")
    b_in = rb.input("in")
    b_out = rb.output("out")

    @rb.reaction(b_in, effects=[b_out])
    def _(ctx):
        pass

    connect(a_out, b_in)
    connect(b_out, a_in)
    return b.build()


def test_cycle_diagnostic(wiring):
    topo = _two_reactor_loop()
    acyclic, _ = oracle_analysis(topo, wiring[topo])
    assert not acyclic
    with pytest.raises(CausalityCycleError) as exc_info:
        build_precedence_graph(topo)
    cycle = exc_info.value.cycle
    assert cycle[0] is cycle[-1]
    assert len(cycle) == 3  # two reactions plus the closing repeat
    labels = {r.label() for r in cycle}
    assert labels == {"a.1", "b.1"}
    # Consecutive entries are edges.
    edges = oracle_edges(topo, wiring[topo])
    for u, v in zip(cycle, cycle[1:]):
        assert (u.rid, v.rid) in edges


def test_a_reaction_wired_to_its_own_trigger_is_a_cycle(wiring):
    # The output of r.1 feeds the input that triggers r.1: a data edge from
    # r.1 to itself, rejected when the graph is built, before any run.
    b = Builder()
    r = b.reactor("r")
    i, o = r.input("i"), r.output("o")
    r.reaction(STARTUP, i, effects=[o], body=lambda ctx: ctx.set(o, 1))
    connect(o, i)
    topo = b.build()
    assert oracle_analysis(topo, wiring[topo]) == (False, None)
    with pytest.raises(CausalityCycleError, match=r"^causality cycle: r\.1 -> r\.1$"):
        Environment(topo)


def test_action_breaks_the_cycle():
    # Same shape as the loop above, but one hop goes through a logical
    # action, which removes the data edge.
    b = Builder()
    ra = b.reactor("a")
    a_in = ra.input("in")
    a_out = ra.output("out")
    hold = ra.action("hold")

    @ra.reaction(hold, effects=[a_out])
    def _(ctx):
        pass

    @ra.reaction(a_in, effects=[hold])
    def _(ctx):
        pass

    rb = b.reactor("b")
    b_in = rb.input("in")
    b_out = rb.output("out")

    @rb.reaction(b_in, effects=[b_out])
    def _(ctx):
        pass

    connect(a_out, b_in)
    connect(b_out, a_in)
    graph = build_precedence_graph(b.build())  # must not raise
    assert max(graph.level) == 2


def test_max_level_width_chain():
    b = Builder()
    prev_out = None
    for i in range(4):
        r = b.reactor(f"n{i}")
        inp = r.input("in")
        out = r.output("out")
        if i == 0:
            t = r.timer("t")
            r.reaction(t, effects=[out], body=lambda ctx: None)
        else:
            r.reaction(inp, effects=[out], body=lambda ctx: None)
        if prev_out is not None:
            connect(prev_out, inp)
        prev_out = out
    graph = build_precedence_graph(b.build())
    assert max_level_width(graph) == 1
    assert sorted(graph.level) == [0, 1, 2, 3]


def test_max_level_width_fork_join(wiring):
    topo, _ = fork_join_pattern(w=5)
    graph = build_precedence_graph(topo)
    acyclic, oracle = oracle_analysis(topo, wiring[topo])
    assert acyclic and list(graph.level) == oracle
    assert max_level_width(graph) == 5  # the five workers share one level


def test_priority_edges_totally_order_one_reactor():
    b = Builder()
    r = b.reactor("solo")
    t = r.timer("t")
    for _ in range(5):
        r.reaction(t, body=lambda ctx: None)
    graph = build_precedence_graph(b.build())
    assert list(graph.level) == [0, 1, 2, 3, 4]


def test_dot_export():
    topo, _ = proxied_bank()
    graph = build_precedence_graph(topo)
    dot = to_dot(graph)
    assert dot.startswith("digraph")
    assert '"proxy.2"' in dot
    assert '"userA.1" -> "proxy.2"' in dot
    assert '"proxy.1" -> "proxy.2"' in dot  # mutual exclusion edge


def test_dot_quotes_its_node_names():
    # A node name is a DOT string: a quote or a backslash in a reactor's
    # name is escaped, so the output stays one node per name.
    b = Builder()
    say, back = b.reactor('say "hi"'), b.reactor("back\\slash")
    out, inp = say.output("out"), back.input("in")
    say.reaction(STARTUP, effects=[out], body=lambda ctx: None)
    back.reaction(inp, body=lambda ctx: None)
    connect(out, inp)
    assert to_dot(build_precedence_graph(b.build())).splitlines() == [
        "digraph precedence {",
        r'  "say \"hi\".1" [level=0];',
        r'  "back\\slash.1" [level=1];',
        r'  "say \"hi\".1" -> "back\\slash.1";',
        "}",
    ]


# -- randomized oracle equivalence -------------------------------------------


def random_topology(rng: random.Random):
    b = Builder(f"random_{rng.randrange(1 << 30)}")
    n_reactors = rng.randint(1, 10)
    all_outputs = []
    all_inputs = []
    for i in range(n_reactors):
        r = b.reactor(f"r{i}")
        inputs = [r.input(f"in{j}") for j in range(rng.randint(0, 3))]
        outputs = [r.output(f"out{j}") for j in range(rng.randint(0, 3))]
        actions = [r.action("act")] if rng.random() < 0.4 else []
        timer = r.timer("t") if rng.random() < 0.5 else None
        for k in range(rng.randint(0, 4)):
            pool = inputs + actions + ([timer] if timer else [])
            triggers = [p for p in pool if rng.random() < 0.5]
            if not triggers:
                if not pool:
                    continue
                triggers = [rng.choice(pool)]
            effects = [p for p in outputs + actions if rng.random() < 0.4]
            r.reaction(*triggers, effects=effects, body=lambda ctx: None)
        all_outputs.extend(outputs)
        all_inputs.extend(inputs)
    rng.shuffle(all_inputs)
    for inp in all_inputs:
        if all_outputs and rng.random() < 0.7:
            connect(rng.choice(all_outputs), inp)
    return b.build()


def test_random_topologies_match_oracle(wiring):
    rng = random.Random(0xC0FFEE)
    cycles_seen = 0
    for _ in range(200):
        topo = random_topology(rng)
        acyclic, levels = oracle_analysis(topo, wiring.pop(topo))
        if acyclic:
            graph = build_precedence_graph(topo)
            assert list(graph.level) == levels
        else:
            cycles_seen += 1
            with pytest.raises(CausalityCycleError):
                build_precedence_graph(topo)
    assert cycles_seen > 0, "random generator produced no cyclic cases"
