"""Precedence graph over reaction instances.

Two kinds of edges order reactions within a tag:

* data edges: a reaction whose effects include an output port precedes every
  reaction triggered by a connected input port, itself included, so a
  reaction wired to its own trigger is a cycle;
* priority edges: within one reactor, each reaction precedes the lexically
  next one (transitivity supplies the rest), which makes same-reactor
  reactions mutually exclusive.

Scheduling an action does NOT create an edge: the triggered reaction runs at
a strictly later tag, which is exactly how feedback through an action keeps
the graph acyclic.

Each node gets a level, its longest-path distance from the sources. Two
reactions with equal level can never reach one another, so the scheduler may
run all triggered reactions of one level in parallel.
"""

from __future__ import annotations

from collections import deque

from .errors import CausalityCycleError


class PrecedenceGraph:
    """Immutable result of :func:`build_precedence_graph`.

    ``succ`` maps reaction ids to tuples of successor reaction ids; ``level``
    maps reaction id to its longest-path depth.
    """

    def __init__(self, reactions, succ, level):
        self.reactions = reactions
        self.succ = succ
        self.level = level
        self.num_levels = max(level) + 1 if level else 0
        for r in reactions:
            r.level = level[r.rid]

    def edges(self):
        for u in range(len(self.reactions)):
            for v in self.succ[u]:
                yield u, v


def _derive_edges(topology):
    n = len(topology.reactions)
    succ = [set() for _ in range(n)]
    for r in topology.reactions:
        for eff in r.effects:  # an action's slot feeds no input: it adds no edge
            for slot in range(eff.base, eff.base + eff.width):
                for dst in topology.conn_targets[slot]:
                    succ[r.rid].update(topology.slot_reactions[dst])
    # each reactor's reactions are consecutive, in declaration order
    for a, b in zip(topology.reactions, topology.reactions[1:]):
        if a.owner is b.owner:
            succ[a.rid].add(b.rid)
    return succ


def _find_cycle(pred, remaining):
    # Every unfinished node still has an unfinished predecessor, so walking
    # predecessors inside `remaining` must revisit a node; the revisited
    # stretch is a cycle. Reversing it orients the entries along edges.
    start = min(remaining)
    path = [start]
    seen = {start: 0}
    while True:
        node = path[-1]
        prv = min(p for p in pred[node] if p in remaining)
        if prv in seen:
            cycle = path[seen[prv]:]
            cycle.append(prv)
            cycle.reverse()
            return cycle
        seen[prv] = len(path)
        path.append(prv)


def build_precedence_graph(topology) -> PrecedenceGraph:
    """Derive the graph and assign levels; raises CausalityCycleError with a
    concrete cycle when the composition is not acyclic."""
    reactions = topology.reactions
    n = len(reactions)
    succ_sets = _derive_edges(topology)
    pred_sets = [set() for _ in range(n)]
    for u in range(n):
        for v in succ_sets[u]:
            pred_sets[v].add(u)

    level = [0] * n
    indeg = [len(p) for p in pred_sets]
    queue = deque(u for u in range(n) if indeg[u] == 0)
    visited = 0
    while queue:
        u = queue.popleft()
        visited += 1
        for v in succ_sets[u]:
            if level[u] + 1 > level[v]:
                level[v] = level[u] + 1
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
    if visited != n:
        remaining = {u for u in range(n) if indeg[u] > 0}
        cycle_ids = _find_cycle(pred_sets, remaining)
        raise CausalityCycleError([reactions[i] for i in cycle_ids])

    succ = tuple(tuple(sorted(s)) for s in succ_sets)
    return PrecedenceGraph(reactions, succ, tuple(level))


def max_level_width(graph: PrecedenceGraph) -> int:
    """Largest number of reactions sharing one level; sizes the ready queue."""
    if not graph.level:
        return 1
    counts = {}
    for lvl in graph.level:
        counts[lvl] = counts.get(lvl, 0) + 1
    return max(counts.values())


def to_dot(graph: PrecedenceGraph) -> str:
    """Render the graph in DOT for diagram tooling. Nodes are labeled
    ``reactor.reactionIndex``."""
    lines = ["digraph precedence {"]
    for r in graph.reactions:
        lines.append(f'  "{r.label()}" [level={graph.level[r.rid]}];')
    for u, v in graph.edges():
        lines.append(f'  "{graph.reactions[u].label()}" -> "{graph.reactions[v].label()}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
