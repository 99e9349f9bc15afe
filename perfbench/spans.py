"""In-memory spans recorded around calls into detreact, and their summary.

A span row is ``(sid, name, start_ns, end_ns, parent_sid, iteration, thread,
args)``. The benchmark records ``program``/``build``/``graph``/``exec``/
``validate``/``digest`` around its own calls, and the span run wraps every
``Reaction.body`` of a built topology (before its Environment exists) so each
body invocation is a span named ``reactor.index`` whose ctx is a proxy timing
``get``/``set``/``is_present``/``present``/``schedule`` as ``ctx.*`` spans.
Nothing inside the runtime is changed.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import defaultdict
from time import perf_counter_ns

PHASES = ("program", "build", "graph", "exec", "validate", "digest", "gen.schedule")


class Spans:
    """Append-only span store. ``next(ids)`` and ``list.append`` are single
    C calls, so worker threads record without a lock."""

    def __init__(self):
        self.rows: list = []
        self.ids = itertools.count()
        self.exec_sid = None  # parent of body spans while a program executes
        self.iteration = 0

    def new_id(self) -> int:
        return next(self.ids)

    def add(self, sid, name, start, end, parent=None, args=None) -> None:
        self.rows.append((sid, name, start, end, parent, self.iteration,
                          threading.get_ident(), args))

    def instrument(self, topology) -> None:
        """Wrap every reaction body of ``topology`` in a timed span."""
        for reaction in topology.reactions:
            reaction.body = _timed_body(self, reaction, reaction.body)


def _timed_body(spans: Spans, reaction, body):
    name = reaction.label()
    rows = spans.rows
    ids = spans.ids

    def timed(ctx):
        sid = next(ids)
        tid = threading.get_ident()
        start = perf_counter_ns()
        body(_CtxProxy(ctx, rows, ids, sid, spans.iteration, tid))
        end = perf_counter_ns()
        tag = ctx.tag
        rows.append((sid, name, start, end, spans.exec_sid, spans.iteration, tid,
                     (tag.time, tag.microstep, reaction.level)))

    return timed


class _CtxProxy:
    """Stands in for the runtime's ReactionContext inside one body call."""

    __slots__ = ("_ctx", "_rows", "_ids", "_sid", "_it", "_tid", "state", "tag")

    def __init__(self, ctx, rows, ids, sid, iteration, tid):
        self._ctx = ctx
        self._rows = rows
        self._ids = ids
        self._sid = sid
        self._it = iteration
        self._tid = tid
        self.state = ctx.state
        self.tag = ctx.tag

    def _span(self, name, start):
        self._rows.append((next(self._ids), name, start, perf_counter_ns(), self._sid,
                           self._it, self._tid, None))

    def get(self, target, index=None):
        start = perf_counter_ns()
        value = self._ctx.get(target, index)
        self._span("ctx.get", start)
        return value

    def set(self, target, value, index=None):
        start = perf_counter_ns()
        self._ctx.set(target, value, index)
        self._span("ctx.set", start)

    def is_present(self, target, index=None):
        start = perf_counter_ns()
        present = self._ctx.is_present(target, index)
        self._span("ctx.is_present", start)
        return present

    def present(self, port):
        # Drained inside the span: the runtime's generator does its work
        # while iterated, not when called.
        start = perf_counter_ns()
        items = list(self._ctx.present(port))
        self._span("ctx.present", start)
        return iter(items)

    def schedule(self, action, value=None, delay=0):
        start = perf_counter_ns()
        tag = self._ctx.schedule(action, value, delay)
        self._span("ctx.schedule", start)
        return tag

    def request_stop(self):
        self._ctx.request_stop()

    def elapsed_physical_ns(self):
        return self._ctx.elapsed_physical_ns()


def layer_of(name: str) -> str:
    """Span name -> layer: fixed phase names and ``ctx.*`` keep their name,
    everything else is a reaction body."""
    if name in PHASES or name.startswith("ctx."):
        return name
    return "body"


def _covered(span_start, span_end, intervals) -> int:
    """Length of the part of [span_start, span_end] covered by intervals."""
    total = 0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        s, e = max(s, span_start), min(e, span_end)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def summarize(rows) -> dict:
    """Per layer: span count, total ns and self ns (a span's duration minus
    the part of it its child spans cover). Also the distinct tags and
    (tag, level) pairs at which bodies ran, counted per exec span."""
    children = defaultdict(list)
    for row in rows:
        if row[4] is not None:
            children[row[4]].append((row[2], row[3]))
    out = defaultdict(lambda: [0, 0, 0])
    tags = defaultdict(set)
    levels = defaultdict(set)
    for sid, name, start, end, parent, _it, _tid, args in rows:
        layer = layer_of(name)
        acc = out[layer]
        acc[0] += 1
        acc[1] += end - start
        acc[2] += end - start - _covered(start, end, children.get(sid, ()))
        if layer == "body":
            tags[parent].add(args[:2])
            levels[parent].add(args)
    return {
        "layers": {k: {"count": c, "total_ns": t, "self_ns": s} for k, (c, t, s) in out.items()},
        "tags": sum(len(v) for v in tags.values()),
        "levels_run": sum(len(v) for v in levels.values()),
    }


def format_table(summary: dict, label: str) -> str:
    """Self-time table, one line per layer, for one ``label`` (a pass, a
    batch or a file) of spans."""
    lines = [f"{'layer':<16}{'count/' + label:>14}{'total ms/' + label:>18}"
             f"{'self ms/' + label:>17}"]
    for layer, v in sorted(summary["layers"].items(), key=lambda kv: -kv[1]["self_ns"]):
        lines.append(f"{layer:<16}{v['count']:>14}{v['total_ns'] / 1e6:>18.3f}"
                     f"{v['self_ns'] / 1e6:>17.3f}")
    return "\n".join(lines)


def export_chrome(rows, path, metadata: dict, limit: int) -> int:
    """Write rows as Chrome Trace Event JSON (opens in Perfetto): one track
    per thread, complete events in microseconds. Keeps the first ``limit``
    rows by start time; returns how many were written."""
    rows = sorted(rows, key=lambda r: r[2])[:limit]
    base = rows[0][2] if rows else 0
    main = threading.main_thread().ident
    tids = {main: 0}
    events = []
    for sid, name, start, end, parent, it, tid, args in rows:
        track = tids.setdefault(tid, len(tids))
        a = {"sid": sid, "parent": parent, "iter": it}
        if isinstance(args, tuple):  # reaction body: (tag time, microstep, level)
            a["tag"] = f"{args[0]}.{args[1]}"
            a["level"] = args[2]
        elif args:
            a.update(args)
        events.append({"name": name, "cat": layer_of(name), "ph": "X", "pid": 1,
                       "tid": track, "ts": (start - base) / 1e3,
                       "dur": (end - start) / 1e3, "args": a})
    for tid, track in tids.items():
        events.append({"name": "thread_name", "ph": "M", "pid": 1, "tid": track,
                       "args": {"name": "main" if tid == main else f"thread-{track}"}})
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ns",
                   "otherData": metadata}, f, separators=(",", ":"))
    return len(rows)


def load_chrome(path) -> list:
    """Read rows back from an exported file (timestamps in ns)."""
    with open(path) as f:
        data = json.load(f)
    rows = []
    for ev in data["traceEvents"]:
        if ev.get("ph") != "X":
            continue
        a = ev["args"]
        start = round(ev["ts"] * 1e3)
        args = None
        if "tag" in a:  # reaction body; other args are not needed for summaries
            t, m = a["tag"].split(".")
            args = (int(t), int(m), a["level"])
        rows.append((a["sid"], ev["name"], start, start + round(ev["dur"] * 1e3),
                     a["parent"], a["iter"], ev["tid"], args))
    return rows
