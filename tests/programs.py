"""Example programs shared by the unit and acceptance tests.

The two bank-account programs exercise the core semantics (simultaneity,
lexical priority, logical delays); the pattern programs exercise each
connection-unfolding flavor with enough reactions to leave a trace.
"""

from __future__ import annotations

import random
import time

from detreact import SEC, STARTUP, Builder, Interleaved, bank, connect, unfold


def edges_text(topology) -> str:
    """Canonical one-line-per-connection rendering, in creation order."""
    return "".join(f"{s.label()} -> {d.label()}\n" for s, d in topology.connections)


def jittered(topology, ms, seed):
    """Wrap every reaction body of ``topology`` in a sleep of up to ``ms``
    milliseconds, drawn from one generator per reaction (seeded by ``seed``
    and the reaction id), so that wall-clock completion order varies.
    Returns the topology."""
    for r in topology.reactions:
        r.body = _sleep_then(r.body, ms / 1000.0, random.Random(seed * 1000003 + r.rid))
    return topology


def _sleep_then(body, max_s, rand):
    def jittered_body(ctx):
        time.sleep(rand.uniform(0.0, max_s))
        body(ctx)

    return jittered_body


def two_user_bank():
    """Deposit at 1s (+20.0) and withdrawal at 2s (-10.0) into one account
    that refuses to go negative."""
    b = Builder("two_user_bank")
    acct = b.reactor("account")
    deposit_in = acct.input("deposit")
    withdraw_in = acct.input("withdraw")
    acct.state.balance = 0.0
    acct.state.outcomes = []

    @acct.reaction(deposit_in)
    def _deposit(ctx):
        ctx.state.balance += ctx.get(deposit_in)

    @acct.reaction(withdraw_in)
    def _withdraw(ctx):
        amount = ctx.get(withdraw_in)
        if ctx.state.balance + amount >= 0.0:
            ctx.state.balance += amount
            ctx.state.outcomes.append(("granted", ctx.tag))
        else:
            ctx.state.outcomes.append(("denied", ctx.tag))

    def user(name, offset_ns, amount):
        u = b.reactor(name)
        out = u.output("out")
        t = u.timer("t", offset=offset_ns)

        @u.reaction(t, effects=[out])
        def _request(ctx):
            ctx.set(out, amount)

        return out

    connect(user("userA", 1 * SEC, +20.0), deposit_in)
    connect(user("userB", 2 * SEC, -10.0), withdraw_in)
    return b.build(), acct


def proxied_bank(proxy_delay_ns=2 * SEC):
    """Same account, but the deposit goes through a proxy that re-times it
    with a logical action, so the withdrawal at 2s is processed first."""
    b = Builder("proxied_bank")
    acct = b.reactor("account")
    deposit_in = acct.input("deposit")
    withdraw_in = acct.input("withdraw")
    acct.state.balance = 0.0
    acct.state.outcomes = []

    @acct.reaction(deposit_in)
    def _deposit(ctx):
        ctx.state.balance += ctx.get(deposit_in)

    @acct.reaction(withdraw_in)
    def _withdraw(ctx):
        amount = ctx.get(withdraw_in)
        if ctx.state.balance + amount >= 0.0:
            ctx.state.balance += amount
            ctx.state.outcomes.append(("granted", ctx.tag))
        else:
            ctx.state.outcomes.append(("denied", ctx.tag))

    proxy = b.reactor("proxy")
    proxy_in = proxy.input("in")
    proxy_out = proxy.output("out")
    hold = proxy.action("hold")

    @proxy.reaction(hold, effects=[proxy_out])
    def _release(ctx):
        ctx.set(proxy_out, ctx.get(hold))

    @proxy.reaction(proxy_in, effects=[hold])
    def _delay(ctx):
        ctx.schedule(hold, ctx.get(proxy_in), delay=proxy_delay_ns)

    def user(name, offset_ns, amount):
        u = b.reactor(name)
        out = u.output("out")
        t = u.timer("t", offset=offset_ns)

        @u.reaction(t, effects=[out])
        def _request(ctx):
            ctx.set(out, amount)

        return out

    connect(user("userA", 1 * SEC, +20.0), proxy_in)
    connect(proxy_out, deposit_in)
    connect(user("userB", 2 * SEC, -10.0), withdraw_in)
    return b.build(), acct


def _worker(r, bank_index):
    inp = r.input("in")
    out = r.output("out")
    r.state.seen = []

    @r.reaction(inp, effects=[out])
    def _relay(ctx):
        v = ctx.get(inp)
        ctx.state.seen.append(v)
        ctx.set(out, v * 10 + bank_index)


def fork_join_pattern(w=3):
    """Multiport source fanned out over a worker bank, fanned back in."""
    b = Builder("fork_join")
    src = b.reactor("src")
    out = src.output("out", width=w)

    @src.reaction(STARTUP, effects=[out])
    def _produce(ctx):
        for i in range(w):
            ctx.set(out, i + 1, index=i)

    workers = bank(b, "wrk", w, _worker)
    dst = b.reactor("dst")
    dst_in = dst.input("in", width=w)
    dst.state.got = []

    @dst.reaction(dst_in)
    def _collect(ctx):
        ctx.state.got = list(ctx.present(dst_in))

    connect(out, workers.port("in"))
    connect(workers.port("out"), dst_in)
    return b.build(), dst


def broadcast_pattern(w=3):
    """Single output broadcast to every worker in the bank."""
    b = Builder("broadcast")
    src = b.reactor("src")
    out = src.output("out")

    @src.reaction(STARTUP, effects=[out])
    def _produce(ctx):
        ctx.set(out, 7)

    workers = bank(b, "wrk", w, _worker)
    dst = b.reactor("dst")
    dst_in = dst.input("in", width=w)
    dst.state.got = []

    @dst.reaction(dst_in)
    def _collect(ctx):
        ctx.state.got = list(ctx.present(dst_in))

    connect(out, workers.port("in"), broadcast=True)
    connect(workers.port("out"), dst_in)
    return b.build(), dst


def cascade_pattern(n=2):
    """src.out, wrk.out -> wrk.in, dst.in offset chaining."""
    b = Builder("cascade")
    src = b.reactor("src")
    out = src.output("out")

    @src.reaction(STARTUP, effects=[out])
    def _produce(ctx):
        ctx.set(out, 1)

    workers = bank(b, "wrk", n, _worker)
    dst = b.reactor("dst")
    dst_in = dst.input("in")
    dst.state.got = []

    @dst.reaction(dst_in)
    def _collect(ctx):
        ctx.state.got.append(ctx.get(dst_in))

    connect(unfold([out, workers.port("out")]),
            unfold([workers.port("in"), dst_in]))
    return b.build(), dst


def _node(r, bank_index, port_width):
    inp = r.input("in", width=port_width)
    out = r.output("out", width=port_width)
    r.state.got = []

    @r.reaction(STARTUP, effects=[out])
    def _produce(ctx):
        for j in range(port_width):
            ctx.set(out, bank_index * 100 + j, index=j)

    @r.reaction(inp)
    def _collect(ctx):
        ctx.state.got = list(ctx.present(inp))


def bank_multiport_direct(w=3):
    """node.out -> node.in with default unfolding on both sides: each member
    loops back to itself."""
    b = Builder("bank_direct")
    nodes = bank(b, "node", w, _node, port_width=w)
    connect(nodes.port("out"), nodes.port("in"))
    return b.build(), nodes


def bank_multiport_interleaved(w=3):
    """Interleaving the receiving side yields the fully connected pattern."""
    b = Builder("bank_interleaved")
    nodes = bank(b, "node", w, _node, port_width=w)
    connect(nodes.port("out"), Interleaved(nodes.port("in")))
    return b.build(), nodes


def sparse_multiport(width, set_per_tag, tags, receiver, seed=7):
    """Writer sets `set_per_tag` channels of a wide multiport each round;
    the receiver either iterates present channels or scans the full width."""
    from detreact.bench import Lcg64

    b = Builder("sparse")
    src = b.reactor("src")
    out = src.output("out", width=width)
    nxt = src.action("next")
    src.state.round = 0
    rng = Lcg64(seed)
    plan = [sorted({rng.next_below(width) for _ in range(set_per_tag)})
            for _ in range(tags)]

    @src.reaction(STARTUP, nxt, effects=[out, nxt])
    def _write(ctx):
        r = ctx.state.round
        for ch in plan[r]:
            ctx.set(out, r + ch, index=ch)
        ctx.state.round += 1
        if ctx.state.round < tags:
            ctx.schedule(nxt)

    rx = b.reactor("rx")
    inp = rx.input("in", width=width)
    rx.state.count = 0
    rx.state.sum = 0

    if receiver == "sparse":
        @rx.reaction(inp)
        def _recv(ctx):
            for _i, v in ctx.present(inp):
                ctx.state.count += 1
                ctx.state.sum += v
    elif receiver == "scan":
        @rx.reaction(inp)
        def _recv(ctx):
            for i in range(width):
                v = ctx.get(inp, index=i)
                if v is not None:
                    ctx.state.count += 1
                    ctx.state.sum += v
    else:
        raise ValueError(receiver)

    connect(out, inp)
    expected_count = sum(len(p) for p in plan)
    expected_sum = sum(r + ch for r, p in enumerate(plan) for ch in p)
    return b.build(), rx, (expected_count, expected_sum)
