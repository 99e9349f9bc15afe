"""Message-passing micro benchmarks: scheduling and communication overhead.

Workloads that in the original actor formulations address peers dynamically
are restructured here over static topologies: banks of reactors exchange
messages through multiports, with the bank index serving as the address.
Every randomized choice comes from a seeded Lcg64 so the validators can
check exact counts.
"""

from __future__ import annotations

from ..core import STARTUP, Builder
from ..patterns import Interleaved, bank, connect, unfold
from .lcg import Lcg64
from .registry import GROUP_MICRO, BenchmarkInstance, at_least, check, register


@register("PingPong", "Ping Pong", GROUP_MICRO)
def _build_ping_pong(messages=1000) -> BenchmarkInstance:
    at_least("PingPong", messages=(messages, 1))  # startup sends the first
    b = Builder("PingPong")
    ping = b.reactor("ping")
    pong = b.reactor("pong")
    ping_out = ping.output("out")
    ping_in = ping.input("in")
    pong_out = pong.output("out")
    pong_in = pong.input("in")
    serve = ping.action("serve")
    ping.state.remaining = messages
    pong.state.count = 0

    @ping.reaction(STARTUP, serve, effects=[ping_out])
    def _send(ctx):
        ctx.set(ping_out, ctx.state.remaining)

    @ping.reaction(ping_in, effects=[serve])
    def _reply_received(ctx):
        ctx.state.remaining -= 1
        if ctx.state.remaining > 0:
            ctx.schedule(serve)
        else:
            ctx.request_stop()

    @pong.reaction(pong_in, effects=[pong_out])
    def _bounce(ctx):
        ctx.state.count += 1
        ctx.set(pong_out, ctx.get(pong_in))

    connect(ping_out, pong_in)
    connect(pong_out, ping_in)
    topo = b.build()

    def validate(report):
        check(pong.state.count == messages, f"expected {messages} pongs, got {pong.state.count}")
        check(ping.state.remaining == 0, "ping did not drain")
        check(report.reactions == 3 * messages,
              f"expected {3 * messages} reactions, got {report.reactions}")

    return BenchmarkInstance(topo, validate)


@register("ThreadRing", "Thread Ring", GROUP_MICRO)
def _build_thread_ring(actors=100, hops=2000) -> BenchmarkInstance:
    at_least("ThreadRing", actors=(actors, 1), hops=(hops, 0))  # the token stops at 0
    b = Builder("ThreadRing")

    def member(r, bank_index):
        out = r.output("out")
        inp = r.input("in")
        fwd = r.action("fwd")
        r.state.received = 0
        r.state.stopped = False

        # _forward is declared before _receive so that the out -> in data
        # edge of a one-member ring agrees with the lexical order.
        @r.reaction(STARTUP, effects=[out])
        def _seed(ctx):
            if bank_index == 0:
                ctx.set(out, hops)

        @r.reaction(fwd, effects=[out])
        def _forward(ctx):
            ctx.set(out, ctx.get(fwd))

        @r.reaction(inp, effects=[fwd])
        def _receive(ctx):
            token = ctx.get(inp)
            ctx.state.received += 1
            if token == 0:
                ctx.state.stopped = True
                ctx.request_stop()
            else:
                ctx.schedule(fwd, token - 1)

    ring = bank(b, "member", actors, member)
    outs = unfold(ring.port("out"))
    ins = unfold(ring.port("in"))
    connect(outs, ins[1:] + ins[:1])
    topo = b.build()

    def validate(report):
        deliveries = hops + 1  # the token counts down hops..0, one hop each
        for j, m in enumerate(ring.members):
            expected = sum(1 for k in range(1, deliveries + 1) if k % actors == j)
            check(m.state.received == expected,
                  f"member {j}: {m.state.received} tokens, expected {expected}")
        stopper = ring.members[deliveries % actors]
        check(stopper.state.stopped, "wrong member stopped the ring")
        check(report.reactions == actors + 2 * hops + 1,
              f"reaction count {report.reactions} != {actors + 2 * hops + 1}")

    return BenchmarkInstance(topo, validate)


@register("CountingActor", "Counting Actor", GROUP_MICRO)
def _build_counting(count=10000) -> BenchmarkInstance:
    at_least("CountingActor", count=(count, 0))
    b = Builder("CountingActor")
    prod = b.reactor("producer")
    counter = b.reactor("counter")
    inc_out = prod.output("inc")
    req_out = prod.output("request")
    total_in = prod.input("total")
    inc_in = counter.input("inc")
    req_in = counter.input("request")
    total_out = counter.output("total")
    nxt = prod.action("next")
    prod.state.sent = 0
    prod.state.result = None
    counter.state.value = 0

    @prod.reaction(STARTUP, nxt, effects=[inc_out, req_out, nxt])
    def _produce(ctx):
        if ctx.state.sent < count:
            ctx.set(inc_out, 1)
            ctx.state.sent += 1
            ctx.schedule(nxt)
        else:
            ctx.set(req_out, True)

    @counter.reaction(inc_in)
    def _add(ctx):
        ctx.state.value += ctx.get(inc_in)

    @counter.reaction(req_in, effects=[total_out])
    def _report(ctx):
        ctx.set(total_out, ctx.state.value)

    @prod.reaction(total_in)
    def _finish(ctx):
        ctx.state.result = ctx.get(total_in)
        ctx.request_stop()

    connect(inc_out, inc_in)
    connect(req_out, req_in)
    connect(total_out, total_in)
    topo = b.build()

    def validate(report):
        check(prod.state.result == count,
              f"counter reported {prod.state.result}, expected {count}")
        check(counter.state.value == count, "count mismatch")

    return BenchmarkInstance(topo, validate)


@register("ForkJoin", "Fork Join (throughput)", GROUP_MICRO)
def _build_fork_join(workers=8, rounds=1000) -> BenchmarkInstance:
    at_least("ForkJoin", workers=(workers, 1), rounds=(rounds, 0))
    b = Builder("ForkJoin")
    src = b.reactor("source")
    out = src.output("out")
    nxt = src.action("next")
    src.state.round = 0

    @src.reaction(STARTUP, nxt, effects=[out, nxt])
    def _broadcast(ctx):
        if ctx.state.round < rounds:
            ctx.set(out, ctx.state.round)
            ctx.state.round += 1
            ctx.schedule(nxt)
        else:
            ctx.request_stop()

    def worker(r, bank_index):
        inp = r.input("in")
        r.state.count = 0
        r.state.acc = 0

        @r.reaction(inp)
        def _work(ctx):
            v = ctx.get(inp)
            ctx.state.count += 1
            ctx.state.acc = (ctx.state.acc * 31 + v) & 0xFFFFFFFF

    worker_bank = bank(b, "worker", workers, worker)
    connect(out, worker_bank.port("in"), broadcast=True)
    topo = b.build()

    expected_acc = 0
    for r in range(rounds):
        expected_acc = (expected_acc * 31 + r) & 0xFFFFFFFF

    def validate(report):
        for i, w in enumerate(worker_bank.members):
            check(w.state.count == rounds,
                  f"worker {i} saw {w.state.count} messages, expected {rounds}")
            check(w.state.acc == expected_acc, f"worker {i} checksum mismatch")

    return BenchmarkInstance(topo, validate)


@register("Big", "Big", GROUP_MICRO)
def _build_big(actors=12, pings=200, seed=1) -> BenchmarkInstance:
    at_least("Big", actors=(actors, 1), pings=(pings, 0))
    b = Builder("Big")

    def member(r, bank_index):
        ping_out = r.output("ping_out", width=actors)
        ping_in = r.input("ping_in", width=actors)
        pong_out = r.output("pong_out", width=actors)
        pong_in = r.input("pong_in", width=actors)
        done = r.output("done")
        nxt = r.action("next")
        r.state.rng = Lcg64(seed * 7919 + bank_index)
        r.state.sent = 0
        r.state.pongs = 0

        @r.reaction(STARTUP, nxt, effects=[ping_out, done])
        def _ping(ctx):
            if ctx.state.sent < pings:
                target = ctx.state.rng.next_below(actors)
                ctx.state.sent += 1
                ctx.set(ping_out, bank_index, index=target)
            else:
                ctx.set(done, True)

        @r.reaction(ping_in, effects=[pong_out])
        def _answer(ctx):
            for sender, _ in ctx.present(ping_in):
                ctx.set(pong_out, bank_index, index=sender)

        @r.reaction(pong_in, effects=[nxt])
        def _pong(ctx):
            for _sender, _ in ctx.present(pong_in):
                ctx.state.pongs += 1
            ctx.schedule(nxt)

    members = bank(b, "member", actors, member)
    sink = b.reactor("sink")
    done_in = sink.input("done", width=actors)
    sink.state.done = 0

    @sink.reaction(done_in)
    def _collect(ctx):
        for _i, _ in ctx.present(done_in):
            ctx.state.done += 1
        if ctx.state.done == actors:
            ctx.request_stop()

    connect(members.port("ping_out"), Interleaved(members.port("ping_in")))
    connect(members.port("pong_out"), Interleaved(members.port("pong_in")))
    connect(members.port("done"), done_in)
    topo = b.build()

    def validate(report):
        for i, m in enumerate(members.members):
            check(m.state.sent == pings, f"member {i} sent {m.state.sent}, expected {pings}")
            check(m.state.pongs == pings, f"member {i} got {m.state.pongs} pongs")
        check(sink.state.done == actors, "not all members reported done")

    return BenchmarkInstance(topo, validate)


@register("Chameneos", "Chameneos", GROUP_MICRO)
def _build_chameneos(chameneos=10, meetings=2000) -> BenchmarkInstance:
    at_least("Chameneos", chameneos=(chameneos, 2), meetings=(meetings, 0))  # 2 to pair
    b = Builder("Chameneos")
    mall = b.reactor("mall")
    req_in = mall.input("req", width=chameneos)
    reply_out = mall.output("reply", width=chameneos)
    mall.state.budget = meetings
    mall.state.granted = 0

    @mall.reaction(req_in, effects=[reply_out])
    def _pair(ctx):
        waiting = list(ctx.present(req_in))
        i = 0
        while i + 1 < len(waiting) and ctx.state.budget > 0:
            (a, color_a), (bb, color_b) = waiting[i], waiting[i + 1]
            ctx.set(reply_out, ("mate", color_b), index=a)
            ctx.set(reply_out, ("mate", color_a), index=bb)
            ctx.state.budget -= 1
            ctx.state.granted += 1
            i += 2
        while i < len(waiting):
            idx = waiting[i][0]
            if ctx.state.budget > 0:
                ctx.set(reply_out, ("retry",), index=idx)
            else:
                ctx.set(reply_out, ("stop",), index=idx)
            i += 1

    def complement(a, bb):
        return a if a == bb else 3 - a - bb

    def member(r, bank_index):
        out = r.output("out")
        inp = r.input("in")
        nxt = r.action("next")
        r.state.color = bank_index % 3
        r.state.meetings = 0
        r.state.stopped = False

        @r.reaction(STARTUP, nxt, effects=[out])
        def _meet(ctx):
            ctx.set(out, ctx.state.color)

        @r.reaction(inp, effects=[nxt])
        def _reply(ctx):
            msg = ctx.get(inp)
            if msg[0] == "mate":
                ctx.state.meetings += 1
                ctx.state.color = complement(ctx.state.color, msg[1])
                ctx.schedule(nxt)
            elif msg[0] == "retry":
                ctx.schedule(nxt)
            else:
                ctx.state.stopped = True

    members = bank(b, "chameneo", chameneos, member)
    connect(members.port("out"), req_in)
    connect(reply_out, members.port("in"))
    topo = b.build()

    def validate(report):
        check(mall.state.granted == meetings,
              f"granted {mall.state.granted} meetings, expected {meetings}")
        total = sum(m.state.meetings for m in members.members)
        check(total == 2 * meetings, f"member meetings sum {total} != {2 * meetings}")
        check(all(m.state.stopped for m in members.members), "member still running")

    return BenchmarkInstance(topo, validate)

