"""Data-parallel benchmarks.

The numeric kernels run on numpy arrays, so same-level reactions genuinely
execute in parallel on CPython: numpy releases the GIL inside its inner
loops. Work is split over a bank whose width is a benchmark parameter,
independent of the scheduler's worker count; chunk boundaries and reduction
order (ascending bank index) are therefore fixed, and results are
bit-identical no matter how many workers execute them.

The builders that need numpy import it themselves, so that importing
``detreact.bench`` does not load it and the other benchmarks run without it.
"""

from __future__ import annotations

import math

from ..core import STARTUP, Builder
from ..patterns import bank, connect, unfold
from .lcg import Lcg64
from .registry import GROUP_PARALLELISM, at_least, check, register


@register("ProducerConsumer", "Producer-Consumer", GROUP_PARALLELISM)
def _build_producer_consumer(b, producers=4, consumers=4, items=300, buffer=10, seed=1):
    at_least(producers=(producers, 1), consumers=(consumers, 1),
             items=(items, 0), buffer=(buffer, producers))  # one slot per producer

    values = [[Lcg64(seed * 131 + i).next_below(1 << 20) for _ in range(items)]
              for i in range(producers)]

    manager = b.reactor("manager")
    prod_in = manager.input("items", width=producers)
    ack_in = manager.input("acks", width=consumers)
    deliver_out = manager.output("deliver", width=consumers)
    credit_out = manager.output("credit", width=producers)
    st = manager.state
    st.queue = []
    st.slots = buffer
    st.waiting = list(range(producers))  # producers waiting for a free slot
    st.free = list(range(consumers))  # idle consumers, kept sorted
    st.eos = 0

    def _dispatch(ctx):
        st = ctx.state
        while st.queue and st.free:
            consumer = st.free.pop(0)
            ctx.set(deliver_out, st.queue.pop(0), index=consumer)
            st.slots += 1
        while st.slots > 0 and st.waiting:
            producer = st.waiting.pop(0)
            st.slots -= 1
            ctx.set(credit_out, True, index=producer)
        if st.eos == producers and not st.queue and len(st.free) == consumers:
            ctx.request_stop()

    @manager.reaction(STARTUP, effects=[credit_out])
    def _boot(ctx):
        st = ctx.state
        while st.slots > 0 and st.waiting:
            producer = st.waiting.pop(0)
            st.slots -= 1
            ctx.set(credit_out, True, index=producer)

    @manager.reaction(prod_in, effects=[deliver_out, credit_out])
    def _receive(ctx):
        st = ctx.state
        for i, (value, eos) in ctx.present(prod_in):
            if eos:
                st.eos += 1
                st.slots += 1  # reserved slot never got an item
            else:
                st.queue.append(value)
                st.waiting.append(i)
        _dispatch(ctx)

    @manager.reaction(ack_in, effects=[deliver_out, credit_out])
    def _acked(ctx):
        st = ctx.state
        for i, _ in ctx.present(ack_in):
            st.free.append(i)
        st.free.sort()
        _dispatch(ctx)

    def producer(r, bank_index):
        credit_in = r.input("credit")
        item_out = r.output("item")
        produce = r.action("produce")
        r.state.produced = 0
        r.state.sum = 0
        mine = values[bank_index]

        @r.reaction(produce, effects=[item_out])
        def _emit(ctx):
            n = ctx.state.produced
            if n < items:
                value = mine[n]
                ctx.state.produced += 1
                ctx.state.sum += value
                ctx.set(item_out, (value, False))
            else:
                ctx.set(item_out, (0, True))

        @r.reaction(credit_in, effects=[produce])
        def _credited(ctx):
            ctx.schedule(produce)

    def consumer(r, bank_index):
        deliver_in = r.input("deliver")
        ack_out = r.output("ack")
        consume = r.action("consume")
        r.state.count = 0
        r.state.sum = 0

        @r.reaction(consume, effects=[ack_out])
        def _consumed(ctx):
            v = ctx.get(consume)
            ctx.state.count += 1
            ctx.state.sum += v
            ctx.set(ack_out, True)

        @r.reaction(deliver_in, effects=[consume])
        def _deliver(ctx):
            ctx.schedule(consume, ctx.get(deliver_in))

    producer_bank = bank(b, "producer", producers, producer)
    consumer_bank = bank(b, "consumer", consumers, consumer)
    connect(producer_bank.port("item"), prod_in)
    connect(credit_out, producer_bank.port("credit"))
    connect(deliver_out, consumer_bank.port("deliver"))
    connect(consumer_bank.port("ack"), ack_in)

    def validate(report):
        total = sum(cc.state.count for cc in consumer_bank.members)
        check(total == producers * items, f"consumed {total} items, expected {producers * items}")
        produced_sum = sum(pp.state.sum for pp in producer_bank.members)
        consumed_sum = sum(cc.state.sum for cc in consumer_bank.members)
        check(produced_sum == consumed_sum, "value checksum mismatch")
        check(manager.state.eos == producers and not manager.state.queue, "buffer not drained")
        check(manager.state.slots == buffer, "slot accounting broken")

    return validate


def _fan_out_compute(b: Builder, segments: int, rounds: int, compute):
    """Dispatcher -> bank of numeric workers -> gather, repeated ``rounds``
    times. ``compute(bank_index, round)`` returns one partial result; the
    dispatcher accumulates per-round totals in ``state.results``."""
    disp = b.reactor("dispatcher")
    job_out = disp.output("job")
    sum_in = disp.input("partials", width=segments)
    nxt = disp.action("next")
    disp.state.round = 0
    disp.state.results = []

    @disp.reaction(STARTUP, nxt, effects=[job_out])
    def _issue(ctx):
        ctx.set(job_out, ctx.state.round)

    @disp.reaction(sum_in, effects=[nxt])
    def _gather(ctx):
        total = 0.0
        for _i, v in ctx.present(sum_in):  # ascending index: fixed order
            total += v
        ctx.state.results.append(total)
        ctx.state.round += 1
        if ctx.state.round < rounds:
            ctx.schedule(nxt)
        else:
            ctx.request_stop()

    def worker(r, bank_index):
        job_in = r.input("job")
        part_out = r.output("partial")

        @r.reaction(job_in, effects=[part_out])
        def _work(ctx):
            ctx.set(part_out, compute(bank_index, ctx.get(job_in)))

    workers = bank(b, "segment", segments, worker)
    connect(job_out, workers.port("job"), broadcast=True)
    connect(workers.port("partial"), sum_in)
    return disp


@register("Trapezoidal", "Trapezoidal Approximation", GROUP_PARALLELISM)
def _build_trapezoid(b, pieces=200_000, segments=4, rounds=3):
    at_least(pieces=(pieces, 1), segments=(segments, 1), rounds=(rounds, 1))
    import numpy as np

    lo, hi = 0.0, 1.0
    h = (hi - lo) / pieces
    bounds = [pieces * i // segments for i in range(segments + 1)]
    # Sample grids are initialization, not measured work.
    grids = [np.linspace(lo + bounds[i] * h, lo + bounds[i + 1] * h,
                         bounds[i + 1] - bounds[i] + 1)
             for i in range(segments)]

    def compute(idx, _round):
        # Composite trapezoid over this segment's subinterval; adjacent
        # segments share endpoints half-weighted, so the parts sum exactly
        # to the full rule.
        x = grids[idx]
        y = 4.0 / (1.0 + x * x)
        return float((np.sum(y) - 0.5 * (y[0] + y[-1])) * h)

    disp = _fan_out_compute(b, segments, rounds, compute)

    def validate(report):
        results = disp.state.results
        check(len(results) == rounds, f"completed {len(results)} rounds, expected {rounds}")
        for v in results:
            check(abs(v - math.pi) < 1e-6, f"integral {v!r} off by {abs(v - math.pi):.2e}")
        check(all(v == results[0] for v in results), "rounds disagree bit-for-bit")

    return validate


@register("PiPrecision", "Pi Precision", GROUP_PARALLELISM)
def _build_pi_precision(b, terms=500_000, segments=4, rounds=3):
    at_least(terms=(terms, 1), segments=(segments, 1), rounds=(rounds, 1))
    import numpy as np

    bounds = [terms * i // segments for i in range(segments + 1)]
    ks = [np.arange(bounds[i], bounds[i + 1], dtype=np.float64)
          for i in range(segments)]
    signs = [1.0 - 2.0 * (np.arange(bounds[i], bounds[i + 1]) % 2)
             for i in range(segments)]

    def compute(idx, _round):
        # Alternating-series slice: 4 * sum((-1)^k / (2k+1)) over this range.
        return float(np.sum(4.0 * signs[idx] / (2.0 * ks[idx] + 1.0)))

    disp = _fan_out_compute(b, segments, rounds, compute)
    tolerance = 4.0 / (2.0 * terms + 1.0)  # alternating series remainder bound

    def validate(report):
        results = disp.state.results
        check(len(results) == rounds, "missing rounds")
        for v in results:
            check(abs(v - math.pi) < tolerance,
                  f"estimate {v!r} outside remainder bound {tolerance:.2e}")
        check(all(v == results[0] for v in results), "rounds disagree bit-for-bit")

    return validate


@register("RadixSort", "Radix Sort", GROUP_PARALLELISM)
def _build_radix_sort(b, size=10_000, bits=16, rounds=4, seed=1):
    at_least(size=(size, 0), bits=(bits, 1), rounds=(rounds, 1))
    import numpy as np

    rng = Lcg64(seed * 8675309)
    inputs = [np.array([rng.next_below(1 << bits) for _ in range(size)], dtype=np.int64)
              for _ in range(rounds)]

    src = b.reactor("source")
    data_out = src.output("data")
    nxt = src.action("next")
    src.state.round = 0

    @src.reaction(STARTUP, nxt, effects=[data_out, nxt])
    def _emit(ctx):
        r = ctx.state.round
        ctx.set(data_out, inputs[r])
        ctx.state.round += 1
        if ctx.state.round < rounds:
            ctx.schedule(nxt)

    def stage(r, bank_index):
        inp = r.input("in")
        out = r.output("out")

        @r.reaction(inp, effects=[out])
        def _partition(ctx):
            x = ctx.get(inp)
            bit = (x >> bank_index) & 1
            ctx.set(out, np.concatenate((x[bit == 0], x[bit == 1])))

    stages = bank(b, "stage", bits, stage)
    sink = b.reactor("sink")
    sorted_in = sink.input("in")
    sink.state.outputs = []

    @sink.reaction(sorted_in)
    def _collect(ctx):
        ctx.state.outputs.append(ctx.get(sorted_in))
        if len(ctx.state.outputs) == rounds:
            ctx.request_stop()

    # Cascade: source feeds the first stage, each stage the next, the last
    # stage the sink, in one offset connection statement.
    connect(unfold([data_out, stages.port("out")]),
            unfold([stages.port("in"), sorted_in]))

    def validate(report):
        outs = sink.state.outputs
        check(len(outs) == rounds, f"sorted {len(outs)} arrays, expected {rounds}")
        for inp, out in zip(inputs, outs):
            check(bool(np.all(out[1:] >= out[:-1])), "output not nondecreasing")
            check(np.array_equal(np.sort(inp), out), "output is not a permutation of the input")

    return validate


@register("FilterBank", "Filter Bank", GROUP_PARALLELISM)
def _build_filter_bank(b, branches=8, frame=4096, taps=64, rounds=10, seed=1):
    at_least(branches=(branches, 1), frame=(frame, 1), taps=(taps, 1), rounds=(rounds, 1))
    import numpy as np

    coeffs = []
    for i in range(branches):
        rng = Lcg64(seed * 2654435761 + i)
        coeffs.append(np.array([rng.next_double() - 0.5 for _ in range(taps)]))
    base = np.arange(frame, dtype=np.float64)

    def make_frame(rnd: int) -> np.ndarray:
        return np.sin(0.001 * (rnd * frame + base))

    src = b.reactor("source")
    frame_out = src.output("frame")
    nxt = src.action("next")
    src.state.round = 0

    @src.reaction(STARTUP, nxt, effects=[frame_out, nxt])
    def _emit(ctx):
        ctx.set(frame_out, make_frame(ctx.state.round))
        ctx.state.round += 1
        if ctx.state.round < rounds:
            ctx.schedule(nxt)

    def branch(r, bank_index):
        inp = r.input("in")
        out = r.output("out")
        taps_vec = coeffs[bank_index]

        @r.reaction(inp, effects=[out])
        def _filter(ctx):
            y = np.convolve(ctx.get(inp), taps_vec, mode="valid")
            ctx.set(out, float(np.sum(y)))

    bench_bank = bank(b, "branch", branches, branch)
    combiner = b.reactor("combiner")
    parts_in = combiner.input("parts", width=branches)
    combiner.state.totals = []

    @combiner.reaction(parts_in)
    def _combine(ctx):
        total = 0.0
        for _i, v in ctx.present(parts_in):
            total += v
        ctx.state.totals.append(total)
        if len(ctx.state.totals) == rounds:
            ctx.request_stop()

    connect(frame_out, bench_bank.port("in"), broadcast=True)
    connect(bench_bank.port("out"), parts_in)

    # The replay is the oracle, so only a run that is validated pays for it.
    def validate(report):
        expected = []
        for rnd in range(rounds):
            x = make_frame(rnd)
            total = 0.0
            for i in range(branches):
                total += float(np.sum(np.convolve(x, coeffs[i], mode="valid")))
            expected.append(total)
        check(combiner.state.totals == expected,
              "filter outputs diverge from sequential replay")

    return validate

