"""Coordination-heavy benchmarks: shared resources, arbitration, conservation.

Where the actor originals rely on nondeterministic mailbox order, these
versions resolve contention deterministically: requests arriving at the same
tag are served in ascending channel index (with a rotating start where
fairness matters), so the validators can replay the exact outcome.
"""

from __future__ import annotations

from collections import deque

from ..core import STARTUP
from ..patterns import bank, connect
from .lcg import Lcg64
from .registry import GROUP_CONCURRENCY, at_least, check, register


def _dictionary_ops(seed: int, worker: int, ops: int, write_percent: int, keys: int):
    rng = Lcg64(seed * 524287 + worker)
    out = []
    for _ in range(ops):
        kind = "w" if rng.next_below(100) < write_percent else "r"
        key = rng.next_below(keys)
        value = rng.next_below(1 << 16) if kind == "w" else 0
        out.append((kind, key, value))
    return out


@register("ConcurrentDictionary", "Concurrent Dictionary", GROUP_CONCURRENCY)
def _build_concurrent_dictionary(b, workers=8, ops=500, write_percent=10, keys=128, seed=1):
    at_least(workers=(workers, 1), ops=(ops, 1), write_percent=(write_percent, 0), keys=(keys, 1))

    store = b.reactor("store")
    req_in = store.input("req", width=workers)
    resp_out = store.output("resp", width=workers)
    store.state.table = {}

    @store.reaction(req_in, effects=[resp_out])
    def _serve(ctx):
        table = ctx.state.table
        for i, op in ctx.present(req_in):
            kind, key, value = op
            if kind == "w":
                table[key] = value
                ctx.set(resp_out, value, index=i)
            else:
                ctx.set(resp_out, table.get(key, 0), index=i)

    all_ops = [_dictionary_ops(seed, i, ops, write_percent, keys) for i in range(workers)]

    def member(r, bank_index):
        out = r.output("req")
        inp = r.input("resp")
        done = r.output("done")
        nxt = r.action("next")
        r.state.sent = 0
        r.state.check = 0
        my_ops = all_ops[bank_index]

        @r.reaction(STARTUP, nxt, effects=[out])
        def _request(ctx):
            ctx.set(out, my_ops[ctx.state.sent])
            ctx.state.sent += 1

        @r.reaction(inp, effects=[nxt, done])
        def _reply(ctx):
            ctx.state.check = (ctx.state.check * 31 + ctx.get(inp)) & 0xFFFFFFFFFFFF
            if ctx.state.sent < ops:
                ctx.schedule(nxt)
            else:
                ctx.set(done, True)

    worker_bank = bank(b, "worker", workers, member)
    sink = b.reactor("sink")
    done_in = sink.input("done", width=workers)
    sink.state.done = 0

    @sink.reaction(done_in)
    def _collect(ctx):
        for _i, _ in ctx.present(done_in):
            ctx.state.done += 1
        if ctx.state.done == workers:
            ctx.request_stop()

    connect(worker_bank.port("req"), req_in)
    connect(resp_out, worker_bank.port("resp"))
    connect(worker_bank.port("done"), done_in)

    # Oracle: workers submit in lockstep rounds; the store serves each round
    # in ascending worker index.
    expected_table = {}
    expected_check = [0] * workers
    for rnd in range(ops):
        for i in range(workers):
            kind, key, value = all_ops[i][rnd]
            if kind == "w":
                expected_table[key] = value
                reply = value
            else:
                reply = expected_table.get(key, 0)
            expected_check[i] = (expected_check[i] * 31 + reply) & 0xFFFFFFFFFFFF

    def validate(report):
        check(store.state.table == expected_table, "dictionary contents diverge from oracle")
        for i, w in enumerate(worker_bank.members):
            check(w.state.check == expected_check[i], f"worker {i} reply checksum mismatch")
        check(sink.state.done == workers, "missing completions")

    return validate


def _barber_balks(gaps: list[int], cut_lengths: list[int], capacity: int) -> int:
    """Customers turned away, replayed in the runtime's tag order: customer k
    arrives at sum(gaps[:k]), and an arrival is handled before a cut that
    ends at the same time."""
    ends = deque()  # when the running cut and each waiting customer's cut end
    lengths, arrival, balked = iter(cut_lengths), 0, 0
    for gap in gaps:
        while ends and ends[0] < arrival:
            ends.popleft()
        if len(ends) > capacity:  # the barber is busy and the room full
            balked += 1
        else:  # a cut starts as the one before it ends
            ends.append((ends[-1] if ends else arrival) + next(lengths))
        arrival += gap
    return balked


@register("SleepingBarber", "Sleeping Barber", GROUP_CONCURRENCY)
def _build_sleeping_barber(b, customers=800, capacity=5, seed=1):
    at_least(customers=(customers, 1), capacity=(capacity, 0))
    arrival_rng = Lcg64(seed * 69697)
    gaps = [1 + arrival_rng.next_below(3) for _ in range(customers)]
    cut_rng = Lcg64(seed * 69697 + 1)
    cut_lengths = [1 + cut_rng.next_below(4) for _ in range(customers)]
    expected_balked = _barber_balks(gaps, cut_lengths, capacity)
    if not expected_balked:
        raise ValueError(f"customers={customers}, capacity={capacity} and seed={seed} "
                         "turn no customer away, so nothing contends")

    gen = b.reactor("generator")
    cust_out = gen.output("customer")
    arrival = gen.action("arrival")
    gen.state.produced = 0

    @gen.reaction(STARTUP, arrival, effects=[cust_out, arrival])
    def _arrive(ctx):
        if ctx.state.produced < customers:
            ctx.set(cust_out, ctx.state.produced)
            ctx.schedule(arrival, delay=gaps[ctx.state.produced])
            ctx.state.produced += 1
        else:
            ctx.set(cust_out, -1)  # end of stream

    room = b.reactor("room")
    cust_in = room.input("customer")
    done_in = room.input("barber_done")
    chair_out = room.output("chair")
    room.state.queue = deque()
    room.state.busy = False
    room.state.eos = False
    room.state.dispatched = 0
    room.state.balked = 0

    def _maybe_finish(ctx):
        if ctx.state.eos and not ctx.state.busy and not ctx.state.queue:
            ctx.request_stop()

    @room.reaction(cust_in, effects=[chair_out])
    def _customer(ctx):
        who = ctx.get(cust_in)
        if who < 0:
            ctx.state.eos = True
            _maybe_finish(ctx)
        elif not ctx.state.busy:
            ctx.state.busy = True
            ctx.state.dispatched += 1
            ctx.set(chair_out, who)
        elif len(ctx.state.queue) < capacity:
            ctx.state.queue.append(who)
        else:
            ctx.state.balked += 1

    @room.reaction(done_in, effects=[chair_out])
    def _barber_free(ctx):
        if ctx.state.queue:
            ctx.state.dispatched += 1
            ctx.set(chair_out, ctx.state.queue.popleft())
        else:
            ctx.state.busy = False
            _maybe_finish(ctx)

    barber = b.reactor("barber")
    chair_in = barber.input("chair")
    done_out = barber.output("done")
    cut = barber.action("cut")
    barber.state.cuts = 0
    barber.state.started = 0

    # The cut-finished reaction comes first lexically; _start_cut only
    # schedules, so the feedback to the room stays acyclic.
    @barber.reaction(cut, effects=[done_out])
    def _finish_cut(ctx):
        ctx.state.cuts += 1
        ctx.set(done_out, True)

    @barber.reaction(chair_in, effects=[cut])
    def _start_cut(ctx):
        ctx.schedule(cut, delay=cut_lengths[ctx.state.started])
        ctx.state.started += 1

    connect(cust_out, cust_in)
    connect(chair_out, chair_in)
    connect(done_out, done_in)

    def validate(report):
        served = room.state.dispatched
        balked = room.state.balked
        check(served + balked == customers,
              f"served {served} + balked {balked} != {customers}")
        check(barber.state.cuts == served, "barber cut count diverges from dispatches")
        check(not room.state.queue, "waiting room not drained")
        check(balked == expected_balked, f"balked {balked}, the replay balks {expected_balked}")

    return validate


@register("CigaretteSmokers", "Cigarette Smokers", GROUP_CONCURRENCY)
def _build_cigarette_smokers(b, rounds=1500, seed=1):
    at_least(rounds=(rounds, 1))  # startup offers the first
    rng = Lcg64(seed * 31337)
    picks = [rng.next_below(3) for _ in range(rounds)]
    durations = [1 + rng.next_below(3) for _ in range(rounds)]

    arbiter = b.reactor("arbiter")
    offer_out = arbiter.output("offer", width=3)
    done_in = arbiter.input("done", width=3)
    nxt = arbiter.action("next")
    arbiter.state.round = 0

    @arbiter.reaction(STARTUP, nxt, effects=[offer_out])
    def _offer(ctx):
        r = ctx.state.round
        ctx.set(offer_out, durations[r], index=picks[r])

    @arbiter.reaction(done_in, effects=[nxt])
    def _smoked(ctx):
        ctx.state.round += 1
        if ctx.state.round < rounds:
            ctx.schedule(nxt)
        else:
            ctx.request_stop()

    def smoker(r, bank_index):
        offer_in = r.input("offer")
        done_out = r.output("done")
        smoke = r.action("smoke")
        r.state.count = 0

        @r.reaction(smoke, effects=[done_out])
        def _done(ctx):
            ctx.set(done_out, True)

        @r.reaction(offer_in, effects=[smoke])
        def _smoke(ctx):
            ctx.state.count += 1
            ctx.schedule(smoke, delay=ctx.get(offer_in))

    smokers = bank(b, "smoker", 3, smoker)
    connect(offer_out, smokers.port("offer"))
    connect(smokers.port("done"), done_in)

    expected = [picks.count(i) for i in range(3)]

    def validate(report):
        counts = [m.state.count for m in smokers.members]
        check(counts == expected, f"smoke counts {counts} != oracle {expected}")
        check(arbiter.state.round == rounds, "arbiter did not exhaust its rounds")

    return validate


@register("DiningPhilosophers", "Dining Philosophers", GROUP_CONCURRENCY)
def _build_dining_philosophers(b, philosophers=20, eat_rounds=50):
    at_least(philosophers=(philosophers, 2), eat_rounds=(eat_rounds, 0))

    arbiter = b.reactor("arbiter")
    req_in = arbiter.input("req", width=philosophers)
    grant_out = arbiter.output("grant", width=philosophers)
    arbiter.state.granted_total = 0
    arbiter.state.done = 0
    arbiter.state.rotation = 0

    @arbiter.reaction(req_in, effects=[grant_out])
    def _arbitrate(ctx):
        hungry = []
        for i, msg in ctx.present(req_in):
            if msg == "done":
                ctx.state.done += 1
            else:
                hungry.append(i)
        if ctx.state.done == philosophers:
            ctx.request_stop()
        if not hungry:
            return
        start = ctx.state.rotation % philosophers
        ctx.state.rotation += 1
        forks = [False] * philosophers
        for i in sorted(hungry, key=lambda i: (i - start) % philosophers):
            left, right = i, (i + 1) % philosophers
            if not forks[left] and not forks[right]:
                forks[left] = forks[right] = True
                ctx.state.granted_total += 1
                ctx.set(grant_out, True, index=i)
            else:
                ctx.set(grant_out, False, index=i)

    def philosopher(r, bank_index):
        req_out = r.output("req")
        grant_in = r.input("grant")
        retry = r.action("retry")
        r.state.eats = 0
        r.state.denied = 0
        r.state.done_sent = False

        @r.reaction(STARTUP, retry, effects=[req_out])
        def _ask(ctx):
            if ctx.state.eats < eat_rounds:
                ctx.set(req_out, "hungry")
            elif not ctx.state.done_sent:
                ctx.state.done_sent = True
                ctx.set(req_out, "done")

        @r.reaction(grant_in, effects=[retry])
        def _outcome(ctx):
            if ctx.get(grant_in):
                ctx.state.eats += 1
            else:
                ctx.state.denied += 1
            ctx.schedule(retry)

    phils = bank(b, "philosopher", philosophers, philosopher)
    connect(phils.port("req"), req_in)
    connect(grant_out, phils.port("grant"))

    def validate(report):
        for i, p in enumerate(phils.members):
            check(p.state.eats == eat_rounds,
                  f"philosopher {i} ate {p.state.eats} times, expected {eat_rounds}")
        check(arbiter.state.granted_total == philosophers * eat_rounds,
              f"grants {arbiter.state.granted_total} != {philosophers * eat_rounds}")
        check(arbiter.state.done == philosophers, "a philosopher starved (never reported done)")

    return validate


@register("BankTransaction", "Bank Transaction", GROUP_CONCURRENCY)
def _build_bank_transaction(b, accounts=20, rounds=150, batch=10, initial=10_000, seed=1):
    at_least(accounts=(accounts, 2), rounds=(rounds, 0), batch=(batch, 0), initial=(initial, 0))
    rng = Lcg64(seed * 104729)
    batches = []
    for _ in range(rounds):
        txns = []
        for _ in range(batch):
            src = rng.next_below(accounts)
            dst = (src + 1 + rng.next_below(accounts - 1)) % accounts
            txns.append((src, dst, 1 + rng.next_below(100)))
        batches.append(tuple(txns))

    teller = b.reactor("teller")
    tx_out = teller.output("tx")
    bal_in = teller.input("balances", width=accounts)
    nxt = teller.action("next")
    teller.state.round = 0
    teller.state.final_total = None
    teller.state.final_balances = None

    @teller.reaction(STARTUP, nxt, effects=[tx_out, nxt])
    def _send_batch(ctx):
        r = ctx.state.round
        if r < rounds:
            ctx.set(tx_out, batches[r])
            ctx.state.round += 1
            ctx.schedule(nxt)
        else:
            ctx.set(tx_out, "eos")

    @teller.reaction(bal_in)
    def _settle(ctx):
        balances = [v for _i, v in ctx.present(bal_in)]
        ctx.state.final_balances = balances
        ctx.state.final_total = sum(balances)
        ctx.request_stop()

    def account(r, bank_index):
        tx_in = r.input("tx")
        bal_out = r.output("balance")
        r.state.balance = initial

        @r.reaction(tx_in, effects=[bal_out])
        def _apply(ctx):
            v = ctx.get(tx_in)
            if v == "eos":
                ctx.set(bal_out, ctx.state.balance)
                return
            balance = ctx.state.balance
            for src, dst, amount in v:
                if src == bank_index:
                    balance -= amount
                if dst == bank_index:
                    balance += amount
            ctx.state.balance = balance

    account_bank = bank(b, "account", accounts, account)
    connect(tx_out, account_bank.port("tx"), broadcast=True)
    connect(account_bank.port("balance"), bal_in)

    expected = [initial] * accounts
    for txns in batches:
        for src, dst, amount in txns:
            expected[src] -= amount
            expected[dst] += amount

    def validate(report):
        check(teller.state.final_total == accounts * initial,
              f"money not conserved: {teller.state.final_total} != {accounts * initial}")
        check(teller.state.final_balances == expected, "balances diverge from oracle replay")

    return validate

