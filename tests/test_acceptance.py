"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Criteria cover determinism across worker counts and injected timing noise,
the bank-account example semantics, precedence-graph correctness against a
brute-force oracle, golden connection patterns, ready-queue exactness under
thread stress, physical-time chasing, parallel speedup, sparse multiport
efficiency, and the measurement methodology.
"""

import contextlib
import os
import random
import statistics
import threading
import time

import pytest

from detreact import (MSEC, SEC, Builder, Environment, ReadyQueue, Tag,
                      build_precedence_graph, trace_digest)
from detreact.bench import get_benchmark, run_benchmark
from programs import (bank_multiport_direct, bank_multiport_interleaved,
                      broadcast_pattern, cascade_pattern, channel_pairs, edges_text,
                      fork_join_pattern, jittered, proxied_bank, record_wiring,
                      sparse_multiport, two_user_bank)
from test_graph import oracle_analysis, random_topology

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


@contextlib.contextmanager
def criterion(number, title):
    try:
        yield
    except pytest.skip.Exception as exc:
        print(f"ACCEPTANCE {number:2d} SKIP {title}: {exc}")
        raise
    except BaseException as exc:
        print(f"ACCEPTANCE {number:2d} FAIL {title}: {exc}")
        raise
    print(f"ACCEPTANCE {number:2d} PASS {title}")


def _digest_of(topology, workers, jitter_ms=0.0, jitter_seed=0):
    if jitter_ms > 0:
        topology = jittered(topology, jitter_ms, jitter_seed)
    env = Environment(topology, workers=workers, fast=True, trace=True)
    env.run()
    return trace_digest(env.trace)


def _determinism_programs():
    progs = [
        ("bank_simple", lambda: two_user_bank()[0]),
        ("bank_proxied", lambda: proxied_bank()[0]),
        ("fork_join", lambda: fork_join_pattern()[0]),
        ("broadcast", lambda: broadcast_pattern()[0]),
        ("cascade", lambda: cascade_pattern()[0]),
        ("bank_direct", lambda: bank_multiport_direct()[0]),
        ("bank_interleaved", lambda: bank_multiport_interleaved()[0]),
    ]
    for name, params in [
        ("DiningPhilosophers", {"philosophers": 5, "eat_rounds": 4}),
        ("BankTransaction", {"accounts": 6, "rounds": 8, "batch": 4}),
        ("Big", {"actors": 5, "pings": 8}),
        ("RadixSort", {"size": 200, "bits": 8, "rounds": 2}),
    ]:
        spec = get_benchmark(name)
        resolved = spec.resolve_params(params)
        progs.append((name, lambda spec=spec, resolved=resolved:
                      spec.build(resolved).topology))
    return progs


def test_criterion_01_determinism_suite():
    with criterion(1, "trace digests invariant over workers, repetition, jitter"):
        start = time.monotonic()
        programs = _determinism_programs()
        assert len(programs) >= 10
        for name, build in programs:
            baseline = _digest_of(build(), workers=1)
            for workers in (2, 4, 8):
                assert _digest_of(build(), workers) == baseline, \
                    f"{name}: digest changed at {workers} workers"
            for rep in range(20):
                workers = (1, 2, 4, 8)[rep % 4]
                assert _digest_of(build(), workers) == baseline, \
                    f"{name}: digest changed on repeat {rep}"
            for seed in (1, 2):
                for workers in (4, 8):
                    got = _digest_of(build(), workers, jitter_ms=2.0,
                                     jitter_seed=seed)
                    assert got == baseline, \
                        f"{name}: digest changed under jitter (seed {seed})"
        elapsed = time.monotonic() - start
        assert elapsed < 300, f"determinism suite took {elapsed:.0f}s"


def test_criterion_02_bank_example_semantics():
    with criterion(2, "bank examples: grant/deny outcomes and final balances"):
        start = time.monotonic()
        topo, acct = two_user_bank()
        Environment(topo, fast=True).run()
        assert acct.state.balance == 10.0
        assert acct.state.outcomes == [("granted", Tag(2 * SEC, 0))]

        topo, acct = proxied_bank(proxy_delay_ns=2 * SEC)
        Environment(topo, fast=True).run()
        assert acct.state.outcomes == [("denied", Tag(2 * SEC, 0))]
        assert acct.state.balance == 20.0
        assert time.monotonic() - start < 1.0


def test_criterion_03_graph_oracle_equivalence(monkeypatch):
    wiring = record_wiring(monkeypatch)
    with criterion(3, "levels and cycle verdicts match brute force on 1000 topologies"):
        start = time.monotonic()
        rng = random.Random(0xACCE55)
        agreements = 0
        cyclic = 0
        for _ in range(1000):
            topo = random_topology(rng)
            acyclic, levels = oracle_analysis(topo, wiring.pop(topo))
            if acyclic:
                graph = build_precedence_graph(topo)
                assert list(graph.level) == levels
            else:
                cyclic += 1
                with pytest.raises(Exception):
                    build_precedence_graph(topo)
            agreements += 1
        assert agreements == 1000
        assert cyclic > 0
        assert time.monotonic() - start < 30


def test_criterion_04_proxied_bank_levels():
    with criterion(4, "proxied bank level assignment"):
        topo, _ = proxied_bank()
        graph = build_precedence_graph(topo)
        levels = {r.label(): graph.level[r.rid] for r in topo.reactions}
        assert levels["userA.1"] == levels["userB.1"] == levels["proxy.1"]
        assert levels["account.2"] > levels["account.1"]


def test_criterion_05_connection_pattern_goldens():
    with criterion(5, "unfold/connect reproduce the golden edge sets"):
        cases = [
            (fork_join_pattern, "fork_join.edges"),
            (broadcast_pattern, "broadcast.edges"),
            (cascade_pattern, "cascade.edges"),
            (bank_multiport_direct, "bank_direct.edges"),
            (bank_multiport_interleaved, "bank_interleaved.edges"),
        ]
        topos = {}
        for build, golden in cases:
            topo, _ = build()
            with open(os.path.join(GOLDEN, golden)) as fh:
                assert edges_text(topo) == fh.read(), f"{golden} mismatch"
            topos[golden] = topo
        fan_out = [c for c in channel_pairs(topos["fork_join.edges"])
                   if c[0].port.owner.name == "src"]
        assert len(fan_out) == 3  # w edges per connection statement
        broadcast_edges = [c for c in channel_pairs(topos["broadcast.edges"])
                           if c[0].port.owner.name == "src"]
        assert len(broadcast_edges) == 3  # three connections from one output
        assert len(channel_pairs(topos["cascade.edges"])) == 3  # n + 1 chain
        inter = channel_pairs(topos["bank_interleaved.edges"])
        assert len(inter) == 9  # w^2 fully connected
        receive_order = [d.label() for _s, d in inter]
        assert receive_order[:3] == ["node[0].in[0]", "node[1].in[0]", "node[2].in[0]"]


def test_criterion_06_ready_queue_stress():
    with criterion(6, "1e6 thread-stressed pops lose nothing, duplicate nothing"):
        start = time.monotonic()
        capacity = 64
        queue = ReadyQueue(capacity)
        threads_n = 8
        rng = random.Random(1234)
        barrier = threading.Barrier(threads_n + 1)
        results = [[] for _ in range(threads_n)]
        state = {"stop": False}
        attempts = [0] * threads_n

        def worker(slot):
            while True:
                barrier.wait()  # wait for refill
                if state["stop"]:
                    return
                mine = results[slot]
                while True:
                    attempts[slot] += 1
                    item = queue.pop()
                    if item is None:
                        break
                    mine.append(item)
                barrier.wait()  # round validated by the master

        workers = [threading.Thread(target=worker, args=(i,)) for i in range(threads_n)]
        for t in workers:
            t.start()

        total_pops = 0
        rounds = 0
        while total_pops < 1_000_000:
            k = rng.randrange(0, capacity + 1)
            items = list(range(rounds * 1000, rounds * 1000 + k))
            queue.refill(items)
            before = sum(attempts)
            barrier.wait()  # release workers
            barrier.wait()  # workers done
            popped = [x for r in results for x in r]
            assert sorted(popped) == items, f"round {rounds}: lost or duplicated items"
            for r in results:
                r.clear()
            total_pops += sum(attempts) - before
            rounds += 1
        state["stop"] = True
        barrier.wait()
        for t in workers:
            t.join()
        elapsed = time.monotonic() - start
        assert elapsed < 60, f"stress took {elapsed:.0f}s"
        print(f"    ({total_pops} pops over {rounds} rounds in {elapsed:.1f}s)", end=" ")


def test_criterion_07_physical_time_chase():
    with criterion(7, "chase rule: never early, bounded late; fast mode flies"):
        for _ in range(3):
            b = Builder()
            r = b.reactor("r")
            t = r.timer("t", offset=100 * MSEC)
            r.state.fired = None

            @r.reaction(t)
            def _(ctx):
                ctx.state.fired = ctx.elapsed_physical_ns()

            Environment(b.build(), fast=False).run()
            assert r.state.fired > 100 * MSEC, "timer fired early"
            assert r.state.fired <= 150 * MSEC, \
                f"timer fired {r.state.fired / 1e6:.1f}ms after start (>50ms late)"

        b = Builder()
        r = b.reactor("r")
        t = r.timer("t", offset=0, period=1 * SEC)
        r.state.count = 0

        @r.reaction(t)
        def _(ctx):
            ctx.state.count += 1
            if ctx.state.count == 3:
                ctx.request_stop()

        report = Environment(b.build(), fast=True).run()
        assert r.state.count == 3
        assert report.duration_ns < 10 * MSEC, \
            f"3 tags took {report.duration_ns / 1e6:.1f}ms in fast mode"


def test_criterion_08_parallel_speedup_and_philosophers():
    with criterion(8, "4-worker speedup >= 2.0 and philosophers never fail at 8 workers"):
        # Part 2 first: zero validator failures across repeated 8-worker runs.
        spec = get_benchmark("DiningPhilosophers")
        stats = run_benchmark(spec, {"philosophers": 20, "eat_rounds": 50},
                              workers=8, iterations=5, warmup=1)
        assert len(stats.samples_ms) == 4  # every iteration validated

        trap = get_benchmark("Trapezoidal")
        params = {"pieces": 1_000_000, "segments": 4, "rounds": 4}  # 4e6 evaluations
        single = run_benchmark(trap, params, workers=1, iterations=5, warmup=1)
        if (os.cpu_count() or 1) < 4:
            dual = run_benchmark(trap, params, workers=2, iterations=5, warmup=1)
            print(f"(host has {os.cpu_count()} cores; informative 2-worker scaling: "
                  f"{single.mean_ms / dual.mean_ms:.2f}x, "
                  f"{single.mean_ms:.1f}ms -> {dual.mean_ms:.1f}ms)", end=" ")
            pytest.skip("the >=2.0x-at-4-workers clause requires a >=4-core host")
        quad = run_benchmark(trap, params, workers=4, iterations=5, warmup=1)
        speedup = single.mean_ms / quad.mean_ms
        print(f"(speedup {speedup:.2f}x: {single.mean_ms:.1f}ms -> {quad.mean_ms:.1f}ms)",
              end=" ")
        assert speedup >= 2.0, f"speedup {speedup:.2f}x below 2.0x"


def test_criterion_09_sparse_multiport_speed():
    with criterion(9, "present-iteration receiver >= 10x faster than full scan"):
        def run_variant(receiver):
            topo, rx, (count, total) = sparse_multiport(
                width=10_000, set_per_tag=10, tags=1000, receiver=receiver)
            report = Environment(topo, fast=True).run()
            assert rx.state.count == count and rx.state.sum == total
            return report.duration_ns

        sparse = statistics.median(run_variant("sparse") for _ in range(5))
        scan = statistics.median(run_variant("scan") for _ in range(5))
        factor = scan / sparse
        print(f"(scan {scan / 1e6:.0f}ms / sparse {sparse / 1e6:.0f}ms = {factor:.1f}x)",
              end=" ")
        assert factor >= 10.0, f"sparse receiver only {factor:.1f}x faster"


def test_criterion_10_measurement_methodology(tmp_path):
    with criterion(10, "32 iterations with 2 warmups retain exactly 30 samples + CI99"):
        spec = get_benchmark("PingPong")
        stats = run_benchmark(spec, {"messages": 5}, workers=1,
                              iterations=32, warmup=2)
        assert len(stats.warmup_ms) == 2
        assert len(stats.samples_ms) == 30
        assert stats.ci99_ms >= 0.0

        from detreact.cli import main
        csv_path = tmp_path / "method.csv"
        exit_code = main([
            "-b", "PingPong", "--workers", "1", "--iterations", "32",
            "--warmup", "2", "--param", "messages=5", "--csv", str(csv_path)])
        assert exit_code == 0
        lines = csv_path.read_text().splitlines()
        import re
        iteration_rows = [ln for ln in lines
                          if re.match(r"^PingPong,1,\d+,\d+\.\d+$", ln)]
        assert all(int(ln.split(",")[2]) >= 2 for ln in iteration_rows), \
            "warmup iterations leaked into the CSV"
        summary_at = lines.index("benchmark,workers,mean_ms,ci99_ms")
        summaries = lines[summary_at + 1:]
        assert len(iteration_rows) == 30, f"retained {len(iteration_rows)} samples"
        assert len(summaries) == 1
        _bench, _w, mean_ms, ci99_ms = summaries[0].split(",")
        assert float(mean_ms) > 0 and float(ci99_ms) >= 0
