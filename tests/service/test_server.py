"""SynthesisServer: admission, batching, deadlines, cache, TCP."""

import asyncio
from fractions import Fraction

from repro.core.synthesizer import SynthesisOptions
from repro.eval.workloads import bottleneck_problem, gm_case_study
from repro.service import (
    KnowledgeCache,
    ServiceClient,
    ServicePolicy,
    SynthesisRequest,
    SynthesisServer,
    problem_to_wire,
    request_over_tcp,
)

from .helpers import family_problem, run

#: Inline workers: deterministic, no forking, fast enough for admission
#: tests (process-mode behavior is covered by test_robustness).
INLINE = ServicePolicy(workers=1, worker_mode="inline")

#: ~0.3 s of real solving — long enough to observe queue behavior.
MODERATE_OPTS = SynthesisOptions(routes=2)


def moderate_problem():
    return gm_case_study(3)


class TestSolve:
    def test_single_solve_response_shape(self):
        async def body():
            async with SynthesisServer(policy=INLINE) as server:
                client = ServiceClient(server)
                reply = await client.solve(family_problem([0, 1]),
                                           deadline=30.0)
                assert reply["type"] == "result"
                assert reply["status"] == "sat"
                assert reply["schedules"]
                assert reply["statistics"]["decisions"] > 0
                assert reply["queue_wait"] >= 0.0
                assert reply["solve_wall"] > 0.0
                assert reply["attempts"] == 1
                assert reply["cache"] == {"hit": None}
        run(body())

    def test_batch_resolves_every_request(self):
        async def body():
            async with SynthesisServer(policy=INLINE) as server:
                client = ServiceClient(server)
                requests = [
                    SynthesisRequest(id=f"b{i}",
                                     problem=family_problem([0, 1, i]))
                    for i in range(2, 5)
                ]
                replies = await client.solve_batch(requests)
                assert [r["id"] for r in replies] == ["b2", "b3", "b4"]
                assert all(r["type"] == "result" and r["status"] == "sat"
                           for r in replies)
        run(body())

    def test_duplicate_id_rejected(self):
        async def body():
            async with SynthesisServer(policy=INLINE) as server:
                slow = await server.submit(SynthesisRequest(
                    id="dup", problem=moderate_problem(),
                    options=MODERATE_OPTS))
                dup = await server.submit(SynthesisRequest(
                    id="dup", problem=family_problem([0])))
                reply = await dup
                assert reply["type"] == "rejected"
                assert reply["reason"] == "duplicate-id"
                assert (await slow)["type"] == "result"
        run(body())

    def test_overload_sheds_typed_response(self):
        async def body():
            policy = ServicePolicy(workers=1, worker_mode="inline",
                                   max_queue=1)
            async with SynthesisServer(policy=policy) as server:
                first = await server.submit(SynthesisRequest(
                    id="r1", problem=moderate_problem(),
                    options=MODERATE_OPTS))
                await asyncio.sleep(0.1)    # r1 is now in-flight
                queued = await server.submit(SynthesisRequest(
                    id="r2", problem=family_problem([0])))
                shed = await server.submit(SynthesisRequest(
                    id="r3", problem=family_problem([1])))
                reply = await shed
                assert reply["type"] == "overloaded"
                assert reply["queue_depth"] == 1
                assert server.counters["overloaded"] == 1
                assert (await first)["type"] == "result"
                assert (await queued)["type"] == "result"
        run(body())

    def test_deadline_expires_in_queue(self):
        async def body():
            async with SynthesisServer(policy=INLINE) as server:
                first = await server.submit(SynthesisRequest(
                    id="slow", problem=moderate_problem(),
                    options=MODERATE_OPTS))
                await asyncio.sleep(0.1)
                starved = await server.submit(SynthesisRequest(
                    id="starved", problem=family_problem([0]),
                    deadline=0.01))
                reply = await starved
                assert reply["type"] == "timeout"
                assert reply["expired_in"] == "queue"
                assert server.counters["queue_expired"] == 1
                assert (await first)["type"] == "result"
        run(body())

    def test_deadline_interrupts_mid_solve(self):
        async def body():
            async with SynthesisServer(policy=INLINE) as server:
                client = ServiceClient(server)
                reply = await client.solve(gm_case_study(5), deadline=0.4)
                assert reply["type"] == "timeout"
                assert reply["solve_wall"] < 10.0
        run(body())

    def test_default_deadline_applies(self):
        async def body():
            policy = ServicePolicy(workers=1, worker_mode="inline",
                                   default_deadline=0.4)
            async with SynthesisServer(policy=policy) as server:
                client = ServiceClient(server)
                reply = await client.solve(gm_case_study(5))
                assert reply["type"] == "timeout"
        run(body())


class TestCacheIntegration:
    def test_exact_repeat_is_warm_and_cheaper(self, tmp_path):
        def work(reply):
            return (reply["statistics"]["conflicts"]
                    + reply["statistics"]["decisions"])

        async def body():
            cache = KnowledgeCache(tmp_path)
            async with SynthesisServer(policy=INLINE, cache=cache) as server:
                client = ServiceClient(server)
                problem = moderate_problem()
                cold = await client.solve(problem, MODERATE_OPTS)
                warm = await client.solve(problem, MODERATE_OPTS)
                assert cold["cache"]["hit"] is None
                assert warm["cache"]["hit"] == "exact"
                assert warm["status"] == cold["status"] == "sat"
                assert warm["statistics"]["prefix_hits"] >= 1
                assert work(warm) < work(cold)
                assert cache.counters["stores"] == 1
                assert cache.counters["exact_hits"] == 1
                # Sat and unsat alike: same verdict, exact hit, less work.
                for problem, opts, status in (
                        (gm_case_study(3), SynthesisOptions(routes=3), "sat"),
                        (bottleneck_problem(3), MODERATE_OPTS, "sat"),
                        (bottleneck_problem(3, period=Fraction(35, 10000)),
                         MODERATE_OPTS, "unsat")):
                    cold = await client.solve(problem, opts)
                    warm = await client.solve(problem, opts)
                    assert cold["status"] == warm["status"] == status
                    assert warm["cache"]["hit"] == "exact"
                    assert work(warm) < work(cold)
        run(body())

    def test_subset_ancestor_seeds_new_request(self, tmp_path):
        async def body():
            cache = KnowledgeCache(tmp_path)
            async with SynthesisServer(policy=INLINE, cache=cache) as server:
                client = ServiceClient(server)
                await client.solve(family_problem([0, 1]))
                grown = await client.solve(family_problem([0, 1, 2]))
                assert grown["type"] == "result"
                assert grown["cache"]["hit"] == "subset"
                assert grown["statistics"]["prefix_probes"] >= 1
                # The grown problem's own knowledge is stored too.
                assert cache.counters["stores"] == 2
        run(body())

    def test_stats_shape(self, tmp_path):
        async def body():
            cache = KnowledgeCache(tmp_path)
            async with SynthesisServer(policy=INLINE, cache=cache) as server:
                client = ServiceClient(server)
                await client.solve(family_problem([0, 1]))
                stats = client.stats()
                assert stats["requests"]["admitted"] == 1
                assert stats["requests"]["result"] == 1
                assert stats["latency"]["total"]["count"] == 1
                assert stats["latency"]["total"]["p99"] > 0.0
                assert stats["cache"]["entries"] == 1
                assert stats["workers"][0]["mode"] == "inline"
                assert stats["queue_depth"] == 0
        run(body())


class TestTcp:
    def test_solve_and_stats_over_the_wire(self):
        async def body():
            async with SynthesisServer(policy=INLINE) as server:
                host, port = await server.serve_tcp()
                frames = [
                    {"op": "solve", "id": "w1",
                     "problem": problem_to_wire(family_problem([0, 1])),
                     "options": {"routes": 2}, "deadline": 30.0},
                    {"op": "stats"},
                ]
                replies = await request_over_tcp(host, port, frames)
                by_type = {r["type"]: r for r in replies}
                assert by_type["result"]["id"] == "w1"
                assert by_type["result"]["status"] == "sat"
                assert by_type["result"]["schedules"]
                assert by_type["stats"]["metrics"]["requests"]["admitted"] == 1
        run(body())

    def test_batch_over_the_wire(self):
        async def body():
            async with SynthesisServer(policy=INLINE) as server:
                host, port = await server.serve_tcp()
                entries = [
                    {"id": f"m{i}",
                     "problem": problem_to_wire(family_problem([0, i]))}
                    for i in range(1, 4)
                ]
                replies = await request_over_tcp(
                    host, port, [{"op": "batch", "requests": entries}])
                assert sorted(r["id"] for r in replies) == ["m1", "m2", "m3"]
                assert all(r["type"] == "result" for r in replies)
        run(body())

    def test_malformed_frames_get_error_replies(self):
        async def body():
            async with SynthesisServer(policy=INLINE) as server:
                host, port = await server.serve_tcp()
                replies = await request_over_tcp(host, port, [
                    {"op": "warp-core-breach"},
                    {"op": "solve", "id": "bad", "problem": {"nodes": 7}},
                ])
                assert all(r["type"] == "error" for r in replies)
                assert replies[1]["id"] == "bad" or replies[0]["id"] == "bad"
        run(body())

    def test_cancel_ack_over_the_wire(self):
        async def body():
            async with SynthesisServer(policy=INLINE) as server:
                host, port = await server.serve_tcp()
                replies = await request_over_tcp(
                    host, port, [{"op": "cancel", "id": "ghost"}])
                assert replies == [{"type": "ack", "op": "cancel",
                                    "id": "ghost", "found": False}]
        run(body())
