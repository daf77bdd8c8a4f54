"""Concurrency regressions for the serving tier, on one shared Engine.

The invariants under concurrent clients:

* **single-flight** — N identical two-phase requests collapse onto one
  background exact execution: engine stats deltas are exact (one stream
  query, N approx queries), all waiters receive the *same* result object,
  and the dedup counter accounts for every collapsed request;
* **exact stats under concurrent streams** — N distinct concurrent streams
  leave precisely N stream queries, zero leftover checkpoints and N result
  cache installs;
* **client disconnect mid-stream** — closing the async iterator cancels the
  engine stream cooperatively and leaves a *resumable* checkpoint that a
  later stream completes from, identically to a cold run;
* **client disconnect during background refinement** (the regression this
  PR fixes) — when every waiter detaches before the exact phase finishes,
  the refinement is cancelled cooperatively, its progress is checkpointed,
  and **no orphaned admission checkout remains**.

All async orchestration runs through ``asyncio.run`` inside sync tests (no
async pytest plugin in this environment).
"""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest

from repro import ApproxSpec, Engine
from repro.data import independent_dataset
from repro.index.rtree import AggregateRTree
from repro.index.skyline import skyline
from repro.parallel.compare import assert_results_identical
from repro.serve import KSPRService, ServeConfig, ServeRequest

N, D, K = 160, 3, 3


@pytest.fixture(scope="module")
def case():
    dataset = independent_dataset(N, D, seed=11)
    sky = skyline(AggregateRTree(dataset))
    row = int(np.where(dataset.ids == sky[0])[0][0])
    return dataset, dataset.values[row] * 0.98


def make_service(engine, **overrides) -> KSPRService:
    overrides.setdefault("worker_threads", 4)
    overrides.setdefault("approx", ApproxSpec(epsilon=0.15, delta=0.15, seed=7))
    overrides.setdefault("max_concurrent", 64)
    return KSPRService(engine, ServeConfig(**overrides))


def counter(service: KSPRService, name: str) -> float:
    return service.registry.counter(name).value


# --------------------------------------------------------------------- #
# single-flight
# --------------------------------------------------------------------- #
def test_identical_concurrent_answers_single_flight(case):
    dataset, focal = case
    engine = Engine(dataset, k_max=8)
    service = make_service(engine)
    clients = 6
    request = ServeRequest(focal=focal, k=K)

    async def one_client():
        answer = await service.answer(request)
        exact = await answer.refined()
        answer.close()
        return answer, exact

    async def go():
        results = await asyncio.gather(*(one_client() for _ in range(clients)))
        assert await service.quiesce(timeout=60.0)
        await service.close()
        return results

    results = asyncio.run(go())

    # Engine-side deltas are exact: one approx query per client plus exactly
    # ONE exact stream execution for all of them.
    assert engine.metrics()["engine.queries"] == clients + 1
    assert engine.metrics()["engine.stream.queries"] == 1
    assert engine.metrics()["engine.partial_store.entries"] == 0

    # Every waiter observed the very same exact result object.
    exacts = [exact for _answer, exact in results]
    assert all(exact is not None for exact in exacts)
    assert all(exact is exacts[0] for exact in exacts)

    # Service-side accounting: one launch, the rest deduplicated.
    assert counter(service, "serve.refinements.started.total") == 1
    assert counter(service, "serve.refinements.deduplicated.total") == clients - 1
    assert counter(service, "serve.refinements.completed.total") == 1
    assert counter(service, "serve.refinements.cancelled.total") == 0
    assert counter(service, "serve.honesty.violations.total") == 0

    # The refinement's answer is the engine's cached exact answer now.
    assert engine.query(focal, K) is exacts[0]
    assert service.admission.active == 0


def test_distinct_concurrent_streams_leave_exact_stats(case):
    dataset, focal = case
    engine = Engine(dataset, k_max=8)
    service = make_service(engine)
    ks = [1, 2, 3, 4]

    async def drain(k: int):
        events = []
        async for event in service.stream(ServeRequest(focal=focal, k=k)):
            events.append(event)
        return events

    async def go():
        streams = await asyncio.gather(*(drain(k) for k in ks))
        assert await service.quiesce(timeout=60.0)
        await service.close()
        return streams

    streams = asyncio.run(go())
    for events in streams:
        assert events[-1][0] == "exact"

    assert engine.metrics()["engine.stream.queries"] == len(ks)
    assert engine.metrics()["engine.queries.cold"] == len(ks)
    assert engine.metrics()["engine.stream.resumes"] == 0
    assert engine.metrics()["engine.partial_store.entries"] == 0
    assert engine.metrics()["engine.result_cache.entries"] == len(ks)
    assert service.admission.active == 0
    assert counter(service, "serve.streams.total") == len(ks)
    assert counter(service, "serve.disconnects.total") == 0


# --------------------------------------------------------------------- #
# cancellation mid-stream
# --------------------------------------------------------------------- #
def test_stream_disconnect_checkpoints_and_resumes(case):
    dataset, focal = case
    engine = Engine(dataset, k_max=8)
    service = make_service(engine)

    async def go():
        events = service.stream(ServeRequest(focal=focal, k=K))
        first = await anext(events)
        assert first[0] == "partial" and not first[1]["done"]
        await events.aclose()  # the client vanishes mid-stream
        assert await service.quiesce(timeout=60.0)
        await service.close()

    asyncio.run(go())

    # The abandoned stream checkpointed, no capacity leaked.
    assert engine.metrics()["engine.partial_store.entries"] == 1
    assert engine.metrics()["engine.partial_store.saved"] == 1
    assert service.admission.active == 0
    assert service.admission.live_checkouts() == []
    assert counter(service, "serve.disconnects.total") == 1

    # The checkpoint is resumable and completes identically to a cold run.
    resumed = list(engine.query_stream(focal, K))
    assert resumed[-1].done
    assert engine.metrics()["engine.stream.resumes"] == 1
    assert_results_identical(
        resumed[-1].to_result(), Engine(dataset, k_max=8).query(focal, K)
    )


# --------------------------------------------------------------------- #
# disconnect during background refinement (the fixed regression)
# --------------------------------------------------------------------- #
class GatedStreamEngine(Engine):
    """An Engine whose exact streams wait on a gate before each work unit.

    Makes "the client disconnects while the background refinement is still
    running" deterministic: clear the gate, let the approx phase answer,
    disconnect, then open the gate and watch the refinement observe its
    cancellation instead of finishing.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.gate = threading.Event()
        self.gate.set()

    def query_stream(self, *args, **kwargs):
        inner = super().query_stream(*args, **kwargs)

        def gated():
            try:
                while True:
                    self.gate.wait()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    yield item
            finally:
                inner.close()

        return gated()


def test_disconnect_during_refinement_cancels_and_releases_budget(case):
    dataset, focal = case
    engine = GatedStreamEngine(dataset, k_max=8)
    service = make_service(engine)

    async def go():
        engine.gate.clear()  # refinement will block before its first unit
        answer = await service.answer(ServeRequest(focal=focal, k=K))
        assert answer.will_refine
        assert service.pending_refinements() == 1
        answer.close()  # last waiter gone -> cooperative cancel requested
        engine.gate.set()
        assert await service.quiesce(timeout=60.0)
        refined = await answer.refined()
        await service.close()
        return refined

    refined = asyncio.run(go())

    # The refinement was cancelled, not completed; a cancelled refinement
    # resolves its waiters with None.
    assert refined is None
    assert counter(service, "serve.refinements.cancelled.total") == 1
    assert counter(service, "serve.refinements.completed.total") == 0
    assert service.pending_refinements() == 0

    # No orphaned checkout: the disconnect released its admission slot.
    assert service.admission.active == 0
    assert service.admission.live_checkouts() == []
    assert service.admission.counters["admitted"] == 1
    assert service.admission.counters["released"] == 1

    # The cancelled exact work was checkpointed inside the engine, and the
    # checkpoint resumes to the same answer a cold engine computes.
    # (Refinements stream with capture=False, so the resume must too — a
    # capture=True caller would correctly recompute instead.)
    assert engine.metrics()["engine.partial_store.entries"] == 1
    final = list(engine.query_stream(focal, K, capture=False))[-1]
    assert final.done and engine.metrics()["engine.stream.resumes"] == 1
    assert_results_identical(
        final.to_result(), Engine(dataset, k_max=8).query(focal, K)
    )


def test_surviving_waiter_keeps_shared_refinement_alive(case):
    dataset, focal = case
    engine = GatedStreamEngine(dataset, k_max=8)
    service = make_service(engine)
    request = ServeRequest(focal=focal, k=K)

    async def go():
        engine.gate.clear()
        first = await service.answer(request)
        second = await service.answer(request)
        assert service.pending_refinements() == 1
        first.close()  # one client leaves; the other still waits
        engine.gate.set()
        exact = await second.refined()
        second.close()
        assert await service.quiesce(timeout=60.0)
        await service.close()
        return exact

    exact = asyncio.run(go())
    assert exact is not None, "a disconnect must not cancel other clients' refinement"
    assert counter(service, "serve.refinements.started.total") == 1
    assert counter(service, "serve.refinements.deduplicated.total") == 1
    assert counter(service, "serve.refinements.completed.total") == 1
    assert counter(service, "serve.refinements.cancelled.total") == 0
    assert service.admission.active == 0
