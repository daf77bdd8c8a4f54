"""Serving-tier contract of standing subscriptions (`repro.live` over SSE).

What the serving layer must add on top of the live tier's own guarantees:

* **delivery order** — a subscription delivers its catch-up and live
  ``delta`` events in strict ``version`` order with consecutive
  per-connection ``seq`` numbers;
* **resumability** — a client that disconnects and reconnects with
  ``resume_from=<last acked version>`` sees every missed event exactly
  once (no gaps, no duplicates), and a reconnect that outruns the
  bounded event log degrades to a single fresh ``snapshot`` — never a
  silent gap;
* **capacity hygiene** — closing a subscription (client disconnect)
  releases its admission checkout immediately, while the standing query
  itself stays registered for the next reconnect;
* **update path** — ``apply_updates`` answers with the applied batch's
  assigned ids and fingerprint only after every standing query has been
  repaired, and the new ``serve.*`` subscription counters stay inside
  the declared catalogue.

Each test drives ``asyncio.run`` inside a sync test (the environment has
no async pytest plugin, by design).
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro import Engine, UpdateOp
from repro.data import independent_dataset
from repro.live.standing import StandingQuery
from repro.obs.names import ALL_METRIC_NAMES
from repro.serve import (
    AdmissionError,
    KSPRService,
    ServeClient,
    ServeConfig,
    ServeRequest,
    ServeServer,
)


def _make(n: int = 48, d: int = 3, seed: int = 5):
    dataset = independent_dataset(n, d, seed=seed)
    rng = np.random.default_rng(seed + 1)
    focal = dataset.values[int(rng.integers(dataset.cardinality))] * 0.98
    return dataset, focal


def _dominating(focal: np.ndarray, step: int) -> UpdateOp:
    """An insert that dominates the focal record — a guaranteed repair."""
    return UpdateOp.insert(focal * (1.02 + 0.01 * step))


async def _drain(service: KSPRService) -> None:
    assert await service.quiesce(timeout=30.0)
    await service.close()


# --------------------------------------------------------------------- #
# delivery order
# --------------------------------------------------------------------- #
def test_subscription_delivers_deltas_in_version_order_with_consecutive_seq():
    dataset, focal = _make()
    service = KSPRService(Engine(dataset), ServeConfig(worker_threads=2))

    async def run():
        events = []
        subscription = service.subscribe(ServeRequest(focal=focal, k=2))
        name, payload = await asyncio.wait_for(anext(subscription), 10)
        events.append((name, payload))
        assert name == "snapshot" and payload["seq"] == 0

        for step in range(3):
            await service.apply_updates([_dominating(focal, step)])
            name, payload = await asyncio.wait_for(anext(subscription), 10)
            events.append((name, payload))

        await subscription.aclose()
        # aclose() ran the generator's finally: the checkout is back.
        assert service.admission.active == 0
        await _drain(service)
        return events

    events = asyncio.run(run())
    versions = [payload["version"] for _name, payload in events]
    seqs = [payload["seq"] for _name, payload in events]
    assert versions == list(range(versions[0], versions[0] + len(versions)))
    assert seqs == list(range(len(events)))
    assert all(name == "delta" for name, _payload in events[1:])
    assert all(payload["kind"] == "repair" for _name, payload in events[1:])


# --------------------------------------------------------------------- #
# resumability
# --------------------------------------------------------------------- #
def test_reconnect_with_resume_from_replays_missed_events_exactly_once():
    dataset, focal = _make(seed=6)
    service = KSPRService(Engine(dataset), ServeConfig(worker_threads=2))

    async def run():
        first = service.subscribe(ServeRequest(focal=focal, k=2))
        _name, snapshot = await asyncio.wait_for(anext(first), 10)
        await service.apply_updates([_dominating(focal, 0)])
        _name, delta = await asyncio.wait_for(anext(first), 10)
        await first.aclose()  # client disconnects...
        assert service.admission.active == 0

        # ...misses two more repairs while away...
        for step in (1, 2):
            await service.apply_updates([_dominating(focal, step)])

        # ...and reconnects from the last version it acked.
        acked = delta["version"]
        second = service.subscribe(
            ServeRequest(focal=focal, k=2, resume_from=acked)
        )
        replay = [await asyncio.wait_for(anext(second), 10) for _ in range(2)]
        await second.aclose()
        await _drain(service)
        return snapshot, delta, replay

    snapshot, delta, replay = asyncio.run(run())
    replayed_versions = [payload["version"] for _name, payload in replay]
    # Exactly the missed events, in order: no gap after the acked version,
    # no duplicate of anything the first connection already delivered.
    assert replayed_versions == [delta["version"] + 1, delta["version"] + 2]
    assert all(name == "delta" for name, _payload in replay)
    assert [payload["seq"] for _name, payload in replay] == [0, 1]
    assert snapshot["version"] < replayed_versions[0]

    registry = service.registry.snapshot()
    assert registry["serve.subscriptions.total"] == 2
    assert registry["serve.subscription.resumes.total"] == 1
    assert registry["serve.updates.total"] == 3


def test_resume_outrunning_the_bounded_log_falls_back_to_one_snapshot():
    dataset, focal = _make(seed=7)
    engine = Engine(dataset)
    standing = StandingQuery(engine.live, focal, 2, method="cta", log_limit=2)

    # Push enough repairs through that the 2-event log no longer reaches
    # back to the acked version (the query is driven directly because a
    # custom log_limit is a test-only knob).
    for step in range(4):
        applied = engine.apply_updates([_dominating(focal, step)])
        standing.apply(applied.pairs)
    assert standing.repairs == 4

    received: list = []
    catch_up = standing.attach(received.append, resume_from=1)
    # Not covered by the log: one fresh snapshot at the current version —
    # never a partial replay that would silently skip versions 2..3.
    assert [event.kind for event in catch_up] == ["snapshot"]
    assert catch_up[0].version == standing.version

    # A covered ack right at the log edge still replays gap-free.
    covered = standing.attach(received.append, resume_from=standing.version - 2)
    assert [event.version for event in covered] == [
        standing.version - 1, standing.version
    ]
    assert all(event.kind == "repair" for event in covered)


# --------------------------------------------------------------------- #
# capacity hygiene
# --------------------------------------------------------------------- #
def test_cancelled_subscription_releases_its_admission_checkout():
    dataset, focal = _make(seed=8)
    service = KSPRService(
        Engine(dataset), ServeConfig(worker_threads=2, max_concurrent=1)
    )

    async def run():
        first = service.subscribe(ServeRequest(focal=focal, k=2))
        await asyncio.wait_for(anext(first), 10)
        assert service.admission.active == 1

        # The single admission slot is taken: a second subscription sheds.
        second = service.subscribe(ServeRequest(focal=focal, k=2))
        with pytest.raises(AdmissionError):
            await anext(second)
        await second.aclose()

        # Cancelling the first frees the slot for the retry...
        await first.aclose()
        assert service.admission.active == 0
        retry = service.subscribe(ServeRequest(focal=focal, k=2))
        name, payload = await asyncio.wait_for(anext(retry), 10)
        await retry.aclose()
        await _drain(service)
        return name, payload

    name, payload = asyncio.run(run())
    # ...and the standing query survived the disconnects: the reconnect's
    # snapshot is served at the maintained version, not recomputed at 1.
    assert name == "snapshot"
    assert payload["version"] >= 1


# --------------------------------------------------------------------- #
# HTTP binding + update path
# --------------------------------------------------------------------- #
def test_http_subscribe_update_resume_round_trip():
    dataset, focal = _make(seed=9)
    service = KSPRService(Engine(dataset), ServeConfig(worker_threads=2))

    async def run():
        async with ServeServer(service) as server, ServeClient(*server.address) as client:
            request = {"focal": focal.tolist(), "k": 2}

            got: list = []

            async def consume():
                async for event in client.subscribe_events(request):
                    got.append(event)
                    if len(got) >= 2:
                        break

            consumer = asyncio.create_task(consume())
            await asyncio.sleep(0.2)

            applied = await client.update(
                {"inserts": [(focal * 1.05).tolist()], "deletes": []}
            )
            assert applied["phase"] == "applied"
            assert applied["inserts"] == 1 and applied["deletes"] == 0
            assert len(applied["assigned_ids"]) == 1
            assert applied["fingerprint"] == service.engine.fingerprint

            await asyncio.wait_for(consumer, 15)

            # Delete what we inserted, then reconnect from the acked version.
            await client.update({"deletes": applied["assigned_ids"]})
            acked = got[-1][1]["version"]
            resumed: list = []
            async for event in client.subscribe_events({**request, "resume_from": acked}):
                resumed.append(event)
                break

            # Malformed bodies are rejected before any engine work.
            from repro.serve import ServeHTTPError

            with pytest.raises(ServeHTTPError) as excinfo:
                await client.update({"inserts": "nope"})
            assert excinfo.value.status == 400
            with pytest.raises(ServeHTTPError) as excinfo:
                await client.update({"deletes": [999_999]})
            assert excinfo.value.status == 400

            # Disconnect cleanup is asynchronous from the client's view;
            # wait for the released checkouts before shutting down.
            for _ in range(200):
                if service.admission.active == 0:
                    break
                await asyncio.sleep(0.02)
            assert service.admission.active == 0
            return got, resumed

    got, resumed = asyncio.run(run())
    assert [name for name, _payload in got] == ["snapshot", "delta"]
    assert resumed[0][0] == "delta"
    assert resumed[0][1]["version"] == got[-1][1]["version"] + 1
    assert resumed[0][1]["kind"] == "repair"

    # Catalogue consistency of the serving registry, new counters included.
    registered = {
        instrument.name for instrument in service.registry.instruments()
    }
    stray = {
        name for name in registered
        if name not in ALL_METRIC_NAMES and not name.startswith("serve.rejected.")
    }
    assert not stray, f"serve names missing from the catalogue: {sorted(stray)}"
    assert {"serve.subscriptions.total", "serve.subscription.deltas.total",
            "serve.subscription.resumes.total", "serve.updates.total"} <= registered
