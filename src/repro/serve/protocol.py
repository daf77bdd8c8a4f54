"""Wire protocol of the serving tier: requests, payloads, SSE framing.

Everything that crosses the wire is defined here, so the asyncio service
(:mod:`repro.serve.service`), the HTTP front-end (:mod:`repro.serve.http`),
the client (:mod:`repro.serve.client`) and the test-suites all speak one
dialect:

* :class:`ServeRequest` — the parsed, validated form of one query request,
  with the wire-relative ``deadline_ms`` already converted to an absolute
  clock instant (:attr:`ServeRequest.deadline_at`) so the same budget covers
  admission queueing *and* stream compute;
* the payload builders — one JSON-able dict per event kind
  (:func:`approx_payload`, :func:`exact_payload`, :func:`partial_payload`,
  :func:`paused_payload`, :func:`error_payload`);
* the SSE framing — :func:`format_sse` / :func:`parse_sse`, the
  ``text/event-stream`` encoding both the server and the client use.

Parsing never *admits* anything: a request with an already-expired deadline
parses fine and is rejected by :class:`repro.serve.AdmissionController`
(satisfying "expired deadlines reject at admission, not mid-query"), while
structurally malformed input raises :class:`BadRequest` here.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from ..approx.estimator import ApproxSpec
from ..approx.result import ApproxKSPRResult
from ..core.result import KSPRResult, PartialKSPRResult
from ..exceptions import InvalidQueryError, ReproError

__all__ = [
    "BadRequest",
    "ServeRequest",
    "parse_request",
    "parse_update_batch",
    "approx_payload",
    "exact_payload",
    "partial_payload",
    "paused_payload",
    "delta_payload",
    "applied_payload",
    "error_payload",
    "format_sse",
    "parse_sse",
]


class BadRequest(ReproError):
    """A structurally malformed serving request (HTTP 400).

    Raised by :func:`parse_request` before any engine work happens; the
    ``reason`` travels in the error payload so clients can distinguish a
    protocol bug from an admission rejection.
    """

    #: HTTP status the front-end maps this error onto.
    status = 400
    #: Machine-readable rejection label.
    reason = "bad_request"

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.message = message


@dataclass(frozen=True)
class ServeRequest:
    """One parsed, validated serving request.

    Parameters
    ----------
    focal:
        The focal record, as a float array.
    k:
        Shortlist size.
    tenant:
        Admission-control identity (``None`` = anonymous, budgeted on the
        shared anonymous bucket).
    method:
        Exact method override for refinement / streaming (engine default
        when ``None``).
    approx:
        Accuracy contract of the phase-one estimate (service default when
        ``None``).
    refine:
        Whether a background exact refinement should follow the approximate
        answer (two-phase mode; default True).
    deadline_at:
        Absolute clock instant (same clock as the service) after which no
        further work may be done for this request; ``None`` = no deadline.
        Propagated into :meth:`repro.engine.Engine.query_stream` budgets.
    max_batches:
        Stream-mode work-unit cap per request (``None`` = run to budget).
    cost:
        Tokens this request charges against the tenant budget.
    anytime:
        Standing subscriptions only: maintain an anytime bracket instead
        of an exact answer.
    resume_from:
        Standing subscriptions only: the last event version the client
        acked before disconnecting; the replay resumes right after it
        (gap-free) or falls back to a fresh ``snapshot`` event.
    """

    focal: np.ndarray
    k: int
    tenant: str | None = None
    method: str | None = None
    approx: ApproxSpec | None = None
    refine: bool = True
    deadline_at: float | None = None
    max_batches: int | None = None
    cost: float = 1.0
    anytime: bool = False
    resume_from: int | None = None


def parse_request(
    payload: dict,
    *,
    now: float | None = None,
    clock: Callable[[], float] = time.perf_counter,
) -> ServeRequest:
    """Validate a decoded JSON body into a :class:`ServeRequest`.

    ``deadline_ms`` on the wire is relative (clients do not share the
    server's clock); it is converted here to the absolute
    :attr:`ServeRequest.deadline_at` using ``now`` (default: ``clock()``).
    A non-positive ``deadline_ms`` yields an already-expired instant —
    deliberately *not* an error here, so admission (and its counters) is the
    single place deadline rejections happen.

    Raises
    ------
    BadRequest
        For a non-object payload, missing/malformed ``focal`` or ``k``,
        non-finite focal values, or malformed optional fields.
    """
    if not isinstance(payload, dict):
        raise BadRequest("request body must be a JSON object")
    if "focal" not in payload:
        raise BadRequest("missing required field 'focal'")
    if "k" not in payload:
        raise BadRequest("missing required field 'k'")
    try:
        focal = np.asarray(payload["focal"], dtype=float)
    except (TypeError, ValueError) as error:
        raise BadRequest(f"malformed 'focal': {error}") from None
    if focal.ndim != 1 or focal.size == 0:
        raise BadRequest("'focal' must be a non-empty flat array of numbers")
    if not np.all(np.isfinite(focal)):
        raise BadRequest("'focal' values must be finite")
    try:
        k = int(payload["k"])
    except (TypeError, ValueError):
        raise BadRequest("'k' must be an integer") from None
    if k < 1:
        raise BadRequest("'k' must be a positive integer")

    tenant = payload.get("tenant")
    if tenant is not None and not isinstance(tenant, str):
        raise BadRequest("'tenant' must be a string")
    method = payload.get("method")
    if method is not None and not isinstance(method, str):
        raise BadRequest("'method' must be a string")

    approx = payload.get("approx")
    if approx is not None:
        try:
            approx = ApproxSpec.coerce(approx)
        except InvalidQueryError as error:
            raise BadRequest(f"malformed 'approx': {error}") from None

    refine = payload.get("refine", True)
    if not isinstance(refine, bool):
        raise BadRequest("'refine' must be a boolean")

    deadline_at = None
    if payload.get("deadline_ms") is not None:
        try:
            deadline_ms = float(payload["deadline_ms"])
        except (TypeError, ValueError):
            raise BadRequest("'deadline_ms' must be a number") from None
        deadline_at = (clock() if now is None else now) + deadline_ms / 1000.0

    max_batches = payload.get("max_batches")
    if max_batches is not None:
        try:
            max_batches = int(max_batches)
        except (TypeError, ValueError):
            raise BadRequest("'max_batches' must be an integer") from None
        if max_batches < 1:
            raise BadRequest("'max_batches' must be a positive integer")

    try:
        cost = float(payload.get("cost", 1.0))
    except (TypeError, ValueError):
        raise BadRequest("'cost' must be a number") from None
    if not cost > 0.0 or not np.isfinite(cost):
        raise BadRequest("'cost' must be a positive finite number")

    anytime = payload.get("anytime", False)
    if not isinstance(anytime, bool):
        raise BadRequest("'anytime' must be a boolean")

    resume_from = payload.get("resume_from")
    if resume_from is not None:
        try:
            resume_from = int(resume_from)
        except (TypeError, ValueError):
            raise BadRequest("'resume_from' must be an integer") from None
        if resume_from < 0:
            raise BadRequest("'resume_from' must be a non-negative integer")

    return ServeRequest(
        focal=focal,
        k=k,
        tenant=tenant,
        method=method,
        approx=approx,
        refine=refine,
        deadline_at=deadline_at,
        max_batches=max_batches,
        cost=cost,
        anytime=anytime,
        resume_from=resume_from,
    )


def parse_update_batch(payload: dict) -> "list":
    """Validate a decoded ``/v1/update`` body into :class:`~repro.live.UpdateOp` list.

    The body carries ``inserts`` (a list of value rows, or
    ``{"values": [...], "id": n}`` objects for explicit ids) and/or
    ``deletes`` (a list of record ids); inserts apply before deletes, in
    listed order.  Structural validation only — id discipline and
    dimensionality are enforced atomically by
    :meth:`repro.engine.Engine.apply_updates`.
    """
    from ..live.updates import UpdateOp

    if not isinstance(payload, dict):
        raise BadRequest("update body must be a JSON object")
    ops: list = []
    inserts = payload.get("inserts", [])
    if not isinstance(inserts, list):
        raise BadRequest("'inserts' must be a list")
    for item in inserts:
        record_id = None
        values = item
        if isinstance(item, dict):
            if "values" not in item:
                raise BadRequest("insert objects need a 'values' field")
            values = item["values"]
            record_id = item.get("id")
        try:
            row = np.asarray(values, dtype=float)
        except (TypeError, ValueError) as error:
            raise BadRequest(f"malformed insert values: {error}") from None
        if row.ndim != 1 or row.size == 0 or not np.all(np.isfinite(row)):
            raise BadRequest("insert values must be a non-empty flat finite array")
        if record_id is not None:
            try:
                record_id = int(record_id)
            except (TypeError, ValueError):
                raise BadRequest("insert 'id' must be an integer") from None
        ops.append(UpdateOp.insert(row, record_id))
    deletes = payload.get("deletes", [])
    if not isinstance(deletes, list):
        raise BadRequest("'deletes' must be a list")
    for item in deletes:
        try:
            ops.append(UpdateOp.delete(int(item)))
        except (TypeError, ValueError):
            raise BadRequest("'deletes' entries must be integers") from None
    if not ops:
        raise BadRequest("update body must carry at least one insert or delete")
    return ops


# --------------------------------------------------------------------- #
# payloads
# --------------------------------------------------------------------- #
def approx_payload(result: ApproxKSPRResult) -> dict[str, Any]:
    """The phase-one event: estimate, confidence interval, contract.

    The interval is computed once; ``meets`` is :meth:`ApproxKSPRResult.meets`
    read off that interval.
    """
    lower, upper = result.confidence_interval()
    return {
        "phase": "approx",
        "estimate": result.estimate,
        "ci_lower": lower,
        "ci_upper": upper,
        "samples": result.samples,
        "hits": result.hits,
        "epsilon": result.epsilon,
        "delta": result.delta,
        "meets": (upper - lower) / 2.0 <= result.epsilon,
        "mode": result.mode,
        "seed": result.seed,
        "k": result.k,
    }


def exact_payload(result: KSPRResult) -> dict[str, Any]:
    """The refinement / terminal event: the exact impact and region count."""
    return {
        "phase": "exact",
        "impact": result.impact_probability(),
        "regions": len(result),
        "k": result.k,
    }


def partial_payload(snapshot: PartialKSPRResult, seq: int) -> dict[str, Any]:
    """One streamed anytime snapshot: bracket, certified regions, progress.

    ``seq`` is the zero-based event index within the stream; clients use it
    to detect reordering (the property tests assert it matches tick order).
    """
    lower, upper = snapshot.impact_bracket()
    return {
        "phase": "partial",
        "seq": int(seq),
        "batches": snapshot.batches,
        "regions": len(snapshot.regions),
        "lower": lower,
        "upper": upper,
        "done": snapshot.done,
        "processed_records": snapshot.processed_records,
    }


def paused_payload(snapshot: PartialKSPRResult | None, seq: int) -> dict[str, Any]:
    """The terminal event of a budget-truncated stream (resumable checkpoint)."""
    return {
        "phase": "paused",
        "seq": int(seq),
        "resumable": True,
        "batches": 0 if snapshot is None else snapshot.batches,
        "regions": 0 if snapshot is None else len(snapshot.regions),
    }


def delta_payload(event: Any, seq: int) -> dict[str, Any]:
    """One standing-subscription event (a :class:`repro.live.DeltaEvent`).

    ``version`` is the standing query's strictly-monotone answer version
    (global across subscribers — the resume cursor); ``seq`` is the
    zero-based event index within *this* connection (the reordering
    detector, mirroring :func:`partial_payload`).
    """
    body = event.as_dict()
    body["phase"] = "delta" if event.kind != "snapshot" else "snapshot"
    body["seq"] = int(seq)
    return body


def applied_payload(applied: Any) -> dict[str, Any]:
    """The ``/v1/update`` response body (an :class:`repro.live.AppliedBatch`)."""
    return {
        "phase": "applied",
        "updates": len(applied),
        "inserts": applied.inserts,
        "deletes": applied.deletes,
        "assigned_ids": [
            op.record_id for op in applied.ops if op.op == "insert"
        ],
        "fingerprint": applied.fingerprint,
        "seq": applied.seq,
    }


def error_payload(reason: str, message: str, **extra: Any) -> dict[str, Any]:
    """A machine-readable error body (shared by HTTP errors and SSE aborts)."""
    return {"phase": "error", "reason": reason, "message": message, **extra}


# --------------------------------------------------------------------- #
# SSE framing
# --------------------------------------------------------------------- #
def format_sse(event: str, data: dict[str, Any]) -> bytes:
    """Encode one Server-Sent Event (``event:`` + JSON ``data:`` + blank line)."""
    body = json.dumps(data, separators=(",", ":"), sort_keys=True)
    return f"event: {event}\ndata: {body}\n\n".encode()


def parse_sse(text: str | bytes) -> list[tuple[str, dict[str, Any]]]:
    """Decode a ``text/event-stream`` body into ``[(event, data), ...]``.

    Tolerates trailing partial frames (they are ignored), so it can be used
    on a truncated capture; used by :class:`repro.serve.ServeClient` and the
    test-suites.
    """
    if isinstance(text, bytes):
        text = text.decode()
    events: list[tuple[str, dict[str, Any]]] = []
    for frame in text.split("\n\n"):
        event_name = None
        data_lines: list[str] = []
        for line in frame.splitlines():
            if line.startswith("event:"):
                event_name = line[len("event:"):].strip()
            elif line.startswith("data:"):
                data_lines.append(line[len("data:"):].strip())
        if event_name is not None and data_lines:
            try:
                decoded = json.loads("\n".join(data_lines))
            except json.JSONDecodeError:
                continue  # truncated trailing frame
            events.append((event_name, decoded))
    return events
