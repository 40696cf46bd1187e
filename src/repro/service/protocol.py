"""Wire protocol of the sweep service: newline-delimited JSON over TCP.

One message per line, UTF-8 JSON objects, ``\\n`` terminated — trivially
debuggable with ``nc`` and language-agnostic on the client side.  The full
frame-by-frame specification (both listeners, size limits, version rules)
lives in ``docs/protocol.md``; this docstring is the summary.

Client → server messages carry an ``op``:

``{"op": "submit", "id": <str>, "workload": <name>, "params": {...}}``
    Run a sweep workload.  ``id`` is a client-chosen request id echoed on
    every event the server emits for this request.  An optional ``sched``
    field (protocol v4) tags the sweep for the multi-tenant scheduler:
    either a job-class name (``"interactive"`` / ``"batch"``) or an
    object ``{"class": ..., "priority": <int>}`` — anything
    :meth:`repro.sched.SchedPolicy.parse` accepts.  Higher-priority
    sweeps dispatch first on the distributed executor and may preempt
    lower-priority in-flight work; an absent field means the batch
    default, preserving pre-v4 behaviour.  Deduplicated submits keep the
    first submitter's policy (like ``trace``).
``{"op": "cancel", "id": <str>}``
    Abort the in-flight submit or watch with the same ``id`` on this
    connection.
    The submit terminates with an ``error`` event (``code="cancelled"``);
    the underlying sweep stops at the next job/chunk boundary once its
    *last* subscribed client has cancelled (single-flighted requests keep
    running while anyone is still waiting).  Closing the connection implies
    cancelling every in-flight submit on it.
``{"op": "status", "id": <str>}``
    Engine / cache / journal / in-flight statistics.
``{"op": "ping", "id": <str>}``
    Liveness probe.
``{"op": "watch", "id": <str>}``
    Subscribe to the live :mod:`repro.obs` event stream (protocol v3).
    Answered with ``watching`` and then one ``obs`` event per
    observability event — submits, cache hits/misses/evictions, chunk
    dispatch/split/steal, cancellations, journal replays — until the
    client cancels the id, disconnects, or the server stops.  A slow
    watcher drops its oldest frames rather than stalling the server.

Server → client messages carry an ``event`` and the originating ``id``:

``accepted``   — submit validated; ``key`` is the request fingerprint,
                 ``deduplicated`` tells whether the request piggybacks on
                 an identical in-flight sweep (single-flight), and
                 ``trace`` is the server-minted observability id that
                 every metric sample and ``obs`` event of this sweep
                 carries across all tiers (see :mod:`repro.obs`).
``progress``   — one engine progress tick: ``done`` / ``total`` / ``label``.
``result``     — terminal success; ``payload`` is the workload's return
                 value, ``elapsed_seconds`` the server-side wall time.
``error``      — terminal failure (or protocol-level complaint when ``id``
                 is null).  Carries a stable ``code``:

                 * ``bad-request`` — the request itself was invalid
                   (unknown workload, malformed fields, cancel of an
                   unknown id);
                 * ``busy``       — rejected by per-client backpressure
                   (in-flight cap, queued-bytes cap or the token-bucket
                   rate limit); may carry ``retry_after_seconds``;
                 * ``cancelled``  — the sweep was cancelled (by this
                   client, the last subscriber, or server shutdown);
                 * ``failed``     — the workload raised or its result
                   could not be serialised.

``watching``   — watch subscription acknowledged; ``obs`` events follow.
``obs``        — one observability event: ``data`` is the event dict
                 (``seq`` / ``ts`` / ``type`` / optional ``trace`` plus
                 type-specific fields; see :data:`repro.obs.EVENT_TYPES`).
``pong`` / ``status`` — replies to the matching ops.

The protocol is intentionally schema-light: :func:`read_message` enforces
only framing (line length, valid JSON, top-level object); per-op field
validation lives with the server, which answers violations with ``error``
events instead of dropping the connection.

The framing itself (``encode_message`` / ``decode_message`` /
``read_message``, the line-length guard and :class:`ProtocolError`) lives in
:mod:`repro.wire` and is shared with the cluster protocol
(:mod:`repro.cluster.protocol`); this module re-exports it so existing
imports keep working and adds the service's message constructors.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

# The control frames shared with the coordinator (repro.control) and the
# shared NDJSON framing, re-exported for backwards compatibility.
from repro.control import (  # noqa: F401  (re-exports)
    cancel_request,
    error_event,
    obs_event,
    watch_request,
)
from repro.wire import (  # noqa: F401  (re-exports)
    MAX_BINARY_BYTES,
    MAX_MESSAGE_BYTES,
    PAYLOAD_KEY,
    ProtocolError,
    decode_message,
    encode_binary,
    encode_message,
    open_connection,
    read_message,
)

#: Bumped on incompatible wire changes; the server reports it in ``status``.
#: Version 2 added the ``cancel`` op, the ``busy`` backpressure rejection
#: and the stable ``code`` field on ``error`` events.  Version 3 added the
#: ``watch`` op (``watching`` ack + ``obs`` event stream) and the ``trace``
#: observability id on ``accepted`` events and ``submit`` requests.
#: Version 4 added the optional ``sched`` field on ``submit`` (job class +
#: priority for the multi-tenant scheduler, :mod:`repro.sched`).
#: Version 5 added binary ``result`` frames for large payloads: the event
#: header declares ``{"binary": N}`` and the JSON-encoded payload follows
#: as N raw bytes with its own :data:`repro.wire.MAX_BINARY_BYTES` bound
#: (the cluster protocol jumped 3 -> 5 in the same release so both tiers
#: advertise one version for the shared binary-frame substrate).
PROTOCOL_VERSION = 5

#: Stable machine-readable failure classes carried by ``error`` events.
ERROR_CODES = ("bad-request", "busy", "cancelled", "failed")

#: Every client -> server ``op`` the service understands.  These tuples
#: are the protocol's *vocabulary*: ``docs/protocol.md`` documents each
#: member (pinned by ``tests/test_docs.py``) and the ``REPRO-PROTO01``
#: lint rule pins every frame-type literal in the codebase against them,
#: so an op can only be added here, in the docs, and in the code together.
SERVICE_OPS = ("submit", "cancel", "status", "ping", "watch")

#: Every server -> client ``event`` the service emits.
SERVICE_EVENTS = (
    "accepted",
    "progress",
    "result",
    "error",
    "watching",
    "obs",
    "pong",
    "status",
)


# ----------------------------------------------------------------------
# Message constructors (shared by server and client so field names can
# never drift apart)
# ----------------------------------------------------------------------
def submit_request(
    request_id: str,
    workload: str,
    params: Optional[Dict[str, Any]] = None,
    trace: Optional[str] = None,
    sched: Optional[Any] = None,
) -> Dict[str, Any]:
    """Submit a workload.  ``trace`` (optional, v3) proposes a client-side
    observability id; the server echoes it on ``accepted`` when the request
    starts a fresh flight, or answers with the first submitter's id when
    the request deduplicates onto an in-flight sweep.  ``sched`` (optional,
    v4) is the scheduling tag — a job-class name or a ``{"class": ...,
    "priority": ...}`` object (:meth:`repro.sched.SchedPolicy.parse`)."""
    message = {
        "op": "submit",
        "id": request_id,
        "workload": workload,
        "params": dict(params or {}),
    }
    if trace is not None:
        message["trace"] = trace
    if sched is not None:
        message["sched"] = sched
    return message


def accepted_event(
    request_id: str, key: str, deduplicated: bool, trace: str = ""
) -> Dict[str, Any]:
    return {
        "event": "accepted",
        "id": request_id,
        "key": key,
        "deduplicated": deduplicated,
        "trace": trace,
    }


def progress_event(request_id: str, done: int, total: int, label: str) -> Dict[str, Any]:
    return {"event": "progress", "id": request_id, "done": done, "total": total, "label": label}


def result_event(request_id: str, payload: Any, elapsed_seconds: float) -> Dict[str, Any]:
    return {
        "event": "result",
        "id": request_id,
        "payload": payload,
        "elapsed_seconds": elapsed_seconds,
    }


#: Results whose JSON encoding exceeds this leave the JSON line for a
#: binary frame (v5): header + raw payload bytes, bounded by
#: :data:`repro.wire.MAX_BINARY_BYTES` instead of the line limit.
RESULT_BINARY_BYTES = 256 * 1024


def result_header(request_id: str, elapsed_seconds: float) -> Dict[str, Any]:
    """Header of a binary ``result`` frame (v5): no inline ``payload`` —
    the JSON-encoded payload follows the line as declared raw bytes."""
    return {
        "event": "result",
        "id": request_id,
        "elapsed_seconds": elapsed_seconds,
    }


def busy_event(
    request_id: Optional[str],
    message: str,
    retry_after_seconds: Optional[float] = None,
) -> Dict[str, Any]:
    """Backpressure rejection: the per-client budget is exhausted.

    ``retry_after_seconds`` (when the limit is the token-bucket rate) tells
    a well-behaved client how long to back off before resubmitting.
    """
    event = error_event(request_id, message, code="busy")
    if retry_after_seconds is not None:
        event["retry_after_seconds"] = retry_after_seconds
    return event
