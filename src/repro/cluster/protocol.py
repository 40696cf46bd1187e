"""Wire protocol of the distributed executor: coordinator <-> workers.

Messages ride the shared newline-delimited-JSON framing of
:mod:`repro.wire` (one JSON object per line, 8 MB frame guard) over plain
TCP, the same substrate the sweep service speaks.  Two kinds of peers talk
to a :class:`~repro.cluster.coordinator.Coordinator`:

**Workers** (``python -m repro worker --connect HOST:PORT``):

``{"op": "hello", "name": ..., "pid": ..., "slots": N,
   "protocol": 1, "code_version": ...}``
    Registration.  The coordinator answers ``welcome`` (assigning the
    worker id and the heartbeat interval) or ``error`` (protocol or code
    version mismatch — a worker running different code must never compute
    shards, the results would not be bit-identical).
``{"op": "heartbeat", "worker": <id>}``
    Periodic liveness beacon; a worker silent for longer than the
    coordinator's heartbeat timeout is declared dead and its chunks are
    reassigned.
``{"op": "chunk_done", "chunk": <id>, "results": <blob>, "count": N,
   ["trace": <id>]}``
    One finished chunk; ``results`` is the pickled result list
    (:func:`pack_results`) and ``count`` its length.  After a granted
    ``split`` this is a **partial-completion ack**: ``count`` equals the
    ``kept`` value of the preceding ``split_ack`` and the results cover
    only the kept prefix of the chunk's jobs.  ``trace`` echoes the
    optional observability id the chunk was dispatched with.
``{"op": "chunk_done", "chunk": <id>, "count": N, "arrays": [...],
   "binary": B, ...payload...}``
    Protocol v5 **binary completion**: when every result in the chunk is a
    NumPy array, the worker ships them as one :mod:`repro.wire` binary
    frame — ``arrays`` carries the dtype/shape specs
    (:func:`repro.wire.pack_arrays`) and the ``B`` raw payload bytes
    follow the header line.  No ``results`` field; the coordinator
    rebuilds the arrays zero-copy with :func:`repro.wire.unpack_arrays`.
``{"op": "chunk_done", "chunk": <id>, "count": N, "arrays": [...],
   "shm": <name>, "digest": <sha256 hex>, "size": B}``
    Protocol v5 **shared-memory completion** (same-host workers only): the
    payload bytes live in the named ``multiprocessing.shared_memory``
    segment instead of crossing the socket.  The coordinator attaches,
    verifies the SHA-256 ``digest`` over the ``size`` payload bytes,
    copies the results out and unlinks the segment; the worker keeps its
    handle until shutdown so a coordinator crash cannot leak the segment.
``{"op": "split_ack", "chunk": <id>, "kept": K}``
    Answer to a coordinator ``split`` event (protocol v3).  ``K`` is the
    number of leading jobs the worker keeps (already started jobs can
    never be handed back, so ``K >= jobs started``); the coordinator
    reassigns the chunk's unstarted tail.  ``kept: null`` declines the
    split — the chunk already finished or was never held.
``{"op": "chunk_failed", "chunk": <id>, "error": ..., "exception": <blob>,
   ["code": "results_overflow"]}``
    A job *raised* on the worker (distinct from the worker dying).  The
    coordinator fails the whole sweep with the unpickled exception, exactly
    as the serial executor would have propagated it.  Exception: with
    ``code: "results_overflow"`` (the chunk's pickled results exceed the
    frame limit) and more than one job in the chunk, the coordinator
    *refits* — halves and requeues the chunk — instead of failing.

**Control clients** (``python -m repro cluster status``):

``{"op": "status", "id": ...}``
    Answered with a ``status`` event: workers, queue depths, dispatch /
    steal / retry counters.
``{"op": "ping", "id": ...}``
    Answered with ``pong``.
``{"op": "watch", "id": ...}``
    Answered with ``{"event": "watching", "id": ...}`` and then a live
    stream of ``{"event": "obs", "id": ..., "data": {...}}`` frames, one
    per :mod:`repro.obs` event (``python -m repro cluster status
    --watch`` drives its table from this stream).  The stream ends with
    ``error`` / ``code="cancelled"`` on a ``cancel`` with the same id or
    when the coordinator stops, and with the connection.
``{"op": "cancel", "id": ...}``
    Ends the watch with the same ``id``.  The control ops are shared with
    the service (:mod:`repro.control`); their errors carry ``id`` and ``code``.

Coordinator -> worker events:

``welcome``   — registration accepted; carries ``worker`` (assigned id) and
                ``heartbeat_seconds``.
``chunk``     — one chunk of jobs to run: ``chunk`` (id) plus ``jobs``
                (:func:`pack_jobs` blob), plus an optional ``trace``
                observability id (absent when the run has none — old
                workers simply never see the field, so v3 stays
                wire-compatible).
``split``     — give back the unstarted tail of one in-flight chunk
                (``chunk`` id, ``keep`` floor): the adaptive scheduler
                detected a straggler and wants to reassign the tail to an
                idle worker.  Always answered with ``split_ack``; the
                worker then finishes only the kept prefix and reports it
                via a partial ``chunk_done``.
``cancel``    — drop one in-flight chunk (``chunk`` id): its run was
                cancelled.  The worker stops at the next job boundary and
                reports nothing; a result that still arrives is counted as
                a harmless duplicate and discarded.
``shutdown``  — drain and exit; also implied by end-of-stream.

Job chunks (and results that are not plain NumPy arrays) cross the wire as
base64-wrapped pickles inside the JSON frame.  That keeps the framing
uniform (and debuggable) while letting arbitrary job arguments —
technology cards, multiplier objects, NumPy seeds — travel to the
workers.  All-array chunk results take the protocol-v5 binary frame
instead: raw dtype/shape-tagged buffers with no base64 inflation and no
pickling, optionally handed over through shared memory on the same host.
Pickle implies *trusted peers only*: the
coordinator binds loopback by default, and deployments that spread workers
across hosts are expected to run inside one trust domain (the same stance
``multiprocessing`` takes).  Cache codecs (``encode`` / ``decode``) are
stripped before pickling: artifact caching is resolved coordinator-side
(see :class:`repro.runtime.SweepEngine`), so workers only ever see cache
misses and lambda codecs never break job transport.
"""

from __future__ import annotations

import base64
import dataclasses
import pickle
from typing import Any, Dict, List, Optional, Sequence

from repro.runtime.jobs import Job

#: Bumped on incompatible cluster-wire changes; checked during ``hello``.
#: Version 2 added the ``cancel`` event (coordinator -> worker chunk
#: revocation for cancelled runs).  Version 3 added the adaptive-scheduler
#: frames: the ``split`` event, the ``split_ack`` / partial ``chunk_done``
#: acks, and the ``count`` field on ``chunk_done``.  Version 5 added the
#: binary ``chunk_done`` completions (raw array payloads via
#: :mod:`repro.wire` binary frames) and the same-host shared-memory
#: handoff (``shm`` / ``digest`` / ``size`` fields); version 4 was skipped
#: so both wire tiers — this protocol and the service protocol — advertise
#: the same version for the shared binary-frame substrate.
CLUSTER_PROTOCOL_VERSION = 5

#: Worker -> coordinator ``op`` vocabulary.  Like the service tuples in
#: :mod:`repro.service.protocol`, these are pinned three ways: documented
#: frame-by-frame in ``docs/protocol.md`` (checked by
#: ``tests/test_docs.py``) and enforced at every send/match site by the
#: ``REPRO-PROTO01`` lint rule — a frame type not listed here cannot ship.
WORKER_OPS = ("hello", "heartbeat", "chunk_done", "split_ack", "chunk_failed")

#: Control-client -> coordinator ``op`` vocabulary (``cluster status``).
CONTROL_OPS = ("status", "ping", "watch", "cancel")

#: Coordinator -> peer ``event`` vocabulary (workers and control clients).
COORDINATOR_EVENTS = (
    "welcome",
    "chunk",
    "split",
    "cancel",
    "shutdown",
    "error",
    "status",
    "pong",
    "watching",
    "obs",
)


# ----------------------------------------------------------------------
# Pickle transport helpers
# ----------------------------------------------------------------------
def _pack(payload: Any) -> str:
    return base64.b64encode(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)).decode("ascii")


def _unpack(blob: str) -> Any:
    return pickle.loads(base64.b64decode(blob.encode("ascii")))


def pack_jobs(jobs: Sequence[Job]) -> str:
    """Serialise a chunk of jobs for the wire.

    Cache codecs are stripped (workers never touch the artifact cache), so
    jobs whose ``encode`` / ``decode`` are closures or lambdas — legal for
    every in-process executor — remain transportable.  ``fn`` itself must
    be a module-level callable, the same constraint the process-pool
    executor imposes.
    """
    stripped = [dataclasses.replace(job, key=None, encode=None, decode=None) for job in jobs]
    return _pack(stripped)


def unpack_jobs(blob: str) -> List[Job]:
    """Deserialise a :func:`pack_jobs` chunk."""
    return list(_unpack(blob))


def pack_results(results: Sequence[Any]) -> str:
    """Serialise a chunk's result list for the wire."""
    return _pack(list(results))


def unpack_results(blob: str) -> List[Any]:
    """Deserialise a :func:`pack_results` list."""
    return list(_unpack(blob))


def pack_exception(error: BaseException) -> str:
    """Serialise a job exception (best effort — falls back to the repr)."""
    try:
        return _pack(error)
    except Exception:
        return _pack(RuntimeError(f"{type(error).__name__}: {error}"))


def unpack_exception(blob: Optional[str], message: str) -> BaseException:
    """Recover a job exception; a transport failure degrades to RuntimeError."""
    if blob:
        try:
            recovered = _unpack(blob)
            if isinstance(recovered, BaseException):
                return recovered
        except Exception:  # repro: ignore[REPRO-ERR01] -- documented degradation: an undecodable exception blob falls back to the RuntimeError below
            pass
    return RuntimeError(message)


# ----------------------------------------------------------------------
# Message constructors (shared by coordinator and worker so field names
# can never drift apart)
# ----------------------------------------------------------------------
def hello_request(name: str, pid: int, slots: int, code_version: str) -> Dict[str, Any]:
    return {
        "op": "hello",
        "name": name,
        "pid": pid,
        "slots": slots,
        "protocol": CLUSTER_PROTOCOL_VERSION,
        "code_version": code_version,
    }


def welcome_event(worker_id: str, heartbeat_seconds: float) -> Dict[str, Any]:
    return {"event": "welcome", "worker": worker_id, "heartbeat_seconds": heartbeat_seconds}


def heartbeat_request(worker_id: str) -> Dict[str, Any]:
    return {"op": "heartbeat", "worker": worker_id}


def chunk_event(
    chunk_id: str, jobs: Sequence[Job], trace: Optional[str] = None
) -> Dict[str, Any]:
    """One chunk of work.  ``trace`` (optional, protocol v3 stays
    wire-compatible: absent on the wire when ``None``) is the originating
    request's observability id; workers echo it on ``chunk_done`` so a
    completion stays attributable across tiers."""
    message = {"event": "chunk", "chunk": chunk_id, "jobs": pack_jobs(jobs)}
    if trace is not None:
        message["trace"] = trace
    return message


def chunk_done_request(
    chunk_id: str, results: Sequence[Any], trace: Optional[str] = None
) -> Dict[str, Any]:
    """Completion ack; ``count`` < the dispatched job count after a split.

    ``trace`` echoes the optional trace id of the ``chunk`` event that
    dispatched this work (omitted from the frame when ``None``)."""
    message = {
        "op": "chunk_done",
        "chunk": chunk_id,
        "results": pack_results(results),
        "count": len(results),
    }
    if trace is not None:
        message["trace"] = trace
    return message


def chunk_done_binary_header(
    chunk_id: str,
    specs: Sequence[Dict[str, Any]],
    count: int,
    trace: Optional[str] = None,
) -> Dict[str, Any]:
    """Header of a protocol-v5 binary completion.

    The worker encodes this with :func:`repro.wire.encode_binary` around
    the :func:`repro.wire.pack_arrays` payload; ``specs`` is the codec's
    dtype/shape list and ``count`` the number of results (== number of
    arrays).  No ``results`` field rides along — the payload *is* the
    result list."""
    message: Dict[str, Any] = {
        "op": "chunk_done",
        "chunk": chunk_id,
        "count": int(count),
        "arrays": list(specs),
    }
    if trace is not None:
        message["trace"] = trace
    return message


def chunk_done_shm_request(
    chunk_id: str,
    specs: Sequence[Dict[str, Any]],
    count: int,
    shm_name: str,
    digest: str,
    size: int,
    trace: Optional[str] = None,
) -> Dict[str, Any]:
    """Protocol-v5 shared-memory completion (same-host workers only).

    The array payload lives in the named shared-memory segment rather
    than following the header on the socket; ``digest`` is the SHA-256
    hex digest over the ``size`` payload bytes, verified by the
    coordinator before the results are trusted."""
    message = chunk_done_binary_header(chunk_id, specs, count, trace)
    message["shm"] = shm_name
    message["digest"] = digest
    message["size"] = int(size)
    return message


def split_event(chunk_id: str, keep: int) -> Dict[str, Any]:
    """Ask a worker to hand back the unstarted tail of an in-flight chunk.

    ``keep`` is the floor on how many leading jobs the worker keeps; the
    scheduler's straggler split passes ``keep=0`` ("keep only what you
    already started").
    """
    return {"event": "split", "chunk": chunk_id, "keep": int(keep)}


def split_ack_request(chunk_id: str, kept: Optional[int]) -> Dict[str, Any]:
    """Worker's answer to ``split``: ``kept`` jobs retained, or ``None``
    when the split is declined (chunk finished or unknown)."""
    return {"op": "split_ack", "chunk": chunk_id, "kept": kept}


#: ``chunk_failed`` code marking a *transport* failure (results frame over
#: the wire limit) rather than a job failure: the coordinator refits the
#: chunk smaller instead of failing the sweep (unless it is a single job).
RESULTS_OVERFLOW = "results_overflow"


def chunk_failed_request(
    chunk_id: str, error: BaseException, code: Optional[str] = None
) -> Dict[str, Any]:
    message: Dict[str, Any] = {
        "op": "chunk_failed",
        "chunk": chunk_id,
        "error": f"{type(error).__name__}: {error}",
        "exception": pack_exception(error),
    }
    if code is not None:
        message["code"] = code
    return message


def cancel_event(chunk_id: str) -> Dict[str, Any]:
    return {"event": "cancel", "chunk": chunk_id}


def shutdown_event() -> Dict[str, Any]:
    return {"event": "shutdown"}


def error_event(message: str) -> Dict[str, Any]:
    return {"event": "error", "error": message}
