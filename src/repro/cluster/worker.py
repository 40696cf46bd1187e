"""Long-lived cluster worker: ``python -m repro worker --connect HOST:PORT``.

A :class:`Worker` opens one TCP connection to the coordinator (retrying
with backoff while the coordinator is still binding — workers and
coordinator usually start together), registers with a ``hello`` carrying
its pid, slot count and code version, and then loops:

* ``chunk`` events are unpacked into :class:`~repro.runtime.jobs.Job`
  lists and executed on a thread pool sized to the worker's ``slots``
  (one chunk per slot in flight; the coordinator never over-commits);
* results go back as one ``chunk_done`` per chunk, pickled;
* a job that raises reports ``chunk_failed`` with the pickled exception —
  the *worker survives* and keeps serving other chunks, the *sweep* fails
  at the submitting call site exactly as it would under the serial
  executor;
* a ``split`` event (protocol v3, the adaptive scheduler reclaiming a
  straggler's backlog) truncates one in-flight chunk to the jobs already
  started: the worker answers ``split_ack`` with the kept count, finishes
  only that prefix and reports it as a partial ``chunk_done`` — the
  coordinator reassigns the tail to an idle worker;
* a ``cancel`` event revokes one in-flight chunk (its run was cancelled):
  the chunk body stops at its next job boundary and reports nothing —
  the worker stays registered and keeps serving other chunks;
* heartbeats are sent at the interval the coordinator's ``welcome``
  announced, so a wedged or killed worker is detected and its chunks are
  reassigned;
* a ``shutdown`` event — or plain end-of-stream when the coordinator goes
  away — terminates the worker.  Workers therefore never outlive their
  coordinator as orphan processes.

Workers are processes, not threads, so a pool of single-slot workers gives
the same CPU-level parallelism as the process-pool executor while being
free to live on other hosts.
"""

from __future__ import annotations

import asyncio
import hashlib
import ipaddress
import os
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from multiprocessing import shared_memory
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro import obs, wire
from repro.cluster import protocol
from repro.runtime.executors import SweepCancelled
from repro.runtime.jobs import Job, code_version

#: Array payloads at least this large take the same-host shared-memory
#: handoff instead of the socket (loopback coordinators only).  Below it
#: the segment setup costs more than the copy it saves.  Overridable with
#: the ``REPRO_SHM_MIN_BYTES`` environment variable; a negative value
#: disables the handoff entirely (useful in tests and constrained
#: containers without a usable /dev/shm).
SHM_MIN_BYTES = 1024 * 1024


def _shm_min_bytes() -> Optional[int]:
    """The effective SHM threshold; ``None`` when the handoff is disabled."""
    raw = os.environ.get("REPRO_SHM_MIN_BYTES")
    if raw is None:
        return SHM_MIN_BYTES
    try:
        value = int(raw)
    except ValueError:
        return SHM_MIN_BYTES
    return None if value < 0 else value


def _is_loopback(host: str) -> bool:
    """True when the coordinator endpoint is on this host (loopback).

    >>> _is_loopback("127.0.0.1"), _is_loopback("localhost")
    (True, True)
    >>> _is_loopback("192.0.2.7"), _is_loopback("coordinator-host")
    (False, False)
    """
    if host == "localhost":
        return True
    try:
        return ipaddress.ip_address(host).is_loopback
    except ValueError:
        return False  # a DNS name other than localhost: assume remote

# Worker-process metrics, scraped from the worker's own --metrics-port
# endpoint (workers are separate processes; the coordinator's registry
# cannot see them).
_CHUNKS_DONE = obs.counter(
    "repro_worker_chunks_done_total", "Chunks completed by this worker process."
)
_JOBS_DONE = obs.counter(
    "repro_worker_jobs_done_total", "Jobs completed by this worker process."
)
_CHUNK_SECONDS = obs.histogram(
    "repro_worker_chunk_seconds", "Wall time of chunks executed by this worker."
)
_SHM_FALLBACKS = obs.counter(
    "repro_cluster_shm_fallback_total",
    "Array results sent as a socket frame because no shared-memory segment "
    "could be created.",
)


class ChunkProgress:
    """Thread-shared execution state of one in-flight chunk.

    The chunk body (a worker thread) and the connection's read loop (the
    asyncio thread) coordinate through this object: the body claims jobs
    one at a time via :meth:`try_start`, a coordinator ``split`` lands via
    :meth:`split`, and a ``cancel`` sets :attr:`cancel`.  The lock makes
    the split decision exact — the acked ``kept`` count is precisely the
    number of results the eventual (partial) ``chunk_done`` will carry,
    because a job is either started before the split (and kept) or not
    (and handed back), never half-way.

    >>> state = ChunkProgress()
    >>> state.try_start(), state.try_start()   # body starts jobs 0 and 1
    (True, True)
    >>> state.split(keep=0)                    # split keeps started jobs only
    2
    >>> state.try_start()                      # the tail was handed back
    False
    >>> state.split(keep=5)                    # a later split cannot re-grow
    2
    """

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.cancel = threading.Event()
        self.started = 0
        self.limit: Optional[int] = None  # None: no split yet, run everything

    def try_start(self) -> bool:
        """Claim the next job for execution; ``False`` past a split limit."""
        with self.lock:
            if self.limit is not None and self.started >= self.limit:
                return False
            self.started += 1
            return True

    def split(self, keep: int) -> int:
        """Truncate to ``max(started, keep)`` jobs; returns the kept count."""
        with self.lock:
            kept = max(self.started, int(keep))
            if self.limit is not None:
                kept = min(kept, self.limit)
            self.limit = kept
            return kept


def _run_jobs(
    jobs: List[Job], state: ChunkProgress, throttle: float = 0.0
) -> List[Any]:
    """Chunk body on the worker thread: run jobs, honour splits/revocation.

    Returns the results of the jobs actually run — the full chunk
    normally, a prefix after a coordinator ``split``.  ``throttle`` adds a
    sleep before every job (the chaos knob behind ``--throttle``).
    """
    results: List[Any] = []
    for job in jobs:
        if state.cancel.is_set():
            raise SweepCancelled("chunk revoked by coordinator")
        if not state.try_start():
            break  # split: the tail belongs to another worker now
        if throttle > 0.0:
            time.sleep(throttle)
        results.append(job.run())
    return results


class WorkerError(RuntimeError):
    """The worker could not register with (or talk to) the coordinator."""


def parse_address(text: str) -> Tuple[str, int]:
    """Parse a ``host:port`` endpoint string.

    >>> parse_address("coordinator-host:7500")
    ('coordinator-host', 7500)
    >>> parse_address("7500")
    Traceback (most recent call last):
        ...
    ValueError: invalid address '7500' (expected HOST:PORT)
    """
    host, separator, port_text = text.rpartition(":")
    if not separator or not host:
        raise ValueError(f"invalid address {text!r} (expected HOST:PORT)")
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"invalid port in address {text!r}") from None
    if not 0 < port < 65536:
        raise ValueError(f"port {port} out of range in address {text!r}")
    return host, port


class Worker:
    """One worker process serving chunks from a coordinator.

    Parameters
    ----------
    host, port:
        Coordinator endpoint.
    slots:
        Chunks this worker runs concurrently (thread pool size).  The
        default of 1 makes a *pool of worker processes* the unit of
        parallelism, matching the process-pool executor's model.
    name:
        Display name reported in ``cluster status``; defaults to
        ``<hostname>-<pid>``.
    connect_timeout:
        Retry-with-backoff budget while the coordinator is still binding.
    throttle:
        Artificial per-job delay in seconds (default 0: none).  A chaos /
        benchmarking knob: a throttled worker is a reproducible straggler
        for exercising the adaptive scheduler (see
        ``benchmarks/bench_adaptive_scheduling.py`` and the heterogeneous
        pool runbook in ``docs/operations.md``).  Never set it in
        production pools.
    metrics_port:
        When set, serve this worker process's Prometheus metrics
        (``repro_worker_*``) on ``127.0.0.1:metrics_port`` for the
        lifetime of the connection (``--metrics-port``; 0 binds an
        ephemeral port, printed on start).
    """

    def __init__(
        self,
        host: str,
        port: int,
        slots: int = 1,
        name: Optional[str] = None,
        connect_timeout: float = 10.0,
        throttle: float = 0.0,
        metrics_port: Optional[int] = None,
    ):
        if slots < 1:
            raise ValueError("slots must be at least 1")
        if throttle < 0:
            raise ValueError("throttle must be non-negative")
        self.host = host
        self.port = port
        self.slots = slots
        self.name = name or f"{socket.gethostname()}-{os.getpid()}"
        self.connect_timeout = connect_timeout
        self.throttle = throttle
        self.metrics_port = metrics_port
        self.worker_id: Optional[str] = None
        self.chunks_done = 0
        # Shared-memory handoff: only offered to loopback coordinators
        # (same host by construction).  Segments this worker created and
        # has not yet torn down, keyed by name — the worker keeps its
        # handle until shutdown so a coordinator crash between the
        # chunk_done and the attach cannot leak the segment.
        self._shm_enabled = _is_loopback(host)
        self._shm_segments: Dict[str, shared_memory.SharedMemory] = {}

    def _encode_chunk_done(
        self, chunk_id: str, results: List[Any], trace: Optional[str]
    ) -> bytes:
        """Encode one completion, choosing the richest transport available.

        All-array result lists take the protocol-v5 binary frame — raw
        dtype/shape-tagged buffers, no base64 and no pickling; payloads of
        at least :data:`SHM_MIN_BYTES` bound for a loopback coordinator
        ride the shared-memory handoff instead of the socket.  Anything
        else keeps the pickled ``results`` field.  Raises
        :class:`repro.wire.ProtocolError` when the payload exceeds its
        bound — the caller reports ``results_overflow`` and the
        coordinator refits the chunk smaller.
        """
        if results and all(
            isinstance(result, np.ndarray) and not result.dtype.hasobject
            for result in results
        ):
            specs, payload = wire.pack_arrays(results)
            shm_min = _shm_min_bytes()
            if self._shm_enabled and shm_min is not None and len(payload) >= shm_min:
                try:
                    segment = shared_memory.SharedMemory(
                        create=True, size=max(len(payload), 1)
                    )
                except OSError:
                    # no usable /dev/shm: the socket frame below works
                    _SHM_FALLBACKS.inc()
                else:
                    segment.buf[: len(payload)] = payload
                    self._shm_segments[segment.name] = segment
                    return wire.encode_message(
                        protocol.chunk_done_shm_request(
                            chunk_id,
                            specs,
                            len(results),
                            segment.name,
                            hashlib.sha256(payload).hexdigest(),
                            len(payload),
                            trace=trace,
                        )
                    )
            return wire.encode_binary(
                protocol.chunk_done_binary_header(
                    chunk_id, specs, len(results), trace=trace
                ),
                payload,
            )
        return wire.encode_message(
            protocol.chunk_done_request(chunk_id, results, trace=trace)
        )

    def _teardown_shm(self) -> None:
        """Release every shared-memory segment this worker still holds.

        The coordinator unlinks segments it successfully consumed, so the
        common case here is close-plus-tolerated-FileNotFoundError; a
        segment the coordinator never attached (it died first) is unlinked
        here — both death paths leave nothing behind in /dev/shm.
        """
        for segment in self._shm_segments.values():
            try:
                segment.close()
            except (OSError, ValueError):  # repro: ignore[REPRO-ERR01] -- teardown must visit every segment; a close failure cannot be acted on
                pass
            try:
                segment.unlink()
            except FileNotFoundError:
                # Already unlinked by the coordinator.  CPython only
                # unregisters a segment from the resource tracker on a
                # *successful* unlink, so silence the tracker by hand or
                # the interpreter warns about a leak that is not one.
                try:
                    from multiprocessing import resource_tracker

                    resource_tracker.unregister(segment._name, "shared_memory")
                except Exception:  # repro: ignore[REPRO-ERR01] -- tracker internals vary across 3.10/3.12; failing to silence a spurious warning must not fail shutdown
                    pass
            except (OSError, ValueError):  # repro: ignore[REPRO-ERR01] -- teardown must visit every segment; an unlink failure cannot be acted on
                pass
        self._shm_segments.clear()

    async def run(self) -> None:
        """Serve until the coordinator shuts us down or disappears."""
        metrics_server: Optional[obs.MetricsServer] = None
        if self.metrics_port is not None:
            metrics_server = obs.MetricsServer(port=self.metrics_port)
            await metrics_server.start()
            print(
                f"worker metrics on http://127.0.0.1:{metrics_server.port}/metrics",
                flush=True,
            )
        reader, writer = await wire.open_connection(
            self.host, self.port, timeout=self.connect_timeout
        )
        frames = wire.FrameWriter(writer)
        pool = ThreadPoolExecutor(max_workers=self.slots, thread_name_prefix="chunk")
        loop = asyncio.get_running_loop()
        heartbeat_task: Optional["asyncio.Task"] = None
        chunk_tasks: set = set()
        # Per-chunk execution state: a coordinator `cancel` event sets the
        # matching cancel flag (the body stops at its next job boundary)
        # and a `split` truncates the body's job budget via the same state.
        chunk_states: Dict[str, ChunkProgress] = {}

        try:
            if not await frames.send(
                protocol.hello_request(self.name, os.getpid(), self.slots, code_version())
            ):
                return  # the coordinator is already gone
            welcome = await wire.read_message(reader)
            if welcome is None:
                raise WorkerError("coordinator closed the connection during hello")
            if welcome.get("event") == "error":
                raise WorkerError(f"registration rejected: {welcome.get('error')}")
            if welcome.get("event") != "welcome":
                raise WorkerError(f"unexpected registration reply: {welcome}")
            self.worker_id = str(welcome.get("worker"))
            interval = float(welcome.get("heartbeat_seconds", 1.0))

            async def heartbeat_loop() -> None:
                while True:
                    await asyncio.sleep(interval)
                    await frames.send(protocol.heartbeat_request(self.worker_id or ""))

            async def run_chunk(
                chunk_id: str, blob: str, trace: Optional[str] = None
            ) -> None:
                # The state was registered by the read loop when the chunk
                # arrived, so a `cancel` or `split` processed before this
                # task first runs is still seen.
                state = chunk_states.get(chunk_id) or ChunkProgress()
                started = time.monotonic()
                try:
                    jobs = protocol.unpack_jobs(blob)
                    results = await loop.run_in_executor(
                        pool, _run_jobs, jobs, state, self.throttle
                    )
                except asyncio.CancelledError:
                    raise
                except SweepCancelled:
                    # Revoked chunk: the coordinator already disowned it,
                    # so report nothing and stay available for new work.
                    return
                except BaseException as error:  # job failure -> sweep failure
                    if not state.cancel.is_set():
                        await frames.send(protocol.chunk_failed_request(chunk_id, error))
                    return
                finally:
                    chunk_states.pop(chunk_id, None)
                if state.cancel.is_set():
                    # Revocation raced chunk completion; drop the result —
                    # the coordinator would discard it as a duplicate anyway.
                    return
                try:
                    reply = self._encode_chunk_done(chunk_id, results, trace)
                except wire.ProtocolError as error:
                    # Results too large for one frame.  Tagged with the
                    # results_overflow code so the coordinator refits the
                    # chunk smaller instead of failing the sweep; only a
                    # single job whose results alone overflow is fatal.
                    await frames.send(
                        protocol.chunk_failed_request(
                            chunk_id,
                            RuntimeError(
                                f"chunk {chunk_id} results exceed the frame "
                                f"limit ({error}); job results too large for "
                                f"one frame"
                            ),
                            code=protocol.RESULTS_OVERFLOW,
                        )
                    )
                    return
                if not await frames.send_bytes(reply):
                    return  # coordinator gone: the read loop ends the worker
                self.chunks_done += 1
                _CHUNKS_DONE.inc()
                _JOBS_DONE.inc(len(results))
                _CHUNK_SECONDS.observe(time.monotonic() - started)

            def reap_chunk_task(task: "asyncio.Task") -> None:
                chunk_tasks.discard(task)
                if not task.cancelled():
                    task.exception()  # a failed send is fatal via the read loop

            heartbeat_task = asyncio.ensure_future(heartbeat_loop())
            while True:
                message = await wire.read_message(reader)
                if message is None or message.get("event") == "shutdown":
                    break
                if message.get("event") == "chunk":
                    chunk_id = str(message.get("chunk"))
                    chunk_states[chunk_id] = ChunkProgress()
                    trace = message.get("trace")
                    task = asyncio.ensure_future(
                        run_chunk(
                            chunk_id,
                            str(message.get("jobs", "")),
                            trace=str(trace) if trace is not None else None,
                        )
                    )
                    chunk_tasks.add(task)
                    task.add_done_callback(reap_chunk_task)
                elif message.get("event") == "split":
                    # Straggler split: truncate the chunk to the jobs this
                    # worker already started and ack the kept count — the
                    # coordinator reassigns the tail.  A chunk that already
                    # finished (or was never ours) declines with kept=null.
                    chunk_id = str(message.get("chunk"))
                    state = chunk_states.get(chunk_id)
                    kept = (
                        state.split(int(message.get("keep", 0)))
                        if state is not None
                        else None
                    )
                    await frames.send(protocol.split_ack_request(chunk_id, kept))
                elif message.get("event") == "cancel":
                    revoked = chunk_states.get(str(message.get("chunk")))
                    if revoked is not None:
                        revoked.cancel.set()
                elif message.get("event") == "error":
                    raise WorkerError(f"coordinator error: {message.get('error')}")
                # anything else: ignore (forward compatibility)
        except (ConnectionError, OSError, wire.ProtocolError):
            # Coordinator went away mid-stream; exit quietly — the
            # coordinator side reassigns whatever we were running.
            pass
        finally:
            if heartbeat_task is not None:
                heartbeat_task.cancel()
            for task in list(chunk_tasks):
                task.cancel()
            await asyncio.gather(
                *([heartbeat_task] if heartbeat_task else []),
                *chunk_tasks,
                return_exceptions=True,
            )
            pool.shutdown(wait=False, cancel_futures=True)
            self._teardown_shm()
            if metrics_server is not None:
                await metrics_server.stop()
            frames.close()
            await frames.wait_closed()


def run_worker(
    connect: str,
    slots: int = 1,
    name: Optional[str] = None,
    connect_timeout: float = 10.0,
    throttle: float = 0.0,
    metrics_port: Optional[int] = None,
) -> int:
    """Synchronous entry point used by ``python -m repro worker``.

    Parameters
    ----------
    connect:
        Coordinator endpoint as ``HOST:PORT`` (the address the submitting
        process passed to ``--connect``, or printed in ``cluster status``).
    slots:
        Chunks run concurrently by this worker (default 1: parallelism
        comes from running one worker per core).
    name:
        Display name in ``cluster status``; default ``<hostname>-<pid>``.
    connect_timeout:
        Retry-with-backoff budget while the coordinator is still binding.
    throttle:
        Artificial per-job delay in seconds — the deliberate-straggler
        chaos knob (``--throttle``); keep 0 in production pools.
    metrics_port:
        Serve this worker's Prometheus metrics on this port while the
        worker runs (``--metrics-port``; 0 picks an ephemeral port).

    Returns the process exit code: ``0`` on clean shutdown (coordinator
    closed the cluster), ``1`` on registration / transport failure —
    version-mismatch rejections land here, printed to stdout.

    Raises
    ------
    ValueError
        For a malformed ``connect`` address, ``slots < 1`` or a negative
        ``throttle``.
    """
    host, port = parse_address(connect)
    worker = Worker(
        host,
        port,
        slots=slots,
        name=name,
        connect_timeout=connect_timeout,
        throttle=throttle,
        metrics_port=metrics_port,
    )
    try:
        asyncio.run(worker.run())
    except (WorkerError, ConnectionError, OSError) as error:
        print(f"worker error: {error}", flush=True)
        return 1
    except KeyboardInterrupt:
        pass
    return 0
