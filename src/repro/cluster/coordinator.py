"""The cluster coordinator: shard content-hashed jobs across workers.

:class:`Coordinator` is the asyncio server at the heart of the distributed
executor.  Long-lived :class:`~repro.cluster.worker.Worker` processes
connect to it over the shared NDJSON framing (:mod:`repro.wire`), register
with a ``hello`` (checked for protocol *and* code version — a worker running
different code must never compute shards) and then receive chunks of pickled
:class:`~repro.runtime.jobs.Job` units.

Scheduling model (the ARTIQ-style long-lived-worker pattern, adapted to
sweeps; the full design rationale lives in ``docs/scheduling.md``):

* every :meth:`run` splits its job list into contiguous **spans** of
  undispatched work, dealt into per-worker queues; chunks are cut from a
  span's front only *at dispatch time*, which is what lets the adaptive
  policy size them per worker;
* with a ``chunk_window`` configured, each worker's next chunk is sized to
  ``EWMA throughput x window`` (:mod:`repro.telemetry`) — a fast worker
  gets big chunks, a slow one small chunks, and both come back for more on
  the same wall-time cadence.  Without a window, chunks are the static
  ``chunksize`` the run was submitted with (the pre-v3 behaviour);
* each worker holds at most ``slots`` chunks in flight; the scheduler tops
  it up from its own queue first and otherwise **steals half of the
  longest backlog** (by job count) in the cluster, so a fast (or
  late-joining) worker drains the queue of a slow one;
* a **straggler** — a worker whose in-flight chunk has aged past the split
  threshold while other workers sit idle — is sent a ``split`` frame
  (protocol v3): it keeps the jobs it already started, acks the kept count
  (``split_ack``), and the coordinator reassigns the unstarted tail to the
  idle workers.  The straggler's eventual ``chunk_done`` is a
  partial-completion ack covering only the kept prefix;
* every run carries a :class:`repro.sched.SchedPolicy` (job class +
  integer priority, larger wins): backlogs are priority queues, dispatch
  is globally highest-priority-first, and when a higher-priority sweep
  arrives while every slot is busy the coordinator **preempts** — the
  lowest-priority in-flight chunks receive the same ``split``/``keep=0``
  frame as a straggler, their unstarted tails are requeued (``preempted``
  event), and the paused run is ``resumed`` once its spans dispatch
  again.  Preempted partial completions are telemetry-exempt, so a
  healthy worker is never mistaken for a straggler;
* a worker that dies — its connection drops or its heartbeat goes silent —
  has its queued *and* in-flight work reassigned to the survivors, with a
  bounded retry count so a chunk that kills every worker cannot loop
  forever;
* results are merged **by global job index**, so whatever the dispatch
  schedule, chunk sizing, split or steal history, the returned list is
  bit-identical to a serial run (the same guarantee every in-process
  executor gives);
* a run whose ``cancel_event`` fires is **revoked**: queued spans are
  purged, workers holding in-flight chunks receive ``cancel`` events and
  stop at their next job boundary, and the run fails with
  :class:`~repro.runtime.SweepCancelled` at the submitting call site.

A job that *raises* on a worker is a run failure, not a worker failure: the
original exception travels back pickled and re-raises at the submitting
call site, exactly as under the serial executor.

The coordinator never sees the artifact cache: :class:`repro.runtime.SweepEngine`
resolves cache hits *before* handing jobs to any executor, so warm shards
never leave the host and only genuine misses cross the wire.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import itertools
import time
from multiprocessing import shared_memory
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import control, obs, wire
from repro.cluster import protocol
from repro.runtime.executors import CancelEvent, ProgressCallback, SweepCancelled
from repro.runtime.jobs import Job, code_version
from repro.sched import JOB_CLASSES, PriorityQueue, SchedPolicy
from repro.telemetry import TelemetryBook, WorkerStats

#: Age multiplier before an in-flight chunk is split: a chunk sized to the
#: window that is still running after ``SPLIT_AGE_FACTOR x window`` seconds
#: while other workers idle marks its worker as a straggler.
SPLIT_AGE_FACTOR = 1.5

#: Help strings of the coordinator counters; each backs a registry metric
#: ``repro_cluster_<key>_total`` *and* the per-instance ``stats`` view the
#: ``status`` op reports (see :class:`repro.obs.CounterGroup`).
_STAT_HELP = {
    "runs": "Runs submitted to the coordinator.",
    "runs_cancelled": "Runs revoked by cooperative cancellation.",
    "chunks_dispatched": "Chunks sent to workers.",
    "chunks_completed": "Chunks completed by workers.",
    "chunks_stolen": "Spans moved by work stealing.",
    "chunks_retried": "Spans reassigned after a worker death.",
    "chunks_cancelled": "In-flight chunks revoked by run cancellation.",
    "chunks_split": "Granted straggler splits (tail reassigned).",
    "splits_requested": "Straggler split requests sent.",
    "chunks_refitted": "Chunks halved to fit the wire frame limit.",
    "jobs_done": "Jobs completed across all runs.",
    "workers_lost": "Workers declared dead.",
    "duplicate_results": "Duplicate chunk results discarded.",
    "scheduler_errors": "Scheduler/reaper iterations that raised.",
    "watch_dropped": "Events dropped from slow watch subscribers (oldest first).",
}

#: Help strings of the multi-tenant scheduler counters (:mod:`repro.sched`);
#: each backs a registry metric ``repro_sched_<key>_total`` *and* the
#: ``sched`` section of the ``status`` document.
_SCHED_STAT_HELP = {
    "preempt_requests": "Preemption requests (split keep=0) sent to workers.",
    "preemptions": "Granted preemptions: unstarted tails revoked and requeued.",
    "resumes": "Preempted runs whose spans were dispatched again.",
    "jobs_requeued": "Jobs handed back to the queues by preemption.",
}

_WORKERS_ALIVE = obs.gauge(
    "repro_cluster_workers_alive_total", "Registered workers currently alive."
)
_CHUNK_SECONDS = obs.histogram(
    "repro_cluster_chunk_seconds",
    "Dispatch-to-completion wall time of cluster chunks.",
)


def _consume_shm_payload(message: Dict[str, Any]) -> bytes:
    """Copy a shared-memory completion's payload out and free the segment.

    Attaches the worker-created segment named in the frame, verifies the
    declared SHA-256 digest over the declared ``size`` bytes, then closes
    *and unlinks* it — unlink-after-copy is the coordinator's half of the
    cleanup contract (the worker tolerates the resulting
    ``FileNotFoundError`` at its own teardown).  Any mismatch raises
    :class:`ClusterError` after the segment has still been released, so a
    corrupt handoff cannot leak /dev/shm space.
    """
    name = str(message.get("shm"))
    declared_digest = str(message.get("digest", ""))
    size = int(message.get("size", -1))
    if size < 0 or size > wire.MAX_BINARY_BYTES:
        raise ClusterError(f"shared-memory completion declares bad size {size}")
    try:
        segment = shared_memory.SharedMemory(name=name)
    except (OSError, ValueError) as error:
        raise ClusterError(f"cannot attach shared memory {name!r}: {error}") from None
    try:
        if segment.size < size:
            raise ClusterError(
                f"shared memory {name!r} holds {segment.size} bytes, "
                f"{size} declared"
            )
        payload = bytes(segment.buf[:size])
    finally:
        segment.close()
        try:
            segment.unlink()
        except FileNotFoundError:  # repro: ignore[REPRO-ERR01] -- the worker already unlinked; nothing left to release
            pass
    if hashlib.sha256(payload).hexdigest() != declared_digest:
        raise ClusterError(f"shared memory {name!r} failed digest verification")
    return payload


def _decode_chunk_results(message: Dict[str, Any]) -> List[Any]:
    """Decode a ``chunk_done`` frame's results, whatever their transport.

    Protocol v5 binary completions carry ``arrays`` specs plus either an
    attached socket payload or a shared-memory reference; anything else is
    the legacy pickled ``results`` field.  Raises :class:`ClusterError` or
    :class:`repro.wire.ProtocolError` on any inconsistency.
    """
    if "arrays" in message:
        if "shm" in message:
            payload = _consume_shm_payload(message)
        else:
            payload = message.get(wire.PAYLOAD_KEY)
            if not isinstance(payload, (bytes, bytearray, memoryview)):
                raise ClusterError("binary completion without an attached payload")
        return list(wire.unpack_arrays(message["arrays"], bytes(payload)))
    return protocol.unpack_results(str(message.get("results", "")))


class ClusterError(RuntimeError):
    """The cluster could not complete a sweep (no workers, retries spent)."""


@dataclasses.dataclass
class WorkerInfo:
    """Snapshot of one registered worker, as reported by ``status``."""

    id: str
    name: str
    pid: int
    slots: int
    alive: bool
    connected_at: float
    last_seen: float
    #: Spans (re-chunkable job ranges) in this worker's queue.  Protocol
    #: v3 renamed the old ``queued_chunks`` field: queues no longer hold
    #: chunks, and a span count says nothing about backlog — read
    #: ``queued_jobs`` for load.
    queued_spans: int
    inflight_chunks: int
    chunks_done: int
    jobs_done: int
    #: Undispatched jobs waiting in this worker's queue — the load signal.
    queued_jobs: int = 0
    #: Jobs currently dispatched to the worker (in-flight chunks).
    inflight_jobs: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


class _Run:
    """One :meth:`Coordinator.run` call: results, progress, completion."""

    _ids = itertools.count(1)

    def __init__(
        self,
        jobs: Sequence[Job],
        progress: Optional[ProgressCallback],
        chunksize: int,
        trace: Optional[str] = None,
        policy: Optional[SchedPolicy] = None,
    ):
        self.id = f"run-{next(self._ids)}"
        self.jobs: List[Job] = list(jobs)
        self.total = len(self.jobs)
        self.chunksize = max(1, int(chunksize))
        #: Observability id of the originating request; stamped on every
        #: chunk frame and event this run produces (``None`` = untraced).
        self.trace = trace
        #: Scheduling class + priority (:mod:`repro.sched`); the batch
        #: default keeps untagged runs exactly where FIFO put them.
        self.policy = policy if policy is not None else SchedPolicy()
        #: ``True`` between a granted preemption and the next dispatch of
        #: this run's work — the coordinator emits ``resumed`` (and counts
        #: the resume) when a paused run's chunk goes out again.
        self.paused = False
        self.results: List[Any] = [None] * self.total
        self.remaining = self.total
        self.progress = progress
        #: Frame-limit cap on this run's chunk sizes, learned when a cut
        #: has to be refitted (halved).  Per-run: the limit is a property
        #: of this run's job payload size, so one fat-job sweep must not
        #: cap a later tiny-job sweep on the same coordinator.
        self.max_chunk_jobs: Optional[int] = None
        self.future: "asyncio.Future[List[Any]]" = asyncio.get_running_loop().create_future()

    @property
    def done(self) -> bool:
        return self.future.done()

    def fail(self, error: BaseException) -> None:
        if not self.future.done():
            self.future.set_exception(error)

    def complete_chunk(self, chunk: "_Chunk", results: List[Any]) -> None:
        if self.done:
            return
        for index, value in zip(chunk.indices, results):
            self.results[index] = value
        self.remaining -= len(results)
        if results and self.progress is not None:
            # Label by index, not chunk.jobs[-1]: the property would copy
            # the whole (possibly huge, window-sized) job slice per tick.
            self.progress(
                self.total - self.remaining, self.total, self.jobs[chunk.stop - 1].name
            )
        if self.remaining == 0:
            self.future.set_result(self.results)


class _Span:
    """A contiguous, undispatched slice ``[start, stop)`` of one run's jobs.

    Queues hold spans, not chunks: the chunk a worker actually receives is
    cut from a span's front at dispatch time, sized by the scheduling
    policy in force at that moment.
    """

    __slots__ = ("run", "start", "stop", "attempts")

    def __init__(self, run: _Run, start: int, stop: int, attempts: int = 0):
        self.run = run
        self.start = start
        self.stop = stop
        self.attempts = attempts

    def __len__(self) -> int:
        return self.stop - self.start


def _span_priority(span: _Span) -> int:
    """Priority key the span queues order by (the owning run's policy)."""
    return span.run.policy.priority


class _Chunk:
    """A dispatched slice of one run's jobs, in flight on one worker."""

    __slots__ = (
        "run",
        "id",
        "start",
        "stop",
        "attempts",
        "dispatched_at",
        "split_requested",
        "preempt_requested",
        "busy_marker",
    )

    def __init__(self, run: _Run, chunk_id: str, start: int, stop: int, attempts: int):
        self.run = run
        self.id = chunk_id
        self.start = start
        self.stop = stop
        self.attempts = attempts
        self.dispatched_at = 0.0
        self.split_requested = False
        # A preemption is a split with different bookkeeping: the flag
        # routes the eventual split_ack to the sched counters and keeps
        # the partial chunk_done out of the straggler telemetry.
        self.preempt_requested = False
        # Busy-integral marker taken at dispatch; the settle-time delta
        # over wall time is this chunk's mean worker occupancy (how many
        # chunks ran concurrently), which de-biases EWMA throughput on
        # multi-slot workers.
        self.busy_marker = 0.0

    def __len__(self) -> int:
        return self.stop - self.start

    @property
    def jobs(self) -> List[Job]:
        return self.run.jobs[self.start : self.stop]

    @property
    def indices(self) -> range:
        return range(self.start, self.stop)

    def to_span(self) -> _Span:
        return _Span(self.run, self.start, self.stop, self.attempts)


class _WorkerLink:
    """Coordinator-side state of one connected worker."""

    def __init__(
        self,
        worker_id: str,
        name: str,
        pid: int,
        slots: int,
        writer: wire.FrameWriter,
    ):
        self.id = worker_id
        self.name = name
        self.pid = pid
        self.slots = max(1, slots)
        self.writer = writer
        self.alive = True
        self.connected_at = time.time()
        self.last_seen = time.time()
        self.queue: PriorityQueue = PriorityQueue(key=_span_priority)
        self.inflight: Dict[str, _Chunk] = {}
        self.chunks_done = 0
        self.jobs_done = 0

    def queued_jobs(self) -> int:
        return sum(len(span) for span in self.queue)

    def inflight_jobs(self) -> int:
        return sum(len(chunk) for chunk in self.inflight.values())

    def load(self) -> int:
        """Jobs this worker is responsible for (queued + in flight)."""
        return self.queued_jobs() + self.inflight_jobs()

    def info(self) -> WorkerInfo:
        return WorkerInfo(
            id=self.id,
            name=self.name,
            pid=self.pid,
            slots=self.slots,
            alive=self.alive,
            connected_at=self.connected_at,
            last_seen=self.last_seen,
            queued_spans=len(self.queue),
            inflight_chunks=len(self.inflight),
            chunks_done=self.chunks_done,
            jobs_done=self.jobs_done,
            queued_jobs=self.queued_jobs(),
            inflight_jobs=self.inflight_jobs(),
        )


class Coordinator:
    """Shard sweeps across long-lived worker processes over TCP.

    Parameters
    ----------
    host, port:
        Bind address of the cluster endpoint; ``port=0`` picks a free port
        (see :attr:`address` after :meth:`start`).  Workers *and* control
        clients (``python -m repro cluster status``) connect here.
    heartbeat_interval:
        Interval workers are told to beacon at.
    heartbeat_timeout:
        Silence threshold after which a worker is declared dead and its
        chunks are reassigned.
    max_chunk_retries:
        How many times one chunk may be reassigned after worker deaths
        before the run fails (guards against a poison chunk that crashes
        every worker it lands on).
    worker_wait_timeout:
        How long dispatched work may sit orphaned with *no* connected
        worker before the owning runs fail (covers workers that never
        start, e.g. a typo'd ``--connect`` address).
    chunk_window:
        Target wall-time per dispatched chunk, in seconds — enabling the
        **adaptive scheduler**: each worker's next chunk is sized to its
        measured EWMA throughput times this window, and in-flight chunks
        of detected stragglers are split so idle workers pick up the
        unstarted tail.  ``None`` (default) keeps static per-run
        chunksizes and disables splitting (pre-v3 behaviour).  See
        ``docs/scheduling.md`` for tuning guidance.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        heartbeat_interval: float = 1.0,
        heartbeat_timeout: float = 5.0,
        max_chunk_retries: int = 3,
        worker_wait_timeout: float = 30.0,
        chunk_window: Optional[float] = None,
    ):
        if heartbeat_interval <= 0 or heartbeat_timeout <= 0:
            raise ValueError("heartbeat interval/timeout must be positive")
        if heartbeat_timeout <= heartbeat_interval:
            raise ValueError("heartbeat_timeout must exceed heartbeat_interval")
        if chunk_window is not None and chunk_window <= 0:
            raise ValueError("chunk_window must be positive (or None for static chunks)")
        self._host = host
        self._port = port
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.max_chunk_retries = max_chunk_retries
        self.worker_wait_timeout = worker_wait_timeout
        self.chunk_window = chunk_window
        self.telemetry = TelemetryBook()
        self._links: Dict[str, _WorkerLink] = {}
        self._orphans: PriorityQueue = PriorityQueue(key=_span_priority)
        self._orphaned_since: Optional[float] = None
        self._runs: Dict[str, _Run] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._tasks: List["asyncio.Task"] = []
        self._kick = asyncio.Event()
        self._worker_ids = itertools.count(1)
        self._chunk_ids = itertools.count(1)
        self._code_version = code_version()
        self._stopping = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        # Control ops run as tasks so a watch never blocks the read loop.
        self._control_tasks: "set[asyncio.Task]" = set()
        # Per-instance view over process-wide registry counters: ``status``
        # reports this coordinator's own counts (zero at birth) while the
        # Prometheus endpoint scrapes the process-lifetime totals.
        self.stats = obs.CounterGroup(
            {
                key: obs.counter(f"repro_cluster_{key}_total", help_text)
                for key, help_text in _STAT_HELP.items()
            }
        )
        self._control = control.ControlPlane(
            self.status_event, obs.counter("repro_cluster_watch_dropped_total")
        )
        # Preemption counters live in their own group so the ``status``
        # document (and docs/scheduling.md) can present the multi-tenant
        # scheduler as one coherent section.
        self.sched_stats = obs.CounterGroup(
            {
                key: obs.counter(f"repro_sched_{key}_total", help_text)
                for key, help_text in _SCHED_STAT_HELP.items()
            }
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """``(host, port)`` actually bound; valid after :meth:`start`."""
        return self._host, self._port

    async def start(self) -> Tuple[str, int]:
        """Bind the cluster endpoint; returns the bound ``(host, port)``."""
        if self._server is not None:
            return self.address
        self._server = await asyncio.start_server(
            self._handle_connection,
            self._host,
            self._port,
            limit=wire.MAX_MESSAGE_BYTES,
        )
        self._port = self._server.sockets[0].getsockname()[1]
        self._loop = asyncio.get_running_loop()
        self._tasks.append(asyncio.ensure_future(self._scheduler_loop()))
        self._tasks.append(asyncio.ensure_future(self._reaper_loop()))
        return self.address

    async def stop(self) -> None:
        """Shut down: tell workers to exit, fail pending runs, close up."""
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for link in list(self._links.values()):
            if link.alive:
                await link.writer.send(protocol.shutdown_event())
                link.alive = False
                link.writer.close()
        for run in list(self._runs.values()):
            run.fail(ClusterError("coordinator stopped"))
        self._runs.clear()
        # Watch streams never end on their own: end them (each answers
        # `cancelled`) before the regular background tasks.
        self._control.stop()
        await asyncio.gather(*self._control_tasks, return_exceptions=True)
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks.clear()

    # ------------------------------------------------------------------
    # Submitting work
    # ------------------------------------------------------------------
    def worker_count(self) -> int:
        """Number of currently alive, registered workers."""
        return sum(1 for link in self._links.values() if link.alive)

    def total_slots(self) -> int:
        """Aggregate chunk slots across alive workers."""
        return sum(link.slots for link in self._links.values() if link.alive)

    async def run(
        self,
        jobs: Sequence[Job],
        chunksize: int,
        progress: Optional[ProgressCallback] = None,
        cancel_event: Optional[CancelEvent] = None,
        trace: Optional[str] = None,
        sched: Optional[Any] = None,
    ) -> List[Any]:
        """Execute ``jobs`` across the cluster; results in submission order.

        ``chunksize`` is the static chunk size — and, under an adaptive
        ``chunk_window``, the probe size used for a worker whose
        throughput has not been measured yet.

        ``progress`` fires on the coordinator's event loop as chunks
        complete, reporting ``(jobs done, jobs total, last job label)`` —
        callers bridging to other threads must pass a thread-safe callback
        (the distributed executor and the service broadcaster both do).

        ``cancel_event`` (a :class:`threading.Event`, settable from any
        thread) enables cooperative cancellation: a watcher polls it and,
        once set, revokes the run's queued spans, tells workers to drop
        its in-flight chunks (``cancel`` events) and fails the run with
        :class:`~repro.runtime.SweepCancelled`.

        ``trace`` is the originating request's observability id; it rides
        every chunk frame of this run (protocol v3, optional field) and is
        echoed back on ``chunk_done``, so metrics and ``watch`` events stay
        attributable end to end.

        ``sched`` is anything :meth:`repro.sched.SchedPolicy.parse`
        accepts (``None`` = the batch default).  A run with a higher
        priority than queued or in-flight work dispatches first and may
        preempt: busy workers are asked to hand back the unstarted tails
        of their lower-priority chunks (``split`` with ``keep=0``), which
        requeue behind the urgent work and resume afterwards —
        bit-identity is untouched because results merge by job index.
        """
        jobs = list(jobs)
        if not jobs:
            return []
        run = _Run(jobs, progress, chunksize, trace=trace, policy=SchedPolicy.parse(sched))
        self._runs[run.id] = run
        self.stats.inc("runs")
        self._distribute(self._initial_spans(run))
        self._kick.set()
        watcher: Optional["asyncio.Task"] = None
        if cancel_event is not None:
            watcher = asyncio.ensure_future(self._watch_cancel(run, cancel_event))
        try:
            return await run.future
        finally:
            if watcher is not None:
                watcher.cancel()
                await asyncio.gather(watcher, return_exceptions=True)
            self._runs.pop(run.id, None)
            self._drop_run_chunks(run)

    def _initial_spans(self, run: _Run) -> List[_Span]:
        """Deal a fresh run as contiguous near-equal spans, one per worker.

        Contiguity matters: dispatch cuts chunks off a span's front, so a
        span is an arbitrarily re-chunkable reservoir, and the index-based
        merge keeps the result order independent of how it was carved up.
        """
        parts = max(1, min(self.worker_count(), run.total))
        spans: List[_Span] = []
        base, extra = divmod(run.total, parts)
        start = 0
        for index in range(parts):
            size = base + (1 if index < extra else 0)
            if size:
                spans.append(_Span(run, start, start + size))
                start += size
        return spans

    async def _watch_cancel(self, run: _Run, cancel_event: CancelEvent) -> None:
        """Poll ``cancel_event``; revoke the run's work once it fires."""
        while not run.done:
            if cancel_event.is_set():
                await self.cancel_run(run)
                return
            await asyncio.sleep(min(0.05, self.heartbeat_interval))

    async def cancel_run(self, run: _Run) -> None:
        """Abort one run: revoke queued spans, drop in-flight chunks.

        Queued spans (per-worker backlogs and the orphan pool) are purged;
        every worker holding an in-flight chunk of this run receives a
        ``cancel`` event and stops at its next job boundary.  The run's
        future fails with :class:`~repro.runtime.SweepCancelled`, which
        propagates to the submitting call site.
        """
        if run.done:
            return
        self.stats.inc("runs_cancelled")
        self._drop_run_chunks(run)
        for link in self._alive_links():
            doomed = [
                chunk_id
                for chunk_id, chunk in link.inflight.items()
                if chunk.run is run
            ]
            for chunk_id in doomed:
                link.inflight.pop(chunk_id, None)
                # Settle the occupancy bracket opened at dispatch; the
                # revoked chunk contributes no throughput sample.
                self.telemetry.chunk_settled(link.id, time.monotonic())
                self.stats.inc("chunks_cancelled")
                await link.writer.send(protocol.cancel_event(chunk_id))
        run.fail(SweepCancelled(f"run {run.id} cancelled"))
        self._kick.set()

    # ------------------------------------------------------------------
    # Scheduling: per-worker span queues + work stealing + adaptive cuts
    # ------------------------------------------------------------------
    def _alive_links(self) -> List[_WorkerLink]:
        return [link for link in self._links.values() if link.alive]

    def _distribute(
        self, spans: Sequence[_Span], exclude: Optional[_WorkerLink] = None
    ) -> None:
        """Deal spans onto the least-loaded workers (by job count).

        ``exclude`` (when other workers exist) keeps a span away from one
        worker — a split's reclaimed tail must not land straight back on
        the straggler that just handed it over, whose zero-length head
        chunk would otherwise tie for least-loaded.
        """
        links = self._alive_links()
        if exclude is not None and len(links) > 1:
            links = [link for link in links if link is not exclude]
        if not links:
            self._orphans.extend(span for span in spans if len(span))
            if self._orphans and self._orphaned_since is None:
                self._orphaned_since = time.time()
            return
        for span in spans:
            if not len(span):
                continue
            target = min(links, key=_WorkerLink.load)
            target.queue.append(span)

    def _waiting_priority(self) -> Optional[int]:
        """Highest priority queued anywhere (orphan pool + every backlog)."""
        priorities = [self._orphans.highest_priority()]
        priorities.extend(link.queue.highest_priority() for link in self._alive_links())
        present = [p for p in priorities if p is not None]
        return max(present, default=None)

    def _steal_for(self, thief: _WorkerLink) -> Optional[_Span]:
        """Steal waiting work for an idle-slot worker, most urgent first.

        The orphan pool wins when nothing queued on a peer outranks it.
        Otherwise the victim is the most-loaded peer whose backlog holds
        the highest waiting priority, and the thief takes half that
        priority bucket's jobs off its tail: with every span at one
        priority this is exactly the classic half-backlog steal (the
        victim keeps the jobs it would reach next), and with mixed
        priorities the thief walks away with the *urgent* half — theft
        can never dispatch low-priority work past a queued high-priority
        span.
        """
        candidates = [
            link for link in self._alive_links() if link is not thief and link.queue
        ]
        peer_top = max(
            (link.queue.highest_priority() for link in candidates), default=None
        )
        orphan_top = self._orphans.highest_priority()
        if orphan_top is not None and (peer_top is None or orphan_top >= peer_top):
            span = self._orphans.popleft()
            if not self._orphans:
                # Only a fully drained pool disarms the abandonment clock:
                # spans still waiting keep their original deadline, so a
                # partial steal can never let a still-orphaned run evade
                # worker_wait_timeout.
                self._orphaned_since = None
            return span
        if peer_top is None:
            return None
        victim = max(
            (link for link in candidates if link.queue.highest_priority() == peer_top),
            key=_WorkerLink.queued_jobs,
        )
        # Spans split at job granularity, so the half is exact even when
        # the bucket is one big span.
        bucket_jobs = sum(
            len(span) for span in victim.queue if _span_priority(span) == peer_top
        )
        target = max(1, bucket_jobs // 2)
        taken: List[_Span] = []
        got = 0
        while got < target:
            try:
                span = victim.queue.pop_tail(peer_top)
            except IndexError:
                break
            need = target - got
            if len(span) > need:
                tail = _Span(span.run, span.stop - need, span.stop, span.attempts)
                span.stop -= need
                victim.queue.append(span)
                taken.append(tail)
                got += need
            else:
                taken.append(span)
                got += len(span)
        if not taken:
            return None
        self.stats.inc("chunks_stolen", len(taken))
        obs.EVENTS.emit(
            "chunk_stolen",
            trace=taken[0].run.trace,
            thief=thief.id,
            victim=victim.id,
            spans=len(taken),
            jobs=got,
        )
        first, rest = taken[0], taken[1:]
        thief.queue.extend(reversed(rest))
        return first

    def _refit_chunk(self, chunk: _Chunk) -> Tuple[_Span, _Span]:
        """Halve an over-limit chunk (either wire direction).

        The single place refit policy lives: learns the run's frame-size
        cap, counts the refit, and returns the two replacement spans —
        callers differ only in where they enqueue them.
        """
        middle = (chunk.start + chunk.stop) // 2
        half = max(1, len(chunk) // 2)
        run = chunk.run
        if run.max_chunk_jobs is None or half < run.max_chunk_jobs:
            run.max_chunk_jobs = half
        self.stats.inc("chunks_refitted")
        return (
            _Span(run, chunk.start, middle, chunk.attempts),
            _Span(run, middle, chunk.stop, chunk.attempts),
        )

    def _target_chunk_jobs(self, link: _WorkerLink, run: _Run) -> int:
        """Jobs the next chunk for ``link`` should carry.

        Static policy: the run's ``chunksize``.  Adaptive policy
        (``chunk_window`` set): the worker's measured EWMA throughput
        times the window — falling back to the run's chunksize as the
        probe size until the first completion measures the worker.
        """
        if self.chunk_window is None:
            return run.chunksize
        stats = self.telemetry.get(link.id)
        # Per-slot sizing: EWMA throughput measures the whole worker, but
        # a chunk occupies one slot — a 2-slot worker gets window-sized
        # chunks per slot, not double-window chunks.
        expected = (
            stats.expected_jobs(self.chunk_window, slots=link.slots)
            if stats is not None
            else None
        )
        if expected is None:
            return run.chunksize
        return expected

    def _next_chunk(self, link: _WorkerLink) -> Optional[_Chunk]:
        while True:
            top = self._waiting_priority()
            if top is None:
                return None
            if link.queue.highest_priority() == top:
                # The own backlog holds (one of) the globally most urgent
                # spans: locality wins, exactly the pre-sched behaviour.
                span = link.queue.popleft()
            else:
                # Own backlog empty or outranked: bring the most urgent
                # waiting work here instead (orphans, then priority-aware
                # steal), falling back to the outranked backlog only when
                # the urgent spans raced away to other workers.
                span = self._steal_for(link)
                if span is None and link.queue:
                    span = link.queue.popleft()
            if span is None:
                return None
            if span.run.done or not len(span):
                continue  # run already failed/finished; drop silently
            take = min(len(span), self._target_chunk_jobs(link, span.run))
            if span.run.max_chunk_jobs is not None:
                # Frame-limit cap learned from a previous refit: never
                # re-cut (and re-pay the over-limit encode for) a chunk
                # size that already failed to fit one frame.
                take = max(1, min(take, span.run.max_chunk_jobs))
            chunk = _Chunk(
                span.run,
                f"{span.run.id}/c{next(self._chunk_ids)}",
                span.start,
                span.start + take,
                span.attempts,
            )
            if take < len(span):
                span.start += take
                link.queue.appendleft(span)
            return chunk

    async def _pump(self, link: _WorkerLink) -> None:
        """Top the worker up to its slot count with dispatchable chunks."""
        while link.alive and len(link.inflight) < link.slots:
            chunk = self._next_chunk(link)
            if chunk is None:
                return
            try:
                frame = wire.encode_message(
                    protocol.chunk_event(chunk.id, chunk.jobs, trace=chunk.run.trace)
                )
            except Exception as error:
                if len(chunk) > 1:
                    # The chunk — not any single job — overflows the frame
                    # limit (the adaptive sizer can cut arbitrarily large
                    # chunks from a span; a static chunksize can be set too
                    # big for fat jobs).  Halve and requeue: O(log) retries
                    # converge on a dispatchable size or on single jobs.
                    head, tail = self._refit_chunk(chunk)
                    link.queue.appendleft(tail)
                    link.queue.appendleft(head)
                    continue
                # A single job that cannot be dispatched (unpicklable, or
                # alone over the frame limit): that is the *sweep's*
                # failure, not the worker's — fail the run and keep the
                # scheduler alive.
                chunk.run.fail(
                    ClusterError(
                        f"cannot dispatch chunk {chunk.id}: {error} "
                        "(unpicklable job or job too large for one frame)"
                    )
                )
                continue
            now = time.monotonic()
            chunk.dispatched_at = now
            # Open the occupancy bracket: the matching chunk_settled at
            # completion yields this chunk's mean concurrent-chunk count.
            chunk.busy_marker = self.telemetry.chunk_dispatched(link.id, now)
            link.inflight[chunk.id] = chunk
            self.stats.inc("chunks_dispatched")
            obs.EVENTS.emit(
                "chunk_dispatched",
                trace=chunk.run.trace,
                worker=link.id,
                chunk=chunk.id,
                jobs=len(chunk),
            )
            if chunk.run.paused:
                # First dispatch after a granted preemption: the paused
                # run is back on a worker.
                chunk.run.paused = False
                self.sched_stats.inc("resumes")
                obs.EVENTS.emit(
                    "resumed",
                    trace=chunk.run.trace,
                    worker=link.id,
                    chunk=chunk.id,
                    jobs=len(chunk),
                )
            if not await link.writer.send_bytes(frame):
                self._on_worker_death(link)
                return

    async def _scheduler_loop(self) -> None:
        while True:
            await self._kick.wait()
            self._kick.clear()
            try:
                for link in self._alive_links():
                    await self._pump(link)
                await self._maybe_preempt()
                await self._maybe_split()
            except asyncio.CancelledError:
                raise
            except Exception:
                # A scheduling bug must degrade to a retry on the next kick,
                # never to a dead scheduler silently freezing every run.
                self.stats.inc("scheduler_errors")
                self._kick.set()
                await asyncio.sleep(self.heartbeat_interval)

    async def _maybe_preempt(self) -> None:
        """Revoke low-priority in-flight tails when urgent work waits.

        Runs after every pump pass (any scheduling policy — unlike
        straggler splits, preemption needs no ``chunk_window``).  The
        trigger: a span outranking some in-flight chunk is queued while
        no slot in the cluster is free.  Each fully-busy worker is then
        asked to hand back the unstarted tail of its lowest-priority
        in-flight chunk (``split`` with ``keep=0``) — the same frame a
        straggler gets, but acked into the sched counters and exempted
        from straggler telemetry.  One request per chunk; declines (the
        chunk finished first) simply clear the mark.
        """
        links = self._alive_links()
        if not links:
            return
        top = self._waiting_priority()
        if top is None:
            return
        if any(len(link.inflight) < link.slots for link in links):
            # A free slot exists, so the urgent span is dispatchable the
            # regular way (the pump pass just ran): nothing to revoke.
            return
        for link in links:
            victims = [
                chunk
                for chunk in link.inflight.values()
                if not chunk.split_requested
                and not chunk.preempt_requested
                and not chunk.run.done
                and len(chunk) >= 2
                and chunk.run.policy.priority < top
            ]
            if not victims:
                continue
            victim = min(victims, key=lambda c: (c.run.policy.priority, -len(c)))
            if victim.id not in link.inflight:
                continue  # completed while an earlier send awaited
            victim.preempt_requested = True
            self.sched_stats.inc("preempt_requests")
            await link.writer.send(protocol.split_event(victim.id, keep=0))

    async def _maybe_split(self) -> None:
        """Split aged in-flight chunks of stragglers while workers idle.

        Adaptive policy only (``chunk_window`` set).  The trigger is
        precise starvation: some worker is idle with nothing left to steal
        while another worker's in-flight chunk has aged past the split
        threshold — at that point the only parallelism left to win is
        inside that chunk, so the coordinator asks its worker to hand the
        unstarted tail back (``split`` with ``keep=0``).  One split
        request per chunk: once granted, the head holds only
        already-started jobs and re-splitting it could never free more.
        """
        if self.chunk_window is None:
            return
        links = self._alive_links()
        if len(links) < 2:
            return
        if not any(not link.inflight and not link.queue for link in links):
            return
        now = time.monotonic()
        for link in links:
            for chunk in list(link.inflight.values()):
                if (
                    chunk.split_requested
                    or chunk.preempt_requested
                    or len(chunk) < 2
                    or chunk.run.done
                ):
                    continue
                if now - chunk.dispatched_at < self._split_threshold(link, chunk):
                    continue
                if chunk.id not in link.inflight:
                    # Completed (or was reassigned) while an earlier send
                    # in this sweep awaited: a split now would be a dead
                    # frame and would skew splits_requested.
                    continue
                chunk.split_requested = True
                self.stats.inc("splits_requested")
                await link.writer.send(protocol.split_event(chunk.id, keep=0))

    def _split_threshold(self, link: _WorkerLink, chunk: _Chunk) -> float:
        """Age after which an in-flight chunk counts as straggling.

        A chunk sized to the window should complete in about one window;
        ``SPLIT_AGE_FACTOR`` windows of patience absorbs estimation noise.
        When telemetry already predicts a longer runtime (a probe chunk on
        a slow worker), half the predicted time is allowed before
        splitting — enough signal to act on, early enough to matter.
        """
        assert self.chunk_window is not None
        base = SPLIT_AGE_FACTOR * self.chunk_window
        stats = self.telemetry.get(link.id)
        expected = (
            stats.expected_seconds(len(chunk), slots=link.slots)
            if stats is not None
            else None
        )
        if expected is None:
            return base
        return min(max(base, 0.5 * expected), 4.0 * base)

    async def _reaper_loop(self) -> None:
        """Declare silent workers dead; time out permanently orphaned work."""
        while True:
            await asyncio.sleep(self.heartbeat_interval)
            now = time.time()
            for link in self._alive_links():
                if now - link.last_seen > self.heartbeat_timeout:
                    link.writer.close()
                    self._on_worker_death(link)
            # Periodic straggler check: splits must fire even when no
            # completion event has kicked the scheduler for a while.
            # Guarded like the scheduler loop: a splitting bug must never
            # kill the reaper, or dead-worker detection silently stops.
            try:
                await self._maybe_preempt()
                await self._maybe_split()
            except asyncio.CancelledError:
                raise
            except Exception:
                self.stats.inc("scheduler_errors")
            if (
                self._orphans
                and not self._alive_links()
                and self._orphaned_since is not None
                and now - self._orphaned_since > self.worker_wait_timeout
            ):
                failed = {span.run for span in self._orphans}
                self._orphans.clear()
                self._orphaned_since = None
                for run in failed:
                    run.fail(
                        ClusterError(
                            "no workers joined within "
                            f"{self.worker_wait_timeout:.0f} s; sweep abandoned"
                        )
                    )

    def _on_worker_death(self, link: _WorkerLink) -> None:
        """Reassign a dead worker's queued and in-flight work."""
        if not link.alive:
            return
        link.alive = False
        link.writer.closed = True  # nothing more goes to a dead worker
        self.stats.inc("workers_lost")
        _WORKERS_ALIVE.dec()
        obs.EVENTS.emit(
            "worker_lost",
            worker=link.id,
            name=link.name,
            stranded_chunks=len(link.inflight),
        )
        # Dead workers never return under the same id, so their speed
        # estimates must not pollute the pool median / straggler view.
        self.telemetry.forget(link.id)
        stranded = [chunk.to_span() for chunk in link.inflight.values()]
        stranded.extend(link.queue)
        link.inflight.clear()
        link.queue.clear()
        reassign: List[_Span] = []
        for span in stranded:
            if span.run.done or not len(span):
                continue
            span.attempts += 1
            if span.attempts > self.max_chunk_retries:
                span.run.fail(
                    ClusterError(
                        f"work [{span.start}:{span.stop}) of {span.run.id} lost "
                        f"{span.attempts} workers (retry limit "
                        f"{self.max_chunk_retries}); sweep abandoned"
                    )
                )
                continue
            self.stats.inc("chunks_retried")
            reassign.append(span)
        if reassign:
            self._distribute(reassign)
        self._kick.set()

    def _drop_run_chunks(self, run: _Run) -> None:
        """Purge a finished/failed run's spans from every queue."""
        self._orphans.retain(lambda span: span.run is not run)
        if not self._orphans:
            self._orphaned_since = None
        for link in self._links.values():
            link.queue.retain(lambda span: span.run is not run)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        frames = wire.FrameWriter(writer)
        link: Optional[_WorkerLink] = None
        # Pending watches of this connection by id (control clients).
        pending: Dict[str, obs.Subscription] = {}
        try:
            while True:
                try:
                    message = await wire.read_message(reader)
                except wire.ProtocolError as error:
                    await frames.send(control.error_event(None, str(error), code="bad-request"))
                    break
                except (ConnectionError, OSError):
                    break
                if message is None:
                    break
                op = message.get("op")
                if link is None and op == "hello":
                    link = await self._handle_hello(message, frames)
                    if link is None:
                        break
                elif op == "heartbeat":
                    # Frames buffered by a worker already declared dead must
                    # not resurrect its forgotten telemetry entry.
                    if link is not None and link.alive:
                        link.last_seen = time.time()
                        self.telemetry.observe_heartbeat(link.id, time.monotonic())
                elif op == "chunk_done" and link is not None:
                    link.last_seen = time.time()
                    self._handle_chunk_done(link, message)
                elif op == "split_ack" and link is not None:
                    link.last_seen = time.time()
                    self._handle_split_ack(link, message)
                elif op == "chunk_failed" and link is not None:
                    link.last_seen = time.time()
                    self._handle_chunk_failed(link, message)
                else:
                    task = asyncio.ensure_future(self._control.answer(frames, pending, message))
                    self._control_tasks.add(task)
                    task.add_done_callback(self._control_tasks.discard)
        finally:
            # Disconnect ends this connection's watches.
            for subscription in list(pending.values()):
                subscription.cancel()
            if link is not None:
                self._on_worker_death(link)
            frames.close()
            await frames.wait_closed()

    async def _handle_hello(
        self, message: Dict[str, Any], writer: wire.FrameWriter
    ) -> Optional[_WorkerLink]:
        if message.get("protocol") != protocol.CLUSTER_PROTOCOL_VERSION:
            await writer.send(
                protocol.error_event(
                    f"cluster protocol mismatch: coordinator speaks "
                    f"{protocol.CLUSTER_PROTOCOL_VERSION}, worker {message.get('protocol')!r}"
                ),
            )
            return None
        worker_version = message.get("code_version")
        if worker_version != self._code_version:
            # Mixed-version clusters would silently break bit-identical
            # results (and the content-addressed cache keys): refuse.
            await writer.send(
                protocol.error_event(
                    f"code version mismatch: coordinator {self._code_version}, "
                    f"worker {worker_version}"
                ),
            )
            return None
        worker_id = f"w{next(self._worker_ids)}"
        link = _WorkerLink(
            worker_id,
            name=str(message.get("name", worker_id)),
            pid=int(message.get("pid", 0)),
            slots=int(message.get("slots", 1)),
            writer=writer,
        )
        self._links[worker_id] = link
        _WORKERS_ALIVE.inc()
        obs.EVENTS.emit(
            "worker_joined", worker=worker_id, name=link.name, slots=link.slots
        )
        await link.writer.send(protocol.welcome_event(worker_id, self.heartbeat_interval))
        self._kick.set()  # a fresh worker immediately steals backlog
        return link

    def _handle_chunk_done(self, link: _WorkerLink, message: Dict[str, Any]) -> None:
        chunk = link.inflight.pop(str(message.get("chunk")), None)
        if chunk is None:
            # Completion for a chunk this worker no longer owns (it was
            # presumed dead and the chunk reassigned).  Results are
            # deterministic, so dropping the duplicate is safe.
            self.stats.inc("duplicate_results")
            return
        # Close the occupancy bracket opened at dispatch, whatever the
        # frame's fate below: the chunk has left the worker either way.
        settled_at = time.monotonic()
        busy_integral = self.telemetry.chunk_settled(link.id, settled_at)
        try:
            results = _decode_chunk_results(message)
        except Exception as error:
            chunk.run.fail(ClusterError(f"undecodable results for {chunk.id}: {error}"))
            return
        count = message.get("count")
        if count is not None and int(count) != len(results):
            # The declared count is the spec's partial-ack invariant; a
            # frame whose payload disagrees with it is corrupt transport.
            chunk.run.fail(
                ClusterError(
                    f"chunk {chunk.id} declared count={count} but carried "
                    f"{len(results)} results"
                )
            )
            return
        if len(results) != len(chunk):
            # A granted split truncated the coordinator-side chunk via the
            # (stream-ordered) split_ack before this frame, so even partial
            # completions must match exactly.
            chunk.run.fail(
                ClusterError(
                    f"chunk {chunk.id} returned {len(results)} results "
                    f"for {len(chunk)} jobs"
                )
            )
            return
        seconds = settled_at - chunk.dispatched_at
        # Mean concurrent chunks on this worker over the chunk's lifetime:
        # throughput samples on multi-slot workers are scaled back to the
        # whole-worker rate, fixing the under-estimate that made the
        # adaptive sizer cut starvation-sized chunks for parallel workers.
        occupancy = (busy_integral - chunk.busy_marker) / seconds if seconds > 0 else 1.0
        # A preempted chunk's completion covers only the kept prefix of a
        # revocation the *coordinator* chose — exempt it from the EWMA so
        # a healthy worker is not mistaken for a straggler.
        self.telemetry.observe_chunk(
            link.id,
            len(results),
            seconds,
            occupancy=occupancy,
            preempted=chunk.preempt_requested,
        )
        _CHUNK_SECONDS.observe(seconds)
        link.chunks_done += 1
        link.jobs_done += len(results)
        self.stats.inc("chunks_completed")
        self.stats.inc("jobs_done", len(results))
        obs.EVENTS.emit(
            "chunk_done",
            # Prefer the worker's echoed trace: its presence proves the id
            # crossed the wire both ways, not just coordinator bookkeeping.
            trace=message.get("trace") or chunk.run.trace,
            worker=link.id,
            chunk=chunk.id,
            jobs=len(results),
            seconds=seconds,
        )
        chunk.run.complete_chunk(chunk, results)
        self._kick.set()

    def _handle_split_ack(self, link: _WorkerLink, message: Dict[str, Any]) -> None:
        """Reassign the tail a worker handed back in answer to ``split``."""
        chunk = link.inflight.get(str(message.get("chunk")))
        if chunk is None:
            return  # raced with chunk_done / reassignment: nothing to take
        kept = message.get("kept")
        if kept is None:
            # Split declined (chunk finished first): the full completion
            # is on its way, a healthy sample — drop the preempt mark.
            chunk.preempt_requested = False
            return
        kept = int(kept)
        if kept < 0 or kept >= len(chunk):
            chunk.preempt_requested = False
            return  # nothing handed back
        if chunk.run.done:
            # The run failed/finished while the split was in flight: the
            # worker's eventual partial completion is discarded anyway, so
            # neither the stats nor the queues should see this split.
            return
        tail = _Span(chunk.run, chunk.start + kept, chunk.stop, chunk.attempts)
        chunk.stop = chunk.start + kept
        if chunk.preempt_requested:
            # Preemption granted: the run is paused until its spans next
            # dispatch.  The mark stays on the chunk so the pending
            # partial chunk_done skips the straggler EWMA.  No exclusion:
            # the priority queues already order the requeued tail behind
            # the urgent work that triggered the revoke.
            chunk.run.paused = True
            self.sched_stats.inc("preemptions")
            self.sched_stats.inc("jobs_requeued", len(tail))
            obs.EVENTS.emit(
                "preempted",
                trace=chunk.run.trace,
                worker=link.id,
                chunk=chunk.id,
                kept=kept,
                requeued=len(tail),
            )
            self._distribute([tail])
        else:
            self.stats.inc("chunks_split")
            obs.EVENTS.emit(
                "chunk_split",
                trace=chunk.run.trace,
                worker=link.id,
                chunk=chunk.id,
                kept=kept,
                reassigned=len(tail),
            )
            self._distribute([tail], exclude=link)
        self._kick.set()

    def _handle_chunk_failed(self, link: _WorkerLink, message: Dict[str, Any]) -> None:
        chunk = link.inflight.pop(str(message.get("chunk")), None)
        if chunk is None:
            self.stats.inc("duplicate_results")
            return
        self.telemetry.chunk_settled(link.id, time.monotonic())
        if (
            message.get("code") == protocol.RESULTS_OVERFLOW
            and len(chunk) > 1
            and not chunk.run.done
        ):
            # Transport, not job, failure: the chunk's pickled results do
            # not fit one frame.  Symmetric to the dispatch-side refit —
            # halve, learn the run's size cap and requeue; re-running the
            # (deterministic) jobs at a smaller size reproduces the same
            # values.  A single job whose results alone overflow falls
            # through to the failure path below.
            self._distribute(list(self._refit_chunk(chunk)))
            self._kick.set()
            return
        error = protocol.unpack_exception(
            message.get("exception"), str(message.get("error", "job failed on worker"))
        )
        chunk.run.fail(error)
        self._kick.set()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def _worker_info(self, link: _WorkerLink) -> Dict[str, Any]:
        """One worker's status document: link state + telemetry snapshot.

        The telemetry keys come from :meth:`WorkerStats.to_dict` — the
        single source of truth for their names — and are present (as
        ``None`` / zero) even for a worker with no observations yet, so
        consumers never need existence checks.
        """
        info = link.info().to_dict()
        stats = self.telemetry.get(link.id) or WorkerStats(link.id)
        info.update(stats.to_dict())
        return info

    async def status_event(self, request_id: Any = None) -> Dict[str, Any]:
        """The ``status`` reply document (also used by ``cluster status``)."""
        import repro

        return {
            "event": "status",
            "id": request_id,
            "protocol": protocol.CLUSTER_PROTOCOL_VERSION,
            "version": repro.__version__,
            "code_version": self._code_version,
            "address": list(self.address),
            "workers": [self._worker_info(link) for link in self._links.values()],
            "alive_workers": self.worker_count(),
            "total_slots": self.total_slots(),
            "runs_in_flight": len(self._runs),
            "orphaned_chunks": len(self._orphans),
            "stats": dict(self.stats),
            "heartbeat_interval": self.heartbeat_interval,
            "heartbeat_timeout": self.heartbeat_timeout,
            "chunk_window": self.chunk_window,
            "scheduling": "adaptive" if self.chunk_window is not None else "static",
            "pool_median_throughput": self.telemetry.pool_median_throughput(),
            "stragglers": list(self.telemetry.stragglers()),
            "sched": {
                "queued_jobs_by_class": self._queued_jobs_by_class(),
                "paused_runs": sum(1 for run in self._runs.values() if run.paused),
                "stats": dict(self.sched_stats),
            },
        }

    def _queued_jobs_by_class(self) -> Dict[str, int]:
        """Undispatched jobs waiting per job class, across every queue."""
        depths = {job_class: 0 for job_class in JOB_CLASSES}
        spans: List[_Span] = list(self._orphans)
        for link in self._links.values():
            spans.extend(link.queue)
        for span in spans:
            if not span.run.done:
                depths[span.run.policy.job_class] += len(span)
        return depths

    def describe(self) -> str:
        """Short human-readable summary."""
        host, port = self.address
        return (
            f"Coordinator[{host}:{port}] — {self.worker_count()} workers, "
            f"{self.stats['jobs_done']} jobs done, "
            f"{self.stats['chunks_stolen']} chunks stolen, "
            f"{self.stats['chunks_split']} split, "
            f"{self.stats['chunks_retried']} retried"
        )
