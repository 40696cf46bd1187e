"""Tests for the distributed worker backend (:mod:`repro.cluster`).

Covers the tentpole guarantees:

* the shared NDJSON framing lives in :mod:`repro.wire` and the service
  protocol re-exports it (one tested implementation);
* job chunks survive the pickle transport with cache codecs stripped;
* ``make_executor("distributed")`` produces **bit-identical** results to
  the serial executor, merged in submission order whatever the dispatch
  schedule or work stealing;
* a worker killed mid-sweep has its chunks reassigned, the sweep completes
  bit-identically and progress totals stay correct;
* a *job* exception propagates to the submitting call site (the worker
  survives);
* engine-side cache hits are resolved before dispatch — warm shards never
  reach a worker;
* the sharded Monte-Carlo panel equals the unsharded one bit-for-bit,
  serial or distributed, directly and through the service workload;
* the adaptive scheduler (protocol v3): ``chunk_window`` sizing from EWMA
  telemetry, straggler splits with partial-completion acks, and — the
  determinism tentpole — randomized resize/split/steal/death schedules on
  heterogeneous (throttled) pools still merging bit-identically to serial;
* the ``cluster status`` / ``cache info --json`` CLI surfaces work.

Worker subprocesses unpickle job functions by module name; the executor
propagates the submitter's ``sys.path``, which is what makes this test
module importable on the worker side.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import repro
from repro import wire
from repro.analysis.pvt_sweeps import mismatch_monte_carlo, mismatch_monte_carlo_sharded
from repro.circuits.technology import tsmc65_like
from repro.cluster import DistributedExecutor, fetch_status, parse_address
from repro.cluster import protocol as cluster_protocol
from repro.runtime import (
    Artifact,
    ArtifactCache,
    Job,
    SerialExecutor,
    SweepEngine,
    SweepSpec,
    job_key,
    make_executor,
)
from repro.runtime.cli import main as cli_main
from repro.service import protocol as service_protocol
from repro.service.workloads import run_montecarlo

START_TIMEOUT = 60.0


# ----------------------------------------------------------------------
# Module-level job bodies (picklable by reference on the worker side)
# ----------------------------------------------------------------------
def _square(value: int) -> int:
    return value * value


def _seeded_value(entropy: int, index: int) -> float:
    """Deterministic float derived from a spawned SeedSequence child."""
    child = np.random.SeedSequence(entropy).spawn(index + 1)[index]
    return float(np.random.default_rng(child).standard_normal())


def _nap(seconds: float, value: int) -> int:
    time.sleep(seconds)
    return value


def _slow_seeded(entropy: int, index: int, seconds: float) -> float:
    """Seeded deterministic float whose wall time is tunable."""
    time.sleep(seconds)
    return _seeded_value(entropy, index)


def _boom(message: str) -> None:
    raise ValueError(message)


def _huge_array(count: int) -> np.ndarray:
    return np.zeros(count)


def _huge_pickled(count: int) -> dict:
    """A non-array result, so it must take the pickled transport (the
    protocol-v5 binary frame only covers all-array result lists)."""
    return {"blob": np.zeros(count)}


def _seeded_array(entropy: int, index: int, count: int) -> np.ndarray:
    """Deterministic array result large enough to exercise the binary /
    shared-memory completion transports."""
    child = np.random.SeedSequence(entropy).spawn(index + 1)[index]
    return np.random.default_rng(child).standard_normal(count)


def _array_sum(values: np.ndarray) -> float:
    return float(values.sum())


def _seeded_jobs(count: int) -> list:
    return [
        Job(fn=_seeded_value, args=(1234, i), name=f"seeded[{i}]") for i in range(count)
    ]


@pytest.fixture(scope="module")
def cluster():
    """A two-worker local cluster shared by the non-destructive tests."""
    executor = DistributedExecutor(workers=2, chunksize=1, start_timeout=START_TIMEOUT)
    executor.start()
    if executor._fallback is not None:
        pytest.skip("cluster cannot start in this environment")
    yield executor
    executor.close()


# ----------------------------------------------------------------------
# Shared wire framing (satellite: extraction into repro.wire)
# ----------------------------------------------------------------------
class TestSharedWire:
    def test_service_protocol_reexports_wire(self):
        assert service_protocol.encode_message is wire.encode_message
        assert service_protocol.decode_message is wire.decode_message
        assert service_protocol.read_message is wire.read_message
        assert service_protocol.ProtocolError is wire.ProtocolError
        assert service_protocol.MAX_MESSAGE_BYTES == wire.MAX_MESSAGE_BYTES

    def test_round_trip_and_guards(self):
        message = {"op": "hello", "slots": 2}
        assert wire.decode_message(wire.encode_message(message)) == message
        with pytest.raises(wire.ProtocolError):
            wire.decode_message(b"[1, 2]\n")
        with pytest.raises(wire.ProtocolError):
            wire.encode_message({"blob": "x" * wire.MAX_MESSAGE_BYTES})


class TestJobTransport:
    def test_pack_strips_cache_codecs(self):
        job = Job(
            fn=_square,
            args=(3,),
            name="sq",
            key=job_key("transport-test", 3),
            encode=lambda result: Artifact(arrays={"x": np.asarray([result])}),
            decode=lambda artifact: int(artifact.arrays["x"][0]),
        )
        [restored] = cluster_protocol.unpack_jobs(cluster_protocol.pack_jobs([job]))
        assert restored.run() == 9
        assert restored.key is None and restored.encode is None and restored.decode is None

    def test_exception_transport_preserves_type(self):
        blob = cluster_protocol.pack_exception(ValueError("deliberate"))
        recovered = cluster_protocol.unpack_exception(blob, "fallback")
        assert isinstance(recovered, ValueError)
        assert "deliberate" in str(recovered)
        degraded = cluster_protocol.unpack_exception(None, "fallback text")
        assert isinstance(degraded, RuntimeError)
        assert "fallback text" in str(degraded)

    def test_parse_address(self):
        assert parse_address("127.0.0.1:7500") == ("127.0.0.1", 7500)
        for bad in ("nohost", "host:", "host:notaport", "host:0", ":99"):
            with pytest.raises(ValueError):
                parse_address(bad)


# ----------------------------------------------------------------------
# Executor registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_make_distributed(self):
        executor = make_executor("distributed", workers=1, chunksize=2)
        assert isinstance(executor, DistributedExecutor)
        assert executor.workers == 1 and executor.chunksize == 2
        executor.close()  # never started: a no-op

    def test_irrelevant_options_rejected(self):
        with pytest.raises(ValueError, match="does not accept"):
            make_executor("distributed", batch_size=4)
        with pytest.raises(ValueError, match="does not accept"):
            make_executor("serial", connect="127.0.0.1:7500")

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            make_executor("distributed", workers=-1)
        with pytest.raises(ValueError):
            make_executor("distributed", connect="not-an-address")
        with pytest.raises(ValueError):
            DistributedExecutor(workers=0)  # no local spawn and nowhere to join

    def test_cli_rejects_irrelevant_engine_flags(self, capsys):
        code = cli_main(
            ["run", "dse", "--fast", "--quiet", "--executor", "distributed", "--batch-size", "4"]
        )
        assert code == 2
        assert "--batch-size" in capsys.readouterr().err
        code = cli_main(
            ["run", "dse", "--fast", "--quiet", "--connect", "127.0.0.1:7500"]
        )
        assert code == 2
        assert "--connect" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Distributed execution
# ----------------------------------------------------------------------
class TestDistributedExecution:
    def test_bit_identical_to_serial(self, cluster):
        jobs = _seeded_jobs(24)
        serial = SerialExecutor().execute(_seeded_jobs(24))
        distributed = cluster.execute(jobs)
        assert distributed == serial  # exact float equality, in order

    def test_progress_is_monotonic_and_complete(self, cluster):
        ticks = []
        jobs = [Job(fn=_square, args=(i,), name=f"sq[{i}]") for i in range(16)]
        results = cluster.execute(jobs, progress=lambda d, t, l: ticks.append((d, t)))
        assert results == [i * i for i in range(16)]
        assert ticks[-1] == (16, 16)
        done_values = [done for done, _ in ticks]
        assert done_values == sorted(done_values)
        assert all(total == 16 for _, total in ticks)

    def test_job_exception_propagates_and_cluster_survives(self, cluster):
        jobs = [Job(fn=_square, args=(1,), name="ok")] + [
            Job(fn=_boom, args=("deliberate job failure",), name="bad")
        ]
        with pytest.raises(ValueError, match="deliberate job failure"):
            cluster.execute(jobs)
        # the workers survived the job failure and keep serving
        assert cluster.execute(_seeded_jobs(6)) == SerialExecutor().execute(_seeded_jobs(6))
        assert cluster.status()["alive_workers"] == 2

    def test_oversized_pickled_result_fails_instead_of_hanging(self, cluster):
        """A chunk whose *pickled* results exceed the frame limit must fail
        the sweep with a diagnosis — never leave it waiting on the chunk
        forever.  (All-array results escape this limit via the protocol-v5
        binary frame, so the oversize result here is a dict.)"""
        count = 2_000_000  # 16 MB of float64 -> > MAX_MESSAGE_BYTES once framed
        jobs = [
            Job(fn=_huge_pickled, args=(count,), name="huge"),
            Job(fn=_square, args=(2,), name="ok"),
        ]
        with pytest.raises(Exception, match="frame limit"):
            cluster.execute(jobs)
        # the workers survived and keep serving
        assert cluster.execute(_seeded_jobs(4)) == SerialExecutor().execute(_seeded_jobs(4))

    def test_oversized_array_results_ship_binary_instead_of_failing(self, cluster):
        """The same 16 MB array that used to overflow the pickled frame now
        rides the protocol-v5 binary / shared-memory completion — the sweep
        succeeds and stays bit-identical to serial."""
        jobs = [
            Job(fn=_seeded_array, args=(77, i, 2_000_000), name=f"wide[{i}]")
            for i in range(2)
        ]
        results = cluster.execute(jobs)
        expected = SerialExecutor().execute(
            [Job(fn=_seeded_array, args=(77, i, 2_000_000), name=f"wide[{i}]") for i in range(2)]
        )
        assert len(results) == 2
        for got, want in zip(results, expected):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_oversized_job_chunk_fails_instead_of_freezing(self, cluster):
        """A chunk too large to *dispatch* fails its run and leaves the
        scheduler alive for subsequent sweeps."""
        big = np.zeros(2_000_000)
        jobs = [Job(fn=_array_sum, args=(big,), name=f"big[{i}]") for i in range(2)]
        with pytest.raises(Exception, match="cannot dispatch"):
            cluster.execute(jobs)
        assert cluster.execute(_seeded_jobs(4)) == SerialExecutor().execute(_seeded_jobs(4))
        assert cluster.status()["alive_workers"] == 2

    def test_oversized_chunk_refits_instead_of_failing(self):
        """A multi-job chunk over the frame limit is halved and requeued:
        the sweep completes as long as each single job fits."""
        executor = DistributedExecutor(workers=1, chunksize=2, start_timeout=START_TIMEOUT)
        executor.start()
        if executor._fallback is not None:
            pytest.skip("cluster cannot start in this environment")
        try:
            # One job's array pickles+base64s to ~5.3 MB (fits the 8 MiB
            # frame); the 2-job chunk the chunksize asks for does not.
            jobs = [
                Job(fn=_array_sum, args=(np.full(500_000, float(i)),), name=f"fat[{i}]")
                for i in range(4)
            ]
            assert executor.execute(jobs) == [500_000.0 * i for i in range(4)]
            assert executor.status()["stats"]["chunks_refitted"] >= 1
        finally:
            executor.close()

    def test_oversized_results_refit_instead_of_failing(self):
        """The symmetric case: job *inputs* are tiny but a multi-job
        chunk's pickled results overflow the frame — the worker tags the
        failure results_overflow and the coordinator refits.  (Dict
        results, so the v5 binary frame cannot rescue them.)"""
        executor = DistributedExecutor(workers=1, chunksize=2, start_timeout=START_TIMEOUT)
        executor.start()
        if executor._fallback is not None:
            pytest.skip("cluster cannot start in this environment")
        try:
            jobs = [Job(fn=_huge_pickled, args=(500_000,), name=f"out[{i}]") for i in range(4)]
            results = executor.execute(jobs)
            assert len(results) == 4
            assert all(r["blob"].shape == (500_000,) for r in results)
            assert executor.status()["stats"]["chunks_refitted"] >= 1
        finally:
            executor.close()

    def test_shm_disabled_worker_falls_back_to_socket_binary(self, monkeypatch):
        """REPRO_SHM_MIN_BYTES=-1 disables the shared-memory handoff: large
        array results then cross the socket as binary frames, bit-identical
        to the SHM path and to serial."""
        monkeypatch.setenv("REPRO_SHM_MIN_BYTES", "-1")
        executor = DistributedExecutor(workers=1, chunksize=1, start_timeout=START_TIMEOUT)
        executor.start()
        if executor._fallback is not None:
            pytest.skip("cluster cannot start in this environment")
        try:
            jobs = [
                Job(fn=_seeded_array, args=(99, i, 400_000), name=f"sock[{i}]")
                for i in range(3)
            ]
            results = executor.execute(jobs)
        finally:
            executor.close()
        expected = SerialExecutor().execute(
            [Job(fn=_seeded_array, args=(99, i, 400_000), name=f"sock[{i}]") for i in range(3)]
        )
        assert [r.tobytes() for r in results] == [e.tobytes() for e in expected]

    def test_single_job_runs_inline(self, cluster):
        before = cluster.status()["stats"]["chunks_dispatched"]
        assert cluster.execute([Job(fn=_square, args=(7,), name="one")]) == [49]
        assert cluster.status()["stats"]["chunks_dispatched"] == before

    def test_engine_cache_hits_never_reach_workers(self, cluster, tmp_path):
        engine = SweepEngine(cluster, cache=ArtifactCache(tmp_path / "cache"))

        def build(value):
            return Job(
                fn=_square,
                args=(value,),
                name=f"sq[{value}]",
                key=job_key("cluster-cache-test", value),
                encode=lambda result: Artifact(arrays={"x": np.asarray([result])}),
                decode=lambda artifact: int(artifact.arrays["x"][0]),
            )

        cold = engine.run(SweepSpec("cache-test", [build(i) for i in range(8)]))
        dispatched_after_cold = cluster.status()["stats"]["jobs_done"]
        warm = engine.run(SweepSpec("cache-test", [build(i) for i in range(8)]))
        assert warm == cold == [i * i for i in range(8)]
        # the warm sweep was resolved engine-side: no job crossed the wire
        assert cluster.status()["stats"]["jobs_done"] == dispatched_after_cold
        assert engine.stats.cache_hits == 8

    def test_status_document_and_cli(self, cluster, capsys):
        host, port = cluster.address
        status = fetch_status(f"{host}:{port}", timeout=10.0)
        assert status["alive_workers"] == 2
        assert status["protocol"] == cluster_protocol.CLUSTER_PROTOCOL_VERSION
        assert status["version"] == repro.__version__
        assert len([w for w in status["workers"] if w["alive"]]) == 2
        assert {w["pid"] for w in status["workers"] if w["alive"]} == set(
            cluster.worker_pids
        )

        assert cli_main(["cluster", "status", "--connect", f"{host}:{port}", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["alive_workers"] == 2
        assert cli_main(["cluster", "status", "--connect", f"{host}:{port}"]) == 0
        text = capsys.readouterr().out
        assert "2 alive" in text and "jobs done" in text

    def test_status_unreachable_endpoint_fails_cleanly(self, capsys):
        assert (
            cli_main(
                ["cluster", "status", "--connect", "127.0.0.1:1", "--connect-timeout", "0.2"]
            )
            == 2
        )
        assert "cannot reach cluster" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Worker failure: kill a worker mid-sweep (satellite)
# ----------------------------------------------------------------------
class TestWorkerFailure:
    def test_killed_worker_chunks_are_reassigned(self):
        executor = DistributedExecutor(
            workers=2,
            chunksize=1,
            heartbeat_timeout=2.5,
            start_timeout=START_TIMEOUT,
        )
        executor.start()
        if executor._fallback is not None:
            pytest.skip("cluster cannot start in this environment")
        try:
            count = 24
            victim = executor.worker_pids[0]
            killed = []
            ticks = []

            def progress(done: int, total: int, label: str) -> None:
                ticks.append((done, total))
                if done == 2 and not killed:
                    os.kill(victim, signal.SIGKILL)
                    killed.append(victim)

            jobs = [Job(fn=_nap, args=(0.12, i), name=f"nap[{i}]") for i in range(count)]
            results = executor.execute(jobs, progress=progress)

            # the sweep completed bit-identically to serial despite the kill
            assert killed, "the victim worker was never killed"
            assert results == list(range(count))
            # progress stayed monotonic against the full total and finished
            assert ticks[-1] == (count, count)
            done_values = [done for done, _ in ticks]
            assert done_values == sorted(done_values)
            assert all(total == count for _, total in ticks)
            # the coordinator recorded the death and the reassignments
            status = executor.status()
            assert status["alive_workers"] == 1
            assert status["stats"]["workers_lost"] == 1
            assert status["stats"]["chunks_retried"] >= 1
            assert status["stats"]["jobs_done"] >= count
        finally:
            executor.close()

    def test_failed_start_warns_and_fallback_resets_on_restart(self):
        """An unavailable cluster warns audibly and degrades to serial; a
        later successful restart routes sweeps to real workers again."""
        executor = DistributedExecutor(
            workers=0, connect="127.0.0.1:65413", min_workers=1, start_timeout=1.0
        )
        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            executor.start()
        assert executor._fallback is not None
        assert executor.execute(_seeded_jobs(4)) == SerialExecutor().execute(_seeded_jobs(4))
        executor.close()

        # reconfigure to something startable and restart
        executor.workers = 1
        executor.connect = None
        executor.start_timeout = START_TIMEOUT
        executor.start()
        if executor._fallback is not None:
            pytest.skip("cluster cannot start in this environment")
        try:
            assert executor.execute(_seeded_jobs(4)) == SerialExecutor().execute(
                _seeded_jobs(4)
            )
            assert executor.status()["alive_workers"] == 1
        finally:
            executor.close()

    def test_all_workers_dead_fails_instead_of_hanging(self):
        executor = DistributedExecutor(
            workers=1,
            chunksize=1,
            heartbeat_timeout=2.0,
            start_timeout=START_TIMEOUT,
        )
        executor.start()
        if executor._fallback is not None:
            pytest.skip("cluster cannot start in this environment")
        # A chunk that kills its (only) worker exhausts the retry budget.
        executor.coordinator.worker_wait_timeout = 1.0
        try:
            victim = executor.worker_pids[0]
            jobs = [Job(fn=_nap, args=(0.3, i), name=f"nap[{i}]") for i in range(6)]

            def progress(done: int, total: int, label: str) -> None:
                if done == 1:
                    os.kill(victim, signal.SIGKILL)

            with pytest.raises(Exception, match="(abandoned|no workers)"):
                executor.execute(jobs, progress=progress)
        finally:
            executor.close()


# ----------------------------------------------------------------------
# Adaptive scheduling (protocol v3): windows, splits, telemetry
# ----------------------------------------------------------------------
def _spawn_throttled_worker(address, throttle: float, name: str = "throttled"):
    """Join one deliberately slowed worker to a live cluster endpoint."""
    from repro.cluster.executor import spawn_worker_process

    host, port = address
    return spawn_worker_process(
        f"{host}:{port}", name=name, throttle=throttle, connect_timeout=START_TIMEOUT
    )


def _await_workers(executor: DistributedExecutor, count: int) -> None:
    executor.wait_for_workers(count, timeout=START_TIMEOUT)


class TestChunkProgress:
    """Worker-side split bookkeeping (the partial-ack invariants)."""

    def test_split_keeps_started_jobs(self):
        from repro.cluster.worker import ChunkProgress

        state = ChunkProgress()
        assert state.try_start() and state.try_start()  # jobs 0, 1 started
        assert state.split(keep=0) == 2  # started jobs can never be given back
        assert not state.try_start()  # the tail belongs elsewhere now
        assert state.split(keep=9) == 2  # a later split cannot re-grow the chunk

    def test_split_keep_floor(self):
        from repro.cluster.worker import ChunkProgress

        state = ChunkProgress()
        assert state.split(keep=3) == 3  # nothing started: the floor wins
        for _ in range(3):
            assert state.try_start()
        assert not state.try_start()

    def test_cancel_is_independent_of_split(self):
        from repro.cluster.worker import ChunkProgress

        state = ChunkProgress()
        state.split(keep=1)
        assert not state.cancel.is_set()
        state.cancel.set()
        assert state.split(keep=0) == 0  # still answers exactly


class TestShmFallback:
    def test_shm_failure_is_counted_and_the_socket_frame_is_unchanged(self, monkeypatch):
        """A worker that cannot create a shared-memory segment sends the
        socket binary frame instead: the fallback is counted and the frame
        is the one a worker without the handoff sends."""
        from repro.cluster import worker as worker_module

        def no_shm(*args, **kwargs):
            raise OSError(28, "No space left on device")

        results = [
            np.random.default_rng(5).standard_normal(worker_module.SHM_MIN_BYTES // 8 + 3),
            np.arange(6, dtype=np.int32).reshape(2, 3),
        ]
        remote = worker_module.Worker("192.0.2.7", 1)  # not loopback: no SHM offered
        expected = remote._encode_chunk_done("chunk-1", results, "t-1")

        monkeypatch.setattr(worker_module.shared_memory, "SharedMemory", no_shm)
        local = worker_module.Worker("127.0.0.1", 1)
        before = worker_module._SHM_FALLBACKS.value()
        frame = local._encode_chunk_done("chunk-1", results, "t-1")
        assert worker_module._SHM_FALLBACKS.value() == before + 1
        assert frame == expected
        assert not local._shm_segments

        header, payload = frame.split(b"\n", 1)
        message = wire.decode_message(header + b"\n")
        decoded = wire.unpack_arrays(message["arrays"], payload)
        for got, want in zip(decoded, results):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


class TestOrphanAccounting:
    def test_partial_orphan_steal_keeps_timeout_armed(self):
        """Stealing *some* orphaned work must not disarm the abandonment
        clock while other runs' spans still wait for a worker."""
        import asyncio

        from repro.cluster.coordinator import Coordinator, _Run, _Span, _WorkerLink

        async def scenario():
            coordinator = Coordinator()
            run_a = _Run([Job(fn=_square, args=(1,), name="a")], None, 1)
            run_b = _Run([Job(fn=_square, args=(2,), name="b")], None, 1)
            coordinator._distribute([_Span(run_a, 0, 1), _Span(run_b, 0, 1)])
            assert coordinator._orphaned_since is not None  # no workers: orphaned
            thief = _WorkerLink("w1", "w", 0, 1, writer=None)
            coordinator._links["w1"] = thief
            assert coordinator._steal_for(thief) is not None
            # one span is still orphaned: the clock must stay armed
            assert coordinator._orphans
            assert coordinator._orphaned_since is not None
            assert coordinator._steal_for(thief) is not None
            assert not coordinator._orphans
            assert coordinator._orphaned_since is None

        asyncio.run(scenario())


class TestAdaptiveScheduling:
    def test_chunk_window_validation(self):
        with pytest.raises(ValueError):
            DistributedExecutor(workers=1, chunk_window=0.0)
        with pytest.raises(ValueError):
            make_executor("distributed", workers=1, chunk_window=-1.0)
        with pytest.raises(ValueError, match="does not accept"):
            make_executor("parallel", chunk_window=0.5)
        executor = make_executor("distributed", workers=1, chunk_window=0.5)
        assert executor.chunk_window == 0.5
        executor.close()  # never started: a no-op

    def test_cli_rejects_chunk_window_on_non_distributed(self, capsys):
        code = cli_main(
            ["run", "dse", "--fast", "--quiet", "--chunk-window", "0.5"]
        )
        assert code == 2
        assert "--chunk-window" in capsys.readouterr().err

    def test_adaptive_bit_identical_with_telemetry(self):
        executor = DistributedExecutor(
            workers=2,
            chunk_window=0.05,
            heartbeat_interval=0.05,
            heartbeat_timeout=5.0,
            start_timeout=START_TIMEOUT,
        )
        executor.start()
        if executor._fallback is not None:
            pytest.skip("cluster cannot start in this environment")
        try:
            jobs = [
                Job(fn=_slow_seeded, args=(77, i, 0.004), name=f"adapt[{i}]")
                for i in range(24)
            ]
            serial = SerialExecutor().execute(
                [Job(fn=_slow_seeded, args=(77, i, 0.0), name=f"adapt[{i}]") for i in range(24)]
            )
            assert executor.execute(jobs) == serial
            status = executor.status()
            assert status["scheduling"] == "adaptive"
            assert status["chunk_window"] == 0.05
            for key in ("chunks_split", "splits_requested"):
                assert key in status["stats"]
            measured = [
                w for w in status["workers"]
                if w["alive"] and w["throughput_jobs_per_s"] is not None
            ]
            assert measured, "no worker accumulated EWMA throughput telemetry"
            for worker in measured:
                assert worker["throughput_jobs_per_s"] > 0
                assert worker["ewma_chunk_seconds"] > 0
        finally:
            executor.close()

    def test_straggler_split_reassigns_tail(self):
        """A big probe chunk on a slow worker is split: the fast worker
        takes the unstarted tail, the partial ack merges bit-identically."""
        executor = DistributedExecutor(
            workers=1,
            chunksize=6,  # oversized probe: lands whole on some worker
            chunk_window=0.05,
            heartbeat_interval=0.05,
            heartbeat_timeout=5.0,
            start_timeout=START_TIMEOUT,
        )
        executor.start()
        if executor._fallback is not None:
            pytest.skip("cluster cannot start in this environment")
        straggler = None
        try:
            straggler = _spawn_throttled_worker(executor.address, throttle=0.25)
            _await_workers(executor, 2)
            jobs = [
                Job(fn=_slow_seeded, args=(31, i, 0.004), name=f"split[{i}]")
                for i in range(12)
            ]
            serial = SerialExecutor().execute(
                [Job(fn=_slow_seeded, args=(31, i, 0.0), name=f"split[{i}]") for i in range(12)]
            )
            assert executor.execute(jobs) == serial
            status = executor.status()
            stats = status["stats"]
            # The straggler's 6-job chunk must have been split; the
            # counters are the proof (a wall-clock bound would flake on
            # loaded CI runners — the suite's timeout guards cover hangs).
            assert stats["splits_requested"] >= 1
            assert stats["chunks_split"] >= 1
            # Pool-level telemetry flags the throttled worker (once it has
            # a measured throughput to compare against the pool median).
            assert "pool_median_throughput" in status
            slow = [w for w in status["workers"] if w["name"] == "throttled"]
            assert slow
            if slow[0]["throughput_jobs_per_s"] is not None:
                assert slow[0]["id"] in status["stragglers"]
        finally:
            executor.close()
            if straggler is not None and straggler.poll() is None:
                straggler.terminate()
                straggler.wait(timeout=10)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_adversarial_schedules_merge_bit_identical(self, seed, chaos_schedule):
        """Randomized resize/split/steal/death sequences vs serial.

        Each trial draws a scheduling regime (:class:`ChaosSchedule` from
        ``conftest``) — window or static, probe size, straggler slowness,
        and whether a worker is killed mid-run — and the merged result
        must equal the serial one exactly.  ``test_sched_chaos`` runs the
        same regimes with concurrent mixed-priority sweeps on top.
        """
        plan = chaos_schedule(seed)
        executor = DistributedExecutor(
            workers=2,
            chunksize=plan.probe,
            chunk_window=plan.window,
            heartbeat_interval=0.05,
            heartbeat_timeout=2.0,
            start_timeout=START_TIMEOUT,
        )
        executor.start()
        if executor._fallback is not None:
            pytest.skip("cluster cannot start in this environment")
        straggler = None
        try:
            straggler = _spawn_throttled_worker(executor.address, throttle=plan.throttle)
            _await_workers(executor, 3)
            jobs = [
                Job(fn=_slow_seeded, args=(plan.entropy, i, 0.01), name=f"adv[{i}]")
                for i in range(plan.count)
            ]
            serial = SerialExecutor().execute(
                [
                    Job(fn=_slow_seeded, args=(plan.entropy, i, 0.0), name=f"adv[{i}]")
                    for i in range(plan.count)
                ]
            )
            victim = executor.worker_pids[0]
            killed = []

            def progress(done: int, total: int, label: str) -> None:
                if plan.kill_one and done >= 3 and not killed:
                    os.kill(victim, signal.SIGKILL)
                    killed.append(victim)

            assert executor.execute(jobs, progress=progress) == serial
            if plan.kill_one:
                assert killed, "the victim worker was never killed"
                assert executor.status()["stats"]["workers_lost"] >= 1
        finally:
            executor.close()
            if straggler is not None and straggler.poll() is None:
                straggler.terminate()
                straggler.wait(timeout=10)


# ----------------------------------------------------------------------
# Sharded Monte-Carlo (service <-> cluster integration)
# ----------------------------------------------------------------------
class TestShardedMonteCarlo:
    def test_sharded_equals_unsharded_serial(self):
        technology = tsmc65_like()
        reference = mismatch_monte_carlo(technology, samples=24, seed=11)
        sharded = mismatch_monte_carlo_sharded(technology, samples=24, seed=11, shards=3)
        np.testing.assert_array_equal(
            reference["sigma_at_sampling_times"], sharded["sigma_at_sampling_times"]
        )
        np.testing.assert_array_equal(
            reference["final_voltages"], sharded["final_voltages"]
        )
        np.testing.assert_array_equal(reference["times"], sharded["times"])

    def test_sharded_equals_unsharded_distributed(self, cluster):
        technology = tsmc65_like()
        reference = mismatch_monte_carlo(technology, samples=30, seed=5)
        distributed = mismatch_monte_carlo_sharded(
            technology, samples=30, seed=5, shards=5, engine=SweepEngine(cluster)
        )
        np.testing.assert_array_equal(
            reference["sigma_at_sampling_times"],
            distributed["sigma_at_sampling_times"],
        )
        np.testing.assert_array_equal(
            reference["final_voltages"], distributed["final_voltages"]
        )

    def test_shard_jobs_are_cacheable(self, tmp_path):
        technology = tsmc65_like()
        engine = SweepEngine(cache=ArtifactCache(tmp_path / "cache"))
        cold = mismatch_monte_carlo_sharded(
            technology, samples=16, seed=3, shards=4, engine=engine
        )
        warm = mismatch_monte_carlo_sharded(
            technology, samples=16, seed=3, shards=4, engine=engine
        )
        np.testing.assert_array_equal(
            cold["sigma_at_sampling_times"], warm["sigma_at_sampling_times"]
        )
        assert engine.stats.cache_hits == 4
        assert engine.stats.jobs_executed == 4  # only the cold run executed

    def test_service_workload_shards_match_single_job(self, tmp_path):
        engine = SweepEngine(cache=ArtifactCache(tmp_path / "cache"))
        single = run_montecarlo({"samples": 24, "seed": 7}, engine)
        sharded = run_montecarlo({"samples": 24, "seed": 7, "shards": 3}, engine)
        assert single["sigma_v_blb"] == sharded["sigma_v_blb"]
        assert sharded["shards"] == 3
        with pytest.raises(ValueError):
            run_montecarlo({"samples": 8, "shards": 0}, engine)


# ----------------------------------------------------------------------
# CLI: cache info --json (satellite)
# ----------------------------------------------------------------------
class TestCacheInfoJson:
    def test_cache_info_json_document(self, tmp_path, capsys):
        cache = ArtifactCache(tmp_path / "cache")
        key = job_key("cache-info-json-test", 1)
        cache.put(key, Artifact(arrays={"x": np.arange(4.0)}, meta={"k": 1}))

        code = cli_main(["cache", "info", "--cache-dir", str(tmp_path / "cache"), "--json"])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["count"] == 1
        assert document["bytes"] > 0
        assert document["max_bytes"] is None
        assert document["root"] == str(tmp_path / "cache")
        assert set(document["stats"]) == {
            "hits",
            "misses",
            "writes",
            "corrupt_dropped",
            "evictions",
        }

    def test_cache_info_json_subprocess(self, tmp_path):
        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
        output = subprocess.check_output(
            [sys.executable, "-m", "repro", "cache", "info", "--json"],
            env=env,
            text=True,
            timeout=START_TIMEOUT,
        )
        document = json.loads(output)
        assert document["count"] == 0
        assert document["bytes"] == 0


# ----------------------------------------------------------------------
# Observability: slot occupancy, trace ids, cluster status --watch
# ----------------------------------------------------------------------
class TestSlotOccupancy:
    """The PR 5 telemetry gap: multi-slot workers' EWMA throughput."""

    def test_overlapping_chunks_scale_to_worker_capacity(self):
        """Deterministic replay of the bug: two chunks sharing a 2-slot
        worker must measure whole-worker capacity, not per-chunk speed."""
        from repro.telemetry import WorkerStats

        stats = WorkerStats("w2")
        mark_a = stats.chunk_dispatched(now=0.0)
        mark_b = stats.chunk_dispatched(now=0.0)
        done_a = stats.chunk_settled(now=10.0)
        stats.observe_chunk(jobs=5, seconds=10.0, occupancy=(done_a - mark_a) / 10.0)
        done_b = stats.chunk_settled(now=10.0)
        stats.observe_chunk(jobs=5, seconds=10.0, occupancy=(done_b - mark_b) / 10.0)
        # 10 jobs were delivered in 10 s; the pre-fix accounting (raw
        # jobs/seconds per chunk) halved this to 0.5
        assert stats.throughput == pytest.approx(1.0)
        assert stats.inflight_chunks == 0

    def test_preempted_chunk_leaves_ewma_untouched(self):
        """Regression: a preemption-truncated completion (few jobs over a
        wall time that includes the revoke round-trip) must not decay the
        worker's EWMA — the revoke was the scheduler's choice, not the
        worker slowing down.  Volume totals still count the kept jobs."""
        from repro.telemetry import TelemetryBook, WorkerStats

        stats = WorkerStats("w1")
        stats.observe_chunk(jobs=10, seconds=1.0)  # healthy: 10 jobs/s
        healthy_throughput = stats.ewma_throughput
        healthy_seconds = stats.ewma_chunk_seconds
        stats.observe_chunk(jobs=1, seconds=8.0, preempted=True)
        assert stats.ewma_throughput == healthy_throughput
        assert stats.ewma_chunk_seconds == healthy_seconds
        assert stats.chunks_observed == 2
        assert stats.jobs_observed == 11
        # and through the book-level API the coordinator actually calls
        book = TelemetryBook()
        book.observe_chunk("w2", jobs=4, seconds=1.0)
        before = book.get("w2").ewma_throughput
        book.observe_chunk("w2", jobs=1, seconds=9.0, preempted=True)
        assert book.get("w2").ewma_throughput == before

    def test_two_slot_worker_measures_parallel_capacity(self):
        """Regression with a real ``--slots 2`` worker: measured EWMA
        throughput must exceed the single-slot ceiling."""
        import socket

        from repro.cluster.executor import spawn_worker_process

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        executor = DistributedExecutor(
            workers=0,
            connect=f"127.0.0.1:{port}",
            min_workers=1,
            chunksize=2,
            start_timeout=START_TIMEOUT,
        )
        worker = spawn_worker_process(
            f"127.0.0.1:{port}", name="twoslot", slots=2, connect_timeout=START_TIMEOUT
        )
        try:
            executor.start()
            if executor._fallback is not None:
                pytest.skip("cluster cannot start in this environment")
            naptime = 0.05
            jobs = [Job(fn=_nap, args=(naptime, i), name=f"slot[{i}]") for i in range(16)]
            assert executor.execute(jobs) == list(range(16))
            [worker_view] = [w for w in executor.status()["workers"] if w["alive"]]
            assert worker_view["slots"] == 2
            measured = worker_view["throughput_jobs_per_s"]
            assert measured is not None
            # a 1-slot worker is physically capped at 1/naptime jobs/s;
            # the old per-chunk accounting measured at or below that cap
            # however many slots ran.  Both slots filled, the occupancy-
            # corrected estimate must clear the cap with margin.
            assert measured > 1.2 / naptime, (
                f"throughput {measured:.1f} jobs/s does not reflect 2 slots"
            )
        finally:
            executor.close()
            if worker.poll() is None:
                worker.terminate()
                worker.wait(timeout=10)


class TestTraceAcrossCluster:
    def test_bit_identity_with_trace_and_round_trip(self, cluster):
        """Tracing is free: results stay bit-identical with a trace id set,
        and the chunk events prove the id crossed to workers and back."""
        from repro import obs

        seen = []
        callback = obs.EVENTS.subscribe(seen.append)
        try:
            jobs = _seeded_jobs(16)
            serial = SerialExecutor().execute(_seeded_jobs(16))
            assert cluster.execute(jobs, trace="trace-cluster-1") == serial
        finally:
            obs.EVENTS.unsubscribe(callback)
        mine = [e for e in seen if e.get("trace") == "trace-cluster-1"]
        types = {e["type"] for e in mine}
        assert "chunk_dispatched" in types
        # chunk_done events carry the worker-echoed trace: the id made the
        # full coordinator -> worker -> coordinator round trip
        assert "chunk_done" in types
        seqs = [e["seq"] for e in mine]
        assert seqs == sorted(seqs)


class TestClusterWatch:
    def test_watch_cli_follows_live_events(self, cluster, capsys):
        import threading

        host, port = cluster.address
        jobs = [Job(fn=_nap, args=(0.05, i), name=f"w[{i}]") for i in range(20)]
        results = []
        runner = threading.Thread(
            target=lambda: results.append(cluster.execute(jobs, trace="trace-watch-cli"))
        )
        runner.start()
        try:
            code = cli_main(
                [
                    "cluster",
                    "status",
                    "--connect",
                    f"{host}:{port}",
                    "--watch",
                    "--duration",
                    "2.5",
                ]
            )
        finally:
            runner.join(timeout=START_TIMEOUT)
        assert code == 0
        out = capsys.readouterr().out
        assert "cluster at" in out and "live" in out
        assert results and results[0] == list(range(20))
        assert "trace-watch-cli" in out, "the watch table never saw the run's trace"

    def test_watch_rejects_json_and_requires_watch_for_duration(self, capsys):
        assert (
            cli_main(
                ["cluster", "status", "--connect", "127.0.0.1:1", "--watch", "--json"]
            )
            == 2
        )
        assert "--json" in capsys.readouterr().err
        assert (
            cli_main(
                ["cluster", "status", "--connect", "127.0.0.1:1", "--duration", "1"]
            )
            == 2
        )
        assert "--duration" in capsys.readouterr().err


class TestControlPlane:
    """The coordinator's watch is a pending request, as on the service."""

    @staticmethod
    def _scenario(body):
        import asyncio

        from repro.cluster import Coordinator

        async def scenario():
            coordinator = Coordinator()
            host, port = await coordinator.start()
            reader, writer = await wire.open_connection(host, port, timeout=10.0)

            async def request(message):
                writer.write(wire.encode_message(message))
                await writer.drain()
                return await wire.read_message(reader)

            try:
                return await body(coordinator, request, writer)
            finally:
                writer.close()
                await coordinator.stop()

        return asyncio.run(asyncio.wait_for(scenario(), START_TIMEOUT))

    def test_cancel_ends_the_watch_and_the_connection_survives(self):
        async def body(coordinator, request, writer):
            ack = await request({"op": "watch", "id": "w1"})
            ended = await request({"op": "cancel", "id": "w1"})
            pong = await request({"op": "ping", "id": "p1"})
            return ack, ended, pong, len(coordinator._control.watches)

        ack, ended, pong, watches = self._scenario(body)
        assert ack == {"event": "watching", "id": "w1"}
        assert ended["event"] == "error" and ended["id"] == "w1"
        assert ended["code"] == "cancelled"
        assert pong == {"event": "pong", "id": "p1"}
        assert watches == 0

    def test_duplicate_watch_id_is_a_bad_request(self):
        async def body(coordinator, request, writer):
            await request({"op": "watch", "id": "w1"})
            return await request({"op": "watch", "id": "w1"})

        duplicate = self._scenario(body)
        assert duplicate["event"] == "error" and duplicate["id"] == "w1"
        assert duplicate["code"] == "bad-request"

    def test_disconnect_leaves_no_bus_subscriber(self):
        import asyncio

        from repro import obs

        async def body(coordinator, request, writer):
            before = obs.EVENTS.subscriber_count()
            await request({"op": "watch", "id": "w1"})
            during = obs.EVENTS.subscriber_count()
            writer.close()
            while coordinator._control.watches:
                await asyncio.sleep(0.01)
            return before, during, obs.EVENTS.subscriber_count()

        before, during, after = self._scenario(body)
        assert during == before + 1
        assert after == before

    def test_fetch_status_raises_control_error_on_an_error_reply(self):
        import socket
        import threading

        from repro.cluster import ControlError

        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]

        def answer_with_error():
            connection, _ = listener.accept()
            with connection:
                connection.makefile("rb").readline()
                connection.sendall(
                    wire.encode_message(
                        {"event": "error", "id": None, "error": "boom", "code": "failed"}
                    )
                )

        server = threading.Thread(target=answer_with_error)
        server.start()
        try:
            with pytest.raises(ControlError, match="boom"):
                fetch_status(f"127.0.0.1:{port}", timeout=10.0)
        finally:
            server.join(timeout=10.0)
            listener.close()
        assert not server.is_alive()
