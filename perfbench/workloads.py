"""The benchmark's three workloads, each a closed loop with one client.

Every workload drives one paper experiment through a different front door:

* ``mc-pvt`` — Monte-Carlo error distribution of the best-FOM corner on an
  in-process auto :class:`~repro.runtime.SweepEngine` without a cache:
  kernel compute and per-sample engine overhead only.
* ``dse-warm-gateway`` — the full 48-corner DSE request through
  ``repro gateway`` in front of ``repro serve``, over a cache warmed during
  set-up: cache resolution and the front doors only, no solver work.
* ``mc-cluster`` — the sharded Fig. 5d mismatch Monte-Carlo on a local
  two-worker :class:`~repro.cluster.DistributedExecutor` with a fresh
  artifact cache: dispatch, wire, worker compute, merge and cache writes.

A workload object owns its helper processes and temporary directories.
``setup`` ends after the first (untimed) op; ``op`` runs one timed op and
raises :class:`CheckFailed` when its result is wrong; ``final_checks`` runs
the sampled reference comparisons after the timed loop.  ``install_trace``
and ``traced_op`` serve the separate traced run only.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import http.client
import json
import math
import pathlib
import re
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Set, Tuple

import numpy as np

import benchtrace

HERE = pathlib.Path(__file__).resolve().parent
REFERENCE = json.loads((HERE / "reference.json").read_text())

#: Tolerance of the statistical checks, in standard errors.  Six keeps a
#: false alarm below one in a hundred million ops while a wrong kernel or a
#: perturbed result moves the mean by far more.
Z_TOLERANCE = 6.0


class CheckFailed(Exception):
    """An op produced a wrong result (counted in the failure count)."""


def canonical_digest(value: Any) -> str:
    """SHA-256 of the canonical JSON encoding of ``value``."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def peak_rss_kb(pid: int) -> int:
    """Peak resident set (VmHWM) of a live process, in kB; 0 once it is gone."""
    try:
        text = pathlib.Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0
    found = re.search(r"^VmHWM:\s+(\d+) kB", text, re.MULTILINE)
    return int(found.group(1)) if found else 0


def _cache_read_counts(args: tuple, result: Any) -> Dict[str, float]:
    cache, key = args[0], args[1]
    if result is None:
        return {"runtime.cache.misses": 1}
    return {
        "runtime.cache.hits": 1,
        "runtime.cache.bytes_read": cache.path_for(key).stat().st_size,
    }


def _cache_write_counts(args: tuple, path: Any) -> Dict[str, float]:
    return {"runtime.cache.bytes_written": path.stat().st_size}


class Workload:
    """Shared plumbing: seeds, failure bookkeeping and the generic tracer hooks."""

    name = ""
    #: Work items one op completes (Monte-Carlo samples or DSE corners).
    items_per_op = 1
    #: Per-op self-time layers that partition one op (for the accounting check).
    self_layers: Tuple[str, ...] = ()

    def __init__(self, seed: int, tmp: pathlib.Path, inject: Optional[str] = None):
        self.seed = seed
        self.tmp = tmp
        self.inject = inject
        # Per-op seeds, warm-up seeds and the sampled op each come from their
        # own stream of the workload seed, so the timed ops see the same
        # inputs whatever the warm-up did.
        self._op_rng = np.random.default_rng([seed, 0])
        self._warmup_rng = np.random.default_rng([seed, 1])
        self.sampled_index = int(np.random.default_rng([seed, 2]).integers(0, 10))
        self.failed_ops: Set[int] = set()
        self.run_ok = True
        self.fit_rms_mv = float("nan")
        self.layer_extras: Dict[str, float] = {}

    def next_seed(self, warmup: bool = False) -> int:
        rng = self._warmup_rng if warmup else self._op_rng
        return int(rng.integers(0, 2**31 - 1))

    def calibrate(self, engine: Any) -> Any:
        """Cold calibration (every workload pays it in set-up); records fit_rms_mV."""
        from repro.circuits.technology import tsmc65_like
        from repro.core.calibration import calibrated_suite

        calibration = calibrated_suite(tsmc65_like(), engine=engine)
        self.fit_rms_mv = calibration.report.rms_base_discharge * 1e3
        return calibration.suite

    # -- hooks -----------------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def op(self, index: int) -> None:
        """One timed op; raises :class:`CheckFailed` (or anything) on failure."""
        raise NotImplementedError

    def final_checks(self) -> None:
        """Sampled reference comparisons after the timed loop."""

    def helper_pids(self) -> List[int]:
        return []

    def teardown(self) -> None:
        pass

    def install_trace(self, tracer: benchtrace.Tracer) -> None:
        from repro.runtime import ArtifactCache, SweepEngine

        tracer.wrap(SweepEngine, "run", "runtime.engine.run")
        tracer.wrap(ArtifactCache, "get", "runtime.cache.get", on_result=_cache_read_counts)
        tracer.wrap(ArtifactCache, "put", "runtime.cache.put", on_result=_cache_write_counts)

    def traced_op(self, index: int, tracer: benchtrace.Tracer) -> Tuple[float, Dict[str, float]]:
        """Run one op under the tracer; returns its latency and per-op layer values."""
        tracer.take()
        jobs_before = self.engine.stats.jobs_submitted
        started = time.perf_counter()
        self.op(index)
        latency = time.perf_counter() - started
        values = self.layers(latency, tracer.take())
        values["runtime.jobs_per_op"] = float(self.engine.stats.jobs_submitted - jobs_before)
        return latency, values

    def layers(self, latency: float, snap: Dict[str, Dict[str, float]]) -> Dict[str, float]:
        raise NotImplementedError

    def trace_summary(self, traced_ops: int) -> Dict[str, float]:
        """Per-layer values measured once per traced phase, not per op."""
        return dict(self.layer_extras)

    @staticmethod
    def cache_layers(snap: Dict[str, Dict[str, float]]) -> Dict[str, float]:
        seconds, counts = snap["seconds"], snap["counts"]
        return {
            "runtime.cache.get_ms": 1e3 * seconds.get("runtime.cache.get", 0.0),
            "runtime.cache.put_ms": 1e3 * seconds.get("runtime.cache.put", 0.0),
            "runtime.cache.hits_per_op": counts.get("runtime.cache.hits", 0.0),
            "runtime.cache.misses_per_op": counts.get("runtime.cache.misses", 0.0),
            "runtime.cache.bytes_read_per_op": counts.get("runtime.cache.bytes_read", 0.0),
            "runtime.cache.bytes_written_per_op": counts.get("runtime.cache.bytes_written", 0.0),
        }


# ----------------------------------------------------------------------
# mc-pvt
# ----------------------------------------------------------------------
class McPvt(Workload):
    """``monte_carlo_error_distribution(samples=256)`` on the best-FOM corner."""

    name = "mc-pvt"
    SAMPLES = 256
    items_per_op = SAMPLES
    self_layers = ("core.pvt.build_ms", "runtime.engine_self_ms", "multiplier.kernel_ms")

    def setup(self) -> None:
        from repro.core.dse import explore_design_space
        from repro.runtime import SweepEngine

        # Auto engine (no executor argument): auto-batch stays on.
        self.engine = SweepEngine()
        self.suite = self.calibrate(self.engine)
        self.config = explore_design_space(self.suite, engine=self.engine).best_fom().config
        reference = REFERENCE["mc-pvt"]
        self.ref_mean = reference["mean_error_lsb"]
        self.ref_std = reference["sample_std_lsb"]
        self.ref_samples = reference["samples"]
        self.op_means: List[float] = []
        self.sampled: Optional[Tuple[int, np.ndarray]] = None
        self._run(self.next_seed(warmup=True))

    def _run(self, seed: int, engine: Any = None) -> np.ndarray:
        from repro.core.pvt import monte_carlo_error_distribution

        return monte_carlo_error_distribution(
            self.suite, self.config, samples=self.SAMPLES, seed=seed,
            engine=engine or self.engine,
        )

    def op(self, index: int) -> None:
        seed = self.next_seed()
        errors = self._run(seed)
        if self.inject == "perturb-mc" and index == self.sampled_index:
            errors = errors.copy()
            errors[0] = np.nextafter(errors[0], np.inf)  # caught by bit-identity
        if self.inject == "perturb-mc" and index == self.sampled_index + 1:
            errors = errors * 1.05  # caught by the statistical check
        if index == self.sampled_index:
            self.sampled = (seed, errors)
        if errors.shape != (self.SAMPLES,) or not np.all(np.isfinite(errors)):
            raise CheckFailed(f"malformed error distribution {errors.shape}")
        mean = float(np.mean(errors))
        self.op_means.append(mean)
        tolerance = Z_TOLERANCE * self.ref_std * math.sqrt(
            1.0 / self.SAMPLES + 1.0 / self.ref_samples
        )
        if abs(mean - self.ref_mean) > tolerance:
            raise CheckFailed(
                f"op mean error {mean:.5f} LSB outside {self.ref_mean:.5f} +- {tolerance:.5f}"
            )

    def final_checks(self) -> None:
        from repro.runtime import SweepEngine, make_executor

        if self.sampled is not None:
            seed, errors = self.sampled
            serial = self._run(seed, engine=SweepEngine(make_executor("serial")))
            if serial.tobytes() != errors.tobytes():
                self.failed_ops.add(self.sampled_index)
        if self.op_means:
            run_mean = float(np.mean(self.op_means))
            tolerance = Z_TOLERANCE * self.ref_std * math.sqrt(
                1.0 / (self.SAMPLES * len(self.op_means)) + 1.0 / self.ref_samples
            )
            if abs(run_mean - self.ref_mean) > tolerance:
                self.run_ok = False

    def install_trace(self, tracer: benchtrace.Tracer) -> None:
        from repro.multiplier.imac import InSramMultiplier

        super().install_trace(tracer)
        tracer.wrap(InSramMultiplier, "multiply_mc_samples", "multiplier.kernel")

    def layers(self, latency: float, snap: Dict[str, Dict[str, float]]) -> Dict[str, float]:
        seconds, counts = snap["seconds"], snap["counts"]
        run = seconds.get("runtime.engine.run", 0.0)
        kernel = seconds.get("multiplier.kernel", 0.0)
        values = self.cache_layers(snap)
        values.update(
            {
                "multiplier.kernel_ms": 1e3 * kernel,
                "multiplier.kernel_calls_per_op": counts.get("multiplier.kernel", 0.0),
                "runtime.engine_self_ms": 1e3 * (run - kernel),
                "core.pvt.build_ms": 1e3 * (latency - run),
            }
        )
        return values


# ----------------------------------------------------------------------
# dse-warm-gateway
# ----------------------------------------------------------------------
class HelperProcess:
    """A ``python -m repro ...`` subprocess whose banner announces its address."""

    def __init__(self, args: List[str], log: pathlib.Path, banner: str, cwd: pathlib.Path):
        self.log_path = log
        self._log = open(log, "wb")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", *args],
            stdout=self._log,
            stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL,
            cwd=cwd,
        )
        try:
            self.host, self.port = self._await_banner(re.compile(banner))
        except BaseException:
            self.stop()
            raise

    def _await_banner(self, pattern: "re.Pattern[str]", timeout: float = 60.0) -> Tuple[str, int]:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            found = pattern.search(self.log_path.read_text(errors="replace"))
            if found:
                return found.group(1), int(found.group(2))
            if self.process.poll() is not None:
                break
            time.sleep(0.01)
        raise RuntimeError(
            f"{self.process.args[3]} did not start: {self.log_path.read_text(errors='replace')[-2000:]}"
        )

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)  # graceful shutdown path
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
        self.process.wait(timeout=10)
        self._log.close()


def read_sse(response: http.client.HTTPResponse) -> Tuple[int, str]:
    """Read an SSE stream to its terminal frame; returns (frames, final state)."""
    frames = 0
    event: Optional[str] = None
    data: List[str] = []
    while True:
        raw = response.readline()
        if not raw:
            raise CheckFailed("event stream closed before the sweep finished")
        line = raw.decode("utf-8").rstrip("\r\n")
        if line.startswith(":"):
            continue  # keepalive comment
        if line:
            field, _, value = line.partition(":")
            value = value[1:] if value.startswith(" ") else value
            if field == "event":
                event = value
            elif field == "data":
                data.append(value)
            continue
        if event is not None:  # a blank line ends a frame
            frames += 1
            document = json.loads("\n".join(data)) if data else {}
            if event == "done" or (event == "snapshot" and document.get("state") != "running"):
                return frames, str(document.get("state"))
        event, data = None, []


class DseWarmGateway(Workload):
    """The full DSE request through gateway -> serve over a warm cache."""

    name = "dse-warm-gateway"
    items_per_op = 48
    self_layers = (
        "gateway.self_ms",
        "service.self_ms",
        "service.workload_payload_ms",
        "core.calibration_ms",
        "core.dse_ms",
        "runtime.engine_self_ms",
        "runtime.cache.get_ms",
    )

    def setup(self) -> None:
        from repro.runtime import ArtifactCache, SweepEngine
        from repro.service.workloads import get_workload

        # The reference table is computed in-process on its own cache, so a
        # wrong table served from the shared cache cannot match it.
        reference_engine = SweepEngine(cache=ArtifactCache(self.tmp / "reference-cache"))
        self.calibrate(reference_engine)
        reference = get_workload("dse")({}, reference_engine)
        if reference["corner_count"] != 48:
            raise RuntimeError(f"expected 48 corners, got {reference['corner_count']}")
        self.reference_digest = canonical_digest(reference["corners"])

        self.cache_dir = self.tmp / "serve-cache"
        self.serve = HelperProcess(
            ["serve", "--port", "0", "--cache-dir", str(self.cache_dir)],
            self.tmp / "serve.log",
            r"serving sweeps on ([\d.]+):(\d+)",
            self.tmp,
        )
        self.gateway = HelperProcess(
            [
                "gateway",
                "--service", f"{self.serve.host}:{self.serve.port}",
                "--port", "0",
                "--artifact-root", str(self.tmp / "gateway-artifacts"),
            ],
            self.tmp / "gateway.log",
            r"gateway on ([\d.]+):(\d+)",
            self.tmp,
        )
        self.counts: Dict[str, float] = {}
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        # First request is cold (serve calibrates and fills the cache); the
        # second is the first warm one.  Neither is timed.
        self.gateway_op()
        self.gateway_op()

    # -- the op, three ways ------------------------------------------------
    def _http(self, method: str, path: str, body: Optional[bytes] = None) -> Tuple[int, Optional[str], bytes]:
        connection = http.client.HTTPConnection(self.gateway.host, self.gateway.port, timeout=60)
        try:
            headers = {"Content-Type": "application/json"} if body is not None else {}
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            self.counts["http"] += 1
            return response.status, response.getheader("Location"), response.read()
        finally:
            connection.close()

    def gateway_op(self, index: int = -1) -> None:
        self.counts = {"http": 0, "frames": 0, "result_bytes": 0}
        body = json.dumps({"workload": "dse", "params": {}}).encode("utf-8")
        status, _, answer = self._http("POST", "/v1/sweeps", body)
        if status != 202:
            raise CheckFailed(f"submit answered {status}: {answer[:200]!r}")
        sweep_id = json.loads(answer)["id"]
        connection = http.client.HTTPConnection(self.gateway.host, self.gateway.port, timeout=60)
        try:
            connection.request("GET", f"/v1/sweeps/{sweep_id}/events")
            response = connection.getresponse()
            self.counts["http"] += 1
            frames, state = read_sse(response)
        finally:
            connection.close()
        self.counts["frames"] = frames
        if state != "completed":
            raise CheckFailed(f"sweep ended {state}")
        status, location, answer = self._http("GET", f"/v1/sweeps/{sweep_id}/result")
        if status == 307 and location:
            status, _, answer = self._http("GET", location)
        if status != 200:
            raise CheckFailed(f"result answered {status}: {answer[:200]!r}")
        self.counts["result_bytes"] = len(answer)
        self.check_payload(json.loads(answer), index)

    def check_payload(self, payload: Dict[str, Any], index: int) -> None:
        corners = payload["corners"]
        if self.inject == "corrupt-digest" and index == self.sampled_index:
            corners[0] = dict(corners[0], mean_error_lsb=corners[0]["mean_error_lsb"] + 1e-9)
        if canonical_digest(corners) != self.reference_digest:
            raise CheckFailed("DSE corner table digest differs from the in-process table")

    def op(self, index: int) -> None:
        self.gateway_op(index)
        if self.inject == "kill-serve" and index == 5:
            self.serve.process.kill()

    async def _service_submit(self) -> Dict[str, Any]:
        from repro.service import ServiceClient

        client = await ServiceClient(self.serve.host, self.serve.port).connect(timeout=10)
        try:
            return (await client.submit("dse", {})).payload
        finally:
            await client.aclose()

    def service_op(self, index: int) -> None:
        self.check_payload(self._loop.run_until_complete(self._service_submit()), index)

    def inprocess_op(self, index: int) -> None:
        from repro.service.workloads import get_workload

        self.check_payload(get_workload("dse")({}, self._inprocess_engine), index)

    # -- tracing ------------------------------------------------------------
    def install_trace(self, tracer: benchtrace.Tracer) -> None:
        import repro.analysis.design_space as design_space
        import repro.core.calibration as calibration
        from repro.runtime import ArtifactCache, SweepEngine

        super().install_trace(tracer)
        tracer.wrap(calibration, "calibrated_suite", "core.calibration")
        tracer.wrap(design_space, "explore_design_space", "core.dse.explore")
        self._inprocess_engine = SweepEngine(cache=ArtifactCache(self.cache_dir))
        self._loop = asyncio.new_event_loop()
        self._legs: Dict[str, List[float]] = {"gateway": [], "service": [], "inprocess": []}

    def traced_op(self, index: int, tracer: benchtrace.Tracer) -> Tuple[float, Dict[str, float]]:
        started = time.perf_counter()
        self.gateway_op(index)
        latency = time.perf_counter() - started
        values = {
            "gateway.http_requests_per_op": float(self.counts["http"]),
            "gateway.sse_frames_per_op": float(self.counts["frames"]),
            "wire.result_bytes_per_op": float(self.counts["result_bytes"]),
        }
        started = time.perf_counter()
        self.service_op(index)
        self._legs["service"].append(time.perf_counter() - started)
        tracer.take()
        jobs_before = self._inprocess_engine.stats.jobs_submitted
        started = time.perf_counter()
        self.inprocess_op(index)
        inprocess = time.perf_counter() - started
        self._legs["inprocess"].append(inprocess)
        self._legs["gateway"].append(latency)
        values.update(self.layers(inprocess, tracer.take()))
        values["runtime.jobs_per_op"] = float(
            self._inprocess_engine.stats.jobs_submitted - jobs_before
        )
        return latency, values

    def layers(self, latency: float, snap: Dict[str, Dict[str, float]]) -> Dict[str, float]:
        seconds = snap["seconds"]
        run = seconds.get("runtime.engine.run", 0.0)
        get = seconds.get("runtime.cache.get", 0.0)
        calibration = seconds.get("core.calibration", 0.0)
        explore = seconds.get("core.dse.explore", 0.0)
        values = self.cache_layers(snap)
        values.update(
            {
                "core.calibration_ms": 1e3 * calibration,
                "core.dse_ms": 1e3 * (explore - run),
                "runtime.engine_self_ms": 1e3 * (run - get),
                "service.workload_payload_ms": 1e3 * (latency - calibration - explore),
            }
        )
        return values

    def trace_summary(self, traced_ops: int) -> Dict[str, float]:
        """Front-door self times as differences of medians across the three legs."""
        gateway, service, inprocess = (
            float(np.median(self._legs[leg])) for leg in ("gateway", "service", "inprocess")
        )
        return {
            "gateway.self_ms": 1e3 * (gateway - service),
            "service.self_ms": 1e3 * (service - inprocess),
        }

    def helper_pids(self) -> List[int]:
        return [helper.process.pid for helper in self._helpers()]

    def _helpers(self) -> List[HelperProcess]:
        return [getattr(self, name) for name in ("gateway", "serve") if hasattr(self, name)]

    def teardown(self) -> None:
        for helper in self._helpers():
            helper.stop()
        if getattr(self, "_loop", None) is not None:
            self._loop.close()


# ----------------------------------------------------------------------
# mc-cluster
# ----------------------------------------------------------------------
class McCluster(Workload):
    """Sharded Fig. 5d mismatch Monte-Carlo on two local cluster workers."""

    name = "mc-cluster"
    SAMPLES = 400
    SHARDS = 4
    WORKERS = 2
    WARMUP_OPS = 3
    items_per_op = SAMPLES
    self_layers = (
        "analysis.merge_ms",
        "runtime.engine_self_ms",
        "runtime.cache.get_ms",
        "runtime.cache.put_ms",
        "cluster.dispatch_self_ms",
        "cluster.worker_critical_ms",
    )

    def setup(self) -> None:
        from repro.circuits.technology import tsmc65_like
        from repro.runtime import ArtifactCache, SweepEngine, make_executor

        self.calibrate(SweepEngine(cache=ArtifactCache(self.tmp / "calibration-cache")))
        self.technology = tsmc65_like()
        started = time.perf_counter()
        self.executor = make_executor("distributed", workers=self.WORKERS).start()
        self.layer_extras["cluster.start_s"] = time.perf_counter() - started
        if self.executor.coordinator is None:
            raise RuntimeError("cluster did not start (serial fallback)")
        self.engine = SweepEngine(self.executor, cache=ArtifactCache(self.tmp / "mc-cache"))
        reference = REFERENCE["mc-cluster"]
        self.ref_sigma = np.asarray(reference["sigma_at_sampling_times_v"])
        self.ref_final_mean = reference["final_voltage_mean_v"]
        self.ref_final_std = reference["final_voltage_std_v"]
        self.ref_samples = reference["samples"]
        self.sampled: Optional[Tuple[int, Dict[str, np.ndarray]]] = None
        # Warm-up: workers import the solver and the first chunks settle.
        started = time.perf_counter()
        for _ in range(self.WARMUP_OPS):
            self._run(self.next_seed(warmup=True))
        self.layer_extras["cluster.warmup_s"] = time.perf_counter() - started

    def _run(self, seed: int) -> Dict[str, np.ndarray]:
        from repro.analysis.pvt_sweeps import mismatch_monte_carlo_sharded

        return mismatch_monte_carlo_sharded(
            self.technology, samples=self.SAMPLES, seed=seed, shards=self.SHARDS,
            engine=self.engine,
        )

    def op(self, index: int) -> None:
        seed = self.next_seed()
        result = self._run(seed)
        if self.inject == "perturb-mc" and index == self.sampled_index:
            result = dict(result, final_voltages=result["final_voltages"] * (1 + 1e-12))
        if index == self.sampled_index:
            self.sampled = (seed, result)
        final = result["final_voltages"]
        sigma = result["sigma_at_sampling_times"]
        if final.shape != (self.SAMPLES,) or not np.all(np.isfinite(final)):
            raise CheckFailed(f"malformed final voltages {final.shape}")
        # Relative standard error of a standard deviation over n samples.
        sigma_tolerance = Z_TOLERANCE * math.sqrt(
            1.0 / (2 * (self.SAMPLES - 1)) + 1.0 / (2 * (self.ref_samples - 1))
        )
        if np.any(np.abs(sigma / self.ref_sigma - 1.0) > sigma_tolerance):
            raise CheckFailed(f"sigma {sigma} outside {self.ref_sigma} +- {sigma_tolerance:.0%}")
        mean_tolerance = Z_TOLERANCE * self.ref_final_std * math.sqrt(
            1.0 / self.SAMPLES + 1.0 / self.ref_samples
        )
        if abs(float(np.mean(final)) - self.ref_final_mean) > mean_tolerance:
            raise CheckFailed(f"mean final voltage {np.mean(final):.6f} V off reference")

    def final_checks(self) -> None:
        from repro.analysis.pvt_sweeps import mismatch_monte_carlo

        if self.sampled is None:
            return
        seed, result = self.sampled
        unsharded = mismatch_monte_carlo(self.technology, samples=self.SAMPLES, seed=seed)
        for key in ("final_voltages", "sigma_at_sampling_times"):
            if np.asarray(unsharded[key]).tobytes() != np.asarray(result[key]).tobytes():
                self.failed_ops.add(self.sampled_index)

    def helper_pids(self) -> List[int]:
        return list(self.executor.worker_pids) if hasattr(self, "executor") else []

    def teardown(self) -> None:
        if hasattr(self, "executor"):
            self.executor.close()

    # -- tracing ------------------------------------------------------------
    def install_trace(self, tracer: benchtrace.Tracer) -> None:
        from repro.cluster.executor import DistributedExecutor

        super().install_trace(tracer)
        self._compute: Dict[int, float] = {}

        def execute(executor: Any, jobs: Any, *args: Any, **kwargs: Any) -> List[Any]:
            timed = [
                dataclasses.replace(job, fn=benchtrace.timed_job, args=(job.fn, *job.args))
                for job in jobs
            ]
            started = time.perf_counter()
            results = original(executor, timed, *args, **kwargs)
            tracer.seconds["cluster.execute"] += time.perf_counter() - started
            cleaned = []
            for result in results:
                result = dict(result)
                compute = float(result.pop(benchtrace.COMPUTE_KEY))
                pid = int(result.pop(benchtrace.PID_KEY))
                self._compute[pid] = self._compute.get(pid, 0.0) + compute
                tracer.seconds["cluster.worker_compute"] += compute
                cleaned.append(result)
            return cleaned

        original = tracer.replace(DistributedExecutor, "execute", execute)
        self._status_before = self.executor.status()["stats"]

    def traced_op(self, index: int, tracer: benchtrace.Tracer) -> Tuple[float, Dict[str, float]]:
        self._compute = {}
        chunks_before = self.executor.status()["stats"]["chunks_completed"]
        latency, values = super().traced_op(index, tracer)
        chunks = self.executor.status()["stats"]["chunks_completed"] - chunks_before
        values["cluster.chunks_per_op"] = float(chunks)
        values["cluster.worker_chunk_ms"] = 1e3 * sum(self._compute.values()) / max(chunks, 1)
        critical = max(self._compute.values(), default=0.0)
        values["cluster.worker_critical_ms"] = 1e3 * critical
        values["cluster.dispatch_self_ms"] = values["cluster.execute_ms"] - 1e3 * critical
        return latency, values

    def layers(self, latency: float, snap: Dict[str, Dict[str, float]]) -> Dict[str, float]:
        seconds = snap["seconds"]
        run = seconds.get("runtime.engine.run", 0.0)
        execute = seconds.get("cluster.execute", 0.0)
        get = seconds.get("runtime.cache.get", 0.0)
        put = seconds.get("runtime.cache.put", 0.0)
        values = self.cache_layers(snap)
        values.update(
            {
                "cluster.execute_ms": 1e3 * execute,
                "runtime.engine_self_ms": 1e3 * (run - execute - get - put),
                "analysis.merge_ms": 1e3 * (latency - run),
            }
        )
        return values

    def trace_summary(self, traced_ops: int) -> Dict[str, float]:
        after = self.executor.status()["stats"]
        before = self._status_before
        ops = max(traced_ops, 1)
        values = dict(self.layer_extras)
        for key in ("chunks_stolen", "chunks_retried"):
            values[f"cluster.{key}"] = (after[key] - before[key]) / ops
        return values


WORKLOADS = {cls.name: cls for cls in (McPvt, DseWarmGateway, McCluster)}
