"""Property-based tests (hypothesis) for core data structures and invariants."""

import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.converters.adc import Adc
from repro.converters.dac import LinearDac
from repro.core.metrics import rms_error, speedup_ratio
from repro.core.polynomials import Polynomial1D, SeparableProductModel
from repro.dnn.imc_injection import ExactBackend, LutBackend
from repro.dnn.quantization import ActivationQuantizer, QuantizationScheme, quantize_weights_symmetric
from repro.eventsim.kernel import SimulationKernel
from repro.multiplier.lut import ProductLookupTable


class TestPolynomialProperties:
    @given(
        coefficients=st.lists(
            st.floats(min_value=-5.0, max_value=5.0, allow_nan=False), min_size=1, max_size=6
        ),
        scale=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
        x=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    )
    def test_scaling_is_linear(self, coefficients, scale, x):
        poly = Polynomial1D(np.array(coefficients))
        scaled = poly.scaled(scale)
        assert float(scaled(x)) == pytest.approx(scale * float(poly(x)), rel=1e-9, abs=1e-9)

    @given(
        degree_x=st.integers(min_value=0, max_value=3),
        degree_y=st.integers(min_value=0, max_value=2),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_separable_fit_recovers_separable_data(self, degree_x, degree_y, seed):
        rng = np.random.default_rng(seed)
        coeff_x = rng.uniform(0.5, 1.5, degree_x + 1)
        coeff_y = rng.uniform(0.5, 1.5, degree_y + 1)
        x = rng.uniform(-1.0, 1.0, 200)
        y = rng.uniform(-1.0, 1.0, 200)
        target = np.polynomial.polynomial.polyval(x, coeff_x) * np.polynomial.polynomial.polyval(
            y, coeff_y
        )
        model = SeparableProductModel(degrees=(degree_x, degree_y))
        model.fit([x, y], target)
        assert model.rms_residual([x, y], target) < 1e-6


class TestConverterProperties:
    @given(
        v_zero=st.floats(min_value=0.1, max_value=0.5),
        span=st.floats(min_value=0.2, max_value=0.7),
        code=st.integers(min_value=0, max_value=15),
    )
    def test_dac_output_always_inside_range(self, v_zero, span, code):
        dac = LinearDac(bits=4, v_zero=v_zero, v_full_scale=v_zero + span)
        voltage = float(dac.voltage(code))
        assert v_zero - 1e-12 <= voltage <= v_zero + span + 1e-12

    @given(code=st.integers(min_value=0, max_value=15))
    def test_dac_inverse_is_exact_on_codes(self, code):
        dac = LinearDac(bits=4, v_zero=0.3, v_full_scale=1.0)
        assert int(dac.code_for_voltage(dac.voltage(code))) == code

    @given(
        voltage=st.floats(min_value=0.0, max_value=0.2, allow_nan=False),
        levels=st.integers(min_value=8, max_value=512),
    )
    def test_adc_reconstruction_error_within_half_lsb(self, voltage, levels):
        adc = Adc(levels=levels, gain=0.25 / levels)
        if voltage <= adc.full_scale:
            error = abs(float(adc.quantization_error(voltage)))
            assert error <= adc.lsb / 2.0 + 1e-12


class TestQuantizationProperties:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        scale=st.floats(min_value=0.01, max_value=2.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_weight_quantisation_error_bounded(self, seed, scale):
        rng = np.random.default_rng(seed)
        weights = rng.normal(0.0, scale, size=(20, 6)).astype(np.float32)
        codes, scales = quantize_weights_symmetric(weights, QuantizationScheme())
        reconstructed = codes * scales
        assert float(np.max(np.abs(reconstructed - weights))) <= float(scales.max()) * 0.5 + 1e-7

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_activation_codes_within_range(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(1.0, 2.0, size=300).astype(np.float32)
        quantizer = ActivationQuantizer.calibrate(values, QuantizationScheme())
        codes = quantizer.quantize(values)
        assert codes.min() >= 0
        assert codes.max() <= 15


class TestBackendProperties:
    @given(seed=st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=20, deadline=None)
    def test_exact_lut_equals_exact_backend(self, seed):
        rng = np.random.default_rng(seed)
        activations = rng.integers(0, 16, size=(5, 9))
        weights = rng.integers(-8, 8, size=(9, 3))
        lut = LutBackend(ProductLookupTable.exact())
        exact = ExactBackend()
        assert np.allclose(
            lut.matmul(activations, weights, activation_zero_point=int(rng.integers(0, 16))),
            exact.matmul(activations, weights),
        )


class TestMetricProperties:
    @given(
        values=st.lists(
            st.floats(min_value=-100.0, max_value=100.0, allow_nan=False), min_size=1, max_size=30
        )
    )
    def test_rms_error_of_identical_arrays_is_zero(self, values):
        assert rms_error(values, values) == pytest.approx(0.0, abs=1e-12)

    @given(
        reference=st.floats(min_value=1e-6, max_value=1e3),
        fast=st.floats(min_value=1e-6, max_value=1e3),
    )
    def test_speedup_ratio_is_reciprocal(self, reference, fast):
        assert speedup_ratio(reference, fast) == pytest.approx(1.0 / speedup_ratio(fast, reference))


class TestKernelProperties:
    @given(
        delays=st.lists(
            st.floats(min_value=1e-12, max_value=1e-6, allow_nan=False), min_size=1, max_size=20
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_events_always_execute_in_nondecreasing_time_order(self, delays):
        kernel = SimulationKernel()
        executed_times = []
        for delay in delays:
            kernel.schedule_at(delay, lambda: executed_times.append(kernel.now))
        kernel.run()
        assert executed_times == sorted(executed_times)
        assert len(executed_times) == len(delays)


def _sched_index(index: int) -> int:
    """Identity job for the socketless scheduler properties."""
    return index


# ----------------------------------------------------------------------
# Differential executor identity (module-level helpers so the process
# pool and the cluster workers can pickle them)
# ----------------------------------------------------------------------
def _diff_vector(seed: int, size: int) -> np.ndarray:
    """Deterministic pseudo-random vector: the per-job hot-path stand-in."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal(size).cumsum()


def _diff_batch(jobs) -> list:
    """Whole-group evaluator: one stacked NumPy pass over the batch.

    Each stream keeps its own generator and its identical ``standard_normal``
    call, so the stacked cumulative sum is bit-identical to the per-job path.
    """
    size = jobs[0].args[1]
    stacked = np.stack(
        [np.random.default_rng(job.args[0]).standard_normal(size) for job in jobs]
    )
    return list(np.cumsum(stacked, axis=1))


def _diff_jobs(entropy: int, count: int, size: int, keyed: bool = False) -> list:
    from repro.runtime import Artifact, Job, job_key

    encode = (lambda value: Artifact(arrays={"v": value})) if keyed else None
    decode = (lambda artifact: artifact.arrays["v"]) if keyed else None
    return [
        Job(
            fn=_diff_vector,
            args=(entropy + index, size),
            name=f"diff[{index}]",
            key=job_key("prop-diff", entropy, index, size) if keyed else None,
            encode=encode,
            decode=decode,
        )
        for index in range(count)
    ]


def _assert_byte_identical(reference: list, candidate: list) -> None:
    assert len(reference) == len(candidate)
    for index, (expected, actual) in enumerate(zip(reference, candidate)):
        expected = np.asarray(expected)
        actual = np.asarray(actual)
        assert actual.dtype == expected.dtype, f"dtype drift at index {index}"
        assert actual.shape == expected.shape, f"shape drift at index {index}"
        assert actual.tobytes() == expected.tobytes(), f"byte drift at index {index}"


@pytest.fixture(scope="module")
def diff_cluster():
    """A small local cluster shared by the distributed differential tests."""
    from repro.cluster import DistributedExecutor

    executor = DistributedExecutor(workers=2, chunksize=2, start_timeout=60.0)
    executor.start()
    if executor._fallback is not None:
        pytest.skip("cluster cannot start in this environment")
    yield executor
    executor.close()


class TestExecutorDifferential:
    """All executor strategies must return byte-identical results at
    identical indices, with and without a vectorised ``batch_fn`` — the
    lock on the vectorised-default hot path."""

    @given(
        entropy=st.integers(min_value=0, max_value=2**20),
        count=st.integers(min_value=1, max_value=24),
        size=st.integers(min_value=1, max_value=64),
        batch_size=st.integers(min_value=1, max_value=16),
        chunksize=st.integers(min_value=1, max_value=8),
        use_batch_fn=st.booleans(),
    )
    @settings(max_examples=12, deadline=None)
    def test_in_process_executors_byte_identical(
        self, entropy, count, size, batch_size, chunksize, use_batch_fn
    ):
        from repro.runtime import SweepEngine, SweepSpec, make_executor

        batch_fn = _diff_batch if use_batch_fn else None

        def run(executor):
            return SweepEngine(executor).run(
                SweepSpec("diff", _diff_jobs(entropy, count, size), batch_fn=batch_fn)
            )

        reference = run(make_executor("serial"))
        _assert_byte_identical(reference, run(None))  # auto (the default)
        _assert_byte_identical(
            reference, run(make_executor("batch", batch_size=batch_size))
        )
        _assert_byte_identical(
            reference,
            run(make_executor("parallel", max_workers=2, chunksize=chunksize)),
        )

    @given(
        entropy=st.integers(min_value=0, max_value=2**20),
        count=st.integers(min_value=1, max_value=16),
        size=st.integers(min_value=1, max_value=48),
        warm=st.lists(st.integers(min_value=0, max_value=15), max_size=8),
        use_batch_fn=st.booleans(),
    )
    @settings(max_examples=8, deadline=None)
    def test_cache_warm_cold_mix_byte_identical(
        self, entropy, count, size, warm, use_batch_fn
    ):
        """A partially warm artifact cache must not perturb a single byte:
        whichever subset of jobs is served from disk, every executor still
        returns the serial cold-run results."""
        from repro.runtime import ArtifactCache, SweepEngine, SweepSpec, make_executor

        batch_fn = _diff_batch if use_batch_fn else None
        reference = SweepEngine(make_executor("serial")).run(
            SweepSpec("diff", _diff_jobs(entropy, count, size), batch_fn=batch_fn)
        )
        warm_indices = sorted({index for index in warm if index < count})
        for executor in (None, make_executor("batch", batch_size=4)):
            with tempfile.TemporaryDirectory() as root:
                engine = SweepEngine(executor, cache=ArtifactCache(root))
                if warm_indices:
                    jobs = _diff_jobs(entropy, count, size, keyed=True)
                    engine.run(
                        SweepSpec(
                            "warmup",
                            [jobs[index] for index in warm_indices],
                            batch_fn=batch_fn,
                        )
                    )
                mixed = engine.run(
                    SweepSpec(
                        "diff",
                        _diff_jobs(entropy, count, size, keyed=True),
                        batch_fn=batch_fn,
                    )
                )
                _assert_byte_identical(reference, mixed)

    @given(
        entropy=st.integers(min_value=0, max_value=2**16),
        count=st.integers(min_value=1, max_value=10),
        size=st.integers(min_value=1, max_value=32),
        use_batch_fn=st.booleans(),
    )
    @settings(max_examples=4, deadline=None)
    def test_distributed_matches_serial_byte_identical(
        self, diff_cluster, entropy, count, size, use_batch_fn
    ):
        from repro.runtime import SweepEngine, SweepSpec, make_executor

        batch_fn = _diff_batch if use_batch_fn else None
        reference = SweepEngine(make_executor("serial")).run(
            SweepSpec("diff", _diff_jobs(entropy, count, size), batch_fn=batch_fn)
        )
        distributed = SweepEngine(diff_cluster).run(
            SweepSpec("diff", _diff_jobs(entropy, count, size), batch_fn=batch_fn)
        )
        _assert_byte_identical(reference, distributed)


class TestSchedulerProperties:
    """Invariants of the multi-tenant priority scheduler (repro.sched +
    the cluster coordinator's span queues), checked socketlessly against
    the coordinator's real dispatch/preemption code paths.

    Counters under test are process-global obs metrics, so every
    assertion works on before/after deltas.
    """

    @given(
        workers=st.integers(min_value=1, max_value=3),
        chunksize=st.integers(min_value=1, max_value=8),
        runs=st.lists(
            st.tuples(
                st.integers(min_value=-5, max_value=15),  # priority
                st.integers(min_value=1, max_value=20),  # jobs
            ),
            min_size=1,
            max_size=4,
        ),
        seed=st.integers(min_value=0, max_value=999),
    )
    @settings(max_examples=40, deadline=None)
    def test_no_lower_priority_dispatch_while_higher_queued(
        self, workers, chunksize, runs, seed
    ):
        """Whatever worker asks next, the chunk it gets always carries the
        globally highest queued priority — lower-priority spans can wait
        on any queue without ever jumping ahead."""
        import asyncio

        from repro.cluster.coordinator import Coordinator, _Run, _Span, _WorkerLink
        from repro.runtime import Job
        from repro.sched import SchedPolicy

        async def scenario():
            coordinator = Coordinator()
            links = []
            for index in range(workers):
                link = _WorkerLink(f"w{index}", "w", 0, 1, writer=None)
                coordinator._links[link.id] = link
                links.append(link)
            total_jobs = 0
            for priority, count in runs:
                run = _Run(
                    [Job(fn=_sched_index, args=(i,)) for i in range(count)],
                    None,
                    chunksize,
                    policy=SchedPolicy(priority=priority),
                )
                coordinator._distribute([_Span(run, 0, count)])
                total_jobs += count
            rng = np.random.default_rng(seed)
            dispatched = 0
            while True:
                top = coordinator._waiting_priority()
                if top is None:
                    break
                thief = links[int(rng.integers(0, workers))]
                chunk = coordinator._next_chunk(thief)
                assert chunk is not None, "queued work but nothing dispatchable"
                assert chunk.run.policy.priority == top, (
                    f"dispatched priority {chunk.run.policy.priority} while "
                    f"priority {top} was queued"
                )
                dispatched += len(chunk)
            assert dispatched == total_jobs

        asyncio.run(scenario())

    @given(
        count=st.integers(min_value=2, max_value=40),
        chunk_take=st.integers(min_value=1, max_value=40),
        kept=st.integers(min_value=0, max_value=45),
    )
    @settings(max_examples=60, deadline=None)
    def test_preemption_split_never_loses_or_duplicates_indices(
        self, count, chunk_take, kept
    ):
        """A preemption split-ack with an arbitrary ``kept`` leaves every
        job index exactly once across the shrunk chunk and the requeued
        tail — granted, declined or out-of-range alike."""
        import asyncio

        from repro.cluster.coordinator import Coordinator, _Run, _Span, _WorkerLink
        from repro.runtime import Job
        from repro.sched import SchedPolicy

        async def scenario():
            coordinator = Coordinator()
            link = _WorkerLink("w1", "w", 0, 1, writer=None)
            coordinator._links["w1"] = link
            run = _Run(
                [Job(fn=_sched_index, args=(i,)) for i in range(count)],
                None,
                chunk_take,
                policy=SchedPolicy(priority=0),
            )
            coordinator._distribute([_Span(run, 0, count)])
            chunk = coordinator._next_chunk(link)
            link.inflight[chunk.id] = chunk
            chunk.preempt_requested = True
            chunk_len = len(chunk)
            before = dict(coordinator.sched_stats)
            coordinator._handle_split_ack(link, {"chunk": chunk.id, "kept": kept})
            after = dict(coordinator.sched_stats)

            queued = [
                index
                for span in list(link.queue) + list(coordinator._orphans)
                for index in range(span.start, span.stop)
            ]
            covered = list(chunk.indices) + queued
            assert sorted(covered) == list(range(count)), (
                "split-ack lost or duplicated job indices"
            )
            assert len(covered) == len(set(covered))

            if 0 <= kept < chunk_len:
                # granted: the tail went back to the queues, the run pauses
                assert run.paused
                assert len(chunk) == kept
                assert after["preemptions"] - before["preemptions"] == 1
                assert (
                    after["jobs_requeued"] - before["jobs_requeued"]
                    == chunk_len - kept
                )
            else:
                # out-of-range kept: declined, nothing moved
                assert not run.paused
                assert not chunk.preempt_requested
                assert len(chunk) == chunk_len
                assert after["preemptions"] == before["preemptions"]
                assert after["jobs_requeued"] == before["jobs_requeued"]

        asyncio.run(scenario())

    @given(
        count=st.integers(min_value=1, max_value=30),
        chunksize=st.integers(min_value=1, max_value=8),
        cuts=st.lists(st.integers(min_value=0, max_value=30), max_size=30),
    )
    @settings(max_examples=40, deadline=None)
    def test_resume_offsets_exact_for_arbitrary_split_points(
        self, count, chunksize, cuts
    ):
        """Preempting at arbitrary split points and resuming through the
        real dispatch path yields every result exactly once, in submission
        order, with an exact monotone progress stream."""
        import asyncio

        from repro.cluster.coordinator import Coordinator, _Run, _Span, _WorkerLink
        from repro.runtime import Job
        from repro.sched import SchedPolicy

        async def scenario():
            coordinator = Coordinator()
            link = _WorkerLink("w1", "w", 0, 1, writer=None)
            coordinator._links["w1"] = link
            ticks = []
            run = _Run(
                [Job(fn=_sched_index, args=(i,)) for i in range(count)],
                lambda done, total, label: ticks.append((done, total)),
                chunksize,
                policy=SchedPolicy(priority=0),
            )
            coordinator._distribute([_Span(run, 0, count)])
            cut_iter = iter(cuts)
            while not run.done:
                chunk = coordinator._next_chunk(link)
                assert chunk is not None, "run unfinished but nothing queued"
                link.inflight[chunk.id] = chunk
                cut = next(cut_iter, None)
                if cut is not None and cut < len(chunk):
                    # preempt mid-chunk: the worker kept ``cut`` jobs
                    chunk.preempt_requested = True
                    coordinator._handle_split_ack(
                        link, {"chunk": chunk.id, "kept": cut}
                    )
                results = [run.jobs[i].run() for i in chunk.indices]
                del link.inflight[chunk.id]
                run.complete_chunk(chunk, results)
            assert run.future.result() == list(range(count))
            assert run.remaining == 0
            dones = [done for done, _ in ticks]
            assert dones == sorted(dones)
            assert dones[-1] == count
            assert all(total == count for _, total in ticks)

        asyncio.run(scenario())


class TestMonteCarloBlockProperties:
    """Seeded Monte-Carlo blocks: the cluster runs the same block jobs as
    the serial engine (the in-process executors are compared in
    ``tests/test_runtime_engine.py``), and a shorter run is a prefix of a
    longer one with the same seed."""

    @pytest.mark.parametrize("samples", [1, 63, 64, 65, 200])
    def test_distributed_matches_serial_byte_identical(
        self, diff_cluster, quick_suite, fom_config, samples
    ):
        from repro.core.pvt import monte_carlo_error_distribution
        from repro.runtime import SweepEngine, make_executor

        def run(executor):
            return monte_carlo_error_distribution(
                quick_suite, fom_config, samples=samples, seed=samples,
                engine=SweepEngine(executor),
            )

        reference = run(make_executor("serial"))
        _assert_byte_identical([reference], [run(diff_cluster)])

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        shorter=st.integers(min_value=1, max_value=150),
        extra=st.integers(min_value=1, max_value=150),
    )
    @settings(max_examples=10, deadline=None)
    def test_shorter_run_is_prefix(self, quick_suite, fom_config, seed, shorter, extra):
        from repro.core.pvt import monte_carlo_error_distribution

        short = monte_carlo_error_distribution(
            quick_suite, fom_config, samples=shorter, seed=seed
        )
        long = monte_carlo_error_distribution(
            quick_suite, fom_config, samples=shorter + extra, seed=seed
        )
        assert short.tobytes() == long[:shorter].tobytes()
