"""Tests for the sweep-execution engine and its three executors.

The load-bearing guarantees:

* serial, process-pool parallel and vectorised batch executors produce
  bit-identical, order-preserving results on the same jobs;
* the design-space exploration and Monte-Carlo PVT flows are
  schedule-independent (parallel == serial, element for element), and
  Monte-Carlo runs one job per seeded block of ``MC_BLOCK`` samples;
* cacheable jobs are served from the artifact cache on re-runs;
* the unified CLI drives a full DSE run end-to-end through the engine.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.core.characterization import CharacterizationPlan, characterize
from repro.core.dse import DesignSpace, explore_design_space
from repro.core.model_suite import OptimaModelSuite
from repro.core.pvt import MC_BLOCK, monte_carlo_error_distribution
from repro.runtime import (
    Artifact,
    ArtifactCache,
    BatchExecutor,
    Job,
    ParallelExecutor,
    SerialExecutor,
    SweepEngine,
    SweepSpec,
    job_key,
    make_executor,
)
from repro.runtime.cli import main as cli_main


def _square(value: int) -> int:
    """Toy job body (module-level so the process pool can pickle it)."""
    return value * value


def _toy_jobs(count: int = 10):
    return [Job(fn=_square, args=(i,), name=f"square[{i}]") for i in range(count)]


def _square_batch(jobs):
    """Vectorised toy batch evaluator."""
    values = np.asarray([job.args[0] for job in jobs])
    return list((values * values).tolist())


class TestExecutors:
    def test_serial_preserves_order(self):
        results = SerialExecutor().execute(_toy_jobs())
        assert results == [i * i for i in range(10)]

    @pytest.mark.parametrize("chunksize", [None, 1, 3, 100])
    def test_parallel_matches_serial(self, chunksize):
        jobs = _toy_jobs(17)
        expected = SerialExecutor().execute(jobs)
        parallel = ParallelExecutor(max_workers=2, chunksize=chunksize)
        assert parallel.execute(jobs) == expected

    def test_parallel_single_job_falls_back_to_serial(self):
        assert ParallelExecutor(max_workers=4).execute(_toy_jobs(1)) == [0]

    def test_parallel_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            ParallelExecutor(max_workers=0)
        with pytest.raises(ValueError):
            ParallelExecutor(chunksize=0)

    def test_batch_without_batch_fn(self):
        assert BatchExecutor(batch_size=4).execute(_toy_jobs(10)) == [
            i * i for i in range(10)
        ]

    def test_batch_with_vectorised_batch_fn(self):
        results = BatchExecutor(batch_size=3).execute(
            _toy_jobs(10), batch_fn=_square_batch
        )
        assert results == [i * i for i in range(10)]

    def test_batch_fn_result_count_is_validated(self):
        with pytest.raises(RuntimeError):
            BatchExecutor(batch_size=4).execute(_toy_jobs(8), batch_fn=lambda jobs: [1])

    def test_batch_rejects_bad_batch_size(self):
        with pytest.raises(ValueError):
            BatchExecutor(batch_size=0)

    def test_progress_callback_reaches_total(self):
        seen = []
        SerialExecutor().execute(_toy_jobs(5), progress=lambda d, t, n: seen.append((d, t)))
        assert seen == [(i + 1, 5) for i in range(5)]
        seen = []
        ParallelExecutor(max_workers=2, chunksize=2).execute(
            _toy_jobs(5), progress=lambda d, t, n: seen.append((d, t))
        )
        assert seen[-1] == (5, 5)

    def test_make_executor(self):
        assert isinstance(make_executor("serial"), SerialExecutor)
        assert make_executor("parallel", max_workers=3).max_workers == 3
        assert make_executor("batch", batch_size=5).batch_size == 5
        with pytest.raises(ValueError):
            make_executor("quantum")


class TestFallbackKeepsBatchFn:
    """Regression: every in-process degradation used to silently drop
    ``batch_fn`` (falling back to a plain serial loop); a sweep that
    brought its vectorised inner loop must keep it on every fallback
    path."""

    @staticmethod
    def _tracking_batch_fn(calls):
        def batch_fn(jobs):
            calls.append(len(jobs))
            return [job.args[0] ** 2 for job in jobs]

        return batch_fn

    def test_parallel_single_job_fallback(self):
        calls = []
        results = ParallelExecutor(max_workers=4).execute(
            _toy_jobs(1), batch_fn=self._tracking_batch_fn(calls)
        )
        assert results == [0]
        assert calls == [1]

    def test_parallel_single_worker_fallback(self):
        calls = []
        results = ParallelExecutor(max_workers=1).execute(
            _toy_jobs(7), batch_fn=self._tracking_batch_fn(calls)
        )
        assert results == [i * i for i in range(7)]
        assert sum(calls) == 7

    def test_parallel_pool_failure_fallback(self, monkeypatch):
        import repro.runtime.executors as executors_module

        def broken_pool(*args, **kwargs):
            raise OSError("no semaphores in this sandbox")

        monkeypatch.setattr(executors_module, "ProcessPoolExecutor", broken_pool)
        calls = []
        results = ParallelExecutor(max_workers=4).execute(
            _toy_jobs(9), batch_fn=self._tracking_batch_fn(calls)
        )
        assert results == [i * i for i in range(9)]
        assert sum(calls) == 9

    def test_distributed_single_job_fallback(self):
        from repro.cluster import DistributedExecutor

        calls = []
        executor = DistributedExecutor(workers=1)
        results = executor.execute(_toy_jobs(1), batch_fn=self._tracking_batch_fn(calls))
        assert results == [0]
        assert calls == [1]
        assert not executor._started  # never paid a cluster spin-up for one job


class TestSweepEngine:
    def test_run_preserves_submission_order(self):
        engine = SweepEngine(ParallelExecutor(max_workers=2, chunksize=1))
        results = engine.run(SweepSpec("toy", _toy_jobs(8)))
        assert results == [i * i for i in range(8)]

    def test_map_convenience(self):
        engine = SweepEngine()
        assert engine.map(_square, [(i,) for i in range(4)]) == [0, 1, 4, 9]

    def test_run_one(self):
        assert SweepEngine().run_one(Job(fn=_square, args=(7,))) == 49

    def test_stats_accumulate(self):
        engine = SweepEngine()
        engine.run(SweepSpec("toy", _toy_jobs(3)))
        engine.run(SweepSpec("toy", _toy_jobs(2)))
        assert engine.stats.sweeps == 2
        assert engine.stats.jobs_submitted == 5
        assert engine.stats.jobs_executed == 5
        assert "5 jobs submitted" in engine.describe()

    def test_cacheable_jobs_round_trip(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        executions = []

        def producer(value):
            executions.append(value)
            return np.arange(value, dtype=float)

        def build_job(value):
            return Job(
                fn=producer,
                args=(value,),
                name=f"produce[{value}]",
                key=job_key("toy-producer", value),
                encode=lambda result: Artifact(arrays={"data": result}),
                decode=lambda artifact: artifact.arrays["data"],
            )

        engine = SweepEngine(cache=cache)
        first = engine.run(SweepSpec("toy", [build_job(5), build_job(6)]))
        second = engine.run(SweepSpec("toy", [build_job(5), build_job(6)]))
        assert executions == [5, 6], "second run must be served from the cache"
        assert engine.stats.cache_hits == 2
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    def test_uncacheable_jobs_always_execute(self, tmp_path):
        engine = SweepEngine(cache=ArtifactCache(tmp_path))
        engine.run(SweepSpec("toy", _toy_jobs(3)))
        engine.run(SweepSpec("toy", _toy_jobs(3)))
        assert engine.stats.cache_hits == 0
        assert engine.stats.jobs_executed == 6


class TestScheduleIndependence:
    """Parallel and batch execution must be bit-identical to serial."""

    def test_dse_parallel_and_batch_match_serial(self, quick_suite):
        space = DesignSpace.quick()
        serial = explore_design_space(quick_suite, space)
        parallel = explore_design_space(
            quick_suite,
            space,
            engine=SweepEngine(ParallelExecutor(max_workers=2, chunksize=2)),
        )
        batched = explore_design_space(
            quick_suite, space, engine=SweepEngine(BatchExecutor(batch_size=3))
        )
        assert len(serial.points) == space.corner_count
        for reference, candidate in zip(serial.points, parallel.points):
            np.testing.assert_array_equal(
                reference.analysis.results, candidate.analysis.results
            )
            assert reference.analysis.energy_per_multiplication == (
                candidate.analysis.energy_per_multiplication
            )
            assert reference.config == candidate.config
        for reference, candidate in zip(serial.points, batched.points):
            np.testing.assert_array_equal(
                reference.analysis.results, candidate.analysis.results
            )

    def test_monte_carlo_sigma_is_schedule_independent(self, quick_suite, fom_config):
        """SeedSequence.spawn-derived seeds make serial and parallel runs
        produce bit-identical sigma estimates (satellite requirement)."""
        serial = monte_carlo_error_distribution(
            quick_suite, fom_config, samples=16, seed=42
        )
        parallel = monte_carlo_error_distribution(
            quick_suite,
            fom_config,
            samples=16,
            seed=42,
            engine=SweepEngine(ParallelExecutor(max_workers=2, chunksize=3)),
        )
        np.testing.assert_array_equal(serial, parallel)
        assert float(np.std(serial)) == float(np.std(parallel))
        assert float(np.std(serial)) > 0.0

    def test_dse_corner_keys_follow_suite_content(self, quick_suite, tmp_path):
        """The suite is fingerprinted once per sweep; changing any of its
        content must still change every corner's cache key."""
        space = DesignSpace.quick()
        changed_dict = quick_suite.to_dict()
        changed_dict["discharge"]["threshold_voltage"] += 1e-3
        changed = OptimaModelSuite.from_dict(changed_dict)

        def corner_keys(suite, root):
            cache = ArtifactCache(root)
            explore_design_space(suite, space, engine=SweepEngine(cache=cache))
            return set(cache.keys())

        original = corner_keys(quick_suite, tmp_path / "original")
        assert len(original) == space.corner_count
        assert corner_keys(quick_suite, tmp_path / "again") == original
        assert corner_keys(changed, tmp_path / "changed").isdisjoint(original)

    def test_characterization_parallel_matches_serial(self, technology):
        plan = CharacterizationPlan.quick()
        serial = characterize(technology, plan)
        parallel = characterize(
            technology,
            plan,
            engine=SweepEngine(ParallelExecutor(max_workers=2, chunksize=1)),
        )
        np.testing.assert_array_equal(
            serial.base.bitline_voltage, parallel.base.bitline_voltage
        )
        np.testing.assert_array_equal(
            serial.supply.bitline_voltage, parallel.supply.bitline_voltage
        )
        np.testing.assert_array_equal(serial.mismatch.sigma, parallel.mismatch.sigma)
        np.testing.assert_array_equal(
            serial.discharge_energy.energy, parallel.discharge_energy.energy
        )


class TestMonteCarloBlocks:
    """Monte-Carlo samples run as seeded blocks of ``MC_BLOCK``: one job
    per block, the same blocks on every executor."""

    def test_one_job_per_block(self, quick_suite, fom_config):
        engine = SweepEngine()
        errors = monte_carlo_error_distribution(
            quick_suite, fom_config, samples=256, seed=3, engine=engine
        )
        assert MC_BLOCK == 64
        assert errors.shape == (256,)
        assert engine.stats.jobs_submitted == 4

    @pytest.mark.parametrize("samples", [1, 63, 64, 65, 200])
    def test_in_process_executors_byte_identical(self, quick_suite, fom_config, samples):
        def run(engine):
            return monte_carlo_error_distribution(
                quick_suite, fom_config, samples=samples, seed=11, engine=engine
            )

        reference = run(SweepEngine(SerialExecutor()))
        assert reference.shape == (samples,)
        for engine in (
            SweepEngine(),
            SweepEngine(BatchExecutor(batch_size=3)),
            SweepEngine(ParallelExecutor(max_workers=2, chunksize=1)),
        ):
            candidate = run(engine)
            assert candidate.dtype == reference.dtype
            assert candidate.tobytes() == reference.tobytes()


class TestCli:
    def test_run_dse_fast_end_to_end(self, tmp_path, capsys):
        json_path = tmp_path / "dse.json"
        exit_code = cli_main(
            [
                "run",
                "dse",
                "--fast",
                "--quiet",
                "--cache-dir",
                str(tmp_path / "cache"),
                "--json",
                str(json_path),
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Table I reproduction" in output
        assert "SweepEngine" in output
        payload = json.loads(json_path.read_text())
        assert payload["corner_count"] == DesignSpace.quick().corner_count
        assert {row["corner"] for row in payload["selected"]} == {
            "fom",
            "power",
            "variation",
        }

    def test_run_dse_fast_warm_cache_executes_nothing(self, tmp_path, capsys):
        args = ["run", "dse", "--fast", "--quiet", "--cache-dir", str(tmp_path / "cache")]
        assert cli_main(args) == 0
        capsys.readouterr()
        assert cli_main(args) == 0
        output = capsys.readouterr().out
        assert " 0 executed" in output

    def test_cache_info_and_clear(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert cli_main(["run", "dse", "--fast", "--quiet", "--cache-dir", str(cache_dir)]) == 0
        capsys.readouterr()
        assert cli_main(["cache", "info", "--cache-dir", str(cache_dir)]) == 0
        assert "artifacts" in capsys.readouterr().out
        assert cli_main(["cache", "clear", "--cache-dir", str(cache_dir)]) == 0
        assert "removed" in capsys.readouterr().out
        assert len(ArtifactCache(cache_dir)) == 0

    def test_executor_cli_choices(self, tmp_path):
        for executor in ("serial", "parallel", "batch"):
            assert (
                cli_main(
                    [
                        "run",
                        "characterize",
                        "--fast",
                        "--quiet",
                        "--executor",
                        executor,
                        "--cache-dir",
                        str(tmp_path / f"cache-{executor}"),
                    ]
                )
                == 0
            )


class TestMakeExecutorValidation:
    """CLI flags must never be silently ignored or coerced."""

    def test_irrelevant_options_rejected(self):
        with pytest.raises(ValueError, match="serial"):
            make_executor("serial", max_workers=8)
        with pytest.raises(ValueError, match="batch"):
            make_executor("batch", max_workers=8)
        with pytest.raises(ValueError, match="parallel"):
            make_executor("parallel", batch_size=4)
        with pytest.raises(ValueError, match="typo_option"):
            make_executor("parallel", typo_option=1)

    def test_none_means_unset_and_is_always_accepted(self):
        assert isinstance(
            make_executor("serial", max_workers=None, chunksize=None, batch_size=None),
            SerialExecutor,
        )
        assert make_executor("batch", batch_size=None).batch_size == 8

    def test_invalid_values_propagate_instead_of_coercing(self):
        with pytest.raises(ValueError, match="batch_size"):
            make_executor("batch", batch_size=0)
        with pytest.raises(ValueError, match="max_workers"):
            make_executor("parallel", max_workers=0)
        with pytest.raises(ValueError, match="chunksize"):
            make_executor("parallel", chunksize=0)


class TestEngineProgressTotals:
    """Progress is reported against the true sweep size, cache hits included."""

    @staticmethod
    def _cacheable_job(value):
        return Job(
            fn=_square,
            args=(value,),
            name=f"square[{value}]",
            key=job_key("progress-totals", value),
            encode=lambda result: Artifact(arrays={"x": np.asarray([result])}),
            decode=lambda artifact: int(artifact.arrays["x"][0]),
        )

    def test_fully_cached_sweep_still_reports_progress(self, tmp_path):
        engine = SweepEngine(cache=ArtifactCache(tmp_path))
        jobs = [self._cacheable_job(i) for i in range(4)]
        engine.run(SweepSpec("toy", jobs))

        seen = []
        engine.run(
            SweepSpec("toy", [self._cacheable_job(i) for i in range(4)]),
            progress=lambda d, t, label: seen.append((d, t, label)),
        )
        assert [(d, t) for d, t, _ in seen] == [(i + 1, 4) for i in range(4)]
        assert all("(cached)" in label for _, _, label in seen)

    def test_mixed_sweep_counts_hits_and_executions_against_true_total(self, tmp_path):
        engine = SweepEngine(cache=ArtifactCache(tmp_path))
        engine.run(SweepSpec("warmup", [self._cacheable_job(0), self._cacheable_job(2)]))

        seen = []
        engine.run(
            SweepSpec("mixed", [self._cacheable_job(i) for i in range(5)]),
            progress=lambda d, t, label: seen.append((d, t)),
        )
        assert all(total == 5 for _, total in seen)
        dones = [done for done, _ in seen]
        assert dones == sorted(dones), "progress must be monotone"
        assert dones[-1] == 5
        assert len(seen) == 5, "every job (hit or executed) reports one tick"

    def test_engine_default_progress_callback_is_used(self, tmp_path):
        seen = []
        engine = SweepEngine(progress=lambda d, t, label: seen.append((d, t)))
        engine.run(SweepSpec("toy", _toy_jobs(3)))
        assert seen == [(1, 3), (2, 3), (3, 3)]


class TestParseSize:
    def test_suffixes(self):
        from repro.runtime.cli import parse_size

        assert parse_size("1234") == 1234
        assert parse_size("500M") == 500_000_000
        assert parse_size("1.5k") == 1500
        assert parse_size("2GB") == 2_000_000_000

    def test_invalid_inputs_raise_value_error(self):
        from repro.runtime.cli import parse_size

        for bad in ("", "x", "12Q", "inf", "1e999", "nan", "-1"):
            with pytest.raises(ValueError):
                parse_size(bad)
