"""Hot-path benchmark: per-sample loop vs seeded Monte-Carlo blocks.

A PVT Monte-Carlo sweep runs in blocks of ``MC_BLOCK`` samples: one job,
one generator, one ``standard_normal`` draw and one reduction per block
(:func:`repro.core.pvt.monte_carlo_error_distribution`).  This benchmark
measures that path against the per-sample work it replaces, on the same
fitted OPTIMA suite:

* **per-sample loop** — one ``SeedSequence`` child, one generator and one
  call of the public ``InSramMultiplier.multiply(x, d, rng=...)`` per
  sample, reduced with one ``np.mean`` per sample;
* **blocks** — ``monte_carlo_error_distribution`` through the serial, the
  process-pool parallel and the auto engine (``SweepEngine()``, no
  executor).

The three block runs must be bit-identical; the auto engine must be at
least 2x faster than both the per-sample loop and the parallel engine.  The
per-sample loop draws a different random stream, so it is compared on time
only.  The PVT sensitivity sweep (supply + temperature axes through
``analyze_corner_robustness``, whose spec carries a vectorised
``batch_fn``) is measured serial vs auto as a secondary record.

Usage::

    PYTHONPATH=src python benchmarks/bench_hotpath.py           # full
    PYTHONPATH=src python benchmarks/bench_hotpath.py --smoke   # CI

``--smoke`` shrinks the sample count and skips the speedup assertion (CI
containers can be noisy); completion and bit-identity are always asserted.
The speedup assertion is additionally gated on >= 4 cores, matching the
other benchmarks.  Results are printed and written to
``benchmarks/results/BENCH_hotpath.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time
from typing import List, Optional, Tuple

import numpy as np

from repro.circuits import tsmc65_like
from repro.core.calibration import calibrate
from repro.core.characterization import CharacterizationPlan
from repro.core.pvt import analyze_corner_robustness, monte_carlo_error_distribution
from repro.multiplier.config import MultiplierConfig
from repro.multiplier.imac import InSramMultiplier
from repro.runtime import SweepEngine, make_executor

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"

_SEED = 20260808
_REPEATS = 3  # best-of to damp scheduler noise on loaded CI hosts


def _bench_config() -> MultiplierConfig:
    return MultiplierConfig(
        tau0=0.16e-9, v_dac_zero=0.3, v_dac_full_scale=1.0, name="hotpath-bench"
    )


def _best_of(fn) -> Tuple[float, object]:
    """Best wall time of ``_REPEATS`` runs plus the (identical) result."""
    best = float("inf")
    result = None
    for _ in range(_REPEATS):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _per_sample_loop(suite, config, samples: int, seed: int) -> np.ndarray:
    """The per-sample baseline: one generator and one multiply per sample."""
    multiplier = InSramMultiplier(suite, config)
    x_grid, d_grid = multiplier.input_space()
    expected = (x_grid * d_grid).astype(float)
    errors = []
    for child in np.random.SeedSequence(seed).spawn(samples):
        rng = np.random.default_rng(child)
        result = multiplier.multiply(x_grid, d_grid, rng=rng)
        errors.append(np.mean(np.abs(result - expected)))
    return np.asarray(errors)


def run_benchmark(smoke: bool = False) -> dict:
    """Measure the per-sample loop vs Monte-Carlo blocks; returns the record."""
    cores = os.cpu_count() or 1
    samples = 64 if smoke else 256

    suite = calibrate(tsmc65_like(), CharacterizationPlan.quick()).suite
    config = _bench_config()

    # --- Monte-Carlo error distribution over the full input space --------
    def blocks(engine: SweepEngine):
        return lambda: monte_carlo_error_distribution(
            suite, config, samples=samples, seed=_SEED, engine=engine
        )

    per_sample_seconds, per_sample_errors = _best_of(
        lambda: _per_sample_loop(suite, config, samples, _SEED)
    )
    serial_seconds, serial_errors = _best_of(blocks(SweepEngine(make_executor("serial"))))
    parallel_seconds, parallel_errors = _best_of(
        blocks(SweepEngine(make_executor("parallel")))
    )
    auto_seconds, auto_errors = _best_of(blocks(SweepEngine()))
    assert per_sample_errors.shape == serial_errors.shape == (samples,)
    assert serial_errors.tobytes() == auto_errors.tobytes(), (
        "auto engine diverged from the serial Monte-Carlo blocks"
    )
    assert serial_errors.tobytes() == parallel_errors.tobytes(), (
        "parallel engine diverged from the serial Monte-Carlo blocks"
    )
    mc_speedup = per_sample_seconds / max(auto_seconds, 1e-9)
    parallel_speedup = parallel_seconds / max(auto_seconds, 1e-9)

    # --- PVT sensitivity sweep (supply + temperature axes) ---------------
    pvt_serial_seconds, serial_report = _best_of(
        lambda: analyze_corner_robustness(
            suite, config, engine=SweepEngine(make_executor("serial"))
        )
    )
    pvt_auto_seconds, auto_report = _best_of(
        lambda: analyze_corner_robustness(suite, config)
    )
    assert np.array_equal(
        serial_report.supply_sweep.mean_error_lsb,
        auto_report.supply_sweep.mean_error_lsb,
    ), "vectorised default diverged on the supply sweep"
    assert np.array_equal(
        serial_report.temperature_sweep.mean_error_lsb,
        auto_report.temperature_sweep.mean_error_lsb,
    ), "vectorised default diverged on the temperature sweep"
    pvt_speedup = pvt_serial_seconds / max(pvt_auto_seconds, 1e-9)

    record = {
        "cores": cores,
        "smoke": smoke,
        "monte_carlo_samples": samples,
        "repeats": _REPEATS,
        "per_sample_seconds": per_sample_seconds,
        "serial_seconds": serial_seconds,
        "parallel_seconds": parallel_seconds,
        "vectorised_seconds": auto_seconds,
        "speedup": mc_speedup,
        "speedup_vs_parallel": parallel_speedup,
        "pvt_serial_seconds": pvt_serial_seconds,
        "pvt_vectorised_seconds": pvt_auto_seconds,
        "pvt_speedup": pvt_speedup,
        "bit_identical": True,
    }

    lines = [
        f"Monte-Carlo hot path ({samples} samples, best of {_REPEATS})",
        f"  cores={cores}",
        f"  per-sample loop      : {per_sample_seconds:.3f} s",
        f"  blocks, serial       : {serial_seconds:.3f} s",
        f"  blocks, parallel     : {parallel_seconds:.3f} s",
        f"  blocks, auto         : {auto_seconds:.3f} s",
        f"  speedup vs per-sample: {mc_speedup:.2f}x",
        f"  speedup vs parallel  : {parallel_speedup:.2f}x (bit-identical)",
        f"  PVT sensitivity sweep: {pvt_serial_seconds:.3f} s -> "
        f"{pvt_auto_seconds:.3f} s ({pvt_speedup:.2f}x, bit-identical)",
    ]
    print("\n" + "\n".join(lines))

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / "BENCH_hotpath.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n"
    )

    if cores >= 4 and not smoke:
        assert mc_speedup >= 2.0, (
            f"Monte-Carlo blocks must be >= 2x the per-sample loop "
            f"({cores} cores), got {mc_speedup:.2f}x"
        )
        assert parallel_speedup >= 2.0, (
            f"Monte-Carlo blocks on the auto engine must be >= 2x the "
            f"parallel engine ({cores} cores), got {parallel_speedup:.2f}x"
        )
    return record


def test_vectorised_default_hot_path():
    """Pytest entry point: full measurement on >=4 cores, smoke otherwise."""
    run_benchmark(smoke=(os.cpu_count() or 1) < 4)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Per-sample loop vs seeded Monte-Carlo blocks on the PVT hot path"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced sample count; skip the speedup assertion (CI containers)",
    )
    args = parser.parse_args(argv)
    run_benchmark(smoke=args.smoke)
    return 0


if __name__ == "__main__":
    # Re-enter through the importable module name so job functions resolve
    # for any process-pool executor a future variant might use.
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
    import bench_hotpath as _module

    if _module.__name__ == "__main__":  # pragma: no cover - defensive
        raise SystemExit("re-import failed; run via pytest instead")
    sys.exit(_module.main(sys.argv[1:]))
