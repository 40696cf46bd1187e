"""PVT robustness analysis of selected multiplier corners (paper Fig. 8).

For each selected corner the paper reports:

* the average multiplication result and its analogue standard deviation as a
  function of the expected result (Fig. 8, left column), and
* the average error as a function of supply voltage and temperature
  (Fig. 8, right column).

Both analyses run on the fast OPTIMA-backed multiplier, which is the whole
point of the framework: a PVT sweep over three corners finishes in
milliseconds instead of the hours a transistor-level corner sweep costs.

The mismatch Monte-Carlo of the mean error
(:func:`monte_carlo_error_distribution`) runs in seeded blocks of
:data:`MC_BLOCK` samples, one engine job per block.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.conditions import OperatingConditions, celsius_to_kelvin
from repro.core.model_suite import OptimaModelSuite
from repro.multiplier.config import MultiplierConfig
from repro.multiplier.error_analysis import analyze_input_space, group_by_expected_product
from repro.multiplier.imac import InSramMultiplier
from repro.runtime import Job, SweepEngine, SweepSpec


@dataclasses.dataclass
class TransferCurve:
    """Average result / sigma versus expected product (Fig. 8 left)."""

    expected: np.ndarray
    mean_result: np.ndarray
    result_sigma_lsb: np.ndarray
    mean_error: np.ndarray

    def max_deviation(self) -> float:
        """Largest deviation of the mean result from the ideal transfer."""
        return float(np.max(np.abs(self.mean_result - self.expected)))

    def worst_sigma_lsb(self) -> float:
        """Largest analogue sigma along the transfer curve, in LSB."""
        return float(np.max(self.result_sigma_lsb))


@dataclasses.dataclass
class SensitivitySweep:
    """Average error versus one operating-condition axis (Fig. 8 right)."""

    values: np.ndarray
    mean_error_lsb: np.ndarray
    axis: str

    def error_span(self) -> float:
        """Spread of the mean error across the sweep."""
        return float(np.max(self.mean_error_lsb) - np.min(self.mean_error_lsb))

    def worst_case(self) -> Tuple[float, float]:
        """(axis value, error) of the worst point of the sweep."""
        index = int(np.argmax(self.mean_error_lsb))
        return float(self.values[index]), float(self.mean_error_lsb[index])


@dataclasses.dataclass
class CornerRobustnessReport:
    """Full Fig. 8 data set for one corner."""

    config: MultiplierConfig
    transfer: TransferCurve
    supply_sweep: SensitivitySweep
    temperature_sweep: SensitivitySweep
    nominal_error_lsb: float
    nominal_energy_per_multiplication: float
    small_operand_error_lsb: float

    def describe(self) -> str:
        """Short human-readable description used in reports."""
        vdd_worst = self.supply_sweep.worst_case()
        temp_worst = self.temperature_sweep.worst_case()
        return (
            f"{self.config.name}: nominal eps={self.nominal_error_lsb:.2f} LSB, "
            f"sigma_max={self.transfer.worst_sigma_lsb():.2f} LSB, "
            f"worst VDD error {vdd_worst[1]:.2f} LSB @ {vdd_worst[0]:.2f} V, "
            f"worst T error {temp_worst[1]:.2f} LSB @ {temp_worst[0]:.0f} degC"
        )


def _mean_error_at_conditions(
    multiplier: InSramMultiplier,
    conditions: OperatingConditions,
) -> float:
    """Mean error of a nominally-calibrated multiplier at off-nominal conditions.

    Module-level so the process-pool executor can pickle it; the multiplier
    is built once (calibrated at nominal) and shared by every sweep point,
    reproducing the "ADC calibrated once at nominal, then swept" protocol.
    """
    return float(analyze_input_space(multiplier, conditions=conditions).mean_error_lsb)


def _sensitivity_batch(jobs: Sequence[Job]) -> List[float]:
    """Whole-chunk evaluator for :func:`_mean_error_at_conditions` jobs.

    The sweep shares one nominally-calibrated multiplier across every
    operating point, so the whole group of points can be evaluated as one
    NumPy pass with the supply / temperature values stacked on a leading
    axis (:meth:`InSramMultiplier.multiply_at_conditions`).  Per-point
    results are bit-identical to the per-job path; a chunk that is not the
    expected homogeneous shape (mixed functions, different multipliers)
    falls back to running each job individually rather than risking the
    identity guarantee.
    """
    if not jobs:
        return []
    first = jobs[0]
    if any(
        job.fn is not _mean_error_at_conditions
        or job.kwargs
        or len(job.args) != 2
        or job.args[0] is not first.args[0]
        for job in jobs
    ):
        return [job.run() for job in jobs]
    multiplier = first.args[0]
    points = [job.args[1] for job in jobs]
    x_grid, d_grid = multiplier.input_space()
    expected = (x_grid * d_grid).astype(float)
    results = multiplier.multiply_at_conditions(x_grid, d_grid, points).astype(float)
    return [float(np.mean(np.abs(sample - expected))) for sample in results]


def analyze_corner_robustness(
    suite: OptimaModelSuite,
    config: MultiplierConfig,
    supply_voltages: Sequence[float] = (0.90, 0.95, 1.00, 1.05, 1.10),
    temperatures_celsius: Sequence[float] = (0.0, 15.0, 27.0, 45.0, 60.0, 70.0),
    conditions: Optional[OperatingConditions] = None,
    engine: Optional[SweepEngine] = None,
) -> CornerRobustnessReport:
    """Run the full Fig. 8 analysis for one corner.

    The read-out ADC is calibrated once at nominal conditions and then kept
    fixed across the PVT sweep — exactly the situation a deployed circuit
    faces, and the reason supply/temperature variations translate into
    multiplication errors at all.

    Every point of the supply / temperature sweeps is one independent job
    submitted through ``engine`` (default: serial, bit-identical to the
    historical inline loop).
    """
    nominal = conditions or OperatingConditions(
        vdd=suite.vdd_nominal, temperature=suite.temperature_nominal
    )
    engine = engine or SweepEngine()
    multiplier = InSramMultiplier(suite, config, conditions=nominal)

    nominal_analysis = analyze_input_space(multiplier, conditions=nominal)
    expected, mean_result, sigma_lsb, mean_error = group_by_expected_product(
        nominal_analysis
    )
    transfer = TransferCurve(
        expected=expected,
        mean_result=mean_result,
        result_sigma_lsb=sigma_lsb,
        mean_error=mean_error,
    )

    sweep_points = [nominal.with_vdd(float(vdd)) for vdd in supply_voltages] + [
        nominal.with_temperature(celsius_to_kelvin(float(t)))
        for t in temperatures_celsius
    ]
    errors = engine.map(
        _mean_error_at_conditions,
        [(multiplier, point) for point in sweep_points],
        name=f"robustness:{config.name}",
        batch_fn=_sensitivity_batch,
    )
    supply_errors = errors[: len(supply_voltages)]
    temperature_errors = errors[len(supply_voltages) :]
    supply_sweep = SensitivitySweep(
        values=np.asarray(supply_voltages, dtype=float),
        mean_error_lsb=np.asarray(supply_errors, dtype=float),
        axis="vdd",
    )
    temperature_sweep = SensitivitySweep(
        values=np.asarray(temperatures_celsius, dtype=float),
        mean_error_lsb=np.asarray(temperature_errors, dtype=float),
        axis="temperature_celsius",
    )

    return CornerRobustnessReport(
        config=config,
        transfer=transfer,
        supply_sweep=supply_sweep,
        temperature_sweep=temperature_sweep,
        nominal_error_lsb=nominal_analysis.mean_error_lsb,
        nominal_energy_per_multiplication=nominal_analysis.energy_per_multiplication,
        small_operand_error_lsb=nominal_analysis.small_operand_error(),
    )


def analyze_corners(
    suite: OptimaModelSuite,
    configs: Dict[str, MultiplierConfig],
    **kwargs: object,
) -> Dict[str, CornerRobustnessReport]:
    """Run :func:`analyze_corner_robustness` for every named corner."""
    return {
        name: analyze_corner_robustness(suite, config, **kwargs)
        for name, config in configs.items()
    }


#: Monte-Carlo samples per block job.  A block is the unit of Monte-Carlo
#: work: one job, one generator, one ``standard_normal`` draw and one
#: reduction.  A fixed constant, so results never depend on the schedule.
MC_BLOCK = 64


def _monte_carlo_block(
    multiplier: InSramMultiplier,
    conditions: OperatingConditions,
    seed_sequence: np.random.SeedSequence,
    count: int,
) -> np.ndarray:
    """Mean multiplication error of ``count`` Monte-Carlo samples.

    The block owns one :class:`numpy.random.SeedSequence` child and draws
    every sample's mismatch from one generator in one call
    (:meth:`InSramMultiplier.multiply_mc_samples`).  The per-sample errors
    are integers, so the one ``np.mean`` over the input-space axes is exact.
    """
    x_grid, d_grid = multiplier.input_space()
    expected = x_grid * d_grid
    rng = np.random.default_rng(seed_sequence)
    results = multiplier.multiply_mc_samples(x_grid, d_grid, rng, count, conditions)
    return np.mean(np.abs(results - expected), axis=(-2, -1))


def monte_carlo_error_distribution(
    suite: OptimaModelSuite,
    config: MultiplierConfig,
    samples: int = 200,
    seed: int = 0,
    conditions: Optional[OperatingConditions] = None,
    engine: Optional[SweepEngine] = None,
) -> np.ndarray:
    """Monte-Carlo distribution of the mean multiplication error.

    Each sample perturbs every discharge with the Eq. 6 mismatch sigma and
    evaluates the full input space, returning one mean-error value per
    sample.  This is the fast-model counterpart of the reference
    Monte-Carlo runs used in the speed-up comparison.

    The samples are split into blocks of :data:`MC_BLOCK` (the last one may
    be partial), one job per block.  Block ``i`` is seeded with child ``i``
    of ``np.random.SeedSequence(seed).spawn``, which depends only on
    ``(seed, i)``, so every executor runs the same blocks and returns
    bit-identical values (asserted in ``tests/test_runtime_engine.py``), and
    ``samples=N`` is a prefix of ``samples=M`` for ``M > N``.
    """
    if samples <= 0:
        raise ValueError("samples must be positive")
    nominal = conditions or OperatingConditions(
        vdd=suite.vdd_nominal, temperature=suite.temperature_nominal
    )
    engine = engine or SweepEngine()
    multiplier = InSramMultiplier(suite, config, conditions=nominal)
    children = np.random.SeedSequence(seed).spawn(-(-samples // MC_BLOCK))
    jobs = [
        Job(
            fn=_monte_carlo_block,
            args=(multiplier, nominal, child, min(MC_BLOCK, samples - index * MC_BLOCK)),
            name=f"monte-carlo[{index}]",
        )
        for index, child in enumerate(children)
    ]
    blocks = engine.run(SweepSpec(f"monte-carlo:{config.name}", jobs))
    return np.concatenate(blocks)
