"""Fast in-SRAM multiplier model built on the OPTIMA behavioural models.

The multiplication sequence follows paper Fig. 3 and Section V:

1. the 4-bit weight ``d`` is stored in one SRAM word (bit ``i`` in column
   ``i``),
2. all bit-line-bars are pre-charged to VDD,
3. the 4-bit input ``x`` is converted to a word-line voltage by the DAC,
4. bit-line-bar ``i`` discharges for ``2**i * tau0`` — but only if the
   stored bit ``d_i`` is 1,
5. the four discharged voltages are sampled and charge-shared,
6. an ADC converts the combined discharge to the digital product.

Every analogue quantity in steps 4-6 comes from the calibrated
:class:`~repro.core.model_suite.OptimaModelSuite`, which is why evaluating a
full 256-entry input space costs microseconds instead of the minutes a
transistor-level transient sweep takes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence, Tuple, Union

import numpy as np

from repro.circuits.conditions import OperatingConditions
from repro.converters.adc import Adc
from repro.converters.dac import DacLike, build_dac
from repro.converters.sampling import ChargeSharingCombiner
from repro.multiplier.config import MultiplierConfig

if TYPE_CHECKING:  # imported only for type annotations to avoid an import
    # cycle (repro.core imports repro.multiplier for the design-space
    # exploration, while the multiplier only *consumes* a model suite).
    from repro.core.model_suite import OptimaModelSuite

ArrayLike = Union[int, float, np.ndarray]


class InSramMultiplier:
    """Behavioural model of the IMAC-style 4-bit discharge multiplier.

    Parameters
    ----------
    suite:
        Calibrated OPTIMA model suite supplying discharges, sigmas and
        energies.
    config:
        Circuit configuration (design-space point).
    conditions:
        Default PVT conditions used when a call does not specify its own.
    adc:
        Optional pre-built ADC.  When omitted, a fixed-LSB ADC covering the
        supply range is used (the read-out hardware is shared by every
        design corner), followed by a one-time digital calibration that maps
        ADC codes to product codes by linear least squares.
    """

    def __init__(
        self,
        suite: OptimaModelSuite,
        config: MultiplierConfig,
        conditions: Optional[OperatingConditions] = None,
        adc: Optional[Adc] = None,
    ) -> None:
        self.suite = suite
        self.config = config
        self.conditions = conditions or OperatingConditions(
            vdd=suite.vdd_nominal, temperature=suite.temperature_nominal
        )
        self.dac: DacLike = build_dac(
            v_zero=config.v_dac_zero,
            v_full_scale=config.v_dac_full_scale,
            bits=config.bits,
            nonlinear_exponent=config.dac_nonlinear_exponent,
            capacitance=config.dac_capacitance,
        )
        self.combiner = ChargeSharingCombiner(
            branches=config.bits,
            capacitance_per_branch=config.sampling_capacitance,
        )
        self._discharge_times = np.asarray(config.discharge_times())
        if adc is not None:
            self.adc = adc
        else:
            self.adc = Adc(
                levels=max(int(round(suite.vdd_nominal / config.adc_lsb_voltage)), 1),
                gain=config.adc_lsb_voltage,
                offset=0.0,
                conversion_energy_per_sample=config.adc_conversion_energy,
            )
        self._readout_scale, self._readout_offset = self._calibrate_readout()

    # ------------------------------------------------------------------
    # Analogue path
    # ------------------------------------------------------------------
    def wordline_voltage(self, x: ArrayLike) -> np.ndarray:
        """DAC output voltage for the input operand ``x``."""
        return self.dac.voltage(x)

    def _weight_bits(self, d: ArrayLike) -> np.ndarray:
        """Bit decomposition of the stored operand, LSB first, last axis."""
        d = np.asarray(d, dtype=int)
        if np.any(d < 0) or np.any(d > self.config.max_operand):
            raise ValueError(
                f"stored operand out of range 0..{self.config.max_operand}"
            )
        shifts = np.arange(self.config.bits)
        return (d[..., np.newaxis] >> shifts) & 1

    def bitline_discharges(
        self,
        x: ArrayLike,
        d: ArrayLike,
        conditions: Optional[OperatingConditions] = None,
        rng: Optional[np.random.Generator] = None,
        count: Optional[int] = None,
    ) -> np.ndarray:
        """Per-bit-line discharge voltages, shape ``broadcast(x, d) + (bits,)``.

        With ``rng`` provided, each discharge is perturbed by the
        mismatch-sigma model (paper Eq. 6); without it, the deterministic
        mean behaviour is returned.  ``count`` (with ``rng``) prepends an
        axis of that many independent mismatch samples.
        """
        conditions = conditions or self.conditions
        x = np.asarray(x, dtype=int)
        if np.any(x < 0) or np.any(x > self.config.max_operand):
            raise ValueError(
                f"input operand out of range 0..{self.config.max_operand}"
            )
        bits = self._weight_bits(np.asarray(d))
        v_wl = self.wordline_voltage(x)[..., np.newaxis]
        times = self._discharge_times
        if rng is None:
            discharge = self.suite.discharge_voltage(times, v_wl, conditions)
        else:
            discharge = self.suite.sample_discharge_voltage(
                times, v_wl, rng, conditions, count=count
            )
        return discharge * bits

    def combined_discharge(
        self,
        x: ArrayLike,
        d: ArrayLike,
        conditions: Optional[OperatingConditions] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Charge-shared discharge of the combined sampling node."""
        discharges = self.bitline_discharges(x, d, conditions=conditions, rng=rng)
        return self.combiner.combine_discharges(discharges)

    def combined_sigma(
        self,
        x: ArrayLike,
        d: ArrayLike,
    ) -> np.ndarray:
        """Mismatch sigma of the combined node (volts)."""
        x = np.asarray(x, dtype=int)
        bits = self._weight_bits(np.asarray(d))
        v_wl = self.wordline_voltage(x)[..., np.newaxis]
        sigmas = self.suite.mismatch_sigma(self._discharge_times, v_wl) * bits
        return self.combiner.combined_sigma(sigmas)

    # ------------------------------------------------------------------
    # Digital result
    # ------------------------------------------------------------------
    def _calibrate_readout(self) -> Tuple[float, float]:
        """One-time digital calibration of the ADC-code to product mapping.

        The combined discharge of every operand pair is quantised by the
        fixed-LSB ADC; a least-squares *through-origin* fit of the ideal
        products against those ADC codes yields the digital gain the
        read-out applies afterwards.  The fit is constrained through the
        origin because the designer knows that zero discharge must decode to
        the product 0 — a free offset would trade error at zero (which
        dominates DNN workloads) for error elsewhere.
        """
        operands = np.arange(self.config.max_operand + 1)
        x_grid, d_grid = np.meshgrid(operands, operands, indexing="ij")
        voltages = self.combined_discharge(x_grid, d_grid)
        codes = self.adc.quantize(voltages).astype(float).ravel()
        products = (x_grid * d_grid).astype(float).ravel()
        denominator = float(np.dot(codes, codes))
        if denominator <= 0.0:
            return 1.0, 0.0
        scale = float(np.dot(codes, products) / denominator)
        if scale <= 0.0:
            return 1.0, 0.0
        return scale, 0.0

    @property
    def product_lsb_voltage(self) -> float:
        """Analogue voltage corresponding to one product code step."""
        return self.config.adc_lsb_voltage / self._readout_scale

    def multiply(
        self,
        x: ArrayLike,
        d: ArrayLike,
        conditions: Optional[OperatingConditions] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Digital multiplication result (product codes, broadcasting inputs)."""
        voltage = self.combined_discharge(x, d, conditions=conditions, rng=rng)
        return self._decode_voltage(voltage)

    def _decode_voltage(self, voltage: np.ndarray) -> np.ndarray:
        """ADC quantisation plus the calibrated digital read-out mapping."""
        codes = self.adc.quantize(voltage).astype(float)
        products = np.rint(self._readout_scale * codes + self._readout_offset)
        return np.clip(products, 0, self.config.product_levels).astype(int)

    def multiply_mc_samples(
        self,
        x: ArrayLike,
        d: ArrayLike,
        rng: np.random.Generator,
        count: int,
        conditions: Optional[OperatingConditions] = None,
    ) -> np.ndarray:
        """Digital results of ``count`` mismatch samples, one NumPy pass.

        Shape ``(count,) + broadcast(x, d)``.  The mean discharge and the
        mismatch sigma are evaluated once and every sample's perturbation
        comes from one ``rng.standard_normal`` draw; charge sharing, ADC
        quantisation and read-out are elementwise (or last-axis), so the
        whole block is a single pass.  The draw fills its output in C order,
        so the first ``k`` rows do not depend on ``count >= k``.
        """
        discharges = self.bitline_discharges(
            x, d, conditions=conditions, rng=rng, count=count
        )
        return self._decode_voltage(self.combiner.combine_discharges(discharges))

    def multiply_at_conditions(
        self,
        x: ArrayLike,
        d: ArrayLike,
        conditions_list: Sequence[OperatingConditions],
    ) -> np.ndarray:
        """Deterministic digital results for a stack of operating points.

        Shape ``(len(conditions_list),) + broadcast(x, d)``; row ``i`` is
        bit-identical to ``multiply(x, d, conditions=conditions_list[i])``.
        The supply / temperature values are broadcast as a leading axis
        through the discharge model (whose Eq. 3 polynomial term does not
        depend on them, so it is evaluated once for the whole stack).
        """
        x = np.asarray(x, dtype=int)
        if np.any(x < 0) or np.any(x > self.config.max_operand):
            raise ValueError(
                f"input operand out of range 0..{self.config.max_operand}"
            )
        bits = self._weight_bits(np.asarray(d))
        v_wl = self.wordline_voltage(x)[..., np.newaxis]
        axes = (1,) * len(
            np.broadcast_shapes(v_wl.shape, self._discharge_times.shape)
        )
        vdd = np.asarray(
            [point.vdd for point in conditions_list], dtype=float
        ).reshape((len(conditions_list),) + axes)
        temperature = np.asarray(
            [point.temperature for point in conditions_list], dtype=float
        ).reshape((len(conditions_list),) + axes)
        discharge = self.suite.discharge.discharge(
            self._discharge_times, v_wl, vdd=vdd, temperature=temperature
        )
        voltage = self.combiner.combine_discharges(discharge * bits)
        return self._decode_voltage(voltage)

    def multiplication_error(
        self,
        x: ArrayLike,
        d: ArrayLike,
        conditions: Optional[OperatingConditions] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Absolute error of the digital result in LSB (product code) units."""
        x_arr = np.asarray(x, dtype=int)
        d_arr = np.asarray(d, dtype=int)
        result = self.multiply(x_arr, d_arr, conditions=conditions, rng=rng)
        return np.abs(result.astype(float) - (x_arr * d_arr).astype(float))

    # ------------------------------------------------------------------
    # Energy accounting
    # ------------------------------------------------------------------
    def multiplication_energy(
        self,
        x: ArrayLike,
        d: ArrayLike,
        conditions: Optional[OperatingConditions] = None,
    ) -> np.ndarray:
        """Energy of one multiply (discharge + DAC + sampling + ADC), joules.

        The operand write is *not* included here; it is reported separately
        because a stored weight is typically reused across many multiplies
        (and the paper's Table I quotes ``E_mul`` without the write, while
        the 1.05 pJ headline number includes it).
        """
        conditions = conditions or self.conditions
        discharges = self.bitline_discharges(x, d, conditions=conditions)
        restore = np.sum(
            self.suite.discharge_event_energy(discharges, conditions), axis=-1
        )
        dac_energy = self.dac.conversion_energy(np.asarray(x))
        sampling = self.combiner.sampling_energy(
            conditions.vdd - discharges, conditions.vdd
        )
        return restore + dac_energy + sampling + self.config.adc_conversion_energy

    def operation_energy(
        self,
        x: ArrayLike,
        d: ArrayLike,
        conditions: Optional[OperatingConditions] = None,
    ) -> np.ndarray:
        """Energy of a full operation including the operand write."""
        conditions = conditions or self.conditions
        write = self.suite.word_write_energy(conditions, bits=self.config.bits)
        return self.multiplication_energy(x, d, conditions=conditions) + write

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def input_space(self) -> Tuple[np.ndarray, np.ndarray]:
        """Meshgrid of every (x, d) operand combination."""
        operands = np.arange(self.config.max_operand + 1)
        return np.meshgrid(operands, operands, indexing="ij")

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"InSramMultiplier({self.config.describe()})"
