"""Alpha-power-law NMOS model with sub-threshold conduction.

The discharge path of a 6T SRAM cell during an in-memory multiplication is a
stack of two NMOS transistors: the access device (gate driven by the
word-line DAC) and the pull-down device of the inverter that stores '0'
(gate at VDD).  The analogue non-idealities the paper analyses in Section III
all originate from the I-V characteristics of this stack:

* quadratic (really ``alpha``-power) dependence of the saturation current on
  the gate overdrive -> nonlinear discharge vs. word-line voltage
  (paper Fig. 4b),
* non-zero sub-threshold current at ``V_GS <= V_th`` -> residual discharge
  for a logical '0' input (paper Fig. 4a, Section III-1),
* transition from saturation into the linear (triode) region once the
  bit-line has discharged below ``V_WL - V_th`` -> bent discharge curves and
  the sampling-time constraint of Eq. 2.

The model below is the Sakurai-Newton alpha-power law extended with a smooth
sub-threshold exponential, formulated so every method accepts NumPy arrays
and broadcasts (the mismatch Monte-Carlo experiments evaluate thousands of
device instances at once).
"""

from __future__ import annotations

import dataclasses
import operator
from typing import Optional, Union

import numpy as np

from repro.circuits.conditions import OperatingConditions
from repro.circuits.technology import ProcessCorner, TechnologyCard

ArrayLike = Union[float, np.ndarray]


@dataclasses.dataclass(frozen=True)
class MosfetParameters:
    """Electrical parameters of one NMOS instance at one operating point.

    Instances are produced by :meth:`NmosDevice.parameters` which folds in
    the technology card, the operating conditions (temperature and process
    corner) and optional per-device mismatch offsets.

    Attributes
    ----------
    threshold_voltage:
        Effective threshold voltage in volts.
    gain:
        Transconductance parameter ``K = k' * W/L * mobility_factor`` in
        A/V^alpha.
    alpha:
        Velocity-saturation exponent.
    channel_length_modulation:
        Early-effect coefficient in 1/V.
    subthreshold_swing:
        Sub-threshold swing in V/decade.
    leak_current:
        Drain current at ``V_GS == V_th`` for this geometry, anchoring the
        sub-threshold exponential.
    thermal_voltage:
        kT/q at the operating temperature.
    """

    threshold_voltage: float
    gain: float
    alpha: float
    channel_length_modulation: float
    subthreshold_swing: float
    leak_current: float
    thermal_voltage: float


class NmosDevice:
    """One NMOS transistor instance bound to a technology card.

    Parameters
    ----------
    technology:
        Technology card supplying process constants.
    width, length:
        Drawn dimensions in metres.
    vth_offset:
        Per-instance threshold mismatch offset in volts (from the Pelgrom
        sampler); defaults to a perfectly matched device.
    gain_offset:
        Per-instance relative current-factor mismatch (e.g. ``0.01`` for a
        +1 % deviation).
    name:
        Optional instance name used in diagnostics.
    """

    def __init__(
        self,
        technology: TechnologyCard,
        width: float,
        length: float,
        vth_offset: float = 0.0,
        gain_offset: float = 0.0,
        name: str = "M",
    ) -> None:
        if width <= 0.0 or length <= 0.0:
            raise ValueError("device dimensions must be positive")
        self.technology = technology
        self.width = width
        self.length = length
        self.vth_offset = vth_offset
        self.gain_offset = gain_offset
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"NmosDevice(name={self.name!r}, W={self.width * 1e9:.0f}n, "
            f"L={self.length * 1e9:.0f}n, dVth={self.vth_offset * 1e3:+.2f}mV)"
        )

    # ------------------------------------------------------------------
    # Parameter extraction
    # ------------------------------------------------------------------
    def parameters(self, conditions: OperatingConditions) -> MosfetParameters:
        """Fold technology, PVT conditions and mismatch into one parameter set."""
        tech = self.technology
        vth = tech.threshold_voltage(conditions.temperature, conditions.corner)
        vth += self.vth_offset
        gain = tech.device_gain(
            self.width, self.length, conditions.temperature, conditions.corner
        )
        gain *= 1.0 + self.gain_offset
        # The sub-threshold anchor current scales with geometry and corner in
        # the same way as the strong-inversion gain.
        leak = (
            tech.subthreshold_leak_current
            * (self.width / self.length)
            * tech.mobility_factor(conditions.temperature, conditions.corner)
            * (1.0 + self.gain_offset)
        )
        # Sub-threshold swing worsens linearly with absolute temperature.
        swing = tech.subthreshold_swing * (
            conditions.temperature / tech.temperature_nominal
        )
        return MosfetParameters(
            threshold_voltage=vth,
            gain=gain,
            alpha=tech.alpha,
            channel_length_modulation=tech.channel_length_modulation,
            subthreshold_swing=swing,
            leak_current=leak,
            thermal_voltage=tech.thermal_voltage(conditions.temperature),
        )

    # ------------------------------------------------------------------
    # I-V characteristics
    # ------------------------------------------------------------------
    def drain_current(
        self,
        vgs: ArrayLike,
        vds: ArrayLike,
        conditions: OperatingConditions,
    ) -> np.ndarray:
        """Drain current for gate-source voltage ``vgs`` and drain-source ``vds``.

        The model pieces together three operating regions and keeps the
        transitions continuous:

        * sub-threshold (``vgs < vth``): exponential in the gate underdrive
          with a ``1 - exp(-vds / vt)`` drain saturation factor,
        * saturation (``vds >= vdsat``): ``K * (vgs - vth) ** alpha`` with
          channel-length modulation,
        * triode (``vds < vdsat``): the Sakurai-Newton quadratic blending
          ``Isat * (2 - vds/vdsat) * (vds/vdsat)``.

        All arguments broadcast; the return value is a NumPy array.
        """
        params = self.parameters(conditions)
        return drain_current_from_parameters(params, vgs, vds)

    def saturation_drain_voltage(
        self, vgs: ArrayLike, conditions: OperatingConditions
    ) -> np.ndarray:
        """Drain saturation voltage ``V_dsat`` for the given gate voltage."""
        params = self.parameters(conditions)
        overdrive = np.maximum(np.asarray(vgs, dtype=float) - params.threshold_voltage, 0.0)
        return saturation_voltage(overdrive, params.alpha)


def saturation_voltage(
    overdrive: ArrayLike, alpha: float, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Alpha-power-law drain saturation voltage.

    The Sakurai-Newton model uses ``V_dsat = K_v * V_od ** (alpha / 2)``.
    ``K_v`` is chosen as 1.0 V^(1 - alpha/2) so the square-law limit
    (``alpha == 2``) reduces to the classical ``V_dsat == V_od``.  ``out``
    is an optional caller-owned array for the result.
    """
    overdrive = np.maximum(np.asarray(overdrive, dtype=float), 0.0, out=out)
    return apply_into(np.power, overdrive, alpha / 2.0, out=out)


_OPERATORS = {
    np.add: operator.add,
    np.subtract: operator.sub,
    np.multiply: operator.mul,
    np.divide: operator.truediv,
    np.negative: operator.neg,
    np.power: operator.pow,
}


def apply_into(ufunc: np.ufunc, *operands, out: Optional[np.ndarray]):
    """``ufunc(*operands)``, written into ``out`` when one is given.

    Without ``out`` the arithmetic ufuncs run as Python operators.  On
    arrays that is the same ufunc; on the NumPy scalars that arithmetic on
    0-d arrays returns it is NumPy's scalar routine, which rounds ``**``
    differently in the last bit and propagates the other NaN of a
    commutative pair.  So an unbuffered evaluation is exactly the operator
    form of the equation.
    """
    if out is None:
        return _OPERATORS.get(ufunc, ufunc)(*operands)
    return ufunc(*operands, out=out)


def select_into(condition, chosen, other, out: Optional[np.ndarray]):
    """``np.where(condition, chosen, other)``; in place when ``out`` is given.

    ``out`` must already hold ``other``: only the chosen elements are written.
    """
    if out is None:
        return np.where(condition, chosen, other)
    np.copyto(out, chosen, where=condition)
    return out


def parameter_shape(params: MosfetParameters) -> tuple:
    """Broadcast shape of the array-valued fields of ``params``.

    Scalar fields contribute ``()``; vectorised Monte-Carlo parameter sets
    contribute their sample axes.
    """
    return np.broadcast_shapes(
        *(np.shape(getattr(params, field.name)) for field in dataclasses.fields(params))
    )


@dataclasses.dataclass(frozen=True)
class GateTerms:
    """The parts of the I-V equation that depend on the gate voltage only.

    A device whose gate voltage is fixed while its drain voltage varies
    (the pull-down of the discharge stack, gate tied to VDD) evaluates these
    once with :func:`gate_terms` and then calls :func:`current_from_gate_terms`
    for every drain voltage, which saves two ``pow``, one ``exp`` and the
    gate-only masks per point.

    Attributes
    ----------
    overdrive:
        ``V_GS - V_th``.
    subthreshold_scale:
        ``I_leak * exp(sub_exponent)``, the sub-threshold current before
        the drain saturation factor.
    vdsat:
        Drain saturation voltage of the positive overdrive.
    saturation_scale:
        ``K * max(V_GS - V_th, 0) ** alpha``, the saturation current before
        channel-length modulation.
    vdsat_floor:
        ``max(vdsat, 1e-12)``, the divisor of the triode ratio.
    no_triode_ratio:
        ``not (vdsat > 0)``: where the triode ratio is zero (a NaN
        ``vdsat`` included).
    conducting:
        ``overdrive > 0``: where the strong-inversion current flows.
    """

    overdrive: np.ndarray
    subthreshold_scale: np.ndarray
    vdsat: np.ndarray
    saturation_scale: np.ndarray
    vdsat_floor: np.ndarray
    no_triode_ratio: np.ndarray
    conducting: np.ndarray

    @classmethod
    def empty(cls, shape: Optional[tuple]) -> "GateTerms":
        """Uninitialised buffers of ``shape`` for :func:`gate_terms`.

        ``None`` gives no buffers: every operation then returns a new
        result, as :func:`gate_terms` does without ``out``.
        """
        floats = [None if shape is None else np.empty(shape) for _ in range(5)]
        masks = [None if shape is None else np.empty(shape, dtype=bool) for _ in range(2)]
        return cls(*floats, *masks)


@dataclasses.dataclass(frozen=True)
class DrainBuffers:
    """Work arrays for :func:`current_from_gate_terms`.

    Attributes
    ----------
    vds:
        The drain voltage clipped at 0 V.
    current:
        The sub-threshold current, then the returned drain current.
    saturation:
        The saturation current with channel-length modulation.
    ratio:
        The triode ratio ``vds / vdsat`` (clamped to 1).
    strong:
        The triode current, then the strong-inversion current.
    in_saturation:
        ``vds >= vdsat``.
    """

    vds: np.ndarray
    current: np.ndarray
    saturation: np.ndarray
    ratio: np.ndarray
    strong: np.ndarray
    in_saturation: np.ndarray

    @classmethod
    def empty(cls, shape: Optional[tuple]) -> "DrainBuffers":
        """Uninitialised buffers of ``shape`` for :func:`current_from_gate_terms`.

        ``None`` gives no buffers, as for :meth:`GateTerms.empty`.
        """
        floats = [None if shape is None else np.empty(shape) for _ in range(5)]
        return cls(*floats, None if shape is None else np.empty(shape, dtype=bool))


def gate_terms(
    params: MosfetParameters, vgs: ArrayLike, out: Optional[GateTerms] = None
) -> GateTerms:
    """Evaluate the gate-only terms of the I-V equation at ``vgs``.

    ``out`` holds caller-owned buffers of the broadcast shape of ``vgs`` and
    ``params`` (see :meth:`GateTerms.empty`); the terms are computed in
    place and ``vgs`` may be ``out.overdrive`` itself.
    """
    if out is None:
        out = GateTerms.empty(None)
    vgs = np.asarray(vgs, dtype=float)
    overdrive = apply_into(np.subtract, vgs, params.threshold_voltage, out=out.overdrive)
    n_factor = params.subthreshold_swing / (np.log(10.0) * params.thermal_voltage)
    sub_exponent = np.minimum(overdrive, 0.0, out=out.subthreshold_scale)
    sub_exponent = apply_into(
        np.divide, sub_exponent, n_factor * params.thermal_voltage,
        out=out.subthreshold_scale,
    )
    sub_exponent = np.clip(sub_exponent, -80.0, 0.0, out=out.subthreshold_scale)
    subthreshold_scale = apply_into(
        np.multiply,
        params.leak_current,
        np.exp(sub_exponent, out=out.subthreshold_scale),
        out=out.subthreshold_scale,
    )

    overdrive_pos = np.maximum(overdrive, 0.0, out=out.saturation_scale)
    vdsat = saturation_voltage(overdrive_pos, params.alpha, out=out.vdsat)
    saturation_scale = apply_into(
        np.multiply,
        params.gain,
        apply_into(np.power, overdrive_pos, params.alpha, out=out.saturation_scale),
        out=out.saturation_scale,
    )
    no_triode_ratio = np.greater(vdsat, 0.0, out=out.no_triode_ratio)
    return GateTerms(
        overdrive=overdrive,
        subthreshold_scale=subthreshold_scale,
        vdsat=vdsat,
        saturation_scale=saturation_scale,
        vdsat_floor=np.maximum(vdsat, 1e-12, out=out.vdsat_floor),
        no_triode_ratio=np.logical_not(no_triode_ratio, out=out.no_triode_ratio),
        conducting=np.greater(overdrive, 0.0, out=out.conducting),
    )


def current_from_gate_terms(
    params: MosfetParameters,
    gate: GateTerms,
    vds: ArrayLike,
    out: Optional[DrainBuffers] = None,
) -> np.ndarray:
    """Finish the I-V equation for precomputed ``gate`` terms at ``vds``.

    The products keep the left-to-right order of the full equation, so
    ``current_from_gate_terms(p, gate_terms(p, vgs), vds)`` is bit-identical
    to evaluating it in one piece.  ``out`` holds caller-owned buffers of
    the broadcast shape of ``vds``, ``gate`` and ``params`` (see
    :meth:`DrainBuffers.empty`); the current is computed in place, returned
    as ``out.current``, and ``vds`` may be ``out.vds`` itself.  Call under
    ``np.errstate(divide="ignore", invalid="ignore")``, as
    :func:`drain_current_from_parameters` does: the triode ratio divides by
    a ``vdsat`` that may be infinite or NaN.
    """
    if out is None:
        out = DrainBuffers.empty(None)
    vds_clipped = np.maximum(np.asarray(vds, dtype=float), 0.0, out=out.vds)

    # --- sub-threshold component -------------------------------------
    drain_factor = apply_into(
        np.divide,
        apply_into(np.negative, vds_clipped, out=out.current),
        params.thermal_voltage,
        out=out.current,
    )
    drain_factor = apply_into(
        np.subtract, 1.0, np.exp(drain_factor, out=out.current), out=out.current
    )
    i_sub = apply_into(np.multiply, gate.subthreshold_scale, drain_factor, out=out.current)

    # --- strong-inversion component ----------------------------------
    i_sat = apply_into(
        np.multiply, params.channel_length_modulation, vds_clipped, out=out.saturation
    )
    i_sat = apply_into(np.add, 1.0, i_sat, out=out.saturation)
    i_sat = apply_into(np.multiply, gate.saturation_scale, i_sat, out=out.saturation)
    ratio = apply_into(np.divide, vds_clipped, gate.vdsat_floor, out=out.ratio)
    ratio = np.minimum(ratio, 1.0, out=out.ratio)
    ratio = select_into(gate.no_triode_ratio, 0.0, ratio, out=out.ratio)
    i_triode = apply_into(np.subtract, 2.0, ratio, out=out.strong)
    i_triode = apply_into(np.multiply, i_sat, i_triode, out=out.strong)
    i_triode = apply_into(np.multiply, i_triode, ratio, out=out.strong)
    in_saturation = np.greater_equal(vds_clipped, gate.vdsat, out=out.in_saturation)
    i_strong = select_into(in_saturation, i_sat, i_triode, out=out.strong)

    i_both = apply_into(np.add, i_strong, i_sub, out=out.strong)
    current = select_into(gate.conducting, i_both, i_sub, out=out.current)
    return np.maximum(current, 0.0, out=out.current)


def drain_current_from_parameters(
    params: MosfetParameters,
    vgs: ArrayLike,
    vds: ArrayLike,
) -> np.ndarray:
    """Evaluate the alpha-power-law I-V equation for a fixed parameter set.

    Split out of :class:`NmosDevice` so the transient solver can hoist the
    (scalar) parameter extraction out of its inner integration loop.  The
    equation is evaluated in two halves on the broadcast ``vgs``/``vds``
    pair: :func:`gate_terms` (overdrive, ``I_leak * exp(sub_exponent)``,
    ``V_dsat``, ``K * overdrive ** alpha`` and the gate-only masks), then
    :func:`current_from_gate_terms` (drain saturation factor, channel-length
    modulation, triode blending).  A caller whose gate voltage is fixed calls
    the two halves itself and evaluates the gate terms once; a caller that
    evaluates the equation repeatedly passes its own buffers to both.
    """
    vgs = np.asarray(vgs, dtype=float)
    vds = np.asarray(vds, dtype=float)
    vgs, vds = np.broadcast_arrays(vgs, vds)
    with np.errstate(divide="ignore", invalid="ignore"):
        return current_from_gate_terms(params, gate_terms(params, vgs), vds)


def access_device(technology: TechnologyCard, **mismatch: float) -> NmosDevice:
    """Construct the 6T access transistor (M5/M6) for a technology card."""
    return NmosDevice(
        technology,
        width=technology.access_width,
        length=technology.access_length,
        name="M_access",
        **mismatch,
    )


def pulldown_device(technology: TechnologyCard, **mismatch: float) -> NmosDevice:
    """Construct the 6T pull-down transistor (M2/M4) for a technology card."""
    return NmosDevice(
        technology,
        width=technology.pulldown_width,
        length=technology.pulldown_length,
        name="M_pulldown",
        **mismatch,
    )


def corner_description(corner: ProcessCorner) -> str:
    """Human-readable description of a process corner for reports."""
    if corner is ProcessCorner.FAST:
        return "fast (low Vth, high mobility)"
    if corner is ProcessCorner.SLOW:
        return "slow (high Vth, low mobility)"
    return "typical"
