"""OPTIMA bit-line discharge models (paper Eq. 3-6).

The paper models the bit-line-bar voltage iteratively:

* Eq. 3 — base model:  ``V_BL(t, V_WL) = V_DD + p4(V_od) * p2(t)`` with the
  overdrive ``V_od = V_WL - V_th``.  The product term is negative (it is the
  discharge), and the polynomial in ``V_od`` captures the alpha-power
  nonlinearity plus the sub-threshold residual conduction.
* Eq. 4 — supply extension:
  ``V_BL(t, V_WL, V_DD) = V_BL(t, V_WL) * p2(dV_DD)`` with
  ``dV_DD = V_DD - V_DD,nom``.  Two flavours are supported: the literal
  paper form (``supply_mode="voltage"``, the polynomial multiplies the whole
  bit-line voltage) and the default ``supply_mode="discharge"`` form where
  the polynomial multiplies only the discharge term while the pre-charge
  level tracks the actual supply exactly.  The second form removes the
  systematic offset error of the literal form (the pre-charge level is known
  exactly, only the discharge current needs a fitted correction); the
  ablation benchmark quantifies the difference.
* Eq. 5 — temperature extension (additive):
  ``+ t * (T - T_nom) * p3(V_WL)``.
* Eq. 6 — mismatch sigma: ``sigma(t, V_WL) = p3(t) * p3(V_WL)``; the actual
  mismatch deviation is drawn from a Gaussian with this sigma per discharge.

The class below evaluates the composed model and also supports stochastic
sampling, which is what the discrete-time simulation framework and the
multiplier model consume.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Union

import numpy as np

from repro.core.polynomials import Polynomial1D, SeparableProductModel

ArrayLike = Union[float, np.ndarray]


@dataclasses.dataclass
class DischargeModel:
    """Composed OPTIMA discharge model.

    Attributes
    ----------
    base:
        The Eq. 3 product model ``p4(V_od) * p2(t)``; called with
        ``(V_od, t)`` and returning the (negative) voltage deviation from
        the pre-charge level.
    supply:
        The Eq. 4 correction polynomial ``p2(dV_DD)``.
    temperature_coefficient:
        The Eq. 5 polynomial ``p3(V_WL)`` multiplying ``t * (T - T_nom)``.
    mismatch_sigma_model:
        The Eq. 6 product model ``p3(t) * p3(V_WL)``; called with
        ``(t, V_WL)``.
    threshold_voltage:
        ``V_th`` used to convert word-line voltage to overdrive.
    vdd_nominal:
        Nominal supply the base model was fitted at.
    temperature_nominal:
        Nominal temperature in kelvin.
    supply_mode:
        ``"discharge"`` (default) applies the Eq. 4 polynomial to the
        discharge term only; ``"voltage"`` reproduces the literal paper
        form that multiplies the whole bit-line voltage.
    """

    base: SeparableProductModel
    supply: Polynomial1D
    temperature_coefficient: Polynomial1D
    mismatch_sigma_model: SeparableProductModel
    threshold_voltage: float
    vdd_nominal: float
    temperature_nominal: float
    supply_mode: str = "discharge"

    def __post_init__(self) -> None:
        if self.supply_mode not in ("discharge", "voltage"):
            raise ValueError("supply_mode must be 'discharge' or 'voltage'")

    # ------------------------------------------------------------------
    # Deterministic evaluation
    # ------------------------------------------------------------------
    def overdrive(self, wordline_voltage: ArrayLike) -> np.ndarray:
        """Gate overdrive ``V_od = V_WL - V_th`` (may be negative)."""
        return np.asarray(wordline_voltage, dtype=float) - self.threshold_voltage

    def bitline_voltage(
        self,
        time: ArrayLike,
        wordline_voltage: ArrayLike,
        vdd: Optional[ArrayLike] = None,
        temperature: Optional[ArrayLike] = None,
        stored_bit: int = 1,
    ) -> np.ndarray:
        """Bit-line-bar voltage at ``time`` seconds after the discharge starts.

        Arguments broadcast against each other.  A stored '0' keeps the line
        at the pre-charge level (the data dependence of paper Eq. 1).
        """
        time = np.asarray(time, dtype=float)
        wordline_voltage = np.asarray(wordline_voltage, dtype=float)
        vdd_value = self.vdd_nominal if vdd is None else np.asarray(vdd, dtype=float)
        temperature_value = (
            self.temperature_nominal
            if temperature is None
            else np.asarray(temperature, dtype=float)
        )
        if stored_bit not in (0, 1):
            raise ValueError("stored_bit must be 0 or 1")
        if stored_bit == 0:
            shape = np.broadcast_shapes(
                time.shape, wordline_voltage.shape, np.shape(vdd_value), np.shape(temperature_value)
            )
            return np.broadcast_to(np.asarray(vdd_value, dtype=float), shape).copy()

        # Eq. 3 discharge term (negative) and Eq. 4 supply correction.
        discharge_term = self.base(self.overdrive(wordline_voltage), time)
        delta_vdd = np.asarray(vdd_value, dtype=float) - self.vdd_nominal
        if self.supply_mode == "voltage":
            # Literal paper form: the polynomial scales the whole voltage.
            voltage = (self.vdd_nominal + discharge_term) * self.supply(delta_vdd)
        else:
            # Default form: exact pre-charge level, corrected discharge.
            voltage = vdd_value + discharge_term * self.supply(delta_vdd)
        # Eq. 5
        delta_t = np.asarray(temperature_value, dtype=float) - self.temperature_nominal
        voltage = voltage + time * delta_t * self.temperature_coefficient(wordline_voltage)
        return np.asarray(voltage, dtype=float)

    def discharge(
        self,
        time: ArrayLike,
        wordline_voltage: ArrayLike,
        vdd: Optional[ArrayLike] = None,
        temperature: Optional[ArrayLike] = None,
        stored_bit: int = 1,
    ) -> np.ndarray:
        """Discharge ``V_DD - V_BLB`` (clipped at zero)."""
        vdd_value = self.vdd_nominal if vdd is None else np.asarray(vdd, dtype=float)
        voltage = self.bitline_voltage(
            time, wordline_voltage, vdd=vdd_value, temperature=temperature, stored_bit=stored_bit
        )
        return np.maximum(np.asarray(vdd_value, dtype=float) - voltage, 0.0)

    # ------------------------------------------------------------------
    # Stochastic evaluation (mismatch)
    # ------------------------------------------------------------------
    def mismatch_sigma(self, time: ArrayLike, wordline_voltage: ArrayLike) -> np.ndarray:
        """Gaussian sigma of the mismatch-induced voltage deviation (Eq. 6)."""
        sigma = self.mismatch_sigma_model(
            np.asarray(time, dtype=float), np.asarray(wordline_voltage, dtype=float)
        )
        return np.maximum(np.asarray(sigma, dtype=float), 0.0)

    def sample_bitline_voltage(
        self,
        time: ArrayLike,
        wordline_voltage: ArrayLike,
        rng: np.random.Generator,
        vdd: Optional[ArrayLike] = None,
        temperature: Optional[ArrayLike] = None,
        stored_bit: int = 1,
        count: Optional[int] = None,
    ) -> np.ndarray:
        """Draw one mismatch-perturbed bit-line voltage per broadcast element.

        With ``count``, the result gains a leading axis of ``count``
        independent samples: the mean and sigma are evaluated once and the
        perturbations come from one ``rng.standard_normal`` draw, so a
        block of Monte-Carlo samples costs one pass, not ``count``.
        """
        mean = self.bitline_voltage(
            time, wordline_voltage, vdd=vdd, temperature=temperature, stored_bit=stored_bit
        )
        size = np.shape(mean) if count is None else (count,) + np.shape(mean)
        if stored_bit == 0:
            return np.broadcast_to(mean, size).copy()
        sigma = self.mismatch_sigma(time, wordline_voltage)
        sigma = np.broadcast_to(sigma, np.shape(mean))
        return mean + rng.standard_normal(size) * sigma

    def sample_discharge(
        self,
        time: ArrayLike,
        wordline_voltage: ArrayLike,
        rng: np.random.Generator,
        vdd: Optional[ArrayLike] = None,
        temperature: Optional[ArrayLike] = None,
        stored_bit: int = 1,
        count: Optional[int] = None,
    ) -> np.ndarray:
        """Draw mismatch-perturbed discharges (``count``: leading sample axis)."""
        vdd_value = self.vdd_nominal if vdd is None else np.asarray(vdd, dtype=float)
        voltage = self.sample_bitline_voltage(
            time,
            wordline_voltage,
            rng,
            vdd=vdd_value,
            temperature=temperature,
            stored_bit=stored_bit,
            count=count,
        )
        return np.maximum(np.asarray(vdd_value, dtype=float) - voltage, 0.0)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable representation."""
        return {
            "base": self.base.to_dict(),
            "supply": self.supply.to_dict(),
            "temperature_coefficient": self.temperature_coefficient.to_dict(),
            "mismatch_sigma_model": self.mismatch_sigma_model.to_dict(),
            "threshold_voltage": self.threshold_voltage,
            "vdd_nominal": self.vdd_nominal,
            "temperature_nominal": self.temperature_nominal,
            "supply_mode": self.supply_mode,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "DischargeModel":
        """Inverse of :meth:`to_dict`."""
        return cls(
            base=SeparableProductModel.from_dict(data["base"]),
            supply=Polynomial1D.from_dict(data["supply"]),
            temperature_coefficient=Polynomial1D.from_dict(data["temperature_coefficient"]),
            mismatch_sigma_model=SeparableProductModel.from_dict(data["mismatch_sigma_model"]),
            threshold_voltage=float(data["threshold_voltage"]),
            vdd_nominal=float(data["vdd_nominal"]),
            temperature_nominal=float(data["temperature_nominal"]),
            supply_mode=str(data.get("supply_mode", "discharge")),
        )
