"""6T SRAM cell model for discharge-based in-memory computing.

The cell follows paper Fig. 2: two cross-coupled inverters (M1-M4) store the
data bit differentially at nodes Q and Q-bar, and two NMOS access transistors
(M5, M6) connect those nodes to the BL / BLB column wires when the word line
is raised.

For the in-memory multiplication of Fig. 3 only the *discharge path* matters:
when the stored bit is '1' (Q = VDD, Q-bar = 0 V) and an analogue voltage is
applied to the word line, the BLB discharges through the series stack of the
access transistor M6 (gate at ``V_WL``) and the pull-down transistor M4 (gate
at ``VDD``).  The cell class therefore exposes a vectorised
:meth:`SramCell.discharge_current` that solves this two-transistor stack, and
the digital read/write behaviour needed by the array model.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Optional, Union

import numpy as np

from repro.circuits.conditions import OperatingConditions
from repro.circuits.mismatch import MismatchSample
from repro.circuits.mosfet import (
    MosfetParameters,
    NmosDevice,
    current_from_gate_terms,
    drain_current_from_parameters,
    gate_terms,
)
from repro.circuits.technology import TechnologyCard

ArrayLike = Union[float, np.ndarray]


class CellState(enum.Enum):
    """Logical content of one 6T cell."""

    ZERO = 0
    ONE = 1

    @classmethod
    def from_bit(cls, bit: int) -> "CellState":
        """Convert an integer bit (0 or 1) into a cell state."""
        if bit not in (0, 1):
            raise ValueError(f"a cell stores a single bit, got {bit!r}")
        return cls.ONE if bit else cls.ZERO

    @property
    def bit(self) -> int:
        """The stored bit as an integer."""
        return self.value


@dataclasses.dataclass(frozen=True)
class DischargeStack:
    """Pre-extracted parameters of the M6/M4 discharge stack.

    Extracting the MOSFET parameters once per operating point and reusing
    them across every integration step is what keeps the reference solver
    usable for thousand-sample Monte-Carlo runs.
    """

    access: MosfetParameters
    pulldown: MosfetParameters
    vdd: float

    def current(self, v_bl: ArrayLike, v_wl: ArrayLike) -> np.ndarray:
        """Discharge current drawn from the bit-line at voltage ``v_bl``.

        The internal node voltage ``v_x`` (the source of the access device
        and drain of the pull-down device) is found by equating the two
        device currents with a vectorised bisection:

        * access device:   gate ``V_WL``, drain ``v_bl``, source ``v_x``
        * pull-down device: gate ``VDD``,  drain ``v_x``,  source 0 V

        ``I_access`` decreases monotonically with ``v_x`` while
        ``I_pulldown`` increases, so the bisection always converges.

        The pull-down's gate is tied to VDD, so its gate-only terms
        (:func:`~repro.circuits.mosfet.gate_terms`) are evaluated once
        before the bisection; each step only finishes its drain terms.  The
        result is bit-identical to evaluating the full I-V equation per
        step.
        """
        v_bl = np.asarray(v_bl, dtype=float)
        v_wl = np.asarray(v_wl, dtype=float)
        v_bl, v_wl = np.broadcast_arrays(v_bl, v_wl)

        low = np.zeros_like(v_bl)
        high = np.maximum(v_bl, 0.0)
        # Shape (1,) * ndim, not a bare scalar: NumPy computes ``**`` on a
        # float64 scalar with a different routine than on arrays, and the
        # per-step equation saw VDD broadcast to v_x's shape, so the gate
        # terms must be arrays whenever v_x is.
        pulldown_gate = gate_terms(self.pulldown, np.full((1,) * v_bl.ndim, self.vdd))

        def balance(v_x: np.ndarray) -> np.ndarray:
            i_access = drain_current_from_parameters(
                self.access, v_wl - v_x, v_bl - v_x
            )
            i_pulldown = current_from_gate_terms(self.pulldown, pulldown_gate, v_x)
            return i_access - i_pulldown

        # 24 bisection steps resolve v_x to ~60 nV over a 1 V range, far
        # below any voltage scale that matters here.
        for _ in range(24):
            mid = 0.5 * (low + high)
            positive = balance(mid) > 0.0
            low = np.where(positive, mid, low)
            high = np.where(positive, high, mid)
        v_x = 0.5 * (low + high)
        return drain_current_from_parameters(self.access, v_wl - v_x, v_bl - v_x)

    def leakage_current(self, v_bl: ArrayLike) -> np.ndarray:
        """Residual bit-line leakage through an *unselected* path.

        When the stored bit is '0', the BLB-side internal node sits at VDD
        and only the access device's sub-threshold/junction leakage loads the
        line.  It is orders of magnitude below the selected-cell current but
        non-zero, which the array model uses to account for column leakage.
        """
        v_bl = np.asarray(v_bl, dtype=float)
        return drain_current_from_parameters(self.access, 0.0, np.maximum(v_bl - self.vdd, 0.0))


class SramCell:
    """One 6T SRAM cell with optional per-device mismatch.

    Parameters
    ----------
    technology:
        Technology card providing device geometries and process constants.
    state:
        Initial stored bit.
    mismatch:
        Optional per-device mismatch offsets for the discharge stack.  A
        ``None`` value means a perfectly matched cell.
    """

    def __init__(
        self,
        technology: TechnologyCard,
        state: CellState = CellState.ZERO,
        mismatch: Optional[MismatchSample] = None,
    ) -> None:
        self.technology = technology
        self.state = state
        self.mismatch = mismatch or MismatchSample.nominal()
        self._access = NmosDevice(
            technology,
            width=technology.access_width,
            length=technology.access_length,
            vth_offset=self.mismatch.vth_access,
            gain_offset=self.mismatch.beta_access,
            name="M6",
        )
        self._pulldown = NmosDevice(
            technology,
            width=technology.pulldown_width,
            length=technology.pulldown_length,
            vth_offset=self.mismatch.vth_pulldown,
            gain_offset=self.mismatch.beta_pulldown,
            name="M4",
        )

    # ------------------------------------------------------------------
    # Digital behaviour
    # ------------------------------------------------------------------
    def write(self, bit: int) -> None:
        """Overwrite the stored bit (models the full-swing BL write)."""
        self.state = CellState.from_bit(bit)

    def read(self) -> int:
        """Return the stored bit (models a standard differential read)."""
        return self.state.bit

    @property
    def stored_bit(self) -> int:
        """The stored bit as an integer."""
        return self.state.bit

    # ------------------------------------------------------------------
    # Analogue behaviour
    # ------------------------------------------------------------------
    def discharge_stack(self, conditions: OperatingConditions) -> DischargeStack:
        """Extract the discharge-path parameters for one operating point."""
        return DischargeStack(
            access=self._access.parameters(conditions),
            pulldown=self._pulldown.parameters(conditions),
            vdd=conditions.vdd,
        )

    def discharge_current(
        self,
        v_bl: ArrayLike,
        v_wl: ArrayLike,
        conditions: OperatingConditions,
    ) -> np.ndarray:
        """Current the cell draws from the BLB at voltage ``v_bl``.

        When the stored bit is '0' the BLB-side node is held at VDD and only
        leakage flows; when it is '1' the full series-stack current flows and
        its magnitude depends on the word-line voltage, which is exactly the
        multiplication mechanism of paper Eq. 1.
        """
        stack = self.discharge_stack(conditions)
        if self.state is CellState.ZERO:
            return stack.leakage_current(v_bl)
        return stack.current(v_bl, v_wl)

    def saturation_limit(self, v_wl: float, conditions: OperatingConditions) -> float:
        """Bit-line voltage below which the access device leaves saturation.

        This is the right-hand side of paper Eq. 2: ``V_BL >= V_WL - V_th``.
        The ADC sampling time of a well-designed multiplier keeps the
        discharge above this limit.
        """
        params = self._access.parameters(conditions)
        return max(v_wl - params.threshold_voltage, 0.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"SramCell(state={self.state.name}, mismatch={self.mismatch.describe()})"
