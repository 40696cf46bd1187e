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
import math
from typing import Callable, Optional, Union

import numpy as np

from repro.circuits.conditions import OperatingConditions
from repro.circuits.mismatch import MismatchSample
from repro.circuits.mosfet import (
    DrainBuffers,
    GateTerms,
    MosfetParameters,
    NmosDevice,
    apply_into,
    current_from_gate_terms,
    drain_current_from_parameters,
    gate_terms,
    parameter_shape,
    select_into,
)
from repro.circuits.technology import TechnologyCard

ArrayLike = Union[float, np.ndarray]

# Rows per block of the stack bisection.  A block's 18 float working arrays
# of 129 grid points take ~1.2 MB at 64 rows, inside a 2 MB per-core L2
# cache, and a 100-sample Monte-Carlo table is two blocks.
_BLOCK_ROWS = 64


@dataclasses.dataclass(frozen=True)
class _BisectionBuffers:
    """Working arrays of one row block of :meth:`DischargeStack.current`."""

    low: np.ndarray
    high: np.ndarray
    mid: np.ndarray
    positive: np.ndarray
    access_gate: GateTerms
    access: DrainBuffers
    pulldown: DrainBuffers

    @classmethod
    def empty(cls, shape: Optional[tuple]) -> "_BisectionBuffers":
        """Buffers of ``shape``; ``None`` gives none (see :meth:`GateTerms.empty`)."""
        floats = [None if shape is None else np.empty(shape) for _ in range(3)]
        return cls(
            *floats,
            positive=None if shape is None else np.empty(shape, dtype=bool),
            access_gate=GateTerms.empty(shape),
            access=DrainBuffers.empty(shape),
            pulldown=DrainBuffers.empty(shape),
        )


def _head(buffers, rows: int):
    """The first ``rows`` rows of every array in a buffer dataclass."""
    return dataclasses.replace(
        buffers,
        **{
            field.name: (
                value[:rows] if isinstance(value, np.ndarray) else _head(value, rows)
            )
            for field in dataclasses.fields(buffers)
            for value in [getattr(buffers, field.name)]
        },
    )


def _as_rows(value, shape: tuple):
    """``value`` broadcast over the leading axes of ``shape``, as 2-D rows.

    The operand keeps its own last axis (1 or ``shape[-1]``), so a per-row
    parameter stays a column and the grid is never materialised for it.
    Scalars and 0-d arrays are returned unchanged.
    """
    if np.ndim(value) == 0:
        return value
    value = np.reshape(value, (1,) * (len(shape) - np.ndim(value)) + np.shape(value))
    rows = np.broadcast_to(value, shape[:-1] + value.shape[-1:])
    return rows.reshape(math.prod(shape[:-1]), value.shape[-1])


def _take(value, block):
    """Row block ``block`` of a row-laid-out operand (scalars pass through)."""
    return value[block] if np.ndim(value) else value


def _map_arrays(params: MosfetParameters, function: Callable) -> MosfetParameters:
    """Apply ``function`` to every array-valued field of ``params``."""
    updates = {
        field.name: function(getattr(params, field.name))
        for field in dataclasses.fields(params)
        if np.ndim(getattr(params, field.name))
    }
    return dataclasses.replace(params, **updates) if updates else params


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

        The broadcast ``(..., grid)`` problem is solved in blocks of
        ``_BLOCK_ROWS`` rows so each block's working arrays stay in cache.
        Those arrays are allocated once per call and every bisection step
        updates them in place, through the buffer arguments of
        :func:`~repro.circuits.mosfet.gate_terms` and
        :func:`~repro.circuits.mosfet.current_from_gate_terms`.  The
        pull-down's gate is tied to VDD, so its gate terms and gate-only
        masks are evaluated once per block; each step only finishes its
        drain terms.  Every element sees the same operations in the same
        order as evaluating the full I-V equation per step over the whole
        table, so the result is bit-identical to it.
        """
        v_bl = np.asarray(v_bl, dtype=float)
        v_wl = np.asarray(v_wl, dtype=float)
        shape = np.broadcast_shapes(
            v_bl.shape,
            v_wl.shape,
            parameter_shape(self.access),
            parameter_shape(self.pulldown),
        )
        if shape:
            rows = math.prod(shape[:-1])
            result = np.empty((rows, shape[-1]))
            work = _BisectionBuffers.empty((min(rows, _BLOCK_ROWS), shape[-1]))
            blocks = [
                slice(start, min(start + _BLOCK_ROWS, rows))
                for start in range(0, rows, _BLOCK_ROWS)
            ]
        else:
            # A 0-d problem runs unbuffered, on NumPy scalars, exactly as the
            # operator form of the equation does (see ``apply_into``).
            result = np.empty(())
            work = _BisectionBuffers.empty(None)
            blocks = [Ellipsis]
        v_bl, v_wl = _as_rows(v_bl, shape), _as_rows(v_wl, shape)
        access = _map_arrays(self.access, lambda value: _as_rows(value, shape))
        pulldown = _map_arrays(self.pulldown, lambda value: _as_rows(value, shape))
        # Shape (1, 1), not a bare scalar, whenever v_x is an array: NumPy
        # computes ``**`` on a float64 scalar with a different routine than
        # on arrays, and the per-step equation saw VDD broadcast to v_x.
        vdd = np.full((1, 1) if shape else (), self.vdd)

        with np.errstate(divide="ignore", invalid="ignore"):
            for block in blocks:
                if block is not Ellipsis and block.stop - block.start < len(work.mid):
                    work = _head(work, block.stop - block.start)
                result[block] = self._solve_block(
                    _take(v_bl, block),
                    _take(v_wl, block),
                    _map_arrays(access, lambda value: _take(value, block)),
                    _map_arrays(pulldown, lambda value: _take(value, block)),
                    vdd,
                    work,
                )
        return result.reshape(shape)[()]

    @staticmethod
    def _solve_block(
        v_bl: np.ndarray,
        v_wl: np.ndarray,
        access: MosfetParameters,
        pulldown: MosfetParameters,
        vdd: np.ndarray,
        work: _BisectionBuffers,
    ) -> np.ndarray:
        """Bisect one row block in ``work``; returns the access current."""
        pulldown_gate = gate_terms(pulldown, vdd)
        high = np.maximum(v_bl, 0.0, out=work.high)
        if work.low is None:
            low = np.zeros_like(v_bl)
        else:
            low = work.low
            low.fill(0.0)

        def access_current(v_x):
            vgs = apply_into(np.subtract, v_wl, v_x, out=work.access_gate.overdrive)
            vds = apply_into(np.subtract, v_bl, v_x, out=work.access.vds)
            gate = gate_terms(access, vgs, out=work.access_gate)
            return current_from_gate_terms(access, gate, vds, out=work.access)

        def midpoint():
            total = apply_into(np.add, low, high, out=work.mid)
            return apply_into(np.multiply, 0.5, total, out=work.mid)

        # 24 bisection steps resolve v_x to ~60 nV over a 1 V range, far
        # below any voltage scale that matters here.
        for _ in range(24):
            mid = midpoint()
            balance = apply_into(
                np.subtract,
                access_current(mid),
                current_from_gate_terms(pulldown, pulldown_gate, mid, out=work.pulldown),
                out=work.access.current,
            )
            positive = np.greater(balance, 0.0, out=work.positive)
            low = select_into(positive, mid, low, out=work.low)
            below = np.logical_not(positive, out=work.positive)
            high = select_into(below, mid, high, out=work.high)
        return access_current(midpoint())

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
