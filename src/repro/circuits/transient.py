"""Transient bit-line discharge solver (the Cadence Virtuoso stand-in).

The solver integrates the bit-line node equation

    C_BL * dV_BLB/dt = -I_cell(V_BLB, V_WL; PVT, mismatch)

with a fixed-step fourth-order Runge-Kutta scheme.  The cell current comes
from the series-stack solve in :mod:`repro.circuits.sram_cell`, so every
non-ideality the paper discusses in Section III (sub-threshold conduction,
alpha-power nonlinearity, saturation-to-triode transition, PVT and mismatch
dependence) shows up in the produced waveforms.

Because the word-line voltage is constant during one discharge window, the
node equation is autonomous in the bit-line voltage.  The solver therefore
tabulates the stack current over a dense bit-line-voltage grid once per run
and interpolates that table inside the RK4 loop.  The table is one
series-stack solve: a bisection over row blocks of the ``(traces, grid)``
table, small enough that a block's working arrays stay in cache, with the
arrays allocated once per call and updated in place on every step and the
pull-down's gate terms evaluated once per block (see
:meth:`~repro.circuits.sram_cell.DischargeStack.current`).  Its peak
memory is a small multiple of the table itself.  The table is kept flat, row after row, next to its per-cell
slope ``table[k + 1] - table[k]``, so each RK4 stage interpolates every
trace with one flat gather from each array.  Reading a waveform at a
sampling instant locates the time-grid cell once for all traces.  This
keeps the reference simulator accurate while making the thousand-sample
Monte-Carlo sweeps of the characterisation flow practical.
It is still orders of magnitude slower than evaluating the fitted OPTIMA
polynomials, which is exactly the comparison behind the paper's speed-up
claim (see :mod:`repro.core.speedup`).
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Union

import numpy as np

from repro.circuits.bitline import BitLine
from repro.circuits.conditions import OperatingConditions
from repro.circuits.mismatch import MismatchArrays, MismatchSample
from repro.circuits.mosfet import NmosDevice
from repro.circuits.sram_cell import CellState, DischargeStack, SramCell
from repro.circuits.technology import TechnologyCard
from repro.circuits.waveform import Waveform, interpolate_rows

ArrayLike = Union[float, np.ndarray]


@dataclasses.dataclass
class DischargeResult:
    """Outcome of one transient discharge simulation.

    Attributes
    ----------
    times:
        Simulation time grid in seconds (shared by all traces).
    voltages:
        Bit-line voltage traces; shape ``(..., len(times))`` where the
        leading dimensions follow the broadcast shape of the word-line
        voltage / mismatch inputs.
    conditions:
        PVT conditions of the run.
    wordline_voltage:
        The word-line voltage(s) that were applied.
    """

    times: np.ndarray
    voltages: np.ndarray
    conditions: OperatingConditions
    wordline_voltage: np.ndarray

    @property
    def final_voltage(self) -> np.ndarray:
        """Bit-line voltage at the end of the simulated window."""
        return self.voltages[..., -1]

    def voltage_at(self, time: float) -> np.ndarray:
        """Linearly interpolated bit-line voltage at ``time`` seconds.

        All traces share the time grid, so the grid cell is located once
        and every trace is interpolated in one vectorised step
        (:func:`~repro.circuits.waveform.interpolate_rows`, bit-identical
        to ``np.interp`` per trace).
        """
        if time < self.times[0] or time > self.times[-1]:
            raise ValueError(
                f"time {time:.3e} s outside simulated span "
                f"[{self.times[0]:.3e}, {self.times[-1]:.3e}] s"
            )
        sampled = interpolate_rows(self.times, self.voltages, time)
        if self.voltages.ndim == 1:
            return sampled[()]
        return sampled

    def delta_at(self, time: float) -> np.ndarray:
        """Discharge ``VDD - V_BLB(time)``."""
        return self.conditions.vdd - self.voltage_at(time)

    def waveform(self, index: int = 0) -> Waveform:
        """Extract one trace as a :class:`Waveform`."""
        flat = self.voltages.reshape(-1, self.times.shape[0])
        if not 0 <= index < flat.shape[0]:
            raise IndexError(f"trace index {index} out of range (have {flat.shape[0]})")
        return Waveform(times=self.times, values=flat[index], name="v(blb)")

    @property
    def trace_count(self) -> int:
        """Number of independent traces contained in the result."""
        if self.voltages.ndim == 1:
            return 1
        return int(np.prod(self.voltages.shape[:-1]))


class TransientSolver:
    """Fixed-step RK4 integrator of the bit-line discharge.

    Parameters
    ----------
    technology:
        Technology card (geometries, parasitics).
    bitline:
        Bit-line to discharge; defaults to the 64-row column of the card.
    time_step:
        Integration step in seconds.  The default (10 ps) resolves the
        nanosecond-scale discharge dynamics with RK4 error far below the
        millivolt scale that matters for the fitting experiments.
    voltage_grid_points:
        Resolution of the tabulated current-vs-voltage characteristic.
    """

    def __init__(
        self,
        technology: TechnologyCard,
        bitline: Optional[BitLine] = None,
        time_step: float = 10e-12,
        voltage_grid_points: int = 129,
    ) -> None:
        if time_step <= 0.0:
            raise ValueError("time_step must be positive")
        if voltage_grid_points < 16:
            raise ValueError("voltage_grid_points must be at least 16")
        self.technology = technology
        self.bitline = bitline or BitLine.from_technology(technology)
        self.time_step = time_step
        self.voltage_grid_points = voltage_grid_points

    # ------------------------------------------------------------------
    # Stack construction helpers
    # ------------------------------------------------------------------
    def _build_stack(
        self,
        conditions: OperatingConditions,
        mismatch: Union[MismatchSample, MismatchArrays, None],
    ) -> DischargeStack:
        """Build the discharge stack, possibly with vectorised mismatch."""
        if mismatch is None or isinstance(mismatch, MismatchSample):
            cell = SramCell(self.technology, CellState.ONE, mismatch)
            return cell.discharge_stack(conditions)

        # Vectorised Monte-Carlo: the threshold and gain offsets become
        # arrays inside the parameter set; the MOSFET equations broadcast.
        base_cell = SramCell(self.technology, CellState.ONE)
        stack = base_cell.discharge_stack(conditions)
        access = dataclasses.replace(
            stack.access,
            threshold_voltage=stack.access.threshold_voltage + mismatch.vth_access,
            gain=stack.access.gain * (1.0 + mismatch.beta_access),
            leak_current=stack.access.leak_current * (1.0 + mismatch.beta_access),
        )
        pulldown = dataclasses.replace(
            stack.pulldown,
            threshold_voltage=stack.pulldown.threshold_voltage + mismatch.vth_pulldown,
            gain=stack.pulldown.gain * (1.0 + mismatch.beta_pulldown),
            leak_current=stack.pulldown.leak_current * (1.0 + mismatch.beta_pulldown),
        )
        return DischargeStack(access=access, pulldown=pulldown, vdd=conditions.vdd)

    @staticmethod
    def _expand_stack_for_grid(stack: DischargeStack) -> DischargeStack:
        """Add a trailing axis to any vectorised stack parameter.

        The current table appends a voltage-grid axis to the trace shape, so
        per-trace parameter arrays (from Monte-Carlo mismatch) need a
        trailing singleton dimension to broadcast against it.
        """

        def expand(params):
            updates = {}
            for field in dataclasses.fields(params):
                value = getattr(params, field.name)
                if isinstance(value, np.ndarray) and value.ndim > 0:
                    updates[field.name] = value[..., np.newaxis]
            if not updates:
                return params
            return dataclasses.replace(params, **updates)

        return DischargeStack(
            access=expand(stack.access),
            pulldown=expand(stack.pulldown),
            vdd=stack.vdd,
        )

    def _current_table(
        self,
        stack: DischargeStack,
        wordline_voltage: np.ndarray,
        stored_bit: int,
        start_voltage: float,
        shape: tuple,
    ) -> tuple:
        """Tabulate the discharge current over a bit-line voltage grid.

        Returns ``(v_grid, currents)`` where ``v_grid`` descends from the
        pre-charge voltage to 0 V and ``currents`` has shape
        ``shape + (grid,)``.
        """
        grid = self.voltage_grid_points
        v_grid = np.linspace(start_voltage, 0.0, grid)
        grid_stack = self._expand_stack_for_grid(stack)
        if stored_bit == 0:
            table = grid_stack.leakage_current(v_grid)
            table = np.broadcast_to(table, shape + (grid,)).copy()
        else:
            v_wl = np.broadcast_to(wordline_voltage, shape)[..., np.newaxis]
            v_bl = np.broadcast_to(v_grid, shape + (grid,))
            table = grid_stack.current(v_bl, v_wl)
        return v_grid, np.maximum(table, 0.0, out=table)

    @staticmethod
    def _flatten_table(table: np.ndarray) -> tuple:
        """Lay the current table out for :meth:`_interpolate_current`.

        Returns ``(lower, slope, row_base, last_position)``: the table
        flattened row by row, its per-cell slope ``table[k + 1] - table[k]``
        in the same layout (the unused last column is zero), the flat offset
        of each trace's row (shape ``table.shape[:-1]``) and the largest
        position the interpolation may use.
        """
        grid = table.shape[-1]
        slope = np.zeros_like(table)
        slope[..., :-1] = table[..., 1:] - table[..., :-1]
        row_base = np.arange(0, table.size, grid).reshape(table.shape[:-1])
        return table.reshape(-1), slope.reshape(-1), row_base, grid - 1.000001

    @staticmethod
    def _interpolate_current(
        voltage: np.ndarray,
        start_voltage: float,
        grid_step: float,
        lower: np.ndarray,
        slope: np.ndarray,
        row_base: np.ndarray,
        last_position: float,
    ) -> np.ndarray:
        """Linearly interpolate the tabulated current at ``voltage``.

        ``lower``, ``slope``, ``row_base`` and ``last_position`` come from
        :meth:`_flatten_table`.  The grid is uniform and descending, so the
        cell index is a direct computation rather than a search, and one
        flat gather from ``lower`` and one from ``slope`` replace a per-row
        lookup of both cell ends.  This is the hot path of the RK4 loop and
        stays fully vectorised across traces.  Clipping the position to
        ``last_position`` (just below the last grid point) keeps
        ``index + 1`` inside the row, so the slope's unused last column is
        never read.
        """
        position = np.minimum(
            np.maximum((start_voltage - voltage) / grid_step, 0.0), last_position
        )
        index = position.astype(int)
        cell = row_base + index
        return lower[cell] + (position - index) * slope[cell]

    # ------------------------------------------------------------------
    # Main entry point
    # ------------------------------------------------------------------
    def simulate_discharge(
        self,
        wordline_voltage: ArrayLike,
        duration: float,
        conditions: Optional[OperatingConditions] = None,
        stored_bit: int = 1,
        mismatch: Union[MismatchSample, MismatchArrays, None] = None,
        initial_voltage: Optional[float] = None,
    ) -> DischargeResult:
        """Integrate the bit-line voltage for ``duration`` seconds.

        Parameters
        ----------
        wordline_voltage:
            Scalar or array of word-line voltages; the result broadcasts
            with the mismatch arrays, producing one trace per combination.
        duration:
            Simulated time window in seconds.
        conditions:
            PVT operating point; nominal conditions when omitted.
        stored_bit:
            The bit stored in the cell.  A stored '0' produces (almost) no
            discharge, reproducing the data dependence of paper Eq. 1.
        mismatch:
            A single mismatch sample, vectorised Monte-Carlo arrays or
            ``None`` for a matched cell.
        initial_voltage:
            Pre-charge voltage of the bit-line; defaults to VDD.
        """
        if duration <= 0.0:
            raise ValueError("duration must be positive")
        conditions = conditions or OperatingConditions.nominal(self.technology)
        if stored_bit not in (0, 1):
            raise ValueError("stored_bit must be 0 or 1")

        v_wl = np.asarray(wordline_voltage, dtype=float)
        if isinstance(mismatch, MismatchArrays):
            sample_shape = (len(mismatch),)
        else:
            sample_shape = ()
        shape = np.broadcast_shapes(v_wl.shape, sample_shape)

        steps = max(int(np.ceil(duration / self.time_step)), 2)
        times = np.linspace(0.0, duration, steps + 1)
        dt = times[1] - times[0]

        start_voltage = conditions.vdd if initial_voltage is None else float(initial_voltage)
        if start_voltage <= 0.0:
            raise ValueError("initial_voltage must be positive")

        stack = self._build_stack(conditions, mismatch)
        v_grid, table = self._current_table(
            stack, v_wl, stored_bit, start_voltage, shape
        )
        grid_step = float(v_grid[0] - v_grid[1])
        capacitance = self.bitline.capacitance
        flat_table = self._flatten_table(table)

        voltage = np.full(shape, start_voltage)
        traces = np.empty(shape + (steps + 1,), dtype=float)
        traces[..., 0] = voltage

        def derivative(v: np.ndarray) -> np.ndarray:
            current = self._interpolate_current(v, start_voltage, grid_step, *flat_table)
            return -current / capacitance

        for step in range(1, steps + 1):
            k1 = derivative(voltage)
            k2 = derivative(np.maximum(voltage + 0.5 * dt * k1, 0.0))
            k3 = derivative(np.maximum(voltage + 0.5 * dt * k2, 0.0))
            k4 = derivative(np.maximum(voltage + dt * k3, 0.0))
            voltage = voltage + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            voltage = np.maximum(voltage, 0.0)
            traces[..., step] = voltage

        return DischargeResult(
            times=times,
            voltages=traces if shape else traces.reshape(steps + 1),
            conditions=conditions,
            wordline_voltage=np.broadcast_to(v_wl, shape).copy() if shape else v_wl.copy(),
        )

    # ------------------------------------------------------------------
    # Convenience measurements
    # ------------------------------------------------------------------
    def discharge_at(
        self,
        wordline_voltage: ArrayLike,
        sampling_time: float,
        conditions: Optional[OperatingConditions] = None,
        stored_bit: int = 1,
        mismatch: Union[MismatchSample, MismatchArrays, None] = None,
    ) -> np.ndarray:
        """Discharge ``VDD - V_BLB`` at the ADC sampling instant.

        This is the quantity the OPTIMA models predict; characterisation
        sweeps call it directly instead of keeping full waveforms around.
        """
        result = self.simulate_discharge(
            wordline_voltage=wordline_voltage,
            duration=sampling_time,
            conditions=conditions,
            stored_bit=stored_bit,
            mismatch=mismatch,
        )
        return np.asarray(result.conditions.vdd - result.final_voltage)

    def saturation_time(
        self,
        wordline_voltage: float,
        conditions: Optional[OperatingConditions] = None,
        horizon: float = 4e-9,
    ) -> Optional[float]:
        """Time at which the access device leaves saturation (paper Eq. 2)."""
        conditions = conditions or OperatingConditions.nominal(self.technology)
        access = NmosDevice(
            self.technology,
            width=self.technology.access_width,
            length=self.technology.access_length,
        )
        limit = wordline_voltage - access.parameters(conditions).threshold_voltage
        if limit <= 0.0:
            return None
        result = self.simulate_discharge(wordline_voltage, horizon, conditions)
        return result.waveform().crossing_time(limit)
