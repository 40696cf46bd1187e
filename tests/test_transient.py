"""Unit tests for the reference transient discharge solver."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.conditions import OperatingConditions
from repro.circuits.mismatch import MismatchArrays, MismatchParameters, MismatchSampler
from repro.circuits.sram_cell import _BLOCK_ROWS, CellState, SramCell
from repro.circuits.technology import ProcessCorner, tsmc65_like
from repro.circuits.transient import TransientSolver


class TestBasicDischarge:
    def test_voltage_monotonically_decreases(self, solver, nominal_conditions):
        result = solver.simulate_discharge(0.9, 1.5e-9, nominal_conditions)
        voltages = np.atleast_1d(result.voltages)
        assert np.all(np.diff(voltages) <= 1e-12)

    def test_starts_at_vdd(self, solver, nominal_conditions):
        result = solver.simulate_discharge(0.8, 1e-9, nominal_conditions)
        assert float(np.atleast_1d(result.voltages)[0]) == pytest.approx(
            nominal_conditions.vdd
        )

    def test_higher_wordline_voltage_discharges_faster(self, solver, nominal_conditions):
        deltas = solver.discharge_at(np.array([0.5, 0.7, 0.9]), 1.0e-9, nominal_conditions)
        assert deltas[0] < deltas[1] < deltas[2]

    def test_longer_time_discharges_more(self, solver, nominal_conditions):
        short = float(solver.discharge_at(0.8, 0.4e-9, nominal_conditions))
        long = float(solver.discharge_at(0.8, 1.6e-9, nominal_conditions))
        assert long > short

    def test_stored_zero_gives_negligible_discharge(self, solver, nominal_conditions):
        delta = float(solver.discharge_at(0.9, 1.6e-9, nominal_conditions, stored_bit=0))
        assert delta < 1e-3

    def test_subthreshold_wordline_gives_small_residual_discharge(
        self, solver, nominal_conditions, technology
    ):
        delta = float(
            solver.discharge_at(technology.vth_nominal - 0.1, 1.6e-9, nominal_conditions)
        )
        assert 0.0 <= delta < 20e-3

    def test_voltage_never_negative(self, solver, nominal_conditions):
        result = solver.simulate_discharge(1.0, 10e-9, nominal_conditions)
        assert np.all(result.voltages >= 0.0)

    def test_invalid_inputs_rejected(self, solver, nominal_conditions):
        with pytest.raises(ValueError):
            solver.simulate_discharge(0.8, -1e-9, nominal_conditions)
        with pytest.raises(ValueError):
            solver.simulate_discharge(0.8, 1e-9, nominal_conditions, stored_bit=2)
        with pytest.raises(ValueError):
            TransientSolver(tsmc65_like(), time_step=0.0)


class TestNumericalAccuracy:
    def test_time_step_convergence(self, technology, nominal_conditions):
        """Halving the step must not change the result at the mV level."""
        coarse = TransientSolver(technology, time_step=20e-12)
        fine = TransientSolver(technology, time_step=5e-12)
        delta_coarse = float(coarse.discharge_at(0.9, 1.28e-9, nominal_conditions))
        delta_fine = float(fine.discharge_at(0.9, 1.28e-9, nominal_conditions))
        assert delta_coarse == pytest.approx(delta_fine, abs=2e-3)

    def test_voltage_grid_convergence(self, technology, nominal_conditions):
        coarse = TransientSolver(technology, voltage_grid_points=33)
        fine = TransientSolver(technology, voltage_grid_points=257)
        delta_coarse = float(coarse.discharge_at(0.9, 1.28e-9, nominal_conditions))
        delta_fine = float(fine.discharge_at(0.9, 1.28e-9, nominal_conditions))
        assert delta_coarse == pytest.approx(delta_fine, abs=2e-3)


class TestPvtAndMismatch:
    def test_corner_ordering(self, solver, nominal_conditions):
        deltas = {
            corner: float(
                solver.discharge_at(0.9, 1.28e-9, nominal_conditions.with_corner(corner))
            )
            for corner in ProcessCorner
        }
        assert deltas[ProcessCorner.FAST] > deltas[ProcessCorner.TYPICAL] > deltas[ProcessCorner.SLOW]

    def test_supply_voltage_increases_discharge(self, solver, nominal_conditions):
        low = float(solver.discharge_at(0.9, 1.28e-9, nominal_conditions.with_vdd(0.9)))
        high = float(solver.discharge_at(0.9, 1.28e-9, nominal_conditions.with_vdd(1.1)))
        assert high > low

    def test_heating_slows_discharge(self, solver, nominal_conditions):
        cold = float(
            solver.discharge_at(0.9, 1.28e-9, nominal_conditions.with_temperature_celsius(0.0))
        )
        hot = float(
            solver.discharge_at(0.9, 1.28e-9, nominal_conditions.with_temperature_celsius(70.0))
        )
        assert hot < cold

    def test_mismatch_spread_grows_with_wordline_voltage(self, solver, nominal_conditions, technology):
        sampler = MismatchSampler(MismatchParameters.from_technology(technology), seed=3)
        arrays = sampler.sample_arrays(200)
        deltas = solver.discharge_at(
            np.array([[0.5], [0.9]]), 1.28e-9, nominal_conditions, mismatch=arrays
        )
        assert deltas.shape == (2, 200)
        assert np.std(deltas[1]) > np.std(deltas[0])

    def test_mismatch_broadcasting_single_sample(self, solver, nominal_conditions, technology):
        sampler = MismatchSampler(MismatchParameters.from_technology(technology), seed=4)
        sample = sampler.sample()
        delta = solver.discharge_at(0.9, 1.0e-9, nominal_conditions, mismatch=sample)
        assert np.shape(delta) == ()


class TestResultContainer:
    def test_voltage_at_interpolates(self, solver, nominal_conditions):
        result = solver.simulate_discharge(0.9, 2.0e-9, nominal_conditions)
        mid = float(result.voltage_at(1.0e-9))
        assert float(result.voltages[..., -1]) < mid < nominal_conditions.vdd

    def test_voltage_at_out_of_range_rejected(self, solver, nominal_conditions):
        result = solver.simulate_discharge(0.9, 1.0e-9, nominal_conditions)
        with pytest.raises(ValueError):
            result.voltage_at(2.0e-9)

    def test_waveform_extraction(self, solver, nominal_conditions):
        result = solver.simulate_discharge(np.array([0.6, 0.9]), 1.0e-9, nominal_conditions)
        assert result.trace_count == 2
        wave = result.waveform(1)
        assert wave.initial_value == pytest.approx(nominal_conditions.vdd)
        with pytest.raises(IndexError):
            result.waveform(5)

    def test_saturation_time_only_above_threshold(self, solver, nominal_conditions, technology):
        below = solver.saturation_time(technology.vth_nominal - 0.05, nominal_conditions)
        above = solver.saturation_time(1.0, nominal_conditions, horizon=6e-9)
        assert below is None
        assert above is not None and above > 0.0


# ----------------------------------------------------------------------
# Differential oracle: the solver before its fast path, kept test-only
# ----------------------------------------------------------------------
def _oracle_drain_current(params, vgs, vds):
    """The alpha-power-law I-V equation in one piece (no gate-term split)."""
    vgs = np.asarray(vgs, dtype=float)
    vds = np.asarray(vds, dtype=float)
    vgs, vds = np.broadcast_arrays(vgs, vds)

    vds_clipped = np.maximum(vds, 0.0)
    overdrive = vgs - params.threshold_voltage

    n_factor = params.subthreshold_swing / (np.log(10.0) * params.thermal_voltage)
    sub_exponent = np.clip(
        np.minimum(overdrive, 0.0) / (n_factor * params.thermal_voltage), -80.0, 0.0
    )
    i_sub = (
        params.leak_current
        * np.exp(sub_exponent)
        * (1.0 - np.exp(-vds_clipped / params.thermal_voltage))
    )

    overdrive_pos = np.maximum(overdrive, 0.0)
    vdsat = np.maximum(np.asarray(overdrive_pos, dtype=float), 0.0) ** (params.alpha / 2.0)
    i_sat = (
        params.gain
        * overdrive_pos**params.alpha
        * (1.0 + params.channel_length_modulation * vds_clipped)
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(vdsat > 0.0, np.minimum(vds_clipped / np.maximum(vdsat, 1e-12), 1.0), 0.0)
    i_triode = i_sat * (2.0 - ratio) * ratio
    i_strong = np.where(vds_clipped >= vdsat, i_sat, i_triode)

    current = np.where(overdrive > 0.0, i_strong + i_sub, i_sub)
    return np.maximum(current, 0.0)


def _oracle_stack_current(stack, v_bl, v_wl):
    """Series-stack bisection re-evaluating both devices in full every step."""
    v_bl, v_wl = np.broadcast_arrays(np.asarray(v_bl, dtype=float), np.asarray(v_wl, dtype=float))
    low = np.zeros_like(v_bl)
    high = np.maximum(v_bl, 0.0)
    for _ in range(24):
        mid = 0.5 * (low + high)
        balance = _oracle_drain_current(
            stack.access, v_wl - mid, v_bl - mid
        ) - _oracle_drain_current(stack.pulldown, stack.vdd, mid)
        positive = balance > 0.0
        low = np.where(positive, mid, low)
        high = np.where(positive, high, mid)
    v_x = 0.5 * (low + high)
    return _oracle_drain_current(stack.access, v_wl - v_x, v_bl - v_x)


def _oracle_interpolate_current(voltage, start_voltage, grid_step, table):
    """Per-row table lookup with two ``take_along_axis`` gathers."""
    grid_points = table.shape[-1]
    position = (start_voltage - voltage) / grid_step
    position = np.clip(position, 0.0, grid_points - 1.000001)
    index = position.astype(int)
    fraction = position - index
    lower = np.take_along_axis(table, index[..., np.newaxis], axis=-1)[..., 0]
    upper = np.take_along_axis(
        table, np.minimum(index + 1, grid_points - 1)[..., np.newaxis], axis=-1
    )[..., 0]
    return lower + fraction * (upper - lower)


def _oracle_current_table(solver, conditions, mismatch, v_wl, stored_bit, start_voltage, shape):
    """The (..., grid) current table: (grid_step, table)."""
    stack = solver._expand_stack_for_grid(solver._build_stack(conditions, mismatch))
    grid = solver.voltage_grid_points
    v_grid = np.linspace(start_voltage, 0.0, grid)
    if stored_bit == 0:
        table = _oracle_drain_current(stack.access, 0.0, np.maximum(v_grid - stack.vdd, 0.0))
        table = np.broadcast_to(table, shape + (grid,)).copy()
    else:
        table = _oracle_stack_current(
            stack,
            np.broadcast_to(v_grid, shape + (grid,)),
            np.broadcast_to(v_wl, shape)[..., np.newaxis],
        )
    return float(v_grid[0] - v_grid[1]), np.maximum(table, 0.0)


def _oracle_simulate(solver, wordline_voltage, duration, conditions, stored_bit, mismatch, initial_voltage):
    """``simulate_discharge`` as it was before the fast path: (times, voltages)."""
    v_wl = np.asarray(wordline_voltage, dtype=float)
    sample_shape = (len(mismatch),) if isinstance(mismatch, MismatchArrays) else ()
    shape = np.broadcast_shapes(v_wl.shape, sample_shape)
    steps = max(int(np.ceil(duration / solver.time_step)), 2)
    times = np.linspace(0.0, duration, steps + 1)
    dt = times[1] - times[0]
    start_voltage = conditions.vdd if initial_voltage is None else float(initial_voltage)
    grid_step, table = _oracle_current_table(
        solver, conditions, mismatch, v_wl, stored_bit, start_voltage, shape
    )
    capacitance = solver.bitline.capacitance

    def derivative(v):
        return -_oracle_interpolate_current(v, start_voltage, grid_step, table) / capacitance

    voltage = np.full(shape, start_voltage)
    traces = np.empty(shape + (steps + 1,), dtype=float)
    traces[..., 0] = voltage
    for step in range(1, steps + 1):
        k1 = derivative(voltage)
        k2 = derivative(np.maximum(voltage + 0.5 * dt * k1, 0.0))
        k3 = derivative(np.maximum(voltage + 0.5 * dt * k2, 0.0))
        k4 = derivative(np.maximum(voltage + dt * k3, 0.0))
        voltage = voltage + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        voltage = np.maximum(voltage, 0.0)
        traces[..., step] = voltage
    return times, traces if shape else traces.reshape(steps + 1)


def _oracle_voltage_at(times, voltages, time):
    """Per-row ``np.interp`` over the flattened traces."""
    flat = voltages.reshape(-1, times.shape[0])
    sampled = np.array([np.interp(time, times, row) for row in flat])
    if voltages.ndim == 1:
        return sampled[0]
    return sampled.reshape(voltages.shape[:-1])


_MISMATCH_PARAMETERS = MismatchParameters.from_technology(tsmc65_like())


class TestAgainstOracle:
    """The fast path (hoisted gate terms, flat gather, one-step voltage
    readout) is byte-identical to the straightforward solver it replaced."""

    @pytest.mark.parametrize("stored_bit", [0, 1])
    @pytest.mark.parametrize("samples", [None, "single", 0, 1, 63, 200])
    @settings(max_examples=8, deadline=None)
    @given(
        corner=st.sampled_from(list(ProcessCorner)),
        vdd=st.floats(0.8, 1.2),
        temperature_celsius=st.floats(-20.0, 100.0),
        wordline=st.lists(st.floats(0.0, 1.2), min_size=1, max_size=3),
        as_array=st.booleans(),
        initial_voltage=st.one_of(st.none(), st.floats(0.4, 1.3)),
        duration=st.floats(0.05e-9, 0.8e-9),
        read_at=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
    )
    def test_simulate_discharge_matches_oracle(
        self, solver, nominal_conditions, samples, stored_bit, corner, vdd,
        temperature_celsius, wordline, as_array, initial_voltage, duration, read_at,
    ):
        sampler = MismatchSampler(_MISMATCH_PARAMETERS, seed=17)
        if samples is None:
            mismatch = None
        elif samples == "single":
            mismatch = sampler.sample()
        else:
            mismatch = sampler.sample_arrays(samples)
        if not as_array:
            v_wl = wordline[0]
        elif isinstance(mismatch, MismatchArrays):
            # the (n_wl, 1) x samples broadcast of the characterisation flow
            v_wl = np.asarray(wordline)[:, np.newaxis]
        else:
            v_wl = np.asarray(wordline)
        conditions = (
            nominal_conditions.with_corner(corner)
            .with_vdd(vdd)
            .with_temperature_celsius(temperature_celsius)
        )

        result = solver.simulate_discharge(
            v_wl, duration, conditions, stored_bit=stored_bit,
            mismatch=mismatch, initial_voltage=initial_voltage,
        )
        times, voltages = _oracle_simulate(
            solver, v_wl, duration, conditions, stored_bit, mismatch, initial_voltage
        )

        assert result.times.tobytes() == times.tobytes()
        assert result.voltages.shape == voltages.shape
        assert result.voltages.tobytes() == voltages.tobytes()
        grid_points = [times[0], times[-1], times[len(times) // 3]]
        for time in grid_points + [fraction * duration for fraction in read_at]:
            fast = np.asarray(result.voltage_at(float(time)))
            slow = np.asarray(_oracle_voltage_at(times, voltages, float(time)))
            assert fast.shape == slow.shape
            assert fast.tobytes() == slow.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        samples=st.sampled_from([None, 1, 63]),
        stored_bit=st.sampled_from([0, 1]),
        corner=st.sampled_from(list(ProcessCorner)),
        vdd=st.floats(0.8, 1.2),
        wordline=st.floats(0.0, 1.2),
        start_voltage=st.floats(0.4, 1.3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_current_table_and_stage_interpolation_match_oracle(
        self, solver, nominal_conditions, samples, stored_bit, corner, vdd,
        wordline, start_voltage, seed,
    ):
        """One RK4 stage at full strength: the table and the interpolated
        current, before the integration absorbs sub-ulp differences."""
        conditions = nominal_conditions.with_corner(corner).with_vdd(vdd)
        mismatch = None
        shape = ()
        if samples is not None:
            mismatch = MismatchSampler(_MISMATCH_PARAMETERS, seed=seed).sample_arrays(samples)
            shape = (samples,)
        v_wl = np.asarray(wordline)
        stack = solver._build_stack(conditions, mismatch)
        v_grid, table = solver._current_table(stack, v_wl, stored_bit, start_voltage, shape)
        grid_step, oracle_table = _oracle_current_table(
            solver, conditions, mismatch, v_wl, stored_bit, start_voltage, shape
        )
        assert float(v_grid[0] - v_grid[1]) == grid_step
        assert table.tobytes() == oracle_table.tobytes()

        # voltages across the whole grid, both clip bounds and exact nodes
        rng = np.random.default_rng(seed)
        voltage = start_voltage * rng.uniform(-0.05, 1.05, size=shape + (32,))
        voltage[..., :3] = (start_voltage, 0.0, v_grid[7])
        voltage = np.moveaxis(voltage, -1, 0)
        fast = np.stack([
            solver._interpolate_current(v, start_voltage, grid_step, *solver._flatten_table(table))
            for v in voltage
        ])
        slow = np.stack([
            _oracle_interpolate_current(v, start_voltage, grid_step, oracle_table)
            for v in voltage
        ])
        assert fast.tobytes() == slow.tobytes()


# ----------------------------------------------------------------------
# The row-blocked stack bisection against the unhoisted oracle
# ----------------------------------------------------------------------
_SPECIAL_VOLTAGES = (np.nan, np.inf, -np.inf, -0.25, -0.0, 0.0)


def _assert_stack_current_matches_oracle(stack, v_bl, v_wl):
    fast = stack.current(v_bl, v_wl)
    with np.errstate(invalid="ignore", over="ignore"):  # NaN / inf inputs
        slow = _oracle_stack_current(stack, v_bl, v_wl)
    assert np.shape(fast) == np.shape(slow)
    assert type(fast) is type(slow)
    assert np.asarray(fast).tobytes() == np.asarray(slow).tobytes()


def _grid_stack(solver, conditions, rows, seed):
    """A stack whose parameters vary per row (shape ``(rows, 1)``)."""
    mismatch = MismatchSampler(_MISMATCH_PARAMETERS, seed=seed).sample_arrays(rows)
    return solver._expand_stack_for_grid(solver._build_stack(conditions, mismatch))


def _voltages_with_specials(rng, shape, low=-0.2, high=1.3):
    """Uniform voltages with NaN, +-inf, negative and signed zeros mixed in."""
    values = rng.uniform(low, high, size=shape)
    specials = rng.random(shape) < 0.15
    values[specials] = rng.choice(_SPECIAL_VOLTAGES, size=int(specials.sum()))
    return values


class TestBlockedBisection:
    """``DischargeStack.current`` solves the table in row blocks with
    in-place buffers; every element must still come out byte-identical to
    the per-step, whole-table oracle bisection."""

    @pytest.mark.parametrize(
        "rows",
        [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 3],
    )
    def test_row_counts_around_the_block_size(self, solver, nominal_conditions, rows):
        rng = np.random.default_rng(rows)
        stack = _grid_stack(solver, nominal_conditions, rows, seed=rows)
        v_bl = np.linspace(1.1, -0.1, 129)
        v_bl[[3, 40, 77, 128]] = (np.nan, np.inf, -np.inf, -0.3)
        v_wl = _voltages_with_specials(rng, (rows, 1), 0.0, 1.2)
        _assert_stack_current_matches_oracle(stack, np.broadcast_to(v_bl, (rows, 129)), v_wl)
        # without mismatch: the rows come from the word-line axis alone
        plain = solver._build_stack(nominal_conditions, None)
        _assert_stack_current_matches_oracle(plain, v_bl, v_wl)

    def test_nested_leading_axes_with_per_row_mismatch(self, solver, nominal_conditions):
        """The characterisation layout: ``(n_wl, samples, grid)`` with the
        mismatch on the sample axis, so blocks straddle word-line rows."""
        samples = _BLOCK_ROWS // 2 + 5
        stack = _grid_stack(solver, nominal_conditions, samples, seed=5)
        v_bl = np.broadcast_to(np.linspace(1.0, 0.0, 129), (3, samples, 129))
        v_wl = np.array([0.35, 0.8, 1.15])[:, np.newaxis, np.newaxis]
        _assert_stack_current_matches_oracle(stack, v_bl, v_wl)

    @pytest.mark.parametrize("v_bl", (0.7, 1.3) + _SPECIAL_VOLTAGES)
    @pytest.mark.parametrize("v_wl", (0.0, 0.45, 0.9, np.nan, np.inf))
    def test_zero_dimensional_inputs(self, technology, nominal_conditions, v_bl, v_wl):
        cell = SramCell(technology, CellState.ONE)
        stack = cell.discharge_stack(nominal_conditions)
        _assert_stack_current_matches_oracle(stack, v_bl, v_wl)
        _assert_stack_current_matches_oracle(stack, np.asarray(v_bl), np.asarray(v_wl))

    def test_one_dimensional_inputs(self, technology, nominal_conditions):
        stack = SramCell(technology, CellState.ONE).discharge_stack(nominal_conditions)
        v_bl = np.array((1.0, 0.5, 0.05) + _SPECIAL_VOLTAGES)
        _assert_stack_current_matches_oracle(stack, v_bl, 0.9)
        _assert_stack_current_matches_oracle(stack, 0.6, np.linspace(0.0, 1.2, 7))
        _assert_stack_current_matches_oracle(stack, v_bl, v_bl[::-1].copy())
        _assert_stack_current_matches_oracle(stack, v_bl[:1], 0.9)

    @settings(max_examples=60, deadline=None)
    @given(
        layout=st.sampled_from(["scalar", "vector", "rows", "nested"]),
        rows=st.integers(0, 2 * _BLOCK_ROWS + 3),
        outer=st.integers(1, 3),
        grid=st.integers(0, 9),
        mismatch=st.booleans(),
        wordline_per_row=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_shapes_match_oracle(
        self, solver, nominal_conditions, layout, rows, outer, grid, mismatch,
        wordline_per_row, seed,
    ):
        rng = np.random.default_rng(seed)
        if layout in ("scalar", "vector"):
            stack = solver._build_stack(nominal_conditions, None)
            shape = () if layout == "scalar" else (grid,)
            v_wl = _voltages_with_specials(rng, shape if wordline_per_row else (), 0.0, 1.2)
        else:
            shape = (rows, grid) if layout == "rows" else (outer, rows, grid)
            if mismatch:
                stack = _grid_stack(solver, nominal_conditions, rows, seed=seed)
            else:
                stack = solver._build_stack(nominal_conditions, None)
            wl_shape = shape[:-1] + (1,) if wordline_per_row else (1,) * len(shape)
            v_wl = _voltages_with_specials(rng, wl_shape, 0.0, 1.2)
        v_bl = _voltages_with_specials(rng, shape)
        _assert_stack_current_matches_oracle(stack, v_bl, v_wl)

    def test_peak_memory_stays_near_the_output(self, solver, nominal_conditions):
        """Calibration's largest table, ``(6, 250, 129)``: row blocks keep
        the working set small, so the peak traced allocation is a small
        multiple of the output instead of dozens of table-sized temporaries."""
        stack = _grid_stack(solver, nominal_conditions, 250, seed=9)
        v_bl = np.broadcast_to(np.linspace(1.0, 0.0, 129), (6, 250, 129))
        v_wl = np.linspace(0.3, 1.0, 6)[:, np.newaxis, np.newaxis]
        tracemalloc.start()
        try:
            table = stack.current(v_bl, v_wl)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table.shape == (6, 250, 129)
        assert peak < 3 * table.nbytes, f"peak {peak} B for a {table.nbytes} B table"
