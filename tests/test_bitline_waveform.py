"""Unit tests for the bit-line parasitics and waveform containers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.bitline import BitLine
from repro.circuits.technology import tsmc65_like
from repro.circuits.waveform import Waveform, interpolate_rows


class TestBitLine:
    def test_from_technology_scales_with_rows(self):
        tech = tsmc65_like()
        short = BitLine.from_technology(tech, rows=32)
        long = BitLine.from_technology(tech, rows=128)
        assert long.capacitance == pytest.approx(4.0 * short.capacitance)

    def test_invalid_capacitance_rejected(self):
        with pytest.raises(ValueError):
            BitLine(capacitance=0.0)

    def test_charge_for_swing(self):
        line = BitLine(capacitance=50e-15)
        assert line.charge_for_swing(0.2) == pytest.approx(1e-14)
        with pytest.raises(ValueError):
            line.charge_for_swing(-0.1)

    def test_precharge_energy_linear_in_swing(self):
        line = BitLine(capacitance=50e-15)
        assert line.precharge_energy(1.0, 0.4) == pytest.approx(2.0 * line.precharge_energy(1.0, 0.2))

    def test_full_swing_energy(self):
        line = BitLine(capacitance=50e-15)
        assert line.full_swing_energy(1.0) == pytest.approx(50e-15)

    def test_voltage_after_charge_removal_clips_at_zero(self):
        line = BitLine(capacitance=50e-15)
        assert line.voltage_after_charge_removal(1.0, 1e-13) == pytest.approx(0.0)
        assert line.voltage_after_charge_removal(1.0, 1e-14) == pytest.approx(0.8)

    def test_time_constant(self):
        line = BitLine(capacitance=50e-15)
        assert line.discharge_time_constant(10e3) == pytest.approx(5e-10)

    def test_per_cell_capacitance(self):
        line = BitLine(capacitance=64e-15, rows=64)
        assert line.per_cell_capacitance() == pytest.approx(1e-15)


class TestWaveform:
    def _ramp(self):
        times = np.linspace(0.0, 1e-9, 11)
        values = 1.0 - times / 1e-9 * 0.5
        return Waveform(times=times, values=values)

    def test_basic_properties(self):
        wave = self._ramp()
        assert len(wave) == 11
        assert wave.duration == pytest.approx(1e-9)
        assert wave.initial_value == pytest.approx(1.0)
        assert wave.final_value == pytest.approx(0.5)

    def test_value_at_interpolates(self):
        wave = self._ramp()
        assert wave.value_at(0.5e-9) == pytest.approx(0.75)

    def test_value_at_outside_span_rejected(self):
        wave = self._ramp()
        with pytest.raises(ValueError):
            wave.value_at(2e-9)

    def test_delta_and_total_delta(self):
        wave = self._ramp()
        assert wave.delta_at(1e-9) == pytest.approx(0.5)
        assert wave.total_delta() == pytest.approx(0.5)

    def test_crossing_time(self):
        wave = self._ramp()
        assert wave.crossing_time(0.75) == pytest.approx(0.5e-9, rel=1e-6)
        assert wave.crossing_time(0.2) is None

    def test_resample(self):
        wave = self._ramp()
        resampled = wave.resampled(np.linspace(0.0, 1e-9, 5))
        assert len(resampled) == 5
        assert resampled.final_value == pytest.approx(0.5)

    def test_slope(self):
        wave = self._ramp()
        assert wave.slope_at(0.5e-9) == pytest.approx(-0.5 / 1e-9, rel=1e-3)

    def test_non_monotonic_times_rejected(self):
        with pytest.raises(ValueError):
            Waveform(times=np.array([0.0, 1.0, 0.5]), values=np.zeros(3))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            Waveform(times=np.array([0.0, 1.0]), values=np.zeros(3))


@st.composite
def _rows_and_time(draw):
    """A strictly increasing grid, 1-3 rows of values on it (non-finite
    values included, to reach ``np.interp``'s NaN fallback) and a query
    time: a grid point, an end point, inside a cell, outside or NaN."""
    points = draw(st.integers(2, 12))
    steps = draw(st.lists(st.floats(1e-3, 10.0), min_size=points - 1, max_size=points - 1))
    times = np.concatenate([[draw(st.floats(-5.0, 5.0))], np.array(steps)]).cumsum()
    rows = draw(st.integers(1, 3))
    value = st.one_of(
        st.floats(-1e3, 1e3), st.sampled_from([np.inf, -np.inf, np.nan, 1e308, -1e308])
    )
    values = np.array(draw(st.lists(value, min_size=rows * points, max_size=rows * points)))
    values = values.reshape(rows, points)
    if draw(st.booleans()):
        values = values[0]
    time = draw(
        st.one_of(
            st.sampled_from([times[0], times[-1], np.nan, times[0] - 1.0, times[-1] + 1.0]),
            st.sampled_from(list(times)),
            st.floats(float(times[0]), float(times[-1])),
        )
    )
    return times, values, float(time)


class TestInterpolateRows:
    @settings(max_examples=300, deadline=None)
    @given(case=_rows_and_time())
    def test_equals_rowwise_np_interp_bit_for_bit(self, case):
        times, values, time = case
        expected = np.array(
            [np.interp(time, times, row) for row in np.atleast_2d(values)]
        ).reshape(values.shape[:-1])
        result = interpolate_rows(times, values, time)
        assert result.shape == expected.shape
        assert result.tobytes() == expected.tobytes()

    def test_nan_fallback_from_the_right_hand_point(self):
        times = np.array([0.0, 1.0, 2.0])
        values = np.array([[np.inf, np.inf, 0.0], [1.0, np.inf, 3.0], [-np.inf, 5.0, 6.0]])
        for time in (0.5, 1.5):
            expected = [np.interp(time, times, row) for row in values]
            assert interpolate_rows(times, values, time).tobytes() == np.array(expected).tobytes()

    def test_waveform_value_at_uses_rowwise_values(self):
        times = np.linspace(0.0, 1e-9, 11)
        values = np.stack([1.0 - times / 1e-9 * 0.5, 1.0 - times / 1e-9 * 0.25])
        wave = Waveform(times=times, values=values)
        expected = np.mean([np.interp(0.37e-9, times, row) for row in values])
        assert wave.value_at(0.37e-9) == float(expected)
