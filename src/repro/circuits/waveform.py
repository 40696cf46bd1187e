"""Waveform container and measurement helpers.

The transient solver produces voltage-versus-time traces; the OPTIMA fitting
flow then measures them (value at the ADC sampling instant, total discharge,
crossing times).  :class:`Waveform` provides those measurements in one place
so the analysis code never re-implements interpolation.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

import numpy as np


def interpolate_rows(times: np.ndarray, values: np.ndarray, time: float) -> np.ndarray:
    """``np.interp(time, times, row)`` for every row of ``values`` in one step.

    ``times`` is a strictly increasing 1-D grid shared by all rows and
    ``values`` has shape ``(..., len(times))``; the result has shape
    ``values.shape[:-1]``.  The grid cell is found once with
    ``searchsorted``, and each row is evaluated with ``np.interp``'s own
    formula and special cases (a NaN time, times outside the grid, the last
    grid point, exact grid points, and the retry from the right-hand point
    when the first evaluation gives NaN), so the result equals the row-wise
    ``np.interp`` bit for bit.
    """
    time = float(time)
    if np.isnan(time):
        return np.full(values.shape[:-1], time)
    if time < times[0]:
        return values[..., 0].copy()
    j = int(np.searchsorted(times, time, side="right")) - 1
    if j == times.shape[0] - 1 or times[j] == time:
        return values[..., j].copy()
    x0, x1 = times[j], times[j + 1]
    y0, y1 = values[..., j], values[..., j + 1]
    with np.errstate(over="ignore", invalid="ignore"):
        slope = (y1 - y0) / (x1 - x0)
        result = np.asarray(slope * (time - x0) + y0)
        missing = np.isnan(result)
        if missing.any():
            retry = slope * (time - x1) + y1
            retry = np.where(np.isnan(retry) & (y0 == y1), y0, retry)
            result = np.where(missing, retry, result)
    return result


@dataclasses.dataclass
class Waveform:
    """A sampled single-signal waveform.

    Attributes
    ----------
    times:
        Monotonically increasing sample instants in seconds.
    values:
        Signal values at those instants (volts for all waveforms produced by
        this package).
    name:
        Optional signal name used in reports and plots.
    """

    times: np.ndarray
    values: np.ndarray
    name: str = "v(blb)"

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.times.ndim != 1:
            raise ValueError("times must be one-dimensional")
        if self.values.shape[-1] != self.times.shape[0]:
            raise ValueError("values must have one entry per time sample")
        if self.times.shape[0] < 2:
            raise ValueError("a waveform needs at least two samples")
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("times must be strictly increasing")

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.times.shape[0])

    @property
    def duration(self) -> float:
        """Total simulated time span in seconds."""
        return float(self.times[-1] - self.times[0])

    @property
    def initial_value(self) -> float:
        """Signal value at the first sample."""
        return float(np.atleast_1d(self.values[..., 0]).flat[0])

    @property
    def final_value(self) -> float:
        """Signal value at the last sample."""
        return float(np.atleast_1d(self.values[..., -1]).flat[0])

    # ------------------------------------------------------------------
    # Measurements
    # ------------------------------------------------------------------
    def value_at(self, time: float) -> float:
        """Linearly interpolated signal value at ``time`` seconds.

        Raises
        ------
        ValueError
            If ``time`` lies outside the simulated span.
        """
        if time < self.times[0] or time > self.times[-1]:
            raise ValueError(
                f"time {time:.3e} s outside waveform span "
                f"[{self.times[0]:.3e}, {self.times[-1]:.3e}] s"
            )
        interpolated = interpolate_rows(self.times, self.values, time)
        if self.values.ndim == 1:
            return float(interpolated)
        return float(interpolated.mean())

    def delta_at(self, time: float) -> float:
        """Discharge (initial value minus value at ``time``)."""
        return self.initial_value - self.value_at(time)

    def total_delta(self) -> float:
        """Discharge over the whole simulated span."""
        return self.initial_value - self.final_value

    def crossing_time(self, level: float) -> Optional[float]:
        """First time the waveform crosses ``level`` (falling), or ``None``."""
        values = np.atleast_1d(self.values if self.values.ndim == 1 else self.values[0])
        below = np.nonzero(values <= level)[0]
        if below.size == 0:
            return None
        index = int(below[0])
        if index == 0:
            return float(self.times[0])
        t0, t1 = self.times[index - 1], self.times[index]
        v0, v1 = values[index - 1], values[index]
        if v0 == v1:
            return float(t1)
        fraction = (v0 - level) / (v0 - v1)
        return float(t0 + fraction * (t1 - t0))

    def resampled(self, times: Sequence[float]) -> "Waveform":
        """Return a copy interpolated onto a new time grid."""
        times = np.asarray(times, dtype=float)
        values = np.interp(times, self.times, np.atleast_1d(self.values))
        return Waveform(times=times, values=values, name=self.name)

    def slope_at(self, time: float, window: Optional[float] = None) -> float:
        """Finite-difference slope (V/s) around ``time``.

        Parameters
        ----------
        time:
            Centre of the differentiation window.
        window:
            Width of the window; defaults to two simulation steps.
        """
        if window is None:
            window = 2.0 * float(np.median(np.diff(self.times)))
        t_lo = max(self.times[0], time - window / 2.0)
        t_hi = min(self.times[-1], time + window / 2.0)
        if t_hi <= t_lo:
            raise ValueError("slope window collapsed to zero width")
        return (self.value_at(t_hi) - self.value_at(t_lo)) / (t_hi - t_lo)
