"""Numerical time-series container shared by the generators, codec, and evaluation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .errors import InputError


@dataclass
class TimeSeries:
    """A real-valued multichannel sequence.

    ``values`` has shape (channels, length) and every entry is finite.
    Positions flagged in ``missing`` still carry a finite placeholder value;
    consumers decide how to treat them (the grid codec renders them as
    all-zero columns, numerical baselines receive carried-forward values,
    metrics skip them).  ``tags`` carries provenance such as the generating
    hypothesis and behavior.
    """

    values: np.ndarray
    missing: np.ndarray | None = None
    tags: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        v = np.atleast_2d(np.asarray(self.values, dtype=np.float64))
        if v.ndim != 2:
            raise InputError(f"series values must be 2-D (channels, length), got ndim={v.ndim}")
        if v.shape[0] < 1 or v.shape[1] < 1:
            raise InputError(f"series must have at least one channel and one sample, got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise InputError("series values must be finite (no NaN/Inf)")
        self.values = v
        if self.missing is not None:
            m = np.asarray(self.missing, dtype=bool)
            if m.shape != v.shape:
                raise InputError(f"missing mask shape {m.shape} does not match values {v.shape}")
            self.missing = m

    @property
    def channels(self) -> int:
        return self.values.shape[0]

    @property
    def length(self) -> int:
        return self.values.shape[1]


def from_1d(values: np.ndarray, **tags: Any) -> TimeSeries:
    """Wrap a 1-D array as a single-channel series."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise InputError(f"expected a 1-D array, got ndim={arr.ndim}")
    return TimeSeries(arr[None, :], tags=dict(tags))


def linear_resample(values: np.ndarray, new_length: int) -> np.ndarray:
    """Resample each channel onto ``new_length`` points by linear interpolation.

    The endpoints map onto each other exactly, so degree-1 signals are
    reproduced without error.
    """
    if new_length < 2:
        raise InputError(f"resampled length must be at least 2, got {new_length}")
    v = np.atleast_2d(np.asarray(values, dtype=np.float64))
    old_length = v.shape[1]
    if old_length < 2:
        raise InputError("need at least 2 samples to resample")
    if new_length == old_length:
        return v.copy()
    positions = np.linspace(0.0, old_length - 1.0, new_length)
    grid = np.arange(old_length, dtype=np.float64)
    return np.stack([np.interp(positions, grid, row) for row in v])


def carry_forward(values: np.ndarray, missing: np.ndarray | None) -> np.ndarray:
    """Replace missing positions with the last preceding observed value.

    Leading missing positions take the first observed value; an all-missing
    channel collapses to zeros.
    """
    v = np.atleast_2d(np.asarray(values, dtype=np.float64))
    if missing is None:
        return v.copy()
    observed = ~np.atleast_2d(np.asarray(missing, dtype=bool))
    rows, n = v.shape
    first = observed.argmax(axis=1)  # 0 in an all-missing row
    # one past the last observed position so far; a leading gap starts at one past the first
    idx = observed * np.arange(1, n + 1)
    idx[:, 0] = first + 1
    np.maximum.accumulate(idx, axis=1, out=idx)
    idx += (np.arange(rows) * n - 1)[:, None]  # shifted back one, as flat indices of v
    v = np.take(v, idx)
    v[~observed[np.arange(rows), first]] = 0.0
    return v
