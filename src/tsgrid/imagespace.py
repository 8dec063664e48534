"""Binary-grid signal codec, per-column transport distance, and training loss.

A series value is binned into one of ``h`` vertical cells spanning
[-MS, MS]; a grid column is the one-hot indicator of the active cell and
values beyond the scale saturate into the edge cells.  Decoding returns the
active cell's center, so the roundtrip error of in-range values is at most
half a cell (MS / h).  Soft grids hold a probability distribution per
column; they appear after Gaussian blurring and as forecaster output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from scipy.ndimage import convolve1d

from .errors import ConfigurationError, InputError, StructuralError
from .series import TimeSeries, linear_resample

STD_FLOOR = 1e-8


@dataclass(frozen=True)
class SpaceParams:
    """Vertical resolution ``h`` and maximum scale ``ms`` of the grid."""

    h: int = 128
    ms: float = 3.5

    def __post_init__(self) -> None:
        if self.h < 2:
            raise ConfigurationError(f"resolution h must be at least 2, got {self.h}")
        if not (self.ms > 0 and math.isfinite(self.ms)):
            raise ConfigurationError(f"maximum scale must be positive and finite, got {self.ms}")

    @property
    def bin_width(self) -> float:
        return 2.0 * self.ms / self.h

    def centers(self) -> np.ndarray:
        """Cell-center values, lowest cell first."""
        return (np.arange(self.h, dtype=np.float64) + 0.5) * self.bin_width - self.ms


@dataclass(frozen=True)
class NormStats:
    """Per-channel standardization statistics; ``floored`` flags channels
    whose lookback variance hit the numerical floor."""

    mean: np.ndarray
    std: np.ndarray
    floored: np.ndarray


@dataclass
class _GridTensor:
    """Grid of shape (channels, h, length) stored with the subclass's dtype."""

    grid: np.ndarray
    params: SpaceParams
    _dtype: ClassVar[type]

    def __post_init__(self) -> None:
        g = np.asarray(self.grid, dtype=self._dtype)
        if g.ndim != 3:
            raise InputError(f"grid must be 3-D (channels, h, length), got ndim={g.ndim}")
        if g.shape[1] != self.params.h:
            raise InputError(f"grid height {g.shape[1]} does not match params.h={self.params.h}")
        self.grid = g

    @property
    def channels(self) -> int:
        return self.grid.shape[0]

    @property
    def length(self) -> int:
        return self.grid.shape[2]


class BinaryImageTensor(_GridTensor):
    """One-hot-per-column grid of shape (channels, h, length).

    Columns encoding missing samples are all-zero; everything else has
    exactly one active cell.
    """

    _dtype = np.uint8


class SoftImageTensor(_GridTensor):
    """Column-normalized nonnegative grid of shape (channels, h, length)."""

    _dtype = np.float64


def normalize(series: TimeSeries, lookback: int) -> tuple[TimeSeries, NormStats]:
    """Standardize each channel using statistics of its first ``lookback`` samples.

    The whole series is transformed with the lookback statistics so the
    transformation can be inverted after forecasting.  A constant lookback
    gets its standard deviation floored at ``STD_FLOOR`` and is flagged.
    """
    if not 1 <= lookback <= series.length:
        raise InputError(f"lookback must be in [1, {series.length}], got {lookback}")
    window = series.values[:, :lookback]
    mean = window.mean(axis=1)
    std = window.std(axis=1)
    floored = std < STD_FLOOR
    std = np.where(floored, STD_FLOOR, std)
    values = (series.values - mean[:, None]) / std[:, None]
    out = TimeSeries(values, None if series.missing is None else series.missing.copy(), dict(series.tags))
    return out, NormStats(mean=mean, std=std, floored=floored)


def denormalize(series: TimeSeries, stats: NormStats) -> TimeSeries:
    values = series.values * stats.std[:, None] + stats.mean[:, None]
    return TimeSeries(values, None if series.missing is None else series.missing.copy(), dict(series.tags))


def value_to_row(values: np.ndarray, params: SpaceParams) -> np.ndarray:
    """Active cell index (0-based, lowest cell first) for each value.

    Interior cells cover half-open value intervals (lower, upper], so the
    cell center is never farther than half a cell from the value; s >= MS
    saturates into the top cell and s <= -MS into the bottom cell.
    """
    v = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(v)):
        raise InputError("cannot encode non-finite values")
    flat = np.atleast_1d(v)
    rows = np.ceil((flat + params.ms) / params.bin_width).astype(np.int64) - 1
    np.clip(rows, 0, params.h - 1, out=rows)
    rows[flat >= params.ms] = params.h - 1
    rows[flat <= -params.ms] = 0
    return rows.reshape(v.shape)


def quantize_values(values: np.ndarray, params: SpaceParams) -> np.ndarray:
    """Roundtrip each value through the grid (encode then decode)."""
    return params.centers()[value_to_row(values, params)]


def encode_rows(series: TimeSeries, params: SpaceParams) -> np.ndarray:
    """Active cell index of every sample, -1 for missing samples."""
    rows = value_to_row(series.values, params)
    if series.missing is not None:
        rows[series.missing] = -1
    return rows


def decode_rows(rows: np.ndarray, params: SpaceParams) -> TimeSeries:
    """Cell-center value of every row index; -1 becomes a missing sample (value 0.0)."""
    empty = rows < 0
    values = params.centers()[rows]
    values[empty] = 0.0
    return TimeSeries(values, empty if np.any(empty) else None)


def encode(series: TimeSeries, params: SpaceParams) -> BinaryImageTensor:
    """Map a series onto the grid; missing samples become all-zero columns."""
    rows = encode_rows(series, params)
    grid = np.zeros((series.channels, params.h, series.length), dtype=np.uint8)
    np.put_along_axis(grid, rows[:, None, :], 1, axis=1)
    grid[:, -1][rows < 0] = 0  # row -1 (missing) wrapped around to the top cell
    return BinaryImageTensor(grid, params)


def decode(image: BinaryImageTensor, allow_missing: bool = False) -> TimeSeries:
    """Recover each column's cell-center value.

    All-zero columns are a structural error unless ``allow_missing`` is set,
    in which case they surface in the result's missing mask (value 0.0).
    """
    grid = image.grid
    if grid.max(initial=0) > 1:
        raise StructuralError("binary grid entries must be 0 or 1")
    colsums = grid.sum(axis=1)
    if np.any(colsums > 1):
        raise StructuralError("some columns have more than one active cell")
    empty = colsums == 0
    if np.any(empty) and not allow_missing:
        raise StructuralError("some columns have no active cell (no missing markers expected)")
    return decode_rows(np.where(empty, -1, grid.argmax(axis=1)), image.params)


def soft_decode(image: SoftImageTensor) -> TimeSeries:
    """Probability-weighted mean of cell centers, per column.

    Coincides with :func:`decode` on one-hot columns.
    """
    _check_normalized(image.grid, "soft grid")
    centers = image.params.centers()
    values = np.einsum("chl,h->cl", image.grid, centers)
    return TimeSeries(values)


_TOL = 1e-9
_KLD_EPS = 1e-8


def _check_normalized(grid: np.ndarray, what: str) -> None:
    colsums = grid.sum(axis=1)
    if np.any(grid < 0):
        raise InputError(f"{what} must be nonnegative")
    if np.max(np.abs(colsums - 1.0)) > _TOL:
        raise InputError(f"{what} columns must each sum to 1 within {_TOL}")


def _active_rows(image: BinaryImageTensor, what: str) -> np.ndarray:
    """Row of each column's active cell, shape (channels, length).

    An integer column sums to 1 within the tolerance only when it is
    one-hot, so this is the soft-grid column check made exact; on one-hot
    columns the row-weighted sum is the active row.
    """
    grid = image.grid
    if np.any(grid.sum(axis=1) != 1):
        raise InputError(f"{what} columns must each sum to 1 within {_TOL}")
    return np.einsum("chl,h->cl", grid, np.arange(grid.shape[1]))


def _operands(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Check that two grids are comparable and that their columns are
    distributions.  A binary operand comes back as its active rows
    (channels, length), a soft one as its float64 grid."""
    if np.shape(a.grid) != np.shape(b.grid):
        raise InputError(f"grid shapes differ: {np.shape(a.grid)} vs {np.shape(b.grid)}")
    if a.params != b.params:
        raise InputError("grid space parameters differ")
    return _operand(a, "left grid"), _operand(b, "right grid")


def _operand(image, what: str) -> np.ndarray:
    if isinstance(image, BinaryImageTensor):
        return _active_rows(image, what)
    grid = np.asarray(image.grid, dtype=np.float64)
    _check_normalized(grid, what)
    return grid


def _columns(table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Grid (channels, h, length) whose column (c, t) is ``table[:, rows[c, t]]``.

    C order, as a dense grid has: the summation order of later column sums
    follows the memory layout.
    """
    return np.ascontiguousarray(np.take(table, rows, axis=1).swapaxes(0, 1))


def _emd(x: np.ndarray, y: np.ndarray) -> float:
    if x.ndim == 2 and y.ndim == 2:
        return float(np.abs(x - y).sum())
    if x.ndim == 2:
        x, y = y, x
    if y.ndim == 2:
        # against a point mass at row r a column's transport distance is
        # its expected distance to r; one code path for both argument orders
        dist = np.arange(x.shape[1], dtype=np.float64)[:, None] - y[:, None, :]
        return float(np.einsum("chl,chl->", x, np.abs(dist, out=dist)))
    return float(np.abs(np.cumsum(x, axis=1) - np.cumsum(y, axis=1)).sum())


def _kld(x: np.ndarray, y: np.ndarray, h: int, eps: float) -> float:
    gp = _columns(np.eye(h), x) if x.ndim == 2 else x
    ps = gp + eps
    ps /= gp.sum(axis=1, keepdims=True) + h * eps
    if y.ndim == 2:
        # the smoothed one-hot q is hi at the active row and lo elsewhere
        lo, hi = eps / (1.0 + h * eps), (1.0 + eps) / (1.0 + h * eps)
        ratio = ps / lo
        active = np.take_along_axis(ps, y[:, None, :], axis=1)
        np.put_along_axis(ratio, y[:, None, :], active / hi, axis=1)
    else:
        ratio = ps / ((y + eps) / (y.sum(axis=1, keepdims=True) + h * eps))
    np.log(ratio, out=ratio)
    ratio *= ps
    return float(ratio.sum())


def emd(a, b) -> float:
    """Sum over channels and columns of the per-column transport distance.

    Each column pair is a pair of distributions over the ``h`` cells; their
    1-D minimum-cost transport distance in cell-index units equals the L1
    distance between their cumulative sums.  Against a binary grid it is
    the distance of each column's mass to the active row.
    """
    return _emd(*_operands(a, b))


def kld(p, q, eps: float = _KLD_EPS) -> float:
    """Column-wise KL(p || q) with eps-smoothing, summed over channels/columns.

    Both arguments are smoothed (add ``eps``, renormalize) so the result is
    finite even for one-hot columns.
    """
    if eps <= 0:
        raise ConfigurationError(f"eps must be positive, got {eps}")
    return _kld(*_operands(p, q), p.params.h, eps)


def loss(pred, target, alpha: float = 0.2) -> float:
    """Transport distance plus ``alpha`` times the smoothed KL divergence."""
    x, y = _operands(pred, target)
    return _emd(x, y) + alpha * _kld(x, y, pred.params.h, _KLD_EPS)


def _gaussian_kernel(size: int, sigma: float) -> np.ndarray:
    radius = (size - 1) // 2
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-0.5 * (x / sigma) ** 2)
    return k / k.sum()


def preprocess(
    image: BinaryImageTensor,
    blur_kernel: tuple[int, int] = (31, 31),
    blur_sigma: float | None = None,
) -> SoftImageTensor:
    """Gaussian-blur a one-hot grid and renormalize every column to sum 1.

    The kernel is truncated at the grid borders and renormalized there, so
    no probability mass leaks outside.  ``blur_sigma`` of ``None`` uses
    kernel_extent / 6 per axis.
    """
    kh, kw = blur_kernel
    if kh < 1 or kw < 1 or kh % 2 == 0 or kw % 2 == 0:
        raise ConfigurationError(f"blur kernel dims must be odd positive integers, got {blur_kernel}")
    rows = _active_rows(image, "preprocess input")

    # blurring a one-hot column down the rows places the truncated kernel
    # at its active row: gather the blurred columns of the identity
    table = np.eye(image.params.h)
    weight_rows = np.ones(image.params.h)
    weight_cols = np.ones(image.length)
    if kh > 1:
        krow = _gaussian_kernel(kh, blur_sigma if blur_sigma is not None else kh / 6.0)
        table = convolve1d(table, krow, axis=0, mode="constant", cval=0.0)
        weight_rows = convolve1d(weight_rows, krow, mode="constant", cval=0.0)
    out = _columns(table, rows)
    if kw > 1:
        kcol = _gaussian_kernel(kw, blur_sigma if blur_sigma is not None else kw / 6.0)
        out = convolve1d(out, kcol, axis=2, mode="constant", cval=0.0)
        weight_cols = convolve1d(weight_cols, kcol, mode="constant", cval=0.0)
    out /= weight_rows[:, None] * weight_cols[None, :]
    out /= out.sum(axis=1, keepdims=True)
    return SoftImageTensor(out, image.params)


def encode_preprocessed(
    series: TimeSeries,
    params: SpaceParams,
    upsample: int = 2,
    blur_kernel: tuple[int, int] = (31, 31),
    blur_sigma: float | None = None,
) -> SoftImageTensor:
    """Full model-input pipeline: temporal upsampling, encoding, blurring.

    The temporal axis is linearly interpolated to ``upsample`` times its
    original length before encoding, which halves the per-step slope the
    grid has to follow at the default factor 2.
    """
    if upsample < 1:
        raise ConfigurationError(f"upsample factor must be >= 1, got {upsample}")
    values = series.values
    if upsample > 1:
        values = linear_resample(values, upsample * series.length)
    resampled = TimeSeries(values)
    return preprocess(encode(resampled, params), blur_kernel, blur_sigma)
