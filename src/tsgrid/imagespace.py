"""Binary-grid signal codec, per-column transport distance, and training loss.

A series value is binned into one of ``h`` vertical cells spanning
[-MS, MS]; a grid column is the one-hot indicator of the active cell and
values beyond the scale saturate into the edge cells.  Decoding returns the
active cell's center, so the roundtrip error of in-range values is at most
half a cell (MS / h).  Soft grids hold a probability distribution per
column; the Gaussian blur :func:`preprocess` builds them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InputError, LookbackOverflow, StructuralError
from .series import TimeSeries

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


def _checked_grid(grid, dtype: type | None, params: SpaceParams) -> np.ndarray:
    g = np.asarray(grid, dtype=dtype)
    if g.ndim != 3:
        raise InputError(f"grid must be 3-D (channels, h, length), got ndim={g.ndim}")
    if g.shape[1] != params.h:
        raise InputError(f"grid height {g.shape[1]} does not match params.h={params.h}")
    return g


@dataclass(init=False)
class BinaryImageTensor:
    """One-hot-per-column grid of shape (channels, h, length), stored as the
    active row of each column, shape (channels, length).

    Columns encoding missing samples are empty (row -1); everything else has
    exactly one active cell.  A dense grid given to the constructor is
    checked and turned into rows once: an entry other than 0 or 1, then a
    column with several active cells, raises :class:`StructuralError`.
    """

    rows: np.ndarray
    params: SpaceParams

    def __init__(self, grid: np.ndarray, params: SpaceParams) -> None:
        g = _checked_grid(grid, None, params)
        channels, _, length = g.shape
        channel, row, column = np.unravel_index(np.flatnonzero(g), g.shape)
        if not np.all(g[channel, row, column] == 1):
            raise StructuralError("binary grid entries must be 0 or 1")
        if np.bincount(channel * length + column).max(initial=0) > 1:
            raise StructuralError("some columns have more than one active cell")
        self.rows = np.full((channels, length), -1, dtype=np.int64)
        self.rows[channel, column] = row
        self.params = params

    @classmethod
    def _from_rows(cls, rows: np.ndarray, params: SpaceParams) -> BinaryImageTensor:
        """Wrap int64 rows (channels, length) in [-1, h) with no dense grid."""
        image = cls.__new__(cls)
        image.rows, image.params = rows, params
        return image

    @property
    def grid(self) -> np.ndarray:
        """The dense uint8 grid, built on demand."""
        return _one_hot(self.rows, self.params.h, np.uint8)

    @property
    def channels(self) -> int:
        return self.rows.shape[0]

    @property
    def length(self) -> int:
        return self.rows.shape[1]


@dataclass
class SoftImageTensor:
    """Column-normalized nonnegative grid of shape (channels, h, length)."""

    grid: np.ndarray
    params: SpaceParams

    def __post_init__(self) -> None:
        self.grid = _checked_grid(self.grid, np.float64, self.params)

    @property
    def channels(self) -> int:
        return self.grid.shape[0]

    @property
    def length(self) -> int:
        return self.grid.shape[2]


def normalize(series: TimeSeries, lookback: int) -> tuple[TimeSeries, NormStats]:
    """Standardize each channel using statistics of its first ``lookback`` samples.

    The statistics are over the observed (non-NaN) lookback samples, and
    the whole series is transformed with them so the transformation can be
    inverted after forecasting.  A constant lookback, or one with no
    observed sample (mean 0.0), gets its std floored at ``STD_FLOOR`` and is
    flagged.  Statistics that overflow (finite values of about 1e154 or more square
    to inf) raise ``LookbackOverflow`` for the first such channel, and a
    later value whose standardized form overflows raises ``InputError``.
    """
    if not 1 <= lookback <= series.length:
        raise InputError(f"lookback must be in [1, {series.length}], got {lookback}")
    window = series.values[:, :lookback]
    with np.errstate(over="ignore", invalid="ignore"):  # finite values near 1e154 or more: caught below
        if np.isnan(window).any():
            mean, std = _observed_stats(window)
        else:  # a gap-free block: numpy's own mean and std
            mean, std = window.mean(axis=1), window.std(axis=1)
    overflow = ~(np.isfinite(mean) & np.isfinite(std))
    if overflow.any():
        raise LookbackOverflow(int(np.argmax(overflow)))
    floored = std < STD_FLOOR
    std = np.where(floored, STD_FLOOR, std)
    with np.errstate(over="ignore"):  # a value far past the lookback's scale: caught below
        values = (series.values - mean[:, None]) / std[:, None]
    overflow = np.isinf(values).any(axis=1)
    if overflow.any():
        raise InputError(f"channel {int(np.argmax(overflow))}: standardized values overflow float64")
    return TimeSeries(values, dict(series.tags)), NormStats(mean=mean, std=std, floored=floored)


def _observed_stats(window: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's mean and std over its non-NaN entries, in ``mean``'s and ``std``'s
    steps (a row with none gets 0.0 and 0.0): ``nanstd`` is ten times slower."""
    observed = ~np.isnan(window)
    count = np.maximum(np.count_nonzero(observed, axis=1), 1)
    dev = np.where(observed, window, 0.0)
    mean = dev.sum(axis=1) / count
    dev -= mean[:, None]
    dev *= observed  # x * 1.0 is x: an observed deviation keeps its bits
    return mean, np.sqrt(np.multiply(dev, dev, out=dev).sum(axis=1) / count)


def denormalize(series: TimeSeries, stats: NormStats) -> TimeSeries:
    """Undo :func:`normalize`; a value whose denormalized form overflows raises ``InputError``."""
    with np.errstate(over="ignore"):  # a scale near float64's limit: caught below
        values = series.values * stats.std[:, None] + stats.mean[:, None]
    check_denormalized(values)
    return TimeSeries(values, dict(series.tags))


def check_denormalized(values: np.ndarray) -> None:
    """Raise ``InputError`` naming the first channel (row of ``values``) with an infinite value; NaN is a gap."""
    overflow = np.isinf(values).any(axis=1)
    if overflow.any():
        raise InputError(f"channel {int(np.argmax(overflow))}: denormalized values overflow float64")


def value_to_row(values: np.ndarray, params: SpaceParams) -> np.ndarray:
    """Active cell index (0-based, lowest cell first) for each value.

    Interior cells cover half-open value intervals (lower, upper], so the
    cell center is never farther than half a cell from the value; s >= MS
    saturates into the top cell and s <= -MS into the bottom cell.

    The saturation comes from the clip alone.  For s >= MS, fl(s + MS) >= 2MS
    and 2MS / fl(2MS / h) >= h(1 - 2**-53) > h - 1, so the ceiling of the
    clipped quotient is h; for s <= -MS the quotient is <= 0, so it is 1.
    The clip runs on the float quotient, because the int64 cast of a huge
    one is undefined.
    """
    v = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(v)):
        raise InputError("cannot encode non-finite values")
    return _rows(v, params)


def _rows(v: np.ndarray, params: SpaceParams) -> np.ndarray:
    """:func:`value_to_row` without its check: a NaN (a gap) gets row -1."""
    with np.errstate(over="ignore"):  # |v| near 1.7e308: an inf quotient clips like a huge one
        q = (np.atleast_1d(v) + params.ms) / params.bin_width
    np.clip(q, 1, params.h, out=q)  # a NaN stays NaN
    np.ceil(q, out=q)
    rows = np.fmax(q, 0.0, out=q).astype(np.int64)  # and becomes 0
    rows -= 1
    return rows.reshape(v.shape)


def quantize_values(values: np.ndarray, params: SpaceParams) -> np.ndarray:
    """Roundtrip each value through the grid (encode then decode)."""
    return params.centers()[value_to_row(values, params)]


def encode_rows(series: TimeSeries, params: SpaceParams) -> np.ndarray:
    """Active cell index of every sample, -1 for a missing (NaN) sample."""
    return _rows(series.values, params)  # a series holds no infinity


def decode_rows(rows: np.ndarray, params: SpaceParams) -> TimeSeries:
    """Cell-center value of every row index; -1 becomes a missing sample (NaN)."""
    return TimeSeries(np.append(params.centers(), np.nan)[rows])  # row -1 indexes the NaN


def encode(series: TimeSeries, params: SpaceParams) -> BinaryImageTensor:
    """Map a series onto the grid; missing samples become all-zero columns."""
    return BinaryImageTensor._from_rows(encode_rows(series, params), params)


def decode(image: BinaryImageTensor, allow_missing: bool = False) -> TimeSeries:
    """Recover each column's cell-center value.

    All-zero columns are a structural error unless ``allow_missing`` is set,
    in which case they decode as missing samples (NaN).
    """
    check_decodable(image, allow_missing)
    return decode_rows(image.rows, image.params)


def check_decodable(image: BinaryImageTensor, allow_missing: bool = False) -> None:
    """The check :func:`decode` makes: an all-zero column is an error unless ``allow_missing`` is set."""
    if not allow_missing and image.rows.min(initial=0) < 0:
        raise StructuralError("some columns have no active cell (no missing markers expected)")


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


def _check_normalized(grid: np.ndarray, what: str) -> np.ndarray:
    """Check a soft grid's columns; returns their sums, shape (channels, 1, length)."""
    colsums = grid.sum(axis=1, keepdims=True)
    if np.any(grid < 0):
        raise InputError(f"{what} must be nonnegative")
    # written so that a NaN column sum fails it too
    if not np.all(np.abs(colsums - 1.0) <= _TOL):
        raise InputError(f"{what} columns must each sum to 1 within {_TOL}")
    return colsums


def _operands(a, b) -> tuple[tuple[np.ndarray, np.ndarray | None], tuple[np.ndarray, np.ndarray | None]]:
    """Check that two grids are comparable and that their columns are
    distributions.  A binary operand comes back as its active rows
    (channels, length) and None, a soft one as its float64 grid and its
    column sums."""
    shape_a, shape_b = ((x.channels, x.params.h, x.length) for x in (a, b))
    if shape_a != shape_b:
        raise InputError(f"grid shapes differ: {shape_a} vs {shape_b}")
    if a.params != b.params:
        raise InputError("grid space parameters differ")
    return _operand(a, "left grid"), _operand(b, "right grid")


def _operand(image, what: str) -> tuple[np.ndarray, np.ndarray | None]:
    if isinstance(image, BinaryImageTensor):
        # a binary column sums to 1 exactly when it has one active row
        if image.rows.min(initial=0) < 0:
            raise InputError(f"{what} columns must each sum to 1 within {_TOL}")
        return image.rows, None
    grid = np.asarray(image.grid, dtype=np.float64)
    return grid, _check_normalized(grid, what)


def _one_hot(rows: np.ndarray, h: int, dtype: type = np.float64) -> np.ndarray:
    """Dense grid (channels, h, length) with a 1 at each column's row; row -1 leaves its column empty."""
    grid = np.zeros((rows.shape[0], h, rows.shape[1]), dtype=dtype)
    c, t = np.nonzero(rows >= 0)
    grid[c, rows[c, t], t] = 1
    return grid


_ROW_BLOCK = 16  # rows per block of the banded row blur and of the metrics against a binary grid


def _row_blocks(h: int) -> list[tuple[int, int]]:
    """Consecutive ``_ROW_BLOCK``-row slices [r0, r1) covering ``h`` rows."""
    return [(r0, min(h, r0 + _ROW_BLOCK)) for r0 in range(0, h, _ROW_BLOCK)]


def _emd(x: np.ndarray, y: np.ndarray) -> float:
    if x.ndim == 2 and y.ndim == 2:
        return float(np.abs(x - y).sum())
    if x.ndim == 2:
        x, y = y, x
    if y.ndim == 2:
        # against a point mass at row r a column's transport distance is
        # its expected distance to r; one code path for both argument orders.
        # The rows are cast first: a float-int subtract casts every cell.
        # The distances are built one block of rows at a time.
        rows = y[:, None, :].astype(np.float64)
        total = 0.0
        for r0, r1 in _row_blocks(x.shape[1]):
            dist = np.arange(r0, r1, dtype=np.float64)[:, None] - rows
            total += np.vdot(x[:, r0:r1], np.abs(dist, out=dist))
            del dist  # freed before the next block's is built
        return float(total)
    return float(np.abs(np.cumsum(x, axis=1) - np.cumsum(y, axis=1)).sum())


def _kld(
    x: np.ndarray, y: np.ndarray, h: int, x_sums: np.ndarray | None = None, y_sums: np.ndarray | None = None
) -> float:
    """Smoothed KL(x || y); ``x_sums`` and ``y_sums`` are soft operands' column sums from their check."""
    eps = _KLD_EPS
    gp = _one_hot(x, h) if x.ndim == 2 else x
    scale = (gp.sum(axis=1, keepdims=True) if x_sums is None else x_sums) + h * eps
    if y.ndim == 2:
        # the smoothed one-hot q is hi at the active row and lo elsewhere, so
        # log(ps / q) is log(ps) less a constant that differs at one row per
        # column; the smoothed p and its log are held one block of rows at a
        # time.  p is scaled by one reciprocal per column, and lo and hi by
        # q's, so a one-hot p gives lo and hi bit for bit and scores 0.0
        inv_scale = 1.0 / scale
        inv_q = 1.0 / (1.0 + h * eps)
        log_lo, log_hi = math.log(eps * inv_q), math.log((1.0 + eps) * inv_q)
        block_of = y // _ROW_BLOCK
        total = 0.0
        for r0, r1 in _row_blocks(h):
            ps = gp[:, r0:r1] + eps
            ps *= inv_scale
            log_ratio = np.log(ps)
            c, t = np.nonzero(block_of == r0 // _ROW_BLOCK)
            r = y[c, t] - r0
            active = log_ratio[c, r, t]
            log_ratio -= log_lo
            log_ratio[c, r, t] = active - log_hi
            total += np.vdot(ps, log_ratio)
            del ps, log_ratio  # freed before the next block's are built
        return float(total)
    ps = gp + eps
    ps /= scale
    ratio = ps / ((y + eps) / ((y.sum(axis=1, keepdims=True) if y_sums is None else y_sums) + h * eps))
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
    (x, _), (y, _) = _operands(a, b)
    return _emd(x, y)


def kld(p, q) -> float:
    """Column-wise KL(p || q) with eps-smoothing, summed over channels/columns.

    Both arguments are smoothed (add eps = 1e-8, as :func:`loss` does, and
    renormalize) so the result is finite even for one-hot columns.
    """
    (x, x_sums), (y, y_sums) = _operands(p, q)
    return _kld(x, y, p.params.h, x_sums, y_sums)


def loss(pred, target, alpha: float = 0.2) -> float:
    """Transport distance plus ``alpha`` times the smoothed KL divergence."""
    (x, x_sums), (y, y_sums) = _operands(pred, target)
    return _emd(x, y) + alpha * _kld(x, y, pred.params.h, x_sums, y_sums)


_BLUR_TAPS = 31  # the Gaussian kernel length on both axes; sigma is a sixth of it
_BLUR_RADIUS = _BLUR_TAPS // 2
_BLUR_KERNEL = np.exp(-0.5 * (np.arange(-_BLUR_RADIUS, _BLUR_RADIUS + 1) / (_BLUR_TAPS / 6.0)) ** 2)
_BLUR_KERNEL /= _BLUR_KERNEL.sum()
_BLUR_KERNEL.setflags(write=False)


@functools.lru_cache(maxsize=4)  # a few heights: the table of height h holds 8 h**2 bytes
def _row_blur_table(h: int) -> np.ndarray:
    """The row blur of a one-hot column is the truncated kernel at its active
    row a: table[r, a] is tap r - a, each row divided by the mass inside the
    grid.  Read-only, as every call of this height shares it."""
    radius, kernel = _BLUR_RADIUS, _BLUR_KERNEL
    offset = np.arange(h)[:, None] - np.arange(h)
    table = np.where(np.abs(offset) <= radius, kernel[np.clip(offset + radius, 0, 2 * radius)], 0.0)
    table /= table.sum(axis=1, keepdims=True)
    table.setflags(write=False)
    return table


def preprocess(image: BinaryImageTensor) -> SoftImageTensor:
    """Gaussian-blur a one-hot grid and renormalize every column to sum 1.

    The kernel has 31 taps on both axes, with sigma 31 / 6.  It is truncated
    at the grid borders and renormalized there, so no probability mass
    leaks outside: down the rows by the kernel mass inside the grid, and
    along time by the final division of each column by its own sum, which
    cancels any per-column factor.  The row-blur table is built once per
    height.
    """
    if not isinstance(image, BinaryImageTensor):
        raise InputError(f"preprocess input must be a BinaryImageTensor, got {type(image).__name__}")
    rows, _ = _operand(image, "preprocess input")
    radius, kernel = _BLUR_RADIUS, _BLUR_KERNEL
    h = image.params.h
    table = _row_blur_table(h)
    # weights[c, a, t]: the time-blurred mass at t of the columns whose active
    # row is a, built flat: source column s of channel c puts its tap for
    # offset off at (c * h + rows[c, s]) * length + s - off
    channels, length = rows.shape
    weights = np.zeros(channels * h * length)
    cells = (rows + h * np.arange(channels)[:, None]) * length + np.arange(length)
    for off, tap in enumerate(kernel, -radius):
        s0, s1 = max(0, off), min(length, length + off)
        if s0 < s1:  # an empty range would wrap around as a negative slice bound
            # within one offset each (channel, t) is indexed once, so this fancy += adds every tap
            weights[cells[:, s0:s1] - off] += tap
    weights = weights.reshape(channels, h, length)
    # table @ weights as a banded product, in place: table is zero past the
    # kernel radius, so each block of output rows needs only its band of
    # weights rows.  A block's product is held until no later band reaches
    # its rows, then written over them
    pending: list[tuple[int, int, np.ndarray]] = []
    for r0, r1 in _row_blocks(h):
        a0, a1 = max(0, r0 - radius), min(h, r1 + radius)
        while pending and pending[0][1] <= a0:
            p0, p1, block = pending.pop(0)
            weights[:, p0:p1] = block
            del block  # freed before the next product is built
        pending.append((r0, r1, table[r0:r1, a0:a1] @ weights[:, a0:a1]))
    for p0, p1, block in pending:
        weights[:, p0:p1] = block
    weights /= weights.sum(axis=1, keepdims=True)
    return SoftImageTensor(weights, image.params)
