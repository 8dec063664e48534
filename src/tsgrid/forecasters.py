"""Mask-and-fill forecaster contract and classical baselines.

A forecaster sees the visible prefix of a series (directly, or through the
grid codec) and fills in the masked suffix.  The baselines here are pure
and deterministic: persistence, seasonal-naive with autocorrelation period
detection, and a least-squares linear trend.  Each is registered in a
value-space and a grid-space (encode-after-predict) variant behind one
handle type, so richer models can plug in later without touching the
evaluation harness.  The harness hands a handle a block of lookbacks at a
time (``ForecasterHandle.predict_rows``); the baselines predict the whole
block at once.  Grid-space forecasts, in the harness and in
:func:`forecast`, all go through ``ForecasterHandle.predict_grid``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import CapabilityError, ConfigurationError, InputError
from .imagespace import BinaryImageTensor, SpaceParams, value_to_row
from .series import carry_forward

MAX_LOOKBACK = 8192
MAX_HORIZON = 4096
MIN_LAG = 2  # the shortest period seasonal-naive considers


@dataclass(frozen=True)
class TemporalMask:
    """Prefix-visible mask: columns k < lookback are visible, the rest are masked."""

    length: int
    lookback: int

    def __post_init__(self) -> None:
        if not 1 <= self.lookback <= self.length:
            raise InputError(f"lookback must be in [1, {self.length}], got {self.lookback}")


@dataclass(frozen=True)
class ForecasterHandle:
    """A named, pure forecaster with declared capability limits.

    ``predict_rows`` is the batch contract: a block of lookbacks
    (rows, lookback) maps to predictions (rows, horizon), one row per
    series.  A handle implements it with ``predict_rows_fn``, which takes
    the whole block; its result must have that shape and finite values.
    The block may be a view, say with rows longer than the lookback (the
    harness passes the lookback columns of its windows), so a
    ``predict_rows_fn`` must not write into its lookbacks.
    It must also be prefix-consistent: ``predict_rows(X, h)`` equals
    ``predict_rows(X, H)[:, :h]`` for every h <= H, because the harness
    forecasts each lookback once, at the longest horizon it scores there.
    The built-ins meet it: persistence repeats the last value,
    seasonal-naive the last period, linear-trend evaluates its fit at
    n, n+1, ..., the ``-image`` twins bin each value on its own, and the
    oracle returns a prefix of the future.
    Handles with ``needs_future`` are evaluation oracles: the harness
    hands them the true future, which they return verbatim, NaN gaps too.
    """

    id: str
    space: str  # "numeric" | "image"
    predict_rows_fn: Callable[[np.ndarray, int], np.ndarray]
    max_lookback: int = MAX_LOOKBACK
    max_horizon: int = MAX_HORIZON
    needs_future: bool = False

    def __post_init__(self) -> None:
        if self.space not in ("numeric", "image"):
            raise ConfigurationError(f"{self.id}: space must be 'numeric' or 'image', got {self.space!r}")

    def check_capability(self, lookback: int, horizon: int) -> None:
        if lookback > self.max_lookback:
            raise CapabilityError(f"{self.id}: lookback {lookback} exceeds limit {self.max_lookback}")
        if horizon > self.max_horizon:
            raise CapabilityError(f"{self.id}: horizon {horizon} exceeds limit {self.max_horizon}")

    def predict(self, lookback: np.ndarray, horizon: int, future: np.ndarray | None = None) -> np.ndarray:
        """Predict one series: ``predict_rows`` on a block of one row."""
        x = np.asarray(lookback, dtype=np.float64)
        if x.ndim != 1 or x.size < 1:
            raise InputError("lookback must be a nonempty 1-D array")
        rows_future = None if future is None else np.asarray(future, dtype=np.float64)[None]
        return self.predict_rows(x[None], horizon, rows_future)[0]

    def predict_rows(self, lookbacks: np.ndarray, horizon: int, future: np.ndarray | None = None) -> np.ndarray:
        """Predict a block of series at once, shape (rows, lookback) -> (rows, horizon)."""
        X = np.asarray(lookbacks, dtype=np.float64)
        if X.ndim != 2 or X.size < 1:
            raise InputError("lookbacks must be a nonempty 2-D array")
        if horizon < 1:
            raise InputError(f"horizon must be positive, got {horizon}")
        self.check_capability(X.shape[1], horizon)
        if not np.isfinite(X).all():  # a forgotten gap fails here, not as a quiet forecast
            row = int(np.argmin(np.isfinite(X).all(axis=1)))
            raise InputError(f"{self.id}: lookback row {row} is not finite (NaN/Inf)")
        if self.needs_future:
            if future is None:
                raise InputError(f"{self.id}: this handle requires the true future")
            out = np.array(future, dtype=np.float64, ndmin=2)[:, :horizon]
        else:
            out = np.asarray(self.predict_rows_fn(X, horizon), dtype=np.float64)
        if out.shape != (X.shape[0], horizon):
            raise InputError(f"{self.id}: predictions have shape {out.shape}, expected {(X.shape[0], horizon)}")
        if (np.isinf(out) if self.needs_future else ~np.isfinite(out)).any():
            raise InputError(f"{self.id}: predictions must be finite (no NaN/Inf)")
        return out

    def predict_grid(self, rows: np.ndarray, horizon: int, params: SpaceParams) -> np.ndarray:
        """Forecast in grid space: active rows (rows, lookback), -1 for a missing
        sample, map to predicted active rows (rows, horizon).

        Each lookback is decoded to its cell centers, a missing sample to
        NaN, which is carried forward; ``predict_rows`` forecasts the block
        in value space, and the prediction is binned into the grid; values
        beyond the scale saturate into the edge cells.
        """
        # a fresh gather, in which row -1 indexes the NaN: a gap-free block is forecast from it as it is
        visible = np.append(params.centers(), np.nan)[rows]
        if np.isnan(visible).any():
            visible = carry_forward(visible)
        return value_to_row(self.predict_rows(visible, horizon), params)


def detect_period(x: np.ndarray) -> int:
    """Dominant period from the autocorrelation argmax in [MIN_LAG, n // 2].

    The raw autocorrelation is normalized by overlap length; the integer
    argmax (ties resolved toward the smaller lag) is refined by a parabolic
    fit through its neighbors and rounded back to an integer lag.
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise InputError("detect_period needs a finite series (no NaN/Inf)")
    n = x.size
    max_lag = n // 2
    if max_lag < MIN_LAG:
        return max(1, max_lag)
    xc = x - x.mean()
    full = np.correlate(xc, xc, mode="full")[n - 1 :]
    lags = np.arange(n)
    with np.errstate(invalid="ignore"):
        r = full / (n - lags)
    window = r[MIN_LAG : max_lag + 1]
    best = int(np.argmax(window)) + MIN_LAG

    if MIN_LAG < best < n - 1:
        y0, y1, y2 = r[best - 1], r[best], r[best + 1]
        denom = y0 - 2.0 * y1 + y2
        if denom < 0:  # proper local maximum
            shift = 0.5 * (y0 - y2) / denom
            best = int(round(best + float(np.clip(shift, -0.5, 0.5))))
    return int(np.clip(best, MIN_LAG, max_lag))


def _fft_length(m: int) -> int:
    """The smallest 2**a * 3**b * 5**c >= m: a length numpy's FFT handles fast (numpy has no ``next_fast_len``)."""
    best = 1 << max(m - 1, 0).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            q = p35
            while q < m:
                q *= 2
            best = min(best, q)
            p35 *= 3
        p5 *= 5
    return best


@lru_cache(maxsize=8)
def _screen_constants(n: int) -> tuple[int, np.ndarray, float]:
    """The FFT length of lookback ``n``, the overlaps n - k of its lags k in
    [MIN_LAG, n // 2] (read-only, as every caller shares them), and the
    largest margin factor ``mu_max``, that of lag n // 2 (see :func:`_periods`)."""
    max_lag = n // 2
    nfft = _fft_length(n + max_lag)  # no circular wrap up to max_lag
    overlap = n - np.arange(MIN_LAG, max_lag + 1, dtype=np.float64)
    overlap.setflags(write=False)
    least = float(n - max_lag)
    mu_max = (least + 8.0 * np.log2(nfft) + 1.0) * float(np.finfo(np.float64).eps) / least
    return nfft, overlap, mu_max


def _centered_spectrum(X: np.ndarray, nfft: int) -> tuple[np.ndarray, np.ndarray]:
    """The energy ``sum(xc**2)`` of each centered row xc (the row minus its
    mean), and the ``rfft`` of xc zero-padded to ``nfft``.  The rows are
    centered straight into a zeroed buffer, so the spectrum is bit-equal to
    ``np.fft.rfft(xc, n=nfft, axis=1)`` without its internal padded copy;
    the energies are taken before the FFT, and the buffer goes on return."""
    padded = np.zeros((X.shape[0], nfft))
    xc = np.subtract(X, X.mean(axis=1)[:, None], out=padded[:, : X.shape[1]])
    return np.einsum("ij,ij->i", xc, xc), np.fft.rfft(padded, axis=1)


def _screen(r: np.ndarray, energy: np.ndarray, mu_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Each row's argmax lag index in ``r`` and the rows whose argmax rounding
    could have changed (see :func:`_periods`).  ``r`` is left as it was."""
    at = np.arange(r.shape[0])
    best = np.argmax(r, axis=1)
    top = r[at, best]
    r[at, best] = -np.inf
    second = r.max(axis=1)
    r[at, best] = top
    sure = (top - second > 2.0 * energy * mu_max) & np.isfinite(top)
    return best, np.flatnonzero(~sure)


def _periods(X: np.ndarray) -> np.ndarray:
    """``[detect_period(x) for x in X]``, from one FFT screen of the block.

    The autocorrelation of every row comes from one ``rfft``/``irfft``
    pair of length ``_fft_length(n + n // 2)``, the shortest 2**a * 3**b *
    5**c length with no circular wrap up to lag n // 2 (768 for n = 512).
    Its argmax is the period unless a rounding error could have changed
    it; those rows go through :func:`detect_period`.

    Why a clear argmax is exact.  Both paths center with the same floats
    (``X.mean(axis=1)`` is bit-equal to each row's mean), so they differ
    only in how they sum lag products.  With S = sum(xc**2), every lag sum
    is at most S by Cauchy-Schwarz, so ``np.correlate`` in any summation
    order is within (n - k) * eps * S of the exact lag-k sum.  For the FFT
    the bound is stated, not proven per element: c * log2(nfft) * eps * S,
    because an FFT's error grows as log2 of its size times eps times the
    norm.  On 3000 noise, periodic, cell-center and random-walk rows the
    largest ratio of the error to log2(nfft) * eps * S was 0.39 at n = 512
    (nfft = 768) and 0.62 at n = 96 (nfft = 144), the largest over lookbacks
    4 to 4096, so c = 8 leaves 12x headroom or more.  Divided by the
    overlap (n - k), plus one eps * S for the two divisions, this is
    ``S * mu[k]``, a bound on the gap between the two computed values at
    lag k.  If every other lag k lies more than S * mu[best] + S * mu[k]
    below the top lag, ``np.correlate`` ranks the top lag first as well.

    The runner-up test.  ``mu[k] = eps * (1 + (c log2(nfft) + 1) / (n - k))``
    grows with k, so ``mu_max``, that of the last lag, bounds it.  The
    screen only compares the top lag with the runner-up ``second``: a row
    with ``top - second > 2 * S * mu_max`` passes the all-lag test above,
    in floating point too.  Rounding is monotone, so r[k] <= second gives
    fl(top - r[k]) >= fl(top - second), mu[k] <= mu_max gives fl(S * mu[k])
    <= fl(S * mu_max), and doubling is exact.  The other rows, and the
    rows with a non-finite top, go through :func:`detect_period`: a few
    more than the all-lag test would flag, those within about eps * S of
    its margin, with the same periods.

    Such a row needs no parabolic refinement either: at a strict local
    maximum the shift is 0.5 * (a - b) / (a + b) with a, b > 0 the drops to
    either neighbor, so |shift| < 0.5 and the rounding keeps the lag, and at
    best = max_lag a shift to the right is clipped back.  The refinement
    moves a lag only when a neighbor ties it, and such a row is flagged.
    """
    X = np.asarray(X, dtype=np.float64)
    rows, n = X.shape
    max_lag = n // 2
    if max_lag < MIN_LAG:
        return np.full(rows, max(1, max_lag), dtype=np.int64)
    nfft, overlap, mu_max = _screen_constants(n)
    with np.errstate(all="ignore"):  # non-finite rows are flagged, and detect_period rejects them
        # each transform's input is dropped once used: a block holds at most two of them at a time
        energy, spectrum = _centered_spectrum(X, nfft)
        power = np.square(spectrum.real)  # ** 2 takes a general loop on these strided views, about 5x slower
        power += np.square(spectrum.imag)
        del spectrum
        r = np.fft.irfft(power, n=nfft, axis=1)
        del power
        r = r[:, MIN_LAG : max_lag + 1] / overlap
        best, flagged = _screen(r, energy, mu_max)
    periods = best + MIN_LAG
    for i in flagged:
        periods[i] = detect_period(X[i])
    return periods


def _persistence_rows(X: np.ndarray, horizon: int) -> np.ndarray:
    return np.repeat(X[:, -1:], horizon, axis=1)


def _seasonal_naive_rows(X: np.ndarray, horizon: int) -> np.ndarray:
    # the last period of each row, repeated: X[i, n - p_i + (j mod p_i)], as one flat gather
    periods = _periods(X)[:, None]
    rows, n = X.shape
    flat = (np.arange(1, rows + 1) * n)[:, None] - periods + np.arange(horizon) % periods
    return np.take(X, flat)


def _linear_trend_rows(X: np.ndarray, horizon: int) -> np.ndarray:
    n = X.shape[1]
    if n < 2:
        raise InputError(f"linear-trend needs a lookback of at least 2 samples, got {n}")
    t = np.arange(n, dtype=np.float64)
    future_t = np.arange(n, n + horizon, dtype=np.float64)
    # one fit per row: a 2-D polyfit differs from the 1-D one in the last bit
    fits = (np.polyfit(t, x, 1) for x in X)
    return np.stack([slope * future_t + intercept for slope, intercept in fits])


_BASELINE_CORES: tuple[tuple[str, Callable[[np.ndarray, int], np.ndarray]], ...] = (
    ("persistence", _persistence_rows),
    ("seasonal-naive", _seasonal_naive_rows),
    ("linear-trend", _linear_trend_rows),
)


def register_baselines() -> list[ForecasterHandle]:
    """All built-in handles, in stable order."""
    handles = []
    for name, fn in _BASELINE_CORES:
        handles.append(ForecasterHandle(id=name, space="numeric", predict_rows_fn=fn))
    for name, fn in _BASELINE_CORES:
        handles.append(ForecasterHandle(id=f"{name}-image", space="image", predict_rows_fn=fn))
    handles.append(ForecasterHandle(id="oracle", space="numeric", predict_rows_fn=_persistence_rows, needs_future=True))
    return handles


def get_model(model_id: str) -> ForecasterHandle:
    for handle in register_baselines():
        if handle.id == model_id:
            return handle
    known = ", ".join(h.id for h in register_baselines())
    raise InputError(f"unknown model id {model_id!r}; registered ids: {known}")


def forecast(model: ForecasterHandle, image: BinaryImageTensor, mask: TemporalMask) -> BinaryImageTensor:
    """Fill the masked suffix of a grid with the model's prediction.

    Only the visible prefix is read.  It passes through unmodified, missing
    columns (row -1) included, and the suffix holds the one-hot rows of
    :meth:`ForecasterHandle.predict_grid`.
    """
    if mask.length != image.length:
        raise InputError(f"mask length {mask.length} does not match image length {image.length}")
    horizon = image.length - mask.lookback
    if horizon < 1:
        raise InputError("mask leaves nothing to predict")
    visible = image.rows[:, : mask.lookback]
    rows = np.concatenate([visible, model.predict_grid(visible, horizon, image.params)], axis=1)
    return BinaryImageTensor._from_rows(rows, image.params)
