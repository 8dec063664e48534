"""Mask-and-fill forecaster contract and classical baselines.

A forecaster sees the visible prefix of a series (directly, or through the
grid codec) and fills in the masked suffix.  The baselines here are pure
and deterministic: persistence, seasonal-naive with autocorrelation period
detection, and a least-squares linear trend.  Each is registered in a
value-space and a grid-space (encode-after-predict) variant behind one
handle type, so richer models can plug in later without touching the
evaluation harness.  The harness hands a handle a block of lookbacks at a
time (``ForecasterHandle.predict_rows``); the baselines predict the whole
block at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import CapabilityError, InputError
from .imagespace import BinaryImageTensor, SoftImageTensor, SpaceParams, _one_hot, decode, preprocess, value_to_row
from .series import TimeSeries, carry_forward

MAX_LOOKBACK = 8192
MAX_HORIZON = 4096


@dataclass(frozen=True)
class TemporalMask:
    """Prefix-visible mask: bits[k] = 1 for k < lookback, 0 afterwards."""

    bits: np.ndarray
    lookback: int

    @property
    def length(self) -> int:
        return self.bits.size


def make_mask(length: int, lookback: int) -> TemporalMask:
    if not 1 <= lookback <= length:
        raise InputError(f"lookback must be in [1, {length}], got {lookback}")
    bits = np.zeros(length, dtype=np.uint8)
    bits[:lookback] = 1
    return TemporalMask(bits, lookback)


def apply_mask(image: BinaryImageTensor, mask: TemporalMask) -> BinaryImageTensor:
    """Zero all columns at and beyond the mask's lookback."""
    if mask.length != image.length:
        raise InputError(f"mask length {mask.length} does not match image length {image.length}")
    rows = image.rows.copy()
    rows[:, mask.lookback :] = -1
    return BinaryImageTensor._from_rows(rows, image.params)


@dataclass(frozen=True)
class ForecasterHandle:
    """A named, pure forecaster with declared capability limits.

    ``predict_rows`` is the batch contract: a block of lookbacks
    (rows, lookback) maps to predictions (rows, horizon), one row per
    series.  A handle implements it with ``predict_rows_fn``, which takes
    the whole block; its result must have that shape and finite values.
    Handles with ``needs_future`` are evaluation oracles: the harness
    hands them the true future, which they return verbatim.
    """

    id: str
    space: str  # "numeric" | "image"
    predict_rows_fn: Callable[[np.ndarray, int], np.ndarray]
    max_lookback: int = MAX_LOOKBACK
    max_horizon: int = MAX_HORIZON
    needs_future: bool = False

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
        if self.needs_future:
            if future is None:
                raise InputError(f"{self.id}: this handle requires the true future")
            return np.asarray(future, dtype=np.float64)[:, :horizon].copy()
        out = np.asarray(self.predict_rows_fn(X, horizon), dtype=np.float64)
        if out.shape != (X.shape[0], horizon):
            raise InputError(f"{self.id}: predictions have shape {out.shape}, expected {(X.shape[0], horizon)}")
        if not np.isfinite(out).all():
            raise InputError(f"{self.id}: predictions must be finite (no NaN/Inf)")
        return out


def detect_period(x: np.ndarray, min_lag: int = 2) -> int:
    """Dominant period from the autocorrelation argmax in [min_lag, n // 2].

    The raw autocorrelation is normalized by overlap length; the integer
    argmax (ties resolved toward the smaller lag) is refined by a parabolic
    fit through its neighbors and rounded back to an integer lag.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    max_lag = n // 2
    if max_lag < min_lag:
        return max(1, max_lag)
    xc = x - x.mean()
    full = np.correlate(xc, xc, mode="full")[n - 1 :]
    lags = np.arange(n)
    with np.errstate(invalid="ignore"):
        r = full / (n - lags)
    window = r[min_lag : max_lag + 1]
    best = int(np.argmax(window)) + min_lag

    if min_lag < best < n - 1:
        y0, y1, y2 = r[best - 1], r[best], r[best + 1]
        denom = y0 - 2.0 * y1 + y2
        if denom < 0:  # proper local maximum
            shift = 0.5 * (y0 - y2) / denom
            best = int(round(best + float(np.clip(shift, -0.5, 0.5))))
    return int(np.clip(best, min_lag, max_lag))


def _periods(X: np.ndarray, min_lag: int = 2) -> np.ndarray:
    """``[detect_period(x, min_lag) for x in X]``, from one FFT screen of the block.

    The autocorrelation of every row comes from one ``rfft``/``irfft``
    pair.  Its argmax is the period unless a rounding error could have
    changed it; those rows go through :func:`detect_period`.

    Why a clear argmax is exact.  Both paths center with the same floats
    (``X.mean(axis=1)`` is bit-equal to each row's mean), so they differ
    only in how they sum lag products.  With S = sum(xc**2), every lag sum
    is at most S by Cauchy-Schwarz, so ``np.correlate`` in any summation
    order is within (n - k) * eps * S of the exact lag-k sum.  For the FFT
    the bound is stated, not proven per element: c * log2(nfft) * eps * S,
    because a radix-2 FFT's error grows as log2 of its size times eps times
    the norm, and c = 8 is about twenty times the largest ratio seen on
    noise, periodic, quantized and random-walk rows.  Divided by the
    overlap (n - k), plus one eps * S for the two divisions, this is
    ``margin[k]``, a bound on the gap between the two computed values at
    lag k.  If every other lag k lies more than margin[best] + margin[k]
    below the top lag, ``np.correlate`` ranks the top lag first as well.

    Such a row needs no parabolic refinement either: at a strict local
    maximum the shift is 0.5 * (a - b) / (a + b) with a, b > 0 the drops to
    either neighbor, so |shift| < 0.5 and the rounding keeps the lag, and at
    best = max_lag a shift to the right is clipped back.  The refinement
    moves a lag only when a neighbor ties it, and such a row is flagged.
    """
    X = np.asarray(X, dtype=np.float64)
    rows, n = X.shape
    max_lag = n // 2
    if max_lag < min_lag:
        return np.full(rows, max(1, max_lag), dtype=np.int64)
    nfft = 1 << (n + max_lag - 1).bit_length()  # no circular wrap up to max_lag
    lags = np.arange(min_lag, max_lag + 1)
    with np.errstate(all="ignore"):  # non-finite rows are flagged and rerun below
        xc = X - X.mean(axis=1)[:, None]
        spectrum = np.fft.rfft(xc, n=nfft, axis=1)
        power = spectrum.real**2 + spectrum.imag**2
        r = np.fft.irfft(power, n=nfft, axis=1)[:, min_lag : max_lag + 1] / (n - lags)
        energy = np.einsum("ij,ij->i", xc, xc)
        margin = ((n - lags) + 8.0 * np.log2(nfft) + 1.0) * np.finfo(np.float64).eps / (n - lags)
        margin = energy[:, None] * margin
        best = np.argmax(r, axis=1)
        at = np.arange(rows)
        top = r[at, best]
        # the top lag itself always counts once
        close = (top[:, None] - r <= margin[at, best][:, None] + margin).sum(axis=1)
        flagged = (close != 1) | ~np.isfinite(top) | ~np.isfinite(energy)
    periods = best + min_lag
    for i in np.flatnonzero(flagged):
        periods[i] = detect_period(X[i], min_lag)
    return periods


def _persistence_rows(X: np.ndarray, horizon: int) -> np.ndarray:
    return np.repeat(X[:, -1:], horizon, axis=1)


def _seasonal_naive_rows(X: np.ndarray, horizon: int) -> np.ndarray:
    # the last period of each row, repeated: X[i, n - p_i + (j mod p_i)]
    periods = _periods(X)[:, None]
    cols = X.shape[1] - periods + np.arange(horizon) % periods
    return np.take_along_axis(X, cols, axis=1)


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


def forecast(
    model: ForecasterHandle,
    image: BinaryImageTensor,
    mask: TemporalMask,
    blur_kernel: tuple[int, int] | None = None,
) -> SoftImageTensor:
    """Fill the masked suffix of a grid with the model's prediction.

    The visible prefix is decoded (missing columns carried forward), the
    model predicts in value space, and the prediction is re-encoded into
    one-hot columns; values beyond the scale saturate into the edge cells.
    Visible columns pass through unmodified, or blurred when ``blur_kernel``
    is given.  Every output column sums to 1, except that missing lookback
    columns pass through all-zero; blurring needs a complete lookback.
    """
    if mask.length != image.length:
        raise InputError(f"mask length {mask.length} does not match image length {image.length}")
    horizon = image.length - mask.lookback
    if horizon < 1:
        raise InputError("mask leaves nothing to predict")
    model.check_capability(mask.lookback, horizon)

    visible = BinaryImageTensor._from_rows(image.rows[:, : mask.lookback], image.params)
    decoded = decode(visible, allow_missing=True)
    if blur_kernel is not None:
        if decoded.missing is not None:
            cols = np.flatnonzero(decoded.missing.any(axis=0))
            shown = ", ".join(str(i) for i in cols[:10]) + (", ..." if cols.size > 10 else "")
            raise InputError(
                f"cannot blur a lookback with missing samples; {cols.size} missing lookback column(s): {shown}"
            )
        prefix = preprocess(visible, blur_kernel).grid
    else:
        prefix = _one_hot(visible.rows, image.params.h)
    rows = _predicted_rows(model, decoded, horizon, image.params)
    out = np.concatenate([prefix, _one_hot(rows, image.params.h)], axis=2)
    return SoftImageTensor(out, image.params)


def _predicted_rows(model: ForecasterHandle, lookback: TimeSeries, horizon: int, params: SpaceParams) -> np.ndarray:
    """Active cell index of each predicted sample, shape (channels, horizon).

    Missing lookback samples are carried forward, the model predicts all
    channels in value space with one ``predict_rows`` call, and the
    prediction is binned into the grid.
    """
    filled = carry_forward(lookback.values, lookback.missing)
    return value_to_row(model.predict_rows(filled, horizon), params)
