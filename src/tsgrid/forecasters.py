"""Mask-and-fill forecaster contract and classical baselines.

A forecaster sees the visible prefix of a series (directly, or through the
grid codec) and fills in the masked suffix.  The baselines here are pure
and deterministic: persistence, seasonal-naive with autocorrelation period
detection, and a least-squares linear trend.  Each is registered in a
value-space and a grid-space (encode-after-predict) variant behind one
handle type, so richer models can plug in later without touching the
evaluation harness.
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

    ``predict_fn`` maps a 1-D lookback and a horizon to a 1-D prediction.
    Handles with ``needs_future`` are evaluation oracles: the harness hands
    them the true future, which they return verbatim.
    """

    id: str
    space: str  # "numeric" | "image"
    predict_fn: Callable[[np.ndarray, int], np.ndarray]
    max_lookback: int = MAX_LOOKBACK
    max_horizon: int = MAX_HORIZON
    needs_future: bool = False

    def check_capability(self, lookback: int, horizon: int) -> None:
        if lookback > self.max_lookback:
            raise CapabilityError(f"{self.id}: lookback {lookback} exceeds limit {self.max_lookback}")
        if horizon > self.max_horizon:
            raise CapabilityError(f"{self.id}: horizon {horizon} exceeds limit {self.max_horizon}")

    def predict(self, lookback: np.ndarray, horizon: int, future: np.ndarray | None = None) -> np.ndarray:
        x = np.asarray(lookback, dtype=np.float64)
        if x.ndim != 1 or x.size < 1:
            raise InputError("lookback must be a nonempty 1-D array")
        if horizon < 1:
            raise InputError(f"horizon must be positive, got {horizon}")
        self.check_capability(x.size, horizon)
        if self.needs_future:
            if future is None:
                raise InputError(f"{self.id}: this handle requires the true future")
            return np.asarray(future, dtype=np.float64)[:horizon].copy()
        return self.predict_fn(x, horizon)


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


def _persistence(x: np.ndarray, horizon: int) -> np.ndarray:
    return np.full(horizon, x[-1])


def _seasonal_naive(x: np.ndarray, horizon: int) -> np.ndarray:
    period = detect_period(x)
    template = x[-period:]
    reps = int(np.ceil(horizon / period))
    return np.tile(template, reps)[:horizon]


def _linear_trend(x: np.ndarray, horizon: int) -> np.ndarray:
    if x.size < 2:
        raise InputError(f"linear-trend needs a lookback of at least 2 samples, got {x.size}")
    t = np.arange(x.size, dtype=np.float64)
    slope, intercept = np.polyfit(t, x, 1)
    future_t = np.arange(x.size, x.size + horizon, dtype=np.float64)
    return slope * future_t + intercept


_BASELINE_CORES: tuple[tuple[str, Callable[[np.ndarray, int], np.ndarray]], ...] = (
    ("persistence", _persistence),
    ("seasonal-naive", _seasonal_naive),
    ("linear-trend", _linear_trend),
)


def register_baselines() -> list[ForecasterHandle]:
    """All built-in handles, in stable order."""
    handles = []
    for name, fn in _BASELINE_CORES:
        handles.append(ForecasterHandle(id=name, space="numeric", predict_fn=fn))
    for name, fn in _BASELINE_CORES:
        handles.append(ForecasterHandle(id=f"{name}-image", space="image", predict_fn=fn))
    handles.append(ForecasterHandle(id="oracle", space="numeric", predict_fn=_persistence, needs_future=True))
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

    Missing lookback samples are carried forward, the model predicts each
    channel in value space, and the prediction is binned into the grid.
    """
    filled = carry_forward(lookback.values, lookback.missing)
    return value_to_row(np.stack([model.predict(row, horizon) for row in filled]), params)
