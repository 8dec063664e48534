"""Rescale-based forecast evaluation, robustness perturbations, benchmark sweeps.

The protocol guards against memorized test data: the test series is
interpolated to several time resolutions (the rescale set), the forecaster
is scored on sliding windows at every resolution, and the reported metrics
are the unweighted means over the set.  Perturbation scenarios (additive
noise, an injected harmonic, missing data) run the same sweep on a
perturbed copy of the series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigurationError, EvaluationError, InputError
from .forecasters import ForecasterHandle, _predicted_rows
from .imagespace import SpaceParams, decode_rows, denormalize, encode_rows, normalize
from .rng import RngStream
from .series import TimeSeries, carry_forward, linear_resample

# Window samples (lookback + horizon, all channels) scored per block: bounds
# the memory of a cell with many overlapping windows, e.g. at stride 1.
WINDOW_BLOCK_SAMPLES = 2**18


@dataclass(frozen=True)
class EvalConfig:
    """Windowing and rescaling parameters of one evaluation sweep."""

    lookback: int = 512
    horizons: tuple[int, ...] = (96, 192, 336, 720)
    rescale_factors: tuple[float, ...] = (0.5, 0.66, 1.0, 1.5, 2.0)
    stride: int | None = None  # None: stride equals the horizon (non-overlapping)

    def __post_init__(self) -> None:
        if self.lookback < 1:
            raise ConfigurationError(f"lookback must be positive, got {self.lookback}")
        if not self.horizons or any(h < 1 for h in self.horizons):
            raise ConfigurationError(f"horizons must be positive, got {self.horizons}")
        if not self.rescale_factors or not all(b > 0 and math.isfinite(b) for b in self.rescale_factors):
            raise ConfigurationError(f"rescale factors must be positive and finite, got {self.rescale_factors}")
        if self.stride is not None and self.stride < 1:
            raise ConfigurationError(f"stride must be positive, got {self.stride}")


@dataclass(frozen=True)
class PerturbationSpec:
    """One robustness scenario.

    ``gaussian_noise`` adds N(0, noise_std^2) per point; ``harmonic`` adds a
    sinusoid (amplitude defaults to 0.3x the channel's std, frequency to
    twice the channel's dominant frequency, random phase); ``missing`` marks
    each point missing independently with ``missing_probability``.
    """

    kind: str
    noise_std: float = 0.1
    harmonic_amplitude: float | None = None
    harmonic_frequency: float | None = None
    missing_probability: float = 0.3

    def __post_init__(self) -> None:
        if self.kind not in ("gaussian_noise", "harmonic", "missing"):
            raise ConfigurationError(f"unknown perturbation kind {self.kind!r}")
        if not (self.noise_std >= 0 and math.isfinite(self.noise_std)):
            raise ConfigurationError(f"noise std must be nonnegative and finite, got {self.noise_std}")
        if not 0.0 <= self.missing_probability <= 1.0:
            raise ConfigurationError(f"missing probability must be in [0, 1], got {self.missing_probability}")
        amp, freq = self.harmonic_amplitude, self.harmonic_frequency
        if amp is not None and not (amp >= 0 and math.isfinite(amp)):
            raise ConfigurationError(f"harmonic amplitude must be nonnegative and finite, got {amp}")
        if freq is not None and not (freq > 0 and math.isfinite(freq)):
            raise ConfigurationError(f"harmonic frequency must be positive and finite, got {freq}")

    def label(self) -> str:
        if self.kind == "gaussian_noise":
            return f"gaussian_noise:{_exact(self.noise_std)}"
        if self.kind == "missing":
            return f"missing:{_exact(self.missing_probability)}"
        if self.harmonic_amplitude is None and self.harmonic_frequency is None:
            return "harmonic"
        amp, freq = ("" if v is None else _exact(v) for v in (self.harmonic_amplitude, self.harmonic_frequency))
        return f"harmonic:{amp},{freq}"


def _exact(value: float) -> str:
    """``%g`` when it parses back to the same float, else the exact ``repr``."""
    short = f"{value:g}"
    return short if float(short) == value else repr(float(value))


@dataclass(frozen=True)
class ReportRow:
    dataset: str
    horizon: int
    beta: float | None  # None marks an aggregate row (mean over the rescale set)
    scenario: str
    mse: float | None
    mae: float | None
    windows: int


@dataclass
class EvalReport:
    """Per-(horizon, beta, scenario) metrics plus aggregate accessors."""

    rows: list[ReportRow]

    def _mean(self, horizon: int, scenario: str, metric: str) -> float:
        values = [
            getattr(r, metric)
            for r in self.rows
            if r.horizon == horizon and r.scenario == scenario and r.beta is not None and r.mse is not None
        ]
        if not values:
            raise EvaluationError(f"no usable rows for horizon={horizon}, scenario={scenario!r}")
        return float(np.mean(values))

    def remse(self, horizon: int, scenario: str = "none") -> float:
        return self._mean(horizon, scenario, "mse")

    def remae(self, horizon: int, scenario: str = "none") -> float:
        return self._mean(horizon, scenario, "mae")

    def aggregates(self) -> list[ReportRow]:
        """One row per (dataset, horizon, scenario): means over the rescale set."""
        groups: dict[tuple[str, int, str], list[ReportRow]] = {}
        for r in self.rows:
            usable = groups.setdefault((r.dataset, r.horizon, r.scenario), [])
            if r.beta is not None and r.mse is not None:
                usable.append(r)
        return [
            ReportRow(
                dataset,
                horizon,
                None,
                scenario,
                float(np.mean([r.mse for r in rows])) if rows else None,
                float(np.mean([r.mae for r in rows])) if rows else None,
                sum(r.windows for r in rows),
            )
            for (dataset, horizon, scenario), rows in groups.items()
        ]


def tsi_rescale(series: TimeSeries, beta: float) -> TimeSeries:
    """Linearly interpolate a series to round(beta * length) samples.

    Endpoints are preserved and degree-1 signals reproduce exactly; the
    length rounding is half-to-even.  A factor of 1 returns an identical
    copy.  Missing masks are carried by nearest-position lookup.
    """
    if beta <= 0 or not math.isfinite(beta):
        raise InputError(f"rescale factor must be positive and finite, got {beta}")
    if series.length < 2:
        raise InputError("need at least 2 samples to rescale")
    new_length = round(beta * series.length)
    if new_length < 2:
        raise InputError(f"rescaled length {new_length} is too short")
    values = linear_resample(series.values, new_length)
    missing = None
    if series.missing is not None:
        positions = np.linspace(0.0, series.length - 1.0, new_length)
        missing = series.missing[:, np.rint(positions).astype(int)]
    return TimeSeries(values, missing, dict(series.tags))


def _dominant_frequency(x: np.ndarray) -> float:
    spectrum = np.abs(np.fft.rfft(x - x.mean()))
    if spectrum.size < 2 or not spectrum[1:].any():
        return 0.125
    return (int(np.argmax(spectrum[1:])) + 1) / x.size


def perturb(series: TimeSeries, spec: PerturbationSpec, rng: RngStream | np.random.Generator) -> TimeSeries:
    """Apply one perturbation scenario; missing data only grows the mask."""
    g = rng.generator() if isinstance(rng, RngStream) else rng
    values = series.values.copy()
    missing = None if series.missing is None else series.missing.copy()

    if spec.kind == "gaussian_noise":
        if spec.noise_std > 0:
            values = values + spec.noise_std * g.standard_normal(values.shape)
    elif spec.kind == "harmonic":
        t = np.arange(series.length, dtype=np.float64)
        for i in range(series.channels):
            amp = spec.harmonic_amplitude
            if amp is None:
                amp = 0.3 * float(np.std(values[i]))
            freq = spec.harmonic_frequency
            if freq is None:
                freq = 2.0 * _dominant_frequency(values[i])
            phase = g.uniform(0.0, 2.0 * math.pi)
            values[i] = values[i] + amp * np.sin(2.0 * math.pi * freq * t + phase)
    else:  # missing
        drawn = g.uniform(size=values.shape) < spec.missing_probability
        missing = drawn if missing is None else (missing | drawn)

    return TimeSeries(values, missing, dict(series.tags))


def _window_predictions(
    model: ForecasterHandle,
    look_values: np.ndarray,
    look_missing: np.ndarray | None,
    horizon: int,
    target_values: np.ndarray,
    space: SpaceParams,
) -> np.ndarray:
    """Predictions for a block of channel-independent rows from one ``predict_rows`` call;
    image models see the block through the grid codec.  The targets go along
    as ``future``, which only an oracle reads."""
    if model.space == "numeric":
        return model.predict_rows(carry_forward(look_values, look_missing), horizon, target_values)

    # one active row per grid column: score on row indices, never on dense grids
    z, stats = normalize(TimeSeries(look_values, look_missing), look_values.shape[1])
    visible = decode_rows(encode_rows(z, space), space)
    z_pred = space.centers()[_predicted_rows(model, visible, horizon, space)]
    return denormalize(TimeSeries(z_pred), stats).values


def _cell_errors(
    model: ForecasterHandle, series: TimeSeries, lookback: int, horizon: int, stride: int, space: SpaceParams
) -> tuple[float, float, int, int]:
    """Squared and absolute error sums, scored targets and windows of one (beta, horizon) cell.

    Every model is channel-independent, so windows are folded into the row
    axis (window-major, one row per channel) and one ``_window_predictions``
    call scores a block of up to ``WINDOW_BLOCK_SAMPLES`` window samples.
    Each window's errors are summed on their own and accumulated in window
    order, so the result is bit-identical to scoring window by window.
    """
    span = lookback + horizon
    channels = series.channels
    values = sliding_window_view(series.values, span, axis=1)[:, ::stride]  # (channels, windows, span)
    missing = None if series.missing is None else sliding_window_view(series.missing, span, axis=1)[:, ::stride]
    n_windows = values.shape[1]
    per_block = max(1, WINDOW_BLOCK_SAMPLES // (channels * span))

    sq_sum = 0.0
    abs_sum = 0.0
    count = 0
    for first in range(0, n_windows, per_block):
        block = values[:, first : first + per_block].swapaxes(0, 1).reshape(-1, span)
        gaps = None if missing is None else missing[:, first : first + per_block].swapaxes(0, 1).reshape(-1, span)
        target = block[:, lookback:]
        look_missing = None if gaps is None else gaps[:, :lookback]
        preds = _window_predictions(model, block[:, :lookback], look_missing, horizon, target, space)
        diff = (preds - target).reshape(-1, channels * horizon)
        if gaps is None:
            sq = np.sum(diff * diff, axis=1)
            ab = np.sum(np.abs(diff), axis=1)
            count += diff.size
        else:
            # compressed errors per window: zero-filling masked cells would change the summation order
            keep = ~gaps[:, lookback:].reshape(diff.shape)
            kept = np.split(diff[keep], np.cumsum(keep.sum(axis=1))[:-1])
            sq = [np.sum(d * d) for d in kept]
            ab = [np.sum(np.abs(d)) for d in kept]
            count += int(keep.sum())
        for s, a in zip(sq, ab):
            sq_sum += float(s)
            abs_sum += float(a)
    return sq_sum, abs_sum, count, n_windows


def remetrics(
    truth: TimeSeries,
    model: ForecasterHandle,
    cfg: EvalConfig,
    *,
    dataset: str = "series",
    scenario: str = "none",
    perturbation: PerturbationSpec | None = None,
    rng: RngStream | None = None,
    space: SpaceParams | None = None,
) -> EvalReport:
    """Score a forecaster over the full rescale set.

    For each factor the truth is rescaled (then perturbed, for robustness
    scenarios), windows every ``stride`` samples (non-overlapping by
    default) invoke the model on the lookback, and squared/absolute errors
    against the window's future accumulate.
    Multichannel series are handled channel-independently.  Rescale factors
    leaving no room for a single window are recorded with zero windows; if
    no cell scores a target (no window, or every target masked), the run is
    an error.
    """
    if perturbation is not None and rng is None:
        raise ConfigurationError("a random stream is required for perturbation scenarios")
    space = space or SpaceParams()
    rows: list[ReportRow] = []

    for b_idx, beta in enumerate(cfg.rescale_factors):
        try:
            rescaled = tsi_rescale(truth, beta)
        except InputError:
            rescaled = None
        if rescaled is not None and perturbation is not None:
            rescaled = perturb(rescaled, perturbation, rng.child(b_idx))

        for horizon in cfg.horizons:
            stride = cfg.stride if cfg.stride is not None else horizon
            if rescaled is None or rescaled.length < cfg.lookback + horizon:
                rows.append(ReportRow(dataset, horizon, beta, scenario, None, None, 0))
                continue

            sq_sum, abs_sum, count, n_windows = _cell_errors(model, rescaled, cfg.lookback, horizon, stride, space)
            if count == 0:
                rows.append(ReportRow(dataset, horizon, beta, scenario, None, None, n_windows))
            else:
                rows.append(
                    ReportRow(dataset, horizon, beta, scenario, sq_sum / count, abs_sum / count, n_windows)
                )

    if not any(r.mse is not None for r in rows):
        if any(r.windows for r in rows):
            problem = "every target is masked in every (rescale factor, horizon) pair with a window"
        else:
            problem = "series too short for every (rescale factor, horizon) pair"
        raise EvaluationError(f"{problem}: length {truth.length}, lookback {cfg.lookback}, horizons {cfg.horizons}")
    return EvalReport(rows)


def evaluate_series(
    truth: TimeSeries,
    model: ForecasterHandle,
    cfg: EvalConfig,
    perturbations: Sequence[PerturbationSpec] = (),
    *,
    seed: int = 0,
    dataset: str = "series",
    space: SpaceParams | None = None,
    verbose: bool = False,
) -> EvalReport:
    """Sweep horizons x rescale factors x scenarios; deterministic per seed."""
    rng = RngStream(seed)
    scenarios: list[tuple[str, PerturbationSpec | None]] = [("none", None)]
    scenarios += [(spec.label(), spec) for spec in perturbations]

    rows: list[ReportRow] = []
    for s_idx, (name, spec) in enumerate(scenarios):
        report = remetrics(
            truth,
            model,
            cfg,
            dataset=dataset,
            scenario=name,
            perturbation=spec,
            rng=rng.child(s_idx),
            space=space,
        )
        rows.extend(report.rows)

    combined = EvalReport(rows)
    if verbose:
        with_windows = {(r.dataset, r.horizon, r.scenario) for r in rows if r.windows}
        for agg in combined.aggregates():
            if agg.mse is None:
                masked = (agg.dataset, agg.horizon, agg.scenario) in with_windows
                reason = "every target masked" if masked else "series too short"
                print(f"{agg.dataset} horizon={agg.horizon} scenario={agg.scenario}: skipped ({reason})")
            else:
                print(
                    f"{agg.dataset} horizon={agg.horizon} scenario={agg.scenario}: "
                    f"ReMSE={agg.mse:.6f} ReMAE={agg.mae:.6f} windows={agg.windows}"
                )
    return combined


def run_benchmark(
    dataset_path,
    model_id: str,
    cfg: EvalConfig,
    perturbations: Sequence[PerturbationSpec] = (),
    *,
    seed: int = 0,
    space: SpaceParams | None = None,
    report_path=None,
    verbose: bool = True,
) -> EvalReport:
    """Load a dataset CSV, resolve the model by id, and run the full sweep.

    Writes the report CSV (per-factor rows plus an aggregate block) when
    ``report_path`` is given.  Unknown model ids and malformed dataset
    files raise before any work happens.
    """
    from pathlib import Path

    from .forecasters import get_model
    from .io import read_series_csv, write_report_csv

    model = get_model(model_id)
    truth = read_series_csv(dataset_path)
    report = evaluate_series(
        truth,
        model,
        cfg,
        perturbations,
        seed=seed,
        dataset=Path(dataset_path).stem,
        space=space,
        verbose=verbose,
    )
    if report_path is not None:
        write_report_csv(report_path, report.rows, report.aggregates())
    return report
