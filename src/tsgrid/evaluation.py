"""Rescale-based forecast evaluation and robustness perturbations.

The protocol guards against memorized test data: the test series is
interpolated to several time resolutions (the rescale set), the forecaster
is scored on sliding windows at every resolution, and the reported metrics
are the unweighted means over the set.  Perturbation scenarios (additive
noise, an injected harmonic, missing data) run the same sweep on a
perturbed copy of each rescaled series.  How a model sees a block of
values, in value space or through its handle's grid, is the handle's own
(``ForecasterHandle.predict_block``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ConfigurationError, EvaluationError, InputError, LookbackOverflow
from .forecasters import ForecasterHandle
from .rng import RngStream
from .series import TimeSeries, linear_resample

# Window samples (lookback + horizon, all channels) scored per block: bounds
# the memory of a horizon with many overlapping windows, e.g. at stride 1.
WINDOW_BLOCK_SAMPLES = 2**16


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
        lists = (("horizons", self.horizons), ("rescale factors", self.rescale_factors))
        for name, values in lists:
            if not values:
                raise ConfigurationError(f"{name} must not be empty")
        if any(h < 1 for h in self.horizons):
            raise ConfigurationError(f"horizons must be positive, got {self.horizons}")
        if not all(b > 0 and math.isfinite(b) for b in self.rescale_factors):
            raise ConfigurationError(f"rescale factors must be positive and finite, got {self.rescale_factors}")
        for name, values in lists:
            if len(set(values)) != len(values):
                raise ConfigurationError(f"{name} must be distinct, got {values}")
        if self.stride is not None and self.stride < 1:
            raise ConfigurationError(f"stride must be positive, got {self.stride}")


# each perturbation kind's parameter fields, in the order its text form lists them
_PARAMETERS = {
    "gaussian_noise": ("noise_std",),
    "harmonic": ("harmonic_amplitude", "harmonic_frequency"),
    "missing": ("missing_probability",),
}


@dataclass(frozen=True)
class PerturbationSpec:
    """One robustness scenario.

    ``gaussian_noise`` adds N(0, noise_std^2) per point; ``harmonic`` adds a
    sinusoid (amplitude defaults to 0.3x the std of the channel's observed
    samples, frequency to twice the channel's dominant frequency, random phase);
    ``missing`` makes each point missing (NaN) with ``missing_probability``.

    Its text form is ``kind[:p1,p2,...]``, the kind's own parameters in
    ``forms()`` order: ``label`` writes it and ``parse`` reads it back.
    """

    kind: str
    noise_std: float = 0.1
    harmonic_amplitude: float | None = None
    harmonic_frequency: float | None = None
    missing_probability: float = 0.3

    def __post_init__(self) -> None:
        if self.kind not in _PARAMETERS:
            raise ConfigurationError(f"unknown perturbation kind {self.kind!r} (expected {self.forms()})")
        if not (self.noise_std >= 0 and math.isfinite(self.noise_std)):
            raise ConfigurationError(f"noise std must be nonnegative and finite, got {self.noise_std}")
        if not 0.0 <= self.missing_probability <= 1.0:
            raise ConfigurationError(f"missing probability must be in [0, 1], got {self.missing_probability}")
        amp, freq = self.harmonic_amplitude, self.harmonic_frequency
        if amp is not None and not (amp >= 0 and math.isfinite(amp)):
            raise ConfigurationError(f"harmonic amplitude must be nonnegative and finite, got {amp}")
        if freq is not None and not (freq > 0 and math.isfinite(freq)):
            raise ConfigurationError(f"harmonic frequency must be positive and finite, got {freq}")

    @staticmethod
    def forms() -> str:
        """Every kind's text form, e.g. ``missing[:missing_probability]``."""
        return " | ".join(f"{kind}[:{','.join(names)}]" for kind, names in _PARAMETERS.items())

    @classmethod
    def parse(cls, text: str) -> PerturbationSpec:
        """The spec ``text`` names; a parameter left out or empty keeps its field's default."""
        kind, _, rest = text.partition(":")
        spec = cls(kind.strip())
        names = _PARAMETERS[spec.kind]
        parts = [part.strip() for part in rest.split(",")] if rest else []
        if len(parts) > len(names):
            raise ConfigurationError(
                f"{spec.kind} takes at most {len(names)} parameter(s) ({','.join(names)}), got {len(parts)}"
            )
        return replace(spec, **{name: float(part) for name, part in zip(names, parts) if part})

    def label(self) -> str:
        """The text form: the kind alone when every parameter is None, else each parameter, empty for None."""
        values = [getattr(self, name) for name in _PARAMETERS[self.kind]]
        if all(v is None for v in values):
            return self.kind
        return f"{self.kind}:" + ",".join("" if v is None else _exact(v) for v in values)


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

    def _aggregate(self, horizon: int, scenario: str, dataset: str | None) -> ReportRow:
        if dataset is None:
            names = sorted({r.dataset for r in self.rows})
            if len(names) > 1:
                raise EvaluationError(f"report holds datasets {', '.join(names)}; name one")
            dataset = names[0] if names else None
        for agg in self.aggregates():
            if (agg.dataset, agg.horizon, agg.scenario) == (dataset, horizon, scenario) and agg.mse is not None:
                return agg
        raise EvaluationError(f"no usable rows for dataset={dataset!r}, horizon={horizon}, scenario={scenario!r}")

    def remse(self, horizon: int, scenario: str = "none", dataset: str | None = None) -> float:
        """Mean MSE over the rescale set; ``dataset`` is required when the report holds several."""
        return self._aggregate(horizon, scenario, dataset).mse

    def remae(self, horizon: int, scenario: str = "none", dataset: str | None = None) -> float:
        """Mean MAE over the rescale set; ``dataset`` is required when the report holds several."""
        return self._aggregate(horizon, scenario, dataset).mae

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
    length rounding is half-to-even; a factor that keeps the length returns
    a read-only view of the values.  A rescaled sample is missing (NaN) when
    a neighbour that gives it nonzero weight is missing (the bracket rule,
    which is ``np.interp``'s NaN propagation).  A rescaled length that
    cannot be allocated is an ``EvaluationError``.
    """
    if beta <= 0 or not math.isfinite(beta):
        raise InputError(f"rescale factor must be positive and finite, got {beta}")
    new_length = round(beta * series.length)
    if new_length == series.length > 1:
        values = series.values.view()
        values.flags.writeable = False
        return TimeSeries(values, dict(series.tags))
    try:
        values = linear_resample(series.values, new_length)
    except MemoryError as exc:  # not an InputError: that would read as a series too short to rescale
        raise EvaluationError(
            f"rescale factor {beta}: a rescaled length of {new_length} samples cannot be allocated"
        ) from exc
    return TimeSeries(values, dict(series.tags))


def _dominant_frequency(x: np.ndarray) -> float:
    """The strongest nonzero frequency of channel ``x``, in cycles per sample.
    The observed samples are centered and a gap (NaN) reads as zero, so the
    spectrum keeps the channel's time base."""
    gaps = np.isnan(x)
    if x.size - np.count_nonzero(gaps) < 2:
        return 0.125
    x = x - x[~gaps].mean()
    x[gaps] = 0.0
    spectrum = np.abs(np.fft.rfft(x))
    if not spectrum[1:].any():
        return 0.125
    return (int(np.argmax(spectrum[1:])) + 1) / x.size


def perturb(series: TimeSeries, spec: PerturbationSpec, rng: RngStream) -> TimeSeries:
    """Apply one perturbation scenario; a missing sample stays missing.
    The result shares no array with ``series``."""
    g = rng.generator()
    values = series.values

    if spec.kind == "gaussian_noise":
        values = values + spec.noise_std * g.standard_normal(values.shape) if spec.noise_std > 0 else values.copy()
    elif spec.kind == "harmonic":
        values = values.copy()
        t = np.arange(series.length, dtype=np.float64)
        for i in range(series.channels):
            amp = spec.harmonic_amplitude
            if amp is None:  # an all-missing channel stays all-missing, whatever its amplitude
                observed = values[i][~np.isnan(values[i])]
                amp = 0.3 * float(np.std(observed)) if observed.size else 0.0
            freq = spec.harmonic_frequency
            if freq is None:
                freq = 2.0 * _dominant_frequency(values[i])
            phase = g.uniform(0.0, 2.0 * math.pi)
            values[i] = values[i] + amp * np.sin(2.0 * math.pi * freq * t + phase)
    else:  # missing
        values = np.where(g.uniform(size=values.shape) < spec.missing_probability, np.nan, values)

    return TimeSeries(values, dict(series.tags))


def _cell_errors(
    model: ForecasterHandle, rescaled: list[TimeSeries | None], cfg: EvalConfig
) -> dict[tuple[int, int], tuple[float, float, int, int]]:
    """Squared and absolute error sums, scored targets and windows of each (rescale index, horizon) cell with a window.

    ``rescaled`` holds one series per rescale factor (None: not rescalable);
    they share their channels.  A horizon's windows start every ``stride``
    samples, so horizons share lookbacks: at the default strides every
    192-window starts where a 96-window does.  Each distinct (series, start) lookback is forecast
    once, at H, the longest horizon with a window there, and each horizon
    h <= H is scored from the first h columns of that forecast: every
    handle's ``predict_rows`` is prefix-consistent.  The lookbacks of one H
    are folded into the row axis as one stream (series by series, start by
    start, one row per channel), because every model is channel-independent,
    and one ``predict_block`` call scores a block of up to
    ``WINDOW_BLOCK_SAMPLES`` samples (rows x (lookback + H)).  A block is
    gathered from each series' own sliding windows, so nothing the size of
    the rescale set is built beside it.  A window's sums are one pairwise
    ``np.sum`` over its errors, where a missing target adds zero, and each
    cell adds its window sums in window order: the result is bit-identical
    to scoring window by window.
    """
    lookback = cfg.lookback
    fit = [(b, s) for b, s in enumerate(rescaled) if s is not None and s.length > lookback]
    if not fit:
        return {}
    strides = {h: cfg.stride or h for h in cfg.horizons}
    gappy = any(np.isnan(s.values).any() for _, s in fit)  # at most one pass per series: none on a gap-free set
    channels = fit[0][1].channels
    # the last window start of each (series k of fit, horizon) with a window
    last = {(k, h): s.length - lookback - h for k, (_, s) in enumerate(fit) for h in cfg.horizons}
    last = {key: t for key, t in last.items() if t >= 0}
    windows = {key: t // strides[key[1]] + 1 for key, t in last.items()}
    for h in cfg.horizons:
        if any(key[1] == h for key in windows):
            model.check_capability(lookback, h)  # in horizon order, before the first forecast

    def forecast_starts(k: int, H: int) -> np.ndarray:
        """The starts of series k whose longest horizon with a window is H."""
        if (k, H) not in last:
            return np.empty(0, dtype=np.int64)
        at = np.arange(0, last[k, H] + 1, strides[H])
        for h in cfg.horizons:
            if h > H and (k, h) in last:
                at = at[(at % strides[h] != 0) | (at > last[k, h])]
        return at

    # per horizon, its cells' windows one cell after another; cell k's first window is first_window[h][k]
    first_window = {h: np.cumsum([0] + [windows.get((k, h), 0) for k in range(len(fit))]) for h in cfg.horizons}
    sq = {h: np.empty(f[-1]) for h, f in first_window.items()}
    ab = {h: np.empty(f[-1]) for h, f in first_window.items()}
    scored = {h: np.empty(f[-1], dtype=np.int64) for h, f in first_window.items()}
    for H in cfg.horizons:
        per_series = [forecast_starts(k, H) for k in range(len(fit))]
        first = np.cumsum([0] + [at.size for at in per_series])  # series k's are starts[first[k] : first[k + 1]]
        if not first[-1]:
            continue
        cells = np.repeat(np.arange(len(fit)), np.diff(first))
        starts = np.concatenate(per_series)
        span = lookback + H
        # per series, its windows as (starts, channels, span) views; a block is gathered from them
        value_windows = {k: _windows(fit[k][1].values, span) for k in range(len(fit)) if first[k + 1] > first[k]}
        per_block = max(1, WINDOW_BLOCK_SAMPLES // (channels * span))
        for lo in range(0, starts.size, per_block):
            hi = min(lo + per_block, starts.size)
            cell, local = cells[lo:hi], starts[lo:hi]
            block = _gather(value_windows, starts, first, lo, hi)  # (windows, channels, span)
            rows = block.reshape(-1, span)
            try:
                preds = model.predict_block(rows[:, :lookback], H, rows[:, lookback:])
            except LookbackOverflow as exc:  # name the series' channel, not the block's row
                raise LookbackOverflow(exc.channel % channels) from None
            with np.errstate(over="ignore"):  # huge values: an overflowing cell fails by name below
                errs = preds.reshape(block.shape[0], channels, H) - block[:, :, lookback:]
                observed = ~np.isnan(block[:, :, lookback:]) if gappy else None
                for h in cfg.horizons:
                    if h > H:
                        continue
                    sel = local % strides[h] == 0
                    idx = first_window[h][cell[sel]] + local[sel] // strides[h]
                    # every start forecast at H has an H-window: that horizon needs no gather
                    diff = (errs if h == H else errs[sel, :, :h]).reshape(-1, channels * h)
                    if gappy:  # a missing target's error is NaN: it adds zero and is not counted
                        keep = (observed if h == H else observed[sel, :, :h]).reshape(diff.shape)
                        diff = np.where(keep, diff, 0.0)
                    scored[h][idx] = keep.sum(axis=1) if gappy else diff.shape[1]
                    sq[h][idx] = np.sum(diff * diff, axis=1)
                    ab[h][idx] = np.sum(np.abs(diff), axis=1)

    errors = {}
    for (k, h), n in windows.items():
        lo = first_window[h][k]
        with np.errstate(over="ignore"):  # cumsum adds in window order, as a loop would
            sq_sum = float(np.cumsum(sq[h][lo : lo + n])[-1])
            abs_sum = float(np.cumsum(ab[h][lo : lo + n])[-1])
        if not (math.isfinite(sq_sum) and math.isfinite(abs_sum)):
            beta = _exact(cfg.rescale_factors[fit[k][0]])
            raise InputError(f"beta={beta} horizon={h}: error sums overflow float64")
        errors[fit[k][0], h] = (sq_sum, abs_sum, int(scored[h][lo : lo + n].sum()), n)
    return errors


def _windows(array: np.ndarray, span: int) -> np.ndarray:
    """Every ``span``-sample window of a (channels, length) array, as a
    read-only (starts, channels, span) view (``as_strided`` directly: a
    quarter of ``sliding_window_view``'s call cost, paid per series and horizon)."""
    (channels, length), (row, step) = array.shape, array.strides
    return as_strided(array, (length - span + 1, channels, span), (step, row, step), writeable=False)


def _gather(windows: dict[int, np.ndarray], starts: np.ndarray, first: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Windows ``lo`` to ``hi`` of a stream, as one new (windows, channels,
    span) block: series k's windows, at ``starts[first[k] : first[k + 1]]``,
    are taken from its own view ``windows[k]``.  (``np.take`` would first
    copy a whole view into a contiguous array.)"""
    parts = [
        view[starts[max(lo, first[k]) : min(hi, first[k + 1])]]
        for k, view in windows.items()
        if max(lo, first[k]) < min(hi, first[k + 1])
    ]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def remetrics(
    truth: TimeSeries,
    model: ForecasterHandle,
    cfg: EvalConfig,
    *,
    dataset: str = "series",
    perturbation: PerturbationSpec | None = None,
    rng: RngStream | None = None,
) -> EvalReport:
    """Score a forecaster over the full rescale set.

    For each factor b the truth is rescaled and, for a robustness scenario,
    perturbed from the stream ``rng.child(b)``; the unperturbed series goes
    before the next factor is rescaled, so the call holds one set, and one
    unperturbed factor while it is perturbed.  Windows every ``stride``
    samples (non-overlapping by default) invoke the model on the lookback,
    and squared/absolute errors
    against the window's future accumulate.  Windows of several horizons
    that start at one sample share one forecast, made at the longest of
    them (see ``_cell_errors``).
    Multichannel series are handled channel-independently.  Rescale factors
    leaving no room for a single window are recorded with zero windows; if
    no cell scores a target (no window, or every target masked), the run is
    an error.  Rows name their scenario ``perturbation.label()``, or
    ``none`` without a perturbation.
    """
    if perturbation is not None and rng is None:
        raise ConfigurationError("a random stream is required for perturbation scenarios")
    scenario = "none" if perturbation is None else perturbation.label()
    rescaled: list[TimeSeries | None] = []
    for b, beta in enumerate(cfg.rescale_factors):
        try:
            series = tsi_rescale(truth, beta)
        except InputError:  # too short to rescale
            rescaled.append(None)
            continue
        rescaled.append(series if perturbation is None else perturb(series, perturbation, rng.child(b)))
        del series  # a perturbed factor's unperturbed series goes before the next factor is rescaled
    errors = _cell_errors(model, rescaled, cfg)

    rows: list[ReportRow] = []
    for b_idx, beta in enumerate(cfg.rescale_factors):
        for horizon in cfg.horizons:
            sq_sum, abs_sum, count, n_windows = errors.get((b_idx, horizon), (0.0, 0.0, 0, 0))
            if count == 0:
                rows.append(ReportRow(dataset, horizon, beta, scenario, None, None, n_windows))
            else:
                rows.append(ReportRow(dataset, horizon, beta, scenario, sq_sum / count, abs_sum / count, n_windows))

    if not any(r.mse is not None for r in rows):
        if any(r.windows for r in rows):
            problem = "every target is masked in every (rescale factor, horizon) pair with a window"
        else:
            problem = "series too short for every (rescale factor, horizon) pair"
        raise EvaluationError(
            f"scenario {scenario}: {problem}: length {truth.length}, lookback {cfg.lookback}, horizons {cfg.horizons}"
        )
    return EvalReport(rows)


def evaluate_series(
    truth: TimeSeries,
    model: ForecasterHandle,
    cfg: EvalConfig,
    perturbations: Sequence[PerturbationSpec] = (),
    *,
    seed: int = 0,
    dataset: str = "series",
) -> EvalReport:
    """Sweep horizons x rescale factors x scenarios; deterministic per seed.  Prints nothing.

    Scenario s (0 is ``none``, then ``perturbations`` in order) is one
    :func:`remetrics` call on the stream ``RngStream(seed).child(s)``, so a
    run holds one scenario's rescale set at a time.
    """
    rng = RngStream(seed)
    rows: list[ReportRow] = []
    for s, spec in enumerate((None, *perturbations)):
        report = remetrics(truth, model, cfg, dataset=dataset, perturbation=spec, rng=rng.child(s))
        rows.extend(report.rows)
    return EvalReport(rows)
