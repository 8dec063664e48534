"""Synthetic time-series generation from a periodic/trend hypothesis mixture.

Each draw first picks a hypothesis: with probability ``alpha`` a periodic
generator runs (inverse-FFT spectral synthesis or superimposed periodic
waves), otherwise a trend generator runs (random walk, logistic growth, or
trend-plus-wave).  Behavior parameters are drawn from the priors of
``GeneratorConfig``, except the inverse-FFT spectral priors, which are
fixed; a fixed augmentation chain may rework the result.  All draws are
pure functions of ``(config, stream)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, InputError
from .rng import RngStream
from .series import TimeSeries, linear_resample

PERIODIC_BEHAVIORS = ("ifftb", "pwb")
TREND_BEHAVIORS = ("rwb", "lgb", "twdb")

# Fixed child-stream layout.  Behaviors that share a role share an index,
# so e.g. a trend-plus-wave draw with a zero trend reproduces the plain
# wave draw bit for bit under the same parent stream.
CHILD_SELECT = 0
CHILD_PARAMS = 1
CHILD_WAVES = 2
CHILD_NOISE = 3
CHILD_AUGMENT = 4


def _triangle(x: np.ndarray) -> np.ndarray:
    return (2.0 / math.pi) * np.arcsin(np.sin(x))


def _square(x: np.ndarray) -> np.ndarray:
    return np.where(np.sin(x) >= 0.0, 1.0, -1.0)


WAVEFORMS = {
    "sine": np.sin,
    "cosine": np.cos,
    "triangle": _triangle,
    "square": _square,
}


def _check_interval(name: str, interval: tuple[float, float]) -> None:
    lo, hi = interval
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
        raise ConfigurationError(f"{name} must be a finite interval with lo <= hi, got {interval}")


@dataclass(frozen=True)
class AugmentConfig:
    """Augmentation switches and parameters.

    Enabled augmentations fire independently with ``probability`` each, in
    the fixed order replicate -> flip -> smooth/detrend -> perturb.
    """

    replicate: bool = True
    flip: bool = True
    smooth_detrend: bool = True
    perturb: bool = True
    probability: float = 0.2
    replicate_max: int = 4
    smooth_window: int = 25
    perturb_scale_range: tuple[float, float] = (1.0, 3.0)

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigurationError(f"augmentation probability must be in [0, 1], got {self.probability}")
        if self.replicate_max < 2:
            raise ConfigurationError(f"replicate_max must be at least 2, got {self.replicate_max}")
        if self.smooth_window < 3 or self.smooth_window % 2 == 0:
            raise ConfigurationError(f"smooth_window must be an odd integer >= 3, got {self.smooth_window}")
        _check_interval("perturb_scale_range", self.perturb_scale_range)


_LN = math.log


@dataclass(frozen=True)
class GeneratorConfig:
    """Priors and switches for series synthesis.

    ``pwb_logfreq_range`` bounds the natural log of the per-component
    wavelength in samples; the default spans ln(11) .. ln(2L) so periods
    range from 11 samples up to twice the series length.  ``noise_sigma_eps``
    of ``None`` means 5% of the noise-free signal's standard deviation.
    Degenerate (zero-width) intervals are allowed to pin a parameter.
    """

    alpha: float = 0.5
    length: int = 512
    periodic_behaviors: tuple[str, ...] = PERIODIC_BEHAVIORS
    trend_behaviors: tuple[str, ...] = TREND_BEHAVIORS
    pwb_amp_range: tuple[float, float] = (0.5, 5.0)
    pwb_logfreq_range: tuple[float, float] | None = None
    pwb_k_max: int = 8
    pwb_waveforms: tuple[str, ...] = ("sine", "cosine", "triangle", "square")
    rwb_sigma: float = 1.0
    lgb_logK_range: tuple[float, float] = (_LN(1.0), _LN(10.0))
    lgb_logr_range: tuple[float, float] = (_LN(0.001), _LN(0.1))
    lgb_mid_frac_range: tuple[float, float] = (0.25, 0.75)
    twdb_a_range: tuple[float, float] = (-1.0, 1.0)
    twdb_b_range: tuple[float, float] = (-10.0, 10.0)
    noise_sigma_eps: float | None = None
    ifftb_phase_range: tuple[float, float] = (-math.pi, math.pi)
    augment: AugmentConfig = field(default_factory=AugmentConfig)

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigurationError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.length < 2:
            raise ConfigurationError(f"length must be at least 2, got {self.length}")
        for name in ("periodic_behaviors", "trend_behaviors"):
            pool = getattr(self, name)
            known = PERIODIC_BEHAVIORS if name == "periodic_behaviors" else TREND_BEHAVIORS
            if not pool or any(b not in known for b in pool):
                raise ConfigurationError(f"{name} must be a nonempty subset of {known}, got {pool}")
        _check_interval("pwb_amp_range", self.pwb_amp_range)
        if self.pwb_logfreq_range is not None:
            _check_interval("pwb_logfreq_range", self.pwb_logfreq_range)
        if self.pwb_k_max < 1:
            raise ConfigurationError(f"pwb_k_max must be positive, got {self.pwb_k_max}")
        if not self.pwb_waveforms or any(w not in WAVEFORMS for w in self.pwb_waveforms):
            raise ConfigurationError(f"pwb_waveforms must name shapes in {sorted(WAVEFORMS)}, got {self.pwb_waveforms}")
        if not (self.rwb_sigma > 0 and math.isfinite(self.rwb_sigma)):
            raise ConfigurationError(f"rwb_sigma must be positive and finite, got {self.rwb_sigma}")
        _check_interval("lgb_logK_range", self.lgb_logK_range)
        _check_interval("lgb_logr_range", self.lgb_logr_range)
        _check_interval("lgb_mid_frac_range", self.lgb_mid_frac_range)
        _check_interval("twdb_a_range", self.twdb_a_range)
        _check_interval("twdb_b_range", self.twdb_b_range)
        sigma = self.noise_sigma_eps
        if sigma is not None and not (sigma >= 0 and math.isfinite(sigma)):
            raise ConfigurationError(f"noise_sigma_eps must be nonnegative and finite, got {sigma}")
        _check_interval("ifftb_phase_range", self.ifftb_phase_range)

    def logfreq_bounds(self, length: int) -> tuple[float, float]:
        if self.pwb_logfreq_range is not None:
            return self.pwb_logfreq_range
        hi = _LN(2.0 * length)
        return (min(_LN(11.0), hi), hi)  # very short series: keep the interval ordered


@dataclass(frozen=True)
class WaveParams:
    """Sampled parameters of a superimposed-wave component sum."""

    amplitudes: tuple[float, ...]
    wavelengths: tuple[float, ...]
    waveforms: tuple[str, ...]


def sample_wave_params(cfg: GeneratorConfig, length: int, g: np.random.Generator) -> WaveParams:
    """Draw component count, amplitudes, wavelengths, and shapes."""
    k = int(g.integers(1, cfg.pwb_k_max + 1))
    amps = g.uniform(*cfg.pwb_amp_range, size=k)
    lo, hi = cfg.logfreq_bounds(length)
    wavelengths = np.exp(g.uniform(lo, hi, size=k))
    shape_idx = g.integers(0, len(cfg.pwb_waveforms), size=k)
    shapes = tuple(cfg.pwb_waveforms[int(i)] for i in shape_idx)
    return WaveParams(tuple(amps), tuple(wavelengths), shapes)


def wave_sum(params: WaveParams, length: int) -> np.ndarray:
    """Evaluate the component sum on t = 0 .. length-1."""
    t = np.arange(length, dtype=np.float64)
    out = np.zeros(length)
    for amp, wl, shape in zip(params.amplitudes, params.wavelengths, params.waveforms):
        out += amp * WAVEFORMS[shape]((2.0 * math.pi / wl) * t)
    return out


def synthesize_from_spectrum(amplitudes: np.ndarray, phases: np.ndarray, length: int) -> np.ndarray:
    """Real signal whose bin-m component is A_m * cos(2*pi*m*t/L + phi_m).

    ``amplitudes`` and ``phases`` index the half spectrum (L // 2 + 1 bins);
    the DC bin contributes a constant A_0 * cos(phi_0).
    """
    n_bins = length // 2 + 1
    amps = np.asarray(amplitudes, dtype=np.float64)
    phis = np.asarray(phases, dtype=np.float64)
    if amps.shape != (n_bins,) or phis.shape != (n_bins,):
        raise InputError(f"expected {n_bins} half-spectrum bins for length {length}")
    spectrum = amps * np.exp(1j * phis)
    scale = np.full(n_bins, length / 2.0)
    scale[0] = length
    if length % 2 == 0:
        scale[-1] = length
    return np.fft.irfft(spectrum * scale, n=length)


# ifftb's half-spectrum priors, picked with equal odds: ``power_law`` decays
# amplitudes as bin**(-gamma), ``flat_band`` keeps a uniform low-frequency
# band whose width is a fraction of the bins.  Every active bin gets an
# independent jitter factor, so a draw's dominant bin is almost surely unique.
IFFTB_PRIORS = ("power_law", "flat_band")
IFFTB_GAMMA_RANGE = (0.5, 1.5)
IFFTB_BAND_FRAC_RANGE = (0.05, 0.5)
IFFTB_JITTER_RANGE = (0.5, 1.5)


def _sample_amplitudes(prior: str, length: int, g: np.random.Generator) -> np.ndarray:
    n_bins = length // 2 + 1
    amps = np.zeros(n_bins)
    m = np.arange(1, n_bins, dtype=np.float64)
    if prior == "power_law":
        envelope = m ** -g.uniform(*IFFTB_GAMMA_RANGE)
    else:
        width = max(1.0, round(g.uniform(*IFFTB_BAND_FRAC_RANGE) * (n_bins - 1)))
        envelope = np.where(m <= width, 1.0, 0.0)
    amps[1:] = envelope * g.uniform(*IFFTB_JITTER_RANGE, size=m.size)
    if length % 2 == 0:
        amps[-1] = 0.0  # keep the top bin out of play; its phase is not representable
    return amps


def _noise(cfg: GeneratorConfig, clean: np.ndarray, g: np.random.Generator) -> np.ndarray:
    sigma = cfg.noise_sigma_eps
    if sigma is None:
        sigma = 0.05 * float(np.std(clean))
    return sigma * g.standard_normal(clean.size)


def gen_ifftb(cfg: GeneratorConfig, length: int, rng: RngStream) -> TimeSeries:
    """Periodic series via inverse-FFT synthesis from a sampled spectrum."""
    if length < 2:
        raise InputError(f"length must be at least 2, got {length}")
    g = rng.child(CHILD_PARAMS).generator()
    prior = IFFTB_PRIORS[int(g.integers(0, len(IFFTB_PRIORS)))]
    amps = _sample_amplitudes(prior, length, g)
    phases = g.uniform(*cfg.ifftb_phase_range, size=amps.size)
    values = synthesize_from_spectrum(amps, phases, length)
    return TimeSeries(
        values[None, :],
        tags={
            "hypothesis": "periodic",
            "behavior": "ifftb",
            "prior": prior,
            "amp_argmax": int(np.argmax(amps)),
        },
    )


def gen_pwb(cfg: GeneratorConfig, length: int, rng: RngStream) -> TimeSeries:
    """Periodic series as a noisy sum of sampled periodic components."""
    if length < 2:
        raise InputError(f"length must be at least 2, got {length}")
    params = sample_wave_params(cfg, length, rng.child(CHILD_WAVES).generator())
    clean = wave_sum(params, length)
    values = clean + _noise(cfg, clean, rng.child(CHILD_NOISE).generator())
    return TimeSeries(
        values[None, :],
        tags={
            "hypothesis": "periodic",
            "behavior": "pwb",
            "k": len(params.amplitudes),
            "amplitudes": params.amplitudes,
            "wavelengths": params.wavelengths,
            "waveforms": params.waveforms,
        },
    )


def gen_rwb(sigma: float, length: int, rng: RngStream) -> TimeSeries:
    """Random walk: s_0 = 0, s_i = s_{i-1} + N(0, sigma^2)."""
    if sigma <= 0:
        raise ConfigurationError(f"random-walk sigma must be positive, got {sigma}")
    if length < 1:
        raise InputError(f"length must be positive, got {length}")
    g = rng.child(CHILD_PARAMS).generator()
    steps = sigma * g.standard_normal(length - 1)
    values = np.concatenate(([0.0], np.cumsum(steps)))
    return TimeSeries(values[None, :], tags={"hypothesis": "trend", "behavior": "rwb", "sigma": sigma})


def _exp(v: float) -> float:
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def _expit(x: np.ndarray) -> np.ndarray:
    """The logistic 1 / (1 + exp(-x)), with libm's ``exp`` through ``math``.

    This is bit-identical to the reference ``expit`` the tests compare
    against (the same formula and the same C ``exp``); numpy's vector
    ``exp`` differs in the last bit on ~2% of inputs.
    """
    z = (-x).tolist()
    try:
        e = np.fromiter(map(math.exp, z), dtype=np.float64, count=len(z))
    except OverflowError:  # exp(v) past the largest float is inf, as in C, and the logistic 0
        e = np.fromiter(map(_exp, z), dtype=np.float64, count=len(z))
    return 1.0 / (1.0 + e)


def gen_lgb(cfg: GeneratorConfig, length: int, rng: RngStream) -> TimeSeries:
    """Logistic growth K / (1 + exp(-r (t - t0))), plus observation noise."""
    if length < 2:
        raise InputError(f"length must be at least 2, got {length}")
    g = rng.child(CHILD_PARAMS).generator()
    capacity = math.exp(g.uniform(*cfg.lgb_logK_range))
    rate = math.exp(g.uniform(*cfg.lgb_logr_range))
    midpoint = length * g.uniform(*cfg.lgb_mid_frac_range)
    t = np.arange(length, dtype=np.float64)
    clean = capacity * _expit(rate * (t - midpoint))
    values = clean + _noise(cfg, clean, rng.child(CHILD_NOISE).generator())
    return TimeSeries(
        values[None, :],
        tags={
            "hypothesis": "trend",
            "behavior": "lgb",
            "capacity": capacity,
            "rate": rate,
            "midpoint": midpoint,
        },
    )


def gen_twdb(cfg: GeneratorConfig, length: int, rng: RngStream) -> TimeSeries:
    """Linear trend a*t + b superimposed with the periodic-wave component sum."""
    if length < 2:
        raise InputError(f"length must be at least 2, got {length}")
    g = rng.child(CHILD_PARAMS).generator()
    slope = g.uniform(*cfg.twdb_a_range)
    intercept = g.uniform(*cfg.twdb_b_range)
    params = sample_wave_params(cfg, length, rng.child(CHILD_WAVES).generator())
    t = np.arange(length, dtype=np.float64)
    clean = slope * t + intercept + wave_sum(params, length)
    values = clean + _noise(cfg, clean, rng.child(CHILD_NOISE).generator())
    return TimeSeries(
        values[None, :],
        tags={
            "hypothesis": "trend",
            "behavior": "twdb",
            "slope": slope,
            "intercept": intercept,
            "k": len(params.amplitudes),
            "amplitudes": params.amplitudes,
            "wavelengths": params.wavelengths,
            "waveforms": params.waveforms,
        },
    )


def _moving_average(values: np.ndarray, window: int) -> np.ndarray:
    window = min(window, values.shape[1] if values.shape[1] % 2 == 1 else values.shape[1] - 1)
    pad = window // 2
    kernel = np.ones(window) / window
    padded = np.pad(values, ((0, 0), (pad, pad)), mode="reflect")
    return np.stack([np.convolve(row, kernel, mode="valid") for row in padded])


def augment(series: TimeSeries, cfg: GeneratorConfig, rng: RngStream) -> TimeSeries:
    """Apply the enabled augmentations in fixed order; length is preserved."""
    acfg = cfg.augment
    g = rng.child(CHILD_AUGMENT).generator()
    x = series.values.copy()
    length = x.shape[1]
    fired: list[str] = []

    if acfg.replicate and g.uniform() < acfg.probability and length >= 2:
        copies = int(g.integers(2, acfg.replicate_max + 1))
        x = linear_resample(np.tile(x, (1, copies)), length)
        fired.append("replicate")

    if acfg.flip and g.uniform() < acfg.probability:
        x = x[:, ::-1].copy()
        fired.append("flip")

    if acfg.smooth_detrend and g.uniform() < acfg.probability and length >= 3:
        x = x - _moving_average(x, acfg.smooth_window)
        fired.append("smooth_detrend")

    if acfg.perturb and g.uniform() < acfg.probability:
        index = int(g.integers(0, length))
        magnitude = g.uniform(*acfg.perturb_scale_range) * max(float(np.std(x)), 1e-12)
        if g.uniform() < 0.5:
            magnitude = -magnitude
        if g.uniform() < 0.5:
            x[:, index:] += magnitude  # level shift
            fired.append("perturb_shift")
        else:
            x[:, index] += magnitude  # spike
            fired.append("perturb_spike")

    tags = dict(series.tags)
    tags["augmented"] = tuple(fired)
    return TimeSeries(x, tags)


_BEHAVIOR_FN = {
    "ifftb": gen_ifftb,
    "pwb": gen_pwb,
    "rwb": lambda cfg, length, rng: gen_rwb(cfg.rwb_sigma, length, rng),
    "lgb": gen_lgb,
    "twdb": gen_twdb,
}


def sample_series(cfg: GeneratorConfig, rng: RngStream) -> TimeSeries:
    """Draw one series from the hypothesis mixture and augment it.

    The hypothesis tag ("periodic" or "trend") and the concrete behavior
    are recorded in the result's ``tags``.
    """
    g = rng.child(CHILD_SELECT).generator()
    periodic = bool(g.uniform() < cfg.alpha)
    pool = cfg.periodic_behaviors if periodic else cfg.trend_behaviors
    behavior = pool[int(g.integers(0, len(pool)))]
    series = augment(_BEHAVIOR_FN[behavior](cfg, cfg.length, rng), cfg, rng)
    if not np.isfinite(series.values).all():  # a generated series has no gaps: NaN here is a failed computation
        raise InputError("series values must be finite (no NaN/Inf)")
    return series
