import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats
from scipy.special import expit

from tsgrid import (
    AugmentConfig,
    ConfigurationError,
    GeneratorConfig,
    RngStream,
    WaveParams,
    augment,
    from_1d,
    gen_ifftb,
    gen_lgb,
    gen_pwb,
    gen_rwb,
    gen_twdb,
    sample_series,
    sample_wave_params,
    synthesize_from_spectrum,
    wave_sum,
)
from tsgrid.generate import CHILD_WAVES, _expit

NO_AUG = AugmentConfig(probability=0.0)


def quiet_cfg(**kwargs):
    kwargs.setdefault("noise_sigma_eps", 0.0)
    kwargs.setdefault("augment", NO_AUG)
    return GeneratorConfig(**kwargs)


# ---------------------------------------------------------------- waves / pwb


def test_pwb_single_sine_is_exact():
    cfg = quiet_cfg(
        length=256,
        pwb_k_max=1,
        pwb_amp_range=(1.0, 1.0),
        pwb_logfreq_range=(math.log(64.0), math.log(64.0)),
        pwb_waveforms=("sine",),
    )
    series = gen_pwb(cfg, 256, RngStream(10, 0))
    t = np.arange(256)
    expected = np.sin(2.0 * np.pi * t / 64.0)
    assert np.max(np.abs(series.values[0] - expected)) < 1e-12


def test_pwb_amplitude_scales_component():
    cfg = quiet_cfg(
        length=128,
        pwb_k_max=1,
        pwb_amp_range=(2.0, 2.0),
        pwb_logfreq_range=(math.log(32.0), math.log(32.0)),
        pwb_waveforms=("sine",),
    )
    series = gen_pwb(cfg, 128, RngStream(10, 1))
    expected = 2.0 * np.sin(2.0 * np.pi * np.arange(128) / 32.0)
    assert np.max(np.abs(series.values[0] - expected)) < 1e-12


def test_wave_sum_two_components_matches_direct_evaluation():
    params = WaveParams(amplitudes=(1.0, 1.0), wavelengths=(64.0, 16.0), waveforms=("sine", "sine"))
    out = wave_sum(params, 256)
    t = np.arange(256)
    direct = np.sin(2 * np.pi * t / 64.0) + np.sin(2 * np.pi * t / 16.0)
    assert np.max(np.abs(out - direct)) < 1e-12
    # two dominant spectral peaks at 256/64 = 4 and 256/16 = 16 cycles
    mags = np.abs(np.fft.rfft(out))
    top_two = set(np.argsort(mags)[-2:])
    assert top_two == {4, 16}


def test_pwb_component_count_is_uniform():
    cfg = quiet_cfg(length=32)
    counts = np.zeros(8)
    for i in range(10_000):
        series = gen_pwb(cfg, 32, RngStream(77, i))
        counts[series.tags["k"] - 1] += 1
    result = scipy_stats.chisquare(counts)
    assert result.pvalue > 0.01


def test_pwb_fft_peak_matches_sampled_wavelength():
    cfg = quiet_cfg(length=512, pwb_k_max=1, pwb_waveforms=("sine",))
    for i in range(50):
        series = gen_pwb(cfg, 512, RngStream(4242, i))
        wavelength = series.tags["wavelengths"][0]
        peak = int(np.argmax(np.abs(np.fft.rfft(series.values[0]))))
        assert abs(peak - 512.0 / wavelength) <= 1.0


def test_pwb_noise_level_defaults_to_five_percent():
    cfg = GeneratorConfig(length=4096, pwb_k_max=1, pwb_waveforms=("sine",), augment=NO_AUG)
    stream = RngStream(5, 3)
    noisy = gen_pwb(cfg, 4096, stream)
    clean = gen_pwb(quiet_cfg(length=4096, pwb_k_max=1, pwb_waveforms=("sine",)), 4096, stream)
    resid = noisy.values - clean.values
    target = 0.05 * np.std(clean.values)
    assert abs(np.std(resid) - target) / target < 0.1


# ---------------------------------------------------------------- ifftb


def test_spectrum_synthesis_zero_spectrum_is_zero():
    amps = np.zeros(33)
    phases = np.linspace(-3, 3, 33)
    assert np.array_equal(synthesize_from_spectrum(amps, phases, 64), np.zeros(64))


def test_spectrum_synthesis_single_bin_is_a_cosine():
    amps = np.zeros(33)
    amps[3] = 1.0
    phases = np.zeros(33)
    out = synthesize_from_spectrum(amps, phases, 64)
    t = np.arange(64)
    direct = np.cos(2.0 * np.pi * 3.0 * t / 64.0)
    assert np.max(np.abs(out - direct)) < 1e-9


def test_spectrum_synthesis_respects_phase():
    amps = np.zeros(17)
    amps[2] = 0.7
    phases = np.zeros(17)
    phases[2] = 1.1
    out = synthesize_from_spectrum(amps, phases, 32)
    direct = 0.7 * np.cos(2.0 * np.pi * 2.0 * np.arange(32) / 32.0 + 1.1)
    assert np.max(np.abs(out - direct)) < 1e-9


def test_ifftb_dominant_bin_matches_sampled_spectrum():
    cfg = quiet_cfg(length=512)
    for i in range(50):
        series = gen_ifftb(cfg, 512, RngStream(31, i))
        peak = int(np.argmax(np.abs(np.fft.rfft(series.values[0]))))
        assert peak == series.tags["amp_argmax"]


def test_ifftb_uses_both_priors():
    cfg = quiet_cfg(length=64)
    kinds = {gen_ifftb(cfg, 64, RngStream(8, i)).tags["prior"] for i in range(100)}
    assert kinds == {"power_law", "flat_band"}


# ---------------------------------------------------------------- rwb


def test_rwb_starts_at_zero_and_is_deterministic():
    a = gen_rwb(2.0, 512, RngStream(3, 9))
    b = gen_rwb(2.0, 512, RngStream(3, 9))
    assert a.values[0, 0] == 0.0
    assert np.array_equal(a.values, b.values)


def test_rwb_increment_moments():
    series = gen_rwb(1.0, 1_000_001, RngStream(123, 0))
    steps = np.diff(series.values[0])
    assert abs(steps.mean()) < 0.01
    assert 0.995 <= steps.var() <= 1.005


def test_rwb_vanishes_with_sigma():
    series = gen_rwb(1e-300, 64, RngStream(3, 1))
    assert np.max(np.abs(series.values)) < 1e-290


def test_rwb_rejects_bad_sigma():
    with pytest.raises(ConfigurationError):
        gen_rwb(0.0, 16, RngStream(0, 0))
    with pytest.raises(ConfigurationError):
        gen_rwb(-1.0, 16, RngStream(0, 0))


# ---------------------------------------------------------------- lgb


@settings(max_examples=200, deadline=None)
@given(
    xs=st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=50),
    scale=st.sampled_from([1.0, 6.0, 30.0]),
    seed=st.integers(0, 2**32 - 1),
)
@example(xs=[710.0, -710.0, 1e308, -1e308, math.inf, -math.inf, math.nan, 0.0, -0.0, 5e-324], scale=1.0, seed=0)
def test_expit_matches_scipy_bit_for_bit(xs, scale, seed):
    draws = scale * np.random.default_rng(seed).standard_normal(200)
    x = np.concatenate([np.array(xs, dtype=np.float64), draws])
    assert np.array_equal(_expit(x), expit(x), equal_nan=True)


def test_lgb_midpoint_value_and_monotonicity():
    cfg = quiet_cfg(
        length=256,
        lgb_logK_range=(math.log(10.0), math.log(10.0)),
        lgb_logr_range=(math.log(0.1), math.log(0.1)),
        lgb_mid_frac_range=(0.5, 0.5),
    )
    series = gen_lgb(cfg, 256, RngStream(6, 0))
    assert series.values[0, 128] == pytest.approx(5.0, abs=1e-12)
    assert np.all(np.diff(series.values[0]) > 0)


def test_lgb_stays_inside_carrying_capacity():
    cfg = quiet_cfg(length=128)
    for i in range(25):
        series = gen_lgb(cfg, 128, RngStream(61, i))
        capacity = series.tags["capacity"]
        assert np.all(series.values > 0.0)
        assert np.all(series.values < capacity)


def test_lgb_slow_growth_total_rise():
    cfg = quiet_cfg(
        length=512,
        lgb_logr_range=(math.log(0.001), math.log(0.001)),
    )
    for i in range(10):
        series = gen_lgb(cfg, 512, RngStream(62, i))
        capacity = series.tags["capacity"]
        rate = series.tags["rate"]
        midpoint = series.tags["midpoint"]

        def logistic(t):
            return capacity / (1.0 + math.exp(-rate * (t - midpoint)))

        rise = series.values[0, -1] - series.values[0, 0]
        assert rise == pytest.approx(logistic(511) - logistic(0), abs=1e-9)
        assert rise < 0.26 * capacity


# ---------------------------------------------------------------- twdb


def test_twdb_pure_ramp():
    cfg = quiet_cfg(
        length=128,
        twdb_a_range=(1.0, 1.0),
        twdb_b_range=(0.0, 0.0),
        pwb_amp_range=(0.0, 0.0),
    )
    series = gen_twdb(cfg, 128, RngStream(9, 0))
    assert np.array_equal(series.values[0], np.arange(128, dtype=float))


def test_twdb_degenerates_to_pwb_without_trend():
    cfg = quiet_cfg(length=256, twdb_a_range=(0.0, 0.0), twdb_b_range=(0.0, 0.0))
    stream = RngStream(12, 4)
    trendless = gen_twdb(cfg, 256, stream)
    waves_only = gen_pwb(cfg, 256, stream)
    assert np.array_equal(trendless.values, waves_only.values)


def test_twdb_sampled_slope_recoverable_by_regression():
    cfg = quiet_cfg(length=512)
    for i in range(20):
        stream = RngStream(13, i)
        series = gen_twdb(cfg, 512, stream)
        # rebuild the wave component from the shared wave sub-stream
        params = sample_wave_params(cfg, 512, stream.child(CHILD_WAVES).generator())
        residual = series.values[0] - wave_sum(params, 512)
        slope = np.polyfit(np.arange(512), residual, 1)[0]
        assert slope == pytest.approx(series.tags["slope"], abs=1e-9)


# ---------------------------------------------------------------- mixture


def test_sample_series_respects_degenerate_alpha():
    periodic_cfg = quiet_cfg(alpha=1.0, length=32)
    trend_cfg = quiet_cfg(alpha=0.0, length=32)
    for i in range(50):
        assert sample_series(periodic_cfg, RngStream(21, i)).tags["hypothesis"] == "periodic"
        assert sample_series(trend_cfg, RngStream(22, i)).tags["hypothesis"] == "trend"


def test_sample_series_mixture_rate():
    cfg = quiet_cfg(alpha=0.5, length=8)
    n = 20_000
    hits = sum(sample_series(cfg, RngStream(23, i)).tags["hypothesis"] == "periodic" for i in range(n))
    sigma = math.sqrt(0.25 / n)
    assert abs(hits / n - 0.5) <= 3.0 * sigma


def test_sample_series_deterministic_and_finite():
    cfg = GeneratorConfig(length=64)
    a = sample_series(cfg, RngStream(77, 3))
    b = sample_series(cfg, RngStream(77, 3))
    assert np.array_equal(a.values, b.values)
    assert a.tags == b.tags
    assert np.all(np.isfinite(a.values))


def test_every_behavior_is_deterministic():
    cfg = GeneratorConfig(length=64)
    stream = RngStream(78, 0)
    for fn in (gen_ifftb, gen_pwb, gen_lgb, gen_twdb):
        assert np.array_equal(fn(cfg, 64, stream).values, fn(cfg, 64, stream).values)


def test_forced_behavior_pools():
    cfg = quiet_cfg(alpha=0.0, trend_behaviors=("rwb",), length=32)
    for i in range(10):
        assert sample_series(cfg, RngStream(24, i)).tags["behavior"] == "rwb"


def test_sample_series_forced_single_sine():
    cfg = quiet_cfg(
        alpha=1.0,
        length=256,
        periodic_behaviors=("pwb",),
        pwb_k_max=1,
        pwb_amp_range=(1.0, 1.0),
        pwb_logfreq_range=(math.log(64.0), math.log(64.0)),
        pwb_waveforms=("sine",),
    )
    series = sample_series(cfg, RngStream(25, 0))
    expected = np.sin(2.0 * np.pi * np.arange(256) / 64.0)
    assert series.tags["behavior"] == "pwb"
    assert np.max(np.abs(series.values[0] - expected)) < 1e-12


# ---------------------------------------------------------------- augment


def test_augment_disabled_is_identity():
    series = from_1d(np.sin(np.arange(64) / 3.0))
    cfg = quiet_cfg(length=64)
    out = augment(series, cfg, RngStream(1, 1))
    assert np.array_equal(out.values, series.values)
    assert out.tags["augmented"] == ()


def test_augment_flip_reverses():
    series = from_1d([1.0, 2.0, 3.0])
    cfg = GeneratorConfig(
        length=3,
        augment=AugmentConfig(replicate=False, flip=True, smooth_detrend=False, perturb=False, probability=1.0),
    )
    out = augment(series, cfg, RngStream(2, 2))
    assert np.array_equal(out.values[0], [3.0, 2.0, 1.0])
    assert out.tags["augmented"] == ("flip",)


def test_augment_replication_preserves_period_peak():
    period = 32
    t = np.arange(256)
    series = from_1d(np.sin(2 * np.pi * t / period))
    cfg = GeneratorConfig(
        length=256,
        augment=AugmentConfig(
            replicate=True, flip=False, smooth_detrend=False, perturb=False, probability=1.0, replicate_max=2
        ),
    )
    out = augment(series, cfg, RngStream(3, 3))
    x = out.values[0] - out.values[0].mean()
    autocorr = np.correlate(x, x, mode="full")[x.size - 1 :]
    assert autocorr[period] >= 0.8 * autocorr[0]


def test_augment_smooth_detrend_removes_slow_trend():
    t = np.arange(256, dtype=float)
    series = from_1d(0.05 * t + np.sin(2 * np.pi * t / 8))
    cfg = GeneratorConfig(
        length=256,
        augment=AugmentConfig(replicate=False, flip=False, smooth_detrend=True, perturb=False, probability=1.0),
    )
    out = augment(series, cfg, RngStream(4, 4))
    assert out.values.shape == series.values.shape
    # detrended series should have far smaller net drift than the input
    drift = abs(out.values[0, -20:].mean() - out.values[0, :20].mean())
    original = abs(series.values[0, -20:].mean() - series.values[0, :20].mean())
    assert drift < 0.2 * original


def test_augment_perturb_injects_shift_or_spike():
    series = from_1d(np.zeros(128))
    cfg = GeneratorConfig(
        length=128,
        augment=AugmentConfig(replicate=False, flip=False, smooth_detrend=False, perturb=True, probability=1.0),
    )
    out = augment(series, cfg, RngStream(5, 5))
    assert out.tags["augmented"][0].startswith("perturb")
    assert np.max(np.abs(out.values)) > 0.0


def test_augment_preserves_length():
    cfg = GeneratorConfig(length=100, augment=AugmentConfig(probability=1.0))
    for i in range(20):
        series = from_1d(np.sin(np.arange(100) / 5.0))
        out = augment(series, cfg, RngStream(6, i))
        assert out.values.shape == (1, 100)


# ---------------------------------------------------------------- fuzz


def test_generated_values_always_finite_under_fuzzed_configs():
    master = np.random.default_rng(2024)
    for trial in range(1500):
        length = int(master.integers(2, 96))
        cfg = GeneratorConfig(
            alpha=float(master.uniform()),
            length=length,
            pwb_k_max=int(master.integers(1, 9)),
            pwb_amp_range=tuple(np.sort(master.uniform(0.0, 10.0, 2))),
            rwb_sigma=float(master.uniform(1e-3, 10.0)),
            noise_sigma_eps=None if master.uniform() < 0.5 else float(master.uniform(0.0, 1.0)),
            augment=AugmentConfig(probability=float(master.uniform())),
        )
        series = sample_series(cfg, RngStream(31337, trial))
        assert np.all(np.isfinite(series.values))
        assert series.values.shape == (1, length)
