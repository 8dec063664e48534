import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tsgrid import (
    CapabilityError,
    ConfigurationError,
    EvalConfig,
    EvaluationError,
    InputError,
    PerturbationSpec,
    RngStream,
    TimeSeries,
    evaluate_series,
    from_1d,
    get_model,
    perturb,
    remetrics,
    tsi_rescale,
)
from tsgrid import evaluation
from tsgrid.evaluation import ReportRow, _window_predictions
from tsgrid.forecasters import ForecasterHandle, forecast, make_mask
from tsgrid.imagespace import SoftImageTensor, SpaceParams, denormalize, encode, normalize, soft_decode
from tsgrid.series import carry_forward


def walk(length, seed=0, scale=1.0):
    g = np.random.default_rng(seed)
    return from_1d(np.cumsum(scale * g.standard_normal(length)))


SMALL = EvalConfig(lookback=32, horizons=(8, 16), rescale_factors=(0.5, 1.0, 2.0))


# ---------------------------------------------------------------- rescaling


def test_rescale_identity_factor():
    series = walk(100)
    out = tsi_rescale(series, 1.0)
    assert np.array_equal(out.values, series.values)


def test_rescale_hand_example():
    out = tsi_rescale(from_1d([0.0, 1.0, 2.0, 3.0]), 2.0)
    assert out.length == 8
    assert np.max(np.abs(out.values[0] - np.linspace(0.0, 3.0, 8))) < 1e-12


def test_rescale_reproduces_linear_ramps():
    t = np.arange(50, dtype=float)
    series = from_1d(-0.7 * t + 2.0)
    for beta in (0.5, 0.66, 1.5, 2.0, 3.0):
        out = tsi_rescale(series, beta)
        positions = np.linspace(0.0, 49.0, out.length)
        assert np.max(np.abs(out.values[0] - (-0.7 * positions + 2.0))) < 1e-12


def test_rescale_length_rounds_half_to_even():
    assert tsi_rescale(from_1d(np.zeros(5)), 0.5).length == 2  # round(2.5) -> 2
    assert tsi_rescale(from_1d(np.zeros(7)), 0.5).length == 4  # round(3.5) -> 4


def test_rescale_rejects_degenerate_output():
    with pytest.raises(InputError):
        tsi_rescale(from_1d(np.zeros(4)), 0.1)
    with pytest.raises(InputError):
        tsi_rescale(from_1d(np.zeros(4)), -1.0)


def test_rescale_carries_missing_mask():
    series = TimeSeries(np.arange(10, dtype=float)[None, :], np.zeros((1, 10), dtype=bool))
    series.missing[0, 4] = True
    out = tsi_rescale(series, 1.0)
    assert out.missing[0].tolist() == series.missing[0].tolist()


# ---------------------------------------------------------------- perturb


def test_perturb_zero_noise_is_identity():
    series = walk(256)
    out = perturb(series, PerturbationSpec(kind="gaussian_noise", noise_std=0.0), RngStream(1, 0))
    assert np.array_equal(out.values, series.values)


def test_perturb_noise_moments():
    series = from_1d(np.zeros(1_000_000))
    out = perturb(series, PerturbationSpec(kind="gaussian_noise", noise_std=0.3), RngStream(2, 0))
    observed = np.std(out.values - series.values)
    assert 0.297 <= observed <= 0.303


def test_perturb_missing_degenerate_probability():
    series = walk(64)
    out = perturb(series, PerturbationSpec(kind="missing", missing_probability=1.0), RngStream(3, 0))
    assert out.missing.all()
    out = perturb(series, PerturbationSpec(kind="missing", missing_probability=0.0), RngStream(3, 1))
    assert out.missing is not None and not out.missing.any()


def test_perturb_missing_density():
    series = from_1d(np.zeros(100_000))
    p = 0.3
    out = perturb(series, PerturbationSpec(kind="missing", missing_probability=p), RngStream(4, 0))
    density = out.missing.mean()
    sigma = np.sqrt(p * (1 - p) / out.missing.size)
    assert abs(density - p) <= 3.0 * sigma
    # values are untouched; only the mask grows
    assert np.array_equal(out.values, series.values)


def test_perturb_harmonic_adds_configured_sinusoid():
    t = np.arange(4096)
    series = from_1d(np.sin(2 * np.pi * t / 64.0))
    spec = PerturbationSpec(kind="harmonic", harmonic_amplitude=0.5, harmonic_frequency=1.0 / 32.0)
    out = perturb(series, spec, RngStream(5, 0))
    injected = out.values[0] - series.values[0]
    spectrum = np.abs(np.fft.rfft(injected))
    peak = int(np.argmax(spectrum))
    assert peak == 4096 // 32
    assert spectrum[peak] == pytest.approx(0.5 * 4096 / 2, rel=1e-6)


def test_perturb_harmonic_defaults_double_the_dominant_frequency():
    t = np.arange(2048)
    series = from_1d(np.sin(2 * np.pi * t / 64.0))
    out = perturb(series, PerturbationSpec(kind="harmonic"), RngStream(6, 0))
    injected = out.values[0] - series.values[0]
    peak = int(np.argmax(np.abs(np.fft.rfft(injected))))
    assert peak == 2 * (2048 // 64)


def test_perturbation_spec_validation():
    with pytest.raises(ConfigurationError):
        PerturbationSpec(kind="bogus")
    with pytest.raises(ConfigurationError):
        PerturbationSpec(kind="gaussian_noise", noise_std=-1.0)
    with pytest.raises(ConfigurationError):
        PerturbationSpec(kind="missing", missing_probability=1.5)


# ---------------------------------------------------------------- remetrics


def test_oracle_scores_zero_everywhere():
    truth = walk(200)
    report = remetrics(truth, get_model("oracle"), SMALL)
    for horizon in SMALL.horizons:
        assert report.remse(horizon) == 0.0
        assert report.remae(horizon) == 0.0


def test_singleton_rescale_set_equals_plain_metrics():
    truth = walk(120, seed=3)
    cfg = EvalConfig(lookback=32, horizons=(8,), rescale_factors=(1.0,))
    model = get_model("persistence")
    report = remetrics(truth, model, cfg)

    # independent plain-MSE/MAE computation over the same windows
    x = truth.values[0]
    sq, ab, n = 0.0, 0.0, 0
    for start in range(0, 120 - 40 + 1, 8):
        look = x[start : start + 32]
        target = x[start + 32 : start + 40]
        pred = np.full(8, look[-1])
        sq += np.sum((pred - target) ** 2)
        ab += np.sum(np.abs(pred - target))
        n += 8
    assert report.remse(8) == pytest.approx(sq / n, abs=1e-12)
    assert report.remae(8) == pytest.approx(ab / n, abs=1e-12)


def test_persistence_is_exact_on_constant_series():
    truth = from_1d(np.full(200, 4.2))
    report = remetrics(truth, get_model("persistence"), SMALL)
    for horizon in SMALL.horizons:
        assert report.remse(horizon) == 0.0
        assert report.remae(horizon) == 0.0


def test_short_factors_are_skipped_and_recorded():
    truth = walk(90)  # beta=0.5 gives 45 < 32 + 16
    report = remetrics(truth, get_model("persistence"), SMALL)
    skipped = [r for r in report.rows if r.beta == 0.5 and r.horizon == 16]
    assert len(skipped) == 1 and skipped[0].windows == 0 and skipped[0].mse is None
    assert report.remse(8) >= 0.0  # other cells still usable


def test_all_skipped_raises():
    # even the largest factor (2x) leaves no room for lookback + horizon
    with pytest.raises(EvaluationError):
        remetrics(walk(18), get_model("persistence"), SMALL)


def test_all_masked_targets_raise_with_their_own_reason():
    missing = np.zeros((1, 200), dtype=bool)
    missing[:, 32:] = True  # every cell has windows, but no observed target
    truth = TimeSeries(walk(200).values, missing)
    cfg = EvalConfig(lookback=32, horizons=(8,), rescale_factors=(1.0,))
    with pytest.raises(EvaluationError, match=r"^every target is masked in every \(rescale factor, horizon\) pair"):
        remetrics(truth, get_model("persistence"), cfg)
    with pytest.raises(EvaluationError, match=r"^series too short for every \(rescale factor, horizon\) pair"):
        remetrics(walk(18), get_model("persistence"), SMALL)


def test_verbose_names_why_an_aggregate_was_skipped(capsys):
    missing = np.ones((1, 1000), dtype=bool)
    missing[:, :40] = False
    missing[:, 950:] = False
    truth = TimeSeries(walk(1000).values, missing)
    cfg = EvalConfig(lookback=100, horizons=(8, 500, 5000))
    report = evaluate_series(truth, get_model("persistence"), cfg, verbose=True)
    masked = [r for r in report.rows if r.horizon == 500]
    assert sum(r.windows for r in masked) == 7 and all(r.mse is None for r in masked)
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("series horizon=8 scenario=none: ReMSE=")
    assert out[1:] == [
        "series horizon=500 scenario=none: skipped (every target masked)",
        "series horizon=5000 scenario=none: skipped (series too short)",
    ]


def test_masked_targets_do_not_contribute():
    values = np.zeros(48)
    values[40] = 100.0  # the only nonzero target
    missing = np.zeros((1, 48), dtype=bool)
    missing[0, 40] = True
    truth = TimeSeries(values[None, :], missing)
    cfg = EvalConfig(lookback=32, horizons=(16,), rescale_factors=(1.0,))
    report = remetrics(truth, get_model("persistence"), cfg)
    # with the outlier masked the persistence forecast is exact
    assert report.remse(16) == 0.0


def test_multichannel_channel_independent_average():
    g = np.random.default_rng(9)
    values = np.vstack([np.full(80, 1.0), g.standard_normal(80)])
    truth = TimeSeries(values)
    cfg = EvalConfig(lookback=32, horizons=(8,), rescale_factors=(1.0,))
    report = remetrics(truth, get_model("persistence"), cfg)
    # channel 0 is constant (exact); pooled error is half the channel-1 error
    solo = remetrics(TimeSeries(values[1:2]), get_model("persistence"), cfg)
    assert report.remse(8) == pytest.approx(0.5 * solo.remse(8), abs=1e-12)


def test_image_space_model_runs_through_codec():
    t = np.arange(200)
    truth = from_1d(np.sin(2 * np.pi * t / 25.0))
    cfg = EvalConfig(lookback=50, horizons=(10,), rescale_factors=(1.0,))
    report = remetrics(truth, get_model("seasonal-naive-image"), cfg)
    assert report.remse(10) < 0.05  # quantization-level error only


def test_perturbation_requires_stream():
    with pytest.raises(ConfigurationError):
        remetrics(walk(200), get_model("persistence"), SMALL, perturbation=PerturbationSpec(kind="missing"))


# ---------------------------------------------------------------- sweeps


def test_evaluate_series_deterministic():
    truth = walk(300, seed=11)
    specs = (PerturbationSpec(kind="gaussian_noise", noise_std=0.1), PerturbationSpec(kind="missing"))
    a = evaluate_series(truth, get_model("persistence"), SMALL, specs, seed=5)
    b = evaluate_series(truth, get_model("persistence"), SMALL, specs, seed=5)
    assert a.rows == b.rows
    c = evaluate_series(truth, get_model("persistence"), SMALL, specs, seed=6)
    assert a.rows != c.rows


def test_noise_monotonicity_for_persistence():
    # constant truth: persistence is exact, so the metric is pure noise
    # variance and the std ordering is statistically unambiguous
    truth = from_1d(np.full(2000, -0.5))
    specs = (
        PerturbationSpec(kind="gaussian_noise", noise_std=0.1),
        PerturbationSpec(kind="gaussian_noise", noise_std=0.3),
    )
    report = evaluate_series(truth, get_model("persistence"), SMALL, specs, seed=7)
    for horizon in SMALL.horizons:
        assert report.remse(horizon, "gaussian_noise:0.3") >= report.remse(horizon, "gaussian_noise:0.1")
        assert report.remse(horizon, "gaussian_noise:0.1") >= report.remse(horizon, "none")


def test_aggregate_rows_mark_mean_over_the_set():
    truth = walk(300, seed=13)
    report = evaluate_series(truth, get_model("persistence"), SMALL, seed=1)
    aggs = report.aggregates()
    assert all(r.beta is None for r in aggs)
    first = aggs[0]
    assert first.mse == pytest.approx(report.remse(first.horizon, first.scenario))


def test_rescale_set_order_does_not_matter():
    truth = walk(300, seed=17)
    forward = EvalConfig(lookback=32, horizons=(8,), rescale_factors=(0.5, 1.0, 2.0))
    shuffled = EvalConfig(lookback=32, horizons=(8,), rescale_factors=(2.0, 0.5, 1.0))
    a = remetrics(truth, get_model("persistence"), forward)
    b = remetrics(truth, get_model("persistence"), shuffled)
    assert a.remse(8) == b.remse(8)
    assert a.remae(8) == b.remae(8)


def test_run_benchmark_from_file(tmp_path):
    from tsgrid import run_benchmark
    from tsgrid.io import write_series_csv

    t = np.arange(300)
    write_series_csv(tmp_path / "pwb.csv", from_1d(np.sin(2 * np.pi * t / 25.0) + 0.3 * np.sin(2 * np.pi * t / 7.0)))
    report_a = tmp_path / "a.csv"
    report_b = tmp_path / "b.csv"
    cfg = EvalConfig(lookback=50, horizons=(10,), rescale_factors=(1.0, 2.0))
    report = run_benchmark(str(tmp_path / "pwb.csv"), "seasonal-naive", cfg, seed=4, report_path=report_a, verbose=False)
    assert np.isfinite(report.remae(10))
    assert report.remae(10) > 0.0
    run_benchmark(str(tmp_path / "pwb.csv"), "seasonal-naive", cfg, seed=4, report_path=report_b, verbose=False)
    assert report_a.read_bytes() == report_b.read_bytes()

    with pytest.raises(InputError):
        run_benchmark(str(tmp_path / "pwb.csv"), "not-a-model", cfg)
    with pytest.raises(InputError):
        run_benchmark(str(tmp_path / "missing.csv"), "persistence", cfg)


# ---------------------------------------------------------------- grid-space windows


def dense_window_predictions(model, look_values, look_missing, horizon, space):
    """Reference: encode the padded window, forecast on the dense grid, soft-decode the suffix."""
    channels, lookback = look_values.shape
    z, stats = normalize(TimeSeries(look_values, look_missing), lookback)
    missing = np.ones((channels, lookback + horizon), dtype=bool)
    missing[:, :lookback] = False if z.missing is None else z.missing
    padded = TimeSeries(np.concatenate([z.values, np.zeros((channels, horizon))], axis=1), missing)
    completed = forecast(model, encode(padded, space), make_mask(lookback + horizon, lookback))
    z_pred = soft_decode(SoftImageTensor(completed.grid[:, :, lookback:], space)).values
    return denormalize(TimeSeries(z_pred), stats).values


@st.composite
def image_windows(draw):
    channels = draw(st.integers(1, 3))
    lookback = draw(st.integers(2, 40))
    values = draw(arrays(np.float64, (channels, lookback), elements=st.floats(-1e3, 1e3)))
    # one spike per channel drives |z| past the smaller scales
    spikes = draw(arrays(np.float64, channels, elements=st.floats(-1e4, 1e4)))
    values[:, draw(st.integers(0, lookback - 1))] += spikes
    missing = draw(arrays(np.bool_, (channels, lookback)))
    missing[0, : draw(st.integers(0, lookback))] = True  # leading gap, up to the whole channel
    if draw(st.booleans()):
        missing[-1] = True
    look_missing = draw(st.sampled_from([None, missing]))
    horizon = draw(st.integers(1, 24))
    space = SpaceParams(h=draw(st.sampled_from([2, 7, 128])), ms=draw(st.sampled_from([0.5, 1.5, 3.5])))
    return values, look_missing, horizon, space


@pytest.mark.parametrize("model_id", ["persistence-image", "seasonal-naive-image", "linear-trend-image"])
@settings(max_examples=150, deadline=None)
@given(window=image_windows())
def test_image_window_predictions_match_dense_grid_path(model_id, window):
    values, look_missing, horizon, space = window
    model = get_model(model_id)
    target = np.zeros((values.shape[0], horizon))
    got = _window_predictions(model, values, look_missing, horizon, target, space)
    assert np.array_equal(got, dense_window_predictions(model, values, look_missing, horizon, space))


def test_image_window_rejects_non_finite_prediction():
    model = ForecasterHandle("nan-image", "image", lambda X, horizon: np.full((len(X), horizon), np.nan))
    with pytest.raises(InputError):
        _window_predictions(model, np.arange(16.0)[None, :], None, 4, np.zeros((1, 4)), SpaceParams())


@pytest.mark.parametrize("space", ["numeric", "image"])
@pytest.mark.parametrize(
    "core, message",
    [
        (lambda X, horizon: np.zeros((1, horizon)), r"^bad: predictions have shape \(1, 8\), expected \(\d+, 8\)$"),
        (lambda X, horizon: np.full((len(X), horizon), np.nan), r"^bad: predictions must be finite \(no NaN/Inf\)$"),
    ],
    ids=["one-row", "nan"],
)
def test_scoring_rejects_a_row_core_result_of_the_wrong_shape_or_not_finite(space, core, message):
    truth = TimeSeries(np.cumsum(np.random.default_rng(3).standard_normal((2, 160)), axis=1))
    cfg = EvalConfig(lookback=32, horizons=(8,), rescale_factors=(1.0,))
    with pytest.raises(InputError, match=message):
        remetrics(truth, ForecasterHandle("bad", space, core), cfg)


def test_oracle_scoring_enforces_its_capability_limits():
    truth = TimeSeries(np.sin(np.arange(4200) / 7.0)[None, :])
    assert remetrics(truth, get_model("oracle"), EvalConfig(lookback=8, horizons=(4096,), rescale_factors=(1.0,))).remse(4096) == 0.0
    with pytest.raises(CapabilityError, match=r"^oracle: horizon 4097 exceeds limit 4096$"):
        remetrics(truth, get_model("oracle"), EvalConfig(lookback=8, horizons=(4097,), rescale_factors=(1.0,)))


def test_image_window_rejects_one_sample_lookback_for_linear_trend():
    model = get_model("linear-trend-image")
    with pytest.raises(InputError, match="at least 2 samples, got 1"):
        _window_predictions(model, np.array([[5.0], [-2.0]]), None, 3, np.zeros((2, 3)), SpaceParams())


# ---------------------------------------------------------------- batched cells


def window_loop_remetrics(truth, model, cfg, *, perturbation=None, rng=None, space=None):
    """Reference: score every window of every cell on its own, accumulating in window order."""
    space = space or SpaceParams()
    rows = []
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
                rows.append(ReportRow("series", horizon, beta, "none", None, None, 0))
                continue

            sq_sum = 0.0
            abs_sum = 0.0
            count = 0
            n_windows = 0
            last_start = rescaled.length - cfg.lookback - horizon
            for start in range(0, last_start + 1, stride):
                split = start + cfg.lookback
                look_values = rescaled.values[:, start:split]
                look_missing = None if rescaled.missing is None else rescaled.missing[:, start:split]
                target_values = rescaled.values[:, split : split + horizon]
                target_missing = None if rescaled.missing is None else rescaled.missing[:, split : split + horizon]

                preds = _window_predictions(model, look_values, look_missing, horizon, target_values, space)
                diff = preds - target_values
                if target_missing is not None:
                    diff = diff[~target_missing]
                sq_sum += float(np.sum(diff * diff))
                abs_sum += float(np.sum(np.abs(diff)))
                count += diff.size
                n_windows += 1

            if count == 0:
                rows.append(ReportRow("series", horizon, beta, "none", None, None, n_windows))
            else:
                rows.append(ReportRow("series", horizon, beta, "none", sq_sum / count, abs_sum / count, n_windows))
    return rows


@st.composite
def evaluation_cases(draw):
    channels = draw(st.integers(1, 3))
    length = draw(st.integers(8, 120))
    values = draw(arrays(np.float64, (channels, length), elements=st.floats(-1e3, 1e3)))
    if draw(st.booleans()):
        values[draw(st.integers(0, channels - 1))] = draw(st.floats(-1e3, 1e3))  # constant: floored std
    missing = None
    if draw(st.booleans()):
        missing = draw(arrays(np.bool_, (channels, length)))
        missing[0, : draw(st.integers(0, length))] = True  # leading gap, up to the whole channel
        if draw(st.booleans()):
            missing[-1] = True  # an all-missing channel
        if draw(st.booleans()):
            missing[:, draw(st.integers(0, length)) :] = True  # all-missing targets from here on
    lookback = draw(st.integers(2, 24))
    horizons = tuple(draw(st.lists(st.integers(1, 12), min_size=1, max_size=2)))
    # stride below, equal to and above the horizon
    stride = draw(st.sampled_from([None, 1, 2, 5, 13]))
    betas = tuple(draw(st.lists(st.sampled_from([0.5, 0.66, 1.0, 1.5, 2.0]), min_size=1, max_size=3)))
    perturbation = draw(
        st.sampled_from(
            [
                None,
                PerturbationSpec(kind="gaussian_noise", noise_std=0.5),
                PerturbationSpec(kind="harmonic"),
                PerturbationSpec(kind="missing", missing_probability=0.4),
            ]
        )
    )
    space = SpaceParams(h=draw(st.sampled_from([2, 7, 128])), ms=draw(st.sampled_from([0.5, 3.5])))
    model_id = draw(
        st.sampled_from(
            [
                "persistence",
                "seasonal-naive",
                "linear-trend",
                "persistence-image",
                "seasonal-naive-image",
                "linear-trend-image",
                "oracle",
            ]
        )
    )
    block = draw(st.sampled_from([1, 40, 200, evaluation.WINDOW_BLOCK_SAMPLES]))
    cfg = EvalConfig(lookback=lookback, horizons=horizons, rescale_factors=betas, stride=stride)
    return TimeSeries(values, missing), get_model(model_id), cfg, perturbation, space, block


@settings(max_examples=300, deadline=None)
@given(case=evaluation_cases())
def test_remetrics_matches_window_by_window_loop(case):
    truth, model, cfg, perturbation, space, block = case
    expected = window_loop_remetrics(truth, model, cfg, perturbation=perturbation, rng=RngStream(3), space=space)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluation, "WINDOW_BLOCK_SAMPLES", block)  # small blocks split a cell
        if not any(r.mse is not None for r in expected):
            with pytest.raises(EvaluationError):
                remetrics(truth, model, cfg, perturbation=perturbation, rng=RngStream(3), space=space)
            return
        report = remetrics(truth, model, cfg, perturbation=perturbation, rng=RngStream(3), space=space)
    assert report.rows == expected


def loop_carry_forward(values, missing):
    """Reference: carry each channel forward with its own search over observed indices."""
    v = np.atleast_2d(np.asarray(values, dtype=np.float64)).copy()
    if missing is None:
        return v
    m = np.atleast_2d(np.asarray(missing, dtype=bool))
    for i in range(v.shape[0]):
        obs = np.flatnonzero(~m[i])
        if obs.size == 0:
            v[i] = 0.0
            continue
        idx = np.searchsorted(obs, np.arange(v.shape[1]), side="right") - 1
        idx = np.clip(idx, 0, obs.size - 1)
        v[i] = v[i, obs[idx]]
    return v


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_carry_forward_matches_per_channel_loop(data):
    channels = data.draw(st.integers(1, 4))
    length = data.draw(st.integers(1, 40))
    values = data.draw(arrays(np.float64, (channels, length), elements=st.floats(-1e6, 1e6)))
    missing = data.draw(arrays(np.bool_, (channels, length)))
    missing[0, : data.draw(st.integers(0, length))] = True  # leading gap, up to the whole channel
    if data.draw(st.booleans()):
        missing[-1] = True
    missing = data.draw(st.sampled_from([None, missing]))
    got = carry_forward(values, missing)
    assert np.array_equal(got, loop_carry_forward(values, missing))
    assert not np.shares_memory(got, values)
