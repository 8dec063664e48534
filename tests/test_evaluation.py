import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tsgrid import (
    CapabilityError,
    ConfigurationError,
    EvalConfig,
    EvalReport,
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
from tsgrid import evaluation, forecasters
from tsgrid.evaluation import ReportRow, _dominant_frequency
from tsgrid.forecasters import ForecasterHandle
from tsgrid.imagespace import SoftImageTensor, SpaceParams, denormalize, encode, normalize, soft_decode
from tsgrid.series import carry_forward, linear_resample


def walk(length, seed=0, scale=1.0):
    g = np.random.default_rng(seed)
    return from_1d(np.cumsum(scale * g.standard_normal(length)))


def gappy(values, missing):
    """The series of ``values`` with a gap (NaN) wherever ``missing`` is set."""
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    return TimeSeries(values if missing is None else np.where(missing, np.nan, values))


SMALL = EvalConfig(lookback=32, horizons=(8, 16), rescale_factors=(0.5, 1.0, 2.0))


# ---------------------------------------------------------------- rescaling


def test_rescale_identity_factor():
    series = walk(100)
    out = tsi_rescale(series, 1.0)
    assert np.array_equal(out.values, series.values)
    assert np.shares_memory(out.values, series.values) and not out.values.flags.writeable
    assert series.values.flags.writeable  # the truth itself stays writeable


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


def test_an_unallocatable_rescaled_length_names_the_factor():
    # 4e15 samples: numpy refuses the request at once and allocates nothing
    series = from_1d(np.zeros(4))
    message = "rescale factor 1000000000000000.0: a rescaled length of 4000000000000000 samples cannot be allocated"
    with pytest.raises(EvaluationError, match=f"^{message}$"):
        tsi_rescale(series, 1e15)
    # not the InputError that remetrics records as a factor with no windows
    cfg = EvalConfig(lookback=2, horizons=(1,), rescale_factors=(1.0, 1e15))
    with pytest.raises(EvaluationError, match=f"^{message}$"):
        remetrics(series, get_model("persistence"), cfg)


def test_rescale_carries_missing_mask():
    missing = np.arange(10) == 4
    out = tsi_rescale(gappy(np.arange(10, dtype=float), missing), 1.0)
    assert np.isnan(out.values[0]).tolist() == missing.tolist()


def test_rescale_never_reads_a_gap_into_an_observed_sample():
    # a constant 1000 with every 7th sample missing, at beta 0.66: when a gap
    # was a 0.0 placeholder and a mask looked up by nearest position, 49 of
    # the 57 samples were marked observed and 8 of those were off by up to
    # 500.  Those 8 have a missing neighbour of nonzero weight: now they are gaps
    missing = np.arange(87) % 7 == 0
    out = tsi_rescale(gappy(np.full(87, 1000.0), missing), 0.66)
    observed = out.values[0][~np.isnan(out.values[0])]
    assert (out.length, observed.size) == (57, 41)
    assert np.all(observed == 1000.0)


def bracket_rule(missing, new_length):
    """A rescaled sample is missing when a neighbour that gives it nonzero weight is missing."""
    positions = np.linspace(0.0, missing.size - 1.0, new_length)
    left = np.floor(positions).astype(int)
    right = np.minimum(left + 1, missing.size - 1)
    return missing[left] | ((positions > left) & missing[right])


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_rescale_follows_the_bracket_rule(data):
    length = data.draw(st.integers(2, 200))
    values = data.draw(arrays(np.float64, length, elements=st.floats(-1e6, 1e6)))
    missing = data.draw(arrays(np.bool_, length))
    fill = data.draw(arrays(np.float64, length, elements=st.floats(-1e6, 1e6)))
    beta = data.draw(st.floats(0.05, 4.0))
    new_length = round(beta * length)
    if new_length < 2:
        return
    got = tsi_rescale(gappy(values, missing), beta).values[0]
    gaps = bracket_rule(missing, new_length)
    assert np.isnan(got).tolist() == gaps.tolist()
    # an observed sample is what the series gives with its gaps filled by any finite values
    want = linear_resample(np.where(missing, fill, values), new_length)[0]
    assert np.array_equal(got[~gaps], want[~gaps])


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
    assert np.isnan(out.values).all()
    out = perturb(series, PerturbationSpec(kind="missing", missing_probability=0.0), RngStream(3, 1))
    assert np.array_equal(out.values, series.values)


def test_perturb_missing_density():
    series = from_1d(np.zeros(100_000))
    p = 0.3
    out = perturb(series, PerturbationSpec(kind="missing", missing_probability=p), RngStream(4, 0))
    missing = np.isnan(out.values)
    density = missing.mean()
    sigma = np.sqrt(p * (1 - p) / missing.size)
    assert abs(density - p) <= 3.0 * sigma
    # the observed values are untouched
    assert np.array_equal(out.values[~missing], series.values[~missing])


@pytest.mark.parametrize(
    "spec",
    [
        PerturbationSpec(kind="gaussian_noise", noise_std=0.0),
        PerturbationSpec(kind="gaussian_noise", noise_std=0.2),
        PerturbationSpec(kind="harmonic"),
        PerturbationSpec(kind="missing", missing_probability=0.3),
    ],
    ids=lambda spec: spec.label(),
)
def test_perturb_returns_arrays_of_its_own(spec):
    g = np.random.default_rng(8)
    series = gappy(np.cumsum(g.standard_normal((2, 256)), axis=1), g.uniform(size=(2, 256)) < 0.1)
    out = perturb(series, spec, RngStream(7, 0))
    assert not np.shares_memory(out.values, series.values)
    # a gap stays a gap in every kind
    assert np.isnan(out.values[np.isnan(series.values)]).all()


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


@pytest.mark.parametrize("share", [0.1, 0.3])
def test_perturb_harmonic_keeps_a_gappy_channels_time_base(share):
    # a spectrum of the observed samples packed together reads this sine as period 56.6 (10% gaps) and 44.8 (30%)
    t = np.arange(4096)
    series = gappy(np.sin(2 * np.pi * t / 64.0), np.random.default_rng(3).uniform(size=(1, 4096)) < share)
    out = perturb(series, PerturbationSpec(kind="harmonic"), RngStream(6, 0))
    injected = np.nan_to_num(out.values[0] - series.values[0])  # a gap adds nothing to the spectrum
    assert int(np.argmax(np.abs(np.fft.rfft(injected)))) == 2 * (4096 // 64)
    assert _dominant_frequency(series.values[0]) == 1 / 64


def test_perturbation_spec_validation():
    with pytest.raises(ConfigurationError):
        PerturbationSpec(kind="bogus")
    with pytest.raises(ConfigurationError):
        PerturbationSpec(kind="gaussian_noise", noise_std=-1.0)
    with pytest.raises(ConfigurationError):
        PerturbationSpec(kind="missing", missing_probability=1.5)


FINITE = {"allow_nan": False, "allow_infinity": False}


# each kind with only its own parameters: the text form carries no other field
@given(
    st.one_of(
        st.builds(PerturbationSpec, st.just("gaussian_noise"), noise_std=st.floats(min_value=0, **FINITE)),
        st.builds(
            PerturbationSpec,
            st.just("harmonic"),
            harmonic_amplitude=st.none() | st.floats(min_value=0, **FINITE),
            harmonic_frequency=st.none() | st.floats(min_value=0, exclude_min=True, **FINITE),
        ),
        st.builds(PerturbationSpec, st.just("missing"), missing_probability=st.floats(0, 1)),
    )
)
def test_any_perturbation_label_parses_back(spec):
    assert PerturbationSpec.parse(spec.label()) == spec


@pytest.mark.parametrize(
    "text, spec",
    [
        ("gaussian_noise", PerturbationSpec("gaussian_noise")),
        (" missing:", PerturbationSpec("missing")),
        ("harmonic: 2.5 ,", PerturbationSpec("harmonic", harmonic_amplitude=2.5)),
    ],
)
def test_perturbation_parse_keeps_the_default_of_a_left_out_parameter(text, spec):
    assert PerturbationSpec.parse(text) == spec


@pytest.mark.parametrize(
    "text, message",
    [
        ("bogus", "unknown perturbation kind 'bogus' (expected gaussian_noise[:noise_std] | "),
        ("missing:0.1,0.2", "missing takes at most 1 parameter(s) (missing_probability), got 2"),
        ("harmonic:abc", "could not convert string to float: 'abc'"),
    ],
)
def test_perturbation_parse_rejects_malformed_text(text, message):
    with pytest.raises(ValueError) as exc:
        PerturbationSpec.parse(text)
    assert str(exc.value).startswith(message)


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


def test_a_factor_too_small_to_rescale_is_recorded_with_no_windows():
    truth = walk(400, seed=5)  # round(0.001 * 400) = 0 samples: tsi_rescale fails
    cfg = EvalConfig(lookback=32, horizons=(8, 16), rescale_factors=(0.001, 1.0))
    report = remetrics(truth, get_model("persistence"), cfg)
    tiny = [r for r in report.rows if r.beta == 0.001]
    assert [(r.horizon, r.windows, r.mse, r.mae) for r in tiny] == [(8, 0, None, None), (16, 0, None, None)]
    plain = remetrics(truth, get_model("persistence"), EvalConfig(lookback=32, horizons=(8, 16), rescale_factors=(1.0,)))
    assert [r for r in report.rows if r.beta == 1.0] == [r for r in plain.rows if r.beta == 1.0]


def test_all_skipped_raises():
    # even the largest factor (2x) leaves no room for lookback + horizon
    with pytest.raises(EvaluationError):
        remetrics(walk(18), get_model("persistence"), SMALL)


def test_all_masked_targets_raise_with_their_own_reason():
    missing = np.zeros((1, 200), dtype=bool)
    missing[:, 32:] = True  # every cell has windows, but no observed target
    truth = gappy(walk(200).values, missing)
    cfg = EvalConfig(lookback=32, horizons=(8,), rescale_factors=(1.0,))
    with pytest.raises(EvaluationError, match=r"^scenario none: every target is masked in every \(rescale factor, horizon\) pair"):
        remetrics(truth, get_model("persistence"), cfg)
    with pytest.raises(EvaluationError, match=r"^scenario none: series too short for every \(rescale factor, horizon\) pair"):
        remetrics(walk(18), get_model("persistence"), SMALL)


def test_masked_targets_do_not_contribute():
    values = np.zeros(48)
    values[40] = 100.0  # the only nonzero target
    missing = np.zeros((1, 48), dtype=bool)
    missing[0, 40] = True
    truth = gappy(values, missing)
    cfg = EvalConfig(lookback=32, horizons=(16,), rescale_factors=(1.0,))
    report = remetrics(truth, get_model("persistence"), cfg)
    # with the outlier masked the persistence forecast is exact
    assert report.remse(16) == 0.0


@pytest.mark.parametrize("model", ["seasonal-naive", "persistence", "seasonal-naive-image", "linear-trend-image", "oracle"])
def test_a_masked_target_never_changes_a_metric(model):
    # one window per cell, at beta 1, with missing samples among the targets only
    lookback, horizon = 64, 24
    t = np.arange(lookback + horizon)
    values = np.stack([np.sin(2 * np.pi * t / 12) + 0.01 * t, np.cos(2 * np.pi * t / 8)])
    missing = np.zeros(values.shape, dtype=bool)
    missing[0, lookback + 3 :: 5] = True
    missing[1, lookback:] = True  # every target of one channel
    cfg = EvalConfig(lookback=lookback, horizons=(horizon,), rescale_factors=(1.0,))
    rows = remetrics(gappy(values, missing), get_model(model), cfg).rows
    assert rows[0].windows == 1 and rows[0].mse is not None
    # the window's forecast, scored on the observed targets only
    preds = get_model(model).predict_block(values[:, :lookback], horizon, values[:, lookback:])
    diff = (preds - values[:, lookback:])[~missing[:, lookback:]]
    assert (rows[0].mse, rows[0].mae) == pytest.approx((np.mean(diff**2), np.mean(np.abs(diff))), rel=1e-12)


def hidden_by(truth, spec, seed, scenario=1, factor=0):
    """Where ``evaluate_series(truth, ..., seed=seed)`` hides samples in its
    ``scenario``-th scenario at its ``factor``-th rescale factor, the truth's own length."""
    return np.isnan(perturb(truth, spec, RngStream(seed).child(scenario).child(factor)).values)


@pytest.mark.parametrize("model", ["seasonal-naive", "seasonal-naive-image"])
def test_the_values_a_missing_scenario_hides_never_reach_a_metric(model):
    # 1000 + sin(2 pi t / 24), L = 4096, horizon 96, beta 1, 10% hidden:
    # seasonal-naive-image once scored MAE 3.67 with the hidden samples at
    # 0.0 and 21.97 with them at -5000, because normalize took its
    # statistics over them
    t = np.arange(4096)
    truth = from_1d(1000.0 + np.sin(2 * np.pi * t / 24))
    spec = PerturbationSpec("missing", missing_probability=0.1)
    cfg = EvalConfig(lookback=512, horizons=(96,), rescale_factors=(1.0,))
    hidden = hidden_by(truth, spec, seed=5)
    rows = []
    for fill in (None, 0.0, -5000.0):
        values = truth.values if fill is None else np.where(hidden, fill, truth.values)
        report = evaluate_series(TimeSeries(values), get_model(model), cfg, (spec,), seed=5)
        rows.append([r for r in report.rows if r.scenario == spec.label()])
    assert rows[0][0].mae < 0.05
    assert rows[1] == rows[0] and rows[2] == rows[0]


def scenario_rows(truth, model, cfg, spec, seed):
    """The rows of ``spec``'s scenario in an ``evaluate_series`` run, or the error that ends the run."""
    try:
        report = evaluate_series(truth, model, cfg, (spec,), seed=seed)
    except EvaluationError as exc:
        return str(exc)
    return [r for r in report.rows if r.scenario == spec.label()]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_no_value_a_missing_scenario_hides_changes_its_rows(data):
    channels = data.draw(st.integers(1, 3))
    lookback = data.draw(st.integers(2, 40))
    horizon = data.draw(st.integers(1, 12))
    length = data.draw(st.integers(lookback + horizon, 160))
    values = data.draw(arrays(np.float64, (channels, length), elements=st.floats(-1e3, 1e3)))
    spec = PerturbationSpec("missing", missing_probability=data.draw(st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0])))
    seed = data.draw(st.integers(0, 2**16))
    model = get_model(data.draw(st.sampled_from(["persistence", "seasonal-naive", "persistence-image", "seasonal-naive-image"])))
    cfg = EvalConfig(lookback=lookback, horizons=(horizon,), rescale_factors=(1.0,), stride=data.draw(st.sampled_from([None, 1, 3])))
    truth = TimeSeries(values)
    hidden = hidden_by(truth, spec, seed)
    fill = data.draw(arrays(np.float64, values.shape, elements=st.floats(-1e6, 1e6)))
    want = scenario_rows(truth, model, cfg, spec, seed)
    assert scenario_rows(TimeSeries(np.where(hidden, fill, values)), model, cfg, spec, seed) == want


def test_multichannel_channel_independent_average():
    g = np.random.default_rng(9)
    values = np.vstack([np.full(80, 1.0), g.standard_normal(80)])
    truth = TimeSeries(values)
    cfg = EvalConfig(lookback=32, horizons=(8,), rescale_factors=(1.0,))
    report = remetrics(truth, get_model("persistence"), cfg)
    # channel 0 is constant (exact); pooled error is half the channel-1 error
    solo = remetrics(TimeSeries(values[1:2]), get_model("persistence"), cfg)
    assert report.remse(8) == pytest.approx(0.5 * solo.remse(8), abs=1e-12)


def test_aggregates_of_a_report_with_two_datasets_are_read_by_name():
    cfg = EvalConfig(lookback=32, horizons=(8,), rescale_factors=(1.0,))
    exact = remetrics(from_1d(np.full(80, 1.0)), get_model("persistence"), cfg, dataset="flat")
    noisy = remetrics(walk(80), get_model("persistence"), cfg, dataset="walk")
    both = EvalReport(exact.rows + noisy.rows)
    assert noisy.remse(8) > 0.0
    assert (both.remse(8, dataset="flat"), both.remae(8, dataset="flat")) == (0.0, 0.0)
    assert (both.remse(8, dataset="walk"), both.remae(8, dataset="walk")) == (noisy.remse(8), noisy.remae(8))
    for read in (both.remse, both.remae):
        with pytest.raises(EvaluationError, match="report holds datasets flat, walk; name one"):
            read(8)
    with pytest.raises(EvaluationError, match="dataset='other'"):
        both.remse(8, dataset="other")


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


# ---------------------------------------------------------------- grid-space windows


def dense_window_predictions(model, look_values, horizon, space):
    """Reference on dense grids: encode the lookback, soft-decode it (empty columns
    carried forward), predict in value space, then encode and soft-decode the prediction."""
    z, stats = normalize(TimeSeries(look_values), look_values.shape[1])
    grid = encode(z, space).grid.astype(np.float64)
    empty = grid.sum(axis=1) == 0
    grid[:, 0, :][empty] = 1.0  # any one-hot column: carry_forward overwrites it
    visible = soft_decode(SoftImageTensor(grid, space)).values
    visible[empty] = np.nan
    visible = carry_forward(visible)
    predicted = encode(TimeSeries(model.predict_rows(visible, horizon)), space).grid
    z_pred = soft_decode(SoftImageTensor(predicted.astype(np.float64), space)).values
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
    if draw(st.booleans()):
        values[missing] = np.nan
    horizon = draw(st.integers(1, 24))
    space = SpaceParams(h=draw(st.sampled_from([2, 7, 128])), ms=draw(st.sampled_from([0.5, 1.5, 3.5])))
    return values, horizon, space


@pytest.mark.parametrize("model_id", ["persistence-image", "seasonal-naive-image", "linear-trend-image"])
@settings(max_examples=150, deadline=None)
@given(window=image_windows())
def test_image_window_predictions_match_dense_grid_path(model_id, window):
    values, horizon, space = window
    model = replace(get_model(model_id), space=space)
    target = np.zeros((values.shape[0], horizon))
    got = model.predict_block(values, horizon, target)
    assert np.array_equal(got, dense_window_predictions(model, values, horizon, space))


def test_image_window_rejects_non_finite_prediction():
    model = ForecasterHandle("nan-image", lambda X, horizon: np.full((len(X), horizon), np.nan), SpaceParams())
    with pytest.raises(InputError):
        model.predict_block(np.arange(16.0)[None, :], 4, np.zeros((1, 4)))


@pytest.mark.parametrize("space", [None, SpaceParams()], ids=["numeric", "image"])
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
        remetrics(truth, ForecasterHandle("bad", core, space), cfg)


def test_oracle_scoring_enforces_its_capability_limits():
    truth = TimeSeries(np.sin(np.arange(4200) / 7.0)[None, :])
    assert remetrics(truth, get_model("oracle"), EvalConfig(lookback=8, horizons=(4096,), rescale_factors=(1.0,))).remse(4096) == 0.0
    with pytest.raises(CapabilityError, match=r"^oracle: horizon 4097 exceeds limit 4096$"):
        remetrics(truth, get_model("oracle"), EvalConfig(lookback=8, horizons=(4097,), rescale_factors=(1.0,)))


def test_image_window_rejects_one_sample_lookback_for_linear_trend():
    model = get_model("linear-trend-image")
    with pytest.raises(InputError, match="at least 2 samples, got 1"):
        model.predict_block(np.array([[5.0], [-2.0]]), 3, np.zeros((2, 3)))


# ---------------------------------------------------------------- batched cells


def window_loop_remetrics(truth, model, cfg, *, perturbation=None, rng=None):
    """Reference: score every window of every cell on its own, accumulating in window order."""
    scenario = "none" if perturbation is None else perturbation.label()
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
                rows.append(ReportRow("series", horizon, beta, scenario, None, None, 0))
                continue

            sq_sum = 0.0
            abs_sum = 0.0
            count = 0
            n_windows = 0
            last_start = rescaled.length - cfg.lookback - horizon
            for start in range(0, last_start + 1, stride):
                split = start + cfg.lookback
                look_values = rescaled.values[:, start:split]
                target_values = rescaled.values[:, split : split + horizon]

                preds = model.predict_block(look_values, horizon, target_values)
                observed = ~np.isnan(target_values)  # a missing target adds zero and is not counted
                diff = np.where(observed, preds - target_values, 0.0)
                kept = int(observed.sum())
                sq_sum += float(np.sum(diff * diff))
                abs_sum += float(np.sum(np.abs(diff)))
                count += kept
                n_windows += 1

            if count == 0:
                rows.append(ReportRow("series", horizon, beta, scenario, None, None, n_windows))
            else:
                rows.append(ReportRow("series", horizon, beta, scenario, sq_sum / count, abs_sum / count, n_windows))
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
    horizons = tuple(draw(st.lists(st.integers(1, 12), min_size=1, max_size=3, unique=True)))
    # stride below, equal to and above the horizon
    stride = draw(st.sampled_from([None, 1, 2, 5, 13]))
    betas = tuple(draw(st.lists(st.sampled_from([0.5, 0.66, 1.0, 1.5, 2.0]), min_size=1, max_size=3, unique=True)))
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
    model = get_model(model_id)
    if model.space is not None:  # the image twins forecast through the drawn grid
        model = replace(model, space=space)
    block = draw(st.sampled_from([1, 40, 200, evaluation.WINDOW_BLOCK_SAMPLES]))
    cfg = EvalConfig(lookback=lookback, horizons=horizons, rescale_factors=betas, stride=stride)
    return gappy(values, missing), model, cfg, perturbation, block


# 200-sample blocks (8 windows at horizon 4, 5 at horizon 9) span the beta = 1.5 and beta = 1
# series; beta = 0.2 has no window
SPANNING = (
    TimeSeries(np.stack([np.sin(np.arange(40) / 3.0), np.cos(np.arange(40) / 5.0) * np.arange(40)])),
    EvalConfig(lookback=8, horizons=(4, 9), rescale_factors=(1.5, 0.2, 1.0), stride=1),
)


# horizons that do not nest share some lookbacks; beta = 0.3 (12 samples) fits only horizon 3;
# a 40-sample block holds 2 or 3 lookbacks of one channel, so a run of shared lookbacks is split
NESTLESS = (
    TimeSeries(SPANNING[0].values[:1]),
    EvalConfig(lookback=8, horizons=(5, 3, 6), rescale_factors=(1.0, 0.3, 1.5)),
)


@settings(max_examples=300, deadline=None)
@given(case=evaluation_cases())
@example(case=(NESTLESS[0], get_model("seasonal-naive"), NESTLESS[1], None, 40))
@example(
    case=(
        NESTLESS[0],
        replace(get_model("seasonal-naive-image"), space=SpaceParams(h=7, ms=3.5)),
        NESTLESS[1],
        PerturbationSpec(kind="missing", missing_probability=0.4),
        40,
    )
)
@example(case=(SPANNING[0], get_model("oracle"), NESTLESS[1], None, 40))
@example(case=(SPANNING[0], get_model("seasonal-naive"), SPANNING[1], None, 200))
@example(
    case=(
        SPANNING[0],
        replace(get_model("seasonal-naive-image"), space=SpaceParams(h=7, ms=3.5)),
        SPANNING[1],
        PerturbationSpec(kind="missing", missing_probability=0.4),
        200,
    )
)
def test_remetrics_matches_window_by_window_loop(case):
    truth, model, cfg, perturbation, block = case
    expected = window_loop_remetrics(truth, model, cfg, perturbation=perturbation, rng=RngStream(3))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluation, "WINDOW_BLOCK_SAMPLES", block)  # small blocks split a cell
        if not any(r.mse is not None for r in expected):
            with pytest.raises(EvaluationError):
                remetrics(truth, model, cfg, perturbation=perturbation, rng=RngStream(3))
            return
        report = remetrics(truth, model, cfg, perturbation=perturbation, rng=RngStream(3))
    assert report.rows == expected


def counting_seasonal_naive(seen):
    """The seasonal-naive row core behind a handle that records how many lookback rows it is given."""

    def core(lookbacks, horizon):
        seen.append(lookbacks.shape[0])
        return forecasters._seasonal_naive_rows(lookbacks, horizon)

    return ForecasterHandle("counting", core)


@pytest.mark.parametrize("channels", [1, 2])
def test_each_distinct_lookback_is_forecast_once(channels):
    # the benchmark's shape: 403 windows per scenario start at 253 distinct lookbacks
    t = np.arange(4096)
    truth = TimeSeries(np.stack([np.sin(t / (7.0 + c)) for c in range(channels)]))
    seen = []
    scenarios = (PerturbationSpec(kind="missing"),)
    report = evaluate_series(truth, counting_seasonal_naive(seen), EvalConfig(lookback=512), scenarios, seed=1)
    assert sum(r.windows for r in report.rows) == 2 * 403
    assert sum(seen) == 2 * 253 * channels


def test_a_fixed_stride_forecasts_only_the_shortest_horizons_lookbacks():
    # with one stride every horizon's windows start where the shortest horizon's do
    seen = []
    report = remetrics(walk(4096), counting_seasonal_naive(seen), EvalConfig(lookback=512, stride=37))
    assert sum(seen) == sum(r.windows for r in report.rows if r.horizon == 96)


def loop_carry_forward(values):
    """Reference: carry each channel forward with its own search over observed indices."""
    v = np.atleast_2d(np.asarray(values, dtype=np.float64)).copy()
    m = np.isnan(v)
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
    if data.draw(st.booleans()):
        values[missing] = np.nan
    got = carry_forward(values)
    assert np.array_equal(got, loop_carry_forward(values))
    assert not np.shares_memory(got, values)


def where_carry_forward(values):
    """Reference: ``carry_forward`` as two ``np.where`` passes and a ``take_along_axis`` gather."""
    v = np.atleast_2d(np.asarray(values, dtype=np.float64))
    observed = ~np.isnan(v)
    idx = np.where(observed, np.arange(v.shape[1]), -1)
    np.maximum.accumulate(idx, axis=1, out=idx)
    idx = np.where(idx < 0, observed.argmax(axis=1)[:, None], idx)
    v = np.take_along_axis(v, idx, axis=1)
    v[~observed.any(axis=1)] = 0.0
    return v


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_carry_forward_is_bit_equal_to_the_where_version(data):
    channels = data.draw(st.integers(1, 5))
    length = data.draw(st.integers(1, 40))
    spare = data.draw(st.integers(0, 7))  # columns past the lookback, as in a block of windows
    values = data.draw(arrays(np.float64, (channels, length + spare)))  # NaN, inf and -0.0 included
    missing = data.draw(arrays(np.bool_, (channels, length + spare)))
    missing[0, : data.draw(st.integers(0, length))] = True  # leading gap, up to the whole row
    if data.draw(st.booleans()):
        missing[-1] = True  # an all-missing row
    values[missing] = np.nan
    # the slices _cell_errors hands over: the lookback columns of a wider block
    values = values[:, :length]
    got = carry_forward(values)
    want = where_carry_forward(values)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert not np.shares_memory(got, values)


def test_carry_forward_edge_rows():
    got = carry_forward(np.array([[np.nan], [-0.0], [np.nan]]))
    assert got.tolist() == [[0.0], [-0.0], [0.0]] and np.signbit(got[1, 0])
    assert carry_forward(np.array([np.nan, np.nan, 3.0, np.nan])).tolist() == [[3.0, 3.0, 3.0, 3.0]]


SCENARIOS = (
    PerturbationSpec(kind="gaussian_noise", noise_std=0.2),
    PerturbationSpec(kind="harmonic"),
    PerturbationSpec(kind="missing", missing_probability=0.3),
)


@pytest.mark.parametrize("count", [0, 1, 3])
def test_evaluate_series_rescales_the_truth_once_per_factor(count, monkeypatch):
    calls = []

    def counted(series, beta):
        calls.append(beta)
        return tsi_rescale(series, beta)

    monkeypatch.setattr(evaluation, "tsi_rescale", counted)
    cfg = EvalConfig(lookback=32, horizons=(8, 16), rescale_factors=(0.5, 1.0, 2.0, 1e-3))
    evaluate_series(walk(300, seed=2), get_model("persistence"), cfg, SCENARIOS[:count], seed=3)
    # each scenario rescales the truth anew, so a run holds one scenario's set at a time
    assert calls == list(cfg.rescale_factors) * (1 + count)


@pytest.mark.parametrize("model_id", ["seasonal-naive", "seasonal-naive-image", "linear-trend"])
def test_evaluate_series_rows_are_those_of_one_remetrics_call_per_scenario(model_id):
    g = np.random.default_rng(9)
    values = np.cumsum(g.standard_normal((2, 300)), axis=1)
    values[g.uniform(size=values.shape) < 0.1] = np.nan
    truth = TimeSeries(values.copy())
    # 1e-3 leaves too few samples to rescale: a None in the shared set
    cfg = EvalConfig(lookback=32, horizons=(8, 16), rescale_factors=(0.5, 1e-3, 1.0, 1.5))
    got = evaluate_series(truth, get_model(model_id), cfg, SCENARIOS, seed=4, dataset="d")
    streams = RngStream(4)
    want = []
    for s_idx, spec in enumerate((None, *SCENARIOS)):
        report = remetrics(truth, get_model(model_id), cfg, dataset="d", perturbation=spec, rng=streams.child(s_idx))
        want.extend(report.rows)
    assert got.rows == want
    assert np.array_equal(truth.values, values, equal_nan=True)


# ---------------------------------------------------------------- memory


def traced_peak(call):
    """The ``tracemalloc`` peak of a second ``call()``: imports and first-call caches stay out of it."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# a 64-channel walk of 2.1 MB at the benchmark's shape; its rescale set is 5.66x its bytes
MANY = TimeSeries(np.cumsum(np.random.default_rng(5).standard_normal((64, 4096)), axis=1))
SET_BYTES = sum(round(b * MANY.length) for b in EvalConfig().rescale_factors) * MANY.channels * 8


@pytest.mark.parametrize("perturbation, extra", [(None, 2.0), ("gaussian_noise:0.1", 3.0)])
def test_remetrics_holds_one_rescale_set_and_one_block(perturbation, extra):
    # measured: 5.80x the series without a scenario (the set and one block's
    # temporaries) and 7.91x with noise (the set, and the largest factor's noise
    # while it replaces that factor's series); the bound leaves about 1.9x and
    # 0.8x of headroom.  The set and a concatenated copy of it once peaked at 13x.
    spec = None if perturbation is None else PerturbationSpec.parse(perturbation)
    model = get_model("seasonal-naive")
    peak = traced_peak(lambda: remetrics(MANY, model, EvalConfig(lookback=512), perturbation=spec, rng=RngStream(1)))
    assert peak <= SET_BYTES + extra * MANY.values.nbytes


def test_evaluate_series_holds_the_set_and_one_scenarios_copy_at_a_time():
    # each scenario is one remetrics call, which perturbs its set factor by factor:
    # measured 7.98x the series, under remetrics' own bound with noise (8.66x).
    # A set shared by every scenario, beside each scenario's perturbed copy of
    # it, peaks at 11.79x.
    model = get_model("seasonal-naive")
    peak = traced_peak(lambda: evaluate_series(MANY, model, EvalConfig(lookback=512), SCENARIOS, seed=1))
    assert peak <= SET_BYTES + 3.0 * MANY.values.nbytes
