import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tsgrid import (
    CapabilityError,
    EvalConfig,
    ForecasterHandle,
    InputError,
    PerturbationSpec,
    SpaceParams,
    TimeSeries,
    apply_mask,
    decode,
    detect_period,
    encode,
    evaluate_series,
    forecast,
    from_1d,
    get_model,
    make_mask,
    register_baselines,
    soft_decode,
)
from tsgrid import forecasters
from tsgrid.forecasters import _periods

P64 = SpaceParams(h=64, ms=3.5)


def masked_image(values, lookback, params=P64):
    """Full-length image with zeroed suffix plus its mask."""
    series = from_1d(values)
    image = encode(series, params)
    mask = make_mask(series.length, lookback)
    return apply_mask(image, mask), mask


# ---------------------------------------------------------------- masks


def test_make_mask_prefix():
    mask = make_mask(4, 2)
    assert mask.bits.tolist() == [1, 1, 0, 0]
    assert make_mask(4, 4).bits.tolist() == [1, 1, 1, 1]


def test_make_mask_rejects_bad_lookback():
    with pytest.raises(InputError):
        make_mask(4, 5)
    with pytest.raises(InputError):
        make_mask(4, 0)


def test_apply_mask_zeroes_suffix_columns():
    image, _ = masked_image(np.linspace(-1, 1, 10), 6)
    assert image.grid[:, :, 6:].sum() == 0
    assert np.array_equal(image.grid.sum(axis=1)[0, :6], np.ones(6, dtype=np.uint64))


# ---------------------------------------------------------------- period


def test_detect_period_square_wave():
    t = np.arange(64)
    square = np.where((t // 16) % 2 == 0, 1.0, -1.0)  # period 32, two full cycles
    assert detect_period(square) == 32


def test_detect_period_sine():
    t = np.arange(256)
    assert detect_period(np.sin(2 * np.pi * t / 32.0)) == 32


def test_detect_period_short_input_degrades():
    assert detect_period(np.array([1.0, 2.0])) == 1


# ---------------------------------------------------------------- baselines


def test_registry_is_stable():
    ids = [h.id for h in register_baselines()]
    assert ids == [h.id for h in register_baselines()]
    assert ids == [
        "persistence",
        "seasonal-naive",
        "linear-trend",
        "persistence-image",
        "seasonal-naive-image",
        "linear-trend-image",
        "oracle",
    ]


def test_get_model_unknown_id_lists_registry():
    with pytest.raises(InputError, match="seasonal-naive"):
        get_model("nope")


def test_persistence_repeats_last_value():
    model = get_model("persistence")
    out = model.predict(np.array([1.0, 2.0, 7.5]), 4)
    assert np.array_equal(out, np.full(4, 7.5))


def test_seasonal_naive_continues_exact_sine():
    t = np.arange(128)
    x = np.sin(2 * np.pi * t / 32.0)
    model = get_model("seasonal-naive")
    prediction = model.predict(x, 64)
    truth = np.sin(2 * np.pi * np.arange(128, 192) / 32.0)
    assert np.max(np.abs(prediction - truth)) < 1e-9


def test_linear_trend_extends_ramp():
    x = 0.25 * np.arange(100) - 3.0
    model = get_model("linear-trend")
    prediction = model.predict(x, 20)
    truth = 0.25 * np.arange(100, 120) - 3.0
    assert np.max(np.abs(prediction - truth)) < 1e-9


def test_linear_trend_rejects_one_sample_lookback(capfd):
    with pytest.raises(InputError, match="at least 2 samples, got 1"):
        get_model("linear-trend").predict(np.array([1.0]), 3)
    assert capfd.readouterr() == ("", "")


def test_oracle_requires_and_returns_future():
    model = get_model("oracle")
    future = np.array([9.0, 8.0, 7.0])
    assert np.array_equal(model.predict(np.zeros(5), 3, future=future), future)
    with pytest.raises(InputError):
        model.predict(np.zeros(5), 3)


def test_capability_limits_enforced():
    tiny = ForecasterHandle("tiny", "numeric", lambda X, n: np.zeros((len(X), n)), max_lookback=8, max_horizon=4)
    with pytest.raises(CapabilityError):
        tiny.predict(np.zeros(9), 2)
    with pytest.raises(CapabilityError):
        tiny.predict(np.zeros(8), 5)


# ---------------------------------------------------------------- batched predictions


@st.composite
def lookback_blocks(draw):
    """Blocks of equal-length rows: noise, exactly periodic, constant, or cell centers."""
    n = draw(st.integers(1, 600))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = np.arange(n)
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["noise", "sine", "saw", "tiled", "constant", "centers"]))
        period = draw(st.integers(2, max(2, n // 2)))
        scale = draw(st.sampled_from([1e-3, 1.0, 250.0]))
        offset = draw(st.sampled_from([0.0, 1.0, -1e3]))
        if kind == "noise":
            row = g.standard_normal(n)
        elif kind == "sine":
            row = np.sin(2 * np.pi * t / period)
        elif kind == "saw":
            row = (t % period) / period
        elif kind == "tiled":
            row = np.tile(g.standard_normal(period), n // period + 1)[:n]
        elif kind == "constant":
            row = np.zeros(n)
        else:
            row = P64.centers()[g.integers(0, P64.h, n)]
        rows.append(scale * row + offset)
    return np.array(rows), draw(st.integers(1, 50))


def per_series_baseline(model_id, x, horizon):
    """Reference: the baselines as 1-D functions of one lookback."""
    name = model_id.removesuffix("-image")
    if name == "persistence":
        return np.full(horizon, x[-1])
    if name == "seasonal-naive":
        period = detect_period(x)
        return np.tile(x[-period:], int(np.ceil(horizon / period)))[:horizon]
    slope, intercept = np.polyfit(np.arange(x.size, dtype=np.float64), x, 1)
    return slope * np.arange(x.size, x.size + horizon, dtype=np.float64) + intercept


@settings(max_examples=300, deadline=None)
@given(block=lookback_blocks())
@example(block=(np.ones((2, 1)), 3))  # rows too short for any lag degrade like detect_period
@example(block=(np.array([[1.0, 2.0], [2.0, 2.0]]), 3))
@example(block=(np.array([[1.0, 2.0, 4.0], [0.0, 0.0, 0.0]]), 3))
def test_predict_rows_is_bit_equal_to_per_row_predict(block):
    X, horizon = block
    # the screen relies on the block mean being each row's own mean, bit for bit
    assert np.array_equal(X.mean(axis=1), [x.mean() for x in X])
    assert _periods(X).tolist() == [detect_period(x) for x in X]
    future = np.linspace(-1.0, 1.0, X.shape[0] * (horizon + 3)).reshape(X.shape[0], -1)
    for model in register_baselines():  # only the oracle reads the future
        if model.id.startswith("linear-trend") and X.shape[1] < 2:
            with pytest.raises(InputError, match="at least 2 samples, got 1"):
                model.predict_rows(X, horizon)
            continue
        rows = model.predict_rows(X, horizon, future)
        single = [model.predict(x, horizon, f) for x, f in zip(X, future)]
        assert rows.shape == (X.shape[0], horizon)
        assert np.array_equal(rows, np.stack(single))
        if not model.needs_future:
            assert np.array_equal(rows, np.stack([per_series_baseline(model.id, x, horizon) for x in X]))


def test_periods_fall_back_to_detect_period_on_exact_ties(monkeypatch):
    # lags 32, 64 and 96 of a period-32 sine have the same overlap-normalized autocorrelation
    x = np.sin(2 * np.pi * np.arange(256) / 32.0)
    calls = []

    def counted(row, min_lag=2):
        calls.append(row.size)
        return detect_period(row, min_lag)

    monkeypatch.setattr(forecasters, "detect_period", counted)
    noise = np.random.default_rng(8).standard_normal(256)
    assert _periods(np.stack([noise, x])).tolist() == [detect_period(noise), 32]
    assert calls == [256]


def test_predict_rows_validates_once_with_the_predict_texts():
    tiny = ForecasterHandle("tiny", "numeric", lambda X, n: np.zeros((len(X), n)), max_lookback=8, max_horizon=4)
    for model in (tiny, get_model("persistence")):
        for bad in (np.zeros(4), np.zeros((1, 2, 3)), np.zeros((2, 0)), np.zeros((0, 4))):
            with pytest.raises(InputError, match=r"^lookbacks must be a nonempty 2-D array$"):
                model.predict_rows(bad, 2)
        with pytest.raises(InputError, match=r"^horizon must be positive, got 0$"):
            model.predict_rows(np.zeros((2, 4)), 0)
    with pytest.raises(CapabilityError, match=r"^tiny: lookback 9 exceeds limit 8$"):
        tiny.predict_rows(np.zeros((2, 9)), 2)
    with pytest.raises(CapabilityError, match=r"^tiny: horizon 5 exceeds limit 4$"):
        tiny.predict_rows(np.zeros((2, 8)), 5)
    with pytest.raises(InputError, match=r"^oracle: this handle requires the true future$"):
        get_model("oracle").predict_rows(np.zeros((2, 5)), 3)
    future = np.arange(8.0).reshape(2, 4)
    assert np.array_equal(get_model("oracle").predict_rows(np.zeros((2, 5)), 3, future=future), future[:, :3])


@pytest.mark.parametrize(
    "core, message",
    [
        (lambda X, n: np.zeros((1, n)), r"^bad: predictions have shape \(1, 2\), expected \(3, 2\)$"),
        (lambda X, n: np.zeros((len(X), n + 1)), r"^bad: predictions have shape \(3, 3\), expected \(3, 2\)$"),
        (lambda X, n: np.zeros(n), r"^bad: predictions have shape \(2,\), expected \(3, 2\)$"),
        (lambda X, n: np.full((len(X), n), np.nan), r"^bad: predictions must be finite \(no NaN/Inf\)$"),
        (lambda X, n: np.full((len(X), n), -np.inf), r"^bad: predictions must be finite \(no NaN/Inf\)$"),
    ],
    ids=["one-row", "wide", "one-dimensional", "nan", "inf"],
)
@pytest.mark.parametrize("space", ["numeric", "image"])
def test_predict_rows_checks_the_row_core_result(core, message, space):
    bad = ForecasterHandle("bad", space, core)
    with pytest.raises(InputError, match=message):
        bad.predict_rows(np.zeros((3, 4)), 2)


def test_predict_rows_returns_float_predictions_of_any_real_core():
    ints = ForecasterHandle("ints", "numeric", lambda X, n: np.ones((len(X), n), dtype=np.int64))
    out = ints.predict_rows(np.zeros((2, 3)), 4)
    assert out.dtype == np.float64 and out.tolist() == [[1.0] * 4] * 2


@pytest.mark.parametrize("space", ["numeric", "image"])
def test_one_dimensional_handle_scores_like_its_row_core(space):
    suffix = "-image" if space == "image" else ""
    plugged = ForecasterHandle(f"last{suffix}", space, lambda X, horizon: np.repeat(X[:, -1:], horizon, axis=1))
    g = np.random.default_rng(12)
    truth = TimeSeries(np.cumsum(g.standard_normal((2, 160)), axis=1))
    cfg = EvalConfig(lookback=32, horizons=(8, 24), rescale_factors=(0.66, 1.0, 1.5))
    specs = [PerturbationSpec("missing", missing_probability=0.2), PerturbationSpec("harmonic")]
    got = evaluate_series(truth, plugged, cfg, specs, seed=4)
    want = evaluate_series(truth, get_model(f"persistence{suffix}"), cfg, specs, seed=4)
    assert got.rows == want.rows
    assert all(r.mse is not None for r in got.rows)


# ---------------------------------------------------------------- forecast


def test_forecast_persistence_on_constant_series():
    values = np.full(32, 1.25)
    image, mask = masked_image(values, 24)
    soft = forecast(get_model("persistence-image"), image, mask)
    last_visible = soft.grid[0, :, 23]
    for col in range(24, 32):
        assert np.array_equal(soft.grid[0, :, col], last_visible)


def test_forecast_visible_prefix_passes_through():
    rng = np.random.default_rng(3)
    image, mask = masked_image(rng.uniform(-3, 3, 40), 30)
    soft = forecast(get_model("seasonal-naive-image"), image, mask)
    assert np.array_equal(soft.grid[:, :, :30], image.grid[:, :, :30].astype(float))


def test_forecast_columns_normalized():
    rng = np.random.default_rng(4)
    image, mask = masked_image(rng.uniform(-3, 3, 40), 30)
    soft = forecast(get_model("linear-trend-image"), image, mask)
    assert np.max(np.abs(soft.grid.sum(axis=1) - 1.0)) < 1e-9


def test_forecast_seasonal_naive_tracks_sine_within_one_cell():
    t = np.arange(192)
    values = np.sin(2 * np.pi * t / 32.0)
    image, mask = masked_image(values, 128)
    soft = forecast(get_model("seasonal-naive-image"), image, mask)
    suffix = soft_decode(
        type(soft)(soft.grid[:, :, 128:], soft.params)
    ).values[0]
    truth = values[128:]
    assert np.max(np.abs(suffix - truth)) <= P64.bin_width


def test_forecast_linear_trend_tracks_ramp_until_saturation():
    t = np.arange(160)
    values = 0.02 * t  # stays below the scale over lookback + horizon
    image, mask = masked_image(values, 128)
    soft = forecast(get_model("linear-trend-image"), image, mask)
    suffix = soft_decode(type(soft)(soft.grid[:, :, 128:], soft.params)).values[0]
    truth = values[128:]
    assert np.max(np.abs(suffix - truth)) <= P64.bin_width


def test_forecast_numeric_and_image_agree_to_quantization():
    t = np.arange(96)
    values = 1.2 * np.sin(2 * np.pi * t / 24.0)
    image, mask = masked_image(values, 64)
    numeric = get_model("persistence").predict(values[:64], 32)
    soft = forecast(get_model("persistence-image"), image, mask)
    decoded = soft_decode(type(soft)(soft.grid[:, :, 64:], soft.params)).values[0]
    assert np.max(np.abs(decoded - numeric)) <= P64.ms / P64.h


def test_forecast_handles_missing_lookback_columns():
    values = np.linspace(-1, 1, 48)
    missing = np.zeros((1, 48), dtype=bool)
    missing[0, 10:14] = True
    series = TimeSeries(values[None, :], missing)
    image = encode(series, P64)
    mask = make_mask(48, 40)
    image = apply_mask(image, mask)
    soft = forecast(get_model("persistence-image"), image, mask)
    assert np.max(np.abs(soft.grid[:, :, 40:].sum(axis=1) - 1.0)) < 1e-9


def gappy_image(gaps, length=48, lookback=40):
    missing = np.zeros((1, length), dtype=bool)
    missing[0, gaps] = True
    series = TimeSeries(np.linspace(-1, 1, length)[None, :], missing)
    mask = make_mask(length, lookback)
    return apply_mask(encode(series, P64), mask), mask


def test_forecast_blur_names_missing_lookback_columns():
    image, mask = gappy_image([])
    soft = forecast(get_model("persistence-image"), image, mask, blur_kernel=(3, 3))
    assert np.max(np.abs(soft.grid.sum(axis=1) - 1.0)) < 1e-9
    image, mask = gappy_image([3, 10, 11, 12])
    with pytest.raises(InputError, match=r"4 missing lookback column\(s\): 3, 10, 11, 12$"):
        forecast(get_model("persistence-image"), image, mask, blur_kernel=(3, 3))
    image, mask = gappy_image(list(range(12)))
    with pytest.raises(InputError, match=r"12 missing lookback column\(s\): 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, \.\.\.$"):
        forecast(get_model("persistence-image"), image, mask, blur_kernel=(3, 3))


def test_forecast_without_blur_leaves_missing_lookback_columns_empty():
    image, mask = gappy_image([3, 10, 11, 12])
    soft = forecast(get_model("persistence-image"), image, mask)
    sums = soft.grid.sum(axis=1)[0]
    assert np.flatnonzero(sums == 0.0).tolist() == [3, 10, 11, 12]
    assert np.all(np.delete(sums, [3, 10, 11, 12]) == 1.0)


def test_forecast_rejects_mismatched_mask():
    image, _ = masked_image(np.zeros(16), 8)
    with pytest.raises(InputError):
        forecast(get_model("persistence-image"), image, make_mask(12, 8))


def test_forecast_is_deterministic():
    rng = np.random.default_rng(6)
    values = rng.uniform(-2, 2, 64)
    image, mask = masked_image(values, 48)
    model = get_model("seasonal-naive-image")
    a = forecast(model, image, mask)
    b = forecast(model, image, mask)
    assert np.array_equal(a.grid, b.grid)


def test_forecast_decode_roundtrip_through_binary_image():
    # an image-space forecast hardened back to one-hot decodes cleanly
    t = np.arange(96)
    values = np.sin(2 * np.pi * t / 24.0)
    image, mask = masked_image(values, 64)
    soft = forecast(get_model("persistence-image"), image, mask)
    hardened = (soft.grid[:, :, 64:] >= soft.grid[:, :, 64:].max(axis=1, keepdims=True)).astype(np.uint8)
    from tsgrid import BinaryImageTensor

    decoded = decode(BinaryImageTensor(hardened, P64))
    assert np.all(np.isfinite(decoded.values))
