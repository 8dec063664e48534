import numpy as np
import pytest

from tsgrid import (
    CapabilityError,
    ForecasterHandle,
    InputError,
    SpaceParams,
    TimeSeries,
    apply_mask,
    decode,
    detect_period,
    encode,
    forecast,
    from_1d,
    get_model,
    make_mask,
    register_baselines,
    soft_decode,
)

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
    tiny = ForecasterHandle(id="tiny", space="numeric", predict_fn=lambda x, n: np.zeros(n), max_lookback=8, max_horizon=4)
    with pytest.raises(CapabilityError):
        tiny.predict(np.zeros(9), 2)
    with pytest.raises(CapabilityError):
        tiny.predict(np.zeros(8), 5)


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
