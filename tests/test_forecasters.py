import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tsgrid import (
    CapabilityError,
    ConfigurationError,
    EvalConfig,
    ForecasterHandle,
    InputError,
    PerturbationSpec,
    SpaceParams,
    TemporalMask,
    TimeSeries,
    decode,
    detect_period,
    encode,
    evaluate_series,
    forecast,
    from_1d,
    get_model,
    register_baselines,
    soft_decode,
)
from tsgrid import forecasters
from tsgrid.evaluation import _window_predictions
from tsgrid.forecasters import MIN_LAG, _centered_spectrum, _fft_length, _periods, _screen, _screen_constants

P64 = SpaceParams(h=64, ms=3.5)


def masked_image(values, lookback, params=P64):
    """Full-length image plus the mask that hides its suffix."""
    series = from_1d(values)
    return encode(series, params), TemporalMask(series.length, lookback)


# ---------------------------------------------------------------- masks


def test_temporal_mask_prefix():
    mask = TemporalMask(4, 2)
    assert (mask.length, mask.lookback) == (4, 2)
    assert (TemporalMask(4, 4).length, TemporalMask(4, 4).lookback) == (4, 4)
    # forecast reads the visible prefix only: the masked suffix's values do not matter
    model = get_model("linear-trend-image")
    a = forecast(model, encode(from_1d([0.5, 1.0, -3.0, 2.0]), P64), mask)
    b = forecast(model, encode(from_1d([0.5, 1.0, 3.0, -1.0]), P64), mask)
    assert np.array_equal(a.grid, b.grid)


def test_temporal_mask_rejects_bad_lookback():
    # a negative lookback once passed and made forecast return 24 columns for a 12-column image
    for lookback in (0, -3, 13):
        with pytest.raises(InputError, match=rf"^lookback must be in \[1, 12\], got {lookback}$"):
            TemporalMask(12, lookback)


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


@pytest.mark.parametrize(
    "future, message",
    [
        (np.ones((2, 3)), r"^oracle: predictions have shape \(2, 3\), expected \(2, 5\)$"),
        (np.ones((1, 8)), r"^oracle: predictions have shape \(1, 5\), expected \(2, 5\)$"),
        (np.ones(5), r"^oracle: predictions have shape \(1, 5\), expected \(2, 5\)$"),
        (np.full((2, 5), np.inf), r"^oracle: predictions must be finite \(no NaN/Inf\)$"),
    ],
)
def test_oracle_future_passes_the_prediction_checks(future, message):
    # a short, mismatched or infinite future once came back as the prediction, and a 1-D one raised IndexError
    with pytest.raises(InputError, match=message):
        get_model("oracle").predict_rows(np.zeros((2, 10)), 5, future)


def test_an_oracle_returns_a_missing_target_as_nan():
    future = np.array([[1.0, np.nan, 3.0], [np.nan, np.nan, 6.0]])
    got = get_model("oracle").predict_rows(np.zeros((2, 4)), 2, future)
    assert np.array_equal(got, future[:, :2], equal_nan=True)
    with pytest.raises(InputError, match=r"^persistence: lookback row 1 is not finite \(NaN/Inf\)$"):
        get_model("persistence").predict_rows(np.array([[1.0, 2.0], [np.nan, 2.0]]), 2)


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


@st.composite
def prefix_cases(draw):
    """A block of lookbacks, a longest horizon, a shorter one, and maybe a lookback mask."""
    X, longest = draw(lookback_blocks())
    missing = None
    if draw(st.booleans()):
        missing = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(size=X.shape) < 0.3
    return X, longest, draw(st.integers(1, longest)), missing


TIE = np.sin(2 * np.pi * np.arange(256) / 32.0)[None]  # lags 32, 64, 96 tie: the detect_period fallback


@settings(max_examples=300, deadline=None)
@given(case=prefix_cases())
@example(case=(TIE, 100, 37, None))
@example(case=(TIE, 100, 1, TIE > 0.9))
def test_every_handle_forecasts_a_prefix_of_its_longer_forecast(case):
    X, longest, horizon, missing = case
    future = np.linspace(-1.0, 1.0, X.shape[0] * longest).reshape(X.shape[0], longest)  # only the oracle reads it
    for model in register_baselines():
        if model.id.startswith("linear-trend") and X.shape[1] < 2:
            continue
        full = model.predict_rows(X, longest, future)
        assert np.array_equal(model.predict_rows(X, horizon, future), full[:, :horizon])
        # and as the harness scores a block: carried forward, or through the codec for image handles
        gappy = X if missing is None else np.where(missing, np.nan, X)
        full = _window_predictions(model, gappy, longest, future, P64)
        assert np.array_equal(_window_predictions(model, gappy, horizon, future, P64), full[:, :horizon])


@settings(max_examples=200, deadline=None)
@given(case=prefix_cases())
@example(case=(TIE, 100, 37, None))
@example(case=(np.vstack([TIE, -TIE]), 40, 1, np.vstack([TIE > 0.9, TIE < 0.5])))
def test_every_handle_forecasts_a_strided_block_as_its_contiguous_copy(case):
    # the harness hands a block over as read-only views into its windows of lookback + horizon samples
    X, horizon, _, missing = case
    n = X.shape[1]
    future = np.linspace(-1.0, 1.0, X.shape[0] * horizon).reshape(X.shape[0], horizon)  # only the oracle reads it
    gappy = X if missing is None else np.where(missing, np.nan, X)
    windows, gappy_windows = (np.concatenate([x, future], axis=1) for x in (X, gappy))
    for array in (windows, gappy_windows):
        array.setflags(write=False)  # a handle that wrote into its lookbacks would raise
    for model in register_baselines():
        if model.id.startswith("linear-trend") and n < 2:
            continue
        want = model.predict_rows(X.copy(), horizon, future.copy())
        assert model.predict_rows(windows[:, :n], horizon, windows[:, n:]).tobytes() == want.tobytes()
        want = _window_predictions(model, gappy.copy(), horizon, future, P64)
        got = _window_predictions(model, gappy_windows[:, :n], horizon, gappy_windows[:, n:], P64)
        assert got.tobytes() == want.tobytes()


def test_fft_length_is_the_smallest_5_smooth_length_not_below_m():
    limit = 8192  # past the answer for every m tested
    smooth = sorted(
        2**a * 3**b * 5**c
        for a in range(14)
        for b in range(9)
        for c in range(6)
        if 2**a * 3**b * 5**c <= limit
    )
    for m in range(1, 5001):
        assert _fft_length(m) == next(k for k in smooth if k >= m), m
    assert _fft_length(512 + 256) == 768


def test_periods_fall_back_to_detect_period_on_exact_ties(monkeypatch):
    # lags 32, 64 and 96 of a period-32 sine have the same overlap-normalized autocorrelation
    x = np.sin(2 * np.pi * np.arange(256) / 32.0)
    calls = []

    def counted(row):
        calls.append(row.size)
        return detect_period(row)

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


def test_handle_rejects_an_unknown_space():
    # a misspelt space was once scored through the grid codec
    with pytest.raises(ConfigurationError, match=r"^typo: space must be 'numeric' or 'image', got 'Numeric'$"):
        ForecasterHandle("typo", "Numeric", lambda X, n: np.repeat(X[:, -1:], n, axis=1))


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


def test_predict_grid_carries_missing_rows_forward():
    params = SpaceParams(h=8, ms=1.0)
    rows = np.array([[2, 5, -1, -1], [-1, -1, 3, -1], [-1, -1, -1, -1]])
    got = get_model("persistence-image").predict_grid(rows, 3, params)
    # an all-missing lookback collapses to 0.0, whose cell (-0.25, 0] is row 3
    assert got.tolist() == [[5] * 3, [3] * 3, [3] * 3]


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
    values[10:14] = np.nan
    image = encode(TimeSeries(values), P64)
    mask = TemporalMask(48, 40)
    soft = forecast(get_model("persistence-image"), image, mask)
    assert np.max(np.abs(soft.grid[:, :, 40:].sum(axis=1) - 1.0)) < 1e-9


def gappy_image(gaps, length=48, lookback=40):
    values = np.linspace(-1, 1, length)
    values[gaps] = np.nan
    return encode(TimeSeries(values), P64), TemporalMask(length, lookback)


def test_forecast_without_blur_leaves_missing_lookback_columns_empty():
    image, mask = gappy_image([3, 10, 11, 12])
    soft = forecast(get_model("persistence-image"), image, mask)
    sums = soft.grid.sum(axis=1)[0]
    assert np.flatnonzero(sums == 0.0).tolist() == [3, 10, 11, 12]
    assert np.all(np.delete(sums, [3, 10, 11, 12]) == 1.0)


def test_forecast_rejects_mismatched_mask():
    image, _ = masked_image(np.zeros(16), 8)
    with pytest.raises(InputError):
        forecast(get_model("persistence-image"), image, TemporalMask(12, 8))


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


# ---------------------------------------------------------------- the period screen


def margin_factors(n):
    """Reference: the margin factor mu[k] of every lag k in [MIN_LAG, n // 2]."""
    lags = np.arange(MIN_LAG, n // 2 + 1)
    nfft = _fft_length(n + n // 2)
    return ((n - lags) + 8.0 * np.log2(nfft) + 1.0) * np.finfo(np.float64).eps / (n - lags)


def all_lag_screen(r, energy, n):
    """Reference: the screen before its runner-up test, which compares the top lag with every lag."""
    with np.errstate(all="ignore"):
        margin = energy[:, None] * margin_factors(n)
        best = np.argmax(r, axis=1)
        at = np.arange(r.shape[0])
        top = r[at, best]
        close = (top[:, None] - r <= margin[at, best][:, None] + margin).sum(axis=1)
        flagged = (close != 1) | ~np.isfinite(top) | ~np.isfinite(energy)
    return best, np.flatnonzero(flagged)


def reference_periods(X):
    """Reference: ``_periods`` with rfft(xc, n=nfft) and the all-lag screen; also the rows it rechecks."""
    X = np.asarray(X, dtype=np.float64)
    rows, n = X.shape
    max_lag = n // 2
    if max_lag < MIN_LAG:
        return np.full(rows, max(1, max_lag), dtype=np.int64), []
    nfft = _fft_length(n + max_lag)
    lags = np.arange(MIN_LAG, max_lag + 1)
    with np.errstate(all="ignore"):
        xc = X - X.mean(axis=1)[:, None]
        spectrum = np.fft.rfft(xc, n=nfft, axis=1)
        power = spectrum.real**2 + spectrum.imag**2
        r = np.fft.irfft(power, n=nfft, axis=1)[:, MIN_LAG : max_lag + 1] / (n - lags)
        energy = np.einsum("ij,ij->i", xc, xc)
    best, flagged = all_lag_screen(r, energy, n)
    periods = best + MIN_LAG
    for i in flagged:
        periods[i] = detect_period(X[i])
    return periods, flagged.tolist()


@st.composite
def near_tie_blocks(draw):
    """``lookback_blocks`` plus rows whose autocorrelation peaks nearly tie: periodic rows
    with relative noise of 1e-13 to 1e-9, constant rows and cell centers."""
    X, _ = draw(lookback_blocks())
    n = X.shape[1]
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = np.arange(n)
    rows = list(X)
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["sine", "saw", "tiled", "constant", "centers"]))
        period = draw(st.integers(2, max(2, n // 4)))
        if kind == "sine":
            row = np.sin(2 * np.pi * t / period)
        elif kind == "saw":
            row = (t % period) / period
        elif kind == "tiled":
            row = np.tile(g.standard_normal(period), n // period + 1)[:n]
        elif kind == "constant":
            row = np.full(n, draw(st.sampled_from([0.0, 1.0, -3.5])))
        else:
            row = P64.centers()[np.tile(g.integers(0, P64.h, period), n // period + 1)[:n]]
        noise = 10.0 ** draw(st.floats(-13.0, -9.0))
        rows.append(row * (1.0 + noise * g.standard_normal(n)))
    return np.array(rows)


def recheck_recorder(mp):
    """Patch ``detect_period`` in the forecasters module to record the rows it is given."""
    seen = []

    def recording(row):
        seen.append(row)
        return detect_period(row)

    mp.setattr(forecasters, "detect_period", recording)
    return seen


@settings(max_examples=300, deadline=None)
@given(X=near_tie_blocks())
@example(X=np.stack([np.sin(2 * np.pi * np.arange(256) / 32.0), np.zeros(256)]))
@example(X=np.ones((3, 4)))
def test_the_runner_up_screen_gives_the_periods_of_the_all_lag_screen(X):
    want, want_rechecked = reference_periods(X)
    with pytest.MonkeyPatch.context() as mp:
        seen = recheck_recorder(mp)
        got = _periods(X)
    assert got.tolist() == want.tolist()
    rechecked = [next(i for i, x in enumerate(X) if np.shares_memory(x, row)) for row in seen]
    assert rechecked == sorted(set(rechecked))
    assert set(want_rechecked) <= set(rechecked)


@st.composite
def autocorrelation_rows(draw):
    """Overlap-normalized autocorrelations with a runner-up placed near the margin boundary."""
    n = draw(st.integers(4, 600))
    lags = n // 2 - MIN_LAG + 1
    rows = draw(st.integers(1, 5))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    energy = np.array([draw(st.sampled_from([1e-6, 1.0, 256.0, 3e7])) for _ in range(rows)])
    mu = margin_factors(n)
    r = -energy[:, None] * g.uniform(0.5, 1.0, (rows, lags))  # far below any top
    for i in range(rows):
        best, runner_up = (int(v) for v in g.integers(0, lags, 2))
        top = energy[i] * draw(st.floats(-0.4, 1.0))
        r[i, best] = top
        if runner_up != best:
            scale = draw(st.sampled_from([0.0, 0.5, 0.99, 0.999999, 1.0, 1.000001, 1.01, 2.0]))
            r[i, runner_up] = top - scale * energy[i] * (mu[best] + mu[runner_up])
    return r, energy, n


# a top at the first lag and its runner-up at the last, just inside the all-lag margin: bounding by
# mu[0] instead of mu_max, or by one mu_max instead of two, lets the runner-up test pass it
_N = 16
_MU = margin_factors(_N)
EDGE = np.concatenate([[0.0], np.full(5, -1.0), [-0.99 * (_MU[0] + _MU[-1])]])[None]


@settings(max_examples=300, deadline=None)
@given(case=autocorrelation_rows())
@example(case=(EDGE, np.ones(1), _N))
@example(case=(np.array([[0.5, np.nan, 0.25]]), np.ones(1), 8))
@example(case=(np.array([[0.5, 0.25]]), np.array([np.inf]), 7))
@example(case=(np.array([[0.25, np.inf, -np.inf]]), np.ones(1), 8))
def test_the_runner_up_test_flags_every_row_the_all_lag_test_flags(case):
    r, energy, n = case
    before = r.copy()
    best, flagged = _screen(r, energy, _screen_constants(n)[2])
    want_best, want_flagged = all_lag_screen(before, energy, n)
    assert np.array_equal(r, before, equal_nan=True)  # restored in place
    assert best.tolist() == want_best.tolist()
    assert flagged.tolist() == sorted(set(flagged.tolist()))
    assert set(want_flagged.tolist()) <= set(flagged.tolist())


def test_the_edge_row_is_flagged():
    # the all-lag test keeps the runner-up of EDGE within the margin
    assert _screen(EDGE.copy(), np.ones(1), _screen_constants(_N)[2])[1].tolist() == [0]


@pytest.mark.parametrize("n", [4, 5, 16, 96, 512, 513, 4096])
def test_screen_constants_are_read_only_and_match_the_margin_formula(n):
    nfft, overlap, mu_max = _screen_constants(n)
    assert nfft == _fft_length(n + n // 2)
    assert np.array_equal(overlap, n - np.arange(MIN_LAG, n // 2 + 1))
    mu = margin_factors(n)
    assert np.all(np.diff(mu) > 0)  # the last lag's factor bounds every lag's
    assert mu_max == mu[-1]
    assert _screen_constants(n) is _screen_constants(n)
    assert not overlap.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        overlap[0] = 1.0


@pytest.mark.parametrize("rows, n", [(1, 4), (3, 17), (88, 512), (5, 1000)])
def test_the_padded_buffer_rfft_is_bit_equal_to_rfft_with_n(rows, n):
    g = np.random.default_rng(n)
    X = 250.0 * g.standard_normal((rows, n)) - 1e3
    nfft = _fft_length(n + n // 2)
    energy, spectrum = _centered_spectrum(X, nfft)
    want = X - X.mean(axis=1)[:, None]
    assert np.array_equal(spectrum, np.fft.rfft(want, n=nfft, axis=1))
    assert np.array_equal(energy, np.einsum("ij,ij->i", want, want))


# ---------------------------------------------------------------- non-finite lookbacks


@pytest.mark.filterwarnings("error")  # a RuntimeWarning would reach stderr outside pytest
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("model_id", [h.id for h in register_baselines()])
def test_every_handle_rejects_a_non_finite_lookback_by_row(model_id, bad, capfd):
    # seasonal-naive once forecast [[4, 5, 4]] from a NaN row: detect_period took an all-NaN argmax
    model = get_model(model_id)
    X = np.tile(np.array([1.0, 2.0, 2.0, 3.0, 4.0, 5.0]), (3, 1))
    X[1, 1] = X[2, 4] = bad
    future = np.zeros((3, 3))
    with pytest.raises(InputError, match=rf"^{model_id}: lookback row 1 is not finite \(NaN/Inf\)$"):
        model.predict_rows(X, 3, future)
    with pytest.raises(InputError, match=rf"^{model_id}: lookback row 0 is not finite \(NaN/Inf\)$"):
        model.predict(X[2], 3, future[0])
    # the shape, horizon and capability checks come first
    with pytest.raises(InputError, match=r"^horizon must be positive, got 0$"):
        model.predict_rows(X, 0, future)
    with pytest.raises(CapabilityError, match="lookback 8193 exceeds limit 8192"):
        model.predict_rows(np.full((1, 8193), bad), 3, future[:1])
    assert capfd.readouterr() == ("", "")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
def test_detect_period_rejects_a_non_finite_series(bad, capfd):
    with pytest.raises(InputError, match=r"^detect_period needs a finite series \(no NaN/Inf\)$"):
        detect_period(np.array([1.0, bad, 2.0, 3.0, 4.0, 5.0]))
    assert capfd.readouterr() == ("", "")


def test_the_core_never_sees_a_non_finite_lookback():
    seen = []
    handle = ForecasterHandle("spy", "numeric", lambda X, n: seen.append(X) or np.zeros((len(X), n)))
    with pytest.raises(InputError, match="^spy: lookback row 0 is not finite"):
        handle.predict_rows(np.array([[np.nan, 1.0]]), 2)
    assert seen == []
