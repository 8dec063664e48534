import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.ndimage import convolve1d
from scipy.optimize import linprog

from tsgrid import (
    BinaryImageTensor,
    ConfigurationError,
    GeneratorConfig,
    InputError,
    RngStream,
    SoftImageTensor,
    SpaceParams,
    StructuralError,
    TimeSeries,
    decode,
    emd,
    encode,
    encode_preprocessed,
    from_1d,
    kld,
    loss,
    normalize,
    preprocess,
    quantize_values,
    sample_series,
    soft_decode,
    value_to_row,
)

P128 = SpaceParams(h=128, ms=3.5)


def one_hot_image(rows, params, channels=1):
    rows = np.atleast_1d(rows)
    grid = np.zeros((channels, params.h, rows.size), dtype=np.uint8)
    grid[0, rows, np.arange(rows.size)] = 1
    return BinaryImageTensor(grid, params)


def soft_column(weights, params):
    w = np.asarray(weights, dtype=float)
    w = w / w.sum()
    return SoftImageTensor(w[None, :, None], params)


# ---------------------------------------------------------------- normalize


def test_normalize_hand_statistics():
    series = from_1d([1.0, 3.0])
    out, stats = normalize(series, 2)
    assert stats.mean[0] == 2.0 and stats.std[0] == 1.0
    assert np.array_equal(out.values[0], [-1.0, 1.0])


def test_normalize_constant_lookback_floors_std():
    series = from_1d(np.zeros(16))
    out, stats = normalize(series, 16)
    assert np.array_equal(out.values, np.zeros((1, 16)))
    assert stats.mean[0] == 0.0 and stats.std[0] == 1e-8
    assert stats.floored[0]


def test_normalize_is_idempotent_on_standardized_data():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(256)
    x = (x - x.mean()) / x.std()
    out, _ = normalize(from_1d(x), 256)
    assert np.max(np.abs(out.values[0] - x)) < 1e-9


def test_normalize_uses_lookback_stats_only():
    x = np.concatenate([np.zeros(8) + 5.0, np.full(8, 100.0)])
    x[0:8] = [4, 5, 6, 5, 4, 5, 6, 5]
    out, stats = normalize(from_1d(x), 8)
    assert stats.mean[0] == pytest.approx(np.mean(x[:8]))
    assert stats.std[0] == pytest.approx(np.std(x[:8]))
    assert out.values[0, -1] == pytest.approx((100.0 - stats.mean[0]) / stats.std[0])


def test_normalize_rejects_bad_lookback():
    with pytest.raises(InputError):
        normalize(from_1d([1.0, 2.0]), 3)
    with pytest.raises(InputError):
        normalize(from_1d([1.0, 2.0]), 0)


# ---------------------------------------------------------------- encoding


def test_encode_saturates_high_to_top_cell():
    assert value_to_row(np.array(5.0), P128) == 127  # cell index h in 1-based terms


def test_encode_zero_lands_in_cell_64():
    # (0 + 3.5) / 0.0546875 = 64 exactly; 1-based cell 64 is row 63
    assert value_to_row(np.array(0.0), P128) == 63


def test_encode_saturates_low_to_bottom_cell():
    assert value_to_row(np.array(-5.0), P128) == 0


def test_encode_is_monotone():
    rng = np.random.default_rng(1)
    values = np.sort(rng.uniform(-5, 5, 10_000))
    rows = value_to_row(values, P128)
    assert np.all(np.diff(rows) >= 0)


def test_encode_columns_are_one_hot():
    series = from_1d(np.linspace(-4, 4, 200))
    image = encode(series, P128)
    assert np.array_equal(image.grid.sum(axis=1), np.ones((1, 200), dtype=np.uint64))


def test_encode_rejects_non_finite():
    with pytest.raises(InputError):
        value_to_row(np.array([np.nan]), P128)


def test_encode_missing_becomes_zero_column():
    series = TimeSeries(np.array([[0.5, 1.0, 2.0]]), np.array([[False, True, False]]))
    image = encode(series, P128)
    assert image.grid[0, :, 1].sum() == 0
    assert image.grid[0, :, 0].sum() == 1


# ---------------------------------------------------------------- decoding


def test_decode_cell_centers():
    assert decode(one_hot_image(63, P128)).values[0, 0] == -0.02734375
    assert decode(one_hot_image(127, P128)).values[0, 0] == 3.47265625
    two = SpaceParams(h=2, ms=1.0)
    assert decode(one_hot_image(0, two)).values[0, 0] == -0.5
    assert decode(one_hot_image(1, two)).values[0, 0] == 0.5


def test_decode_rejects_structural_violations():
    grid = np.zeros((1, 8, 2), dtype=np.uint8)
    grid[0, 1, 0] = 1
    grid[0, 2, 0] = 1
    grid[0, 0, 1] = 1
    with pytest.raises(StructuralError):
        decode(BinaryImageTensor(grid, SpaceParams(h=8, ms=1.0)))

    empty = np.zeros((1, 8, 1), dtype=np.uint8)
    with pytest.raises(StructuralError):
        decode(BinaryImageTensor(empty, SpaceParams(h=8, ms=1.0)))


def test_decode_missing_columns_when_allowed():
    grid = np.zeros((1, 8, 3), dtype=np.uint8)
    grid[0, 4, 0] = 1
    grid[0, 2, 2] = 1
    out = decode(BinaryImageTensor(grid, SpaceParams(h=8, ms=1.0)), allow_missing=True)
    assert out.missing is not None
    assert out.missing[0].tolist() == [False, True, False]


@pytest.mark.parametrize("params", [SpaceParams(128, 3.5), SpaceParams(32, 2.1)])
def test_roundtrip_error_within_half_cell(params):
    rng = np.random.default_rng(99)
    s = rng.uniform(-params.ms, params.ms, 100_000)
    err = np.abs(quantize_values(s, params) - s)
    assert np.max(err) <= params.ms / params.h


def test_saturation_reconstruction_is_edge_cell_center():
    for params in (SpaceParams(128, 3.5), SpaceParams(32, 2.1)):
        centers = params.centers()
        for s in (params.ms, params.ms + 0.1, params.ms * 10):
            assert quantize_values(np.array(s), params) == centers[-1]
            assert quantize_values(np.array(-s), params) == centers[0]
        assert abs(centers[-1] - (params.ms - params.ms / params.h)) < 1e-12
        assert abs(centers[0] - (-params.ms + params.ms / params.h)) < 1e-12


def test_roundtrip_matches_decode_of_encode():
    series = from_1d(np.linspace(-4, 4, 333))
    direct = quantize_values(series.values, P128)
    via_image = decode(encode(series, P128)).values
    assert np.array_equal(direct, via_image)


# ---------------------------------------------------------------- soft decode


def test_soft_decode_matches_decode_on_one_hot():
    image = one_hot_image(np.array([5, 63, 127]), P128)
    soft = SoftImageTensor(image.grid.astype(float), P128)
    assert np.array_equal(soft_decode(soft).values, decode(image).values)


def test_soft_decode_uniform_column_is_zero():
    for params in (SpaceParams(16, 1.0), SpaceParams(128, 3.5), SpaceParams(7, 2.0)):
        soft = soft_column(np.ones(params.h), params)
        assert abs(soft_decode(soft).values[0, 0]) < 1e-12


def test_soft_decode_two_equal_masses_average_to_midpoint():
    params = SpaceParams(h=32, ms=2.0)
    centers = params.centers()
    weights = np.zeros(32)
    weights[10] = 0.5
    weights[12] = 0.5
    expected = 0.5 * centers[10] + 0.5 * centers[12]  # midpoint = centers[11]
    out = soft_decode(soft_column(weights, params)).values[0, 0]
    assert out == pytest.approx(expected, abs=1e-12)
    assert out == pytest.approx(centers[11], abs=1e-12)


def test_soft_decode_rejects_unnormalized_columns():
    params = SpaceParams(h=4, ms=1.0)
    bad = SoftImageTensor(np.full((1, 4, 1), 0.3), params)
    with pytest.raises(InputError):
        soft_decode(bad)


# ---------------------------------------------------------------- emd


def transport_lp(a, b):
    """Minimum-cost coupling by linear program (independent oracle)."""
    h = a.size
    cost = np.abs(np.subtract.outer(np.arange(h), np.arange(h))).astype(float).ravel()
    row_sums = np.kron(np.eye(h), np.ones((1, h)))
    col_sums = np.tile(np.eye(h), (1, h))
    res = linprog(
        cost,
        A_eq=np.vstack([row_sums, col_sums]),
        b_eq=np.concatenate([a, b]),
        bounds=(0, None),
        method="highs",
    )
    assert res.status == 0
    return res.fun


def test_emd_identity():
    rng = np.random.default_rng(5)
    grid = rng.uniform(0.1, 1.0, (2, 16, 7))
    grid /= grid.sum(axis=1, keepdims=True)
    soft = SoftImageTensor(grid, SpaceParams(16, 1.0))
    assert emd(soft, soft) == 0.0


def test_emd_between_point_masses_is_row_distance():
    params = SpaceParams(h=32, ms=1.0)
    a = one_hot_image(10, params)
    b = one_hot_image(20, params)
    assert emd(a, b) == 10.0


def test_emd_matches_bruteforce_coupling():
    params = SpaceParams(h=8, ms=1.0)
    rng = np.random.default_rng(7)
    for _ in range(300):
        a = rng.uniform(0.0, 1.0, 8) + 1e-9
        b = rng.uniform(0.0, 1.0, 8) + 1e-9
        a /= a.sum()
        b /= b.sum()
        closed = emd(soft_column(a, params), soft_column(b, params))
        assert closed == pytest.approx(transport_lp(a, b), abs=1e-9)


def test_emd_metric_axioms():
    rng = np.random.default_rng(8)
    for h in range(4, 9):
        params = SpaceParams(h=h, ms=1.0)
        for _ in range(100):
            cols = rng.uniform(0.0, 1.0, (3, h)) + 1e-9
            cols /= cols.sum(axis=1, keepdims=True)
            a, b, c = (soft_column(col, params) for col in cols)
            dab, dba = emd(a, b), emd(b, a)
            assert dab >= 0.0
            assert dab == dba
            assert emd(a, c) <= dab + emd(b, c) + 1e-12


def test_emd_agrees_with_weighted_wasserstein():
    # second independent route: scipy's distributional distance over row
    # indices weighted by the column masses
    from scipy.stats import wasserstein_distance

    rng = np.random.default_rng(88)
    for h in (4, 8, 16):
        params = SpaceParams(h=h, ms=1.0)
        rows = np.arange(h, dtype=float)
        for _ in range(100):
            a = rng.uniform(0.0, 1.0, h) + 1e-9
            b = rng.uniform(0.0, 1.0, h) + 1e-9
            a /= a.sum()
            b /= b.sum()
            reference = wasserstein_distance(rows, rows, a, b)
            assert emd(soft_column(a, params), soft_column(b, params)) == pytest.approx(reference, abs=1e-9)


def test_emd_rejects_mismatched_shapes():
    params = SpaceParams(h=8, ms=1.0)
    with pytest.raises(InputError):
        emd(one_hot_image(1, params), one_hot_image(1, SpaceParams(h=8, ms=2.0)))
    with pytest.raises(InputError):
        emd(one_hot_image(1, params), one_hot_image(np.array([1, 2]), params))


def test_emd_sums_over_channels_and_columns():
    params = SpaceParams(h=16, ms=1.0)
    grid_a = np.zeros((2, 16, 2), dtype=np.uint8)
    grid_b = np.zeros((2, 16, 2), dtype=np.uint8)
    distances = [(0, 3), (2, 7), (10, 10), (1, 5)]  # per (channel, column)
    k = 0
    for ch in range(2):
        for col in range(2):
            ra, rb = distances[k]
            grid_a[ch, ra, col] = 1
            grid_b[ch, rb, col] = 1
            k += 1
    expected = sum(abs(ra - rb) for ra, rb in distances)
    assert emd(BinaryImageTensor(grid_a, params), BinaryImageTensor(grid_b, params)) == expected


# ---------------------------------------------------------------- kld / loss


def test_kld_zero_on_identical():
    rng = np.random.default_rng(9)
    grid = rng.uniform(0.1, 1.0, (1, 8, 4))
    grid /= grid.sum(axis=1, keepdims=True)
    soft = SoftImageTensor(grid, SpaceParams(8, 1.0))
    assert kld(soft, soft) == 0.0


def test_kld_one_hot_versus_uniform_closed_form():
    params = SpaceParams(h=4, ms=1.0)
    p = soft_column([1.0, 0.0, 0.0, 0.0], params)
    q = soft_column(np.ones(4), params)
    assert kld(p, q, eps=1e-15) == pytest.approx(np.log(4.0), abs=1e-10)


def test_kld_nonnegative_and_finite():
    params = SpaceParams(h=8, ms=1.0)
    rng = np.random.default_rng(10)
    for _ in range(200):
        a = rng.uniform(0.0, 1.0, 8) + 1e-12
        b = rng.uniform(0.0, 1.0, 8) + 1e-12
        value = kld(soft_column(a / a.sum(), params), soft_column(b / b.sum(), params))
        assert np.isfinite(value)
        assert value >= 0.0
    # disjoint one-hot columns stay finite thanks to smoothing
    p = soft_column([1.0, 0.0, 0.0, 0.0], params=SpaceParams(h=4, ms=1.0))
    q = soft_column([0.0, 0.0, 0.0, 1.0], params=SpaceParams(h=4, ms=1.0))
    assert np.isfinite(kld(p, q))


def test_loss_composition():
    params = SpaceParams(h=16, ms=1.0)
    rng = np.random.default_rng(11)
    for _ in range(100):
        a = rng.uniform(0.0, 1.0, (1, 16, 3)) + 1e-9
        b = rng.uniform(0.0, 1.0, (1, 16, 3)) + 1e-9
        a /= a.sum(axis=1, keepdims=True)
        b /= b.sum(axis=1, keepdims=True)
        pa = SoftImageTensor(a, params)
        pb = SoftImageTensor(b, params)
        assert loss(pa, pb, alpha=0.2) == pytest.approx(emd(pa, pb) + 0.2 * kld(pa, pb), abs=1e-12)
        assert loss(pa, pb, alpha=0.0) == emd(pa, pb)
        assert loss(pa, pa) == 0.0


# ---------------------------------------------------------------- preprocess


def test_preprocess_identity_kernel():
    image = one_hot_image(np.arange(10, 50), P128)
    out = preprocess(image, blur_kernel=(1, 1))
    assert np.array_equal(out.grid, image.grid.astype(float))


def test_preprocess_rejects_even_kernel():
    image = one_hot_image(5, P128)
    with pytest.raises(ConfigurationError):
        preprocess(image, blur_kernel=(30, 31))
    with pytest.raises(ConfigurationError):
        preprocess(image, blur_kernel=(31, 0))


def test_preprocess_columns_sum_to_one():
    rng = np.random.default_rng(12)
    rows = rng.integers(0, 128, 64)
    out = preprocess(one_hot_image(rows, P128))
    sums = out.grid.sum(axis=1)
    assert np.max(np.abs(sums - 1.0)) < 1e-9


def test_preprocess_preserves_interior_argmax():
    for row in range(15, 113):
        image = one_hot_image(np.array([row]), P128)
        out = preprocess(image)
        assert int(np.argmax(out.grid[0, :, 0])) == row


def test_blurred_soft_decode_tracks_hard_decode():
    t = np.arange(512)
    series = from_1d(2.0 * np.sin(2 * np.pi * t / 256.0))
    hard = decode(encode(series, P128)).values
    soft = soft_decode(preprocess(encode(series, P128))).values
    bin_width = P128.bin_width
    # stay clear of the grid borders on both axes: the truncated kernel
    # biases columns within its radius of either sequence end
    interior = np.abs(hard[0]) < P128.ms - 16 * bin_width
    interior[:16] = False
    interior[-16:] = False
    assert np.max(np.abs(soft[0][interior] - hard[0][interior])) <= 2.0 * bin_width


def test_encode_preprocessed_doubles_length():
    series = from_1d(np.sin(np.arange(100) / 7.0))
    out = encode_preprocessed(series, P128)
    assert out.grid.shape == (1, 128, 200)
    assert np.max(np.abs(out.grid.sum(axis=1) - 1.0)) < 1e-9


# ----------------------------------- active-row paths vs the dense references


def reference_preprocess(image, blur_kernel, blur_sigma=None):
    """The dense blur: convolve the float grid down the rows, then along time."""
    out = image.grid.astype(np.float64)
    weights = [np.ones(out.shape[1]), np.ones(out.shape[2])]
    for axis, size in ((1, blur_kernel[0]), (2, blur_kernel[1])):
        if size > 1:
            sigma = blur_sigma if blur_sigma is not None else size / 6.0
            x = np.arange(-(size // 2), size // 2 + 1, dtype=np.float64)
            kernel = np.exp(-0.5 * (x / sigma) ** 2)
            kernel /= kernel.sum()
            out = convolve1d(out, kernel, axis=axis, mode="constant", cval=0.0)
            weights[axis - 1] = convolve1d(weights[axis - 1], kernel, mode="constant", cval=0.0)
    out = out / (weights[0][None, :, None] * weights[1][None, None, :])
    return out / out.sum(axis=1, keepdims=True)


def reference_emd(ga, gb):
    return float(np.abs(np.cumsum(ga, axis=1) - np.cumsum(gb, axis=1)).sum())


def reference_kld(gp, gq, eps=1e-8):
    h = gp.shape[1]
    ps = (gp + eps) / (gp.sum(axis=1, keepdims=True) + h * eps)
    qs = (gq + eps) / (gq.sum(axis=1, keepdims=True) + h * eps)
    return float(np.sum(ps * np.log(ps / qs)))


@st.composite
def binary_images(draw, max_h=160, max_length=48):
    channels = draw(st.integers(1, 3))
    h = draw(st.integers(2, max_h))
    rows = draw(arrays(np.int64, (channels, draw(st.integers(1, max_length))), elements=st.integers(0, h - 1)))
    grid = np.zeros((channels, h, rows.shape[1]), dtype=np.uint8)
    np.put_along_axis(grid, rows[:, None, :], 1, axis=1)
    return BinaryImageTensor(grid, SpaceParams(h=h, ms=1.0))


@st.composite
def binary_and_soft(draw):
    """A binary grid and a soft grid of the same shape with spread-out columns."""
    binary = draw(binary_images())
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = g.random(binary.grid.shape)
    weights[g.random(weights.shape) < draw(st.sampled_from([0.0, 0.5, 0.9]))] = 0.0
    np.put_along_axis(weights, g.integers(0, binary.params.h, (binary.channels, 1, binary.length)), 1.0, axis=1)
    return binary, SoftImageTensor(weights / weights.sum(axis=1, keepdims=True), binary.params)


odd_sizes = st.integers(0, 40).map(lambda n: 2 * n + 1)


@settings(max_examples=200, deadline=None)
@given(
    image=binary_images(),
    kernel=st.one_of(st.just((1, 1)), st.tuples(st.just(1), odd_sizes), st.tuples(odd_sizes, odd_sizes)),
    sigma=st.one_of(st.none(), st.floats(0.2, 10.0)),
)
def test_preprocess_matches_dense_reference(image, kernel, sigma):
    assert np.array_equal(preprocess(image, kernel, sigma).grid, reference_preprocess(image, kernel, sigma))


@settings(max_examples=200, deadline=None)
@given(pair=binary_and_soft())
def test_binary_operand_metrics_match_dense_reference(pair):
    binary, soft = pair
    dense = binary.grid.astype(np.float64)
    for a, b, ga, gb in ((soft, binary, soft.grid, dense), (binary, soft, dense, soft.grid)):
        want_emd, want_kld = reference_emd(ga, gb), reference_kld(ga, gb)
        assert emd(a, b) == pytest.approx(want_emd, rel=1e-12, abs=0.0)
        assert kld(a, b) == pytest.approx(want_kld, rel=1e-12, abs=0.0)
        assert loss(a, b) == pytest.approx(want_emd + 0.2 * want_kld, rel=1e-12, abs=0.0)
        assert loss(a, b) == emd(a, b) + 0.2 * kld(a, b)
    assert emd(soft, binary) == emd(binary, soft)


@settings(max_examples=100, deadline=None)
@given(a=binary_images(max_h=16, max_length=8), seed=st.integers(0, 2**32 - 1))
def test_binary_binary_emd_is_row_distance_and_symmetric(a, seed):
    rows = np.random.default_rng(seed).integers(0, a.params.h, (a.channels, a.length))
    grid = np.zeros_like(a.grid)
    np.put_along_axis(grid, rows[:, None, :], 1, axis=1)
    b = BinaryImageTensor(grid, a.params)
    assert emd(a, b) == emd(b, a) == reference_emd(a.grid.astype(float), grid.astype(float))
    assert kld(a, b) == pytest.approx(reference_kld(a.grid.astype(float), grid.astype(float)), rel=1e-12, abs=0.0)


@settings(max_examples=100, deadline=None)
@given(binary=binary_images())
def test_one_hot_soft_copy_scores_zero_against_binary_original(binary):
    soft = SoftImageTensor(binary.grid.astype(np.float64), binary.params)
    for a, b in ((soft, binary), (binary, soft), (binary, binary)):
        assert emd(a, b) == 0.0
        assert kld(a, b) == 0.0
        assert loss(a, b) == 0.0


@pytest.mark.parametrize("defect", ["non-one-hot", "multi-hot", "missing"])
def test_binary_operands_reject_bad_columns(defect):
    params = SpaceParams(h=8, ms=1.0)
    good = one_hot_image(np.array([1, 4, 6]), params)
    grid = good.grid.copy()
    if defect == "non-one-hot":
        grid[0, 4, 1] = 2
    elif defect == "multi-hot":
        grid[0, 0, 1] = 1
    else:
        grid[0, :, 1] = 0
    bad = BinaryImageTensor(grid, params)
    soft = SoftImageTensor(good.grid.astype(np.float64), params)
    message = "columns must each sum to 1 within 1e-09"
    with pytest.raises(InputError, match=f"preprocess input {message}"):
        preprocess(bad)
    for metric in (emd, kld, loss):
        for other in (good, soft):
            with pytest.raises(InputError, match=f"left grid {message}"):
                metric(bad, other)
            with pytest.raises(InputError, match=f"right grid {message}"):
                metric(other, bad)


# ------------------------------------------------- geometric regularization


def test_pointwise_perturbation_bounds_row_shift():
    params = P128
    rng = np.random.default_rng(13)
    cfg = GeneratorConfig(length=128)
    for i in range(100):
        series = sample_series(cfg, RngStream(900, i))
        x, _ = normalize(series, series.length)
        eps = float(rng.uniform(0.01, 0.5))
        delta = rng.uniform(-eps, eps, x.values.shape)
        rows = value_to_row(x.values, params)
        rows_shifted = value_to_row(x.values + delta, params)
        limit = int(eps * params.h / (2 * params.ms)) + 1
        assert np.max(np.abs(rows_shifted - rows)) <= limit
        # one-hot columns differ in at most two cells
        a = encode(x, params).grid
        b = encode(TimeSeries(x.values + delta), params).grid
        assert np.max(np.abs(a.astype(int) - b.astype(int)).sum(axis=1)) <= 2


def test_step_bound_limits_adjacent_column_jumps():
    params = P128
    cfg = GeneratorConfig(length=128)
    for i in range(100):
        series = sample_series(cfg, RngStream(901, i))
        x, _ = normalize(series, series.length)
        step = float(np.max(np.abs(np.diff(x.values[0]))))
        if step == 0.0:
            continue
        rows = value_to_row(x.values[0], params)
        limit = int(step * params.h / (2 * params.ms)) + 1
        assert np.max(np.abs(np.diff(rows))) <= limit


# ---------------------------------------------------------- spectral check


def test_reconstruction_spectrum_error_shrinks_with_resolution():
    cfg = GeneratorConfig(length=256)
    agree = 0
    total = 30
    for i in range(total):
        series = sample_series(cfg, RngStream(902, i))
        z, _ = normalize(series, series.length)
        errors = []
        for h in (32, 64, 128, 256):
            params = SpaceParams(h=h, ms=3.5)
            recon = quantize_values(z.values[0], params)
            errors.append(np.max(np.abs(np.fft.rfft(recon) - np.fft.rfft(z.values[0]))))
        if all(errors[j + 1] <= errors[j] for j in range(3)):
            agree += 1
    assert agree >= int(0.9 * total)
