import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.ndimage import convolve1d
from scipy.optimize import linprog

from tsgrid import (
    BinaryImageTensor,
    GeneratorConfig,
    InputError,
    LookbackOverflow,
    RngStream,
    SoftImageTensor,
    SpaceParams,
    StructuralError,
    TimeSeries,
    TsgridError,
    decode,
    emd,
    encode,
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
from tsgrid import imagespace
from tsgrid.imagespace import NormStats, _emd, _kld, decode_rows, denormalize

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


def test_normalize_names_the_channel_whose_lookback_statistics_overflow():
    values = np.full((3, 20), 5.0)
    values[1, 12:] = 1e300  # inside the lookback: its square overflows
    values[2, 16:] = -1e200  # would overflow too, but lies past the lookback
    with pytest.raises(LookbackOverflow, match=r"^channel 1: lookback statistics overflow float64$") as info:
        normalize(TimeSeries(values), 16)
    assert info.value.channel == 1
    assert isinstance(info.value, InputError)
    normalize(TimeSeries(values[[0, 2]]), 16)


def test_normalize_takes_its_statistics_over_observed_lookback_samples():
    x = np.array([4.0, np.nan, 6.0, np.nan, 5.0, 100.0, np.nan])
    out, stats = normalize(from_1d(x), 5)
    assert (stats.mean[0], stats.std[0]) == (np.mean([4.0, 6.0, 5.0]), np.std([4.0, 6.0, 5.0]))
    assert np.array_equal(np.isnan(out.values[0]), np.isnan(x))
    assert out.values[0, 5] == (100.0 - stats.mean[0]) / stats.std[0]


def test_normalize_gives_a_lookback_with_no_observed_sample_the_floor():
    # what a 0.0 placeholder in every gap gave: mean 0.0, a floored std, and no error
    values = np.array([[np.nan, np.nan, np.nan, 2e-8], [1.0, 3.0, np.nan, 5.0]])
    out, stats = normalize(TimeSeries(values), 3)
    assert stats.mean.tolist() == [0.0, 2.0] and stats.std.tolist() == [1e-8, 1.0]
    assert stats.floored.tolist() == [True, False]
    assert np.array_equal(out.values, [[np.nan, np.nan, np.nan, 2.0], [-1.0, 1.0, np.nan, 3.0]], equal_nan=True)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_observed_statistics_of_a_gap_free_row_are_numpys(data):
    # a block with a gap takes the count-based statistics: its gap-free rows get numpy's bits
    rows, length = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 600))
    window = data.draw(arrays(np.float64, (rows, length), elements=st.floats(-1e6, 1e6)))
    missing = data.draw(arrays(np.bool_, (rows, length)))
    missing[0] = data.draw(st.booleans())  # a gap-free or an all-missing row
    window[missing] = np.nan
    mean, std = imagespace._observed_stats(window)
    for i, row in enumerate(window):
        observed = row[~np.isnan(row)]
        if observed.size == 0:
            assert (mean[i], std[i]) == (0.0, 0.0)
        elif observed.size == length:
            assert (mean[i], std[i]) == (row.mean(), row.std())
        else:
            assert mean[i] == pytest.approx(observed.mean(), rel=1e-12, abs=1e-9)
            assert std[i] == pytest.approx(observed.std(), rel=1e-9, abs=1e-6)


def test_normalize_rejects_bad_lookback():
    with pytest.raises(InputError):
        normalize(from_1d([1.0, 2.0]), 3)
    with pytest.raises(InputError):
        normalize(from_1d([1.0, 2.0]), 0)


def test_denormalize_names_the_channel_whose_values_overflow():
    # -1 * 1e308 + 1e308 is 0, while 1e308 + 1e308 overflows in the add and 3 * 1e308 in the multiply
    stats = NormStats(mean=np.array([0.0, 1e308, 1e308]), std=np.array([1.0, 1e308, 1e308]), floored=np.zeros(3, bool))
    values = np.array([[3.0, 3.0], [-1.0, -1.0], [1.0, 3.0]])
    with pytest.raises(InputError, match=r"^channel 2: denormalized values overflow float64$"):
        denormalize(TimeSeries(values), stats)
    first_two = NormStats(mean=stats.mean[:2], std=stats.std[:2], floored=stats.floored[:2])
    assert denormalize(TimeSeries(values[:2]), first_two).values.tolist() == [[3.0, 3.0], [0.0, 0.0]]


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


def masked_value_to_row(values, params):
    """Reference: the cell quotient's ceiling, clipped as int64 rows, with both edges assigned by mask."""
    flat = np.atleast_1d(np.asarray(values, dtype=np.float64))
    with np.errstate(invalid="ignore"):  # a huge quotient's cast is undefined; the masks overwrite it
        rows = np.ceil((flat + params.ms) / params.bin_width).astype(np.int64) - 1
    np.clip(rows, 0, params.h - 1, out=rows)
    rows[flat >= params.ms] = params.h - 1
    rows[flat <= -params.ms] = 0
    return rows.reshape(np.shape(values))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
@example(data=None)
def test_value_to_row_matches_the_masked_reference(data):
    if data is None:  # huge values, whose int64 cast the clip must come before
        params, values = P128, np.array([1e30, -1e30, 1e300, -1e300, 3.5, -3.5, 0.0])
    else:
        h = data.draw(st.sampled_from([2, 3, 7, 128, 255, 1000]))
        params = SpaceParams(h=h, ms=data.draw(st.floats(1e-3, 1e3)))
        edges = np.arange(params.h + 1) * params.bin_width - params.ms
        special = st.sampled_from([params.ms, -params.ms, *edges, *params.centers()])
        near = special.flatmap(lambda x: st.sampled_from([x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf)]))
        values = np.array(data.draw(st.lists(st.one_of(near, st.floats(-1e300, 1e300)), min_size=1, max_size=40)))
    assert np.array_equal(value_to_row(values, params), masked_value_to_row(values, params))


@pytest.mark.parametrize("h", [2, 128])
def test_value_to_row_saturates_the_largest_floats_without_a_warning(h):
    # runs under the suite's error::RuntimeWarning filter: an overflowing quotient must not warn
    params = SpaceParams(h=h, ms=3.5)
    top = np.finfo(np.float64).max
    rows = value_to_row(np.array([1.7e308, top, -1.7e308, -top]), params)
    assert rows.tolist() == [h - 1, h - 1, 0, 0]


def test_encode_columns_are_one_hot():
    series = from_1d(np.linspace(-4, 4, 200))
    image = encode(series, P128)
    assert np.array_equal(image.grid.sum(axis=1), np.ones((1, 200), dtype=np.uint64))


def test_encode_rejects_non_finite():
    with pytest.raises(InputError):
        value_to_row(np.array([np.nan]), P128)


def test_encode_missing_becomes_zero_column():
    series = TimeSeries(np.array([[0.5, np.nan, 2.0]]))
    image = encode(series, P128)
    assert image.grid[0, :, 1].sum() == 0
    assert image.grid[0, :, 0].sum() == 1
    assert image.rows[0, 1] == -1


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
    assert np.isnan(out.values[0]).tolist() == [False, True, False]


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
    # no columns: the same error as decoding an empty binary grid, as a series has at least one sample
    empty = np.zeros((1, 4, 0))
    for decoder, image in ((soft_decode, SoftImageTensor(empty, params)), (decode, BinaryImageTensor(empty, params))):
        with pytest.raises(InputError, match="at least one channel and one sample"):
            decoder(image)


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
    # smoothing by eps = 1e-8 keeps q uniform and gives p's empty cells eps / (1 + 4 eps) each
    hi, lo = (1.0 + 1e-8) / (1.0 + 4e-8), 1e-8 / (1.0 + 4e-8)
    want = hi * np.log(4.0 * hi) + 3.0 * lo * np.log(4.0 * lo)
    assert kld(p, q) == pytest.approx(want, rel=1e-12, abs=0.0)
    assert want == pytest.approx(np.log(4.0), abs=1e-6)


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


# ----------------------------------- active-row paths vs the dense references


def blur_kernel():
    """31 Gaussian taps with sigma 31 / 6, summing to 1."""
    x = np.arange(-15, 16, dtype=np.float64)
    kernel = np.exp(-0.5 * (x / (31 / 6.0)) ** 2)
    return kernel / kernel.sum()


def blur(array, axis):
    return convolve1d(array, blur_kernel(), axis=axis, mode="constant", cval=0.0)


def reference_preprocess(image):
    """The dense blur: convolve the float grid down the rows, divide each row
    by the kernel mass inside the grid, convolve along time, then divide each
    column by its sum."""
    out = blur(image.grid.astype(np.float64), 1)
    out /= blur(np.ones(out.shape[1]), 0)[None, :, None]
    out = blur(out, 2)
    return out / out.sum(axis=1, keepdims=True)


def two_sided_preprocess(image):
    """The blur with a two-sided renormalization: both convolutions, a division
    by the row and the time kernel mass inside the grid, then by each column's
    sum.  The time-mass division is a per-column factor that the column sum
    cancels, so this differs from :func:`preprocess` by rounding only."""
    out = blur(blur(image.grid.astype(np.float64), 1), 2)
    weight_rows, weight_cols = blur(np.ones(out.shape[1]), 0), blur(np.ones(out.shape[2]), 0)
    out = out / (weight_rows[None, :, None] * weight_cols[None, None, :])
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


def codec_shaped_image(index, length=512):
    """A normalized generated series on the default grid, as the training loss sees it."""
    series = sample_series(GeneratorConfig(length=length), RngStream(903, index))
    return encode(normalize(series, 256)[0], P128)


def assert_rounding_only(got, ref):
    """Same zero pattern, and every entry within 32 eps relative of the reference."""
    assert np.array_equal(got == 0, ref == 0)
    assert np.all(np.abs(got - ref) <= 32 * np.finfo(np.float64).eps * ref)


@settings(max_examples=200, deadline=None)
@given(image=st.one_of(binary_images(), st.integers(0, 15).map(codec_shaped_image)))
@example(image=codec_shaped_image(0))
def test_preprocess_matches_dense_reference(image):
    # the row-blur table times the time-blurred one-hot grid sums in another
    # order than the scipy convolutions, so only the rounding may differ
    assert_rounding_only(preprocess(image).grid, reference_preprocess(image))


@settings(max_examples=200, deadline=None)
@given(image=st.one_of(binary_images(), st.integers(0, 15).map(codec_shaped_image)))
@example(image=codec_shaped_image(0))
def test_single_renormalization_moves_preprocess_by_rounding_only(image):
    # a per-column factor cancels in the final column division, so dropping
    # the time-axis mass division changes only the rounding
    assert_rounding_only(preprocess(image).grid, two_sided_preprocess(image))


@pytest.mark.parametrize("channels", [1, 2])
@pytest.mark.parametrize("length", [1, 2, 14, 15, 16, 30, 31, 32])
@pytest.mark.parametrize("h", [2, 15, 16, 17, 31, 32, 33, 128])
def test_preprocess_at_row_block_and_kernel_radius_edges(h, length, channels):
    # h around the 16-row blocks of the row blur and its 15-row radius, length
    # around the time radius, where some kernel offsets reach no column at all
    rows = np.random.default_rng([h, length, channels]).integers(0, h, (channels, 1, length))
    grid = np.zeros((channels, h, length), dtype=np.uint8)
    np.put_along_axis(grid, rows, 1, axis=1)
    image = BinaryImageTensor(grid, SpaceParams(h=h, ms=1.0))
    assert_rounding_only(preprocess(image).grid, reference_preprocess(image))


def full_table_preprocess(image):
    """The row blur as one product with the whole table, ``table @ weights``:
    table[r, a] is tap r - a divided by the kernel mass of row r inside the
    grid, and weights is the time-blurred one-hot grid.  Then each column is
    divided by its sum."""
    h, kernel = image.params.h, blur_kernel()
    offset = np.arange(h)[:, None] - np.arange(h)
    table = np.where(np.abs(offset) <= 15, kernel[np.clip(offset + 15, 0, 30)], 0.0)
    table /= table.sum(axis=1, keepdims=True)
    out = table @ blur(image.grid.astype(np.float64), 2)
    return out / out.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("index", [0, 1])
def test_banded_row_blur_matches_the_full_table_product_at_codec_size(index):
    image = codec_shaped_image(index, length=4096)
    assert_rounding_only(preprocess(image).grid, full_table_preprocess(image))


@pytest.mark.parametrize("index", [0, 1, 2])
def test_training_loss_at_codec_size_matches_dense_reference(index):
    # 512k cells per grid: the summation order of the binary-target paths at the size the loss step runs
    target = codec_shaped_image(index, length=4096)
    pred = preprocess(target)
    dense = target.grid.astype(np.float64)
    want_emd, want_kld = reference_emd(pred.grid, dense), reference_kld(pred.grid, dense)
    assert emd(pred, target) == pytest.approx(want_emd, rel=1e-12, abs=0.0)
    assert emd(target, pred) == emd(pred, target)
    assert kld(pred, target) == pytest.approx(want_kld, rel=1e-12, abs=0.0)
    assert loss(pred, target) == pytest.approx(want_emd + 0.2 * want_kld, rel=1e-12, abs=0.0)
    assert loss(pred, target) == emd(pred, target) + 0.2 * kld(pred, target)
    one_hot = SoftImageTensor(dense, target.params)
    assert emd(one_hot, target) == kld(one_hot, target) == loss(one_hot, target) == 0.0


def out_of_place_preprocess(image):
    """The banded row blur with a separate output grid: each block of
    ``imagespace._ROW_BLOCK`` output rows is the product of its table rows
    with its band of the untouched time-blurred grid."""
    h, kernel = image.params.h, blur_kernel()
    offset = np.arange(h)[:, None] - np.arange(h)
    table = np.where(np.abs(offset) <= 15, kernel[np.clip(offset + 15, 0, 30)], 0.0)
    table /= table.sum(axis=1, keepdims=True)
    rows = image.rows
    channels, length = rows.shape
    weights = np.zeros(channels * h * length)
    cells = (rows + h * np.arange(channels)[:, None]) * length + np.arange(length)
    for off, tap in enumerate(kernel, -15):
        s0, s1 = max(0, off), min(length, length + off)
        if s0 < s1:
            weights[cells[:, s0:s1] - off] += tap
    weights = weights.reshape(channels, h, length)
    out = np.empty_like(weights)
    for r0 in range(0, h, imagespace._ROW_BLOCK):
        r1 = min(h, r0 + imagespace._ROW_BLOCK)
        a0, a1 = max(0, r0 - 15), min(h, r1 + 15)
        np.matmul(table[r0:r1, a0:a1], weights[:, a0:a1], out=out[:, r0:r1])
    out /= out.sum(axis=1, keepdims=True)
    return out


def test_row_blur_table_is_cached_per_height_and_read_only():
    # a table cached under the wrong height would blur the second 128-row grid with the 64-row table
    for h in (128, 64, 128):
        rows = np.random.default_rng(h).integers(0, h, (2, 40))
        image = BinaryImageTensor._from_rows(rows, SpaceParams(h=h, ms=1.0))
        assert preprocess(image).grid.tobytes() == out_of_place_preprocess(image).tobytes(), h
        table = imagespace._row_blur_table(h)
        assert table.shape == (h, h)
        with pytest.raises(ValueError):
            table[0, 0] = 1.0
    assert imagespace._row_blur_table(128) is imagespace._row_blur_table(128)
    with pytest.raises(ValueError):
        imagespace._BLUR_KERNEL[0] = 1.0


# blocks of 4 and 8 rows are below the 15-row radius: a block is written back
# only after several later blocks have read its rows
@pytest.mark.parametrize("row_block", [16, 4, 8])
@pytest.mark.parametrize("h", [2, 15, 16, 17, 31, 32, 33, 128, 200])
def test_in_place_row_blur_is_bit_identical_to_the_out_of_place_product(monkeypatch, row_block, h):
    monkeypatch.setattr(imagespace, "_ROW_BLOCK", row_block)
    for channels in (1, 2, 3):
        for length in (1, 14, 15, 16, 17, 31, 32):
            rows = np.random.default_rng([h, length, channels, row_block]).integers(0, h, (channels, length))
            image = BinaryImageTensor._from_rows(rows, SpaceParams(h=h, ms=1.0))
            assert preprocess(image).grid.tobytes() == out_of_place_preprocess(image).tobytes(), (channels, length)


@pytest.mark.parametrize("row_block", [16, 4, 8])
def test_in_place_row_blur_is_bit_identical_at_codec_size(monkeypatch, row_block):
    monkeypatch.setattr(imagespace, "_ROW_BLOCK", row_block)
    for index in (0, 1):
        image = codec_shaped_image(index, length=4096)
        assert preprocess(image).grid.tobytes() == out_of_place_preprocess(image).tobytes()
    three = BinaryImageTensor._from_rows(np.concatenate([codec_shaped_image(i).rows for i in range(3)]), P128)
    assert preprocess(three).grid.tobytes() == out_of_place_preprocess(three).tobytes()


@pytest.mark.parametrize("row_block", [16, 4, 8])
@pytest.mark.parametrize("h", [15, 33, 128])
def test_row_blocked_metrics_against_a_binary_grid_match_dense_reference(monkeypatch, row_block, h):
    # h not a multiple of the block leaves a short last block; three channels
    # put every block's active rows in several channels
    monkeypatch.setattr(imagespace, "_ROW_BLOCK", row_block)
    rows = np.random.default_rng([h, row_block]).integers(0, h, (3, 50))
    target = BinaryImageTensor._from_rows(rows, SpaceParams(h=h, ms=1.0))
    pred = preprocess(target)
    dense = target.grid.astype(np.float64)
    want_emd, want_kld = reference_emd(pred.grid, dense), reference_kld(pred.grid, dense)
    assert emd(pred, target) == emd(target, pred) == pytest.approx(want_emd, rel=1e-12, abs=0.0)
    assert kld(pred, target) == pytest.approx(want_kld, rel=1e-12, abs=0.0)
    assert loss(pred, target) == emd(pred, target) + 0.2 * kld(pred, target)
    one_hot = SoftImageTensor(dense, target.params)
    assert emd(one_hot, target) == kld(one_hot, target) == loss(one_hot, target) == 0.0


def traced_peak(fn, *args):
    """The ``tracemalloc`` peak of one call, in bytes above what was held before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("channels", [1, 3])
def test_the_training_loss_step_holds_about_one_grid(channels):
    # the output grid plus two 16-row blocks is 1.25 grids and the metrics hold
    # a few 16-row blocks; an out-of-place blur peaks at 2.1 grids and dense
    # working copies in loss at 2.0
    rows = np.concatenate([codec_shaped_image(i, length=4096).rows for i in range(channels)])
    target = BinaryImageTensor._from_rows(rows, P128)
    grid_bytes = channels * 128 * 4096 * 8
    assert traced_peak(preprocess, target) <= 1.5 * grid_bytes
    pred = preprocess(target)
    assert traced_peak(loss, pred, target) <= 0.5 * grid_bytes


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
@example(binary=BinaryImageTensor(np.zeros((1, 4, 0), dtype=np.uint8), SpaceParams(4, 1.0)))
def test_one_hot_soft_copy_scores_zero_against_binary_original(binary):
    soft = SoftImageTensor(binary.grid.astype(np.float64), binary.params)
    for a, b in ((soft, binary), (binary, soft), (binary, binary), (soft, soft)):
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
    if defect != "missing":
        # a malformed column never reaches an operand: the grid is rejected when built
        message = ENTRY_ABOVE_ONE if defect == "non-one-hot" else SEVERAL_ACTIVE
        with pytest.raises(StructuralError, match=f"^{message}$"):
            BinaryImageTensor(grid, params)
        return
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


@pytest.mark.parametrize("cell", [np.nan, np.inf])
def test_soft_operands_reject_a_non_finite_cell(cell):
    params = SpaceParams(h=8, ms=1.0)
    binary = one_hot_image(np.array([1, 4, 6]), params)
    grid = binary.grid.astype(np.float64)
    grid[0, 3, 1] = cell
    soft = SoftImageTensor(grid, params)
    message = "columns must each sum to 1 within 1e-09"
    for metric in (emd, kld, loss):
        for other in (binary, SoftImageTensor(binary.grid.astype(np.float64), params)):
            with pytest.raises(InputError, match=f"^left grid {message}$"):
                metric(soft, other)
            with pytest.raises(InputError, match=f"^right grid {message}$"):
                metric(other, soft)
    with pytest.raises(InputError, match=f"^soft grid {message}$"):
        soft_decode(soft)


# ------------------------------------------- malformed grids vs the dense checks

ENTRY_ABOVE_ONE = "binary grid entries must be 0 or 1"
SEVERAL_ACTIVE = "some columns have more than one active cell"
NO_ACTIVE = "some columns have no active cell (no missing markers expected)"


def test_decode_names_the_first_structural_defect():
    params = SpaceParams(h=8, ms=1.0)
    good = np.zeros((1, 8, 3), dtype=np.uint8)
    good[0, [1, 4, 6], [0, 1, 2]] = 1
    value_two, two_active, both, apart = good.copy(), good.copy(), good.copy(), good.copy()
    value_two[0, 4, 1] = 2
    two_active[0, 0, 1] = 1
    both[0, 4, 1] = 2  # one column with an entry above 1 and a second active cell
    both[0, 0, 1] = 1
    apart[0, 4, 1] = 2  # the two defects in different columns, plus an empty one
    apart[0, 0, 2] = 1
    apart[0, :, 0] = 0
    emptied = two_active.copy()
    emptied[0, :, 0] = 0
    cases = [(value_two, ENTRY_ABOVE_ONE), (two_active, SEVERAL_ACTIVE), (both, ENTRY_ABOVE_ONE)]
    cases += [(apart, ENTRY_ABOVE_ONE), (emptied, SEVERAL_ACTIVE)]
    for grid, message in cases:
        for allow_missing in (False, True):
            with pytest.raises(StructuralError) as info:
                decode(BinaryImageTensor(grid, params), allow_missing=allow_missing)
            assert str(info.value) == message

    empty = good.copy()
    empty[0, :, 1] = 0
    with pytest.raises(StructuralError) as info:
        decode(BinaryImageTensor(empty, params))
    assert str(info.value) == NO_ACTIVE
    out = decode(BinaryImageTensor(empty, params), allow_missing=True)
    assert np.array_equal(out.values, [[params.centers()[1], np.nan, params.centers()[6]]], equal_nan=True)


@pytest.mark.parametrize(
    "dtype, entry",
    [(np.int64, 256), (np.int64, 257), (np.int64, -1), (np.float64, 0.5), (np.float64, 1.5), (np.float64, np.nan),
     (np.float64, np.inf), (np.float64, -1.0)],
)
def test_entries_the_uint8_cast_would_change_are_bad_entries(dtype, entry):
    # an entry that wraps or truncates to 0 or 1 in uint8 must not pass as an empty or one-hot column
    params = SpaceParams(h=4, ms=1.0)
    grid = np.zeros((1, 4, 2), dtype=dtype)
    grid[0, 1, 0] = 1
    grid[0, 2, 1] = entry
    with pytest.raises(StructuralError, match=f"^{ENTRY_ABOVE_ONE}$"):
        BinaryImageTensor(grid, params)
    grid[0, 2, 1] = 1
    assert BinaryImageTensor(grid, params).rows.tolist() == [[1, 2]]


def test_wide_integer_grid_of_zeros_and_ones_converts():
    grid = np.zeros((1, 4, 3), dtype=np.int64)
    grid[0, [3, 0, 2], [0, 1, 2]] = 1
    grid[0, 2, 2] = 1
    assert BinaryImageTensor(grid, SpaceParams(h=4, ms=1.0)).rows.tolist() == [[3, 0, 2]]


def test_preprocess_rejects_soft_input_by_name():
    soft = SoftImageTensor(np.full((1, 4, 3), 0.25), SpaceParams(h=4, ms=1.0))
    with pytest.raises(InputError, match=r"^preprocess input must be a BinaryImageTensor, got SoftImageTensor$"):
        preprocess(soft)


def dense_decode(grid, params, allow_missing):
    """Reference: decode checked and decoded on the dense grid (max, colsum, argmax)."""
    if grid.max(initial=0) > 1:
        raise StructuralError(ENTRY_ABOVE_ONE)
    colsums = grid.sum(axis=1)
    if np.any(colsums > 1):
        raise StructuralError(SEVERAL_ACTIVE)
    empty = colsums == 0
    if np.any(empty) and not allow_missing:
        raise StructuralError(NO_ACTIVE)
    return decode_rows(np.where(empty, -1, grid.argmax(axis=1)), params)


def dense_rows(grid, what):
    """Reference: a binary operand's rows, checked on the dense grid.

    An integer column sums to 1 only when it is one-hot; on one-hot columns
    the row-weighted sum is the active row.
    """
    if np.any(grid.sum(axis=1) != 1):
        raise InputError(f"{what} columns must each sum to 1 within 1e-09")
    return np.einsum("chl,h->cl", grid, np.arange(grid.shape[1]))


def dense_metric(name, a, b, h):
    """Reference: a metric whose binary operands (uint8 arrays) are checked on the dense grid.

    The transport and KL arithmetic on rows is shared with the library.
    """
    x, y = (
        dense_rows(op, what) if isinstance(op, np.ndarray) else op.grid
        for op, what in ((a, "left grid"), (b, "right grid"))
    )
    if name == "emd":
        return _emd(x, y)
    if name == "kld":
        return _kld(x, y, h)
    return _emd(x, y) + 0.2 * _kld(x, y, h)


def outcome(fn, *args, **kwargs):
    """A call's result, or the type and text of the package error it raised."""
    try:
        result = fn(*args, **kwargs)
    except TsgridError as exc:
        return type(exc), str(exc)
    if isinstance(result, TimeSeries):  # the bytes: a gap's NaN is not equal to itself
        return result.values.shape, result.values.tobytes()
    if isinstance(result, SoftImageTensor):
        return result.grid.tolist()
    return result


@st.composite
def raw_grids(draw):
    """uint8 grids with entries 0-3: one-hot columns, some overwritten by sparse noise."""
    channels, h, length = draw(st.integers(1, 3)), draw(st.integers(2, 40)), draw(st.integers(0, 40))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = np.zeros((channels, h, length), dtype=np.uint8)
    np.put_along_axis(grid, g.integers(0, h, (channels, 1, length)), 1, axis=1)
    noisy = g.random((channels, 1, length)) < draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    density = draw(st.sampled_from([0.02, 0.1, 0.5, 1.0]))
    noise = g.integers(0, 4, grid.shape) * (g.random(grid.shape) < density)
    return np.where(noisy, noise, grid).astype(np.uint8), SpaceParams(h=h, ms=1.0)


@settings(max_examples=100, deadline=None)
@given(
    values=arrays(np.float64, st.tuples(st.integers(1, 3), st.integers(1, 40)), elements=st.floats(-5.0, 5.0)),
    data=st.data(),
)
def test_encoded_rows_survive_the_dense_grid(values, data):
    values[data.draw(arrays(np.bool_, values.shape))] = np.nan
    params = SpaceParams(h=data.draw(st.integers(2, 40)), ms=1.0)
    image = encode(TimeSeries(values), params)
    assert image.grid.shape == (values.shape[0], params.h, values.shape[1])
    assert np.array_equal(BinaryImageTensor(image.grid, params).rows, image.rows)


@settings(max_examples=300, deadline=None)
@given(case=raw_grids(), seed=st.integers(0, 2**32 - 1))
def test_malformed_grids_fail_as_the_dense_checks_do(case, seed):
    grid, params = case
    if grid.max(initial=0) > 1 or np.any(grid.sum(axis=1) > 1):
        # rejected when built, with the text and precedence of the dense decode's checks
        assert outcome(BinaryImageTensor, grid, params) == outcome(dense_decode, grid, params, True)
        return
    image = BinaryImageTensor(grid, params)
    for allow_missing in (False, True):
        assert outcome(decode, image, allow_missing=allow_missing) == outcome(dense_decode, grid, params, allow_missing)
    assert np.array_equal(image.grid, grid)
    assert np.array_equal(BinaryImageTensor(image.grid, params).rows, image.rows)

    def dense_preprocess():
        dense_rows(grid, "preprocess input")
        return SoftImageTensor(reference_preprocess(image), params)

    got, want = outcome(preprocess, image), outcome(dense_preprocess)
    if isinstance(want, list):
        # errors compare exactly, values within the rounding of the scipy reference
        assert isinstance(got, list), got
        assert_rounding_only(np.array(got), np.array(want))
    else:
        assert got == want

    g = np.random.default_rng(seed)
    weights = g.random(grid.shape) + 0.01
    soft = SoftImageTensor(weights / weights.sum(axis=1, keepdims=True), params)
    one_hot = np.zeros_like(grid)
    np.put_along_axis(one_hot, g.integers(0, params.h, (grid.shape[0], 1, grid.shape[2])), 1, axis=1)
    # each operand as the library sees it and as the dense reference sees it
    operands = [((soft, soft), (image, grid)), ((BinaryImageTensor(one_hot, params), one_hot), (image, grid))]
    operands += [(right, left) for left, right in operands]
    for name, metric in (("emd", emd), ("kld", kld), ("loss", loss)):
        for (a, dense_a), (b, dense_b) in operands:
            assert outcome(metric, a, b) == outcome(dense_metric, name, dense_a, dense_b, params.h)


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
