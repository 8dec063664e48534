import csv
import math
import os
import stat
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsgrid import (
    BinaryImageTensor,
    InputError,
    SpaceParams,
    StructuralError,
    TimeSeries,
    encode,
    from_1d,
    normalize,
)
from tsgrid.evaluation import ReportRow
from tsgrid.imagespace import STD_FLOOR, NormStats, decode, denormalize
from tsgrid.io import (
    _fmt,
    _parse_plain,
    atomic_write,
    decoded_series_csv,
    read_image,
    read_meta,
    read_pgm,
    read_series_csv,
    write_image,
    write_manifest_csv,
    write_meta,
    write_pgm,
    write_report_csv,
    write_series_csv,
)


def test_series_csv_roundtrip(tmp_path):
    g = np.random.default_rng(0)
    values = g.uniform(-100, 100, (3, 64))
    missing = g.uniform(size=(3, 64)) < 0.2
    series = TimeSeries(np.where(missing, np.nan, values))
    path = tmp_path / "series.csv"
    write_series_csv(path, series)
    assert path.read_text(encoding="utf-8").count(",,") > 0  # a gap is an empty field
    back = read_series_csv(path)
    assert back.values.shape == (3, 64)
    assert np.array_equal(np.isnan(back.values), missing)
    observed = ~missing
    assert np.allclose(back.values[observed], values[observed], rtol=1e-8)


def test_series_csv_significant_digits(tmp_path):
    path = tmp_path / "digits.csv"
    write_series_csv(path, from_1d([0.123456789123456]))
    text = path.read_text(encoding="utf-8")
    assert "0.123456789" in text
    assert "0.1234567891" not in text
    assert text.splitlines()[0] == "t,ch0"
    assert "\r" not in text


def test_series_csv_accepts_timestamp_index(tmp_path):
    path = tmp_path / "ett.csv"
    path.write_text(
        "date,HUFL,HULL\n2016-07-01 00:00:00,5.827,2.009\n2016-07-01 01:00:00,5.693,2.076\n", encoding="utf-8"
    )
    series = read_series_csv(path)
    assert series.values.shape == (2, 2)
    assert series.values[0, 0] == pytest.approx(5.827)


def test_series_csv_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,ch0\n0,hello\n", encoding="utf-8")
    with pytest.raises(InputError):
        read_series_csv(path)
    with pytest.raises(InputError):
        read_series_csv(tmp_path / "does-not-exist.csv")
    empty = tmp_path / "empty.csv"
    empty.write_text("t,ch0\n", encoding="utf-8")
    with pytest.raises(InputError):
        read_series_csv(empty)


def test_text_that_is_not_utf8_is_named(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes("t,Höhe\n0,1\n".encode("latin-1"))
    with pytest.raises(InputError) as info:
        read_series_csv(path)
    assert str(info.value).startswith(f"{path}: 'utf-8' codec can't decode byte 0xf6 in position 3")
    meta = tmp_path / "latin1.meta"
    meta.write_bytes("h = 8\n# Höhe\n".encode("latin-1"))
    with pytest.raises(InputError) as info:
        read_meta(meta)
    assert str(info.value).startswith(f"{meta}: 'utf-8' codec can't decode byte 0xf6 in position 9")


def test_series_csv_names_the_line_of_a_bad_cell(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,ch0,ch1\n0,1,2\n\n1,,3\n2, x ,4\n", encoding="utf-8")
    with pytest.raises(InputError) as info:
        read_series_csv(path)
    assert str(info.value) == f"{path}:5: non-numeric value 'x'"
    path.write_text("t,ch0\n0,1\n1,2,3\n", encoding="utf-8")
    with pytest.raises(InputError) as info:
        read_series_csv(path)
    assert str(info.value) == f"{path}:3: row has 3 fields, expected 2"


@pytest.mark.parametrize("cell", ["nan", "NaN", " inf", "-inf", "1e400", "-Infinity"])
@pytest.mark.parametrize("gappy", [False, True], ids=["gap-free", "gappy"])
def test_series_csv_names_the_line_of_a_non_finite_cell(tmp_path, cell, gappy):
    # an infinite cell is an error that names its line; a NaN cell is a gap
    path = tmp_path / "bad.csv"
    path.write_text(f"t,ch0,ch1\n0,1,2\n1,{'' if gappy else 5},3\n2,{cell},4\n", encoding="utf-8")
    if "nan" in cell.lower():
        assert np.array_equal(read_series_csv(path).values[0], [1.0, np.nan if gappy else 5.0, np.nan], equal_nan=True)
        return
    with pytest.raises(InputError) as info:
        read_series_csv(path)
    assert str(info.value) == f"{path}:4: non-finite value {cell.strip()!r}"


@pytest.mark.parametrize("cell", ["", "nan", "NaN", "-nan", "NA", " NA "])
def test_every_gap_token_reads_as_nan_on_both_readers(tmp_path, cell):
    for name, line_end in (("lf", "\n"), ("crlf", "\r\n")):  # numpy's reader, then the csv path
        path = tmp_path / f"{name}.csv"
        path.write_text(f"t,ch0,ch1{line_end}0,{cell},1{line_end}1,2,{cell}{line_end}", encoding="utf-8", newline="")
        back = read_series_csv(path)
        assert np.isnan(back.values).tolist() == [[True, False], [False, True]]
        assert back.values[0, 1] == 2.0 and back.values[1, 0] == 1.0


def test_series_csv_parses_padded_and_blank_cells_like_the_cell_parser(tmp_path):
    cells = [" 1.5", "2.25 ", "\t-3e-5", "1e308", "-0.0", "5e-324", "1_000"]
    for column in (cells, cells + ["  "], cells + [""]):
        path = tmp_path / "padded.csv"
        path.write_text("t,ch0\n" + "".join(f"{t},{c}\n" for t, c in enumerate(column)), encoding="utf-8")
        back = read_series_csv(path)
        gap = [not c.strip() for c in column]
        expected = np.array([np.nan if g else float(c) for c, g in zip(column, gap)])
        assert np.array_equal(back.values[0], expected, equal_nan=True)
        assert np.array_equal(np.signbit(back.values[0]), np.signbit(expected))


def reference_write_series_csv(path, series):
    """Reference: the per-cell ``csv.writer`` series writer."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["t"] + [f"ch{i}" for i in range(series.channels)])
        for t in range(series.length):
            row = [str(t)]
            for i in range(series.channels):
                if np.isnan(series.values[i, t]):
                    row.append("")
                else:
                    row.append(_fmt(series.values[i, t]))
            writer.writerow(row)


@st.composite
def gappy_series(draw):
    channels = draw(st.integers(1, 4))
    length = draw(st.integers(1, 600))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (channels, length)
    values = np.where(g.random(shape) < 0.5, -1.0, 1.0) * 10.0 ** g.uniform(-300, 300, shape)
    specials = np.array([0.0, -0.0, 5e-324, 1e16, 999999999.5, -1e-300, 1e300])
    sprinkle = g.random(shape) < 0.1
    values[sprinkle] = g.choice(specials, size=int(sprinkle.sum()))
    if draw(st.booleans()):
        return TimeSeries(values)
    missing = g.random(shape) < draw(st.sampled_from([0.0, 0.1, 0.5, 0.9]))
    missing[:, g.integers(length)] = True  # a fully-missing row
    if draw(st.booleans()):
        missing[g.integers(channels)] = True  # a fully-missing channel
    missing[:, 0] |= draw(st.booleans())
    missing[:, -1] |= draw(st.booleans())
    values[missing] = np.nan
    return TimeSeries(values)


@settings(max_examples=80, deadline=None)
@given(series=gappy_series())
def test_series_csv_matches_reference_writer(series):
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
        write_series_csv(got, series)
        reference_write_series_csv(want, series)
        assert got.read_bytes() == want.read_bytes()
        back = read_series_csv(got)
    expected = np.array([float(_fmt(v)) for v in series.values.ravel()]).reshape(series.values.shape)
    assert np.array_equal(back.values, expected, equal_nan=True)


def test_series_csv_shapes_in_turn_match_reference_writer(tmp_path):
    # 2x3 and 3x2 have the same cell count: a body template cached on the cell
    # count, or kept across shapes, writes the second with the first's rows
    g = np.random.default_rng(5)
    gappy = TimeSeries(np.where([[False, True, False], [True, False, False]], np.nan, g.standard_normal((2, 3))))
    for i, series in enumerate([TimeSeries(g.standard_normal((2, 3))), TimeSeries(g.standard_normal((3, 2))), gappy]):
        got, want = tmp_path / f"got{i}.csv", tmp_path / f"want{i}.csv"
        write_series_csv(got, series)
        reference_write_series_csv(want, series)
        assert got.read_bytes() == want.read_bytes()


def reference_decoded_csv(path, image, stats):
    """Reference: the decoded series with its dense values, then ``write_series_csv``."""
    series = decode(image, allow_missing=True)
    write_series_csv(path, series if stats is None else denormalize(series, stats))


@st.composite
def decodable_images(draw):
    """A binary image with gaps (row -1) and its normalization stats: none, a
    floored std, or a large mean."""
    channels = draw(st.integers(1, 3))
    params = SpaceParams(h=draw(st.integers(2, 200)), ms=draw(st.sampled_from([0.5, 3.5, 1e3])))
    length = draw(st.integers(1, 600))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = g.integers(0, params.h, (channels, length))
    rows[g.random(rows.shape) < draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))] = -1
    kind = draw(st.sampled_from(["none", "floored", "large-mean"]))
    if kind == "none":
        return BinaryImageTensor._from_rows(rows, params), None
    mean = g.standard_normal(channels) * (1e300 if kind == "large-mean" else 10.0)
    std = 10.0 ** g.uniform(-3, 3, channels)
    if kind == "floored":
        std[g.random(channels) < 0.5] = STD_FLOOR
        std[0] = STD_FLOOR
    return BinaryImageTensor._from_rows(rows, params), NormStats(mean=mean, std=std, floored=std <= STD_FLOOR)


@settings(max_examples=150, deadline=None)
@given(case=decodable_images())
def test_decoded_csv_matches_decode_then_write(case):
    image, stats = case
    with tempfile.TemporaryDirectory() as tmp:
        want = Path(tmp) / "want.csv"
        reference_decoded_csv(want, image, stats)
        assert decoded_series_csv(image, stats, allow_missing=True).encode() == want.read_bytes()


def test_decoded_csv_fails_only_at_a_used_overflowing_cell(tmp_path):
    # h = 8: centers -3.0625 ... 3.0625 in steps of 0.875.  With mean = std =
    # 1e308 only rows 2, 3 and 4 (centers -1.3125 to 0.4375) stay finite
    params = SpaceParams(h=8, ms=3.5)
    stats = NormStats(mean=np.array([1e308]), std=np.array([1e308]), floored=np.array([False]))
    usable = BinaryImageTensor._from_rows(np.array([[2, 3, -1, 4]]), params)
    reference_decoded_csv(tmp_path / "want.csv", usable, stats)
    assert decoded_series_csv(usable, stats, allow_missing=True).encode() == (tmp_path / "want.csv").read_bytes()
    overflowing = BinaryImageTensor._from_rows(np.array([[2, 3, 5, 4]]), params)
    for decoded in (lambda: decoded_series_csv(overflowing, stats), lambda: denormalize(decode(overflowing), stats)):
        with pytest.raises(InputError, match=r"^channel 0: denormalized values overflow float64$"):
            decoded()
    with pytest.raises(StructuralError, match=r"^some columns have no active cell \(no missing markers expected\)$"):
        decoded_series_csv(usable, stats)


def reference_read_series_csv(path):
    """Reference: the ``csv``-module reader that every file once took, with
    today's gaps: an empty cell, ``NA`` or a NaN reads as NaN."""
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None or len(header) < 2:
                raise InputError(f"{path}: expected a header with an index column and at least one channel")
            width = len(header)
            cells: list[str] = []
            lines: list[int] = []
            for row in reader:
                if row:
                    if len(row) != width:
                        raise InputError(f"{path}:{reader.line_num}: row has {len(row)} fields, expected {width}")
                    cells += row
                    lines.append(reader.line_num)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"{path}: {exc}") from exc
    if not lines:
        raise InputError(f"{path}: no data rows")
    values = np.empty((width - 1, len(lines)))
    for i in range(width - 1):
        column = cells[i + 1 :: width]
        for t, (line, cell) in enumerate(zip(lines, column)):
            values[i, t] = reference_parse_cell(path, line, cell)
    return TimeSeries(values)


def reference_parse_cell(path, line, cell):
    if cell.strip() in ("", "NA"):
        return math.nan
    try:
        value = float(cell)
    except ValueError as exc:
        raise InputError(f"{path}:{line}: non-numeric value {cell.strip()!r}") from exc
    if math.isinf(value):
        raise InputError(f"{path}:{line}: non-finite value {cell.strip()!r}")
    return value


def assert_reads_like_reference(path):
    """read_series_csv gives the reference's values, sign bits and gaps included, or raises its error."""
    try:
        want = reference_read_series_csv(path)
    except csv.Error as exc:  # the reference let csv's own errors escape; the reader names their line
        with pytest.raises(InputError) as info:
            read_series_csv(path)
        assert str(info.value).startswith(f"{path}:") and str(info.value).endswith(f": {exc}")
        return
    except InputError as exc:
        with pytest.raises(InputError) as info:
            read_series_csv(path)
        assert type(info.value) is type(exc) and str(info.value) == str(exc)
        return
    got = read_series_csv(path)
    assert got.values.shape == want.values.shape and got.values.flags.c_contiguous
    assert got.values.tobytes() == want.values.tobytes()


# byte strings that a text mutation splices in: csv syntax, line ends, padding
# float() and numpy strip differently, and cells only one of them parses
_CSV_TOKENS = [
    b'"', b"\r", b"\r\n", b"\n", b"\n\n", b",", b" ", b"\t", b"\x1c", b"\x1f", b"\x00", "\xa0".encode(),
    " ".encode(), "١".encode(), b"\xff", b"1_000", b"nan", b"-inf", b"1e400", b"0x1p3", b"x",
    b"-", b".", b"e", b"+", b"5e-324", b"", b",,", b",\n", b"NA", b"NaN", b"-nan",
]


_EDITS = ["insert", "replace", "delete", "cell", "pad"]


def edit_csv(data, i, kind, token):
    """Insert ``token`` at byte ``i``, or put it in place of that byte or of
    the cell around it, or before that cell; or delete the byte."""
    if kind in ("insert", "replace", "delete"):
        return data[:i] + (b"" if kind == "delete" else token) + data[i + (kind != "insert") :]
    start = max(data.rfind(b",", 0, i), data.rfind(b"\n", 0, i)) + 1
    end = min((j for j in (data.find(b",", i), data.find(b"\n", i)) if j >= 0), default=len(data))
    return data[:start] + token + data[start if kind == "pad" else end :]


@settings(max_examples=300, deadline=None)
@given(
    series=gappy_series(),
    edits=st.lists(
        st.tuples(st.floats(0, 1, exclude_max=True), st.sampled_from(_EDITS), st.sampled_from(_CSV_TOKENS)),
        max_size=3,
    ),
)
def test_series_csv_reader_matches_reference_reader(series, edits):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "series.csv"
        write_series_csv(path, series)
        data = path.read_bytes()
        if not edits:
            assert _parse_plain(data) is not None  # a written file, gaps and all, takes numpy's reader
        for where, kind, token in edits:
            data = edit_csv(data, int(where * len(data)), kind, token)
        path.write_bytes(data)
        assert_reads_like_reference(path)


@pytest.mark.parametrize(
    "data, plain",
    [
        (b"t,ch0,ch1\n0,1.5,-0\n1,+.5e-3,1E5\n", True),
        (b"t,ch0\r\n0,1\r\n1,2\r\n", False),
        (b"t,ch0\r0,1\r1,2\r", False),
        (b'"t","ch0"\n0,1\n', False),
        (b't,ch0\n0,"1.5"\n', False),
        (b"t,ch0\n0,1\n\n1,2\n", True),  # both readers skip a blank line
        (b"t,ch0\n0,1\n  \n1,2\n", False),
        (b"t,ch0\n0,1\n1,2,3\n", False),
        (b"t,ch0\n0,1,\n", False),
        (b"t,ch0,ch1\n0,1\n", False),
        (b"t,ch0\n0,1_000\n", False),
        ("t,ch0\n0,١\n".encode(), False),
        (b"t,ch0\n0,\x1c1\n", False),
        ("t,ch0\n0,\xa01\xa0\n".encode(), True),  # both strip a non-breaking space
        (b"t,ch0\n0,1\n1,nan\n", True),  # a gap
        (b"t,ch0\n0,inf\n", False),
        (b"t,ch0\n0,1e400\n", False),
        (b"t,ch0\n0,1\n1,\n", True),  # a gap
        (b"t,ch0\n0\x00,1\n", False),
        (b"date,HUFL,HULL\n2016-07-01 00:00:00,5.827,2.009\n2016-07-01 01:00:00,5.693,2.076\n", True),
        (b"t,ch0\n", False),
        (b"t,ch0\n\n", False),
        ("t,H\xf6he\n0,1\n".encode("latin-1"), False),
        (b"t,ch0\n0,1\n1,\xff\n", False),
    ],
    ids=[
        "plain", "crlf", "bare-cr", "quoted-header", "quoted-field", "blank-line", "whitespace-line", "extra-field",
        "trailing-comma", "short-row", "underscore", "arabic-indic-digit", "x1c-padding", "nbsp-padding", "nan",
        "inf", "overflow", "gap", "nul", "timestamp-index", "header-only", "header-and-blank-line", "latin1-header",
        "non-utf8-cell",
    ],
)
def test_series_csv_reader_paths_match_reference(tmp_path, data, plain):
    path = tmp_path / "case.csv"
    path.write_bytes(data)
    assert (_parse_plain(data) is not None) == plain
    assert_reads_like_reference(path)


@pytest.mark.parametrize(
    "data, fast",
    [
        (b"t,ch0,ch1\n0,,1\n1,2,\n", True),
        (b"t,ch0,ch1\n0,,\n1,-0,\n", True),
        (b"t,ch0,ch1,ch2\n0,,,\n1,,,5\n", True),
        (b"t,ch0\n,\n1,2\n", True),
        (b"t,ch0,ch1\n0,,1\n\n1,2,3\n", True),
        (b"t,ch0\n0,1\n1,", False),
        (b"t,ch0,ch1\n0, ,1\n1,,2\n", False),
        (b"t,ch0,ch1\n0,,nan\n", True),  # two gaps
        (b"t,ch0,ch1\n0,,NA\n", False),  # two gaps, on the csv path
        (b"t,ch0,ch1\n0,,-inf\n", False),
        (b"t,ch0,ch1\n0,,1e400\n", False),
        (b"t,ch0\nJan,1\nFeb,\n", True),
        (b"t,ch0,ch1\n0,,1,\n", False),
        (b"t,ch0\n0,1,\n", False),
        (b't,ch0,ch1\n0,"",1\n', False),
    ],
    ids=[
        "gaps", "gap-rows", "gap-runs", "empty-index", "blank-line", "gap-at-last-byte", "whitespace-cell",
        "nan", "NA", "inf", "overflow", "month-index", "extra-field", "trailing-comma", "quoted-gap",
    ],
)
def test_a_gappy_series_csv_takes_numpys_reader_when_no_cell_can_be_nan(tmp_path, data, fast):
    # every NaN cell is a gap, so an empty cell is rewritten to nan whatever
    # else the file holds; a cell numpy cannot parse (NA) takes the csv path
    path = tmp_path / "case.csv"
    path.write_bytes(data)
    assert (_parse_plain(data) is not None) == fast
    assert_reads_like_reference(path)


def test_an_oversized_field_is_named_by_its_line(tmp_path):
    path = tmp_path / "big.csv"
    path.write_text("t,ch0\n0,1\n1," + "x" * 200_000 + "\n", encoding="utf-8")
    with pytest.raises(InputError) as info:
        read_series_csv(path)
    assert str(info.value) == f"{path}:3: field larger than field limit (131072)"


def test_series_csv_read_peak_memory_is_bounded(tmp_path):
    # the file's bytes, the parsed rows and their transposed copy peak near
    # 1.8x the file; holding every cell as a str once peaked at 6.9x
    path = tmp_path / "wide.csv"
    write_series_csv(path, TimeSeries(100.0 * np.random.default_rng(3).standard_normal((64, 4096))))
    read_series_csv(path)  # imports and first-call caches stay out of the count
    tracemalloc.start()
    try:
        read_series_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * path.stat().st_size


def test_gappy_series_csv_read_peak_memory_is_bounded(tmp_path):
    # 1% empty cells: the bytes, their copy with each gap rewritten to nan, the
    # parsed rows and their transposed copy peak at 3.0x the file; the per-cell
    # csv path, which every gappy file once took, peaked at 8.1x
    g = np.random.default_rng(3)
    values = 100.0 * g.standard_normal((64, 4096))
    path = tmp_path / "gappy.csv"
    values[g.random(values.shape) < 0.01] = np.nan
    write_series_csv(path, TimeSeries(values))
    assert np.isnan(read_series_csv(path).values).any()  # imports and first-call caches stay out of the count
    tracemalloc.start()
    try:
        read_series_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * path.stat().st_size


def test_manifest_roundtrip(tmp_path):
    path = tmp_path / "manifest.csv"
    records = [
        {"id": "series_00000.csv", "seed": 7, "stream": 0, "hypothesis": "periodic", "behavior": "pwb", "length": 64},
        {"id": "series_00001.csv", "seed": 7, "stream": 1, "hypothesis": "trend", "behavior": "rwb", "length": 64},
    ]
    write_manifest_csv(path, records)
    with path.open(newline="", encoding="utf-8") as handle:
        back = list(csv.DictReader(handle))
    assert [r["behavior"] for r in back] == ["pwb", "rwb"]
    assert back[0]["id"] == "series_00000.csv"


def test_pgm_roundtrip(tmp_path):
    g = np.random.default_rng(1)
    plane = g.integers(0, 256, (16, 9)).astype(np.uint8)
    path = tmp_path / "plane.pgm"
    write_pgm(path, plane)
    assert np.array_equal(read_pgm(path), plane)


@pytest.mark.parametrize("value", [256, -1])
def test_pgm_rejects_a_wide_integer_plane_outside_the_byte_range(tmp_path, value):
    plane = np.zeros((3, 4), dtype=np.int64)
    plane[1, 2] = value
    with pytest.raises(InputError, match=r"^graymap values must lie in \[0, 255\]$"):
        write_pgm(tmp_path / "plane.pgm", plane)
    assert not (tmp_path / "plane.pgm").exists()
    # in range, a wide plane is written as its bytes
    plane[1, 2] = 255
    write_pgm(tmp_path / "plane.pgm", plane)
    assert np.array_equal(read_pgm(tmp_path / "plane.pgm"), plane)


def test_pgm_header_with_comment(tmp_path):
    path = tmp_path / "commented.pgm"
    payload = bytes(range(6))
    path.write_bytes(b"P5\n# a comment\n3 2\n255\n" + payload)
    plane = read_pgm(path)
    assert plane.shape == (2, 3)
    assert plane.ravel().tolist() == list(payload)


def test_pgm_rejects_malformed(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P6\n2 2\n255\n" + bytes(4))
    with pytest.raises(InputError):
        read_pgm(path)
    path.write_bytes(b"P5\n2 2\n255\n" + bytes(3))  # truncated payload
    with pytest.raises(InputError):
        read_pgm(path)


def test_meta_roundtrip(tmp_path):
    path = tmp_path / "x.meta"
    write_meta(path, {"h": "128", "ms": "3.5", "note": "a = b"})
    back = read_meta(path)
    assert back["h"] == "128"
    assert back["note"] == "a = b"


def test_image_roundtrip_binary(tmp_path):
    params = SpaceParams(h=32, ms=2.0)
    series = from_1d(np.linspace(-1.5, 1.5, 40))
    image = encode(series, params)
    meta_path = write_image(tmp_path / "img", image)
    back, stats = read_image(meta_path)
    assert stats is None
    assert back.params == params
    assert np.array_equal(back.grid, image.grid)


@settings(max_examples=60, deadline=None)
@given(
    channels=st.integers(1, 3),
    h=st.integers(2, 9),
    length=st.integers(0, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_read_image_rows_match_the_dense_constructor(channels, h, length, seed):
    g = np.random.default_rng(seed)
    # mostly dark cells, so empty, one-hot and multi-active columns all occur
    levels = np.array([0, 1, 127, 128, 200, 255], dtype=np.uint8)
    planes = levels[g.choice(6, size=(channels, h, length), p=[0.5, 0.1, 0.15, 0.1, 0.05, 0.1])]
    planes[:, :, :2] = 0  # at least one empty column where the length allows
    grid, params = (planes >= 128).astype(np.uint8), SpaceParams(h=h, ms=1.0)
    with tempfile.TemporaryDirectory() as tmp:
        entries = {"format": "binary", "h": str(h), "ms": "1", "length": str(length), "channels": str(channels)}
        for i in range(channels):
            write_pgm(Path(tmp) / f"g_ch{i}.pgm", planes[i])
            entries[f"file_ch{i}"] = f"g_ch{i}.pgm"
        meta = Path(tmp) / "g.meta"
        write_meta(meta, entries)
        if np.any(grid.sum(axis=1) > 1):
            # both reject the grid when they build it; read_image names the metadata file
            several = "some columns have more than one active cell"
            with pytest.raises(StructuralError, match=f"^{several}$"):
                BinaryImageTensor(grid, params)
            with pytest.raises(StructuralError) as info:
                read_image(meta)
            assert str(info.value) == f"{meta}: {several}"
            return
        back, _ = read_image(meta)
    dense = BinaryImageTensor(grid, params)
    assert back.rows.dtype == dense.rows.dtype
    assert np.array_equal(back.rows, dense.rows)
    assert back.params == dense.params
    for (c, t), row in np.ndenumerate(back.rows):  # -1: no active cell
        hits = np.flatnonzero(planes[c, :, t] >= 128)
        assert row == (hits[0] if len(hits) == 1 else -1)


def test_missing_meta_and_graymap_are_named_by_the_meta(tmp_path):
    with pytest.raises(InputError) as info:
        read_meta(tmp_path / "nope.meta")
    assert str(info.value).startswith(f"{tmp_path / 'nope.meta'}: [Errno 2] ")
    meta = write_image(tmp_path / "img", encode(from_1d(np.zeros(4)), SpaceParams(h=8)))
    (tmp_path / "img_ch0.pgm").unlink()
    with pytest.raises(InputError) as info:
        read_image(meta)
    assert str(info.value) == f"{meta}: [Errno 2] No such file or directory: '{tmp_path / 'img_ch0.pgm'}'"


def test_image_roundtrip_with_stats(tmp_path):
    from tsgrid import normalize

    params = SpaceParams(h=32, ms=2.0)
    series = from_1d(np.linspace(10.0, 20.0, 40))
    normalized, stats = normalize(series, 40)
    image = encode(normalized, params)
    meta_path = write_image(tmp_path / "img", image, stats)
    back, back_stats = read_image(meta_path)
    assert back_stats is not None
    assert back_stats.mean[0] == pytest.approx(stats.mean[0], rel=1e-8)
    assert back_stats.std[0] == pytest.approx(stats.std[0], rel=1e-8)


def test_soft_image_export_is_writable_but_not_readable(tmp_path):
    # write_image writes binary grids only; a sidecar of any other format is refused on read
    meta_path = write_image(tmp_path / "soft", encode(from_1d(np.zeros(8)), SpaceParams(h=32, ms=2.0)))
    assert read_meta(meta_path)["format"] == "binary"
    text = meta_path.read_text(encoding="utf-8").replace("format = binary", "format = soft")
    meta_path.write_text(text, encoding="utf-8")
    with pytest.raises(InputError, match=r"only binary grids can be read back, got format='soft'$"):
        read_image(meta_path)


def test_report_csv_layout(tmp_path):
    rows = [ReportRow("demo", 8, 1.0, "none", 0.5, 0.25, 3)]
    aggs = [ReportRow("demo", 8, None, "none", 0.5, 0.25, 3)]
    path = tmp_path / "report.csv"
    write_report_csv(path, rows, aggs)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "dataset,horizon,beta,scenario,mse,mae,windows"
    assert lines[1] == "demo,8,1,none,0.5,0.25,3"
    assert lines[2] == "demo,8,mean(U),none,0.5,0.25,3"


def test_atomic_write_cleans_up_on_failure(tmp_path):
    target = tmp_path / "out.txt"
    with pytest.raises(RuntimeError):
        with atomic_write(target) as handle:
            handle.write("partial")
            raise RuntimeError("boom")
    assert not target.exists()
    assert list(tmp_path.iterdir()) == []


def test_atomic_write_creates_missing_directories(tmp_path):
    target = tmp_path / "a" / "b" / "out.txt"
    with atomic_write(target) as handle:
        handle.write("done")
    assert target.read_text(encoding="utf-8") == "done"
    assert [p.name for p in target.parent.iterdir()] == ["out.txt"]

    failed = tmp_path / "c" / "d" / "out.txt"
    with pytest.raises(RuntimeError):
        with atomic_write(failed) as handle:
            handle.write("partial")
            raise RuntimeError("boom")
    assert list(failed.parent.iterdir()) == []


@pytest.mark.parametrize("umask, expected", [(0o022, 0o644), (0o077, 0o600)])
def test_written_files_take_their_mode_from_the_umask(tmp_path, umask, expected):
    previous = os.umask(umask)
    try:
        write_series_csv(tmp_path / "series.csv", from_1d(np.arange(4.0)))
        write_pgm(tmp_path / "plane.pgm", np.zeros((2, 3), dtype=np.uint8))
        with atomic_write(tmp_path / "new" / "out.txt") as handle:
            handle.write("done")
    finally:
        os.umask(previous)
    for path in (tmp_path / "series.csv", tmp_path / "plane.pgm", tmp_path / "new" / "out.txt"):
        assert stat.S_IMODE(path.stat().st_mode) == expected, path.name


def test_read_image_flags_floored_channels(tmp_path):
    constant = np.full(32, 5.0)
    unit_std = np.tile([-1.0, 1.0], 16)
    z, stats = normalize(TimeSeries(np.stack([constant, unit_std])), lookback=32)
    meta = write_image(tmp_path / "grid", encode(z, SpaceParams()), stats)
    _, back = read_image(meta)
    assert back.floored.tolist() == [True, False]
