import csv
import os
import stat
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsgrid import InputError, SpaceParams, TimeSeries, encode, from_1d, normalize, preprocess
from tsgrid.evaluation import ReportRow
from tsgrid.io import (
    _fmt,
    atomic_write,
    read_image,
    read_manifest_csv,
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
    series = TimeSeries(values, missing)
    path = tmp_path / "series.csv"
    write_series_csv(path, series)
    back = read_series_csv(path)
    assert back.values.shape == (3, 64)
    assert np.array_equal(back.missing, missing)
    observed = ~missing
    assert np.allclose(back.values[observed], values[observed], rtol=1e-8)
    assert np.all(back.values[missing] == 0.0)


def test_series_csv_significant_digits(tmp_path):
    path = tmp_path / "digits.csv"
    write_series_csv(path, from_1d([0.123456789123456]))
    text = path.read_text()
    assert "0.123456789" in text
    assert "0.1234567891" not in text
    assert text.splitlines()[0] == "t,ch0"
    assert "\r" not in text


def test_series_csv_accepts_timestamp_index(tmp_path):
    path = tmp_path / "ett.csv"
    path.write_text("date,HUFL,HULL\n2016-07-01 00:00:00,5.827,2.009\n2016-07-01 01:00:00,5.693,2.076\n")
    series = read_series_csv(path)
    assert series.values.shape == (2, 2)
    assert series.values[0, 0] == pytest.approx(5.827)


def test_series_csv_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,ch0\n0,hello\n")
    with pytest.raises(InputError):
        read_series_csv(path)
    with pytest.raises(InputError):
        read_series_csv(tmp_path / "does-not-exist.csv")
    empty = tmp_path / "empty.csv"
    empty.write_text("t,ch0\n")
    with pytest.raises(InputError):
        read_series_csv(empty)


def reference_write_series_csv(path, series):
    """Reference: the per-cell ``csv.writer`` series writer."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["t"] + [f"ch{i}" for i in range(series.channels)])
        for t in range(series.length):
            row = [str(t)]
            for i in range(series.channels):
                if series.missing is not None and series.missing[i, t]:
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
    return TimeSeries(values, missing)


@settings(max_examples=80, deadline=None)
@given(series=gappy_series())
def test_series_csv_matches_reference_writer(series):
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
        write_series_csv(got, series)
        reference_write_series_csv(want, series)
        assert got.read_bytes() == want.read_bytes()
        back = read_series_csv(got)
    no_gaps = np.zeros(series.values.shape, dtype=bool)
    missing = no_gaps if series.missing is None else series.missing
    assert np.array_equal(no_gaps if back.missing is None else back.missing, missing)
    expected = np.array([float(_fmt(v)) for v in series.values.ravel()]).reshape(missing.shape)
    assert np.array_equal(back.values, np.where(missing, 0.0, expected))


def test_manifest_roundtrip(tmp_path):
    path = tmp_path / "manifest.csv"
    records = [
        {"id": "series_00000.csv", "seed": 7, "stream": 0, "hypothesis": "periodic", "behavior": "pwb", "length": 64},
        {"id": "series_00001.csv", "seed": 7, "stream": 1, "hypothesis": "trend", "behavior": "rwb", "length": 64},
    ]
    write_manifest_csv(path, records)
    back = read_manifest_csv(path)
    assert [r["behavior"] for r in back] == ["pwb", "rwb"]
    assert back[0]["id"] == "series_00000.csv"


def test_pgm_roundtrip(tmp_path):
    g = np.random.default_rng(1)
    plane = g.integers(0, 256, (16, 9)).astype(np.uint8)
    path = tmp_path / "plane.pgm"
    write_pgm(path, plane)
    assert np.array_equal(read_pgm(path), plane)


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
    params = SpaceParams(h=32, ms=2.0)
    soft = preprocess(encode(from_1d(np.zeros(8)), params), blur_kernel=(5, 5))
    meta_path = write_image(tmp_path / "soft", soft)
    assert meta_path.exists()
    with pytest.raises(InputError):
        read_image(meta_path)


def test_report_csv_layout(tmp_path):
    rows = [ReportRow("demo", 8, 1.0, "none", 0.5, 0.25, 3)]
    aggs = [ReportRow("demo", 8, None, "none", 0.5, 0.25, 3)]
    path = tmp_path / "report.csv"
    write_report_csv(path, rows, aggs)
    lines = path.read_text().splitlines()
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
    assert target.read_text() == "done"
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
