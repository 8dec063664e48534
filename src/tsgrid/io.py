"""File formats: series/manifest/report CSV, portable graymaps, metadata sidecars.

All writers go through an atomic temp-file-plus-rename step and emit LF
line endings and '.' decimals regardless of locale; text is read and
written as UTF-8.  Reals carry 9 significant digits.  Missing samples (NaN
in memory) are empty CSV fields.
"""

from __future__ import annotations

import csv
import functools
import math
import os
from contextlib import contextmanager
from io import BytesIO, TextIOWrapper
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import InputError, StructuralError
from .imagespace import STD_FLOOR, BinaryImageTensor, NormStats, SpaceParams, check_decodable, check_denormalized
from .series import TimeSeries


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _open_temp(path: Path) -> tuple[int, Path]:
    """Create a fresh sibling temp file; the umask sets its mode, as for ``open(path, "w")``."""
    tmp = path.parent / f".{path.name}.{os.urandom(6).hex()}.tmp"
    return os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666), tmp


@contextmanager
def atomic_write(path: str | Path, mode: str = "w"):
    """Write to a sibling temp file and rename into place on success.

    A missing parent directory is created on the first failed attempt only.
    """
    path = Path(path)
    try:
        fd, tmp = _open_temp(path)
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = _open_temp(path)
    try:
        text = "b" not in mode
        with os.fdopen(fd, mode, newline="" if text else None, encoding="utf-8" if text else None) as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_series_csv(path: str | Path, series: TimeSeries) -> None:
    """Header ``t,ch0[,ch1,...]``, one row per time index.

    The body is one ``%`` format whose row indices are literal text, so only
    the values are formatted: ``,%.9g`` per observed cell (the same text as
    ``_fmt``) and a bare ``,`` per missing cell.
    """
    gaps = np.isnan(series.values)
    text = _series_text(series.values, gaps if gaps.any() else None, ",%.9g")
    with atomic_write(path) as handle:
        handle.write(text)


def decoded_series_csv(image: BinaryImageTensor, stats: NormStats | None = None, allow_missing: bool = False) -> str:
    """The text ``write_series_csv`` writes for ``denormalize(decode(image,
    allow_missing), stats)`` (no ``denormalize`` when ``stats`` is None),
    built from the image's active rows.

    A channel has only ``h`` decoded values, its denormalized cell centers,
    so each used one is formatted once and the body is filled from that
    table.  The errors are decode's and denormalize's: a cell value that
    overflows is an error only when a sample uses it.
    """
    check_decodable(image, allow_missing)
    rows = image.rows
    observed = rows >= 0
    used = np.zeros((image.channels, image.params.h), dtype=bool)
    used[np.nonzero(observed)[0], rows[observed]] = True
    table = np.broadcast_to(image.params.centers(), used.shape)
    if stats is not None:
        with np.errstate(over="ignore"):  # a scale near float64's limit: only the used cells are checked
            table = table * stats.std[:, None] + stats.mean[:, None]
        check_denormalized(np.where(used, table, 0.0))
    texts = np.empty(used.shape, dtype=object)
    texts[used] = ["%.9g" % v for v in table[used].tolist()]
    cells = np.take_along_axis(texts, np.maximum(rows, 0), axis=1)
    return _series_text(cells, None if observed.all() else ~observed, ",%s")


def _series_text(cells: np.ndarray, missing: np.ndarray | None, token: str) -> str:
    """Header and body of a series CSV with cells (channels, length): ``token``
    formats each observed cell and a missing cell is a bare ``,``."""
    channels, length = cells.shape
    if missing is None:
        template = _gap_free_template(length, channels, token)
        flat = cells.T.ravel().tolist()
    else:
        observed = ~missing.T
        tokens = np.full((length, channels + 1), ",", dtype=object)
        tokens[:, 0] = _row_starts(length)
        tokens[:, 1:][observed] = token
        template = "".join(tokens.ravel().tolist())
        flat = cells.T[observed].tolist()
    header = ",".join(["t"] + [f"ch{i}" for i in range(channels)])
    return header + template % tuple(flat) + "\n"


@functools.lru_cache(maxsize=1)
def _row_starts(length: int) -> tuple[str, ...]:
    """The literal start of each body row: ``"\\n0"``, ``"\\n1"``, ..."""
    return tuple(f"\n{t}" for t in range(length))


@functools.lru_cache(maxsize=1)
def _gap_free_template(length: int, channels: int, token: str) -> str:
    """Body template of a series with no gaps; a corpus repeats one shape."""
    cells = token * channels
    return cells.join(_row_starts(length)) + cells


def read_series_csv(path: str | Path) -> TimeSeries:
    """Read a delimited series; the first column is treated as the index.

    An empty field, ``NA`` or a NaN (``nan``, ``NaN``, ``-nan``) is a
    missing sample, NaN in memory; a non-numeric first column (e.g.
    timestamps) is accepted and dropped.  A non-numeric cell or an
    infinite one (``inf``, ``1e400``) is an error that names its line.

    The file is read once.  A plain file is parsed by numpy's C text reader
    (:func:`_parse_plain`), its gaps too; every other file takes the ``csv``
    path on the same bytes, which names the line of each error.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise InputError(f"{path}: {exc}") from exc
    rows = _parse_plain(data)
    if rows is None:
        return _parse_csv(path, data)
    del data  # the bytes are not needed beside the transposed copy
    return TimeSeries(np.ascontiguousarray(rows.T))


# Bytes that make csv's tokenization more than a split on ',' and '\n' ('"'
# and '\r'), that numpy strips from a cell where float() does not ('\x1c' to
# '\x1f'), or that csv rejects on some Python versions ('\0').
_NOT_PLAIN = (b'"', b"\r", b"\x1c", b"\x1d", b"\x1e", b"\x1f", b"\0")


def _parse_plain(data: bytes) -> np.ndarray | None:
    """The (rows, channels) values of a plain series CSV with no infinite
    cell, NaN for a gap, or None when the ``csv`` path must read it.  A
    ``nan`` cell, and an empty cell between two commas or before a line
    end, read as NaN.

    numpy's reader strips the same whitespace as ``float()`` and hands the
    rest to the same string-to-double routine, so an accepted file gives the
    ``csv`` path's floats bit for bit.  It accepts less than ``float()``
    (``1_000`` and non-ASCII digits raise), and an error falls back.  It
    ignores fields past ``usecols``, so the comma count must show that every
    row has exactly the header's width.

    A file that fails to parse is parsed once more with each empty cell
    rewritten to ``nan``.  The rewrite adds no comma.  An empty cell it
    leaves (a whitespace-only cell, a gap at the file's last byte) and an
    ``NA`` cell are parse errors, and the file falls back.  Files with no
    empty cell, the common case, pay no search for gaps.
    """
    if any(byte in data for byte in _NOT_PLAIN):
        return None
    header_end = data.find(b"\n")
    width = data.count(b",", 0, header_end) + 1
    # a data row holds a comma, so loadtxt returns at least one row (or raises)
    if header_end < 0 or width < 2 or data.find(b",", header_end) < 0:
        return None
    rows = _loadtxt(data, width)
    if rows is None:  # twice: one pass rewrites every other gap of a run of them
        rows = _loadtxt(data.replace(b",,", b",nan,").replace(b",,", b",nan,").replace(b",\n", b",nan\n"), width)
    if rows is None or data.count(b",") != (len(rows) + 1) * (width - 1) or np.isinf(rows).any():
        return None
    return rows


def _loadtxt(text: bytes, width: int) -> np.ndarray | None:
    """numpy's parse of a series CSV's cells past the index column, or None
    where it fails: a gap, a short row, a cell numpy cannot parse, or bytes
    that are not UTF-8."""
    try:
        return np.loadtxt(
            BytesIO(text),
            delimiter=",",
            comments=None,
            skiprows=1,
            usecols=range(1, width),
            ndmin=2,
            dtype=np.float64,
            encoding="utf-8",
        )
    except ValueError:
        return None


def _parse_csv(path: Path, data: bytes) -> TimeSeries:
    """The general reader: quoting, any line ends, gaps, and errors that name their line."""
    try:
        with TextIOWrapper(BytesIO(data), encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None or len(header) < 2:
                raise InputError(f"{path}: expected a header with an index column and at least one channel")
            width = len(header)
            # row-major cells: holding every row's list instead would have the
            # cyclic garbage collector rescan them (1.5-1.8 ms per 4096-row file)
            cells: list[str] = []
            lines: list[int] = []
            for row in reader:
                if row:
                    if len(row) != width:
                        raise InputError(f"{path}:{reader.line_num}: row has {len(row)} fields, expected {width}")
                    cells += row
                    lines.append(reader.line_num)
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: {exc}") from exc
    except csv.Error as exc:  # e.g. a field over csv's size limit
        raise InputError(f"{path}:{reader.line_num}: {exc}") from exc
    if not lines:
        raise InputError(f"{path}: no data rows")
    values = np.empty((width - 1, len(lines)))
    for i in range(width - 1):
        column = cells[i + 1 :: width]
        try:  # one pass per channel; an empty, ``NA``, bad or infinite cell takes the per-cell path
            values[i] = np.fromiter(map(float, column), dtype=np.float64, count=len(lines))
            if not np.isinf(values[i]).any():
                continue
        except ValueError:
            pass
        values[i] = [_parse_cell(path, line, cell) for line, cell in zip(lines, column)]
    return TimeSeries(values)


def _parse_cell(path: Path, line: int, cell: str) -> float:
    """The value of one CSV cell: NaN, a missing sample, for an empty cell,
    ``NA`` or a NaN.  An infinity or a number too large for a float is an
    error, not a missing sample.
    """
    text = cell.strip()
    if not text or text == "NA":
        return math.nan
    try:
        value = float(cell)
    except ValueError as exc:
        raise InputError(f"{path}:{line}: non-numeric value {text!r}") from exc
    if math.isinf(value):
        raise InputError(f"{path}:{line}: non-finite value {text!r}")
    return value


def write_manifest_csv(path: str | Path, records: Iterable[dict]) -> None:
    fields = ["id", "seed", "stream", "hypothesis", "behavior", "length"]
    with atomic_write(path) as handle:
        writer = csv.DictWriter(handle, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        for record in records:
            writer.writerow({k: record.get(k, "") for k in fields})


def write_pgm(path: str | Path, rows: np.ndarray) -> None:
    """Binary (P5) graymap with maxval 255; file row 0 is grid row 0 (the lowest-value cell)."""
    arr = np.asarray(rows)
    if arr.ndim != 2:
        raise InputError(f"graymap data must be 2-D, got ndim={arr.ndim}")
    if arr.dtype != np.uint8:
        if arr.min(initial=0) < 0 or arr.max(initial=0) > 255:
            raise InputError("graymap values must lie in [0, 255]")
        arr = arr.astype(np.uint8)
    height, width = arr.shape
    with atomic_write(path, "wb") as handle:
        handle.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        handle.write(arr.tobytes())


def read_pgm(path: str | Path) -> np.ndarray:
    path = Path(path)
    data = path.read_bytes()
    if not data.startswith(b"P5"):
        raise InputError(f"{path}: not a binary graymap (P5)")
    # header: magic, width, height, maxval as whitespace-separated tokens,
    # with optional '#' comment lines
    tokens: list[int] = []
    pos = 2
    while len(tokens) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        try:
            tokens.append(int(data[start:pos]))
        except ValueError as exc:
            raise InputError(f"{path}: malformed graymap header") from exc
    pos += 1  # single whitespace after maxval
    width, height, maxval = tokens
    if maxval != 255:
        raise InputError(f"{path}: expected maxval 255, got {maxval}")
    pixels = np.frombuffer(data[pos:], dtype=np.uint8)
    if pixels.size != width * height:
        raise InputError(f"{path}: expected {width * height} pixels, found {pixels.size}")
    return pixels.reshape(height, width).copy()


def write_meta(path: str | Path, entries: dict[str, str]) -> None:
    with atomic_write(path) as handle:
        for key, value in entries.items():
            handle.write(f"{key} = {value}\n")


def read_meta(path: str | Path) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"{path}: {exc}") from exc
    entries: dict[str, str] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InputError(f"{path}: malformed metadata line {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in entries:
            raise InputError(f"{path}: repeated metadata key {key!r}")
        entries[key] = value.strip()
    return entries


def write_image(stem: str | Path, image: BinaryImageTensor, stats: NormStats | None = None) -> Path:
    """Write one graymap per channel, {0, 1} mapped to {0, 255}, plus a
    ``<stem>.meta`` sidecar.  Returns the metadata path."""
    stem = Path(stem)
    entries: dict[str, str] = {
        "format": "binary",
        "h": str(image.params.h),
        "ms": _fmt(image.params.ms),
        "length": str(image.length),
        "channels": str(image.channels),
    }
    if stats is not None:
        entries["norm_mean"] = ",".join(_fmt(v) for v in stats.mean)
        entries["norm_std"] = ",".join(_fmt(v) for v in stats.std)
    for i, rows in enumerate(image.rows):
        name = f"{stem.name}_ch{i}.pgm"
        plane = np.zeros((image.params.h, image.length), dtype=np.uint8)
        active = np.flatnonzero(rows >= 0)
        plane[rows[active], active] = 255
        write_pgm(stem.parent / name, plane)
        entries[f"file_ch{i}"] = name
    meta_path = stem.parent / f"{stem.name}.meta"
    write_meta(meta_path, entries)
    return meta_path


def read_image(meta_path: str | Path) -> tuple[BinaryImageTensor, NormStats | None]:
    """Read a binary grid written by :func:`write_image`; a malformed one fails here."""
    given, meta_path = meta_path, Path(meta_path)
    meta = read_meta(meta_path)
    if meta.get("format") != "binary":
        raise InputError(f"{meta_path}: only binary grids can be read back, got format={meta.get('format')!r}")
    try:
        params = SpaceParams(h=int(meta["h"]), ms=float(meta["ms"]))
        channels = int(meta["channels"])
        length = int(meta["length"])
        if channels < 1:
            raise ValueError(f"channels = {channels}")
        stats = None
        if "norm_mean" in meta or "norm_std" in meta:  # both or neither, one finite value per channel, std > 0
            mean, std = (np.array([float(v) for v in meta[key].split(",")]) for key in ("norm_mean", "norm_std"))
            if not (mean.shape == std.shape == (channels,) and np.isfinite((mean, std)).all() and np.all(std > 0)):
                raise ValueError("malformed normalization stats")
            # normalize stores a floored std as exactly STD_FLOOR, hence <= rather than <
            stats = NormStats(mean=mean, std=std, floored=std <= STD_FLOOR)
    except (KeyError, ValueError) as exc:
        raise InputError(f"{meta_path}: incomplete or malformed metadata") from exc
    planes = []
    for i in range(channels):
        name = meta.get(f"file_ch{i}")
        if name is None:
            raise InputError(f"{meta_path}: missing file entry for channel {i}")
        try:
            plane = read_pgm(meta_path.parent / name)
        except OSError as exc:
            raise InputError(f"{meta_path}: {exc}") from exc
        if plane.shape != (params.h, length):
            raise InputError(f"{meta_path}: channel {i} has shape {plane.shape}, expected {(params.h, length)}")
        planes.append(plane >= 128)
    try:
        return BinaryImageTensor(np.stack(planes), params), stats
    except StructuralError as exc:  # the path as given, as `decode` errors name it
        raise StructuralError(f"{given}: {exc}") from exc


def write_report_csv(path: str | Path, rows: Sequence, aggregates: Sequence = ()) -> None:
    """Evaluation report: per-factor rows, then aggregate rows marked ``mean(U)``."""
    with atomic_write(path) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["dataset", "horizon", "beta", "scenario", "mse", "mae", "windows"])
        labelled = [(r, "" if r.beta is None else _fmt(r.beta)) for r in rows] + [(r, "mean(U)") for r in aggregates]
        for r, beta in labelled:
            mse, mae = ("" if v is None else _fmt(v) for v in (r.mse, r.mae))
            writer.writerow([r.dataset, r.horizon, beta, r.scenario, mse, mae, r.windows])
