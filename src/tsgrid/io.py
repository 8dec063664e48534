"""File formats: series/manifest/report CSV, portable graymaps, metadata sidecars.

All writers go through an atomic temp-file-plus-rename step and emit LF
line endings and '.' decimals regardless of locale.  Reals carry 9
significant digits.  Missing samples are empty CSV fields.
"""

from __future__ import annotations

import csv
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import InputError
from .imagespace import STD_FLOOR, BinaryImageTensor, NormStats, SoftImageTensor, SpaceParams
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
        newline = "" if "b" not in mode else None
        with os.fdopen(fd, mode, newline=newline) as handle:
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

    The body is one ``%`` format: ``%d`` per index, ``,%.9g`` per observed
    cell (the same text as ``_fmt``) and a bare ``,`` per missing cell.
    """
    observed = np.ones((series.length, series.channels + 1), dtype=bool)
    if series.missing is not None:
        observed[:, 1:] = ~series.missing.T
    tokens = np.array([",", ",%.9g"], dtype=object)[observed.astype(np.uint8)]
    tokens[:, 0] = "\n%d"
    table = np.empty(observed.shape, dtype=object)
    table[:, 0] = range(series.length)
    table[:, 1:] = series.values.T
    header = ",".join(["t"] + [f"ch{i}" for i in range(series.channels)])
    body = "".join(tokens.ravel().tolist()) % tuple(table[observed].tolist())
    with atomic_write(path) as handle:
        handle.write(header + body + "\n")


def read_series_csv(path: str | Path) -> TimeSeries:
    """Read a delimited series; the first column is treated as the index.

    Empty fields become missing samples (placeholder value 0.0); a
    non-numeric first column (e.g. timestamps) is accepted and dropped.
    """
    path = Path(path)
    try:
        with path.open(newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None or len(header) < 2:
                raise InputError(f"{path}: expected a header with an index column and at least one channel")
            n_channels = len(header) - 1
            columns: list[list[float]] = [[] for _ in range(n_channels)]
            missing: list[list[bool]] = [[] for _ in range(n_channels)]
            for row in reader:
                if not row:
                    continue
                if len(row) != n_channels + 1:
                    raise InputError(f"{path}: row has {len(row)} fields, expected {n_channels + 1}")
                for i, field in enumerate(row[1:]):
                    field = field.strip()
                    if field == "":
                        columns[i].append(0.0)
                        missing[i].append(True)
                    else:
                        try:
                            columns[i].append(float(field))
                        except ValueError as exc:
                            raise InputError(f"{path}: non-numeric value {field!r}") from exc
                        missing[i].append(False)
    except OSError as exc:
        raise InputError(f"{path}: {exc}") from exc
    if not columns[0]:
        raise InputError(f"{path}: no data rows")
    values = np.asarray(columns, dtype=np.float64)
    mask = np.asarray(missing, dtype=bool)
    return TimeSeries(values, mask if mask.any() else None)


def write_manifest_csv(path: str | Path, records: Iterable[dict]) -> None:
    fields = ["id", "seed", "stream", "hypothesis", "behavior", "length"]
    with atomic_write(path) as handle:
        writer = csv.DictWriter(handle, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        for record in records:
            writer.writerow({k: record.get(k, "") for k in fields})


def read_manifest_csv(path: str | Path) -> list[dict]:
    with Path(path).open(newline="") as handle:
        return list(csv.DictReader(handle))


def write_pgm(path: str | Path, rows: np.ndarray) -> None:
    """Binary (P5) graymap with maxval 255; file row 0 is grid row 0 (the lowest-value cell)."""
    arr = np.asarray(rows)
    if arr.ndim != 2:
        raise InputError(f"graymap data must be 2-D, got ndim={arr.ndim}")
    if arr.min(initial=0) < 0 or arr.max(initial=0) > 255:
        raise InputError("graymap values must lie in [0, 255]")
    height, width = arr.shape
    with atomic_write(path, "wb") as handle:
        handle.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        handle.write(arr.astype(np.uint8).tobytes())


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
    entries: dict[str, str] = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InputError(f"{path}: malformed metadata line {line!r}")
        key, _, value = line.partition("=")
        entries[key.strip()] = value.strip()
    return entries


def write_image(stem: str | Path, image: BinaryImageTensor | SoftImageTensor, stats: NormStats | None = None) -> Path:
    """Write one graymap per channel plus a ``<stem>.meta`` sidecar.

    Binary grids map {0, 1} to {0, 255}; soft grids are scaled by their
    maximum entry.  Returns the metadata path.
    """
    stem = Path(stem)
    soft = isinstance(image, SoftImageTensor)
    grid = image.grid
    entries: dict[str, str] = {
        "format": "soft" if soft else "binary",
        "h": str(image.params.h),
        "ms": _fmt(image.params.ms),
        "length": str(image.length),
        "channels": str(image.channels),
    }
    if stats is not None:
        entries["norm_mean"] = ",".join(_fmt(v) for v in stats.mean)
        entries["norm_std"] = ",".join(_fmt(v) for v in stats.std)
    for i in range(image.channels):
        plane = grid[i]
        if soft:
            peak = float(plane.max())
            scaled = np.zeros_like(plane, dtype=np.uint8) if peak <= 0 else np.rint(plane / peak * 255).astype(np.uint8)
        else:
            scaled = plane.astype(np.uint8) * 255
        name = f"{stem.name}_ch{i}.pgm"
        write_pgm(stem.parent / name, scaled)
        entries[f"file_ch{i}"] = name
    meta_path = stem.parent / f"{stem.name}.meta"
    write_meta(meta_path, entries)
    return meta_path


def read_image(meta_path: str | Path) -> tuple[BinaryImageTensor, NormStats | None]:
    """Read a binary grid written by :func:`write_image`."""
    meta_path = Path(meta_path)
    meta = read_meta(meta_path)
    if meta.get("format") != "binary":
        raise InputError(f"{meta_path}: only binary grids can be read back, got format={meta.get('format')!r}")
    try:
        params = SpaceParams(h=int(meta["h"]), ms=float(meta["ms"]))
        channels = int(meta["channels"])
        length = int(meta["length"])
    except (KeyError, ValueError) as exc:
        raise InputError(f"{meta_path}: incomplete or malformed metadata") from exc
    planes = []
    for i in range(channels):
        name = meta.get(f"file_ch{i}")
        if name is None:
            raise InputError(f"{meta_path}: missing file entry for channel {i}")
        plane = read_pgm(meta_path.parent / name)
        if plane.shape != (params.h, length):
            raise InputError(f"{meta_path}: channel {i} has shape {plane.shape}, expected {(params.h, length)}")
        planes.append((plane >= 128).astype(np.uint8))
    grid = np.stack(planes)
    stats = None
    if "norm_mean" in meta and "norm_std" in meta:
        mean = np.array([float(v) for v in meta["norm_mean"].split(",")])
        std = np.array([float(v) for v in meta["norm_std"].split(",")])
        # normalize stores a floored std as exactly STD_FLOOR, hence <= rather than <
        stats = NormStats(mean=mean, std=std, floored=std <= STD_FLOOR)
    return BinaryImageTensor(grid, params), stats


def write_report_csv(path: str | Path, rows: Sequence, aggregates: Sequence = ()) -> None:
    """Evaluation report: per-factor rows, then aggregate rows marked ``mean(U)``."""
    with atomic_write(path) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["dataset", "horizon", "beta", "scenario", "mse", "mae", "windows"])
        labelled = [(r, "" if r.beta is None else _fmt(r.beta)) for r in rows] + [(r, "mean(U)") for r in aggregates]
        for r, beta in labelled:
            mse, mae = ("" if v is None else _fmt(v) for v in (r.mse, r.mae))
            writer.writerow([r.dataset, r.horizon, beta, r.scenario, mse, mae, r.windows])
