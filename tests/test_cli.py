import argparse
import configparser
import csv
import dataclasses
import filecmp
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tsgrid
from tsgrid import (
    AugmentConfig,
    EvalConfig,
    GeneratorConfig,
    PerturbationSpec,
    RngStream,
    SolveConfig,
    SpaceParams,
    TimeSeries,
    cli,
    from_1d,
)
from tsgrid.cli import main
from tsgrid.generate import sample_series
from tsgrid.imagespace import NormStats, encode
from tsgrid.io import read_series_csv, write_image, write_series_csv


def read_manifest_csv(path):
    with Path(path).open(newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def files_identical(dir_a: Path, dir_b: Path) -> bool:
    names_a = sorted(p.name for p in dir_a.rglob("*") if p.is_file())
    names_b = sorted(p.name for p in dir_b.rglob("*") if p.is_file())
    if names_a != names_b:
        return False
    for name in names_a:
        fa = next(p for p in dir_a.rglob(name) if p.is_file())
        fb = next(p for p in dir_b.rglob(name) if p.is_file())
        if not filecmp.cmp(fa, fb, shallow=False):
            return False
    return True


def write_sine(path, length=256, amplitude=2.0, period=32.0):
    t = np.arange(length)
    write_series_csv(path, from_1d(amplitude * np.sin(2 * np.pi * t / period)))


# ---------------------------------------------------------------- generate


def test_generate_writes_count_and_manifest(tmp_path):
    out = tmp_path / "out"
    assert main(["generate", "-n", "3", "--seed", "7", "--length", "64", "-o", str(out)]) == 0
    files = sorted(p.name for p in out.glob("series_*.csv"))
    assert files == ["series_00000.csv", "series_00001.csv", "series_00002.csv"]
    manifest = read_manifest_csv(out / "manifest.csv")
    assert len(manifest) == 3
    assert all(row["length"] == "64" for row in manifest)
    assert (out / "resolved_generate.ini").exists()


def test_generate_is_byte_deterministic(tmp_path):
    args = ["generate", "-n", "4", "--seed", "11", "--length", "48"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["-o", str(a)]) == 0
    assert main(args + ["-o", str(b)]) == 0
    assert files_identical(a, b)


def test_generate_seed_changes_output(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["generate", "-n", "2", "--seed", "1", "--length", "48", "-o", str(a)])
    main(["generate", "-n", "2", "--seed", "2", "--length", "48", "-o", str(b)])
    assert not files_identical(a, b)


def test_generate_has_no_threads_option(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "-n", "1", "--seed", "5", "--length", "16", "-o", str(tmp_path / "out"), "--threads", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_generate_ignores_the_old_threads_variable(tmp_path, monkeypatch):
    args = ["generate", "-n", "3", "--seed", "5", "--length", "48"]
    monkeypatch.delenv("TSGRID_THREADS", raising=False)
    assert main(args + ["-o", str(tmp_path / "a")]) == 0
    monkeypatch.setenv("TSGRID_THREADS", "abc")
    assert main(args + ["-o", str(tmp_path / "b")]) == 0
    assert files_identical(tmp_path / "a", tmp_path / "b")
    assert "threads" not in (tmp_path / "a" / "resolved_generate.ini").read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "flags, message",
    [
        (["-n", "-5"], "-n/--count must be nonnegative, got -5"),
        (["-n", "1", "--start-stream", "-3"], "--start-stream must be nonnegative and leave -n streams below 2**64, got -3"),
        (["-n", "2", "--start-stream", str(2**64 - 1)],
         f"--start-stream must be nonnegative and leave -n streams below 2**64, got {2**64 - 1}"),
        (["-n", "1", "--seed", "-1"], "seed must be a 64-bit unsigned integer, got -1"),
        (["-n", "1", "--length", "1"], "length must be at least 2, got 1"),
    ],
)
def test_generate_rejects_settings_before_writing(tmp_path, capsys, flags, message):
    out = tmp_path / "out"
    assert main(["generate", "--seed", "5", "--length", "16", *flags, "-o", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["evaluate", "perturb"])
def test_seeded_commands_reject_a_bad_seed_before_writing(tmp_path, capsys, command):
    data = tmp_path / "data.csv"
    write_sine(data)
    out = tmp_path / "out"
    extra = ["--model", "persistence", "--lookback", "32"] if command == "evaluate" else ["--perturb", "missing"]
    assert main([command, "--dataset", str(data), *extra, "--seed", "-1", "-o", str(out)]) == 1
    assert capsys.readouterr().err == "error: seed must be a 64-bit unsigned integer, got -1\n"
    assert not out.exists()


def test_generate_writes_the_last_stream_below_2_64(tmp_path):
    out = tmp_path / "out"
    assert main(["generate", "-n", "1", "--seed", "5", "--length", "16", "--start-stream", str(2**64 - 1), "-o", str(out)]) == 0
    assert read_manifest_csv(out / "manifest.csv")[0]["stream"] == str(2**64 - 1)


def test_generate_manifest_hypothesis_split(tmp_path):
    out = tmp_path / "out"
    n = 2000
    assert main(["generate", "-n", str(n), "--seed", "29", "--length", "64", "-o", str(out)]) == 0
    rows = read_manifest_csv(out / "manifest.csv")
    periodic = sum(r["hypothesis"] == "periodic" for r in rows)
    sigma = np.sqrt(0.25 / n)
    assert abs(periodic / n - 0.5) <= 3.0 * sigma


def test_generate_records_auto_seed(tmp_path):
    out = tmp_path / "out"
    assert main(["generate", "-n", "1", "--length", "16", "-o", str(out)]) == 0
    text = (out / "resolved_generate.ini").read_text(encoding="utf-8")
    seed_line = next(line for line in text.splitlines() if line.startswith("seed"))
    assert int(seed_line.split("=")[1]) >= 0


def test_config_file_sets_defaults_and_flags_win(tmp_path):
    cfg = tmp_path / "gen.ini"
    cfg.write_text("[generator]\nalpha = 1.0\nlength = 32\n", encoding="utf-8")
    out1 = tmp_path / "periodic"
    main(["generate", "-n", "5", "--seed", "3", "--config", str(cfg), "-o", str(out1)])
    rows = read_manifest_csv(out1 / "manifest.csv")
    assert all(r["hypothesis"] == "periodic" for r in rows)

    out2 = tmp_path / "trend"
    main(["generate", "-n", "5", "--seed", "3", "--config", str(cfg), "--alpha", "0.0", "-o", str(out2)])
    rows = read_manifest_csv(out2 / "manifest.csv")
    assert all(r["hypothesis"] == "trend" for r in rows)


@pytest.mark.parametrize(
    "command, ini, message",
    [
        ("evaluate", "[eval]\nlookbak = 96\n",
         "[eval]: unknown key 'lookbak'; valid keys: lookback, horizons, rescale_factors, stride"),
        ("evaluate", "[space]\nhh = 64\n", "[space]: unknown key 'hh'; valid keys: h, ms"),
        ("encode", "[space]\nMS = 2\nmax_scale = 2\n", "[space]: unknown key 'max_scale'; valid keys: h, ms"),
        ("generate", "[generator]\naugment = none\n", "[generator]: unknown key 'augment'; valid keys: alpha,"),
        ("generate", "[augment]\nflipp = no\n", "[augment]: unknown key 'flipp'; valid keys: replicate,"),
        ("solve-ms", "[solve]\nh_list = 32\nk_lists = 1\n",
         "[solve]: unknown key 'k_lists'; valid keys: h_list, k_list"),
    ],
    ids=["eval", "evaluate-space", "encode-space", "generator-field-ini-cannot-hold", "augment", "solve"],
)
def test_an_unknown_config_key_is_an_error_before_any_output(tmp_path, capsys, monkeypatch, command, ini, message):
    # such a key was once ignored: `[eval] lookbak = 96` ran with the default lookback 512
    monkeypatch.chdir(tmp_path)
    write_sine(tmp_path / "data.csv", length=700)
    (tmp_path / "c.ini").write_text("[run]\nanything = 1\n" + ini, encoding="utf-8")
    argv = {
        "evaluate": ["evaluate", "--dataset", "data.csv", "--model", "persistence", "--seed", "1"],
        "encode": ["encode", "data.csv"],
        "generate": ["generate", "-n", "1", "--seed", "1"],
        "solve-ms": ["solve-ms"],
    }[command]
    assert main(argv + ["--config", "c.ini", "-o", "out"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, ini, message",
    [
        ("generate", "[generator]\nalpha = abc\n", "[generator] alpha: could not convert string to float: 'abc'"),
        ("encode", "[space]\nh = 12.5\n", "[space] h: invalid literal for int() with base 10: '12.5'"),
        ("generate", "[augment]\nflip = maybe\n", "[augment] flip: not a boolean: 'maybe'"),
        ("solve-ms", "[solve]\nh_list = 32,x\n", "[solve] h_list: invalid literal for int() with base 10: 'x'"),
        ("solve-ms", "[solve]\nk_list = 1,two\n", "[solve] k_list: could not convert string to float: 'two'"),
        ("generate", "[generator]\npwb_amp_range = 1,2,3\n", "[generator] pwb_amp_range: expected 2 values, got 3"),
        ("generate", "[generator]\npwb_amp_range = 1\n", "[generator] pwb_amp_range: expected 2 values, got 1"),
        ("generate", "[augment]\nperturb_scale_range =\n", "[augment] perturb_scale_range: expected 2 values, got 0"),
        ("solve-ms", "[solve]\nh_list =\n", "h_list must not be empty"),
        ("solve-ms", "[solve]\nk_list = 1,1.5,1\n", "k_list must be distinct, got (1.0, 1.5, 1.0)"),
    ],
    ids=[
        "float", "int", "bool", "int-list", "float-list", "pair-of-3", "pair-of-1", "pair-of-0", "empty-list",
        "repeated-list",
    ],
)
def test_a_bad_config_value_names_its_setting_before_any_output(tmp_path, capsys, monkeypatch, command, ini, message):
    # such a value once failed with the bare parser message, e.g. "too many values to unpack (expected 2)"
    monkeypatch.chdir(tmp_path)
    write_sine(tmp_path / "data.csv", length=64)
    (tmp_path / "c.ini").write_text(ini, encoding="utf-8")
    argv = {"encode": ["encode", "data.csv"], "generate": ["generate", "-n", "1", "--seed", "1"], "solve-ms": ["solve-ms"]}
    assert main(argv[command] + ["--config", "c.ini", "-o", "out"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_output_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("TSGRID_OUTPUT_DIR", str(tmp_path / "from-env"))
    assert main(["generate", "-n", "1", "--seed", "1", "--length", "16"]) == 0
    assert (tmp_path / "from-env" / "series_00000.csv").exists()


def _snapshot_section(out: Path, command: str, section: str) -> dict[str, str]:
    parser = configparser.ConfigParser()
    parser.read(out / f"resolved_{command}.ini", encoding="utf-8")
    return dict(parser[section])


def test_config_file_accepts_legacy_spellings(tmp_path):
    cfg = tmp_path / "gen.ini"
    cfg.write_text(
        "[generator]\nlgb_logK_range = 0.5,1.5\nnoise_sigma_eps = none\n"
        "[augment]\nreplicate = yes\nflip = off\nperturb = 1\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert main(["generate", "-n", "1", "--seed", "3", "--length", "32", "--config", str(cfg), "-o", str(out)]) == 0
    generator = _snapshot_section(out, "generate", "generator")
    assert generator["lgb_logk_range"] == "0.5,1.5"
    assert generator["noise_sigma_eps"] == "none"
    augment = _snapshot_section(out, "generate", "augment")
    assert (augment["replicate"], augment["flip"], augment["perturb"]) == ("True", "False", "True")


# ---------------------------------------------------------------- codec


def test_encode_decode_roundtrip_bound(tmp_path):
    src = tmp_path / "sine.csv"
    write_sine(src)  # amplitude 2 stays inside the default scale 3.5
    enc, dec = tmp_path / "enc", tmp_path / "dec"
    assert main(["encode", str(src), "-o", str(enc)]) == 0
    assert main(["decode", str(enc / "sine.meta"), "-o", str(dec)]) == 0
    original = read_series_csv(src)
    decoded = read_series_csv(dec / "sine.decoded.csv")
    params = SpaceParams()
    assert np.max(np.abs(decoded.values - original.values)) <= params.ms / params.h + 1e-9


def test_encode_normalized_roundtrip(tmp_path):
    src = tmp_path / "big.csv"
    t = np.arange(128)
    write_series_csv(src, from_1d(100.0 + 10.0 * np.sin(2 * np.pi * t / 16.0)))
    enc, dec = tmp_path / "enc", tmp_path / "dec"
    assert main(["encode", str(src), "--normalize-lookback", "128", "-o", str(enc)]) == 0
    assert main(["decode", str(enc / "big.meta"), "-o", str(dec)]) == 0
    original = read_series_csv(src)
    decoded = read_series_csv(dec / "big.decoded.csv")
    scale = 10.0 / np.sqrt(2.0)  # lookback std of the sine
    params = SpaceParams()
    assert np.max(np.abs(decoded.values - original.values)) <= scale * params.ms / params.h + 1e-6


def test_encode_constant_series_single_row(tmp_path):
    src = tmp_path / "flat.csv"
    write_series_csv(src, from_1d(np.zeros(32)))
    enc = tmp_path / "enc"
    assert main(["encode", str(src), "-o", str(enc)]) == 0
    from tsgrid.io import read_image

    image, _ = read_image(enc / "flat.meta")
    rows = image.grid[0].argmax(axis=0)
    assert np.all(rows == rows[0])
    assert np.array_equal(image.grid.sum(axis=1), np.ones((1, 32), dtype=np.uint64))


def test_decode_structural_error_names_path(tmp_path, capsys):
    src = tmp_path / "masked.csv"
    values = np.linspace(-1, 1, 16)
    values[3] = np.nan
    write_series_csv(src, from_1d(values))
    enc = tmp_path / "enc"
    assert main(["encode", str(src), "-o", str(enc)]) == 0
    # without --allow-missing the all-zero column is a structural error
    assert main(["decode", str(enc / "masked.meta"), "-o", str(tmp_path / "dec")]) == 1
    err = capsys.readouterr().err
    assert "masked.meta" in err
    # with the flag it decodes, carrying the gap through
    assert main(["decode", str(enc / "masked.meta"), "--allow-missing", "-o", str(tmp_path / "dec")]) == 0
    decoded = read_series_csv(tmp_path / "dec" / "masked.decoded.csv")
    assert np.flatnonzero(np.isnan(decoded.values[0])).tolist() == [3]


def test_decode_rejects_a_column_with_two_cells_in_its_graymap(tmp_path, capsys):
    src = tmp_path / "sine.csv"
    write_sine(src, length=16)
    enc = tmp_path / "enc"
    assert main(["encode", str(src), "--h", "8", "-o", str(enc)]) == 0
    pgm = enc / "sine_ch0.pgm"
    header, pixels = pgm.read_bytes().split(b"\n255\n", 1)
    assert header == b"P5\n16 8"
    plane = np.frombuffer(pixels, dtype=np.uint8).reshape(8, 16).copy()
    active = int(np.flatnonzero(plane[:, 5])[0])
    plane[(active + 3) % 8, 5] = 255  # a second active cell in column 5
    pgm.write_bytes(header + b"\n255\n" + plane.tobytes())
    assert main(["decode", str(enc / "sine.meta"), "-o", str(tmp_path / "dec")]) == 1
    err = capsys.readouterr().err
    assert str(enc / "sine.meta") in err
    assert "more than one active cell" in err


def test_readme_library_example_runs():
    root = Path(__file__).resolve().parent.parent
    block = (root / "README.md").read_text(encoding="utf-8").split("## Library example", 1)[1]
    code = block.split("```python\n", 1)[1].split("```", 1)[0]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, encoding="utf-8", env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[0].startswith("2.64")


def test_readme_cli_walkthrough_runs_and_replays_byte_exactly(tmp_path):
    root = Path(__file__).resolve().parent.parent
    section = (root / "README.md").read_text(encoding="utf-8").split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    blocks = [block.split("```", 1)[0] for block in section.split("```sh\n")[1:]]
    script = "".join("\n" + block for block in blocks).replace("\ntsgrid ", f'\n"{sys.executable}" -m tsgrid.cli ')
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    env.pop("TSGRID_OUTPUT_DIR", None)
    result = subprocess.run(
        ["sh", "-ec", script + "\ndiff -r reports replay\n"],
        capture_output=True, encoding="utf-8", env=env, cwd=tmp_path, timeout=300,
    )
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr
    assert (tmp_path / "replay" / "report.csv").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["encode", "nope.csv"], "nope.csv: [Errno 2] No such file or directory: 'nope.csv'"),
        (["decode", "nope.meta"], "nope.meta: [Errno 2] No such file or directory: 'nope.meta'"),
        (["evaluate", "--dataset", "nope.csv", "--model", "persistence"],
         "nope.csv: [Errno 2] No such file or directory: 'nope.csv'"),
        (["evaluate", "--dataset", "data.csv", "--model", "nope"],
         "unknown model id 'nope'; registered ids: persistence, seasonal-naive, linear-trend, persistence-image, "
         "seasonal-naive-image, linear-trend-image, oracle"),
        (["evaluate", "--dataset", "data.csv", "--model", "persistence", "--lookback", "32", "--horizons", "5000"],
         "persistence: horizon 5000 exceeds limit 4096"),
        (["evaluate", "--dataset", "data.csv", "--model", "persistence", "--horizons", "96,96"],
         "horizons must be distinct, got (96, 96)"),
        (["evaluate", "--dataset", "data.csv", "--model", "persistence", "--betas", "0.5,1,1"],
         "rescale factors must be distinct, got (0.5, 1.0, 1.0)"),
        # a repeated value once wrote each of its rows twice, to stdout and to solve_ms.csv
        (["solve-ms", "--h-list", "32,32"], "h_list must be distinct, got (32, 32)"),
        (["perturb", "--dataset", "nope.csv", "--perturb", "missing"],
         "nope.csv: [Errno 2] No such file or directory: 'nope.csv'"),
        (["evaluate", "--dataset", "huge.csv", "--model", "persistence", "--lookback", "512", "--horizons", "20",
          "--betas", "1"],
         "beta=1 horizon=20: error sums overflow float64"),
        (["encode", "tail.csv", "--normalize-lookback", "20"],
         "tail.csv: channel 0: standardized values overflow float64"),
        # a non-finite sigma once failed at the first series it reached, after earlier series were written
        (["generate", "-n", "20", "--seed", "3", "--noise-sigma", "nan"],
         "noise_sigma_eps must be nonnegative and finite, got nan"),
        (["generate", "-n", "20", "--seed", "3", "--config", "rwb.ini"], "rwb_sigma must be positive and finite, got inf"),
        # csv's own error once escaped main as a traceback
        (["evaluate", "--dataset", "big.csv", "--model", "persistence"],
         "big.csv:3: field larger than field limit (131072)"),
        # of several scenarios, the error names the one that left no target
        (["evaluate", "--dataset", "data.csv", "--model", "persistence", "--perturb", "missing:0.5",
          "--perturb", "missing:1"],
         "scenario missing:1: every target is masked in every (rescale factor, horizon) pair with a window: "
         "length 2600, lookback 512, horizons (96, 192, 336, 720)"),
        # numpy's MemoryError once escaped main as a traceback, then named neither the factor nor the
        # length; a 2.6e15-sample request allocates nothing
        (["evaluate", "--dataset", "data.csv", "--model", "persistence", "--betas", "1,1e12"],
         "rescale factor 1000000000000.0: a rescaled length of 2600000000000000 samples cannot be allocated"),
        # numpy's overflow warnings once came first, then an error that did not name the denormalization
        (["decode", "over.meta"], "over.meta: channel 0: denormalized values overflow float64"),
    ],
    ids=[
        "encode", "decode", "evaluate-dataset", "evaluate-model", "evaluate-horizon",
        "evaluate-duplicate-horizons", "evaluate-duplicate-betas", "solve-ms-duplicate-h-list", "perturb", "evaluate-error-overflow",
        "encode-standardized-overflow", "generate-noise-sigma-flag", "generate-rwb-sigma-ini",
        "evaluate-oversized-field", "evaluate-all-masked-scenario", "evaluate-unallocatable-beta",
        "decode-denormalized-overflow",
    ],
)
def test_a_failed_command_leaves_no_output_dir(tmp_path, capsys, monkeypatch, argv, message):
    # an overflow that warned instead of failing fails the suite: RuntimeWarning is an error here
    monkeypatch.chdir(tmp_path)
    write_sine(tmp_path / "data.csv", length=2600)  # at beta 2 a horizon-5000 window fits
    # 5.0 and then 1e300: the persistence forecast of a window that reaches row 550 misses by 1e300
    write_series_csv(tmp_path / "huge.csv", from_1d(np.where(np.arange(600) < 550, 5.0, 1e300)))
    # a lookback of 1s and 2s, then 1e308: finite statistics, standardized 2e308
    write_series_csv(tmp_path / "tail.csv", from_1d(np.where(np.arange(30) < 20, 1.0 + np.arange(30) % 2, 1e308)))
    (tmp_path / "rwb.ini").write_text("[generator]\nrwb_sigma = inf\n", encoding="utf-8")
    (tmp_path / "big.csv").write_text("t,ch0\n0,1\n1," + "x" * 200_000 + "\n", encoding="utf-8")
    # norm_mean = norm_std = 1e308: a sample in the cell centered at 2.98 denormalizes to 3.98e308
    overflow = NormStats(mean=np.array([1e308]), std=np.array([1e308]), floored=np.array([False]))
    write_image(tmp_path / "over", encode(from_1d(np.full(4, 3.0)), SpaceParams()), overflow)
    seed = ["--seed", "1"] if argv[0] in ("evaluate", "perturb") else []
    assert main(argv + seed + ["-o", "out"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["encode", "decode"])
def test_a_bad_later_input_leaves_no_output_dir(tmp_path, capsys, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    write_sine(tmp_path / "clean.csv", length=16)
    if command == "encode":
        argv, bad = ["encode", "clean.csv", "nope.csv"], "nope.csv"
    else:
        assert main(["encode", "clean.csv", "--h", "8", "-o", "enc"]) == 0
        argv, bad = ["decode", "enc/clean.meta", "nope.meta"], "nope.meta"
    capsys.readouterr()
    assert main(argv + ["-o", "pe"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {bad}: [Errno 2] No such file or directory: '{bad}'\n"
    assert not (tmp_path / "pe").exists()


def _encoded_meta(tmp_path, monkeypatch) -> Path:
    monkeypatch.chdir(tmp_path)
    write_sine(tmp_path / "h1.csv", length=16)
    assert main(["encode", "h1.csv", "--h", "8", "-o", "e"]) == 0
    return tmp_path / "e" / "h1.meta"


@pytest.mark.parametrize("edit", [("h = 8", "h = x"), ("channels = 1", "channels = 0")])
def test_decode_names_a_malformed_meta_once(tmp_path, capsys, monkeypatch, edit):
    meta = _encoded_meta(tmp_path, monkeypatch)
    meta.write_text(meta.read_text(encoding="utf-8").replace(*edit), encoding="utf-8")
    capsys.readouterr()
    assert main(["decode", "e/h1.meta", "-o", "dec"]) == 1
    assert capsys.readouterr().err == "error: e/h1.meta: incomplete or malformed metadata\n"
    assert not (tmp_path / "dec").exists()


def test_decode_rejects_a_repeated_meta_key(tmp_path, capsys, monkeypatch):
    # the last value once won: a second norm_mean = 100 shifted every decoded sample by ~97.5
    monkeypatch.chdir(tmp_path)
    (tmp_path / "s.csv").write_text("t,ch0\n0,1\n1,2\n2,3\n3,4\n", encoding="utf-8")
    assert main(["encode", "s.csv", "--normalize-lookback", "4", "-o", "e"]) == 0
    meta = tmp_path / "e" / "s.meta"
    meta.write_text(meta.read_text(encoding="utf-8") + "norm_mean = 100\n", encoding="utf-8")
    (tmp_path / "e" / "s_ch0.pgm").unlink()  # the key is checked before any graymap is read
    capsys.readouterr()
    assert main(["decode", "e/s.meta", "-o", "dec"]) == 1
    assert capsys.readouterr().err == "error: e/s.meta: repeated metadata key 'norm_mean'\n"
    assert not (tmp_path / "dec").exists()


@pytest.mark.parametrize(
    "key, line",
    [
        ("norm_mean", "norm_mean = 0,100"),  # two channels' stats for one channel
        ("norm_std", "norm_std = -2"),
        ("norm_std", "norm_std = 0"),
        ("norm_mean", "norm_mean = nan"),
        ("norm_std", "norm_std = inf"),
        ("norm_std", ""),  # norm_mean without norm_std
        ("norm_mean", "norm_mean ="),
    ],
    ids=["count", "negative-std", "zero-std", "nan-mean", "inf-std", "lone-key", "empty"],
)
def test_decode_rejects_malformed_normalization_stats(tmp_path, capsys, monkeypatch, key, line):
    # such stats once broadcast (a 2-channel CSV from a 1-channel grid), flipped signs, or were ignored
    monkeypatch.chdir(tmp_path)
    write_sine(tmp_path / "s.csv", length=16)
    assert main(["encode", "s.csv", "--normalize-lookback", "4", "-o", "e"]) == 0
    meta = tmp_path / "e" / "s.meta"
    lines = [line if old.startswith(f"{key} =") else old for old in meta.read_text(encoding="utf-8").splitlines()]
    meta.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["decode", "e/s.meta", "-o", "dec"]) == 1
    assert capsys.readouterr().err == "error: e/s.meta: incomplete or malformed metadata\n"
    assert not (tmp_path / "dec").exists()


def test_codec_errors_that_do_not_name_the_file_get_its_path(tmp_path, capsys, monkeypatch):
    _encoded_meta(tmp_path, monkeypatch)
    capsys.readouterr()
    assert main(["encode", "h1.csv", "--normalize-lookback", "0", "-o", "e2"]) == 1
    assert capsys.readouterr().err == "error: h1.csv: lookback must be in [1, 16], got 0\n"
    pgm = tmp_path / "e" / "h1_ch0.pgm"
    pgm.write_bytes(pgm.read_bytes()[: -8 * 16] + bytes(8 * 16))  # an all-zero 8 x 16 plane
    assert main(["decode", "e/h1.meta", "-o", "dec"]) == 1
    assert capsys.readouterr().err == "error: e/h1.meta: some columns have no active cell (no missing markers expected)\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["evaluate", "--dataset", "big.csv", "--model", "persistence-image", "--lookback", "512"]
         + ["--horizons", "20", "--betas", "1", "--seed", "1"],
         "channel 1: lookback statistics overflow float64"),
        (["encode", "big.csv", "--normalize-lookback", "560"],
         "big.csv: channel 1: lookback statistics overflow float64"),
    ],
    ids=["evaluate", "encode"],
)
def test_overflowing_lookback_statistics_name_the_channel(tmp_path, capsys, monkeypatch, argv, message):
    # finite values of 1e300 square to inf in the lookback's standard deviation
    monkeypatch.chdir(tmp_path)
    values = np.full((2, 600), 5.0)
    values[1, 550:] = 1e300
    write_series_csv(tmp_path / "big.csv", TimeSeries(values))
    assert main(argv + ["-o", "out"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------- solve-ms


def test_solve_ms_emits_expected_rows(tmp_path, capsys):
    assert main(["solve-ms", "--h-list", "128", "--k-list", "1", "-o", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "h,k,ms_star,residual"
    h, k, ms, res = lines[1].split(",")
    assert (h, k) == ("128", "1")
    assert abs(float(ms) - 2.64) <= 0.01
    assert abs(float(res)) < 1e-9
    assert (tmp_path / "solve_ms.csv").read_text(encoding="utf-8").splitlines()[0] == "h,k,ms_star,residual"


def test_solve_ms_spot_value(tmp_path, capsys):
    assert main(["solve-ms", "--h-list", "32", "--k-list", "2", "-o", str(tmp_path)]) == 0
    value = float(capsys.readouterr().out.strip().splitlines()[1].split(",")[2])
    assert abs(value - 3.03) <= 0.01


def test_solve_ms_empty_grid(tmp_path, capsys):
    # an empty list once wrote a header-only solve_ms.csv and exited 0
    for name, flags in (("h_list", ["--h-list", "", "--k-list", "1"]), ("k_list", ["--h-list", "32", "--k-list", ""])):
        assert main(["solve-ms", *flags, "-o", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {name} must not be empty\n"
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, line",
    [
        (["solve-ms", "--h-list", "32,x"],
         "tsgrid solve-ms: error: argument --h-list: invalid literal for int() with base 10: 'x'"),
        (["solve-ms", "--k-list", "1,two"],
         "tsgrid solve-ms: error: argument --k-list: could not convert string to float: 'two'"),
        (["evaluate", "--dataset", "d.csv", "--model", "persistence", "--horizons", "96,1.5"],
         "tsgrid evaluate: error: argument --horizons: invalid literal for int() with base 10: '1.5'"),
        (["evaluate", "--dataset", "d.csv", "--model", "persistence", "--betas", "1,x"],
         "tsgrid evaluate: error: argument --betas: could not convert string to float: 'x'"),
    ],
    ids=["h-list", "k-list", "horizons", "betas"],
)
def test_a_bad_list_flag_names_the_bad_element(tmp_path, capsys, argv, line):
    # such a flag once named the parsing function instead: "invalid _parse_ints value: '32,x'"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["-o", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == line
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------- evaluate


def test_evaluate_oracle_prints_zero(tmp_path, capsys):
    src = tmp_path / "data.csv"
    write_sine(src, length=400)
    rc = main(
        [
            "evaluate",
            "--dataset",
            str(src),
            "--model",
            "oracle",
            "--lookback",
            "32",
            "--horizons",
            "16",
            "--betas",
            "0.5,1,2",
            "--seed",
            "1",
            "-o",
            str(tmp_path / "ev"),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "ReMSE=0.000000 ReMAE=0.000000" in out
    assert (tmp_path / "ev" / "report.csv").exists()


def test_evaluate_unknown_model_lists_ids(tmp_path, capsys):
    src = tmp_path / "data.csv"
    write_sine(src)
    rc = main(["evaluate", "--dataset", str(src), "--model", "bogus", "--seed", "1", "-o", str(tmp_path / "ev")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "persistence" in err and "oracle" in err


def test_evaluate_one_sample_lookback_names_the_lookback(tmp_path):
    # a child process, so output that native code writes to the raw file
    # descriptors is flushed and captured too
    src = tmp_path / "data.csv"
    write_sine(src)
    args = ["evaluate", "--dataset", str(src), "--model", "linear-trend", "--lookback", "1"]
    args += ["--horizons", "4", "--betas", "1", "--seed", "1", "-o", str(tmp_path / "ev")]
    env = {**os.environ, "PYTHONPATH": str(Path(tsgrid.__file__).resolve().parent.parent)}
    result = subprocess.run(
        [sys.executable, "-m", "tsgrid.cli", *args], capture_output=True, encoding="utf-8", env=env, timeout=120
    )
    assert result.returncode == 1
    assert result.stderr == "error: linear-trend needs a lookback of at least 2 samples, got 1\n"
    assert "DLASCL" not in result.stdout


def test_evaluate_reads_a_utf8_config_under_an_ascii_locale(tmp_path):
    src = tmp_path / "data.csv"
    write_sine(src)
    cfg = tmp_path / "c.ini"
    cfg.write_text("# Fenstergröße\n[eval]\nlookback = 32\nhorizons = 8\n", encoding="utf-8")
    args = ["evaluate", "--config", str(cfg), "--dataset", str(src), "--model", "persistence", "--seed", "1"]
    env = {**os.environ, "PYTHONPATH": str(Path(tsgrid.__file__).resolve().parent.parent)}
    env.update(LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
    result = subprocess.run(
        [sys.executable, "-m", "tsgrid.cli", *args, "-o", str(tmp_path / "ev")],
        capture_output=True, encoding="utf-8", env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    assert (tmp_path / "ev" / "report.csv").exists()


def test_evaluate_noise_monotonicity(tmp_path, capsys):
    src = tmp_path / "data.csv"
    # persistence is exact on constants, so the noise term dominates the
    # metric and the variance ordering is statistically unambiguous
    write_series_csv(src, from_1d(np.full(1000, 1.5)))
    rc = main(
        [
            "evaluate",
            "--dataset", str(src),
            "--model", "persistence",
            "--lookback", "32",
            "--horizons", "16",
            "--betas", "1",
            "--perturb", "gaussian_noise:0.1",
            "--perturb", "gaussian_noise:0.3",
            "--seed", "5",
            "-o", str(tmp_path / "ev"),
        ]
    )
    assert rc == 0
    report = (tmp_path / "ev" / "report.csv").read_text(encoding="utf-8").splitlines()
    rows = [line.split(",") for line in report[1:]]
    mse = {row[3]: float(row[4]) for row in rows if row[2] == "1" and row[4]}
    assert mse["gaussian_noise:0.3"] >= mse["gaussian_noise:0.1"]
    assert mse["gaussian_noise:0.1"] >= mse["none"]


def test_evaluate_is_deterministic(tmp_path):
    src = tmp_path / "data.csv"
    write_sine(src, length=400)
    args = [
        "evaluate", "--dataset", str(src), "--model", "persistence",
        "--lookback", "32", "--horizons", "8", "--betas", "0.5,1",
        "--perturb", "missing:0.2", "--seed", "9",
    ]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["-o", str(a)]) == 0
    assert main(args + ["-o", str(b)]) == 0
    assert files_identical(a, b)


def test_evaluate_names_why_an_aggregate_was_skipped(tmp_path, capsys):
    values = np.cumsum(np.random.default_rng(0).standard_normal(1000))
    values[40:950] = np.nan
    write_series_csv(tmp_path / "series.csv", from_1d(values))
    out = tmp_path / "ev"
    args = ["evaluate", "--dataset", str(tmp_path / "series.csv"), "--model", "persistence"]
    assert main(args + ["--lookback", "100", "--horizons", "8,500,5000", "--seed", "0", "-o", str(out)]) == 0
    with open(out / "report.csv", newline="", encoding="utf-8") as handle:
        masked = [r for r in csv.DictReader(handle) if r["horizon"] == "500" and r["beta"] != "mean(U)"]
    assert sum(int(r["windows"]) for r in masked) == 7 and all(r["mse"] == "" for r in masked)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("series horizon=8 scenario=none: ReMSE=")
    assert lines[1:] == [
        "series horizon=500 scenario=none: skipped (every target masked)",
        "series horizon=5000 scenario=none: skipped (series too short)",
        f"report written to {out / 'report.csv'}",
    ]


def test_evaluate_seasonal_naive_from_file(tmp_path):
    t = np.arange(300)
    write_series_csv(tmp_path / "pwb.csv", from_1d(np.sin(2 * np.pi * t / 25.0) + 0.3 * np.sin(2 * np.pi * t / 7.0)))
    args = ["evaluate", "--dataset", str(tmp_path / "pwb.csv"), "--model", "seasonal-naive"]
    args += ["--lookback", "50", "--horizons", "10", "--betas", "1,2", "--seed", "4"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["-o", str(a)]) == 0
    assert main(args + ["-o", str(b)]) == 0
    assert (a / "report.csv").read_bytes() == (b / "report.csv").read_bytes()
    with open(a / "report.csv", newline="", encoding="utf-8") as handle:
        (aggregate,) = [r for r in csv.DictReader(handle) if r["beta"] == "mean(U)"]
    assert 0.0 < float(aggregate["mae"]) < float("inf")


def test_evaluate_keeps_distinct_harmonic_scenarios_apart(tmp_path):
    src = tmp_path / "data.csv"
    write_sine(src, length=400)
    args = ["evaluate", "--dataset", str(src), "--model", "persistence", "--lookback", "32", "--horizons", "16"]
    args += ["--betas", "1", "--perturb", "harmonic:0.5,0.01", "--perturb", "harmonic:5,0.2", "--seed", "2"]
    assert main(args + ["-o", str(tmp_path / "ev")]) == 0
    with open(tmp_path / "ev" / "report.csv", newline="", encoding="utf-8") as handle:
        aggregates = {r["scenario"]: r for r in csv.DictReader(handle) if r["beta"] == "mean(U)"}
    assert sorted(aggregates) == ["harmonic:0.5,0.01", "harmonic:5,0.2", "none"]
    assert {r["windows"] for r in aggregates.values()} == {aggregates["none"]["windows"]}
    assert aggregates["harmonic:0.5,0.01"]["mse"] != aggregates["harmonic:5,0.2"]["mse"]
    specs = _snapshot_section(tmp_path / "ev", "evaluate", "perturbations")["specs"]
    assert specs == "harmonic:0.5,0.01;harmonic:5,0.2"


@pytest.mark.parametrize(
    "spec",
    [
        PerturbationSpec("harmonic", harmonic_amplitude=0.5, harmonic_frequency=0.01),
        PerturbationSpec("harmonic", harmonic_amplitude=2.5),
        PerturbationSpec("harmonic", harmonic_frequency=0.125),
        PerturbationSpec("harmonic"),
        PerturbationSpec("gaussian_noise", noise_std=0.25),
        PerturbationSpec("missing", missing_probability=0.5),
        PerturbationSpec("gaussian_noise", noise_std=0.1000001),
    ],
)
def test_perturbation_label_parses_back(spec):
    assert PerturbationSpec.parse(spec.label()) == spec


def test_evaluate_keeps_scenarios_apart_past_the_sixth_digit(tmp_path):
    src = tmp_path / "data.csv"
    write_sine(src, length=400)
    args = ["evaluate", "--dataset", str(src), "--model", "persistence", "--lookback", "32", "--horizons", "16"]
    args += ["--betas", "1", "--perturb", "gaussian_noise:0.1000001", "--perturb", "gaussian_noise:0.1000002"]
    assert main(args + ["--seed", "2", "-o", str(tmp_path / "ev")]) == 0
    with open(tmp_path / "ev" / "report.csv", newline="", encoding="utf-8") as handle:
        aggregates = {r["scenario"]: r for r in csv.DictReader(handle) if r["beta"] == "mean(U)"}
    assert sorted(aggregates) == ["gaussian_noise:0.1000001", "gaussian_noise:0.1000002", "none"]
    assert {r["windows"] for r in aggregates.values()} == {aggregates["none"]["windows"]}


@pytest.mark.parametrize(
    "spec", ["gaussian_noise:abc", "harmonic:1,2,3", "gaussian_noise:nan", "harmonic:inf", "bogus:1"]
)
def test_evaluate_rejects_malformed_perturb_spec(tmp_path, capsys, spec):
    src = tmp_path / "data.csv"
    write_sine(src, length=400)
    args = ["evaluate", "--dataset", str(src), "--model", "persistence", "--perturb", spec, "-o", str(tmp_path / "ev")]
    assert main(args) == 1
    assert f"--perturb {spec!r}" in capsys.readouterr().err


# ---------------------------------------------------------------- perturb


def test_perturb_missing_writes_empty_fields(tmp_path):
    src = tmp_path / "data.csv"
    write_sine(src, length=1000)
    out = tmp_path / "out"
    rc = main(["perturb", "--dataset", str(src), "--perturb", "missing:0.3", "--seed", "2", "-o", str(out)])
    assert rc == 0
    back = read_series_csv(out / "data.perturbed.csv")
    density = np.isnan(back.values).mean()
    assert 0.25 <= density <= 0.35


def test_perturb_noise_changes_values(tmp_path):
    src = tmp_path / "data.csv"
    write_sine(src, length=200)
    out = tmp_path / "out"
    rc = main(["perturb", "--dataset", str(src), "--perturb", "gaussian_noise:0.5", "--seed", "3", "-o", str(out)])
    assert rc == 0
    original = read_series_csv(src)
    noisy = read_series_csv(out / "data.perturbed.csv")
    resid = noisy.values - original.values
    assert 0.3 < np.std(resid) < 0.7


# ---------------------------------------------------------------- misc


def test_list_models_table(capsys):
    assert main(["list-models"]) == 0
    out = capsys.readouterr().out
    for model_id in ("persistence", "seasonal-naive-image", "oracle"):
        assert model_id in out


def test_missing_config_file_errors(tmp_path, capsys):
    rc = main(["generate", "-n", "1", "--seed", "1", "--config", str(tmp_path / "none.ini"), "-o", str(tmp_path / "o")])
    assert rc == 1
    assert "config file" in capsys.readouterr().err


def test_config_file_that_is_not_utf8_is_named(tmp_path, capsys):
    cfg = tmp_path / "c.ini"
    cfg.write_bytes("# Fenstergröße\n[generator]\n".encode("latin-1"))
    rc = main(["generate", "-n", "1", "--seed", "1", "--config", str(cfg), "-o", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: {cfg}: 'utf-8' codec can't decode byte 0xf6")


@pytest.mark.parametrize(
    "text, message",
    [
        ("[space]\nh = 8\nh = 9\n", "option 'h' in section 'space' already exists"),
        ("h = 8\n", "File contains no section headers."),
    ],
    ids=["repeated-key", "no-section"],
)
def test_a_malformed_config_file_is_named(tmp_path, capsys, text, message):
    # such a file once ended the command with a configparser traceback
    cfg = tmp_path / "c.ini"
    cfg.write_text(text, encoding="utf-8")
    assert main(["generate", "-n", "1", "--seed", "1", "--config", str(cfg), "-o", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: ") and message in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["perturb", "decode"])
def test_config_flag_is_rejected_where_no_config_is_read(tmp_path, capsys, command):
    argv = {
        "perturb": ["perturb", "--dataset", str(tmp_path / "d.csv"), "--perturb", "missing", "--seed", "1"],
        "decode": ["decode", str(tmp_path / "d.meta")],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--config", str(tmp_path / "none.ini"), "-o", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "--config" in capsys.readouterr().err


def test_help_exits_zero_for_every_subcommand(capsys):
    for sub in ("generate", "encode", "decode", "solve-ms", "evaluate", "perturb", "list-models"):
        with pytest.raises(SystemExit) as exc:
            main([sub, "--help"])
        assert exc.value.code == 0
        assert sub in capsys.readouterr().out or sub == "list-models"



def test_help_defaults_match_the_config_defaults():
    # a help text restates its field's default, so a changed dataclass default would leave it stale
    defaults = {
        f.name: f.default
        for cls in (GeneratorConfig, AugmentConfig, SpaceParams, EvalConfig, SolveConfig)
        for f in dataclasses.fields(cls)
    }
    (subparsers,) = (a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    checked = []
    for command, parser in subparsers.choices.items():
        for action in parser._actions:
            stated = re.search(r"\(default ([^)]*)\)", action.help or "")
            if stated and action.dest in defaults:
                assert action.type(stated.group(1)) == defaults[action.dest], (command, action.option_strings)
                checked.append(f"{command} {action.option_strings[0]}")
    assert sorted(checked) == [
        "encode --h", "encode --ms", "evaluate --betas", "evaluate --h", "evaluate --horizons",
        "evaluate --lookback", "evaluate --ms", "solve-ms --h-list", "solve-ms --k-list",
    ]


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="main sets an allocator policy on glibc only")
def test_a_repeated_evaluate_reuses_the_memory_the_first_freed(tmp_path, capsys):
    # the benchmark's eval-numeric run; without the policy the second run takes ~6.6k fresh zero-filled pages
    import resource

    dataset = tmp_path / "d.csv"
    write_series_csv(dataset, sample_series(GeneratorConfig(length=4096), RngStream(20240710, 0)))
    argv = ["evaluate", "--dataset", str(dataset), "--model", "seasonal-naive", "--lookback", "512",
            "--horizons", "96,192,336,720", "--seed", "1",
            "--perturb", "gaussian_noise:0.1", "--perturb", "harmonic", "--perturb", "missing:0.3"]
    assert main(argv + ["-o", str(tmp_path / "first")]) == 0
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert main(argv + ["-o", str(tmp_path / "second")]) == 0
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults < 500


def test_main_runs_where_the_c_library_has_no_mallopt(tmp_path, monkeypatch):
    import ctypes

    opened = []
    monkeypatch.setattr(ctypes, "CDLL", lambda name: opened.append(name) or object())
    cli._keep_freed_memory.cache_clear()
    try:
        write_sine(tmp_path / "d.csv", length=200)
        argv = ["evaluate", "--dataset", str(tmp_path / "d.csv"), "--model", "persistence", "--lookback", "32",
                "--horizons", "8", "--seed", "1", "-o", str(tmp_path / "o")]
        assert main(argv) == 0
    finally:
        cli._keep_freed_memory.cache_clear()
    assert opened == ([None] if platform.libc_ver()[0] == "glibc" else [])


def test_main_parses_with_one_parser_as_a_fresh_parser_would(tmp_path, capsys, monkeypatch):
    # main reuses one cached parser; a command after another, or after a usage error, sees no trace of it
    monkeypatch.delenv("TSGRID_OUTPUT_DIR", raising=False)
    write_sine(tmp_path / "d.csv", length=300)
    evaluate = ["evaluate", "--dataset", str(tmp_path / "d.csv"), "--lookback", "32", "--horizons", "8,16"]
    commands = [
        ["evaluate", "--dataset", str(tmp_path / "d.csv")],  # no --model: a usage error
        evaluate + ["--model", "seasonal-naive", "--perturb", "missing:0.3", "--perturb", "harmonic"]
        + ["--seed", "1", "-o", "e1"],
        ["evaluate", "--model", "persistence"],  # no --dataset: a usage error
        evaluate + ["--model", "persistence-image", "--seed", "2", "-o", "e2"],  # no --perturb, no scenario left over
        ["list-models"],
        ["generate", "-n", "2", "--length", "64", "--seed", "3", "-o", "g"],
        ["solve-ms", "--h-list", "16", "--k-list", "1", "-o", "s"],
        ["bogus"],
    ]

    def run_all(where):
        where.mkdir()
        monkeypatch.chdir(where)
        results = []
        for argv in commands:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            results.append((code, *capsys.readouterr()))
        return results

    assert cli.build_parser() is cli.build_parser()
    cached = run_all(tmp_path / "cached")
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)  # a new parser per call
    fresh = run_all(tmp_path / "fresh")
    assert [r[0] for r in cached] == [2, 0, 2, 0, 0, 0, 0, 2]
    assert cached == fresh
    assert files_identical(tmp_path / "cached", tmp_path / "fresh")

# ---------------------------------------------------------------- replay


def _replay_argv(snapshot: Path) -> list[str]:
    """The command a snapshot records: its [run] values as flags, --config
    <snapshot> where the command reads one, and evaluate's recorded
    scenarios as --perturb."""
    parser = configparser.ConfigParser()
    parser.read(snapshot, encoding="utf-8")
    run = dict(parser["run"])
    command = run.pop("command")
    argv = [command] if command in ("perturb", "decode") else [command, "--config", str(snapshot)]
    if "inputs" in run:
        argv += run.pop("inputs").split(",")
    for key, value in run.items():
        if value != "none":
            argv += ["--" + key.replace("_", "-"), value]
    if parser.has_section("perturbations") and parser["perturbations"]["specs"] != "none":
        for spec in parser["perturbations"]["specs"].split(";"):
            argv += ["--perturb", spec]
    return argv


@pytest.mark.parametrize("command", ["generate", "encode", "solve-ms", "evaluate", "perturb"])
def test_snapshot_replays_byte_exactly(tmp_path, monkeypatch, command):
    monkeypatch.delenv("TSGRID_OUTPUT_DIR", raising=False)
    data = [tmp_path / "a.csv", tmp_path / "b.csv"]
    write_sine(data[0], length=400)
    write_sine(data[1], length=300, amplitude=5.0, period=21.0)
    cfg = tmp_path / "extra.ini"
    ini = "[generator]\nifftb_phase_range = -1,1\n[augment]\nperturb_scale_range = 1,2\nflip = no\n"
    cfg.write_text(ini, encoding="utf-8")
    argv = {
        "generate": ["generate", "-n", "3", "--seed", "4", "--length", "40", "--alpha", "0.3", "--noise-sigma", "0.2",
                     "--augment-probability", "0.7", "--start-stream", "5", "--config", str(cfg)],
        "encode": ["encode", *map(str, data), "--h", "64", "--ms", "2.5", "--normalize-lookback", "100"],
        "solve-ms": ["solve-ms", "--h-list", "16,64", "--k-list", "1.5,3"],
        "evaluate": ["evaluate", "--dataset", str(data[0]), "--model", "seasonal-naive-image", "--lookback", "48",
                     "--horizons", "8,24", "--betas", "0.5,1.5", "--h", "32", "--ms", "3", "--seed", "6",
                     "--perturb", "harmonic:0.5,0.02", "--perturb", "missing:0.2"],
        "perturb": ["perturb", "--dataset", str(data[1]), "--perturb", "harmonic:,0.125", "--seed", "8"],
    }[command]
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(argv + ["-o", str(first)]) == 0
    snapshot = first / f"resolved_{command}.ini"
    assert main(_replay_argv(snapshot) + ["-o", str(second)]) == 0
    assert files_identical(first, second)
