import configparser
import csv
import filecmp
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tsgrid
from tsgrid import PerturbationSpec, SpaceParams, from_1d
from tsgrid.cli import _parse_perturbation, main
from tsgrid.io import read_manifest_csv, read_series_csv, write_series_csv


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
    assert "threads" not in (tmp_path / "a" / "resolved_generate.ini").read_text()


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
    extra = ["--model", "persistence", "--lookback", "32"] if command == "evaluate" else ["--kind", "missing"]
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
    text = (out / "resolved_generate.ini").read_text()
    seed_line = next(line for line in text.splitlines() if line.startswith("seed"))
    assert int(seed_line.split("=")[1]) >= 0


def test_config_file_sets_defaults_and_flags_win(tmp_path):
    cfg = tmp_path / "gen.ini"
    cfg.write_text("[generator]\nalpha = 1.0\nlength = 32\n")
    out1 = tmp_path / "periodic"
    main(["generate", "-n", "5", "--seed", "3", "--config", str(cfg), "-o", str(out1)])
    rows = read_manifest_csv(out1 / "manifest.csv")
    assert all(r["hypothesis"] == "periodic" for r in rows)

    out2 = tmp_path / "trend"
    main(["generate", "-n", "5", "--seed", "3", "--config", str(cfg), "--alpha", "0.0", "-o", str(out2)])
    rows = read_manifest_csv(out2 / "manifest.csv")
    assert all(r["hypothesis"] == "trend" for r in rows)


def test_output_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("TSGRID_OUTPUT_DIR", str(tmp_path / "from-env"))
    assert main(["generate", "-n", "1", "--seed", "1", "--length", "16"]) == 0
    assert (tmp_path / "from-env" / "series_00000.csv").exists()


def _snapshot_section(out: Path, command: str, section: str) -> dict[str, str]:
    parser = configparser.ConfigParser()
    parser.read(out / f"resolved_{command}.ini")
    return dict(parser[section])


def test_config_file_accepts_legacy_spellings(tmp_path):
    cfg = tmp_path / "gen.ini"
    cfg.write_text(
        "[generator]\nlgb_logK_range = 0.5,1.5\nnoise_sigma_eps = none\n"
        "[augment]\nreplicate = yes\nflip = off\nperturb = 1\n"
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
    series = from_1d(np.linspace(-1, 1, 16))
    series.missing = np.zeros((1, 16), dtype=bool)
    series.missing[0, 3] = True
    write_series_csv(src, series)
    enc = tmp_path / "enc"
    assert main(["encode", str(src), "-o", str(enc)]) == 0
    # without --allow-missing the all-zero column is a structural error
    assert main(["decode", str(enc / "masked.meta"), "-o", str(tmp_path / "dec")]) == 1
    err = capsys.readouterr().err
    assert "masked.meta" in err
    # with the flag it decodes, carrying the mask through
    assert main(["decode", str(enc / "masked.meta"), "--allow-missing", "-o", str(tmp_path / "dec")]) == 0
    decoded = read_series_csv(tmp_path / "dec" / "masked.decoded.csv")
    assert decoded.missing[0, 3]


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
    block = (root / "README.md").read_text().split("## Library example", 1)[1]
    code = block.split("```python\n", 1)[1].split("```", 1)[0]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[0].startswith("2.64")


def test_readme_cli_walkthrough_runs_and_replays_byte_exactly(tmp_path):
    root = Path(__file__).resolve().parent.parent
    section = (root / "README.md").read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    blocks = [block.split("```", 1)[0] for block in section.split("```sh\n")[1:]]
    script = "".join("\n" + block for block in blocks).replace("\ntsgrid ", f'\n"{sys.executable}" -m tsgrid.cli ')
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    env.pop("TSGRID_OUTPUT_DIR", None)
    result = subprocess.run(
        ["sh", "-ec", script + "\ndiff -r reports replay\n"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300,
    )
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr
    assert (tmp_path / "replay" / "report.csv").exists()


def test_encode_rejects_missing_input(tmp_path, capsys):
    assert main(["encode", str(tmp_path / "nope.csv"), "-o", str(tmp_path / "enc")]) == 1
    assert "nope.csv" in capsys.readouterr().err


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
    assert (tmp_path / "solve_ms.csv").read_text().splitlines()[0] == "h,k,ms_star,residual"


def test_solve_ms_spot_value(tmp_path, capsys):
    assert main(["solve-ms", "--h-list", "32", "--k-list", "2", "-o", str(tmp_path)]) == 0
    value = float(capsys.readouterr().out.strip().splitlines()[1].split(",")[2])
    assert abs(value - 3.03) <= 0.01


def test_solve_ms_empty_grid(tmp_path, capsys):
    assert main(["solve-ms", "--h-list", "", "--k-list", "1", "-o", str(tmp_path)]) == 0
    assert capsys.readouterr().out.strip() == "h,k,ms_star,residual"


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
        [sys.executable, "-m", "tsgrid.cli", *args], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 1
    assert result.stderr == "error: linear-trend needs a lookback of at least 2 samples, got 1\n"
    assert "DLASCL" not in result.stdout


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
    report = (tmp_path / "ev" / "report.csv").read_text().splitlines()
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


def test_evaluate_keeps_distinct_harmonic_scenarios_apart(tmp_path):
    src = tmp_path / "data.csv"
    write_sine(src, length=400)
    args = ["evaluate", "--dataset", str(src), "--model", "persistence", "--lookback", "32", "--horizons", "16"]
    args += ["--betas", "1", "--perturb", "harmonic:0.5,0.01", "--perturb", "harmonic:5,0.2", "--seed", "2"]
    assert main(args + ["-o", str(tmp_path / "ev")]) == 0
    with open(tmp_path / "ev" / "report.csv", newline="") as handle:
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
    assert _parse_perturbation(spec.label()) == spec


def test_evaluate_keeps_scenarios_apart_past_the_sixth_digit(tmp_path):
    src = tmp_path / "data.csv"
    write_sine(src, length=400)
    args = ["evaluate", "--dataset", str(src), "--model", "persistence", "--lookback", "32", "--horizons", "16"]
    args += ["--betas", "1", "--perturb", "gaussian_noise:0.1000001", "--perturb", "gaussian_noise:0.1000002"]
    assert main(args + ["--seed", "2", "-o", str(tmp_path / "ev")]) == 0
    with open(tmp_path / "ev" / "report.csv", newline="") as handle:
        aggregates = {r["scenario"]: r for r in csv.DictReader(handle) if r["beta"] == "mean(U)"}
    assert sorted(aggregates) == ["gaussian_noise:0.1000001", "gaussian_noise:0.1000002", "none"]
    assert {r["windows"] for r in aggregates.values()} == {aggregates["none"]["windows"]}


@pytest.mark.parametrize("spec", ["gaussian_noise:abc", "harmonic:1,2,3", "gaussian_noise:nan", "harmonic:inf"])
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
    rc = main(
        ["perturb", "--dataset", str(src), "--kind", "missing", "--missing-probability", "0.3", "--seed", "2", "-o", str(out)]
    )
    assert rc == 0
    back = read_series_csv(out / "data.perturbed.csv")
    density = back.missing.mean()
    assert 0.25 <= density <= 0.35


def test_perturb_noise_changes_values(tmp_path):
    src = tmp_path / "data.csv"
    write_sine(src, length=200)
    out = tmp_path / "out"
    rc = main(["perturb", "--dataset", str(src), "--kind", "gaussian_noise", "--noise-std", "0.5", "--seed", "3", "-o", str(out)])
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


@pytest.mark.parametrize("command", ["perturb", "decode"])
def test_config_flag_is_rejected_where_no_config_is_read(tmp_path, capsys, command):
    argv = {
        "perturb": ["perturb", "--dataset", str(tmp_path / "d.csv"), "--kind", "missing", "--seed", "1"],
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


# ---------------------------------------------------------------- replay


def _replay_argv(snapshot: Path) -> list[str]:
    """The command a snapshot records: --config <snapshot> plus its [run]
    values as flags (and evaluate's recorded scenarios as --perturb)."""
    parser = configparser.ConfigParser()
    parser.read(snapshot)
    run = dict(parser["run"])
    argv = [run.pop("command"), "--config", str(snapshot)]
    if "inputs" in run:
        argv += run.pop("inputs").split(",")
    for key, value in run.items():
        if value != "none":
            argv += ["--" + key.replace("_", "-"), value]
    if parser.has_section("perturbations") and parser["perturbations"]["specs"] != "none":
        for spec in parser["perturbations"]["specs"].split(";"):
            argv += ["--perturb", spec]
    return argv


@pytest.mark.parametrize("command", ["generate", "encode", "solve-ms", "evaluate"])
def test_snapshot_replays_byte_exactly(tmp_path, monkeypatch, command):
    monkeypatch.delenv("TSGRID_OUTPUT_DIR", raising=False)
    data = [tmp_path / "a.csv", tmp_path / "b.csv"]
    write_sine(data[0], length=400)
    write_sine(data[1], length=300, amplitude=5.0, period=21.0)
    cfg = tmp_path / "extra.ini"
    cfg.write_text("[generator]\nifftb_phase_range = -1,1\n[augment]\nperturb_scale_range = 1,2\nflip = no\n")
    argv = {
        "generate": ["generate", "-n", "3", "--seed", "4", "--length", "40", "--alpha", "0.3", "--noise-sigma", "0.2",
                     "--augment-probability", "0.7", "--start-stream", "5", "--config", str(cfg)],
        "encode": ["encode", *map(str, data), "--h", "64", "--ms", "2.5", "--normalize-lookback", "100"],
        "solve-ms": ["solve-ms", "--h-list", "16,64", "--k-list", "1.5,3"],
        "evaluate": ["evaluate", "--dataset", str(data[0]), "--model", "seasonal-naive-image", "--lookback", "48",
                     "--horizons", "8,24", "--betas", "0.5,1.5", "--h", "32", "--ms", "3", "--seed", "6",
                     "--perturb", "harmonic:0.5,0.02", "--perturb", "missing:0.2"],
    }[command]
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(argv + ["-o", str(first)]) == 0
    snapshot = first / f"resolved_{command}.ini"
    assert main(_replay_argv(snapshot) + ["-o", str(second)]) == 0
    assert files_identical(first, second)
