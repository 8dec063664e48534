"""Pinned output bytes: the sha256 of the files fixed CLI runs write.

The digests live in ``golden_digests.json``: ``reports`` holds ``report.csv``
of ``evaluate`` runs, ``commands`` every file the other commands write.  A
change that moves output bytes updates that file and names the moved runs.
A failure names the run key and the numpy version, so a digest that moves
only under another numpy can be told from a code change.  ``linear-trend*``
is left out because ``polyfit`` goes through LAPACK, whose last bits can
depend on the BLAS build; the ``resolved_*.ini`` snapshots are left out
because they record absolute paths.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from tsgrid import TimeSeries
from tsgrid.cli import main
from tsgrid.io import write_series_csv

DIGESTS = json.loads(Path(__file__).with_name("golden_digests.json").read_text(encoding="utf-8"))
MODELS = ("persistence", "seasonal-naive", "persistence-image", "seasonal-naive-image", "oracle")
DATASETS = ("clean", "gappy")
RUNS = {
    # the benchmark's three scenarios at a small size
    "scenarios": ["--lookback", "96", "--horizons", "24,48"]
    + ["--perturb", "gaussian_noise:0.1", "--perturb", "harmonic", "--perturb", "missing:0.3"],
    # overlapping windows, a rescale set of its own, a factor too short for horizon 50
    "stride": ["--lookback", "320", "--horizons", "7,50", "--stride", "37", "--betas", "0.3,1,2.5"]
    + ["--perturb", "missing:0.5"],
    # horizons that do not nest, and a factor (180 samples) too short for horizon 100 only
    "prefix": ["--lookback", "96", "--horizons", "24,36,60,100", "--betas", "0.15,1,1.7"]
    + ["--perturb", "missing:0.3"],
}
# each kind, with its default parameters and with one parameter set
PERTURB_SPECS = ("gaussian_noise:0.25", "harmonic", "harmonic:,0.125", "missing:0.3")


def golden_series(gappy: bool, length: int = 1200) -> TimeSeries:
    """Two channels: a noisy daily cycle on an offset, and a random walk; 5% gaps if ``gappy``."""
    g = np.random.default_rng(20240710)
    t = np.arange(length)
    cycle = 10.0 + 3.0 * np.sin(2.0 * np.pi * t / 24.0) + 0.5 * g.standard_normal(length)
    values = np.stack([cycle, np.cumsum(g.standard_normal(length))])
    if gappy:
        values[g.uniform(size=values.shape) < 0.05] = np.nan
    return TimeSeries(values)


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def output_digest(out: Path) -> str:
    """sha256 of the sorted ``<name> <sha256>`` lines of the files in ``out``, snapshots left out."""
    files = sorted(p for p in out.iterdir() if not p.name.startswith("resolved_"))
    return hashlib.sha256("".join(f"{p.name} {sha256(p)}\n" for p in files).encode()).hexdigest()


def assert_golden(section: str, key: str, got: str) -> None:
    want = DIGESTS[section][key]
    assert got == want, f"{section} run {key!r} moved under numpy {np.__version__}: {got}, pinned {want}"


def run(argv: list[str], out: Path) -> Path:
    assert main([*argv, "-o", str(out)]) == 0
    return out


def write_datasets(root: Path) -> dict[str, Path]:
    paths = {name: root / f"{name}.csv" for name in DATASETS}
    for name, path in paths.items():
        write_series_csv(path, golden_series(name == "gappy"))
    return paths


def report_digest(dataset: Path, model: str, run_key: str, out: Path) -> str:
    argv = ["evaluate", "--dataset", str(dataset), "--model", model, "--seed", "5", *RUNS[run_key]]
    return sha256(run(argv, out) / "report.csv")


@pytest.fixture(scope="module")
def datasets(tmp_path_factory):
    return write_datasets(tmp_path_factory.mktemp("golden"))


def test_golden_inputs_are_unchanged(datasets):
    # a moved input digest means the data moved, not the evaluation
    for name, path in datasets.items():
        assert_golden("inputs", name, sha256(path))


@pytest.mark.parametrize("run_key", sorted(RUNS))
@pytest.mark.parametrize("dataset", DATASETS)
@pytest.mark.parametrize("model", MODELS)
def test_golden_report_bytes(datasets, tmp_path, model, dataset, run_key):
    got = report_digest(datasets[dataset], model, run_key, tmp_path / "out")
    assert_golden("reports", f"{run_key}/{dataset}/{model}", got)


@pytest.mark.parametrize("spec", PERTURB_SPECS)
@pytest.mark.parametrize("dataset", DATASETS)
def test_golden_perturb_bytes(datasets, tmp_path, dataset, spec):
    out = run(["perturb", "--dataset", str(datasets[dataset]), "--perturb", spec, "--seed", "5"], tmp_path / "out")
    assert_golden("commands", f"perturb/{dataset}/{spec}", output_digest(out))


def test_golden_generate_bytes(tmp_path):
    assert_golden("commands", "generate", output_digest(run(["generate", "-n", "20", "--seed", "5"], tmp_path / "out")))


@pytest.mark.parametrize("length", [127, 128])
def test_golden_ifftb_generate_bytes(tmp_path, length):
    # every draw inverse-FFT; an even length zeroes the top bin, an odd one keeps it
    config = tmp_path / "ifftb.ini"
    config.write_text("[generator]\nalpha = 1\nperiodic_behaviors = ifftb\n", encoding="utf-8")
    argv = ["generate", "-n", "20", "--seed", "5", "--length", str(length), "--config", str(config)]
    assert_golden("commands", f"generate/ifftb/{length}", output_digest(run(argv, tmp_path / "out")))


def test_golden_solve_ms_bytes(tmp_path):
    assert_golden("commands", "solve-ms", output_digest(run(["solve-ms"], tmp_path / "out")))


def test_golden_codec_bytes(datasets, tmp_path):
    argv = ["encode", *map(str, datasets.values()), "--h", "64", "--ms", "3", "--normalize-lookback", "96"]
    enc = run(argv, tmp_path / "enc")
    assert_golden("commands", "encode", output_digest(enc))
    metas = [str(enc / f"{name}.meta") for name in DATASETS]
    assert_golden("commands", "decode", output_digest(run(["decode", *metas, "--allow-missing"], tmp_path / "dec")))
