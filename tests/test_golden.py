"""Pinned report bytes: the sha256 of ``report.csv`` from fixed ``evaluate`` runs.

The digests live in ``golden_digests.json``.  A change that moves report
bytes updates that file and names the moved runs.  ``linear-trend*`` is left
out because ``polyfit`` goes through LAPACK, whose last bits can depend on
the BLAS build; ``resolved_evaluate.ini`` is left out because it records
absolute paths.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from tsgrid import TimeSeries
from tsgrid.cli import main
from tsgrid.io import write_series_csv

DIGESTS = json.loads(Path(__file__).with_name("golden_digests.json").read_text())
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


def golden_series(gappy: bool, length: int = 1200) -> TimeSeries:
    """Two channels: a noisy daily cycle on an offset, and a random walk; 5% gaps if ``gappy``."""
    g = np.random.default_rng(20240710)
    t = np.arange(length)
    cycle = 10.0 + 3.0 * np.sin(2.0 * np.pi * t / 24.0) + 0.5 * g.standard_normal(length)
    values = np.stack([cycle, np.cumsum(g.standard_normal(length))])
    missing = g.uniform(size=values.shape) < 0.05 if gappy else None
    return TimeSeries(values, missing)


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_datasets(root: Path) -> dict[str, Path]:
    paths = {name: root / f"{name}.csv" for name in DATASETS}
    for name, path in paths.items():
        write_series_csv(path, golden_series(name == "gappy"))
    return paths


def report_digest(dataset: Path, model: str, run: str, out: Path) -> str:
    argv = ["evaluate", "--dataset", str(dataset), "--model", model, "--seed", "5", *RUNS[run], "-o", str(out)]
    assert main(argv) == 0
    return sha256(out / "report.csv")


@pytest.fixture(scope="module")
def datasets(tmp_path_factory):
    return write_datasets(tmp_path_factory.mktemp("golden"))


def test_golden_inputs_are_unchanged(datasets):
    # a moved input digest means the data moved, not the evaluation
    assert {name: sha256(path) for name, path in datasets.items()} == DIGESTS["inputs"]


@pytest.mark.parametrize("run", sorted(RUNS))
@pytest.mark.parametrize("dataset", DATASETS)
@pytest.mark.parametrize("model", MODELS)
def test_golden_report_bytes(datasets, tmp_path, model, dataset, run):
    got = report_digest(datasets[dataset], model, run, tmp_path / "out")
    assert got == DIGESTS["reports"][f"{run}/{dataset}/{model}"]
