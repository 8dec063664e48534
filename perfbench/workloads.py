"""The benchmark's workloads.

Each workload builds its inputs from the seed, runs timed passes through
tsgrid's public CLI (``tsgrid.cli.main``) or library from outside, and
checks every pass's outputs against invariants rather than golden numbers.
Library calls go through module attributes (``imagespace.loss``) so that
the traced run sees them.  DESIGN.md says why each workload exists.
"""

from __future__ import annotations

import csv
import math
import shutil
from pathlib import Path

import numpy as np

from tsgrid import cli, imagespace
from tsgrid import io as tio
from tsgrid.generate import GeneratorConfig, sample_series
from tsgrid.rng import RngStream

LOOKBACK = 512
SCENARIOS = ("gaussian_noise:0.1", "harmonic", "missing:0.3")
BETAS = (0.5, 0.66, 1.0, 1.5, 2.0)  # the CLI's default rescale set U
# "%.9g" leaves a relative error of at most 5e-9; the margin covers parsing.
CSV_RTOL = 6e-9


class CheckFailed(Exception):
    """A pass produced output that violates an invariant."""


def run_cli(argv: list[str]) -> None:
    code = cli.main(argv)
    if code != 0:
        raise CheckFailed(f"tsgrid {argv[0]} exited with {code}")


def read_series_values(path: Path) -> np.ndarray:
    """(channels, length) values of a series CSV with no missing fields."""
    header, _, body = Path(path).read_text().partition("\n")
    columns = header.split(",")
    if columns[0] != "t" or len(columns) < 2:
        raise CheckFailed(f"{path}: bad header {header!r}")
    fields = body.rstrip("\n").replace("\n", ",").split(",")
    if "" in fields:
        raise CheckFailed(f"{path}: empty field")
    table = np.array(fields, dtype=np.float64).reshape(-1, len(columns))
    if not np.array_equal(table[:, 0], np.arange(table.shape[0])):
        raise CheckFailed(f"{path}: index column is not 0..n-1")
    return table[:, 1:].T


class Workload:
    name = ""
    why = ""
    probe = "mixed"  # the speed probe in run.py whose mix of work is closest to this workload's

    def __init__(self, seed: int, toy: bool, work: Path) -> None:
        self.seed = seed
        self.inputs = work / "inputs"

    def setup(self) -> None:
        """Build the inputs from the seed; may run several times."""

    def run_pass(self, out: Path) -> None:
        """The timed work of one pass; outputs go under ``out``."""
        raise NotImplementedError

    def check(self, out: Path, index: int) -> int:
        """Raise CheckFailed on a bad output; return the items the pass completed."""
        raise NotImplementedError

    def corrupt(self, out: Path) -> None:
        """Damage one output of a pass, for the benchmark's self-test."""
        raise NotImplementedError

    def layer_counters(self, out: Path) -> dict[str, float]:
        """Per-layer counts read from a pass's outputs."""
        return {}


class Corpus(Workload):
    name = "corpus"
    why = "generate -n N --length 512 to CSV: rng, generate and the io CSV writer; no codec or evaluation"

    def __init__(self, seed, toy, work):
        super().__init__(seed, toy, work)
        self.count = 6 if toy else 200
        self.length = 512

    def setup(self):
        cfg = GeneratorConfig(length=self.length)
        self.expected = [sample_series(cfg, RngStream(self.seed, i)) for i in range(self.count)]

    def run_pass(self, out):
        run_cli(["generate", "-n", str(self.count), "--length", str(self.length), "--seed", str(self.seed), "-o", str(out)])

    def _manifest(self, out):
        with (out / "manifest.csv").open(newline="") as handle:
            return list(csv.DictReader(handle))

    def check(self, out, index):
        manifest = self._manifest(out)
        if len(manifest) != self.count:
            raise CheckFailed(f"manifest has {len(manifest)} rows, expected {self.count}")
        for i, (row, series) in enumerate(zip(manifest, self.expected)):
            if row["id"] != f"series_{i:05d}.csv" or int(row["stream"]) != i:
                raise CheckFailed(f"manifest row {i} names {row['id']} stream {row['stream']}")
            if row["behavior"] != series.tags["behavior"]:
                raise CheckFailed(f"manifest row {i}: behavior {row['behavior']} != {series.tags['behavior']}")
            got = read_series_values(out / row["id"])
            if got.shape != series.values.shape:
                raise CheckFailed(f"{row['id']}: shape {got.shape} != {series.values.shape}")
            if np.any(np.abs(got - series.values) > CSV_RTOL * np.abs(series.values)):
                raise CheckFailed(f"{row['id']}: values differ from sample_series beyond 9 significant digits")
        return self.count

    def corrupt(self, out):
        path = out / "series_00000.csv"
        lines = path.read_text().split("\n")
        t, value = lines[1].split(",")
        lines[1] = f"{t},{1.5 * float(value) + 1.0:.9g}"
        path.write_text("\n".join(lines))

    def layer_counters(self, out):
        counts = {}
        for row in self._manifest(out):
            key = f"generate.behavior.{row['behavior']}.count"
            counts[key] = counts.get(key, 0) + 1
        return counts


class Evaluate(Workload):
    model = ""

    def __init__(self, seed, toy, work):
        super().__init__(seed, toy, work)
        self.length = 1536 if toy else 4096
        self.horizons = (96, 192) if toy else (96, 192, 336, 720)
        self.dataset = self.inputs / "dataset.csv"

    def setup(self):
        shutil.rmtree(self.inputs, ignore_errors=True)
        series = sample_series(GeneratorConfig(length=self.length), RngStream(self.seed, 0))
        tio.write_series_csv(self.dataset, series)

    def run_pass(self, out):
        argv = ["evaluate", "--dataset", str(self.dataset), "--model", self.model, "--lookback", str(LOOKBACK)]
        argv += ["--horizons", ",".join(map(str, self.horizons)), "--seed", str(self.seed), "-o", str(out)]
        for scenario in SCENARIOS:
            argv += ["--perturb", scenario]
        run_cli(argv)

    def check(self, out, index):
        with (out / "report.csv").open(newline="") as handle:
            rows = list(csv.DictReader(handle))
        scenarios = ("none",) + SCENARIOS
        per_beta = [r for r in rows if r["beta"] != "mean(U)"]
        aggregates = [r for r in rows if r["beta"] == "mean(U)"]
        cells = {(s, b, h) for s in scenarios for b in BETAS for h in self.horizons}
        got = {(r["scenario"], float(r["beta"]), int(r["horizon"])) for r in per_beta}
        if got != cells or len(per_beta) != len(cells):
            raise CheckFailed(f"report has {len(per_beta)} per-factor rows, expected {len(cells)}")
        if len(aggregates) != len(scenarios) * len(self.horizons):
            raise CheckFailed(f"report has {len(aggregates)} mean(U) rows")
        items = 0
        for r in per_beta:
            beta, horizon = float(r["beta"]), int(r["horizon"])
            expected = max(0, (round(beta * self.length) - LOOKBACK - horizon) // horizon + 1)
            if int(r["windows"]) != expected:
                raise CheckFailed(f"{r['scenario']} beta={beta} h={horizon}: {r['windows']} windows, expected {expected}")
            for key in ("mse", "mae"):
                if r[key] and not float(r[key]) >= 0.0:
                    raise CheckFailed(f"{r['scenario']} beta={beta} h={horizon}: {key}={r[key]}")
            items += expected
        for agg in aggregates:
            members = [
                r for r in per_beta if r["scenario"] == agg["scenario"] and r["horizon"] == agg["horizon"] and r["mse"]
            ]
            if int(agg["windows"]) != sum(int(r["windows"]) for r in members):
                raise CheckFailed(f"mean(U) {agg['scenario']} h={agg['horizon']}: windows is not the sum of its rows")
            for key in ("mse", "mae"):
                if not members:
                    if agg[key]:
                        raise CheckFailed(f"mean(U) {agg['scenario']} h={agg['horizon']}: {key} without rows")
                    continue
                mean = sum(float(r[key]) for r in members) / len(members)
                if not math.isclose(float(agg[key]), mean, rel_tol=2 * CSV_RTOL, abs_tol=1e-300):
                    raise CheckFailed(f"mean(U) {agg['scenario']} h={agg['horizon']}: {key} is not the mean of its rows")
        return items

    def corrupt(self, out):
        path = out / "report.csv"
        lines = path.read_text().split("\n")
        fields = lines[1].split(",")
        fields[-1] = str(int(fields[-1]) + 1)
        lines[1] = ",".join(fields)
        path.write_text("\n".join(lines))


class EvalImage(Evaluate):
    name = "eval-image"
    why = "evaluate a grid-space model over U x horizons x scenarios: the codec-in-the-loop path (forecast, decode, encode)"
    model = "seasonal-naive-image"


class EvalNumeric(Evaluate):
    name = "eval-numeric"
    why = "the same evaluate run with the value-space twin: detect_period and the evaluation loop; control for codec changes"
    model = "seasonal-naive"


class Codec(Workload):
    name = "codec"
    why = "solve-ms, CLI encode/decode through PGM files, and the preprocess+emd+kld training-loss step"
    probe = "arrays"

    def __init__(self, seed, toy, work):
        super().__init__(seed, toy, work)
        self.count = 2 if toy else 16
        self.length = 1024 if toy else 4096
        self.params = imagespace.SpaceParams(h=128, ms=3.5)
        self.stems = [f"series_{i:02d}" for i in range(self.count)]

    def setup(self):
        shutil.rmtree(self.inputs, ignore_errors=True)
        cfg = GeneratorConfig(length=self.length)
        self.series = []
        for i, stem in enumerate(self.stems):
            path = self.inputs / f"{stem}.csv"
            tio.write_series_csv(path, sample_series(cfg, RngStream(self.seed, i)))
            # what the CLI reads: the values after the 9-digit CSV rounding
            self.series.append(tio.read_series_csv(path))

    def run_pass(self, out):
        run_cli(["solve-ms", "-o", str(out / "solve")])
        inputs = [str(self.inputs / f"{stem}.csv") for stem in self.stems]
        run_cli(["encode", *inputs, "--h", "128", "--ms", "3.5", "--normalize-lookback", str(LOOKBACK), "-o", str(out / "enc")])
        metas = [str(out / "enc" / f"{stem}.meta") for stem in self.stems]
        run_cli(["decode", *metas, "-o", str(out / "dec")])
        self.losses = []
        for x in self.series:
            target = imagespace.encode(imagespace.normalize(x, LOOKBACK)[0], self.params)
            self.losses.append(imagespace.loss(imagespace.preprocess(target), target))

    def _stats(self, values: np.ndarray):
        window = values[:, :LOOKBACK]
        return window.mean(axis=1)[:, None], np.maximum(window.std(axis=1), imagespace.STD_FLOOR)[:, None]

    def check(self, out, index):
        with (out / "solve" / "solve_ms.csv").open(newline="") as handle:
            table = list(csv.DictReader(handle))
        if len(table) != 15 or any(not abs(float(r["residual"])) <= 1e-8 or float(r["ms_star"]) <= 0 for r in table):
            raise CheckFailed("solve_ms.csv: expected 15 solved cells with |residual| <= 1e-8")

        h, ms = self.params.h, self.params.ms
        for stem, x in zip(self.stems, self.series):
            decoded = read_series_values(out / "dec" / f"{stem}.decoded.csv")
            if decoded.shape != x.values.shape:
                raise CheckFailed(f"{stem}: decoded shape {decoded.shape} != {x.values.shape}")
            mean, std = self._stats(x.values)
            inside = np.abs((x.values - mean) / std) < ms
            # half a cell, plus the 9-digit rounding of the meta stats and the decoded CSV
            tol = std * ms / h + 1e-8 * (ms * std + np.abs(mean) + np.abs(decoded))
            if np.any(np.abs(decoded - x.values)[inside] > tol[inside]):
                raise CheckFailed(f"{stem}: decoded values are farther than std*ms/h from the input")

        if len(self.losses) != self.count or not all(math.isfinite(v) and v >= 0 for v in self.losses):
            raise CheckFailed(f"loss step returned {self.losses}")
        j = index % self.count
        target = imagespace.encode(imagespace.normalize(self.series[j], LOOKBACK)[0], self.params)
        pred = imagespace.preprocess(target)
        composed = imagespace.emd(pred, target) + 0.2 * imagespace.kld(pred, target)
        if not math.isclose(self.losses[j], composed, rel_tol=1e-9, abs_tol=1e-9):
            raise CheckFailed(f"{self.stems[j]}: loss {self.losses[j]} != emd + 0.2*kld = {composed}")
        return self.count

    def corrupt(self, out):
        _, std = self._stats(self.series[0].values)
        path = out / "dec" / f"{self.stems[0]}.decoded.csv"
        values = read_series_values(path) + 10.0 * std + 1.0
        lines = ["t," + ",".join(f"ch{i}" for i in range(values.shape[0]))]
        lines += [f"{t}," + ",".join(f"{v:.9g}" for v in values[:, t]) for t in range(values.shape[1])]
        path.write_text("\n".join(lines) + "\n")


WORKLOADS = {w.name: w for w in (Corpus, EvalImage, EvalNumeric, Codec)}
