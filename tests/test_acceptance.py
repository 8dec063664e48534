"""Acceptance gate: every criterion at its stated size and tolerance.

Each test prints one verdict line so a plain ``pytest -s tests/test_acceptance.py``
reads as a checklist.
"""

import filecmp
import math
import time
from pathlib import Path

import numpy as np
from scipy.optimize import linprog

from tsgrid import (
    EvalConfig,
    GeneratorConfig,
    RngStream,
    SEBoundInput,
    SoftImageTensor,
    SpaceParams,
    bound_convergence_profile,
    emd,
    get_model,
    kld,
    loss,
    mc_system_error,
    normalize,
    optimal_ms,
    quantize_values,
    remetrics,
    sample_series,
    se_bound,
    truncation_floor,
    value_to_row,
)
from tsgrid.cli import main
from tsgrid.generate import AugmentConfig
from tsgrid.io import read_series_csv


def verdict(name: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# ----------------------------------------------------------------- C1

SOLVED_SCALE_TABLE = {
    (32, 1.0): 2.10, (32, 1.5): 2.62, (32, 2.0): 3.03,
    (64, 1.0): 2.38, (64, 1.5): 2.95, (64, 2.0): 3.41,
    (128, 1.0): 2.64, (128, 1.5): 3.26, (128, 2.0): 3.76,
    (256, 1.0): 2.88, (256, 1.5): 3.53, (256, 2.0): 4.08,
    (512, 1.0): 3.09, (512, 1.5): 3.79, (512, 2.0): 4.38,
}


def test_c1_optimal_scale_table_reproduction():
    start = time.time()
    worst = 0.0
    for (h, k), expected in SOLVED_SCALE_TABLE.items():
        worst = max(worst, abs(optimal_ms(h, k) - expected))
    elapsed = time.time() - start
    verdict(
        "C1 optimal-scale table (15 cells, +/-0.01, <1s)",
        worst <= 0.01 and elapsed < 1.0,
        f"worst dev {worst:.4f}, {elapsed:.2f}s",
    )


# ----------------------------------------------------------------- C2


def test_c2_bound_dominates_monte_carlo():
    start = time.time()
    worst_margin = math.inf
    for h in (32, 128, 512):
        for ms in (2.1, 2.64, 3.5, 5.0):
            for k in (1.0, 2.0):
                estimate, stderr = mc_system_error(
                    SpaceParams(h=h, ms=ms), k, 10**6, RngStream(2001, 1000 * h + int(100 * ms) + int(k))
                )
                margin = se_bound(SEBoundInput(h=h, ms=ms, k=k)) + 3.0 * stderr - estimate
                worst_margin = min(worst_margin, margin)
    elapsed = time.time() - start
    verdict(
        "C2 bound domination (24 cases, n=1e6, <30s)",
        worst_margin >= 0.0 and elapsed < 30.0,
        f"worst margin {worst_margin:.2e}, {elapsed:.1f}s",
    )


# ----------------------------------------------------------------- C3


def test_c3_asymptotic_convergence():
    values = bound_convergence_profile(3.5, [32, 64, 128, 256, 512, 1024, 2048, 4096])
    decreasing = all(a > b for a, b in zip(values, values[1:]))
    # at ms=8 the quantization term ms/h still dominates any finite h; the
    # sub-1e-13 figure is the saturation-only limit the profile approaches
    floor = truncation_floor(8.0)
    finite = bound_convergence_profile(8.0, [10**7])[0]
    approaches = 0.0 < finite - floor <= 8.0 / 10**7
    verdict(
        "C3 convergence (strict decrease; ms=8 limit < 1e-13)",
        decreasing and floor < 1e-13 and approaches,
        f"limit {floor:.2e}, bound(h=1e7) {finite:.2e}",
    )


# ----------------------------------------------------------------- C4


def test_c4_roundtrip_quantization():
    worst_excess = -math.inf
    violations = 0
    for pi, (h, ms) in enumerate([(128, 3.5), (32, 2.1)]):
        params = SpaceParams(h=h, ms=ms)
        g = RngStream(2004, pi).generator()
        s = g.uniform(-ms, ms, 100_000)
        err = np.abs(quantize_values(s, params) - s)
        violations += int(np.sum(err > ms / h))
        worst_excess = max(worst_excess, float(np.max(err) - ms / h))
    verdict(
        "C4 roundtrip within half cell (2 x 1e5 samples, zero violations)",
        violations == 0,
        f"violations {violations}, max slack {-worst_excess:.2e}",
    )


# ----------------------------------------------------------------- C5


def _transport_lp(a, b):
    h = a.size
    cost = np.abs(np.subtract.outer(np.arange(h), np.arange(h))).astype(float).ravel()
    res = linprog(
        cost,
        A_eq=np.vstack([np.kron(np.eye(h), np.ones((1, h))), np.tile(np.eye(h), (1, h))]),
        b_eq=np.concatenate([a, b]),
        bounds=(0, None),
        method="highs",
    )
    assert res.status == 0
    return res.fun


def _column(weights, params):
    w = np.asarray(weights, dtype=float)
    return SoftImageTensor((w / w.sum())[None, :, None], params)


def test_c5_transport_distance_correctness():
    params = SpaceParams(h=8, ms=1.0)
    g = RngStream(2005, 0).generator()
    worst = 0.0
    for _ in range(1000):
        a = g.uniform(0.0, 1.0, 8) + 1e-9
        b = g.uniform(0.0, 1.0, 8) + 1e-9
        a /= a.sum()
        b /= b.sum()
        worst = max(worst, abs(emd(_column(a, params), _column(b, params)) - _transport_lp(a, b)))
    axiom_ok = True
    for _ in range(1000):
        cols = g.uniform(0.0, 1.0, (3, 8)) + 1e-9
        cols /= cols.sum(axis=1, keepdims=True)
        pa, pb, pc = (_column(c, params) for c in cols)
        dab, dba, dac, dbc = emd(pa, pb), emd(pb, pa), emd(pa, pc), emd(pb, pc)
        axiom_ok &= dab >= 0.0 and dab == dba and emd(pa, pa) == 0.0
        axiom_ok &= dac <= dab + dbc + 1e-12
    verdict(
        "C5 transport distance vs coupling LP (1000 pairs, 1000 triples)",
        worst <= 1e-9 and axiom_ok,
        f"worst LP gap {worst:.2e}",
    )


# ----------------------------------------------------------------- C6


def test_c6_loss_composition():
    params = SpaceParams(h=16, ms=1.0)
    g = RngStream(2006, 0).generator()
    worst = 0.0
    self_ok = True
    for _ in range(100):
        a = g.uniform(0.0, 1.0, (1, 16, 4)) + 1e-9
        b = g.uniform(0.0, 1.0, (1, 16, 4)) + 1e-9
        a /= a.sum(axis=1, keepdims=True)
        b /= b.sum(axis=1, keepdims=True)
        pa, pb = SoftImageTensor(a, params), SoftImageTensor(b, params)
        worst = max(worst, abs(loss(pa, pb, 0.2) - (emd(pa, pb) + 0.2 * kld(pa, pb))))
        self_ok &= loss(pa, pa) == 0.0
    verdict(
        "C6 loss = transport + 0.2 * KL (100 pairs, 1e-12)",
        worst <= 1e-12 and self_ok,
        f"worst gap {worst:.2e}",
    )


# ----------------------------------------------------------------- C7


def test_c7_rescaled_metrics_protocol():
    g = RngStream(2007, 0).generator()
    truth_values = np.cumsum(0.1 * g.standard_normal(2600))
    from tsgrid import TimeSeries

    truth = TimeSeries(truth_values[None, :])
    cfg = EvalConfig(lookback=512, horizons=(96, 192, 336, 720), rescale_factors=(0.5, 0.66, 1.0, 1.5, 2.0))
    report = remetrics(truth, get_model("oracle"), cfg)
    oracle_zero = all(report.remse(h) == 0.0 and report.remae(h) == 0.0 for h in cfg.horizons)

    single = EvalConfig(lookback=512, horizons=(96,), rescale_factors=(1.0,))
    persisted = remetrics(truth, get_model("persistence"), single)
    x = truth_values
    sq = ab = n = 0
    for start in range(0, 2600 - 512 - 96 + 1, 96):
        diff = x[start + 511] - x[start + 512 : start + 608]
        sq += np.sum(diff * diff)
        ab += np.sum(np.abs(diff))
        n += diff.size
    singleton_gap = max(abs(persisted.remse(96) - sq / n), abs(persisted.remae(96) - ab / n))
    verdict(
        "C7 protocol (oracle scores 0; singleton set equals plain metrics)",
        oracle_zero and singleton_gap <= 1e-12,
        f"singleton gap {singleton_gap:.2e}",
    )


# ----------------------------------------------------------------- C8


def test_c8_geometric_regularization():
    params = SpaceParams(h=128, ms=3.5)
    cfg = GeneratorConfig(length=128)
    g = RngStream(2008, 0).generator()
    shift_violations = 0
    jump_violations = 0
    for i in range(1000):
        series = sample_series(cfg, RngStream(2009, i))
        z, _ = normalize(series, series.length)
        x = z.values[0]

        eps = float(g.uniform(0.01, 0.5))
        delta = g.uniform(-eps, eps, x.shape)
        shift = np.abs(value_to_row(x + delta, params) - value_to_row(x, params))
        if shift.max() > int(eps * params.h / (2 * params.ms)) + 1:
            shift_violations += 1

        step = float(np.max(np.abs(np.diff(x))))
        if step > 0:
            jumps = np.abs(np.diff(value_to_row(x, params)))
            if jumps.max() > int(step * params.h / (2 * params.ms)) + 1:
                jump_violations += 1
    verdict(
        "C8 geometric bounds (1000 series, zero violations)",
        shift_violations == 0 and jump_violations == 0,
        f"shift {shift_violations}, jump {jump_violations}",
    )


# ----------------------------------------------------------------- C9


def test_c9_spectral_fidelity_trend():
    cfg = GeneratorConfig(length=256)
    agree = 0
    for i in range(200):
        series = sample_series(cfg, RngStream(2010, i))
        z, _ = normalize(series, series.length)
        x = z.values[0]
        reference = np.fft.rfft(x)
        errors = []
        for h in (32, 64, 128, 256):
            recon = quantize_values(x, SpaceParams(h=h, ms=3.5))
            errors.append(float(np.max(np.abs(np.fft.rfft(recon) - reference))))
        agree += all(errors[j + 1] <= errors[j] for j in range(3))
    verdict(
        "C9 spectral fidelity (nonincreasing through h doublings, >=95%)",
        agree >= 190,
        f"{agree}/200 nonincreasing",
    )


# ----------------------------------------------------------------- C10


def test_c10_generator_statistics():
    sine_cfg = GeneratorConfig(
        length=512, pwb_k_max=1, pwb_waveforms=("sine",), noise_sigma_eps=0.0, augment=AugmentConfig(probability=0.0)
    )
    from tsgrid import gen_pwb, gen_rwb

    peak_fails = 0
    for i in range(500):
        series = gen_pwb(sine_cfg, 512, RngStream(2011, i))
        wavelength = series.tags["wavelengths"][0]
        peak = int(np.argmax(np.abs(np.fft.rfft(series.values[0]))))
        peak_fails += abs(peak - 512.0 / wavelength) > 1.0

    steps = np.diff(gen_rwb(1.0, 1_000_001, RngStream(2012, 0)).values[0])
    moments_ok = abs(steps.mean()) <= 0.01 and 0.995 <= steps.var() <= 1.005

    mix_cfg = GeneratorConfig(alpha=0.5, length=8, noise_sigma_eps=0.0, augment=AugmentConfig(probability=0.0))
    n = 100_000
    hits = sum(sample_series(mix_cfg, RngStream(2013, i)).tags["hypothesis"] == "periodic" for i in range(n))
    mix_dev = abs(hits / n - 0.5)
    mix_ok = mix_dev <= 3.0 * math.sqrt(0.25 / n)

    verdict(
        "C10 generator statistics (peak match 500/500; walk moments; mixture 3-sigma)",
        peak_fails == 0 and moments_ok and mix_ok,
        f"peak fails {peak_fails}, step var {steps.var():.4f}, mixture dev {mix_dev:.4f}",
    )


# ----------------------------------------------------------------- C11


def _run_pipeline(root: Path, monkeypatch) -> None:
    monkeypatch.chdir(root)
    assert main(["generate", "-n", "100", "--seed", "17", "--length", "300", "-o", "data"]) == 0
    assert main(["encode", "data/series_00000.csv", "-o", "enc"]) == 0
    assert main(["decode", "enc/series_00000.meta", "-o", "dec"]) == 0
    assert (
        main(
            [
                "evaluate",
                "--dataset", "data/series_00000.csv",
                "--model", "seasonal-naive-image",
                "--lookback", "64",
                "--horizons", "32",
                "--betas", "0.5,1,2",
                "--seed", "17",
                "-o", "ev",
            ]
        )
        == 0
    )


def test_c11_end_to_end_smoke(tmp_path, monkeypatch):
    start = time.time()
    run_a, run_b = tmp_path / "a", tmp_path / "b"
    run_a.mkdir()
    run_b.mkdir()
    _run_pipeline(run_a, monkeypatch)
    _run_pipeline(run_b, monkeypatch)
    elapsed = time.time() - start

    rel_a = sorted(p.relative_to(run_a) for p in run_a.rglob("*") if p.is_file())
    rel_b = sorted(p.relative_to(run_b) for p in run_b.rglob("*") if p.is_file())
    identical = rel_a == rel_b and all(filecmp.cmp(run_a / r, run_b / r, shallow=False) for r in rel_a)

    report_lines = (run_a / "ev" / "report.csv").read_text(encoding="utf-8").splitlines()
    mae_values = [float(line.split(",")[5]) for line in report_lines[1:] if line.split(",")[5]]
    finite = len(mae_values) > 0 and all(math.isfinite(v) for v in mae_values)

    decoded = read_series_csv(run_a / "dec" / "series_00000.decoded.csv")
    verdict(
        "C11 end-to-end smoke (deterministic, finite ReMAE, <60s)",
        identical and finite and decoded.length == 300 and elapsed < 60.0,
        f"{len(rel_a)} files byte-identical, {elapsed:.1f}s",
    )
