import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

import tsgrid
from tsgrid import (
    ConfigurationError,
    RngStream,
    SEBoundInput,
    SpaceParams,
    bound_convergence_profile,
    mc_system_error,
    ms_residual,
    optimal_ms,
    quantize_values,
    se_bound,
    solve_ms_table,
    truncation_floor,
)


def bound_by_quadrature(h, ms, k=1.0):
    """Numerically integrate the two bound components (independent oracle)."""
    scale = math.sqrt(k)
    quantization = quad(lambda s: (ms / h) * norm.pdf(s, scale=scale), -ms, ms)[0]
    saturation = 2.0 * quad(lambda s: (s - ms) * norm.pdf(s, scale=scale), ms, np.inf)[0]
    return quantization + saturation


def test_bound_matches_quadrature():
    for h, ms, k in [(128, 3.5, 1.0), (32, 2.1, 1.0), (64, 3.0, 2.0), (512, 4.38, 1.5)]:
        closed = se_bound(SEBoundInput(h=h, ms=ms, k=k))
        assert closed == pytest.approx(bound_by_quadrature(h, ms, k), abs=1e-9)


def test_bound_reference_value():
    # frozen from the quadrature oracle at (h=128, ms=3.5, k=1)
    assert se_bound(SEBoundInput(h=128, ms=3.5)) == pytest.approx(0.0274479899, abs=1e-8)


def test_bound_vanishes_for_wide_fine_grids():
    # the ms/h quantization term dominates; saturation contributes O(1e-24)
    value = se_bound(SEBoundInput(h=10**9, ms=10.0))
    assert value == pytest.approx(1e-8, rel=1e-9)
    assert truncation_floor(10.0) < 1e-20


def test_bound_linear_in_cells():
    unit = se_bound(SEBoundInput(h=128, ms=3.5))
    assert se_bound(SEBoundInput(h=128, ms=3.5, c=3, t=7)) == 21.0 * unit


def test_bound_input_validation():
    with pytest.raises(ConfigurationError):
        SEBoundInput(h=1, ms=3.5)
    with pytest.raises(ConfigurationError):
        SEBoundInput(h=128, ms=0.0)
    with pytest.raises(ConfigurationError):
        SEBoundInput(h=128, ms=3.5, k=-1.0)


# ------------------------------------------------------------- monte carlo


def test_mc_error_below_bound():
    for h, ms, k in [(128, 3.5, 1.0), (32, 2.1, 1.0), (64, 2.64, 2.0)]:
        estimate, stderr = mc_system_error(SpaceParams(h=h, ms=ms), k, 200_000, RngStream(50, h))
        assert estimate <= se_bound(SEBoundInput(h=h, ms=ms, k=k)) + 3.0 * stderr


def test_mc_error_matches_exact_expectation_on_a_two_cell_grid():
    params = SpaceParams(h=2, ms=1.0)

    def roundtrip(s):
        return float(quantize_values(np.array(s), params))

    exact = quad(lambda s: abs(roundtrip(s) - s) * norm.pdf(s), -np.inf, 0.0)[0]
    exact += quad(lambda s: abs(roundtrip(s) - s) * norm.pdf(s), 0.0, np.inf)[0]
    estimate, stderr = mc_system_error(params, 1.0, 1_000_000, RngStream(51, 0))
    assert abs(estimate - exact) <= 3.0 * stderr


def test_mc_error_vanishes_in_the_error_free_regime():
    estimate, _ = mc_system_error(SpaceParams(h=2**20, ms=40.0), 1.0, 50_000, RngStream(52, 0))
    assert estimate < 1e-4


def test_mc_rejects_bad_arguments():
    with pytest.raises(ConfigurationError):
        mc_system_error(SpaceParams(), 1.0, 0, RngStream(0, 0))
    with pytest.raises(ConfigurationError):
        mc_system_error(SpaceParams(), -1.0, 10, RngStream(0, 0))


@pytest.mark.parametrize("k", [math.nan, math.inf])
def test_mc_rejects_a_non_finite_variance_as_the_bound_does(k):
    # a NaN or infinite k once reached the codec and failed there as "cannot encode non-finite values"
    with pytest.raises(ConfigurationError, match=rf"^k must be positive and finite, got {k}$"):
        mc_system_error(SpaceParams(), k, 10, RngStream(0, 0))


# ------------------------------------------------------------- optimal scale


def test_optimal_ms_residual_is_tiny():
    for h in (32, 64, 128, 256, 512):
        for k in (1.0, 1.5, 2.0):
            ms = optimal_ms(h, k)
            assert abs(ms_residual(ms, h, k)) < 1e-9


def test_optimal_ms_minimizes_unit_variance_bound():
    # at k = 1 the residual is exactly the bound's stationarity condition
    for h in (32, 128, 512):
        ms = optimal_ms(h, 1.0)
        here = se_bound(SEBoundInput(h=h, ms=ms))
        assert se_bound(SEBoundInput(h=h, ms=ms - 0.05)) >= here
        assert se_bound(SEBoundInput(h=h, ms=ms + 0.05)) >= here


def test_optimal_ms_increases_in_resolution_and_variance():
    for k in (1.0, 1.5, 2.0):
        roots = [optimal_ms(h, k) for h in (32, 64, 128, 256, 512)]
        assert all(a < b for a, b in zip(roots, roots[1:]))
    for h in (32, 64, 128, 256, 512):
        roots = [optimal_ms(h, k) for k in (1.0, 1.5, 2.0)]
        assert all(a < b for a, b in zip(roots, roots[1:]))


def test_optimal_ms_spot_values():
    assert optimal_ms(128, 1.0) == pytest.approx(2.64, abs=0.01)
    assert optimal_ms(512, 2.0) == pytest.approx(4.38, abs=0.01)
    assert optimal_ms(32, 1.5) == pytest.approx(2.62, abs=0.01)


def test_solve_ms_table_layout():
    rows = solve_ms_table([32, 64], [1.0, 2.0])
    assert [(r[0], r[1]) for r in rows] == [(32, 1.0), (32, 2.0), (64, 1.0), (64, 2.0)]
    assert all(abs(r[3]) < 1e-9 for r in rows)


NO_SCIPY_RUN = """
import contextlib, io, sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
import numpy as np
from tsgrid import cli, encode, loss, normalize, preprocess, SpaceParams
from tsgrid.io import read_series_csv

runs = [
    ["generate", "-n", "1", "--length", "256", "--seed", "3", "-o", "gen"],
    ["encode", "gen/series_00000.csv", "--normalize-lookback", "64", "-o", "enc"],
    ["decode", "enc/series_00000.meta", "-o", "dec"],
    ["solve-ms", "--h-list", "32", "--k-list", "1", "-o", "ms"],
    ["evaluate", "--dataset", "gen/series_00000.csv", "--model", "seasonal-naive-image", "--lookback", "96",
     "--horizons", "24", "--betas", "1", "--perturb", "missing:0.3", "--seed", "5", "-o", "ev"],
    ["perturb", "--dataset", "gen/series_00000.csv", "--perturb", "missing:0.3", "--seed", "5", "-o", "pert"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in runs]
print(codes)
target = encode(normalize(read_series_csv("gen/series_00000.csv"), 64)[0], SpaceParams())
print(np.isfinite(loss(preprocess(target), target)))
print(sorted(m for m in sys.modules if m.startswith("scipy") and sys.modules[m] is not None))
"""


def test_import_loads_no_scipy(tmp_path):
    # importing scipy costs ~0.3 s and ~18 MB peak RSS per process (2 cores, Python 3.11);
    # no command and no part of the training loss needs it
    src = Path(tsgrid.__file__).resolve().parent.parent
    code = "import sys, tsgrid, tsgrid.cli, tsgrid.forecasters; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, encoding="utf-8", env=env, timeout=120)
    assert result.stdout == "[]\n", result.stdout + result.stderr
    result = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_RUN], capture_output=True, encoding="utf-8", env=env, cwd=tmp_path, timeout=120
    )
    assert result.stdout == "[0, 0, 0, 0, 0, 0]\nTrue\n[]\n", result.stdout + result.stderr


def test_optimal_ms_validation():
    with pytest.raises(ConfigurationError):
        optimal_ms(1, 1.0)
    with pytest.raises(ConfigurationError):
        optimal_ms(128, 0.0)


@pytest.mark.parametrize("k", [math.nan, math.inf])
def test_optimal_ms_rejects_a_non_finite_variance_as_the_bound_does(k):
    # a NaN or infinite k once left the bracket without a sign change: "root not bracketed"
    with pytest.raises(ConfigurationError, match=rf"^k must be positive and finite, got {k}$"):
        optimal_ms(32, k)


# ------------------------------------------------------------- convergence


def test_profile_strictly_decreases():
    values = bound_convergence_profile(3.5, [32, 64, 128, 256, 512])
    assert all(a > b for a, b in zip(values, values[1:]))


def test_profile_consistent_with_bound():
    assert bound_convergence_profile(2.5, [64]) == [se_bound(SEBoundInput(h=64, ms=2.5))]


def test_profile_approaches_truncation_floor():
    floor = truncation_floor(3.5)
    values = bound_convergence_profile(3.5, [2**j for j in range(5, 25)])
    assert all(v > floor for v in values)
    assert values[-1] - floor < 1e-6


def test_truncation_floor_asymptotics():
    assert truncation_floor(8.0) < 1e-13
    assert truncation_floor(6.0) < 1e-7
    assert truncation_floor(8.0) > 0.0
