"""Analytic bound on grid reconstruction error and the optimal maximum scale.

For zero-mean Gaussian data with variance ``k``, the expected absolute
roundtrip error of the codec splits into a quantization part (at most half
a cell for in-range values) and a saturation part (mass beyond +/-MS lands
on the edge cells).  Both have closed forms in the normal CDF; the solver
below finds the scale that minimizes the combined bound at a given
resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigurationError, TsgridError
from .imagespace import SpaceParams, quantize_values
from .rng import RngStream

_SQRT2 = math.sqrt(2.0)


def _norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / _SQRT2)


def _norm_tail(x: float) -> float:
    # 1 - CDF(x) without cancellation for large x
    return 0.5 * math.erfc(x / _SQRT2)


@dataclass(frozen=True)
class SEBoundInput:
    """Arguments of the reconstruction-error bound.

    ``k`` is the variance of the (zero-mean) data, ``c`` and ``t`` the
    channel count and sequence length; the bound is linear in ``c * t``.
    """

    h: int
    ms: float
    k: float = 1.0
    c: int = 1
    t: int = 1

    def __post_init__(self) -> None:
        if self.h < 2:
            raise ConfigurationError(f"h must be at least 2, got {self.h}")
        if not (self.ms > 0 and math.isfinite(self.ms)):
            raise ConfigurationError(f"ms must be positive and finite, got {self.ms}")
        if not (self.k > 0 and math.isfinite(self.k)):
            raise ConfigurationError(f"k must be positive and finite, got {self.k}")
        if self.c < 1 or self.t < 1:
            raise ConfigurationError(f"c and t must be positive, got c={self.c}, t={self.t}")


def se_bound(inp: SEBoundInput) -> float:
    """Upper bound on the expected L1 reconstruction error.

    quantization:  (MS/h) * P(|s| <= MS)
    saturation:    sqrt(2k/pi) * exp(-MS^2 / 2k) - 2 MS * P(s > MS)
    """
    x = inp.ms / math.sqrt(inp.k)
    quant = (inp.ms / inp.h) * (_norm_cdf(x) - _norm_cdf(-x))
    return inp.c * inp.t * (quant + truncation_floor(inp.ms, inp.k))


def truncation_floor(ms: float, k: float = 1.0) -> float:
    """Limit of the unit-cell bound as the resolution grows without limit.

    Only the saturation part survives; it decays like exp(-MS^2 / 2k) / MS^2
    and is what the convergence profile approaches from above.
    """
    x = ms / math.sqrt(k)
    return math.sqrt(2.0 * k / math.pi) * math.exp(-ms**2 / (2.0 * k)) - 2.0 * ms * _norm_tail(x)


def bound_convergence_profile(ms: float, h_list: Iterable[int]) -> list[float]:
    """Unit-cell bound (c = t = 1, k = 1) evaluated at each resolution.

    Strictly decreasing in ``h`` toward :func:`truncation_floor`.
    """
    return [se_bound(SEBoundInput(h=int(h), ms=ms)) for h in h_list]


def mc_system_error(
    params: SpaceParams,
    k: float,
    n: int,
    rng: RngStream,
) -> tuple[float, float]:
    """Monte-Carlo estimate of the expected absolute roundtrip error.

    Draws ``n`` samples from N(0, k), runs them through the codec, and
    returns (mean absolute error, standard error of that mean).
    """
    if n < 1:
        raise ConfigurationError(f"sample count must be positive, got {n}")
    if not (k > 0 and math.isfinite(k)):
        raise ConfigurationError(f"k must be positive and finite, got {k}")
    g = rng.generator()
    total = 0.0
    total_sq = 0.0
    remaining = n
    chunk = 4_000_000
    while remaining > 0:
        m = min(chunk, remaining)
        s = math.sqrt(k) * g.standard_normal(m)
        err = np.abs(quantize_values(s, params) - s)
        total += float(err.sum())
        total_sq += float((err * err).sum())
        remaining -= m
    mean = total / n
    var = max(total_sq / n - mean * mean, 0.0)
    stderr = math.sqrt(var / n)
    return mean, stderr


def ms_residual(ms: float, h: int, k: float = 1.0) -> float:
    """Stationarity condition whose root is the optimal maximum scale.

    At k = 1 this is exactly the derivative of the unit bound in ``ms``
    set to zero.  For k != 1 the variance scaling enters through the
    saturation-tail terms only (the quantization CDF pair and the
    exponential keep their unit-variance form); this is the calibration
    the solved-scale tables in this package standardize on, and its roots
    grow slightly faster than sqrt(k) at coarse resolutions before
    approaching exact sqrt(k) scaling as h grows.
    """
    sk = math.sqrt(k)
    return (
        (_norm_cdf(ms) - _norm_cdf(-ms)) / h
        - 2.0
        + 2.0 * _norm_cdf(ms / sk)
        + (ms / h) * math.sqrt(2.0 / (math.pi * k)) * math.exp(-ms * ms / 2.0)
    )


def optimal_ms(h: int, k: float = 1.0) -> float:
    """Unique root of :func:`ms_residual`, by bisection down to adjacent floats.

    The residual is -2 at 0+ and grows without bound, and the underlying
    objective is convex then concave, so the bracket below always contains
    exactly one root.  Of the two final bracket ends, the one with the
    smaller residual magnitude is returned.
    """
    if h < 2:
        raise ConfigurationError(f"h must be at least 2, got {h}")
    if not (k > 0 and math.isfinite(k)):
        raise ConfigurationError(f"k must be positive and finite, got {k}")
    lo, hi = 1e-3, math.sqrt(k * (h + 2)) + 10.0
    flo, fhi = ms_residual(lo, h, k), ms_residual(hi, h, k)
    if not (flo < 0.0 < fhi):
        raise TsgridError(f"root not bracketed for h={h}, k={k}")  # cannot occur for valid input

    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        fmid = ms_residual(mid, h, k)
        if fmid < 0.0:
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid
    return lo if abs(flo) <= abs(fhi) else hi


@dataclass(frozen=True)
class SolveConfig:
    """The grid ``solve-ms`` tabulates: resolutions times variance scales."""

    h_list: tuple[int, ...] = (32, 64, 128, 256, 512)
    k_list: tuple[float, ...] = (1.0, 1.5, 2.0)

    def __post_init__(self) -> None:
        for name, values in (("h_list", self.h_list), ("k_list", self.k_list)):
            if len(set(values)) != len(values):  # a repeated value would repeat its table rows
                raise ConfigurationError(f"{name} must be distinct, got {values}")


def solve_ms_table(h_list: Sequence[int], k_list: Sequence[float]) -> list[tuple[int, float, float, float]]:
    """Rows (h, k, ms_star, residual) over the grid, h-major order."""
    for name, values in (("h_list", h_list), ("k_list", k_list)):
        if not values:
            raise ConfigurationError(f"{name} must not be empty")
    rows = []
    for h in h_list:
        for k in k_list:
            ms = optimal_ms(int(h), float(k))
            rows.append((int(h), float(k), ms, ms_residual(ms, int(h), float(k))))
    return rows
