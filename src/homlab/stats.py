"""Small statistical helpers: confidence intervals and a calibrated
two-sample distribution test.

The two-sample statistic is the max ECDF distance.  Its null
distribution for continuous data does not depend on the underlying law,
so thresholds are calibrated once per sample-size pair by simulating
same-law (uniform) pairs with the keyed generator; the calibration is
deterministic given its seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .randomness import keyed_uniform

Z99 = 2.58  # two-sided 99% normal quantile, used for all reported CIs
_ECDF_QUANTILE = 0.99  # same-law quantile used as the two-sample threshold
_ECDF_PAIRS = 500  # simulated same-law pairs per calibration
_ECDF_SEED = 2026  # key of the calibration draws


@np.errstate(invalid="ignore", over="ignore")
def sample_std(values) -> float:
    """The ddof=1 standard deviation of two or more values: NaN or inf,
    without a numpy warning, once a value is not finite or a square overflows."""
    return float(np.std(values, ddof=1))


@np.errstate(invalid="ignore", over="ignore")
def mean_ci(values, exact: bool = False):
    """(mean, Z99 * std / sqrt(n)) with ddof=1, and (nan, nan) for none.

    One value says nothing of the spread of its law, so its half-width is
    inf, unless ``exact``: the value is the law's only one, as the one
    realization of a periodic field is, and its half-width is 0.  A value
    that is not finite makes both non-finite, without a numpy warning.
    """
    values = np.asarray(values, dtype=float)
    n = values.size
    if n < 2:
        return (float(values[0]), 0.0 if exact else math.inf) if n else (math.nan, math.nan)
    return float(values.mean()), Z99 * sample_std(values) / math.sqrt(n)


def max_ecdf_distance(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic sup_x |F_a(x) - F_b(x)|."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / a.size
    fb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


@lru_cache(maxsize=64)
def calibrated_ecdf_threshold(n1: int, n2: int) -> float:
    """Same-law 99% quantile of the max ECDF distance for sizes (n1, n2)."""
    stats = np.empty(_ECDF_PAIRS)
    for k in range(_ECDF_PAIRS):
        a = keyed_uniform(_ECDF_SEED, "ecdf-cal", k, 0, np.arange(n1))
        b = keyed_uniform(_ECDF_SEED, "ecdf-cal", k, 1, np.arange(n2))
        stats[k] = max_ecdf_distance(a, b)
    return float(np.quantile(stats, _ECDF_QUANTILE))


@dataclass(frozen=True)
class TwoSampleResult:
    statistic: float
    threshold: float
    n1: int
    n2: int


def two_sample_test(a, b) -> TwoSampleResult:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    stat = max_ecdf_distance(a, b)
    thr = calibrated_ecdf_threshold(a.size, b.size)
    return TwoSampleResult(statistic=stat, threshold=thr, n1=a.size, n2=b.size)
