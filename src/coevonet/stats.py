"""Nonparametric comparison statistics for per-run metric tables.

The ranks and the two distribution tails are computed here with numpy and
``math``, so importing the package does not load scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class StatsError(ValueError):
    pass


def average_ranks(values) -> np.ndarray:
    """1-based ranks of a 1-D array; tied values share the mean of their ranks."""
    values = np.asarray(values)
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1], True])
    group = np.repeat(np.arange(starts.size - 1), np.diff(starts))
    ranks = np.empty(values.size)
    ranks[order] = ((starts[:-1] + starts[1:] + 1) / 2.0)[group]
    return ranks


def chi2_sf(x: float, df: int) -> float:
    """Upper tail P(X > x) of a chi-square with a positive integer ``df``.

    Closed form of the regularized upper incomplete gamma Q(df/2, x/2): the
    terms (x/2)^e e^(-x/2) / Gamma(e+1) for e = 0, 1, ... < df/2 at even df,
    and e = 1/2, 3/2, ... < df/2 plus erfc(sqrt(x/2)) at odd df.
    """
    if x <= 0.0:
        return 1.0
    h = x / 2.0
    odd = df % 2
    total = math.erfc(math.sqrt(h)) if odd else 0.0
    log_h = math.log(h)
    e = 0.5 * odd
    while e < df / 2.0:
        total += math.exp(e * log_h - h - math.lgamma(e + 1.0))
        e += 1.0
    return min(total, 1.0)


def normal_sf(z: float) -> float:
    """Upper tail P(Z > z) of the standard normal."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


@dataclass(frozen=True)
class FriedmanResult:
    mean_ranks: np.ndarray
    statistic: float
    p_value: float


def friedman_ranks(table, higher_is_better: bool = True) -> FriedmanResult:
    """Friedman two-way analysis by ranks over a runs x methods table.

    Rank 1 is the best method in a run (largest value when
    ``higher_is_better``); ties share averaged ranks. The statistic is
    chi-square approximated with k-1 degrees of freedom.
    """
    x = np.asarray(table, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2 or x.shape[1] < 2:
        raise StatsError(f"need a runs x methods table with both >= 2, got {x.shape}")
    if not np.isfinite(x).all():
        raise StatsError("table contains non-finite entries")
    n, k = x.shape
    signed = -x if higher_is_better else x
    ranks = np.vstack([average_ranks(row) for row in signed])
    mean_ranks = ranks.mean(axis=0)
    statistic = 12.0 * n / (k * (k + 1)) * float(((mean_ranks - (k + 1) / 2.0) ** 2).sum())
    p_value = chi2_sf(statistic, k - 1)
    return FriedmanResult(mean_ranks=mean_ranks, statistic=statistic, p_value=p_value)


@dataclass(frozen=True)
class HommelResult:
    adjusted: np.ndarray
    reject: np.ndarray


def hommel_apv(p_values, alpha: float = 0.05) -> HommelResult:
    """Hommel step-up adjusted p-values for comparisons against a control.

    The control itself must not be in the list. Rejection flags are
    ``adjusted <= alpha``.
    """
    p = np.asarray(p_values, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise StatsError("p-values must be a nonempty 1-D sequence")
    if np.any((p < 0) | (p > 1)) or not np.isfinite(p).all():
        raise StatsError("p-values must lie in [0, 1]")
    n = p.size
    order = np.argsort(p, kind="stable")
    ps = p[order]
    if n == 1:
        adjusted = p.copy()
        return HommelResult(adjusted, adjusted <= alpha)
    idx = np.arange(1, n + 1)
    q = np.full(n, (n * ps / idx).min())
    pa = q.copy()
    for m in range(n - 1, 1, -1):
        i_upper = np.arange(n - m + 1, n)          # 0-based tail indices
        q1 = (m * ps[i_upper] / np.arange(2, m + 1)).min()
        i_lower = np.arange(0, n - m + 1)
        q[i_lower] = np.minimum(m * ps[i_lower], q1)
        q[i_upper] = q[n - m]
        pa = np.maximum(pa, q)
    adjusted_sorted = np.maximum(pa, ps)
    adjusted = np.empty(n)
    adjusted[order] = np.minimum(adjusted_sorted, 1.0)
    return HommelResult(adjusted=adjusted, reject=adjusted <= alpha)
