"""Small statistics helpers shared by the noise audit and the analysis suite."""

from __future__ import annotations

import numpy as np

BOOTSTRAP_RESAMPLES = 200


def ks_statistic(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic sup |F_a - F_b|.

    Both empirical CDFs are right-continuous step functions, so the sup is
    attained at a pooled sample; a tie counts on both sides at once.
    """
    a, b = np.sort(a), np.sort(b)
    pooled = np.concatenate([a, b])
    gap = (np.searchsorted(a, pooled, side="right") / a.size
           - np.searchsorted(b, pooled, side="right") / b.size)
    return float(np.max(np.abs(gap)))


def ks_critical(alpha: float, n: int, m: int) -> float:
    """Asymptotic two-sample KS critical value at level alpha.

    D_crit = c(alpha) sqrt((n + m)/(n m)) with c(alpha) = sqrt(-ln(alpha/2)/2);
    c(0.01) = 1.6276, c(0.05) = 1.3581.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    c = np.sqrt(-np.log(alpha / 2.0) / 2.0)
    return float(c * np.sqrt((n + m) / (n * m)))


def fit_loglog(lags, values) -> tuple[float, float, float]:
    """Least-squares fit of ln(values) on ln(lags).

    Returns (slope, intercept, r_squared).
    """
    lx = np.log(np.asarray(lags, dtype=float))
    ly = np.log(np.asarray(values, dtype=float))
    if lx.shape != ly.shape or lx.ndim != 1 or lx.size < 2:
        raise ValueError("need matching 1d arrays of at least 2 lags")
    if not (np.all(np.isfinite(lx)) and np.all(np.isfinite(ly))):
        raise ValueError("log-log fit needs positive finite lags and values")
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    total = ly - ly.mean()
    ss_tot = float(total @ total)
    r2 = 1.0 - float(resid @ resid) / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


def bootstrap_se(per_path: np.ndarray, statistic, rng: np.random.Generator) -> float:
    """Standard error of a statistic under BOOTSTRAP_RESAMPLES path resamplings.

    per_path holds one row per independent path; statistic maps a resampled
    row subset (same shape family) to a scalar.
    """
    per_path = np.asarray(per_path)
    n = per_path.shape[0]
    if n < 2:
        raise ValueError("bootstrap needs at least 2 paths")
    stats = np.empty(BOOTSTRAP_RESAMPLES)
    for i in range(BOOTSTRAP_RESAMPLES):
        idx = rng.integers(0, n, size=n)
        stats[i] = statistic(per_path[idx])
    return float(np.std(stats, ddof=1))
