"""Estimators and verifiers over simulation output.

Each report is a deterministic function of the ensemble data and its own
parameters: bootstrap streams are derived from the ensemble's master seed,
so repeated analysis of the same data reproduces byte-identical numbers.

Contents: Hölder exponent regression on increment-moment tables (with a
fractional-noise surrogate generator for self-calibration), the log-mass
extinction report, the mild-Itô log-functional audit, the p-th moment
flat-tail check, the stationarity window report, and the one-point density
smoke test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import fft, ifft

from .grid import to_modes
from .model import CoefficientSet
from .noise import SPECIES_U, STREAM_BOOTSTRAP, noise_generator
from .solver import EnsembleStats
from .statutil import bootstrap_se, fit_loglog, ks_critical, ks_statistic

DEFAULT_BOOTSTRAP_RESAMPLES = 200
MIN_HOLDER_LAGS = 5
MIN_LAG_DECADES = 0.45
MIN_DENSITY_SAMPLES = 2000


# ---------------------------------------------------------------------------
# Hölder exponent estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IncrementTable:
    """Per-path increment power sums at a family of separations.

    lags are physical separations; p2/p4 rows hold per-path sums of squared
    and fourth-power increments, count the number of increments per path
    behind each column.
    """

    lags: np.ndarray
    p2: np.ndarray
    p4: np.ndarray
    count: np.ndarray
    master_seed: int = 0

    @classmethod
    def from_ensemble(cls, stats: EnsembleStats, direction: str) -> "IncrementTable":
        if direction == "space":
            lags, p2, p4, count = (stats.space_lags, stats.space_p2,
                                   stats.space_p4, stats.space_count)
        elif direction == "time":
            lags, p2, p4, count = (stats.time_lags, stats.time_p2,
                                   stats.time_p4, stats.time_count)
        else:
            raise ValueError(f"direction must be 'space' or 'time', got {direction!r}")
        if lags.size == 0 or not np.any(count):
            raise ValueError(f"ensemble carries no {direction} increment statistics")
        return cls(lags=lags, p2=p2, p4=p4, count=count,
                   master_seed=stats.master_seed)

    @classmethod
    def from_paths(cls, paths: np.ndarray, lag_steps, step: float,
                   master_seed: int = 0) -> "IncrementTable":
        """Build the table from raw sampled paths, shape (P, n_samples)."""
        paths = np.atleast_2d(np.asarray(paths, dtype=float))
        lag_steps = np.asarray(lag_steps, dtype=np.int64)
        if np.any(lag_steps < 1) or np.any(lag_steps >= paths.shape[1]):
            raise ValueError("lag steps must be in [1, n_samples)")
        p2 = np.empty((paths.shape[0], lag_steps.size))
        p4 = np.empty_like(p2)
        count = np.empty(lag_steps.size, dtype=np.int64)
        for j, lag in enumerate(lag_steps):
            d = paths[:, lag:] - paths[:, :-lag]
            p2[:, j] = np.sum(d**2, axis=1)
            p4[:, j] = np.sum(d**4, axis=1)
            count[j] = paths.shape[1] - lag
        return cls(lags=lag_steps * step, p2=p2, p4=p4, count=count,
                   master_seed=master_seed)


@dataclass(frozen=True)
class HolderEstimate:
    direction: str
    p: int
    lags: np.ndarray
    moments: np.ndarray             # E|increment|^p per lag
    log_log_slope: float            # slope of ln moment vs ln lag
    r2: float
    exponent: float                 # slope / p
    exponent_se: float
    confidence_band: tuple          # exponent +- 2 se


def _moment_curve(p2: np.ndarray, p4: np.ndarray, count: np.ndarray, p: int) -> np.ndarray:
    sums = {2: p2, 4: p4}[p]
    return sums.sum(axis=0) / (count * p2.shape[0])


def check_lag_coverage(lags) -> None:
    """Refuse fewer than MIN_HOLDER_LAGS lags or under MIN_LAG_DECADES decades."""
    lags = np.asarray(lags, dtype=float)
    if lags.size < MIN_HOLDER_LAGS:
        raise ValueError(f"need at least {MIN_HOLDER_LAGS} lags, got {lags.size}")
    decades = np.log10(lags.max() / lags.min())
    if decades < MIN_LAG_DECADES:
        raise ValueError(f"lags span {decades:.2f} decades, need {MIN_LAG_DECADES}")


def holder_estimate(table, direction: str = "space", p: int = 4,
                    n_resamples: int = DEFAULT_BOOTSTRAP_RESAMPLES) -> HolderEstimate:
    """Regress ln E|increment|^p on ln lag; the exponent is slope / p.

    table is an IncrementTable or an EnsembleStats (whose tables for the
    given direction are used).  Lag coverage below 5 lags or 0.45 decades
    (roughly the narrowest window the default lag layout produces) is refused
    rather than silently extrapolated; all-zero increments mean the data
    cannot carry a regularity estimate.
    """
    if isinstance(table, EnsembleStats):
        table = IncrementTable.from_ensemble(table, direction)
    if p not in (2, 4):
        raise ValueError("moment order p must be 2 or 4")
    lags = np.asarray(table.lags, dtype=float)
    check_lag_coverage(lags)
    moments = _moment_curve(table.p2, table.p4, table.count, p)
    if np.any(moments <= 0):
        raise ValueError("degenerate increment table: zero moments at some lag")

    slope, _, r2 = fit_loglog(lags, moments)
    exponent = slope / p

    stacked = np.concatenate([table.p2, table.p4], axis=1)
    n_lags = lags.size

    def stat(rows):
        m = _moment_curve(rows[:, :n_lags], rows[:, n_lags:], table.count, p)
        return fit_loglog(lags, m)[0] / p

    if stacked.shape[0] > 1:
        rng = noise_generator(table.master_seed, 0, STREAM_BOOTSTRAP)
        se = bootstrap_se(stacked, stat, n_resamples, rng)
    else:
        se = 0.0                    # one path: no path-resampling spread
    return HolderEstimate(direction=direction, p=p, lags=lags, moments=moments,
                          log_log_slope=slope, r2=r2, exponent=exponent,
                          exponent_se=se,
                          confidence_band=(exponent - 2 * se, exponent + 2 * se))


def fractional_increments(hurst: float, n: int, n_paths: int,
                          rng: np.random.Generator) -> np.ndarray:
    """Unit-step fractional Gaussian noise by circulant embedding.

    Rows are independent; cumulative sums are fBm samples with
    Var(B_{k+l} - B_k) = l^{2 hurst} exactly.
    """
    if not 0.0 < hurst < 1.0:
        raise ValueError(f"hurst must be in (0, 1), got {hurst}")
    if n < 2:
        raise ValueError("need at least 2 increments")
    k = np.arange(n + 1, dtype=float)
    gamma = 0.5 * ((k + 1) ** (2 * hurst) - 2 * k ** (2 * hurst)
                   + np.abs(k - 1) ** (2 * hurst))
    circ = np.concatenate([gamma, gamma[-2:0:-1]])       # length 2n
    lam = fft(circ).real
    # tiny negative eigenvalues from roundoff are clipped
    lam = np.maximum(lam, 0.0)
    m = circ.size
    w = rng.standard_normal((n_paths, m)) + 1j * rng.standard_normal((n_paths, m))
    y = ifft(np.sqrt(lam) * w, axis=1) * np.sqrt(m)
    return y[:, :n].real


def holder_selfcheck(hurst: float, n_increments: int = 100_000,
                     n_paths: int = 20, seed: int = 0,
                     lag_steps=(1, 2, 4, 8, 16, 32, 64)) -> HolderEstimate:
    """Estimator calibration on surrogate paths with a known exponent.

    Generates fBm paths totalling n_increments steps and runs the same
    moment regression the field estimates use; the returned exponent should
    sit within a few hundredths of hurst.
    """
    per_path = max(2, n_increments // n_paths)
    rng = np.random.default_rng(seed)
    fgn = fractional_increments(hurst, per_path, n_paths, rng)
    paths = np.cumsum(fgn, axis=1)
    table = IncrementTable.from_paths(paths, lag_steps, step=1.0 / per_path,
                                      master_seed=seed)
    return holder_estimate(table, direction="surrogate")


# ---------------------------------------------------------------------------
# Extinction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtinctionReport:
    species: int
    times: np.ndarray
    mean_log_mass: np.ndarray
    log_mass_se: np.ndarray
    eta: float
    r_bound: float                  # sup m - inf sigma^2 / 2
    window: tuple
    slope: float
    slope_se: float
    slope_ok: bool
    pointwise_ok: np.ndarray        # per recorded time
    degenerate: bool

    @property
    def passed(self) -> bool:
        return bool(self.slope_ok and np.all(self.pointwise_ok) and not self.degenerate)


def extinction_report(stats: EnsembleStats, coeffs: CoefficientSet,
                      species: int = SPECIES_U, tail_window: tuple = (5.0, None),
                      eta: float | None = None,
                      n_resamples: int = DEFAULT_BOOTSTRAP_RESAMPLES) -> ExtinctionReport:
    """Log-mass decay check: slope of E ln(eta + mass) against the rate bound.

    The per-species rate bound is sup m - inf sigma^2 / 2 taken from the
    coefficient extrema.  The slope over the tail window must not exceed it
    by more than 3 bootstrap standard errors, and the per-time inequality
    mean log mass <= initial log mass + bound * t must hold within 3
    pointwise standard errors at every recorded time.
    """
    mass = stats.mass_u if species == SPECIES_U else stats.mass_v
    times = stats.times
    initial_mass = float(mass[:, 0].mean())
    degenerate = initial_mass <= 0.0
    if eta is None:
        eta = 1e-12 * initial_mass if initial_mass > 0 else 1e-300
    if eta <= 0:
        raise ValueError("eta must be positive")

    log_mass = np.log(eta + mass)
    mean_log = log_mass.mean(axis=0)
    se = log_mass.std(axis=0, ddof=1) / np.sqrt(stats.n_paths) if stats.n_paths > 1 \
        else np.zeros_like(mean_log)

    r_bound = coeffs.extinction_rate_bound(species)

    t_lo, t_hi = tail_window
    mask = times >= t_lo
    if t_hi is not None:
        mask &= times <= t_hi
    if mask.sum() < 3:
        raise ValueError(f"tail window {tail_window} covers {int(mask.sum())} "
                         "recorded times; need at least 3")
    tw = times[mask]

    def window_slope(rows):
        return fit_line(tw, rows[:, mask].mean(axis=0))

    slope = window_slope(log_mass)
    rng = noise_generator(stats.master_seed, 0, STREAM_BOOTSTRAP)
    slope_se = bootstrap_se(log_mass, window_slope, n_resamples, rng) \
        if stats.n_paths > 1 else 0.0

    pointwise_ok = mean_log <= mean_log[0] + r_bound * times + 3.0 * se + 1e-12
    slope_ok = slope <= r_bound + 3.0 * slope_se
    return ExtinctionReport(species=species, times=times, mean_log_mass=mean_log,
                            log_mass_se=se, eta=eta, r_bound=r_bound,
                            window=(t_lo, t_hi), slope=slope, slope_se=slope_se,
                            slope_ok=bool(slope_ok), pointwise_ok=pointwise_ok,
                            degenerate=degenerate)


def fit_line(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of y on x."""
    return float(np.polyfit(np.asarray(x, float), np.asarray(y, float), 1)[0])


# ---------------------------------------------------------------------------
# Mild-Itô log-functional audit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MildAuditRow:
    time_s: float
    time_t: float
    eta: float
    m_eta: float
    drift_ratio: float


@dataclass(frozen=True)
class MildAuditReport:
    rows: tuple
    sup_m: float
    monotone_ok: bool               # M_eta nondecreasing as eta decreases
    limit_ok: bool                  # M_eta >= 1 - 1e-3 at the smallest eta
    drift_ok: bool                  # drift ratio <= sup m + 1e-9 everywhere

    @property
    def passed(self) -> bool:
        return self.monotone_ok and self.limit_ok and self.drift_ok


def mild_log_functional_audit(snapshots, coeffs: CoefficientSet,
                              etas=(1e-2, 1e-4, 1e-6), species: int = SPECIES_U,
                              limit_tol: float = 1e-3) -> MildAuditReport:
    """Quadratic-variation and drift inequalities of the log-mass expansion.

    For consecutive snapshot pairs (s, t) the audited quantity is

        M_eta = sum_k exp(-2 k^2 pi^2 (t-s)) c_k^2 / (eta + c_0)^2

    with c the cosine coefficients of the species field at time s: the
    squared L2 norm of the semigroup-evolved field over the squared
    regularized mass.  Dropping all k >= 1 terms and letting eta -> 0 shows
    M_eta -> >= 1, with equality for constant fields; the values must be
    nondecreasing as eta decreases.  The drift ratio
    integral of the reaction term over (eta + mass) stays below sup m for
    nonnegative states regardless of the competition terms.
    """
    if len(snapshots) < 2:
        raise ValueError("need at least two snapshots to audit")
    etas = tuple(sorted(etas, reverse=True))
    if any(e < 0 for e in etas):
        raise ValueError("eta must be nonnegative")
    sup_m = float(np.max(coeffs.m1 if species == SPECIES_U else coeffs.m2))

    rows = []
    monotone_ok = True
    limit_ok = True
    drift_ok = True
    for a, b in zip(snapshots[:-1], snapshots[1:]):
        if b.time <= a.time:
            raise ValueError("snapshots must be strictly time ordered")
        state = a.u if species == SPECIES_U else a.v
        other = a.v if species == SPECIES_U else a.u
        c = to_modes(state)
        mass = c[0]
        if mass <= 0 and 0.0 in etas:
            raise ValueError("zero mass snapshot audited with eta = 0")
        gap = b.time - a.time
        damp2 = np.exp(-2.0 * (np.arange(c.size) ** 2) * np.pi**2 * gap)
        num = float(np.sum(damp2 * c**2))
        m_coeff = coeffs.m1 if species == SPECIES_U else coeffs.m2
        a_coeff = coeffs.a1 if species == SPECIES_U else coeffs.a2
        b_coeff = coeffs.b1 if species == SPECIES_U else coeffs.b2
        reaction = state * (m_coeff - a_coeff * state - b_coeff * other)

        prev = None
        for eta in etas:
            m_eta = num / (eta + mass) ** 2
            drift_ratio = float(np.mean(reaction)) / (eta + mass)
            rows.append(MildAuditRow(time_s=a.time, time_t=b.time, eta=eta,
                                     m_eta=m_eta, drift_ratio=drift_ratio))
            if prev is not None and m_eta < prev - 1e-12:
                monotone_ok = False
            prev = m_eta
            if drift_ratio > sup_m + 1e-9:
                drift_ok = False
        if prev < 1.0 - limit_tol:
            limit_ok = False

    return MildAuditReport(rows=tuple(rows), sup_m=sup_m,
                           monotone_ok=monotone_ok, limit_ok=limit_ok,
                           drift_ok=drift_ok)


# ---------------------------------------------------------------------------
# Moment boundedness and stationarity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MomentBoundReport:
    p: float
    times: np.ndarray
    moment_curve: np.ndarray        # E sup-norm^p per recorded time
    in_hypothesis: bool             # inf a1 > 0 and inf a2 > 0
    tail_max: float
    earlier_max: float
    flat_ok: bool                   # tail max within 2x of the earlier max


def moment_bound_curve(stats: EnsembleStats, coeffs: CoefficientSet,
                       p: float = 2.0) -> MomentBoundReport:
    """E sup-norm^p over time with a no-growth verdict on the tail.

    The verdict compares max over [T/2, T] against max over [T/4, T/2]; a
    bounded-in-time process keeps the ratio near 1, exponential growth
    fails it.  Scenarios with inf a_i = 0 are labeled out-of-hypothesis.
    """
    if p <= 0:
        raise ValueError("p must be positive")
    curve = np.mean(stats.supnorm**p, axis=0)
    t_end = stats.times[-1]
    tail = curve[stats.times >= 0.5 * t_end]
    earlier = curve[(stats.times >= 0.25 * t_end) & (stats.times < 0.5 * t_end)]
    if tail.size == 0 or earlier.size == 0:
        raise ValueError("record grid too coarse for the flat-tail windows")
    in_hyp = bool(np.min(coeffs.a1) > 0 and np.min(coeffs.a2) > 0)
    tail_max = float(tail.max())
    earlier_max = float(earlier.max())
    flat_ok = tail_max <= 2.0 * earlier_max + 1e-300
    return MomentBoundReport(p=p, times=stats.times, moment_curve=curve,
                             in_hypothesis=in_hyp, tail_max=tail_max,
                             earlier_max=earlier_max, flat_ok=bool(flat_ok))


@dataclass(frozen=True)
class StationarityReport:
    window_bounds: np.ndarray       # (n_windows, 2) time intervals
    mass_window_means: np.ndarray   # (n_windows,)
    supnorm_window_means: np.ndarray
    holder_proxy_window_means: np.ndarray
    site_x: np.ndarray
    site_ks: np.ndarray             # per-site early-vs-late KS statistic
    ks_critical_value: float
    fraction_ok: float
    required_fraction: float

    @property
    def passed(self) -> bool:
        return self.fraction_ok >= self.required_fraction


def stationarity_report(stats: EnsembleStats, n_windows: int = 4,
                        alpha: float = 0.05,
                        required_fraction: float = 0.8) -> StationarityReport:
    """Window comparison of site marginals after burn-in.

    The first quarter of the horizon is discarded; the rest is split into
    n_windows equal windows.  For each probed site, one sample per path is
    taken at the midpoint of the early half and of the late half, and the
    two samples are compared by a two-sample KS test at level alpha (paths
    are the independent unit, so n = number of paths on each side).
    """
    if n_windows < 2 or n_windows % 2:
        raise ValueError("n_windows must be even and >= 2")
    times = stats.times
    burn = 0.25 * times[-1]
    idx = np.nonzero(times >= burn)[0]
    if idx.size < 2 * n_windows:
        raise ValueError(
            f"only {idx.size} recorded times after burn-in for {n_windows} windows; "
            "lengthen the run or refine the record grid")
    windows = np.array_split(idx, n_windows)

    bounds = np.array([[times[w[0]], times[w[-1]]] for w in windows])
    mass_means = np.array([stats.mass_u[:, w].mean() for w in windows])
    sup_means = np.array([stats.supnorm[:, w].mean() for w in windows])
    rough_means = np.array([stats.rough_u[:, w].mean() for w in windows])

    early = np.concatenate(windows[: n_windows // 2])
    late = np.concatenate(windows[n_windows // 2:])
    early_mid = early[early.size // 2]
    late_mid = late[late.size // 2]

    n_sites = stats.site_x.size
    site_ks = np.empty(n_sites)
    for j in range(n_sites):
        site_ks[j] = ks_statistic(stats.site_u[:, early_mid, j],
                                  stats.site_u[:, late_mid, j])
    crit = ks_critical(alpha, stats.n_paths, stats.n_paths)
    fraction = float(np.mean(site_ks < crit))
    return StationarityReport(window_bounds=bounds,
                              mass_window_means=mass_means,
                              supnorm_window_means=sup_means,
                              holder_proxy_window_means=rough_means,
                              site_x=stats.site_x, site_ks=site_ks,
                              ks_critical_value=crit, fraction_ok=fraction,
                              required_fraction=required_fraction)


# ---------------------------------------------------------------------------
# One-point density smoke test
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DensityReport:
    n_samples: int
    zero_fraction: float
    max_cdf_jump: float             # largest empirical-CDF jump off zero
    jump_threshold: float           # 3 / sqrt(n)
    kde_bandwidth: float
    kde_grid: np.ndarray
    kde_density: np.ndarray

    @property
    def atom_free(self) -> bool:
        return self.max_cdf_jump < self.jump_threshold

    @property
    def passed(self) -> bool:
        return self.atom_free


def density_smoke_test(samples, min_samples: int = MIN_DENSITY_SAMPLES,
                       kde_points: int = 256) -> DensityReport:
    """Continuity check of a one-point marginal from path samples.

    Exact zeros (the absorbing state) are tallied separately; among the
    positive samples, any repeated value creates an empirical-CDF jump of
    its multiplicity over n, and the test demands the largest jump stay
    below 3/sqrt(n).  A Gaussian KDE with Silverman bandwidth is attached
    for plotting.
    """
    samples = np.asarray(samples, dtype=float).ravel()
    n = samples.size
    if n < min_samples:
        raise ValueError(f"density test needs >= {min_samples} samples, got {n}")
    if np.any(~np.isfinite(samples)) or np.any(samples < 0):
        raise ValueError("samples must be finite and nonnegative")
    zero_fraction = float(np.mean(samples == 0.0))
    positive = samples[samples > 0.0]
    if positive.size >= 2 and np.ptp(positive) > 0:
        _, counts = np.unique(positive, return_counts=True)
        max_jump = counts.max() / n
        from scipy.stats import gaussian_kde   # deferred: slow to import

        kde = gaussian_kde(positive, bw_method="silverman")
        bandwidth = float(np.sqrt(kde.covariance[0, 0]))
        grid = np.linspace(positive.min(), positive.max(), kde_points)
        density = kde(grid)
    elif positive.size:
        # all positive samples identical: one atom carrying everything
        max_jump = positive.size / n
        bandwidth = 0.0
        grid = np.array([positive[0]])
        density = np.array([np.inf])
    else:
        max_jump = zero_fraction
        bandwidth = 0.0
        grid = np.empty(0)
        density = np.empty(0)
    return DensityReport(n_samples=n, zero_fraction=zero_fraction,
                         max_cdf_jump=float(max_jump),
                         jump_threshold=3.0 / np.sqrt(n),
                         kde_bandwidth=bandwidth, kde_grid=grid,
                         kde_density=density)
