"""Estimators and verifiers over simulation output, and the verdicts they decide.

Each report is a deterministic function of the ensemble data and its own
parameters: bootstrap streams are derived from the ensemble's master seed,
so repeated analysis of the same data reproduces byte-identical numbers.
Every check is decided here, next to its statistic: the estimator or
audit returns its Verdicts, which the CLI writes to verdicts.csv.  The
mild-Itô audit and the logistic and linear-mean checks state their
hypotheses next to their rules and return no verdict outside them.

Contents: Hölder exponent regression on the ensemble's increment moments with
its band verdicts, the log-mass extinction report, the mild-Itô
log-functional audit, the p-th moment flat-tail check, the stationarity
window report, the one-point density smoke test, the positivity verdicts,
the logistic and linear-mean closed forms, the ensemble series, the
heat-kernel audit (each of kernel.py's five increment functionals swept
against its modulus, a row of _MODULUS_SWEEPS) and the noise-representation
audit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import cell_centers, from_modes, to_modes
from .kernel import (gaussian_comparison_sweep, kernel_eigen_series, kernel_image_sum,
                     kernel_mass_defect, semigroup_compose_defect, space_increment,
                     space_increment_time_integrated, square_tail,
                     time_increment_fixed, time_increment_integrated)
from .model import CoefficientSet, drift
from .noise import (SPECIES_U, STREAM_BOOTSTRAP, audit_functions, noise_generator,
                    representation_equivalence_check)
from .solver import EnsembleStats
from .statutil import bootstrap_se, fit_loglog, ks_critical, ks_statistic

MIN_HOLDER_LAGS = 5
MIN_LAG_DECADES = 0.45
MIN_DENSITY_SAMPLES = 2000
# The regularizations of the mild-Itô audit, largest first.
MILD_AUDIT_ETAS = (1e-2, 1e-4, 1e-6)
# The order p of the sup-norm moment E sup|z|^p of the moment bound and the
# ensemble series; the moment tail may reach FLAT_TAIL_FACTOR times its
# earlier maximum.
SUPNORM_MOMENT_ORDER = 2.0
FLAT_TAIL_FACTOR = 2.0
# stationarity_report: windows after burn-in (even), the level of each
# site's KS test and the share of sites that must pass it.
STATIONARITY_WINDOWS = 4
STATIONARITY_ALPHA = 0.05
STATIONARITY_REQUIRED_FRACTION = 0.8


@dataclass(frozen=True)
class Verdict:
    check_name: str
    theorem_ref: str
    passed: bool
    statistic: float
    threshold: float


# ---------------------------------------------------------------------------
# Hölder exponent estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HolderEstimate:
    lags: np.ndarray
    moments: np.ndarray             # E|increment|^p per lag
    log_log_slope: float            # slope of ln moment vs ln lag
    r2: float
    exponent: float                 # slope / p
    exponent_se: float
    confidence_band: tuple          # exponent +- 2 se
    verdicts: tuple                 # {direction}-regularity-lower, -upper


def check_lag_coverage(lags) -> None:
    """Refuse fewer than MIN_HOLDER_LAGS lags or under MIN_LAG_DECADES decades."""
    lags = np.asarray(lags, dtype=float)
    if lags.size < MIN_HOLDER_LAGS:
        raise ValueError(f"need at least {MIN_HOLDER_LAGS} lags, got {lags.size}")
    decades = np.log10(lags.max() / lags.min())
    if decades < MIN_LAG_DECADES:
        raise ValueError(f"lags span {decades:.2f} decades, need {MIN_LAG_DECADES}")


def check_increment_order(p: int) -> None:
    if p not in (2, 4):
        raise ValueError("moment order p must be 2 or 4")


def holder_estimate(stats, direction: str, p: int, band: tuple) -> HolderEstimate:
    """Regress ln E|increment|^p on ln lag; the exponent is slope / p.

    The two band verdicts pass when the exponent lies in band = (lo, hi),
    edges included; their thresholds are lo and hi.

    stats is an EnsembleStats, or any object with its master_seed and its
    {direction}_lags, {direction}_p{p} and {direction}_count fields, for
    direction "space" or "time".  Lag coverage below 5 lags or 0.45 decades
    (roughly the narrowest window the default lag layout produces) is refused
    rather than silently extrapolated; all-zero increments mean the data
    cannot carry a regularity estimate.  The standard error resamples paths
    with a bootstrap stream derived from master_seed.
    """
    if direction not in ("space", "time"):
        raise ValueError(f"direction must be 'space' or 'time', got {direction!r}")
    check_increment_order(p)
    lags, sums, count = (getattr(stats, f"{direction}_{name}")
                         for name in ("lags", f"p{p}", "count"))
    if not np.any(count):
        raise ValueError(f"ensemble carries no {direction} increment statistics")
    lags = np.asarray(lags, dtype=float)
    check_lag_coverage(lags)

    def moments_of(rows):
        return rows.sum(axis=0) / (count * rows.shape[0])

    moments = moments_of(sums)
    if np.any(moments <= 0):
        raise ValueError("degenerate increment table: zero moments at some lag")
    slope, _, r2 = fit_loglog(lags, moments)
    exponent = slope / p
    if sums.shape[0] > 1:
        rng = noise_generator(stats.master_seed, 0, STREAM_BOOTSTRAP)
        se = bootstrap_se(sums, lambda rows: fit_loglog(lags, moments_of(rows))[0] / p, rng)
    else:
        se = 0.0                    # one path: no path-resampling spread
    lo, hi = band
    ref = f"path-{direction}-regularity"
    verdicts = (Verdict(f"{direction}-regularity-lower", ref, exponent >= lo, exponent, lo),
                Verdict(f"{direction}-regularity-upper", ref, exponent <= hi, exponent, hi))
    return HolderEstimate(lags=lags, moments=moments, log_log_slope=slope, r2=r2,
                          exponent=exponent, exponent_se=se,
                          confidence_band=(exponent - 2 * se, exponent + 2 * se),
                          verdicts=verdicts)


# ---------------------------------------------------------------------------
# Extinction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtinctionReport:
    times: np.ndarray
    mean_log_mass: np.ndarray
    log_mass_se: np.ndarray
    bound_line: np.ndarray          # initial mean log mass + rate bound * t
    pointwise_ok: np.ndarray        # per recorded time
    verdicts: tuple                 # log-mass-decay-slope, -pointwise-bound


def tail_window_mask(times, tail_window: tuple) -> np.ndarray:
    """The recorded times in tail_window = (start, end or None); refuses
    a window that covers fewer than 3 of them."""
    t_lo, t_hi = tail_window
    mask = (times >= t_lo) & (times <= (np.inf if t_hi is None else t_hi))
    if mask.sum() < 3:
        raise ValueError(f"tail window {tail_window} covers {int(mask.sum())} "
                         "recorded times; need at least 3")
    return mask


def extinction_report(stats: EnsembleStats, coeffs: CoefficientSet, species: int,
                      tail_window: tuple) -> ExtinctionReport:
    """Log-mass decay check: slope of E ln(eta + mass) against the rate bound.

    eta is 1e-12 times the initial mean mass (1e-300 when that is zero).

    The per-species rate bound R is sup m - inf sigma^2 / 2 taken from the
    coefficient extrema.  The slope verdict passes when the slope over the
    tail window exceeds R by at most 3 bootstrap standard errors; its
    threshold is R.  The pointwise rule mean log mass <= bound_line + 3 se
    (bound_line = initial mean log mass + R t) is applied with a 1e-12 slack
    at every recorded time; its verdict passes when the rule holds at all of
    them and reports the largest margin mean log mass - bound_line - 3 se
    over the times t > 0 (at t = 0 the margin is 0 by construction) against
    a threshold of 0.0.  A zero initial mass fails both verdicts.
    """
    mass = stats.mass_u if species == SPECIES_U else stats.mass_v
    times = stats.times
    initial_mass = float(mass[:, 0].mean())
    live = initial_mass > 0
    eta = 1e-12 * initial_mass if live else 1e-300

    log_mass = np.log(eta + mass)
    mean_log = log_mass.mean(axis=0)
    se = log_mass.std(axis=0, ddof=1) / np.sqrt(stats.n_paths) if stats.n_paths > 1 \
        else np.zeros_like(mean_log)

    r_bound = coeffs.extinction_rate_bound(species)

    mask = tail_window_mask(times, tail_window)
    tw = times[mask]

    def window_slope(rows):         # least-squares slope over the window
        return float(np.polyfit(tw, rows[:, mask].mean(axis=0), 1)[0])

    slope = window_slope(log_mass)
    rng = noise_generator(stats.master_seed, 0, STREAM_BOOTSTRAP)
    slope_se = bootstrap_se(log_mass, window_slope, rng) if stats.n_paths > 1 else 0.0

    bound = mean_log[0] + r_bound * times
    pointwise_ok = mean_log <= bound + 3.0 * se + 1e-12
    margin = float(np.max(mean_log - bound - 3.0 * se, where=times > 0, initial=-np.inf))
    verdicts = (
        Verdict("log-mass-decay-slope", "log-mass-decay",
                bool(slope <= r_bound + 3.0 * slope_se) and live, slope, r_bound),
        Verdict("log-mass-pointwise-bound", "log-mass-decay",
                bool(np.all(pointwise_ok)) and live, margin, 0.0),
    )
    return ExtinctionReport(times=times, mean_log_mass=mean_log, log_mass_se=se,
                            bound_line=bound, pointwise_ok=pointwise_ok,
                            verdicts=verdicts)


# ---------------------------------------------------------------------------
# Mild-Itô log-functional audit
# ---------------------------------------------------------------------------

def mild_log_functional_audit(snapshots, coeffs: CoefficientSet) -> tuple:
    """Quadratic-variation and drift inequalities of the log-mass expansion.

    For consecutive snapshot pairs (s, t) the audited quantity is

        M_eta = sum_k exp(-2 k^2 pi^2 (t-s)) c_k^2 / (eta + c_0)^2

    with c the cosine coefficients of the U field at time s: the
    squared L2 norm of the semigroup-evolved field over the squared
    regularized mass.  Dropping all k >= 1 terms and letting eta -> 0 shows
    M_eta -> >= 1, with equality for constant fields; the values must
    reach 1 - 1e-3 at the smallest eta of MILD_AUDIT_ETAS.  With a positive
    mass M_eta cannot fall as eta runs down, rounding included.
    The drift ratio integral of the reaction term over (eta + mass) stays
    below sup m for nonnegative states regardless of the competition terms.

    The hypothesis is two snapshots of positive mean U, the log's argument:
    outside it the audit returns no verdict.  Inside it returns two: the
    smallest M_eta at the smallest eta against 1 - 1e-3, and the largest
    drift ratio against sup m + 1e-9.
    """
    if len(snapshots) < 2 or min(float(s.u.mean()) for s in snapshots) <= 0:
        return ()
    limit_floor = 1.0 - 1e-3
    drift_ceiling = float(np.max(coeffs.m1)) + 1e-9

    limits, drifts = [], []
    for a, b in zip(snapshots[:-1], snapshots[1:]):
        if b.time <= a.time:
            raise ValueError("snapshots must be strictly time ordered")
        c = to_modes(a.u)
        mass = c[0]
        gap = b.time - a.time
        damp2 = np.exp(-2.0 * (np.arange(c.size) ** 2) * np.pi**2 * gap)
        num = float(np.sum(damp2 * c**2))
        reaction = drift(a.u, a.v, coeffs)[0]

        limits.append(num / (MILD_AUDIT_ETAS[-1] + mass) ** 2)
        drifts += [float(np.mean(reaction)) / (eta + mass) for eta in MILD_AUDIT_ETAS]

    m_small, drift_worst = min(limits), max(drifts)
    return (Verdict("log-functional-quadratic-term", "log-mass-expansion",
                    m_small >= limit_floor, m_small, limit_floor),
            Verdict("log-functional-drift-term", "drift-domination",
                    drift_worst <= drift_ceiling, drift_worst, drift_ceiling))


# ---------------------------------------------------------------------------
# Moment boundedness and stationarity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MomentBoundReport:
    times: np.ndarray
    moment_curve: np.ndarray        # E sup-norm^SUPNORM_MOMENT_ORDER per recorded time
    verdicts: tuple                 # moment-flat-tail, self-regulation-positive


def flat_tail_windows(times) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the recorded times in [T/2, T] and in [T/4, T/2), T the
    last one; refuses a record grid that leaves either window empty."""
    t_end = times[-1]
    tail = times >= 0.5 * t_end
    earlier = (times >= 0.25 * t_end) & (times < 0.5 * t_end)
    if not tail.any() or not earlier.any():
        raise ValueError("record grid too coarse for the flat-tail windows")
    return tail, earlier


def moment_bound_curve(stats: EnsembleStats, coeffs: CoefficientSet) -> MomentBoundReport:
    """E sup-norm^p over time, p = SUPNORM_MOMENT_ORDER, with a no-growth
    verdict on the tail.

    The flat-tail verdict compares max over [T/2, T] against max over
    [T/4, T/2]: the tail max may reach FLAT_TAIL_FACTOR times the earlier
    max.  A bounded-in-time process keeps the ratio near 1, exponential
    growth fails it.  The self-regulation verdict fails scenarios outside
    the hypothesis inf a1 > 0 and inf a2 > 0; its statistic is
    min(inf a1, inf a2).
    """
    curve = np.mean(stats.supnorm**SUPNORM_MOMENT_ORDER, axis=0)
    tail, earlier = flat_tail_windows(stats.times)
    tail_max = float(curve[tail].max())
    earlier_max = float(curve[earlier].max())
    inf_a = float(min(coeffs.a1.min(), coeffs.a2.min()))
    verdicts = (
        Verdict("moment-flat-tail", "uniform-moment-bound",
                bool(tail_max <= FLAT_TAIL_FACTOR * earlier_max + 1e-300),
                tail_max / max(earlier_max, 1e-300), FLAT_TAIL_FACTOR),
        Verdict("self-regulation-positive", "uniform-moment-bound", inf_a > 0, inf_a, 0.0),
    )
    return MomentBoundReport(times=stats.times, moment_curve=curve, verdicts=verdicts)


@dataclass(frozen=True)
class StationarityReport:
    window_bounds: np.ndarray       # (STATIONARITY_WINDOWS, 2) time intervals
    mass_window_means: np.ndarray   # (STATIONARITY_WINDOWS,)
    supnorm_window_means: np.ndarray
    holder_proxy_window_means: np.ndarray
    site_x: np.ndarray
    site_ks: np.ndarray             # per-site early-vs-late KS statistic
    ks_critical_value: float
    verdicts: tuple                 # stationarity-site-ks


def stationarity_windows(times) -> list:
    """The STATIONARITY_WINDOWS windows of record indices after the burn-in,
    the first quarter of the horizon; refuses fewer than two recorded times
    per window."""
    idx = np.nonzero(times >= 0.25 * times[-1])[0]
    if idx.size < 2 * STATIONARITY_WINDOWS:
        raise ValueError(
            f"only {idx.size} recorded times after burn-in for {STATIONARITY_WINDOWS} windows; "
            "lengthen the run or refine the record grid")
    return np.array_split(idx, STATIONARITY_WINDOWS)


def stationarity_critical_value(n_paths: int) -> float:
    """The site KS critical value at n_paths samples a side; refuses a path
    count at which it is 1 or more, since no KS statistic exceeds 1."""
    crit = ks_critical(STATIONARITY_ALPHA, n_paths, n_paths)
    if crit >= 1.0:
        raise ValueError(f"the site KS critical value at {n_paths} paths is {crit:.4g}, "
                         "which no KS statistic exceeds; stationarity needs more paths")
    return crit


def stationarity_report(stats: EnsembleStats) -> StationarityReport:
    """Window comparison of site marginals after burn-in.

    The first quarter of the horizon is discarded; the rest is split into
    STATIONARITY_WINDOWS equal windows.  For each probed site, one sample
    per path is taken at the midpoint of the early half and of the late
    half, and the two samples are compared by a two-sample KS test at level
    STATIONARITY_ALPHA (paths are the independent unit, so n = number of
    paths on each side).  Its verdict passes when at least
    STATIONARITY_REQUIRED_FRACTION of the sites do.  An ensemble without
    probe sites, or with too few paths for any statistic to exceed the
    critical value, is refused.
    """
    times = stats.times
    windows = stationarity_windows(times)
    if not stats.site_x.size:
        raise ValueError("stationarity needs at least one probe site")
    crit = stationarity_critical_value(stats.n_paths)

    bounds = np.array([[times[w[0]], times[w[-1]]] for w in windows])
    mass_means = np.array([stats.mass_u[:, w].mean() for w in windows])
    sup_means = np.array([stats.supnorm[:, w].mean() for w in windows])
    rough_means = np.array([stats.rough_u[:, w].mean() for w in windows])

    early = np.concatenate(windows[: STATIONARITY_WINDOWS // 2])
    late = np.concatenate(windows[STATIONARITY_WINDOWS // 2:])
    early_mid = early[early.size // 2]
    late_mid = late[late.size // 2]

    n_sites = stats.site_x.size
    site_ks = np.empty(n_sites)
    for j in range(n_sites):
        site_ks[j] = ks_statistic(stats.site_u[:, early_mid, j],
                                  stats.site_u[:, late_mid, j])
    fraction = float(np.mean(site_ks < crit))
    verdict = Verdict("stationarity-site-ks", "long-time-distribution",
                      fraction >= STATIONARITY_REQUIRED_FRACTION, fraction,
                      STATIONARITY_REQUIRED_FRACTION)
    return StationarityReport(window_bounds=bounds,
                              mass_window_means=mass_means,
                              supnorm_window_means=sup_means,
                              holder_proxy_window_means=rough_means,
                              site_x=stats.site_x, site_ks=site_ks,
                              ks_critical_value=crit, verdicts=(verdict,))


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
    verdicts: tuple                 # one-point-atomless


def check_density_samples(n: int) -> None:
    if n < MIN_DENSITY_SAMPLES:
        raise ValueError(f"density test needs >= {MIN_DENSITY_SAMPLES} samples, got {n}")


def density_smoke_test(samples) -> DensityReport:
    """Continuity check of a one-point marginal from path samples.

    Any repeated value creates an empirical-CDF jump of its multiplicity
    over n.  Exact zeros (the absorbing state) are tallied as
    zero_fraction; the statistic is the largest jump, max(zero_fraction,
    largest jump among the positive samples), and the verdict demands it
    stay below 3/sqrt(n).  So the check fails only on exactly repeated
    samples, as in a deterministic run; a continuous law with a narrow
    peak passes it.  For plotting, a Gaussian KDE of the positive samples
    is attached on 256 points spanning them, with Silverman's bandwidth
    std * (3n/4)^(-1/5).
    """
    samples = np.asarray(samples, dtype=float).ravel()
    n = samples.size
    check_density_samples(n)
    if np.any(~np.isfinite(samples)) or np.any(samples < 0):
        raise ValueError("samples must be finite and nonnegative")
    zero_fraction = float(np.mean(samples == 0.0))
    positive = samples[samples > 0.0]
    if positive.size >= 2 and np.ptp(positive) > 0:
        _, counts = np.unique(positive, return_counts=True)
        max_jump = counts.max() / n
        bandwidth = float(positive.std(ddof=1) * (0.75 * positive.size) ** -0.2)
        grid = np.linspace(positive.min(), positive.max(), 256)
        z = (grid[:, None] - positive) / bandwidth
        density = np.exp(-0.5 * z * z).mean(axis=1) / (bandwidth * np.sqrt(2.0 * np.pi))
    elif positive.size:
        # all positive samples identical: one atom carrying everything
        max_jump = positive.size / n
        bandwidth = 0.0
        grid = np.array([positive[0]])
        density = np.array([np.inf])
    else:
        max_jump = 0.0
        bandwidth = 0.0
        grid = np.empty(0)
        density = np.empty(0)
    max_jump, threshold = max(zero_fraction, float(max_jump)), 3.0 / np.sqrt(n)
    verdict = Verdict("one-point-atomless", "one-point-continuity",
                      max_jump < threshold, max_jump, threshold)
    return DensityReport(n_samples=n, zero_fraction=zero_fraction,
                         max_cdf_jump=max_jump, jump_threshold=threshold,
                         kde_bandwidth=bandwidth, kde_grid=grid,
                         kde_density=density, verdicts=(verdict,))


# ---------------------------------------------------------------------------
# Positivity, the closed-form checks and the ensemble series
# ---------------------------------------------------------------------------

# tolerances of the positivity verdicts (the per-step clipped mass ratio, the
# share of paths that leave the truncation ball) and of the logistic mass
CLIP_TOL = 1e-3
EXIT_TOL = 0.01
_LOGISTIC_TOL = 5e-3


def recorded_floor(stats, snapshots=()) -> float:
    """Lowest recorded value: masses, probe-site series and snapshot fields."""
    arrays = [stats.mass_u, stats.mass_v, stats.site_u, stats.site_v]
    arrays += [a for snap in snapshots for a in (snap.u, snap.v)]
    return min(float(a.min(initial=np.inf)) for a in arrays)


def positivity_verdicts(stats, snapshots=None) -> tuple:
    """The state stays nonnegative, the clamp clips at most CLIP_TOL of the
    mass in a step and at most EXIT_TOL of the paths leave the truncation
    ball.  Given snapshots, the nonnegativity verdict is of their fields."""
    if snapshots is None:
        name, floor = "recorded-state-nonnegative", recorded_floor(stats)
    else:
        name = "snapshot-state-nonnegative"
        floor = min(float(a.min()) for snap in snapshots for a in (snap.u, snap.v))
    clip = float(stats.clip_max_ratio.max()) if stats.n_paths else 0.0
    exits = stats.exit_fraction()
    return (Verdict(name, "positivity", floor >= 0.0, floor, 0.0),
            Verdict("pre-clamp-clipped-mass", "positivity", clip <= CLIP_TOL, clip, CLIP_TOL),
            Verdict("truncation-exit-fraction", "truncation-rarity",
                    exits <= EXIT_TOL, exits, EXIT_TOL))


def _uniform(a: np.ndarray) -> bool:
    return bool(np.all(a == a[0]))


def logistic_verdicts(stats, coeffs: CoefficientSet, init) -> tuple:
    """Recorded mass of U against the logistic closed form.

    With no noise, constant m, a and u0 and no V, every cell solves
    du/dt = u (m - a u): u(t) = u0 e^{mt} / (1 + a u0 (e^{mt} - 1) / m).
    Outside that hypothesis there is no verdict.
    """
    if (coeffs.sigma1.any() or coeffs.sigma2.any() or init.v.any()
            or not all(_uniform(a) for a in (coeffs.m1, coeffs.a1, init.u))):
        return ()
    m, a, u0 = coeffs.m1[0], coeffs.a1[0], init.u[0]
    t = stats.times
    growth = np.expm1(m * t) / m if m else t
    exact = u0 * np.exp(m * t) / (1.0 + a * u0 * growth)
    err = float(np.max(np.abs(stats.mass_u[0] - exact)))
    return (Verdict("logistic-closed-form", "deterministic-logistic",
                    err < _LOGISTIC_TOL, err, _LOGISTIC_TOL),)


def linear_mean_verdicts(sconf, stats, coeffs: CoefficientSet, init) -> tuple:
    """Monte Carlo mean of U at the probe sites against exp(mt) exp(tL) u0.

    With a1 = b1 = 0 and constant m the mean field solves the linear equation
    d/dt E U = (L + m) E U, where L has the eigenvalues of the scheme's
    Laplacian on the cosine modes.  The statistic is the worst deviation in
    units of 3 standard errors at the recorded times nearest the snapshot
    times (t_final when none are set).  A standard error needs noise, two
    paths and a probe site; without them, or outside the hypothesis, there
    is no verdict.
    """
    if (coeffs.a1.any() or coeffs.b1.any() or not _uniform(coeffs.m1)
            or not coeffs.sigma1.any() or stats.n_paths < 2 or not stats.site_x.size):
        return ()
    m, n = coeffs.m1[0], sconf.grid_size
    k = np.arange(n)
    lam = (-4.0 * n * n * np.sin(k * np.pi / (2 * n)) ** 2 if sconf.scheme == "fd"
           else -(k ** 2) * np.pi**2)
    sites = sconf.site_indices()
    devs = []
    for t_check in sconf.snapshot_times or (sconf.t_final,):
        r = int(np.argmin(np.abs(stats.times - t_check)))
        t = stats.times[r]
        target = np.exp(m * t) * from_modes(to_modes(init.u) * np.exp(lam * t))[sites]
        sample = stats.site_u[:, r, :]
        se = sample.std(axis=0, ddof=1) / np.sqrt(stats.n_paths)
        with np.errstate(divide="ignore", invalid="ignore"):
            devs.append(np.abs(sample.mean(axis=0) - target) / (3.0 * se))
    worst = float(np.max(devs))        # a NaN deviation fails the check
    return (Verdict("linear-mean-field", "linear-mean-equation", worst <= 1.0, worst, 1.0),)


# the ensemble series: E ln(LOG_MASS_ETA + mass) per species and
# E sup-norm^SUPNORM_MOMENT_ORDER, each with its standard error
LOG_MASS_ETA = 1e-12
SERIES_COLUMNS = ("time", "mean_lnmass_u", "se_lnmass_u", "mean_lnmass_v",
                  "se_lnmass_v", "mean_supnorm_p", "se_supnorm_p", "n_paths")


def ensemble_series(stats) -> list:
    """One row of SERIES_COLUMNS per recorded time."""
    cols = [stats.times]
    for a in (np.log(LOG_MASS_ETA + stats.mass_u), np.log(LOG_MASS_ETA + stats.mass_v),
              stats.supnorm**SUPNORM_MOMENT_ORDER):
        se = (a.std(axis=0, ddof=1) / np.sqrt(a.shape[0]) if a.shape[0] > 1
              else np.zeros(a.shape[1]))
        cols += [a.mean(axis=0), se]
    return list(zip(*cols, np.full(stats.times.size, stats.n_paths)))


# ---------------------------------------------------------------------------
# Heat-kernel and noise-representation audits
# ---------------------------------------------------------------------------

# (name, functional, its modulus, their arguments at distance d, d range)
# of each modulus sweep
_MODULUS_SWEEPS = (
    ("space-increment", space_increment, lambda t, x, y: abs(x - y) ** 2 / t**1.5,
     lambda d: dict(t=0.01, x=0.5 - d / 2, y=0.5 + d / 2), 1e-3, 1e-1),
    ("space-increment-time-integrated", space_increment_time_integrated,
     lambda t, x, y: abs(x - y),
     lambda d: dict(t=0.5, x=0.5 - d / 2, y=0.5 + d / 2), 1e-2, 0.98),
    ("square-tail", square_tail, lambda s, t, x: np.sqrt(t - s),
     lambda d: dict(s=0.5 - d, t=0.5, x=0.3), 1e-3, 1e-1),
    ("time-increment-integrated", time_increment_integrated, lambda s, t, x: np.sqrt(t - s),
     lambda d: dict(s=0.5, t=0.5 + d, x=0.3), 1e-3, 1e-1),
    ("time-increment-fixed", time_increment_fixed, lambda s, t, x: np.sqrt(t - s),
     lambda d: dict(s=1e-3, t=1e-3 + d, x=0.3), 1e-3, 1e-1),
)

# kernel_audit: the largest gap between the two kernel representations on a
# KERNEL_LATTICE^3 lattice of (t, x, y), the largest mass defect, the
# semigroup composition defect, the points of each modulus sweep and the
# largest spread of its ratios to the bound.
KERNEL_CROSS_TOL = 1e-8
KERNEL_MASS_TOL = 1e-6
SEMIGROUP_TOL = 1e-10
KERNEL_LATTICE = 20
MODULUS_SWEEP_POINTS = 9
MODULUS_RATIO_LIMIT = 10.0


def kernel_audit() -> tuple:
    """The heat kernel's identities and increment envelopes: (rows,
    verdicts), rows of (measure, parameter, value)."""
    x = cell_centers(KERNEL_LATTICE)
    cross = max(float(np.max(np.abs(kernel_image_sum(t, x[:, None], x[None, :])
                                    - kernel_eigen_series(t, x[:, None], x[None, :]))))
                for t in np.geomspace(0.01, 1.0, KERNEL_LATTICE))
    mass = max(kernel_mass_defect(t, x, n_quad=12000) for t in (1e-3, 1e-2, 1e-1, 1.0))
    lo, hi = gaussian_comparison_sweep((1e-3, 1e-2, 1e-1))
    u = 1.0 + np.cos(np.pi * cell_centers(256)) + 0.3 * np.cos(3 * np.pi * cell_centers(256))
    compose = semigroup_compose_defect(u, 0.01, 0.05)
    rows = [("cross-representation-max-diff", 0.0, cross), ("mass-defect-max", 0.0, mass),
            ("gaussian-ratio-inf", 0.0, lo), ("gaussian-ratio-sup", 0.0, hi),
            ("semigroup-compose-defect", 0.0, compose)]
    verdicts = [
        Verdict("kernel-cross-representation", "dual-series-identity",
                cross <= KERNEL_CROSS_TOL, cross, KERNEL_CROSS_TOL),
        Verdict("kernel-mass-conservation", "unit-mass",
                mass <= KERNEL_MASS_TOL, mass, KERNEL_MASS_TOL),
        Verdict("kernel-gaussian-envelope", "gaussian-comparison",
                0.0 < lo <= hi < np.inf, lo, 0.0),
        Verdict("semigroup-composition", "semigroup-identity",
                compose <= SEMIGROUP_TOL, compose, SEMIGROUP_TOL),
    ]
    for name, functional, modulus, params, d_lo, d_hi in _MODULUS_SWEEPS:
        ds = [float(d) for d in np.geomspace(d_lo, d_hi, MODULUS_SWEEP_POINTS)]
        ratios = [functional(**params(d)) / modulus(**params(d)) for d in ds]
        rows += [(f"{name}-ratio", d, r) for d, r in zip(ds, ratios)]
        spread = max(ratios) / min(ratios)
        verdicts.append(Verdict(f"{name}-modulus", "increment-envelope",
                                spread < MODULUS_RATIO_LIMIT, spread, MODULUS_RATIO_LIMIT))
    return rows, verdicts


# noise_audit: the level of each function's two-sample KS test, and the
# largest relative error of either sample variance against the isometry.
NOISE_KS_ALPHA = 0.01
NOISE_VARIANCE_TOL = 0.05


def noise_audit(master_seed: int) -> tuple:
    """Both noise representations against each audit function: (rows,
    verdicts), one row per function with its KS critical value at level
    NOISE_KS_ALPHA for its replication count and its pass bit: KS statistic
    below that value and variance error at most NOISE_VARIANCE_TOL.  The
    verdicts take the worst KS statistic against the smallest critical value
    (they share one at equal replication counts) and the worst variance
    error against NOISE_VARIANCE_TOL."""
    reps = {name: representation_equivalence_check(f, master_seed=master_seed)
            for name, f in audit_functions().items()}
    crits = [ks_critical(NOISE_KS_ALPHA, r.n_replications, r.n_replications)
             for r in reps.values()]
    rows = [(name, r.target_variance, r.walsh_variance, r.spectral_variance, r.ks_stat, crit,
             r.variance_error <= NOISE_VARIANCE_TOL and r.ks_stat < crit)
            for (name, r), crit in zip(reps.items(), crits)]
    worst_ks, ks_crit = max(r.ks_stat for r in reps.values()), min(crits)
    worst_var = max(r.variance_error for r in reps.values())
    return rows, [
        Verdict("noise-representation-ks", "representation-equivalence",
                worst_ks < ks_crit, worst_ks, ks_crit),
        Verdict("noise-representation-variance", "integral-isometry",
                worst_var <= NOISE_VARIANCE_TOL, worst_var, NOISE_VARIANCE_TOL),
    ]
