"""Estimator correctness on synthetic and small simulated inputs."""

from types import SimpleNamespace

import numpy as np
import pytest
from scipy.fft import fft, ifft
from scipy.stats import gaussian_kde

from lvfield import analysis
from lvfield.grid import cell_centers
from lvfield.analysis import (
    NOISE_KS_ALPHA,
    NOISE_VARIANCE_TOL,
    DensityReport,
    density_smoke_test,
    extinction_report,
    holder_estimate,
    kernel_audit,
    linear_mean_verdicts,
    logistic_verdicts,
    mild_log_functional_audit,
    moment_bound_curve,
    noise_audit,
    positivity_verdicts,
    stationarity_report,
)
from lvfield.model import CoefficientSet, Field
from lvfield.noise import EquivalenceReport, NoisePlan
from lvfield.solver import SolverConfig, run_ensemble, simulate_path
from lvfield.statutil import ks_critical


# ---------------------------------------------------------------------------
# Fractional surrogates and the Hölder estimator
# ---------------------------------------------------------------------------

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


def increment_table(lags, p2, p4, count, master_seed: int = 0) -> SimpleNamespace:
    """A stand-in for the space increment fields of an EnsembleStats."""
    return SimpleNamespace(space_lags=lags, space_p2=p2, space_p4=p4,
                           space_count=count, master_seed=master_seed)


def increment_table_from_paths(paths: np.ndarray, lag_steps, step: float,
                               master_seed: int = 0) -> SimpleNamespace:
    """The space increment table of raw sampled paths, shape (P, n_samples)."""
    paths = np.atleast_2d(np.asarray(paths, dtype=float))
    lag_steps = np.asarray(lag_steps, dtype=np.int64)
    p2 = np.empty((paths.shape[0], lag_steps.size))
    p4 = np.empty_like(p2)
    count = np.empty(lag_steps.size, dtype=np.int64)
    for j, lag in enumerate(lag_steps):
        d = paths[:, lag:] - paths[:, :-lag]
        p2[:, j] = np.sum(d**2, axis=1)
        p4[:, j] = np.sum(d**4, axis=1)
        count[j] = paths.shape[1] - lag
    return increment_table(lag_steps * step, p2, p4, count, master_seed)


# a band no exponent leaves, for tests of the estimate itself
ANY_BAND = (-np.inf, np.inf)


def holder_selfcheck(hurst: float, seed: int):
    """The field estimator's moment regression on fBm surrogate paths with a
    known exponent: 20 paths of 5,000 steps, 100k increments in all."""
    per_path = 5000
    fgn = fractional_increments(hurst, per_path, 20, np.random.default_rng(seed))
    table = increment_table_from_paths(np.cumsum(fgn, axis=1), (1, 2, 4, 8, 16, 32, 64),
                                       step=1.0 / per_path, master_seed=seed)
    return holder_estimate(table, "space", 4, ANY_BAND)


class TestFractionalSurrogate:
    @pytest.mark.parametrize("hurst", [0.3, 0.5, 0.7])
    def test_increment_variance_scaling(self, hurst):
        rng = np.random.default_rng(99)
        fgn = fractional_increments(hurst, 4000, 50, rng)
        paths = np.cumsum(fgn, axis=1)
        for lag in (1, 4, 16):
            d = paths[:, lag:] - paths[:, :-lag]
            var = d.var()
            assert var == pytest.approx(lag ** (2 * hurst), rel=0.08)

    def test_antipersistence_sign(self):
        rng = np.random.default_rng(7)
        fgn = fractional_increments(0.25, 2000, 40, rng)
        lag1 = np.mean(fgn[:, 1:] * fgn[:, :-1])
        assert lag1 < -0.05            # rough paths anticorrelate
        fgn_smooth = fractional_increments(0.75, 2000, 40, rng)
        assert np.mean(fgn_smooth[:, 1:] * fgn_smooth[:, :-1]) > 0.05

    def test_brownian_case_is_white(self):
        rng = np.random.default_rng(3)
        fgn = fractional_increments(0.5, 2000, 40, rng)
        lag1 = np.mean(fgn[:, 1:] * fgn[:, :-1])
        assert abs(lag1) < 0.01

    def test_rejects_bad_hurst(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="hurst"):
            fractional_increments(1.5, 100, 1, rng)


class TestHolderSelfCalibration:
    @pytest.mark.parametrize("seed", [12, 0])
    @pytest.mark.parametrize("hurst", [0.25, 0.5])
    def test_recovers_known_exponent(self, hurst, seed):
        est = holder_selfcheck(hurst, seed)
        assert abs(est.exponent - hurst) < 0.05
        assert est.r2 > 0.99
        assert est.exponent_se < 0.03

    def test_confidence_band_brackets(self):
        est = holder_selfcheck(0.5, 12)
        lo, hi = est.confidence_band
        assert lo < est.exponent < hi
        assert hi - lo == pytest.approx(4 * est.exponent_se)


class TestHolderEstimateInterface:
    def make_table(self, n_lags=6, n_paths=8, exponent=0.5):
        lags = 2.0 ** np.arange(n_lags) * 1e-3
        count = np.full(n_lags, 100, dtype=np.int64)
        moments2 = lags ** (2 * exponent)
        moments4 = 3 * lags ** (4 * exponent)
        rng = np.random.default_rng(5)
        jitter = 1 + 0.01 * rng.standard_normal((n_paths, n_lags))
        p2 = moments2 * count * jitter
        p4 = moments4 * count * jitter
        return increment_table(lags, p2, p4, count)

    def test_exact_power_law(self):
        est = holder_estimate(self.make_table(), "space", 4, ANY_BAND)
        assert est.exponent == pytest.approx(0.5, abs=0.01)
        assert est.log_log_slope == pytest.approx(2.0, abs=0.05)
        est2 = holder_estimate(self.make_table(), "space", 2, ANY_BAND)
        assert est2.exponent == pytest.approx(0.5, abs=0.01)

    def test_too_few_lags_rejected(self):
        with pytest.raises(ValueError, match="lags"):
            holder_estimate(self.make_table(n_lags=4), "space", 4, ANY_BAND)

    def test_narrow_span_rejected(self):
        table = self.make_table()
        narrow = increment_table(np.linspace(1e-3, 2e-3, 6), table.space_p2,
                                 table.space_p4, table.space_count)
        with pytest.raises(ValueError, match="decades"):
            holder_estimate(narrow, "space", 4, ANY_BAND)

    def test_degenerate_increments_rejected(self):
        table = self.make_table()
        dead = increment_table(table.space_lags, np.zeros_like(table.space_p2),
                               np.zeros_like(table.space_p4), table.space_count)
        with pytest.raises(ValueError, match="degenerate"):
            holder_estimate(dead, "space", 4, ANY_BAND)

    def test_bad_moment_order_rejected(self):
        with pytest.raises(ValueError, match="p must"):
            holder_estimate(self.make_table(), "space", 3, ANY_BAND)

    def test_smooth_deterministic_field_saturates(self):
        # sigma = 0 with a smooth profile: increments scale like the lag
        # itself, so the estimated exponent saturates near 1.
        n = 256
        x = cell_centers(n)
        init = Field(1.0 + 0.5 * np.cos(np.pi * x), np.zeros(n))
        coeffs = CoefficientSet.constant(n)
        lags = tuple(int(l) for l in np.unique(
            np.round(2.0 ** np.arange(1, 8, 0.5))))
        cfg = SolverConfig(grid_size=n, dt=1e-2, t_final=1.0,
                           stats_after=1.0, space_lag_cells=lags)
        stats = run_ensemble(init, coeffs, NoisePlan(master_seed=0), cfg, n_paths=1)
        est = holder_estimate(stats, direction="space", p=4, band=ANY_BAND)
        assert est.exponent >= 0.95
        assert est.r2 > 0.99

    @pytest.mark.parametrize("direction", ["space", "time"])
    def test_band_edges_are_inclusive(self, direction):
        table = self.make_table()
        stats = SimpleNamespace(master_seed=0, **{
            f"{direction}_{name}": getattr(table, f"space_{name}")
            for name in ("lags", "p2", "p4", "count")})
        e = holder_estimate(stats, direction, 4, ANY_BAND).exponent
        lower, upper = holder_estimate(stats, direction, 4, (e, e)).verdicts
        assert lower.check_name == f"{direction}-regularity-lower"
        assert upper.check_name == f"{direction}-regularity-upper"
        assert lower.theorem_ref == upper.theorem_ref == f"path-{direction}-regularity"
        assert (lower.passed, lower.statistic, lower.threshold) == (True, e, e)
        assert (upper.passed, upper.statistic, upper.threshold) == (True, e, e)
        above, below = np.nextafter(e, np.inf), np.nextafter(e, -np.inf)
        lower, upper = holder_estimate(stats, direction, 4, (above, below)).verdicts
        assert (lower.passed, lower.statistic, lower.threshold) == (False, e, above)
        assert (upper.passed, upper.statistic, upper.threshold) == (False, e, below)

    def test_unknown_direction_rejected(self):
        with pytest.raises(ValueError, match="direction must be"):
            holder_estimate(self.make_table(), "surrogate", 4, ANY_BAND)

    def test_ensemble_without_statistics_rejected(self):
        n = 16
        init = Field(np.full(n, 0.5), np.zeros(n))
        coeffs = CoefficientSet.constant(n, sigma1=0.3)
        cfg = SolverConfig(grid_size=n, dt=1e-2, t_final=0.1)
        stats = run_ensemble(init, coeffs, NoisePlan(master_seed=0), cfg, n_paths=2)
        with pytest.raises(ValueError, match="no space increment"):
            holder_estimate(stats, "space", 4, ANY_BAND)


# ---------------------------------------------------------------------------
# Extinction
# ---------------------------------------------------------------------------

class TestExtinction:
    def run_scenario(self, sigma1, m1=0.3, a1=1.0, t_final=8.0, n_paths=100,
                     seed=17):
        n = 32
        init = Field(np.full(n, 0.5), np.zeros(n))
        coeffs = CoefficientSet.constant(n, m1=m1, a1=a1, sigma1=sigma1)
        cfg = SolverConfig(grid_size=n, dt=2e-3, t_final=t_final,
                           record_interval=0.1)
        return run_ensemble(init, coeffs, NoisePlan(master_seed=seed), cfg, n_paths), coeffs

    def test_supercritical_noise_extinguishes(self):
        stats, coeffs = self.run_scenario(sigma1=1.0)
        report = extinction_report(stats, coeffs, species=0,
                                   tail_window=(2.0, None))
        slope, pointwise = report.verdicts
        assert slope.check_name == "log-mass-decay-slope"
        assert slope.threshold == pytest.approx(-0.2)
        assert slope.passed
        assert np.all(report.pointwise_ok)
        assert pointwise.check_name == "log-mass-pointwise-bound"
        assert pointwise.passed and pointwise.statistic <= 0.0
        assert pointwise.threshold == 0.0

    def test_deterministic_logistic_is_silent(self):
        # sigma = 0: R = +0.3, mass settles at the carrying capacity and the
        # tail slope vanishes; the theorem asserts nothing, the report only
        # records the numbers.
        stats, coeffs = self.run_scenario(sigma1=0.0, n_paths=2, t_final=16.0)
        report = extinction_report(stats, coeffs, species=0,
                                   tail_window=(10.0, None))
        slope = report.verdicts[0]
        assert slope.threshold == pytest.approx(0.3)
        assert abs(slope.statistic) < 0.02
        assert slope.passed    # slope 0 <= 0.3 trivially

    def test_zero_init_fails_both_verdicts(self):
        # R = +0.3 and the log mass stays flat at ln 1e-300, inside both
        # rules (largest margin -0.3 t at the first record time, 0.01); a
        # zero initial mass fails both verdicts anyway
        n = 16
        init = Field(np.zeros(n), np.zeros(n))
        coeffs = CoefficientSet.constant(n, m1=0.3, a1=1.0)
        cfg = SolverConfig(grid_size=n, dt=1e-2, t_final=2.0)
        stats = run_ensemble(init, coeffs, NoisePlan(master_seed=0), cfg, n_paths=2)
        report = extinction_report(stats, coeffs, species=0, tail_window=(1.0, None))
        assert np.all(report.pointwise_ok)
        slope, pointwise = report.verdicts
        assert slope.statistic == pytest.approx(0.0, abs=1e-12)
        assert pointwise.statistic == pytest.approx(-0.3 * 0.01, rel=1e-9)
        assert not slope.passed and not pointwise.passed

    def test_window_must_contain_times(self):
        stats, coeffs = self.run_scenario(sigma1=1.0, t_final=1.0, n_paths=2)
        with pytest.raises(ValueError, match="window"):
            extinction_report(stats, coeffs, species=0, tail_window=(5.0, None))

    def test_report_is_deterministic(self):
        stats, coeffs = self.run_scenario(sigma1=1.0, n_paths=20)
        r1 = extinction_report(stats, coeffs, species=0, tail_window=(2.0, None))
        r2 = extinction_report(stats, coeffs, species=0, tail_window=(2.0, None))
        assert r1.verdicts == r2.verdicts
        assert np.array_equal(r1.bound_line, r2.bound_line)

    # mass e^{rate t} on both paths against R = 0.3: the slope is the rate,
    # the standard errors vanish and the pointwise margin is
    # max_{t > 0} (rate - R) t, at the first record time 0.1 or the last 4.0
    @pytest.mark.parametrize("rate, passed", [(0.2, True), (0.4, False)])
    def test_rate_on_each_side_of_the_bound(self, rate, passed):
        times = np.linspace(0.0, 4.0, 41)
        mass = np.tile(np.exp(rate * times), (2, 1))
        stats = SimpleNamespace(times=times, mass_u=mass, n_paths=2, master_seed=0)
        coeffs = CoefficientSet.constant(4, m1=0.3)
        report = extinction_report(stats, coeffs, species=0, tail_window=(2.0, None))
        slope, pointwise = report.verdicts
        assert slope.passed == passed and pointwise.passed == passed
        assert slope.statistic == pytest.approx(rate, abs=1e-9)
        assert slope.threshold == 0.3
        assert pointwise.statistic == pytest.approx(max((rate - 0.3) * t for t in (0.1, 4.0)),
                                                    abs=1e-9)
        assert pointwise.threshold == 0.0
        np.testing.assert_allclose(report.bound_line, 0.3 * times, atol=1e-9)

    def test_pointwise_statistic_skips_the_start(self):
        # mass e^{-0.5 t} against R = 0.3: the margin -0.8 t is 0 at t = 0
        # by construction, and largest over t > 0 at the first record time
        times = np.linspace(0.0, 4.0, 41)
        mass = np.tile(np.exp(-0.5 * times), (2, 1))
        stats = SimpleNamespace(times=times, mass_u=mass, n_paths=2, master_seed=0)
        report = extinction_report(stats, CoefficientSet.constant(4, m1=0.3), species=0,
                                   tail_window=(2.0, None))
        pointwise = report.verdicts[1]
        assert pointwise.passed and np.all(report.pointwise_ok)
        assert pointwise.statistic == pytest.approx(-0.08, abs=1e-9)


# ---------------------------------------------------------------------------
# Mild-Itô audit
# ---------------------------------------------------------------------------

def constant_snapshots(n: int, u: float) -> list:
    """Two snapshots of a constant U field and no V; SimpleNamespace lets
    u be negative, which Field refuses."""
    return [SimpleNamespace(u=np.full(n, u), v=np.zeros(n), time=t) for t in (0.0, 0.1)]


class TestMildAudit:
    def snapshots_from_run(self, sigma1=0.5, n=64, count=6):
        times = tuple(0.05 * (i + 1) for i in range(count))
        x = cell_centers(n)
        init = Field(0.5 + 0.2 * np.cos(np.pi * x), np.full(n, 0.3))
        coeffs = CoefficientSet.constant(n, m1=0.8, a1=1.0, b1=0.2,
                                         sigma1=sigma1, m2=0.5, a2=1.0,
                                         sigma2=0.3)
        cfg = SolverConfig(grid_size=n, dt=1e-3, t_final=times[-1],
                           snapshot_times=times)
        return simulate_path(init, coeffs, NoisePlan(master_seed=4), cfg).snapshots, coeffs

    def test_constant_field_limit_is_exact(self):
        coeffs = CoefficientSet.constant(32, m1=0.5)
        quadratic, drift = mild_log_functional_audit(constant_snapshots(32, 0.7), coeffs)
        # M_eta = (0.7 / (eta + 0.7))^2 exactly, here at the smallest eta
        assert quadratic.statistic == pytest.approx((0.7 / (1e-6 + 0.7)) ** 2, rel=1e-12)
        assert drift.statistic == pytest.approx(0.35 / (1e-6 + 0.7), rel=1e-12)
        assert quadratic.passed and drift.passed

    def test_stochastic_snapshots_pass(self):
        snaps, coeffs = self.snapshots_from_run()
        quadratic, drift = mild_log_functional_audit(snaps, coeffs)
        assert quadratic.check_name == "log-functional-quadratic-term"
        assert quadratic.theorem_ref == "log-mass-expansion"
        assert quadratic.passed
        assert quadratic.threshold == 1.0 - 1e-3
        assert quadratic.statistic >= quadratic.threshold
        assert drift.check_name == "log-functional-drift-term"
        assert drift.passed

    def test_drift_ratio_bounded_by_sup_m(self):
        snaps, coeffs = self.snapshots_from_run()
        drift = mild_log_functional_audit(snaps, coeffs)[1]
        assert drift.threshold == np.max(coeffs.m1) + 1e-9
        assert drift.statistic <= drift.threshold

    @pytest.mark.parametrize("u", [-0.5, 0.0])
    def test_silent_without_a_positive_mass(self, u):
        # the log of the mass is the audit's hypothesis: a mass <= 0 in any
        # snapshot gives no verdict
        coeffs = CoefficientSet.constant(16, m1=0.5)
        snaps = constant_snapshots(16, 0.7)
        snaps[1].u[:] = u
        assert mild_log_functional_audit(snaps, coeffs) == ()

    def test_silent_with_fewer_than_two_snapshots(self):
        coeffs = CoefficientSet.constant(16, m1=0.5)
        for snaps in ([], constant_snapshots(16, 0.7)[:1]):
            assert mild_log_functional_audit(snaps, coeffs) == ()

    def test_limit_below_the_floor_fails(self):
        # mass 1e-6 against eta 1e-6: M = (1/2)^2 at the smallest eta
        coeffs = CoefficientSet.constant(16, m1=0.5)
        quadratic = mild_log_functional_audit(constant_snapshots(16, 1e-6), coeffs)[0]
        assert not quadratic.passed
        assert quadratic.statistic == pytest.approx(0.25, rel=1e-9)
        assert quadratic.threshold == 1.0 - 1e-3

    def test_drift_above_sup_m_fails(self):
        # a negative self-regulation a1 = -1 (which CoefficientSet refuses)
        # lifts the reaction above m u: 0.7 (0.5 + 0.7) / 0.7 = 1.2 against
        # sup m = 0.5; V's coefficients only feed model.drift's second term
        coeffs = SimpleNamespace(m1=np.full(16, 0.5), a1=np.full(16, -1.0), b1=np.zeros(16),
                                 m2=np.zeros(16), a2=np.zeros(16), b2=np.zeros(16))
        drift = mild_log_functional_audit(constant_snapshots(16, 0.7), coeffs)[1]
        assert not drift.passed
        assert drift.statistic == pytest.approx(1.2, rel=1e-5)
        assert drift.threshold == 0.5 + 1e-9

    def test_unordered_snapshots_rejected(self):
        n = 16
        coeffs = CoefficientSet.constant(n)
        snaps = [Field(np.full(n, 0.5), np.zeros(n), time=0.2),
                 Field(np.full(n, 0.5), np.zeros(n), time=0.1)]
        with pytest.raises(ValueError, match="ordered"):
            mild_log_functional_audit(snaps, coeffs)


# ---------------------------------------------------------------------------
# Moment boundedness and stationarity
# ---------------------------------------------------------------------------

class TestMomentBound:
    def test_zero_init_flat_at_zero(self):
        n = 16
        init = Field(np.zeros(n), np.zeros(n))
        coeffs = CoefficientSet.constant(n, m1=0.5, a1=1.0, a2=1.0, sigma1=0.5)
        cfg = SolverConfig(grid_size=n, dt=1e-2, t_final=2.0)
        stats = run_ensemble(init, coeffs, NoisePlan(master_seed=0), cfg, n_paths=2)
        report = moment_bound_curve(stats, coeffs)
        assert np.all(report.moment_curve == 0.0)
        flat, regulated = report.verdicts
        assert flat.check_name == "moment-flat-tail"
        assert flat.passed and flat.statistic == 0.0
        assert regulated.check_name == "self-regulation-positive"
        assert regulated.passed and regulated.statistic == 1.0

    def test_logistic_settles_at_carrying_capacity(self):
        n = 16
        init = Field(np.full(n, 0.1), np.zeros(n))
        coeffs = CoefficientSet.constant(n, m1=1.0, a1=1.0, a2=1.0)
        cfg = SolverConfig(grid_size=n, dt=1e-2, t_final=20.0)
        stats = run_ensemble(init, coeffs, NoisePlan(master_seed=0), cfg, n_paths=1)
        report = moment_bound_curve(stats, coeffs)
        flat = report.verdicts[0]
        assert flat.passed
        assert report.moment_curve[report.times >= 10.0].max() == pytest.approx(1.0, rel=1e-3)
        assert flat.statistic == pytest.approx(1.0, rel=1e-2)

    def test_uncontrolled_growth_fails(self):
        # a = 0, m > 0: mean grows like e^{mt}; the flat-tail check must
        # fail and so must the self-regulation hypothesis.
        n = 16
        init = Field(np.full(n, 0.5), np.zeros(n))
        coeffs = CoefficientSet.constant(n, m1=0.4, sigma1=0.1)
        cfg = SolverConfig(grid_size=n, dt=1e-2, t_final=12.0)
        stats = run_ensemble(init, coeffs, NoisePlan(master_seed=9), cfg, n_paths=4)
        report = moment_bound_curve(stats, coeffs)
        flat, regulated = report.verdicts
        assert not regulated.passed
        assert regulated.statistic == 0.0
        assert not flat.passed
        assert flat.statistic > flat.threshold

    # E sup^2 = 1 before T/2 and `factor` from T/2 on, against FLAT_TAIL_FACTOR 2
    @pytest.mark.parametrize("factor, passed", [(1.9, True), (2.1, False)])
    def test_tail_on_each_side_of_the_factor(self, factor, passed):
        times = np.linspace(0.0, 1.0, 21)
        curve = np.where(times >= 0.5, factor, 1.0)
        stats = SimpleNamespace(times=times, supnorm=np.tile(np.sqrt(curve), (2, 1)))
        flat = moment_bound_curve(stats, CoefficientSet.constant(4, a1=1.0, a2=1.0)).verdicts[0]
        assert flat.passed == passed
        assert flat.statistic == pytest.approx(factor, rel=1e-12)
        assert flat.threshold == 2.0

    @pytest.mark.parametrize("a2, passed", [(0.25, True), (0.0, False)])
    def test_self_regulation_on_each_side_of_zero(self, a2, passed):
        times = np.linspace(0.0, 1.0, 21)
        stats = SimpleNamespace(times=times, supnorm=np.ones((2, times.size)))
        regulated = moment_bound_curve(
            stats, CoefficientSet.constant(4, a1=1.0, a2=a2)).verdicts[1]
        assert regulated.passed == passed
        assert regulated.statistic == a2
        assert regulated.threshold == 0.0


class TestStationarity:
    def test_fixed_point_is_stationary(self):
        # deterministic logistic at its equilibrium: every window identical
        n = 16
        init = Field(np.full(n, 0.5), np.zeros(n))
        coeffs = CoefficientSet.constant(n, m1=0.5, a1=1.0, a2=1.0)
        cfg = SolverConfig(grid_size=n, dt=1e-2, t_final=8.0,
                           record_interval=0.1)
        stats = run_ensemble(init, coeffs, NoisePlan(master_seed=0), cfg, n_paths=4)
        report = stationarity_report(stats)
        assert np.ptp(report.mass_window_means) < 1e-12
        assert np.all(report.site_ks == 0.0)
        (verdict,) = report.verdicts
        assert verdict.check_name == "stationarity-site-ks"
        assert verdict.statistic == 1.0
        assert verdict.passed

    def test_noisy_equilibrium_passes(self):
        n = 32
        init = Field(np.full(n, 0.5), np.full(n, 0.4))
        coeffs = CoefficientSet.constant(n, m1=1.0, a1=1.0, b1=0.3, sigma1=0.5,
                                         m2=0.8, a2=1.0, b2=0.2, sigma2=0.4)
        cfg = SolverConfig(grid_size=n, dt=2e-3, t_final=16.0,
                           record_interval=0.1)
        stats = run_ensemble(init, coeffs, NoisePlan(master_seed=23), cfg, n_paths=80)
        report = stationarity_report(stats)
        assert report.verdicts[0].passed, \
            f"site KS {report.site_ks} vs {report.ks_critical_value}"

    # 5 sites, of which `moved` shift by 10 after t = 0.7, between the early
    # and the late sample: 4 of 5 still-stationary sites meet the required 0.8
    @pytest.mark.parametrize("moved, passed", [(1, True), (2, False)])
    def test_site_share_on_each_side_of_the_fraction(self, moved, passed):
        times = np.linspace(0.0, 1.0, 41)
        samples = np.random.default_rng(5).standard_normal((50, 1, 5))
        site_u = np.repeat(samples, times.size, axis=1)
        site_u[:, times > 0.7, :moved] += 10.0
        zeros = np.zeros((50, times.size))
        stats = SimpleNamespace(times=times, n_paths=50, site_x=np.linspace(0.1, 0.9, 5),
                                site_u=site_u, mass_u=zeros, supnorm=zeros, rough_u=zeros)
        report = stationarity_report(stats)
        (verdict,) = report.verdicts
        assert report.site_ks.tolist() == [1.0] * moved + [0.0] * (5 - moved)
        assert verdict.passed == passed
        assert verdict.statistic == (5 - moved) / 5
        assert verdict.threshold == 0.8

    @staticmethod
    def constant_sites(n_paths, n_sites):
        times = np.linspace(0.0, 1.0, 41)
        zeros = np.zeros((n_paths, times.size))
        return SimpleNamespace(times=times, n_paths=n_paths,
                               site_x=np.linspace(0.1, 0.9, n_sites),
                               site_u=np.zeros((n_paths, times.size, n_sites)),
                               mass_u=zeros, supnorm=zeros, rough_u=zeros)

    def test_refuses_a_critical_value_no_statistic_exceeds(self):
        # a KS statistic is at most 1: at a critical value of 1 or more no
        # site can fail, so the report refuses the ensemble (3 paths: 1.109,
        # 4 paths: 0.960)
        refused = []
        for n_paths in range(1, 7):
            stats = self.constant_sites(n_paths, 5)
            crit = ks_critical(analysis.STATIONARITY_ALPHA, n_paths, n_paths)
            if crit >= 1.0:
                refused.append(n_paths)
                with pytest.raises(ValueError, match=f"critical value at {n_paths} paths is "):
                    stationarity_report(stats)
            else:
                assert stationarity_report(stats).ks_critical_value == crit
        assert refused == [1, 2, 3]

    def test_refuses_no_probe_site(self):
        with pytest.raises(ValueError, match="needs at least one probe site"):
            stationarity_report(self.constant_sites(50, 0))

    def test_too_short_run_rejected(self):
        n = 16
        init = Field(np.full(n, 0.5), np.zeros(n))
        coeffs = CoefficientSet.constant(n, a1=1.0, a2=1.0)
        cfg = SolverConfig(grid_size=n, dt=1e-2, t_final=0.1,
                           record_interval=5e-2)
        stats = run_ensemble(init, coeffs, NoisePlan(master_seed=0), cfg, n_paths=2)
        with pytest.raises(ValueError, match="burn-in"):
            stationarity_report(stats)


# ---------------------------------------------------------------------------
# Density smoke test
# ---------------------------------------------------------------------------

class TestDensity:
    def test_lognormal_control_passes(self):
        rng = np.random.default_rng(31)
        samples = np.exp(0.4 * rng.standard_normal(4000) - 1.0)
        report = density_smoke_test(samples)
        (verdict,) = report.verdicts
        assert verdict.check_name == "one-point-atomless"
        assert verdict.passed
        assert verdict.statistic == report.max_cdf_jump == pytest.approx(1 / 4000)
        assert verdict.threshold == report.jump_threshold
        assert report.zero_fraction == 0.0
        assert report.kde_bandwidth > 0
        assert report.kde_grid.size == 256

    def test_kde_matches_scipy_silverman(self):
        rng = np.random.default_rng(77)
        for n in (2000, 3500, 6000):
            samples = np.exp(0.5 * rng.standard_normal(n) - 1.0)
            report = density_smoke_test(samples)
            kde = gaussian_kde(samples, bw_method="silverman")
            assert report.kde_bandwidth == pytest.approx(
                np.sqrt(kde.covariance[0, 0]), rel=1e-14, abs=0.0)
            np.testing.assert_allclose(report.kde_density, kde(report.kde_grid),
                                       rtol=1e-12, atol=0.0)

    def test_constant_samples_report_atom(self):
        report = density_smoke_test(np.full(2500, 0.7))
        assert not report.verdicts[0].passed
        assert report.max_cdf_jump == 1.0

    def test_zeros_tallied_separately(self):
        rng = np.random.default_rng(8)
        positive = np.exp(0.3 * rng.standard_normal(3000))
        samples = np.concatenate([positive, np.zeros(1000)])
        report = density_smoke_test(samples)
        assert report.zero_fraction == pytest.approx(0.25)
        # the zero atom is a jump of the empirical CDF like any other
        assert not report.verdicts[0].passed
        assert report.max_cdf_jump == report.verdicts[0].statistic == 0.25

    def test_zero_atom_among_distinct_positives_fails(self):
        # 1,000 zeros and 1,000 distinct positive values: a jump of 1/2 at 0
        samples = np.concatenate([np.zeros(1000), np.linspace(0.5, 1.5, 1000)])
        report = density_smoke_test(samples)
        (verdict,) = report.verdicts
        assert report.zero_fraction == 0.5
        assert not verdict.passed
        assert verdict.statistic == 0.5
        assert verdict.threshold == 3.0 / np.sqrt(2000)

    # one value repeated k times among 2500 samples, against 3 / sqrt(2500) = 0.06
    @pytest.mark.parametrize("k, passed", [(149, True), (151, False)])
    def test_atom_on_each_side_of_the_jump_threshold(self, k, passed):
        samples = np.concatenate([np.linspace(1.0, 2.0, 2500 - k), np.full(k, 5.0)])
        (verdict,) = density_smoke_test(samples).verdicts
        assert verdict.passed == passed
        assert verdict.statistic == k / 2500
        assert verdict.threshold == 3.0 / 50.0

    def test_underpowered_rejected(self):
        with pytest.raises(ValueError, match="samples"):
            density_smoke_test(np.ones(100))

    def test_negative_samples_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            density_smoke_test(np.linspace(-1, 1, 3000))


# ---------------------------------------------------------------------------
# Positivity and the closed-form checks' hypotheses
# ---------------------------------------------------------------------------

def recorded(floor=1.0, clip=0.0, exits=0.0, n_paths=4):
    """A stand-in for an EnsembleStats whose recorded values are all 1 but
    one mass at floor, with one path clipping at clip."""
    mass_u = np.ones((n_paths, 3))
    mass_u[-1, -1] = floor
    return SimpleNamespace(
        mass_u=mass_u, mass_v=np.ones((n_paths, 3)),
        site_u=np.ones((n_paths, 3, 2)), site_v=np.ones((n_paths, 3, 2)),
        clip_max_ratio=np.append(np.zeros(n_paths - 1), clip), n_paths=n_paths,
        exit_fraction=lambda: exits)


def below(x):
    return np.nextafter(x, -np.inf)


def above(x):
    return np.nextafter(x, np.inf)


class TestPositivity:
    @pytest.mark.parametrize("floor, passed", [(0.0, True), (below(0.0), False)])
    def test_recorded_floor_on_each_side_of_zero(self, floor, passed):
        verdict = positivity_verdicts(recorded(floor=floor))[0]
        assert verdict.check_name == "recorded-state-nonnegative"
        assert (verdict.passed, verdict.statistic, verdict.threshold) == (passed, floor, 0.0)

    @pytest.mark.parametrize("floor, passed", [(0.0, True), (below(0.0), False)])
    def test_snapshot_floor_on_each_side_of_zero(self, floor, passed):
        # the snapshot verdict reads the snapshot fields alone
        snapshots = [SimpleNamespace(u=np.ones(4), v=np.ones(4)),
                     SimpleNamespace(u=np.ones(4), v=np.array([1.0, floor, 1.0, 1.0]))]
        verdict = positivity_verdicts(recorded(floor=-1.0), snapshots)[0]
        assert verdict.check_name == "snapshot-state-nonnegative"
        assert (verdict.passed, verdict.statistic, verdict.threshold) == (passed, floor, 0.0)

    @pytest.mark.parametrize("clip, passed", [(1e-3, True), (above(1e-3), False)])
    def test_clipped_mass_on_each_side_of_its_tolerance(self, clip, passed):
        verdict = positivity_verdicts(recorded(clip=clip))[1]
        assert verdict.check_name == "pre-clamp-clipped-mass"
        assert (verdict.passed, verdict.statistic, verdict.threshold) == (passed, clip, 1e-3)

    @pytest.mark.parametrize("exits, passed", [(0.01, True), (above(0.01), False)])
    def test_exit_fraction_on_each_side_of_its_tolerance(self, exits, passed):
        verdict = positivity_verdicts(recorded(exits=exits))[2]
        assert verdict.check_name == "truncation-exit-fraction"
        assert (verdict.passed, verdict.statistic, verdict.threshold) == (passed, exits, 0.01)


class TestHypotheses:
    @pytest.mark.parametrize("coeffs, init", [
        (dict(m1=1.0, a1=1.0, sigma1=0.1), dict(u=0.1, v=0.0)),
        (dict(m1=1.0, a1=1.0, sigma2=0.1), dict(u=0.1, v=0.0)),
        (dict(m1=1.0, a1=1.0), dict(u=0.1, v=0.1)),
        (dict(m1=1.0, a1=1.0), dict(u=np.linspace(0.1, 0.2, 8), v=0.0)),
    ])
    def test_logistic_is_silent_outside_its_hypothesis(self, coeffs, init):
        field = Field(*(np.broadcast_to(init[k], 8).astype(float) for k in ("u", "v")))
        assert logistic_verdicts(None, CoefficientSet.constant(8, **coeffs), field) == ()

    @pytest.mark.parametrize("coeffs, n_paths, n_sites", [
        (dict(m1=0.2, a1=0.1, sigma1=0.5), 40, 2),
        (dict(m1=0.2, b1=0.1, sigma1=0.5), 40, 2),
        (dict(m1=0.2), 40, 2),
        (dict(m1=0.2, sigma1=0.5), 1, 2),
        (dict(m1=0.2, sigma1=0.5), 40, 0),
    ])
    def test_linear_mean_is_silent_outside_its_hypothesis(self, coeffs, n_paths, n_sites):
        stats = SimpleNamespace(n_paths=n_paths, site_x=np.linspace(0.2, 0.8, n_sites))
        field = Field(np.ones(8), np.zeros(8))
        assert linear_mean_verdicts(None, stats, CoefficientSet.constant(8, **coeffs),
                                    field) == ()


# ---------------------------------------------------------------------------
# Heat-kernel and noise-representation audits
# ---------------------------------------------------------------------------

@pytest.fixture
def stub_kernel(monkeypatch):
    """kernel_audit over stand-in kernel functions that meet every rule."""
    monkeypatch.setattr(analysis, "KERNEL_LATTICE", 3)
    monkeypatch.setattr(analysis, "MODULUS_SWEEP_POINTS", 3)
    for name in ("kernel_image_sum", "kernel_eigen_series"):
        monkeypatch.setattr(analysis, name, lambda t, x, y: np.zeros(np.broadcast(x, y).shape))
    monkeypatch.setattr(analysis, "kernel_mass_defect", lambda t, x, n_quad: 0.0)
    monkeypatch.setattr(analysis, "gaussian_comparison_sweep", lambda times: (0.5, 2.0))
    monkeypatch.setattr(analysis, "semigroup_compose_defect", lambda u, s, t: 0.0)
    monkeypatch.setattr(analysis, "_MODULUS_SWEEPS", tuple(
        (name, lambda **kw: 1.0, lambda **kw: 1.0, params, d_lo, d_hi)
        for name, _, _, params, d_lo, d_hi in analysis._MODULUS_SWEEPS))


def verdict_named(verdicts, name):
    (verdict,) = [v for v in verdicts if v.check_name == name]
    return verdict


class TestKernelAudit:
    def test_stand_ins_pass_every_rule(self, stub_kernel):
        rows, verdicts = kernel_audit()
        assert all(v.passed for v in verdicts) and len(verdicts) == 9
        assert len(rows) == 5 + 5 * 3

    @pytest.mark.parametrize("defect, passed", [(1e-10, True), (above(1e-10), False)])
    def test_semigroup_composition_at_its_tolerance(self, stub_kernel, monkeypatch,
                                                    defect, passed):
        monkeypatch.setattr(analysis, "semigroup_compose_defect", lambda u, s, t: defect)
        v = verdict_named(kernel_audit()[1], "semigroup-composition")
        assert (v.passed, v.statistic, v.threshold) == (passed, defect, 1e-10)

    # the rule is 0 < lo <= hi < inf on the kernel's ratios to the Gaussian
    @pytest.mark.parametrize("lo, hi, passed", [
        (0.5, 2.0, True), (1.0, 1.0, True), (1e-300, 1e300, True),
        (0.0, 2.0, False), (-0.5, 2.0, False), (2.0, 0.5, False), (0.5, np.inf, False),
    ])
    def test_gaussian_envelope_rule(self, stub_kernel, monkeypatch, lo, hi, passed):
        monkeypatch.setattr(analysis, "gaussian_comparison_sweep", lambda times: (lo, hi))
        v = verdict_named(kernel_audit()[1], "kernel-gaussian-envelope")
        assert (v.passed, v.statistic, v.threshold) == (passed, lo, 0.0)


# The KS critical value of the noise audit at 500 replications per sample.
NOISE_CRIT_500 = ks_critical(NOISE_KS_ALPHA, 500, 500)


class TestNoiseAudit:
    # a Walsh variance over a unit target whose error is just below, and
    # one whose error is just above, the variance tolerance
    @pytest.mark.parametrize("worst_ks, worst_walsh, passed", [
        (below(NOISE_CRIT_500), np.nextafter(1.0 + NOISE_VARIANCE_TOL, 0.0), (True, True)),
        (NOISE_CRIT_500, np.nextafter(1.0 + NOISE_VARIANCE_TOL, 2.0), (False, False)),
    ], ids=["pass", "fail"])
    def test_worst_audit_against_the_audit_thresholds(self, monkeypatch, worst_ks,
                                                       worst_walsh, passed):
        # (KS statistic, Walsh variance) of each audit over a unit target,
        # 500 replications each; the worst of each is met by a different
        # function.  The thresholds are noise_audit's own, the KS one at the
        # reports' replication count, and so is each row's pass bit.
        audits = iter([(0.01, worst_walsh), (worst_ks, 1.0)] + [(0.02, 1.0)] * 8)

        def report(f, master_seed):
            ks_stat, walsh = next(audits)
            return EquivalenceReport(target_variance=1.0, walsh_variance=walsh,
                                     spectral_variance=1.0, ks_stat=ks_stat,
                                     n_replications=500)
        monkeypatch.setattr(analysis, "representation_equivalence_check", report)
        rows, (ks_verdict, var_verdict) = noise_audit(master_seed=0)
        assert len(rows) == 10
        assert (ks_verdict.passed, var_verdict.passed) == passed
        assert (ks_verdict.statistic, ks_verdict.threshold) == (worst_ks, NOISE_CRIT_500)
        assert (var_verdict.statistic, var_verdict.threshold) == \
            (worst_walsh - 1.0, NOISE_VARIANCE_TOL)
        assert [row[5] for row in rows] == [NOISE_CRIT_500] * 10
        assert [row[6] for row in rows] == [passed[1], passed[0]] + [True] * 8
