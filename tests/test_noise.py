"""Noise streams, the two representations, and their equivalence audit."""

from dataclasses import fields

import numpy as np
import pytest
from scipy.stats import ks_2samp

from lvfield import noise as nz
from lvfield.analysis import NOISE_KS_ALPHA, NOISE_VARIANCE_TOL
from lvfield.statutil import ks_critical, ks_statistic


class TestStreams:
    def test_replay_is_bit_identical(self):
        a = nz.noise_generator(123, 7, nz.SPECIES_U).standard_normal(1000)
        b = nz.noise_generator(123, 7, nz.SPECIES_U).standard_normal(1000)
        assert np.array_equal(a, b)

    def test_streams_are_distinct(self):
        base = nz.noise_generator(123, 7, nz.SPECIES_U).standard_normal(100)
        for seed, path, species in [(124, 7, 0), (123, 8, 0), (123, 7, 1)]:
            other = nz.noise_generator(seed, path, species).standard_normal(100)
            assert not np.array_equal(base, other)

    def test_block_size_does_not_change_the_stream(self):
        gen = nz.noise_generator(5, 0, 0)
        whole = gen.standard_normal((4, 16))
        gen2 = nz.noise_generator(5, 0, 0)
        parts = np.vstack([gen2.standard_normal((1, 16)) for _ in range(4)])
        assert np.array_equal(whole, parts)

    def test_key_is_stable(self):
        # Hash-derived keys must never drift between versions.
        assert nz.stream_key(0, 0, 0) == nz.stream_key(0, 0, 0)
        assert nz.stream_key(1, 2, 3) != nz.stream_key(3, 2, 1)
        assert nz.stream_key(42, 3, 1) == 176311650875966678917410365821711094694
        assert nz.stream_key(2**63 - 1, 0, 1) == 266153989985945142665600864830053539567


class TestNoisePlan:
    def test_plan_is_the_master_seed(self):
        plan = nz.NoisePlan(master_seed=2**63 - 1)
        assert [f.name for f in fields(plan)] == ["master_seed"]
        assert np.array_equal(plan.generator(3, nz.SPECIES_V).standard_normal(8),
                              nz.noise_generator(2**63 - 1, 3, nz.SPECIES_V).standard_normal(8))

    @pytest.mark.parametrize("seed", [-1, 2**63])
    def test_seed_outside_63_bits_refused(self, seed):
        with pytest.raises(nz.FieldError) as info:
            nz.NoisePlan(master_seed=seed)
        assert info.value.field == "master_seed"


class TestIntegrals:
    def test_indicator_isometry(self):
        # Var int int 1_{x < 1/2} dW = t / 2.
        n_reps, n_steps, n_cells, t = 20000, 10, 16, 1.0
        f = np.zeros((n_steps, n_cells))
        f[:, : n_cells // 2] = 1.0
        gen = nz.noise_generator(21, 0, 0)
        flat = f.reshape(-1) * np.sqrt(t / n_steps / n_cells)
        samples = gen.standard_normal((n_reps, flat.size)) @ flat
        assert samples.var(ddof=1) == pytest.approx(t / 2, rel=0.05)


class TestCellAverageCoefficients:
    def test_low_modes_of_sampled_basis(self):
        # Sampling e_3 on a fine grid: its pc-extension coefficient vector is
        # close to the unit vector at mode 3.
        n = 256
        x = (np.arange(n) + 0.5) / n
        f = np.sqrt(2) * np.cos(3 * np.pi * x)
        phi = nz.cell_average_coefficients(f, 16)
        assert phi[3] == pytest.approx(1.0, abs=1e-3)
        others = np.delete(phi, 3)
        assert np.max(np.abs(others)) < 1e-3

    def test_parseval_against_pc_norm(self):
        # With many modes the coefficients recover the pc-extension L2 norm,
        # which for the step function is exactly h sum f^2.
        rng = np.random.default_rng(1)
        f = rng.standard_normal(16)
        phi = nz.cell_average_coefficients(f, 4096)
        assert np.sum(phi**2) == pytest.approx(np.mean(f**2), rel=1e-3)

    def test_no_aliasing_inflation_at_4n(self):
        # Truncation at K = 4N must not inflate the norm (a DCT of the
        # samples would, by mirroring modes k and 2N - k).
        n = 32
        x = (np.arange(n) + 0.5) / n
        f = np.cos(2 * np.pi * x)
        phi = nz.cell_average_coefficients(f, 4 * n)
        assert np.sum(phi**2) <= np.mean(f**2) * (1 + 1e-12)
        assert np.sum(phi**2) == pytest.approx(0.5, rel=2e-3)


class TestEquivalence:
    def test_three_functions_pass(self):
        # against noise_audit's thresholds at the report's replication count
        lib = nz.audit_functions()
        for name in ("one", "cos_2pi_x", "traveling"):
            r = nz.representation_equivalence_check(lib[name], n_replications=4000,
                                                    master_seed=42)
            assert r.n_replications == 4000, name
            assert r.variance_error <= NOISE_VARIANCE_TOL, name
            assert r.ks_stat < ks_critical(NOISE_KS_ALPHA, 4000, 4000), name

    def test_zero_function_is_exact(self):
        r = nz.representation_equivalence_check(lambda s, x: 0.0 * (s + x),
                                                n_replications=200, master_seed=0)
        assert r.walsh_variance == 0.0
        assert r.spectral_variance == 0.0

    def test_every_audit_function_has_a_positive_target(self):
        # the variance verdict divides by the isometry target
        for name, f in nz.audit_functions().items():
            r = nz.representation_equivalence_check(f, n_replications=100)
            assert r.target_variance > 0.0, name
            assert np.isfinite(r.variance_error), name

    def test_underpowered_replication_count_rejected(self):
        with pytest.raises(ValueError, match="n_replications"):
            nz.representation_equivalence_check(lambda s, x: 1.0 + 0 * (s + x),
                                                n_replications=99)

    def test_audit_is_deterministic(self):
        f = nz.audit_functions()["bump"]
        r1 = nz.representation_equivalence_check(f, n_replications=500, master_seed=9)
        r2 = nz.representation_equivalence_check(f, n_replications=500, master_seed=9)
        assert r1.walsh_variance == r2.walsh_variance
        assert r1.ks_stat == r2.ks_stat


class TestKsStatistic:
    def test_equals_scipy_asymp_statistic(self):
        # bit for bit, with ties inside and across the samples in half the
        # cases, and unequal sizes
        rng = np.random.default_rng(2024)
        for case in range(300):
            n, m = rng.integers(1, 400, size=2)
            a = rng.standard_normal(n)
            b = rng.standard_normal(m) + rng.uniform(-0.5, 0.5)
            if case % 2:
                levels = rng.integers(2, 40)
                a, b = np.round(a * levels) / levels, np.round(b * levels) / levels
            ref = ks_2samp(a, b, method="asymp").statistic
            assert ks_statistic(a, b) == ref, case

    def test_extremes(self):
        assert ks_statistic([3.0, 1.0, 2.0, 2.0], [2.0, 1.0, 2.0, 3.0]) == 0.0
        assert ks_statistic([0.0, 0.5], [1.0, 2.0, 3.0]) == 1.0


class TestCritical:
    def test_ks_critical_values(self):
        # c(0.01) = 1.6276, c(0.05) = 1.3581
        assert ks_critical(0.01, 10000, 10000) == pytest.approx(1.6276 * np.sqrt(2e-4), rel=1e-3)
        assert ks_critical(0.05, 500, 500) == pytest.approx(1.3581 * np.sqrt(4e-3), rel=1e-3)

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            ks_critical(0.0, 10, 10)
