"""Noise streams, the two representations, and their equivalence audit."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lvfield import noise as nz
from lvfield.statutil import ks_critical


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


class TestSheet:
    def test_cell_variance_and_independence(self):
        gen = nz.noise_generator(11, 0, 0)
        n_cells, dt = 8, 0.01
        draws = nz.sample_sheet_increments(n_cells, dt, gen, n_steps=125000)
        var = draws.var(axis=0)
        assert np.all(np.abs(var / (dt / n_cells) - 1.0) < 0.02)
        corr = np.corrcoef(draws.T)
        off = corr[~np.eye(n_cells, dtype=bool)]
        assert np.max(np.abs(off)) < 4.0 / np.sqrt(125000) * 1.5

    def test_invalid_args(self):
        gen = nz.noise_generator(0, 0, 0)
        with pytest.raises(ValueError):
            nz.sample_sheet_increments(0, 0.1, gen)
        with pytest.raises(ValueError):
            nz.sample_sheet_increments(4, -0.1, gen)


class TestSpectral:
    def test_mode_variance(self):
        gen = nz.noise_generator(12, 0, 0)
        draws = nz.sample_spectral_increments(6, 0.04, gen, n_steps=100000)
        assert np.all(np.abs(draws.var(axis=0) / 0.04 - 1.0) < 0.02)

    def test_weights_scale_modes(self):
        w = np.array([1.0, 0.5, 0.25, 0.125])
        gen = nz.noise_generator(13, 0, 0)
        draws = nz.sample_spectral_increments(4, 1.0, gen, weights=w, n_steps=50000)
        ratio = draws.std(axis=0) / w
        assert np.all(np.abs(ratio - 1.0) < 0.03)

    def test_weight_shape_mismatch(self):
        gen = nz.noise_generator(0, 0, 0)
        with pytest.raises(ValueError):
            nz.sample_spectral_increments(4, 0.1, gen, weights=np.ones(3))


class TestIntegrals:
    def test_zero_integrand_gives_zero(self):
        gen = nz.noise_generator(3, 0, 0)
        dw = nz.sample_sheet_increments(16, 0.1, gen, n_steps=10)
        assert nz.walsh_integral(np.zeros((10, 16)), dw) == 0.0

    @given(a=st.floats(-3, 3), b=st.floats(-3, 3))
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, a, b):
        gen = nz.noise_generator(4, 0, 0)
        dw = nz.sample_sheet_increments(8, 0.1, gen, n_steps=5)
        rng = np.random.default_rng(0)
        f = rng.standard_normal((5, 8))
        g = rng.standard_normal((5, 8))
        lhs = nz.walsh_integral(a * f + b * g, dw)
        rhs = a * nz.walsh_integral(f, dw) + b * nz.walsh_integral(g, dw)
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            nz.walsh_integral(np.zeros((3, 4)), np.zeros((4, 3)))
        with pytest.raises(ValueError):
            nz.spectral_integral(np.zeros((3, 4)), np.zeros((3, 5)))

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


class TestSummability:
    def test_power_law_weights_pass(self):
        k = np.arange(1, 10001)
        ratio = nz.summability_ratio(1.0 / k, 3.0)
        assert ratio < nz.SUMMABILITY_TOL

    def test_flat_weights_fail(self):
        ratio = nz.summability_ratio(np.ones(10000), 3.0)
        assert ratio > 0.5

    def test_plan_rejects_unsummable_declaration(self):
        with pytest.raises(ValueError, match="summability"):
            nz.NoisePlan(representation="spectral", n_modes=1000,
                         weights=np.ones(1000), summability_class=3.0)

    def test_plan_accepts_summable_declaration(self):
        k = np.arange(1, 10001)
        plan = nz.NoisePlan(representation="spectral", n_modes=10000,
                            weights=1.0 / k, summability_class=3.0)
        assert plan.summability_class == 3.0

    def test_white_noise_cannot_declare_a_class(self):
        with pytest.raises(ValueError):
            nz.NoisePlan(representation="spectral", summability_class=2.0)


class TestEquivalence:
    def test_three_functions_pass(self):
        lib = nz.audit_functions()
        for name in ("one", "cos_2pi_x", "traveling"):
            r = nz.representation_equivalence_check(lib[name], name=name,
                                                    n_replications=4000, master_seed=42)
            assert r.walsh_variance_ok, name
            assert r.spectral_variance_ok, name
            assert r.ks_ok, name

    def test_zero_function_is_exact(self):
        r = nz.representation_equivalence_check(lambda s, x: 0.0 * (s + x),
                                                n_replications=200, master_seed=0)
        assert r.walsh_variance == 0.0
        assert r.spectral_variance == 0.0
        assert r.passed

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


class TestCritical:
    def test_ks_critical_values(self):
        # c(0.01) = 1.6276, c(0.05) = 1.3581
        assert ks_critical(0.01, 10000, 10000) == pytest.approx(1.6276 * np.sqrt(2e-4), rel=1e-3)
        assert ks_critical(0.05, 500, 500) == pytest.approx(1.3581 * np.sqrt(4e-3), rel=1e-3)

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            ks_critical(0.0, 10, 10)
