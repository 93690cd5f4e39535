"""Reaction terms, truncation, and state validation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from lvfield.grid import cell_centers
from lvfield.model import (
    CoefficientSet,
    Field,
    default_truncation_radius,
    drift,
    drift_lipschitz_bound,
    truncated_drift,
)


def const_coeffs(n=16, **kw):
    return CoefficientSet.constant(n, **kw)


class TestCoefficients:
    def test_from_expressions(self):
        c = CoefficientSet.from_expressions(8, m1="1 + 0.5*cos(3.141592653589793*x)", a1="1")
        x = cell_centers(8)
        np.testing.assert_allclose(c.m1, 1 + 0.5 * np.cos(np.pi * x))
        np.testing.assert_allclose(c.a1, np.ones(8))
        np.testing.assert_allclose(c.b2, np.zeros(8))

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            CoefficientSet.from_expressions(8, m1="-1")
        with pytest.raises(ValueError, match="nonnegative"):
            CoefficientSet.from_expressions(8, a2="x - 1")

    def test_nan_rejected(self):
        # fractional power of a negative base
        with pytest.raises(ValueError, match="non-finite"):
            CoefficientSet.from_expressions(8, m1="(x - 0.5)^0.5")

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown coefficient"):
            CoefficientSet.from_expressions(8, mass="1")

    def test_scalar_broadcast(self):
        c = CoefficientSet(m1=1.0, a1=2.0, b1=0.0, sigma1=0.5,
                           m2=np.ones(12), a2=1.0, b2=0.0, sigma2=0.5)
        assert c.n == 12
        assert c.m1.shape == (12,)

    def test_extinction_rate_bound(self):
        c = const_coeffs(m1=0.3, sigma1=1.0, m2=1.0, sigma2=0.2)
        assert c.extinction_rate_bound(0) == pytest.approx(-0.2)
        assert c.extinction_rate_bound(1) == pytest.approx(0.98)

    def test_extrema_with_profiles(self):
        c = CoefficientSet.from_expressions(64, m1="1 + 0.2*cos(3.141592653589793*x)",
                                            sigma1="0.5 + 0.1*x")
        # sup m = 1.2 at the left cell center, inf sigma^2 = 0.5^2 there too
        assert c.extinction_rate_bound(0) == pytest.approx(1.2 - 0.5 * 0.5**2, abs=2e-3)


class TestField:
    def test_negative_population_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Field(u=np.array([1.0, -0.1]), v=np.zeros(2))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Field(u=np.ones(4), v=np.ones(5))

    def test_from_expressions_rough_profile(self):
        f = Field.from_expressions(64, u0="abs(x - 0.5)^0.3", v0="0")
        assert f.u.max() <= 0.5**0.3 + 1e-12
        assert np.all(f.v == 0)


class TestDrift:
    def test_zero_state_is_absorbing(self):
        c = const_coeffs(m1=1.0, a1=1.0, b1=0.5, m2=1.0, a2=1.0, b2=0.5)
        f1, f2 = drift(np.zeros(16), np.zeros(16), c)
        assert np.all(f1 == 0) and np.all(f2 == 0)

    def test_logistic_fixed_point(self):
        # u = m/a, v = 0 is an equilibrium of species 1.
        c = const_coeffs(8, m1=1.2, a1=0.6)
        f1, f2 = drift(np.full(8, 2.0), np.zeros(8), c)
        np.testing.assert_allclose(f1, 0.0, atol=1e-14)

    def test_formula(self):
        c = const_coeffs(4, m1=1.0, a1=0.5, b1=0.25, m2=2.0, a2=1.0, b2=0.5)
        u, v = np.full(4, 2.0), np.full(4, 1.0)
        f1, f2 = drift(u, v, c)
        np.testing.assert_allclose(f1, 2.0 * (1.0 - 1.0 - 0.25))
        np.testing.assert_allclose(f2, 1.0 * (2.0 - 1.0 - 1.0))

    def test_competition_is_asymmetric(self):
        # b1 couples V into species 1, b2 couples U into species 2.
        c = const_coeffs(4, m1=1.0, b1=1.0, m2=1.0, b2=0.0)
        f1, f2 = drift(np.ones(4), np.ones(4), c)
        np.testing.assert_allclose(f1, 0.0, atol=1e-14)
        np.testing.assert_allclose(f2, 1.0)


class TestTruncatedDrift:
    def test_identity_inside_ball(self):
        c = const_coeffs(m1=1.0, a1=1.0, b1=0.3, m2=0.8, a2=1.0, b2=0.2)
        u = np.linspace(0, 1, 16)
        v = np.linspace(1, 0, 16)
        plain = drift(u, v, c)
        trunc = truncated_drift(u, v, c, radius=10.0)
        np.testing.assert_array_equal(plain[0], trunc[0])
        np.testing.assert_array_equal(plain[1], trunc[1])

    def test_projection_outside_ball(self):
        c = const_coeffs(m1=1.0, a1=1.0)
        radius = 3.0
        f1, _ = truncated_drift(np.array([2 * radius]), np.array([0.0]), c, radius)
        expected, _ = drift(np.array([radius]), np.array([0.0]), c)
        np.testing.assert_allclose(f1, expected)

    def test_continuity_at_boundary(self):
        c = const_coeffs(m1=1.0, a1=0.7, b1=0.2, m2=0.5, a2=0.3, b2=0.1)
        radius = 2.0
        eps = 1e-9
        inside = truncated_drift(np.array([radius - eps]), np.array([0.0]), c, radius)
        outside = truncated_drift(np.array([radius + eps]), np.array([0.0]), c, radius)
        assert abs(inside[0][0] - outside[0][0]) < 1e-7

    @given(
        state=arrays(np.float64, (2, 8), elements=st.floats(0, 50)),
        radius=st.floats(0.5, 20),
    )
    @settings(max_examples=80, deadline=None)
    def test_sup_bound_holds(self, state, radius):
        c = const_coeffs(8, m1=1.0, a1=0.5, b1=0.3, m2=0.8, a2=0.4, b2=0.2, sigma1=0.5, sigma2=0.5)
        f1, f2 = truncated_drift(state[0], state[1], c, radius)
        # on the radius ball |f_i| <= radius (sup m_i + radius sup a_i + radius sup b_i)
        bound = radius * max(1.0 + radius * (0.5 + 0.3), 0.8 + radius * (0.4 + 0.2))
        assert np.max(np.abs(f1)) <= bound + 1e-9
        assert np.max(np.abs(f2)) <= bound + 1e-9

    @given(
        a=arrays(np.float64, (2, 4), elements=st.floats(0, 30)),
        b=arrays(np.float64, (2, 4), elements=st.floats(0, 30)),
    )
    @settings(max_examples=80, deadline=None)
    def test_lipschitz_bound_holds(self, a, b):
        c = const_coeffs(4, m1=1.0, a1=0.5, b1=0.3, m2=0.8, a2=0.4, b2=0.2)
        radius = 5.0
        lip = drift_lipschitz_bound(c, radius)
        fa = truncated_drift(a[0], a[1], c, radius)
        fb = truncated_drift(b[0], b[1], c, radius)
        df = np.hypot(fa[0] - fb[0], fa[1] - fb[1])
        dz = np.hypot(a[0] - b[0], a[1] - b[1])
        # pointwise in x; allow rounding slack
        assert np.all(df <= lip * dz + 1e-9)


class TestSupNormAndExit:
    def test_default_radius(self):
        f = Field(u=np.full(8, 3.0), v=np.full(8, 4.0))
        assert default_truncation_radius(f) == pytest.approx(60.0)
