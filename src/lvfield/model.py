"""The competitive two-species reaction system and its truncated drift.

Reaction terms

    f_1(x, u, v) = u (m_1(x) - a_1(x) u - b_1(x) v)
    f_2(x, u, v) = v (m_2(x) - a_2(x) v - b_2(x) u)

with nonnegative bounded coefficient profiles m_i, a_i, b_i and noise
amplitudes sigma_i.  The truncated drift replaces (u, v) by its radial
projection onto the centered ball of radius n in R^2 before applying f,
which makes the drift globally Lipschitz while agreeing with f inside the
ball; simulations track the first time the state leaves the ball.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr
from .grid import cell_centers

COEFFICIENT_NAMES = ("m1", "a1", "b1", "sigma1", "m2", "a2", "b2", "sigma2")
# sigma may take either sign in principle but only sigma^2 enters anything
# observable; the nonnegativity requirement applies to the reaction rates.
_NONNEGATIVE = ("m1", "a1", "b1", "m2", "a2", "b2")


@dataclass(frozen=True)
class CoefficientSet:
    """Grid samples of the eight coefficient profiles, all shape (n,)."""

    m1: np.ndarray
    a1: np.ndarray
    b1: np.ndarray
    sigma1: np.ndarray
    m2: np.ndarray
    a2: np.ndarray
    b2: np.ndarray
    sigma2: np.ndarray

    def __post_init__(self):
        sizes = []
        for name in COEFFICIENT_NAMES:
            v = np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
            if v.ndim != 1:
                raise ValueError(f"coefficient {name} must be a 1d profile, got shape {v.shape}")
            sizes.append(v.size)
        n = max(sizes)
        for name in COEFFICIENT_NAMES:
            v = np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
            if v.size == 1:
                v = np.full(n, v[0])
            if v.size != n:
                raise ValueError(f"coefficient {name} has {v.size} samples, expected {n}")
            if not np.all(np.isfinite(v)):
                raise ValueError(f"coefficient {name} contains non-finite samples")
            if name in _NONNEGATIVE and np.any(v < 0):
                raise ValueError(f"coefficient {name} must be nonnegative everywhere")
            object.__setattr__(self, name, v)

    @property
    def n(self) -> int:
        return self.m1.size

    @classmethod
    def from_expressions(cls, n: int, **sources: str) -> "CoefficientSet":
        """Build from expression strings; omitted coefficients default to 0."""
        unknown = set(sources) - set(COEFFICIENT_NAMES)
        if unknown:
            raise ValueError(f"unknown coefficient names: {sorted(unknown)}")
        x = cell_centers(n)
        values = {}
        for name in COEFFICIENT_NAMES:
            src = sources.get(name, "0")
            values[name] = expr.evaluate(src, x)
        return cls(**values)

    @classmethod
    def constant(cls, n: int, **scalars: float) -> "CoefficientSet":
        vals = {name: np.full(n, float(scalars.get(name, 0.0))) for name in COEFFICIENT_NAMES}
        return cls(**vals)

    def sup_m(self, species: int) -> float:
        return float((self.m1 if species == 0 else self.m2).max())

    def inf_sigma_sq(self, species: int) -> float:
        s = self.sigma1 if species == 0 else self.sigma2
        return float((s**2).min())

    def extinction_rate_bound(self, species: int) -> float:
        """R = sup m - (1/2) inf sigma^2; negative R forces extinction."""
        return self.sup_m(species) - 0.5 * self.inf_sigma_sq(species)


@dataclass(frozen=True)
class Field:
    """Joint state (U, V) at one time, sampled on the cell centers."""

    u: np.ndarray
    v: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        v = np.asarray(self.v, dtype=float)
        if u.shape != v.shape or u.ndim != 1:
            raise ValueError(f"u, v must be matching 1d arrays, got {u.shape} and {v.shape}")
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
            raise ValueError("field contains non-finite samples")
        if np.any(u < 0) or np.any(v < 0):
            raise ValueError("population fields must be nonnegative")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @property
    def n(self) -> int:
        return self.u.size

    @classmethod
    def from_expressions(cls, n: int, u0: str, v0: str, time: float = 0.0) -> "Field":
        x = cell_centers(n)
        return cls(expr.evaluate(u0, x), expr.evaluate(v0, x), time)


def sup_norm(u: np.ndarray, v: np.ndarray) -> float:
    """Sup over x of the euclidean norm |(u(x), v(x))|."""
    return float(np.hypot(u, v).max())


def drift(u, v, coeffs: CoefficientSet):
    """(f_1, f_2) evaluated pointwise; u, v may carry leading batch axes."""
    f1 = u * (coeffs.m1 - coeffs.a1 * u - coeffs.b1 * v)
    f2 = v * (coeffs.m2 - coeffs.a2 * v - coeffs.b2 * u)
    return f1, f2


def truncated_drift(u, v, coeffs: CoefficientSet, radius: float, inside: bool = False):
    """(f_{n,1}, f_{n,2}): f composed with radial projection onto |z| <= radius.

    inside=True asserts that every |(u, v)| <= radius.  The projection is
    the identity there, so it is skipped and the result is bit-identical.
    """
    if radius <= 0:
        raise ValueError(f"truncation radius must be positive, got {radius}")
    if inside:
        return drift(u, v, coeffs)
    r = np.hypot(u, v)
    scale = np.where(r > radius, radius / np.maximum(r, 1e-300), 1.0)
    return drift(u * scale, v * scale, coeffs)


def drift_sup_bound(coeffs: CoefficientSet, radius: float) -> float:
    """Bound on |f_{n,i}| over the radius ball: n (sup m + n sup a + n sup b)."""
    bounds = []
    for m, a, b in ((coeffs.m1, coeffs.a1, coeffs.b1), (coeffs.m2, coeffs.a2, coeffs.b2)):
        bounds.append(radius * (m.max() + radius * a.max() + radius * b.max()))
    return float(max(bounds))


def drift_lipschitz_bound(coeffs: CoefficientSet, radius: float) -> float:
    """Lipschitz estimate for the truncated drift on all of R^2.

    Sum of partial-derivative sups on the ball, max over species:
    sup m + 2 n sup a + 2 n sup b.  The radial projection is 1-Lipschitz,
    so the composition inherits the estimate.
    """
    bounds = []
    for m, a, b in ((coeffs.m1, coeffs.a1, coeffs.b1), (coeffs.m2, coeffs.a2, coeffs.b2)):
        bounds.append(m.max() + 2.0 * radius * (a.max() + b.max()))
    return float(max(bounds))


def default_truncation_radius(init: Field) -> float:
    """n = 10 (1 + sup-norm of the initial state)."""
    return 10.0 * (1.0 + sup_norm(init.u, init.v))


def exceeds_radius(u: np.ndarray, v: np.ndarray, radius: float) -> bool:
    """Exit-time probe: has the state left the radius ball."""
    return bool(np.hypot(u, v).max() >= radius)
