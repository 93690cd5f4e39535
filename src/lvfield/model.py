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
from .noise import FieldError

COEFFICIENT_NAMES = ("m1", "a1", "b1", "sigma1", "m2", "a2", "b2", "sigma2")
# sigma may take either sign in principle but only sigma^2 enters anything
# observable; the nonnegativity requirement applies to the reaction rates.
_NONNEGATIVE = ("m1", "a1", "b1", "m2", "a2", "b2")


@dataclass(frozen=True)
class CoefficientSet:
    """Grid samples of the eight coefficient profiles, all shape (n,); a
    profile refused raises a FieldError that names it."""

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
                raise FieldError(name, f"coefficient {name} must be a 1d profile, "
                                       f"got shape {v.shape}")
            sizes.append(v.size)
        n = max(sizes)
        for name in COEFFICIENT_NAMES:
            v = np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
            if v.size == 1:
                v = np.full(n, v[0])
            if v.size != n:
                raise FieldError(name, f"coefficient {name} has {v.size} samples, expected {n}")
            if not np.all(np.isfinite(v)):
                raise FieldError(name, f"coefficient {name} contains non-finite samples")
            if name in _NONNEGATIVE and np.any(v < 0):
                raise FieldError(name, f"coefficient {name} must be nonnegative everywhere")
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
        return cls(**{name: _evaluate(name, sources.get(name, "0"), x)
                      for name in COEFFICIENT_NAMES})

    @classmethod
    def constant(cls, n: int, **scalars: float) -> "CoefficientSet":
        vals = {name: np.full(n, float(scalars.get(name, 0.0))) for name in COEFFICIENT_NAMES}
        return cls(**vals)

    def extinction_rate_bound(self, species: int) -> float:
        """R = sup m - (1/2) inf sigma^2; negative R forces extinction."""
        m, sigma = (self.m1, self.sigma1) if species == 0 else (self.m2, self.sigma2)
        return float(m.max()) - 0.5 * float((sigma**2).min())


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
        for name, w in (("u", u), ("v", v)):
            if not np.all(np.isfinite(w)):
                raise FieldError(name, "field contains non-finite samples")
            if np.any(w < 0):
                raise FieldError(name, "population fields must be nonnegative")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @property
    def n(self) -> int:
        return self.u.size

    @classmethod
    def from_expressions(cls, n: int, u0: str, v0: str) -> "Field":
        """The initial data on the grid; a refused profile raises a
        FieldError that names it, u0 or v0."""
        x = cell_centers(n)
        u, v = _evaluate("u0", u0, x), _evaluate("v0", v0, x)
        try:
            return cls(u, v)
        except FieldError as e:
            raise FieldError(e.field + "0", str(e)) from None


def _evaluate(name: str, src: str, x: np.ndarray) -> np.ndarray:
    """The profile src on the grid x; a failure raises a FieldError naming it."""
    try:
        return expr.evaluate(src, x)
    except ValueError as e:
        raise FieldError(name, str(e)) from None


def drift(u, v, coeffs: CoefficientSet):
    """(f_1, f_2) evaluated pointwise; u, v may carry leading batch axes."""
    f1 = u * (coeffs.m1 - coeffs.a1 * u - coeffs.b1 * v)
    f2 = v * (coeffs.m2 - coeffs.a2 * v - coeffs.b2 * u)
    return f1, f2


def truncated_drift(u, v, coeffs: CoefficientSet, radius: float):
    """(f_{n,1}, f_{n,2}): f composed with radial projection onto |z| <= radius."""
    if radius <= 0:
        raise ValueError(f"truncation radius must be positive, got {radius}")
    r = np.hypot(u, v)
    scale = np.where(r > radius, radius / np.maximum(r, 1e-300), 1.0)
    return drift(u * scale, v * scale, coeffs)


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
    """n = 10 (1 + sup over x of |(u(x), v(x))| for the initial state)."""
    return 10.0 * (1.0 + float(np.hypot(init.u, init.v).max()))

