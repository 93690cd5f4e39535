"""Neumann heat kernel on [0, 1]: dual representations, semigroup, increment functionals.

The kernel is available two ways and the two must agree:

  image sum      G_t(x, y) = (4 pi t)^(-1/2) * sum_n [ exp(-(y - x - 2n)^2 / 4t)
                                                     + exp(-(y + x - 2n)^2 / 4t) ]
  eigen series   G_t(x, y) = 1 + sum_{n>=1} 2 exp(-n^2 pi^2 t) cos(n pi x) cos(n pi y)

The image sum converges fast for small t, the eigen series for large t.  The
discrete semigroup e^{t L} acts diagonally on the DCT-II modes of a grid
function with multipliers exp(-k^2 pi^2 t).

The five functions at the bottom (space_increment,
space_increment_time_integrated, square_tail, time_increment_integrated,
time_increment_fixed) are the squared-kernel integrals controlling space and
time regularity of stochastic convolutions; each docstring names the modulus
it is bounded by.  Each is a midpoint quadrature in the xi variable of the
truncated eigen series; the time-integrated ones apply the composite
midpoint rule in the substituted variable w = sqrt(gap), which removes the
(gap)^(-1/2) endpoint singularity of the integrand.  For
mode cap K < n_quad the midpoint cosine orthogonality

  (1/n_quad) sum_q cos(n pi xi_q) cos(m pi xi_q) = delta_nm / 2   (1 <= n, m < n_quad)

makes the xi quadrature of a squared truncated series equal to its diagonal
sum exactly, so the implementation evaluates that diagonal form; it matches
the literal grid sum to rounding and the tests check this.
"""

from __future__ import annotations

import numpy as np

from .grid import cell_centers, from_modes, to_modes

# Eigen series truncation rule: keep modes until exp(-K^2 pi^2 t) < MODE_TOL.
MODE_TOL = 1e-14

# Representation switch of kernel_mass_defect.  Both representations are
# well converged near the switch point with the default truncations.
T_SWITCH = 0.01

# Images n = -N_IMAGES..N_IMAGES of the image sum.  The tail decays like
# exp(-n^2 / t), so this covers every t of practical interest.
N_IMAGES = 20
DEFAULT_N_QUAD = 2048

# The time-integrated functionals have integrands ~ (gap)^(-1/2) at the moving
# endpoint and carry an appreciable share of their value at very fine xi
# scales, so they default to a larger mode budget than the single-time ones.
DEFAULT_N_QUAD_INTEGRATED = 16384
DEFAULT_N_TIME = 4096
_TIME_CHUNK = 512


def _check_time(t: float, name: str = "t") -> float:
    t = float(t)
    if not np.isfinite(t) or t <= 0.0:
        raise ValueError(f"{name} must be a finite positive time, got {t}")
    return t


def modes_for_time(t: float, n_quad: int | None = None) -> int:
    """Smallest K with exp(-K^2 pi^2 t) < MODE_TOL, capped below n_quad."""
    t = _check_time(t)
    k = int(np.ceil(np.sqrt(np.log(1.0 / MODE_TOL) / (np.pi**2 * t)))) + 1
    if n_quad is not None:
        k = min(k, n_quad - 1)
    return max(k, 1)


def kernel_image_sum(t, x, y):
    """Neumann heat kernel via the method of images, at time t > 0 and
    points x, y in [0, 1] broadcast together."""
    t = _check_time(t)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    ns = 2.0 * np.arange(-N_IMAGES, N_IMAGES + 1)
    d1 = y[..., None] - x[..., None] - ns
    d2 = y[..., None] + x[..., None] - ns
    total = np.exp(-(d1**2) / (4.0 * t)).sum(axis=-1) + np.exp(-(d2**2) / (4.0 * t)).sum(axis=-1)
    out = total / np.sqrt(4.0 * np.pi * t)
    return out if out.ndim else float(out)


def kernel_eigen_series(t, x, y):
    """Neumann heat kernel via the cosine eigenfunction expansion, truncated
    at modes_for_time(t)."""
    t = _check_time(t)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = np.arange(1, modes_for_time(t) + 1)
    decay = 2.0 * np.exp(-(n**2) * np.pi**2 * t)
    out = 1.0 + np.sum(decay * np.cos(n * np.pi * x[..., None]) * np.cos(n * np.pi * y[..., None]), axis=-1)
    return out if out.ndim else float(out)


def kernel_mass_defect(t: float, x, n_quad: int = DEFAULT_N_QUAD) -> float:
    """Max |h sum_q G_t(x, xi_q) - 1| over the given x values.

    Conservation of mass under Neumann boundary conditions; the quadrature is
    the literal midpoint sum of the kernel, the image sum below T_SWITCH and
    the eigen series above.
    """
    xi = cell_centers(n_quad)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    kernel = kernel_image_sum if t < T_SWITCH else kernel_eigen_series
    vals = kernel(t, x[:, None], xi[None, :])
    return float(np.max(np.abs(vals.mean(axis=-1) - 1.0)))


def semigroup_apply(u, t: float):
    """Heat semigroup e^{t Laplacian} with Neumann conditions on a grid function.

    Acts diagonally on the DCT-II modes with multipliers exp(-k^2 pi^2 t);
    t = 0 is the identity.  u holds grid samples along its last axis.
    """
    if t < 0.0:
        raise ValueError(f"semigroup time must be >= 0, got {t}")
    u = np.asarray(u, dtype=float)
    k = np.arange(u.shape[-1])
    return from_modes(to_modes(u) * np.exp(-(k**2) * np.pi**2 * t))


def semigroup_compose_defect(u, s: float, t: float) -> float:
    """Sup-norm defect of e^{s L} e^{t L} u = e^{(s+t) L} u."""
    two_step = semigroup_apply(semigroup_apply(u, t), s)
    one_step = semigroup_apply(u, s + t)
    return float(np.max(np.abs(two_step - one_step)))


def gaussian_comparison_sweep(times) -> tuple[float, float]:
    """(inf, sup) of G_t(x, y) over the reference Gaussian
    (2 pi t)^(-1/2) exp(-|x-y|^2 / 2t) on a 20 x 20 lattice of (x, y), at
    each of the given times.

    The check is qualitative: the ratio must stay within a finite positive
    envelope on the sweep.  No universal constants are asserted.
    """
    x = cell_centers(20)[:, None]
    y = x.T
    lo, hi = np.inf, -np.inf
    for t in times:
        t = _check_time(t)
        ref = np.exp(-((x - y) ** 2) / (2.0 * t)) / np.sqrt(2.0 * np.pi * t)
        r = kernel_image_sum(t, x, y) / ref
        lo = min(lo, float(r.min()))
        hi = max(hi, float(r.max()))
    return lo, hi


# ---------------------------------------------------------------------------
# Squared-kernel increment functionals.  n_quad: xi midpoint cells, which cap
# the eigen modes at n_quad - 1; n_time: midpoint cells of the time integral.
# ---------------------------------------------------------------------------

def _modes(t_min: float, n_quad: int) -> tuple[np.ndarray, np.ndarray]:
    # The eigen modes n = 1 .. K of the shortest time t_min and their
    # eigenvalues n^2 pi^2.
    n = np.arange(1, modes_for_time(float(t_min), n_quad) + 1)
    return n, n**2 * np.pi**2


def _squared_series(decay, profile, const=0.0):
    # xi-midpoint quadrature of (const + sum_n 2 decay_n profile_n
    # cos(n pi xi))^2 for each row of decay, via orthogonality; equals the
    # literal grid sum for K < n_quad.
    coeffs = 2.0 * decay * profile
    return const**2 + 0.5 * np.sum(coeffs**2, axis=-1)


def _space_increment_integrand(times, x, y, n_quad):
    # int (G_u(x, .) - G_u(y, .))^2 dxi for each u in times; the constant
    # modes cancel in the difference.
    n, lam = _modes(np.min(times), n_quad)
    return _squared_series(np.exp(-np.outer(times, lam)),
                           np.cos(n * np.pi * x) - np.cos(n * np.pi * y))


def _square_integrand(times, x, n_quad):
    # int G_u(x, .)^2 dxi for each u in times.
    n, lam = _modes(np.min(times), n_quad)
    return _squared_series(np.exp(-np.outer(times, lam)), np.cos(n * np.pi * x), const=1.0)


def _time_increment_integrand(gaps_t, gaps_s, x, n_quad):
    # int (G_{u}(x, .) - G_{v}(x, .))^2 dxi for paired times u = gaps_t,
    # v = gaps_s; constants cancel.
    n, lam = _modes(min(np.min(gaps_t), np.min(gaps_s)), n_quad)
    return _squared_series(np.exp(-np.outer(gaps_t, lam)) - np.exp(-np.outer(gaps_s, lam)),
                           np.cos(n * np.pi * x))


def _time_integral(integrand, length: float, n_time: int) -> float:
    # int_0^length integrand(u) du with the integrand singular like u^(-1/2)
    # at u = 0.  Substituting u = w^2 gives int_0^sqrt(length) f(w^2) 2w dw
    # with a bounded integrand, evaluated by the composite midpoint rule;
    # cells are processed in chunks (the near-zero chunk needs many modes).
    wmax = np.sqrt(length)
    dw = wmax / n_time
    total = 0.0
    for start in range(0, n_time, _TIME_CHUNK):
        stop = min(start + _TIME_CHUNK, n_time)
        w = (np.arange(start, stop) + 0.5) * dw
        total += float(np.sum(integrand(w**2) * 2.0 * w))
    return total * dw


def _check_gap(s: float, t: float) -> tuple:
    s, t = float(s), _check_time(t)
    if not 0.0 < s < t:
        raise ValueError(f"need 0 < s < t, got s={s}, t={t}")
    return s, t


def space_increment(t: float, x: float, y: float, n_quad: int = DEFAULT_N_QUAD) -> float:
    """int (G_t(x, xi) - G_t(y, xi))^2 dxi, bounded by |x-y|^2 / t^(3/2)."""
    return float(_space_increment_integrand([_check_time(t)], x, y, n_quad)[0])


def space_increment_time_integrated(t: float, x: float, y: float,
                                    n_quad: int = DEFAULT_N_QUAD_INTEGRATED,
                                    n_time: int = DEFAULT_N_TIME) -> float:
    """int_0^t int (G_r(x, xi) - G_r(y, xi))^2 dxi dr, bounded by |x-y|."""
    return _time_integral(lambda u: _space_increment_integrand(u, x, y, n_quad),
                          _check_time(t), n_time)


def square_tail(s: float, t: float, x: float, n_quad: int = DEFAULT_N_QUAD_INTEGRATED,
                n_time: int = DEFAULT_N_TIME) -> float:
    """int_s^t int G_{t-r}(x, xi)^2 dxi dr, bounded by (t-s)^(1/2)."""
    s, t = _check_gap(s, t)
    # gap u = t - r in (0, t - s)
    return _time_integral(lambda u: _square_integrand(u, x, n_quad), t - s, n_time)


def time_increment_integrated(s: float, t: float, x: float,
                              n_quad: int = DEFAULT_N_QUAD_INTEGRATED,
                              n_time: int = DEFAULT_N_TIME) -> float:
    """int_0^s int (G_{t-r}(x, xi) - G_{s-r}(x, xi))^2 dxi dr, bounded by
    (t-s)^(1/2)."""
    s, t = _check_gap(s, t)
    # gap u = s - r in (0, s)
    return _time_integral(lambda u: _time_increment_integrand(t - s + u, u, x, n_quad),
                          s, n_time)


def time_increment_fixed(s: float, t: float, x: float, n_quad: int = DEFAULT_N_QUAD) -> float:
    """int (G_t(x, xi) - G_s(x, xi))^2 dxi, bounded by (t-s)^(1/2)."""
    s, t = _check_gap(s, t)
    return float(_time_increment_integrand([t], [s], x, n_quad)[0])
