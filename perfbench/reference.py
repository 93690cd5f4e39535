"""Independent single-path reference stepper for the seed-sweep check.

It imports nothing from lvfield.  It reproduces one `lvfield simulate` path
from the documented model, scheme and noise conventions alone:

  noise   one Philox stream per (master_seed, path, species), keyed by the
          first 16 bytes (little-endian) of
          sha256(b"lvfield.noise.v1" + pack("<qqq", seed, path, species)),
          consumed in step order; species 0 drives U and 1 drives V;
  fd      (I - dt L) u_next = u + dt f(P u) + sigma sqrt(dt n) u xi, with L
          the mirrored-ghost Neumann Laplacian, solved densely;
  spectral u_next = C^-1 diag(exp(-k^2 pi^2 dt)) C (u + dt f(P u) + sigma u dW),
          dW = C^-1 (sqrt(dt) xi) (white noise, one mode per cell), with C
          an explicit cosine matrix in place of a fast DCT;

where P is the radial projection onto the ball of the truncation radius and
every step ends with the clamp max(., 0).  Coefficients and initial data
must be constants.
"""

from __future__ import annotations

import configparser
import hashlib
import struct
from dataclasses import dataclass

import numpy as np

SEED_LIMIT = 2**63
COEFFICIENTS = ("m1", "a1", "b1", "sigma1", "m2", "a2", "b2", "sigma2")


def stream_key(seed: int, path: int, species: int) -> int:
    if not 0 <= seed < SEED_LIMIT:
        raise ValueError(f"seed {seed} outside [0, 2^63)")
    digest = hashlib.sha256(
        b"lvfield.noise.v1" + struct.pack("<qqq", seed, path, species)).digest()
    return int.from_bytes(digest[:16], "little")


def noise_stream(seed: int, path: int, species: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=stream_key(seed, path, species)))


def cell_centers(n: int) -> np.ndarray:
    return (np.arange(n) + 0.5) / n


def cosine_matrix(n: int) -> np.ndarray:
    """E[k, j] = e_k(x_j): e_0 = 1, e_k = sqrt(2) cos(k pi x)."""
    k = np.arange(n)[:, None]
    e = np.sqrt(2.0) * np.cos(np.pi * k * cell_centers(n)[None, :])
    e[0] = 1.0
    return e


def neumann_matrix(n: int, dt: float) -> np.ndarray:
    """Dense I - dt L, L the Laplacian with mirrored ghost cells."""
    lap = -2.0 * np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1)
    lap[0, 0] = lap[-1, -1] = -1.0
    return np.eye(n) - dt * n * n * lap


@dataclass(frozen=True)
class Model:
    n: int
    m1: float
    a1: float
    b1: float
    sigma1: float
    m2: float
    a2: float
    b2: float
    sigma2: float
    radius: float


class Stepper:
    """One scheme's step on a single path; arrays have shape (n,)."""

    def __init__(self, model: Model, scheme: str, dt: float):
        if scheme not in ("fd", "spectral"):
            raise ValueError(f"unknown scheme {scheme!r}")
        self.model, self.scheme, self.dt = model, scheme, dt
        n = model.n
        if scheme == "fd":
            self.matrix = neumann_matrix(n, dt)
        else:
            self.cos = cosine_matrix(n)
            self.damp = np.exp(-(np.arange(n) ** 2) * np.pi**2 * dt)

    def drift(self, u, v):
        m = self.model
        r = np.hypot(u, v)
        s = np.where(r > m.radius, m.radius / np.maximum(r, 1e-300), 1.0)
        pu, pv = s * u, s * v
        return pu * (m.m1 - m.a1 * pu - m.b1 * pv), pv * (m.m2 - m.a2 * pv - m.b2 * pu)

    def to_modes(self, values):
        return self.cos @ values / self.model.n

    def from_modes(self, coeffs):
        return coeffs @ self.cos

    def step(self, u, v, xi_u, xi_v):
        m, dt, n = self.model, self.dt, self.model.n
        f1, f2 = self.drift(u, v)
        if self.scheme == "fd":
            scale = np.sqrt(dt * n)
            rhs = np.stack([u + dt * f1 + m.sigma1 * scale * u * xi_u,
                            v + dt * f2 + m.sigma2 * scale * v * xi_v], axis=1)
            u_next, v_next = np.linalg.solve(self.matrix, rhs).T
        else:
            dw_u = self.from_modes(np.sqrt(dt) * xi_u)
            dw_v = self.from_modes(np.sqrt(dt) * xi_v)
            u_next = self.from_modes(self.damp * self.to_modes(u + dt * f1 + m.sigma1 * u * dw_u))
            v_next = self.from_modes(self.damp * self.to_modes(v + dt * f2 + m.sigma2 * v * dw_v))
        return np.maximum(u_next, 0.0), np.maximum(v_next, 0.0)


def simulate(stepper: Stepper, u0, v0, n_steps: int, seed: int, keep_steps,
             path: int = 0) -> dict:
    """{step: (u, v)} at each requested step of one path."""
    keep = set(keep_steps)
    gen_u, gen_v = noise_stream(seed, path, 0), noise_stream(seed, path, 1)
    n = stepper.model.n
    u, v = np.asarray(u0, float).copy(), np.asarray(v0, float).copy()
    out = {0: (u.copy(), v.copy())} if 0 in keep else {}
    for step in range(1, n_steps + 1):
        u, v = stepper.step(u, v, gen_u.standard_normal(n), gen_v.standard_normal(n))
        if step in keep:
            out[step] = (u.copy(), v.copy())
    return out


@dataclass(frozen=True)
class Run:
    """What a constant-coefficient simulate config asks for."""

    stepper: Stepper
    u0: np.ndarray
    v0: np.ndarray
    n_steps: int
    snapshot_times: tuple

    def snapshot_step(self, t: float) -> int:
        return round(t / self.stepper.dt)


def run_from_ini(path) -> Run:
    """Read the constant model, scheme, dt and snapshots of a config file.

    Only white noise with one mode per cell is read: configs that set
    weights or n_modes are refused.
    """
    ini = configparser.ConfigParser()
    ini.read(path)
    model, solver = ini["model"], ini["solver"]
    if ini.get("noise", "weights", fallback="white") != "white" or "n_modes" in solver \
            or ini.has_option("noise", "n_modes"):
        raise ValueError("the reference stepper reads white noise with one mode per cell only")
    n = int(model.get("n", "64"))
    coeffs = {k: float(model.get(k, "0")) for k in COEFFICIENTS}
    u0 = np.full(n, float(model["u0"]))
    v0 = np.full(n, float(model.get("v0", "0")))
    radius = float(solver.get("truncation_radius", "nan"))
    if not np.isfinite(radius):
        radius = 10.0 * (1.0 + float(np.hypot(u0, v0).max()))
    dt = float(solver.get("dt", "1e-3"))
    t_final = float(solver.get("t_final", "1.0"))
    snaps = tuple(float(t) for t in solver.get("snapshot_times", "").split(",") if t.strip())
    stepper = Stepper(Model(n=n, radius=radius, **coeffs),
                      solver.get("scheme", "fd"), dt)
    return Run(stepper, u0, v0, round(t_final / dt), snaps or (t_final,))
