#!/usr/bin/env python3
"""Strong self-refinement study: RMS distance between dt-halved runs.

Noise is drawn once at the finest level and pair-aggregated upward
(xi' = (xi_1 + xi_2)/sqrt(2)), so every level sees the same Brownian sheet
and successive differences measure the time-discretization error alone.
In the resolved regime (dt * lambda_max <~ 1) the decay order is ~0.5-0.7;
with much stiffer grids it degrades toward the rough-noise limit.
"""
import argparse

import numpy as np

from lvfield.analysis import fit_loglog
from lvfield.kernel import cell_centers
from lvfield.model import CoefficientSet, Field
from lvfield.solver import diffusion_multiplier, euler_step


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=16)
    ap.add_argument("--t-final", type=float, default=0.25)
    ap.add_argument("--paths", type=int, default=64)
    ap.add_argument("--dt0", type=float, default=1e-3)
    ap.add_argument("--levels", type=int, default=4)
    ap.add_argument("--sigma", type=float, default=0.3)
    ap.add_argument("--seed", type=int, default=2024)
    args = ap.parse_args(argv)

    n = args.n
    dts = [args.dt0 / 2**k for k in range(args.levels)]
    n_fine = round(args.t_final / dts[-1])
    coeffs = CoefficientSet.constant(n, m1=0.8, a1=0.8, sigma1=args.sigma,
                                     m2=0.5, a2=0.5, sigma2=args.sigma)
    x = cell_centers(n)
    init = Field(0.5 + 0.2 * np.cos(np.pi * x), np.full(n, 0.4))
    rng = np.random.default_rng(args.seed)
    xi_u = rng.standard_normal((args.paths, n_fine, n))
    xi_v = rng.standard_normal((args.paths, n_fine, n))

    print(f"n = {n}, dt0 * lambda_max = {dts[0] * 4 * n * n:.2f}")
    finals = []
    for dt in dts:
        fold = round(dt / dts[-1])
        n_steps = round(args.t_final / dt)
        agg_u = xi_u.reshape(args.paths, n_steps, fold, n).sum(axis=2) / np.sqrt(fold)
        agg_v = xi_v.reshape(args.paths, n_steps, fold, n).sum(axis=2) / np.sqrt(fold)
        state = np.stack([np.tile(init.u, (args.paths, 1)), np.tile(init.v, (args.paths, 1))])
        multiplier = diffusion_multiplier("fd", n, dt)
        for s in range(n_steps):
            state, _ = euler_step(state, np.stack([agg_u[:, s], agg_v[:, s]]), coeffs,
                                  dt, radius=20.0, scheme="fd", multiplier=multiplier)
        finals.append(state)

    errors = []
    for dt, (u_c, v_c), (u_f, v_f) in zip(dts, finals[:-1], finals[1:]):
        sq = ((u_c - u_f) ** 2 + (v_c - v_f) ** 2).mean(axis=1)
        errors.append(np.sqrt(sq.mean()))
        print(f"dt = {dt:.2e} vs {dt / 2:.2e}: rms {errors[-1]:.4e}")
    slope, _, r2 = fit_loglog(np.array(dts[:-1]), np.array(errors))
    print(f"observed order {slope:.3f} (r2 = {r2:.4f})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
