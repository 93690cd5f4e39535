#!/usr/bin/env python3
"""Self-test of the benchmark harness; about half a minute on 2 cores.

    python3 perfbench/selftest.py        (or: python3 -m pytest perfbench/selftest.py)

1. The reference stepper against exact properties of the pure heat flow
   (sigma = 0, m = a = b = 0): mass is conserved and cosine mode k decays
   each step by 1 / (1 + 4 dt n^2 sin^2(k pi / 2n)) under fd and by
   exp(-k^2 pi^2 dt) under spectral.
2. Each workload's pipeline, traced, on toy-size copies of its configs:
   every subcommand exits, every metric is produced, the exact checks pass
   (reference stepper, byte equality), and each check rejects a corrupted
   copy of the output it passed.  The statistical checks run too, but toy
   sizes cannot promise their outcome.
"""

from __future__ import annotations

import re
import shutil
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks      # noqa: E402
import reference   # noqa: E402
import run as bench  # noqa: E402

TOY = bench.OUT / "selftest"


# ---------------------------------------------------------------------------
# 1. Reference stepper on the pure heat flow
# ---------------------------------------------------------------------------

def heat_stepper(scheme: str, n: int = 32, dt: float = 1e-3) -> reference.Stepper:
    model = reference.Model(n=n, m1=0, a1=0, b1=0, sigma1=0, m2=0, a2=0, b2=0,
                            sigma2=0, radius=1e6)
    return reference.Stepper(model, scheme, dt)


def exact_factor(scheme: str, k: int, n: int, dt: float) -> float:
    if scheme == "fd":
        return 1.0 / (1.0 + 4.0 * dt * n * n * np.sin(k * np.pi / (2 * n)) ** 2)
    return float(np.exp(-(k**2) * np.pi**2 * dt))


def test_reference_heat_flow():
    n, dt = 32, 1e-3
    x = reference.cell_centers(n)
    zeros = np.zeros(n)
    for scheme in ("fd", "spectral"):
        stepper = heat_stepper(scheme, n, dt)
        for k in (1, 3, 8, 31):
            mode = np.sqrt(2.0) * np.cos(k * np.pi * x)
            u = 2.0 + mode                     # positive, so the clamp is idle
            for step in range(1, 6):
                u, _ = stepper.step(u, zeros, zeros, zeros)
                assert abs(u.mean() - 2.0) < 1e-13, (scheme, k, "mass")
                coeff = float(mode @ u) / n
                expect = exact_factor(scheme, k, n, dt) ** step
                assert abs(coeff - expect) < 1e-12, (scheme, k, step, coeff, expect)


def test_reference_clamp_and_projection():
    model = reference.Model(n=8, m1=1, a1=1, b1=0, sigma1=0, m2=0, a2=0, b2=0,
                            sigma2=0, radius=2.0)
    stepper = reference.Stepper(model, "fd", 1e-3)
    u = np.full(8, 4.0)                        # |(u, v)| = 4: projected onto radius 2
    f1, _ = stepper.drift(u, np.zeros(8))
    assert np.allclose(f1, 2.0 * (1.0 - 2.0))
    u_next, _ = stepper.step(np.full(8, 0.1), np.zeros(8), np.full(8, -1e6), np.zeros(8))
    assert np.all(u_next > 0.0)                # sigma = 0: the draw is ignored
    u_next, _ = reference.Stepper(replace(model, sigma1=1.0), "fd", 1e-3).step(
        np.full(8, 0.1), np.zeros(8), np.full(8, -1e3), np.zeros(8))
    assert np.all(u_next == 0.0)               # a large negative kick is clamped


# ---------------------------------------------------------------------------
# 2. Workload pipelines at toy size
# ---------------------------------------------------------------------------

def toy_config(src: Path, **values) -> Path:
    text = src.read_text()
    for key, value in values.items():
        text, hits = re.subn(rf"(?m)^{key} = .*$", f"{key} = {value}", text)
        assert hits == 1, key
    dst = TOY / src.name
    dst.write_text(text)
    return dst


def toy_workloads() -> dict:
    TOY.mkdir(parents=True, exist_ok=True)
    holder = bench.HolderFd128()
    holder.config = toy_config(holder.config, n_paths=8, t_final=0.012, stats_after=0.004,
                               time_lags="10, 20, 40, 80, 160")
    extinction = bench.ExtinctionSpectral2w()
    extinction.config = toy_config(extinction.config, n_paths=8, t_final=1.0,
                                   window_start=0.3, window_end=1.0)
    sweep = bench.SeedSweepCli()
    sweep.configs = tuple(toy_config(c, t_final=0.1, snapshot_times="0.05, 0.1")
                          for c in sweep.configs)
    return {"holder-fd128": holder, "extinction-spectral-2w": extinction,
            "seed-sweep-cli": sweep}


EXACT_CHECKS = ("reference reproduces", "output equals")


def run_toy(name, workload) -> bench.Run:
    run = bench.Run(name, seed=0)
    workload.round(run, 0, traced=True)
    metrics = {**bench.end_to_end(run, bench.round_samples(run)), **bench.per_layer(run)[0]}
    assert set(metrics) == set(bench.END_TO_END) | set(bench.PER_LAYER)
    assert all(np.isfinite(v) for v in metrics.values()), metrics
    assert metrics["trace.absent_layers"] == 0
    assert metrics["noise.normals_per_step"] > 0 and metrics["wall_s"] > 0
    for op, ok, detail in run.ops:
        if op.startswith(EXACT_CHECKS):
            assert ok, (op, detail)
    return run


def corrupt(src: Path, name: str, edit) -> Path:
    dst = TOY / "corrupt"
    shutil.rmtree(dst, ignore_errors=True)
    shutil.copytree(src, dst)
    path = dst / name
    path.write_text(edit(path.read_text()))
    return dst


def test_holder_pipeline():
    workload = toy_workloads()["holder-fd128"]
    run = run_toy("holder-fd128", workload)
    out = bench.OUT / "holder-fd128" / "holder"
    assert len(run.ops) == 4 and run.traced and run.overhead
    # Corrupted copies: one moment made non-increasing, one exponent off band.
    flat = corrupt(out, "holder_moments.csv",
                   lambda t: re.sub(r"(?m)^(space,[^,]+,).*$", r"\g<1>1.0", t))
    assert not checks.holder_moments_increase(flat)[0]
    assert not checks.holder_exponents(flat)[0]


def test_extinction_pipeline():
    workload = toy_workloads()["extinction-spectral-2w"]
    run = run_toy("extinction-spectral-2w", workload)
    out = bench.OUT / "extinction-spectral-2w"
    assert len(run.ops) == 5
    worker_runs = [res for res, threads in run.pool if threads == 2]
    assert worker_runs and bench.per_layer(run)[0]["solver.chunks"] >= 2
    # A rising log mass must break the slope check; one changed byte, equality.
    rising = corrupt(out / "extinction", "extinction.csv",
                     lambda t: re.sub(r"(?m)^([0-9.e-]+),[^,]+,",
                                      lambda m: f"{m[1]},{float(m[1])},", t))
    assert not checks.extinction_slope(rising, workload.config)[0]
    changed = corrupt(out / "extinction", "verdicts.csv", lambda t: t + "\n")
    assert not checks.same_bytes(changed, out / "extinction-1w")[0]


def test_seed_sweep_pipeline():
    workload = toy_workloads()["seed-sweep-cli"]
    run = run_toy("seed-sweep-cli", workload)
    assert len(run.ops) == 6 and all(ok for _, ok, _ in run.ops), run.ops
    fd_config = workload.configs[0]
    out = bench.OUT / "seed-sweep-cli" / fd_config.stem
    seed = run.seed(0)
    assert checks.snapshots_match_reference(out, fd_config, seed)[0]
    nudged = corrupt(out, "snapshots.ndjson", lambda t: _nudge_first_value(t, 1e-6))
    assert not checks.snapshots_match_reference(nudged, fd_config, seed)[0]
    assert not checks.snapshots_match_reference(out, fd_config, seed + 1)[0]


def _nudge_first_value(text: str, delta: float) -> str:
    head, tail = text.split('"U": [', 1)
    value, rest = tail.split(",", 1)
    return f'{head}"U": [{float(value) + delta!r},{rest}'


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"ok      {name}")
        except AssertionError as e:
            failed += 1
            print(f"FAILED  {name}: {e!r}")
    print(f"{len(tests) - failed}/{len(tests)} self-tests passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
