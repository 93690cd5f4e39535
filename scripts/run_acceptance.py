#!/usr/bin/env python3
"""Run every shipped config through its CLI subcommand and tally verdicts.

The two *_control configs are out-of-hypothesis runs whose checks are
supposed to fail; for those an exit status of 1 with a written verdicts.csv
is the expected outcome (exit 2 and 3, config and runtime errors, write
none).
Everything else must exit 0.  Total wall time is dominated by the holder
and invariant ensembles (several minutes each).
"""
import argparse
import subprocess
import sys
import time
from pathlib import Path

RUNS = [
    ("kernel.ini", "kernel-check", 0),
    ("noise.ini", "noise-check", 0),
    ("logistic.ini", "simulate", 0),
    ("mild_audit.ini", "simulate", 0),
    ("benchmark.ini", "ensemble", 0),
    ("linear_mean.ini", "ensemble", 0),
    ("extinction.ini", "extinction", 0),
    ("holder.ini", "holder", 0),
    ("holder_rough.ini", "holder", 0),
    ("invariant.ini", "invariant", 0),
    ("invariant_control.ini", "invariant", 1),
    ("density.ini", "density", 0),
    ("density_control.ini", "density", 1),
]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--configs", type=Path,
                    default=Path(__file__).resolve().parent.parent / "configs")
    ap.add_argument("--out", type=Path, default=Path("out/acceptance"))
    ap.add_argument("--only", default="",
                    help="substring filter on config names")
    args = ap.parse_args(argv)

    results = []
    for name, command, want in RUNS:
        if args.only and args.only not in name:
            continue
        out_dir = args.out / f"{Path(name).stem}-{command}"
        cmd = [sys.executable, "-m", "lvfield", command,
               "--config", str(args.configs / name), "--out", str(out_dir)]
        print(f">> {command} {name}", flush=True)
        verdicts = out_dir / "verdicts.csv"
        verdicts.unlink(missing_ok=True)      # left by an earlier run
        t0 = time.time()
        proc = subprocess.run(cmd)
        # a control must fail a check, not crash: exit 1 with its verdicts
        ok = proc.returncode == want and (want != 1 or verdicts.exists())
        results.append((name, command, want, proc.returncode, time.time() - t0, ok))
        print(f"   exit {proc.returncode} (expected {want}) "
              f"in {results[-1][4]:.1f} s", flush=True)

    print()
    width = max(len(r[0]) for r in results) if results else 10
    for name, command, want, got, dt, ok in results:
        mark = "ok" if ok else "UNEXPECTED"
        print(f"{name:<{width}}  {command:<13} exit {got} "
              f"(want {want})  {dt:7.1f} s  {mark}")
    bad = sum(not r[5] for r in results)
    print(f"\n{len(results) - bad}/{len(results)} runs behaved as expected")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
