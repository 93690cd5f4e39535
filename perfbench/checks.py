"""Correctness checks on lvfield's output files.

Every check reads files the CLI wrote and compares them with properties or
with computations made here, apart from lvfield (which is never imported):
the shipped regularity bands, monotone moment curves, the extinction rate
bound recomputed from the config, byte equality across worker counts, and
the independent reference stepper.  Each check returns (ok, detail).
"""

from __future__ import annotations

import configparser
import json
from pathlib import Path

import numpy as np

import reference

HOLDER_BANDS = {"space": (0.40, 0.55), "time": (0.18, 0.30)}
SNAPSHOT_TOLERANCE = 1e-9       # the reference agrees to ~1e-13; roundoff is ~1e-16


def read_csv(path: Path) -> list:
    """Rows of a CLI CSV file as dicts of strings; '#' header lines skipped."""
    lines = [l for l in Path(path).read_text().splitlines() if l and not l.startswith("#")]
    columns = lines[0].split(",")
    return [dict(zip(columns, l.split(","))) for l in lines[1:]]


def verdicts(out_dir: Path, expected: int):
    """The subcommand wrote `expected` verdicts and every one passed."""
    path = Path(out_dir) / "verdicts.csv"
    if not path.exists():
        return False, "no verdicts.csv"
    rows = read_csv(path)
    failed = [r["check_name"] for r in rows if r["pass"] != "true"]
    ok = len(rows) == expected and not failed
    return ok, f"{len(rows) - len(failed)}/{len(rows)} verdicts pass (want {expected}/{expected})"


def _moment_curves(out_dir: Path) -> dict:
    curves = {}
    for row in read_csv(Path(out_dir) / "holder_moments.csv"):
        curves.setdefault(row["direction"], []).append((float(row["lag"]), float(row["moment"])))
    return {d: np.array(sorted(c)) for d, c in curves.items()}


def holder_exponents(out_dir: Path, bands=HOLDER_BANDS):
    """Both exponents, as reported and as refitted here, lie in the bands.

    The refit is the least-squares slope of ln moment on ln lag over p.
    """
    reported = {r["direction"]: (float(r["exponent"]), int(r["p"]))
                for r in read_csv(Path(out_dir) / "holder.csv")}
    curves = _moment_curves(out_dir)
    details, ok = [], set(reported) == set(bands) == set(curves)
    for direction, (lo, hi) in bands.items():
        if direction not in reported or direction not in curves:
            details.append(f"{direction}: missing")
            continue
        exponent, p = reported[direction]
        lag, moment = curves[direction].T
        refit = np.polyfit(np.log(lag), np.log(moment), 1)[0] / p
        ok &= lo <= exponent <= hi and lo <= refit <= hi and abs(refit - exponent) <= 1e-9
        details.append(f"{direction} {exponent:.4f} (refit {refit:.4f}) in [{lo}, {hi}]")
    return bool(ok), "; ".join(details)


def holder_moments_increase(out_dir: Path):
    """Each moment curve in holder_moments.csv increases strictly with lag."""
    curves = _moment_curves(out_dir)
    bad = [d for d, c in curves.items() if not np.all(np.diff(c[:, 1]) > 0)]
    return bool(curves) and not bad, f"{len(curves)} curves, not increasing: {bad or 'none'}"


def _constant(section, key, default="0") -> float:
    try:
        return float(section.get(key, default))
    except ValueError:
        raise ValueError(f"{key} is not a constant; the rate bound is computed for constants")


def extinction_slope(out_dir: Path, config: Path):
    """Tail slope of mean log mass <= R + 3 SE, with R and the fit made here.

    R = sup m - inf sigma^2 / 2 for the configured species, from the config's
    numbers.  The slope is the least-squares fit of mean_log_mass on time
    over the config's tail window; its SE propagates the per-time `se`
    column through the fit weights as if the times were independent.  The
    verdict's reported slope must equal the refit.
    """
    ini = configparser.ConfigParser()
    ini.read(config)
    opts = ini["extinction"]
    suffix = "1" if opts.get("species", "u") == "u" else "2"
    m = _constant(ini["model"], "m" + suffix)
    sigma = _constant(ini["model"], "sigma" + suffix)
    r_bound = m - 0.5 * sigma**2
    lo = float(opts.get("window_start", "5.0"))
    hi = float(opts.get("window_end", "inf"))

    rows = read_csv(Path(out_dir) / "extinction.csv")
    t = np.array([float(r["time"]) for r in rows])
    y = np.array([float(r["mean_log_mass"]) for r in rows])
    se = np.array([float(r["se"]) for r in rows])
    window = (t >= lo) & (t <= hi)
    tw = t[window] - t[window].mean()
    weights = tw / np.sum(tw**2)
    slope = float(weights @ y[window])
    slope_se = float(np.sqrt(np.sum(weights**2 * se[window] ** 2)))

    reported = {r["check_name"]: float(r["statistic"])
                for r in read_csv(Path(out_dir) / "verdicts.csv")}
    agree = abs(reported.get("log-mass-decay-slope", np.nan) - slope) <= 1e-9
    ok = slope <= r_bound + 3.0 * slope_se and agree
    return bool(ok), (f"slope {slope:.4f} <= R {r_bound:.4f} + 3 x {slope_se:.4f}; "
                      f"reported slope {'agrees' if agree else 'differs'}")


def same_bytes(dir_a: Path, dir_b: Path, skip=("runtime.json",)):
    """Both directories hold the same files with the same bytes, `skip` aside."""
    names = lambda d: sorted(p.name for p in Path(d).iterdir() if p.name not in skip)
    files = names(dir_a)
    if files != names(dir_b):
        return False, f"file sets differ: {files} vs {names(dir_b)}"
    differ = [f for f in files
              if (Path(dir_a) / f).read_bytes() != (Path(dir_b) / f).read_bytes()]
    return not differ, f"{len(files)} files, differing: {differ or 'none'}"


def snapshots_match_reference(out_dir: Path, config: Path, seed: int):
    """The reference stepper reproduces every snapshot of one simulate run."""
    run = reference.run_from_ini(config)
    lines = (Path(out_dir) / "snapshots.ndjson").read_text().splitlines()
    meta, snaps = json.loads(lines[0]), [json.loads(l) for l in lines[1:]]
    if meta.get("seed") != seed or meta.get("scheme") != run.stepper.scheme:
        return False, f"meta {meta} does not name seed {seed} and scheme {run.stepper.scheme}"
    steps = [run.snapshot_step(s["t"]) for s in snaps]
    if steps != [run.snapshot_step(t) for t in run.snapshot_times]:
        return False, f"snapshot times {[s['t'] for s in snaps]} differ from the config's"
    ref = reference.simulate(run.stepper, run.u0, run.v0, run.n_steps, seed, steps)
    err = max(float(np.max(np.abs(np.array(s[key]) - ref[k][i])))
              for s, k in zip(snaps, steps) for i, key in enumerate(("U", "V")))
    return err <= SNAPSHOT_TOLERANCE, f"{len(snaps)} snapshots, max |diff| {err:.2e}"
