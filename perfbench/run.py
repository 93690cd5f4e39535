#!/usr/bin/env python3
"""lvfield benchmark: three shortened scenarios, timed end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from src/).
Workloads, closed loop, one subcommand at a time, each in a fresh process:

  holder-fd128            `holder` on perfbench/configs/holder_fd128.ini
  extinction-spectral-2w  `extinction` on extinction_spectral.ini, 2 workers
  seed-sweep-cli          single-path `simulate` runs on consecutive seeds,
                          alternating mild_audit_fd.ini and
                          mild_audit_spectral.ini

A run repeats whole rounds of its workload until S seconds have passed.  An
operation is one subcommand run (fails on a nonzero exit or a failed
verdict) or one correctness check (see checks.py).  With --trace 0 the last
line of stdout is a JSON object with the end-to-end metrics; with --trace 1
the rounds also run the subcommands under the span wrappers of spans.py and
the object holds the per-layer metrics instead.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIGS = HERE / "configs"
OUT = HERE / "out"
SEED_LIMIT = 2**63
MIN_SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 170

END_TO_END = {"wall_s": "s", "setup_s": "s", "path_steps_per_s": "1/s",
              "cpu_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "noise.draw_ms_per_step": "ms", "noise.normals_per_step": "count",
    "model.drift_ms_per_step": "ms", "model.projection_needed_share": "share",
    "solver.solve_ms_per_step": "ms", "solver.step_self_ms_per_step": "ms",
    "solver.loop_self_ms_per_step": "ms", "solver.clamp_needed_share": "share",
    "solver.chunks": "count", "solver.merge_ms": "ms",
    "solver.worker_busy_share": "share",
    "grid.transform_ms_per_step": "ms", "grid.transforms_per_step": "count",
    "analysis.estimator_s": "s",
    "cli.import_s": "s", "config.load_s": "s", "config.build_s": "s",
    "cli.write_s": "s", "cli.bytes_written": "bytes",
    "trace.overhead_share": "share", "trace.absent_layers": "count",
}


class HarnessError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed operation)."""


def derive_seed(seed: int, workload: str) -> int:
    digest = hashlib.sha256(f"lvfield-bench:{workload}:{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "little") % SEED_LIMIT


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def probe(level: str, command: str, config: Path, seed: int, label: str,
          threads: int | None = None) -> dict:
    """Run perfbench/probe.py in a fresh process group and return its result.

    elapsed_s is the process's wall time from start to exit, as a user's shell
    would time the subcommand; cpu_s is its CPU time, user plus system, pool
    workers included.
    """
    out_dir = OUT / label
    result_file, log_file = out_dir.with_suffix(".json"), out_dir.with_suffix(".log")
    for path in (result_file, *(out_dir.iterdir() if out_dir.is_dir() else ())):
        path.unlink(missing_ok=True)
    out_dir.mkdir(parents=True, exist_ok=True)
    argv = [sys.executable, str(HERE / "probe.py"), level, str(result_file), command,
            "--config", str(config.relative_to(ROOT)), "--seed", str(seed),
            "--out", str(out_dir.relative_to(ROOT))]
    if threads is not None:
        argv += ["--threads", str(threads)]
    before, start = children_cpu_s(), time.perf_counter()
    with open(log_file, "w") as log:
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
    if proc.returncode != 0 or not result_file.exists():
        raise HarnessError(f"probe {' '.join(argv[2:])} exited {proc.returncode}; see {log_file}")
    elapsed = time.perf_counter() - start
    result = json.loads(result_file.read_text())
    result.update(elapsed_s=elapsed, cpu_s=children_cpu_s() - before, out_dir=out_dir,
                  level=level)
    return result


class Run:
    """Operations and samples of one benchmark run."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.base_seed = derive_seed(seed, name)
        self.ops = []                 # (name, ok, detail)
        self.rounds = []              # per round: the untraced-equivalent calls
        self.setups = []              # set-up samples, dicts of import/load/build
        self.traced = []              # results of "full" probes
        self.pool = []                # results that give the pool metrics
        self.overhead = []            # (traced wall, untraced wall)

    def seed(self, k: int) -> int:
        return (self.base_seed + k) % SEED_LIMIT

    def call(self, level, command, config, seed, label, threads=None, expect=None):
        """One subcommand run as an operation; returns the probe result."""
        result = probe(level, command, config, seed, f"{self.name}/{label}", threads)
        self.setups.append(result["setup"])
        ok, detail = result["rc"] == 0, f"exit {result['rc']}"
        if expect is not None:
            v_ok, v_detail = checks.verdicts(result["out_dir"], expect)
            ok, detail = ok and v_ok, f"{detail}, {v_detail}"
        self.ops.append((f"{command} {label} seed={seed}", ok, detail))
        return result

    def check(self, name, fn, *args):
        try:
            ok, detail = fn(*args)
        except (OSError, ValueError, KeyError, IndexError) as e:
            ok, detail = False, f"{type(e).__name__}: {e}"
        self.ops.append((name, bool(ok), detail))

    def traced_call(self, command, config, seed, label, threads=None, expect=None):
        """Run under full spans, then untraced with the same seed for the overhead."""
        full = self.call("full", command, config, seed, label, threads, expect)
        plain = self.call("plain", command, config, seed, label + "-untraced", threads, expect)
        self.traced.append(full)
        self.overhead.append((full["wall_s"], plain["wall_s"]))
        return full, plain


# ---------------------------------------------------------------------------
# Workloads.  round(run, r, traced) appends one round's operations.
# ---------------------------------------------------------------------------

class HolderFd128:
    """Ensemble step work dominates: fd scheme, sheet noise, n = 128, 128 paths."""

    config = CONFIGS / "holder_fd128.ini"

    def round(self, run: Run, r: int, traced: bool):
        seed = run.seed(r)
        if traced:
            res, plain = run.traced_call("holder", self.config, seed, "holder", expect=4)
            run.pool.append((res, 1))
        else:
            res = plain = run.call("plain", "holder", self.config, seed, "holder", expect=4)
        run.check("holder exponents in bands", checks.holder_exponents, res["out_dir"])
        run.check("holder moments increase", checks.holder_moments_increase, res["out_dir"])
        run.rounds.append([plain])


class ExtinctionSpectral2w:
    """Process pool, chunking and merge; the spectral step and its DCT pair."""

    config = CONFIGS / "extinction_spectral.ini"

    def round(self, run: Run, r: int, traced: bool):
        seed = run.seed(r)
        res = run.call("pool" if traced else "plain", "extinction", self.config, seed,
                       "extinction", expect=2)
        run.check("extinction slope <= rate bound", checks.extinction_slope,
                  res["out_dir"], self.config)
        run.rounds.append([res])
        if traced:
            run.pool.append((res, 2))
            # Step-level spans only exist in the process that steps the paths.
            full, _ = run.traced_call("extinction", self.config, seed, "extinction-1w",
                                      threads=1, expect=2)
            run.check("1-worker output equals 2-worker output", checks.same_bytes,
                      full["out_dir"], res["out_dir"])


class SeedSweepCli:
    """One-path simulate runs in fresh processes: set-up and output dominate."""

    configs = (CONFIGS / "mild_audit_fd.ini", CONFIGS / "mild_audit_spectral.ini")

    @property
    def config(self) -> Path:
        return self.configs[0]

    def round(self, run: Run, r: int, traced: bool):
        calls = []
        for j, config in enumerate(self.configs):
            seed = run.seed(len(self.configs) * r + j)
            label = config.stem
            if traced:
                res, plain = run.traced_call("simulate", config, seed, label, expect=5)
                run.pool.append((res, 1))
            else:
                res = plain = run.call("plain", "simulate", config, seed, label, expect=5)
            run.check(f"reference reproduces {label} seed={seed}",
                      checks.snapshots_match_reference, res["out_dir"], config, seed)
            calls.append(plain)
        run.rounds.append(calls)


WORKLOADS = {"holder-fd128": HolderFd128(),
             "extinction-spectral-2w": ExtinctionSpectral2w(),
             "seed-sweep-cli": SeedSweepCli()}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def round_samples(run: Run) -> list:
    """End-to-end samples of each round (setup_s aside)."""
    per_round = []
    for calls in run.rounds:
        if any(c["rc"] == 0 and not c["ensemble"]["calls"] for c in calls):
            raise HarnessError("a subcommand made no run_ensemble or simulate_path call "
                               "through lvfield.cli, so path-steps were not timed")
        ens_wall = sum(c["ensemble"]["wall_s"] for c in calls)
        path_steps = sum(c["ensemble"]["path_steps"] for c in calls)
        per_round.append({
            "wall_s": sum(c["elapsed_s"] for c in calls),
            "path_steps_per_s": path_steps / ens_wall if ens_wall > 0 else 0.0,
            "cpu_s": sum(c["cpu_s"] for c in calls),
            "peak_rss_mb": max(c["rss_mb"] for c in calls),
        })
    return per_round


def end_to_end(run: Run, per_round: list) -> dict:
    """Medians over the run's rounds, and over its set-up samples."""
    out = {name: statistics.median(r[name] for r in per_round) for name in per_round[0]}
    out["setup_s"] = statistics.median(sum(s.values()) for s in run.setups)
    return {name: out[name] for name in END_TO_END}


def _span(results, names, self_time=False):
    col = "self_s" if self_time else "total_s"
    return sum(row[col] for res in results for row in res.get("spans", ())
               if row["name"] in names)


def _calls(results, names):
    return sum(row["calls"] for res in results for row in res.get("spans", ())
               if row["name"] in names)


def _ratio(a, b):
    return a / b if b else 0.0


def per_layer(run: Run) -> tuple[dict, list]:
    import spans
    traced = run.traced
    count = lambda key: sum(res.get("counts", {}).get(key, 0) for res in traced)
    steps = count("steps")
    ms_per_step = lambda *names, self_time=False: _ratio(
        1e3 * _span(traced, names, self_time), steps)
    absent = sorted({a for res in traced + [p for p, _ in run.pool] for a in res.get("absent", ())})

    pool = [p for p, _ in run.pool]
    ens_calls = _calls(pool, spans.ENSEMBLE_SPANS)
    busy = []
    for res, threads in run.pool:
        ens = res["ensemble"]
        cpu = ens["child_cpu_s"] if threads > 1 else ens["self_cpu_s"]
        busy.append(_ratio(cpu, threads * ens["wall_s"]))
    bytes_written = [sum(p.stat().st_size for p in res["out_dir"].iterdir()) for res in traced]
    traced_wall, plain_wall = (sum(w) for w in zip(*run.overhead))
    metrics = {
        "noise.draw_ms_per_step": ms_per_step("noise.standard_normal"),
        "noise.normals_per_step": _ratio(count("normals"), steps),
        "model.drift_ms_per_step": ms_per_step("model.truncated_drift"),
        "model.projection_needed_share": _ratio(count("projection_needed"), count("drift_calls")),
        "solver.solve_ms_per_step": ms_per_step("solver.solve_banded"),
        "solver.step_self_ms_per_step": ms_per_step(*spans.STEP_SPANS, self_time=True),
        "solver.loop_self_ms_per_step": ms_per_step(*spans.ENSEMBLE_SPANS, self_time=True),
        "solver.clamp_needed_share": _ratio(count("clamp_needed"), steps),
        "solver.chunks": _ratio(_calls(pool, ("solver.merge",)) + ens_calls, ens_calls),
        "solver.merge_ms": _ratio(1e3 * _span(pool, ("solver.merge",)), ens_calls),
        "solver.worker_busy_share": statistics.median(busy),
        "grid.transform_ms_per_step": ms_per_step(*spans.TRANSFORM_SPANS),
        "grid.transforms_per_step": _ratio(count("transforms"), steps),
        "analysis.estimator_s": _ratio(_span(traced, spans.ESTIMATOR_SPANS), len(traced)),
        "cli.import_s": statistics.median(s["import_s"] for s in run.setups),
        "config.load_s": statistics.median(s["load_s"] for s in run.setups),
        "config.build_s": statistics.median(s["build_s"] for s in run.setups),
        "cli.write_s": _ratio(_span(traced, spans.WRITER_SPANS, self_time=True), len(traced)),
        "cli.bytes_written": statistics.mean(bytes_written),
        "trace.overhead_share": _ratio(traced_wall, plain_wall) - 1.0,
        "trace.absent_layers": len(absent),
    }
    return metrics, absent


def write_trace(run: Run, metrics: dict, absent: list, seed: int):
    merged = {}
    for res in run.traced + [p for p, _ in run.pool]:
        for row in res.get("spans", ()):
            key = (res["level"], row["name"], row["parent"])
            acc = merged.setdefault(key, [0, 0.0, 0.0])
            acc[0] += row["calls"]
            acc[1] += row["total_s"]
            acc[2] += row["self_s"]
    table = [{"level": k[0], "name": k[1], "parent": k[2], "calls": v[0],
              "total_s": v[1], "self_s": v[2]} for k, v in sorted(merged.items())]
    payload = {"workload": run.name, "seed": seed, "absent": absent,
               "metrics": metrics, "spans": table}
    (OUT / f"trace-{run.name}.json").write_text(json.dumps(payload, indent=1) + "\n")


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "lvfield").is_dir():
        print(f"error: no lvfield sources under {ROOT / 'src'}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    run = Run(args.workload, args.seed)
    try:
        # Warm-up: compile bytecode and fill the page cache; not a sample.
        probe("setup", "setup", workload.config, 0, f"{run.name}/warmup")
        start = time.perf_counter()
        r = 0
        while r == 0 or time.perf_counter() - start < args.seconds:
            workload.round(run, r, traced=bool(args.trace))
            r += 1
        while len(run.setups) < MIN_SETUP_SAMPLES:
            run.setups.append(probe("setup", "setup", workload.config, 0,
                                    f"{run.name}/setup")["setup"])
        samples = round_samples(run)
    except HarnessError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    for name, ok, detail in run.ops:
        print(f"[{'ok' if ok else 'FAILED'}] {name}: {detail}",
              file=sys.stdout if ok else sys.stderr)
    if args.trace:
        metrics, absent = per_layer(run)
        write_trace(run, metrics, absent, args.seed)
        for name in absent:
            print(f"absent layer: {name} (its metrics read 0)")
        units = PER_LAYER
    else:
        for r, sample in enumerate(samples):
            print(f"round {r}: " + ", ".join(f"{k}={v:.6g}" for k, v in sample.items()))
        print(f"set-up samples: {len(run.setups)}")
        metrics, units = end_to_end(run, samples), END_TO_END
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")
    failed = sum(not ok for _, ok, _ in run.ops)
    print(json.dumps({"correct": failed == 0, "attempted": len(run.ops), "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
