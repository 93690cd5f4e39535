"""Run one lvfield subcommand in this fresh process and time it from outside.

    python3 perfbench/probe.py LEVEL RESULT_JSON lvfield-argument...

LEVEL is one of
  setup   time only the set-up: import lvfield.cli, load_config and the four
          builders of the config named by --config;
  plain   set-up, then cli.main(arguments) with one timer around the
          ensemble call (run_ensemble or simulate_path) and nothing else;
  pool    plain plus spans around merge, the estimators and the writers;
  full    pool plus spans around every step-level name and the noise draw.

The result file gets a JSON object with the set-up times, the exit code,
the wall time of cli.main, the ensemble timer and, for pool and full, the
aggregated spans and counters.  Nothing is imported before the timed import
of lvfield.cli apart from the standard library.
"""

import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LEVELS = ("setup", "plain", "pool", "full")


def cpu_s(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def time_setup(config: str):
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import lvfield.cli  # noqa: F401
    t1 = time.perf_counter()
    from lvfield.config import load_config
    cfg = load_config(config)
    t2 = time.perf_counter()
    cfg.initial_field(), cfg.coefficient_set(), cfg.noise_plan(), cfg.solver_config()
    t3 = time.perf_counter()
    return {"import_s": t1 - t0, "load_s": t2 - t1, "build_s": t3 - t2}


def timed_ensemble(fn, record):
    """Wrap run_ensemble or simulate_path: wall, CPU and path-steps per call."""

    def wrapper(init, coeffs, plan, config, *args, **kwargs):
        self0, child0 = cpu_s(resource.RUSAGE_SELF), cpu_s(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        out = fn(init, coeffs, plan, config, *args, **kwargs)
        record["wall_s"] += time.perf_counter() - start
        record["self_cpu_s"] += cpu_s(resource.RUSAGE_SELF) - self0
        record["child_cpu_s"] += cpu_s(resource.RUSAGE_CHILDREN) - child0
        record["calls"] += 1
        record["path_steps"] += getattr(out, "stats", out).n_paths * config.n_steps
        return out

    return wrapper


def run(level: str, argv: list) -> dict:
    import lvfield.cli as cli

    ensemble = {"calls": 0, "wall_s": 0.0, "self_cpu_s": 0.0, "child_cpu_s": 0.0,
                "path_steps": 0}
    for name in ("run_ensemble", "simulate_path"):
        if hasattr(cli, name):
            setattr(cli, name, timed_ensemble(getattr(cli, name), ensemble))
    tracer = None
    if level in ("pool", "full"):
        import spans
        tracer = spans.Tracer()
        spans.install(tracer, level)

    start = time.perf_counter()
    try:
        rc = cli.main(argv)
    except SystemExit as e:
        rc = e.code if isinstance(e.code, int) else 2
    except Exception:
        traceback.print_exc()
        rc = 3
    wall = time.perf_counter() - start
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    out = {"rc": rc, "wall_s": wall, "rss_mb": rss_kb / 1024.0, "ensemble": ensemble}
    if tracer is not None:
        out.update(spans=tracer.table(), counts=dict(tracer.counts), absent=tracer.absent)
    return out


def main(argv) -> int:
    if len(argv) < 3 or argv[0] not in LEVELS or "--config" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    level, result_path, cli_argv = argv[0], Path(argv[1]), argv[2:]
    result = {"setup": time_setup(cli_argv[cli_argv.index("--config") + 1])}
    if level != "setup":
        result.update(run(level, cli_argv))
    result_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
