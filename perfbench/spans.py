"""Outside-in tracing of lvfield: wrap the names one module calls another by.

Nothing here edits lvfield's source.  A Tracer replaces attributes such as
`lvfield.solver.step_fd` with timing wrappers for the rest of the process
and aggregates spans in memory by (name, parent name): calls, inclusive
seconds and self seconds (inclusive minus the time of child spans).  Work
the tracer adds of its own (counters computed from arguments and results)
is charged to no span.  A target that no longer exists is reported as
absent instead of failing, so a rename leaves the trace running.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])   # (name, parent) -> calls, total, self
        self.counts = defaultdict(int)
        self.absent = []
        self._stack = [["<root>", 0.0]]                    # [name, child seconds]

    # -- span bookkeeping ------------------------------------------------

    def _enter(self, name):
        self._stack.append([name, 0.0])
        return time.perf_counter()

    def _leave(self, start):
        end = time.perf_counter()
        name, child = self._stack.pop()
        total = end - start
        row = self.spans[(name, self._stack[-1][0])]
        row[0] += 1
        row[1] += total
        row[2] += total - child
        self._stack[-1][1] += total
        return end

    def _untimed(self, started):
        # Tracer work inside the current span: hide it from that span's self time.
        self._stack[-1][1] += time.perf_counter() - started

    def wrap(self, fn, name, after=None):
        tracer = self

        def traced(*args, **kwargs):
            start = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = tracer._leave(start)
            if after is not None:
                after(args, kwargs, result)
                tracer._untimed(end)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installing --------------------------------------------------------

    def patch(self, module: str, attr: str, name: str, after=None, factory=None):
        """Replace module.attr (attr may be "Class.method") with a wrapper."""
        owner = importlib.import_module(module)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, leaf, None) if owner is not None else None
        if original is None:
            self.absent.append(f"{module}.{attr}")
            return
        setattr(owner, leaf, (factory or self.wrap)(original, name, after))

    def table(self):
        return [{"name": name, "parent": parent, "calls": row[0],
                 "total_s": row[1], "self_s": row[2]}
                for (name, parent), row in sorted(self.spans.items())]


class _TimedGenerator:
    """Proxy for a numpy Generator whose standard_normal is a span."""

    def __init__(self, tracer, generator):
        self._tracer = tracer
        self._generator = generator
        self.standard_normal = tracer.wrap(generator.standard_normal,
                                           "noise.standard_normal", self._count)

    def _count(self, args, kwargs, result):
        self._tracer.counts["normals"] += int(np.size(result))

    def __getattr__(self, attr):
        return getattr(self._generator, attr)


ENSEMBLE_SPANS = ("solver.run_ensemble", "solver.simulate_path")
STEP_SPANS = ("solver.step_fd", "solver.step_spectral")
TRANSFORM_SPANS = ("grid.to_modes", "grid.from_modes")
ESTIMATOR_SPANS = ("analysis.holder_estimate", "analysis.extinction_report",
                   "analysis.mild_log_functional_audit")
WRITER_SPANS = ("cli.write_csv", "cli.write_snapshots", "cli.write_verdicts",
                "cli.write_runtime")


def install(tracer: Tracer, level: str):
    """Wrap lvfield for one level of detail.

    level "pool": the ensemble calls, merge, estimators and writers, all of
    which run in the parent process; "full": plus every step-level name and
    the noise draw, which run wherever the paths are stepped.
    """
    for span in ENSEMBLE_SPANS:
        tracer.patch("lvfield.cli", span.split(".")[1], span)
    tracer.patch("lvfield.solver", "EnsembleStats.merge", "solver.merge")
    for span in ESTIMATOR_SPANS:
        tracer.patch("lvfield.cli", span.split(".")[1], span)
    for span in WRITER_SPANS:
        tracer.patch("lvfield.cli", span.split(".")[1], span)
    if level == "pool":
        return

    def count_projection(args, kwargs, result):
        u, v, _, radius = args[:4]
        tracer.counts["drift_calls"] += 1
        tracer.counts["projection_needed"] += bool(np.hypot(u, v).max() > radius)

    def count_clamp(args, kwargs, result):
        tracer.counts["steps"] += 1
        tracer.counts["clamp_needed"] += bool(np.any(result[2] > 0) or np.any(result[3] > 0))

    def count_transform(args, kwargs, result):
        tracer.counts["transforms"] += 1

    tracer.patch("lvfield.solver", "truncated_drift", "model.truncated_drift",
                 after=count_projection)
    tracer.patch("lvfield.solver", "solve_banded", "solver.solve_banded")
    for span in TRANSFORM_SPANS:
        tracer.patch("lvfield.solver", span.split(".")[1], span, after=count_transform)
    for span in STEP_SPANS:
        tracer.patch("lvfield.solver", span.split(".")[1], span, after=count_clamp)

    def generator_factory(original, name, _after):
        def generator(plan, path_index, species):
            return _TimedGenerator(tracer, original(plan, path_index, species))
        return generator

    tracer.patch("lvfield.noise", "NoisePlan.generator", "noise.generator",
                 factory=generator_factory)
