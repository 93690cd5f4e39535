"""Experiment configuration: a small sectioned key=value format.

Example::

    [model]
    n = 64
    m1 = 0.2
    sigma1 = 0.5
    u0 = 0.5

    [solver]
    scheme = fd
    dt = 1e-3
    t_final = 1.0

    [noise]
    master_seed = 42

    [run]
    n_paths = 100

Full-line comments start with '#' or ';'.  Coefficients and initial data are
arithmetic expressions in x (see expr module); plain numbers are valid
expressions.  Every parse or validation failure reports the file and line it
came from.  The canonical dump of the effective configuration (after any
command-line overrides) is hashed into output file headers, so outputs are
traceable to the exact parameters that produced them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .model import COEFFICIENT_NAMES, CoefficientSet, Field
from .noise import SEED_LIMIT, NoisePlan
from .solver import SolverConfig


class ConfigError(Exception):
    """Parse or validation failure pointing at a config file line."""

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        self.message = message
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = f"{path}:" if line is None else f"{path}:{line}:"
        super().__init__(f"{where} {message}".strip())


def _read_sections(text: str, path: str) -> dict:
    """Sections as {name: {key: (raw_value, line_number)}}."""
    sections: dict = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("#", ";")):
            continue
        if line.startswith("["):
            if not line.endswith("]") or len(line) < 3:
                raise ConfigError(f"malformed section header {line!r}", path, lineno)
            name = line[1:-1].strip()
            if name in sections:
                raise ConfigError(f"duplicate section [{name}]", path, lineno)
            current = sections.setdefault(name, {})
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", path, lineno)
        if current is None:
            raise ConfigError("key outside any [section]", path, lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError("empty key", path, lineno)
        if key in current:
            raise ConfigError(f"duplicate key {key!r}", path, lineno)
        current[key] = (value, lineno)
    return sections


class SectionView:
    """Typed access to one parsed section with line-precise errors."""

    def __init__(self, name: str, data: dict, path: str):
        self.name = name
        self._data = dict(data)
        self._path = path
        self._seen = set()

    def _raw(self, key):
        self._seen.add(key)
        return self._data.get(key)

    def _fail(self, key, message):
        entry = self._data.get(key)
        line = entry[1] if entry else None
        raise ConfigError(f"[{self.name}] {key}: {message}", self._path, line)

    def get_str(self, key, default=None):
        entry = self._raw(key)
        if entry is None:
            if default is ...:
                self._fail(key, "required key missing")
            return default
        return entry[0]

    def get_choice(self, key, choices, default=None):
        value = self.get_str(key, default)
        if value is not None and value not in choices:
            self._fail(key, f"must be one of {sorted(choices)}, got {value!r}")
        return value

    def get_float(self, key, default=None):
        value = self.get_str(key, default)
        if value is None or isinstance(value, float):
            return value
        try:
            out = float(value)
        except ValueError:
            self._fail(key, f"invalid number {value!r}")
        if not np.isfinite(out):
            self._fail(key, f"must be finite, got {value!r}")
        return out

    def get_int(self, key, default=None):
        value = self.get_str(key, default)
        if value is None or isinstance(value, int):
            return value
        try:
            return int(value)
        except ValueError:
            self._fail(key, f"invalid integer {value!r}")

    def get_float_list(self, key, default=()):
        value = self.get_str(key, None)
        if value is None:
            return tuple(default)
        try:
            return tuple(float(v) for v in value.split(",") if v.strip())
        except ValueError:
            self._fail(key, f"invalid number list {value!r}")

    def get_int_list(self, key, default=()):
        value = self.get_str(key, None)
        if value is None:
            return tuple(default)
        try:
            return tuple(int(v) for v in value.split(",") if v.strip())
        except ValueError:
            self._fail(key, f"invalid integer list {value!r}")

    def reject_unknown(self):
        unknown = set(self._data) - self._seen
        if unknown:
            key = sorted(unknown)[0]
            self._fail(key, "unknown key")


_EXPR_KEYS = COEFFICIENT_NAMES + ("u0", "v0")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment parameters plus raw per-command extras."""

    path: str
    n: int
    coefficients: dict                  # name -> expression string
    u0: str
    v0: str
    scheme: str
    dt: float
    t_final: float
    snapshot_times: tuple
    record_interval: float | None
    truncation_radius: float | None
    solver_n_modes: int | None
    probe_sites: tuple | None
    stats_after: float | None
    space_lags: tuple
    time_lags: tuple
    space_anchor: float | None
    representation: str
    master_seed: int
    noise_n_modes: int | None
    weights_spec: str
    summability_class: float | None
    n_paths: int
    output_dir: str
    name: str
    threads: int
    extras: dict = field(default_factory=dict)  # section -> {key: value string}

    # -- derived objects ---------------------------------------------------

    def coefficient_set(self) -> CoefficientSet:
        return CoefficientSet.from_expressions(self.n, **self.coefficients)

    def initial_field(self) -> Field:
        return Field.from_expressions(self.n, u0=self.u0, v0=self.v0)

    def noise_plan(self) -> NoisePlan:
        weights = None
        if self.weights_spec != "white":
            q = float(self.weights_spec.split(":", 1)[1])
            k = np.arange(self.noise_n_modes, dtype=float)
            weights = np.where(k == 0, 1.0, np.maximum(k, 1.0) ** (-q))
        return NoisePlan(representation=self.representation,
                         master_seed=self.master_seed,
                         n_modes=self.noise_n_modes,
                         weights=weights,
                         summability_class=self.summability_class)

    def solver_config(self) -> SolverConfig:
        kwargs = dict(scheme=self.scheme, dt=self.dt, t_final=self.t_final,
                      snapshot_times=self.snapshot_times,
                      record_interval=self.record_interval,
                      truncation_radius=self.truncation_radius,
                      n_modes=self.solver_n_modes,
                      stats_after=self.stats_after,
                      space_lag_cells=self.space_lags,
                      time_lag_steps=self.time_lags,
                      space_anchor=self.space_anchor,
                      grid_size=self.n)
        if self.probe_sites is not None:
            kwargs["probe_sites"] = self.probe_sites
        return SolverConfig(**kwargs)

    def extra(self, section: str) -> "SectionView":
        data = {k: (v, None) for k, v in self.extras.get(section, {}).items()}
        return SectionView(section, data, self.path)

    def with_overrides(self, seed=None, n_paths=None, output_dir=None,
                       threads=None) -> "ExperimentConfig":
        if seed is not None and not 0 <= seed < SEED_LIMIT:
            raise ConfigError(f"--seed must be in [0, 2^63), got {seed}")
        if n_paths is not None and n_paths < 1:
            raise ConfigError(f"--paths must be >= 1, got {n_paths}")
        if threads is not None and threads < 0:
            raise ConfigError(f"--threads must be >= 0, got {threads}")
        out = self
        if seed is not None:
            out = replace(out, master_seed=int(seed))
        if n_paths is not None:
            out = replace(out, n_paths=int(n_paths))
        if output_dir is not None:
            out = replace(out, output_dir=str(output_dir))
        if threads is not None:
            out = replace(out, threads=int(threads))
        return out

    # -- provenance --------------------------------------------------------

    def canonical_text(self) -> str:
        """Deterministic dump of every effective parameter, for hashing."""
        rows = {
            "model.n": self.n, "model.u0": self.u0, "model.v0": self.v0,
            "solver.scheme": self.scheme, "solver.dt": repr(self.dt),
            "solver.t_final": repr(self.t_final),
            "solver.snapshot_times": ",".join(repr(t) for t in self.snapshot_times),
            "solver.record_interval": repr(self.record_interval),
            "solver.truncation_radius": repr(self.truncation_radius),
            "solver.n_modes": repr(self.solver_n_modes),
            "solver.probe_sites": repr(self.probe_sites),
            "solver.stats_after": repr(self.stats_after),
            "solver.space_lags": ",".join(map(str, self.space_lags)),
            "solver.time_lags": ",".join(map(str, self.time_lags)),
            "solver.space_anchor": repr(self.space_anchor),
            "noise.representation": self.representation,
            "noise.master_seed": self.master_seed,
            "noise.n_modes": repr(self.noise_n_modes),
            "noise.weights": self.weights_spec,
            "noise.summability_class": repr(self.summability_class),
            "run.n_paths": self.n_paths, "run.name": self.name,
        }
        for name, expr_src in self.coefficients.items():
            rows[f"model.{name}"] = expr_src
        for section, data in self.extras.items():
            for key, value in data.items():
                rows[f"{section}.{key}"] = value
        return "\n".join(f"{k}={rows[k]}" for k in sorted(rows)) + "\n"

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()[:16]


_KNOWN_SECTIONS = ("model", "solver", "noise", "run")


def parse_config_text(text: str, path: str = "<config>") -> ExperimentConfig:
    sections = _read_sections(text, path)

    model = SectionView("model", sections.get("model", {}), path)
    n = model.get_int("n", 64)
    if n < 2:
        model._fail("n", f"grid size must be >= 2, got {n}")
    coefficients = {}
    for key in COEFFICIENT_NAMES:
        value = model.get_str(key, None)
        if value is not None:
            coefficients[key] = value
    u0 = model.get_str("u0", ...)
    v0 = model.get_str("v0", "0")
    model.reject_unknown()

    solver = SectionView("solver", sections.get("solver", {}), path)
    scheme = solver.get_choice("scheme", ("fd", "spectral"), "fd")
    dt = solver.get_float("dt", 1e-3)
    t_final = solver.get_float("t_final", 1.0)
    snapshot_times = solver.get_float_list("snapshot_times")
    record_interval = solver.get_float("record_interval", None)
    truncation_radius = solver.get_float("truncation_radius", None)
    solver_n_modes = solver.get_int("n_modes", None)
    probe_raw = solver.get_str("probe_sites", None)
    probe_sites = solver.get_float_list("probe_sites") if probe_raw is not None else None
    stats_after = solver.get_float("stats_after", None)
    space_lags = solver.get_int_list("space_lags")
    time_lags = solver.get_int_list("time_lags")
    space_anchor = solver.get_float("space_anchor", None)
    solver.reject_unknown()

    noise = SectionView("noise", sections.get("noise", {}), path)
    representation = noise.get_choice("representation", ("sheet", "spectral"),
                                      "sheet" if scheme == "fd" else "spectral")
    master_seed = noise.get_int("master_seed", 0)
    if not 0 <= master_seed < SEED_LIMIT:
        noise._fail("master_seed", f"must be in [0, 2^63), got {master_seed}")
    noise_n_modes = noise.get_int("n_modes", None)
    weights_spec = noise.get_str("weights", "white")
    summability_class = noise.get_float("summability_class", None)
    if weights_spec != "white":
        head, sep, tail = weights_spec.partition(":")
        ok = head == "power" and sep
        if ok:
            try:
                q = float(tail)
                ok = np.isfinite(q) and q > 0
            except ValueError:
                ok = False
        if not ok:
            noise._fail("weights", f"expected 'white' or 'power:<q>', got {weights_spec!r}")
        if noise_n_modes is None:
            noise._fail("weights", "power weights need noise n_modes")
    noise.reject_unknown()

    run = SectionView("run", sections.get("run", {}), path)
    n_paths = run.get_int("n_paths", 1)
    if n_paths < 1:
        run._fail("n_paths", f"must be >= 1, got {n_paths}")
    output_dir = run.get_str("output_dir", "out")
    name = run.get_str("name", Path(path).stem)
    threads = run.get_int("threads", 1)
    if threads < 0:
        run._fail("threads", f"must be >= 0, got {threads}")
    run.reject_unknown()

    extras = {}
    for section, data in sections.items():
        if section not in _KNOWN_SECTIONS:
            extras[section] = {k: v for k, (v, _) in data.items()}

    cfg = ExperimentConfig(
        path=path, n=n, coefficients=coefficients, u0=u0, v0=v0,
        scheme=scheme, dt=dt, t_final=t_final, snapshot_times=snapshot_times,
        record_interval=record_interval, truncation_radius=truncation_radius,
        solver_n_modes=solver_n_modes, probe_sites=probe_sites,
        stats_after=stats_after, space_lags=space_lags, time_lags=time_lags,
        space_anchor=space_anchor, representation=representation,
        master_seed=master_seed, noise_n_modes=noise_n_modes,
        weights_spec=weights_spec, summability_class=summability_class,
        n_paths=n_paths, output_dir=output_dir, name=name, threads=threads,
        extras=extras)

    # early validation of derived objects so errors point at the config
    _validate_derived(cfg, sections, path)
    return cfg


def _validate_derived(cfg: ExperimentConfig, sections: dict, path: str):
    from .expr import ExprError, parse

    def line_of(key):
        entry = sections.get("model", {}).get(key)
        return entry[1] if entry else None

    for key, src in {**cfg.coefficients, "u0": cfg.u0, "v0": cfg.v0}.items():
        try:
            parse(src)
        except ExprError as e:
            raise ConfigError(f"[model] {key}: {e}", path, line_of(key)) from e
    try:
        cfg.coefficient_set()
        cfg.initial_field()
    except ValueError as e:
        raise ConfigError(f"[model] {e}", path) from e
    try:
        cfg.solver_config()
    except ValueError as e:
        raise ConfigError(f"[solver] {e}", path) from e
    try:
        cfg.noise_plan()
    except ValueError as e:
        raise ConfigError(f"[noise] {e}", path) from e


def load_config(path) -> ExperimentConfig:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}", str(path)) from e
    return parse_config_text(text, str(path))
