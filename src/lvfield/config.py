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

Besides those four, a config may hold only the option sections of the
commands in COMMAND_SECTIONS.  Full-line comments start with '#' or ';'.
Coefficients and initial data are arithmetic expressions in x (see expr
module); plain numbers are valid expressions.  Every parse or validation
failure reports the file and line it came from.  The canonical dump of the
effective configuration (after any command-line overrides) is hashed into
output file headers, so outputs are traceable to the exact parameters that
produced them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .model import COEFFICIENT_NAMES, CoefficientSet, Field
from .noise import FieldError, NoisePlan
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


# The sections a config may hold: the four it is built from, then the option
# sections of the commands that read any.
COMMAND_SECTIONS = ("holder", "extinction", "density")
_SECTIONS = ("model", "solver", "noise", "run") + COMMAND_SECTIONS


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
            if name not in _SECTIONS:
                raise ConfigError(f"unknown section [{name}]", path, lineno)
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

    def line(self, key):
        """Line number of key, or None when the file does not set it."""
        entry = self._data.get(key)
        return entry[1] if entry else None

    def _fail(self, key, message):
        raise ConfigError(f"[{self.name}] {key}: {message}", self._path, self.line(key))

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

    def check(self, key, validate, *args):
        """validate(*args); a ValueError it raises fails at the key's line."""
        try:
            validate(*args)
        except ValueError as e:
            self._fail(key, str(e))

    def reject_unknown(self):
        unknown = set(self._data) - self._seen
        if unknown:
            key = sorted(unknown)[0]
            self._fail(key, "unknown key")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment parameters plus raw per-command extras."""

    path: str
    coefficients: dict                  # name -> expression string
    u0: str
    v0: str
    solver: SolverConfig
    noise: NoisePlan
    n_paths: int
    output_dir: str
    name: str
    threads: int
    extras: dict = field(default_factory=dict)  # section -> {key: (value, line)}

    def __post_init__(self):
        if self.n_paths < 1:
            raise FieldError("n_paths", f"n_paths must be >= 1, got {self.n_paths}")
        if self.threads < 0:
            raise FieldError("threads", f"threads must be >= 0, got {self.threads}")

    # -- derived objects ---------------------------------------------------

    def coefficient_set(self) -> CoefficientSet:
        return CoefficientSet.from_expressions(self.solver.grid_size, **self.coefficients)

    def initial_field(self) -> Field:
        return Field.from_expressions(self.solver.grid_size, u0=self.u0, v0=self.v0)

    # The CLI reads .noise and .solver; perfbench/probe.py times these two.
    def noise_plan(self) -> NoisePlan:
        return self.noise

    def solver_config(self) -> SolverConfig:
        return self.solver

    def extra(self, section: str) -> "SectionView":
        if section not in COMMAND_SECTIONS:
            raise KeyError(f"no command section [{section}]")
        return SectionView(section, self.extras.get(section, {}), self.path)

    def with_overrides(self, seed=None, n_paths=None, threads=None) -> "ExperimentConfig":
        """The config with the flag values that are not None; a refused value
        names its flag."""
        out = self
        try:
            if seed is not None:
                out = replace(out, noise=replace(out.noise, master_seed=int(seed)))
            if n_paths is not None:
                out = replace(out, n_paths=int(n_paths))
            if threads is not None:
                out = replace(out, threads=int(threads))
        except FieldError as e:
            raise ConfigError(f"{_FLAGS[e.field]}: {e}") from None
        return out

    # -- provenance --------------------------------------------------------

    def canonical_text(self) -> str:
        """Deterministic dump of every effective parameter, for hashing.

        output_dir and threads are left out: they never change results.
        """
        rows = {"model.u0": self.u0, "model.v0": self.v0,
                "run.n_paths": self.n_paths, "run.name": self.name}
        for section, params in (("solver", self.solver), ("noise", self.noise)):
            for f in fields(params):
                rows[f"{section}.{f.name}"] = repr(getattr(params, f.name))
        for name, expr_src in self.coefficients.items():
            rows[f"model.{name}"] = expr_src
        for section, data in self.extras.items():
            for key, (value, _) in data.items():
                rows[f"{section}.{key}"] = value
        return "\n".join(f"{k}={rows[k]}" for k in sorted(rows)) + "\n"

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()[:16]


# The command-line flag of each field with_overrides sets.
_FLAGS = {"master_seed": "--seed", "n_paths": "--paths", "threads": "--threads"}

# [solver] keys named differently from the SolverConfig field they set.
_SOLVER_KEYS = {"space_lag_cells": "space_lags", "time_lag_steps": "time_lags"}

# The SectionView reader of each field annotation of SolverConfig and NoisePlan.
_READERS = {"str": SectionView.get_str, "int": SectionView.get_int,
            "float": SectionView.get_float, "float | None": SectionView.get_float,
            "tuple[float, ...]": SectionView.get_float_list,
            "tuple[int, ...]": SectionView.get_int_list}


def _read_fields(cls, key_of) -> dict:
    """{field: value} of every field of cls, read by the reader of its
    annotation at key_of(field) = (view, key), the field's default when unset."""
    return {f.name: _READERS[f.type](*key_of(f.name), f.default) for f in fields(cls)}


def _construct(cls, section: str, path: str, key_of, /, **kwargs):
    """cls(**kwargs); a ValueError becomes a ConfigError at the line of the
    failing field's key (key_of maps a field name to (view, key))."""
    try:
        return cls(**kwargs)
    except ValueError as e:
        line = SectionView.line(*key_of(e.field)) if isinstance(e, FieldError) else None
        raise ConfigError(f"[{section}] {e}", path, line) from e


def parse_config_text(text: str, path: str = "<config>") -> ExperimentConfig:
    sections = _read_sections(text, path)

    model = SectionView("model", sections.get("model", {}), path)
    coefficients = {}
    for key in COEFFICIENT_NAMES:
        value = model.get_str(key, None)
        if value is not None:
            coefficients[key] = value
    u0 = model.get_str("u0", ...)
    v0 = model.get_str("v0", "0")

    # [model] n sets grid_size; every other SolverConfig field is its own
    # [solver] key, or the one _SOLVER_KEYS names.
    solver = SectionView("solver", sections.get("solver", {}), path)

    def solver_key(field_name):
        if field_name == "grid_size":
            return model, "n"
        return solver, _SOLVER_KEYS.get(field_name, field_name)

    solver_params = _read_fields(SolverConfig, solver_key)
    model.reject_unknown()
    solver.reject_unknown()
    sconf = _construct(SolverConfig, "solver", path, solver_key, **solver_params)

    # The scheme picks the noise field; representation, optional and not
    # hashed, may only name it.
    noise = SectionView("noise", sections.get("noise", {}), path)
    representation = noise.get_choice("representation", ("sheet", "spectral"))
    if representation not in (None, "sheet" if sconf.scheme == "fd" else "spectral"):
        noise._fail("representation",
                    f"{representation} noise does not drive the {sconf.scheme} scheme")
    noise_key = lambda name: (noise, name)
    plan = _construct(NoisePlan, "noise", path, noise_key, **_read_fields(NoisePlan, noise_key))
    noise.reject_unknown()

    run = SectionView("run", sections.get("run", {}), path)
    run_params = dict(n_paths=run.get_int("n_paths", 1),
                      output_dir=run.get_str("output_dir", "out"),
                      name=run.get_str("name", Path(path).stem),
                      threads=run.get_int("threads", 1))
    run.reject_unknown()

    extras = {s: data for s, data in sections.items() if s in COMMAND_SECTIONS}
    cfg = _construct(ExperimentConfig, "run", path, lambda name: (run, name),
                     path=path, coefficients=coefficients, u0=u0, v0=v0,
                     solver=sconf, noise=plan, extras=extras, **run_params)

    # early validation of the model so errors point at the config
    _validate_model(cfg, model)
    return cfg


def _validate_model(cfg: ExperimentConfig, model: SectionView):
    from .expr import ExprError, parse

    for key, src in {**cfg.coefficients, "u0": cfg.u0, "v0": cfg.v0}.items():
        try:
            parse(src)
        except ExprError as e:
            model._fail(key, str(e))
    try:
        cfg.coefficient_set()
        cfg.initial_field()
    except ValueError as e:
        raise ConfigError(f"[model] {e}", cfg.path) from e


def load_config(path) -> ExperimentConfig:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}", str(path)) from e
    return parse_config_text(text, str(path))
