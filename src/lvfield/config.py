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

Besides those four, a config may hold [holder] and [extinction], the
options of the commands that take any.  Each section is one frozen
dataclass of SECTIONS: a field is set by the key of its name (or the one
_KEYS names), defaults to the field's default, is range-checked by the
dataclass for every command, and is hashed unless _UNHASHED names it.
[noise] representation is the one key that sets no field.  Full-line
comments start with '#' or ';'.  Coefficients and initial data are
arithmetic expressions in x (see expr module); plain numbers are valid
expressions.  Every parse or validation failure reports the file and line
it came from.  The canonical dump of the effective configuration (after any
command-line overrides) is hashed into output file headers, so outputs are
traceable to the exact parameters that produced them.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import partial
from pathlib import Path

from .analysis import check_increment_order
from .expr import ExprError, parse
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


def _read_sections(text: str, path: str) -> tuple[dict, dict]:
    """({(section, key): raw value}, {(section, key): line number})."""
    raw, lines, sections = {}, {}, set()
    current = None
    for lineno, text_line in enumerate(text.splitlines(), start=1):
        line = text_line.strip()
        if not line or line.startswith(("#", ";")):
            continue
        if line.startswith("["):
            if not line.endswith("]") or len(line) < 3:
                raise ConfigError(f"malformed section header {line!r}", path, lineno)
            current = line[1:-1].strip()
            if current not in SECTIONS:
                raise ConfigError(f"unknown section [{current}]", path, lineno)
            if current in sections:
                raise ConfigError(f"duplicate section [{current}]", path, lineno)
            sections.add(current)
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", path, lineno)
        if current is None:
            raise ConfigError("key outside any [section]", path, lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError("empty key", path, lineno)
        if (current, key) in raw:
            raise ConfigError(f"duplicate key {key!r}", path, lineno)
        raw[current, key] = value.strip()
        lines[current, key] = lineno
    return raw, lines


def _key_error(path: str, lines: dict, section: str, key: str, message: str) -> ConfigError:
    return ConfigError(f"[{section}] {key}: {message}", path, lines.get((section, key)))


def _read_value(raw: dict, error, key: tuple, annotation: str, default):
    """The value of key = (section, name), popped from raw and parsed as the
    field annotation says; default when the file does not set it, which must
    then not be MISSING."""
    if key not in raw:
        if default is MISSING:
            raise error(*key, "required key missing")
        return default
    text = raw.pop(key)
    convert, noun = _PARSERS[annotation]
    try:
        value = (tuple(convert(v) for v in text.split(",") if v.strip())
                 if annotation.startswith("tuple") else convert(text))
    except ValueError:
        raise error(*key, f"invalid {noun} {text!r}") from None
    values = value if isinstance(value, tuple) else (value,)
    if convert is float and not all(map(math.isfinite, values)):
        raise error(*key, f"must be finite, got {text!r}")
    return value


# The converter of each field annotation, and what a value it refuses is not.
_PARSERS = {"str": (str, "string"), "int": (int, "integer"),
            "float": (float, "number"), "float | None": (float, "number"),
            "tuple[float, ...]": (float, "number list"),
            "tuple[int, ...]": (int, "integer list")}


@dataclass(frozen=True, kw_only=True)
class ModelSpec:
    """[model]: the coefficient profiles and the initial data, expressions in
    x; u0 is required, everything else defaults to 0."""

    m1: str = "0"
    a1: str = "0"
    b1: str = "0"
    sigma1: str = "0"
    m2: str = "0"
    a2: str = "0"
    b2: str = "0"
    sigma2: str = "0"
    u0: str
    v0: str = "0"

    def __post_init__(self):
        for f in fields(self):
            try:
                parse(getattr(self, f.name))
            except ExprError as e:
                raise FieldError(f.name, f"{f.name}: {e}") from None


@dataclass(frozen=True)
class RunConfig:
    """[run]: the number of paths, where the outputs go and how many worker
    processes simulate them (0: all cores)."""

    n_paths: int = 1
    output_dir: str = "out"
    threads: int = 1

    def __post_init__(self):
        if self.n_paths < 1:
            raise FieldError("n_paths", f"n_paths must be >= 1, got {self.n_paths}")
        if self.threads < 0:
            raise FieldError("threads", f"threads must be >= 0, got {self.threads}")


@dataclass(frozen=True)
class HolderOptions:
    """[holder]: the increment moment order and the bands the space and the
    time exponent must fall in."""

    p: int = 4
    band_space: tuple[float, ...] = (0.40, 0.55)
    band_time: tuple[float, ...] = (0.18, 0.30)

    def __post_init__(self):
        try:
            check_increment_order(self.p)
        except ValueError as e:
            raise FieldError("p", f"p: {e}") from None
        for name in ("band_space", "band_time"):
            band = getattr(self, name)
            if len(band) != 2 or not band[0] <= band[1]:
                raise FieldError(name, f"{name}: must be two values lo <= hi, got {band}")


@dataclass(frozen=True)
class ExtinctionOptions:
    """[extinction]: the species whose log mass must decay, and the tail
    window of the slope fit (window_end None: the end of the run)."""

    species: str = "u"
    window_start: float = 5.0
    window_end: float | None = None

    def __post_init__(self):
        if self.species not in ("u", "v"):
            raise FieldError("species",
                             f"species: must be one of ['u', 'v'], got {self.species!r}")


# Every section a config may hold, and the dataclass its keys set.
SECTIONS = {"model": ModelSpec, "solver": SolverConfig, "noise": NoisePlan, "run": RunConfig,
            "holder": HolderOptions, "extinction": ExtinctionOptions}

# The fields set by a key other than [section] field_name.
_KEYS = {("solver", "grid_size"): ("model", "n"),
         ("solver", "space_lag_cells"): ("solver", "space_lags"),
         ("solver", "time_lag_steps"): ("solver", "time_lags")}

# The fields that never change results, left out of the hash.
_UNHASHED = {("run", "output_dir"), ("run", "threads")}

# The fields whose None default stands for a value the run derives from the
# rest of the config, hashed as that value: writing it out keeps the hash.
_DERIVED = {
    ("solver", "record_interval"): lambda cfg: cfg.solver.record_stride * cfg.solver.dt,
    # None leaves the window open: it ends at the last recorded time
    ("extinction", "window_end"): lambda cfg: (
        cfg.solver.n_steps * cfg.solver.dt if cfg.extinction.window_end is None
        else cfg.extinction.window_end),
}


def _key(section: str, name: str) -> tuple:
    """(section, key) of the config key that sets field name of section."""
    return _KEYS.get((section, name), (section, name))


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: the dataclass of every section, and the line of every
    key the file sets, (section, key) -> line."""

    path: str
    model: ModelSpec
    solver: SolverConfig
    noise: NoisePlan
    run: RunConfig
    holder: HolderOptions
    extinction: ExtinctionOptions
    lines: dict = field(default_factory=dict, compare=False)

    # -- derived objects ---------------------------------------------------

    def coefficient_set(self) -> CoefficientSet:
        sources = {name: getattr(self.model, name) for name in COEFFICIENT_NAMES}
        return CoefficientSet.from_expressions(self.solver.grid_size, **sources)

    def initial_field(self) -> Field:
        return Field.from_expressions(self.solver.grid_size, u0=self.model.u0, v0=self.model.v0)

    # The CLI reads .noise and .solver; perfbench/probe.py times these two.
    def noise_plan(self) -> NoisePlan:
        return self.noise

    def solver_config(self) -> SolverConfig:
        return self.solver

    def error(self, section: str, key: str, message: str) -> ConfigError:
        """A ConfigError about [section] key, at its line when the file sets it."""
        return _key_error(self.path, self.lines, section, key, message)

    def with_overrides(self, seed=None, n_paths=None, threads=None) -> "ExperimentConfig":
        """The config with the flag values that are not None; a refused value
        names its flag."""
        out = self
        try:
            if seed is not None:
                out = replace(out, noise=replace(out.noise, master_seed=int(seed)))
            if n_paths is not None:
                out = replace(out, run=replace(out.run, n_paths=int(n_paths)))
            if threads is not None:
                out = replace(out, run=replace(out.run, threads=int(threads)))
        except FieldError as e:
            raise ConfigError(f"{_FLAGS[e.field]}: {e}") from None
        return out

    # -- provenance --------------------------------------------------------

    def canonical_text(self) -> str:
        """Deterministic dump of every effective parameter, for hashing: one
        row per field of every section, but those in _UNHASHED, with the
        value the run uses for each field of _DERIVED."""
        values = {(section, f.name): getattr(params, f.name)
                  for section in SECTIONS for params in (getattr(self, section),)
                  for f in fields(params) if (section, f.name) not in _UNHASHED}
        values.update((key, derive(self)) for key, derive in _DERIVED.items())
        return "\n".join(sorted(f"{s}.{k}={v!r}" for (s, k), v in values.items())) + "\n"

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()[:16]


# The command-line flag of each field with_overrides sets.
_FLAGS = {"master_seed": "--seed", "n_paths": "--paths", "threads": "--threads"}


def _construct(section: str, kwargs: dict, lines: dict, path: str):
    """The section's dataclass of kwargs; a ValueError becomes a ConfigError
    at the line of the failing field's key."""
    try:
        return SECTIONS[section](**kwargs)
    except ValueError as e:
        line = lines.get(_key(section, e.field)) if isinstance(e, FieldError) else None
        raise ConfigError(f"[{section}] {e}", path, line) from e


def parse_config_text(text: str, path: str = "<config>") -> ExperimentConfig:
    raw, lines = _read_sections(text, path)
    error = partial(_key_error, path, lines)
    params = {section: {f.name: _read_value(raw, error, _key(section, f.name), f.type, f.default)
                        for f in fields(cls)}
              for section, cls in SECTIONS.items()}
    # The scheme picks the noise field; representation, optional and not
    # hashed, may only name it.
    representation = raw.pop(("noise", "representation"), None)
    if raw:
        raise error(*next(iter(raw)), "unknown key")
    cfg = ExperimentConfig(path=path, lines=lines, **{
        section: _construct(section, kwargs, lines, path) for section, kwargs in params.items()})

    if representation not in (None, "sheet", "spectral"):
        raise cfg.error("noise", "representation",
                        f"must be one of ['sheet', 'spectral'], got {representation!r}")
    if representation not in (None, "sheet" if cfg.solver.scheme == "fd" else "spectral"):
        raise cfg.error("noise", "representation",
                        f"{representation} noise does not drive the {cfg.solver.scheme} scheme")
    # the profiles on the grid: finite, nonnegative initial data and rates,
    # a refused one reported at its key's line
    try:
        cfg.coefficient_set()
        cfg.initial_field()
    except FieldError as e:
        raise cfg.error("model", e.field, str(e)) from e
    except ValueError as e:
        raise ConfigError(f"[model] {e}", path) from e
    return cfg


def load_config(path) -> ExperimentConfig:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config: {e}", str(path)) from e
    return parse_config_text(text, str(path))
