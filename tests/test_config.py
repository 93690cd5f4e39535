"""Config parsing, validation, and provenance hashing."""

import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from lvfield.config import (SECTIONS, ConfigError, ExtinctionOptions, HolderOptions,
                            RunConfig, load_config, parse_config_text)
from lvfield.model import COEFFICIENT_NAMES
from lvfield.noise import FieldError, NoisePlan
from lvfield.solver import SolverConfig

ROOT = Path(__file__).resolve().parent.parent

# The fields that never change results, and are left out of the hash.
UNHASHED = {"run.output_dir", "run.threads"}

GOOD = """\
# benchmark-ish scenario
[model]
n = 32
m1 = 1.0
a1 = 1.0
b1 = 0.3
sigma1 = 0.5
m2 = 0.8
a2 = 1.0
b2 = 0.2
sigma2 = 0.4
u0 = 0.5 + 0.1*cos(3.141592653589793*x)
v0 = 0.5

[solver]
scheme = fd
dt = 1e-3
t_final = 0.5
snapshot_times = 0.1, 0.5
space_lags = 1, 2, 4
time_lags = 1, 2
stats_after = 0.2

[noise]
master_seed = 42

[run]
n_paths = 8
output_dir = out/bench
"""


def parse(text, path="cfg.ini"):
    return parse_config_text(text, path)


class TestParseSuccess:
    def test_round_trip_fields(self):
        cfg = parse(GOOD)
        assert cfg.solver.grid_size == 32
        assert cfg.solver.scheme == "fd"
        assert cfg.solver.dt == 1e-3
        assert cfg.solver.snapshot_times == (0.1, 0.5)
        assert cfg.solver.space_lag_cells == (1, 2, 4)
        assert cfg.noise.master_seed == 42
        assert cfg.run == RunConfig(n_paths=8, output_dir="out/bench")
        assert cfg.model.b1 == "0.3"

    def test_defaults(self):
        cfg = parse("[model]\nu0 = 1.0\n")
        assert cfg.solver == SolverConfig(grid_size=64)
        assert cfg.noise == NoisePlan(master_seed=0)
        assert cfg.model.v0 == cfg.model.m2 == "0"
        assert cfg.run == RunConfig(n_paths=1, output_dir="out", threads=1)
        assert (cfg.holder, cfg.extinction) == (HolderOptions(), ExtinctionOptions())

    @pytest.mark.parametrize("scheme, representation", [
        ("fd", "sheet"), ("spectral", "spectral")])
    def test_matching_representation_is_the_same_experiment(self, scheme, representation):
        text = f"[model]\nu0 = 1.0\n[solver]\nscheme = {scheme}\n[noise]\nmaster_seed = 3\n"
        named = parse(text + f"representation = {representation}\n")
        assert named == parse(text)
        assert named.config_hash == parse(text).config_hash

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse("; header\n\n[model]\n# noise\nu0 = 2.0\n")
        assert cfg.model.u0 == "2.0"

    def test_command_options_read(self):
        cfg = parse(GOOD + "\n[holder]\np = 2\nband_space = 0.3, 0.6\n"
                    "[extinction]\nspecies = v\nwindow_end = 0.4\n")
        assert cfg.holder == HolderOptions(p=2, band_space=(0.3, 0.6))
        assert cfg.extinction == ExtinctionOptions(species="v", window_end=0.4)

    def test_derived_objects_build(self):
        cfg = parse(GOOD)
        coeffs = cfg.coefficient_set()
        init = cfg.initial_field()
        assert coeffs.m1.shape == (32,)
        assert np.all(init.u > 0)
        assert cfg.noise_plan() is cfg.noise
        assert cfg.solver_config() is cfg.solver
        assert cfg.solver.n_steps == 500


class TestParseErrors:
    def err(self, text, path="cfg.ini"):
        with pytest.raises(ConfigError) as info:
            parse(text, path)
        return str(info.value)

    def test_bad_number_reports_line(self):
        msg = self.err("[model]\nu0 = 1.0\n[solver]\ndt = fast\n")
        assert msg.startswith("cfg.ini:4:")
        assert "[solver] dt" in msg

    def test_unknown_key_in_known_section(self):
        msg = self.err("[model]\nu0 = 1.0\nshape = round\n")
        assert "cfg.ini:3" in msg
        assert "unknown key" in msg

    def test_duplicate_key(self):
        msg = self.err("[model]\nu0 = 1.0\nu0 = 2.0\n")
        assert "cfg.ini:3" in msg
        assert "duplicate key" in msg

    def test_duplicate_section(self):
        msg = self.err("[model]\nu0 = 1.0\n[model]\nn = 8\n")
        assert "cfg.ini:3" in msg
        assert "duplicate section" in msg

    def test_key_outside_section(self):
        msg = self.err("u0 = 1.0\n[model]\n")
        assert "cfg.ini:1" in msg
        assert "outside" in msg

    def test_malformed_header(self):
        msg = self.err("[model\nu0 = 1.0\n")
        assert "cfg.ini:1" in msg

    def test_missing_u0(self):
        msg = self.err("[model]\nn = 16\n")
        assert "u0" in msg
        assert "required" in msg

    def test_bad_expression_reports_model_line(self):
        msg = self.err("[model]\nn = 8\nu0 = 1.0\nm1 = 2*)\n")
        assert "cfg.ini:4" in msg
        assert "[model] m1" in msg

    def test_negative_initial_data_rejected(self):
        msg = self.err("[model]\nn = 8\nu0 = cos(9*x) - 2\n")
        assert "[model]" in msg

    def test_bad_scheme(self):
        msg = self.err("[model]\nu0 = 1.0\n[solver]\nscheme = dg\n")
        assert msg == "cfg.ini:4: [solver] unknown scheme 'dg'"

    def test_unknown_representation(self):
        msg = self.err("[model]\nu0 = 1.0\n[noise]\nrepresentation = colored\n")
        assert msg.startswith("cfg.ini:4: [noise] representation: must be one of")

    # the colored-noise keys, and the truncation radius, fixed at its default
    @pytest.mark.parametrize("section,key,value", [
        ("solver", "n_modes", "8"), ("noise", "n_modes", "8"),
        ("noise", "weights", "power:1.5"), ("noise", "summability_class", "3"),
        ("solver", "truncation_radius", "20")])
    def test_removed_colored_noise_key_is_unknown(self, section, key, value):
        msg = self.err(f"[model]\nu0 = 1.0\n[{section}]\n{key} = {value}\n")
        assert msg.startswith("cfg.ini:4:")
        assert f"[{section}] {key}: unknown key" in msg

    def test_t_final_not_multiple_of_dt(self):
        msg = self.err("[model]\nu0 = 1.0\n[solver]\ndt = 3e-3\nt_final = 1.0\n")
        assert "[solver]" in msg
        assert "not a multiple of dt" in msg

    @pytest.mark.parametrize("key, value, message", [
        ("t_final", "0.0105", "t_final = 0.0105 is not a multiple of dt"),
        ("snapshot_times", "0.5, 2.0", "snapshot time 2.0 outside"),
        ("snapshot_times", "0.05, 0.05", "two snapshot times land on one step of dt = 0.001"),
        ("snapshot_times", "0.03, 0.05, 0.0502", "two snapshot times land on one step"),
        ("snapshot_times", "0.5, 0.1", "snapshot times must be in increasing order"),
        ("record_interval", "1e-4", "record_interval must be >= dt"),
        ("probe_sites", "0.5, 1.5", "probe site 1.5 outside"),
        ("space_lags", "1, 16", "space lags must be in"),
        ("time_lags", "0", "time lags must be"),
        ("stats_after", "0.0045", "stats_after = 0.0045 is not a step time in [0, t_final]"),
        ("stats_after", "1.5", "stats_after = 1.5 is not a step time in [0, t_final]"),
        ("space_anchor", "-0.2", "space anchor -0.2 outside [0, 1]"),
    ])
    def test_solver_constructor_error_reports_key_line(self, key, value, message):
        msg = self.err(f"[model]\nn = 16\nu0 = 1.0\n[solver]\ndt = 1e-3\n{key} = {value}\n")
        assert msg.startswith("cfg.ini:6: [solver] ")
        assert message in msg

    def test_constructor_error_on_a_default_has_no_line(self):
        # t_final left at its default 1.0: no line to point at
        msg = self.err("[model]\nu0 = 1.0\n[solver]\ndt = 3e-3\n")
        assert msg.startswith("cfg.ini: [solver] t_final = 1.0 is not a multiple")

    def test_noise_constructor_error_names_section(self, monkeypatch):
        def refuse(self):
            raise ValueError("refused")
        monkeypatch.setattr(NoisePlan, "__post_init__", refuse)
        assert self.err("[model]\nu0 = 1.0\n") == "cfg.ini: [noise] refused"

    def test_tiny_grid_rejected(self):
        # [model] n sets SolverConfig.grid_size, whose check fails at n's line
        msg = self.err("[model]\nn = 1\nu0 = 1.0\n")
        assert msg == "cfg.ini:2: [solver] grid_size must be >= 2, got 1"

    @pytest.mark.parametrize("key, value, message", [
        ("n_paths", "0", "n_paths must be >= 1, got 0"),
        ("threads", "-1", "threads must be >= 0, got -1")])
    def test_run_range_rejected_at_its_line(self, key, value, message):
        msg = self.err(f"[model]\nu0 = 1.0\n[run]\noutput_dir = r\n{key} = {value}\n")
        assert msg == f"cfg.ini:5: [run] {message}"

    @pytest.mark.parametrize("section, key, value, message", [
        ("holder", "p", "3", "moment order p must be 2 or 4"),
        ("holder", "band_space", "0.4", "must be two values lo <= hi, got (0.4,)"),
        ("holder", "band_time", "0.3, 0.2", "must be two values lo <= hi, got (0.3, 0.2)"),
        ("holder", "band_time", "0.1, 0.2, 0.3",
         "must be two values lo <= hi, got (0.1, 0.2, 0.3)"),
        ("holder", "band_space", "0.4, x", "invalid number list '0.4, x'"),
        ("extinction", "species", "w", "must be one of ['u', 'v'], got 'w'"),
        ("extinction", "window_end", "soon", "invalid number 'soon'"),
        ("holder", "band_space", "0.25, inf", "must be finite, got '0.25, inf'"),
    ])
    def test_command_option_refused_at_its_line(self, section, key, value, message):
        msg = self.err(f"[model]\nu0 = 1.0\n[{section}]\n{key} = {value}\n")
        assert msg == f"cfg.ini:4: [{section}] {key}: {message}"

    @pytest.mark.parametrize("seed", [-1, 2**63])
    def test_seed_outside_63_bits_rejected(self, seed):
        msg = self.err(f"[model]\nu0 = 1.0\n[noise]\nmaster_seed = {seed}\n")
        assert msg == f"cfg.ini:4: [noise] master_seed must be in [0, 2^63), got {seed}"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError) as info:
            load_config(tmp_path / "nope.ini")
        assert "cannot read config" in str(info.value)

    def test_load_config_reads_file(self, tmp_path):
        p = tmp_path / "a.ini"
        p.write_text(GOOD)
        cfg = load_config(p)
        assert cfg.solver.grid_size == 32
        assert cfg.path == str(p)


class TestHashing:
    def test_hash_stable_across_reparse(self):
        assert parse(GOOD).config_hash == parse(GOOD).config_hash

    def test_hash_ignores_formatting(self):
        reformatted = GOOD.replace("dt = 1e-3", "dt=1e-3").replace(
            "# benchmark-ish scenario\n", "")
        assert parse(reformatted).config_hash == parse(GOOD).config_hash

    def test_hash_sees_coefficient_change(self):
        changed = GOOD.replace("b1 = 0.3", "b1 = 0.31")
        assert parse(changed).config_hash != parse(GOOD).config_hash

    def test_hash_sees_seed_override(self):
        cfg = parse(GOOD)
        assert cfg.with_overrides(seed=7).config_hash != cfg.config_hash

    def test_hash_ignores_output_dir_and_threads(self):
        cfg = parse(GOOD)
        moved = replace(cfg, run=replace(cfg.run, output_dir="elsewhere")).with_overrides(
            threads=4)
        assert moved.run.output_dir == "elsewhere"
        assert moved.config_hash == cfg.config_hash

    def test_hash_sees_extras(self):
        assert parse(GOOD + "\n[holder]\np = 2\n").config_hash != parse(GOOD).config_hash

    def test_canonical_text_sorted_and_complete(self):
        text = parse(GOOD).canonical_text()
        lines = text.strip().splitlines()
        assert lines == sorted(lines)
        for key in COEFFICIENT_NAMES:
            assert any(line.startswith(f"model.{key}=") for line in lines)
        assert "noise.master_seed=42" in lines

    def test_canonical_text_has_one_row_per_hashed_field(self):
        keys = [line.split("=", 1)[0] for line in parse(GOOD).canonical_text().splitlines()]
        assert sorted(keys) == sorted(
            f"{section}.{f.name}" for section, cls in SECTIONS.items() for f in fields(cls)
            if f"{section}.{f.name}" not in UNHASHED)

    def test_hash_sees_every_hashed_field(self):
        cfg = parse(GOOD)
        changed = {"solver": dict(
            scheme="spectral", dt=5e-4, t_final=1.0, grid_size=16,
            snapshot_times=(0.2,), record_interval=0.01,
            probe_sites=(0.5,), stats_after=0.1, space_lag_cells=(1, 3),
            time_lag_steps=(3,), space_anchor=0.5),
            "noise": dict(master_seed=43),
            "model": {**{name: "0.7" for name in COEFFICIENT_NAMES}, "u0": "0.6", "v0": "0.1"},
            "run": dict(n_paths=9),
            "holder": dict(p=2, band_space=(0.3, 0.6), band_time=(0.2, 0.4)),
            "extinction": dict(species="v", window_start=0.1, window_end=0.4)}
        assert set(changed) == set(SECTIONS)
        for section, values in changed.items():
            held = getattr(cfg, section)
            assert set(values) == {f.name for f in fields(held)
                                   if f"{section}.{f.name}" not in UNHASHED}
            for name, value in values.items():
                assert getattr(held, name) != value
                other = replace(cfg, **{section: replace(held, **{name: value})})
                assert other.config_hash != cfg.config_hash, f"{section}.{name}"

    @pytest.mark.parametrize("written, other", [
        ("[holder]\nband_space = 0.40, 0.55\n", "[holder]\nband_space = 0.4,0.55\n"),
        ("[holder]\nband_time = 0.18, 0.30\n", ""),
        ("[extinction]\nwindow_start = 5\n", "[extinction]\nwindow_start = 5.0\n"),
    ])
    def test_equal_values_written_differently_hash_alike(self, written, other):
        assert parse(GOOD + written).config_hash == parse(GOOD + other).config_hash

    # each derived default written out: record_interval t_final / 200,
    # window_end the last recorded time
    @pytest.mark.parametrize("written", [
        "record_interval = 0.005\n", "[extinction]\nwindow_end = 1.0\n"])
    def test_derived_default_written_out_hashes_alike(self, written):
        base = "[model]\nn = 8\nu0 = 1.0\n[solver]\nt_final = 1.0\n"
        assert parse(base + written).config_hash == parse(base).config_hash

    def test_record_interval_hashes_as_the_steps_it_records(self):
        # t_final / 200 = 5e-4 is below dt = 1e-3: both record every step
        base = "[model]\nn = 8\nu0 = 1.0\n[solver]\nt_final = 0.1\n"
        written = parse(base + "record_interval = 0.001\n")
        assert np.array_equal(written.solver.record_steps(), parse(base).solver.record_steps())
        assert written.config_hash == parse(base).config_hash

    def test_omitted_coefficient_hashes_as_zero(self):
        assert (parse(GOOD.replace("m2 = 0.8", "m2 = 0")).config_hash
                == parse(GOOD.replace("m2 = 0.8\n", "")).config_hash)

    def test_hash_ignores_the_file_name(self):
        assert parse(GOOD, "a.ini").config_hash == parse(GOOD, "b/c.ini").config_hash


class TestOverrides:
    def test_override_fields(self):
        cfg = parse(GOOD).with_overrides(seed=9, n_paths=3, threads=2)
        assert cfg.noise.master_seed == 9
        assert cfg.run.n_paths == 3
        assert cfg.run.threads == 2

    @pytest.mark.parametrize("override, message", [
        (dict(seed=-1), "--seed: master_seed must be in [0, 2^63), got -1"),
        (dict(seed=2**63), "--seed: master_seed must be in [0, 2^63), got 9223372036854775808"),
        (dict(n_paths=0), "--paths: n_paths must be >= 1, got 0"),
        (dict(threads=-1), "--threads: threads must be >= 0, got -1")])
    def test_out_of_range_override_names_its_flag(self, override, message):
        with pytest.raises(ConfigError) as info:
            parse(GOOD).with_overrides(**override)
        assert str(info.value) == message

    @pytest.mark.parametrize("change", [dict(n_paths=0), dict(threads=-1)])
    def test_replace_checks_the_run_ranges(self, change):
        with pytest.raises(FieldError) as info:
            replace(parse(GOOD).run, **change)
        assert info.value.field in change

    def test_largest_seed_accepted(self):
        assert parse(GOOD).with_overrides(seed=2**63 - 1).noise.master_seed == 2**63 - 1

    def test_none_overrides_are_identity(self):
        cfg = parse(GOOD)
        assert cfg.with_overrides() == cfg


def readme_config_keys():
    """(section, key) of every `key = default` in the first indented block
    of the README's Configs section."""
    configs = (ROOT / "README.md").read_text().split("\n## Configs\n", 1)[1]
    block = re.search(r"^((?: {4}.*\n)+)", configs, re.M).group(1)
    keys, section = set(), None
    for line in block.splitlines():
        header = re.match(r"\s*\[(\w+)\]", line)
        section = header.group(1) if header else section
        keys |= {(section, key) for key in re.findall(r"([a-z]\w*) =", line)}
    return keys


def test_readme_lists_every_config_key():
    # every field is the key of its name but these three; representation is
    # the one key that sets no field
    renamed = {("solver", "grid_size"): ("model", "n"),
               ("solver", "space_lag_cells"): ("solver", "space_lags"),
               ("solver", "time_lag_steps"): ("solver", "time_lags")}
    accepted = {renamed.get((section, f.name), (section, f.name))
                for section, cls in SECTIONS.items() for f in fields(cls)}
    assert readme_config_keys() == accepted | {("noise", "representation")}
