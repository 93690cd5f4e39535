"""Config parsing, validation, and provenance hashing."""

from dataclasses import fields, replace

import numpy as np
import pytest

from lvfield.config import ConfigError, load_config, parse_config_text
from lvfield.model import COEFFICIENT_NAMES
from lvfield.noise import NoisePlan
from lvfield.solver import SolverConfig

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
name = bench
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
        assert cfg.n_paths == 8
        assert cfg.name == "bench"
        assert cfg.coefficients["b1"] == "0.3"

    def test_defaults(self):
        cfg = parse("[model]\nu0 = 1.0\n")
        assert cfg.solver == SolverConfig(grid_size=64)
        assert cfg.noise == NoisePlan(representation="sheet", master_seed=0)
        assert cfg.v0 == "0"
        assert cfg.n_paths == 1
        assert cfg.threads == 1

    def test_spectral_scheme_defaults_spectral_noise(self):
        cfg = parse("[model]\nu0 = 1.0\n[solver]\nscheme = spectral\n")
        assert cfg.noise.representation == "spectral"

    def test_name_defaults_to_file_stem(self):
        cfg = parse("[model]\nu0 = 1.0\n", path="configs/extinction.ini")
        assert cfg.name == "extinction"

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse("; header\n\n[model]\n# noise\nu0 = 2.0\n")
        assert cfg.u0 == "2.0"

    def test_extras_survive(self):
        cfg = parse(GOOD + "\n[holder]\np = 4\nband_space = 0.40, 0.55\n")
        view = cfg.extra("holder")
        assert view.get_int("p") == 4
        assert view.get_float_list("band_space") == (0.40, 0.55)

    def test_extra_refuses_a_section_no_command_reads(self):
        with pytest.raises(KeyError, match="simulate"):
            parse(GOOD).extra("simulate")

    def test_derived_objects_build(self):
        cfg = parse(GOOD)
        coeffs = cfg.coefficient_set()
        init = cfg.initial_field()
        assert coeffs.m1.shape == (32,)
        assert np.all(init.u > 0)
        assert cfg.noise_plan() is cfg.noise
        assert cfg.solver_config() is cfg.solver
        assert cfg.noise.representation == "sheet"
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
        assert "must be one of" in msg

    @pytest.mark.parametrize("section,key,value", [
        ("solver", "n_modes", "8"), ("noise", "n_modes", "8"),
        ("noise", "weights", "power:1.5"), ("noise", "summability_class", "3")])
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
        ("record_interval", "1e-4", "record_interval must be >= dt"),
        ("truncation_radius", "-1", "truncation_radius must be positive"),
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
        msg = self.err("[model]\nn = 1\nu0 = 1.0\n")
        assert "grid size" in msg

    def test_zero_paths_rejected(self):
        msg = self.err("[model]\nu0 = 1.0\n[run]\nn_paths = 0\n")
        assert "n_paths" in msg

    @pytest.mark.parametrize("seed", [-1, 2**63])
    def test_seed_outside_63_bits_rejected(self, seed):
        msg = self.err(f"[model]\nu0 = 1.0\n[noise]\nmaster_seed = {seed}\n")
        assert "cfg.ini:4" in msg
        assert "master_seed" in msg

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
        moved = replace(cfg, output_dir="elsewhere").with_overrides(threads=4)
        assert moved.output_dir == "elsewhere"
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

    def test_canonical_text_has_one_row_per_solver_and_noise_field(self):
        lines = parse(GOOD).canonical_text().splitlines()
        for section, cls in (("solver", SolverConfig), ("noise", NoisePlan)):
            keys = sorted(line.split("=", 1)[0] for line in lines
                          if line.startswith(f"{section}."))
            assert keys == sorted(f"{section}.{f.name}" for f in fields(cls))

    def test_hash_sees_every_solver_and_noise_field(self):
        cfg = parse(GOOD)
        changed = {"solver": dict(
            scheme="spectral", dt=5e-4, t_final=1.0, grid_size=16,
            snapshot_times=(0.2,), record_interval=0.01, truncation_radius=5.0,
            probe_sites=(0.5,), stats_after=0.1, space_lag_cells=(1, 3),
            time_lag_steps=(3,), space_anchor=0.5),
            "noise": dict(representation="spectral", master_seed=43)}
        for section, values in changed.items():
            held = getattr(cfg, section)
            assert set(values) == {f.name for f in fields(held)}
            for name, value in values.items():
                assert getattr(held, name) != value
                other = replace(cfg, **{section: replace(held, **{name: value})})
                assert other.config_hash != cfg.config_hash, f"{section}.{name}"


class TestOverrides:
    def test_override_fields(self):
        cfg = parse(GOOD).with_overrides(seed=9, n_paths=3, threads=2)
        assert cfg.noise.master_seed == 9
        assert cfg.n_paths == 3
        assert cfg.threads == 2

    @pytest.mark.parametrize("override", [
        dict(seed=-1), dict(seed=2**63), dict(n_paths=0), dict(threads=-1)])
    def test_out_of_range_override_rejected(self, override):
        with pytest.raises(ConfigError, match="must be"):
            parse(GOOD).with_overrides(**override)

    def test_largest_seed_accepted(self):
        assert parse(GOOD).with_overrides(seed=2**63 - 1).noise.master_seed == 2**63 - 1

    def test_none_overrides_are_identity(self):
        cfg = parse(GOOD)
        assert cfg.with_overrides() == cfg
