import json

import pytest
from hypothesis import HealthCheck, given, settings
from strategies import CONFIGS

from rumorsim import (
    ConfigFileError,
    IntegratorConfig,
    RumorSimError,
    config,
    default_initial_state,
    default_params,
)
from rumorsim.config import (
    apply_overrides,
    default_config,
    effective_dict,
    from_dict,
    load_config,
    write_effective_config,
)


class TestDefaults:
    def test_default_config_is_valid(self):
        cfg = default_config()
        assert cfg.model.beta == 0.300
        assert cfg.model.noise.i == 0.01
        assert cfg.initial.i == 0.005
        assert cfg.integrator.horizon == 200.0
        assert cfg.ensemble.run_count == 100
        assert cfg.sweep.taus == (0.0, 5.0, 10.0)
        assert cfg.output.formats == ("csv",)

    def test_partial_blocks_merge_with_defaults(self):
        cfg = from_dict({"model": {"beta": 0.075, "tau": 5.0}})
        assert cfg.model.beta == 0.075
        assert cfg.model.tau == 5.0
        assert cfg.model.gamma == 0.10  # untouched default
        assert cfg.model.noise.s == 0.01

    def test_partial_noise_override(self):
        cfg = from_dict({"model": {"noise": {"i": 0.0}}})
        assert cfg.model.noise.i == 0.0
        assert cfg.model.noise.s == 0.01

    def test_model_and_initial_defaults_are_the_model_module_ones(self):
        # derived from default_params() and default_initial_state(), and
        # bit-equal to the literals every echoed config has carried
        assert config._MODEL_DEFAULTS == {
            "beta": 0.3, "sigma_act": 0.25, "gamma": 0.1, "rho": 0.05,
            "theta": 0.1, "tau": 0.0, "population": 1.0,
        }
        assert config._INITIAL_DEFAULTS == {
            "s": 0.995, "e": 0.0, "i": 0.005, "r": 0.0, "ig": 0.0, "f": 0.0,
        }
        cfg = default_config()
        assert cfg.model == default_params()
        assert cfg.initial == default_initial_state(default_params())

    def test_integrator_defaults_are_the_integrator_config_ones(self):
        assert config._INTEGRATOR_DEFAULTS == {
            "step_size": 0.1, "horizon": 200.0, "projection_enabled": True,
            "record_stride": 1,
        }
        assert default_config().integrator == IntegratorConfig()


class TestValidation:
    def test_all_violations_reported_at_once(self):
        bad = {
            "model": {"beta": -1.0, "gamma": 0.0},
            "integrator": {"step_size": -0.1},
            "ensemble": {"run_count": 0},
        }
        with pytest.raises(ConfigFileError) as excinfo:
            from_dict(bad)
        joined = "\n".join(excinfo.value.violations)
        for field in ("model.beta", "model.gamma", "integrator.step_size", "ensemble.run_count"):
            assert field in joined
        assert len(excinfo.value.violations) >= 4

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigFileError, match="model.betta: unknown field"):
            from_dict({"model": {"betta": 0.3}})
        with pytest.raises(ConfigFileError, match="unknown block"):
            from_dict({"modell": {}})

    def test_initial_must_sum_to_population(self):
        with pytest.raises(ConfigFileError, match="sum to the population"):
            from_dict({"initial": {"s": 0.5, "i": 0.1}})

    def test_delay_grid_alignment_checked(self):
        with pytest.raises(ConfigFileError, match="tau"):
            from_dict({"model": {"tau": 0.25}})

    def test_types_checked(self):
        with pytest.raises(ConfigFileError, match="must be a number"):
            from_dict({"model": {"beta": "fast"}})
        with pytest.raises(ConfigFileError, match="must be an integer"):
            from_dict({"ensemble": {"seed": 1.5}})
        with pytest.raises(ConfigFileError, match="must be true or false"):
            from_dict({"integrator": {"projection_enabled": "yes"}})

    def test_formats_validated(self):
        with pytest.raises(ConfigFileError, match="output.formats"):
            from_dict({"output": {"formats": ["pdf"]}})

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigFileError, match="invalid JSON"):
            load_config(path)

    def test_missing_file_reported(self, tmp_path):
        with pytest.raises(ConfigFileError, match="cannot read"):
            load_config(tmp_path / "absent.json")

    def test_numbers_beyond_the_float_range_are_not_finite(self):
        with pytest.raises(ConfigFileError, match="model.beta: must be finite"):
            from_dict({"model": {"beta": 10**400}})
        with pytest.raises(ConfigFileError, match=r"sweep.taus\[1\]: must be finite"):
            from_dict({"sweep": {"taus": [0.0, -(10**400)]}})
        with pytest.raises(ConfigFileError, match=r"sweep.r0_values\[0\]: must be finite"):
            from_dict({"sweep": {"r0_values": [float("nan")]}})

    @pytest.mark.parametrize(
        "text",
        [
            b'{"model": {"beta": ' + b"1" * 5000 + b"}}",  # beyond int conversion
            b"[" * 100_000 + b"]" * 100_000,  # deeper than the decoder recurses
            b'\xff\xfe{"model": {}}',  # not UTF-8
        ],
        ids=["long-integer", "deep-nesting", "not-utf8"],
    )
    def test_undecodable_files_reported(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_bytes(text)
        with pytest.raises(ConfigFileError, match="invalid JSON"):
            load_config(path)


class TestFuzz:
    """Arbitrary JSON reaches no error but the package's typed ones."""

    @settings(
        max_examples=150,
        derandomize=True,
        deadline=None,
        database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
    )
    @given(data=CONFIGS)
    def test_only_typed_errors_escape(self, tmp_path, data):
        path = tmp_path / "fuzz.json"
        path.write_text(json.dumps(data))
        for load in (lambda: from_dict(data), lambda: load_config(path)):
            try:
                cfg = load()
            except RumorSimError:
                continue
            assert effective_dict(cfg) == effective_dict(from_dict(effective_dict(cfg)))


class TestEcho:
    def test_round_trip_is_identity(self, tmp_path):
        cfg = from_dict({"model": {"tau": 5.0}, "ensemble": {"seed": 9}})
        path = tmp_path / "effective_config.json"
        write_effective_config(cfg, path)
        reloaded = load_config(path)
        assert effective_dict(reloaded) == effective_dict(cfg)
        # echoing the echo is byte-stable
        path2 = tmp_path / "echo2.json"
        write_effective_config(reloaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_every_model_default_is_explicit(self, tmp_path):
        path = tmp_path / "cfg.json"
        write_effective_config(default_config(), path)
        data = json.loads(path.read_text())
        assert data["model"]["sigma_act"] == 0.25
        assert data["model"]["noise"]["f"] == 0.01
        assert data["initial"]["e"] == 0.0
        assert data["stability"]["run_count"] == 200


class TestOverrides:
    def test_seed_and_runs_hit_all_blocks(self):
        cfg = apply_overrides(default_config(), seed=4321, runs=7)
        assert cfg.ensemble.seed == 4321
        assert cfg.sweep.seed == 4321
        assert cfg.ensemble.run_count == 7
        assert cfg.sweep.run_count == 7
        assert cfg.stability.run_count == 7

    def test_out_dir_and_formats(self):
        cfg = apply_overrides(default_config(), out_dir="elsewhere", formats=("csv", "svg"))
        assert cfg.output.directory == "elsewhere"
        assert cfg.output.wants_svg

    def test_invalid_runs(self):
        with pytest.raises(ConfigFileError):
            apply_overrides(default_config(), runs=0)
