import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from strategies import CONFIGS

from rumorsim import (
    ConfigurationError,
    HistoryFunction,
    IntegratorConfig,
    ModelParams,
    NoiseIntensities,
    RumorSimError,
    StateVector,
    SweepSpec,
    confidence_band,
    config,
    default_initial_state,
    default_params,
    run_ensemble,
    simulate_linearized,
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
        # taken from default_params() and default_initial_state(), and
        # bit-equal to the literals every echoed config has carried
        assert schema_defaults("model") == {
            "beta": 0.3, "sigma_act": 0.25, "gamma": 0.1, "rho": 0.05,
            "theta": 0.1, "tau": 0.0, "population": 1.0,
        }
        assert schema_defaults("initial") == {
            "s": 0.995, "e": 0.0, "i": 0.005, "r": 0.0, "ig": 0.0, "f": 0.0,
        }
        cfg = default_config()
        assert cfg.model == default_params()
        assert cfg.initial == default_initial_state(default_params())

    def test_integrator_defaults_are_the_integrator_config_ones(self):
        assert schema_defaults("integrator") == {
            "step_size": 0.1, "horizon": 200.0, "projection_enabled": True,
            "record_stride": 1,
        }
        assert default_config().integrator == IntegratorConfig()


def schema_defaults(block):
    """The default of every scalar field the config schema lists for ``block``."""
    default = getattr(config._DEFAULTS, block)
    return {name: getattr(default, name) for name in config._SCHEMA[block] if name != "noise"}


class TestValidation:
    def test_all_violations_reported_at_once(self):
        bad = {
            "model": {"beta": -1.0, "gamma": 0.0},
            "integrator": {"step_size": -0.1},
            "ensemble": {"run_count": 0},
        }
        with pytest.raises(ConfigurationError) as excinfo:
            from_dict(bad)
        joined = "\n".join(excinfo.value.violations)
        for field in ("model.beta", "model.gamma", "integrator.step_size", "ensemble.run_count"):
            assert field in joined
        assert len(excinfo.value.violations) >= 4

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigurationError, match="model.betta: unknown field"):
            from_dict({"model": {"betta": 0.3}})
        with pytest.raises(ConfigurationError, match="unknown block"):
            from_dict({"modell": {}})

    def test_initial_must_sum_to_population(self):
        with pytest.raises(ConfigurationError, match="sum to the population"):
            from_dict({"initial": {"s": 0.5, "i": 0.1}})

    def test_delay_grid_alignment_checked(self):
        with pytest.raises(ConfigurationError, match="tau"):
            from_dict({"model": {"tau": 0.25}})

    def test_types_checked(self):
        with pytest.raises(ConfigurationError, match="must be a number"):
            from_dict({"model": {"beta": "fast"}})
        with pytest.raises(ConfigurationError, match="must be an integer"):
            from_dict({"ensemble": {"seed": 1.5}})
        with pytest.raises(ConfigurationError, match="must be true or false"):
            from_dict({"integrator": {"projection_enabled": "yes"}})

    def test_formats_validated(self):
        with pytest.raises(ConfigurationError, match="output.formats"):
            from_dict({"output": {"formats": ["pdf"]}})

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError, match="invalid JSON"):
            load_config(path)

    def test_missing_file_reported(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            load_config(tmp_path / "absent.json")

    def test_numbers_beyond_the_float_range_are_not_finite(self):
        with pytest.raises(ConfigurationError, match="model.beta: must be finite"):
            from_dict({"model": {"beta": 10**400}})
        with pytest.raises(ConfigurationError, match=r"sweep.taus\[1\]: must be finite"):
            from_dict({"sweep": {"taus": [0.0, -(10**400)]}})
        with pytest.raises(ConfigurationError, match=r"sweep.r0_values\[0\]: must be finite"):
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
        with pytest.raises(ConfigurationError, match="invalid JSON"):
            load_config(path)


class TestViolationOrder:
    """Every violation of a config, in the order the loader reports them."""

    def test_every_field_rule(self):
        data = {
            "bogus": {},
            "model": {
                "betta": 0.3, "beta": "fast", "sigma_act": 10**400, "gamma": 0.0, "rho": -1,
                "population": True, "noise": {"x": 0.1, "i": -0.5, "e": "y"},
            },
            "initial": {"s": 0.5, "q": 0.1, "e": -1},
            "integrator": {
                "step_size": 0.1, "horizon": 200.05, "projection_enabled": "yes", "record_stride": 0,
            },
            "ensemble": {"run_count": 0, "ci_level": 1.0, "ci_method": "median", "seed": 1.5},
            "stability": {"e0": 0, "i0": 0.0, "run_count": 0},
            "sweep": {"taus": [0.0, "x"], "r0_values": [], "run_count": 2.0, "seed": "7", "extra": 1},
            "output": {"directory": "", "formats": ["pdf", "csv", "csv"], "other": None},
        }
        with pytest.raises(ConfigurationError) as excinfo:
            from_dict(data)
        assert excinfo.value.violations == [
            "bogus: unknown block",
            "model.betta: unknown field",
            "model.beta: must be a number",
            "model.sigma_act: must be finite",
            "model.gamma: must be > 0, got 0",
            "model.rho: must be > 0, got -1",
            "model.population: must be a number",
            "model.noise.x: unknown field",
            "model.noise.e: must be a number",
            "model.noise.i: must be >= 0, got -0.5",
            "initial.q: unknown field",
            "initial.e: must be >= 0, got -1",
            "integrator.projection_enabled: must be true or false",
            "integrator.record_stride: must be >= 1, got 0",
            "ensemble.run_count: must be >= 1, got 0",
            "ensemble.ci_level: must be in (0, 1), got 1",
            "ensemble.ci_method: must be one of ['normal', 'quantile'], got 'median'",
            "ensemble.seed: must be an integer",
            "stability.e0/i0: must not both be zero",
            "stability.run_count: must be >= 1, got 0",
            "sweep.extra: unknown field",
            "sweep.taus[1]: must be a number",
            "sweep.r0_values: must be a non-empty list of numbers",
            "sweep.run_count: must be an integer",
            "sweep.seed: must be an integer",
            "output.other: unknown field",
            "output.directory: must be a non-empty string",
            "output.formats[0]: must be one of ['csv', 'svg'], got 'pdf'",
            "initial: components must sum to the population (1), got 0.505",
            "integrator: horizon (200.05) must be an integer multiple of the step size (0.1); "
            "got ratio 2000.5",
        ]

    def test_blocks_and_lists_of_the_wrong_type(self):
        data = {
            "model": {"noise": [0.1], "tau": 0.25},
            "initial": 5,
            "integrator": {"record_stride": 3},
            "output": {"formats": "csv"},
        }
        with pytest.raises(ConfigurationError) as excinfo:
            from_dict(data)
        assert excinfo.value.violations == [
            "model.noise: must be an object with per-compartment intensities",
            "initial: must be an object",
            "output.formats: must be a non-empty list drawn from ['csv', 'svg']",
            "integrator.record_stride: step count 2000 is not a multiple of 3",
            "integrator: tau (0.25) must be an integer multiple of the step size (0.1); got ratio 2.5",
        ]

    def test_horizon_shorter_than_one_step(self):
        data = {"model": {"beta": "x"}, "integrator": {"step_size": 1.0, "horizon": 1e-12}}
        with pytest.raises(ConfigurationError) as excinfo:
            from_dict(data)
        assert excinfo.value.violations == [
            "model.beta: must be a number",
            "integrator.horizon: must cover at least one step of size 1, got 1e-12",
        ]


class TestListItems:
    """Each item of a list is read by the list's item rule at ``path[k]``,
    and every bad item is reported."""

    def test_every_bad_number_is_reported_in_order(self):
        with pytest.raises(ConfigurationError) as excinfo:
            from_dict({"sweep": {"taus": [-1, "x", -2]}})
        assert excinfo.value.violations == [
            "sweep.taus[0]: must be >= 0, got -1",
            "sweep.taus[1]: must be a number",
            "sweep.taus[2]: must be >= 0, got -2",
        ]

    def test_the_library_names_every_bad_item(self):
        with pytest.raises(ConfigurationError) as excinfo:
            SweepSpec(taus=(-1.0, -2.0), r0_values=(1.0,), run_count=2, base_seed=1, template=default_params())
        assert str(excinfo.value) == "sweep.taus[0]: must be >= 0, got -1; sweep.taus[1]: must be >= 0, got -2"

    def test_every_bad_format_is_reported(self):
        with pytest.raises(ConfigurationError) as excinfo:
            from_dict({"output": {"formats": ["pdf", "x"]}})
        assert excinfo.value.violations == [
            "output.formats[0]: must be one of ['csv', 'svg'], got 'pdf'",
            "output.formats[1]: must be one of ['csv', 'svg'], got 'x'",
        ]

    def test_a_repeated_format_is_kept_as_given(self, tmp_path):
        cfg = from_dict({"output": {"formats": ["csv", "csv"]}})
        assert cfg.output.formats == ("csv", "csv")
        assert cfg.output.wants_csv and not cfg.output.wants_svg
        path = tmp_path / "effective_config.json"
        write_effective_config(cfg, path)
        assert json.loads(path.read_text())["output"]["formats"] == ["csv", "csv"]
        assert load_config(path) == cfg


_P = default_params()
_CFG = IntegratorConfig(0.1, 1.0)

# the library constructor or entry point that takes each block's fields
_LIBRARY = {
    "model": lambda **kw: ModelParams(**vars(_P) | kw),
    "model.noise": NoiseIntensities,
    "initial": lambda **kw: StateVector(**vars(default_initial_state(_P)) | kw),
    "integrator": IntegratorConfig,
    "ensemble": lambda run_count=2, **kw: run_ensemble(
        _P, HistoryFunction.constant(default_initial_state(_P)), _CFG, run_count, 1, **kw
    ),
    "stability": lambda e0=0.005, i0=0.005, run_count=2: simulate_linearized(_P, e0, i0, _CFG, run_count, 1),
    "sweep": lambda taus=(0.0,), r0_values=(1.0,), run_count=2: SweepSpec(taus, r0_values, run_count, 1, _P),
}

# a value that breaks each field's rule: a wrong type, a bound, a non-finite
# number, a list item or an empty list
_BROKEN = [
    ("model.beta", "0.3"),
    ("integrator.projection_enabled", "no"),
    ("initial.s", True),
    ("ensemble.run_count", 2.5),
    ("sweep.r0_values", [math.inf]),
    ("stability.run_count", 2.5),
    ("sweep.run_count", 2.5),
    ("model.sigma_act", 0.0),
    ("model.gamma", -1.0),
    ("model.rho", math.nan),
    ("model.theta", True),
    ("model.tau", -0.5),
    ("model.population", 10**400),
    ("model.noise.s", -0.1),
    ("model.noise.e", "x"),
    ("model.noise.i", math.inf),
    ("model.noise.r", None),
    ("model.noise.ig", [0.1]),
    ("model.noise.f", -1),
    ("initial.e", -0.1),
    ("initial.i", "0"),
    ("initial.r", -math.inf),
    ("initial.ig", None),
    ("initial.f", -1e-9),
    ("integrator.step_size", 0.0),
    ("integrator.horizon", -1.0),
    ("integrator.record_stride", 1.5),
    ("ensemble.ci_level", 1.0),
    ("ensemble.ci_method", "median"),
    ("stability.e0", -1.0),
    ("stability.i0", "x"),
    ("sweep.taus", [-1.0]),
    ("sweep.taus", []),
]


class TestSweepGridOnLoad:
    """A file's own sweep grid meets the sweep's rules as it loads; default
    delays the file never wrote do not, whatever its step size."""

    def test_a_step_that_misses_the_default_delays_loads(self):
        cfg = from_dict({"integrator": {"step_size": 2.0}})
        assert (cfg.integrator.step_size, cfg.sweep.taus) == (2.0, (0.0, 5.0, 10.0))

    @pytest.mark.parametrize(
        "sweep,expected",
        [
            (
                {"r0_values": [1, 1]},
                "sweep grid repeats a cell: taus and R0 values must each be distinct to 9 decimals",
            ),
            ({"taus": [-1]}, "sweep.taus[0]: must be >= 0, got -1"),
            (
                {"taus": [0, 3]},
                "sweep.taus[1]: tau (3) must be an integer multiple of the step size (2); got ratio 1.5",
            ),
        ],
        ids=["repeat", "bad-item", "off-grid"],
    )
    def test_only_the_files_own_grid_is_checked(self, sweep, expected):
        with pytest.raises(ConfigurationError) as failed:
            from_dict({"integrator": {"step_size": 2.0}, "sweep": sweep})
        assert failed.value.violations == [expected]


class TestLibraryAgreement:
    """The config file and the library reject a value by the same rule, in
    the same words."""

    def test_every_rule_table_field_is_broken(self):
        schema = {**config._SCHEMA, "model.noise": config._SCHEMA["model"]["noise"]}
        fields = {
            f"{block}.{name}" for block, rules in schema.items() for name in rules
            if block != "output" and name not in ("seed", "noise")
        }
        assert fields == {path for path, _ in _BROKEN}

    @pytest.mark.parametrize("path,value", _BROKEN, ids=[f"{p}={v!r:.12}" for p, v in _BROKEN])
    def test_config_and_library_report_the_same_violation(self, path, value):
        *blocks, name = path.split(".")
        data = {name: value}
        for block in reversed(blocks):
            data = {block: data}
        with pytest.raises(ConfigurationError) as from_file:
            from_dict(data)
        with pytest.raises(ConfigurationError) as from_library:
            _LIBRARY[".".join(blocks)](**{name: value})
        assert [v.split(":")[0].split("[")[0] for v in from_file.value.violations] == [path]
        assert str(from_library.value) == from_file.value.violations[0]

    @pytest.mark.parametrize(
        "step_size,horizon,record_stride",
        [(1.0, 1e-12, 1), (0.1, 1.0, 3), (0.1, 1.05, 1)],
        ids=["below-one-step", "stride", "off-grid"],
    )
    def test_grid_contract_in_the_same_words(self, step_size, horizon, record_stride):
        data = {"integrator": {"step_size": step_size, "horizon": horizon, "record_stride": record_stride}}
        with pytest.raises(ConfigurationError) as from_file:
            from_dict(data)
        with pytest.raises(ConfigurationError) as from_library:
            IntegratorConfig(step_size, horizon, record_stride=record_stride)
        assert [str(from_library.value)] == from_file.value.violations

    @pytest.mark.parametrize(
        "path,level,method", [("ensemble.ci_level", 0.0, "normal"), ("ensemble.ci_method", 0.9, "")]
    )
    def test_confidence_band_reports_the_ensemble_violation(self, path, level, method):
        with pytest.raises(ConfigurationError, match=rf"^{path}: must be"):
            confidence_band([1.0, 2.0], level, method)


class TestOneExceptionType:
    """A file, a flag and a constructor raise one type, which lists every
    violation in the order reported; its message is their join."""

    @pytest.mark.parametrize(
        "make,expected",
        [
            (lambda: from_dict({"model": {"beta": -1, "gamma": 0}, "output": {"formats": []}}), [
                "model.beta: must be >= 0, got -1", "model.gamma: must be > 0, got 0",
                "output.formats: must be a non-empty list drawn from ['csv', 'svg']",
            ]),
            (lambda: apply_overrides(default_config(), seed=True, runs=0), [
                "--seed: must be an integer", "--runs: must be >= 1, got 0",
            ]),
            (lambda: ModelParams(-1.0, 0.25, 0.0, 0.05, 0.1), [
                "model.beta: must be >= 0, got -1", "model.gamma: must be > 0, got 0",
            ]),
            (lambda: SweepSpec((0.05, 0.05), (1.0,), 2, 0, default_params()), [
                "sweep grid repeats a cell: taus and R0 values must each be distinct to 9 decimals",
                "sweep.taus[0]: tau (0.05) must be an integer multiple of the step size (0.1); got ratio 0.5",
                "sweep.taus[1]: tau (0.05) must be an integer multiple of the step size (0.1); got ratio 0.5",
            ]),
        ],
        ids=["from_dict", "apply_overrides", "ModelParams", "SweepSpec"],
    )
    def test_every_entry_lists_its_violations(self, make, expected):
        with pytest.raises(ConfigurationError) as failed:
            make()
        assert failed.value.violations == expected
        assert str(failed.value) == "; ".join(expected)

    @pytest.mark.parametrize("content,prefix", [(None, "config: cannot read "), ("{", "config: invalid JSON in ")])
    def test_load_config_lists_its_one_violation(self, tmp_path, content, prefix):
        path = tmp_path / "cfg.json"
        if content is not None:
            path.write_text(content)
        with pytest.raises(ConfigurationError) as failed:
            load_config(path)
        [violation] = failed.value.violations
        assert violation.startswith(f"{prefix}{path}") and str(failed.value) == violation


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
        with pytest.raises(ConfigurationError):
            apply_overrides(default_config(), runs=0)

    def test_flags_are_read_by_the_rules_of_their_fields(self):
        with pytest.raises(ConfigurationError) as failed:
            apply_overrides(default_config(), seed=True, runs=0, out_dir="", formats=("pdf",))
        assert failed.value.violations == [
            "--seed: must be an integer",
            "--runs: must be >= 1, got 0",
            "--out: must be a non-empty string",
            "--format[0]: must be one of ['csv', 'svg'], got 'pdf'",
        ]
