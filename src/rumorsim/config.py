"""Run configuration: a single JSON file with nested blocks, validated in
one pass, and echoed back with every default resolved.

Validation collects *all* violations before raising, so a bad file can be
fixed in one edit.  The echoed effective configuration is a pure function
of the resolved settings (sorted keys, fixed formatting); loading the echo
and running again reproduces identical outputs, which is how the CLI's
determinism contract is exercised.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace

from .errors import ConfigFileError, ConfigurationError
from .integrator import IntegratorConfig, steps_on_grid
from .model import (
    COMPARTMENTS,
    DEFAULT_NOISE_INTENSITY,
    ModelParams,
    NoiseIntensities,
    StateVector,
    default_initial_state,
    default_params,
)

__all__ = [
    "EnsembleSettings",
    "OutputSettings",
    "RunConfig",
    "StabilitySettings",
    "SweepSettings",
    "apply_overrides",
    "default_config",
    "effective_dict",
    "from_dict",
    "load_config",
    "write_effective_config",
]

_MODEL_DEFAULTS = {key: value for key, value in asdict(default_params()).items() if key != "noise"}
_INITIAL_DEFAULTS = asdict(default_initial_state(default_params()))
_INTEGRATOR_DEFAULTS = asdict(IntegratorConfig())
_ENSEMBLE_DEFAULTS = {"run_count": 100, "ci_level": 0.95, "ci_method": "quantile", "seed": 12345}
_STABILITY_DEFAULTS = {"e0": 0.005, "i0": 0.005, "run_count": 200}
_SWEEP_DEFAULTS = {
    "taus": [0.0, 5.0, 10.0],
    "r0_values": [0.5, 0.8, 1.0, 1.2, 1.5, 2.0],
    "run_count": 100,
    "seed": 777,
}
_OUTPUT_DEFAULTS = {"directory": "out", "formats": ["csv"]}


@dataclass(frozen=True)
class EnsembleSettings:
    run_count: int
    ci_level: float
    ci_method: str
    seed: int


@dataclass(frozen=True)
class StabilitySettings:
    e0: float
    i0: float
    run_count: int


@dataclass(frozen=True)
class SweepSettings:
    taus: tuple[float, ...]
    r0_values: tuple[float, ...]
    run_count: int
    seed: int


@dataclass(frozen=True)
class OutputSettings:
    directory: str
    formats: tuple[str, ...]

    @property
    def wants_csv(self) -> bool:
        return "csv" in self.formats

    @property
    def wants_svg(self) -> bool:
        return "svg" in self.formats


@dataclass(frozen=True)
class RunConfig:
    model: ModelParams
    initial: StateVector
    integrator: IntegratorConfig
    ensemble: EnsembleSettings
    stability: StabilitySettings
    sweep: SweepSettings
    output: OutputSettings


class _Collector:
    def __init__(self):
        self.errors: list[str] = []

    def add(self, message: str) -> None:
        self.errors.append(message)

    def block(self, data: dict, name: str, allowed) -> dict:
        raw = data.get(name, {})
        if not isinstance(raw, dict):
            self.add(f"{name}: must be an object")
            return {}
        for key in raw:
            if key not in allowed:
                self.add(f"{name}.{key}: unknown field")
        return raw

    def finite(self, value, path):
        """``value`` as a finite float, or ``None`` after recording why not;
        a JSON integer beyond the float range counts as infinite."""
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            self.add(f"{path}: must be a number")
            return None
        try:
            value = float(value)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            self.add(f"{path}: must be finite")
            return None
        return value

    def number(self, raw, path, default, *, minimum=None, exclusive=False):
        value = self.finite(raw.get(path.split(".")[-1], default), path)
        if value is None:
            return default
        if minimum is not None:
            if exclusive and value <= minimum:
                self.add(f"{path}: must be > {minimum:g}, got {value:g}")
                return default
            if not exclusive and value < minimum:
                self.add(f"{path}: must be >= {minimum:g}, got {value:g}")
                return default
        return value

    def integer(self, raw, path, default, *, minimum=None):
        value = raw.get(path.split(".")[-1], default)
        if isinstance(value, bool) or not isinstance(value, int):
            self.add(f"{path}: must be an integer")
            return default
        if minimum is not None and value < minimum:
            self.add(f"{path}: must be >= {minimum}, got {value}")
            return default
        return value

    def boolean(self, raw, path, default):
        value = raw.get(path.split(".")[-1], default)
        if not isinstance(value, bool):
            self.add(f"{path}: must be true or false")
            return default
        return value

    def choice(self, raw, path, default, choices):
        value = raw.get(path.split(".")[-1], default)
        if value not in choices:
            self.add(f"{path}: must be one of {sorted(choices)}, got {value!r}")
            return default
        return value

    def number_list(self, raw, path, default, *, minimum=None, exclusive=False):
        value = raw.get(path.split(".")[-1], default)
        if not isinstance(value, (list, tuple)) or not value:
            self.add(f"{path}: must be a non-empty list of numbers")
            return list(default)
        out = []
        for idx, item in enumerate(value):
            item = self.finite(item, f"{path}[{idx}]")
            if item is None:
                return list(default)
            if minimum is not None and (item <= minimum if exclusive else item < minimum):
                op = ">" if exclusive else ">="
                self.add(f"{path}[{idx}]: must be {op} {minimum:g}, got {item:g}")
                return list(default)
            out.append(item)
        return out


def from_dict(data: dict) -> RunConfig:
    """Build a validated configuration, filling defaults for every missing
    field.  Raises :class:`ConfigFileError` carrying *every* violation.
    """
    if not isinstance(data, dict):
        raise ConfigFileError(["config: top level must be an object"])
    col = _Collector()
    for key in data:
        if key not in ("model", "initial", "integrator", "ensemble", "stability", "sweep", "output"):
            col.add(f"{key}: unknown block")

    model_raw = col.block(data, "model", set(_MODEL_DEFAULTS) | {"noise"})
    beta = col.number(model_raw, "model.beta", _MODEL_DEFAULTS["beta"], minimum=0.0)
    sigma_act = col.number(model_raw, "model.sigma_act", _MODEL_DEFAULTS["sigma_act"], minimum=0.0, exclusive=True)
    gamma = col.number(model_raw, "model.gamma", _MODEL_DEFAULTS["gamma"], minimum=0.0, exclusive=True)
    rho = col.number(model_raw, "model.rho", _MODEL_DEFAULTS["rho"], minimum=0.0, exclusive=True)
    theta = col.number(model_raw, "model.theta", _MODEL_DEFAULTS["theta"], minimum=0.0, exclusive=True)
    tau = col.number(model_raw, "model.tau", _MODEL_DEFAULTS["tau"], minimum=0.0)
    population = col.number(model_raw, "model.population", _MODEL_DEFAULTS["population"], minimum=0.0, exclusive=True)
    noise_raw = model_raw.get("noise", {})
    if not isinstance(noise_raw, dict):
        col.add("model.noise: must be an object with per-compartment intensities")
        noise_raw = {}
    for key in noise_raw:
        if key not in COMPARTMENTS:
            col.add(f"model.noise.{key}: unknown field")
    noise_values = {
        name: col.number(noise_raw, f"model.noise.{name}", DEFAULT_NOISE_INTENSITY, minimum=0.0)
        for name in COMPARTMENTS
    }

    initial_raw = col.block(data, "initial", set(COMPARTMENTS))
    initial_values = {
        name: col.number(initial_raw, f"initial.{name}", _INITIAL_DEFAULTS[name], minimum=0.0)
        for name in COMPARTMENTS
    }

    integ_raw = col.block(data, "integrator", set(_INTEGRATOR_DEFAULTS))
    step_size = col.number(integ_raw, "integrator.step_size", _INTEGRATOR_DEFAULTS["step_size"], minimum=0.0, exclusive=True)
    horizon = col.number(integ_raw, "integrator.horizon", _INTEGRATOR_DEFAULTS["horizon"], minimum=0.0, exclusive=True)
    projection = col.boolean(integ_raw, "integrator.projection_enabled", _INTEGRATOR_DEFAULTS["projection_enabled"])
    record_stride = col.integer(integ_raw, "integrator.record_stride", _INTEGRATOR_DEFAULTS["record_stride"], minimum=1)

    ens_raw = col.block(data, "ensemble", set(_ENSEMBLE_DEFAULTS))
    ens_runs = col.integer(ens_raw, "ensemble.run_count", _ENSEMBLE_DEFAULTS["run_count"], minimum=1)
    ci_level = col.number(ens_raw, "ensemble.ci_level", _ENSEMBLE_DEFAULTS["ci_level"])
    if not 0.0 < ci_level < 1.0:
        col.add(f"ensemble.ci_level: must be in (0, 1), got {ci_level:g}")
        ci_level = _ENSEMBLE_DEFAULTS["ci_level"]
    ci_method = col.choice(ens_raw, "ensemble.ci_method", _ENSEMBLE_DEFAULTS["ci_method"], ("quantile", "normal"))
    ens_seed = col.integer(ens_raw, "ensemble.seed", _ENSEMBLE_DEFAULTS["seed"])

    stab_raw = col.block(data, "stability", set(_STABILITY_DEFAULTS))
    e0 = col.number(stab_raw, "stability.e0", _STABILITY_DEFAULTS["e0"], minimum=0.0)
    i0 = col.number(stab_raw, "stability.i0", _STABILITY_DEFAULTS["i0"], minimum=0.0)
    if e0 == 0.0 and i0 == 0.0:
        col.add("stability.e0/i0: must not both be zero")
        e0, i0 = _STABILITY_DEFAULTS["e0"], _STABILITY_DEFAULTS["i0"]
    stab_runs = col.integer(stab_raw, "stability.run_count", _STABILITY_DEFAULTS["run_count"], minimum=1)

    sweep_raw = col.block(data, "sweep", set(_SWEEP_DEFAULTS))
    taus = col.number_list(sweep_raw, "sweep.taus", _SWEEP_DEFAULTS["taus"], minimum=0.0)
    r0_values = col.number_list(sweep_raw, "sweep.r0_values", _SWEEP_DEFAULTS["r0_values"], minimum=0.0, exclusive=True)
    sweep_runs = col.integer(sweep_raw, "sweep.run_count", _SWEEP_DEFAULTS["run_count"], minimum=1)
    sweep_seed = col.integer(sweep_raw, "sweep.seed", _SWEEP_DEFAULTS["seed"])

    out_raw = col.block(data, "output", set(_OUTPUT_DEFAULTS))
    directory = out_raw.get("directory", _OUTPUT_DEFAULTS["directory"])
    if not isinstance(directory, str) or not directory:
        col.add("output.directory: must be a non-empty string")
        directory = _OUTPUT_DEFAULTS["directory"]
    formats_raw = out_raw.get("formats", _OUTPUT_DEFAULTS["formats"])
    if not isinstance(formats_raw, (list, tuple)) or not formats_raw:
        col.add("output.formats: must be a non-empty list drawn from ['csv', 'svg']")
        formats_raw = _OUTPUT_DEFAULTS["formats"]
    formats = []
    for item in formats_raw:
        if item not in ("csv", "svg"):
            col.add(f"output.formats: must contain only 'csv' or 'svg', got {item!r}")
        elif item not in formats:
            formats.append(item)
    if not formats:
        formats = list(_OUTPUT_DEFAULTS["formats"])

    # cross-field contracts, checked here so one pass reports everything
    initial_sum = sum(initial_values.values())
    if abs(initial_sum - population) > 1e-9 * population:
        col.add(
            f"initial: components must sum to the population "
            f"({population:g}), got {initial_sum:g}"
        )
    try:
        n_steps = steps_on_grid(horizon, step_size, "horizon")
        if n_steps % record_stride != 0:
            col.add(
                f"integrator.record_stride: step count {n_steps} is not a multiple of {record_stride}"
            )
        steps_on_grid(tau, step_size, "tau")
    except ConfigurationError as exc:
        col.add(f"integrator: {exc}")

    if col.errors:
        raise ConfigFileError(col.errors)

    model = ModelParams(
        beta=beta,
        sigma_act=sigma_act,
        gamma=gamma,
        rho=rho,
        theta=theta,
        tau=tau,
        noise=NoiseIntensities(**noise_values),
        population=population,
    )
    return RunConfig(
        model=model,
        initial=StateVector(**initial_values),
        integrator=IntegratorConfig(
            step_size=step_size,
            horizon=horizon,
            projection_enabled=projection,
            record_stride=record_stride,
        ),
        ensemble=EnsembleSettings(
            run_count=ens_runs, ci_level=ci_level, ci_method=ci_method, seed=ens_seed
        ),
        stability=StabilitySettings(e0=e0, i0=i0, run_count=stab_runs),
        sweep=SweepSettings(
            taus=tuple(taus), r0_values=tuple(r0_values), run_count=sweep_runs, seed=sweep_seed
        ),
        output=OutputSettings(directory=directory, formats=tuple(formats)),
    )


def default_config() -> RunConfig:
    return from_dict({})


def load_config(path) -> RunConfig:
    """Load and validate a JSON configuration file."""
    try:
        with open(path, "r") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigFileError([f"config: cannot read {path}: {exc}"]) from exc
    except (ValueError, RecursionError) as exc:
        # malformed JSON, bytes that are not UTF-8, an integer longer than
        # Python converts, or nesting deeper than the decoder recurses
        raise ConfigFileError([f"config: invalid JSON in {path}: {exc}"]) from exc
    return from_dict(data)


def effective_dict(cfg: RunConfig) -> dict:
    """The fully resolved configuration as a plain dict, every field
    explicit so assumptions are never hidden."""
    return asdict(cfg)


def write_effective_config(cfg: RunConfig, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(json.dumps(effective_dict(cfg), indent=2, sort_keys=True) + "\n")


def apply_overrides(
    cfg: RunConfig,
    *,
    seed: int | None = None,
    runs: int | None = None,
    out_dir: str | None = None,
    formats: tuple[str, ...] | None = None,
) -> RunConfig:
    """Apply CLI flag overrides.  ``seed`` and ``runs`` apply to both the
    ensemble and sweep blocks (the flag wins wherever it is meaningful)."""
    ensemble = cfg.ensemble
    sweep = cfg.sweep
    stability = cfg.stability
    output = cfg.output
    if seed is not None:
        ensemble = replace(ensemble, seed=seed)
        sweep = replace(sweep, seed=seed)
    if runs is not None:
        if runs < 1:
            raise ConfigFileError(["--runs: must be >= 1"])
        ensemble = replace(ensemble, run_count=runs)
        sweep = replace(sweep, run_count=runs)
        stability = replace(stability, run_count=runs)
    if out_dir is not None:
        output = replace(output, directory=out_dir)
    if formats is not None:
        output = replace(output, formats=formats)
    return replace(cfg, ensemble=ensemble, sweep=sweep, stability=stability, output=output)
