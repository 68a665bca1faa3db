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

from .ensemble import CI_METHODS
from .errors import ConfigFileError, ConfigurationError
from .integrator import IntegratorConfig, steps_on_grid
from .model import (
    COMPARTMENTS, ModelParams, NoiseIntensities, StateVector, default_initial_state, default_params,
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

@dataclass(frozen=True)
class EnsembleSettings:
    run_count: int = 100
    ci_level: float = 0.95
    ci_method: str = "quantile"
    seed: int = 12345


@dataclass(frozen=True)
class StabilitySettings:
    e0: float = 0.005
    i0: float = 0.005
    run_count: int = 200


@dataclass(frozen=True)
class SweepSettings:
    taus: tuple[float, ...] = (0.0, 5.0, 10.0)
    r0_values: tuple[float, ...] = (0.5, 0.8, 1.0, 1.2, 1.5, 2.0)
    run_count: int = 100
    seed: int = 777


@dataclass(frozen=True)
class OutputSettings:
    directory: str = "out"
    formats: tuple[str, ...] = ("csv",)

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


_DEFAULTS = RunConfig(
    default_params(), default_initial_state(default_params()), IntegratorConfig(),
    EnsembleSettings(), StabilitySettings(), SweepSettings(), OutputSettings(),
)

_NONNEGATIVE = (float, ">= 0", lambda v: v >= 0.0)
_POSITIVE = (float, "> 0", lambda v: v > 0.0)
_COUNT = (int, ">= 1", lambda v: v >= 1)

# Each block's fields, in the order their violations are reported, with the
# rule a value must pass: a type, a ``(type, bound, test)`` triple, a
# frozenset of the strings allowed, a one-rule list for a non-empty list of
# values that pass it, or the rules of the noise object.
_SCHEMA = {
    "model": {
        "beta": _NONNEGATIVE, "sigma_act": _POSITIVE, "gamma": _POSITIVE, "rho": _POSITIVE,
        "theta": _POSITIVE, "tau": _NONNEGATIVE, "population": _POSITIVE,
        "noise": dict.fromkeys(COMPARTMENTS, _NONNEGATIVE),
    },
    "initial": dict.fromkeys(COMPARTMENTS, _NONNEGATIVE),
    "integrator": {
        "step_size": _POSITIVE, "horizon": _POSITIVE, "projection_enabled": bool, "record_stride": _COUNT,
    },
    "ensemble": {
        "run_count": _COUNT, "ci_level": (float, "in (0, 1)", lambda v: 0.0 < v < 1.0),
        "ci_method": frozenset(CI_METHODS), "seed": int,
    },
    "stability": {"e0": _NONNEGATIVE, "i0": _NONNEGATIVE, "run_count": _COUNT},
    "sweep": {"taus": [_NONNEGATIVE], "r0_values": [_POSITIVE], "run_count": _COUNT, "seed": int},
    "output": {"directory": str, "formats": [frozenset({"csv", "svg"})]},
}

_KINDS = {float: "a number", int: "an integer", bool: "true or false", str: "a non-empty string"}


class _Reader:
    """Reads values by the rules of :data:`_SCHEMA`, recording every
    violation; a value that breaks its rule reads as its default."""

    def __init__(self):
        self.errors: list[str] = []

    def reject(self, message: str, default):
        self.errors.append(message)
        return default

    def block(self, raw, path: str, rules: dict, default, what: str = "") -> dict:
        """The fields of the object ``raw``, a missing one at its value in ``default``."""
        if not isinstance(raw, dict):
            raw = self.reject(f"{path}: must be an object{what}", {})
        self.errors += [f"{path}.{key}: unknown field" for key in raw if key not in rules]
        values = {}
        for name, rule in rules.items():
            fallback = getattr(default, name)
            values[name] = self.read(raw[name], f"{path}.{name}", rule, fallback) if name in raw else fallback
            # the one rule on two fields, reported as soon as both are read
            if path == "stability" and name == "i0" and values["e0"] == values["i0"] == 0.0:
                self.errors.append("stability.e0/i0: must not both be zero")
        return values

    def read(self, value, path: str, rule, default):
        """``value`` if it passes ``rule``, else ``default``."""
        if isinstance(rule, dict):
            noise = self.block(value, path, rule, default, " with per-compartment intensities")
            return NoiseIntensities(**noise)
        if isinstance(rule, frozenset):
            if value not in sorted(rule):  # a list: a JSON value may be unhashable
                return self.reject(f"{path}: must be one of {sorted(rule)}, got {value!r}", default)
            return value
        if isinstance(rule, list) and isinstance(rule[0], frozenset):
            allowed = sorted(rule[0])
            if not isinstance(value, (list, tuple)) or not value:
                return self.reject(f"{path}: must be a non-empty list drawn from {allowed}", default)
            picked = []
            for item in value:
                if item not in allowed:
                    either = " or ".join(map(repr, allowed))
                    self.errors.append(f"{path}: must contain only {either}, got {item!r}")
                elif item not in picked:
                    picked.append(item)
            return tuple(picked) or default
        if isinstance(rule, list):
            if not isinstance(value, (list, tuple)) or not value:
                return self.reject(f"{path}: must be a non-empty list of numbers", default)
            items = []
            for k, item in enumerate(value):
                item = self.read(item, f"{path}[{k}]", rule[0], None)
                if item is None:
                    return default
                items.append(item)
            return tuple(items)
        kind, bound, test = rule if isinstance(rule, tuple) else (rule, None, None)
        types = (int, float) if kind is float else kind
        # JSON's true and false are Python ints, but neither numbers nor integers here
        if not isinstance(value, types) or isinstance(value, bool) is not (kind is bool) or value == "":
            return self.reject(f"{path}: must be {_KINDS[kind]}", default)
        if kind is float:
            try:
                value = float(value)
            except OverflowError:  # a JSON integer beyond the float range
                value = math.inf
            if not math.isfinite(value):
                return self.reject(f"{path}: must be finite", default)
        if bound and not test(value):
            shown = f"{value:g}" if kind is float else value
            return self.reject(f"{path}: must be {bound}, got {shown}", default)
        return value


def from_dict(data: dict) -> RunConfig:
    """Build a validated configuration, filling defaults for every missing
    field.  Raises :class:`ConfigFileError` carrying *every* violation.
    """
    if not isinstance(data, dict):
        raise ConfigFileError(["config: top level must be an object"])
    reader = _Reader()
    reader.errors += [f"{key}: unknown block" for key in data if key not in _SCHEMA]
    blocks = {
        name: reader.block(data.get(name, {}), name, rules, getattr(_DEFAULTS, name))
        for name, rules in _SCHEMA.items()
    }
    model, integ = blocks["model"], blocks["integrator"]

    # cross-field contracts, checked here so one pass reports everything
    initial_sum, population = sum(blocks["initial"].values()), model["population"]
    if abs(initial_sum - population) > 1e-9 * population:
        reader.errors.append(
            f"initial: components must sum to the population ({population:g}), got {initial_sum:g}"
        )
    try:
        n_steps = steps_on_grid(integ["horizon"], integ["step_size"], "horizon")
        if n_steps % integ["record_stride"] != 0:
            reader.errors.append(
                f"integrator.record_stride: step count {n_steps} is not a multiple of {integ['record_stride']}"
            )
        steps_on_grid(model["tau"], integ["step_size"], "tau")
    except ConfigurationError as exc:
        reader.errors.append(f"integrator: {exc}")

    if reader.errors:
        raise ConfigFileError(reader.errors)
    return RunConfig(**{name: replace(getattr(_DEFAULTS, name), **values) for name, values in blocks.items()})


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
