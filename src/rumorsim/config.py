"""Run configuration: a single JSON file with nested blocks, validated in
one pass, and echoed back with every default resolved.

Validation, the sweep grid's own rules included, raises one
:class:`~rumorsim.errors.ConfigurationError` listing *all* violations, so
a bad file is fixed in one edit.  The echoed configuration is a pure
function of the resolved settings (sorted keys, fixed formatting); a run
from the echo reproduces identical outputs (the CLI's determinism contract).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace

from .ensemble import CI_LEVEL, CI_METHODS, ENSEMBLE_RULES
from .errors import ConfigurationError
from .integrator import INTEGRATOR_RULES, IntegratorConfig, grid_violations, sweep_violations
from .model import (
    COMPARTMENT_RULES, MODEL_RULES, STABILITY_RULES, SWEEP_RULES, ModelParams, StateVector, _Reader,
    default_initial_state, default_params,
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
    ci_level: float = CI_LEVEL
    ci_method: str = CI_METHODS[0]
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

# The sweep's and the lab's rules are in model.py, the others beside their code; a seed is any integer.
_SCHEMA = {
    "model": MODEL_RULES,
    "initial": COMPARTMENT_RULES,
    "integrator": INTEGRATOR_RULES,
    "ensemble": {**ENSEMBLE_RULES, "seed": int},
    "stability": STABILITY_RULES,
    "sweep": {**SWEEP_RULES, "seed": int},
    "output": {
        # a NUL character is the one a path cannot hold on any platform
        "directory": (str, "a path without NUL characters", lambda v: "\0" not in v),
        "formats": [frozenset({"csv", "svg"})],
    },
}


def from_dict(data: dict) -> RunConfig:
    """Build a validated configuration, filling defaults for every missing
    field.  Raises :class:`ConfigurationError` carrying *every* violation.
    """
    if not isinstance(data, dict):
        raise ConfigurationError("config: top level must be an object")
    reader = _Reader()
    reader.errors += [f"{key}: unknown block" for key in data if key not in _SCHEMA]
    blocks = {
        name: reader.block(data.get(name, {}), name, rules, getattr(_DEFAULTS, name))
        for name, rules in _SCHEMA.items()
    }
    model, integ, sweep = blocks["model"], blocks["integrator"], blocks["sweep"]

    # cross-field contracts, checked here so one pass reports everything
    initial_sum, population = sum(blocks["initial"].values()), model["population"]
    if abs(initial_sum - population) > 1e-9 * population:
        reader.errors.append(
            f"initial: components must sum to the population ({population:g}), got {initial_sum:g}"
        )
    reader.errors += grid_violations(integ["step_size"], integ["horizon"], integ["record_stride"], model["tau"])
    # only delays the file gives must be on its step grid; a list left out or broken reads as the default object
    taus = () if sweep["taus"] is _DEFAULTS.sweep.taus else sweep["taus"]
    reader.errors += sweep_violations(taus, sweep["r0_values"], integ["step_size"])

    if reader.errors:
        raise ConfigurationError(reader.errors)
    return RunConfig(**{name: replace(getattr(_DEFAULTS, name), **values) for name, values in blocks.items()})


def default_config() -> RunConfig:
    return from_dict({})


def load_config(path) -> RunConfig:
    """Load and validate a JSON configuration file."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except (OSError, ValueError) as exc:
        # a path with a NUL byte raises ValueError: it names no file
        raise ConfigurationError(f"config: cannot read {path}: {exc}") from exc
    try:
        data = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # malformed JSON, bytes that are not UTF-8, an integer longer than
        # Python converts, or nesting deeper than the decoder recurses
        raise ConfigurationError(f"config: invalid JSON in {path}: {exc}") from exc
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
    ensemble and sweep blocks (the flag wins wherever it is meaningful),
    ``runs`` to the stability block too.  Each value is read by the rule of
    the fields it sets, as a config file's would be; raises
    :class:`ConfigurationError` naming the flag of every value that breaks it."""
    reader, blocks = _Reader(), {}
    for flag, value, fields in (
        ("--seed", seed, [("ensemble", "seed"), ("sweep", "seed")]),
        ("--runs", runs, [("ensemble", "run_count"), ("sweep", "run_count"), ("stability", "run_count")]),
        ("--out", out_dir, [("output", "directory")]),
        ("--format", formats, [("output", "formats")]),
    ):
        if value is not None:
            block, name = fields[0]  # the fields of one flag share a rule
            value = reader.read(value, flag, _SCHEMA[block][name], value)
            for block, name in fields:
                blocks.setdefault(block, {})[name] = value
    if reader.errors:
        raise ConfigurationError(reader.errors)
    return replace(cfg, **{block: replace(getattr(cfg, block), **values) for block, values in blocks.items()})
