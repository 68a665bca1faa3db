"""Simulation and analysis toolkit for a six-compartment stochastic
delayed rumor-propagation model: delay-aware Euler-Maruyama integration,
Monte Carlo ensembles with confidence bands, stability thresholds with
empirical mean-square verification, and delay x reproduction-number
sweeps against a bundled reference table.

Importing the package loads none of its modules: each public name is
imported from its module on first access, so a process pays only for the
modules it uses.
"""

import importlib

__version__ = "0.1.0"

# The public names of the package, by the module that defines them.
_EXPORTS = {
    "ablation": (
        "DeviationReport", "SweepCell", "SweepResult", "compare_to_reference", "filter_reference", "load_reference",
        "run_sweep",
    ),
    "ensemble": (
        "EnsembleResult", "EnsembleSummary", "FinalSizeHorizonWarning", "OutbreakMetrics", "confidence_band",
        "run_ensemble",
    ),
    "errors": (
        "ConfigurationError", "GridMismatchError", "InsufficientDataError", "NumericsError", "RumorSimError",
    ),
    "integrator": ("IntegratorConfig", "Trajectory", "integrate", "simulate_paths"),
    "model": (
        "HistoryFunction", "ModelParams", "NoiseIntensities", "StateVector", "default_initial_state",
        "default_params", "diffusion", "drift", "reproduction_number",
    ),
    "rng": ("derive_seed", "wiener_increments"),
    "stability": (
        "BoundCheckReport", "DecayVerdict", "EquilibriumClass", "EquilibriumReport", "FinalSizeReport",
        "MeanSquareDecayReport", "classify_equilibrium", "crossing_probability", "final_size",
        "growth_bound_constant", "lipschitz_constant", "second_moment_envelope", "simulate_linearized",
        "stochastic_margin", "verify_growth_bound", "verify_lipschitz_bound",
    ),
    "svg": ("Series", "render_svg"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    # an unknown name raises AttributeError, so that ``from rumorsim import
    # numtext`` goes on to import the submodule
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
