"""Simulation and analysis toolkit for a six-compartment stochastic
delayed rumor-propagation model: delay-aware Euler-Maruyama integration,
Monte Carlo ensembles with confidence bands, stability thresholds with
empirical mean-square verification, and delay x reproduction-number
sweeps against a bundled reference table.
"""

from .ablation import (
    DeviationReport,
    SweepCell,
    SweepResult,
    SweepSpec,
    compare_to_reference,
    filter_reference,
    load_reference,
    run_sweep,
)
from .ensemble import (
    EnsembleResult,
    EnsembleSummary,
    FinalSizeHorizonWarning,
    OutbreakMetrics,
    confidence_band,
    run_ensemble,
)
from .errors import (
    ConfigFileError,
    ConfigurationError,
    GridMismatchError,
    InsufficientDataError,
    NumericsError,
    RumorSimError,
)
from .integrator import (
    IntegratorConfig,
    Trajectory,
    integrate,
    second_moment_envelope,
    simulate_paths,
)
from .model import (
    BoundCheckReport,
    HistoryFunction,
    ModelParams,
    NoiseIntensities,
    StateVector,
    default_initial_state,
    default_params,
    diffusion,
    drift,
    growth_bound_constant,
    lipschitz_constant,
    reproduction_number,
    stochastic_margin,
    verify_growth_bound,
    verify_lipschitz_bound,
)
from .rng import derive_seed, wiener_increments
from .stability import (
    DecayVerdict,
    EquilibriumClass,
    EquilibriumReport,
    FinalSizeReport,
    MeanSquareDecayReport,
    classify_equilibrium,
    final_size,
    simulate_linearized,
)
from .svg import Series, render_svg

__version__ = "0.1.0"

__all__ = [
    "BoundCheckReport",
    "ConfigFileError",
    "ConfigurationError",
    "DecayVerdict",
    "DeviationReport",
    "EnsembleResult",
    "EnsembleSummary",
    "EquilibriumClass",
    "EquilibriumReport",
    "FinalSizeHorizonWarning",
    "FinalSizeReport",
    "GridMismatchError",
    "HistoryFunction",
    "InsufficientDataError",
    "IntegratorConfig",
    "MeanSquareDecayReport",
    "ModelParams",
    "NoiseIntensities",
    "NumericsError",
    "OutbreakMetrics",
    "RumorSimError",
    "Series",
    "StateVector",
    "SweepCell",
    "SweepResult",
    "SweepSpec",
    "Trajectory",
    "classify_equilibrium",
    "compare_to_reference",
    "confidence_band",
    "default_initial_state",
    "default_params",
    "derive_seed",
    "diffusion",
    "drift",
    "filter_reference",
    "final_size",
    "growth_bound_constant",
    "integrate",
    "lipschitz_constant",
    "load_reference",
    "render_svg",
    "reproduction_number",
    "run_ensemble",
    "run_sweep",
    "second_moment_envelope",
    "simulate_linearized",
    "simulate_paths",
    "stochastic_margin",
    "verify_growth_bound",
    "verify_lipschitz_bound",
    "wiener_increments",
]
