"""Opinion dynamics on two-layer multiplex networks.

Library + CLI lab for the merged (blended weights) and switching (periodic
schedule) coordination models: transition matrices, stationary
distributions, SLEM bounds, perturbation stability, and a config-driven
experiment harness.
"""

from .netcore import (
    EdgeListError,
    GeneratorSpec,
    LayerGraph,
    build_layer,
    generate,
    load_edge_list,
    load_two_layer_dataset,
)
from .stochastic import (
    NotPrimitiveError,
    StationaryDistribution,
    SupportClasses,
    TransitionMatrix,
    consensus_value,
    is_primitive,
    stationary_from_degrees,
    stationary_general,
    transition_matrix,
)
from .spectral import (
    SpectralSummary,
    eig_moduli_nonsymmetric,
    slem_reversible,
    symmetrize,
)
from .merged import (
    MergedBoundsReport,
    MergedModel,
    merge,
    slem_bounds,
)
from .switching import (
    SwitchingModel,
    SwitchingOutcome,
    analyze,
    rho_star,
    switching_model,
)
from .perturb import (
    PerturbationReport,
    ShiftFamilyFit,
    fit_shift_family,
    stationary_shift,
)
from .simlab import (
    DecayCheckResult,
    OpinionTrajectory,
    decay_check,
    fit_rate,
    simulate,
)
from .harness import (
    ConfigError,
    ExperimentConfig,
    ExperimentResult,
    load_config,
    parse_config,
    run_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "EdgeListError",
    "GeneratorSpec",
    "LayerGraph",
    "build_layer",
    "generate",
    "load_edge_list",
    "load_two_layer_dataset",
    "NotPrimitiveError",
    "StationaryDistribution",
    "SupportClasses",
    "TransitionMatrix",
    "consensus_value",
    "is_primitive",
    "stationary_from_degrees",
    "stationary_general",
    "transition_matrix",
    "SpectralSummary",
    "eig_moduli_nonsymmetric",
    "slem_reversible",
    "symmetrize",
    "MergedBoundsReport",
    "MergedModel",
    "merge",
    "slem_bounds",
    "SwitchingModel",
    "SwitchingOutcome",
    "analyze",
    "rho_star",
    "switching_model",
    "PerturbationReport",
    "ShiftFamilyFit",
    "fit_shift_family",
    "stationary_shift",
    "DecayCheckResult",
    "OpinionTrajectory",
    "decay_check",
    "fit_rate",
    "simulate",
    "ConfigError",
    "ExperimentConfig",
    "ExperimentResult",
    "load_config",
    "parse_config",
    "run_experiment",
]
