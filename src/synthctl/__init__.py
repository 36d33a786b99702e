"""Density-matching synthetic control methods.

Weights for a synthetic control are estimated by matching moments of the
treated unit's outcomes against the weighted moments of untreated units',
which avoids the regression endogeneity that biases least-squares weights.
The package adds distributional treatment effects via bootstrap resampling,
conformal inference for the effect series, classical baselines, and a Monte
Carlo simulation lab.
"""

from .conformal import (
    ConformalReport,
    conformal_p_value,
    confidence_interval,
    default_grid,
)
from .dte import (
    BootstrapSample,
    MmdReport,
    bootstrap_counterfactual,
    mmd_squared,
    mmd_test,
    quantiles,
)
from .errors import SynthctlError
from .estimators import (
    BiasLimitInput,
    FitResult,
    Method,
    fit_listener,
    fit_method,
    ls_bias_limit,
    ls_unconstrained,
)
from .moments import (
    MomentConfig,
    MomentSystem,
    build_demeaned_system,
    build_system,
    gmm_objective,
)
from .panel import (
    PanelData,
    PanelSchema,
    load_panel,
    save_panel,
)
from .seeding import derive_seed
from .simlab import (
    MixtureDgpConfig,
    ReplicationResult,
    StudySpec,
    Theorem1Spec,
    appendix_d_spec,
    figure2_spec,
    gen_mixture_dgp,
    run_replication_study,
    theorem1_experiment,
)
from .solver import (
    SolveDiagnostics,
    SolverOptions,
    WeightVector,
    project_simplex,
    solve_simplex_qp,
)

__version__ = "0.1.0"

__all__ = [
    "BiasLimitInput",
    "BootstrapSample",
    "ConformalReport",
    "FitResult",
    "Method",
    "MixtureDgpConfig",
    "MmdReport",
    "MomentConfig",
    "MomentSystem",
    "PanelData",
    "PanelSchema",
    "ReplicationResult",
    "SolveDiagnostics",
    "SolverOptions",
    "StudySpec",
    "SynthctlError",
    "Theorem1Spec",
    "WeightVector",
    "appendix_d_spec",
    "bootstrap_counterfactual",
    "build_demeaned_system",
    "build_system",
    "confidence_interval",
    "conformal_p_value",
    "default_grid",
    "derive_seed",
    "figure2_spec",
    "fit_listener",
    "fit_method",
    "gen_mixture_dgp",
    "gmm_objective",
    "load_panel",
    "ls_bias_limit",
    "ls_unconstrained",
    "mmd_squared",
    "mmd_test",
    "project_simplex",
    "quantiles",
    "run_replication_study",
    "save_panel",
    "solve_simplex_qp",
    "theorem1_experiment",
]
