"""Leading eigenpair of a randomly perturbed Hermitian matrix.

Library layout:

* :mod:`perturb.matcore` -- dense Hermitian arithmetic and the eig oracle
* :mod:`perturb.ensembles` -- seeded random-matrix samplers and spectra
* :mod:`perturb.bounds` -- gap functionals, operator-norm estimators and the Weyl check
* :mod:`perturb.rs_solver` -- the quadratic fixed-point solver and certificates
* :mod:`perturb.arrowhead` -- secular-equation eigenpair for arrowhead noise
* :mod:`perturb.experiments` -- reproducible Monte Carlo campaigns
* :mod:`perturb.cli` -- the ``perturb`` command
"""

from .arrowhead import SecularSolution, arrowhead_eigvec, lower_bound_check, solve_gamma
from .bounds import (
    AssumptionReport,
    assumption_report,
    best_p,
    davis_kahan_bound,
    ellipsoid_covering_bound,
    gap_vector,
    k_np,
    mu_assumption,
    opnorm_dual_lower,
    opnorm_lower,
    opnorm_pp_upper,
    rs_sin_theta_bound,
    verify_shifted_domination,
)
from .ensembles import (
    EntryDistribution,
    SpectrumSpec,
    realize_spectrum,
    sample_arrowhead_noise,
    sample_arrowhead_vector,
    sample_goe,
    sample_gue,
    sample_inconsistency_instance,
    sample_subgaussian_hermitian,
)
from .errors import (
    ContractionFailureError,
    GapCollapseError,
    InconsistentEigenvalueError,
    InvalidSpectrumError,
    NonConvergenceError,
    NumericFailureError,
    PerturbError,
    UnsupportedExponentError,
)
from .experiments import (
    ExperimentConfig,
    SummaryStats,
    TrialRecord,
    export_records,
    run_experiment,
    summarize,
)
from .matcore import (
    EigDecomposition,
    Spectrum,
    dual_exponent,
    hermitian_eig,
    lp_norm,
    operator_norm_exact,
)
from .rs_solver import (
    PartitionedPerturbation,
    SolverReport,
    assemble_eigvec,
    build_shifted_gaps,
    coordinate_bounds,
    eigenvalue_from_q,
    partition,
    solve,
    solve_q,
    verify_solution,
)

__version__ = "0.1.0"
