"""Numerical laboratory for ball truncations of group algebras.

The package enumerates word-metric balls in polynomial-growth groups,
represents group algebra elements and their ball compressions, computes the
exact ball-overlap averaging kernel, estimates Lipschitz seminorms and state
distances, and sweeps truncation radii to chart how fast the truncated state
spaces approach the full one.
"""

from .cayley import (
    DEFAULT_BALL_CAP,
    Ball,
    FreeAbelian,
    GrowthReport,
    Heisenberg,
    ResourceCapError,
    ball,
    group_from_key,
    growth_report,
    word_length,
)
from .groupalg import (
    AlgebraElement,
    FejerKernel,
    OpnormResult,
    compress_rep,
    convolve,
    delta,
    derivative,
    fejer_apply,
    fejer_kernel,
    format_algebra_element,
    involution,
    l1_norm,
    l2_norm,
    lipnorm,
    opnorm,
    parse_algebra_element,
    random_element,
    spectral_norm,
    unit,
)
from .truncation import (
    DefectResult,
    ToeplitzOperator,
    averaging_check,
    compress,
    dirac_commutator,
    format_toeplitz,
    materialize,
    parse_toeplitz,
    random_psd,
    random_selfadjoint,
    reconstruct,
    truncated_derivative,
    truncated_lipnorm,
    truncation_defect,
)
from .qmetric import (
    DistanceResult,
    SearchParams,
    SolverParams,
    State,
    brute_distance,
    density_state,
    epsilon_full,
    epsilon_truncated,
    gh_bound,
    lip_distance,
    random_density_state,
    random_vector_state,
    state_eval,
    vector_state,
)
from .harness import (
    CSV_HEADER,
    ConvergenceReport,
    ConvergenceRow,
    ExperimentConfig,
    choose_s,
    export_report,
    load_report,
    run_convergence,
)

__version__ = "0.1.0"
