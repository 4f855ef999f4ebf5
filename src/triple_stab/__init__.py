"""Numerical stability laboratory for theta-derivations on matrix Jordan triples.

The package realizes finite-dimensional Jordan triple systems as n x n
complex matrices, builds exact and perturbed structure maps, recovers the
exact maps back by direct-method iteration under four scaling schemes, and
certifies every stability bound numerically with seeded, byte-reproducible
reports.
"""

from .lab import (
    ConfigError,
    ExperimentConfig,
    StabilityReport,
    axioms_report,
    build_generators,
    emit_report,
    load_report,
    render_csv,
    render_json,
    run_axiom_suite,
    run_recovery,
)
from .linalg import (
    ComplexMatrix,
    DimensionMismatchError,
    add,
    adjoint,
    as_matrix,
    hs_inner,
    matmul,
    max_abs,
    max_entry_diff,
    scalar_mul,
    spectral_norm,
)
from .sampling import (
    haar_unitary,
    make_mu_samples,
    make_probes,
    random_matrices,
    random_matrix,
    rng_for,
    skew_matrix,
)
from .stability import (
    ConvergenceError,
    Custom,
    LinearityCertificationError,
    PerturbedMap,
    PowerType,
    ScaleOverflowError,
    Scheme,
    SchemeError,
    SummabilityError,
    UnimodularScalar,
    certify_theta_derivation,
    complex_homogeneity_via_decomposition,
    derivation_limit_residual,
    derivation_limit_sequence,
    direct_limits,
    direct_method,
    estimate_convergence_rate,
    hyers_bound,
    make_perturbation,
    norm_power,
    perturbation_amplitude,
    perturbation_decay_rate,
    phi_tilde,
    recover_linear_map,
    unimodular_average_decomposition,
    verify_hypotheses,
    verify_s1_homogeneity,
    verify_stability_bound,
)
from .triple import (
    CheckResult,
    Commutator,
    Compose,
    Conjugation,
    LinearOperator,
    OperatorSum,
    OperatorValidationError,
    Scaled,
    Tabulated,
    check_commutativity,
    check_jordan_identity,
    check_L_positive,
    check_norm_identity,
    derivation_residual,
    homomorphism_residual,
    jordan_product,
    jordan_theta_residual,
    make_theta_derivation,
    make_triple_derivation,
    make_triple_homomorphism,
    matrix_basis,
    operator_from_json,
    operator_from_json_dict,
    operator_L,
    theta_derivation_residual,
    triple_product_cstar,
    triple_product_jbstar,
    unvec,
    vec,
)

__version__ = "0.1.0"
