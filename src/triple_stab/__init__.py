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
    render_report,
    run_axiom_suite,
    run_recovery,
)
from .linalg import (
    ComplexMatrix,
    DimensionMismatchError,
    as_matrix,
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
    LinearityCertificationError,
    PerturbedMap,
    PowerType,
    ScaleOverflowError,
    Scheme,
    SchemeError,
    SummabilityError,
    certify_theta_derivation,
    derivation_limit_sequence,
    direct_method,
    estimate_convergence_rate,
    hyers_bound,
    hyers_series,
    make_perturbation,
    norm_power,
    perturbation_amplitude,
    perturbation_decay_rate,
    recover_linear_map,
    recover_maps,
    unimodular_average_decomposition,
    verify_derivation_sequence,
    verify_hypotheses,
    verify_homogeneity,
    verify_stability_bound,
)
from .triple import (
    Commutator,
    Compose,
    Conjugation,
    LinearOperator,
    OperatorSum,
    OperatorValidationError,
    Scaled,
    Tabulated,
    make_theta_derivation,
    matrix_basis,
    theta_derivation_residual,
    triple_product_cstar,
    triple_product_jbstar,
)

__version__ = "0.1.0"
