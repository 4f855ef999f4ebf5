"""Refusals at the public boundary.

Every exported matrix entry, every operator call and every perturbed-map
call refuses a non-finite entry, a non-square shape and a mismatched
dimension with ``linalg.as_matrix``'s and ``linalg.same_dim``'s messages,
and every stage refuses a caller-supplied map whose output is not finite.
"""

import numpy as np
import pytest

from triple_stab.lab import ConfigError, ExperimentConfig, run_axiom_suite
from triple_stab.linalg import DimensionMismatchError
from triple_stab.sampling import haar_unitary, make_mu_samples, make_probes, rng_for, skew_matrix
from triple_stab.stability import (
    PowerType,
    Scheme,
    certify_theta_derivation,
    derivation_limit_sequence,
    direct_method,
    estimate_convergence_rate,
    hyers_bound,
    hyers_series,
    make_perturbation,
    recover_linear_map,
    verify_hypotheses,
    verify_stability_bound,
)
from triple_stab.triple import (
    Commutator,
    Compose,
    Conjugation,
    OperatorSum,
    Scaled,
    _vec,
    make_theta_derivation,
    matrix_basis,
    theta_derivation_residual,
    triple_product_cstar,
    triple_product_jbstar,
)

NOT_FINITE = "matrix entries must be finite"
PHI = PowerType(0.1, 0.5)


def _generators(dim: int = 2):
    theta = Conjugation(haar_unitary(rng_for(61, 4), dim))
    d = Commutator(skew_matrix(rng_for(61, 5), dim))
    return theta, d, make_theta_derivation(theta, d)


def _maps():
    theta, _d, big_d = _generators()
    f = make_perturbation(big_d, 0.1, 0.5, "cauchy", 7)
    h = make_perturbation(theta, 0.1, 0.5, "cauchy", 8)
    return f, h


class _Spoiled:
    """A map of dimension 2 whose every image has ``value`` in entry (0, 0)."""

    dim = 2

    def __init__(self, base, value):
        self.base, self.value = base, value

    def __call__(self, x):
        out = np.array(self.base(x))
        out[..., 0, 0] = self.value
        return out


def _probes(count=6):
    return np.stack(make_probes(2, count, rng_for(62, 1)))


def _triples(count=4):
    return _probes(3 * count).reshape(count, 3, 2, 2)


def _stage_calls(value):
    """Each stage called with a map spoiled by ``value``, by name."""
    f, h = _maps()
    bad_f, bad_h = _Spoiled(f, value), _Spoiled(h, value)
    probes, mus = _probes(), make_mu_samples(4, rng_for(62, 2))
    d_hat, theta_hat = f.base.to_tabulated(), h.base.to_tabulated()
    return {
        "direct_method": lambda: direct_method(bad_f, Scheme.CAUCHY2, PHI, probes),
        "recover_linear_map": lambda: recover_linear_map(bad_f, Scheme.CAUCHY2, PHI),
        "verify_hypotheses_f": lambda: verify_hypotheses(bad_f, h, PHI, "cauchy", probes, mus),
        "verify_hypotheses_h": lambda: verify_hypotheses(f, bad_h, PHI, "cauchy", probes, mus),
        "verify_stability_bound_map": lambda: verify_stability_bound(
            [(bad_f, d_hat)], PHI, Scheme.CAUCHY2, probes
        ),
        "verify_stability_bound_recovered": lambda: verify_stability_bound(
            [(f, _Spoiled(d_hat, value))], PHI, Scheme.CAUCHY2, probes
        ),
        "certify_theta_derivation_d": lambda: certify_theta_derivation(
            _Spoiled(d_hat, value), theta_hat, _triples()
        ),
        "certify_theta_derivation_theta": lambda: certify_theta_derivation(
            d_hat, _Spoiled(theta_hat, value), _triples()
        ),
        "derivation_limit_sequence_f": lambda: derivation_limit_sequence(
            bad_f, h, Scheme.CAUCHY2, _triples(), [0, 1]
        ),
        "derivation_limit_sequence_h": lambda: derivation_limit_sequence(
            f, bad_h, Scheme.CAUCHY2, _triples(), [0, 1]
        ),
        "estimate_convergence_rate": lambda: estimate_convergence_rate(
            bad_f, Scheme.CAUCHY2, PHI.p, probes
        ),
    }


_STAGES = sorted(_stage_calls(np.nan))
# these check a map's output before any arithmetic, so inf is refused as NaN
# is; elsewhere inf meets arithmetic first and trips a RuntimeWarning
_CHECKED_AT_OUTPUT = [
    "direct_method",
    "derivation_limit_sequence_f",
    "derivation_limit_sequence_h",
    "estimate_convergence_rate",
]


@pytest.mark.parametrize("stage", _STAGES)
def test_every_stage_refuses_a_map_that_returns_nan(stage):
    with pytest.raises(ValueError, match=NOT_FINITE):
        _stage_calls(np.nan)[stage]()


@pytest.mark.parametrize("stage", _CHECKED_AT_OUTPUT)
def test_stages_that_check_map_outputs_refuse_inf(stage):
    with pytest.raises(ValueError, match=NOT_FINITE):
        _stage_calls(np.inf)[stage]()


def _entries():
    """Each public matrix entry as a function of one operand, the others 2x2."""
    theta, d, big_d = _generators()
    f, _h = _maps()
    a, b = _probes(2)
    entries = {
        "triple_product_cstar": lambda x: triple_product_cstar(a, x, b),
        "triple_product_jbstar": lambda x: triple_product_jbstar(a, b, x),
        "theta_derivation_residual": lambda x: theta_derivation_residual(big_d, theta, a, x, b),
        "PerturbedMap": f,
    }
    operators = {
        "Conjugation": theta,
        "Commutator": d,
        "Scaled": Scaled(2.0, d),
        "OperatorSum": OperatorSum([d, theta]),
        "Compose": big_d,
        "Tabulated": big_d.to_tabulated(),
    }
    return {**entries, **operators}


_ENTRIES = sorted(_entries())


@pytest.mark.parametrize("entry", _ENTRIES)
def test_public_entries_refuse_a_nan_entry(entry):
    x = np.eye(2, dtype=np.complex128)
    x[1, 0] = np.nan
    with pytest.raises(ValueError, match=NOT_FINITE):
        _entries()[entry](x)


@pytest.mark.parametrize("entry", _ENTRIES)
def test_public_entries_refuse_a_non_square_shape(entry):
    with pytest.raises(ValueError, match=r"expected a nonempty square matrix, got shape \(2, 3\)"):
        _entries()[entry](np.ones((2, 3)))


@pytest.mark.parametrize("entry", _ENTRIES)
def test_public_entries_refuse_a_mismatched_dimension(entry):
    with pytest.raises(DimensionMismatchError, match="dimension mismatch: 2 vs 3"):
        _entries()[entry](np.eye(3))


@pytest.mark.parametrize("bound", [hyers_bound, hyers_series])
def test_single_operand_bounds_refuse_a_nan_entry_and_a_non_square_shape(bound):
    # the closed form and its term-by-term reference take x alone, so no
    # dimension can mismatch
    x = np.eye(2, dtype=np.complex128)
    x[1, 0] = np.nan
    with pytest.raises(ValueError, match=NOT_FINITE):
        bound(PHI, "cauchy2", x)
    with pytest.raises(ValueError, match=r"expected a nonempty square matrix, got shape \(2, 3\)"):
        bound(PHI, "cauchy2", np.ones((2, 3)))


def test_matrix_basis_is_the_units_in_vec_order():
    # one C-contiguous (n^2, n, n) stack, which its callers take as it is
    for dim in range(1, 17):
        basis = matrix_basis(dim)
        assert isinstance(basis, np.ndarray) and basis.flags.c_contiguous
        assert basis.shape == (dim * dim, dim, dim)
        assert np.array_equal(_vec(basis), np.eye(dim * dim))


@pytest.mark.parametrize("count", [0, -1])
def test_make_mu_samples_refuses_a_count_below_one(count):
    # a negative count would slice the fixed scalars from the end, and 0 would
    # give an empty list that only a later stage refuses, under its own name
    with pytest.raises(ValueError, match=f"mu sample count must be >= 1, got {count}$"):
        make_mu_samples(count, rng_for(62, 2))
    with pytest.raises(ValueError, match=f"probe count must be >= 1, got {count}$"):
        make_probes(2, count, rng_for(62, 1))


# each count a caller passes, by the name its refusal gives: the count it
# took, and the error a refusal raises
_COUNTED = {
    "sample count": (
        lambda count: run_axiom_suite(ExperimentConfig(), samples=count)["samples"],
        ConfigError,
    ),
    "probe count": (lambda count: len(make_probes(2, count, rng_for(62, 1))), ValueError),
    "mu sample count": (lambda count: len(make_mu_samples(count, rng_for(62, 2))), ValueError),
    "probe_count": (lambda count: ExperimentConfig(probe_count=count).probe_count, ConfigError),
    "l_max": (lambda count: ExperimentConfig(l_max=count).l_max, ConfigError),
}


@pytest.mark.parametrize("what", sorted(_COUNTED))
def test_counts_refuse_a_non_integer_by_name(what):
    # a float count ended in a TypeError from numpy or a slice, and True
    # passed as 1; a config and the axiom suite raise a ConfigError,
    # sampling a ValueError
    call, error = _COUNTED[what]
    for count in (2.5, True, "3"):
        with pytest.raises(ValueError) as raised:
            call(count)
        assert raised.type is error
        assert str(raised.value) == f"{what} must be an integer, got {count!r}"
    # numpy integers stay accepted, as a seed may be one, and come back as ints
    out = call(np.int64(3))
    assert out == 3 and type(out) is int


def test_rng_for_refuses_a_non_integer_seed():
    # sampling's own check; a config refuses a float seed before it gets here
    with pytest.raises(ValueError, match="seed must be an integer, got 1.5"):
        rng_for(1.5, 2)


@pytest.mark.parametrize("norm_min,norm_max", [(1e-2, np.inf), (np.inf, np.inf), (1e-2, np.nan)])
def test_make_probes_refuses_a_non_finite_norm_range(norm_min, norm_max):
    # an infinite bound would give non-finite probes, and a RuntimeWarning
    with pytest.raises(ValueError, match="norm range must satisfy 0 < norm_min <= norm_max"):
        make_probes(2, 3, rng_for(62, 1), norm_min, norm_max)
