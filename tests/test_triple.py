"""Triple product and operator tests.

Product values are pinned by hand computations on matrix units, and the two
product routes (associative form and Jordan form) are compared against each
other on random inputs.  Operator classes are checked against direct numpy
evaluations.
"""

import itertools
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from triple_stab import linalg
from triple_stab.linalg import DimensionMismatchError, spectral_norm
from triple_stab.sampling import haar_unitary, rng_for, skew_matrix
from triple_stab.triple import (
    Commutator,
    Compose,
    Conjugation,
    OperatorSum,
    OperatorValidationError,
    Scaled,
    SKEW_TOL,
    Tabulated,
    UNITARY_TOL,
    _check_axioms,
    _jordan,
    _unvec,
    _vec,
    make_theta_derivation,
    matrix_basis,
    theta_derivation_residual,
    triple_product_cstar,
    triple_product_jbstar,
)


def _unit(i: int, j: int, n: int = 2) -> np.ndarray:
    e = np.zeros((n, n), dtype=np.complex128)
    e[i, j] = 1.0
    return e


def _random_matrix(seed: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def test_product_on_matrix_units():
    e11, e12, e22 = _unit(0, 0), _unit(0, 1), _unit(1, 1)
    e21 = _unit(1, 0)
    assert np.allclose(triple_product_cstar(e11, e11, e11), e11)
    assert np.allclose(triple_product_cstar(e12, e12, e12), e12)
    # (e11 e21 e22 + e22 e21 e11) / 2 = (0 + e21) / 2
    assert np.allclose(triple_product_cstar(e11, e12, e22), 0.5 * e21)


def test_product_with_identity_slots():
    x = _random_matrix(0, 3)
    eye = np.eye(3)
    assert np.allclose(triple_product_cstar(x, eye, eye), x)
    got = triple_product_cstar(eye, x, eye)
    assert np.allclose(got, x.conj().T)


def test_jordan_product_oracle():
    x = _random_matrix(1, 3)
    y = _random_matrix(2, 3)
    assert np.allclose(_jordan(x, y), 0.5 * (x @ y + y @ x))


@given(st.integers(0, 10**6), st.integers(1, 4))
def test_product_routes_agree(seed, n):
    x, y, z = (_random_matrix(seed + k, n) for k in range(3))
    a = triple_product_cstar(x, y, z)
    b = triple_product_jbstar(x, y, z)
    scale = max(1.0, spectral_norm(a))
    assert np.abs(a - b).max() / scale <= 1e-12


@given(st.integers(0, 10**6))
def test_product_linearity_structure(seed):
    x, y, z = (_random_matrix(seed + k, 3) for k in range(3))
    c = 0.7 - 1.3j
    outer = triple_product_cstar(c * x, y, z)
    assert np.allclose(outer, c * triple_product_cstar(x, y, z), atol=1e-12)
    middle = triple_product_cstar(x, c * y, z)
    assert np.allclose(middle, np.conj(c) * triple_product_cstar(x, y, z), atol=1e-12)
    sym = triple_product_cstar(z, y, x)
    assert np.allclose(sym, triple_product_cstar(x, y, z), atol=1e-12)


def test_vec_unvec_roundtrip():
    x = _random_matrix(5, 4)
    assert np.allclose(_unvec(_vec(x), 4), x)
    assert len(matrix_basis(3)) == 9


def test_conjugation_action_and_validation():
    u = haar_unitary(rng_for(11, 4), 3)
    op = Conjugation(u)
    x = _random_matrix(6, 3)
    assert np.allclose(op(x), u @ x @ u.conj().T)
    with pytest.raises(OperatorValidationError):
        Conjugation(np.array([[2.0, 0.0], [0.0, 1.0]]))


def test_commutator_action_and_validation():
    a = skew_matrix(rng_for(12, 5), 3)
    op = Commutator(a)
    x = _random_matrix(7, 3)
    assert np.allclose(op(x), a @ x - x @ a)
    with pytest.raises(OperatorValidationError):
        Commutator(np.eye(2))


def test_operator_combinators_match_numpy():
    u = haar_unitary(rng_for(13, 4), 2)
    a = skew_matrix(rng_for(13, 5), 2)
    theta = Conjugation(u)
    d = Commutator(a)
    x = _random_matrix(8, 2)
    assert np.allclose(Scaled(2.5, d)(x), 2.5 * d(x))
    assert np.allclose(OperatorSum((theta, d))(x), theta(x) + d(x))
    assert np.allclose(Compose(theta, d)(x), theta(d(x)))


def test_tabulated_matches_source_operator():
    u = haar_unitary(rng_for(14, 4), 3)
    a = skew_matrix(rng_for(14, 5), 3)
    op = Compose(Conjugation(u), Commutator(a))
    tab = op.to_tabulated()
    assert isinstance(tab, Tabulated)
    # a table lowers to an equal table
    assert np.array_equal(tab.to_tabulated().coeffs, tab.coeffs)
    for seed in range(5):
        x = _random_matrix(100 + seed, 3)
        assert np.abs(tab(x) - op(x)).max() <= 1e-12 * max(1.0, spectral_norm(x))


@pytest.mark.parametrize("bad", [complex(0.0, np.nan), complex(np.inf, 0.0)])
def test_tabulated_rejects_any_non_finite_part(bad):
    coeffs = np.eye(4, dtype=np.complex128)
    coeffs[2, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        Tabulated(coeffs)


@pytest.mark.parametrize("shape", [(0, 0), (3, 3), (4, 5), (16,), (2, 4, 4)])
def test_tabulated_rejects_coefficients_of_no_n_squared_side(shape):
    # empty, a side that is no square number, non-square, a vector, a stack
    with pytest.raises(ValueError):
        Tabulated(np.zeros(shape))


@given(st.integers(0, 10**6), st.integers(2, 4))
def test_axiom_checkers_pass_on_random_input(seed, n):
    a, b, x, y, z, gen = (_random_matrix(seed + k, n) for k in range(6))
    probes = np.stack([_random_matrix(seed + 6 + k, n) for k in range(4)])
    # one draw: each operand a stack of one slice, and its four probes
    report = _check_axioms(*(m[None] for m in (a, b, x, y, z, gen)), probes[None])
    assert list(report) == [
        "commutativity",
        "jordan_identity",
        "l_positivity",
        "norm_identity",
        "product_agreement",
    ]
    for section in report.values():
        measured = [v for k, v in section.items() if k not in ("threshold", "passed")]
        assert section["passed"] is True and max(measured) <= section["threshold"]


def test_l_positivity_report():
    a, b, x, y, z = (_random_matrix(13 + k, 3) for k in range(5))
    probes = np.stack([_random_matrix(300 + k, 3) for k in range(6)])
    ops = (m[None] for m in (a, b, x, y, z, _random_matrix(18, 3)))
    rep = _check_axioms(*ops, probes[None])["l_positivity"]
    assert rep["passed"]
    assert rep["threshold"] == 1e-10
    assert rep["max_negativity"] <= 1e-10
    assert rep["max_selfadjoint_violation"] <= 1e-10


# round-off allowance in units of n u max(1, ||a||): the residuals are sums of
# a few products of three or four n x n factors, each off by at most gamma_n
# times the product of the factor norms (Higham, Accuracy and Stability of
# Numerical Algorithms, 2nd ed., section 3.5); the largest measured ratio over
# these cases is about 15 (the homomorphism residual at n = 1)
GENERATOR_ROUNDOFF = 64


def test_exact_generator_residuals_vanish():
    """The constructor checks are what make D exact, which is why
    make_theta_derivation checks its generators by type alone.

    To first order, a unitary defect ||u*u - I|| = delta leaves a relative
    homomorphism residual of at most 2 delta, and a skew defect ||a* + a|| =
    delta a relative derivation residual of at most 2 delta; the two
    constructors accept only delta <= UNITARY_TOL and delta <= SKEW_TOL.  The
    theta-derivation residual adds the homomorphism defect at D x, of norm up
    to 2 ||a|| ||x||, in each of its three terms.  The derivation residual
    of d is the theta-derivation residual with theta the identity.
    """
    t = triple_product_cstar
    for n, skew_scale in itertools.product((1, 2, 3, 8, 16), (1e-9, 1.0, 1e6)):
        u = haar_unitary(rng_for(19, 4), n)
        a = skew_matrix(rng_for(19, 5), n, skew_scale)
        theta = Conjugation(u)
        d = Commutator(a)
        big_d = make_theta_derivation(theta, d)
        u_defect = spectral_norm(u.conj().T @ u - np.eye(n))
        a_defect = spectral_norm(a.conj().T + a)
        assert u_defect <= UNITARY_TOL and a_defect <= SKEW_TOL
        size = max(1.0, spectral_norm(a))
        roundoff = GENERATOR_ROUNDOFF * n * np.finfo(float).eps / 2.0 * size
        rng = np.random.default_rng(400 + n)
        x, y, z = rng.standard_normal((3, 4, n, n)) + 1j * rng.standard_normal((3, 4, n, n))
        scale = np.maximum(1.0, spectral_norm(x) * spectral_norm(y) * spectral_norm(z))
        where = f"n={n} skew_scale={skew_scale:g}"
        hom = spectral_norm(theta(t(x, y, z)) - t(theta(x), theta(y), theta(z))) / scale
        assert np.all(hom <= 2 * u_defect + roundoff), where
        der = theta_derivation_residual(d, Conjugation(np.eye(n)), x, y, z) / scale
        assert np.all(der <= 2 * a_defect + roundoff), where
        theta_der = theta_derivation_residual(big_d, theta, x, y, z) / scale
        assert np.all(theta_der <= 2 * a_defect + 12 * u_defect * size + roundoff), where


def test_make_theta_derivation_checks_generators_by_type_only(monkeypatch):
    # the constructors have checked the generators; composing calls no
    # operator and takes no norm
    theta = Conjugation(haar_unitary(rng_for(21, 4), 3))
    d = Commutator(skew_matrix(rng_for(21, 5), 3))
    calls = []
    norm = linalg.spectral_norm
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "triple_stab" and module.__dict__.get("spectral_norm") is norm:
            monkeypatch.setattr(module, "spectral_norm", lambda x: calls.append("norm") or norm(x))
    for cls in (Conjugation, Commutator):
        apply = cls.apply
        monkeypatch.setattr(cls, "apply", lambda self, x, apply=apply: calls.append("op") or apply(self, x))
    big_d = make_theta_derivation(theta, d)
    assert calls == []
    assert (big_d.outer, big_d.inner) == (theta, d)
    # an operator of another type is refused, even when it acts the same
    with pytest.raises(OperatorValidationError, match="^theta must be a Conjugation, got Tabulated$"):
        make_theta_derivation(theta.to_tabulated(), d)
    with pytest.raises(OperatorValidationError, match="^d must be a Commutator, got Compose$"):
        make_theta_derivation(theta, Compose(theta, d))


def test_make_theta_derivation_rejects_bad_generators():
    u = haar_unitary(rng_for(20, 4), 2)
    a = skew_matrix(rng_for(20, 5), 2)
    theta = Conjugation(u)
    d = Commutator(a)
    # a scaled conjugation is not a triple homomorphism
    with pytest.raises(OperatorValidationError):
        make_theta_derivation(Scaled(2.0, theta), d)
    # a conjugation is not a triple derivation
    with pytest.raises(OperatorValidationError):
        make_theta_derivation(theta, Conjugation(u))
    with pytest.raises(DimensionMismatchError, match="dimension mismatch: 2 vs 3"):
        make_theta_derivation(theta, Commutator(skew_matrix(rng_for(20, 5), 3)))


def test_operators_refuse_another_dimension_in_one_wording():
    theta = Conjugation(haar_unitary(rng_for(20, 4), 2))
    d3 = Commutator(skew_matrix(rng_for(20, 5), 3))
    for build in (lambda: OperatorSum((theta, d3)), lambda: Compose(theta, d3)):
        with pytest.raises(DimensionMismatchError, match="^dimension mismatch: 2 vs 3$"):
            build()
    with pytest.raises(DimensionMismatchError, match="^dimension mismatch: 2 vs 3$"):
        theta(np.eye(3))
