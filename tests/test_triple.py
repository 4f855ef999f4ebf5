"""Triple product and operator tests.

Product values are pinned by hand computations on matrix units, and the two
product routes (associative form and Jordan form) are compared against each
other on random inputs.  Operator classes are checked against direct numpy
evaluations and through their JSON round trips.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from triple_stab.linalg import DimensionMismatchError, max_entry_diff, spectral_norm
from triple_stab.sampling import haar_unitary, rng_for, skew_matrix
from triple_stab.triple import (
    CheckResult,
    Commutator,
    Compose,
    Conjugation,
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
    make_theta_derivation,
    make_triple_derivation,
    make_triple_homomorphism,
    matrix_basis,
    operator_L,
    operator_from_json,
    operator_from_json_dict,
    theta_derivation_residual,
    triple_product_cstar,
    triple_product_jbstar,
    unvec,
    vec,
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
    assert np.allclose(jordan_product(x, y), 0.5 * (x @ y + y @ x))


@given(st.integers(0, 10**6), st.integers(1, 4))
def test_product_routes_agree(seed, n):
    x, y, z = (_random_matrix(seed + k, n) for k in range(3))
    a = triple_product_cstar(x, y, z)
    b = triple_product_jbstar(x, y, z)
    scale = max(1.0, spectral_norm(a))
    assert max_entry_diff(a, b) / scale <= 1e-12


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
    assert np.allclose(unvec(vec(x), 4), x)
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
    for seed in range(5):
        x = _random_matrix(100 + seed, 3)
        assert max_entry_diff(tab(x), op(x)) <= 1e-12 * max(1.0, spectral_norm(x))


@pytest.mark.parametrize("bad", [complex(0.0, np.nan), complex(np.inf, 0.0)])
def test_tabulated_rejects_any_non_finite_part(bad):
    coeffs = np.eye(4, dtype=np.complex128)
    coeffs[2, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        Tabulated(coeffs)


def test_operator_json_roundtrip():
    u = haar_unitary(rng_for(15, 4), 2)
    a = skew_matrix(rng_for(15, 5), 2)
    ops = [
        Conjugation(u),
        Commutator(a),
        Scaled(1.5, Commutator(a)),
        OperatorSum((Conjugation(u), Commutator(a))),
        Compose(Conjugation(u), Commutator(a)),
        Compose(Conjugation(u), Commutator(a)).to_tabulated(),
    ]
    x = _random_matrix(9, 2)
    for op in ops:
        back = operator_from_json_dict(op.to_json_dict())
        assert type(back) is type(op)
        assert np.allclose(back(x), op(x), atol=1e-12)
        again = operator_from_json(op.to_json())
        assert np.allclose(again(x), op(x), atol=1e-12)


def test_operator_json_rejects_unknown_form():
    with pytest.raises(ValueError):
        operator_from_json_dict({"form": "mystery", "dim": 2})


def test_operator_l_matches_product():
    a = _random_matrix(16, 3)
    b = _random_matrix(17, 3)
    op = operator_L(a, b)
    for seed in range(4):
        x = _random_matrix(200 + seed, 3)
        want = triple_product_cstar(a, b, x)
        assert max_entry_diff(op(x), want) <= 1e-12 * max(1.0, spectral_norm(want))


@given(st.integers(0, 10**6), st.integers(2, 4))
def test_axiom_checkers_pass_on_random_input(seed, n):
    x, y, z = (_random_matrix(seed + k, n) for k in range(3))
    res = check_commutativity(x, y, z)
    assert isinstance(res, CheckResult)
    assert res.passed and res.residual <= res.threshold
    a, b = _random_matrix(seed + 3, n), _random_matrix(seed + 4, n)
    assert check_jordan_identity(a, b, x, y, z).passed
    assert check_norm_identity(x).passed


def test_l_positivity_report():
    a = _random_matrix(18, 3)
    probes = [_random_matrix(300 + k, 3) for k in range(6)]
    rep = check_L_positive(a, probes)
    assert rep.passed
    assert rep.max_negativity <= 1e-10
    assert rep.max_selfadjoint_violation <= 1e-10


def test_exact_generator_residuals_vanish():
    u = haar_unitary(rng_for(19, 4), 3)
    a = skew_matrix(rng_for(19, 5), 3)
    theta = make_triple_homomorphism(u)
    d = make_triple_derivation(a)
    big_d = make_theta_derivation(theta, d)
    for seed in range(4):
        x, y, z = (_random_matrix(400 + seed + k, 3) for k in range(3))
        scale = max(1.0, spectral_norm(x) * spectral_norm(y) * spectral_norm(z))
        assert homomorphism_residual(theta, x, y, z) / scale <= 1e-12
        assert derivation_residual(d, x, y, z) / scale <= 1e-12
        assert theta_derivation_residual(big_d, theta, x, y, z) / scale <= 1e-12


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
    with pytest.raises(DimensionMismatchError):
        make_theta_derivation(theta, Commutator(skew_matrix(rng_for(20, 5), 3)))
