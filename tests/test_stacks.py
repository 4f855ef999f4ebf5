"""Stacked evaluation against per-slice evaluation.

Every kernel that the pipeline calls on (k, n, n) probe stacks must return,
slice for slice, what it returns on each matrix alone.  The oracle is a
plain Python loop over the slices of the same stack.
"""

import numpy as np
import pytest

from triple_stab.linalg import as_matrix, hs_inner, spectral_norm
from triple_stab.sampling import (
    haar_unitary,
    random_matrices,
    random_matrix,
    rng_for,
    skew_matrix,
)
from triple_stab.stability import PowerType, make_perturbation
from triple_stab.triple import (
    Commutator,
    Compose,
    Conjugation,
    OperatorSum,
    Scaled,
    check_commutativity,
    check_jordan_identity,
    check_L_positive,
    check_norm_identity,
    triple_product_cstar,
    triple_product_jbstar,
    unvec,
    vec,
)

SHAPES = [(n, k) for n in (1, 2, 5) for k in (1, 3)]
RTOL = 1e-14


def _stack(seed: int, n: int, k: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.stack([random_matrix(rng, n) for _ in range(k)])


def _assert_slicewise(stacked, per_slice):
    want = np.array(per_slice)
    assert np.shape(stacked) == want.shape
    scale = max(1.0, float(np.max(np.abs(want))))
    np.testing.assert_allclose(stacked, want, rtol=RTOL, atol=RTOL * scale)


def _operators(n: int) -> dict:
    u = haar_unitary(rng_for(7, 4), n)
    a = skew_matrix(rng_for(7, 5), n)
    theta, d = Conjugation(u), Commutator(a)
    return {
        "conjugation": theta,
        "commutator": d,
        "scaled": Scaled(1.5 - 0.5j, d),
        "sum": OperatorSum((theta, d)),
        "compose": Compose(theta, d),
        "tabulated": Compose(theta, d).to_tabulated(),
    }


@pytest.mark.parametrize("n,k", SHAPES)
def test_norm_and_pairing_match_slices(n, k):
    x, y = _stack(1, n, k), _stack(2, n, k)
    _assert_slicewise(spectral_norm(x), [spectral_norm(s) for s in x])
    _assert_slicewise(hs_inner(x, y), [hs_inner(a, b) for a, b in zip(x, y)])
    assert isinstance(spectral_norm(x[0]), float)
    assert isinstance(hs_inner(x[0], y[0]), complex)


@pytest.mark.parametrize("n,k", SHAPES)
def test_vec_and_unvec_match_slices(n, k):
    x = _stack(19, n, k)
    assert np.array_equal(vec(x), [s.flatten(order="F") for s in x])
    assert np.array_equal(unvec(vec(x), n), x)


@pytest.mark.parametrize("n,k", SHAPES)
@pytest.mark.parametrize("product", [triple_product_cstar, triple_product_jbstar])
def test_triple_products_match_slices(n, k, product):
    x, y, z = (_stack(seed, n, k) for seed in (3, 4, 5))
    _assert_slicewise(product(x, y, z), [product(a, b, c) for a, b, c in zip(x, y, z)])


@pytest.mark.parametrize("n,k", SHAPES)
@pytest.mark.parametrize(
    "name", ["conjugation", "commutator", "scaled", "sum", "compose", "tabulated"]
)
def test_operator_apply_matches_slices(n, k, name):
    op = _operators(n)[name]
    x = _stack(6, n, k)
    _assert_slicewise(op.apply(x), [op.apply(s) for s in x])


@pytest.mark.parametrize("n,k", SHAPES)
def test_perturbed_map_and_control_match_slices(n, k):
    f = make_perturbation(_operators(n)["compose"], 0.1, 0.5, "cauchy", seed=9)
    x, y = _stack(10, n, k), _stack(11, n, k)
    # one zero slice exercises the ||0||^p = 0 convention inside a stack
    y[0] = 0.0
    _assert_slicewise(f(x), [f(s) for s in x])
    phi = PowerType(0.3, 0.5)
    _assert_slicewise(phi.value(x, y, x), [phi.value(a, b, a) for a, b in zip(x, y)])


@pytest.mark.parametrize("n,k", SHAPES)
def test_axiom_checkers_match_slices(n, k):
    a, b, x, y, z = (_stack(seed, n, k) for seed in (13, 14, 15, 16, 17))
    cases = [
        (check_commutativity(x, y, z), [check_commutativity(*s) for s in zip(x, y, z)]),
        (
            check_jordan_identity(a, b, x, y, z),
            [check_jordan_identity(*s) for s in zip(a, b, x, y, z)],
        ),
        (check_norm_identity(x), [check_norm_identity(s) for s in x]),
    ]
    for stacked, per_slice in cases:
        _assert_slicewise(stacked.residual, [r.residual for r in per_slice])
        # a fixed tolerance stays a scalar; a norm-scaled one has one entry per slice
        threshold = np.broadcast_to(stacked.threshold, (k,))
        _assert_slicewise(threshold, [r.threshold for r in per_slice])
        assert list(stacked.passed) == [r.passed for r in per_slice]
    probes = np.stack([_stack(18 + i, n, 4) for i in range(k)])
    lpos = check_L_positive(a, probes)
    singles = [check_L_positive(g, p) for g, p in zip(a, probes)]
    _assert_slicewise(
        lpos.max_selfadjoint_violation, [r.max_selfadjoint_violation for r in singles]
    )
    _assert_slicewise(lpos.max_negativity, [r.max_negativity for r in singles])
    assert list(lpos.passed) == [r.passed for r in singles]


@pytest.mark.parametrize("n", [1, 2, 5])
def test_random_matrices_draw_like_successive_single_draws(n):
    # the per-matrix draw written out: real parts, then imaginary parts
    rng = rng_for(7, 6)
    want = [
        rng.uniform(-1.0, 1.0, (n, n)) + 1j * rng.uniform(-1.0, 1.0, (n, n))
        for _ in range(4)
    ]
    stacked = rng_for(7, 6)
    assert np.array_equal(random_matrices(stacked, 4, n), np.stack(want))
    assert stacked.uniform() == rng.uniform()


@pytest.mark.parametrize(
    "shape", [(3, 2, 3), (3, 0, 0), (2, 1, 3, 3, 2)]
)
def test_as_matrix_rejects_bad_stack_shapes(shape):
    with pytest.raises(ValueError):
        as_matrix(np.zeros(shape))


def test_as_matrix_rejects_non_finite_entry_in_one_slice():
    x = _stack(12, 2, 3)
    x[1, 0, 1] = complex(0.0, np.nan)
    with pytest.raises(ValueError, match="finite"):
        as_matrix(x)
    assert as_matrix(x[[0, 2]]).shape == (2, 2, 2)
