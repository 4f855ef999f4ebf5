"""Stacked evaluation against per-slice and per-level evaluation.

Every kernel that the pipeline calls on (k, n, n) probe stacks must return,
slice for slice, what it returns on each matrix alone.  The oracle is a
plain Python loop over the slices of the same stack.  The level scans and
the checks that evaluate each map once over stacked arguments must equal,
bit for bit, the same formula written out one level or one operator call
at a time.
"""

import math

import numpy as np
import pytest

from triple_stab.lab import SEQUENCE_TRIPLE_COUNT, ExperimentConfig, _sequence_triples
from triple_stab.linalg import as_matrix, hs_inner, spectral_norm
from triple_stab.sampling import (
    ROLE_SEQUENCE_TRIPLES,
    haar_unitary,
    random_matrices,
    random_matrix,
    rng_for,
    skew_matrix,
)
from triple_stab import stability
from triple_stab.stability import (
    RATE_LEVELS,
    PowerType,
    Scheme,
    SummabilityError,
    HOMOGENEITY_TOL,
    approximants,
    complex_homogeneity_via_decomposition,
    derivation_limit_sequence,
    estimate_convergence_rate,
    hyers_bound,
    make_perturbation,
    phi_tilde,
    pooled_rate,
    recover_linear_map,
    unimodular_average_decomposition,
    verify_hypotheses,
    verify_s1_homogeneity,
    verify_stability_bound,
)
from triple_stab.triple import (
    Commutator,
    Compose,
    Conjugation,
    OperatorSum,
    Scaled,
    _stack_product,
    check_commutativity,
    check_jordan_identity,
    check_L_positive,
    check_norm_identity,
    derivation_residual,
    homomorphism_residual,
    jordan_product,
    theta_derivation_residual,
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


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 16])
@pytest.mark.parametrize("k", [1, 2, 7, 64])
@pytest.mark.parametrize("name", ["conjugation", "commutator", "compose"])
def test_fixed_matrix_operators_are_bit_stable_in_any_stack(n, k, name):
    ops = _operators(n)
    op = ops[name]
    u, a = ops["conjugation"].matrix, ops["commutator"].matrix
    written_out = {
        "conjugation": lambda x: u @ x @ u.conj().T,
        "commutator": lambda x: a @ x - x @ a,
        "compose": lambda x: u @ (a @ x - x @ a) @ u.conj().T,
    }[name]
    x = _stack(23, n, k)
    got = op.apply(x)
    # one tall GEMM per factor: a slice's image does not depend on its stack
    assert np.array_equal(got, [op.apply(s) for s in x])
    offset = k // 3
    assert np.array_equal(op.apply(x[offset:]), got[offset:])
    _assert_slicewise(got, written_out(x))
    assert op.apply(x[0]).shape == (n, n)
    nested = op.apply(np.stack([x, x[::-1]]))
    assert nested.shape == (2, k, n, n)
    assert np.array_equal(nested, [got, got[::-1]])


@pytest.mark.parametrize("n", [1, 2, 3, 8, 16])
def test_tabulated_is_bit_stable_in_any_stack_of_two_or_more(n):
    # a stack of k >= 2 slices is one GEMM whose rows do not depend on k, so
    # a check may gather its arguments into one call; a single matrix goes
    # through GEMV and may differ, so the checks never apply op to one slice
    op = _operators(n)["tabulated"]
    x = _stack(24, n, 64)
    got = op.apply(x)
    for start, stop in ((0, 2), (5, 8), (10, 17), (1, 64)):
        assert np.array_equal(op.apply(x[start:stop]), got[start:stop])
    assert np.array_equal(op.apply(x.reshape(8, 8, n, n)), got.reshape(8, 8, n, n))
    assert np.array_equal(op.apply(np.concatenate([x[40:], x[:40]])), np.concatenate([got[40:], got[:40]]))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("k", [1, 2, 7, 64])
@pytest.mark.parametrize(
    "product", [triple_product_cstar, triple_product_jbstar, jordan_product]
)
def test_stacked_products_are_bit_stable_in_any_stack(n, k, product):
    arity = 2 if product is jordan_product else 3
    # (k, 3, n, n): the slots are strided views, as derivation_limit_sequence's xyz[:, 0]
    xyz = np.stack([_stack(seed, n, k) for seed in (24, 25, 26)], axis=1)
    views = [xyz[:, i] for i in range(arity)]
    got = product(*views)
    assert np.array_equal(got, product(*(np.ascontiguousarray(v) for v in views)))
    # n <= 2 multiplies elementwise, n >= 3 runs one GEMM per slice: either
    # way a slice's product does not depend on its stack
    assert np.array_equal(got, [product(*s) for s in zip(*views)])
    offset = k // 3
    assert np.array_equal(product(*(v[offset:] for v in views)), got[offset:])
    # (slot, level, k, n, n) views, as np.moveaxis gives derivation_limit_sequence
    slots = np.array(views)
    moved = np.moveaxis(np.stack([slots, 2.0 * slots]), 1, 0)
    assert np.array_equal(product(*moved)[0], got)
    assert np.array_equal(product(*moved), [product(*(m[l] for m in moved)) for l in range(2)])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 16])
def test_stack_product_is_elementwise_up_to_n_2_and_matmul_above(n):
    # the cut keeps reports at dims >= 3 byte-identical to numpy's ``@``
    a, b = _stack(27, n, 7), _stack(28, n, 7)
    if n <= 2:
        want = sum(a[..., :, j, None] * b[..., None, j, :] for j in range(n))
    else:
        want = a @ b
    assert np.array_equal(_stack_product(a, b), want)


@pytest.mark.parametrize("n", [1, 2])
def test_elementwise_product_is_within_the_inner_product_bound(n):
    """The n <= 2 product lies within 2 gamma_{n+2} |a||b| of numpy's ``@``, entry by entry.

    Here gamma_m = m u / (1 - m u) with u = 2^-53, and |a||b| is the product
    of the entrywise moduli.  A complex inner product of length n computed
    in floating point lies within gamma_{n+2} |a||b| of the exact one
    (Higham, Accuracy and Stability of Numerical Algorithms, section 3.6);
    counted once for each of the two computations, they differ by at most
    twice that.  The bound assumes no underflow, so every entry's modulus is
    drawn from [1/2, 2) before its slice is scaled by 2^-500, 1 or 2^500:
    every product of two moduli then stays in the normal range.
    """
    rng = np.random.default_rng(61)
    k = 2000
    gamma = (n + 2) * 2.0**-53 / (1 - (n + 2) * 2.0**-53)

    def draw():
        moduli = rng.uniform(0.5, 2.0, (k, n, n))
        phases = np.exp(2j * np.pi * rng.uniform(size=(k, n, n)))
        return moduli * phases * 2.0 ** rng.choice([-500, 0, 500], (k, 1, 1))

    a, b = draw(), draw()
    got = _stack_product(a, b)
    bound = 2 * gamma * (np.abs(a) @ np.abs(b))
    assert (np.abs(got - a @ b) <= bound).all()
    assert np.array_equal(_stack_product(a[0], b[0]), got[0])


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


@pytest.mark.parametrize("n", [1, 2, 5])
def test_sequence_triples_draw_like_interleaved_single_draws(n):
    # the draw written out: each matrix, then the uniform behind its norm
    config = ExperimentConfig(dim=n, seed=11)
    rng = rng_for(config.seed, ROLE_SEQUENCE_TRIPLES)
    mats, targets = [], []
    for _ in range(3 * SEQUENCE_TRIPLE_COUNT):
        mats.append(random_matrix(rng, n))
        targets.append(1.0 + rng.uniform())
    mats = np.stack(mats)
    want = mats * (np.array(targets) / spectral_norm(mats))[:, None, None]
    want = want.reshape(SEQUENCE_TRIPLE_COUNT, 3, n, n)
    assert np.array_equal(_sequence_triples(config), want)


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


SEQUENCE_SCHEMES = [Scheme.CAUCHY2, Scheme.JENSEN3, Scheme.JENSEN3_CONTRACTIVE]
# each scheme's shipped p
SHIPPED_P = {
    Scheme.CAUCHY2: 0.5,
    Scheme.CAUCHY2_CONTRACTIVE: 2.0,
    Scheme.JENSEN3: 0.5,
    Scheme.JENSEN3_CONTRACTIVE: 4.0,
}


def _perturbed_pair(n: int, p: float, form: str):
    ops = _operators(n)
    f = make_perturbation(ops["compose"], 0.1, p, form, seed=31)
    h = make_perturbation(ops["conjugation"], 0.1, p, form, seed=32)
    return f, h


def _sequence_by_level(f, h, scheme, triples, levels):
    # the residual at each level on its own, each map called once per argument
    t = triple_product_cstar
    x, y, z = triples[:, 0], triples[:, 1], triples[:, 2]
    rows = []
    for l in levels:
        s, s3 = scheme.scale(l), scheme.scale(3 * l)
        fx, fy, fz = f(s * x), f(s * y), f(s * z)
        hx, hy, hz = h(s * x), h(s * y), h(s * z)
        residual = spectral_norm(
            f(s3 * t(x, y, z)) - t(fx, hy, hz) - t(hx, fy, hz) - t(hx, hy, fz)
        )
        rows.append((1.0 / s3) * residual)
    return np.stack(rows)


def _triples(seed: int, n: int, k: int) -> np.ndarray:
    return np.stack([_stack(seed + i, n, k) for i in range(3)], axis=1)


@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize("scheme", SEQUENCE_SCHEMES)
def test_derivation_sequence_matches_level_by_level(n, scheme):
    f, h = _perturbed_pair(n, SHIPPED_P[scheme], scheme.hypothesis_form)
    triples = _triples(40, n, 4)
    levels = list(scheme.derivation_levels())
    stacked = derivation_limit_sequence(f, h, scheme, triples, levels)
    assert np.array_equal(stacked, _sequence_by_level(f, h, scheme, triples, levels))


def test_level_scan_groups_split_without_changing_values(monkeypatch):
    f, h = _perturbed_pair(2, 0.5, "cauchy")
    triples = _triples(50, 2, 4)
    levels = list(Scheme.CAUCHY2.derivation_levels())
    assert len(levels) == 25
    whole = derivation_limit_sequence(f, h, Scheme.CAUCHY2, triples, levels)
    probes = _stack(53, 2, 40)
    rate = estimate_convergence_rate(f, Scheme.CAUCHY2, probes)
    # 4 arguments x 4 triples x 4 entries per level: 10 levels per group,
    # so the 25 levels take three calls; 40 probes x 4 entries: the rate
    # scan's 11 levels take three calls of at most 4
    monkeypatch.setattr(stability, "LEVEL_GROUP_ENTRIES", 640)
    calls = []
    counted = lambda x: calls.append(len(x)) or f(x)
    split = derivation_limit_sequence(counted, h, Scheme.CAUCHY2, triples, levels)
    assert calls == [160, 160, 80]
    assert np.array_equal(split, whole)
    calls.clear()
    assert estimate_convergence_rate(counted, Scheme.CAUCHY2, probes) == rate
    assert calls == [160, 160, 120]


@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize("scheme", list(Scheme))
def test_rate_scan_matches_level_by_level(n, scheme):
    f, _ = _perturbed_pair(n, SHIPPED_P[scheme], scheme.hypothesis_form)
    probes = _stack(60, n, 5)
    levels = range(RATE_LEVELS.start - 1, RATE_LEVELS.stop)
    by_level = np.stack([approximants(f, scheme, probes, [l])[0] for l in levels])
    written_out = np.stack([f(scheme.scale(l) * probes) / scheme.scale(l) for l in levels])
    assert np.array_equal(by_level, written_out)
    rate, used = pooled_rate(RATE_LEVELS, spectral_norm(np.diff(by_level, axis=0)))
    est = estimate_convergence_rate(f, scheme, probes)
    assert (est.rate, est.probes_used) == (rate, used)
    assert (est.first_level, est.last_level) == (RATE_LEVELS[0], RATE_LEVELS[-1])


def _hypotheses_by_sample(f, h, phi, form, x, mus):
    # the pair and triple residuals of each sample on its own
    m = len(x)
    t = triple_product_cstar
    rf, rh, rt, den, den_t = [], [], [], [], []
    for i in range(m):
        a, b, c = x[i], x[(i + max(1, m // 2) % m) % m], x[(i + max(1, m // 3) % m) % m]
        mu = complex(mus[i % len(mus)])
        for g, out in ((f, rf), (h, rh)):
            if form == "cauchy":
                lead = g(mu * a + b)
            else:
                lead = 2.0 * g((mu * a + b) / 2.0)
            out.append(spectral_norm(lead - mu * g(a) - g(b)))
        rt.append(
            spectral_norm(
                f(t(a, b, c)) - t(f(a), h(b), h(c)) - t(h(a), f(b), h(c)) - t(h(a), h(b), f(c))
            )
        )
        den.append(phi.value(a, b, np.zeros_like(a)))
        den_t.append(phi.value(a, b, c))
    ratio = lambda r, d: max(ri / di if di > 0.0 else 0.0 for ri, di in zip(r, d))
    zero = [max(a, b) for a, b, d in zip(rf, rh, den) if d <= 0.0]
    return {
        "max_ratio_f": ratio(rf, den),
        "max_ratio_h": ratio(rh, den),
        "max_triple_ratio": ratio(rt, den_t),
        "zero_control_samples": len(zero),
        "max_zero_control_residual": max(zero, default=0.0),
    }


@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize("form", ["cauchy", "jensen"])
@pytest.mark.parametrize("phi", [PowerType(0.1, 0.5)], ids=["power"])
def test_verify_hypotheses_matches_sample_by_sample(n, form, phi):
    f, h = _perturbed_pair(n, 0.5, form)
    x = _stack(70, n, 7)
    # two zero probes make one sample's pair control vanish (x[4] and x[4 + 3])
    x[4] = x[0] = 0.0
    mus = [np.exp(1j * a) for a in (0.3, 1.1, 2.9)]
    report = verify_hypotheses(f, h, phi, form, x, mus)
    want = _hypotheses_by_sample(f, h, phi, form, x, mus)
    assert {key: getattr(report, key) for key in want} == want


@pytest.mark.parametrize("n,k", SHAPES)
@pytest.mark.parametrize("name", ["compose", "tabulated"])
def test_theta_derivation_residual_matches_separate_calls(n, k, name):
    d_op, theta = _operators(n)[name], _operators(n)["conjugation"].to_tabulated()
    x, y, z = (_stack(seed, n, k) for seed in (80, 81, 82))
    t = triple_product_cstar
    dx, dy, dz, tx, ty, tz = d_op(x), d_op(y), d_op(z), theta(x), theta(y), theta(z)
    want = spectral_norm(d_op(t(x, y, z)) - t(dx, ty, tz) - t(tx, dy, tz) - t(tx, ty, dz))
    assert np.array_equal(theta_derivation_residual(d_op, theta, x, y, z), want)


@pytest.mark.parametrize("n,k", SHAPES)
def test_homomorphism_and_derivation_residuals_match_separate_calls(n, k):
    theta, d = _operators(n)["conjugation"], _operators(n)["commutator"]
    x, y, z = (_stack(seed, n, k) for seed in (83, 84, 85))
    t = triple_product_cstar
    for hom in (theta, theta.to_tabulated()):
        want = spectral_norm(hom(t(x, y, z)) - t(hom(x), hom(y), hom(z)))
        assert np.array_equal(homomorphism_residual(hom, x, y, z), want)
    for der in (d, d.to_tabulated()):
        want = spectral_norm(der(t(x, y, z)) - t(der(x), y, z) - t(x, der(y), z) - t(x, y, der(z)))
        assert np.array_equal(derivation_residual(der, x, y, z), want)


# each scheme at p = 0 (expanding) or near its gate (contractive), and at its shipped p
_BOUND_P = {
    Scheme.CAUCHY2: (0.0, 0.5),
    Scheme.CAUCHY2_CONTRACTIVE: (1.2, 2.0),
    Scheme.JENSEN3: (0.0, 0.9),
    Scheme.JENSEN3_CONTRACTIVE: (3.3, 4.0),
}


def _hyers_by_phi_tilde(phi, scheme, x):
    """hyers_bound written out as its phi_tilde composition, one norm per argument."""
    zero = np.zeros_like(x)
    if scheme.hypothesis_form == "cauchy":
        return 0.5 * phi_tilde(phi, scheme, x, x, zero)
    if not scheme.contractive:
        return (
            phi_tilde(phi, scheme, x, -x, zero) + phi_tilde(phi, scheme, -x, 3.0 * x, zero)
        ) / 3.0
    return phi_tilde(phi, scheme, x / 3.0, -x / 3.0, zero) + phi_tilde(
        phi, scheme, -x / 3.0, x, zero
    )


@pytest.mark.parametrize("n", [1, 2, 3, 5])
@pytest.mark.parametrize("scheme", list(Scheme))
def test_power_hyers_bound_equals_its_phi_tilde_composition(n, scheme):
    # the closed form takes one norm call over x (and 3x or x/3), relying on
    # ||-x|| = ||x|| and ||0|| = 0 bit for bit
    x = _stack(86, n, 9) * np.geomspace(1e-3, 1e3, 9)[:, None, None]
    x[4] = 0.0
    for p in _BOUND_P[scheme]:
        phi = PowerType(0.3, p)
        got = hyers_bound(phi, scheme, x)
        assert np.array_equal(got, _hyers_by_phi_tilde(phi, scheme, x))
        assert got[4] == 0.0
        singles = [hyers_bound(phi, scheme, s) for s in x]
        assert all(isinstance(b, float) for b in singles)
        assert np.array_equal(got, singles)
    with pytest.raises(SummabilityError, match=f"requires p . {scheme.gate}"):
        hyers_bound(PowerType(0.3, float(scheme.gate)), scheme, x)


def _s1_by_calls(op, x, mus):
    """verify_s1_homogeneity written out: op at mu x, at x and at 0, one norm per term."""
    mu = np.array(mus)[:, None, None, None]
    res = spectral_norm(op(mu * x) - mu * op(x)) / np.maximum(1.0, spectral_norm(x))
    return float(res.max()), spectral_norm(op(np.zeros_like(x[0])))


def _complex_by_calls(op, lam, x):
    """The complex-homogeneity residual at one lam, one op call per scaled argument."""
    route, image = np.zeros_like(x), op(x)
    for part, factor in ((lam.real, 1.0 + 0.0j), (lam.imag, 1.0j)):
        whole = math.floor(part)
        contribution = whole * image
        if part - whole > 0.0:
            mu1, mu2 = unimodular_average_decomposition(part - whole)
            contribution = contribution + (op(mu1.value * x) + op(mu2.value * x)) / 2.0
        route = route + factor * contribution
    gap = spectral_norm(op(lam * x) - route)
    return gap / np.maximum(1.0, abs(lam) * spectral_norm(x))


@pytest.mark.parametrize("n", [1, 2, 3, 5])
@pytest.mark.parametrize("name", ["compose", "tabulated"])
def test_homogeneity_checks_match_one_call_per_argument(n, name):
    # each check applies op once over all its arguments; with every written-out
    # call on a stack of at least two slices, the values agree bit for bit
    op = _operators(n)[name]
    x = _stack(87, n, 8)
    mus = [np.exp(1j * a) for a in (0.3, 1.1, 2.9, 4.0)]
    report = verify_s1_homogeneity(op, x, mus)
    assert (report.max_residual, report.zero_residual) == _s1_by_calls(op, x, mus)
    assert report.threshold == HOMOGENEITY_TOL
    lams = [2.0, 1j, 0.9 + 2.3j, -1.25 + 0.5j]
    got = complex_homogeneity_via_decomposition(op, lams, x[:3])
    assert got.residual.shape == (4, 3)
    assert np.array_equal(got.residual, [_complex_by_calls(op, complex(lam), x[:3]) for lam in lams])
    assert np.array_equal(got.passed, got.residual <= HOMOGENEITY_TOL)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("phi", [PowerType(0.1, 0.5)], ids=["power"])
def test_stability_bound_of_two_pairs_matches_one_pair_calls(n, phi):
    f, h = _perturbed_pair(n, 0.5, "cauchy")
    f_hat, _ = recover_linear_map(f, Scheme.CAUCHY2, PowerType(0.1, 0.5))
    h_hat, _ = recover_linear_map(h, Scheme.CAUCHY2, PowerType(0.1, 0.5))
    x = _stack(88, n, 6)
    both = verify_stability_bound([(f, f_hat), (h, h_hat)], phi, Scheme.CAUCHY2, x)
    (alone_f,) = verify_stability_bound([(f, f_hat)], phi, Scheme.CAUCHY2, x)
    (alone_h,) = verify_stability_bound([(h, h_hat)], phi, Scheme.CAUCHY2, x)
    assert both == (alone_f, alone_h)
