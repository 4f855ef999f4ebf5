"""Stacked evaluation against per-slice and per-level evaluation.

Every kernel that the pipeline calls on (k, n, n) probe stacks must return,
slice for slice, what it returns on each matrix alone.  The oracle is a
plain Python loop over the slices of the same stack.  The level scans and
the checks that evaluate each map once over stacked arguments must equal,
bit for bit, the same formula written out one level or one operator call
at a time.
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
from triple_stab import stability
from triple_stab.stability import (
    RATE_LEVELS,
    Custom,
    PowerType,
    Scheme,
    derivation_limit_sequence,
    estimate_convergence_rate,
    make_perturbation,
    pooled_rate,
    scheme_approximant,
    verify_hypotheses,
)
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
    approximants = np.stack([scheme_approximant(f, scheme, probes, l) for l in levels])
    written_out = np.stack([f(scheme.scale(l) * probes) / scheme.scale(l) for l in levels])
    assert np.array_equal(approximants, written_out)
    rate, used = pooled_rate(RATE_LEVELS, spectral_norm(np.diff(approximants, axis=0)))
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
@pytest.mark.parametrize(
    "phi",
    [PowerType(0.1, 0.5), Custom(lambda x, y, z: 0.1 * (np.abs(x).sum() + np.abs(y).sum()))],
    ids=["power", "custom"],
)
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
