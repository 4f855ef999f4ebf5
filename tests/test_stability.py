"""Stability machinery tests.

The weighted series is checked against a brute-force partial-sum oracle
written directly in the tests, the closed-form bound constants against
their analytic values, and the recovery pipeline against the exact
generators it is supposed to reproduce.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from triple_stab.linalg import max_entry_diff, spectral_norm
from triple_stab.sampling import haar_unitary, make_probes, make_mu_samples, rng_for, skew_matrix
from triple_stab.stability import (
    OVERFLOW_LIMIT,
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
    scheme_approximant,
    unimodular_average_decomposition,
    verify_hypotheses,
    verify_s1_homogeneity,
    verify_stability_bound,
)
from triple_stab.triple import (
    Commutator,
    Conjugation,
    make_theta_derivation,
    make_triple_derivation,
    make_triple_homomorphism,
)

E11 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=np.complex128)


def _generators(seed: int, dim: int = 2):
    theta = make_triple_homomorphism(haar_unitary(rng_for(seed, 4), dim))
    d = make_triple_derivation(skew_matrix(rng_for(seed, 5), dim))
    return theta, d, make_theta_derivation(theta, d)


def _series_oracle(scheme: Scheme, eps: float, p: float, norms) -> float:
    # brute-force partial sum of the weighted series, independent of the
    # closed-form branch under test; zero norms contribute nothing at any
    # power, matching the norm_power convention
    phi0 = eps * sum(n**p if n > 0 else 0.0 for n in norms)
    total = 0.0
    for j in range(scheme.series_start, 4000):
        b = float(scheme.base)
        # weight * arg**p collapses to a single power of b, which keeps the
        # slowly decaying cases out of float overflow territory
        exponent = j * (1.0 - p) if scheme.contractive else j * (p - 1.0)
        term = (b**exponent) * phi0
        total += term
        if term < 1e-20 * max(total, 1.0):
            break
    return total


def test_scheme_parse():
    assert Scheme.parse("cauchy2") is Scheme.CAUCHY2
    assert Scheme.parse("cauchy2_contractive") is Scheme.CAUCHY2_CONTRACTIVE
    assert Scheme.parse("jensen3-contractive") is Scheme.JENSEN3_CONTRACTIVE
    assert Scheme.parse(Scheme.JENSEN3) is Scheme.JENSEN3
    with pytest.raises(SchemeError):
        Scheme.parse("cauchy4")


def test_power_gates():
    assert Scheme.CAUCHY2.power_gate_ok(0.5)
    assert not Scheme.CAUCHY2.power_gate_ok(1.0)
    assert Scheme.CAUCHY2_CONTRACTIVE.power_gate_ok(2.0)
    assert not Scheme.CAUCHY2_CONTRACTIVE.power_gate_ok(1.0)
    assert Scheme.JENSEN3.power_gate_ok(0.99)
    assert not Scheme.JENSEN3.power_gate_ok(1.5)
    assert Scheme.JENSEN3_CONTRACTIVE.power_gate_ok(3.5)
    assert not Scheme.JENSEN3_CONTRACTIVE.power_gate_ok(3.0)


def test_gate_messages_name_the_condition():
    assert "p < 1" in Scheme.CAUCHY2.gate_message(1.0)
    assert "p = 1" in Scheme.CAUCHY2.gate_message(1.0)
    assert "p > 1" in Scheme.CAUCHY2_CONTRACTIVE.gate_message(0.5)
    assert "p > 3" in Scheme.JENSEN3_CONTRACTIVE.gate_message(2.0)


def test_phi_tilde_outside_gate_raises():
    for scheme, p in (
        (Scheme.CAUCHY2, 1.0),
        (Scheme.CAUCHY2, 1.5),
        (Scheme.CAUCHY2_CONTRACTIVE, 0.5),
        (Scheme.JENSEN3, 2.0),
        (Scheme.JENSEN3_CONTRACTIVE, 2.0),
    ):
        with pytest.raises(SummabilityError):
            phi_tilde(PowerType(1.0, p), scheme, E11, E11, np.zeros((2, 2)))


def test_phi_tilde_matches_series_oracle():
    zero = np.zeros((2, 2))
    cases = [
        (Scheme.CAUCHY2, 0.5, (E11, E11, zero)),
        (Scheme.CAUCHY2, 0.0, (E11, 2.0 * E11, zero)),
        (Scheme.CAUCHY2_CONTRACTIVE, 2.0, (E11, E11, zero)),
        (Scheme.JENSEN3, 0.5, (E11, -E11, zero)),
        (Scheme.JENSEN3_CONTRACTIVE, 4.0, (E11 / 3.0, -E11 / 3.0, zero)),
    ]
    for scheme, p, (x, y, z) in cases:
        eps = 0.7
        got = phi_tilde(PowerType(eps, p), scheme, x, y, z)
        norms = [spectral_norm(m) for m in (x, y, z)]
        want = _series_oracle(scheme, eps, p, norms)
        assert got == pytest.approx(want, rel=1e-12)


def test_phi_tilde_custom_route_matches_closed_form():
    zero = np.zeros((2, 2))
    for scheme, p in (
        (Scheme.CAUCHY2, 0.5),
        (Scheme.CAUCHY2_CONTRACTIVE, 2.0),
        (Scheme.JENSEN3, 0.25),
        (Scheme.JENSEN3_CONTRACTIVE, 4.0),
    ):
        power = PowerType(0.3, p)
        closed = phi_tilde(power, scheme, E11, E11, zero)
        series = phi_tilde(Custom(power.value), scheme, E11, E11, zero)
        assert series == pytest.approx(closed, rel=1e-12)


def test_phi_tilde_custom_divergence_detected():
    # quadratic growth outpaces the 2^-j weights, so successive terms grow
    # and the series must be rejected rather than summed forever
    growing = Custom(lambda x, y, z: spectral_norm(x) ** 2)
    with pytest.raises(SummabilityError):
        phi_tilde(growing, Scheme.CAUCHY2, E11, E11, np.zeros((2, 2)))


def test_bound_constant_anchors():
    # closed-form constants at the unit: 2eps/|2-2^p|, (3+3^p)/(3-3^p) eps,
    # (3^p+3)/(3^p-3) eps
    cases = [
        (Scheme.CAUCHY2, 1.0, 0.0, 2.0),
        (Scheme.CAUCHY2, 0.1, 0.5, 0.2 / (2.0 - math.sqrt(2.0))),
        (Scheme.CAUCHY2_CONTRACTIVE, 1.0, 2.0, 1.0),
        (Scheme.JENSEN3, 1.0, 0.5, 2.0 + math.sqrt(3.0)),
        (Scheme.JENSEN3_CONTRACTIVE, 1.0, 4.0, 84.0 / 78.0),
    ]
    for scheme, eps, p, want in cases:
        got = hyers_bound(PowerType(eps, p), scheme, E11)
        assert got == pytest.approx(want, rel=1e-12)
        series = hyers_bound(Custom(PowerType(eps, p).value), scheme, E11)
        assert series == pytest.approx(got, rel=1e-12)


def test_bound_scales_as_norm_power():
    power = PowerType(0.4, 0.5)
    b1 = hyers_bound(power, Scheme.CAUCHY2, E11)
    b4 = hyers_bound(power, Scheme.CAUCHY2, 4.0 * E11)
    assert b4 == pytest.approx(2.0 * b1, rel=1e-12)
    assert hyers_bound(PowerType(0.8, 0.5), Scheme.CAUCHY2, E11) == pytest.approx(
        2.0 * b1, rel=1e-12
    )


def test_norm_power_conventions():
    assert norm_power(0.0, 0.0) == 0.0
    assert norm_power(0.0, 0.5) == 0.0
    assert norm_power(2.0, 0.0) == 1.0
    assert norm_power(4.0, 0.5) == pytest.approx(2.0)


def test_power_type_validation():
    with pytest.raises(ValueError):
        PowerType(-1.0, 0.5)
    with pytest.raises(ValueError):
        PowerType(1.0, -0.5)
    with pytest.raises(ValueError):
        PowerType(math.nan, 0.5)


def test_unimodular_scalar_validation():
    UnimodularScalar(complex(math.cos(1.0), math.sin(1.0)))
    with pytest.raises(ValueError):
        UnimodularScalar(1.1 + 0.0j)


def test_unimodular_average_decomposition():
    for gamma in (0.0, 0.25, 0.5, 0.9):
        mu1, mu2 = unimodular_average_decomposition(gamma)
        for mu in (mu1, mu2):
            assert abs(abs(mu.value) - 1.0) <= 1e-12
        avg = (mu1.value + mu2.value) / 2.0
        assert abs(avg - gamma) <= 1e-15
    mu1, _ = unimodular_average_decomposition(0.9)
    assert mu1.value.imag == pytest.approx(math.sqrt(0.19), rel=1e-15)
    for bad in (1.0, -0.1, 2.0):
        with pytest.raises(ValueError):
            unimodular_average_decomposition(bad)


def test_perturbation_defect_certificate():
    _, _, big_d = _generators(31)
    eps, p = 0.2, 0.5
    f = make_perturbation(big_d, eps, p, "cauchy", seed=5)
    amp = perturbation_amplitude(eps, p, "cauchy")
    rng = np.random.default_rng(8)
    for _ in range(40):
        x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        defect = f(x) - big_d(x)
        assert spectral_norm(defect) <= amp * spectral_norm(x) ** p * (1.0 + 1e-9)


def test_perturbation_zero_eps_is_exact():
    _, _, big_d = _generators(32)
    f = make_perturbation(big_d, 0.0, 0.5, "cauchy", seed=6)
    x = np.array([[1.0, 2.0j], [0.0, -1.0]])
    assert max_entry_diff(f(x), big_d(x)) == 0.0


def test_perturbation_validation():
    _, _, big_d = _generators(33)
    with pytest.raises(ValueError):
        make_perturbation(big_d, -0.1, 0.5, "cauchy", seed=1)
    with pytest.raises(ValueError):
        make_perturbation(big_d, 0.1, 0.5, "sideways", seed=1)


def test_verify_hypotheses_ratios_stay_below_one():
    _, _, big_d = _generators(34)
    f = make_perturbation(big_d, 0.1, 0.5, "cauchy", seed=7)
    h = make_perturbation(big_d, 0.1, 0.5, "cauchy", seed=8)
    probes = make_probes(2, 20, rng_for(9, 2))
    mus = make_mu_samples(8, rng_for(9, 3))
    rep = verify_hypotheses(f, h, PowerType(0.1, 0.5), "cauchy", probes, mus)
    assert rep.passed
    assert rep.max_ratio_f <= 1.0
    assert rep.max_ratio_h <= 1.0
    assert rep.zero_control_samples == 0
    assert rep.samples == 20


def test_direct_method_exact_map_converges_immediately():
    _, _, big_d = _generators(35)
    f = make_perturbation(big_d, 0.0, 0.5, "cauchy", seed=10)
    x = np.array([[0.5, -1.0j], [1.0, 0.25]])
    res = direct_method(f, Scheme.CAUCHY2, x, tol=1e-9)
    assert res.converged
    assert res.l_used <= 1
    assert max_entry_diff(res.value, big_d(x)) <= 1e-12


def test_direct_method_reports_exhaustion():
    _, _, big_d = _generators(36)
    f = make_perturbation(big_d, 0.1, 0.5, "cauchy", seed=11)
    res = direct_method(f, Scheme.CAUCHY2, E11, tol=1e-12, l_max=2)
    assert not res.converged
    assert len(res.deltas) == 2


def test_scheme_approximant_overflow_guard():
    _, _, big_d = _generators(37)
    f = make_perturbation(big_d, 0.1, 0.5, "cauchy", seed=12)
    with pytest.raises(ScaleOverflowError):
        scheme_approximant(f, Scheme.CAUCHY2, E11, 600)


def _one_probe_iteration(f, scheme, x, tol, l_max):
    # the direct method written out for a single probe, as an oracle for
    # the lockstep bookkeeping of direct_limits
    prev = scheme_approximant(f, scheme, x, 0)
    deltas = []
    for l in range(1, l_max + 1):
        cur = scheme_approximant(f, scheme, x, l)
        delta = spectral_norm(cur - prev)
        deltas.append(delta)
        if delta <= tol * max(1.0, spectral_norm(prev)):
            return cur, l, True, tuple(deltas)
        prev = cur
    return prev, l_max, False, tuple(deltas)


def test_direct_limits_lockstep_matches_one_probe_runs():
    _, _, big_d = _generators(51)
    f = make_perturbation(big_d, 0.1, 0.5, "cauchy", seed=28)
    xs = np.stack(make_probes(2, 12, rng_for(29, 2)) + [np.zeros((2, 2))])
    settled = direct_limits(f, Scheme.CAUCHY2, xs, tol=1e-9)
    levels = sorted(r.l_used for r in settled)
    assert all(r.converged for r in settled) and levels[0] < levels[-1]
    # cap the iteration between the earliest and latest settling level, so
    # part of the stack settles and the rest exhausts l_max
    l_max = levels[len(levels) // 2]
    runs = direct_limits(f, Scheme.CAUCHY2, xs, tol=1e-9, l_max=l_max)
    assert {r.converged for r in runs} == {True, False}
    for x, run in zip(xs, runs):
        single = direct_method(f, Scheme.CAUCHY2, x, tol=1e-9, l_max=l_max)
        value, l_used, converged, deltas = _one_probe_iteration(
            f, Scheme.CAUCHY2, x, 1e-9, l_max
        )
        for got in (run, single):
            assert got.l_used == l_used
            assert got.converged == converged
            assert got.deltas == deltas
            assert np.array_equal(got.value, value)


def test_direct_limits_overflow_guard_sees_active_probes_only():
    _, _, big_d = _generators(52)
    f = make_perturbation(big_d, 0.1, 0.5, "cauchy", seed=30)
    small = np.array([[0.5, 0.25j], [-0.5, 1.0]])
    # settles at level 1, long before 2^l * 1e149 would pass the limit
    large = 1e149 * E11
    runs = direct_limits(f, Scheme.CAUCHY2, np.stack([large, small]), tol=1e-9)
    assert runs[0].l_used == 1 and runs[1].l_used > 4
    assert runs[1].deltas == direct_method(f, Scheme.CAUCHY2, small, tol=1e-9).deltas
    past = 2.0 * OVERFLOW_LIMIT * E11
    with pytest.raises(ScaleOverflowError):
        direct_limits(f, Scheme.CAUCHY2, np.stack([small, past, small]), tol=1e-9)


def test_direct_limits_rejects_non_stacks():
    _, _, big_d = _generators(53)
    f = make_perturbation(big_d, 0.1, 0.5, "cauchy", seed=31)
    for bad in (E11, np.zeros((0, 2, 2))):
        with pytest.raises(ValueError):
            direct_limits(f, Scheme.CAUCHY2, bad)


def test_recover_exact_map_to_machine_precision():
    _, _, big_d = _generators(38)
    f = make_perturbation(big_d, 0.0, 0.5, "cauchy", seed=13)
    tab = recover_linear_map(f, Scheme.CAUCHY2, tol=1e-9)
    assert max_entry_diff(tab.coeffs, big_d.to_tabulated().coeffs) <= 1e-10


def test_recover_perturbed_map_within_tolerance():
    _, _, big_d = _generators(39)
    f = make_perturbation(big_d, 0.1, 0.5, "cauchy", seed=14)
    tab = recover_linear_map(f, Scheme.CAUCHY2, tol=1e-9)
    assert max_entry_diff(tab.coeffs, big_d.to_tabulated().coeffs) <= 1e-6


def test_recover_cross_scheme_agreement():
    # the same perturbed map recovered through doubling and tripling
    # iterations must give the same linear part
    _, _, big_d = _generators(40)
    f = make_perturbation(big_d, 0.1, 0.5, "cauchy", seed=15)
    t2 = recover_linear_map(f, Scheme.CAUCHY2, tol=1e-9)
    t3 = recover_linear_map(f, Scheme.JENSEN3, tol=1e-9)
    assert max_entry_diff(t2.coeffs, t3.coeffs) <= 1e-6


def test_recover_raises_on_exhausted_iterations():
    _, _, big_d = _generators(41)
    f = make_perturbation(big_d, 0.1, 0.5, "cauchy", seed=16)
    with pytest.raises(ConvergenceError):
        recover_linear_map(f, Scheme.CAUCHY2, tol=1e-9, l_max=2)


class _NonLinearMap:
    """Converges pointwise under rescaling but to a non-additive limit."""

    def __init__(self, base):
        self.base = base
        self.dim = base.dim

    def __call__(self, x):
        x = np.asarray(x, dtype=np.complex128)
        bump = np.zeros_like(x)
        bump[..., 0, 0] = 0.05 * spectral_norm(x)
        return self.base(x) + bump


def test_recover_certifies_linearity():
    _, _, big_d = _generators(42)
    with pytest.raises(LinearityCertificationError) as exc:
        recover_linear_map(_NonLinearMap(big_d), Scheme.CAUCHY2, tol=1e-9)
    assert exc.value.residual > 0.0


def test_derivation_limit_residual_exact_pair():
    theta, _, big_d = _generators(43)
    f = make_perturbation(big_d, 0.0, 0.5, "cauchy", seed=17)
    h = make_perturbation(theta, 0.0, 0.5, "cauchy", seed=18)
    x = np.array([[0.3, 0.1j], [-0.2, 0.4]])
    y = np.array([[1.0, 0.0], [0.5, -0.5]])
    z = np.array([[0.0, 1.0j], [0.2, 0.1]])
    for scheme in (Scheme.CAUCHY2, Scheme.JENSEN3, Scheme.JENSEN3_CONTRACTIVE):
        for level in (0, 2, 4):
            r = derivation_limit_residual(f, h, scheme, x, y, z, level)
            assert r <= 1e-9
    with pytest.raises(SchemeError):
        derivation_limit_residual(f, h, Scheme.CAUCHY2_CONTRACTIVE, x, y, z, 0)


def test_derivation_limit_sequence_exact_pair_is_flat():
    theta, _, big_d = _generators(44)
    f = make_perturbation(big_d, 0.0, 0.5, "cauchy", seed=19)
    h = make_perturbation(theta, 0.0, 0.5, "cauchy", seed=20)
    triples = [tuple(np.eye(2) * (k + 1) for _ in range(3)) for k in range(3)]
    values = derivation_limit_sequence(f, h, Scheme.CAUCHY2, triples, [0, 1, 2])
    assert all(v <= 1e-9 for v in values)


def test_certify_theta_derivation_exact_pair():
    theta, _, big_d = _generators(45)
    rng = np.random.default_rng(21)
    triples = [
        tuple(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3))
        for _ in range(10)
    ]
    cert = certify_theta_derivation(big_d, theta, triples)
    assert cert.passed
    assert cert.max_relative_residual <= 1e-10
    with pytest.raises(ValueError):
        certify_theta_derivation(big_d, theta, [])


def test_s1_homogeneity_of_linear_map():
    _, _, big_d = _generators(46)
    probes = make_probes(2, 6, rng_for(22, 2))
    mus = make_mu_samples(8, rng_for(22, 3))
    rep = verify_s1_homogeneity(big_d, probes, mus)
    assert rep.passed
    assert rep.max_residual <= 1e-12


def test_complex_homogeneity_via_decomposition():
    _, _, big_d = _generators(47)
    x = np.array([[0.4, -0.3j], [0.2, 0.9]])
    for lam in (2.0 + 0.0j, 1.0j, 0.9 + 2.3j):
        res = complex_homogeneity_via_decomposition(big_d, lam, x)
        assert res.passed
        assert res.residual <= 1e-12


def test_estimate_rate_trivial_on_exact_map():
    _, _, big_d = _generators(48)
    f = make_perturbation(big_d, 0.0, 0.5, "cauchy", seed=23)
    est = estimate_convergence_rate(f, Scheme.CAUCHY2, [E11], tol=1e-9)
    assert est.rate is None
    assert est.probes_used == 0


def test_estimate_rate_perturbed_doubling():
    _, _, big_d = _generators(49)
    f = make_perturbation(big_d, 0.1, 0.5, "cauchy", seed=24)
    probes = make_probes(2, 10, rng_for(25, 11), norm_min=0.5, norm_max=2.0)
    est = estimate_convergence_rate(f, Scheme.CAUCHY2, probes, tol=1e-9)
    assert est.rate is not None
    assert est.probes_used == 10
    # a single probe draw scatters around the asymptotic rate by several
    # hundredths; the tight window is enforced on the pinned lab run
    assert abs(est.rate - 2.0 ** (0.5 - 1.0)) <= 0.12


def test_perturbation_decay_rates():
    assert perturbation_decay_rate(Scheme.CAUCHY2, 0.5) == pytest.approx(2.0**-0.5)
    assert perturbation_decay_rate(Scheme.JENSEN3, 0.5) == pytest.approx(3.0**-0.5)
    assert perturbation_decay_rate(Scheme.CAUCHY2_CONTRACTIVE, 2.0) == pytest.approx(0.25)
    assert perturbation_decay_rate(Scheme.JENSEN3_CONTRACTIVE, 4.0) == pytest.approx(3.0**-4.0)


def test_verify_stability_bound_perturbed_pair():
    _, _, big_d = _generators(50)
    f = make_perturbation(big_d, 0.1, 0.5, "cauchy", seed=26)
    recovered = recover_linear_map(f, Scheme.CAUCHY2, tol=1e-9)
    probes = make_probes(2, 20, rng_for(27, 2))
    rep = verify_stability_bound(f, recovered, PowerType(0.1, 0.5), Scheme.CAUCHY2, probes)
    assert rep.passed
    assert rep.max_ratio <= 1.0 + 1e-9
    assert len(rep.rows) == 20
    norm, bound, error, ratio = rep.rows[0]
    assert bound > 0.0 and error >= 0.0 and ratio == pytest.approx(error / bound)


@given(st.integers(0, 10**5), st.floats(0.0, 0.95), st.floats(0.01, 2.0))
def test_phi_tilde_closed_form_property(seed, p, eps):
    # closed form against the brute-force sum across the gated region
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    got = phi_tilde(PowerType(eps, p), Scheme.CAUCHY2, x, x, np.zeros((2, 2)))
    want = _series_oracle(Scheme.CAUCHY2, eps, p, [spectral_norm(x)] * 2 + [0.0])
    assert got == pytest.approx(want, rel=1e-10)
