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

from triple_stab.linalg import spectral_norm
from triple_stab.sampling import (
    ROLE_RECOVERY,
    haar_unitary,
    make_mu_samples,
    make_probes,
    rng_for,
    skew_matrix,
)
from triple_stab import linalg, stability
from triple_stab.stability import (
    ROUNDOFF_FLOOR,
    ConvergenceError,
    LinearityCertificationError,
    PerturbedMap,
    PowerType,
    ScaleOverflowError,
    Scheme,
    SchemeError,
    SummabilityError,
    UnimodularScalar,
    approximants,
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
    phi_tilde,
    pooled_rate,
    recover_linear_map,
    unimodular_average_decomposition,
    verify_hypotheses,
    verify_homogeneity,
    verify_stability_bound,
)
from triple_stab.triple import (
    Commutator,
    Conjugation,
    make_theta_derivation,
    matrix_basis,
)

E11 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=np.complex128)


def _generators(seed: int, dim: int = 2):
    theta = Conjugation(haar_unitary(rng_for(seed, 4), dim))
    d = Commutator(skew_matrix(rng_for(seed, 5), dim))
    return theta, d, make_theta_derivation(theta, d)


def _counting(g, calls: list):
    def counted(x):
        calls.append(len(x))
        return g(x)

    return counted


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
    # the term-by-term reference sums the closed-form phi_tilde terms of the bound
    for scheme, p in (
        (Scheme.CAUCHY2, 0.5),
        (Scheme.CAUCHY2_CONTRACTIVE, 2.0),
        (Scheme.JENSEN3, 0.25),
        (Scheme.JENSEN3_CONTRACTIVE, 4.0),
    ):
        power = PowerType(0.3, p)
        closed = sum(
            phi_tilde(power, scheme, E11 * a[0] / a[1], E11 * b[0] / b[1], 0.0 * E11)
            for a, b in scheme.hyers_terms
        ) / scheme.hyers_divisor
        series = hyers_series(power, scheme, E11)
        assert series == pytest.approx(closed, rel=1e-12)


def test_hyers_series_bounds_its_own_truncation():
    # near the gate the terms decay slowly (ratio 0.93 and 0.97); the stopping
    # rule bounds the tail it leaves out, so the reference keeps its tolerance
    for scheme, p in ((Scheme.CAUCHY2, 0.9), (Scheme.CAUCHY2_CONTRACTIVE, 1.05)):
        power = PowerType(1.0, p)
        closed = hyers_bound(power, scheme, E11)
        assert abs(hyers_series(power, scheme, E11) - closed) <= 1e-15 * closed


def test_hyers_series_stops_on_its_two_rules():
    # a zero series is 0 from its first term, also near the gate, where the
    # unit control's series would leave the float range at j = 499
    assert hyers_series(PowerType(0.0, 0.999), Scheme.CAUCHY2, E11) == 0.0
    assert hyers_series(PowerType(1.0, 0.999), Scheme.CAUCHY2, 0.0 * E11) == 0.0
    # a stack's series stops once every slice's has converged
    xs = np.stack([E11, 0.0 * E11, 4.0 * E11])
    power = PowerType(0.3, 0.5)
    closed = hyers_bound(power, Scheme.JENSEN3, xs)
    assert hyers_series(power, Scheme.JENSEN3, xs) == pytest.approx(closed, rel=2e-15)
    # eps times the partial sum leaves the float range at the first term
    with pytest.raises(SummabilityError, match="left the representable range at j = 0$"):
        hyers_series(PowerType(1e308, 0.5), Scheme.CAUCHY2, E11)
    with pytest.raises(SummabilityError, match="requires p < 1"):
        hyers_series(PowerType(1.0, 1.0), Scheme.CAUCHY2, E11)


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
        series = hyers_series(PowerType(eps, p), scheme, E11)
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
    assert np.abs(f(x) - big_d(x)).max() == 0.0


def test_perturbation_validation():
    _, _, big_d = _generators(33)
    with pytest.raises(ValueError):
        make_perturbation(big_d, -0.1, 0.5, "cauchy", seed=1)
    with pytest.raises(ValueError):
        make_perturbation(big_d, 0.1, 0.5, "sideways", seed=1)


@pytest.mark.parametrize(
    "eps,p", [(-0.1, 0.5), (math.inf, 0.5), (math.nan, 0.5), (0.1, -1.0), (0.1, math.inf)]
)
def test_perturbation_refuses_what_its_control_refuses(eps, p):
    _, _, big_d = _generators(33)
    with pytest.raises(ValueError) as control:
        PowerType(eps, p)
    with pytest.raises(ValueError) as perturbation:
        make_perturbation(big_d, eps, p, "cauchy", seed=1)
    assert str(perturbation.value) == str(control.value)


def test_verify_hypotheses_ratios_stay_below_one():
    _, _, big_d = _generators(34)
    f = make_perturbation(big_d, 0.1, 0.5, "cauchy", seed=7)
    h = make_perturbation(big_d, 0.1, 0.5, "cauchy", seed=8)
    probes = make_probes(2, 20, rng_for(9, 2))
    mus = make_mu_samples(8, rng_for(9, 3))
    rep = verify_hypotheses(f, h, PowerType(0.1, 0.5), "cauchy", probes, mus)
    assert rep["passed"]
    assert rep["max_ratio_f"] <= 1.0
    assert rep["max_ratio_h"] <= 1.0
    assert rep["zero_control_samples"] == 0
    assert rep["samples"] == 20


def test_hypotheses_and_s1_homogeneity_take_scalar_samples_as_an_array():
    # an ndarray of scalars has no truth value; a length test accepts it
    _, _, big_d = _generators(34)
    f = make_perturbation(big_d, 0.1, 0.5, "cauchy", seed=7)
    h = make_perturbation(big_d, 0.1, 0.5, "cauchy", seed=8)
    probes = make_probes(2, 20, rng_for(9, 2))
    mus = make_mu_samples(8, rng_for(9, 3))
    phi = PowerType(0.1, 0.5)
    assert verify_hypotheses(f, h, phi, "cauchy", probes, np.array(mus)) == verify_hypotheses(
        f, h, phi, "cauchy", probes, mus
    )
    assert verify_homogeneity(big_d, probes, np.array(mus)) == verify_homogeneity(
        big_d, probes, mus
    )
    for empty in ([], np.array([], dtype=complex)):
        with pytest.raises(ValueError, match="unimodular sample"):
            verify_hypotheses(f, h, phi, "cauchy", probes, empty)
        with pytest.raises(ValueError, match="unimodular sample"):
            verify_homogeneity(big_d, probes, empty)


# (scheme, form, p): each scheme at its shipped p and near its gate
_LEVEL_CASES = [
    (Scheme.CAUCHY2, "cauchy", 0.5),
    (Scheme.CAUCHY2, "cauchy", 0.9),
    (Scheme.CAUCHY2_CONTRACTIVE, "cauchy", 2.0),
    (Scheme.CAUCHY2_CONTRACTIVE, "cauchy", 1.2),
    (Scheme.JENSEN3, "jensen", 0.5),
    (Scheme.JENSEN3, "jensen", 0.9),
    (Scheme.JENSEN3_CONTRACTIVE, "jensen", 4.0),
    (Scheme.JENSEN3_CONTRACTIVE, "jensen", 3.3),
]


@pytest.mark.parametrize("scheme,form,p", _LEVEL_CASES)
def test_direct_method_level_is_certified_and_minimal(scheme, form, p):
    _, _, big_d = _generators(51)
    phi = PowerType(0.1, p)
    f = make_perturbation(big_d, phi.eps, p, form, seed=28)
    xs = np.concatenate([make_probes(2, 12, rng_for(29, 2), 1e-2, 1e1), np.zeros((1, 2, 2))])
    tol = 1e-9
    res = direct_method(f, scheme, phi, xs, tol=tol, l_max=400)
    # the level oracle, written out: r^L hyers_bound(x) <= tol * max(1, ||x||)
    # on every slice at L and not at L - 1
    r = scheme.series_ratio(p)
    bound = np.array([hyers_bound(phi, scheme, x) for x in xs])
    target = np.array([tol * max(1.0, spectral_norm(x)) for x in xs])
    level = res.l_used
    assert level > 0
    assert (r**level * bound <= target).all()
    assert not (r ** (level - 1) * bound <= target).all()
    assert np.allclose(res.error_bound, r**level * bound, rtol=1e-13, atol=0.0)
    # the bound holds against the exact map, slice by slice, up to round-off
    # far below tol (the contractive thirding bounds reach 1e-19 on small x)
    roundoff = 1e-14 * np.maximum(1.0, spectral_norm(xs))
    assert (spectral_norm(res.value - big_d(xs)) <= res.error_bound + roundoff).all()
    assert np.array_equal(res.value, approximants(f, scheme, xs, [level])[0])


def test_direct_method_exact_map_converges_immediately():
    # eps = 0 certifies level 0: the approximant is f itself, with zero bound
    _, _, big_d = _generators(35)
    f = make_perturbation(big_d, 0.0, 0.5, "cauchy", seed=10)
    x = np.array([[[0.5, -1.0j], [1.0, 0.25]], [[2.0, 0.0], [0.0, -3.0j]]])
    res = direct_method(f, Scheme.CAUCHY2, PowerType(0.0, 0.5), x, tol=1e-9)
    assert res.l_used == 0
    assert (res.error_bound == 0.0).all()
    assert np.abs(res.value - big_d(x)).max() <= 1e-12


def test_direct_method_reports_exhaustion():
    # a tight tol certifies a level far above l_max; the error names both
    _, _, big_d = _generators(36)
    f = make_perturbation(big_d, 0.1, 0.5, "cauchy", seed=11)
    with pytest.raises(ConvergenceError, match=r"L = 77 .* exceeds l_max = 2"):
        direct_method(f, Scheme.CAUCHY2, PowerType(0.1, 0.5), E11[None], tol=1e-12, l_max=2)


def test_direct_limits_rejects_non_stacks():
    # direct_method took over the (k, n, n) stack interface of direct_limits
    _, _, big_d = _generators(53)
    f = make_perturbation(big_d, 0.1, 0.5, "cauchy", seed=31)
    for bad in (E11, np.zeros((0, 2, 2))):
        with pytest.raises(ValueError):
            direct_method(f, Scheme.CAUCHY2, PowerType(0.1, 0.5), bad)


def test_direct_method_rejects_zero_tol_and_other_controls():
    _, _, big_d = _generators(53)
    f = make_perturbation(big_d, 0.1, 0.5, "cauchy", seed=31)
    phi = PowerType(0.1, 0.5)
    with pytest.raises(ValueError):
        direct_method(f, Scheme.CAUCHY2, phi, E11[None], tol=0.0)
    with pytest.raises(TypeError):
        direct_method(f, Scheme.CAUCHY2, phi.value, E11[None])
    # the other stages price with the power-type control only, too
    with pytest.raises(TypeError):
        verify_hypotheses(f, f, phi.value, "cauchy", E11[None], [1.0])
    with pytest.raises(TypeError):
        verify_stability_bound([(f, f)], phi.value, Scheme.CAUCHY2, E11[None])


@pytest.mark.parametrize(
    "scheme,p,l_max,fragment",
    [
        (Scheme.CAUCHY2, 0.9, 200, "exceeds l_max = 200"),
        (Scheme.CAUCHY2, 0.99, 1000, "exceeds l_max = 1000"),
        # 2^L x and, for the contractive scheme, 2^L = 1/s leave the range
        (Scheme.CAUCHY2, 0.99, 5000, "beyond the overflow limit"),
        (Scheme.CAUCHY2_CONTRACTIVE, 1.001, 10**6, "beyond the overflow limit"),
    ],
)
def test_direct_method_names_an_uncertifiable_level(scheme, p, l_max, fragment):
    _, _, big_d = _generators(54)
    f = make_perturbation(big_d, 0.1, p, "cauchy", seed=32)
    calls = []
    counted = _counting(f, calls)
    with pytest.raises(ConvergenceError) as exc:
        direct_method(counted, scheme, PowerType(0.1, p), E11[None], tol=1e-9, l_max=l_max)
    # the level is settled, and an out-of-range one refused, before any map call
    assert calls == []
    message = str(exc.value)
    assert fragment in message
    assert "certified level L = " in message
    assert f"series ratio {scheme.series_ratio(p):.6g}" in message


@pytest.mark.parametrize(
    "eps,fragment",
    [
        # bound / target overflows; the level, from logarithms, does not
        (1e300, "certified level L = "),
        (1e306, "certified level L = "),
        # the bound itself overflows, so no level certifies tol
        (1e308, "the stability bound at series ratio 0.707107 overflows"),
        (1.7e308, "the stability bound at series ratio 0.707107 overflows"),
    ],
)
def test_direct_method_refuses_a_huge_eps(eps, fragment):
    _, _, big_d = _generators(55)
    f = make_perturbation(big_d, eps, 0.5, "cauchy", seed=33)
    xs = np.stack([E11, 3.0 * E11])
    calls = []
    with pytest.raises(ConvergenceError) as exc:
        direct_method(_counting(f, calls), Scheme.CAUCHY2, PowerType(eps, 0.5), xs, l_max=200)
    assert calls == []
    assert fragment in str(exc.value)
    if eps < 1e308:
        # the refused level is the minimal certified one, as at eps = 1e298
        r = Scheme.CAUCHY2.series_ratio(0.5)
        bound = np.array([hyers_bound(PowerType(eps, 0.5), Scheme.CAUCHY2, x) for x in xs])
        level = int(str(exc.value).split("L = ")[1].split()[0])
        target = 1e-9 * np.array([1.0, 3.0])
        assert level > 200
        assert (r**level * bound <= target).all()
        assert not (r ** (level - 1) * bound <= target).all()


def test_direct_method_names_a_nan_bound(deadline):
    # past p = 1075 the contractive doubling ratio 2^(1-p) underflows to 0,
    # and ||3 E11||^p overflows: the bound is inf * 0 = NaN, on which the
    # level search once ran forever
    deadline(10.0)
    _, _, big_d = _generators(56)
    calls = []
    with pytest.raises(ConvergenceError, match="series ratio 0 is NaN: no level certifies tol"):
        direct_method(
            _counting(big_d, calls), Scheme.CAUCHY2_CONTRACTIVE, PowerType(0.1, 1100.0),
            np.stack([E11, 3.0 * E11]),
        )
    assert calls == []


def test_zero_control_stays_zero_where_the_power_overflows():
    # eps = 0 is 0 everywhere, not 0 * inf = NaN where ||x||^p leaves the range
    norms = np.array([0.0, 1.0, 10.0])
    assert PowerType(0.0, 400.0).from_norms(norms, norms, 0.0).tolist() == [0.0, 0.0, 0.0]
    assert PowerType(0.0, 400.0).from_norms(10.0, 10.0, 10.0) == 0.0


@pytest.mark.parametrize("form", ["cauchy", "jensen"])
def test_perturbation_amplitude_names_a_p_past_the_float_range(form):
    # 2^(p-1) is the largest power of two below the float range at p = 1024
    assert perturbation_amplitude(0.1, 1024.0, form) > 0.0
    with pytest.raises(ValueError, match=r"p = 1025 leaves the float range in the constant 2\^"):
        perturbation_amplitude(0.1, 1025.0, form)


def test_pooled_rate_recovers_a_common_ratio():
    levels = np.arange(3, 13)
    rho = 0.7
    coeffs = np.array([1.0, 3.5, 0.02, 40.0])
    values = coeffs[None, :] * rho ** levels[:, None]
    # entries on or below the floor would bend the slope if they were fitted
    values[-1, 0] = ROUNDOFF_FLOOR
    values[-2:, 1] = 0.0
    rate, used = pooled_rate(levels, values)
    assert rate == pytest.approx(rho, abs=1e-12)
    assert used == 4
    # a sequence with one entry above the floor carries no slope
    values[1:, 3] = 1e-14
    assert pooled_rate(levels, values) == (pytest.approx(rho, abs=1e-12), 3)
    assert pooled_rate(levels, np.full((10, 2), 1e-14)) == (None, 0)


def test_scheme_approximant_overflow_guard():
    # the one-level scan of approximants, which replaced scheme_approximant
    _, _, big_d = _generators(37)
    f = make_perturbation(big_d, 0.1, 0.5, "cauchy", seed=12)
    with pytest.raises(ScaleOverflowError):
        approximants(f, Scheme.CAUCHY2, E11, [600])
    # 2.0 ** 3375 itself is not a float; the guard decides before computing it
    with pytest.raises(ScaleOverflowError):
        approximants(f, Scheme.CAUCHY2, E11, [3375])


def test_approximants_guard_every_level_before_any_map_call():
    # 2^400 E11 stays within the limit and 2^600 E11 does not: one level
    # past it stops the whole scan, and f is never called
    _, _, big_d = _generators(37)
    f = make_perturbation(big_d, 0.1, 0.5, "cauchy", seed=12)
    calls = []
    counted = _counting(f, calls)
    with pytest.raises(ScaleOverflowError, match="level l = 600 exceed"):
        approximants(counted, Scheme.CAUCHY2, E11[None], [0, 1, 400, 600, 700])
    with pytest.raises(ValueError, match="l must be nonnegative"):
        approximants(counted, Scheme.CAUCHY2, E11[None], [0, -1])
    with pytest.raises(ValueError, match="approximants needs at least one level"):
        approximants(counted, Scheme.CAUCHY2, E11[None], [])
    assert calls == []
    assert approximants(counted, Scheme.CAUCHY2, E11[None], [0, 1, 400]).shape == (3, 1, 2, 2)
    assert calls == [3]


@pytest.mark.parametrize("scheme,level", [("jensen3", 150), ("jensen3", 216), ("cauchy2", 342)])
def test_derivation_residual_guard_names_the_level(scheme, level):
    # from l = 216 (jensen3) and l = 342 (cauchy2) the scale of the triple
    # product, base^(3 l), is not a float; the guard decides without it
    _, _, big_d = _generators(37)
    f = make_perturbation(big_d, 0.1, 0.5, "cauchy", seed=12)
    eye = np.eye(2)
    with pytest.raises(ScaleOverflowError, match=f"level l = {level} exceed"):
        derivation_limit_sequence(f, f, scheme, [(eye, eye, eye)], [level])


def test_contractive_guard_trips_on_the_prefactor():
    # s = b^-l shrinks the argument; past the limit 1/s would overflow
    _, _, big_d = _generators(37)
    f = make_perturbation(big_d, 0.1, 4.0, "jensen", seed=12)
    for scheme, level in ((Scheme.CAUCHY2_CONTRACTIVE, 500), (Scheme.JENSEN3_CONTRACTIVE, 700)):
        with pytest.raises(ScaleOverflowError):
            approximants(f, scheme, E11, [level])
    assert np.isfinite(approximants(f, Scheme.JENSEN3_CONTRACTIVE, E11, [300])).all()
    with pytest.raises(ScaleOverflowError):
        derivation_limit_sequence(f, f, Scheme.JENSEN3_CONTRACTIVE, [(E11, E11, E11)], [110])


def test_recover_exact_map_to_machine_precision():
    _, _, big_d = _generators(38)
    f = make_perturbation(big_d, 0.0, 0.5, "cauchy", seed=13)
    tab, level = recover_linear_map(f, Scheme.CAUCHY2, PowerType(0.0, 0.5), tol=1e-9)
    assert level == 0
    assert np.abs(tab.coeffs - big_d.to_tabulated().coeffs).max() <= 1e-10


def test_recover_perturbed_map_within_tolerance():
    _, _, big_d = _generators(39)
    f = make_perturbation(big_d, 0.1, 0.5, "cauchy", seed=14)
    tab, level = recover_linear_map(f, Scheme.CAUCHY2, PowerType(0.1, 0.5), tol=1e-9)
    assert level == 57
    assert np.abs(tab.coeffs - big_d.to_tabulated().coeffs).max() <= 1e-9


def test_recover_cross_scheme_agreement():
    # the same perturbed map recovered through doubling and tripling
    # iterations must give the same linear part
    _, _, big_d = _generators(40)
    f = make_perturbation(big_d, 0.1, 0.5, "cauchy", seed=15)
    t2, _ = recover_linear_map(f, Scheme.CAUCHY2, PowerType(0.1, 0.5), tol=1e-9)
    t3, _ = recover_linear_map(f, Scheme.JENSEN3, PowerType(0.1, 0.5), tol=1e-9)
    assert np.abs(t2.coeffs - t3.coeffs).max() <= 1e-6


def test_recover_raises_on_exhausted_iterations():
    _, _, big_d = _generators(41)
    f = make_perturbation(big_d, 0.1, 0.5, "cauchy", seed=16)
    with pytest.raises(ConvergenceError, match="L = 57 .* exceeds l_max = 2"):
        recover_linear_map(f, Scheme.CAUCHY2, PowerType(0.1, 0.5), tol=1e-9, l_max=2)


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


def test_a_map_without_the_kernel_is_called_on_the_scaled_arguments():
    # the level scans hand a map other than a PerturbedMap s x itself, one
    # call over all levels, and divide its images by s
    _, _, big_d = _generators(44)
    g, calls = _NonLinearMap(big_d), []
    recorded = lambda x: calls.append(np.array(x)) or g(x)
    probes = make_probes(2, 3, rng_for(44, 2))
    levels = [0, 1, 4]
    scaled = np.stack([Scheme.JENSEN3.scale(l) * probes for l in levels])
    got = approximants(recorded, Scheme.JENSEN3, probes, levels)
    assert len(calls) == 1 and np.array_equal(calls[0], scaled.reshape(-1, 2, 2))
    want = np.stack([g(a) / Scheme.JENSEN3.scale(l) for a, l in zip(scaled, levels)])
    assert np.array_equal(got, want)


def test_recover_certifies_linearity():
    _, _, big_d = _generators(42)
    with pytest.raises(LinearityCertificationError) as exc:
        recover_linear_map(_NonLinearMap(big_d), Scheme.CAUCHY2, PowerType(0.1, 0.5), tol=1e-9)
    err = exc.value.failure
    assert err["gap"] > err["allowance"] > 0.0
    assert err["level"] == 57
    for fragment in ("L = 57", "probe ", "norm ", f"{err['gap']:.3e}", f"{err['allowance']:.3e}"):
        assert fragment in str(exc.value)
    # the allowance written out at the worst probe x:
    # sum_ij |x_ij| err(E_ij) + err(x) + tol * max(1, ||x||)
    f = _NonLinearMap(big_d)
    units = matrix_basis(2)
    probes = make_probes(2, 24, rng_for(0, ROLE_RECOVERY), 1e-2, 1e1)
    run = direct_method(f, Scheme.CAUCHY2, PowerType(0.1, 0.5), np.concatenate([units, probes]))
    k = err["probe_index"]
    x = probes[k]
    assert err["probe_norm"] == spectral_norm(x)
    allowance = sum(abs(x[e == 1.0][0]) * run.error_bound[j] for j, e in enumerate(units))
    allowance += run.error_bound[len(units) + k] + 1e-9 * max(1.0, spectral_norm(x))
    assert err["allowance"] == pytest.approx(allowance, rel=1e-12)


def test_derivation_limit_residual_exact_pair():
    # the one-triple sequence, which replaced derivation_limit_residual
    theta, _, big_d = _generators(43)
    f = make_perturbation(big_d, 0.0, 0.5, "cauchy", seed=17)
    h = make_perturbation(theta, 0.0, 0.5, "cauchy", seed=18)
    x = np.array([[0.3, 0.1j], [-0.2, 0.4]])
    y = np.array([[1.0, 0.0], [0.5, -0.5]])
    z = np.array([[0.0, 1.0j], [0.2, 0.1]])
    for scheme in (Scheme.CAUCHY2, Scheme.JENSEN3, Scheme.JENSEN3_CONTRACTIVE):
        r = derivation_limit_sequence(f, h, scheme, [(x, y, z)], [0, 2, 4])
        assert r.shape == (3, 1)
        assert (r <= 1e-9).all()
    with pytest.raises(SchemeError):
        derivation_limit_sequence(f, h, Scheme.CAUCHY2_CONTRACTIVE, [(x, y, z)], [0])


def test_derivation_limit_sequence_exact_pair_is_flat():
    theta, _, big_d = _generators(44)
    f = make_perturbation(big_d, 0.0, 0.5, "cauchy", seed=19)
    h = make_perturbation(theta, 0.0, 0.5, "cauchy", seed=20)
    triples = [tuple(np.eye(2) * (k + 1) for _ in range(3)) for k in range(3)]
    values = derivation_limit_sequence(f, h, Scheme.CAUCHY2, triples, [0, 1, 2])
    assert values.shape == (3, 3)
    assert (values <= 1e-9).all()


def test_derivation_limit_sequence_rejects_bad_levels_before_any_map_call():
    theta, _, big_d = _generators(44)
    f = make_perturbation(big_d, 0.1, 0.5, "cauchy", seed=19)
    triples = [tuple(np.eye(2) for _ in range(3))]
    calls = []
    counted = _counting(f, calls)
    with pytest.raises(ValueError, match="derivation_limit_sequence needs at least one level"):
        derivation_limit_sequence(counted, counted, Scheme.CAUCHY2, triples, [])
    with pytest.raises(ValueError, match="l must be nonnegative"):
        derivation_limit_sequence(counted, counted, Scheme.CAUCHY2, triples, [0, 1, -1])
    # 3^300 {x,y,z} stays within the limit and 3^600 {x,y,z} does not: only
    # the last level trips the guard
    with pytest.raises(ScaleOverflowError, match="level l = 200 exceed"):
        derivation_limit_sequence(counted, counted, Scheme.JENSEN3, triples, [0, 1, 100, 200])
    assert calls == []


def test_stages_call_each_map_once_per_scan():
    # shipped cauchy2 at dim 2: one f and one h call over all 25 sequence
    # levels, one f call over the 11 rate levels, and in the hypotheses one
    # f call over x, the pair argument and the triple product and one h call
    # over the first two (five calls, one per argument stack, before the
    # stage stacked them)
    theta, _, big_d = _generators(50)
    f = make_perturbation(big_d, 0.1, 0.5, "cauchy", seed=26)
    h = make_perturbation(theta, 0.1, 0.5, "cauchy", seed=27)
    f_calls, h_calls = [], []
    cf, ch = _counting(f, f_calls), _counting(h, h_calls)
    rng = np.random.default_rng(28)
    triples = rng.standard_normal((40, 3, 2, 2)) + 1j * rng.standard_normal((40, 3, 2, 2))
    derivation_limit_sequence(cf, ch, Scheme.CAUCHY2, triples, range(25))
    assert (f_calls, h_calls) == ([25 * 160], [25 * 120])
    f_calls.clear()
    estimate_convergence_rate(cf, Scheme.CAUCHY2, 0.5, make_probes(2, 120, rng_for(29, 11)))
    assert f_calls == [11 * 120]
    f_calls.clear()
    h_calls.clear()
    probes = make_probes(2, 100, rng_for(30, 2))
    mus = make_mu_samples(16, rng_for(30, 3))
    verify_hypotheses(cf, ch, PowerType(0.1, 0.5), "cauchy", probes, mus)
    assert (f_calls, h_calls) == ([300], [200])


@pytest.mark.parametrize("form", ["cauchy", "jensen"])
def test_hypotheses_evaluate_each_perturbed_map_once_on_one_norm_call(monkeypatch, form):
    # the stage norms (x, pair argument, {x,y,z}) in one call and hands the
    # norms to both maps' kernels: f over all three blocks, h over the first
    # two; the residuals take the second norm call
    theta, _, big_d = _generators(50)
    f = make_perturbation(big_d, 0.1, 0.5, form, seed=26)
    h = make_perturbation(theta, 0.1, 0.5, form, seed=27)
    evaluations, norms = [], []
    kernel = PerturbedMap._at
    monkeypatch.setattr(
        PerturbedMap,
        "_at",
        lambda g, mx, nx, s: evaluations.append((g.seed, len(mx))) or kernel(g, mx, nx, s),
    )
    monkeypatch.setattr(linalg, "_norm", _counting(linalg._norm, norms))
    monkeypatch.setattr(stability, "_norm", _counting(stability._norm, norms))
    probes = make_probes(2, 12, rng_for(30, 2))
    verify_hypotheses(f, h, PowerType(0.1, 0.5), form, probes, make_mu_samples(4, rng_for(30, 3)))
    assert (evaluations, norms) == ([(26, 36), (27, 24)], [36, 3])


def test_checks_on_a_recovered_map_apply_it_once(monkeypatch):
    # the homogeneity stage applies the map once and takes one norm call; the
    # bound stage applies each map once and takes one bound and one error norm
    # for all its pairs
    theta, _, big_d = _generators(50)
    probes = make_probes(2, 8, rng_for(30, 2))
    mus = make_mu_samples(16, rng_for(30, 3))
    norms, bounds, op_calls = [], [], []
    # every norm, public or internal, is one call of the kernel linalg._norm
    norm, power_bound = linalg._norm, stability._power_bound
    for module in (linalg, stability):
        monkeypatch.setattr(module, "_norm", _counting(norm, norms))
    monkeypatch.setattr(
        stability, "_power_bound", lambda *args: bounds.append(1) or power_bound(*args)
    )
    op = _counting(big_d, op_calls)
    verify_homogeneity(op, probes, mus)
    # one stack: 16 scalars times 8 probes, the probes and 0, then the first,
    # middle and last probe scaled by 1, 2, i, 0.9 + 2.3i and the unimodular
    # pairs of 0.9 and 0.3; one norm call over the S1 differences, the probes,
    # op(0), the three probes and their gaps at the three lambdas
    assert (op_calls, norms) == ([16 * 8 + 8 + 1 + 3 * 8], [16 * 8 + 8 + 1 + 3 + 3 * 3])
    norms.clear()
    f_calls, h_calls = [], []
    # the exact maps take no norms of their own: one norm call for the bound,
    # over the one size of x a doubling bound takes, and one over the (pair,
    # probe) stack of errors; the recorder reads each call's first axis
    verify_stability_bound(
        [(_counting(big_d, f_calls), big_d.to_tabulated()), (_counting(theta, h_calls), theta)],
        PowerType(0.1, 0.5),
        Scheme.CAUCHY2,
        probes,
    )
    assert (f_calls, h_calls, bounds, norms) == ([8], [8], [1], [1, 2])


def test_certify_theta_derivation_exact_pair():
    theta, _, big_d = _generators(45)
    rng = np.random.default_rng(21)
    triples = [
        tuple(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3))
        for _ in range(10)
    ]
    cert = certify_theta_derivation(big_d, theta, triples)
    assert cert["passed"]
    assert cert["max_relative_residual"] <= 1e-10
    with pytest.raises(ValueError):
        certify_theta_derivation(big_d, theta, [])


def test_certify_theta_derivation_names_the_first_of_a_round_off_tie(monkeypatch):
    top = 1.8731251731724e-10
    below = [top]
    for _ in range(16):
        below.append(np.nextafter(below[-1], 0.0))
    # 16 ulps below the maximum is a different value; 2 ulps below is a tie
    residuals = np.array([below[16], below[2], 0.0, top, below[1]])
    monkeypatch.setattr(stability, "theta_derivation_residual", lambda *args: residuals)
    _, _, big_d = _generators(45)
    cert = certify_theta_derivation(big_d, big_d, np.zeros((5, 3, 2, 2)))
    assert cert["worst_index"] == 1
    assert cert["max_relative_residual"] == top


def test_s1_homogeneity_of_linear_map():
    _, _, big_d = _generators(46)
    probes = make_probes(2, 6, rng_for(22, 2))
    mus = make_mu_samples(8, rng_for(22, 3))
    rep = verify_homogeneity(big_d, probes, mus)
    assert rep["passed"] and rep["s1"]["passed"]
    assert rep["s1"]["max_residual"] <= 1e-12


def test_complex_homogeneity_via_decomposition():
    _, _, big_d = _generators(47)
    x = np.array([[0.4, -0.3j], [0.2, 0.9]])
    entries = verify_homogeneity(big_d, [x], [1.0])["complex"]
    assert [(e["label"], e["lambda"]) for e in entries] == [
        ("2", [2.0, 0.0]),
        ("i", [0.0, 1.0]),
        ("0.9+2.3i", [0.9, 2.3]),
    ]
    for entry in entries:
        assert entry["passed"]
        assert entry["residual"] <= 1e-12


def test_complex_homogeneity_residual_is_relative_to_the_scaled_input():
    # conjugation is additive and fixes real scalars, but maps i x to -i conj(x);
    # at lam = i, x = 100 E11 the route gives 100i E11 against -100i E11, a gap
    # of 200 on |lam| ||x|| = 100
    section = verify_homogeneity(lambda x: x.conj(), [100.0 * E11], [1.0])
    [entry] = [e for e in section["complex"] if e["label"] == "i"]
    assert entry == {
        "label": "i",
        "lambda": [0.0, 1.0],
        "residual": 2.0,
        "threshold": 1e-6,
        "passed": False,
    }
    assert not section["passed"]


def test_estimate_rate_trivial_on_exact_map():
    _, _, big_d = _generators(48)
    f = make_perturbation(big_d, 0.0, 0.5, "cauchy", seed=23)
    est = estimate_convergence_rate(f, Scheme.CAUCHY2, 0.5, [E11])
    assert est["estimate"] is None
    assert est["probes"] == 0


def test_estimate_rate_perturbed_doubling():
    _, _, big_d = _generators(49)
    f = make_perturbation(big_d, 0.1, 0.5, "cauchy", seed=24)
    probes = make_probes(2, 10, rng_for(25, 11), norm_min=0.5, norm_max=2.0)
    est = estimate_convergence_rate(f, Scheme.CAUCHY2, 0.5, probes)
    assert est["estimate"] is not None
    assert est["probes"] == 10
    # a single probe draw scatters around the asymptotic rate by several
    # hundredths; the tight window is enforced on the pinned lab run
    assert abs(est["estimate"] - 2.0 ** (0.5 - 1.0)) <= 0.12


def test_perturbation_decay_rates():
    assert perturbation_decay_rate(Scheme.CAUCHY2, 0.5) == pytest.approx(2.0**-0.5)
    assert perturbation_decay_rate(Scheme.JENSEN3, 0.5) == pytest.approx(3.0**-0.5)
    assert perturbation_decay_rate(Scheme.CAUCHY2_CONTRACTIVE, 2.0) == pytest.approx(0.25)
    assert perturbation_decay_rate(Scheme.JENSEN3_CONTRACTIVE, 4.0) == pytest.approx(3.0**-4.0)


def test_perturbation_decay_rate_takes_a_scheme_tag():
    for scheme in Scheme:
        for p in (0.0, 1e-3, 0.25, 0.5, 2.0, 3.3, 4.0, 7.5):
            assert perturbation_decay_rate(scheme.value, p) == perturbation_decay_rate(scheme, p)


def test_verify_stability_bound_perturbed_pair():
    _, _, big_d = _generators(50)
    f = make_perturbation(big_d, 0.1, 0.5, "cauchy", seed=26)
    recovered, _ = recover_linear_map(f, Scheme.CAUCHY2, PowerType(0.1, 0.5), tol=1e-9)
    probes = make_probes(2, 20, rng_for(27, 2))
    (rep,) = verify_stability_bound([(f, recovered)], PowerType(0.1, 0.5), Scheme.CAUCHY2, probes)
    assert rep["passed"]
    assert rep["max_ratio"] <= 1.0 + 1e-9
    assert len(rep["rows"]) == 20
    norm, bound, error, ratio = rep["rows"][0]
    assert bound > 0.0 and error >= 0.0 and ratio == pytest.approx(error / bound)


@given(st.integers(0, 10**5), st.floats(0.0, 0.95), st.floats(0.01, 2.0))
def test_phi_tilde_closed_form_property(seed, p, eps):
    # closed form against the brute-force sum across the gated region
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    got = phi_tilde(PowerType(eps, p), Scheme.CAUCHY2, x, x, np.zeros((2, 2)))
    want = _series_oracle(Scheme.CAUCHY2, eps, p, [spectral_norm(x)] * 2 + [0.0])
    assert got == pytest.approx(want, rel=1e-10)
