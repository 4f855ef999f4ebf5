"""Stacked evaluation against per-slice and per-level evaluation.

Every kernel that the pipeline calls on (k, n, n) probe stacks must return,
slice for slice, what it returns on each matrix alone.  The oracle is a
plain Python loop over the slices of the same stack.  The level scans and
the checks that evaluate each map once over stacked arguments must equal,
bit for bit, the same formula written out one level or one operator call
at a time.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import _openblas_core

import triple_stab
from triple_stab import lab
from triple_stab.lab import SEQUENCE_TRIPLE_COUNT, ExperimentConfig, _sequence_triples, render_json
from triple_stab.linalg import _norm, as_matrix, hs_inner, spectral_norm
from triple_stab.sampling import (
    ROLE_AXIOMS,
    ROLE_SEQUENCE_TRIPLES,
    haar_unitary,
    make_probes,
    random_matrices,
    random_matrix,
    rng_for,
    skew_matrix,
)
from triple_stab import stability
from triple_stab.stability import (
    RATE_LEVELS,
    RATE_WINDOW,
    PowerType,
    Scheme,
    SummabilityError,
    COMPLEX_LAMBDAS,
    HOMOGENEITY_TOL,
    approximants,
    derivation_limit_sequence,
    estimate_convergence_rate,
    hyers_bound,
    make_perturbation,
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
    Compose,
    Conjugation,
    OperatorSum,
    Scaled,
    AXIOM_COMMUTATIVITY_TOL,
    AXIOM_JORDAN_TOL,
    AXIOM_L_POSITIVITY_TOL,
    AXIOM_NORM_TOL,
    PRODUCT_AGREEMENT_TOL,
    _stack_product,
    _within,
    check_axioms,
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
    # one fixed-shape product per slice and factor: a slice's image does not
    # depend on its stack
    assert np.array_equal(got, [op.apply(s) for s in x])
    offset = k // 3
    assert np.array_equal(op.apply(x[offset:]), got[offset:])
    _assert_slicewise(got, written_out(x))
    assert op.apply(x[0]).shape == (n, n)
    nested = op.apply(np.stack([x, x[::-1]]))
    assert nested.shape == (2, k, n, n)
    assert np.array_equal(nested, [got, got[::-1]])


# every operator on stacks of 1, 7 and 64 slices, whole and from each offset,
# against its images of the slices one at a time; prints the core that ran,
# then the cases whose bits differ
_INVARIANCE_CHILD = """
import numpy as np
from conftest import _openblas_core
from triple_stab.sampling import haar_unitary, random_matrix, rng_for, skew_matrix
from triple_stab.triple import Commutator, Compose, Conjugation

print(_openblas_core())
for n in (2, 4, 8, 16):
    theta = Conjugation(haar_unitary(rng_for(7, 4), n))
    d = Commutator(skew_matrix(rng_for(7, 5), n))
    ops = {"conjugation": theta, "commutator": d, "compose": Compose(theta, d)}
    ops["tabulated"] = ops["compose"].to_tabulated()
    rng = np.random.default_rng(23)
    for k in (1, 7, 64):
        x = np.stack([random_matrix(rng, n) for _ in range(k)])
        for name, op in ops.items():
            alone = np.array([op.apply(s) for s in x])
            for start in sorted({0, 1 % k, k // 3, k - 1}):
                if not np.array_equal(op.apply(x[start:]), alone[start:]):
                    print(name, n, k, start)
"""

# each OpenBLAS core forced below: the name OpenBLAS then reports, and the
# CPU features the core needs (forcing a core the CPU lacks would stop the
# process with an illegal instruction)
_FORCED_CORES = {
    "Haswell": ("Haswell", ("AVX2", "FMA3")),
    "Sandybridge": ("Sandybridge", ("AVX",)),
    "Prescott": ("Katmai", ("SSE3",)),
}


@pytest.mark.parametrize("core", sorted(_FORCED_CORES))
def test_operators_are_bit_stable_in_any_stack_on_other_blas_cores(core):
    if _openblas_core() == "unknown":
        pytest.skip("numpy has no bundled OpenBLAS whose core can be forced")
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    reported, features = _FORCED_CORES[core]
    missing = [f for f in features if not __cpu_features__.get(f)]
    if missing:
        pytest.skip(f"this CPU cannot run the {core} kernel: no {', '.join(missing)}")
    tests_dir = str(Path(__file__).resolve().parent)
    package_root = str(Path(triple_stab.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [package_root, tests_dir, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_CORETYPE=core, OPENBLAS_NUM_THREADS="1")
    run = subprocess.run(
        [sys.executable, "-c", _INVARIANCE_CHILD],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    ran, *differing = run.stdout.splitlines()
    assert ran == reported
    assert differing == []


@pytest.mark.parametrize("n", [1, 2, 3, 8, 16])
def test_tabulated_is_bit_stable_in_any_stack(n):
    # one fixed-shape product per slice, so a check may gather its arguments
    # into one call of any size, one slice included
    op = _operators(n)["tabulated"]
    x = _stack(24, n, 64)
    got = op.apply(x)
    for start, stop in ((0, 1), (0, 2), (5, 8), (10, 17), (1, 64)):
        assert np.array_equal(op.apply(x[start:stop]), got[start:stop])
    assert np.array_equal(op.apply(x[9]), got[9])
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


@pytest.mark.parametrize("n", [1, 2, 3, 8])
@pytest.mark.parametrize("base", ["compose", "conjugation"])
def test_perturbed_map_stack_equals_its_slices_bit_for_bit(n, base):
    # a stage may stack several argument stacks into one call of f: that
    # moves no bit of any slice's value, at any magnitude or stack size
    f = make_perturbation(_operators(n)[base], 0.1, 0.5, "cauchy", seed=9)
    x = _stack(12, n, 120) * np.geomspace(1e-3, 1e3, 120)[:, None, None]
    x[5] = 0.0
    assert np.array_equal(f(x), np.stack([f(s) for s in x]))
    assert np.array_equal(f(x[:7]), f(x)[:7])


@pytest.mark.parametrize("n", [1, 2, 3, 8])
@pytest.mark.parametrize("base", ["compose", "conjugation"])
@pytest.mark.parametrize("eps", [0.0, 0.1])
def test_known_norm_kernel_equals_the_call_bit_for_bit(n, base, eps):
    # a stage norms an argument stack once and hands the norms to both maps'
    # kernels, which must give what each map's own call gives, also when a
    # slice's norm came from a larger stack the slice was concatenated into
    f = make_perturbation(_operators(n)[base], eps, 0.5, "cauchy", seed=9)
    x = _stack(12, n, 60) * np.geomspace(1e-3, 1e3, 60)[:, None, None]
    x[5] = 0.0
    assert np.array_equal(f._at(x, _norm(x)), f(x))
    assert np.array_equal(f._at(x[3], _norm(x[3])), f(x[3]))
    larger = np.concatenate([_stack(13, n, 25), x, 3.0 * x[::-1]])
    norms = _norm(larger)
    assert np.array_equal(norms[25:85], _norm(x))
    assert np.array_equal(f._at(larger[25:85], norms[25:85]), f(x))
    assert np.array_equal(f._at(larger, norms)[25:85], f(x))


@pytest.mark.parametrize("n", [1, 2, 3, 8])
@pytest.mark.parametrize("eps", [0.0, 0.1])
def test_kernel_at_unit_scale_equals_the_call_bit_for_bit(n, eps):
    # the stages outside the level scans pass s = 1.0, which rounds nothing:
    # the kernel gives f's bits and the defect formula written out unscaled
    f = make_perturbation(_operators(n)["compose"], eps, 0.5, "cauchy", seed=9)
    x = _stack(14, n, 40) * np.geomspace(1e-3, 1e3, 40)[:, None, None]
    x[5] = 0.0
    nx = _norm(x)
    got = f._at(x, nx, 1.0)
    assert np.array_equal(got, f(x))
    phase = np.sin(f.alpha * nx + f.beta * np.trace(x, axis1=-2, axis2=-1).real)
    defect = f.amplitude * stability.norm_power(nx, f.exponent) * phase
    written_out = f.base.apply(x) + np.multiply.outer(defect, f.direction)
    assert np.array_equal(got, written_out)


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_kernel_at_a_power_of_two_scale_equals_the_scaled_call(n):
    # scaling by 2^j commutes with the base's GEMMs, the norm and the trace,
    # so the kernel on the unscaled stack gives f(2^j x) bit for bit, for a
    # scale array that broadcasts over the stack
    f = make_perturbation(_operators(n)["compose"], 0.1, 0.5, "cauchy", seed=9)
    x = _stack(15, n, 12) * np.geomspace(1e-2, 1e2, 12)[:, None, None]
    s = 2.0 ** np.arange(-20, 21, 5)[:, None]
    want = np.stack([f(si * x) for si in s[:, 0]])
    assert np.array_equal(f._at(x, _norm(x), s), want)


@pytest.mark.parametrize("n,k", SHAPES)
def test_axiom_checkers_match_slices(n, k):
    # a stack's sections are the merge of its single-draw sections, bit for
    # bit: the max of each value (the threshold included), the and of passed
    ops = [_stack(seed, n, k) for seed in (13, 14, 15, 16, 17, 19)]
    probes = np.stack([_stack(18 + i, n, 4) for i in range(k)])
    stacked = check_axioms(*ops, probes)
    singles = [check_axioms(*s) for s in zip(*ops, probes)]
    merged = {
        name: {
            key: (all if key == "passed" else max)(single[name][key] for single in singles)
            for key in section
        }
        for name, section in stacked.items()
    }
    assert stacked == merged


def _reference_axiom_fragment(config: ExperimentConfig, count: int) -> dict:
    """``run_axiom_suite``'s fragment, written out one check and one product at a time.

    Each check takes its own products and norms, as before the suite went
    through ``check_axioms``; the Jordan-form product is written out too.
    """
    n = config.dim
    rng = rng_for(config.seed, ROLE_AXIOMS)
    draws = random_matrices(rng, 10 * count, n).reshape(count, 10, n, n)
    a, b, x, y, z, gen = (draws[:, i] for i in range(6))
    t = triple_product_cstar
    comm = spectral_norm(t(x, y, z) - t(z, y, x))
    lhs = t(a, b, t(x, y, z))
    rhs = t(t(a, b, x), y, z) - t(x, t(b, a, y), z) + t(x, y, t(a, b, z))
    scale = 1.0
    for norm in spectral_norm(np.stack([a, b, x, y, z])):
        scale = scale * norm
    threshold = AXIOM_JORDAN_TOL * np.maximum(1.0, scale)
    jordan_rel = spectral_norm(lhs - rhs) * (AXIOM_JORDAN_TOL / threshold)
    nx = spectral_norm(x)
    cube = np.abs(spectral_norm(t(x, x, x)) - nx**3) / np.maximum(1.0, nx**3)
    probes, g = draws[:, 6:], gen[:, None]
    images = t(g, g, probes)
    pairs = hs_inner(images[:, :, None], probes[:, None])
    asym = np.abs(pairs - hs_inner(probes[:, :, None], images[:, None])).max(axis=(-2, -1))
    neg = np.maximum(0.0, -hs_inner(images, probes).real.min(axis=-1))
    ys = np.swapaxes(y.conj(), -1, -2)
    j = jordan_product
    jb = j(j(x, ys), z) + j(j(ys, z), x) - j(j(x, z), ys)
    nx, ny, nz = spectral_norm(draws[:, 2:5]).T
    agreement = spectral_norm(t(x, y, z) - jb) / np.maximum(1.0, nx * ny * nz)
    fragment = {
        "samples": count,
        "commutativity": _within(AXIOM_COMMUTATIVITY_TOL, max_residual=float(comm.max())),
        "jordan_identity": _within(
            AXIOM_JORDAN_TOL, max_relative_residual=float(jordan_rel.max())
        ),
        "l_positivity": _within(
            AXIOM_L_POSITIVITY_TOL,
            max_selfadjoint_violation=float(asym.max()),
            max_negativity=float(neg.max()),
        ),
        "norm_identity": _within(AXIOM_NORM_TOL, max_relative_error=float(cube.max())),
        "product_agreement": _within(
            PRODUCT_AGREEMENT_TOL, max_relative_residual=float(agreement.max())
        ),
    }
    fragment["passed"] = all(part["passed"] for part in list(fragment.values())[1:])
    return fragment


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("samples", [1, 50, 200])
@pytest.mark.parametrize("seed", [42, 7])
def test_axiom_suite_equals_the_checks_written_out(n, samples, seed):
    config = ExperimentConfig(dim=n, seed=seed)
    fragment = lab.run_axiom_suite(config, samples=samples)
    assert render_json(fragment) == render_json(_reference_axiom_fragment(config, samples))


@pytest.mark.parametrize("n,k", [(1, 1), (2, 7), (5, 3)])
def test_make_probes_returns_one_stack(n, k):
    probes = make_probes(n, k, rng_for(3, 2), 0.5, 2.0)
    assert type(probes) is np.ndarray and probes.dtype == np.complex128
    assert probes.shape == (k, n, n) and probes.flags.c_contiguous
    # the former list of k matrices, written out: each draw rescaled on its own
    lo, hi = np.log10(0.5), np.log10(2.0)
    targets = [10.0 ** (lo if k == 1 else lo + (hi - lo) * i / (k - 1)) for i in range(k)]
    directions = random_matrices(rng_for(3, 2), k, n)
    former = [d * (t / spectral_norm(d)) for d, t in zip(directions, targets)]
    assert np.array_equal(probes, np.stack(former))


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


# unit round-off of float64
UNIT_ROUNDOFF = np.finfo(float).eps / 2


def _called(g, s, a):
    # the map as a black box, on the rounded scaled argument
    return g(s * a)


def _kernel(g, s, a):
    # the map's kernel on the unscaled argument, its norm and the scale
    return g._at(a, _norm(a), s)


def _sequence_by_level(f, h, scheme, triples, levels, image):
    # the residual at each level on its own, each map evaluated once per
    # argument, as image(g, s, a) = g at s a
    t = triple_product_cstar
    x, y, z = triples[:, 0], triples[:, 1], triples[:, 2]
    rows = []
    for l in levels:
        s, s3 = scheme.scale(l), scheme.scale(3 * l)
        fx, fy, fz = (image(f, s, a) for a in (x, y, z))
        hx, hy, hz = (image(h, s, a) for a in (x, y, z))
        residual = spectral_norm(
            image(f, s3, t(x, y, z)) - t(fx, hy, hz) - t(hx, fy, hz) - t(hx, hy, fz)
        )
        rows.append((1.0 / s3) * residual)
    return np.stack(rows)


def _frobenius(a):
    # ||a||_F bounds the spectral norm of a and of its entrywise |a|
    return np.sqrt((np.abs(a) ** 2).sum(axis=(-2, -1)))


def _abs_size(op) -> float:
    # spectral norm of the operator a -> |M| a |M'| ... built from the entrywise
    # absolute values of op's matrices, which bounds a GEMM's rounding of op(a)
    if isinstance(op, Compose):
        return _abs_size(op.outer) * _abs_size(op.inner)
    size = spectral_norm(np.abs(op.matrix))
    return size * size if isinstance(op, Conjugation) else 2.0 * size


def _image_roundoff(g, s, a):
    """Bound on ||g(s a) - g._at(a, ||a||, s)|| per slice of a, in the unit round-off u.

    The two round in different places: the call rounds s a and then maps
    it, the kernel maps a and scales the base image, the norm and the trace
    by s.  Each side's share is at most 8 (n + 1) u of the parts' sizes:
    the base takes at most four chained n-term GEMMs and a subtraction,
    (4 n + 2) u of s ||B|| ||a||_F with ||B|| the absolute operator's norm
    (``_abs_size``); the defect amplitude * (s ||a||)^p sin(phase) moves by
    the relative error of the norm and of the envelope, and by the absolute
    error of the phase argument, whose size alpha s ||a|| + beta s sum |a_ii|
    multiplies the same factor.  So 16 (n + 1) u bounds the difference.
    """
    n = a.shape[-1]
    norm = _norm(a)
    phase = g.alpha * s * norm + g.beta * s * np.abs(np.diagonal(a, 0, -2, -1)).sum(axis=-1)
    defect = g.amplitude * stability.norm_power(s * norm, g.exponent)
    return 16 * (n + 1) * UNIT_ROUNDOFF * (
        s * _abs_size(g.base) * _frobenius(a) + defect * (1.0 + phase)
    )


def _sequence_roundoff(f, h, scheme, triples, levels):
    """Bound on |called - kernel| for ``_sequence_by_level``, per level and triple.

    Each image may move by its ``_image_roundoff``; with ||{a, b, c}|| <=
    ||a|| ||b|| ||c|| a triple product of moved images moves by at most the
    product of the moved sizes less the product of the sizes.  Each side
    rounds the three triple products (two chained n-term products each),
    the sums and the norm within 8 (n + 1) u of the terms' Frobenius sizes.
    """
    p = triple_product_cstar(triples[:, 0], triples[:, 1], triples[:, 2])
    args = triples.swapaxes(0, 1)  # x, y, z
    n = p.shape[-1]
    rows = []
    for l in levels:
        s, s3 = scheme.scale(l), scheme.scale(3 * l)
        moved = _image_roundoff(f, s3, p)
        terms = _frobenius(f(s3 * p))
        # per argument and map: the image's norm, Frobenius size and round-off
        sizes = {}
        for g in (f, h):
            images = [g(s * a) for a in args]
            sizes[g] = [
                (spectral_norm(image), _frobenius(image), _image_roundoff(g, s, a))
                for image, a in zip(images, args)
            ]
        for slot in range(3):
            # f at the slot, h at the other two
            factors = [sizes[f if i == slot else h][i] for i in range(3)]
            exact = np.prod([norm for norm, _, _ in factors], axis=0)
            moved = moved + np.prod([norm + d for norm, _, d in factors], axis=0) - exact
            terms = terms + np.prod([frob for _, frob, _ in factors], axis=0)
        rows.append((moved + 16 * (n + 1) * UNIT_ROUNDOFF * terms) / s3)
    return np.stack(rows)


def _triples(seed: int, n: int, k: int) -> np.ndarray:
    return np.stack([_stack(seed + i, n, k) for i in range(3)], axis=1)


@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize("scheme", SEQUENCE_SCHEMES)
def test_derivation_sequence_matches_level_by_level(n, scheme):
    # bit for bit what the kernel gives one level and one argument at a time;
    # the black-box call f(s x) gives the same bits at base 2, where scaling
    # by s commutes with every rounding, and at base 3 stays within round-off
    f, h = _perturbed_pair(n, SHIPPED_P[scheme], scheme.hypothesis_form)
    triples = _triples(40, n, 4)
    levels = list(scheme.derivation_levels())
    stacked = derivation_limit_sequence(f, h, scheme, triples, levels)
    assert np.array_equal(stacked, _sequence_by_level(f, h, scheme, triples, levels, _kernel))
    called = _sequence_by_level(f, h, scheme, triples, levels, _called)
    if scheme.base == 2:
        assert np.array_equal(stacked, called)
    else:
        assert (np.abs(stacked - called) <= _sequence_roundoff(f, h, scheme, triples, levels)).all()


def _sequence_own_norms(f, h, scheme, triples, levels):
    # every level in one kernel call of each map, each call norming its own
    # arguments: h does not share f's norms
    t = triple_product_cstar
    x, y, z = triples[:, 0], triples[:, 1], triples[:, 2]
    s = np.array([scheme.scale(l) for l in levels])[:, None]
    s3 = np.array([scheme.scale(3 * l) for l in levels])[:, None]
    args = np.stack([t(x, y, z), x, y, z])[:, None]
    fp, fx, fy, fz = f._at(args, _norm(args), np.stack([s3, s, s, s]))
    hx, hy, hz = h._at(args[1:], _norm(args[1:]), np.stack([s, s, s]))
    residual = spectral_norm(fp - t(fx, hy, hz) - t(hx, fy, hz) - t(hx, hy, fz))
    return (1.0 / s3) * residual


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("scheme", SEQUENCE_SCHEMES)
def test_derivation_sequence_equals_h_taking_its_own_norms(n, scheme):
    f, h = _perturbed_pair(n, SHIPPED_P[scheme], scheme.hypothesis_form)
    triples = _triples(45, n, 5)
    levels = list(scheme.derivation_levels())
    want = _sequence_own_norms(f, h, scheme, triples, levels)
    assert np.array_equal(derivation_limit_sequence(f, h, scheme, triples, levels), want)


def test_level_scans_make_one_map_call_each():
    # each scan hands f every level in one call, also at dim 16, where the
    # calls hold 400 x 256 and 440 x 256 complex entries: 4 arguments x 4
    # triples x 25 levels in the sequence, 40 probes x 11 levels in the rate
    # fit; the values are those of the map's own kernel, level by level
    f, h = _perturbed_pair(16, 0.5, "cauchy")
    triples = _triples(50, 16, 4)
    levels = list(Scheme.CAUCHY2.derivation_levels())
    assert len(levels) == 25
    probes = _stack(53, 16, 40)
    calls = []
    counted = lambda x: calls.append(len(x)) or f(x)
    sequence = derivation_limit_sequence(counted, h, Scheme.CAUCHY2, triples, levels)
    assert calls == [400]
    by_level = [derivation_limit_sequence(f, h, Scheme.CAUCHY2, triples, [l])[0] for l in levels]
    assert np.array_equal(sequence, np.stack(by_level))
    calls.clear()
    rate = estimate_convergence_rate(counted, Scheme.CAUCHY2, 0.5, probes)
    assert calls == [440]
    assert rate == estimate_convergence_rate(f, Scheme.CAUCHY2, 0.5, probes)


@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize("scheme", list(Scheme))
def test_rate_scan_matches_level_by_level(n, scheme):
    # the scan over all levels is bit for bit the scan one level at a time;
    # the black-box f(s x) / s gives the same bits at base 2 and stays within
    # round-off at base 3
    p = SHIPPED_P[scheme]
    f, _ = _perturbed_pair(n, p, scheme.hypothesis_form)
    probes = _stack(60, n, 5)
    levels = range(RATE_LEVELS.start - 1, RATE_LEVELS.stop)
    by_level = np.stack([approximants(f, scheme, probes, [l])[0] for l in levels])
    assert np.array_equal(approximants(f, scheme, probes, levels), by_level)
    written_out = np.stack([f(scheme.scale(l) * probes) / scheme.scale(l) for l in levels])
    if scheme.base == 2:
        assert np.array_equal(by_level, written_out)
    else:
        allowance = [_image_roundoff(f, scheme.scale(l), probes) / scheme.scale(l) for l in levels]
        assert (spectral_norm(by_level - written_out) <= np.stack(allowance)).all()
    rate, used = pooled_rate(RATE_LEVELS, spectral_norm(np.diff(by_level, axis=0)))
    est = estimate_convergence_rate(f, scheme, p, probes)
    expected = perturbation_decay_rate(scheme, p)
    assert est == {
        "estimate": rate,
        "first_level": RATE_LEVELS[0],
        "last_level": RATE_LEVELS[-1],
        "probes": used,
        "expected": expected,
        "window": RATE_WINDOW,
        "passed": rate is None or abs(rate - expected) <= RATE_WINDOW,
    }


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
    assert {key: report[key] for key in want} == want


def _hypotheses_five_calls(f, h, phi, form, probes, mus):
    """verify_hypotheses with one map call per argument stack, each norming its own.

    f maps x, the pair argument and {x,y,z} in three calls, h maps x and the
    pair argument in two, and x is normed on its own.
    """
    x = np.asarray(probes, dtype=np.complex128)
    m = len(x)
    k = np.arange(m)
    iy = (k + max(1, m // 2) % m) % m
    iz = (k + max(1, m // 3) % m) % m
    y, z = x[iy], x[iz]
    mu = np.array([complex(mus[i % len(mus)]) for i in range(m)])[:, None, None]
    nx = spectral_norm(x)
    denom_pair = phi.from_norms(nx, nx[iy], 0.0)
    denom_triple = phi.from_norms(nx, nx[iy], nx[iz])
    fx, hx = f(x), h(x)
    fy, fz, hy, hz = fx[iy], fx[iz], hx[iy], hx[iz]
    mid = mu * x + y
    if form == "cauchy":
        fm, hm = f(mid), h(mid)
    else:
        fm, hm = 2.0 * f(mid / 2.0), 2.0 * h(mid / 2.0)
    t = triple_product_cstar
    rf, rh, rt = spectral_norm(
        np.stack(
            [
                fm - mu * fx - fy,
                hm - mu * hx - hy,
                f(t(x, y, z)) - t(fx, hy, hz) - t(hx, fy, hz) - t(hx, hy, fz),
            ]
        )
    )

    def ratio(num, den):
        return float(np.divide(num, den, out=np.zeros_like(num), where=den > 0.0).max())

    zero = denom_pair <= 0.0
    max_f, max_h = ratio(rf, denom_pair), ratio(rh, denom_pair)
    zero_abs = float(np.where(zero, np.maximum(rf, rh), 0.0).max())
    return {
        "form": form,
        "samples": m,
        "max_ratio_f": max_f,
        "max_ratio_h": max_h,
        "max_triple_ratio": ratio(rt, denom_triple),
        "zero_control_samples": int(zero.sum()),
        "max_zero_control_residual": zero_abs,
        "passed": max_f <= 1.0 and max_h <= 1.0 and zero_abs <= stability.ZERO_CONTROL_TOL,
    }


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("form", ["cauchy", "jensen"])
@pytest.mark.parametrize("plain", [False, True], ids=["perturbed", "plain"])
def test_verify_hypotheses_equals_its_five_call_form(n, form, plain):
    # two map calls on one norm call report what five calls did; a plain
    # callable is called on the stacked arguments without the known norms
    f, h = _perturbed_pair(n, 0.5, form)
    if plain:
        f, h = (lambda x, g=f: g(x)), (lambda x, g=h: g(x))
    x = _stack(71, n, 9) * np.geomspace(1e-2, 1e2, 9)[:, None, None]
    x[2] = x[2 + 4] = 0.0
    mus = [np.exp(1j * a) for a in (0.7, 2.1)]
    phi = PowerType(0.1, 0.5)
    report = verify_hypotheses(f, h, phi, form, x, mus)
    assert report["zero_control_samples"] == 1
    assert report == _hypotheses_five_calls(f, h, phi, form, x, mus)


@pytest.mark.parametrize("n,k", SHAPES)
@pytest.mark.parametrize("name", ["compose", "tabulated"])
def test_theta_derivation_residual_matches_separate_calls(n, k, name):
    d_op, theta = _operators(n)[name], _operators(n)["conjugation"].to_tabulated()
    x, y, z = (_stack(seed, n, k) for seed in (80, 81, 82))
    t = triple_product_cstar
    dx, dy, dz, tx, ty, tz = d_op(x), d_op(y), d_op(z), theta(x), theta(y), theta(z)
    want = spectral_norm(d_op(t(x, y, z)) - t(dx, ty, tz) - t(tx, dy, tz) - t(tx, ty, dz))
    assert np.array_equal(theta_derivation_residual(d_op, theta, x, y, z), want)


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
    """The S1 check written out: op at mu x, at x and at 0, one norm per term."""
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
def test_homogeneity_checks_match_one_call_per_argument(monkeypatch, n, name):
    # the stage applies op once over all its arguments; with every written-out
    # call on a stack of at least two slices, the values agree bit for bit.  A
    # lambda with a negative real part joins the shipped three
    lams = (*COMPLEX_LAMBDAS, (complex(-1.25, 0.5), "-1.25+0.5i"))
    monkeypatch.setattr(stability, "COMPLEX_LAMBDAS", lams)
    op = _operators(n)[name]
    x = _stack(87, n, 8)
    mus = [np.exp(1j * a) for a in (0.3, 1.1, 2.9, 4.0)]
    section = verify_homogeneity(op, x, mus)
    s1 = section["s1"]
    assert (s1["max_residual"], s1["zero_residual"]) == _s1_by_calls(op, x, mus)
    assert s1["threshold"] == HOMOGENEITY_TOL
    # one entry per lam, its residual the worst over the first, middle and last probe
    want = [_complex_by_calls(op, lam, x[[0, 4, 7]]) for lam, _ in lams]
    assert section["complex"] == [
        {"label": label, "lambda": [lam.real, lam.imag], **_within(HOMOGENEITY_TOL, residual=r)}
        for (lam, label), r in zip(lams, (float(row.max()) for row in want))
    ]
    assert section["passed"] == all(e["passed"] for e in [s1, *section["complex"]])


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
