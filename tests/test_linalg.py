"""Matrix kernel tests: oracles for the spectral norm and the HS pairing.

The spectral norm is checked against a direct call to numpy's LAPACK-backed
SVD, against matrices built with known singular values, and against the
operator-norm identities.  The hand-written cases pin values
that can be read off directly (diagonal matrices, rank-one units, matrices
with an exactly repeated top singular value).
"""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import triple_stab
from triple_stab.linalg import (
    DimensionMismatchError,
    _hs,
    _norm,
    as_matrix,
    same_dim,
    spectral_norm,
)


def _random_matrix(seed: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def test_spectral_norm_hand_values():
    assert spectral_norm(np.zeros((3, 3))) == 0.0
    assert spectral_norm(np.array([[3.0 - 4.0j]])) == pytest.approx(5.0, rel=1e-14)
    assert spectral_norm(np.diag([3.0, 4.0])) == pytest.approx(4.0, rel=1e-14)
    assert spectral_norm(np.eye(5)) == pytest.approx(1.0, rel=1e-14)
    e12 = np.zeros((2, 2))
    e12[0, 1] = 1.0
    assert spectral_norm(e12) == pytest.approx(1.0, rel=1e-14)


def test_spectral_norm_exactly_repeated_top_value():
    # [[0, -b], [-conj(b), 0]] has both singular values equal to |b|
    b = 0.3 - 0.7j
    m = np.array([[0.0, -b], [-np.conj(b), 0.0]])
    assert spectral_norm(m) == pytest.approx(abs(b), rel=1e-13)


def test_spectral_norm_against_svd_oracle():
    worst = 0.0
    for seed in range(120):
        n = 1 + seed % 8
        m = _random_matrix(seed, n)
        got = spectral_norm(m)
        want = float(np.linalg.svd(m, compute_uv=False)[0])
        worst = max(worst, abs(got - want) / want)
    assert worst <= 1e-9


def test_spectral_norm_constructed_singular_values():
    # build matrices with known singular values, including repeated tops
    for seed in range(40):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(2, 17))
        u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        v, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        s = np.sort(rng.uniform(0.1, 2.0, n))[::-1]
        if seed % 2 and n >= 2:
            s[1] = s[0]
        m = u @ np.diag(s) @ v.conj().T
        assert spectral_norm(m) == pytest.approx(s[0], rel=1e-9)


def test_spectral_norm_nearly_repeated_top_values():
    # accuracy inside a close cluster is bounded by the cluster width
    b = 0.5 + 0.2j
    base = np.array([[0.0, -b], [-np.conj(b), 0.0]])
    rng = np.random.default_rng(3)
    for delta in (1e-2, 1e-5, 1e-8, 1e-11, 1e-14):
        m = base + delta * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        got = spectral_norm(m)
        want = float(np.linalg.svd(m, compute_uv=False)[0])
        assert abs(got - want) / want <= max(4e-12, 4.0 * delta)


def test_spectral_norm_parameter_validation():
    with pytest.raises(ValueError):
        spectral_norm(np.ones((2, 3)))
    with pytest.raises(ValueError):
        spectral_norm(np.zeros((0, 0)))
    with pytest.raises(ValueError):
        spectral_norm(np.array([[np.nan, 0.0], [0.0, 1.0]]))


@pytest.mark.parametrize("scale", [1e300, 1e154, 1e-300, 1e-310])
def test_spectral_norm_extreme_scales(scale):
    # each slice is scaled by a power of two before anything is squared, so
    # neither squaring overflow nor subnormal underflow can creep into the
    # result
    m = np.array([[3.0, 4.0j], [0.0, 1.0]])
    want = scale * spectral_norm(m)
    assert spectral_norm(scale * m) == pytest.approx(want, rel=1e-13)


def _closed_form_cases(n: int) -> np.ndarray:
    """A stack of n x n inputs that stress the closed-form norm (n <= 2)."""
    rng = np.random.default_rng(50 + n)
    k = 400
    scales = 10.0 ** rng.uniform(-8.0, 8.0, (k, 1, 1))
    cases = [scales * (rng.uniform(-1, 1, (k, n, n)) + 1j * rng.uniform(-1, 1, (k, n, n)))]
    # unitary multiples: every singular value equal to the top one
    q, _ = np.linalg.qr(rng.standard_normal((40, n, n)) + 1j * rng.standard_normal((40, n, n)))
    cases.append(q * rng.uniform(0.1, 10.0, (40, 1, 1)))
    # rank one: u v*, whose norm is |u| |v|
    u, v = (rng.standard_normal((40, n)) + 1j * rng.standard_normal((40, n)) for _ in range(2))
    cases.append(u[:, :, None] * v.conj()[:, None, :])
    cases.append(np.zeros((1, n, n)))
    # entries mixing 1e200 and 1e-200
    mixed = np.full((2, n, n), 1e-200 - 1e-200j)
    mixed[0, 0, 0], mixed[1, -1, 0] = 1e200 + 1e-200j, 3e199 + 1e200j
    cases.append(mixed)
    base = np.array([[3.0, 4.0j], [0.0, 1.0]])[:n, :n]
    cases.extend(scale * base[None] for scale in (1e300, 1e154, 1e-300, 1e-310))
    return np.concatenate(cases)


@pytest.mark.parametrize("n", [1, 2])
def test_closed_form_norm_matches_lapack(n):
    x = _closed_form_cases(n)
    got = spectral_norm(x)
    np.testing.assert_allclose(got, np.linalg.svd(x, compute_uv=False)[:, 0], rtol=1e-14, atol=0.0)
    # a stack's norms are its slices' norms, bit for bit, whatever its shape
    assert np.array_equal(got, [spectral_norm(s) for s in x])
    assert np.array_equal(spectral_norm(np.stack([x, x[::-1]])), [got, got[::-1]])


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize(
    "bad",
    [
        complex(np.inf, 0.0),
        complex(0.0, -np.inf),
        complex(np.inf, np.inf),
        complex(np.inf, np.nan),
        complex(np.nan, -np.inf),
    ],
)
def test_norm_kernel_of_an_infinite_slice_is_inf(n, bad):
    # the public norm refuses non-finite input, but its kernel gives a slice
    # with an infinite part the norm inf, as at n = 1, with no warning (the
    # suite makes a RuntimeWarning an error); finite slices keep their bits
    finite = _closed_form_cases(n)
    mixed = np.repeat(finite, 2, axis=0)
    mixed[1::2] = 1.0
    mixed[1::2, -1, 0] = bad
    got = _norm(mixed)
    assert np.array_equal(got[::2], spectral_norm(finite))
    assert (got[1::2] == np.inf).all()
    with pytest.raises(ValueError, match="finite"):
        spectral_norm(mixed)
    # nan in every other entry beside the infinite part leaves inf, as hypot
    # gives at n = 1; a nan part with no infinite part leaves nan
    nan_beside = np.where(np.isfinite(mixed[1::2]), complex(np.nan, np.nan), mixed[1::2])
    assert (_norm(nan_beside) == np.inf).all()
    nan_only = finite[:3].copy()
    nan_only[:, -1, 0] = complex(1.0, np.nan)
    assert np.isnan(_norm(nan_only)).all()


def test_entrywise_helpers():
    x = np.array([[1.0, 2.0j], [0.0, -1.0]])
    y = np.array([[0.5, 0.0], [1.0j, 2.0]])
    # trace pairing against a direct computation
    assert _hs(x, y) == pytest.approx(complex(np.trace(x @ y.conj().T)))


def test_dimension_mismatch_rejected():
    with pytest.raises(DimensionMismatchError, match="dimension mismatch: 2 vs 3"):
        same_dim(np.eye(2), np.eye(3))


_COMPLEX_DTYPES = {"complex128", "complex64", "clongdouble"}


def test_linalg_alone_decides_the_operand_contract():
    # the working dtype and the dimension check live in linalg: no other
    # module names a complex dtype in code (docstrings and comments may) or
    # raises DimensionMismatchError
    found = []
    for path in sorted(Path(triple_stab.__file__).parent.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            # a name (complex128), an attribute (np.complex128) or a string constant
            named = getattr(node, "id", None) or getattr(node, "attr", None)
            if isinstance(node, ast.Constant):
                named = node.value
            if named in _COMPLEX_DTYPES:
                found.append(f"{path.name}:{node.lineno} names {named}")
            if isinstance(node, ast.Raise) and "DimensionMismatchError" in ast.unparse(node):
                found.append(f"{path.name}:{node.lineno} raises DimensionMismatchError")
    assert found == []


def test_one_home_for_the_integer_and_gate_refusals():
    # sampling alone spells the integer and float refusals, and
    # Scheme.require_gate alone raises with the gate's message; every other
    # check calls them.  as_matrix's "matrix entries must be finite" is the
    # operand contract, not the float rule
    found = []
    for path in sorted(Path(triple_stab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        home = set()
        if path.name == "stability.py":
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef) and node.name == "require_gate":
                    home.update(map(id, ast.walk(node)))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise):
                continue
            text = ast.unparse(node)
            if "must be an integer" in text and path.name != "sampling.py":
                found.append(f"{path.name}:{node.lineno} spells the integer refusal")
            floats = ("must be a number", "must be finite, got", "must be positive")
            if any(f in text for f in floats) and path.name != "sampling.py":
                found.append(f"{path.name}:{node.lineno} spells the float refusal")
            if "gate_message" in text and id(node) not in home:
                found.append(f"{path.name}:{node.lineno} raises the gate message")
    assert found == []


def test_no_module_imports_a_name_it_does_not_use():
    # no linter runs on the package, so this walk stands in for one; the
    # package __init__ imports to re-export.  A name is used where it is
    # read, annotations included: binding it again does not count
    found = []
    for path in sorted(Path(triple_stab.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    found.append(f"{path.name}:{node.lineno} imports {name} unused")
    assert found == []


def _package_trees() -> dict[str, ast.Module]:
    return {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(Path(triple_stab.__file__).parent.glob("*.py"))
    }


def _read_names(trees, strings: bool = False) -> set[str]:
    """Every name the trees read: an ast.Name load or an attribute.

    With ``strings`` set, a string constant counts too.
    """
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    return read


def _top_level_definitions(trees):
    """(module, line, name) of each top-level function, class and assigned name."""
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in defined:
                if not name.startswith("__"):
                    yield module, node.lineno, name


def test_no_private_top_level_name_is_left_unread():
    # a private helper, class or constant that nothing in the package reads
    # is one a deletion left behind: tests do not count as readers
    trees = _package_trees()
    read = _read_names(trees)
    found = [
        f"{module}:{line} defines {name}, never read"
        for module, line, name in _top_level_definitions(trees)
        if name.startswith("_") and name not in read
    ]
    assert found == []


def test_no_public_top_level_name_is_orphaned():
    # a public name is either exported by the package __init__ or read
    # somewhere in the package; an export must be read outside the unit
    # tests: by another package module, the acceptance suite or perfbench,
    # whose tracer names its targets by string.  Scaled, OperatorSum and
    # triple_product_cstar/_jbstar stay only for perfbench's tracer
    # (ROADMAP items 1 and 10)
    trees = _package_trees()
    read = _read_names(trees)
    exported = {
        alias.name
        for node in trees["__init__.py"].body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    found = [
        f"{module}:{line} defines {name}, neither exported nor read"
        for module, line, name in _top_level_definitions(trees)
        if not name.startswith("_") and name not in exported | read
    ]
    root = Path(__file__).resolve().parent.parent
    parse = lambda path: ast.parse(path.read_text(encoding="utf-8"))
    outside = _read_names({m: t for m, t in trees.items() if m != "__init__.py"})
    outside |= _read_names({"acceptance": parse(root / "tests" / "test_acceptance.py")})
    perfbench = {path.name: parse(path) for path in sorted((root / "perfbench").glob("*.py"))}
    outside |= _read_names(perfbench, strings=True)
    found += [
        f"__init__.py exports {name}, which no package module, acceptance test or perfbench reads"
        for name in sorted(exported - outside)
    ]
    assert found == []


def test_as_matrix_accepts_nested_lists():
    m = as_matrix([[1, 2], [3, 4]])
    assert m.dtype == np.complex128
    assert m.shape == (2, 2)


@pytest.mark.parametrize(
    "bad",
    [
        complex(np.nan, 0.0),
        complex(0.0, np.nan),
        complex(1.0, np.inf),
        -np.inf,
        complex(np.inf, 0.0),
    ],
)
def test_as_matrix_rejects_any_non_finite_part(bad):
    m = np.eye(3, dtype=np.complex128)
    m[1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        as_matrix(m)


def test_as_matrix_accepts_finite_input():
    z = np.array([[1.0 - 2.0j, 3.0j], [-4.0, 0.5 + 0.5j]])
    assert np.array_equal(as_matrix(z), z)
    r = as_matrix(np.array([[1.0, -2.0], [3.5, 0.0]]))
    assert r.dtype == np.complex128
    assert np.array_equal(r.real, [[1.0, -2.0], [3.5, 0.0]])
    assert not r.imag.any()
    assert np.array_equal(as_matrix([[1j, 2], [3, 4 - 1j]]), [[1j, 2], [3, 4 - 1j]])


@given(st.integers(0, 10**6), st.integers(1, 5))
def test_norm_scaling_homogeneity(seed, n):
    m = _random_matrix(seed, n)
    c = 0.25 + 1.5j
    assert spectral_norm(c * m) == pytest.approx(abs(c) * spectral_norm(m), rel=1e-9, abs=1e-12)


@given(st.integers(0, 10**6), st.integers(1, 5))
def test_norm_adjoint_invariance(seed, n):
    m = _random_matrix(seed, n)
    assert spectral_norm(m.conj().T) == pytest.approx(spectral_norm(m), rel=1e-9, abs=1e-12)


@given(st.integers(0, 10**6), st.integers(1, 5))
def test_norm_submultiplicative_and_triangle(seed, n):
    a = _random_matrix(seed, n)
    b = _random_matrix(seed + 1, n)
    na, nb = spectral_norm(a), spectral_norm(b)
    assert spectral_norm(a @ b) <= na * nb * (1.0 + 1e-9) + 1e-12
    assert spectral_norm(a + b) <= (na + nb) * (1.0 + 1e-9) + 1e-12


@given(st.integers(0, 10**6), st.integers(1, 5))
def test_norm_cstar_identity(seed, n):
    # ||a* a|| = ||a||^2 characterizes the operator norm among matrix norms
    a = _random_matrix(seed, n)
    lhs = spectral_norm(a.conj().T @ a)
    rhs = spectral_norm(a) ** 2
    assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-12)


@given(st.integers(0, 10**6))
def test_norm_dominates_entries(seed):
    m = _random_matrix(seed, 4)
    assert spectral_norm(m) >= np.abs(m).max() * (1.0 - 1e-12)
