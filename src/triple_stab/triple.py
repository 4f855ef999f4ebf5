"""Jordan triple structure on n x n complex matrices.

Two realizations of the triple product are provided and kept in agreement:

* C*-form      {x, y, z} = (x y* z + z y* x) / 2
* Jordan form  {x, y, z} = (x o y*) o z + (y* o z) o x - (x o z) o y*
  with x o y = (x y + y x) / 2

plus numeric checkers for the triple axioms, a small immutable operator
algebra (conjugations, commutators, sums, compositions, tabulated forms),
and constructors for exact triple homomorphisms, triple derivations, and
theta-derivations.

Products, operators, residuals and axiom checkers all accept stacks of
shape (..., n, n) and act slice by slice, so a pipeline evaluates a whole
probe set in one call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    ComplexMatrix,
    DimensionMismatchError,
    as_matrix,
    hs_inner,
    spectral_norm,
)

UNITARY_TOL = 1e-10
SKEW_TOL = 1e-10
# relative residual allowed when a constructor verifies its structural input
GENERATOR_VERIFY_TOL = 1e-8


class OperatorValidationError(ValueError):
    """An operator constructor received a matrix violating its contract."""


def _same_dim(*mats) -> list[ComplexMatrix]:
    out = [as_matrix(m) for m in mats]
    n = out[0].shape[-1]
    for m in out[1:]:
        if m.shape[-1] != n:
            raise DimensionMismatchError(
                f"dimension mismatch: {n} vs {m.shape[-1]}"
            )
    return out


def jordan_product(x, y) -> ComplexMatrix:
    """Symmetrized product (x y + y x) / 2."""
    mx, my = _same_dim(x, y)
    return (mx @ my + my @ mx) / 2.0


def triple_product_cstar(x, y, z) -> ComplexMatrix:
    """Canonical triple product (x y* z + z y* x) / 2."""
    mx, my, mz = _same_dim(x, y, z)
    ys = np.swapaxes(my.conj(), -1, -2)
    return (mx @ ys @ mz + mz @ ys @ mx) / 2.0


def triple_product_jbstar(x, y, z) -> ComplexMatrix:
    """Jordan-form triple product; agrees with the C*-form on matrices."""
    mx, my, mz = _same_dim(x, y, z)
    ys = np.swapaxes(my.conj(), -1, -2)
    return (
        jordan_product(jordan_product(mx, ys), mz)
        + jordan_product(jordan_product(ys, mz), mx)
        - jordan_product(jordan_product(mx, mz), ys)
    )


# ---------------------------------------------------------------------------
# linear operators on M_n(C)
# ---------------------------------------------------------------------------

def vec(x) -> np.ndarray:
    """Column-stack a matrix: basis order E11, E21, ..., En1, E12, ..., Enn.

    A (..., n, n) stack gives (..., n^2), one vector per slice.
    """
    m = as_matrix(x)
    # the column-stacked matrix is its transpose read row by row
    return np.swapaxes(m, -1, -2).reshape(*m.shape[:-2], m.shape[-1] ** 2)


def unvec(u, dim: int) -> ComplexMatrix:
    """Inverse of ``vec`` for a given dimension; (..., n^2) gives (..., n, n)."""
    arr = np.asarray(u, dtype=np.complex128)
    if arr.ndim < 1 or arr.shape[-1] != dim * dim:
        raise ValueError(f"expected vectors of length {dim * dim}, got {arr.shape}")
    return np.swapaxes(arr.reshape(*arr.shape[:-1], dim, dim), -1, -2)


def matrix_basis(dim: int) -> list[ComplexMatrix]:
    """Matrix units in column-stacking order."""
    out = []
    for j in range(dim * dim):
        e = np.zeros(dim * dim, dtype=np.complex128)
        e[j] = 1.0
        out.append(unvec(e, dim))
    return out


def _frozen(arr) -> np.ndarray:
    copy = np.array(arr, dtype=np.complex128, copy=True)
    copy.setflags(write=False)
    return copy


class LinearOperator:
    """Immutable linear map on M_n(C); subclasses fix the structural form."""

    dim: int

    def apply(self, x) -> ComplexMatrix:
        raise NotImplementedError

    def __call__(self, x) -> ComplexMatrix:
        return self.apply(x)

    def to_tabulated(self) -> "Tabulated":
        """Lower to the dense n^2 x n^2 matrix acting on vec(x)."""
        return Tabulated(vec(self.apply(np.stack(matrix_basis(self.dim)))).T)


class Conjugation(LinearOperator):
    """x -> u x u* for a unitary u; an exact triple homomorphism."""

    def __init__(self, u):
        mu = as_matrix(u)
        n = mu.shape[0]
        defect = spectral_norm(mu.conj().T @ mu - np.eye(n))
        if defect > UNITARY_TOL:
            raise OperatorValidationError(
                f"conjugation needs a unitary matrix: ||u*u - I|| = {defect:.3e}"
            )
        self.matrix = _frozen(mu)
        self.dim = n

    def apply(self, x) -> ComplexMatrix:
        mx = _same_dim(self.matrix, x)[1]
        return self.matrix @ mx @ self.matrix.conj().T

    def __repr__(self):
        return f"Conjugation(dim={self.dim})"


class Commutator(LinearOperator):
    """x -> a x - x a for a skew-adjoint a; an exact triple derivation."""

    def __init__(self, a):
        ma = as_matrix(a)
        defect = spectral_norm(ma.conj().T + ma)
        if defect > SKEW_TOL:
            raise OperatorValidationError(
                f"commutator needs a skew-adjoint matrix: ||a* + a|| = {defect:.3e}"
            )
        self.matrix = _frozen(ma)
        self.dim = ma.shape[0]

    def apply(self, x) -> ComplexMatrix:
        mx = _same_dim(self.matrix, x)[1]
        return self.matrix @ mx - mx @ self.matrix

    def __repr__(self):
        return f"Commutator(dim={self.dim})"


class Scaled(LinearOperator):
    """factor * inner(x)."""

    def __init__(self, factor, inner: LinearOperator):
        self.factor = complex(factor)
        self.inner = inner
        self.dim = inner.dim

    def apply(self, x) -> ComplexMatrix:
        return self.factor * self.inner.apply(x)

    def __repr__(self):
        return f"Scaled({self.factor!r}, {self.inner!r})"


class OperatorSum(LinearOperator):
    """Pointwise sum of operators of a common dimension."""

    def __init__(self, terms):
        terms = list(terms)
        if not terms:
            raise ValueError("sum needs at least one term")
        n = terms[0].dim
        for t in terms[1:]:
            if t.dim != n:
                raise DimensionMismatchError(
                    f"dimension mismatch in sum: {n} vs {t.dim}"
                )
        self.terms = tuple(terms)
        self.dim = n

    def apply(self, x) -> ComplexMatrix:
        acc = self.terms[0].apply(x)
        for t in self.terms[1:]:
            acc = acc + t.apply(x)
        return acc

    def __repr__(self):
        return f"OperatorSum({list(self.terms)!r})"


class Compose(LinearOperator):
    """outer(inner(x))."""

    def __init__(self, outer: LinearOperator, inner: LinearOperator):
        if outer.dim != inner.dim:
            raise DimensionMismatchError(
                f"dimension mismatch in composition: {outer.dim} vs {inner.dim}"
            )
        self.outer = outer
        self.inner = inner
        self.dim = outer.dim

    def apply(self, x) -> ComplexMatrix:
        return self.outer.apply(self.inner.apply(x))

    def __repr__(self):
        return f"Compose({self.outer!r}, {self.inner!r})"


class Tabulated(LinearOperator):
    """Dense n^2 x n^2 coefficient matrix acting on column-stacked input."""

    def __init__(self, coeffs):
        arr = np.asarray(coeffs, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"coefficients must be square, got shape {arr.shape}")
        n = int(round(arr.shape[0] ** 0.5))
        if n * n != arr.shape[0]:
            raise ValueError(
                f"coefficient side {arr.shape[0]} is not a perfect square"
            )
        # a complex entry is finite only when both of its parts are
        if not np.isfinite(arr).all():
            raise ValueError("coefficients must be finite")
        self.coeffs = _frozen(arr)
        self.dim = n

    def apply(self, x) -> ComplexMatrix:
        mx = as_matrix(x)
        if mx.shape[-1] != self.dim:
            raise DimensionMismatchError(
                f"dimension mismatch: {self.dim} vs {mx.shape[-1]}"
            )
        return unvec(vec(mx) @ self.coeffs.T, self.dim)

    def to_tabulated(self) -> "Tabulated":
        return self

    def __repr__(self):
        return f"Tabulated(dim={self.dim})"


# ---------------------------------------------------------------------------
# axiom checkers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    """Numeric residual together with the threshold it was compared against.

    On stacked inputs each field holds one entry per slice.
    """

    residual: float
    threshold: float
    passed: bool


@dataclass(frozen=True)
class LPositivityReport:
    """Violations of hermiticity and positivity of L(a, a) on a probe set.

    On a stack of generators each violation holds one entry per generator.
    """

    max_selfadjoint_violation: float
    max_negativity: float
    threshold: float
    passed: bool


def check_commutativity(x, y, z, tol: float = 1e-13) -> CheckResult:
    """Outer-variable symmetry: || {x,y,z} - {z,y,x} ||."""
    r = spectral_norm(
        triple_product_cstar(x, y, z) - triple_product_cstar(z, y, x)
    )
    return CheckResult(r, tol, r <= tol)


def check_jordan_identity(a, b, x, y, z, tol: float = 1e-10) -> CheckResult:
    """Jordan triple identity residual, relative to the input norm product.

    Compares L(a,b){x,y,z} against
    {L(a,b)x, y, z} - {x, L(b,a)y, z} + {x, y, L(a,b)z}
    with both sides evaluated directly as matrices.
    """
    ma, mb, mx, my, mz = _same_dim(a, b, x, y, z)
    t = triple_product_cstar
    lhs = t(ma, mb, t(mx, my, mz))
    rhs = (
        t(t(ma, mb, mx), my, mz)
        - t(mx, t(mb, ma, my), mz)
        + t(mx, my, t(ma, mb, mz))
    )
    scale = 1.0
    for m in (ma, mb, mx, my, mz):
        scale = scale * spectral_norm(m)
    threshold = tol * np.maximum(1.0, scale)
    r = spectral_norm(lhs - rhs)
    return CheckResult(r, threshold, r <= threshold)


def check_norm_identity(x, tol: float = 1e-8) -> CheckResult:
    """Cube identity: || {x,x,x} || should equal ||x||^3 (relative error)."""
    mx = as_matrix(x)
    nx = spectral_norm(mx)
    cube = spectral_norm(triple_product_cstar(mx, mx, mx))
    denom = np.maximum(1.0, nx**3)
    r = np.abs(cube - nx**3) / denom
    return CheckResult(r, tol, r <= tol)


def check_L_positive(a, probes, tol: float = 1e-10) -> LPositivityReport:
    """Hermiticity and positivity of L(a, a) in the Hilbert-Schmidt pairing.

    Checks |<Lx, y> - <x, Ly>| over all probe pairs and
    Re <Lx, x> >= -tol over all probes, reporting the worst violations.
    ``probes`` has shape (m, n, n) for one generator a, or (k, m, n, n)
    for a stack of k generators, each with its own m probes.
    """
    ma = as_matrix(a)
    probes = as_matrix(probes)
    if probes.ndim != ma.ndim + 1 or probes.shape[-3] == 0:
        raise ValueError("check_L_positive needs at least one probe per generator")
    gen = ma[..., None, :, :]
    images = triple_product_cstar(gen, gen, probes)
    # pairings over every ordered (i, j); swapping i and j conjugates the
    # gap, so the maximum over all pairs is the one over i <= j
    gaps = np.abs(
        hs_inner(images[..., :, None, :, :], probes[..., None, :, :, :])
        - hs_inner(probes[..., :, None, :, :], images[..., None, :, :, :])
    )
    max_asym = gaps.max(axis=(-2, -1))
    max_neg = np.maximum(0.0, -hs_inner(images, probes).real.min(axis=-1))
    passed = (max_asym <= tol) & (max_neg <= tol)
    return LPositivityReport(max_asym, max_neg, tol, passed)


# ---------------------------------------------------------------------------
# structure-preserving generators and their residuals
# ---------------------------------------------------------------------------

def homomorphism_residual(op: LinearOperator, x, y, z) -> float:
    """|| op({x,y,z}) - {op x, op y, op z} ||."""
    t = triple_product_cstar
    return spectral_norm(op(t(x, y, z)) - t(op(x), op(y), op(z)))


def derivation_residual(op: LinearOperator, x, y, z) -> float:
    """|| op({x,y,z}) - {op x,y,z} - {x,op y,z} - {x,y,op z} ||."""
    t = triple_product_cstar
    return spectral_norm(
        op(t(x, y, z))
        - t(op(x), y, z)
        - t(x, op(y), z)
        - t(x, y, op(z))
    )


def theta_derivation_residual(d_op: LinearOperator, theta: LinearOperator, x, y, z) -> float:
    """Defect of the theta-derivation identity at (x, y, z).

    || D({x,y,z}) - {Dx, Ty, Tz} - {Tx, Dy, Tz} - {Tx, Ty, Dz} ||
    where D = d_op and T = theta.
    """
    t = triple_product_cstar
    args = np.stack(_same_dim(x, y, z))
    # each operator once: D over ({x,y,z}, x, y, z), theta over (x, y, z)
    dp, dx, dy, dz = d_op(np.concatenate([t(*args)[None], args]))
    tx, ty, tz = theta(args)
    return spectral_norm(dp - t(dx, ty, tz) - t(tx, dy, tz) - t(tx, ty, dz))


def _verification_triples(dim: int) -> np.ndarray:
    """(4, 3, n, n): a few basis triples plus two fixed random ones."""
    basis = matrix_basis(dim)
    triples = [
        (basis[0], basis[0], basis[0]),
        (basis[0], basis[-1], basis[len(basis) // 2]),
    ]
    rng = np.random.default_rng(np.random.SeedSequence(entropy=0, spawn_key=(97,)))
    for _ in range(2):
        mats = [
            rng.uniform(-1.0, 1.0, (dim, dim)) + 1j * rng.uniform(-1.0, 1.0, (dim, dim))
            for _ in range(3)
        ]
        triples.append(mats)
    return np.array(triples)


def make_triple_homomorphism(u) -> Conjugation:
    """Exact triple homomorphism x -> u x u* from a unitary u."""
    return Conjugation(u)


def make_triple_derivation(a) -> Commutator:
    """Exact triple derivation x -> a x - x a from a skew-adjoint a."""
    return Commutator(a)


def make_theta_derivation(theta: LinearOperator, d: LinearOperator) -> Compose:
    """Compose a verified homomorphism with a verified derivation.

    The returned operator D = theta . d satisfies the theta-derivation
    identity with respect to theta exactly; the inputs are checked on a
    fixed probe set before composing.
    """
    if theta.dim != d.dim:
        raise DimensionMismatchError(
            f"dimension mismatch: {theta.dim} vs {d.dim}"
        )
    triples = _verification_triples(theta.dim)
    x, y, z = triples[:, 0], triples[:, 1], triples[:, 2]
    scale = np.maximum(1.0, spectral_norm(x) * spectral_norm(y) * spectral_norm(z))
    r_theta = (homomorphism_residual(theta, x, y, z) / scale).max()
    if r_theta > GENERATOR_VERIFY_TOL:
        raise OperatorValidationError(
            f"theta is not a triple homomorphism: residual {r_theta:.3e}"
        )
    r_d = (derivation_residual(d, x, y, z) / scale).max()
    if r_d > GENERATOR_VERIFY_TOL:
        raise OperatorValidationError(
            f"d is not a triple derivation: residual {r_d:.3e}"
        )
    return Compose(theta, d)
