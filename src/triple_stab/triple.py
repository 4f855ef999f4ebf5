"""Jordan triple structure on n x n complex matrices.

Two realizations of the triple product are provided and kept in agreement:

* C*-form      {x, y, z} = (x y* z + z y* x) / 2
* Jordan form  {x, y, z} = (x o y*) o z + (y* o z) o x - (x o z) o y*
  with x o y = (x y + y x) / 2

plus numeric checkers for the triple axioms, a small immutable operator
algebra (conjugations, commutators, sums, compositions, tabulated forms),
and the constructor of exact theta-derivations from a conjugation (an
exact triple homomorphism) and a commutator (an exact triple derivation),
which checks its generators by type: their constructors check the rest.

Products, operators, residuals and axiom checkers all accept stacks of
shape (..., n, n) and act slice by slice, so a pipeline evaluates a whole
probe set in one call: one call per operator and per check.

Operators built on one fixed n x n matrix (conjugation, commutator) apply
it to a whole stack as one tall GEMM: the slices are laid on top of each
other as a (k n, n) matrix and multiplied by the fixed matrix, instead of
one small GEMM per slice, which numpy's stacked ``@`` does.  In the tall
form only the row count k n varies with the stack, while the inner and
column sizes stay n, so every output row is the same dot products in the
same order whatever the stack: a slice's result is bit for bit its result
alone.  The wide form (the fixed matrix times an (n, k n) matrix) varies
the column count instead, and BLAS rounds a column differently depending
on where it sits in the block, so it is not used.

Products of two stacks that both vary (the triple product and the Jordan
product) have no fixed factor to lay a stack against, and numpy's stacked
``@`` runs one small GEMM per slice, at about 0.4 us each.  At n <= 2 they
are computed instead as n broadcast products over the whole stack, summed
over the inner index in order.  Elementwise arithmetic touches one slice at
a time, so a slice's product is again bit for bit its product alone, in any
stack and through any strided view.  At n >= 3 they stay numpy's ``@``.
The broadcast form does the same n^3 multiply-adds per slice as the GEMM,
in 2n - 1 array passes with temporaries.  Timed inside ``run_recovery`` on
the four shipped configs (stacks of 4-880 slices, one BLAS thread on a
2-core Xeon VM), it took about 0.7x the time of ``@`` at n = 3, 1.1x at
n = 4, 1.4-2.2x at n = 5, 3.5x at n = 8 and 10x at n = 16.  The n = 3
saving is about 3% of a dim-3 run, too little to change the bytes of every
dim-3 report, so the cut is the one ``linalg.spectral_norm`` makes for its
closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    ComplexMatrix,
    DimensionMismatchError,
    as_matrix,
    hs_inner,
    same_dim,
    spectral_norm,
)

UNITARY_TOL = 1e-10
SKEW_TOL = 1e-10
# thresholds of the axiom checkers; the jordan one scales with the input norms
AXIOM_COMMUTATIVITY_TOL = 1e-13
AXIOM_JORDAN_TOL = 1e-10
AXIOM_NORM_TOL = 1e-8
AXIOM_L_POSITIVITY_TOL = 1e-10


class OperatorValidationError(ValueError):
    """An operator constructor received a matrix violating its contract."""


def _stack_product(a, b) -> ComplexMatrix:
    """a @ b slice by slice, for two stacks that both vary (see the module docstring).

    At n <= 2 each entry is the sum over j, in order, of a[i, j] b[j, l],
    taken as broadcast products over the whole stack; at n >= 3 it is
    numpy's ``@``.
    """
    n = a.shape[-1]
    if n > 2:
        return a @ b
    out = a[..., :, 0, None] * b[..., None, 0, :]
    for j in range(1, n):
        out = out + a[..., :, j, None] * b[..., None, j, :]
    return out


def jordan_product(x, y) -> ComplexMatrix:
    """Symmetrized product (x y + y x) / 2."""
    mx, my = same_dim(x, y)
    return (_stack_product(mx, my) + _stack_product(my, mx)) / 2.0


def triple_product_cstar(x, y, z) -> ComplexMatrix:
    """Canonical triple product (x y* z + z y* x) / 2."""
    mx, my, mz = same_dim(x, y, z)
    ys = np.swapaxes(my.conj(), -1, -2)
    return (
        _stack_product(_stack_product(mx, ys), mz) + _stack_product(_stack_product(mz, ys), mx)
    ) / 2.0


def triple_product_jbstar(x, y, z) -> ComplexMatrix:
    """Jordan-form triple product; agrees with the C*-form on matrices."""
    mx, my, mz = same_dim(x, y, z)
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


def _times_right(x, m) -> ComplexMatrix:
    """x @ m for every slice of x, as one tall (k n, n) x (n, n) GEMM."""
    return (x.reshape(-1, x.shape[-1]) @ m).reshape(x.shape)


def _times_left(m, x) -> ComplexMatrix:
    """m @ x for every slice of x, as the transpose of x^T m^T in tall form."""
    return np.swapaxes(_times_right(np.swapaxes(x, -1, -2), m.T), -1, -2)


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

    def _operand(self, x) -> ComplexMatrix:
        """x validated as a matrix or stack of this operator's dimension."""
        mx = as_matrix(x)
        if mx.shape[-1] != self.dim:
            raise DimensionMismatchError(f"dimension mismatch: {self.dim} vs {mx.shape[-1]}")
        return mx

    def to_tabulated(self) -> "Tabulated":
        """Lower to the dense n^2 x n^2 matrix acting on vec(x)."""
        return Tabulated(vec(self.apply(np.stack(matrix_basis(self.dim)))).T)


class Conjugation(LinearOperator):
    """x -> u x u* for a unitary u; an exact triple homomorphism.

    A stack is multiplied by u and by u* as one tall GEMM each (see the
    module docstring), so each slice's image is bit for bit its image alone.
    """

    def __init__(self, u):
        mu = as_matrix(u)
        n = mu.shape[0]
        defect = spectral_norm(mu.conj().T @ mu - np.eye(n))
        if defect > UNITARY_TOL:
            raise OperatorValidationError(
                f"conjugation needs a unitary matrix: ||u*u - I|| = {defect:.3e}"
            )
        self.matrix = _frozen(mu)
        self.adjoint = _frozen(mu.conj().T)
        self.dim = n

    def apply(self, x) -> ComplexMatrix:
        mx = self._operand(x)
        return _times_right(_times_left(self.matrix, mx), self.adjoint)

    def __repr__(self):
        return f"Conjugation(dim={self.dim})"


class Commutator(LinearOperator):
    """x -> a x - x a for a skew-adjoint a; an exact triple derivation.

    A stack is multiplied by a from each side as one tall GEMM (see the
    module docstring), so each slice's image is bit for bit its image alone.
    """

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
        mx = self._operand(x)
        return _times_left(self.matrix, mx) - _times_right(mx, self.matrix)

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
    """Dense n^2 x n^2 coefficient matrix acting on column-stacked input.

    A slice's image is bit for bit the same in any stack of k >= 2 slices
    (one GEMM); a one-slice call goes through GEMV and may differ at n >= 2.
    """

    def __init__(self, coeffs):
        arr = as_matrix(coeffs)
        n = int(round(arr.shape[0] ** 0.5))
        if arr.ndim != 2 or n * n != arr.shape[0]:
            raise ValueError(f"coefficients must be one n^2 x n^2 matrix, got shape {arr.shape}")
        self.coeffs = _frozen(arr)
        self.dim = n

    def apply(self, x) -> ComplexMatrix:
        return unvec(vec(self._operand(x)) @ self.coeffs.T, self.dim)

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


def check_commutativity(x, y, z) -> CheckResult:
    """Outer-variable symmetry: || {x,y,z} - {z,y,x} ||."""
    r = spectral_norm(
        triple_product_cstar(x, y, z) - triple_product_cstar(z, y, x)
    )
    return CheckResult(r, AXIOM_COMMUTATIVITY_TOL, r <= AXIOM_COMMUTATIVITY_TOL)


def check_jordan_identity(a, b, x, y, z) -> CheckResult:
    """Jordan triple identity residual, relative to the input norm product.

    Compares L(a,b){x,y,z} against
    {L(a,b)x, y, z} - {x, L(b,a)y, z} + {x, y, L(a,b)z}
    with both sides evaluated directly as matrices, against
    AXIOM_JORDAN_TOL * max(1, ||a|| ||b|| ||x|| ||y|| ||z||), whose five
    norms come from one call.
    """
    ma, mb, mx, my, mz = same_dim(a, b, x, y, z)
    t = triple_product_cstar
    lhs = t(ma, mb, t(mx, my, mz))
    rhs = (
        t(t(ma, mb, mx), my, mz)
        - t(mx, t(mb, ma, my), mz)
        + t(mx, my, t(ma, mb, mz))
    )
    scale = 1.0
    for norm in spectral_norm(np.stack(np.broadcast_arrays(ma, mb, mx, my, mz))):
        scale = scale * norm
    threshold = AXIOM_JORDAN_TOL * np.maximum(1.0, scale)
    r = spectral_norm(lhs - rhs)
    return CheckResult(r, threshold, r <= threshold)


def check_norm_identity(x) -> CheckResult:
    """Cube identity: || {x,x,x} || should equal ||x||^3 (relative error)."""
    mx = as_matrix(x)
    nx = spectral_norm(mx)
    cube = spectral_norm(triple_product_cstar(mx, mx, mx))
    denom = np.maximum(1.0, nx**3)
    r = np.abs(cube - nx**3) / denom
    return CheckResult(r, AXIOM_NORM_TOL, r <= AXIOM_NORM_TOL)


def check_L_positive(a, probes) -> LPositivityReport:
    """Hermiticity and positivity of L(a, a) in the Hilbert-Schmidt pairing.

    Checks |<Lx, y> - <x, Ly>| over all probe pairs and
    Re <Lx, x> >= -AXIOM_L_POSITIVITY_TOL over all probes, reporting the
    worst violations.
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
    passed = (max_asym <= AXIOM_L_POSITIVITY_TOL) & (max_neg <= AXIOM_L_POSITIVITY_TOL)
    return LPositivityReport(max_asym, max_neg, AXIOM_L_POSITIVITY_TOL, passed)


# ---------------------------------------------------------------------------
# structure-preserving generators and their residuals
# ---------------------------------------------------------------------------

def _with_product(x, y, z) -> np.ndarray:
    """(4, ..., n, n): {x,y,z}, x, y, z stacked, for one operator call over all four."""
    args = np.stack(same_dim(x, y, z))
    return np.concatenate([triple_product_cstar(*args)[None], args])


def derivation_defect(p, gx, gy, gz, hx, hy, hz) -> ComplexMatrix:
    """p - {gx, hy, hz} - {hx, gy, hz} - {hx, hy, gz}: the (theta-)derivation defect.

    p and g are the derivation at {x,y,z} and at x, y, z; h is theta (or the identity).
    """
    t = triple_product_cstar
    return p - t(gx, hy, hz) - t(hx, gy, hz) - t(hx, hy, gz)


def homomorphism_residual(op: LinearOperator, x, y, z) -> float:
    """|| op({x,y,z}) - {op x, op y, op z} ||, with op called once."""
    op_p, op_x, op_y, op_z = op(_with_product(x, y, z))
    return spectral_norm(op_p - triple_product_cstar(op_x, op_y, op_z))


def derivation_residual(op: LinearOperator, x, y, z) -> float:
    """|| op({x,y,z}) - {op x,y,z} - {x,op y,z} - {x,y,op z} ||, with op called once."""
    args = _with_product(x, y, z)
    return spectral_norm(derivation_defect(*op(args), *args[1:]))


def theta_derivation_residual(d_op: LinearOperator, theta: LinearOperator, x, y, z) -> float:
    """Defect of the theta-derivation identity at (x, y, z).

    || D({x,y,z}) - {Dx, Ty, Tz} - {Tx, Dy, Tz} - {Tx, Ty, Dz} ||
    where D = d_op and T = theta.
    """
    args = _with_product(x, y, z)
    # each operator once: D over ({x,y,z}, x, y, z), theta over (x, y, z)
    return spectral_norm(derivation_defect(*d_op(args), *theta(args[1:])))


def make_theta_derivation(theta: Conjugation, d: Commutator) -> Compose:
    """D = theta . d, a theta-derivation by construction.

    The generators are checked by type alone, because their constructors
    check what makes them exact: ``Conjugation`` accepts u only with
    ||u*u - I|| <= UNITARY_TOL and ``Commutator`` accepts a only with
    ||a* + a|| <= SKEW_TOL.  That bounds the relative homomorphism and
    derivation residuals by about 2 * 1e-10, plus round-off of order u ||a||
    (u the unit round-off).  Another operator type raises
    OperatorValidationError, unequal dimensions DimensionMismatchError.
    """
    if not isinstance(theta, Conjugation):
        raise OperatorValidationError(f"theta must be a Conjugation, got {theta!r}")
    if not isinstance(d, Commutator):
        raise OperatorValidationError(f"d must be a Commutator, got {d!r}")
    if theta.dim != d.dim:
        raise DimensionMismatchError(f"dimension mismatch: {theta.dim} vs {d.dim}")
    return Compose(theta, d)
