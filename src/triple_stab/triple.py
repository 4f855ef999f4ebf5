"""Jordan triple structure on n x n complex matrices.

Two realizations of the triple product are provided and kept in agreement:

* C*-form      {x, y, z} = (x y* z + z y* x) / 2
* Jordan form  {x, y, z} = (x o y*) o z + (y* o z) o x - (x o z) o y*
  with x o y = (x y + y x) / 2

plus one batched kernel of the triple axioms, ``_check_axioms``, which
returns the axiom suite's report sections, a small immutable operator
algebra (conjugations, commutators, sums, compositions, tabulated forms),
and the constructor of exact theta-derivations from a conjugation (an exact
triple homomorphism) and a commutator (an exact triple derivation), which
checks its generators by type: their constructors check the rest.
One residual, ``theta_derivation_residual``, measures the paper's identity;
a plain derivation is its case theta = identity.

Products, operators and the residual accept stacks of shape (..., n, n),
the axiom kernel (k, n, n) stacks, and all act slice by slice, so a
pipeline evaluates a whole probe set in one call per operator.  A slice's
product does not depend on the rest of the stack, so products of different
operands at one level go through one kernel call, concatenated: the axiom
kernel takes one ``_cstar`` call per level of triple products, and the
Jordan form one ``_jordan`` call per level, bit for bit what each product
gives alone.

Each operand is checked once, at the public boundary (see ``linalg``): the
public triple products check theirs and run kernels on trusted stacks
(``_cstar``, ``_jbstar``, ``_jordan``), which the axiom kernel uses on the
stacks the axiom suite checked.  ``op(x)`` checks x, and ``op.apply`` takes
a checked stack.

Every product of two n x n stacks, in the triple and Jordan products and in
every operator, goes through one kernel, ``_stack_product``, which computes
each slice's product on its own: at n <= 2 as n broadcast products over the
whole stack, summed over the inner index in order, and at n >= 3 as numpy's
stacked ``@``, one fixed-shape n x n GEMM per slice.  ``Tabulated`` likewise
takes one fixed-shape (n^2, n^2) x (n^2, 1) product per slice.  Neither the
shape nor the order of any slice's arithmetic depends on the stack, so a
slice's image is bit for bit its image alone, in any stack of any size k
(k = 1 included), through any strided view and on any BLAS kernel.  One
tall (k n, n) GEMM over the whole stack would be cheaper at large n, but
how BLAS rounds a row of it depends on the row count and on the kernel.
The broadcast form does the same n^3 multiply-adds per slice as the GEMM,
in 2n - 1 array passes with temporaries, so it pays only at small n; the
cut is the one ``linalg.spectral_norm`` makes for its closed form.
"""

from __future__ import annotations

import numpy as np

from .linalg import (
    ComplexMatrix,
    _hs,
    _norm,
    as_matrix,
    require_dim,
    same_dim,
    spectral_norm,
)

UNITARY_TOL = 1e-10
SKEW_TOL = 1e-10
# thresholds of the axiom kernel; the jordan one scales with the input norms
AXIOM_COMMUTATIVITY_TOL = 1e-13
AXIOM_JORDAN_TOL = 1e-10
AXIOM_NORM_TOL = 1e-8
AXIOM_L_POSITIVITY_TOL = 1e-10
PRODUCT_AGREEMENT_TOL = 1e-12


class OperatorValidationError(ValueError):
    """An operator constructor received a matrix violating its contract."""


def _stack_product(a, b) -> ComplexMatrix:
    """a @ b slice by slice, the one product path (see the module docstring).

    Either operand may be one fixed matrix or a stack.  At n <= 2 each entry
    is the sum over j, in order, of a[i, j] b[j, l], taken as broadcast
    products over the whole stack; at n >= 3 it is numpy's ``@``.
    """
    n = a.shape[-1]
    if n > 2:
        return a @ b
    out = a[..., :, 0, None] * b[..., None, 0, :]
    for j in range(1, n):
        out = out + a[..., :, j, None] * b[..., None, j, :]
    return out


def _jordan(x, y) -> ComplexMatrix:
    """Jordan product x o y = (x y + y x) / 2 of trusted stacks, slice by slice."""
    return (_stack_product(x, y) + _stack_product(y, x)) / 2.0


def _cstar(x, y, z) -> ComplexMatrix:
    """Kernel of ``triple_product_cstar`` on trusted stacks."""
    ys = np.swapaxes(y.conj(), -1, -2)
    xyz = _stack_product(_stack_product(x, ys), z)
    return (xyz + _stack_product(_stack_product(z, ys), x)) / 2.0


def triple_product_cstar(x, y, z) -> ComplexMatrix:
    """Canonical triple product (x y* z + z y* x) / 2."""
    return _cstar(*same_dim(x, y, z))


def _jbstar(x, y, z) -> ComplexMatrix:
    """Kernel of ``triple_product_jbstar`` on trusted stacks."""
    x, ys, z = np.broadcast_arrays(x, np.swapaxes(y.conj(), -1, -2), z)
    # one Jordan product per level: (x o y*, y* o z, x o z), then with (z, x, y*)
    outer = _jordan(_jordan(np.stack([x, ys, x]), np.stack([ys, z, z])), np.stack([z, x, ys]))
    return outer[0] + outer[1] - outer[2]


def triple_product_jbstar(x, y, z) -> ComplexMatrix:
    """Jordan-form triple product; agrees with the C*-form on matrices."""
    return _jbstar(*same_dim(x, y, z))


# ---------------------------------------------------------------------------
# linear operators on M_n(C)
# ---------------------------------------------------------------------------

def _vec(m: ComplexMatrix) -> np.ndarray:
    """Column-stack each slice of a trusted stack: basis order E11, E21, ..., En1, E12, ..., Enn."""
    # the column-stacked matrix is its transpose read row by row
    return np.swapaxes(m, -1, -2).reshape(*m.shape[:-2], m.shape[-1] ** 2)


def _unvec(arr: np.ndarray, dim: int) -> ComplexMatrix:
    """Inverse of ``_vec`` on vectors of length dim^2: (..., n^2) gives (..., n, n)."""
    return np.swapaxes(arr.reshape(*arr.shape[:-1], dim, dim), -1, -2)


def matrix_basis(dim: int) -> np.ndarray:
    """C-contiguous (n^2, n, n) stack of the real matrix units in column-stacking order."""
    return np.ascontiguousarray(_unvec(np.eye(dim * dim), dim))


def _frozen(arr) -> np.ndarray:
    copy = np.array(arr, copy=True)
    copy.setflags(write=False)
    return copy


class LinearOperator:
    """Immutable linear map on M_n(C); ``op(x)`` checks x, ``apply`` takes it checked."""

    dim: int

    def __call__(self, x) -> ComplexMatrix:
        return self.apply(self._operand(x))

    def _operand(self, x) -> ComplexMatrix:
        """x validated as a matrix or stack of this operator's dimension."""
        mx = as_matrix(x)
        require_dim(self.dim, mx.shape[-1])
        return mx

    def to_tabulated(self) -> "Tabulated":
        """Lower to the dense n^2 x n^2 matrix acting on vec(x)."""
        return Tabulated(_vec(self.apply(matrix_basis(self.dim))).T)


class Conjugation(LinearOperator):
    """x -> u x u* for a unitary u; an exact triple homomorphism.

    Each slice is multiplied by u and by u* through ``_stack_product``, so
    its image is bit for bit its image alone (see the module docstring).
    """

    def __init__(self, u):
        mu = as_matrix(u)
        defect = _norm(mu.conj().T @ mu - np.eye(mu.shape[0]))
        if defect > UNITARY_TOL:
            raise OperatorValidationError(
                f"conjugation needs a unitary matrix: ||u*u - I|| = {defect:.3e}"
            )
        self.matrix = _frozen(mu)
        self.adjoint = _frozen(mu.conj().T)
        self.dim = mu.shape[0]

    def apply(self, x) -> ComplexMatrix:
        return _stack_product(_stack_product(self.matrix, x), self.adjoint)


class Commutator(LinearOperator):
    """x -> a x - x a for a skew-adjoint a; an exact triple derivation.

    Each slice is multiplied by a from each side through ``_stack_product``,
    so its image is bit for bit its image alone (see the module docstring).
    """

    def __init__(self, a):
        ma = as_matrix(a)
        defect = _norm(ma.conj().T + ma)
        if defect > SKEW_TOL:
            raise OperatorValidationError(
                f"commutator needs a skew-adjoint matrix: ||a* + a|| = {defect:.3e}"
            )
        self.matrix = _frozen(ma)
        self.dim = ma.shape[0]

    def apply(self, x) -> ComplexMatrix:
        return _stack_product(self.matrix, x) - _stack_product(x, self.matrix)


class Scaled(LinearOperator):
    """factor * inner(x)."""

    def __init__(self, factor, inner: LinearOperator):
        self.factor = complex(factor)
        self.inner = inner
        self.dim = inner.dim

    def apply(self, x) -> ComplexMatrix:
        return self.factor * self.inner.apply(x)


class OperatorSum(LinearOperator):
    """Pointwise sum of operators of a common dimension."""

    def __init__(self, terms):
        terms = list(terms)
        if not terms:
            raise ValueError("sum needs at least one term")
        require_dim(*(t.dim for t in terms))
        self.terms = tuple(terms)
        self.dim = terms[0].dim

    def apply(self, x) -> ComplexMatrix:
        acc = self.terms[0].apply(x)
        for t in self.terms[1:]:
            acc = acc + t.apply(x)
        return acc


class Compose(LinearOperator):
    """outer(inner(x))."""

    def __init__(self, outer: LinearOperator, inner: LinearOperator):
        require_dim(outer.dim, inner.dim)
        self.outer = outer
        self.inner = inner
        self.dim = outer.dim

    def apply(self, x) -> ComplexMatrix:
        return self.outer.apply(self.inner.apply(x))


class Tabulated(LinearOperator):
    """Dense n^2 x n^2 coefficient matrix acting on column-stacked input.

    Each slice's vec is one fixed-shape (n^2, n^2) x (n^2, 1) product, so
    its image is bit for bit its image alone (see the module docstring).
    """

    def __init__(self, coeffs):
        arr = as_matrix(coeffs)
        n = int(round(arr.shape[0] ** 0.5))
        if arr.ndim != 2 or n * n != arr.shape[0]:
            raise ValueError(f"coefficients must be one n^2 x n^2 matrix, got shape {arr.shape}")
        self.coeffs = _frozen(arr)
        self.dim = n

    def apply(self, x) -> ComplexMatrix:
        return _unvec(np.matmul(self.coeffs, _vec(x)[..., None])[..., 0], self.dim)


# ---------------------------------------------------------------------------
# axiom kernel
# ---------------------------------------------------------------------------


def _within(threshold: float, **measured: float) -> dict:
    """A report section: worst measured values, the threshold they must stay within."""
    return {**measured, "threshold": threshold, "passed": max(measured.values()) <= threshold}


def _check_axioms(a, b, x, y, z, gen, probes) -> dict:
    """The four triple axioms and the agreement of the two product forms.

    Commutativity || {x,y,z} - {z,y,x} ||; the Jordan identity, with both
    sides evaluated directly as matrices,
    || L(a,b){x,y,z} - ({L(a,b)x, y, z} - {x, L(b,a)y, z} + {x, y, L(a,b)z}) ||
    against AXIOM_JORDAN_TOL * max(1, ||a|| ||b|| ||x|| ||y|| ||z||); the cube
    identity | ||{x,x,x}|| - ||x||^3 | / max(1, ||x||^3); hermiticity and
    positivity of L(gen, gen) in the Hilbert-Schmidt pairing, as the worst
    |<Lp, q> - <p, Lq>| over probe pairs and how far Re <Lp, p> falls
    below 0 at worst; and || C*-form - Jordan form || at (x, y, z) over
    max(1, ||x|| ||y|| ||z||).

    a, b, x, y, z and gen are trusted (k, n, n) stacks, a slice per draw, and
    ``probes`` is the trusted (k, m, n, n) stack of each draw's m >= 1 probes.
    Each product level takes one kernel call, and the norms two: the inputs,
    then the residuals (see the module docstring).  Returns the five
    axiom-suite sections under the report's key names, each the worst value
    over the draws against its threshold (a Jordan residual rescaled to
    AXIOM_JORDAN_TOL).
    """
    k, m, n = probes.shape[:3]
    g = np.repeat(gen, m, axis=0)
    # first level: {x,y,z}, {z,y,x}, {a,b,x}, {b,a,y}, {a,b,z}, {x,x,x}, then
    # L(gen, gen) p = {gen, gen, p} for each probe p of each draw
    first = _cstar(
        np.concatenate([x, z, a, b, a, x, g]),
        np.concatenate([y, y, b, a, b, x, g]),
        np.concatenate([z, x, x, y, z, x, probes.reshape(-1, n, n)]),
    )
    xyz, zyx, abx, bay, abz, xxx = first[: 6 * k].reshape(6, k, n, n)
    images = first[6 * k :].reshape(probes.shape)
    # second level: L(a,b){x,y,z}, {L(a,b)x, y, z}, {x, L(b,a)y, z}, {x, y, L(a,b)z}
    lhs, at_x, at_y, at_z = _cstar(
        np.concatenate([a, abx, x, x]),
        np.concatenate([b, y, bay, y]),
        np.concatenate([xyz, z, z, abz]),
    ).reshape(4, k, n, n)
    na, nb, nx, ny, nz = _norm(np.stack([a, b, x, y, z]))
    residuals = np.stack([xyz - zyx, lhs - (at_x - at_y + at_z), xxx, xyz - _jbstar(x, y, z)])
    comm, jordan, cube, agreement = _norm(residuals)
    # pairings over every ordered (i, j); swapping i and j conjugates the
    # gap, so the maximum over all pairs is the one over i <= j
    gaps = np.abs(_hs(images[:, :, None], probes[:, None]) - _hs(probes[:, :, None], images[:, None]))
    max_neg = np.maximum(0.0, -_hs(images, probes).real.min(axis=-1))
    # the Jordan threshold scales with the input norms; renormalize for the worst
    jordan_threshold = AXIOM_JORDAN_TOL * np.maximum(1.0, na * nb * nx * ny * nz)
    jordan_rel = jordan * (AXIOM_JORDAN_TOL / jordan_threshold)
    cube_rel = np.abs(cube - nx**3) / np.maximum(1.0, nx**3)
    agreement_rel = agreement / np.maximum(1.0, nx * ny * nz)
    return {
        "commutativity": _within(AXIOM_COMMUTATIVITY_TOL, max_residual=float(comm.max())),
        "jordan_identity": _within(AXIOM_JORDAN_TOL, max_relative_residual=float(jordan_rel.max())),
        "l_positivity": _within(
            AXIOM_L_POSITIVITY_TOL,
            max_selfadjoint_violation=float(gaps.max()),
            max_negativity=float(max_neg.max()),
        ),
        "norm_identity": _within(AXIOM_NORM_TOL, max_relative_error=float(cube_rel.max())),
        "product_agreement": _within(
            PRODUCT_AGREEMENT_TOL, max_relative_residual=float(agreement_rel.max())
        ),
    }


# ---------------------------------------------------------------------------
# structure-preserving generators and their residuals
# ---------------------------------------------------------------------------

def derivation_defect(p, gx, gy, gz, hx, hy, hz) -> ComplexMatrix:
    """p - {gx, hy, hz} - {hx, gy, hz} - {hx, hy, gz}: the (theta-)derivation defect.

    p and g are the derivation at {x,y,z} and at x, y, z; h is theta (or the identity).
    The operands are trusted: a caller checks them, or the defect before its norm.
    """
    t = _cstar
    return p - t(gx, hy, hz) - t(hx, gy, hz) - t(hx, hy, gz)


def theta_derivation_residual(d_op: LinearOperator, theta: LinearOperator, x, y, z) -> float:
    """Defect of the theta-derivation identity at (x, y, z).

    || D({x,y,z}) - {Dx, Ty, Tz} - {Tx, Dy, Tz} - {Tx, Ty, Dz} ||
    where D = d_op and T = theta; a plain derivation is the case T = identity.
    """
    mx, my, mz = same_dim(x, y, z)
    # each operator once: D over ({x,y,z}, x, y, z), theta over (x, y, z)
    args = np.stack([_cstar(mx, my, mz), mx, my, mz])
    return spectral_norm(derivation_defect(*d_op(args), *theta(args[1:])))


def make_theta_derivation(theta: Conjugation, d: Commutator) -> Compose:
    """D = theta . d, a theta-derivation by construction.

    The generators are checked by type alone, because their constructors
    check what makes them exact: ``Conjugation`` accepts u only with
    ||u*u - I|| <= UNITARY_TOL and ``Commutator`` accepts a only with
    ||a* + a|| <= SKEW_TOL.  That bounds the relative homomorphism and
    derivation residuals by about 2 * 1e-10, plus round-off of order u ||a||
    (u the unit round-off).  Another operator type raises
    OperatorValidationError, and ``Compose`` refuses unequal dimensions.
    """
    if not isinstance(theta, Conjugation):
        raise OperatorValidationError(f"theta must be a Conjugation, got {type(theta).__name__}")
    if not isinstance(d, Commutator):
        raise OperatorValidationError(f"d must be a Commutator, got {type(d).__name__}")
    return Compose(theta, d)
