"""Dense complex matrix kernel: validation, spectral norm, HS pairing.

Matrices are square numpy arrays of complex128, either one n x n matrix or
a stack of shape (..., n, n).  ``as_matrix`` is the single entry point that
enforces squareness and finiteness; every public operation routes its
inputs through it.  ``spectral_norm`` and ``hs_inner`` act slice by slice
on stacks.
"""

from __future__ import annotations

import numpy as np

# A validated (..., n, n) complex128 array.  Kept as a plain ndarray so numpy
# arithmetic stays available to callers.
ComplexMatrix = np.ndarray


class DimensionMismatchError(ValueError):
    """Raised when two operands carry different square dimensions."""


def as_matrix(x) -> ComplexMatrix:
    """Coerce to a complex128 matrix, or stack of matrices, with finite entries.

    The trailing two dimensions must be equal and nonzero.
    """
    m = np.asarray(x, dtype=np.complex128)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.shape[-1] == 0:
        raise ValueError(f"expected a nonempty square matrix, got shape {m.shape}")
    # a complex entry is finite only when both of its parts are
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def _same_dim_pair(x, y) -> tuple[ComplexMatrix, ComplexMatrix]:
    mx, my = as_matrix(x), as_matrix(y)
    if mx.shape[-1] != my.shape[-1]:
        raise DimensionMismatchError(
            f"dimension mismatch: {mx.shape[-1]} vs {my.shape[-1]}"
        )
    return mx, my


def hs_inner(x, y):
    """Hilbert-Schmidt inner product trace(x y*); an array over stack slices."""
    mx, my = _same_dim_pair(x, y)
    inner = np.einsum("...ij,...ij->...", mx, my.conj())
    return complex(inner) if inner.ndim == 0 else inner


def max_abs(x) -> float:
    """Largest entry magnitude; 0.0 for the zero matrix."""
    return float(np.max(np.abs(as_matrix(x))))


def max_entry_diff(x, y) -> float:
    """Largest entrywise absolute difference between two matrices."""
    mx, my = _same_dim_pair(x, y)
    return float(np.max(np.abs(mx - my)))


def spectral_norm(x):
    """Largest singular value of a square complex matrix, by LAPACK SVD.

    Returns a float for one matrix and an array of norms for a stack.
    LAPACK scales the input internally, so entries near the overflow or
    underflow threshold give the correctly scaled norm.
    """
    m = as_matrix(x)
    top = np.linalg.svd(m, compute_uv=False)[..., 0]
    return float(top) if m.ndim == 2 else top
