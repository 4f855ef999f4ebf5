"""Seeded sample generation with a fixed seed-splitting rule.

A single 64-bit experiment seed determines every random object in a run.
Sub-streams are derived as SeedSequence(entropy=seed, spawn_key=(role,))
with the role constants below, so adding a new consumer never perturbs
existing streams.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import ComplexMatrix, _norm

MAX_SEED = 2**64 - 1

# role constants for the splitting rule; frozen, append-only
ROLE_PERTURBATION = 1
ROLE_PROBES = 2
ROLE_MU = 3
ROLE_UNITARY = 4
ROLE_SKEW = 5
ROLE_AXIOMS = 6
ROLE_MAP_F = 7
ROLE_MAP_H = 8
ROLE_CERT_TRIPLES = 9
ROLE_SEQUENCE_TRIPLES = 10
ROLE_RATE_PROBES = 11
ROLE_RECOVERY = 12


def int_text(value: int) -> str:
    """An integer for a message: its digits below 10^20, else its size (str() stops at 4300)."""
    value = int(value)
    if abs(value) < 10**20:
        return str(value)
    return f"{'a negative' if value < 0 else 'an'} integer of {value.bit_length()} bits"


def check_int(what: str, value) -> int:
    """value as an int; a ValueError naming ``what`` unless it is a Python or numpy integer."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def check_count(what: str, value) -> int:
    """value as an int of at least 1; a ValueError naming ``what`` otherwise."""
    if check_int(what, value) < 1:
        raise ValueError(f"{what} must be >= 1, got {int_text(value)}")
    return int(value)


def check_float(what: str, value) -> float:
    """value as a finite float; a ValueError naming ``what`` unless it is a Python or numpy real."""
    if not isinstance(value, (int, float, np.integer, np.floating)) or isinstance(value, bool):
        raise ValueError(f"{what} must be a number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:
        # an integer past the float range; its digits may be too many for a str
        raise ValueError(f"{what} must be finite, got an integer too large for a float") from None
    if not math.isfinite(out):
        raise ValueError(f"{what} must be finite, got {out!r}")
    return out + 0.0  # -0.0 becomes 0.0, so a config echoes one zero


def check_positive(what: str, value) -> float:
    """value as a finite float above 0; a ValueError naming ``what`` otherwise."""
    out = check_float(what, value)
    if out <= 0.0:
        raise ValueError(f"{what} must be positive, got {out!r}")
    return out


def check_seed(seed: int) -> int:
    if not 0 <= check_int("seed", seed) <= MAX_SEED:
        raise ValueError(f"seed must fit in 64 bits, got {int_text(seed)}")
    return int(seed)


def rng_for(seed: int, role: int) -> np.random.Generator:
    """Deterministic generator for one role under the experiment seed."""
    ss = np.random.SeedSequence(entropy=check_seed(seed), spawn_key=(role,))
    return np.random.default_rng(ss)


def child_seed(seed: int, role: int) -> int:
    """A derived 63-bit integer seed, for components that take a plain seed."""
    return int(rng_for(seed, role).integers(0, 2**63))


def random_matrices(rng: np.random.Generator, count: int, dim: int) -> ComplexMatrix:
    """(count, dim, dim) stack of ``random_matrix`` draws, in one call.

    Consumes the stream exactly as ``count`` successive ``random_matrix``
    calls do: per matrix, the real parts and then the imaginary parts.
    """
    u = rng.uniform(-1.0, 1.0, (count, 2, dim, dim))
    return u[:, 0] + 1j * u[:, 1]


def random_matrix(rng: np.random.Generator, dim: int) -> ComplexMatrix:
    """Entries uniform on [-1, 1]^2 in real and imaginary parts."""
    return random_matrices(rng, 1, dim)[0]


def haar_unitary(rng: np.random.Generator, dim: int) -> ComplexMatrix:
    """Haar-distributed unitary via phase-fixed QR of a Ginibre matrix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    phases = d / np.abs(d)
    return q * phases


def skew_matrix(rng: np.random.Generator, dim: int, scale: float = 1.0) -> ComplexMatrix:
    """Skew-adjoint matrix: (m - m*) / 2 of a random m, then scaled."""
    m = random_matrix(rng, dim)
    return scale * (m - m.conj().T) / 2.0


def make_probes(
    dim: int,
    count: int,
    rng: np.random.Generator,
    norm_min: float = 1e-2,
    norm_max: float = 1e1,
) -> ComplexMatrix:
    """C-contiguous complex128 (count, dim, dim) stack: random directions at log-spaced norms."""
    count = check_count("probe count", count)
    if not 0.0 < norm_min <= norm_max < np.inf:
        raise ValueError("norm range must satisfy 0 < norm_min <= norm_max")
    lo, hi = np.log10(norm_min), np.log10(norm_max)
    targets = np.array(
        [10.0 ** (lo if count == 1 else lo + (hi - lo) * k / (count - 1)) for k in range(count)]
    )
    directions = random_matrices(rng, count, dim)
    return directions * (targets / _norm(directions))[:, None, None]


def make_mu_samples(count: int, rng: np.random.Generator) -> list[complex]:
    """Unimodular scalars: 1, i, -1, -i first, then seeded random phases."""
    count = check_count("mu sample count", count)
    fixed = [1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j]
    out = fixed[:count]
    while len(out) < count:
        angle = 2.0 * np.pi * rng.uniform()
        out.append(complex(np.cos(angle), np.sin(angle)))
    return out
