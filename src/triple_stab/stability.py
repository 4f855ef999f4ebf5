"""Stability machinery: perturbations, weighted bound series, direct method.

The module turns an exact structure map into a controlled perturbation,
recovers the exact map back by scaled-approximant iteration, and prices the
distance between the two against a weighted series over a control function.

Four iteration schemes are supported.  Writing f for the perturbed map:

* ``cauchy2``               A_l(x) = f(2^l x) / 2^l
* ``cauchy2-contractive``   A_l(x) = 2^l f(x / 2^l)
* ``jensen3``               A_l(x) = f(3^l x) / 3^l
* ``jensen3-contractive``   A_l(x) = 3^l f(x / 3^l)

Each carries a weighted series phi_tilde over the control function and a
summability gate that must hold before any bound is quoted.  For power-type
controls eps * (||x||^p + ||y||^p + ||z||^p) the gates are p < 1, p > 1,
p < 1 and p > 3 respectively.

Maps, controls and certificates take (k, n, n) probe stacks: every stage
makes one call per level or per check over all of its probes, and
``direct_limits`` runs the direct method for a whole stack in lockstep.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .linalg import (
    ComplexMatrix,
    as_matrix,
    max_abs,
    max_entry_diff,
    spectral_norm,
)
from .sampling import ROLE_PERTURBATION, ROLE_RECOVERY, make_probes, rng_for
from .triple import LinearOperator, Tabulated, matrix_basis, triple_product_cstar, vec

# scaled arguments beyond this entry magnitude abort the iteration
OVERFLOW_LIMIT = 1e150
CUSTOM_SERIES_CAP = 10_000
# inner refinement applied to direct_method runs inside recover_linear_map,
# so certification at 10 * tol keeps headroom over the stopping error
RECOVERY_REFINEMENT = 64.0


class SummabilityError(ValueError):
    """The scheme's weighted series does not converge for this control."""


class SchemeError(ValueError):
    """The requested operation is not defined for this scheme."""


class ScaleOverflowError(RuntimeError):
    """A scaled argument left the representable range."""


class ConvergenceError(RuntimeError):
    """The approximant iteration exhausted l_max without settling."""


class LinearityCertificationError(RuntimeError):
    """A recovered map failed its linearity certificate.

    Carries the worst probe and its residual for diagnosis.
    """

    def __init__(self, message: str, worst_probe, residual: float):
        super().__init__(message)
        self.worst_probe = worst_probe
        self.residual = residual


class Scheme(enum.Enum):
    """Iteration scheme tags; values double as config and CLI spellings."""

    CAUCHY2 = "cauchy2"
    CAUCHY2_CONTRACTIVE = "cauchy2-contractive"
    JENSEN3 = "jensen3"
    JENSEN3_CONTRACTIVE = "jensen3-contractive"

    @classmethod
    def parse(cls, tag) -> "Scheme":
        if isinstance(tag, Scheme):
            return tag
        normalized = str(tag).strip().lower().replace("_", "-")
        for member in cls:
            if member.value == normalized:
                return member
        valid = ", ".join(m.value for m in cls)
        raise SchemeError(f"unknown scheme {tag!r}; expected one of: {valid}")

    @property
    def base(self) -> int:
        return 2 if self in (Scheme.CAUCHY2, Scheme.CAUCHY2_CONTRACTIVE) else 3

    @property
    def contractive(self) -> bool:
        return self in (Scheme.CAUCHY2_CONTRACTIVE, Scheme.JENSEN3_CONTRACTIVE)

    @property
    def hypothesis_form(self) -> str:
        """Functional-inequality shape the scheme iterates on."""
        if self in (Scheme.CAUCHY2, Scheme.CAUCHY2_CONTRACTIVE):
            return "cauchy"
        return "jensen"

    @property
    def series_start(self) -> int:
        # the contractive doubling series telescopes from j = 1
        return 1 if self is Scheme.CAUCHY2_CONTRACTIVE else 0

    def series_ratio(self, p: float) -> float:
        """Term ratio of the weighted bound series for a power-type control."""
        b = float(self.base)
        return b ** (p - 1.0) if not self.contractive else b ** (1.0 - p)

    def difference_rate(self, p: float) -> float:
        """Geometric decay rate of successive approximant differences."""
        return self.series_ratio(p)

    def power_gate_ok(self, p: float) -> bool:
        if self is Scheme.CAUCHY2 or self is Scheme.JENSEN3:
            return p < 1.0
        if self is Scheme.CAUCHY2_CONTRACTIVE:
            return p > 1.0
        return p > 3.0

    def gate_message(self, p: float) -> str:
        """Human-readable statement of the violated summability condition."""
        if self is Scheme.CAUCHY2:
            msg = (
                f"scheme cauchy2 requires p < 1: the weighted series has term "
                f"ratio 2^(p-1) = {2.0 ** (p - 1.0):g}, which does not decay at p = {p:g}"
            )
            if p == 1.0:
                msg += " (no finite stability constant exists at p = 1)"
            return msg
        if self is Scheme.CAUCHY2_CONTRACTIVE:
            return (
                f"scheme cauchy2-contractive requires p > 1: the weighted series "
                f"has term ratio 2^(1-p) = {2.0 ** (1.0 - p):g}, which does not decay "
                f"at p = {p:g}"
            )
        if self is Scheme.JENSEN3:
            return (
                f"scheme jensen3 requires p < 1: the weighted series has term "
                f"ratio 3^(p-1) = {3.0 ** (p - 1.0):g}, which does not decay at p = {p:g}"
            )
        return (
            f"scheme jensen3-contractive requires p > 3: its summability gate "
            f"weights terms by 3^(3j), giving ratio 3^(3-p) = {3.0 ** (3.0 - p):g}, "
            f"which does not decay at p = {p:g}"
        )

    def series_term(self, j: int) -> tuple[float, float]:
        """(weight, argument scale) of the j-th term of the bound series."""
        b = float(self.base)
        if self.contractive:
            return b**j, b**-j
        return b**-j, b**j


# ---------------------------------------------------------------------------
# control functions
# ---------------------------------------------------------------------------

def norm_power(norm, p: float):
    """||x||^p with the convention ||0||^p = 0, including p = 0; elementwise."""
    out = np.where(norm == 0.0, 0.0, np.power(norm, p))
    return float(out) if out.ndim == 0 else out


class ControlFunction:
    """Nonnegative control phi(x, y, z) pricing a perturbation residual.

    On (k, n, n) stacks ``value`` returns one value per slice.
    """

    def value(self, x, y, z):
        raise NotImplementedError

    def __call__(self, x, y, z):
        return self.value(x, y, z)


@dataclass(frozen=True)
class PowerType(ControlFunction):
    """phi(x, y, z) = eps * (||x||^p + ||y||^p + ||z||^p)."""

    eps: float
    p: float

    def __post_init__(self):
        if not (self.eps >= 0.0 and math.isfinite(self.eps)):
            raise ValueError(f"eps must be finite and nonnegative, got {self.eps!r}")
        if not (self.p >= 0.0 and math.isfinite(self.p)):
            raise ValueError(f"p must be finite and nonnegative, got {self.p!r}")

    def value(self, x, y, z) -> float:
        return self.eps * (
            norm_power(spectral_norm(x), self.p)
            + norm_power(spectral_norm(y), self.p)
            + norm_power(spectral_norm(z), self.p)
        )


@dataclass(frozen=True)
class Custom(ControlFunction):
    """User-supplied control; values are checked to be nonnegative.

    ``fn`` takes single matrices; on stacks it is called once per slice.
    """

    fn: Callable

    def value(self, x, y, z):
        mx, my, mz = np.broadcast_arrays(as_matrix(x), as_matrix(y), as_matrix(z))
        if mx.ndim > 2:
            return np.array([self.value(a, b, c) for a, b, c in zip(mx, my, mz)])
        v = float(self.fn(x, y, z))
        if v < 0.0 or not math.isfinite(v):
            raise ValueError(f"control function returned {v!r}; needs finite >= 0")
        return v


@dataclass(frozen=True)
class UnimodularScalar:
    """A complex number on the unit circle, validated on construction."""

    value: complex

    def __post_init__(self):
        if abs(abs(self.value) - 1.0) > 1e-12:
            raise ValueError(f"scalar is not unimodular: |{self.value!r}| != 1")


# ---------------------------------------------------------------------------
# weighted series and closed-form bounds
# ---------------------------------------------------------------------------

def phi_tilde(
    phi: ControlFunction,
    scheme,
    x,
    y,
    z,
    tol: float = 1e-15,
) -> float:
    """Scheme-weighted series of the control function at (x, y, z).

    Power-type controls are summed in closed form after the summability gate
    is checked.  Custom controls are summed term by term until the next term
    drops below tol * (partial sum + tol), with divergence detection.
    """
    scheme = Scheme.parse(scheme)
    if isinstance(phi, PowerType):
        if not scheme.power_gate_ok(phi.p):
            raise SummabilityError(scheme.gate_message(phi.p))
        base_value = phi.value(x, y, z)
        r = scheme.series_ratio(phi.p)
        return base_value * r**scheme.series_start / (1.0 - r)

    mx, my, mz = as_matrix(x), as_matrix(y), as_matrix(z)
    largest = max(max_abs(mx), max_abs(my), max_abs(mz))
    total = 0.0
    prev_term = math.inf
    growth_streak = 0
    for j in range(scheme.series_start, scheme.series_start + CUSTOM_SERIES_CAP):
        try:
            weight, arg_scale = scheme.series_term(j)
        except OverflowError:
            weight, arg_scale = math.inf, math.inf
        if (
            not (math.isfinite(weight) and math.isfinite(arg_scale))
            or arg_scale * largest > OVERFLOW_LIMIT
        ):
            raise SummabilityError(
                f"series for scheme {scheme.value} left the representable range at j = {j}"
            )
        term = weight * phi.value(arg_scale * mx, arg_scale * my, arg_scale * mz)
        total += term
        if term <= tol * (total + tol):
            return total
        if term > prev_term:
            growth_streak += 1
            if growth_streak >= 12:
                raise SummabilityError(
                    f"series for scheme {scheme.value} is not decaying: "
                    f"term {term:.3e} at j = {j} exceeds its predecessor"
                )
        else:
            growth_streak = 0
        prev_term = term
    raise SummabilityError(
        f"series for scheme {scheme.value} did not converge within "
        f"{CUSTOM_SERIES_CAP} terms"
    )


def hyers_bound(phi: ControlFunction, scheme, x, tol: float = 1e-15) -> float:
    """Stability bound at x for the scheme, assembled from phi_tilde.

    For power-type controls this reproduces the closed-form constants
      2 eps / |2 - 2^p| * ||x||^p            (doubling schemes)
      (3 + 3^p) / (3 - 3^p) eps ||x||^p      (tripling, p < 1)
      (3^p + 3) / (3^p - 3) eps ||x||^p      (contractive tripling, p > 3).
    """
    scheme = Scheme.parse(scheme)
    mx = as_matrix(x)
    zero = np.zeros_like(mx)
    if scheme in (Scheme.CAUCHY2, Scheme.CAUCHY2_CONTRACTIVE):
        return 0.5 * phi_tilde(phi, scheme, mx, mx, zero, tol=tol)
    if scheme is Scheme.JENSEN3:
        return (
            phi_tilde(phi, scheme, mx, -mx, zero, tol=tol)
            + phi_tilde(phi, scheme, -mx, 3.0 * mx, zero, tol=tol)
        ) / 3.0
    return phi_tilde(phi, scheme, mx / 3.0, -mx / 3.0, zero, tol=tol) + phi_tilde(
        phi, scheme, -mx / 3.0, mx, zero, tol=tol
    )


# ---------------------------------------------------------------------------
# perturbed maps
# ---------------------------------------------------------------------------

_FORMS = ("cauchy", "jensen")


def _parse_form(form) -> str:
    f = str(form).strip().lower()
    if f not in _FORMS:
        raise ValueError(f"unknown hypothesis form {form!r}; expected cauchy or jensen")
    return f


@dataclass(frozen=True, eq=False)
class PerturbedMap:
    """base(x) plus a bounded, oscillating, norm-power-controlled defect.

    f(x) = base(x) + amplitude * ||x||^p * sin(alpha ||x|| + beta Re tr x) * W
    with ||W|| = 1.  The defect vanishes at x = 0 and obeys
    ||f(x) - base(x)|| <= amplitude * ||x||^p everywhere.
    """

    base: LinearOperator
    amplitude: float
    exponent: float
    direction: np.ndarray
    alpha: float
    beta: float
    eps: float
    form: str
    seed: int

    @property
    def dim(self) -> int:
        return self.base.dim

    def defect(self, x) -> ComplexMatrix:
        mx = as_matrix(x)
        if self.amplitude == 0.0:
            return np.zeros_like(mx)
        nx = spectral_norm(mx)
        envelope = self.amplitude * norm_power(nx, self.exponent)
        phase = np.sin(self.alpha * nx + self.beta * np.trace(mx, axis1=-2, axis2=-1).real)
        return np.multiply.outer(envelope * phase, self.direction)

    def __call__(self, x) -> ComplexMatrix:
        return self.base(x) + self.defect(x)


def perturbation_amplitude(eps: float, p: float, form: str) -> float:
    """Largest defect amplitude provably compatible with the control.

    With K_p = max(1, 2^(p-1)) the triangle inequality gives amplitude
    eps / (K_p + 1) for the cauchy form and eps / (2^(1-p) K_p + 1) for the
    jensen form.
    """
    form = _parse_form(form)
    k_p = max(1.0, 2.0 ** (p - 1.0))
    if form == "cauchy":
        return eps / (k_p + 1.0)
    return eps / (2.0 ** (1.0 - p) * k_p + 1.0)


def perturbation_decay_rate(scheme: Scheme, p: float) -> float:
    """Per-level decay of approximant differences for the sinusoidal defects.

    Expansive schemes sample the defect at arguments b^l x, where the
    oscillation stays order one and only the power envelope matters, so
    differences shrink by b^(p-1) per level.  Contractive schemes sample it
    at x / b^l, deep in the linear range of the sine, which contributes one
    extra factor 1/b on top of the envelope and gives b^(-p).
    """
    b = float(scheme.base)
    return b ** (-p) if scheme.contractive else b ** (p - 1.0)


def make_perturbation(
    base: LinearOperator,
    eps: float,
    p: float,
    form: str,
    seed: int,
) -> PerturbedMap:
    """Seeded perturbation of an exact map, certified against PowerType(eps, p)."""
    if not (eps >= 0.0 and math.isfinite(eps)):
        raise ValueError(f"eps must be finite and nonnegative, got {eps!r}")
    if not (p >= 0.0 and math.isfinite(p)):
        raise ValueError(f"p must be finite and nonnegative, got {p!r}")
    form = _parse_form(form)
    rng = rng_for(seed, ROLE_PERTURBATION)
    raw = rng.uniform(-1.0, 1.0, (base.dim, base.dim)) + 1j * rng.uniform(
        -1.0, 1.0, (base.dim, base.dim)
    )
    direction = raw / spectral_norm(raw)
    direction.setflags(write=False)
    alpha, beta = (float(v) for v in rng.uniform(1.0, 2.0, 2))
    amplitude = perturbation_amplitude(eps, p, form) if eps > 0.0 else 0.0
    return PerturbedMap(
        base=base,
        amplitude=amplitude,
        exponent=p,
        direction=direction,
        alpha=alpha,
        beta=beta,
        eps=eps,
        form=form,
        seed=int(seed),
    )


def _stack(mats, what: str, inner: int = 0) -> np.ndarray:
    """(k, n, n) stack of a nonempty probe sequence.

    With ``inner`` set, the items are tuples of that many matrices and the
    stack has shape (k, inner, n, n).
    """
    noun = "triple" if inner == 3 else "probe"
    if len(mats) == 0:
        raise ValueError(f"{what} needs at least one {noun}")
    out = as_matrix(mats)
    if out.shape[:-2] != ((len(mats), inner) if inner else (len(mats),)):
        raise ValueError(f"{what} got {noun}s of shape {out.shape}")
    return out


def _ratio(num: np.ndarray, den: np.ndarray, at_zero) -> np.ndarray:
    """num / den where den > 0, else ``at_zero``, without dividing by zero."""
    out = np.array(np.broadcast_to(at_zero, np.shape(num)), dtype=float)
    return np.divide(num, den, out=out, where=den > 0.0)


# ---------------------------------------------------------------------------
# hypothesis verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HypothesisReport:
    """Worst observed ratios of residuals to the control function.

    Samples where the control vanishes cannot be expressed as ratios; they
    are counted and reported through their largest absolute residual.
    """

    form: str
    samples: int
    max_ratio_f: float
    max_ratio_h: float
    max_triple_ratio: float
    zero_control_samples: int
    max_zero_control_residual: float
    passed: bool


def _pair_residual(f, form: str, mu: complex, x, y) -> float:
    if form == "cauchy":
        return spectral_norm(f(mu * x + y) - mu * f(x) - f(y))
    return spectral_norm(2.0 * f((mu * x + y) / 2.0) - mu * f(x) - f(y))


def verify_hypotheses(
    f,
    h,
    phi: ControlFunction,
    form: str,
    probes: Sequence,
    mu_samples: Sequence[complex],
) -> HypothesisReport:
    """Sampled confirmation of the functional inequalities behind a run.

    For each sample the additive (or jensen) residual of f and of h is
    divided by phi(x, y, 0); by construction of make_perturbation these
    ratios never exceed 1.  The three-slot product residual

        || f({x,y,z}) - {f(x) h(y) h(z)} - {h(x) f(y) h(z)} - {h(x) h(y) f(z)} ||

    is divided by phi(x, y, z) and reported without a pass threshold; the
    perturbation construction does not promise it stays below 1.
    """
    form = _parse_form(form)
    x = _stack(probes, "verify_hypotheses")
    if not mu_samples:
        raise ValueError("verify_hypotheses needs at least one unimodular sample")
    m = len(x)
    k = np.arange(m)
    iy = (k + max(1, m // 2) % m) % m
    iz = (k + max(1, m // 3) % m) % m
    y, z = x[iy], x[iz]
    mu = np.array([complex(mu_samples[i % len(mu_samples)]) for i in range(m)])
    mu = mu[:, None, None]
    denom_pair = phi.value(x, y, np.zeros_like(x))
    rf = _pair_residual(f, form, mu, x, y)
    rh = _pair_residual(h, form, mu, x, y)
    zero = denom_pair <= 0.0
    t = triple_product_cstar
    fx, hx = f(x), h(x)
    fy, fz, hy, hz = fx[iy], fx[iz], hx[iy], hx[iz]
    triple_res = spectral_norm(
        f(t(x, y, z)) - t(fx, hy, hz) - t(hx, fy, hz) - t(hx, hy, fz)
    )
    max_f = float(_ratio(rf, denom_pair, 0.0).max())
    max_h = float(_ratio(rh, denom_pair, 0.0).max())
    max_t = float(_ratio(triple_res, phi.value(x, y, z), 0.0).max())
    zero_samples = int(zero.sum())
    zero_abs = float(np.where(zero, np.maximum(rf, rh), 0.0).max())
    return HypothesisReport(
        form=form,
        samples=m,
        max_ratio_f=max_f,
        max_ratio_h=max_h,
        max_triple_ratio=max_t,
        zero_control_samples=zero_samples,
        max_zero_control_residual=zero_abs,
        passed=max_f <= 1.0 and max_h <= 1.0 and zero_abs <= 1e-10,
    )


# ---------------------------------------------------------------------------
# direct method
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DirectMethodResult:
    value: ComplexMatrix
    l_used: int
    converged: bool
    deltas: tuple[float, ...] = field(repr=False)


def scheme_approximant(f, scheme, x, l: int) -> ComplexMatrix:
    """A_l(x) for the scheme, with an overflow guard on the scaled argument.

    On a stack the guard trips when any slice would leave the range.
    """
    scheme = Scheme.parse(scheme)
    mx = as_matrix(x)
    s = float(scheme.base) ** l
    if scheme.contractive:
        return s * as_matrix(f(mx / s))
    if s * max_abs(mx) > OVERFLOW_LIMIT:
        raise ScaleOverflowError(
            f"scaled argument {scheme.base}^{l} * x exceeds {OVERFLOW_LIMIT:g}; "
            f"reduce l_max or the input norm"
        )
    return as_matrix(f(s * mx)) / s


def direct_limits(
    f,
    scheme,
    xs,
    tol: float = 1e-9,
    l_max: int = 200,
) -> list[DirectMethodResult]:
    """The direct method at every slice of a (k, n, n) stack, in lockstep.

    Each level evaluates f once on the probes still iterating.  A probe
    leaves the stack at the first l with
    ||A_l(x) - A_{l-1}(x)|| <= tol * max(1, ||A_{l-1}(x)||) and keeps A_l;
    a probe still iterating at l_max keeps A_{l_max} with converged = False.
    Every result equals what the iteration at that probe alone returns.
    """
    scheme = Scheme.parse(scheme)
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if l_max < 1:
        raise ValueError("l_max must be at least 1")
    xs = as_matrix(xs)
    if xs.ndim != 3 or not len(xs):
        raise ValueError(f"direct_limits needs a (k, n, n) stack, got shape {xs.shape}")
    results: list[DirectMethodResult | None] = [None] * len(xs)
    deltas: list[list[float]] = [[] for _ in xs]
    active = np.arange(len(xs))
    prev = scheme_approximant(f, scheme, xs, 0)
    for l in range(1, l_max + 1):
        cur = scheme_approximant(f, scheme, xs[active], l)
        delta = spectral_norm(cur - prev)
        for i, d in zip(active.tolist(), delta.tolist()):
            deltas[i].append(d)
        settled = delta <= tol * np.maximum(1.0, spectral_norm(prev))
        for j in np.flatnonzero(settled).tolist():
            i = int(active[j])
            results[i] = DirectMethodResult(cur[j], l, True, tuple(deltas[i]))
        active, prev = active[~settled], cur[~settled]
        if not active.size:
            break
    for j, i in enumerate(active.tolist()):
        results[i] = DirectMethodResult(prev[j], l_max, False, tuple(deltas[i]))
    return results


def direct_method(
    f,
    scheme,
    x,
    tol: float = 1e-9,
    l_max: int = 200,
) -> DirectMethodResult:
    """Iterate the scheme's approximants at x until successive agreement.

    Stops at the first l with ||A_{l+1}(x) - A_l(x)|| <= tol * max(1, ||A_l(x)||)
    and returns A_{l+1}; if l_max is exhausted the last approximant is
    returned with converged = False.  One probe of ``direct_limits``.
    """
    return direct_limits(f, scheme, as_matrix(x)[None], tol=tol, l_max=l_max)[0]


def recover_linear_map(
    f,
    scheme,
    tol: float = 1e-9,
    l_max: int = 200,
    cert_probe_count: int = 24,
) -> Tabulated:
    """Recover the exact linear map behind a perturbed one.

    Runs the direct method on every matrix unit to tabulate the limit, then
    certifies linearity by comparing the tabulated map against direct
    limits on random probes, at threshold 10 * tol * max(1, ||x||).  The
    inner iterations run at tol / 64 so the certificate threshold retains
    headroom over the stopping error.  Basis and probes iterate as one
    lockstep stack.
    """
    scheme = Scheme.parse(scheme)
    dim = f.dim
    inner_tol = tol / RECOVERY_REFINEMENT
    basis = matrix_basis(dim)
    seed = getattr(f, "seed", 0)
    probes = np.stack(
        make_probes(dim, cert_probe_count, rng_for(seed, ROLE_RECOVERY), 1e-2, 1e1)
    )
    runs = direct_limits(f, scheme, np.concatenate([basis, probes]), tol=inner_tol, l_max=l_max)
    runs, directs = runs[: len(basis)], runs[len(basis) :]
    for run in runs:
        if not run.converged:
            raise ConvergenceError(
                f"direct method did not converge within l_max = {l_max} "
                f"on a basis element (last difference {run.deltas[-1]:.3e})"
            )
    recovered = Tabulated(vec(np.stack([run.value for run in runs])).T)
    if not all(run.converged for run in directs):
        raise ConvergenceError(
            f"direct method did not converge within l_max = {l_max} on a probe"
        )
    gaps = spectral_norm(recovered(probes) - np.stack([run.value for run in directs]))
    excess = gaps - 10.0 * tol * np.maximum(1.0, spectral_norm(probes))
    worst_idx = int(np.argmax(excess))
    if excess[worst_idx] > 0.0:
        raise LinearityCertificationError(
            f"recovered map failed linearity certification: probe {worst_idx} "
            f"disagrees with its direct limit by {gaps[worst_idx]:.3e}",
            worst_probe=probes[worst_idx],
            residual=float(gaps[worst_idx]),
        )
    return recovered


# ---------------------------------------------------------------------------
# certificates on recovered maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundReport:
    """Per-probe comparison of the actual defect against the bound."""

    rows: tuple[tuple[float, float, float, float], ...]  # (norm_x, bound, error, ratio)
    max_ratio: float
    slack: float
    passed: bool


def verify_stability_bound(
    f,
    recovered: LinearOperator,
    phi: ControlFunction,
    scheme,
    probes: Sequence,
    slack: float = 1e-9,
) -> BoundReport:
    """Check ||f(x) - recovered(x)|| <= hyers_bound(phi, scheme, x) on probes.

    Power-type bounds are evaluated on the whole stack; other controls sum
    their series term by term at each probe.
    """
    scheme = Scheme.parse(scheme)
    x = _stack(probes, "verify_stability_bound")
    if isinstance(phi, PowerType):
        bounds = hyers_bound(phi, scheme, x)
    else:
        bounds = np.array([hyers_bound(phi, scheme, p) for p in x])
    errors = spectral_norm(f(x) - recovered(x))
    ratios = _ratio(errors, bounds, np.where(errors == 0.0, 0.0, math.inf))
    rows = tuple(zip(*(a.tolist() for a in (spectral_norm(x), bounds, errors, ratios))))
    max_ratio = float(ratios.max())
    return BoundReport(rows, max_ratio, slack, max_ratio <= 1.0 + slack)


@dataclass(frozen=True)
class HomogeneityReport:
    """Unimodular homogeneity of a map over probe and scalar samples."""

    max_residual: float
    zero_residual: float
    threshold: float
    passed: bool


def verify_s1_homogeneity(
    op,
    probes: Sequence,
    mu_samples: Sequence[complex],
    tol: float = 1e-6,
) -> HomogeneityReport:
    """Max of ||op(mu x) - mu op(x)|| / max(1, ||x||), plus the zero case."""
    if not len(probes) or not mu_samples:
        raise ValueError("verify_s1_homogeneity needs probes and scalar samples")
    x = _stack(probes, "verify_s1_homogeneity")
    # (scalar, probe, n, n): every scalar against every probe in one call
    mu = np.array([complex(m) for m in mu_samples])[:, None, None, None]
    res = spectral_norm(op(mu * x) - mu * op(x)) / np.maximum(1.0, spectral_norm(x))
    worst = float(res.max())
    zero_residual = spectral_norm(op(np.zeros_like(x[0])))
    passed = worst <= tol and zero_residual <= tol
    return HomogeneityReport(worst, zero_residual, tol, passed)


def unimodular_average_decomposition(gamma: float) -> tuple[UnimodularScalar, UnimodularScalar]:
    """Write gamma in [0, 1) as the average of two conjugate unimodular scalars."""
    g = float(gamma)
    if not 0.0 <= g < 1.0:
        raise ValueError(f"gamma must lie in [0, 1), got {g!r}")
    mu = complex(g, math.sqrt(1.0 - g * g))
    return UnimodularScalar(mu), UnimodularScalar(mu.conjugate())


def complex_homogeneity_via_decomposition(op, lam, x, tol: float = 1e-6):
    """Compare op(lam x) against the reassembly used in the linearity proof.

    lam = a1 + i a2 is split into integer and fractional parts; fractional
    parts become averages of two unimodular scalars, so the route value
    needs only additivity and unimodular homogeneity of op:

        route = n1 op(x) + (op(m11 x) + op(m12 x)) / 2
              + i * (n2 op(x) + (op(m21 x) + op(m22 x)) / 2)

    Returns the residual against op(lam x), normalized by max(1, |lam| ||x||);
    on a stack of x, one entry per slice.
    """
    from .triple import CheckResult

    mx = as_matrix(x)
    lam = complex(lam)
    route = np.zeros_like(mx)
    image = op(mx)
    for part, factor in ((lam.real, 1.0 + 0.0j), (lam.imag, 1.0j)):
        n = math.floor(part)
        frac = part - n
        contribution = n * image
        if frac > 0.0:
            mu1, mu2 = unimodular_average_decomposition(frac)
            contribution = contribution + (op(mu1.value * mx) + op(mu2.value * mx)) / 2.0
        route = route + factor * contribution
    residual = spectral_norm(op(lam * mx) - route)
    threshold = tol * np.maximum(1.0, abs(lam) * spectral_norm(mx))
    return CheckResult(residual, threshold, residual <= threshold)


def derivation_limit_residual(f, h, scheme, x, y, z, l: int) -> float:
    """Scaled three-slot residual at level l along the scheme's trajectory.

    For the expanding schemes with base b this is

      b^(-3l) || f(b^(3l) {x,y,z}) - {f(b^l x) h(b^l y) h(b^l z)}
                - {h(b^l x) f(b^l y) h(b^l z)} - {h(b^l x) h(b^l y) f(b^l z)} ||

    and the contractive tripling scheme uses arguments divided by the scales
    with the reciprocal prefactor.  Not defined for cauchy2-contractive.
    On stacks of triples it returns one residual per triple.
    """
    scheme = Scheme.parse(scheme)
    if scheme is Scheme.CAUCHY2_CONTRACTIVE:
        raise SchemeError(
            "the derivation-limit residual is not defined for scheme "
            "cauchy2-contractive"
        )
    if l < 0:
        raise ValueError("l must be nonnegative")
    mx, my, mz = as_matrix(x), as_matrix(y), as_matrix(z)
    txyz = triple_product_cstar(mx, my, mz)
    s = float(scheme.base) ** l
    s3 = float(scheme.base) ** (3 * l)
    if scheme.contractive:
        ax, ay, az, aprod = mx / s, my / s, mz / s, txyz / s3
        prefactor = s3
    else:
        if s3 * max(max_abs(txyz), 1.0) > OVERFLOW_LIMIT or s * max(
            max_abs(mx), max_abs(my), max_abs(mz)
        ) > OVERFLOW_LIMIT:
            raise ScaleOverflowError(
                f"scaled arguments at level l = {l} exceed {OVERFLOW_LIMIT:g}"
            )
        ax, ay, az, aprod = s * mx, s * my, s * mz, s3 * txyz
        prefactor = 1.0 / s3
    # each map once over every scaled argument it is needed at
    n = mx.shape[-1]
    args = np.stack([aprod, ax, ay, az])
    fp, fx, fy, fz = as_matrix(f(args.reshape(-1, n, n))).reshape(args.shape)
    hx, hy, hz = as_matrix(h(args[1:].reshape(-1, n, n))).reshape(args[1:].shape)
    t = triple_product_cstar
    residual = spectral_norm(fp - t(fx, hy, hz) - t(hx, fy, hz) - t(hx, hy, fz))
    return prefactor * residual


def derivation_limit_sequence(
    f,
    h,
    scheme,
    triples: Sequence,
    l_values: Sequence[int],
) -> list[float]:
    """Mean derivation-limit residual over a triple set at each level."""
    t = _stack(triples, "derivation_limit_sequence", inner=3)
    x, y, z = t[:, 0], t[:, 1], t[:, 2]
    return [
        float(np.mean(derivation_limit_residual(f, h, scheme, x, y, z, l)))
        for l in l_values
    ]


@dataclass(frozen=True)
class DerivationCertificate:
    """Worst relative three-slot defect of a recovered pair."""

    max_relative_residual: float
    worst_index: int
    threshold: float
    passed: bool


def certify_theta_derivation(
    d_hat,
    theta_hat,
    triples: Sequence,
    tol: float = 1e-6,
) -> DerivationCertificate:
    """Check the derivation identity of (d_hat, theta_hat) on probe triples."""
    from .triple import theta_derivation_residual

    t = _stack(triples, "certify_theta_derivation", inner=3)
    x, y, z = t[:, 0], t[:, 1], t[:, 2]
    scale = np.maximum(1.0, spectral_norm(x) * spectral_norm(y) * spectral_norm(z))
    values = theta_derivation_residual(d_hat, theta_hat, x, y, z) / scale
    worst = int(np.argmax(values))
    worst_value = float(values[worst])
    return DerivationCertificate(
        max_relative_residual=worst_value,
        worst_index=worst,
        threshold=tol,
        passed=worst_value <= tol,
    )


# ---------------------------------------------------------------------------
# convergence-rate estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateEstimate:
    """Geometric rate of successive approximant differences.

    Per-probe difference sequences are normalized by their first entry and
    averaged, and the rate is the geometric mean of the aggregated ratios
    over the last ``window`` recorded levels.  Aggregation across probes is
    what makes the estimate stable: a single probe's ratios fluctuate with
    the oscillating defect.
    """

    rate: float | None
    ratios: tuple[float, ...]
    first_level: int
    last_level: int
    probes_used: int


def estimate_convergence_rate(
    f,
    scheme,
    probes: Sequence,
    tol: float = 1e-9,
    l_max: int = 200,
    window: int = 10,
) -> RateEstimate:
    x = _stack(probes, "estimate_convergence_rate")
    runs = direct_limits(f, scheme, x, tol=tol, l_max=l_max)
    usable = [r.deltas for r in runs if r.deltas and r.deltas[0] > 0.0]
    if not usable:
        return RateEstimate(None, (), 0, 0, 0)
    depth = min(len(d) for d in usable)
    if depth < 2:
        return RateEstimate(None, (), 0, 0, len(usable))
    aggregated = [
        sum(d[l] / d[0] for d in usable) / len(usable) for l in range(depth)
    ]
    k = min(window, depth - 1)
    last = depth - 1
    first = last - k
    if aggregated[first] <= 0.0 or aggregated[last] <= 0.0:
        return RateEstimate(None, (), first, last, len(usable))
    rate = (aggregated[last] / aggregated[first]) ** (1.0 / k)
    ratios = tuple(
        aggregated[l + 1] / aggregated[l] if aggregated[l] > 0.0 else math.inf
        for l in range(first, last)
    )
    return RateEstimate(rate, ratios, first, last, len(usable))
