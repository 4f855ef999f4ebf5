"""Stability machinery: perturbations, weighted bound series, direct method.

The module turns an exact structure map into a controlled perturbation,
recovers the exact map back by scaled approximants, and prices the distance
between the two against a weighted series over a control function.

Four iteration schemes are supported, one row of ``Scheme`` each: base
b = 2 (``cauchy2``) or b = 3 (``jensen3``), expanding or ``-contractive``.
Level l scales the argument by s = b^l for an expanding scheme and by
s = b^-l for a contractive one, and writing f for the perturbed map every
scheme's approximant is A_l(x) = f(s x) / s.

Each carries a weighted series phi_tilde over the control function and a
summability gate that must hold before any bound is quoted.  For power-type
controls eps * (||x||^p + ||y||^p + ||z||^p) the gates are p < 1, p > 1,
p < 1 and p > 3 respectively.

The bound also fixes the recovery level in advance (the fixed-point
alternative of Diaz-Margolis and Cadariu-Radu): ``direct_method`` evaluates
A_L once, at the smallest L the bound certifies.  Convergence rates come
from one pooled least-squares slope over a fixed window of levels.

The stages price with a power-type control only, the one the paper's
theorems use; a ``Custom`` control is the term-by-term reference series of
``phi_tilde`` and ``hyers_bound``.  Maps, power-type controls and
certificates take (k, n, n) probe stacks: every stage makes one call per
map and per check over all of its probes, and a level scan stacks its
levels too, in groups of at most LEVEL_GROUP_ENTRIES complex entries per
call.  A stage takes the norms of its stacks in one norm call (the
``linalg._norm`` kernel), and the probe norms behind a power-type bound are
reused by the direct method's target, the linearity certificate and the
bound table.  Where a stage hands one argument stack to both perturbed
maps, it norms the stack once and both maps run their known-norm kernel on
those norms (``_image``): the hypothesis stage maps x, the pair argument
and {x,y,z} with one f call and x and the pair argument with one h call,
the bound stage's maps reuse the probe norms, and h takes the norms of f's
x, y and z in each group of the derivation sequence.  The bound stage
takes one bound for all its maps, and a homogeneity check applies its map
once, to every scaled argument.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .linalg import (
    ComplexMatrix,
    DimensionMismatchError,
    _norm,
    as_matrix,
    spectral_norm,
)
from .sampling import ROLE_PERTURBATION, ROLE_RECOVERY, make_probes, rng_for
from .triple import (
    CheckResult,
    LinearOperator,
    Tabulated,
    _cstar,
    _vec,
    derivation_defect,
    matrix_basis,
    theta_derivation_residual,
)

# scaled arguments beyond this entry magnitude abort the iteration
OVERFLOW_LIMIT = 1e150
CUSTOM_SERIES_CAP = 10_000
# a custom-control series stops once its next term is this small, relatively
SERIES_TOL = 1e-15
# random probes of the linearity certificate in recovery
CERT_PROBE_COUNT = 24
# residual allowed at hypothesis samples where the control vanishes
ZERO_CONTROL_TOL = 1e-10
# thresholds of the certificates on a recovered map
BOUND_SLACK = 1e-9
HOMOGENEITY_TOL = 1e-6
DERIVATION_TOL = 1e-6
# differences and residuals this small sit on the floating-point floor of
# their computation; rate fits and decrease checks leave them out
ROUNDOFF_FLOOR = 1e-13
# the approximant-rate fit uses ||A_l - A_{l-1}|| at these levels
RATE_LEVELS = range(3, 13)
# complex entries of the argument stack one map call takes in a level scan;
# a group holds at least one level, so at large dims each level is its own
# call and the scan's temporaries stay near one level's
LEVEL_GROUP_ENTRIES = 2**15


class SummabilityError(ValueError):
    """The scheme's weighted series does not converge for this control."""


class SchemeError(ValueError):
    """The requested operation is not defined for this scheme."""


class ScaleOverflowError(RuntimeError):
    """A scaled argument left the representable range."""


class ConvergenceError(RuntimeError):
    """No certified level: it exceeds l_max, its scale or the bound leaves float range."""


class LinearityCertificationError(RuntimeError):
    """A recovered map failed its linearity certificate.

    Carries the worst probe, its index among the certificate probes, its
    norm, its gap, the allowance it exceeded and the level L for diagnosis.
    """

    def __init__(
        self,
        message: str,
        worst_probe,
        index: int,
        norm: float,
        residual: float,
        allowance: float,
        level: int,
    ):
        super().__init__(message)
        self.worst_probe = worst_probe
        self.index = index
        self.norm = norm
        self.residual = residual
        self.allowance = allowance
        self.level = level


class Scheme(enum.Enum):
    """Iteration schemes, one row of facts each; values are the config and CLI tags.

    Approximants, bound series and gates all derive from the row and scale(l).
    """

    # tag, base b, contractive, gate on p, first index of the bound series,
    # derivation-sequence levels (None where the residual is undefined);
    # the contractive doubling series telescopes from j = 1
    CAUCHY2 = ("cauchy2", 2, False, 1, 0, 25)
    CAUCHY2_CONTRACTIVE = ("cauchy2-contractive", 2, True, 1, 1, None)
    JENSEN3 = ("jensen3", 3, False, 1, 0, 19)
    JENSEN3_CONTRACTIVE = ("jensen3-contractive", 3, True, 3, 0, 7)

    def __new__(cls, tag: str, *facts):
        member = object.__new__(cls)
        member._value_ = tag
        return member

    def __init__(self, tag, base, contractive, gate, series_start, sequence_levels):
        self.base = base
        self.contractive = contractive
        self.gate = gate
        self.series_start = series_start
        self.sequence_levels = sequence_levels
        # functional-inequality shape the scheme iterates on
        self.hypothesis_form = "cauchy" if base == 2 else "jensen"

    @classmethod
    def parse(cls, tag) -> "Scheme":
        if isinstance(tag, Scheme):
            return tag
        try:
            return cls(str(tag).strip().lower().replace("_", "-"))
        except ValueError:
            valid = ", ".join(m.value for m in cls)
            raise SchemeError(f"unknown scheme {tag!r}; expected one of: {valid}") from None

    def scale(self, l: float) -> float:
        """Argument scale at level l: b^-l for a contractive scheme, else b^l."""
        return float(self.base) ** (-l if self.contractive else l)

    def series_ratio(self, p: float) -> float:
        """Term ratio of the weighted bound series for a power-type control."""
        return self.scale(p - 1.0)

    def power_gate_ok(self, p: float) -> bool:
        return p > self.gate if self.contractive else p < self.gate

    def derivation_levels(self) -> range:
        """Levels of the derivation-limit sequence; SchemeError where it is undefined."""
        if self.sequence_levels is None:
            raise SchemeError(
                f"the derivation-limit residual is not defined for scheme {self.value}"
            )
        return range(self.sequence_levels)

    def gate_message(self, p: float) -> str:
        """Human-readable statement of the violated summability condition."""
        b, gate = self.base, self.gate
        relation, exponent = (">", f"{gate}-p") if self.contractive else ("<", f"p-{gate}")
        weighting = (
            "the weighted series has term "
            if gate == 1
            else f"its summability gate weights terms by {b}^({gate}j), giving "
        )
        msg = (
            f"scheme {self.value} requires p {relation} {gate}: {weighting}ratio "
            f"{b}^({exponent}) = {self.scale(p - gate):g}, which does not decay at p = {p:g}"
        )
        if self is Scheme.CAUCHY2 and p == 1.0:
            msg += " (no finite stability constant exists at p = 1)"
        return msg


# ---------------------------------------------------------------------------
# control functions
# ---------------------------------------------------------------------------

def norm_power(norm, p: float):
    """||x||^p with the convention ||0||^p = 0, including p = 0; elementwise."""
    out = np.where(norm == 0.0, 0.0, np.power(norm, p))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class PowerType:
    """phi(x, y, z) = eps * (||x||^p + ||y||^p + ||z||^p).

    On (k, n, n) stacks ``value`` returns one value per slice.
    """

    eps: float
    p: float

    def __post_init__(self):
        if not (self.eps >= 0.0 and math.isfinite(self.eps)):
            raise ValueError(f"eps must be finite and nonnegative, got {self.eps!r}")
        if not (self.p >= 0.0 and math.isfinite(self.p)):
            raise ValueError(f"p must be finite and nonnegative, got {self.p!r}")

    def value(self, x, y, z) -> float:
        return self.from_norms(spectral_norm(x), spectral_norm(y), spectral_norm(z))

    def from_norms(self, nx, ny, nz):
        """phi at arguments of norms nx, ny and nz."""
        return self.eps * (
            norm_power(nx, self.p) + norm_power(ny, self.p) + norm_power(nz, self.p)
        )


@dataclass(frozen=True)
class Custom:
    """User-supplied control on single matrices; values are checked to be nonnegative."""

    fn: Callable

    def value(self, x, y, z) -> float:
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
    phi: PowerType | Custom,
    scheme,
    x,
    y,
    z,
) -> float:
    """Scheme-weighted series of the control function at (x, y, z).

    Power-type controls are summed in closed form after the summability gate
    is checked.  Custom controls are summed term by term until the next term
    drops below SERIES_TOL * (partial sum + SERIES_TOL), with divergence
    detection.
    """
    scheme = Scheme.parse(scheme)
    if isinstance(phi, PowerType):
        return _power_tilde(phi, scheme, spectral_norm(x), spectral_norm(y), spectral_norm(z))

    mx, my, mz = as_matrix(x), as_matrix(y), as_matrix(z)
    largest = max(np.abs(m).max() for m in (mx, my, mz))
    total = 0.0
    prev_term = math.inf
    growth_streak = 0
    for j in range(scheme.series_start, scheme.series_start + CUSTOM_SERIES_CAP):
        try:
            weight, arg_scale = scheme.scale(-j), scheme.scale(j)
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
        if term <= SERIES_TOL * (total + SERIES_TOL):
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


def _power_tilde(phi: PowerType, scheme: Scheme, nx, ny, nz=0.0):
    """phi_tilde of a power-type control, from the norms of its three arguments."""
    if not scheme.power_gate_ok(phi.p):
        raise SummabilityError(scheme.gate_message(phi.p))
    r = scheme.series_ratio(phi.p)
    return phi.from_norms(nx, ny, nz) * r**scheme.series_start / (1.0 - r)


def _require_power(phi: PowerType | Custom, caller: str) -> None:
    """TypeError unless phi is the power-type control the stages price with."""
    if not isinstance(phi, PowerType):
        raise TypeError(f"{caller} needs a PowerType control, got {type(phi).__name__}")


def _power_bound(phi: PowerType, scheme: Scheme, mx: ComplexMatrix):
    """hyers_bound of a power-type control at a checked mx, and ||mx||, from one norm call.

    The call takes the norms of the distinct arguments of the phi_tilde
    terms: x (doubling), x and 3x (tripling), x/3 and x (contractive
    tripling).  ||-x|| = ||x|| and ||0|| = 0 hold bit for bit, and the
    terms are combined in phi_tilde's order, so the bound equals the
    phi_tilde composition bit for bit.
    """
    if scheme.hypothesis_form == "cauchy":
        nx = _norm(mx)
        return 0.5 * _power_tilde(phi, scheme, nx, nx), nx
    if not scheme.contractive:
        nx, n3x = _norm(np.stack([mx, 3.0 * mx]))
        return (_power_tilde(phi, scheme, nx, nx) + _power_tilde(phi, scheme, nx, n3x)) / 3.0, nx
    nx3, nx = _norm(np.stack([mx / 3.0, mx]))
    return _power_tilde(phi, scheme, nx3, nx3) + _power_tilde(phi, scheme, nx3, nx), nx


def hyers_bound(phi: PowerType | Custom, scheme, x) -> float:
    """Stability bound at x for the scheme, assembled from phi_tilde.

    For power-type controls this reproduces the closed-form constants
      2 eps / |2 - 2^p| * ||x||^p            (doubling schemes)
      (3 + 3^p) / (3 - 3^p) eps ||x||^p      (tripling, p < 1)
      (3^p + 3) / (3^p - 3) eps ||x||^p      (contractive tripling, p > 3).
    A power-type bound is evaluated from one norm call over the distinct
    phi_tilde arguments, x alone or with 3x or x/3 (``_power_bound``), and
    equals the phi_tilde composition below bit for bit; other controls sum
    each phi_tilde term by term.
    """
    scheme = Scheme.parse(scheme)
    mx = as_matrix(x)
    if isinstance(phi, PowerType):
        return _power_bound(phi, scheme, mx)[0]
    zero = np.zeros_like(mx)
    if scheme.hypothesis_form == "cauchy":
        return 0.5 * phi_tilde(phi, scheme, mx, mx, zero)
    if not scheme.contractive:
        return (
            phi_tilde(phi, scheme, mx, -mx, zero) + phi_tilde(phi, scheme, -mx, 3.0 * mx, zero)
        ) / 3.0
    return phi_tilde(phi, scheme, mx / 3.0, -mx / 3.0, zero) + phi_tilde(
        phi, scheme, -mx / 3.0, mx, zero
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
    ||f(x) - base(x)|| <= amplitude * ||x||^p everywhere.  A call f(x)
    checks x once and takes its norms; ``_at`` is the kernel under it, on a
    checked stack whose norms are known, so a stage that hands one argument
    stack to f and h norms it once (``_image``).  Each slice's image depends
    on that slice and its norm alone, so it is the same in any stack.
    """

    base: LinearOperator
    amplitude: float
    exponent: float
    direction: np.ndarray
    alpha: float
    beta: float
    seed: int

    @property
    def dim(self) -> int:
        return self.base.dim

    def _at(self, mx: ComplexMatrix, nx) -> ComplexMatrix:
        """f at a checked stack mx of this dimension whose slice norms nx are known."""
        # the base first: its temporaries are freed before the defect's are
        # made, which keeps the peak memory of a large stack down
        image = self.base.apply(mx)
        if self.amplitude == 0.0:
            # base(x) + 0, not base(x): the sum turns a -0.0 entry into 0.0
            return image + np.zeros_like(mx)
        envelope = self.amplitude * norm_power(nx, self.exponent)
        phase = np.sin(self.alpha * nx + self.beta * np.trace(mx, axis1=-2, axis2=-1).real)
        return image + np.multiply.outer(envelope * phase, self.direction)

    def __call__(self, x) -> ComplexMatrix:
        mx = self.base._operand(x)
        return self._at(mx, _norm(mx))


def _image(g, mx: ComplexMatrix, norms) -> ComplexMatrix:
    """A map g at a checked stack mx whose slice norms are known.

    A ``PerturbedMap`` runs its kernel on those norms, after the dimension
    check its call makes; any other map is called as g(mx).
    """
    if not isinstance(g, PerturbedMap):
        return g(mx)
    if mx.shape[-1] != g.dim:
        raise DimensionMismatchError(f"dimension mismatch: {g.dim} vs {mx.shape[-1]}")
    return g._at(mx, norms)


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
    direction = raw / _norm(raw)
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


def verify_hypotheses(
    f,
    h,
    phi: PowerType,
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
    perturbation construction does not promise it stays below 1.  One norm
    call covers x, the pair argument (mu x + y, or half of it for jensen)
    and {x,y,z}; f is called once over all three and h once over the first
    two, on those norms.
    """
    _require_power(phi, "verify_hypotheses")
    form = _parse_form(form)
    x = _stack(probes, "verify_hypotheses")
    if len(mu_samples) == 0:
        raise ValueError("verify_hypotheses needs at least one unimodular sample")
    m = len(x)
    k = np.arange(m)
    iy = (k + max(1, m // 2) % m) % m
    iz = (k + max(1, m // 3) % m) % m
    y, z = x[iy], x[iz]
    mu = np.array([complex(mu_samples[i % len(mu_samples)]) for i in range(m)])
    mu = mu[:, None, None]
    # cauchy: g(mu x + y) - mu g(x) - g(y); jensen: 2 g((mu x + y) / 2) - mu g(x) - g(y)
    mid = mu * x + y
    pair = mid if form == "cauchy" else mid / 2.0
    # one norm call over (x, pair argument, {x,y,z}); f maps all three blocks
    # in one call and h the first two, both on these norms
    args = np.concatenate([x, pair, _cstar(x, y, z)])
    norms = _norm(args)
    images_f, images_h = _image(f, args, norms), _image(h, args[: 2 * m], norms[: 2 * m])
    # y and z permute the slices of x, so ||y|| = ||x||[iy], f(y) = f(x)[iy] and so on
    nx = norms[:m]
    denom_pair = phi.from_norms(nx, nx[iy], 0.0)
    denom_triple = phi.from_norms(nx, nx[iy], nx[iz])
    fx, fm, fp = images_f[:m], images_f[m : 2 * m], images_f[2 * m :]
    hx, hm = images_h[:m], images_h[m:]
    if form == "jensen":
        fm, hm = 2.0 * fm, 2.0 * hm
    fy, fz, hy, hz = fx[iy], fx[iz], hx[iy], hx[iz]
    # the maps' outputs are checked once, in the residual stack
    rf, rh, triple_res = spectral_norm(
        np.stack(
            [
                fm - mu * fx - fy,
                hm - mu * hx - hy,
                derivation_defect(fp, fx, fy, fz, hx, hy, hz),
            ]
        )
    )
    zero = denom_pair <= 0.0
    max_f = float(_ratio(rf, denom_pair, 0.0).max())
    max_h = float(_ratio(rh, denom_pair, 0.0).max())
    max_t = float(_ratio(triple_res, denom_triple, 0.0).max())
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
        passed=max_f <= 1.0 and max_h <= 1.0 and zero_abs <= ZERO_CONTROL_TOL,
    )


# ---------------------------------------------------------------------------
# direct method
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DirectMethodResult:
    """A_L on a (k, n, n) stack, the per-slice bound on ||A_L(x) - D(x)|| and ||x||."""

    value: ComplexMatrix
    l_used: int
    error_bound: np.ndarray = field(repr=False)
    norms: np.ndarray = field(repr=False)


def _guard_levels(scheme: Scheme, levels: Sequence[int], largest: float, cube_largest=None):
    """Raise before any map call if a level of a scan is negative or leaves the range.

    Level l scales arguments with entries up to ``largest`` by s = scale(l)
    and the result by 1/s; with ``cube_largest`` set, it also scales a
    triple product with entries up to that by scale(3 l).  ScaleOverflowError
    names the first level at which a scaled argument or a prefactor passes
    OVERFLOW_LIMIT.  Decided in log space: the scale itself may not be a float.
    """
    log_limit = math.log(OVERFLOW_LIMIT)

    def leaves(l: int, size: float) -> bool:
        log_s = (-l if scheme.contractive else l) * math.log(scheme.base)
        return -log_s > log_limit or (size > 0.0 and log_s + math.log(size) > log_limit)

    for l in levels:
        if l < 0:
            raise ValueError("l must be nonnegative")
        if leaves(l, largest) or (cube_largest is not None and leaves(3 * l, cube_largest)):
            raise ScaleOverflowError(
                f"level l = {l} exceeds the overflow limit {OVERFLOW_LIMIT:g}: "
                "a scaled argument or its prefactor 1/s leaves the range"
            )


def _level_groups(count: int, entries_per_level: int) -> list[slice]:
    """Consecutive runs of ``count`` levels within LEVEL_GROUP_ENTRIES, at least one level each."""
    size = max(1, LEVEL_GROUP_ENTRIES // entries_per_level)
    return [slice(i, i + size) for i in range(0, count, size)]


def approximants(f, scheme, x, levels: Sequence[int]) -> np.ndarray:
    """A_l(x) = f(s x) / s with s = scheme.scale(l) for each level, one f call per group.

    Every level is guarded before f is called (``_guard_levels``).  Returns
    shape (len(levels), *x.shape).
    """
    scheme = Scheme.parse(scheme)
    if len(levels) == 0:
        raise ValueError("approximants needs at least one level")
    return _approximants(f, scheme, as_matrix(x), levels)


def _approximants(f, scheme: Scheme, mx: ComplexMatrix, levels: Sequence[int]) -> np.ndarray:
    """``approximants`` on a checked stack and a nonempty level list; f's outputs are checked."""
    _guard_levels(scheme, levels, np.abs(mx).max())
    n = mx.shape[-1]
    probes = mx.reshape(-1, n, n)
    scales = np.array([scheme.scale(l) for l in levels])[:, None, None, None]
    out = []
    for group in _level_groups(len(scales), probes.size):
        s = scales[group]
        args = s * probes
        out.append(as_matrix(f(args.reshape(-1, n, n))).reshape(args.shape) / s)
    return np.concatenate(out).reshape(len(scales), *mx.shape)


def direct_method(
    f,
    scheme,
    phi: PowerType,
    xs,
    tol: float = 1e-9,
    l_max: int = 200,
) -> DirectMethodResult:
    """The direct method on a (k, n, n) stack, at the level the bound certifies.

    For f controlled by the power-type phi, ||A_L(x) - D(x)|| <= r^L
    hyers_bound(phi, scheme, x) with r = scheme.series_ratio(p) and D the
    exact limit.  L is the smallest level at which this is at most
    tol * max(1, ||x||) on every slice; A_L is evaluated once there,
    ``error_bound`` holds r^L hyers_bound(x) per slice and ``norms`` holds
    ||x||, the norms the bound was taken from.  Raises
    ConvergenceError, naming L, r and the limit, when L exceeds l_max or its
    scale would leave OVERFLOW_LIMIT, and naming r when the bound overflows.
    """
    _require_power(phi, "direct_method")
    scheme = Scheme.parse(scheme)
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    xs = _stack(xs, "direct_method")
    # r^L need <= 1 from L = log(need) / log(1 / r) on, need = max(bound / target);
    # log(need) is a difference of logarithms, as need overflows at a huge eps
    # before the bound does, and a zero bound has log -inf; the float test
    # settles rounding
    with np.errstate(over="ignore", divide="ignore"):
        bound, norms = _power_bound(phi, scheme, xs)
        target = tol * np.maximum(1.0, norms)
        log_need = float((np.log(bound) - np.log(target)).max())
    r = scheme.series_ratio(phi.p)
    if log_need == math.inf:
        raise ConvergenceError(
            f"the stability bound at series ratio {r:.6g} overflows: no level certifies tol"
        )
    level = math.ceil(log_need / -math.log(r)) if log_need > 0.0 else 0
    while level > 0 and (r ** (level - 1) * bound <= target).all():
        level -= 1
    while not (r**level * bound <= target).all():
        level += 1
    where = f"certified level L = {level} at series ratio {r:.6g}"
    if level > l_max:
        raise ConvergenceError(f"{where} exceeds l_max = {l_max}")
    try:
        value = _approximants(f, scheme, xs, [level])[0]
    except ScaleOverflowError:
        raise ConvergenceError(
            f"{where} scales by {scheme.base}^{-level if scheme.contractive else level}, "
            f"beyond the overflow limit {OVERFLOW_LIMIT:g}"
        ) from None
    return DirectMethodResult(value, level, r**level * bound, norms)


def recover_linear_map(
    f,
    scheme,
    phi: PowerType,
    tol: float = 1e-9,
    l_max: int = 200,
) -> tuple[Tabulated, int]:
    """Recover the exact linear map behind f, certified to tol, and the level used.

    One ``direct_method`` call evaluates the matrix units and
    CERT_PROBE_COUNT random certificate probes at one certified level L;
    the units tabulate the map.  If the limit is linear, the tabulated map
    and the direct value at a probe x differ by at most
    sum_ij |x_ij| err(E_ij) + err(x), with err the per-slice error bounds;
    the certificate allows that plus tol * max(1, ||x||), the requested
    accuracy, which also covers round-off when the bounds vanish (eps = 0).
    """
    scheme = Scheme.parse(scheme)
    dim = f.dim
    basis = np.stack(matrix_basis(dim))
    seed = getattr(f, "seed", 0)
    probes = np.stack(
        make_probes(dim, CERT_PROBE_COUNT, rng_for(seed, ROLE_RECOVERY), 1e-2, 1e1)
    )
    run = direct_method(f, scheme, phi, np.concatenate([basis, probes]), tol=tol, l_max=l_max)
    units, directs = run.value[: len(basis)], run.value[len(basis) :]
    err_units, err_probes = run.error_bound[: len(basis)], run.error_bound[len(basis) :]
    recovered = Tabulated(_vec(units).T)
    gaps = _norm(recovered.apply(probes) - directs)
    norms = run.norms[len(basis) :]
    # basis order is vec's column-stacking order
    allowance = np.abs(_vec(probes)) @ err_units + err_probes + tol * np.maximum(1.0, norms)
    worst = int(np.argmax(gaps - allowance))
    if gaps[worst] > allowance[worst]:
        raise LinearityCertificationError(
            f"recovered map failed linearity certification at level L = {run.l_used}: "
            f"probe {worst} (norm {norms[worst]:.3e}) disagrees with its direct value "
            f"by {gaps[worst]:.3e}, beyond the allowance {allowance[worst]:.3e}",
            worst_probe=probes[worst],
            index=worst,
            norm=float(norms[worst]),
            residual=float(gaps[worst]),
            allowance=float(allowance[worst]),
            level=run.l_used,
        )
    return recovered, run.l_used


# ---------------------------------------------------------------------------
# certificates on recovered maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundReport:
    """Per-probe comparison of the actual defect against the bound."""

    rows: list[list[float]]  # [norm_x, bound, error, ratio] per probe
    max_ratio: float
    slack: float
    passed: bool


def verify_stability_bound(
    pairs: Sequence[tuple],
    phi: PowerType,
    scheme,
    probes: Sequence,
) -> tuple[BoundReport, ...]:
    """Check ||f(x) - recovered(x)|| <= (1 + BOUND_SLACK) hyers_bound(phi, scheme, x) on probes.

    One report per (f, recovered) pair in ``pairs``, against one power-type
    bound on the whole stack, whose norms the rows and the perturbed maps
    reuse.  The errors of every pair are normed in one call, which checks
    the maps' outputs.
    """
    _require_power(phi, "verify_stability_bound")
    scheme = Scheme.parse(scheme)
    x = _stack(probes, "verify_stability_bound")
    bounds, norms = _power_bound(phi, scheme, x)
    errors = spectral_norm(
        np.stack([_image(f, x, norms) - recovered(x) for f, recovered in pairs])
    )
    ratios = _ratio(errors, bounds, np.where(errors == 0.0, 0.0, math.inf))
    reports = []
    for error, ratio in zip(errors, ratios):
        rows = np.array([norms, bounds, error, ratio]).T.tolist()
        max_ratio = float(ratio.max())
        reports.append(BoundReport(rows, max_ratio, BOUND_SLACK, max_ratio <= 1.0 + BOUND_SLACK))
    return tuple(reports)


@dataclass(frozen=True)
class HomogeneityReport:
    """Unimodular homogeneity of a map over probe and scalar samples."""

    max_residual: float
    zero_residual: float
    threshold: float
    passed: bool


def verify_s1_homogeneity(op, probes: Sequence, mu_samples: Sequence[complex]) -> HomogeneityReport:
    """Max of ||op(mu x) - mu op(x)|| / max(1, ||x||), plus the zero case, to HOMOGENEITY_TOL.

    One op call over (mu x for every scalar and probe, x, 0), one norm call.
    """
    if len(probes) == 0 or len(mu_samples) == 0:
        raise ValueError("verify_s1_homogeneity needs probes and scalar samples")
    x = _stack(probes, "verify_s1_homogeneity")
    k, n = len(x), x.shape[-1]
    mu = np.array([complex(m) for m in mu_samples])[:, None, None, None]
    images = op(np.concatenate([(mu * x).reshape(-1, n, n), x, np.zeros_like(x[:1])]))
    op_mu_x, op_x = images[: -k - 1].reshape(len(mu), k, n, n), images[-k - 1 : -1]
    norms = spectral_norm(np.concatenate([(op_mu_x - mu * op_x).reshape(-1, n, n), x, images[-1:]]))
    res = norms[: -k - 1].reshape(len(mu), k) / np.maximum(1.0, norms[-k - 1 : -1])
    worst = float(res.max())
    zero_residual = float(norms[-1])
    passed = worst <= HOMOGENEITY_TOL and zero_residual <= HOMOGENEITY_TOL
    return HomogeneityReport(worst, zero_residual, HOMOGENEITY_TOL, passed)


def unimodular_average_decomposition(gamma: float) -> tuple[UnimodularScalar, UnimodularScalar]:
    """Write gamma in [0, 1) as the average of two conjugate unimodular scalars."""
    g = float(gamma)
    if not 0.0 <= g < 1.0:
        raise ValueError(f"gamma must lie in [0, 1), got {g!r}")
    mu = complex(g, math.sqrt(1.0 - g * g))
    return UnimodularScalar(mu), UnimodularScalar(mu.conjugate())


def _integer_and_pair(part: float):
    """floor(part) and the unimodular pair averaging to its fraction (none for 0)."""
    n = math.floor(part)
    frac = part - n
    return n, (tuple(mu.value for mu in unimodular_average_decomposition(frac)) if frac > 0.0 else ())


def complex_homogeneity_via_decomposition(op, lams: Sequence[complex], x) -> CheckResult:
    """Compare op(lam x) against the reassembly used in the linearity proof, for each lam.

    lam = a1 + i a2 is split into integer and fractional parts; fractional
    parts become averages of two unimodular scalars, so the route value
    needs only additivity and unimodular homogeneity of op:

        route = n1 op(x) + (op(m11 x) + op(m12 x)) / 2
              + i * (n2 op(x) + (op(m21 x) + op(m22 x)) / 2)

    One op call over x and every scaled copy the lams need, one norm call.
    Returns, one row per lam, the residual against op(lam x), normalized by
    max(1, |lam| ||x||), against HOMOGENEITY_TOL; on a stack of x, one
    residual per slice.
    """
    if len(lams) == 0:
        raise ValueError("complex_homogeneity_via_decomposition needs at least one lambda")
    mx = as_matrix(x)
    lams = [complex(lam) for lam in lams]
    # per lam, its real and imaginary parts as (integer part, unimodular pair or ())
    splits = [(_integer_and_pair(lam.real), _integer_and_pair(lam.imag)) for lam in lams]
    # op's arguments after x, in the order the loop below reads their images
    scalars = []
    for lam, parts in zip(lams, splits):
        scalars += [lam, *(mu for _, pair in parts for mu in pair)]
    images = iter(op(np.stack([mx, *(s * mx for s in scalars)])))
    image, gaps = next(images), []
    for parts in splits:
        direct, route = next(images), np.zeros_like(mx)
        for factor, (n, pair) in zip((1.0 + 0.0j, 1.0j), parts):
            contribution = n * image
            if pair:
                contribution = contribution + (next(images) + next(images)) / 2.0
            route = route + factor * contribution
        gaps.append(direct - route)
    norms = spectral_norm(np.stack([mx, *gaps]))
    size = np.array([abs(lam) for lam in lams]).reshape((-1,) + (1,) * (norms.ndim - 1))
    residual = norms[1:] / np.maximum(1.0, size * norms[0])
    return CheckResult(residual, HOMOGENEITY_TOL, residual <= HOMOGENEITY_TOL)


def derivation_limit_sequence(f, h, scheme, triples: Sequence, levels: Sequence[int]) -> np.ndarray:
    """Derivation-limit residuals, one row per level and one column per triple.

    With s = scheme.scale(l) and s3 = scheme.scale(3l) the residual of the
    triple (x, y, z) at level l is

      || f(s3 {x,y,z}) - {f(s x) h(s y) h(s z)}
         - {h(s x) f(s y) h(s z)} - {h(s x) h(s y) f(s z)} || / s3.

    Each map is called once per group of levels, over every scaled argument
    it is needed at, and the group's arguments are normed once: h takes the
    norms of f's x, y and z.  Raises SchemeError for a scheme without
    derivation-sequence levels (cauchy2-contractive); every level is guarded
    before f is called (``_guard_levels``).
    """
    xyz = _stack(triples, "derivation_limit_sequence", inner=3)
    scheme = Scheme.parse(scheme)
    scheme.derivation_levels()  # SchemeError where the residual is undefined
    if len(levels) == 0:
        raise ValueError("derivation_limit_sequence needs at least one level")
    mx, my, mz = xyz[:, 0], xyz[:, 1], xyz[:, 2]
    txyz = _cstar(mx, my, mz)
    _guard_levels(scheme, levels, np.abs(xyz).max(), cube_largest=max(np.abs(txyz).max(), 1.0))
    n = mx.shape[-1]
    # (4, k, n, n): the product, then x, y, z
    unscaled = np.stack([txyz, mx, my, mz])
    # per level, the product scales by s3 = scale(3l) and x, y, z by s = scale(l)
    factors = np.array([[scheme.scale(3 * l)] + 3 * [scheme.scale(l)] for l in levels])
    out = []
    for group in _level_groups(len(factors), unscaled.size):
        # (4, levels, k, n, n), slot by slot, so x, y and z are the tail h maps
        args = factors[group].T[:, :, None, None, None] * unscaled[:, None]
        flat = args.reshape(-1, n, n)
        norms = _norm(flat)
        tail = len(flat) // 4
        fp, fx, fy, fz = as_matrix(_image(f, flat, norms)).reshape(args.shape)
        hx, hy, hz = as_matrix(_image(h, flat[tail:], norms[tail:])).reshape(args[1:].shape)
        residual = _norm(derivation_defect(fp, fx, fy, fz, hx, hy, hz))
        out.append((1.0 / factors[group, :1]) * residual)
    return np.concatenate(out)


@dataclass(frozen=True)
class DerivationCertificate:
    """Worst relative three-slot defect of a recovered pair."""

    max_relative_residual: float
    worst_index: int
    threshold: float
    passed: bool


def certify_theta_derivation(d_hat, theta_hat, triples: Sequence) -> DerivationCertificate:
    """Check the derivation identity of (d_hat, theta_hat) on probe triples, to DERIVATION_TOL."""
    t = _stack(triples, "certify_theta_derivation", inner=3)
    x, y, z = t[:, 0], t[:, 1], t[:, 2]
    nx, ny, nz = _norm(t).T
    scale = np.maximum(1.0, nx * ny * nz)
    values = theta_derivation_residual(d_hat, theta_hat, x, y, z) / scale
    worst_value = float(values.max())
    # the first index within 4 eps (relative) of the maximum: a tie at
    # round-off names the same triple under any numerically equivalent kernel
    tie = worst_value * (1.0 - 4.0 * np.finfo(float).eps)
    worst = int(np.argmax(values >= tie))
    return DerivationCertificate(
        max_relative_residual=worst_value,
        worst_index=worst,
        threshold=DERIVATION_TOL,
        passed=worst_value <= DERIVATION_TOL,
    )


# ---------------------------------------------------------------------------
# convergence-rate estimation
# ---------------------------------------------------------------------------

def pooled_rate(levels: Sequence[int], values) -> tuple[float | None, int]:
    """Common geometric rate of several sequences, from one least-squares slope.

    ``values`` has one row per level and one column per sequence i, and the
    fit is log(value) = c_i + l log(rate); centring each sequence's levels
    on their mean removes the intercepts c_i.  Entries at or below
    ROUNDOFF_FLOOR are left out.  Returns the rate (None when no sequence
    keeps two levels) and how many sequences do.
    """
    values = np.asarray(values, dtype=float)
    kept = values > ROUNDOFF_FLOOR
    l = np.where(kept, np.asarray(levels, dtype=float)[:, None], 0.0)
    count = kept.sum(axis=0)
    dl = np.where(kept, l - _ratio(l.sum(axis=0), count, 0.0), 0.0)
    spread = float((dl * dl).sum())
    used = int((count >= 2).sum())
    if spread == 0.0:
        return None, used
    return math.exp(float((dl * np.log(np.where(kept, values, 1.0))).sum()) / spread), used


@dataclass(frozen=True)
class RateEstimate:
    """Geometric rate of successive approximant differences.

    ``pooled_rate`` of ||A_l(x) - A_{l-1}(x)|| over the probes at levels
    first_level..last_level; probes_used counts the probes with at least
    two differences above the round-off floor.
    """

    rate: float | None
    first_level: int
    last_level: int
    probes_used: int


def estimate_convergence_rate(f, scheme, probes: Sequence) -> RateEstimate:
    """Rate of the approximant differences at the fixed RATE_LEVELS window."""
    x = _stack(probes, "estimate_convergence_rate")
    levels = range(RATE_LEVELS.start - 1, RATE_LEVELS.stop)
    values = _approximants(f, Scheme.parse(scheme), x, levels)
    rate, used = pooled_rate(RATE_LEVELS, _norm(np.diff(values, axis=0)))
    return RateEstimate(rate, RATE_LEVELS[0], RATE_LEVELS[-1], used)
