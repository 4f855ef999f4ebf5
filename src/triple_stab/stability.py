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

Each stage of a run, from the recovery to the rate fit, returns its whole
report section, verdict included: a dict under the report's key names of
Python floats, ints and bools, whatever the dtype.  The thresholds of its
checks sit here beside it.

Controls are power-type, the ones the paper's theorems use; ``phi_tilde``
and ``hyers_bound`` are closed forms, and ``hyers_series`` sums the Hyers
bound term by term as the reference they are held to.  Maps, controls and
certificates take (k, n, n) probe stacks: every stage makes one call per
map and per check over all of its probes, and a level scan stacks its
levels too, in one call per map.  A stage takes the norms of its stacks in
one norm call (the ``linalg._norm`` kernel), and the probe norms behind a
power-type bound are reused by the direct method's target, the linearity
certificate and the bound table.  Where a stage hands one argument stack to
both perturbed maps, it norms the stack once and both maps run their
known-norm kernel on those norms (``_image``).  A level scan hands a
perturbed map its unscaled stack, the stack's norms and one scale per
level: the kernel applies the base, and takes the traces, once for all the
levels and scales them by s.  At base 2 the scaled images are f(s x) bit
for bit; at base 3 they differ from it at round-off (``PerturbedMap``).
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .linalg import (
    ComplexMatrix,
    _norm,
    as_matrix,
    require_dim,
    same_dim,
    spectral_norm,
)
from .sampling import ROLE_PERTURBATION, ROLE_RECOVERY, make_probes, random_matrix, rng_for
from .triple import (
    LinearOperator,
    Tabulated,
    _cstar,
    _vec,
    _within,
    derivation_defect,
    matrix_basis,
    theta_derivation_residual,
)

# scaled arguments beyond this entry magnitude abort the iteration
OVERFLOW_LIMIT = 1e150
# hyers_series stops once the geometric tail after a term is at most this
# times its partial sum
SERIES_TOL = 1e-15
# random probes of the linearity certificate in recovery
CERT_PROBE_COUNT = 24
# residual allowed at hypothesis samples where the control vanishes
ZERO_CONTROL_TOL = 1e-10
# thresholds of the certificates on a recovered map
BOUND_SLACK = 1e-9
HOMOGENEITY_TOL = 1e-6
# the homogeneity stage's S1 check takes the first probes, and its complex
# check these lambdas, each under the label of its check row
S1_PROBE_COUNT = 8
COMPLEX_LAMBDAS = (
    (complex(2.0, 0.0), "2"),
    (complex(0.0, 1.0), "i"),
    (complex(0.9, 2.3), "0.9+2.3i"),
)
DERIVATION_TOL = 1e-6
# largest entry of a recovered map's table minus the exact map's
RECOVERY_ERROR_TOL = 1e-6
# a measured decay rate passes within this distance of the expected one
RATE_WINDOW = 0.05
# the derivation sequence's decrease and tail-rate tests start at this level
SEQUENCE_STRICT_AFTER = 5
# differences and residuals this small sit on the floating-point floor of
# their computation; rate fits and decrease checks leave them out
ROUNDOFF_FLOOR = 1e-13
# the approximant-rate fit uses ||A_l - A_{l-1}|| at these levels
RATE_LEVELS = range(3, 13)


class SummabilityError(ValueError):
    """The scheme's weighted series does not converge for this control."""


class SchemeError(ValueError):
    """The requested operation is not defined for this scheme."""


class ScaleOverflowError(RuntimeError):
    """A scaled argument left the representable range."""


class ConvergenceError(RuntimeError):
    """No certified level: it exceeds l_max, its scale or the bound leaves float range."""


class LinearityCertificationError(RuntimeError):
    """A recovered map failed its linearity certificate; ``failure``, a section dict, says where."""

    def __init__(self, message: str, failure: dict):
        super().__init__(message)
        self.failure = failure


class Scheme(enum.Enum):
    """Iteration schemes, one row of facts each; values are the config and CLI tags.

    Approximants, bound series, gates and Hyers terms all derive from the row and scale(l).
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
        # the Hyers bound at x is the sum of phi_tilde(a x, b x, 0) over these
        # terms (a, b), each a multiple (num, den) of x, over the divisor
        if base == 2:
            self.hyers_terms, self.hyers_divisor = (((1, 1), (1, 1)),), 2
        elif not contractive:
            self.hyers_terms, self.hyers_divisor = (((1, 1), (-1, 1)), ((-1, 1), (3, 1))), 3
        else:
            self.hyers_terms, self.hyers_divisor = (((1, 3), (-1, 3)), ((-1, 3), (1, 1))), 1
        # the distinct sizes (|num|, den) in order of appearance, which a
        # power-type bound norms once, and each term's two as indices into them
        sizes = [[(abs(num), den) for num, den in term] for term in self.hyers_terms]
        self.hyers_sizes = list(dict.fromkeys(size for term in sizes for size in term))
        self.hyers_index = [[self.hyers_sizes.index(size) for size in term] for term in sizes]

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
        return self.from_norms(*map(_norm, same_dim(x, y, z)))

    def from_norms(self, nx, ny, nz):
        """phi at arguments of norms nx, ny and nz: 0 at eps = 0, where ||x||^p may overflow."""
        if self.eps == 0.0:
            return 0.0 * (nx + ny + nz)
        return self.eps * (
            norm_power(nx, self.p) + norm_power(ny, self.p) + norm_power(nz, self.p)
        )


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

def phi_tilde(phi: PowerType, scheme, x, y, z) -> float:
    """Scheme-weighted series of the control function at (x, y, z), in closed form."""
    return _power_tilde(phi, Scheme.parse(scheme), *map(_norm, same_dim(x, y, z)))


def _power_tilde(phi: PowerType, scheme: Scheme, nx, ny, nz=0.0):
    """phi_tilde from its arguments' norms: phi r^j0 / (1 - r), r the series ratio, j0 its start."""
    if not scheme.power_gate_ok(phi.p):
        raise SummabilityError(scheme.gate_message(phi.p))
    r = scheme.series_ratio(phi.p)
    return phi.from_norms(nx, ny, nz) * r**scheme.series_start / (1.0 - r)


def _require_power(phi, caller: str) -> None:
    """TypeError unless phi is the power-type control the stages price with."""
    if not isinstance(phi, PowerType):
        raise TypeError(f"{caller} needs a PowerType control, got {type(phi).__name__}")


def _multiple(mx, num: int, den: int):
    """mx num / den with no operation where num or den is 1: x, -x, 3x, x/3 or -x/3."""
    out = mx if num == 1 else num * mx
    return out if den == 1 else out / den


def _power_bound(phi: PowerType, scheme: Scheme, mx: ComplexMatrix):
    """hyers_bound of a power-type control at a checked mx, and ||mx||, from one norm call.

    The call norms each distinct size of x in the scheme's Hyers terms
    once: x (doubling), x and 3x (tripling), x/3 and x (contractive
    tripling).  ||-y|| = ||y|| and ||0|| = 0 hold bit for bit, and the
    terms are summed in phi_tilde's order, so the bound equals the
    phi_tilde composition bit for bit.
    """
    norms = _norm(np.stack([_multiple(mx, *size) for size in scheme.hyers_sizes]))
    bound = sum(_power_tilde(phi, scheme, norms[i], norms[j]) for i, j in scheme.hyers_index)
    return bound / scheme.hyers_divisor, norms[scheme.hyers_sizes.index((1, 1))]


def hyers_bound(phi: PowerType, scheme, x) -> float:
    """Stability bound at x: the sum of the scheme's phi_tilde terms over its divisor.

    This reproduces the closed-form constants
      2 eps / |2 - 2^p| * ||x||^p            (doubling schemes)
      (3 + 3^p) / (3 - 3^p) eps ||x||^p      (tripling, p < 1)
      (3^p + 3) / (3^p - 3) eps ||x||^p      (contractive tripling, p > 3),
    from one norm call (``_power_bound``).  The terms are
    ``Scheme.hyers_terms``; ``hyers_series`` sums them term by term.
    """
    return _power_bound(phi, Scheme.parse(scheme), as_matrix(x))[0]


def hyers_series(phi: PowerType, scheme, x) -> float:
    """hyers_bound at x summed term by term: the reference its closed form is held to.

    Each Hyers term (u, v), two multiples of x, sums b^-j phi1(b^j u, b^j v, 0)
    from ``series_start`` (b^j and b^-j swap for a contractive scheme), with
    phi1 = phi / eps, so no term underflows at a tiny eps.  A series stops
    once the tail after a term t, t r / (1 - r) at the series ratio r, is at
    most SERIES_TOL times its partial sum on every slice of x, or raises
    SummabilityError where a scale, a scaled argument past OVERFLOW_LIMIT or
    eps times the partial sum leaves the float range.
    """
    scheme = Scheme.parse(scheme)
    mx = as_matrix(x)
    if not scheme.power_gate_ok(phi.p):
        raise SummabilityError(scheme.gate_message(phi.p))
    r = scheme.series_ratio(phi.p)
    # phi / eps; at eps = 0 the zero control, whose series is 0 from its first term
    unit = PowerType(float(phi.eps > 0.0), phi.p)
    total = 0.0
    for u, v in scheme.hyers_terms:
        pair = np.stack([_multiple(mx, *u), _multiple(mx, *v)])
        largest, partial = np.abs(pair).max(), 0.0
        for j in itertools.count(scheme.series_start):
            try:
                weight, s = scheme.scale(-j), scheme.scale(j)
            except OverflowError:
                weight = s = math.inf
            term = math.inf
            if s * largest <= OVERFLOW_LIMIT:
                term = weight * unit.from_norms(*_norm(s * pair), 0.0)
            partial += term
            # b^j is a float power: it overflows at j = 1024 (b = 2) and
            # j = 647 (b = 3), so a series that has not converged ends here
            if not np.isfinite(phi.eps * (total + partial)).all():
                raise SummabilityError(
                    f"series for scheme {scheme.value} left the representable range at j = {j}"
                )
            if np.all(term * r / (1.0 - r) <= SERIES_TOL * partial):
                break
        total += partial
    return phi.eps * total / scheme.hyers_divisor


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
    stack to f and h norms it once (``_image``).

    The kernel also takes a scale s and gives f(s x) from the unscaled
    stack: s base(x) plus the defect at norm s ||x|| and trace s Re tr x.
    So a level scan applies the base and takes the norms and traces once,
    in one kernel call over all its levels, not once per level.  At s = 1
    this is f(x) bit for bit.  At s = 2^l it is f(s x) bit for bit too: a
    power of two scales the base's slice products, the norm and the trace
    without rounding.  At s = 3^l the call rounds s x before the map and
    the kernel rounds s base(x), s ||x|| and s Re tr x after it, so the two
    differ at round-off, most in the sine, whose argument of size
    alpha s ||x|| multiplies its rounding.
    Each slice's image depends on that slice, its norm and its scale alone,
    so it is the same in any stack.
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

    def _at(self, mx: ComplexMatrix, nx, s=1.0) -> ComplexMatrix:
        """f(s mx) at a checked stack mx of this dimension whose slice norms nx are known.

        s broadcasts against nx, so the result has one slice per entry of
        s * nx; it is computed from mx, nx and Re tr mx (see the class
        docstring).
        """
        s = np.asarray(s)
        # the base first: its temporaries are freed before the defect's are
        # made, which keeps the peak memory of a large stack down
        image = s[..., None, None] * self.base.apply(mx)
        if self.amplitude == 0.0:
            # s base(x) + 0, not s base(x): the sum turns a -0.0 entry into 0.0
            return image + np.zeros_like(image)
        norms = s * nx
        envelope = self.amplitude * norm_power(norms, self.exponent)
        trace = s * np.trace(mx, axis1=-2, axis2=-1).real
        phase = np.sin(self.alpha * norms + self.beta * trace)
        image += np.multiply.outer(envelope * phase, self.direction)
        return image

    def __call__(self, x) -> ComplexMatrix:
        mx = self.base._operand(x)
        return self._at(mx, _norm(mx))


def _image(g, mx: ComplexMatrix, norms, s=1.0) -> ComplexMatrix:
    """A map g at s mx, for a checked stack mx whose slice norms are known.

    The scale s broadcasts against the norms.  A ``PerturbedMap`` runs its
    kernel on the unscaled mx, its norms and s, after the dimension check
    its call makes.  Any other map is called once on the scaled stack
    s mx, flattened to (k, n, n), and its output is given that stack's
    shape; the caller checks the output, whichever the map.
    """
    if not isinstance(g, PerturbedMap):
        args = np.asarray(s)[..., None, None] * mx
        return np.reshape(g(args.reshape(-1, *mx.shape[-2:])), args.shape)
    require_dim(g.dim, mx.shape[-1])
    return g._at(mx, norms, s)


def perturbation_amplitude(eps: float, p: float, form: str) -> float:
    """Largest defect amplitude provably compatible with the control.

    With K_p = max(1, 2^(p-1)) the triangle inequality gives amplitude
    eps / (K_p + 1) for the cauchy form and eps / (2^(1-p) K_p + 1) for the
    jensen form.
    """
    form = _parse_form(form)
    try:
        k_p = max(1.0, 2.0 ** (p - 1.0))
    except OverflowError:
        raise ValueError(f"p = {p:g} leaves the float range in the constant 2^(p-1)") from None
    if form == "cauchy":
        return eps / (k_p + 1.0)
    return eps / (2.0 ** (1.0 - p) * k_p + 1.0)


def perturbation_decay_rate(scheme, p: float) -> float:
    """Per-level decay of approximant differences for the sinusoidal defects.

    Expansive schemes sample the defect at arguments b^l x, where the
    oscillation stays order one and only the power envelope matters, so
    differences shrink by b^(p-1) per level.  Contractive schemes sample it
    at x / b^l, deep in the linear range of the sine, which contributes one
    extra factor 1/b on top of the envelope and gives b^(-p).
    """
    scheme = Scheme.parse(scheme)
    return scheme.scale(p) if scheme.contractive else scheme.series_ratio(p)


def make_perturbation(
    base: LinearOperator,
    eps: float,
    p: float,
    form: str,
    seed: int,
) -> PerturbedMap:
    """Seeded perturbation of an exact map, certified against PowerType(eps, p)."""
    PowerType(eps, p)  # the control's own checks on eps and p
    form = _parse_form(form)
    rng = rng_for(seed, ROLE_PERTURBATION)
    raw = random_matrix(rng, base.dim)
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

def verify_hypotheses(
    f,
    h,
    phi: PowerType,
    form: str,
    probes: Sequence,
    mu_samples: Sequence[complex],
) -> dict:
    """Sampled confirmation of the functional inequalities behind a run: its hypotheses section.

    For each sample the additive (or jensen) residual of f and of h is
    divided by phi(x, y, 0); by construction of make_perturbation these
    ratios never exceed 1.  The three-slot product residual

        || f({x,y,z}) - {f(x) h(y) h(z)} - {h(x) f(y) h(z)} - {h(x) h(y) f(z)} ||

    is divided by phi(x, y, z) and reported without a pass threshold; the
    perturbation construction does not promise it stays below 1.  Samples
    where the control vanishes are counted and reported through their
    largest absolute residual, which must stay within ZERO_CONTROL_TOL.
    One norm call covers x, the pair argument (mu x + y, or half of it for
    jensen) and {x,y,z}; f is called once over all three and h once over
    the first two, on those norms.
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
    zero_abs = float(np.where(zero, np.maximum(rf, rh), 0.0).max())
    passed = max_f <= 1.0 and max_h <= 1.0 and zero_abs <= ZERO_CONTROL_TOL
    return {
        "form": form, "samples": m, "max_ratio_f": max_f, "max_ratio_h": max_h,
        "max_triple_ratio": max_t, "zero_control_samples": int(zero.sum()),
        "max_zero_control_residual": zero_abs, "passed": passed,
    }


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


def approximants(f, scheme, x, levels: Sequence[int]) -> np.ndarray:
    """A_l(x) = f(s x) / s with s = scheme.scale(l) for each level, in one f call.

    A ``PerturbedMap`` is evaluated from the unscaled x and its norms
    (``_image``).  Every level is guarded before f is called
    (``_guard_levels``).  Returns shape (len(levels), *x.shape).
    """
    scheme = Scheme.parse(scheme)
    if len(levels) == 0:
        raise ValueError("approximants needs at least one level")
    mx = as_matrix(x)
    return _approximants(f, scheme, mx, levels, _norm(mx))


def _approximants(
    f, scheme: Scheme, mx: ComplexMatrix, levels: Sequence[int], norms
) -> np.ndarray:
    """``approximants`` on a checked stack of known slice norms and a nonempty level list.

    f's outputs are checked.  All levels are one ``_image`` call on the
    unscaled probes, their norms and one scale per level.
    """
    _guard_levels(scheme, levels, np.abs(mx).max())
    n = mx.shape[-1]
    probes, norms = mx.reshape(-1, n, n), np.reshape(norms, -1)
    s = np.array([scheme.scale(l) for l in levels])[:, None]
    out = as_matrix(_image(f, probes, norms, s)) / s[..., None, None]
    return out.reshape(len(s), *mx.shape)


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
    scale would leave OVERFLOW_LIMIT, and naming r when the bound overflows
    or is NaN.
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
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        bound, norms = _power_bound(phi, scheme, xs)
        target = tol * np.maximum(1.0, norms)
        log_need = float((np.log(bound) - np.log(target)).max())
    r = scheme.series_ratio(phi.p)
    # a NaN bound (inf * 0 once r underflows) would keep the level search below going
    if not log_need < math.inf:
        what = "is NaN" if math.isnan(log_need) else "overflows"
        raise ConvergenceError(
            f"the stability bound at series ratio {r:.6g} {what}: no level certifies tol"
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
        value = _approximants(f, scheme, xs, [level], norms)[0]
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
    A failure names the worst probe and, from one more evaluation of it,
    ||A_L(x) - A_{L-1}(x)|| (None at L = 0), under the report's key names.
    """
    scheme = Scheme.parse(scheme)
    basis = matrix_basis(f.dim)
    seed = getattr(f, "seed", 0)
    probes = make_probes(f.dim, CERT_PROBE_COUNT, rng_for(seed, ROLE_RECOVERY), 1e-2, 1e1)
    run = direct_method(f, scheme, phi, np.concatenate([basis, probes]), tol=tol, l_max=l_max)
    units, directs = run.value[: len(basis)], run.value[len(basis) :]
    err_units, err_probes = run.error_bound[: len(basis)], run.error_bound[len(basis) :]
    recovered = Tabulated(_vec(units).T)
    gaps = _norm(recovered.apply(probes) - directs)
    norms = run.norms[len(basis) :]
    # basis order is vec's column-stacking order
    allowance = np.abs(_vec(probes)) @ err_units + err_probes + tol * np.maximum(1.0, norms)
    worst, level = int(np.argmax(gaps - allowance)), run.l_used
    if gaps[worst] > allowance[worst]:
        failure = {
            "probe_index": worst, "probe_norm": float(norms[worst]), "gap": float(gaps[worst]),
            "allowance": float(allowance[worst]), "level": level, "last_difference": None,
        }
        if level > 0:
            # cast to the working dtype, as direct_method cast the probe for A_L
            x = as_matrix(probes[[worst]])
            previous = _approximants(f, scheme, x, [level - 1], norms[[worst]])
            failure["last_difference"] = _norm(directs[worst] - previous[0, 0])
        raise LinearityCertificationError(
            f"recovered map failed linearity certification at level L = {level}: "
            f"probe {worst} (norm {failure['probe_norm']:.3e}) disagrees with its direct value "
            f"by {failure['gap']:.3e}, beyond the allowance {failure['allowance']:.3e}",
            failure,
        )
    return recovered, level


def recover_maps(f, h, exact, phi: PowerType, scheme, tol: float, l_max: int) -> tuple:
    """The recovery section, then d_hat from f and theta_hat from h (None, None after a failure).

    Each map is recovered by ``recover_linear_map`` and measured against its
    exact map in ``exact``, (D, theta), by the largest entrywise difference of
    their tables, to RECOVERY_ERROR_TOL.  ``error`` records a ConvergenceError
    or a failed linearity certificate, whose map ``linearity_failure`` names.
    """
    scheme = Scheme.parse(scheme)
    levels, recovered = {}, []
    section = {
        "error": None, "levels": levels, "series_ratio": scheme.series_ratio(phi.p),
        "d_entrywise_error": None, "theta_entrywise_error": None,
        "tolerance": RECOVERY_ERROR_TOL, "passed": False, "converged": False,
    }
    try:
        for name, g in (("d", f), ("theta", h)):
            tabulated, levels[name] = recover_linear_map(g, scheme, phi, tol, l_max)
            recovered.append(tabulated)
    except (ConvergenceError, LinearityCertificationError) as exc:
        section["error"] = str(exc)
        if isinstance(exc, LinearityCertificationError):
            # levels names the maps recovered before the one that failed
            section["linearity_failure"] = {"map": "theta" if levels else "d", **exc.failure}
        return section, None, None
    # both sides were checked by their constructors
    for name, hat, g in zip(levels, recovered, exact):
        section[f"{name}_entrywise_error"] = float(np.abs(hat.coeffs - g.to_tabulated().coeffs).max())
    worst = max(section["d_entrywise_error"], section["theta_entrywise_error"])
    section.update(converged=True, passed=worst <= RECOVERY_ERROR_TOL)
    return section, *recovered


# ---------------------------------------------------------------------------
# certificates on recovered maps
# ---------------------------------------------------------------------------

def verify_stability_bound(
    pairs: Sequence[tuple],
    phi: PowerType,
    scheme,
    probes: Sequence,
) -> tuple[dict, ...]:
    """Check ||f(x) - recovered(x)|| <= (1 + BOUND_SLACK) hyers_bound(phi, scheme, x) on probes.

    One bound section per (f, recovered) pair in ``pairs``, whose ``rows``
    hold [norm_x, bound, error, ratio] per probe, against one power-type
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
    # a report holds floats, whatever the working dtype
    rows = np.stack(np.broadcast_arrays(norms, bounds, errors, ratios), axis=-1).astype(float)
    return tuple(
        {"rows": r.tolist(), "max_ratio": m, "slack": BOUND_SLACK, "passed": m <= 1.0 + BOUND_SLACK}
        for r, m in zip(rows, ratios.max(axis=1).astype(float).tolist())
    )


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


def _split(stack: np.ndarray, parts: list) -> list:
    """stack cut into pieces as long as the items of parts, in order."""
    return np.split(stack, np.cumsum([len(p) for p in parts[:-1]]))


def verify_homogeneity(op, probes: Sequence, mu_samples: Sequence[complex]) -> dict:
    """The homogeneity section: S1 and complex homogeneity of op, to HOMOGENEITY_TOL.

    ``s1`` holds the max of ||op(mu x) - mu op(x)|| / max(1, ||x||) over
    every scalar and the first S1_PROBE_COUNT probes, and ``zero_residual``,
    ||op(0)||.  ``complex`` holds one entry per COMPLEX_LAMBDAS lambda, at
    the first, middle and last probe.  lam = a1 + i a2 is split into integer
    and fractional parts; fractional parts become averages of two unimodular
    scalars, so the route value needs only additivity and unimodular
    homogeneity of op, as in the linearity proof:

        route = n1 op(x) + (op(m11 x) + op(m12 x)) / 2
              + i * (n2 op(x) + (op(m21 x) + op(m22 x)) / 2)

    An entry's residual is ||op(lam x) - route|| / max(1, |lam| ||x||), worst
    over the three probes.  One op call over every argument (mu x, x, 0, the
    three probes and their scaled copies), one norm call.
    """
    if len(mu_samples) == 0:
        raise ValueError("verify_homogeneity needs at least one unimodular sample")
    x = _stack(probes, "verify_homogeneity")
    xs, xc = x[:S1_PROBE_COUNT], x[[0, len(x) // 2, -1]]
    mu = np.array([complex(m) for m in mu_samples])[:, None, None, None]
    lams = [lam for lam, _ in COMPLEX_LAMBDAS]
    # per lam, its real and imaginary parts as (integer part, unimodular pair or ())
    splits = [(_integer_and_pair(lam.real), _integer_and_pair(lam.imag)) for lam in lams]
    # op's arguments, in the order the lines below read their images
    args = [(mu * xs).reshape(-1, *xs.shape[1:]), xs, np.zeros_like(xs[:1]), xc]
    for lam, parts in zip(lams, splits):
        args += [lam * xc, *(m * xc for _, pair in parts for m in pair)]
    op_mu_x, op_x, op_0, image, *scaled = _split(op(np.concatenate(args)), args)
    scaled, gaps = iter(scaled), []
    for parts in splits:
        direct, route = next(scaled), np.zeros_like(xc)
        for factor, (whole, pair) in zip((1.0 + 0.0j, 1.0j), parts):
            contribution = whole * image
            if pair:
                contribution = contribution + (next(scaled) + next(scaled)) / 2.0
            route = route + factor * contribution
        gaps.append(direct - route)
    terms = [op_mu_x - (mu * op_x).reshape(op_mu_x.shape), xs, op_0, xc, *gaps]
    diff, norm_x, zero, norm_c, *norm_gaps = _split(spectral_norm(np.concatenate(terms)), terms)
    res = diff.reshape(len(mu), -1) / np.maximum(1.0, norm_x)
    s1 = _within(HOMOGENEITY_TOL, max_residual=float(res.max()), zero_residual=float(zero[0]))
    size = np.array([abs(lam) for lam in lams])[:, None]
    residual = np.array(norm_gaps) / np.maximum(1.0, size * norm_c)
    entries = [
        {"label": label, "lambda": [lam.real, lam.imag], **_within(HOMOGENEITY_TOL, residual=r)}
        for (lam, label), r in zip(COMPLEX_LAMBDAS, map(float, residual.max(axis=1)))
    ]
    passed = s1["passed"] and all(e["passed"] for e in entries)
    return {"s1": s1, "complex": entries, "passed": passed}


def derivation_limit_sequence(f, h, scheme, triples: Sequence, levels: Sequence[int]) -> np.ndarray:
    """Derivation-limit residuals, one row per level and one column per triple.

    With s = scheme.scale(l) and s3 = scheme.scale(3l) the residual of the
    triple (x, y, z) at level l is

      || f(s3 {x,y,z}) - {f(s x) h(s y) h(s z)}
         - {h(s x) f(s y) h(s z)} - {h(s x) h(s y) f(s z)} || / s3.

    The unscaled arguments are normed once, and each map is evaluated once
    over all levels, from those arguments, their norms and one scale per
    level (``_image``): h takes the norms of f's x, y and z.  Raises
    SchemeError for a scheme without
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
    # (4, 1, k, n, n): the product, then x, y, z, each with a level axis;
    # normed once for every level
    unscaled = np.stack([txyz, mx, my, mz])[:, None]
    norms = _norm(unscaled)
    # per level, the product scales by s3 = scale(3l) and x, y, z by s = scale(l)
    factors = np.array([[scheme.scale(3 * l)] + 3 * [scheme.scale(l)] for l in levels])
    # (4, levels, 1): slot by slot, so x, y and z are the tail h maps
    s = factors.T[:, :, None]
    fp, fx, fy, fz = as_matrix(_image(f, unscaled, norms, s))
    hx, hy, hz = as_matrix(_image(h, unscaled[1:], norms[1:], s[1:]))
    residual = _norm(derivation_defect(fp, fx, fy, fz, hx, hy, hz))
    return (1.0 / factors[:, :1]) * residual


def verify_derivation_sequence(f, h, scheme, p: float, triples: Sequence) -> dict:
    """The derivation_sequence section: strict decrease and tail rate of the residuals.

    The mean of ``derivation_limit_sequence`` over the triples must strictly
    decrease at levels from SEQUENCE_STRICT_AFTER on while above
    ROUNDOFF_FLOOR, and the pooled slope of every triple's residuals at
    those levels must lie within RATE_WINDOW of perturbation_decay_rate(p).
    A scheme without sequence levels gives {"skipped": reason}, unread triples.
    """
    scheme = Scheme.parse(scheme)
    try:
        levels = list(scheme.derivation_levels())
    except SchemeError as exc:
        return {"skipped": str(exc)}
    residuals = derivation_limit_sequence(f, h, scheme, triples, levels)
    expected_rate = perturbation_decay_rate(scheme, p)
    # a report holds floats, whatever the working dtype
    values = residuals.mean(axis=1).astype(float).tolist()
    tail = [i for i, lvl in enumerate(levels) if lvl >= SEQUENCE_STRICT_AFTER]
    # mean values past the pre-asymptotic levels and above the round-off floor
    kept = [i for i in tail if values[i] > ROUNDOFF_FLOOR]
    pairs = [(values[i], values[i + 1]) for i in kept if i + 1 < len(values)]
    decreasing = all(b < a for a, b in pairs)
    max_tail_ratio = max((b / a for a, b in pairs), default=None)
    tail_rate, _ = pooled_rate([levels[i] for i in tail], residuals[tail])
    rate_ok = tail_rate is None or abs(tail_rate - expected_rate) <= RATE_WINDOW
    return {
        "levels": levels, "values": values, "floor": ROUNDOFF_FLOOR,
        "strict_after": SEQUENCE_STRICT_AFTER, "max_tail_ratio": max_tail_ratio,
        "tail_rate": tail_rate, "expected_rate": expected_rate, "rate_window": RATE_WINDOW,
        "decreasing_passed": decreasing, "rate_passed": rate_ok, "passed": decreasing and rate_ok,
    }


def certify_theta_derivation(d_hat, theta_hat, triples: Sequence) -> dict:
    """Check the derivation identity of (d_hat, theta_hat) on probe triples, to DERIVATION_TOL.

    Returns the derivation_certificate section: the worst three-slot defect
    over max(1, ||x|| ||y|| ||z||) and the index of its triple.
    """
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
    return {**_within(DERIVATION_TOL, max_relative_residual=worst_value), "worst_index": worst}


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


def estimate_convergence_rate(f, scheme, p: float, probes: Sequence) -> dict:
    """The rate section: rate of the approximant differences at the fixed RATE_LEVELS window.

    ``estimate`` is the ``pooled_rate`` of ||A_l(x) - A_{l-1}(x)|| at levels
    first_level to last_level, within RATE_WINDOW of perturbation_decay_rate(p)
    (or None, which passes); ``probes`` counts the probes it used.
    """
    x = _stack(probes, "estimate_convergence_rate")
    scheme = Scheme.parse(scheme)
    levels = range(RATE_LEVELS.start - 1, RATE_LEVELS.stop)
    values = _approximants(f, scheme, x, levels, _norm(x))
    rate, used = pooled_rate(RATE_LEVELS, _norm(np.diff(values, axis=0)))
    expected = perturbation_decay_rate(scheme, p)
    return {
        "estimate": rate, "first_level": RATE_LEVELS[0], "last_level": RATE_LEVELS[-1],
        "probes": used, "expected": expected, "window": RATE_WINDOW,
        "passed": rate is None or abs(rate - expected) <= RATE_WINDOW,
    }
