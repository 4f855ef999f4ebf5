"""Seeded experiment scenarios: axiom suites, recovery pipelines, reports.

A single 64-bit experiment seed determines everything a scenario touches:
the structure maps, the perturbation defects, every probe set, and every
unimodular sample.  Reports therefore serialize to identical bytes on
every run with the same config.  The pipeline evaluates each stage's probes
as one stack in a single thread.

The runner builds an exact pair (D, theta) from a unitary conjugation and
a skew-adjoint commutator, perturbs both maps, recovers them back through
the configured iteration scheme, and certifies stability bounds,
homogeneity, and the derivation identity on the recovered pair.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, fields as dataclass_fields

import numpy as np

from .linalg import _norm, spectral_norm
from .sampling import (
    ROLE_AXIOMS,
    ROLE_CERT_TRIPLES,
    ROLE_MAP_F,
    ROLE_MAP_H,
    ROLE_MU,
    ROLE_PROBES,
    ROLE_RATE_PROBES,
    ROLE_SEQUENCE_TRIPLES,
    ROLE_SKEW,
    ROLE_UNITARY,
    check_seed,
    child_seed,
    haar_unitary,
    make_mu_samples,
    make_probes,
    random_matrices,
    rng_for,
    skew_matrix,
)
from .stability import (
    HOMOGENEITY_TOL,
    ROUNDOFF_FLOOR,
    ConvergenceError,
    LinearityCertificationError,
    PowerType,
    Scheme,
    SchemeError,
    certify_theta_derivation,
    complex_homogeneity_via_decomposition,
    derivation_limit_sequence,
    estimate_convergence_rate,
    make_perturbation,
    perturbation_decay_rate,
    pooled_rate,
    recover_linear_map,
    verify_hypotheses,
    verify_s1_homogeneity,
    verify_stability_bound,
)
from .triple import (
    AXIOM_COMMUTATIVITY_TOL,
    AXIOM_JORDAN_TOL,
    AXIOM_L_POSITIVITY_TOL,
    AXIOM_NORM_TOL,
    Commutator,
    Conjugation,
    _cstar,
    _jbstar,
    check_commutativity,
    check_jordan_identity,
    check_L_positive,
    check_norm_identity,
    make_theta_derivation,
)

DIM_MAX = 16

PRODUCT_AGREEMENT_TOL = 1e-12
RECOVERY_ERROR_TOL = 1e-6
RATE_WINDOW = 0.05

MU_SAMPLE_COUNT = 16
S1_PROBE_COUNT = 8
RATE_PROBE_COUNT = 120
CERT_TRIPLE_COUNT = 100
SEQUENCE_TRIPLE_COUNT = 40
SEQUENCE_STRICT_AFTER = 5

COMPLEX_LAMBDAS = (
    (complex(2.0, 0.0), "2"),
    (complex(0.0, 1.0), "i"),
    (complex(0.9, 2.3), "0.9+2.3i"),
)

_UNITARY_KINDS = ("haar", "identity")
_SKEW_KINDS = ("random", "zero")
_GENERATOR_KEYS = {"unitary", "skew", "skew_scale"}


class ConfigError(ValueError):
    """An experiment config violates its schema or a summability gate."""


class ReportFormatError(ValueError):
    """A report cannot be rendered in the requested format."""


def _require_int(name: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


def _require_float(name: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    out = float(value)
    if not math.isfinite(out):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return out


@dataclass
class ExperimentConfig:
    """Everything one scenario needs, reproducible from the seed alone."""

    dim: int = 2
    scheme: str = "cauchy2"
    eps: float = 0.1
    p: float = 0.5
    seed: int = 42
    probe_count: int = 100
    tol: float = 1e-9
    l_max: int = 200
    generator: object = "identity"

    def scheme_enum(self) -> Scheme:
        return Scheme.parse(self.scheme)

    def generator_dict(self) -> dict:
        """Expanded and validated generator spec."""
        g = self.generator
        if g == "identity":
            g = {"unitary": "identity", "skew": "random", "skew_scale": 1.0}
        if not isinstance(g, dict):
            raise ConfigError(
                f'generator must be "identity" or an object, got {g!r}'
            )
        unknown = set(g) - _GENERATOR_KEYS
        if unknown:
            raise ConfigError(
                f"unknown generator fields: {', '.join(sorted(unknown))}"
            )
        out = {
            "unitary": g.get("unitary", "haar"),
            "skew": g.get("skew", "random"),
            "skew_scale": _require_float("skew_scale", g.get("skew_scale", 1.0)),
        }
        if out["unitary"] not in _UNITARY_KINDS:
            raise ConfigError(
                f"generator unitary must be one of {_UNITARY_KINDS}, "
                f"got {out['unitary']!r}"
            )
        if out["skew"] not in _SKEW_KINDS:
            raise ConfigError(
                f"generator skew must be one of {_SKEW_KINDS}, got {out['skew']!r}"
            )
        if out["skew_scale"] <= 0.0:
            raise ConfigError(
                f"skew_scale must be positive, got {out['skew_scale']!r}"
            )
        return out

    def validate(self) -> None:
        _require_int("dim", self.dim)
        if not 1 <= self.dim <= DIM_MAX:
            raise ConfigError(f"dim must be in [1, {DIM_MAX}], got {self.dim}")
        try:
            scheme = Scheme.parse(self.scheme)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        eps = _require_float("eps", self.eps)
        if eps < 0.0:
            raise ConfigError(f"eps must be nonnegative, got {eps}")
        p = _require_float("p", self.p)
        if p < 0.0:
            raise ConfigError(f"p must be nonnegative, got {p}")
        try:
            check_seed(_require_int("seed", self.seed))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if _require_int("probe_count", self.probe_count) < 1:
            raise ConfigError(f"probe_count must be >= 1, got {self.probe_count}")
        if _require_float("tol", self.tol) <= 0.0:
            raise ConfigError(f"tol must be positive, got {self.tol}")
        if _require_int("l_max", self.l_max) < 1:
            raise ConfigError(f"l_max must be >= 1, got {self.l_max}")
        if not scheme.power_gate_ok(p):
            raise ConfigError(scheme.gate_message(p))
        self.generator_dict()

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"config must be an object, got {type(data).__name__}")
        known = {f.name for f in dataclass_fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(
                f"unknown config fields: {', '.join(sorted(unknown))}"
            )
        cfg = cls(**data)
        cfg.eps = _require_float("eps", cfg.eps)
        cfg.p = _require_float("p", cfg.p)
        cfg.tol = _require_float("tol", cfg.tol)
        cfg.validate()
        return cfg

    def to_dict(self) -> dict:
        """Canonical echo: normalized scheme tag, float eps/p/tol, expanded generator."""
        return {
            **_section(self),
            "scheme": self.scheme_enum().value,
            "eps": float(self.eps),
            "p": float(self.p),
            "tol": float(self.tol),
            "generator": self.generator_dict(),
        }


def _section(result) -> dict:
    """A dataclass's fields as a dict, shallow: report sections hold scalars or lists of floats."""
    return {f.name: getattr(result, f.name) for f in dataclass_fields(result)}


# ---------------------------------------------------------------------------
# scenario construction
# ---------------------------------------------------------------------------

def build_generators(config: ExperimentConfig):
    """Exact (theta, d, D) for the config: conjugation, commutator, composite."""
    g = config.generator_dict()
    n = config.dim
    if g["unitary"] == "haar":
        u = haar_unitary(rng_for(config.seed, ROLE_UNITARY), n)
    else:
        u = np.eye(n, dtype=np.complex128)
    theta = Conjugation(u)
    if g["skew"] == "random":
        a = skew_matrix(rng_for(config.seed, ROLE_SKEW), n, g["skew_scale"])
    else:
        a = np.zeros((n, n), dtype=np.complex128)
    d = Commutator(a)
    return theta, d, make_theta_derivation(theta, d)


# ---------------------------------------------------------------------------
# axiom suite
# ---------------------------------------------------------------------------

# (axiom-suite section, check name), in report order
_AXIOM_SECTIONS = (
    ("commutativity", "axiom_commutativity"),
    ("jordan_identity", "axiom_jordan_identity"),
    ("l_positivity", "axiom_l_positivity"),
    ("norm_identity", "axiom_norm_identity"),
    ("product_agreement", "product_agreement"),
)


def _check(name: str, passed: bool, value=None, tolerance=None) -> dict:
    """One row of a report's ``checks`` list."""
    return {"name": name, "passed": passed, "value": value, "tolerance": tolerance}


def _within(threshold: float, **measured: float) -> dict:
    """A report section: worst measured values, the threshold they must stay within."""
    return {**measured, "threshold": threshold, "passed": max(measured.values()) <= threshold}


def run_axiom_suite(config: ExperimentConfig, samples: int | None = None) -> dict:
    """All four triple axioms plus product-form agreement on seeded data.

    Returns a report fragment with the worst residual of each check over
    ``samples`` draws (default: the config probe count).  Each check runs
    once over the stack of all draws.
    """
    config.validate()
    n = config.dim
    count = config.probe_count if samples is None else samples
    if count < 1:
        raise ConfigError(f"sample count must be >= 1, got {count}")
    rng = rng_for(config.seed, ROLE_AXIOMS)
    # per draw: a, b, x, y, z, the positivity generator and its four probes
    draws = random_matrices(rng, 10 * count, n).reshape(count, 10, n, n)
    a, b, x, y, z, a_pos = (draws[:, i] for i in range(6))
    comm = check_commutativity(x, y, z)
    jordan = check_jordan_identity(a, b, x, y, z)
    # thresholds scale with the input norms; renormalize for aggregation
    jordan_rel = jordan.residual * (AXIOM_JORDAN_TOL / jordan.threshold)
    norm_id = check_norm_identity(x)
    lpos = check_L_positive(a_pos, draws[:, 6:])
    nx, ny, nz = _norm(draws[:, 2:5]).T
    scale = np.maximum(1.0, nx * ny * nz)
    agreement = _norm(_cstar(x, y, z) - _jbstar(x, y, z))
    fragment = {
        "samples": count,
        "commutativity": _within(AXIOM_COMMUTATIVITY_TOL, max_residual=float(comm.residual.max())),
        "jordan_identity": _within(
            AXIOM_JORDAN_TOL, max_relative_residual=float(jordan_rel.max())
        ),
        "l_positivity": _within(
            AXIOM_L_POSITIVITY_TOL,
            max_selfadjoint_violation=float(lpos.max_selfadjoint_violation.max()),
            max_negativity=float(lpos.max_negativity.max()),
        ),
        "norm_identity": _within(AXIOM_NORM_TOL, max_relative_error=float(norm_id.residual.max())),
        "product_agreement": _within(
            PRODUCT_AGREEMENT_TOL, max_relative_residual=float((agreement / scale).max())
        ),
    }
    fragment["passed"] = all(fragment[section]["passed"] for section, _ in _AXIOM_SECTIONS)
    return fragment


def _axiom_checks(fragment: dict) -> list[dict]:
    """One check row per axiom section, valued at its worst measured residual."""
    rows = []
    for section, name in _AXIOM_SECTIONS:
        part = fragment[section]
        worst = max(v for k, v in part.items() if k not in ("threshold", "passed"))
        rows.append(_check(name, part["passed"], worst, part["threshold"]))
    return rows


def axioms_report(config: ExperimentConfig, samples: int | None = None) -> tuple[dict, dict]:
    """Standalone axiom-suite report for the CLI, with wall-clock timings."""
    started = time.perf_counter()
    fragment = run_axiom_suite(config, samples=samples)
    checks = _axiom_checks(fragment)
    report = {
        "config": config.to_dict(),
        "axioms": fragment,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }
    return report, {"total_s": time.perf_counter() - started}


# ---------------------------------------------------------------------------
# recovery pipeline
# ---------------------------------------------------------------------------

@dataclass
class StabilityReport:
    """Full outcome of one recovery scenario, ready for serialization.

    Wall-clock timings are kept on the object for console display but are
    never serialized: reports must be byte-identical across runs.
    """

    config: dict
    axioms: dict
    recovery: dict
    checks: list
    passed: bool
    # stages after recovery; a run whose recovery fails leaves them empty
    bound: dict = field(default_factory=dict)
    hypotheses: dict = field(default_factory=dict)
    bound_theta: dict = field(default_factory=dict)
    rate: dict = field(default_factory=dict)
    derivation_certificate: dict = field(default_factory=dict)
    derivation_sequence: dict = field(default_factory=dict)
    homogeneity: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict, compare=False)

    @classmethod
    def _serialized(cls) -> list[str]:
        """Every field but the wall-clock timings."""
        return [f.name for f in dataclass_fields(cls) if f.name != "timings"]

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self._serialized()}

    @classmethod
    def from_dict(cls, data) -> "StabilityReport":
        if not isinstance(data, dict):
            raise ValueError(f"report must be an object, got {type(data).__name__}")
        missing = [name for name in cls._serialized() if name not in data]
        if missing:
            raise ValueError(f"report is missing fields: {', '.join(missing)}")
        return cls(**{name: data[name] for name in cls._serialized()})


def _sequence_triples(config: ExperimentConfig) -> np.ndarray:
    """(count, 3, n, n) probe triples with norms in [1, 2] for the residual trajectory."""
    n = config.dim
    rng = rng_for(config.seed, ROLE_SEQUENCE_TRIPLES)
    # one row per matrix, in stream order: n^2 real parts and n^2 imaginary
    # parts (uniform on [-1, 1]), then the uniform behind its target norm
    u = rng.uniform(size=(3 * SEQUENCE_TRIPLE_COUNT, 2 * n * n + 1))
    parts = -1.0 + 2.0 * u[:, :-1].reshape(-1, 2, n, n)
    mats = parts[:, 0] + 1j * parts[:, 1]
    targets = 1.0 + u[:, -1]
    scaled = mats * (targets / spectral_norm(mats))[:, None, None]
    return scaled.reshape(SEQUENCE_TRIPLE_COUNT, 3, n, n)


def _within_rate_window(rate: float | None, expected: float) -> bool:
    """A measured rate passes within RATE_WINDOW of the expected one; no measurement passes."""
    return rate is None or abs(rate - expected) <= RATE_WINDOW


def _sequence_section(residuals: np.ndarray, levels: list[int], expected_rate: float) -> dict:
    """Strict-decrease test of the mean residual trajectory and its tail rate.

    ``residuals`` has one row per level and one column per triple.  The tail
    rate is the pooled slope over every triple's residuals at levels from
    SEQUENCE_STRICT_AFTER on.
    """
    values = residuals.mean(axis=1).tolist()
    tail = [i for i, lvl in enumerate(levels) if lvl >= SEQUENCE_STRICT_AFTER]
    # mean values past the pre-asymptotic levels and above the round-off floor
    kept = [i for i in tail if values[i] > ROUNDOFF_FLOOR]
    pairs = [(values[i], values[i + 1]) for i in kept if i + 1 < len(values)]
    decreasing = all(b < a for a, b in pairs)
    max_tail_ratio = max((b / a for a, b in pairs), default=None)
    tail_rate, _ = pooled_rate([levels[i] for i in tail], residuals[tail])
    rate_ok = _within_rate_window(tail_rate, expected_rate)
    return {
        "levels": levels,
        "values": values,
        "floor": ROUNDOFF_FLOOR,
        "strict_after": SEQUENCE_STRICT_AFTER,
        "max_tail_ratio": max_tail_ratio,
        "tail_rate": tail_rate,
        "expected_rate": expected_rate,
        "rate_window": RATE_WINDOW,
        "decreasing_passed": decreasing,
        "rate_passed": rate_ok,
        "passed": decreasing and rate_ok,
    }


def _bound_section(result) -> dict:
    """A stability-bound result as a report section.

    Where the bound is 0 (eps = 0) and the error is not, the ratio is
    infinite; JSON has no number for it, so the section names it "inf".
    """
    section = _section(result)
    if not math.isfinite(result.max_ratio):
        section["max_ratio"] = str(result.max_ratio)
        section["rows"] = [
            [*row[:3], row[3] if math.isfinite(row[3]) else str(row[3])] for row in result.rows
        ]
    return section


def run_recovery(config: ExperimentConfig, threads: int | None = None) -> StabilityReport:
    """End-to-end scenario: build, perturb, recover, certify, report.

    ``threads`` is ignored: the pipeline runs in one thread.  It stays only
    because ``perfbench/worker.py`` passes it (ROADMAP item 1).
    """
    config.validate()
    scheme = config.scheme_enum()
    phi = PowerType(config.eps, config.p)
    form = scheme.hypothesis_form
    timings: dict[str, float] = {}
    started = mark = time.perf_counter()

    def lap(stage: str) -> None:
        # consecutive laps partition the run, so the stages sum to total_s;
        # the stages stay in run order, with total_s last
        nonlocal mark
        now = time.perf_counter()
        timings.pop("total_s", None)
        timings[f"{stage}_s"] = now - mark
        timings["total_s"] = now - started
        mark = now

    theta, _d, big_d = build_generators(config)
    f = make_perturbation(big_d, config.eps, config.p, form, child_seed(config.seed, ROLE_MAP_F))
    h = make_perturbation(theta, config.eps, config.p, form, child_seed(config.seed, ROLE_MAP_H))

    probes = np.stack(
        make_probes(config.dim, config.probe_count, rng_for(config.seed, ROLE_PROBES))
    )
    mu_samples = make_mu_samples(MU_SAMPLE_COUNT, rng_for(config.seed, ROLE_MU))
    rate_probes = make_probes(
        config.dim, RATE_PROBE_COUNT, rng_for(config.seed, ROLE_RATE_PROBES), 0.5, 2.0
    )
    cert_triples = random_matrices(
        rng_for(config.seed, ROLE_CERT_TRIPLES), 3 * CERT_TRIPLE_COUNT, config.dim
    ).reshape(CERT_TRIPLE_COUNT, 3, config.dim, config.dim)
    lap("setup")

    checks: list[dict] = []
    axioms = run_axiom_suite(config, samples=min(config.probe_count, 50))
    checks.extend(_axiom_checks(axioms))
    lap("axioms")

    levels: dict[str, int] = {}
    recovery = {
        "error": None,
        "levels": levels,
        "series_ratio": scheme.series_ratio(config.p),
        "d_entrywise_error": None,
        "theta_entrywise_error": None,
        "tolerance": RECOVERY_ERROR_TOL,
        "passed": False,
    }
    try:
        d_hat, levels["d"] = recover_linear_map(f, scheme, phi, config.tol, config.l_max)
        theta_hat, levels["theta"] = recover_linear_map(h, scheme, phi, config.tol, config.l_max)
    except (ConvergenceError, LinearityCertificationError) as exc:
        recovery["error"] = str(exc)
        if isinstance(exc, LinearityCertificationError):
            recovery["linearity_failure"] = {
                # levels names the maps recovered before the one that failed
                "map": "theta" if levels else "d",
                "probe_index": exc.index,
                "probe_norm": exc.norm,
                "gap": exc.residual,
                "allowance": exc.allowance,
                "level": exc.level,
            }
    recovery["converged"] = recovery["error"] is None
    lap("recover")

    checks.append(_check("recovery_converged", recovery["converged"]))
    # the stages after recovery fill in their sections; a failed recovery leaves them empty
    report = StabilityReport(
        config=config.to_dict(),
        axioms=axioms,
        recovery=recovery,
        checks=checks,
        passed=False,
        timings=timings,
    )
    if not recovery["converged"]:
        return report

    # both sides were checked by their constructors
    for name, recovered, exact in (("d", d_hat, big_d), ("theta", theta_hat, theta)):
        err = float(np.abs(recovered.coeffs - exact.to_tabulated().coeffs).max())
        recovery[f"{name}_entrywise_error"] = err
        checks.append(
            _check(f"recovery_error_{name}", err <= RECOVERY_ERROR_TOL, err, RECOVERY_ERROR_TOL)
        )
    recovery["passed"] = checks[-2]["passed"] and checks[-1]["passed"]

    hyp = verify_hypotheses(f, h, phi, form, probes, mu_samples)
    report.hypotheses = _section(hyp)
    checks.append(_check("hypothesis_ratio_f", hyp.max_ratio_f <= 1.0, hyp.max_ratio_f, 1.0))
    checks.append(_check("hypothesis_ratio_h", hyp.max_ratio_h <= 1.0, hyp.max_ratio_h, 1.0))
    lap("hypotheses")

    bound_f, bound_h = verify_stability_bound(((f, d_hat), (h, theta_hat)), phi, scheme, probes)
    report.bound, report.bound_theta = _bound_section(bound_f), _bound_section(bound_h)
    del report.bound_theta["rows"]
    for name, part in (("bound_ratio", report.bound), ("bound_ratio_theta", report.bound_theta)):
        checks.append(_check(name, part["passed"], part["max_ratio"], 1.0 + part["slack"]))
    lap("bound")

    s1 = verify_s1_homogeneity(d_hat, probes[:S1_PROBE_COUNT], mu_samples)
    s1_value = max(s1.max_residual, s1.zero_residual)
    checks.append(_check("s1_homogeneity", s1.passed, s1_value, s1.threshold))
    complex_entries = []
    mid_probes = probes[[0, len(probes) // 2, -1]]
    lams = [lam for lam, _ in COMPLEX_LAMBDAS]
    by_lam = complex_homogeneity_via_decomposition(d_hat, lams, mid_probes).residual
    for (lam, label), row in zip(COMPLEX_LAMBDAS, by_lam):
        entry = _within(HOMOGENEITY_TOL, residual=float(row.max()))
        complex_entries.append({"label": label, "lambda": [lam.real, lam.imag], **entry})
        name = f"complex_homogeneity_{label}"
        checks.append(_check(name, entry["passed"], entry["residual"], HOMOGENEITY_TOL))
    report.homogeneity = {
        "s1": _section(s1),
        "complex": complex_entries,
        "passed": s1.passed and all(e["passed"] for e in complex_entries),
    }
    lap("homogeneity")

    cert = certify_theta_derivation(d_hat, theta_hat, cert_triples)
    report.derivation_certificate = _section(cert)
    checks.append(
        _check("derivation_certificate", cert.passed, cert.max_relative_residual, cert.threshold)
    )
    lap("certificate")

    expected_rate = perturbation_decay_rate(scheme, config.p)
    try:
        levels = list(scheme.derivation_levels())
    except SchemeError as exc:
        report.derivation_sequence = {"skipped": str(exc)}
    else:
        values = derivation_limit_sequence(f, h, scheme, _sequence_triples(config), levels)
        sequence = report.derivation_sequence = _sequence_section(values, levels, expected_rate)
        checks.append(
            _check(
                "derivation_sequence_decreasing",
                sequence["decreasing_passed"],
                sequence["max_tail_ratio"],
                1.0,
            )
        )
        checks.append(
            _check(
                "derivation_sequence_rate",
                sequence["rate_passed"],
                sequence["tail_rate"],
                RATE_WINDOW,
            )
        )
    lap("sequence")

    rate_est = estimate_convergence_rate(f, scheme, rate_probes)
    rate_ok = _within_rate_window(rate_est.rate, expected_rate)
    report.rate = {
        "estimate": rate_est.rate,
        "expected": expected_rate,
        "window": RATE_WINDOW,
        "first_level": rate_est.first_level,
        "last_level": rate_est.last_level,
        "probes": rate_est.probes_used,
        "passed": rate_ok,
    }
    checks.append(_check("approximant_rate", rate_ok, rate_est.rate, RATE_WINDOW))
    lap("rate")

    report.passed = all(c["passed"] for c in checks)
    return report


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _render_float(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"reports must contain finite numbers, got {value!r}")
    text = format(value, ".17g")
    if "." not in text and "e" not in text and "E" not in text:
        text += ".0"
    return text


def render_json(value) -> str:
    """Deterministic JSON: sorted keys, 17 significant digits for floats."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _render_float(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        items = []
        for key in sorted(value):
            if not isinstance(key, str):
                raise ValueError(f"report keys must be strings, got {key!r}")
            items.append(f"{json.dumps(key)}: {render_json(value[key])}")
        return "{" + ", ".join(items) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(render_json(v) for v in value) + "]"
    raise ValueError(f"cannot serialize {type(value).__name__} into a report")


def render_csv(report_data: dict) -> str:
    """Per-probe bound table as CSV with a fixed header."""
    bound = report_data.get("bound")
    if not isinstance(bound, dict) or "rows" not in bound:
        raise ReportFormatError("report has no per-probe bound table for CSV output")
    lines = ["norm_x,bound,error,ratio"]
    for row in bound["rows"]:
        # a ratio JSON has no number for is written by name, as in the report
        lines.append(",".join(v if isinstance(v, str) else _render_float(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def emit_report(report, fmt: str, path: str) -> None:
    """Persist a report as deterministic JSON or CSV."""
    data = report.to_dict() if hasattr(report, "to_dict") else report
    if fmt == "json":
        text = render_json(data) + "\n"
    elif fmt == "csv":
        text = render_csv(data)
    else:
        raise ReportFormatError(f"unknown report format {fmt!r}; expected json or csv")
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise OSError(f"could not write report to {path}: {exc}") from exc


def load_report(path: str) -> StabilityReport:
    """Read back a JSON report written by emit_report."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise OSError(f"could not read report from {path}: {exc}") from exc
    return StabilityReport.from_dict(data)
