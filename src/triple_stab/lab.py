"""Seeded experiment scenarios: axiom suites, recovery pipelines, reports.

A single 64-bit experiment seed determines everything a scenario touches:
the structure maps, the perturbation defects, every probe set, and every
unimodular sample.  Reports therefore serialize to identical bytes on
every run with the same config.  The pipeline evaluates each stage's probes
as one stack in a single thread.

The runner builds an exact pair (D, theta) from a unitary conjugation and
a skew-adjoint commutator, perturbs both maps and draws the probe sets.  It
then calls the stages of ``stability`` in turn, from the recovery of the
pair to the rate fit, times each, and stores each report section as its
stage returns it (the theta bound without its per-probe rows).  Every
check row is read back from the sections.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, fields as dataclass_fields
from json.encoder import encode_basestring_ascii

import numpy as np

from .linalg import as_matrix, spectral_norm
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
    check_count,
    check_int,
    check_positive,
    check_seed,
    child_seed,
    haar_unitary,
    int_text,
    make_mu_samples,
    make_probes,
    random_matrices,
    rng_for,
    skew_matrix,
)
from .stability import (
    ZERO_CONTROL_TOL,
    PowerType,
    Scheme,
    certify_theta_derivation,
    estimate_convergence_rate,
    make_perturbation,
    perturbation_amplitude,
    recover_maps,
    verify_derivation_sequence,
    verify_hypotheses,
    verify_stability_bound,
)
from .triple import (
    Commutator,
    Conjugation,
    _check_axioms,
    make_theta_derivation,
)

DIM_MAX = 16

MU_SAMPLE_COUNT = 16
RATE_PROBE_COUNT = 120
CERT_TRIPLE_COUNT = 100
SEQUENCE_TRIPLE_COUNT = 40

# the generator spec's keys with their defaults, and the kinds each named key takes
_GENERATOR_DEFAULTS = {"unitary": "haar", "skew": "random", "skew_scale": 1.0}
_GENERATOR_KINDS = {"unitary": ("haar", "identity"), "skew": ("random", "zero")}


class ConfigError(ValueError):
    """An experiment config violates its schema or a summability gate."""


class ReportFormatError(ValueError):
    """A report cannot be rendered in the requested format."""


def _config_call(call, *args):
    """call(*args); a ValueError it raises becomes a ConfigError with the same message."""
    try:
        return call(*args)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _generator_spec(g) -> dict:
    """The expanded generator spec: "identity" or an object, with its defaults filled in."""
    if g == "identity":
        g = {"unitary": "identity"}
    if not isinstance(g, dict):
        raise ConfigError(f'generator must be "identity" or an object, got {g!r}')
    unknown = set(g) - set(_GENERATOR_DEFAULTS)
    if unknown:
        raise ConfigError(f"unknown generator fields: {', '.join(sorted(unknown))}")
    out = {**_GENERATOR_DEFAULTS, **g}
    out["skew_scale"] = _config_call(check_positive, "skew_scale", out["skew_scale"])
    for key, kinds in _GENERATOR_KINDS.items():
        if out[key] not in kinds:
            raise ConfigError(f"generator {key} must be one of {kinds}, got {out[key]!r}")
    return out


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one scenario needs, reproducible from the seed alone.

    A config is checked once, when it is made, and cannot be changed after:
    its fields hold the normalized values (see ``validate``).
    """

    # each field's help is its CLI flag's: --probe-count sets probe_count
    dim: int = field(default=2, metadata={"help": "matrix dimension n"})
    scheme: str = field(default="cauchy2", metadata={"help": "iteration scheme tag"})
    eps: float = field(default=0.1, metadata={"help": "control amplitude"})
    p: float = field(default=0.5, metadata={"help": "control exponent"})
    seed: int = field(default=42, metadata={"help": "64-bit experiment seed"})
    probe_count: int = field(default=100, metadata={"help": "probes per table"})
    tol: float = field(default=1e-9, metadata={"help": "certified accuracy of the recovered map"})
    l_max: int = field(default=200, metadata={"help": "cap on the recovery level"})
    generator: object = field(
        default="identity", metadata={"help": 'generator spec: "identity" or a JSON object'}
    )

    def __post_init__(self):
        self.validate()

    def scheme_enum(self) -> Scheme:
        return Scheme.parse(self.scheme)

    def validate(self) -> None:
        """Check every field, then store the normalized values in place.

        They are dim, seed, probe_count and l_max as Python ints (a numpy
        integer passes), the canonical scheme tag, eps, p and tol as floats
        (-0.0 as 0.0), and the expanded generator spec, so a second call
        changes nothing.
        """
        dim = _config_call(check_int, "dim", self.dim)
        if not 1 <= dim <= DIM_MAX:
            raise ConfigError(f"dim must be in [1, {DIM_MAX}], got {int_text(dim)}")
        scheme = _config_call(Scheme.parse, self.scheme)
        phi = _config_call(PowerType, self.eps, self.p)
        seed = _config_call(check_seed, self.seed)
        probe_count = _config_call(check_count, "probe_count", self.probe_count)
        tol = _config_call(check_positive, "tol", self.tol)
        l_max = _config_call(check_count, "l_max", self.l_max)
        _config_call(scheme.require_gate, phi.p)
        # the defect constant 2^(p-1) must be a float
        _config_call(perturbation_amplitude, phi.eps, phi.p, scheme.hypothesis_form)
        normalized = {
            "dim": dim, "scheme": scheme.value, "eps": phi.eps, "p": phi.p, "seed": seed,
            "probe_count": probe_count, "tol": tol, "l_max": l_max,
            "generator": _generator_spec(self.generator),
        }
        for name, value in normalized.items():
            object.__setattr__(self, name, value)  # how a frozen dataclass sets its own fields

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
        return cls(**data)

    def to_dict(self) -> dict:
        """Canonical echo: the normalized fields, with a copy of the generator spec."""
        return {**vars(self), "generator": dict(self.generator)}


# ---------------------------------------------------------------------------
# scenario construction
# ---------------------------------------------------------------------------

def build_generators(config: ExperimentConfig):
    """Exact (theta, d, D) for the config: conjugation, commutator, composite."""
    g = config.generator
    n = config.dim
    if g["unitary"] == "haar":
        u = haar_unitary(rng_for(config.seed, ROLE_UNITARY), n)
    else:
        u = np.eye(n)
    theta = Conjugation(u)
    if g["skew"] == "random":
        a = skew_matrix(rng_for(config.seed, ROLE_SKEW), n, g["skew_scale"])
    else:
        a = np.zeros((n, n))
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


# what a section keeps beside the measured values of its ``triple._within`` part
_NOT_MEASURED = ("threshold", "passed", "worst_index")


def _within_check(name: str, part: dict) -> dict:
    """The row of a ``_within`` part: its worst measured value against ``threshold``."""
    worst = max(v for k, v in part.items() if k not in _NOT_MEASURED)
    return _check(name, part["passed"], worst, part["threshold"])


def run_axiom_suite(config: ExperimentConfig, samples: int | None = None) -> dict:
    """All four triple axioms plus product-form agreement on seeded data.

    Returns a report fragment with the worst residual of each check over
    ``samples`` draws (default: the config probe count).  Each check runs
    once over the stack of all draws.
    """
    n = config.dim
    count = config.probe_count if samples is None else samples
    count = _config_call(check_count, "sample count", count)
    rng = rng_for(config.seed, ROLE_AXIOMS)
    # per draw: a, b, x, y, z, the positivity generator and its four probes,
    # cast once to the working dtype: the kernel takes trusted stacks
    draws = as_matrix(random_matrices(rng, 10 * count, n).reshape(count, 10, n, n))
    fragment = {"samples": count, **_check_axioms(*(draws[:, i] for i in range(6)), draws[:, 6:])}
    fragment["passed"] = all(fragment[section]["passed"] for section, _ in _AXIOM_SECTIONS)
    return fragment


def _axiom_checks(fragment: dict) -> list[dict]:
    """One check row per axiom section, valued at its worst measured residual."""
    return [_within_check(name, fragment[section]) for section, name in _AXIOM_SECTIONS]


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
    timings: dict = field(default_factory=dict, compare=False)

    @classmethod
    def _serialized(cls) -> list[str]:
        """Every field but the wall-clock timings."""
        return [f.name for f in dataclass_fields(cls) if f.name != "timings"]

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self._serialized()}


def _is_cell(value) -> bool:
    # a cell: "inf" or "-inf" as a saved report names +-inf, a float but NaN, or
    # an int that converts to a float
    if type(value) is int:
        return abs(value) <= float(np.finfo(float).max)
    return value in ("inf", "-inf") or type(value) is float and not math.isnan(value)


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


def _checks(sections: dict) -> list[dict]:
    """Every check row of a recovery report, read back from its sections, in report order.

    ``sections`` is a report's dict, as ``StabilityReport.to_dict`` or a saved
    report gives it.  A failed recovery ends the rows at ``recovery_converged``.
    """
    rows = _axiom_checks(sections["axioms"])
    recovery = sections["recovery"]
    rows.append(_check("recovery_converged", recovery["converged"]))
    if not recovery["converged"]:
        return rows
    hyp = sections["hypotheses"]
    # each row passes at a value within its tolerance; the hypothesis section
    # has one verdict for all three of its rows, and no thresholds
    for name, value, tolerance in (
        ("recovery_error_d", recovery["d_entrywise_error"], recovery["tolerance"]),
        ("recovery_error_theta", recovery["theta_entrywise_error"], recovery["tolerance"]),
        ("hypothesis_ratio_f", hyp["max_ratio_f"], 1.0),
        ("hypothesis_ratio_h", hyp["max_ratio_h"], 1.0),
        ("hypothesis_zero_control", hyp["max_zero_control_residual"], ZERO_CONTROL_TOL),
    ):
        # a saved report holds an infinite value as the string "inf"
        rows.append(_check(name, float(value) <= tolerance, value, tolerance))
    for name, key in (("bound_ratio", "bound"), ("bound_ratio_theta", "bound_theta")):
        part = sections[key]
        rows.append(_check(name, part["passed"], part["max_ratio"], 1.0 + part["slack"]))
    rows.append(_within_check("derivation_certificate", sections["derivation_certificate"]))
    seq = sections["derivation_sequence"]
    if "skipped" not in seq:
        # strict decrease: every tail ratio of the mean residual stays below 1
        rows.append(_check("derivation_sequence_decreasing", seq["decreasing_passed"],
                           seq["max_tail_ratio"], 1.0))
        rows.append(_check("derivation_sequence_rate", seq["rate_passed"],
                           seq["tail_rate"], seq["rate_window"]))
    rate = sections["rate"]
    rows.append(_check("approximant_rate", rate["passed"], rate["estimate"], rate["window"]))
    return rows


def run_recovery(config: ExperimentConfig, threads: int | None = None) -> StabilityReport:
    """End-to-end scenario: build, perturb, recover, certify, report.

    ``threads`` is ignored: the pipeline runs in one thread.  It stays only
    because ``perfbench/worker.py`` passes it (ROADMAP item 1).
    """
    scheme = config.scheme_enum()
    phi = PowerType(config.eps, config.p)
    form = scheme.hypothesis_form
    timings: dict[str, float] = {}
    started = mark = time.perf_counter()

    def lap(stage: str) -> None:
        # consecutive laps partition the run, in run order, so they sum to total_s
        nonlocal mark
        now = time.perf_counter()
        timings[f"{stage}_s"] = now - mark
        mark = now

    theta, _d, big_d = build_generators(config)
    f = make_perturbation(big_d, config.eps, config.p, form, child_seed(config.seed, ROLE_MAP_F))
    h = make_perturbation(theta, config.eps, config.p, form, child_seed(config.seed, ROLE_MAP_H))

    probes = make_probes(config.dim, config.probe_count, rng_for(config.seed, ROLE_PROBES))
    mu_samples = make_mu_samples(MU_SAMPLE_COUNT, rng_for(config.seed, ROLE_MU))
    rate_probes = make_probes(
        config.dim, RATE_PROBE_COUNT, rng_for(config.seed, ROLE_RATE_PROBES), 0.5, 2.0
    )
    cert_triples = random_matrices(
        rng_for(config.seed, ROLE_CERT_TRIPLES), 3 * CERT_TRIPLE_COUNT, config.dim
    ).reshape(CERT_TRIPLE_COUNT, 3, config.dim, config.dim)
    # the sequence stage reads them only for a scheme with sequence levels
    seq_triples = _sequence_triples(config) if scheme.sequence_levels is not None else None
    lap("setup")

    axioms = run_axiom_suite(config, samples=min(config.probe_count, 50))
    lap("axioms")

    exact = (big_d, theta)
    recovery, d_hat, theta_hat = recover_maps(f, h, exact, phi, scheme, config.tol, config.l_max)
    lap("recover")

    sections = {"config": config.to_dict(), "axioms": axioms, "recovery": recovery}
    # the stages after recovery fill in their sections; a failed recovery leaves them empty
    if recovery["converged"]:
        sections["hypotheses"] = verify_hypotheses(f, h, phi, form, probes, mu_samples)
        lap("hypotheses")

        sections["bound"], sections["bound_theta"] = verify_stability_bound(
            ((f, d_hat), (h, theta_hat)), phi, scheme, probes
        )
        del sections["bound_theta"]["rows"]
        lap("bound")

        sections["derivation_certificate"] = certify_theta_derivation(d_hat, theta_hat, cert_triples)
        lap("certificate")

        sections["derivation_sequence"] = verify_derivation_sequence(
            f, h, scheme, config.p, seq_triples
        )
        lap("sequence")

        sections["rate"] = estimate_convergence_rate(f, scheme, config.p, rate_probes)
        lap("rate")

    # every check row is read back from the sections, in one place
    checks = _checks(sections)
    passed = all(c["passed"] for c in checks)
    timings["total_s"] = mark - started
    return StabilityReport(**sections, checks=checks, passed=passed, timings=timings)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _render_float(value: float) -> str:
    # JSON has no number for +-inf, so a report names it, "inf" or "-inf"
    if not math.isfinite(value):
        if math.isnan(value):
            raise ValueError(f"reports must not contain NaN, got {value!r}")
        return f'"{value}"'
    text = format(value, ".17g")
    if "." not in text and "e" not in text:
        text += ".0"
    return text


def render_json(value) -> str:
    """Deterministic JSON: sorted keys, 17 significant digits for floats.

    Lists, tuples and dicts are tested first; they render their float items,
    most of a report's values, in place instead of by a call each.  Other
    floats (``numpy.float64`` too), strings, None, bools and ints follow.
    Keys and strings are escaped by ``encode_basestring_ascii``, as
    ``json.dumps`` escapes them with its default arguments.
    """
    if isinstance(value, (list, tuple)):
        items = [_render_float(v) if type(v) is float else render_json(v) for v in value]
        return "[" + ", ".join(items) + "]"
    if isinstance(value, dict):
        items = []
        for key in sorted(value):
            if not isinstance(key, str):
                raise ValueError(f"report keys must be strings, got {key!r}")
            v = value[key]
            text = _render_float(v) if type(v) is float else render_json(v)
            items.append(f"{encode_basestring_ascii(key)}: {text}")
        return "{" + ", ".join(items) + "}"
    if isinstance(value, float):
        return _render_float(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    raise ValueError(f"cannot serialize {type(value).__name__} into a report")


def render_csv(report_data: dict) -> str:
    """Per-probe bound table as CSV with a fixed header; a failed recovery's is the header alone."""
    bound = report_data.get("bound")
    if not isinstance(bound, dict) or (bound and "rows" not in bound):
        raise ReportFormatError("report has no per-probe bound table for CSV output")
    lines = ["norm_x,bound,error,ratio"]
    for row in bound.get("rows", []):
        # a cell is a float, or the name "inf" a saved report holds; either
        # way it is written as the JSON writes it, without the quotes
        lines.append(",".join(_render_float(float(v)) for v in row).replace('"', ""))
    return "\n".join(lines) + "\n"


def render_report(report: dict, fmt: str) -> str:
    """A report's dict as the text of a report file: JSON with a final newline, or CSV."""
    if fmt == "json":
        return render_json(report) + "\n"
    if fmt == "csv":
        return render_csv(report)
    raise ReportFormatError(f"unknown report format {fmt!r}; expected json or csv")


def emit_report(report: dict, fmt: str, path: str) -> None:
    """Persist a report's dict as deterministic JSON or CSV."""
    text = render_report(report, fmt)
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise OSError(f"could not write report to {path}: {exc}") from exc


def load_report(path: str) -> dict:
    """Read back, as its dict, a JSON report written by emit_report.

    A report that holds a field only recovery reports have is checked
    against a recovery report's fields; any other against the fields
    ``axioms_report`` writes.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise OSError(f"could not read report from {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"report must be an object, got {type(data).__name__}")
    names, axioms_fields = StabilityReport._serialized(), ["config", "axioms", "checks", "passed"]
    if set(names).difference(axioms_fields).isdisjoint(data):
        names = axioms_fields
    missing = [name for name in names if name not in data]
    if missing:
        raise ValueError(f"report is missing fields: {', '.join(missing)}")
    unknown = [str(key) for key in data if key not in names]
    if unknown:
        raise ValueError(f"report has unknown fields: {', '.join(unknown)}")
    # each bound row of a recovery report is four numbers, as the CSV writes them
    rows = data["bound"].get("rows", []) if isinstance(data.get("bound"), dict) else []
    if not isinstance(rows, list):
        raise ValueError(f"report bound.rows must be a list, got {type(rows).__name__}")
    for i, row in enumerate(rows):
        if not (isinstance(row, list) and len(row) == 4 and all(map(_is_cell, row))):
            raise ValueError(f"report bound.rows[{i}] must be four numbers, got {row!r}")
    return data
