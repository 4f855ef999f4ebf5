"""Acceptance suite: every stated tolerance checked, one printed line per criterion.

Each test computes its verdict first, prints a single human-readable
"criterion N: PASS/FAIL" line, and only then asserts, so a failing run
still shows the measured numbers for every criterion that executed.
"""

import math
import time

import numpy as np
import pytest

from triple_stab import lab
from triple_stab.cli import main
from triple_stab.lab import (
    ExperimentConfig,
    axioms_report,
    run_recovery,
)
from triple_stab.sampling import ROLE_MAP_F, child_seed
from triple_stab.stability import (
    PowerType,
    hyers_bound,
    hyers_series,
)

E11 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=np.complex128)

AXIOM_TOLS = {
    "axiom_commutativity": 1e-13,
    "axiom_jordan_identity": 1e-10,
    "axiom_l_positivity": 1e-10,
    "axiom_norm_identity": 1e-8,
    "product_agreement": 1e-12,
}


def _config(scheme: str, p: float, **overrides) -> ExperimentConfig:
    base = dict(
        dim=2,
        scheme=scheme,
        eps=0.1,
        p=p,
        seed=42,
        probe_count=100,
        tol=1e-9,
        l_max=200,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def c2_report():
    return run_recovery(_config("cauchy2", 0.5), threads=1)


@pytest.fixture(scope="module")
def j3_report():
    return run_recovery(_config("jensen3", 0.5), threads=1)


@pytest.fixture(scope="module")
def j3c_report():
    return run_recovery(_config("jensen3-contractive", 4.0), threads=1)


def _verdict(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number}: {status} {detail}")


def test_criterion_1_axioms_across_dimensions():
    started = time.perf_counter()
    worst = {}
    all_ok = True
    for dim in (2, 3, 4):
        report, _ = axioms_report(_config("cauchy2", 0.5, dim=dim), samples=200)
        for check in report["checks"]:
            name = check["name"]
            all_ok = all_ok and check["passed"] and check["tolerance"] == AXIOM_TOLS[name]
            worst[name] = max(worst.get(name, 0.0), check["value"])
    elapsed = time.perf_counter() - started
    ok = all_ok and elapsed < 10.0
    _verdict(
        1,
        ok,
        f"axioms on dims 2,3,4 with 200 samples each in {elapsed:.2f} s; "
        "worst residuals "
        + ", ".join(f"{k.split('_', 1)[1]}={v:.2e}" for k, v in worst.items()),
    )
    assert ok


def test_criterion_2_constants_match_closed_forms():
    anchors = [
        ("cauchy2", 1.0, 0.0, 2.0),
        ("cauchy2", 0.1, 0.5, 0.2 / (2.0 - math.sqrt(2.0))),
        ("cauchy2-contractive", 1.0, 2.0, 1.0),
        ("jensen3", 1.0, 0.5, 2.0 + math.sqrt(3.0)),
        ("jensen3-contractive", 1.0, 4.0, 14.0 / 13.0),
    ]
    worst_closed = 0.0
    worst_series = 0.0
    for scheme, eps, p, expected in anchors:
        power = PowerType(eps, p)
        closed = hyers_bound(power, scheme, E11)
        series = hyers_series(power, scheme, E11)
        worst_closed = max(worst_closed, abs(closed - expected) / expected)
        worst_series = max(worst_series, abs(series - closed) / closed)
    ok = worst_closed <= 1e-12 and worst_series <= 1e-12
    _verdict(
        2,
        ok,
        f"five anchor constants: closed-form rel err {worst_closed:.2e}, "
        f"series-vs-closed rel err {worst_series:.2e} (tol 1e-12)",
    )
    assert ok


def test_criterion_3_recovery_accuracy_and_speed(c2_report):
    rec = c2_report.recovery
    elapsed = c2_report.timings["recover_s"]
    ok = (
        rec["converged"]
        and rec["d_entrywise_error"] <= 1e-6
        and rec["theta_entrywise_error"] <= 1e-6
        and elapsed < 5.0
    )
    _verdict(
        3,
        ok,
        f"recovered maps entrywise errors {rec['d_entrywise_error']:.2e} / "
        f"{rec['theta_entrywise_error']:.2e} (tol 1e-6) in {elapsed:.2f} s",
    )
    assert ok


def test_criterion_4_bound_ratios(c2_report, j3_report, j3c_report):
    ok = True
    details = []
    for label, report in (
        ("cauchy2", c2_report),
        ("jensen3", j3_report),
        ("jensen3-contractive", j3c_report),
    ):
        rows = report.bound["rows"]
        norms = [row[0] for row in rows]
        ok = (
            ok
            and len(rows) == 100
            and min(norms) >= 1e-2 * (1.0 - 1e-9)
            and max(norms) <= 1e1 * (1.0 + 1e-9)
        )
        # both recovered maps are checked over the same probe set; only the
        # first table carries the serialized rows
        for section in (report.bound, report.bound_theta):
            ok = ok and section["max_ratio"] <= 1.0 + 1e-9
        details.append(
            f"{label}: {max(report.bound['max_ratio'], report.bound_theta['max_ratio']):.3f}"
        )
    _verdict(
        4,
        ok,
        "bound ratios over 100 probes with norms in [0.01, 10] stay below "
        "1 + 1e-9; worst per scheme " + ", ".join(details),
    )
    assert ok


def test_criterion_5_convergence_rates(c2_report, j3_report, j3c_report):
    targets = [
        ("cauchy2", c2_report, 2.0 ** (0.5 - 1.0)),
        ("jensen3", j3_report, 3.0 ** (0.5 - 1.0)),
        ("jensen3-contractive", j3c_report, 3.0 ** (1.0 - 4.0)),
    ]
    ok = True
    details = []
    for label, report, target in targets:
        rate = report.rate
        estimate = rate["estimate"]
        span = rate["last_level"] - rate["first_level"]
        ok = ok and estimate is not None and 2 <= span <= 10
        ok = ok and abs(estimate - target) <= 0.05
        details.append(f"{label}: {estimate:.4f} vs {target:.4f}")
    _verdict(
        5,
        ok,
        "per-level rates over the final pre-tolerance window within 0.05; "
        + ", ".join(details),
    )
    assert ok


class _PlusConjugate:
    """f + 1e-7 x-bar: its limit is additive but not C-linear; f's dimension and seed."""

    def __init__(self, f):
        self.f, self.dim, self.seed = f, f.dim, f.seed

    def __call__(self, x):
        return self.f(x) + 1e-7 * np.conj(x)


def test_criterion_6_homogeneity(c2_report, monkeypatch):
    # C-linearity is certified: the linearity certificate holds the limit's
    # table on the matrix units to its direct value at complex probes, so the
    # shipped run passes it and the same f plus 1e-7 x-bar fails it on d
    recovery = c2_report.recovery
    ok = recovery["converged"] and "linearity_failure" not in recovery
    perturb, f_seed = lab.make_perturbation, child_seed(42, ROLE_MAP_F)

    def plus_conjugate(base, eps, p, form, seed):
        g = perturb(base, eps, p, form, seed)
        return _PlusConjugate(g) if seed == f_seed else g

    monkeypatch.setattr(lab, "make_perturbation", plus_conjugate)
    mutant = run_recovery(_config("cauchy2", 0.5))
    failure = mutant.recovery["linearity_failure"]
    last = mutant.checks[-1]
    ok = ok and (last["name"], last["passed"]) == ("recovery_converged", False)
    ok = ok and failure["map"] == "d" and failure["gap"] > failure["allowance"]
    _verdict(
        6,
        ok,
        f"C-linearity certified at levels {recovery['levels']}; f + 1e-7 x-bar fails "
        f"the certificate on d at L = {failure['level']}: gap {failure['gap']:.3e} "
        f"against allowance {failure['allowance']:.3e}",
    )
    assert ok


def test_criterion_7_derivation_certificate_and_sequence(c2_report):
    cert = c2_report.derivation_certificate
    seq = c2_report.derivation_sequence
    target = 2.0 ** (0.5 - 1.0)
    ok = (
        cert["passed"]
        and cert["max_relative_residual"] <= 1e-6
        and seq["decreasing_passed"]
        and seq["rate_passed"]
        and abs(seq["tail_rate"] - target) <= 0.05
    )
    _verdict(
        7,
        ok,
        f"derivation identity residual {cert['max_relative_residual']:.2e} "
        f"over 100 triples; residual sequence strictly decreasing with tail "
        f"rate {seq['tail_rate']:.4f} vs {target:.4f}",
    )
    assert ok


def test_criterion_8_gate_rejections(capsys):
    code_a = main(["recover", "--scheme", "cauchy2", "--p", "1.0", "--seed", "42"])
    err_a = capsys.readouterr().err
    code_b = main(
        ["recover", "--scheme", "jensen3-contractive", "--p", "2.0", "--seed", "42"]
    )
    err_b = capsys.readouterr().err
    ok = (
        code_a != 0
        and code_b != 0
        and "requires p < 1" in err_a
        and "2^(p-1)" in err_a
        and "requires p > 3" in err_b
        and "3^(3-p)" in err_b
    )
    _verdict(
        8,
        ok,
        f"gated configs rejected with exit codes {code_a}/{code_b} and "
        "messages naming the violated summability conditions",
    )
    assert ok


def test_criterion_9_thread_count_determinism(tmp_path, capsys):
    argv = [
        "recover",
        "--scheme",
        "jensen3-contractive",
        "--p",
        "4.0",
        "--eps",
        "0.1",
        "--seed",
        "42",
        "--probe-count",
        "24",
    ]
    payloads = []
    for run in range(6):
        out_path = tmp_path / f"report_{run}.json"
        code = main([*argv, "--out", str(out_path)])
        capsys.readouterr()
        assert code == 0
        payloads.append(out_path.read_bytes())
    ok = all(payload == payloads[0] for payload in payloads)
    _verdict(
        9,
        ok,
        f"six repeated runs produced byte-identical reports ({len(payloads[0])} bytes)",
    )
    assert ok
