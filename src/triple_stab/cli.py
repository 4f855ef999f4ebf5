"""Command-line front end: axioms, recover, bounds, and report commands.

Configs come from a JSON file via --config; every config field can also be
set or overridden by a same-named long flag.  Exit code 0 means every
enabled check passed; failed checks are enumerated on standard error.
Reports are byte-identical on every run of the same config.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .lab import (
    ConfigError,
    ExperimentConfig,
    ReportFormatError,
    axioms_report,
    emit_report,
    load_report,
    render_csv,
    render_json,
    run_recovery,
)
from .stability import Custom, PowerType, Scheme, SummabilityError, hyers_bound

_GRID = {
    Scheme.CAUCHY2: (0.0, 0.25, 0.5, 0.75),
    Scheme.CAUCHY2_CONTRACTIVE: (1.5, 2.0, 3.0, 4.0),
    Scheme.JENSEN3: (0.0, 0.25, 0.5, 0.75),
    Scheme.JENSEN3_CONTRACTIVE: (3.5, 4.0, 5.0, 6.0),
}

_OVERRIDE_FIELDS = (
    "dim",
    "scheme",
    "eps",
    "p",
    "seed",
    "probe_count",
    "tol",
    "l_max",
    "generator",
)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="JSON config file")
    parser.add_argument("--dim", type=int, help="matrix dimension n")
    parser.add_argument("--scheme", help="iteration scheme tag")
    parser.add_argument("--eps", type=float, help="control amplitude")
    parser.add_argument("--p", type=float, help="control exponent")
    parser.add_argument("--seed", type=int, help="64-bit experiment seed")
    parser.add_argument("--probe-count", type=int, dest="probe_count", help="probes per table")
    parser.add_argument("--tol", type=float, help="certified accuracy of the recovered map")
    parser.add_argument("--l-max", type=int, dest="l_max", help="cap on the recovery level")
    parser.add_argument(
        "--generator",
        help='generator spec: "identity" or a JSON object',
    )


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", metavar="PATH", help="write the report here")
    parser.add_argument(
        "--format",
        choices=("json", "csv"),
        default="json",
        help="report format (default json)",
    )


def _parse_generator(raw: str):
    text = raw.strip()
    if text.startswith("{"):
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"generator is not valid JSON: {exc}") from exc
    return text


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    data: dict = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except OSError as exc:
            raise ConfigError(f"could not read config {args.config}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {args.config} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config {args.config} must hold a JSON object")
    for name in _OVERRIDE_FIELDS:
        value = getattr(args, name, None)
        if value is not None:
            data[name] = _parse_generator(value) if name == "generator" else value
    return ExperimentConfig.from_dict(data)


def _value_text(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


def _print_checks(checks: list[dict]) -> None:
    for check in checks:
        status = "PASS" if check["passed"] else "FAIL"
        print(
            f"  {status} {check['name']:<34s} "
            f"value={_value_text(check['value'])} "
            f"tol={_value_text(check['tolerance'])}"
        )


def _report_failures(checks: list[dict]) -> None:
    for check in checks:
        if not check["passed"]:
            print(
                f"FAILED {check['name']}: value={_value_text(check['value'])}, "
                f"tolerance={_value_text(check['tolerance'])}",
                file=sys.stderr,
            )


_STAGES = (
    "setup",
    "axioms",
    "recover",
    "hypotheses",
    "bound",
    "homogeneity",
    "certificate",
    "sequence",
    "rate",
    "total",
)


def _print_timings(timings: dict[str, float]) -> None:
    # a run that stops after recovery has no later stages to show
    for stage in _STAGES:
        seconds = timings.get(f"{stage}_s")
        if seconds is not None:
            print(f"{stage} {seconds:.6f}")


def _emit_if_requested(report, args: argparse.Namespace) -> None:
    if args.out:
        emit_report(report, args.format, args.out)
        print(f"wrote {args.format} report to {args.out}")


def _cmd_axioms(args: argparse.Namespace) -> int:
    config = _load_config(args)
    report, timings = axioms_report(config)
    _print_checks(report["checks"])
    passed = sum(1 for c in report["checks"] if c["passed"])
    print(
        f"axioms: {passed}/{len(report['checks'])} checks passed "
        f"in {timings['total_s']:.2f} s"
    )
    _emit_if_requested(report, args)
    if not report["passed"]:
        _report_failures(report["checks"])
        return 1
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    config = _load_config(args)
    report = run_recovery(config)
    _print_checks(report.checks)
    passed = sum(1 for c in report.checks if c["passed"])
    print(
        f"recover: {passed}/{len(report.checks)} checks passed "
        f"in {report.timings.get('total_s', 0.0):.2f} s"
    )
    if args.timings:
        _print_timings(report.timings)
    _emit_if_requested(report, args)
    if not report.passed:
        _report_failures(report.checks)
        if report.recovery["error"] is not None:
            print(f"recovery error: {report.recovery['error']}", file=sys.stderr)
        return 1
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    eps = args.eps if args.eps is not None else 1.0
    dim = args.dim if args.dim is not None else 2
    # the config's own checks: dim in [1, DIM_MAX], eps finite and nonnegative
    ExperimentConfig(dim=dim, eps=eps).validate()
    schemes = list(Scheme)
    if args.scheme is not None:
        schemes = [Scheme.parse(args.scheme)]
        if args.p is not None and not schemes[0].power_gate_ok(args.p):
            # an explicitly requested combination outside the summability
            # gate is an error, not a table row
            raise SummabilityError(schemes[0].gate_message(args.p))
    unit = np.zeros((dim, dim), dtype=np.complex128)
    unit[0, 0] = 1.0

    print(f"{'scheme':<22s} {'p':>6s} {'closed_form':>22s} {'series':>22s} {'rel_diff':>10s}")
    for scheme in schemes:
        grid = (args.p,) if args.p is not None else _GRID[scheme]
        for p in grid:
            if not scheme.power_gate_ok(p):
                print(f"{scheme.value:<22s} {p:>6.2f}   rejected: {scheme.gate_message(p)}")
                continue
            power = PowerType(eps, p)
            closed = hyers_bound(power, scheme, unit)
            series = hyers_bound(Custom(power.value), scheme, unit)
            rel = abs(closed - series) / closed if closed > 0.0 else 0.0
            print(
                f"{scheme.value:<22s} {p:>6.2f} {closed:>22.17g} "
                f"{series:>22.17g} {rel:>10.2e}"
            )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    report = load_report(getattr(args, "in"))
    if args.out:
        emit_report(report, args.format, args.out)
        print(f"wrote {args.format} report to {args.out}")
    else:
        data = report.to_dict()
        if args.format == "json":
            print(render_json(data))
        else:
            sys.stdout.write(render_csv(data))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triple-stab",
        description=(
            "Numerical stability laboratory for theta-derivations on "
            "matrix Jordan triple systems"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_axioms = sub.add_parser("axioms", help="run the triple-axiom suite")
    _add_config_flags(p_axioms)
    _add_output_flags(p_axioms)

    p_recover = sub.add_parser("recover", help="run the full recovery pipeline")
    _add_config_flags(p_recover)
    _add_output_flags(p_recover)
    p_recover.add_argument(
        "--timings",
        action="store_true",
        help="print wall seconds per pipeline stage (never written to the report)",
    )

    p_bounds = sub.add_parser(
        "bounds", help="print the stability-constant table over a grid of p"
    )
    p_bounds.add_argument("--scheme", help="restrict to one scheme")
    p_bounds.add_argument("--eps", type=float, help="control amplitude (default 1)")
    p_bounds.add_argument("--p", type=float, help="single exponent instead of the grid")
    p_bounds.add_argument("--dim", type=int, help="matrix dimension (default 2)")

    p_report = sub.add_parser("report", help="re-render a persisted JSON report")
    p_report.add_argument("--in", metavar="PATH", required=True, help="JSON report to read")
    p_report.add_argument("--out", metavar="PATH", help="write the rendering here")
    p_report.add_argument(
        "--format",
        choices=("json", "csv"),
        default="csv",
        help="output format (default csv)",
    )

    return parser


_COMMANDS = {
    "axioms": _cmd_axioms,
    "recover": _cmd_recover,
    "bounds": _cmd_bounds,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, SummabilityError, ReportFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
