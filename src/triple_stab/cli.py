"""Command-line front end: axioms, recover, bounds, and report commands.

Configs come from a JSON file via --config; every config field can also be
set or overridden by a same-named long flag.  The flags, their types and
their help are read from the fields of ``ExperimentConfig`` itself.
``recover --timings`` prints the stage timings of ``run_recovery`` in the
order the run took them.  Exit code 0 means every enabled check passed;
failed checks are enumerated on standard error.  Reports are
byte-identical on every run of the same config, and ``report`` renders a
saved report through the same ``render_report`` that writes it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import fields

from .lab import (
    ConfigError,
    ExperimentConfig,
    axioms_report,
    emit_report,
    load_report,
    render_report,
    run_recovery,
)
from .stability import PowerType, Scheme, SummabilityError, hyers_bound, hyers_series
from .triple import matrix_basis

_GRID = {
    Scheme.CAUCHY2: (0.0, 0.25, 0.5, 0.75),
    Scheme.CAUCHY2_CONTRACTIVE: (1.5, 2.0, 3.0, 4.0),
    Scheme.JENSEN3: (0.0, 0.25, 0.5, 0.75),
    Scheme.JENSEN3_CONTRACTIVE: (3.5, 4.0, 5.0, 6.0),
}

def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="JSON config file")
    for f in fields(ExperimentConfig):
        flag = "--" + f.name.replace("_", "-")
        parser.add_argument(flag, type=type(f.default), help=f.metadata["help"])


def _add_output_flags(parser: argparse.ArgumentParser, *formats: str) -> None:
    # --format offers only the formats the command can write; the first is the default
    parser.add_argument("--out", metavar="PATH", help="write the report here")
    parser.add_argument(
        "--format",
        choices=formats,
        default=formats[0],
        help=f"report format (default {formats[0]})",
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
    for name in (f.name for f in fields(ExperimentConfig)):
        value = getattr(args, name)
        if value is not None:
            data[name] = _parse_generator(value) if name == "generator" else value
    return ExperimentConfig.from_dict(data)


def _value_text(value) -> str:
    return "-" if value is None else format(value, ".6g")


def _emit_if_requested(report, args: argparse.Namespace) -> None:
    if args.out:
        emit_report(report, args.format, args.out)
        print(f"wrote {args.format} report to {args.out}")


def _finish(args: argparse.Namespace, report: dict, timings: dict[str, float]) -> int:
    """Show a check command's report, write it if asked, and return its exit code."""
    checks = report["checks"]
    for check in checks:
        status = "PASS" if check["passed"] else "FAIL"
        print(
            f"  {status} {check['name']:<34s} "
            f"value={_value_text(check['value'])} "
            f"tol={_value_text(check['tolerance'])}"
        )
    passed = sum(1 for c in checks if c["passed"])
    print(f"{args.command}: {passed}/{len(checks)} checks passed in {timings['total_s']:.2f} s")
    if getattr(args, "timings", False):
        # run order, total last; a run that stops after recovery has no later stages
        for key, seconds in timings.items():
            print(f"{key.removesuffix('_s')} {seconds:.6f}")
    _emit_if_requested(report, args)
    if report["passed"]:
        return 0
    for check in checks:
        if not check["passed"]:
            print(
                f"FAILED {check['name']}: value={_value_text(check['value'])}, "
                f"tolerance={_value_text(check['tolerance'])}",
                file=sys.stderr,
            )
    error = report.get("recovery", {}).get("error")
    if error is not None:
        print(f"recovery error: {error}", file=sys.stderr)
    return 1


def _cmd_axioms(args: argparse.Namespace) -> int:
    return _finish(args, *axioms_report(_load_config(args)))


def _cmd_recover(args: argparse.Namespace) -> int:
    report = run_recovery(_load_config(args))
    return _finish(args, report.to_dict(), report.timings)


def _p_text(p: float) -> str:
    """p to two decimals where they hold it in at most one character past repr(p), else repr(p)."""
    text, full = f"{p:.2f}", repr(p)
    return text if float(text) == p and len(text) <= len(full) + 1 else full


def _cmd_bounds(args: argparse.Namespace) -> int:
    # eps and an explicit p are checked as a control's, before any output;
    # the rows use the floats it stores, -0.0 as 0.0
    control = PowerType(args.eps, 0.0 if args.p is None else args.p)
    schemes = list(Scheme)
    if args.scheme is not None:
        schemes = [Scheme.parse(args.scheme)]
        if args.p is not None:
            # an explicitly requested combination outside the summability
            # gate is an error, not a table row
            schemes[0].require_gate(control.p)
    # the bounds read only ||x||, so a 1x1 unit prices them at every dim
    unit = matrix_basis(1)[0]

    print(f"{'scheme':<22s} {'p':>6s} {'closed_form':>22s} {'series':>22s} {'rel_diff':>10s}")
    for scheme in schemes:
        grid = (control.p,) if args.p is not None else _GRID[scheme]
        for p in grid:
            lead = f"{scheme.value:<22s} {_p_text(p):>6s}"
            if not scheme.power_gate_ok(p):
                print(f"{lead}   rejected: {scheme.gate_message(p)}")
                continue
            power = PowerType(control.eps, p)
            closed = hyers_bound(power, scheme, unit)
            if not math.isfinite(closed):
                print(f"{lead}   no bound: the closed form is not finite")
                continue
            row = f"{lead} {closed:>22.17g}"
            try:
                series = hyers_series(power, scheme, unit)
            except SummabilityError as exc:
                # near the gate the term-by-term series can leave the float
                # range while the closed form is finite: the row names why
                print(f"{row}   no series: {exc}")
                continue
            rel = abs(closed - series) / closed if closed > 0.0 else 0.0
            print(f"{row} {series:>22.17g} {rel:>10.2e}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    report = load_report(getattr(args, "in"))
    _emit_if_requested(report, args)
    if not args.out:
        sys.stdout.write(render_report(report, args.format))
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
    p_axioms.set_defaults(run=_cmd_axioms)
    _add_config_flags(p_axioms)
    _add_output_flags(p_axioms, "json")

    p_recover = sub.add_parser("recover", help="run the full recovery pipeline")
    p_recover.set_defaults(run=_cmd_recover)
    _add_config_flags(p_recover)
    _add_output_flags(p_recover, "json", "csv")
    p_recover.add_argument(
        "--timings",
        action="store_true",
        help="print wall seconds per pipeline stage (never written to the report)",
    )

    p_bounds = sub.add_parser(
        "bounds", help="print the stability-constant table over a grid of p"
    )
    p_bounds.set_defaults(run=_cmd_bounds)
    p_bounds.add_argument("--scheme", help="restrict to one scheme")
    p_bounds.add_argument("--eps", type=float, default=1.0, help="control amplitude (default 1)")
    p_bounds.add_argument("--p", type=float, help="single exponent instead of the grid")

    p_report = sub.add_parser("report", help="re-render a persisted JSON report")
    p_report.set_defaults(run=_cmd_report)
    p_report.add_argument("--in", metavar="PATH", required=True, help="JSON report to read")
    _add_output_flags(p_report, "csv", "json")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.run(args)
        # a reader that closed stdout shows here, not in the flush at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Python's documented recipe: point stdout at devnull, so the flush
        # at exit has nothing to fail on, and exit 1 without a message
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as exc:
        # ConfigError, SummabilityError and ReportFormatError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
