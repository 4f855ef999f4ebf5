"""End-to-end tests for the command-line interface."""

import argparse
import dataclasses
import functools
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from triple_stab.cli import _GRID, build_parser, main
from triple_stab.lab import (
    DIM_MAX,
    ConfigError,
    ExperimentConfig,
    emit_report,
    load_report,
    render_json,
    run_recovery,
)
from triple_stab.stability import (
    SERIES_TOL,
    PowerType,
    Scheme,
    SummabilityError,
    hyers_bound,
    hyers_series,
)
from triple_stab.triple import matrix_basis

TRIMMED = [
    "--scheme",
    "jensen3-contractive",
    "--p",
    "4.0",
    "--eps",
    "0.1",
    "--seed",
    "7",
    "--probe-count",
    "12",
]


def test_axioms_command_passes(capsys):
    code = main(["axioms", "--dim", "2", "--probe-count", "20", "--seed", "11"])
    out = capsys.readouterr().out
    assert code == 0
    assert "axioms: 5/5 checks passed" in out
    assert out.count("PASS") == 5
    assert "FAIL" not in out
    # a plain-text generator is the identity spec, not JSON
    assert main(["axioms", "--generator", "identity"]) == 0


def test_axioms_config_file_with_override(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps({"dim": 3, "probe_count": 15, "p": 0.25}), encoding="utf-8"
    )
    out_path = tmp_path / "axioms.json"
    code = main(
        [
            "axioms",
            "--config",
            str(cfg_path),
            "--p",
            "0.5",
            "--out",
            str(out_path),
        ]
    )
    assert code == 0
    assert f"wrote json report to {out_path}" in capsys.readouterr().out
    data = json.loads(out_path.read_text(encoding="utf-8"))
    # the flag overrides the file; untouched file fields survive
    assert data["config"]["p"] == 0.5
    assert data["config"]["dim"] == 3
    assert data["passed"] is True


# a value for each config field that differs from the file's
_FLAG_VALUES = {
    "dim": ("3", 3),
    "scheme": ("jensen3", "jensen3"),
    "eps": ("0.2", 0.2),
    "p": ("0.25", 0.25),
    "seed": ("5", 5),
    "probe_count": ("4", 4),
    "tol": ("1e-8", 1e-8),
    "l_max": ("1", 1),
    "generator": (
        '{"unitary": "haar", "skew": "zero"}',
        {"unitary": "haar", "skew": "zero", "skew_scale": 1.0},
    ),
}
_FILE_CONFIG = dataclasses.asdict(ExperimentConfig(probe_count=6))


@pytest.mark.parametrize("command", ["axioms", "recover"])
@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(ExperimentConfig)])
def test_every_config_field_has_a_flag_that_overrides_the_file(tmp_path, capsys, command, field):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_FILE_CONFIG), encoding="utf-8")
    out_path = tmp_path / "report.json"
    text, want = _FLAG_VALUES[field]
    flag = "--" + field.replace("_", "-")
    main([command, "--config", str(cfg_path), flag, text, "--out", str(out_path)])
    capsys.readouterr()
    echoed = json.loads(out_path.read_text(encoding="utf-8"))["config"]
    assert echoed[field] == want
    # every other field keeps its value from the file
    expected = ExperimentConfig.from_dict({**_FILE_CONFIG, field: want}).to_dict()
    assert echoed == expected


@pytest.mark.parametrize("command", ["axioms", "recover"])
def test_every_config_field_has_a_flag_whose_help_is_its_metadata(command):
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    actions = {a.dest: a for a in sub.choices[command]._actions}
    for f in dataclasses.fields(ExperimentConfig):
        action = actions[f.name]
        assert action.option_strings == ["--" + f.name.replace("_", "-")]
        assert action.type is type(f.default)
        assert action.help == f.metadata["help"]


def test_recover_names_a_failed_zero_control_check(tmp_path, capsys):
    # at eps = 0 every hypothesis sample has a zero control, where the maps'
    # residuals must stay within ZERO_CONTROL_TOL; at skew_scale 1e6 their
    # round-off does not, and the failure has its own row and stderr line
    config = Path(__file__).resolve().parent.parent / "configs" / "cauchy2.json"
    out_path = tmp_path / "zero.json"
    argv = ["recover", "--config", str(config), "--eps", "0"]
    code = main([*argv, "--generator", '{"skew_scale": 1e6}', "--out", str(out_path)])
    err = capsys.readouterr().err
    assert code == 1
    report = load_report(str(out_path))
    assert not report["hypotheses"]["passed"]
    row = next(c for c in report["checks"] if c["name"] == "hypothesis_zero_control")
    assert row["value"] == report["hypotheses"]["max_zero_control_residual"] > 1e-10
    assert row == {"name": "hypothesis_zero_control", "passed": False, "value": row["value"], "tolerance": 1e-10}
    assert "FAILED hypothesis_zero_control: value=" in err


def test_recover_command_writes_report(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = main(["recover", *TRIMMED, "--out", str(out_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "recover: 17/17 checks passed" in out
    report = load_report(str(out_path))
    assert report["passed"]
    assert report["config"]["scheme"] == "jensen3-contractive"

    # re-render the persisted report as a CSV table
    code = main(["report", "--in", str(out_path)])
    rendered = capsys.readouterr().out
    assert code == 0
    assert rendered.startswith("norm_x,bound,error,ratio\n")
    assert len(rendered.strip().splitlines()) == 13

    # and as JSON into a second file, which must load identically
    json_path = tmp_path / "again.json"
    code = main(
        ["report", "--in", str(out_path), "--format", "json", "--out", str(json_path)]
    )
    assert code == 0
    capsys.readouterr()
    assert load_report(str(json_path)) == report


def test_recover_exits_one_when_recovery_fails(capsys):
    config = Path(__file__).resolve().parent.parent / "configs" / "cauchy2.json"
    code = main(["recover", "--config", str(config), "--l-max", "1"])
    assert code == 1
    err = capsys.readouterr().err
    assert "FAILED recovery_converged" in err
    assert "recovery error: certified level L = 57 at series ratio 0.707107" in err
    assert "exceeds l_max = 1" in err


@pytest.mark.parametrize(
    "argv,reason",
    [
        (["--p", "0.9"], "L = 305 at series ratio 0.933033 exceeds l_max = 200"),
        (["--p", "0.99", "--l-max", "1000"], "exceeds l_max = 1000"),
        (["--p", "0.99", "--l-max", "5000"], "beyond the overflow limit"),
    ],
)
def test_recover_names_an_uncertifiable_level(argv, reason, capsys):
    code = main(["recover", "--scheme", "cauchy2", *argv])
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err
    line = next(line for line in err.splitlines() if line.startswith("recovery error: "))
    assert "certified level L = " in line
    assert reason in line


@pytest.mark.parametrize("eps", ["1e300", "1e306", "1e308"])
def test_recover_refuses_a_huge_eps_without_a_traceback(eps, capsys):
    config = Path(__file__).resolve().parent.parent / "configs" / "cauchy2.json"
    code = main(["recover", "--config", str(config), "--eps", eps])
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err
    assert any(line.startswith("recovery error: ") for line in err.splitlines())


def test_report_of_failed_recovery_has_no_bound_table(tmp_path, capsys):
    # the recovery fails as predicted (L > l_max) and leaves the bound section
    # empty, so its CSV is the header alone: recover writes it and exits 1, as
    # it does for JSON, and report prints it and exits 0
    config = Path(__file__).resolve().parent.parent / "configs" / "cauchy2.json"
    run = ["recover", "--config", str(config), "--dim", "1", "--p", "0.9"]
    csv_path, json_path = tmp_path / "failed.csv", tmp_path / "failed.json"
    assert main([*run, "--format", "csv", "--out", str(csv_path)]) == 1
    assert "exceeds l_max = 200" in capsys.readouterr().err
    assert csv_path.read_bytes() == b"norm_x,bound,error,ratio\n"
    assert main([*run, "--out", str(json_path)]) == 1
    capsys.readouterr()
    assert main(["report", "--in", str(json_path)]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("norm_x,bound,error,ratio\n", "")


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_report_prints_the_bytes_it_writes(tmp_path, capsys, fmt):
    saved = tmp_path / "saved.json"
    assert main(["recover", *TRIMMED, "--out", str(saved)]) == 0
    written = tmp_path / f"again.{fmt}"
    assert main(["report", "--in", str(saved), "--format", fmt, "--out", str(written)]) == 0
    capsys.readouterr()
    assert main(["report", "--in", str(saved), "--format", fmt]) == 0
    assert capsys.readouterr().out.encode() == written.read_bytes()
    if fmt == "json":
        assert written.read_bytes() == saved.read_bytes()


def test_report_renders_an_axioms_report(tmp_path, capsys):
    config = Path(__file__).resolve().parent.parent / "configs" / "cauchy2.json"
    saved = tmp_path / "axioms.json"
    assert main(["axioms", "--config", str(config), "--out", str(saved)]) == 0
    capsys.readouterr()
    assert main(["report", "--in", str(saved), "--format", "json"]) == 0
    assert capsys.readouterr().out.encode() == saved.read_bytes()
    # an axioms report has no bound table to write as CSV
    assert main(["report", "--in", str(saved)]) == 2
    captured = capsys.readouterr()
    assert "report has no per-probe bound table" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "edit,message",
    [("missing", "report is missing fields: passed"), ("unknown", "report has unknown fields: note")],
)
def test_report_names_only_the_fields_of_a_damaged_axioms_report(tmp_path, capsys, edit, message):
    # a report with no field of a recovery report's own is checked as an axioms report
    config = Path(__file__).resolve().parent.parent / "configs" / "cauchy2.json"
    saved = tmp_path / "axioms.json"
    assert main(["axioms", "--config", str(config), "--out", str(saved)]) == 0
    data = json.loads(saved.read_text(encoding="utf-8"))
    if edit == "missing":
        del data["passed"]
    else:
        data["note"] = "x"
    saved.write_text(json.dumps(data), encoding="utf-8")
    capsys.readouterr()
    assert main(["report", "--in", str(saved), "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_report_refuses_a_recover_report_with_a_missing_field(tmp_path, capsys):
    saved = tmp_path / "saved.json"
    assert main(["recover", *TRIMMED, "--out", str(saved)]) == 0
    data = json.loads(saved.read_text(encoding="utf-8"))
    del data["bound"]
    saved.write_text(json.dumps(data), encoding="utf-8")
    capsys.readouterr()
    assert main(["report", "--in", str(saved), "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert "error: report is missing fields: bound" in captured.err
    assert captured.out == ""


def test_report_refuses_a_recover_report_with_an_unknown_field(tmp_path, capsys):
    saved = tmp_path / "saved.json"
    assert main(["recover", *TRIMMED, "--out", str(saved)]) == 0
    data = json.loads(saved.read_text(encoding="utf-8"))
    data["note"] = "x"
    saved.write_text(json.dumps(data), encoding="utf-8")
    capsys.readouterr()
    assert main(["report", "--in", str(saved), "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert "error: report has unknown fields: note" in captured.err
    assert captured.out == ""


# the homogeneity section and its four check rows of a shipped cauchy2 report
# written before the section went; the rows stood after bound_ratio_theta
_OLD_HOMOGENEITY = {
    "complex": [
        {"label": "2", "lambda": [2.0, 0.0], "passed": True, "residual": 0.0, "threshold": 1e-06},
        {"label": "i", "lambda": [0.0, 1.0], "passed": True, "residual": 0.0, "threshold": 1e-06},
        {
            "label": "0.9+2.3i", "lambda": [0.9, 2.3], "passed": True,
            "residual": 1.287254854851403e-16, "threshold": 1e-06,
        },
    ],
    "passed": True,
    "s1": {
        "max_residual": 4.181232360294748e-18, "passed": True, "threshold": 1e-06,
        "zero_residual": 0.0,
    },
}
_OLD_HOMOGENEITY_ROWS = [
    {"name": name, "passed": True, "tolerance": 1e-06, "value": value}
    for name, value in (
        ("s1_homogeneity", 4.181232360294748e-18),
        ("complex_homogeneity_2", 0.0),
        ("complex_homogeneity_i", 0.0),
        ("complex_homogeneity_0.9+2.3i", 1.287254854851403e-16),
    )
]
# sha256 of render_json of that report, as its byte pin held it
_OLD_CAUCHY2_DIGEST = "58841b3d24ef34a2a00da17302b56efe21919cf65abf8c016c3532eb55c724bf"


def test_report_refuses_a_report_that_holds_the_homogeneity_section(
    tmp_path, capsys, pin_core_note
):
    # a shipped cauchy2 report as it was written while the pipeline ran the
    # homogeneity stage: today's report plus that section and its four rows,
    # byte for byte (its sha256 is the one that report's pin held).  The
    # schema dropped them with no compatibility shim, so it is refused
    config = Path(__file__).resolve().parent.parent / "configs" / "cauchy2.json"
    old = run_recovery(ExperimentConfig.from_dict(json.loads(config.read_text()))).to_dict()
    rows = old["checks"]
    at = [row["name"] for row in rows].index("bound_ratio_theta") + 1
    old["checks"] = [*rows[:at], *_OLD_HOMOGENEITY_ROWS, *rows[at:]]
    old["homogeneity"] = _OLD_HOMOGENEITY
    digest = hashlib.sha256(render_json(old).encode()).hexdigest()
    assert digest == _OLD_CAUCHY2_DIGEST, pin_core_note
    saved = tmp_path / "old.json"
    emit_report(old, "json", str(saved))
    with pytest.raises(ValueError, match=r"^report has unknown fields: homogeneity$"):
        load_report(str(saved))
    for fmt in ("json", "csv"):
        assert main(["report", "--in", str(saved), "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: report has unknown fields: homogeneity\n"
        assert captured.out == ""


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("edit", ["cell", "row"])
def test_report_refuses_a_bound_row_that_is_not_four_numbers(tmp_path, capsys, fmt, edit):
    config = Path(__file__).resolve().parent.parent / "configs" / "cauchy2.json"
    saved = tmp_path / "saved.json"
    assert main(["recover", "--config", str(config), "--out", str(saved)]) == 0
    data = json.loads(saved.read_text(encoding="utf-8"))
    if edit == "cell":
        data["bound"]["rows"][3][1] = "abc"
    else:
        data["bound"]["rows"][3] = [1.0]
    saved.write_text(json.dumps(data), encoding="utf-8")
    capsys.readouterr()
    assert main(["report", "--in", str(saved), "--format", fmt]) == 2
    captured = capsys.readouterr()
    assert "error: report bound.rows[3] must be four numbers, got [" in captured.err
    assert captured.out == ""


def test_recover_writes_a_failed_zero_eps_report(tmp_path, capsys):
    # a bound of 0 gives the bound ratio the value inf, which JSON has no number for
    config = Path(__file__).resolve().parent.parent / "configs" / "cauchy2.json"
    out_path = tmp_path / "eps0.json"
    code = main(["recover", "--config", str(config), "--eps", "0", "--out", str(out_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert f"wrote json report to {out_path}" in captured.out
    assert "FAILED bound_ratio: value=inf" in captured.err
    report = load_report(str(out_path))
    assert not report["passed"]
    assert report["bound"]["max_ratio"] == "inf"
    again = tmp_path / "again.json"
    assert main(["report", "--in", str(out_path), "--format", "json", "--out", str(again)]) == 0
    assert again.read_bytes() == out_path.read_bytes()


def test_recover_reports_a_linearity_failure_with_its_last_difference(tmp_path, capsys):
    # at skew_scale 1e8 the round-off of D(x), of order u ||D|| ||x||, passes
    # the certificate's allowance; the direct value has converged, so its last
    # difference A_L(x) - A_{L-1}(x) is 0 and the gap is round-off alone
    config = Path(__file__).resolve().parent.parent / "configs" / "cauchy2.json"
    generator = {"unitary": "identity", "skew": "random", "skew_scale": 1e8}
    data = json.loads(config.read_text(encoding="utf-8"))
    report = run_recovery(ExperimentConfig.from_dict({**data, "generator": generator}))
    assert [c["name"] for c in report.checks if not c["passed"]] == ["recovery_converged"]
    failure = report.recovery["linearity_failure"]
    assert failure["gap"] > failure["allowance"]
    named = (failure["map"], failure["probe_index"], failure["level"], failure["last_difference"])
    assert named == ("d", 21, 57, 0.0)
    run = ["recover", "--config", str(config), "--generator", json.dumps(generator)]
    json_path, csv_path = tmp_path / "failed.json", tmp_path / "failed.csv"
    assert main([*run, "--out", str(json_path)]) == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("FAILED ")] == [
        "FAILED recovery_converged: value=-, tolerance=-"
    ]
    assert "recovery error: recovered map failed linearity certification at level L = 57" in err
    assert load_report(str(json_path)) == report.to_dict()
    assert main([*run, "--format", "csv", "--out", str(csv_path)]) == 1
    assert csv_path.read_bytes() == b"norm_x,bound,error,ratio\n"


def test_recover_timings_table_stays_out_of_the_report(tmp_path, capsys):
    plain_path = tmp_path / "plain.json"
    timed_path = tmp_path / "timed.json"
    assert main(["recover", *TRIMMED, "--out", str(plain_path)]) == 0
    assert "total " not in capsys.readouterr().out
    assert main(["recover", *TRIMMED, "--timings", "--out", str(timed_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    stages = (
        "setup",
        "axioms",
        "recover",
        "hypotheses",
        "bound",
        "certificate",
        "sequence",
        "rate",
        "total",
    )
    table = {}
    for line in lines:
        name, _, seconds = line.partition(" ")
        if name in stages:
            table[name] = float(seconds)
    assert list(table) == list(stages)
    assert all(seconds >= 0.0 for seconds in table.values())
    # the stage lines account for the whole run, up to their printed rounding
    total = table.pop("total")
    assert sum(table.values()) == pytest.approx(total, abs=1e-5)
    # wall times are shown on the console only; the report bytes are unchanged
    assert timed_path.read_bytes() == plain_path.read_bytes()


def test_bounds_grid_has_no_rejections(capsys):
    code = main(["bounds"])
    out = capsys.readouterr().out
    assert code == 0
    for tag in ("cauchy2", "cauchy2-contractive", "jensen3", "jensen3-contractive"):
        assert tag in out
    assert "rejected" not in out
    assert out.count("\n") == 17


def test_bounds_single_p_marks_gated_schemes(capsys):
    code = main(["bounds", "--p", "0.5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "rejected: scheme cauchy2-contractive requires p > 1" in out
    assert "rejected: scheme jensen3-contractive requires p > 3" in out


@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
def test_bounds_explicit_gate_violation_fails_before_output(scheme, capsys):
    # p = gate lies outside every gate; bounds, a config and both bound
    # functions refuse it with the one text Scheme.require_gate raises
    p = float(scheme.gate)
    message = scheme.gate_message(p)
    code = main(["bounds", "--scheme", scheme.value, "--p", str(p)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    with pytest.raises(ConfigError) as config:
        ExperimentConfig(scheme=scheme.value, p=p)
    assert str(config.value) == message
    for bound in (hyers_bound, hyers_series):
        with pytest.raises(SummabilityError) as refused:
            bound(PowerType(1.0, p), scheme, matrix_basis(1)[0])
        assert str(refused.value) == message


@pytest.mark.parametrize(
    "scheme,p,closed,j,eps",
    [
        # each series ends at the first power b^j past the float range
        ("cauchy2", "0.99", "144.7700817110848", 1024, "1"),
        ("jensen3", "0.99", "182.04967634216561", 647, "1"),
        ("cauchy2-contractive", "1.01", "143.7700817110848", 1024, "1"),
    ],
)
def test_bounds_near_a_gate_prints_the_closed_form_without_its_series(
    scheme, p, closed, j, eps, capsys
):
    # the gate accepts p and the closed form is finite, but the term-by-term
    # reference series leaves the float range: the row says so, as a
    # gate-rejected row names its gate
    code = main(["bounds", "--scheme", scheme, "--eps", eps, "--p", p])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    header, row = captured.out.splitlines()
    assert header.split() == ["scheme", "p", "closed_form", "series", "rel_diff"]
    assert row == (
        f"{scheme:<22s} {float(p):>6.2f} {closed:>22s}   no series: series for scheme "
        f"{scheme} left the representable range at j = {j}"
    )


@pytest.mark.parametrize("scheme,p", [("jensen3", "0.90"), ("jensen3", "0.95"), ("cauchy2", "0.95")])
def test_bounds_near_a_gate_sums_a_series_that_fits_the_float_range(scheme, p, capsys):
    # the scaled arguments stay finite until the tail rule stops the sum; up
    # to 647 summed terms add about 647 u of round-off to SERIES_TOL, u the
    # float64 unit round-off, so the row is held to 1e-13
    code = main(["bounds", "--scheme", scheme, "--eps", "1", "--p", p])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    row = captured.out.splitlines()[1]
    assert "no series" not in row
    assert float(row.split()[-1]) <= 1e-13, row


def test_bounds_at_a_huge_eps_prints_the_whole_grid(capsys):
    # the reference sums the unit control and scales by eps once, so at a
    # huge or a tiny eps every grid row prints a series within its tolerance
    for eps in ("1e300", "1e-300"):
        code = main(["bounds", "--eps", eps])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        rows = captured.out.splitlines()[1:]
        assert len(rows) == 16
        assert all(float(row.split()[-1]) <= 2 * SERIES_TOL for row in rows), captured.out


def test_bounds_never_prints_inf_or_nan(capsys):
    # at eps = 1e308 twelve closed forms overflow: those rows say so and
    # print no series, and the four finite ones keep theirs
    code = main(["bounds", "--eps", "1e308"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    rows = captured.out.splitlines()[1:]
    assert len(rows) == 16
    assert not any(word in row for row in rows for word in ("inf", "nan"))
    overflows = [row for row in rows if row.endswith("no bound: the closed form is not finite")]
    assert len(overflows) == 12
    assert all(row.startswith("jensen3-contractive") for row in rows if row not in overflows)


@pytest.mark.parametrize(
    "argv,p_text",
    [
        (["--scheme", "cauchy2", "--p", "0.999"], "0.999"),
        (["--p", "0.999"], "0.999"),
        (["--scheme", "jensen3-contractive", "--p", "3.0001"], "3.0001"),
        (["--scheme", "cauchy2", "--p", "0.25"], "0.25"),
        # two decimals hold 1e308 exactly, in 312 characters
        (["--scheme", "cauchy2-contractive", "--p", "1e308"], "1e+308"),
    ],
)
def test_bounds_prints_an_explicit_p_that_two_decimals_do_not_hold_in_full(argv, p_text, capsys):
    # 0.999 to two decimals reads 1.00, the p at which cauchy2 has no constant;
    # every row, a gate-rejected one too, shows the p it was computed at
    code = main(["bounds", *argv])
    rows = capsys.readouterr().out.splitlines()[1:]
    assert code == 0
    assert rows and [row.split()[1] for row in rows] == [p_text] * len(rows)


@pytest.mark.parametrize(
    "argv,fragment",
    [
        (["bounds", "--eps", "-1"], "eps must be nonnegative, got -1.0"),
        (["bounds", "--eps", "inf"], "eps must be finite"),
    ],
)
def test_bounds_checks_eps_as_a_config_does(argv, fragment, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert fragment in captured.err
    assert "closed_form" not in captured.out


@pytest.mark.parametrize("flag", ["--eps", "--p"])
def test_bounds_prints_a_negative_zero_as_zero(flag, capsys):
    # the control stores -0.0 as 0.0, so no series cell reads -0 and no p
    # cell or gate message reads -0.00 or -0
    main(["bounds", flag, "-0.0"])
    signed = capsys.readouterr().out
    main(["bounds", flag, "0"])
    assert signed == capsys.readouterr().out


@pytest.mark.parametrize(
    "p,message",
    [
        pytest.param("-1", "p must be nonnegative, got -1.0", id="-1"),
        pytest.param("inf", "p must be finite, got inf", id="inf"),
        pytest.param("nan", "p must be finite, got nan", id="nan"),
    ],
)
def test_bounds_checks_p_as_a_control_does(p, message, capsys):
    # a control's exponent is checked before any output, as recover checks it
    code = main(["bounds", f"--p={p}"])
    captured = capsys.readouterr()
    assert code == 2
    assert message in captured.err
    assert captured.out == ""


@functools.cache
def _bound_outcomes(n: int) -> list[str]:
    """repr of hyers_bound and hyers_series at the n x n unit E11, or a refusal's text."""
    x, found = matrix_basis(n)[0], []
    for scheme, ps in [*_GRID.items(), (Scheme.CAUCHY2, (0.95,)), (Scheme.JENSEN3, (0.9,))]:
        for p in ps:
            for eps in (1.0, 0.1, 1e300, 1e-300, 1e308, 0.0):
                power = PowerType(eps, p)
                for bound in (hyers_bound, hyers_series):
                    try:
                        found.append(repr(bound(power, scheme, x)))
                    except SummabilityError as exc:
                        found.append(str(exc))
    return found


@pytest.mark.parametrize("n", range(1, DIM_MAX + 1))
def test_hyers_bounds_read_only_the_norm_of_x(n):
    # what lets `bounds` price its table on a 1x1 unit: at every dim, the
    # unit E11 gives the 1x1 unit's bounds and refusals bit for bit
    assert _bound_outcomes(n) == _bound_outcomes(1)


def test_axioms_offers_only_the_json_format(tmp_path, capsys):
    # argparse refuses csv before the suite runs: no check line, no file
    out = tmp_path / "a.csv"
    with pytest.raises(SystemExit) as exc:
        main(["axioms", "--format", "csv", "--out", str(out)])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert "invalid choice: 'csv'" in captured.err
    assert "PASS" not in captured.out
    assert not out.exists()


def test_bounds_takes_no_dim(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--dim", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --dim 2" in capsys.readouterr().err


def test_recover_rejects_gate_violation(capsys):
    code = main(["recover", "--scheme", "cauchy2", "--p", "1.0"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")
    assert "requires p < 1" in err


@pytest.mark.parametrize(
    "argv,fragment",
    [
        (["recover", "--scheme", "cauchy4"], "unknown scheme"),
        (["axioms", "--config", "/nonexistent/cfg.json"], "could not read config"),
        (["recover", "--generator", "{not json"], "generator is not valid JSON"),
        (["axioms", "--dim", "40"], "dim must be in"),
        (["report", "--in", "/nonexistent/report.json"], "could not read report"),
        (["recover", "--out", "/nonexistent/dir/report.json"], "could not write report"),
        (
            ["recover", "--generator", f'{{"skew_scale": {10**400}}}'],
            "skew_scale must be finite, got an integer too large for a float",
        ),
        (["axioms", "--generator", "haar"], 'generator must be "identity" or an object, got \'haar\''),
    ],
)
def test_errors_exit_two_with_message(argv, fragment, capsys):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")
    assert fragment in err


@pytest.mark.parametrize("text", ["5", "true", "null", '["config"]'])
def test_report_of_a_non_object_file_exits_two(tmp_path, capsys, text):
    path = tmp_path / "report.json"
    path.write_text(text, encoding="utf-8")
    code = main(["report", "--in", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: report must be an object")
    assert captured.out == ""


def test_config_file_with_bad_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{oops", encoding="utf-8")
    code = main(["axioms", "--config", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "is not valid JSON" in err
    # valid JSON that is no object
    path.write_text("[1, 2]", encoding="utf-8")
    assert main(["axioms", "--config", str(path)]) == 2
    assert "must hold a JSON object" in capsys.readouterr().err


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


def test_closed_stdout_exits_one_in_silence():
    # the reader of stdout has gone before the run starts: not a file error,
    # so exit 1 with nothing on stderr, not even a message at shutdown
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    try:
        done = subprocess.run(
            [sys.executable, "-m", "triple_stab.cli", "bounds", "--p", "0.5"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": path},
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (1, b"")


def _masked(text: str) -> str:
    # wall times are the only figures that differ between runs
    text = re.sub(r" in \d+\.\d\d s$", " in <s> s", text, flags=re.M)
    return re.sub(r"^(\w+) \d+\.\d{6}$", r"\1 <s>", text, flags=re.M)


_PINNED_AXIOMS_OUT = """\
  PASS axiom_commutativity                value=0 tol=1e-13
  PASS axiom_jordan_identity              value=1.38418e-16 tol=1e-10
  PASS axiom_l_positivity                 value=1.33227e-15 tol=1e-10
  PASS axiom_norm_identity                value=4.69893e-16 tol=1e-08
  PASS product_agreement                  value=1.71422e-16 tol=1e-12
axioms: 5/5 checks passed in <s> s
wrote json report to axioms.json
"""

_PINNED_RECOVER_OUT = """\
  PASS axiom_commutativity                value=0 tol=1e-13
  PASS axiom_jordan_identity              value=1.11537e-16 tol=1e-10
  PASS axiom_l_positivity                 value=9.93014e-16 tol=1e-10
  PASS axiom_norm_identity                value=6.85097e-16 tol=1e-08
  PASS product_agreement                  value=2.30345e-16 tol=1e-12
  PASS recovery_converged                 value=- tol=-
  PASS recovery_error_d                   value=5.00371e-17 tol=1e-06
  PASS recovery_error_theta               value=5.45046e-17 tol=1e-06
  PASS hypothesis_ratio_f                 value=0.505418 tol=1
  PASS hypothesis_ratio_h                 value=0.476338 tol=1
  PASS hypothesis_zero_control            value=0 tol=1e-10
  PASS bound_ratio                        value=0.436216 tol=1
  PASS bound_ratio_theta                  value=0.412148 tol=1
  PASS derivation_certificate             value=2.46509e-16 tol=1e-06
  PASS derivation_sequence_decreasing     value=0.0123461 tol=1
  PASS derivation_sequence_rate           value=0.0123459 tol=0.05
  PASS approximant_rate                   value=0.0123694 tol=0.05
recover: 17/17 checks passed in <s> s
setup <s>
axioms <s>
recover <s>
hypotheses <s>
bound <s>
certificate <s>
sequence <s>
rate <s>
total <s>
wrote json report to recover.json
"""

_PINNED_FAILED_OUT = """\
  PASS axiom_commutativity                value=0 tol=1e-13
  PASS axiom_jordan_identity              value=1.45217e-16 tol=1e-10
  PASS axiom_l_positivity                 value=1.44329e-15 tol=1e-10
  PASS axiom_norm_identity                value=4.13776e-16 tol=1e-08
  PASS product_agreement                  value=1.8678e-16 tol=1e-12
  FAIL recovery_converged                 value=- tol=-
recover: 5/6 checks passed in <s> s
wrote json report to failed.json
"""

_PINNED_FAILED_ERR = """\
FAILED recovery_converged: value=-, tolerance=-
recovery error: certified level L = 57 at series ratio 0.707107 exceeds l_max = 1
"""


@pytest.mark.parametrize(
    "argv,code,out,err",
    [
        (
            ["axioms", "--dim", "2", "--probe-count", "20", "--seed", "11", "--out", "axioms.json"],
            0,
            _PINNED_AXIOMS_OUT,
            "",
        ),
        (["recover", *TRIMMED, "--timings", "--out", "recover.json"], 0, _PINNED_RECOVER_OUT, ""),
        (
            ["recover", "--config", "cauchy2.json", "--l-max", "1", "--out", "failed.json"],
            1,
            _PINNED_FAILED_OUT,
            _PINNED_FAILED_ERR,
        ),
    ],
    ids=["axioms", "recover-timings", "recovery-error"],
)
def test_console_output_is_pinned(
    argv, code, out, err, tmp_path, monkeypatch, capsys, pin_core_note
):
    # check lines, summary, timings, the written report, then failures on stderr
    config = Path(__file__).resolve().parent.parent / "configs" / "cauchy2.json"
    (tmp_path / "cauchy2.json").write_bytes(config.read_bytes())
    monkeypatch.chdir(tmp_path)
    assert main(argv) == code, pin_core_note
    captured = capsys.readouterr()
    assert _masked(captured.out) == out, pin_core_note
    assert captured.err == err, pin_core_note
