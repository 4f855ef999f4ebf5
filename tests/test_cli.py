"""End-to-end tests for the command-line interface."""

import dataclasses
import json
import re
from pathlib import Path

import pytest

from triple_stab.cli import main
from triple_stab.lab import ExperimentConfig, load_report

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


def test_recover_command_writes_report(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = main(["recover", *TRIMMED, "--out", str(out_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "recover: 20/20 checks passed" in out
    report = load_report(str(out_path))
    assert report.passed
    assert report.config["scheme"] == "jensen3-contractive"

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
    assert load_report(str(json_path)).to_dict() == report.to_dict()


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
    config = Path(__file__).resolve().parent.parent / "configs" / "cauchy2.json"
    out_path = tmp_path / "failed.json"
    assert main(["recover", "--config", str(config), "--l-max", "1", "--out", str(out_path)]) == 1
    capsys.readouterr()
    code = main(["report", "--in", str(out_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "report has no per-probe bound table" in captured.err
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
    assert not report.passed
    assert report.bound["max_ratio"] == "inf"
    again = tmp_path / "again.json"
    assert main(["report", "--in", str(out_path), "--format", "json", "--out", str(again)]) == 0
    assert again.read_bytes() == out_path.read_bytes()


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
        "homogeneity",
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


def test_bounds_explicit_gate_violation_fails_before_output(capsys):
    code = main(["bounds", "--scheme", "cauchy2", "--p", "1.0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")
    assert "requires p < 1" in captured.err
    assert "closed_form" not in captured.out


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
        (["bounds", "--dim", "17"], "dim must be in [1, 16]"),
        (["bounds", "--dim", "0"], "dim must be in [1, 16]"),
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


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


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
  PASS bound_ratio                        value=0.436216 tol=1
  PASS bound_ratio_theta                  value=0.412148 tol=1
  PASS s1_homogeneity                     value=1.12167e-16 tol=1e-06
  PASS complex_homogeneity_2              value=0 tol=1e-06
  PASS complex_homogeneity_i              value=0 tol=1e-06
  PASS complex_homogeneity_0.9+2.3i       value=2.90103e-16 tol=1e-06
  PASS derivation_certificate             value=2.46509e-16 tol=1e-06
  PASS derivation_sequence_decreasing     value=0.0123461 tol=1
  PASS derivation_sequence_rate           value=0.0123459 tol=0.05
  PASS approximant_rate                   value=0.0123693 tol=0.05
recover: 20/20 checks passed in <s> s
setup <s>
axioms <s>
recover <s>
hypotheses <s>
bound <s>
homogeneity <s>
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
def test_console_output_is_pinned(argv, code, out, err, tmp_path, monkeypatch, capsys):
    # check lines, summary, timings, the written report, then failures on stderr
    config = Path(__file__).resolve().parent.parent / "configs" / "cauchy2.json"
    (tmp_path / "cauchy2.json").write_bytes(config.read_bytes())
    monkeypatch.chdir(tmp_path)
    assert main(argv) == code
    captured = capsys.readouterr()
    assert _masked(captured.out) == out
    assert captured.err == err
