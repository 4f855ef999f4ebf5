"""Tests for experiment configs, the lab pipelines, and report serialization."""

import ast
import copy
import dataclasses
import hashlib
import itertools
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import triple_stab
from triple_stab import lab, linalg, stability, triple
from triple_stab.lab import (
    ConfigError,
    ExperimentConfig,
    ReportFormatError,
    StabilityReport,
    axioms_report,
    build_generators,
    emit_report,
    load_report,
    render_csv,
    render_json,
    render_report,
    run_axiom_suite,
    run_recovery,
)
from triple_stab.stability import LinearityCertificationError
from triple_stab.triple import Conjugation

CHECK_NAMES = [
    "axiom_commutativity",
    "axiom_jordan_identity",
    "axiom_l_positivity",
    "axiom_norm_identity",
    "product_agreement",
    "recovery_converged",
    "recovery_error_d",
    "recovery_error_theta",
    "hypothesis_ratio_f",
    "hypothesis_ratio_h",
    "hypothesis_zero_control",
    "bound_ratio",
    "bound_ratio_theta",
    "derivation_certificate",
    "derivation_sequence_decreasing",
    "derivation_sequence_rate",
    "approximant_rate",
]


def _shipped_config(name: str, **overrides) -> ExperimentConfig:
    path = Path(__file__).resolve().parent.parent / "configs" / f"{name}.json"
    data = json.loads(path.read_text(encoding="utf-8"))
    return ExperimentConfig.from_dict({**data, **overrides})


def _trimmed_config(**overrides):
    base = dict(
        dim=2,
        scheme="jensen3-contractive",
        eps=0.1,
        p=4.0,
        seed=7,
        probe_count=12,
        tol=1e-9,
        l_max=200,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_default_config_is_valid():
    cfg = ExperimentConfig()
    before = copy.deepcopy(cfg)
    # validate() ran at construction; on a normalized config it changes nothing
    cfg.validate()
    assert cfg == before
    assert cfg.scheme_enum().value == "cauchy2"


@pytest.mark.parametrize(
    "field,value,fragment",
    [
        ("dim", 0, "dim must be in"),
        ("dim", 17, "dim must be in"),
        ("dim", True, "dim must be an integer"),
        ("dim", 2.0, "dim must be an integer"),
        ("scheme", "cauchy4", "unknown scheme"),
        ("eps", -1.0, "eps must be nonnegative"),
        ("eps", "0.1", "eps must be a number, got '0.1'"),
        ("eps", float("nan"), "eps must be finite"),
        ("p", -0.5, "p must be nonnegative"),
        ("seed", -3, "seed must fit"),
        ("seed", 1.5, "seed must be an integer"),
        ("probe_count", 0, "probe_count must be >= 1"),
        ("tol", 0.0, "tol must be positive"),
        ("tol", -1e-9, "tol must be positive"),
        ("tol", 0, r"tol must be positive, got 0\.0$"),
        ("l_max", 0, "l_max must be >= 1"),
        # past 4300 digits str() refuses an integer: the message names its size
        *(
            pytest.param(
                name, -(10**5000), f"{fragment}, got a negative integer of 16610 bits$",
                id=f"{name}--10**5000",
            )
            for name, fragment in (
                ("dim", r"dim must be in \[1, 16\]"),
                ("probe_count", "probe_count must be >= 1"),
                ("l_max", "l_max must be >= 1"),
            )
        ),
        pytest.param(
            "seed", 10**5000, "seed must fit in 64 bits, got an integer of 16610 bits$", id="seed-10**5000"
        ),
    ],
)
def test_config_field_validation(field, value, fragment):
    with pytest.raises(ConfigError, match=fragment):
        ExperimentConfig(**{field: value})


def test_config_gate_violation_names_condition():
    with pytest.raises(ConfigError, match="requires p < 1"):
        ExperimentConfig(scheme="cauchy2", p=1.0)
    with pytest.raises(ConfigError, match="requires p > 3"):
        ExperimentConfig(scheme="jensen3-contractive", p=2.0)


@pytest.mark.parametrize("scheme", ["cauchy2-contractive", "jensen3-contractive"])
def test_contractive_schemes_end_at_a_large_p(scheme, deadline):
    # at eps = 0 the control is 0 everywhere: ||x||^p overflowing from
    # p = 308 on once made its bound 0 * inf = NaN, and the level search
    # never ended.  From p = 1025 the defect constant 2^(p-1) leaves the
    # float range, and validate() refuses the config, naming p.  Warnings
    # are recorded, as the CLI prints them, instead of raised
    deadline(10.0)
    for p in (308.0, 1024.0):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = run_recovery(_shipped_config(scheme.replace("-", "_"), eps=0.0, p=p))
        assert caught == []
        assert report.recovery["converged"] and not report.passed
        # the known eps = 0 row: a zero bound against a round-off error
        failed = [c["name"] for c in report.checks if not c["passed"]]
        assert failed == ["bound_ratio"] and report.bound["max_ratio"] == math.inf
    for eps, p in ((0.0, 1e6), (0.1, 1025.0), (0.1, 1e6)):
        with pytest.raises(ConfigError, match=re.escape(f"p = {p:g} leaves the float range")):
            _shipped_config(scheme.replace("-", "_"), eps=eps, p=p)


def test_an_overflowing_ratio_is_inf_without_a_warning():
    # at a subnormal eps the control is so small that a residual over it
    # leaves the float range: the ratio is inf, as a norm past the range is,
    # and numpy prints no overflow warning on the way
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = run_recovery(
            _shipped_config("jensen3_contractive", eps=1e-320, generator={"skew_scale": 1e3})
        )
    assert caught == []
    assert report.hypotheses["max_ratio_f"] == math.inf and report.bound["max_ratio"] == math.inf
    assert not report.passed


def test_generator_spec_validation():
    ExperimentConfig(generator="identity")
    ExperimentConfig(generator={"unitary": "haar"})
    with pytest.raises(ConfigError, match="unknown generator fields"):
        ExperimentConfig(generator={"twist": 1})
    with pytest.raises(ConfigError) as unitary:
        ExperimentConfig(generator={"unitary": "fourier"})
    assert str(unitary.value) == (
        "generator unitary must be one of ('haar', 'identity'), got 'fourier'"
    )
    with pytest.raises(ConfigError) as skew:
        ExperimentConfig(generator={"skew": "none"})
    assert str(skew.value) == "generator skew must be one of ('random', 'zero'), got 'none'"
    with pytest.raises(ConfigError, match="skew_scale must be positive"):
        ExperimentConfig(generator={"skew_scale": 0.0})
    with pytest.raises(ConfigError, match='generator must be "identity" or an object'):
        ExperimentConfig(generator=[1, 2])


def test_generator_field_expands_defaults():
    assert ExperimentConfig(generator="identity").generator == {
        "unitary": "identity",
        "skew": "random",
        "skew_scale": 1.0,
    }
    assert ExperimentConfig(generator={}).generator == {
        "unitary": "haar",
        "skew": "random",
        "skew_scale": 1.0,
    }


def test_config_cannot_be_changed_into_an_invalid_one():
    cfg = ExperimentConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.dim = 0
    with pytest.raises(ConfigError, match="dim must be in"):
        dataclasses.replace(cfg, dim=0)
    assert cfg == ExperimentConfig()


def test_config_echo_does_not_alias_the_config():
    cfg = ExperimentConfig(generator={"unitary": "haar"})
    echo = cfg.to_dict()
    echo["generator"]["skew_scale"] = 5.0
    assert cfg.generator["skew_scale"] == 1.0
    assert cfg.to_dict()["generator"] == {"unitary": "haar", "skew": "random", "skew_scale": 1.0}


def test_from_dict_rejects_bad_shapes():
    with pytest.raises(ConfigError, match="config must be an object"):
        ExperimentConfig.from_dict([1, 2])
    with pytest.raises(ConfigError, match="unknown config fields: extra"):
        ExperimentConfig.from_dict({"extra": 1})


@pytest.mark.parametrize("field", ["eps", "p", "tol", "skew_scale"])
@pytest.mark.parametrize(
    "huge", [10**400, -(10**400), 10**5000], ids=["10**400", "-10**400", "10**5000"]
)
def test_config_names_an_integer_past_the_float_range(field, huge):
    # float() overflows on these; 10**5000 has more digits than str() will write
    data = {"generator": {field: huge}} if field == "skew_scale" else {field: huge}
    with pytest.raises(ConfigError) as excinfo:
        ExperimentConfig.from_dict(data)
    assert str(excinfo.value) == f"{field} must be finite, got an integer too large for a float"


def test_from_dict_coerces_numeric_fields():
    cfg = ExperimentConfig.from_dict({"eps": 1, "p": 0, "tol": 1e-8})
    assert isinstance(cfg.eps, float) and cfg.eps == 1.0
    assert isinstance(cfg.p, float) and cfg.p == 0.0
    # a config made directly holds the same normalized values
    direct = ExperimentConfig(eps=1, p=0, tol=1, scheme="CAUCHY2")
    assert (direct.scheme, type(direct.eps), type(direct.p), type(direct.tol)) == (
        "cauchy2",
        float,
        float,
        float,
    )


def test_config_stores_numpy_integers_as_ints():
    # a numpy integer passes a config, as it passes check_seed and
    # make_probes, and is stored as the Python int a report renders
    cfg = ExperimentConfig(
        dim=np.int64(2), seed=np.uint64(42), probe_count=np.int32(100), l_max=np.int64(200)
    )
    assert [type(getattr(cfg, name)) for name in ("dim", "seed", "probe_count", "l_max")] == [int] * 4
    assert render_json(cfg.to_dict()) == render_json(ExperimentConfig().to_dict())


def test_config_stores_numpy_reals_as_floats():
    # eps, p, tol and skew_scale take a numpy real, as the integer fields
    # take a numpy integer, and hold the Python float it converts to
    cases = [
        ({"eps": np.float32(0.1)}, "eps", float(np.float32(0.1))),
        ({"eps": np.int64(1)}, "eps", 1.0),
        ({"p": np.float16(0.5)}, "p", 0.5),
        ({"tol": np.float64(1e-9)}, "tol", 1e-9),
    ]
    for data, name, value in cases:
        stored = getattr(ExperimentConfig(**data), name)
        assert type(stored) is float and stored == value
    skew_scale = ExperimentConfig(generator={"skew_scale": np.float32(2.0)}).generator["skew_scale"]
    assert type(skew_scale) is float and skew_scale == 2.0
    for value in (np.True_, 1j, np.complex128(1.0)):
        with pytest.raises(ConfigError, match=r"^eps must be a number, got "):
            ExperimentConfig(eps=value)


def test_config_stores_a_negative_zero_as_zero():
    # -0.0 == 0.0, so the two configs' dicts compare equal even where one
    # holds -0.0; their rendered texts differ there
    signed = ExperimentConfig(eps=-0.0, p=-0.0).to_dict()
    assert render_json(signed) == render_json(ExperimentConfig(eps=0.0, p=0.0).to_dict())
    for data in ({"tol": -0.0}, {"generator": {"skew_scale": -0.0}}):
        with pytest.raises(ConfigError, match=r"must be positive, got 0\.0$"):
            ExperimentConfig.from_dict(data)


def test_shipped_configs_are_valid():
    config_dir = Path(__file__).resolve().parent.parent / "configs"
    paths = sorted(config_dir.glob("*.json"))
    assert len(paths) == 4
    tags = set()
    for path in paths:
        data = json.loads(path.read_text(encoding="utf-8"))
        cfg = ExperimentConfig.from_dict(data)
        tags.add(cfg.scheme_enum().value)
    assert tags == {
        "cauchy2",
        "cauchy2-contractive",
        "jensen3",
        "jensen3-contractive",
    }


def test_config_round_trip_normalizes_scheme_tag():
    cfg = ExperimentConfig(scheme="jensen3_contractive", p=4.0)
    data = cfg.to_dict()
    assert data["scheme"] == "jensen3-contractive"
    assert data["generator"] == {
        "unitary": "identity",
        "skew": "random",
        "skew_scale": 1.0,
    }
    again = ExperimentConfig.from_dict(data)
    assert again.to_dict() == data


@st.composite
def _valid_configs(draw):
    """Any accepted config: dims 1-16, each scheme with a p inside its gate, any tag spelling.

    A contractive p stays below 1025, from where 2^(p-1) leaves the float range.
    """
    scheme = draw(st.sampled_from(list(stability.Scheme)))
    if scheme.contractive:
        p = st.floats(min_value=scheme.gate, max_value=1025.0, exclude_min=True, exclude_max=True)
    else:
        p = st.floats(min_value=0.0, max_value=scheme.gate, exclude_max=True)
    positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    generator = st.fixed_dictionaries(
        {},
        optional={
            "unitary": st.sampled_from(["haar", "identity"]),
            "skew": st.sampled_from(["random", "zero"]),
            "skew_scale": st.one_of(st.integers(1, 10**6), positive),
        },
    )
    return ExperimentConfig(
        dim=draw(st.integers(1, 16)),
        scheme=draw(st.sampled_from([scheme.value, scheme.value.replace("-", "_").upper()])),
        eps=draw(st.one_of(st.integers(0, 10**6), st.floats(min_value=0.0, allow_infinity=False))),
        p=draw(p),
        seed=draw(st.integers(0, 2**64 - 1)),
        probe_count=draw(st.integers(1, 10**4)),
        tol=draw(positive),
        l_max=draw(st.integers(1, 10**4)),
        generator=draw(st.one_of(st.just("identity"), generator)),
    )


@given(_valid_configs())
def test_config_echo_round_trips(cfg):
    echo = cfg.to_dict()
    assert ExperimentConfig.from_dict(echo) == cfg
    assert ExperimentConfig.from_dict(echo).to_dict() == echo


# ---------------------------------------------------------------------------
# deterministic rendering
# ---------------------------------------------------------------------------

def test_render_json_scalars():
    assert render_json(None) == "null"
    assert render_json(True) == "true"
    assert render_json(False) == "false"
    assert render_json(3) == "3"
    assert render_json(1.0) == "1.0"
    assert render_json(2.0) == "2.0"
    assert render_json(0.25) == "0.25"
    assert render_json("a\"b") == '"a\\"b"'


def test_render_json_renders_subclasses_as_their_exact_types():
    # exact floats, lists, tuples and dicts take the first branches, anything
    # else the isinstance chain; both give the same bytes
    class Rows(list):
        pass

    class Section(dict):
        pass

    assert render_json((1.0, 2)) == render_json([1.0, 2]) == "[1.0, 2]"
    assert render_json(np.float64(0.25)) == render_json(0.25) == "0.25"
    assert render_json([True, np.float64(3.0), False]) == "[true, 3.0, false]"
    assert render_json({"b": True, "a": np.float64(1e-300)}) == '{"a": 1e-300, "b": true}'
    nested = Section(b=Rows([np.float64(1.0), (2.5,)]), a=(False, None))
    assert render_json(nested) == '{"a": [false, null], "b": [1.0, [2.5]]}'


def test_render_json_sorts_keys():
    assert render_json({"b": 1, "a": [2, 3]}) == '{"a": [2, 3], "b": 1}'
    assert render_json({"a": 1, "b": 2}) == render_json({"b": 2, "a": 1})


def test_render_json_rejects_bad_values():
    # JSON has no number for +-inf: a report names it, wherever it stands
    inf = float("inf")
    assert render_json(inf) == '"inf"'
    assert render_json(-inf) == '"-inf"'
    assert render_json([1.0, inf, -inf]) == '[1.0, "inf", "-inf"]'
    assert render_json({"x": inf, "y": [-inf]}) == '{"x": "inf", "y": ["-inf"]}'
    assert render_json(np.float64(-inf)) == '"-inf"'
    for bad in (float("nan"), [float("nan")], {"x": float("nan")}):
        with pytest.raises(ValueError, match="NaN"):
            render_json(bad)
    with pytest.raises(ValueError, match="keys must be strings"):
        render_json({1: "x"})
    with pytest.raises(ValueError, match="cannot serialize"):
        render_json(object())


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_render_json_floats_round_trip(value):
    text = render_json(value)
    assert json.loads(text) == value
    # every float renders with an explicit decimal point or exponent
    assert "." in text or "e" in text or "E" in text


def test_render_csv_oracle():
    data = {"bound": {"rows": [[1.0, 2.0, 0.5, 0.25], [3.0, 4.0, 1.0, 0.25]]}}
    assert render_csv(data) == (
        "norm_x,bound,error,ratio\n"
        "1.0,2.0,0.5,0.25\n"
        "3.0,4.0,1.0,0.25\n"
    )
    with pytest.raises(ReportFormatError, match="no per-probe bound table"):
        render_csv({"config": {}})


# ---------------------------------------------------------------------------
# report persistence
# ---------------------------------------------------------------------------

def _tiny_report():
    names = [f.name for f in dataclasses.fields(StabilityReport) if f.name != "timings"]
    fields = dict.fromkeys(names)
    fields.update(
        config={"dim": 2},
        axioms={},
        hypotheses={},
        bound={"rows": [[1.0, 2.0, 0.5, 0.25]], "max_ratio": 0.25},
        bound_theta={"rows": []},
        recovery={},
        rate={},
        derivation_certificate={},
        derivation_sequence={},
        checks=[],
        passed=True,
    )
    return StabilityReport(**fields)


def test_emit_and_load_report_round_trip(tmp_path):
    report = _tiny_report()
    path = tmp_path / "report.json"
    emit_report(report.to_dict(), "json", str(path))
    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n")
    # a recovery report comes back as its dict, as an axioms report does
    assert load_report(str(path)) == report.to_dict()


def test_emit_report_csv_and_bad_format(tmp_path):
    report = _tiny_report()
    csv_path = tmp_path / "rows.csv"
    emit_report(report.to_dict(), "csv", str(csv_path))
    assert csv_path.read_text(encoding="utf-8").startswith("norm_x,bound,error,ratio\n")
    with pytest.raises(ReportFormatError, match="unknown report format"):
        emit_report(report.to_dict(), "yaml", str(tmp_path / "x.yaml"))


def test_load_report_missing_fields(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"config": {}}', encoding="utf-8")
    with pytest.raises(ValueError, match="missing fields"):
        load_report(str(path))


@pytest.mark.parametrize(
    "text,kind", [("5", "int"), ("true", "bool"), ("null", "NoneType"), ('["config"]', "list")]
)
def test_load_report_refuses_a_non_object(tmp_path, text, kind):
    path = tmp_path / "scalar.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=f"report must be an object, got {kind}"):
        load_report(str(path))


@pytest.mark.parametrize(
    "rows,message",
    [
        ({"rows": 1.0}, "bound.rows must be a list, got float"),
        ({"rows": [[1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0]]}, r"bound.rows\[1\] must be four"),
        ({"rows": [[1.0, 2.0, 3.0, "nan"]]}, r"bound.rows\[0\] must be four"),
        ({"rows": [[1.0, 2.0, 3.0, float("nan")]]}, r"bound.rows\[0\] must be four"),
        ({"rows": [[1.0, 2.0, 3.0, True]]}, r"bound.rows\[0\] must be four"),
        ({"rows": [[1.0, 2.0, 3.0, 10**400]]}, r"bound.rows\[0\] must be four"),
    ],
)
def test_load_report_refuses_a_bound_row_that_is_not_four_numbers(tmp_path, rows, message):
    data = _tiny_report().to_dict()
    data["bound"] = {**data["bound"], **rows}
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(ValueError, match=message):
        load_report(str(path))


def test_load_report_accepts_the_cells_a_report_holds(tmp_path):
    # ints, the names of +-inf, and a float inf (JSON's Infinity, or 1e999)
    data = _tiny_report().to_dict()
    data["bound"] = {**data["bound"], "rows": [[1, 2.5, "inf", "-inf"], [0.5, 1.0, 2.0, math.inf]]}
    path = tmp_path / "cells.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    csv = render_csv(load_report(str(path)))
    assert csv == "norm_x,bound,error,ratio\n1.0,2.5,inf,-inf\n0.5,1.0,2.0,inf\n"


def test_load_report_missing_file(tmp_path):
    with pytest.raises(OSError, match="could not read report"):
        load_report(str(tmp_path / "absent.json"))


# ---------------------------------------------------------------------------
# pipelines
# ---------------------------------------------------------------------------

def test_run_axiom_suite_rejects_zero_samples():
    for samples, got in ((0, "0"), (-(10**5000), "a negative integer of 16610 bits")):
        with pytest.raises(ConfigError, match=f"sample count must be >= 1, got {got}$"):
            run_axiom_suite(ExperimentConfig(), samples=samples)


def test_axioms_report_passes_and_is_deterministic():
    cfg = ExperimentConfig(dim=3, seed=11, probe_count=20)
    report1, timings = axioms_report(cfg, samples=20)
    report2, _ = axioms_report(cfg, samples=20)
    assert report1["passed"]
    assert timings["total_s"] > 0.0
    assert render_json(report1) == render_json(report2)
    names = [c["name"] for c in report1["checks"]]
    assert names == CHECK_NAMES[:5]


def test_run_recovery_trimmed_scenario():
    report = run_recovery(_trimmed_config(), threads=1)
    assert report.passed
    assert [c["name"] for c in report.checks] == CHECK_NAMES
    assert all(c["passed"] for c in report.checks)
    assert report.recovery["d_entrywise_error"] <= 1e-6
    assert report.recovery["theta_entrywise_error"] <= 1e-6
    assert report.bound["max_ratio"] <= 1.0 + 1e-9
    assert len(report.bound["rows"]) == 12
    assert "recover_s" in report.timings
    # timings stay off the serialized payload
    assert "timings" not in report.to_dict()


def test_run_recovery_thread_counts_agree_byte_for_byte():
    cfg = _trimmed_config()
    one = run_recovery(cfg, threads=1)
    two = run_recovery(cfg, threads=2)
    assert render_json(one.to_dict()) == render_json(two.to_dict())


# sha256 of the rendered reports of shipped cauchy2 and jensen3 at dims 2 and 8
_REPORT_DIGESTS = """
import hashlib, json, pathlib, sys
from triple_stab.lab import ExperimentConfig, render_json, run_recovery
for name in ("cauchy2", "jensen3"):
    data = json.loads((pathlib.Path(sys.argv[1]) / f"{name}.json").read_text())
    for dim in (2, 8):
        report = run_recovery(ExperimentConfig.from_dict({**data, "dim": dim}))
        print(name, dim, hashlib.sha256(render_json(report.to_dict()).encode()).hexdigest())
"""


def test_reports_are_byte_stable_across_blas_thread_counts():
    config_dir = Path(__file__).resolve().parent.parent / "configs"
    package_root = str(Path(triple_stab.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    digests = {}
    for threads in ("1", "2"):
        env = dict(
            os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads
        )
        run = subprocess.run(
            [sys.executable, "-c", _REPORT_DIGESTS, str(config_dir)],
            env=env, capture_output=True, text=True, check=True,
        )
        digests[threads] = run.stdout.splitlines()
    assert len(digests["1"]) == 4
    assert digests["1"] == digests["2"]


def test_readme_library_example_runs():
    # README.md's one python block, run as a script with the package on the path
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    [block] = re.findall(r"^```python\n(.*?)^```", readme, re.MULTILINE | re.DOTALL)
    package_root = str(Path(triple_stab.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", block],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr
    # the last line: f plus a conjugate-linear part fails the linearity certificate on d
    assert run.stdout.splitlines()[-1] == "False d True", run.stdout


def test_run_recovery_stops_after_failed_recovery(tmp_path):
    report = run_recovery(_shipped_config("cauchy2", l_max=1))
    assert [c["name"] for c in report.checks] == CHECK_NAMES[:6]
    assert not report.checks[-1]["passed"]
    assert not report.passed
    assert not report.recovery["converged"]
    for section in (
        "hypotheses",
        "bound",
        "bound_theta",
        "rate",
        "derivation_certificate",
        "derivation_sequence",
    ):
        assert getattr(report, section) == {}
    path = tmp_path / "failed.json"
    emit_report(report.to_dict(), "json", str(path))
    assert load_report(str(path)) == report.to_dict()


_RUN_STAGES = (
    "setup",
    "axioms",
    "recover",
    "hypotheses",
    "bound",
    "certificate",
    "sequence",
    "rate",
)


def test_run_recovery_keeps_timings_in_run_order():
    # the CLI prints the timings as they come, so their order is the run's
    failed = run_recovery(_shipped_config("cauchy2", l_max=1))
    assert list(failed.timings) == ["setup_s", "axioms_s", "recover_s", "total_s"]
    passed = run_recovery(_trimmed_config())
    assert list(passed.timings) == [f"{stage}_s" for stage in (*_RUN_STAGES, "total")]


def test_recover_lap_holds_the_whole_recovery(monkeypatch):
    # the entrywise errors against the exact maps are part of the recovery
    # stage, so a slow exact table is charged to recover_s, not hypotheses_s
    to_tabulated = triple.LinearOperator.to_tabulated

    def slow(self):
        time.sleep(0.05)
        return to_tabulated(self)

    monkeypatch.setattr(triple.LinearOperator, "to_tabulated", slow)
    timings = run_recovery(_shipped_config("cauchy2")).timings
    assert timings["recover_s"] >= 0.05
    assert timings["hypotheses_s"] < 0.05


def test_lab_builds_no_report_section():
    # every check threshold sits in stability beside the stage that applies
    # it: lab defines none and imports none of the recovery, sequence and
    # rate machinery
    tree = ast.parse(Path(lab.__file__).read_text(encoding="utf-8"))
    defined = {
        target.id
        for node in ast.walk(tree) if isinstance(node, ast.Assign)
        for target in node.targets if isinstance(target, ast.Name)
    }
    defined |= {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    moved = {"RECOVERY_ERROR_TOL", "RATE_WINDOW", "SEQUENCE_STRICT_AFTER", "_section"}
    assert defined & moved == set()
    assert imported & {
        "recover_linear_map",
        "derivation_limit_sequence",
        "perturbation_decay_rate",
        "pooled_rate",
        "ROUNDOFF_FLOOR",
        "SchemeError",
        "ConvergenceError",
        "LinearityCertificationError",
    } == set()


@pytest.mark.parametrize("failing", ["d", "theta"])
def test_failed_linearity_certificate_is_recorded_in_the_report(monkeypatch, failing):
    recover = stability.recover_linear_map

    def fail_one_map(g, *args):
        # h perturbs theta, a conjugation; f perturbs the composite D
        if isinstance(g.base, Conjugation) == (failing == "theta"):
            failure = {
                "probe_index": 5, "probe_norm": 1.25, "gap": 3e-7, "allowance": 2e-7,
                "level": 57, "last_difference": 4e-9,
            }
            raise LinearityCertificationError("linearity failed", failure)
        return recover(g, *args)

    monkeypatch.setattr(stability, "recover_linear_map", fail_one_map)
    report = run_recovery(_shipped_config("cauchy2"))
    assert not report.passed
    assert report.recovery["error"] == "linearity failed"
    assert report.recovery["levels"] == ({"d": 57} if failing == "theta" else {})
    assert report.recovery["linearity_failure"] == {
        "map": failing,
        "probe_index": 5,
        "probe_norm": 1.25,
        "gap": 3e-7,
        "allowance": 2e-7,
        "level": 57,
        "last_difference": 4e-9,
    }
    rendered = json.loads(render_json(report.to_dict()))
    assert rendered["recovery"]["linearity_failure"] == report.recovery["linearity_failure"]
    # a recovery that passes, or fails for another reason, adds no key
    monkeypatch.setattr(stability, "recover_linear_map", recover)
    assert "linearity_failure" not in run_recovery(_shipped_config("cauchy2")).recovery
    assert "linearity_failure" not in run_recovery(_shipped_config("cauchy2", l_max=1)).recovery


def test_shipped_runs_take_pinned_norm_counts(monkeypatch):
    """Norm-kernel and perturbed-map kernel calls per run_recovery of each shipped config.

    Every norm goes through ``linalg._norm`` once, whether through the public
    ``spectral_norm`` or straight from the package's internals.  Each stage
    takes the norms of a probe stack in one call; a change that brings back
    one call per argument or per factor raises these counts.  The set-up
    stage takes none for the generators and the bound stage two (one bound
    and the errors of both maps).  The perturbed
    maps f and h take no norms of their own inside a stage: the hypothesis
    stage takes two (its arguments, then its residuals), the bound stage's
    maps reuse the probe norms and h reuses f's in the derivation sequence
    (42/38/42/42 when each map call took its own).  The axiom suite takes
    two, its inputs and then its residuals (34/31/34/34 when each of its
    checks took its own, seven in all).  A level scan norms its unscaled
    stack once for all levels, and the direct method's limit reuses the
    norms of its power-type bound (29/26/29/29 when each recovery's limit
    normed its scaled probes again).  The homogeneity stage took one more
    (26/23/26/26) until it went: the linearity certificate of the recovery
    already certifies that the limit is C-linear.

    Every map call of a stage is one ``PerturbedMap._at`` call: two in the
    hypothesis stage, two in the bound stage, one per recovery's limit, two
    in the derivation sequence and one in the rate fit.  A level scan takes
    all its levels in one call at every dim, so dim 8 reads the counts of
    dim 2 (35/24/33/29 norm and 27/9/23/15 kernel calls when the scans split
    their levels into groups of at most 2^15 complex entries).
    """
    calls = []
    norm = linalg._norm

    def counted(x):
        calls.append(1)
        return norm(x)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "triple_stab" and module.__dict__.get("_norm") is norm:
            monkeypatch.setattr(module, "_norm", counted)
    kernel_calls = []
    kernel = stability.PerturbedMap._at

    def counted_kernel(self, *args):
        kernel_calls.append(1)
        return kernel(self, *args)

    monkeypatch.setattr(stability.PerturbedMap, "_at", counted_kernel)
    for dim in (2, 8):
        counts, kernel_counts = {}, {}
        for name in ("cauchy2", "cauchy2_contractive", "jensen3", "jensen3_contractive"):
            calls.clear()
            kernel_calls.clear()
            run_recovery(_shipped_config(name, dim=dim))
            counts[name], kernel_counts[name] = len(calls), len(kernel_calls)
        assert counts == {
            "cauchy2": 25,
            "cauchy2_contractive": 22,
            "jensen3": 25,
            "jensen3_contractive": 25,
        }, dim
        assert kernel_counts == {
            "cauchy2": 9,
            "cauchy2_contractive": 7,
            "jensen3": 9,
            "jensen3_contractive": 9,
        }, dim


def test_shipped_runs_take_pinned_as_matrix_counts(monkeypatch):
    """linalg.as_matrix calls per run_recovery of each shipped config at dim 2.

    An array is checked where it enters the package: at a stage's entry, an
    operator or perturbed-map call, a map's output or residual, a public
    checker or product, and an operator's constructor.  What the package
    computes from checked arrays goes through the kernels unchecked, so a
    change that checks an array twice raises these counts (240/214/240/240
    when every internal call re-checked its operands).  A stage hands a
    perturbed map a stack it has checked itself, so the map runs its kernel
    without re-checking it: the hypothesis stage's two calls, the bound
    stage's two and the derivation sequence's two (58/52/58/58 when each
    went through the map's checking call).  The axiom suite casts its one
    stack of draws once and hands the kernel views of it (39/35/39/39 when
    the axiom checker checked each of its seven operands, 49/45/49/49 when
    each of four checkers checked its own).  Drawing probe sets as stacks
    instead of lists changes no count here: a stage checks its probes once either way.
    The level scans of the direct method and the rate stage run the map's
    kernel on their checked stacks too, and check only its output
    (45/41/45/45 when they called the map on each scaled stack).  The
    homogeneity stage took three more until it went, its probes, its map's
    outputs and its residuals (33/29/33/33).

    A config is checked once, when it is made, so a run calls no
    ``ExperimentConfig.validate`` (2 when the run and its axiom suite each
    checked the config again).
    """
    calls, validations = [], []
    check = linalg.as_matrix
    validate = ExperimentConfig.validate

    def counted(x):
        calls.append(1)
        return check(x)

    def counted_validate(config):
        validations.append(1)
        return validate(config)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "triple_stab" and module.__dict__.get("as_matrix") is check:
            monkeypatch.setattr(module, "as_matrix", counted)
    monkeypatch.setattr(ExperimentConfig, "validate", counted_validate)
    counts = {}
    for name in ("cauchy2", "cauchy2_contractive", "jensen3", "jensen3_contractive"):
        config = _shipped_config(name)
        calls.clear()
        validations.clear()
        run_recovery(config)
        counts[name] = (len(calls), len(validations))
    assert counts == {
        "cauchy2": (30, 0),
        "cauchy2_contractive": (26, 0),
        "jensen3": (30, 0),
        "jensen3_contractive": (30, 0),
    }


@pytest.mark.parametrize("dim,samples", [(1, 1), (2, 50), (3, 7)])
def test_axiom_suite_takes_two_calls_of_each_kernel(monkeypatch, dim, samples):
    """One triple-product, Jordan-product and norm call per product level.

    The first ``_cstar`` call takes every first-level triple product, the
    second the Jordan identity's second level; the Jordan form takes one
    ``_jordan`` call per level; one ``_norm`` call takes the inputs and one
    the residuals (13, 6 and 7 calls when each check took its own).
    """
    calls = {"_cstar": 0, "_jordan": 0, "_norm": 0}

    def counting(name, kernel):
        def counted(*args):
            calls[name] += 1
            return kernel(*args)

        return counted

    kernels = {name: getattr(triple, name) for name in calls}
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] != "triple_stab":
            continue
        for name, kernel in kernels.items():
            if module.__dict__.get(name) is kernel:
                monkeypatch.setattr(module, name, counting(name, kernel))
    run_axiom_suite(ExperimentConfig(dim=dim), samples=samples)
    assert calls == {"_cstar": 2, "_jordan": 2, "_norm": 2}


def _plain_leaves(value) -> bool:
    """True when a section holds only Python scalars, lists and dicts: no numpy scalar."""
    if isinstance(value, dict):
        return all(type(k) is str and _plain_leaves(v) for k, v in value.items())
    if type(value) is list:
        return all(map(_plain_leaves, value))
    return type(value) in (float, int, bool, str, type(None))


def test_report_sections_hold_every_field_of_their_results(monkeypatch):
    # each stage returns its report section; run_recovery stores that dict
    # and drops bound_theta's rows
    results, snapshots = {}, {}

    def keep(name):
        stage = getattr(lab, name)

        def kept(*args):
            results[name] = stage(*args)
            snapshots[name] = copy.deepcopy(results[name])
            return results[name]

        return kept

    for name in (
        "recover_maps",
        "verify_hypotheses",
        "verify_stability_bound",
        "certify_theta_derivation",
        "verify_derivation_sequence",
        "estimate_convergence_rate",
    ):
        monkeypatch.setattr(lab, name, keep(name))
    report = run_recovery(_shipped_config("cauchy2"))
    recovery, d_hat, theta_hat = results["recover_maps"]
    assert report.recovery is recovery and report.recovery == snapshots["recover_maps"][0]
    assert "skipped" not in report.derivation_sequence
    bound_f, bound_h = results["verify_stability_bound"]
    assert report.bound is bound_f and report.bound_theta is bound_h
    assert report.bound == snapshots["verify_stability_bound"][0]
    assert all(type(row) is list for row in report.bound["rows"])
    assert report.bound_theta == {
        k: v for k, v in snapshots["verify_stability_bound"][1].items() if k != "rows"
    }
    for section, name in (
        (report.hypotheses, "verify_hypotheses"),
        (report.derivation_certificate, "certify_theta_derivation"),
        (report.derivation_sequence, "verify_derivation_sequence"),
        (report.rate, "estimate_convergence_rate"),
    ):
        assert section is results[name] and section == snapshots[name]


def test_stages_called_directly_return_renderable_sections(monkeypatch):
    # a library caller gets the same plain section, in any working dtype
    monkeypatch.setattr(linalg, "DTYPE", np.clongdouble)
    config = _shipped_config("cauchy2")
    theta, _, big_d = build_generators(config)
    phi = stability.PowerType(config.eps, config.p)
    f = stability.make_perturbation(big_d, config.eps, config.p, "cauchy", seed=1)
    h = stability.make_perturbation(theta, config.eps, config.p, "cauchy", seed=2)
    exact = (big_d, theta)
    recovery, d_hat, theta_hat = stability.recover_maps(f, h, exact, phi, "cauchy2", 1e-9, 200)
    probes = triple_stab.make_probes(2, 6, triple_stab.rng_for(3, 2))
    mus = triple_stab.make_mu_samples(4, triple_stab.rng_for(3, 3))
    sections = [
        recovery,
        stability.verify_hypotheses(f, h, phi, "cauchy", probes, mus),
        *stability.verify_stability_bound([(f, d_hat), (h, theta_hat)], phi, "cauchy2", probes),
        stability.certify_theta_derivation(d_hat, theta_hat, probes.reshape(2, 3, 2, 2)),
        stability.verify_derivation_sequence(f, h, "cauchy2", config.p, probes.reshape(2, 3, 2, 2)),
        stability.estimate_convergence_rate(f, "cauchy2", config.p, probes),
        run_axiom_suite(config, samples=3),
    ]
    assert [m.coeffs.dtype for m in (d_hat, theta_hat)] == [np.dtype(np.clongdouble)] * 2
    for section in sections:
        assert type(section) is dict and _plain_leaves(section), section
        assert json.loads(render_json(section)) == section


def test_run_recovery_makes_no_deep_copy(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("copy.deepcopy called")

    monkeypatch.setattr(copy, "deepcopy", refuse)
    assert run_recovery(_shipped_config("cauchy2")).passed


# sha256 of render_json of each shipped config as shipped (dim 2, seed 42);
# a numpy or BLAS build that rounds differently would change them.  All four
# moved when the operators began to multiply each slice on its own (at
# dim 2, elementwise) instead of laying the stack out as one tall GEMM,
# which sums each entry's products in another order.  All four moved again
# when the zero-control hypothesis test got its own check row, and again
# when the homogeneity section and its four check rows went, no other byte
# moving
_SHIPPED_DIGESTS = {
    "cauchy2": "7d859bf53e15cc9e3830092d9f5997207a252b77ffad442c4ef5bdc51dbb451f",
    "cauchy2_contractive": "79be1b85725bf7fdf94db027404523d6e0e0e286644329fe9fe98e5928d1a7c6",
    "jensen3": "60d047e28a9147423ba6cb0be1cdffce2bda386ef6d12ef881a1351904f658dd",
    "jensen3_contractive": "62e994cf05520a364f7577e2af03f8ddc9bdaab2f1a15f912bce1b2cc76c7f9a",
}


@pytest.mark.parametrize("name", sorted(_SHIPPED_DIGESTS))
def test_shipped_reports_keep_their_bytes(name, pin_core_note):
    report = run_recovery(_shipped_config(name))
    digest = hashlib.sha256(render_json(report.to_dict()).encode()).hexdigest()
    assert digest == _SHIPPED_DIGESTS[name], pin_core_note


# sha256 of the 48-report set, rendered and concatenated in the order below.
# The operators multiply each slice on its own instead of as one tall GEMM
# over the stack, which sums each entry's products in another order: the 40
# reports at dims >= 2 moved at round-off and the 8 dim-1 reports kept
# their bytes.  Then every report gained the ``hypothesis_zero_control``
# row, which passes in all 48, and no other byte moved.  Then every report
# lost the ``homogeneity`` section and its four rows, and no other byte moved
_REPORT_SET_DIGEST = "a693aebe324bb874dcda67f335af9551e237d90e8711a6387ee68480ad0b271a"


@pytest.mark.slow
def test_report_set_keeps_its_bytes(pin_core_note):
    """The four shipped configs x dims 1-5 and 8 x seeds 42 and 3: 48 reports.

    Each report's ``render_json`` is hashed in one sha256, config by config,
    then dim by dim, then seed 42 before 3.  A change meant to move no
    report byte (a speed-up, a refactor) keeps this digest; one that means
    to move a report updates it and says why.  About 5 s; run with
    ``python -m pytest -m slow``.
    """
    digest = hashlib.sha256()
    for name in sorted(_SHIPPED_DIGESTS):
        for dim, seed in itertools.product((1, 2, 3, 4, 5, 8), (42, 3)):
            report = run_recovery(_shipped_config(name, dim=dim, seed=seed))
            digest.update(render_json(report.to_dict()).encode())
    assert digest.hexdigest() == _REPORT_SET_DIGEST, pin_core_note


def test_zero_eps_report_renders_and_names_its_infinite_ratio(tmp_path):
    # at eps = 0 the bound is 0, so the recovered map's round-off has an
    # infinite ratio; the check fails, the report holds the float inf and
    # its written JSON and CSV say "inf"
    inf = float("inf")
    report = run_recovery(_shipped_config("cauchy2", eps=0.0))
    assert not report.passed
    failed = [c for c in report.checks if not c["passed"]]
    assert failed == [
        {"name": "bound_ratio", "passed": False, "value": inf, "tolerance": 1.0 + 1e-9}
    ]
    assert report.bound["max_ratio"] == inf
    ratios = [row[3] for row in report.bound["rows"]]
    assert inf in ratios and all(r == inf or r == 0.0 for r in ratios)
    assert all(isinstance(v, float) for row in report.bound["rows"] for v in row)
    path = tmp_path / "eps0.json"
    emit_report(report.to_dict(), "json", str(path))
    text = path.read_text()
    assert '"max_ratio": "inf"' in text and '"value": "inf"' in text
    loaded = load_report(str(path))
    assert loaded["bound"]["max_ratio"] == "inf"
    assert render_report(loaded, "json") == text
    csv_path = tmp_path / "eps0.csv"
    emit_report(report.to_dict(), "csv", str(csv_path))
    assert csv_path.read_text().splitlines()[1].endswith(",inf")
    assert render_report(loaded, "csv") == csv_path.read_text()


# sha256 of the JSON and CSV text of the eps = 0 cauchy2 report: its bound
# ratio is inf, a value no other byte pin covers.  The JSON moved when the
# homogeneity section and its four rows went; the CSV holds only the bound
# table and kept its bytes
_ZERO_EPS_DIGESTS = {
    "json": "d4e71fc4e033e48e18bb9fbb588d23ea184589c84c171aa09c9057a36c6229be",
    "csv": "b9248e3d3149bdbbd417adbcf14c26558b3f4036705dff7c0b4a8b122498c409",
}


def test_zero_eps_report_keeps_its_bytes(pin_core_note):
    report = run_recovery(_shipped_config("cauchy2", eps=0.0))
    for fmt, expected in _ZERO_EPS_DIGESTS.items():
        digest = hashlib.sha256(render_report(report.to_dict(), fmt).encode()).hexdigest()
        assert digest == expected, f"{fmt}: {pin_core_note}"


# converged runs, a failed recovery, and converged runs whose bound ratio is inf
_ROW_CASES = [
    *((name, {}) for name in sorted(_SHIPPED_DIGESTS)),
    ("cauchy2", {"l_max": 1}),
    *((name, {"eps": 0.0}) for name in sorted(_SHIPPED_DIGESTS)),
    # a hypothesis ratio past the float range, saved as the string "inf"
    ("jensen3_contractive", {"eps": 1e-320, "generator": {"skew_scale": 1e3}}),
]


@pytest.mark.parametrize("name,overrides", _ROW_CASES)
def test_check_rows_are_read_back_from_the_saved_sections(name, overrides, tmp_path):
    # the rows are a function of the sections: read back from a saved and
    # reloaded report, they equal the rows it was saved with
    path = tmp_path / "report.json"
    emit_report(run_recovery(_shipped_config(name, **overrides)).to_dict(), "json", str(path))
    loaded = load_report(str(path))
    assert lab._checks(loaded) == loaded["checks"]
    if "eps" in overrides:
        assert loaded["bound"]["max_ratio"] == "inf"


@pytest.mark.parametrize("name", sorted(_SHIPPED_DIGESTS))
def test_within_rows_are_the_largest_of_their_measured_floats(name):
    # _within_check takes the largest value outside _NOT_MEASURED as its
    # row's value, so a part must hold nothing else there: a key of another
    # kind added to a _within section would silently become the row's value
    config = _shipped_config(name)
    recovery = run_recovery(config).to_dict()
    axioms, _ = axioms_report(config)
    for report in (axioms, recovery):
        parts = [(report["axioms"][section], check) for section, check in lab._AXIOM_SECTIONS]
        if report is recovery:
            parts.append((recovery["derivation_certificate"], "derivation_certificate"))
        rows = {row["name"]: row for row in report["checks"]}
        for part, check in parts:
            measured = [v for k, v in part.items() if k not in lab._NOT_MEASURED]
            assert measured and all(type(v) is float for v in measured), (check, part)
            assert rows[check]["value"] == max(measured), check
            assert rows[check]["tolerance"] == part["threshold"], check


def test_check_rows_have_one_home():
    # run_recovery fills the report's sections and returns once; only
    # _axiom_checks and _checks make a check row, reading it from a section,
    # and every row of a _within part goes through _within_check
    tree = ast.parse(Path(lab.__file__).read_text(encoding="utf-8"))
    functions = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    makers = {
        name
        for name, node in functions.items()
        if any(
            isinstance(n, ast.Name) and n.id in ("_check", "_within_check") for n in ast.walk(node)
        )
    }
    assert makers == {"_within_check", "_axiom_checks", "_checks"}
    returns = [n for n in ast.walk(functions["run_recovery"]) if isinstance(n, ast.Return)]
    assert len(returns) == 1


@pytest.mark.parametrize("dim", [2, 3, 16])
@pytest.mark.parametrize("skew_scale", [1e8, 1e12])
def test_build_generators_accepts_every_large_skew_scale(dim, skew_scale):
    # a fixed absolute check of the generators' residuals rejected these as
    # "not a triple derivation"; the residual is round-off of order u ||a||
    generator = {"unitary": "haar", "skew": "random", "skew_scale": skew_scale}
    config = ExperimentConfig(dim=dim, generator=generator)
    theta, d, big_d = build_generators(config)
    assert (theta.dim, d.dim, big_d.dim) == (dim, dim, dim)


def test_run_recovery_reports_a_large_skew_scale():
    # which checks pass is not pinned here: the linearity certificate's
    # allowance does not yet scale with ||D||
    config = _shipped_config("cauchy2", generator={"skew_scale": 1e8})
    rendered = json.loads(render_json(run_recovery(config).to_dict()))
    assert rendered["config"]["generator"]["skew_scale"] == 1e8


def test_run_recovery_skips_sequence_rows_where_undefined():
    report = run_recovery(_shipped_config("cauchy2_contractive", dim=1))
    assert [c["name"] for c in report.checks] == [
        name for name in CHECK_NAMES if not name.startswith("derivation_sequence_")
    ]
    assert list(report.derivation_sequence) == ["skipped"]
    assert "cauchy2-contractive" in report.derivation_sequence["skipped"]


# each scheme at its shipped p and near its summability gate
_GRID_P = {
    "cauchy2": (0.5, 0.9),
    "cauchy2-contractive": (2.0, 1.2),
    "jensen3": (0.5, 0.9),
    "jensen3-contractive": (4.0, 3.3),
}
_GRID_ALWAYS_PASS = (
    "recovery_error_d",
    "recovery_error_theta",
    "bound_ratio",
    "bound_ratio_theta",
    "approximant_rate",
    "derivation_sequence_rate",
)


def test_config_grid_fails_only_for_predicted_reasons():
    """32 accepted configs: four schemes x two p x dims {1, 8} x seeds {42, 3}.

    Recovery may fail only because the certified level exceeds l_max
    (cauchy2 at p = 0.9 needs L = 305).  The accuracy, bound and rate checks
    never fail, and every recovered map is within tol of the exact one
    entrywise (implied by the certified column bound).  Not covered: the
    strict-decrease test of the derivation sequence, which still fails at
    jensen3 p = 0.9 on some seeds.
    """
    grid = [(scheme, p) for scheme, ps in _GRID_P.items() for p in ps]
    for (scheme, p), dim, seed in itertools.product(grid, (1, 8), (42, 3)):
        cfg = ExperimentConfig(dim=dim, scheme=scheme, p=p, seed=seed)
        report = run_recovery(cfg)
        where = f"{scheme} p={p} dim={dim} seed={seed}"
        recovery = report.recovery
        if not recovery["converged"]:
            assert "exceeds l_max = 200" in recovery["error"], where
            continue
        failed = {c["name"] for c in report.checks if not c["passed"]}
        assert not failed & set(_GRID_ALWAYS_PASS), (where, failed)
        worst = max(recovery["d_entrywise_error"], recovery["theta_entrywise_error"])
        assert worst <= cfg.tol, where


@pytest.mark.slow
def test_config_space_sweep_fails_only_for_named_reasons():
    """160 accepted configs: four schemes x two p x dims {1, 2, 3, 5, 8} x seeds {42, 1, 2, 3}.

    No config raises.  A failed ``recovery_converged`` names its reason: the
    certified level exceeds l_max (cauchy2 at p = 0.9 needs L = 305) or its
    scale leaves the overflow limit.  ``derivation_sequence_decreasing``
    fails only at jensen3 p = 0.9: the strict decrease of the mean residual
    is a heuristic that the sinusoidal defect breaks there, although the
    pooled tail rate of the same runs holds (a known defect, ROADMAP item 5).
    No other check fails.  Run with ``python -m pytest -m slow``.
    """
    grid = [(scheme, p) for scheme, ps in _GRID_P.items() for p in ps]
    for (scheme, p), dim, seed in itertools.product(grid, (1, 2, 3, 5, 8), (42, 1, 2, 3)):
        report = run_recovery(ExperimentConfig(dim=dim, scheme=scheme, p=p, seed=seed))
        where = f"{scheme} p={p} dim={dim} seed={seed}"
        failed = {c["name"] for c in report.checks if not c["passed"]}
        if "recovery_converged" in failed:
            error = report.recovery["error"]
            assert "exceeds l_max" in error or "beyond the overflow limit" in error, where
        if "derivation_sequence_decreasing" in failed:
            assert (scheme, p) == ("jensen3", 0.9), where
        assert failed <= {"recovery_converged", "derivation_sequence_decreasing"}, (where, failed)


# the extended-precision shadow needs a long double finer than float64
_NEEDS_LONG_DOUBLE = pytest.mark.skipif(
    np.finfo(np.longdouble).eps == np.finfo(np.float64).eps,
    reason="long double is float64 on this platform",
)


@pytest.mark.parametrize(
    "dtype",
    [np.complex64, np.complex128, pytest.param(np.clongdouble, marks=_NEEDS_LONG_DOUBLE)],
)
@pytest.mark.parametrize("dim", [1, 2])
def test_axiom_residuals_are_round_off_in_units_of_u(monkeypatch, dim, dtype):
    # each axiom section's worst residual is a few unit round-offs u of the
    # working dtype, at every precision; at dims 1-2 no BLAS kernel runs
    monkeypatch.setattr(linalg, "DTYPE", dtype)
    u = float(np.finfo(dtype).eps) / 2.0
    fragment = run_axiom_suite(ExperimentConfig(dim=dim), samples=50)
    in_u = {row["name"]: row["value"] / u for row in lab._axiom_checks(fragment)}
    assert max(in_u.values()) <= 32.0, in_u


@_NEEDS_LONG_DOUBLE
@pytest.mark.parametrize("name", sorted(_SHIPPED_DIGESTS))
@pytest.mark.parametrize("dim", [1, 2])
def test_shipped_configs_pass_in_extended_precision(name, dim, monkeypatch):
    # swapping linalg's working dtype runs the whole pipeline in clongdouble:
    # every operand is cast where it is checked, and nothing else names a dtype
    monkeypatch.setattr(linalg, "DTYPE", np.clongdouble)
    recovered, recover_linear_map = [], stability.recover_linear_map

    def recover(*args):
        tabulated, level = recover_linear_map(*args)
        recovered.append(tabulated)
        return tabulated, level

    monkeypatch.setattr(stability, "recover_linear_map", recover)
    report = run_recovery(_shipped_config(name, dim=dim))
    assert [c["name"] for c in report.checks if not c["passed"]] == []
    assert [m.coeffs.dtype for m in recovered] == [np.dtype(np.clongdouble)] * 2
    # the report holds floats, so it renders as a float64 one does
    assert json.loads(render_report(report.to_dict(), "json"))["passed"] is True
    assert len(render_report(report.to_dict(), "csv").splitlines()) == 1 + len(report.bound["rows"])


# (lo, hi) of the sampler's p draw, per scheme
_SAMPLED_P_RANGE = {
    stability.Scheme.CAUCHY2: (0.0, 1.0),
    stability.Scheme.CAUCHY2_CONTRACTIVE: (1.0, 4.0),
    stability.Scheme.JENSEN3: (0.0, 1.0),
    stability.Scheme.JENSEN3_CONTRACTIVE: (3.0, 6.0),
}


def _sampled_configs(s: int, dims, count: int):
    """The accepted-space sampler written out in ROADMAP.md, draw by draw."""
    rng = np.random.default_rng(s)
    for _ in range(count):
        dim = int(rng.choice(dims))
        scheme = list(stability.Scheme)[rng.integers(4)]
        lo, hi = _SAMPLED_P_RANGE[scheme]
        p = rng.uniform(lo, hi)
        if p == lo:
            p = (lo + hi) / 2
        # Python ints: numpy's int64 product would wrap past 2^63
        seed = 2 * int(rng.integers(0, 2**63)) + int(rng.integers(2))
        zero = rng.uniform() < 0.05
        e = 10 ** rng.uniform(-14, 4)
        tol = 10 ** rng.uniform(-13, -1)
        skew_scale = 10 ** rng.uniform(-6, 6)
        unitary = ("haar", "identity")[rng.integers(2)]
        probe_count = int(rng.integers(1, 120))
        yield ExperimentConfig(
            dim=dim,
            scheme=scheme.value,
            eps=0.0 if zero else e,
            p=p,
            seed=seed,
            probe_count=probe_count,
            tol=tol,
            l_max=200,
            generator={"unitary": unitary, "skew": "random", "skew_scale": skew_scale},
        )


# unpredicted failures among the 100 draws below: a change may lower this
# number with the count it reaches, and must never raise it
_UNPREDICTED_CEILING = 46


def test_sampled_draws_fail_unpredicted_no_more_often():
    """A ratchet on the accepted config space: 100 sampled draws at dims 1-2.

    Each run passes, fails as the paper predicts or fails unpredicted.  It
    is predicted when its only failed row is ``recovery_converged`` and its
    error says the level exceeds ``l_max`` or names an overflow.  No run
    may raise, and the unpredicted count may not rise above the recorded
    ceiling.  The draws are never re-seeded or shrunk.  ``-rP`` prints the
    three counts (49 / 5 / 46 when the ceiling was recorded).  About 1 s.
    """
    counts = {"pass": 0, "predicted": 0, "unpredicted": 0}
    for config in _sampled_configs(20261019, [1, 2], 100):
        report = run_recovery(config)
        failed = [c["name"] for c in report.checks if not c["passed"]]
        error = report.recovery["error"] or ""
        if not failed:
            counts["pass"] += 1
        elif failed == ["recovery_converged"] and ("exceeds l_max" in error or "overflow" in error):
            counts["predicted"] += 1
        else:
            counts["unpredicted"] += 1
    print(" / ".join(f"{n} {kind}" for kind, n in counts.items()))
    assert counts["unpredicted"] <= _UNPREDICTED_CEILING, counts


@_NEEDS_LONG_DOUBLE
@pytest.mark.slow
def test_extended_precision_shadow_of_sampled_draws(monkeypatch):
    """100 sampled draws at dims 1-2, each run in float64 and in clongdouble.

    Every draw completes in both precisions, with no exception and no
    RuntimeWarning (the suite makes one an error), and both runs have the
    same check rows.  The one exception is a recovery that fails in one
    precision only: that run stops after ``recovery_converged``, so its
    rows are the other run's up to there.  The reports are compared in
    memory; the extended one is not rendered.  Run with
    ``python -m pytest -m slow -rP`` to see, per check, how many float64
    failures still fail in extended precision.  About 3 s.
    """
    tally = {}
    for config in _sampled_configs(20261019, [1, 2], 100):
        plain = run_recovery(config)
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "DTYPE", np.clongdouble)
            extended = run_recovery(config)
        names = [[c["name"] for c in r.checks] for r in (plain, extended)]
        if plain.recovery["converged"] == extended.recovery["converged"]:
            assert names[0] == names[1], config
        else:
            short, long = sorted(names, key=len)
            assert short[-1] == "recovery_converged" and long[: len(short)] == short, config
        still = {c["name"] for c in extended.checks if not c["passed"]}
        for check in plain.checks:
            if not check["passed"]:
                fails = tally.setdefault(check["name"], [0, 0])
                fails[0] += 1
                fails[1] += check["name"] in still
    for name, (plain_fails, still_fails) in tally.items():
        print(f"{name}: {plain_fails} float64 failures, {still_fails} still fail in extended")
