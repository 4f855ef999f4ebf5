"""The benchmark uses package names and call signatures; every one of them must hold.

``perfbench/tracer.py`` patches functions and methods of ``triple_stab`` by
name, and the benchmark's worker and set-up probe import names and call
them with fixed arguments.  The benchmark's own tests are not part of this
suite, so a rename, a deletion or a changed signature here would otherwise
break the benchmark without a failing test.  The tracer file is loaded by
path; it is installed only around one shipped run, and every binding is
restored after it.
"""

import ast
import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import numpy as np

from triple_stab import lab, sampling, stability
from triple_stab.lab import ExperimentConfig, run_recovery

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist():
    for module_name, names in _tracer().TRACED_FUNCTIONS.items():
        module = importlib.import_module(module_name)
        for attr in names:
            assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_traced_methods_exist():
    for module_name, cls_name, attr in _tracer().TRACED_METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name, None)
        assert cls is not None, f"{module_name}.{cls_name}"
        # the tracer patches the method on the class that defines it
        assert attr in cls.__dict__, f"{module_name}.{cls_name}.{attr}"


def test_tracer_records_direct_method_levels():
    # the traced stability.direct_method.* metrics read the levels the
    # recovery used: one direct_method call per recovered map
    config = json.loads((TRACER.parent.parent / "configs" / "cauchy2.json").read_text())
    tracer = _tracer().Tracer()
    tracer.install()
    try:
        run_recovery(ExperimentConfig.from_dict(config))
    finally:
        tracer.uninstall()
    assert tracer.summary()["stability.direct_method"]["calls"] == 2
    assert sorted(tracer.levels.values()) == [57, 57]


def test_setup_probe_imports_exist():
    tree = ast.parse((PERFBENCH / "setup_probe.py").read_text())
    imported = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("triple_stab")
        for alias in node.names
    ]
    assert ("triple_stab.sampling", "make_probes") in imported
    for module_name, name in imported:
        assert hasattr(importlib.import_module(module_name), name), f"{module_name}.{name}"


def test_benchmark_call_signatures_bind():
    # the calls perfbench/worker.py and perfbench/setup_probe.py make
    cfg = ExperimentConfig()
    inspect.signature(lab.run_recovery).bind(cfg, threads=1)
    inspect.signature(lab.build_generators).bind(cfg)
    inspect.signature(sampling.random_matrix).bind(np.random.default_rng(0), 2)
    _theta, _d, big_d = lab.build_generators(cfg)
    inspect.signature(stability.make_perturbation).bind(big_d, 0.1, 0.5, "cauchy", 2006)
