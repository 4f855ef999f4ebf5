"""The benchmark tracer wraps package names; every one of them must exist.

``perfbench/tracer.py`` patches functions and methods of ``triple_stab`` by
name.  The benchmark's own tests are not part of this suite, so a rename or
deletion here would otherwise break ``--trace 1`` without a failing test.
The tracer file is loaded by path; it is installed only around one
shipped run, and every binding is restored after it.
"""

import importlib
import importlib.util
import json
from pathlib import Path

from triple_stab.lab import ExperimentConfig, run_recovery

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
