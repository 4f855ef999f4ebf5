"""The benchmark tracer wraps package names; every one of them must exist.

``perfbench/tracer.py`` patches functions and methods of ``triple_stab`` by
name.  The benchmark's own tests are not part of this suite, so a rename or
deletion here would otherwise break ``--trace 1`` without a failing test.
The tracer file is loaded by path and only read.
"""

import importlib
import importlib.util
from pathlib import Path

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
