"""In-memory span tracing of triple_stab, installed from outside the package.

``Tracer.install`` replaces each traced function with a wrapper in every
``triple_stab`` module that bound it (``spectral_norm`` alone is bound in
linalg, triple, stability, lab, sampling and the package namespace), and
wraps the traced methods on their classes.  ``uninstall`` puts every
original back.  No file under ``src/`` changes.

A span is ``(id, name, start, end, parent_id)``.  The parent is the span
open on the same thread when the call began, so on a pool thread a span has
no parent and the span that waits for the pool keeps that wait in its self
time.  Spans stay in memory for the life of the tracer.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time

# module -> {function name: span name}
TRACED_FUNCTIONS = {
    "triple_stab.linalg": {"spectral_norm": "linalg.spectral_norm"},
    "triple_stab.triple": {
        "triple_product_cstar": "triple.triple_product",
        "triple_product_jbstar": "triple.triple_product",
    },
    "triple_stab.stability": {
        "direct_method": "stability.direct_method",
        "recover_linear_map": "stability.recover_linear_map",
        "derivation_limit_sequence": "stability.derivation_limit_sequence",
        "estimate_convergence_rate": "stability.estimate_convergence_rate",
    },
    "triple_stab.sampling": {
        name: "sampling"
        for name in (
            "check_seed",
            "rng_for",
            "child_seed",
            "random_matrix",
            "haar_unitary",
            "skew_matrix",
            "make_probes",
            "make_mu_samples",
        )
    },
}

# (module, class, method) -> span name; every LinearOperator.apply override
TRACED_METHODS = {
    ("triple_stab.triple", cls, "apply"): "triple.apply"
    for cls in ("Conjugation", "Commutator", "Scaled", "OperatorSum", "Compose", "Tabulated")
}
TRACED_METHODS[("triple_stab.stability", "PerturbedMap", "__call__")] = "stability.f_eval"


class Tracer:
    """Records spans around calls into triple_stab while installed."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        # direct_method span id -> levels the iteration used
        self.levels: dict[int, int] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name`` and return its result."""
        return self._wrap(name, fn)(*args, **kwargs)

    def _wrap(self, name: str, fn):
        spans, ids, local = self.spans, self._ids, self._local
        clock = time.perf_counter
        levels = self.levels if name == "stability.direct_method" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, name, start, end, parent))
            if levels is not None:
                levels[span_id] = result.l_used
            return result

        return traced

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        modules = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "triple_stab"]
        for module_name, names in TRACED_FUNCTIONS.items():
            home = sys.modules[module_name]
            for attr, span_name in names.items():
                original = getattr(home, attr)
                wrapper = self._wrap(span_name, original)
                for module in modules:
                    if module.__dict__.get(attr) is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, wrapper)
        for (module_name, cls_name, attr), span_name in TRACED_METHODS.items():
            cls = getattr(sys.modules[module_name], cls_name)
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self._wrap(span_name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total duration and self time in seconds.

        Self time is a span's duration minus the durations of its child
        spans; children on one thread nest without overlap, so their sum is
        the part of the parent they cover.
        """
        child_s: dict[int, float] = {}
        for _id, _name, start, end, parent in self.spans:
            if parent is not None:
                child_s[parent] = child_s.get(parent, 0.0) + (end - start)
        out: dict[str, dict[str, float]] = {}
        for span_id, name, start, end, _parent in self.spans:
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += (end - start) - child_s.get(span_id, 0.0)
        return out
