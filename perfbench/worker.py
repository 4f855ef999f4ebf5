"""One workload run in one process: a closed loop over ``lab.run_recovery``.

Run by ``perfbench/run.py`` in a fresh interpreter whose environment pins the
BLAS thread count to 1 and sets TRIPLE_STAB_THREADS, with the workload's
configs and settings as one JSON argument.  Prints one JSON object.

One caller runs one ``run_recovery`` at a time.  The warm-up pass runs every
config single-threaded; its reports are the reference bytes, so on threads2
each pooled report is compared with the single-thread (shipped) report of
the same config.  Timed passes follow, as many as fit in ``seconds`` and at
least one; they run under a ``hostspeed.HostClock``, which puts each pass's
wall time in reference seconds.  An operation is one ``run_recovery``
call; it fails if it raises, if any check of its report fails, or if its
rendered JSON differs from the first report of the same config.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import statistics
import sys
import time
import traceback

import numpy as np
from hostspeed import HostClock
from tracer import Tracer

from triple_stab import lab, linalg, sampling, stability

MICRO_SEED = 2006
MICRO_INPUTS = 8
MICRO_BATCHES = 5
MICRO_BATCH_S = 0.04
STAGES = ("axioms", "recover", "hypotheses", "bound", "homogeneity", "certificate", "sequence", "rate")


class Book:
    """Operation accounting and the reference report hash of each config."""

    def __init__(self, configs: list[lab.ExperimentConfig]):
        self.configs = configs
        self.attempted = 0
        self.failures: list[dict] = []
        self.sha256: list[str | None] = [None] * len(configs)
        self.stage_s = dict.fromkeys(STAGES, 0.0)

    def run(self, index: int, threads: int | None, tracer: Tracer | None) -> None:
        cfg = self.configs[index]
        self.attempted += 1
        try:
            if tracer is None:
                report = lab.run_recovery(cfg, threads=threads)
                text = lab.render_json(report.to_dict())
            else:
                report = tracer.span("lab.run_recovery", lab.run_recovery, cfg, threads=threads)
                text = tracer.span("lab.render_json", lab.render_json, report.to_dict())
        except Exception:  # a raising run is a failed operation, never dropped
            self.failures.append({"config": index, "error": traceback.format_exc(limit=4)})
            return
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        for stage in STAGES:
            self.stage_s[stage] += report.timings.get(f"{stage}_s", 0.0)
        if self.sha256[index] is None:
            self.sha256[index] = digest
        if not report.passed:
            failed = [c["name"] for c in report.checks if not c["passed"]]
            self.failures.append({"config": index, "error": f"checks failed: {failed}"})
        elif digest != self.sha256[index]:
            self.failures.append(
                {"config": index, "error": f"report sha256 {digest} != {self.sha256[index]}"}
            )

    def run_pass(self, threads: int | None = None, tracer: Tracer | None = None) -> float:
        started = time.perf_counter()
        for index in range(len(self.configs)):
            self.run(index, threads, tracer)
        return time.perf_counter() - started


def timed_passes(
    book: Book, seconds: float, clock: HostClock, tracer: Tracer | None = None
) -> tuple[list[float], list[float]]:
    """At least one pass; another only if it is predicted to end within ``seconds``.

    Returns the wall seconds and the reference seconds of each pass.
    """
    walls, reference = [], []
    while not walls or sum(walls) + statistics.median(walls) <= seconds:
        since = clock.mark()
        walls.append(book.run_pass(tracer=tracer))
        reference.append(clock.scaled(walls[-1], since))
    return walls, reference


def us_per_call(fn, inputs: list) -> float:
    """Median over batches of the mean wall microseconds of one call."""
    started = time.perf_counter()
    for x in inputs:
        fn(x)
    sweeps = max(1, math.ceil(MICRO_BATCH_S / (time.perf_counter() - started)))
    batches = []
    for _ in range(MICRO_BATCHES):
        started = time.perf_counter()
        for _ in range(sweeps):
            for x in inputs:
                fn(x)
        batches.append((time.perf_counter() - started) / (sweeps * len(inputs)))
    return statistics.median(batches) * 1e6


def microbenchmarks() -> dict[str, float]:
    """Kernel costs on fixed seeded inputs, independent of the workload seed."""
    rng = np.random.default_rng(MICRO_SEED)
    out = {}
    for n in (2, 8, 16):
        inputs = [sampling.random_matrix(rng, n) for _ in range(MICRO_INPUTS)]
        out[f"linalg.spectral_norm.us_n{n}"] = us_per_call(linalg.spectral_norm, inputs)
    for n in (2, 8):
        _theta, _d, big_d = lab.build_generators(lab.ExperimentConfig(dim=n))
        f = stability.make_perturbation(big_d, 0.1, 0.5, "cauchy", MICRO_SEED)
        inputs = [sampling.random_matrix(rng, n) for _ in range(MICRO_INPUTS)]
        out[f"stability.f_eval.us_n{n}"] = us_per_call(f, inputs)
    return out


def layer_metrics(tracer: Tracer, book: Book, passes: list[float], untraced_s: float) -> dict:
    """Per-layer metrics per traced pass, as name -> (value, unit).

    ``passes`` and ``untraced_s`` are in reference seconds.
    """
    k = len(passes)
    rows = tracer.summary()

    def row(name):
        return rows.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    norm, f_eval, dm = row("linalg.spectral_norm"), row("stability.f_eval"), row("stability.direct_method")
    levels = list(tracer.levels.values()) or [0]
    out = {
        "linalg.spectral_norm.calls": (norm["calls"] / k, "count"),
        "linalg.spectral_norm.self_s": (norm["self_s"] / k, "s"),
        "linalg.spectral_norm.us_per_call": (1e6 * norm["total_s"] / max(1, norm["calls"]), "us"),
        "triple.triple_product.calls": (row("triple.triple_product")["calls"] / k, "count"),
        "triple.triple_product.self_s": (row("triple.triple_product")["self_s"] / k, "s"),
        "triple.apply.calls": (row("triple.apply")["calls"] / k, "count"),
        "triple.apply.self_s": (row("triple.apply")["self_s"] / k, "s"),
        "stability.f_eval.calls": (f_eval["calls"] / k, "count"),
        "stability.f_eval.us_per_call": (1e6 * f_eval["total_s"] / max(1, f_eval["calls"]), "us"),
        "stability.direct_method.calls": (dm["calls"] / k, "count"),
        "stability.direct_method.levels_mean": (statistics.fmean(levels), "levels"),
        "stability.direct_method.levels_max": (max(levels), "levels"),
        "stability.direct_method.ms_per_call": (1e3 * dm["total_s"] / max(1, dm["calls"]), "ms"),
    }
    for name in ("recover_linear_map", "derivation_limit_sequence", "estimate_convergence_rate"):
        out[f"stability.{name}.self_s"] = (row(f"stability.{name}")["self_s"] / k, "s")
    out["sampling.self_s"] = (row("sampling")["self_s"] / k, "s")
    for stage in STAGES:
        out[f"lab.{stage}_s"] = (book.stage_s[stage] / k, "s")
    out["lab.render_json_s"] = (row("lab.render_json")["total_s"] / k, "s")
    out["trace.overhead_s"] = (statistics.median(passes) - untraced_s, "s")
    return out


def numpy_build() -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
    except TypeError:  # numpy before 1.26 prints its config and takes no mode
        return {}
    return {
        lib: {key: deps[lib].get(key) for key in ("name", "version", "openblas configuration")}
        for lib in ("blas", "lapack")
    }


def run_workload(configs: list[dict], seconds: float, trace: bool) -> dict:
    book = Book([lab.ExperimentConfig.from_dict(dict(c)) for c in configs])
    out = {"warmup_s": book.run_pass(threads=1)}
    if trace:
        # untraced and traced passes share the time budget; the
        # microbenchmark runs between them, with no bursts to disturb it
        with HostClock() as clock:
            _, untraced = timed_passes(book, seconds / 2, clock)
        micro = microbenchmarks()
        tracer = Tracer()
        book.stage_s = dict.fromkeys(STAGES, 0.0)
        tracer.install()
        try:
            with HostClock() as clock:
                passes, reference = timed_passes(book, seconds / 2, clock, tracer)
        finally:
            tracer.uninstall()
        metrics = layer_metrics(tracer, book, reference, statistics.median(untraced))
        metrics.update({name: (value, "us") for name, value in micro.items()})
        out["spans"] = len(tracer.spans)
        out["untraced_reference_s"] = untraced
    else:
        with HostClock() as clock:
            passes, reference = timed_passes(book, seconds, clock)
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"certify_s": (statistics.median(reference), "s"), "peak_rss_mib": (peak_mib, "MiB")}
    out.update(
        attempted=book.attempted,
        failed=len(book.failures),
        failures=book.failures,
        passes_s=passes,
        reference_passes_s=reference,
        sha256=book.sha256,
        metrics={name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        numpy=np.__version__,
        numpy_build=numpy_build(),
        triple_stab=lab.__file__,
    )
    return out


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    print(json.dumps(run_workload(spec["configs"], spec["seconds"], spec["trace"])))
