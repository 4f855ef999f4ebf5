"""The benchmark's own test, on two cheap dim-1 configs.

cauchy2-contractive at dim 1 passes every check; cauchy2 at dim 1 fails its
linearity certificate (ROADMAP aim 3), so every pass holds one failed
operation.  Run with ``python3 -m pytest perfbench``.
"""

import contextlib
import io
import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import hostspeed  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import Workload  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(trace: int, threads: int = 1) -> list[dict]:
    workloads = {"smoke": Workload(("cauchy2_contractive", "cauchy2"), threads=threads, dim=1)}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(
            ["--workload", "smoke", "--seed", "42", "--seconds", "0", "--trace", str(trace)],
            workloads=workloads,
        )
    assert code == 0
    return [json.loads(line) for line in out.getvalue().splitlines()]


@pytest.mark.parametrize("trace,kind,passes", [(0, "end_to_end", 2), (1, "per_layer", 3)])
def test_accounting_and_metric_names(trace, kind, passes):
    environment, details, result = bench(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # the warm-up pass and every timed pass count; cauchy2 fails in each
    assert result["attempted"] == 2 * passes
    assert result["failed"] == passes
    assert result["correct"] is False
    names = details["details"]["configs"]
    assert all(names[f["config"]] == "cauchy2@dim1" for f in details["details"]["failures"])
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in SPEC[kind]}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    env = environment["environment"]
    assert env["numpy"] and env["numpy_build"]["lapack"]["name"] and env["nproc"] >= 1


def test_configs_keep_their_seed_unless_a_config_seed_is_given():
    workload = Workload(("cauchy2", "jensen3"), threads=1)
    assert [c["seed"] for c in workload.config_dicts(HERE.parent)] == [42, 42]
    assert [c["seed"] for c in workload.config_dicts(HERE.parent, 7)] == [7, 7]


def test_pooled_reports_match_single_thread_bytes():
    _env, one, _result = bench(0, threads=1)
    _env, two, result = bench(0, threads=2)
    assert result["failed"] == 2  # only cauchy2's certificate: no hash mismatch
    assert two["details"]["report_sha256"] == one["details"]["report_sha256"]


def test_tracer_restores_every_binding():
    import numpy as np

    import triple_stab
    from triple_stab import lab, linalg, stability, triple

    norm, apply_ = linalg.spectral_norm, triple.Compose.apply
    modules = (triple_stab, linalg, triple, stability, lab)
    tracer = Tracer()
    tracer.install()
    try:
        assert all(module.spectral_norm is not norm for module in modules)
        stability.spectral_norm(np.eye(2))
    finally:
        tracer.uninstall()
    assert all(module.spectral_norm is norm for module in modules)
    assert triple.Compose.apply is apply_
    assert tracer.summary()["linalg.spectral_norm"]["calls"] == 1


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.span("outer", lambda: [tracer.span("inner", time.sleep, 0.02) for _ in range(2)])
    rows = tracer.summary()
    assert rows["inner"]["calls"] == 2
    covered = rows["outer"]["total_s"] - rows["outer"]["self_s"]
    assert covered == pytest.approx(rows["inner"]["total_s"])
    assert rows["outer"]["self_s"] < 0.01


def test_host_clock_samples_and_restores_the_alarm():
    import signal

    previous = signal.getsignal(signal.SIGALRM)
    with hostspeed.HostClock() as clock:
        since = clock.mark()
        started = time.perf_counter()
        while time.perf_counter() - started < 0.3:
            pass
        wall = time.perf_counter() - started
    assert clock.mark() - since >= 3
    bursts = sum(wall for wall, _cpu in clock.samples[since:])
    speed = hostspeed.scale(cpu for _wall, cpu in clock.samples[since:])
    assert clock.scaled(wall, since) == pytest.approx((wall - bursts) * speed)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
