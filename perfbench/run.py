"""triple-stab benchmark: time to a certified report, per named workload.

    python3 perfbench/run.py --workload shipped --seed 1 --seconds 40 --trace 0

Run from anywhere; the repository root is the parent of this directory and
the package is imported from its ``src/``.  With ``--trace 0`` the result
holds the end-to-end metrics (certify_s, setup_s, peak_rss_mib); with
``--trace 1`` the per-layer metrics of a traced run.  The last line of
standard output is the result object; the lines before it record the
environment and the run's details (pass times, report hashes, failures).
Exits non-zero without a result if the checkout cannot be run.
See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIME_LIMIT_S = 170.0
SETUP_REPEATS = 9
MAX_SEED = 2**64 - 1


class BenchError(RuntimeError):
    """The checkout cannot be benchmarked."""


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        TRIPLE_STAB_THREADS=str(threads),
    )
    return env


def run_child(args: list[str], env: dict, deadline: float) -> str:
    """Run a Python script of this directory; return its last stdout line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"time limit of {TIME_LIMIT_S:.0f} s reached")
    try:
        done = subprocess.run(
            [sys.executable, *args], env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args[0]} exceeded the time limit of {TIME_LIMIT_S:.0f} s") from None
    if done.returncode != 0:
        raise BenchError(f"{args[0]} exited with {done.returncode}:\n{done.stderr}")
    return done.stdout.strip().splitlines()[-1]


def measure_setup(configs: list[dict], env: dict, deadline: float) -> list[list[float]]:
    """[wall seconds, host speed] of SETUP_REPEATS fresh interpreters, after one untimed."""
    argv = [str(HERE / "setup_probe.py"), json.dumps(configs)]
    run_child(argv, env, deadline)
    return [json.loads(run_child(argv, env, deadline)) for _ in range(SETUP_REPEATS)]


def git_commit() -> str | None:
    """HEAD of the checkout, or None outside a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "triple_stab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def check_checkout() -> None:
    for rel in ("src/triple_stab/lab.py", "configs"):
        if not (ROOT / rel).exists():
            raise BenchError(f"{ROOT} has no {rel}; run from a triple-stab checkout")


def parse_args(argv, workloads) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True, help="sets the order of the configs in a pass")
    parser.add_argument(
        "--config-seed", type=int, default=None, help="replaces every config's seed (default: as shipped)"
    )
    parser.add_argument("--seconds", type=float, required=True, help="time budget of the timed passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for flag, seed in (("--seed", args.seed), ("--config-seed", args.config_seed)):
        if seed is not None and not 0 <= seed <= MAX_SEED:
            parser.error(f"{flag} must fit in 64 bits, got {seed}")
    if args.seconds < 0:
        parser.error(f"--seconds must be nonnegative, got {args.seconds}")
    return args


def main(argv=None, workloads=WORKLOADS) -> int:
    args = parse_args(argv, workloads)
    deadline = time.monotonic() + TIME_LIMIT_S
    workload = workloads[args.workload]
    try:
        check_checkout()
        configs = workload.config_dicts(ROOT, args.config_seed)
        random.Random(args.seed).shuffle(configs)
        env = child_env(workload.threads)
        setup = [] if args.trace else measure_setup(configs, env, deadline)
        spec = {"configs": configs, "seconds": args.seconds, "trace": bool(args.trace)}
        result = json.loads(run_child([str(HERE / "worker.py"), json.dumps(spec)], env, deadline))
    except (BenchError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if not Path(result["triple_stab"]).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: imported triple_stab from {result['triple_stab']}", file=sys.stderr)
        return 1

    environment = {
        "python": platform.python_version(),
        "numpy": result["numpy"],
        "numpy_build": result["numpy_build"],
        "nproc": len(os.sched_getaffinity(0)),
        "TRIPLE_STAB_THREADS": workload.threads,
        "blas_threads": 1,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "config_seed": args.config_seed,
        "trace": args.trace,
        "configs": [f"{c['scheme']}@dim{c['dim']}" for c in configs],
        "warmup_s": result["warmup_s"],
        "passes": len(result["passes_s"]),
        "passes_s": result["passes_s"],
        "reference_passes_s": result["reference_passes_s"],
        "setup_samples_s": [wall for wall, _speed in setup],
        "setup_reference_s": [wall * speed for wall, speed in setup],
        "report_sha256": result["sha256"],
        "failures": result["failures"],
    }
    if args.trace:
        details["untraced_reference_s"] = result["untraced_reference_s"]
        details["spans"] = result["spans"]
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(wall * speed for wall, speed in setup), "unit": "s"}
    print(json.dumps({"environment": environment}))
    print(json.dumps({"details": details}))
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
