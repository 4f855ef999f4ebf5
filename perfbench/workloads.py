"""The benchmark's named workloads: config lists and thread counts.

Each workload is a list of configs read from ``configs/``, optionally with
``dim`` overridden, and the value of TRIPLE_STAB_THREADS its timed passes run
with.  The configs keep their shipped ``seed`` unless a config seed is given.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

SHIPPED = ("cauchy2", "cauchy2_contractive", "jensen3", "jensen3_contractive")


@dataclass(frozen=True)
class Workload:
    configs: tuple[str, ...]
    threads: int
    dim: int | None = None

    def config_dicts(self, root: Path, seed: int | None = None) -> list[dict]:
        """The workload's configs, as JSON objects; ``seed`` replaces each one's."""
        out = []
        for name in self.configs:
            with open(root / "configs" / f"{name}.json", encoding="utf-8") as handle:
                data = json.load(handle)
            if seed is not None:
                data["seed"] = seed
            if self.dim is not None:
                data["dim"] = self.dim
            out.append(data)
        return out


WORKLOADS = {
    # dim 2: per-call overhead and call counts dominate; the expansive
    # schemes need about 53 levels per limit
    "shipped": Workload(SHIPPED, threads=1),
    # the only workload that runs lab.experiment_mapper's thread pool
    "threads2": Workload(SHIPPED, threads=2),
}
