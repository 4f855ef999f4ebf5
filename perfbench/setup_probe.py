"""Set-up time of one fresh interpreter, printed in seconds.

Times ``import triple_stab.cli`` (numpy included) and, for each config given
as a JSON list in the first argument, the set-up steps of
``lab.run_recovery``: ``from_dict`` and ``validate``, ``build_generators``,
both ``make_perturbation`` calls and ``make_probes``.  Prints
``[wall seconds, host speed]``, the speed from ``hostspeed`` bursts run
right after the timed section; their product is in reference seconds.
"""

import json
import sys
import time

SPEED_BURSTS = 25

configs = json.loads(sys.argv[1])
started = time.perf_counter()

import triple_stab.cli  # noqa: E402,F401
from triple_stab.lab import ExperimentConfig, build_generators  # noqa: E402
from triple_stab.sampling import ROLE_MAP_F, ROLE_MAP_H, ROLE_PROBES, child_seed, make_probes, rng_for  # noqa: E402
from triple_stab.stability import make_perturbation  # noqa: E402

for data in configs:
    cfg = ExperimentConfig.from_dict(data)
    cfg.validate()
    form = cfg.scheme_enum().hypothesis_form
    theta, _d, big_d = build_generators(cfg)
    make_perturbation(big_d, cfg.eps, cfg.p, form, child_seed(cfg.seed, ROLE_MAP_F))
    make_perturbation(theta, cfg.eps, cfg.p, form, child_seed(cfg.seed, ROLE_MAP_H))
    make_probes(cfg.dim, cfg.probe_count, rng_for(cfg.seed, ROLE_PROBES))

elapsed = time.perf_counter() - started

from hostspeed import burst, scale  # noqa: E402

for _ in range(SPEED_BURSTS):  # untimed: the first calls pay for cold caches
    burst()
print(json.dumps([elapsed, scale(burst()[1] for _ in range(SPEED_BURSTS))]))
