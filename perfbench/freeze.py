"""Rebuild ``expected.json``: each workload's instance pool and frozen counts.

    python3 perfbench/freeze.py

Generator seeds are tried in order 0, 1, 2, ... A seed joins its
workload's pool when the default configuration (vcis branching, saturated
keys) counts it with every ``SearchStats`` field named in the workload's
``bands`` inside its range, and the count is
frozen only when ``heuristic="baseline", saturate_keys=False`` gives the
same number. A disagreement stops the script with an error: it is a
counter bug, not a benchmark choice. The file also keeps each instance's
default-configuration ``SearchStats`` under its generated labelling, and
the seeds passed over with their banded stats or "timeout".
"""

from __future__ import annotations

import json
import sys

import _path  # noqa: F401  (puts the checkout's src/ on sys.path)
from pbtally import CounterConfig, SolveTimeout, count_models, parse_opb
from workloads import EXPECTED_PATH, WORKLOADS, generate

MAX_SEEDS = 400
FREEZE_TIMEOUT_S = 60.0


def freeze_pool(workload) -> dict:
    instances = []
    skipped = []
    for gen_seed in range(MAX_SEEDS):
        if len(instances) == workload.size:
            break
        formula = parse_opb(generate(workload, gen_seed))
        try:
            result = count_models(formula, CounterConfig(timeout_s=FREEZE_TIMEOUT_S))
        except SolveTimeout:
            skipped.append([gen_seed, "timeout"])
            continue
        banded = {stat: getattr(result.stats, stat) for stat in workload.bands}
        if not all(lo <= banded[stat] <= hi for stat, (lo, hi) in workload.bands.items()):
            skipped.append([gen_seed, banded])
            continue
        check = count_models(formula, CounterConfig(
            heuristic="baseline", saturate_keys=False, timeout_s=FREEZE_TIMEOUT_S))
        if check.count != result.count:
            raise SystemExit("%s seed %d: default counts %d, baseline %d"
                             % (workload.name, gen_seed, result.count, check.count))
        instances.append({"seed": gen_seed, "count": result.count,
                          "stats": result.stats.as_dict()})
        print("%s seed %d: count %d, %s" % (
            workload.name, gen_seed, result.count, banded), file=sys.stderr)
    if len(instances) < workload.size:
        raise SystemExit("%s: only %d pool instances in %d seeds"
                         % (workload.name, len(instances), MAX_SEEDS))
    return {"generator": workload.generator, "params": workload.params,
            "bands": workload.bands,
            "instances": instances,
            "skipped_seeds": skipped}


def main() -> None:
    pools = {w.name: freeze_pool(w) for w in WORKLOADS.values() if w.pool is None}
    with open(EXPECTED_PATH, "w") as handle:
        json.dump(pools, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
