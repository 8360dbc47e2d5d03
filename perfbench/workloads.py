"""Workload definitions and the seeded instances each one counts.

Every workload is a frozen pool of generator instances (``expected.json``,
written by ``freeze.py``) with their counts. A run's ``--seed`` draws a
fresh encoding of every pool instance (:func:`reencode`), so each seed
gives different input text whose count is still the frozen one.

Renaming variables would change the input more, but it changes which
variable the branching heuristic picks among equal scores (ties go to
the smallest id); on ``sensor-split`` that moved a set's solve time by
15% between seeds, more than any bound the benchmark could keep.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import pbtally.generators
from pbtally import CounterConfig

EXPECTED_PATH = Path(__file__).with_name("expected.json")

#: generous per-instance limits: no pool instance takes more than 0.5 s
TIMEOUT_S = 10.0
MEMORY_BYTES = 256 << 20


@dataclass(frozen=True)
class Workload:
    """One instance family; why each exists is recorded in BENCHMARK.json."""

    name: str
    generator: str
    params: dict
    #: instances per set
    size: int
    #: a generator seed joins the pool when its default-config count has
    #: every named SearchStats field inside its (low, high) range, so no
    #: single instance dominates a set's time and every instance does the
    #: work the workload exists for
    bands: Optional[dict] = None
    #: count another workload's pool instead of freezing one of its own
    pool: Optional[str] = None
    #: cap the cache at this share of each instance's unbudgeted peak bytes
    cache_fraction: Optional[float] = None

    @property
    def pool_name(self) -> str:
        return self.pool or self.name


# Sizes are smaller than the ROADMAP's single instances (knapsack 30x2 takes
# about 1 s) so that a run of about 25 s collects 100 per-instance times.
WORKLOADS = {w.name: w for w in (
    Workload("knapsack", "gen_knapsack", dict(items=18, dims=2),
             size=20, bands={"decisions": (2400, 3600)}),
    # auction seeds need many conflicts for few decisions: the more learned
    # constraints a count keeps, the larger the share of propagation and
    # backjumps, and the fewer splits beside them
    Workload("auction", "gen_auction", dict(bids=29, items=20, revenue_fraction=0.15),
             size=20, bands={"conflicts": (150, 400), "decisions": (1000, 3500)}),
    Workload("sensor-split", "gen_sensor",
             dict(cost_aware=True, budget_fraction=1.0, max_cover=5,
                  redundancy_rate=0.4, sensors=50, targets=72),
             size=20, bands={"decisions": (1500, 5000)}),
    Workload("knapsack-evict", "gen_knapsack", dict(items=18, dims=2),
             size=20, pool="knapsack", cache_fraction=0.5),
)}


@dataclass
class Instance:
    label: str
    text: str
    expected: int
    config: CounterConfig
    #: the frozen unbudgeted cache peak of the pool instance, in bytes
    cache_bytes_peak: int = 0


def generate(workload: Workload, gen_seed: int) -> str:
    return getattr(pbtally.generators, workload.generator)(seed=gen_seed, **workload.params)


def reencode(text: str, rng: random.Random) -> str:
    """The same formula in another encoding drawn from ``rng``.

    Each variable is complemented with probability 1/2 (``c x`` becomes
    ``-c ~x`` and ``c`` moves to the degree), and constraint and term order
    are shuffled. Complementing a variable is a bijection on assignments,
    so the count is unchanged, and it mirrors the search without changing
    its shape. Reads the generators' output form: ``*`` comment lines, then
    one constraint per line as ``<coeff> x<i> ... <op> <degree> ;``.
    """
    comments = []
    rows = []
    for line in text.splitlines():
        if line.startswith("*"):
            comments.append(line)
            continue
        tokens = line.split()
        terms = [(int(tokens[i]), int(tokens[i + 1][1:])) for i in range(0, len(tokens) - 3, 2)]
        rows.append((terms, tokens[-3], int(tokens[-2])))
    num_vars = max(v for terms, _, _ in rows for _, v in terms)
    flipped = [rng.random() < 0.5 for _ in range(num_vars + 1)]
    rng.shuffle(rows)
    lines = comments
    for terms, op, degree in rows:
        rng.shuffle(terms)
        body = []
        for coeff, v in terms:
            if flipped[v]:
                body.append("%+d ~x%d" % (-coeff, v))
                degree -= coeff
            else:
                body.append("%+d x%d" % (coeff, v))
        lines.append("%s %s %d ;" % (" ".join(body), op, degree))
    return "\n".join(lines) + "\n"


def load_expected(path: Path = EXPECTED_PATH) -> dict:
    with open(path) as handle:
        return json.load(handle)


def build_instances(workload: Workload, seed: int, expected: dict) -> list:
    """The workload's instance set for one run seed, with frozen counts."""
    rng = random.Random("%s/%d" % (workload.name, seed))
    instances = []
    for entry in expected[workload.pool_name]["instances"][:workload.size]:
        config = CounterConfig(timeout_s=TIMEOUT_S, max_memory_bytes=MEMORY_BYTES)
        if workload.cache_fraction is not None:
            config.max_cache_bytes = int(entry["stats"]["cache_bytes_peak"]
                                         * workload.cache_fraction)
        instances.append(Instance(
            "%s#%d" % (workload.pool_name, entry["seed"]),
            reencode(generate(workload, entry["seed"]), rng),
            entry["count"], config, entry["stats"]["cache_bytes_peak"]))
    return instances
