"""How fast the machine runs right now, measured by a fixed pure-Python kernel.

On a shared virtual machine the same count can take 40% longer for tens
of seconds at a time while neighbours are busy, so raw wall times from two
runs are not comparable. The benchmark calls :func:`speed_factor` right
before every count and multiplies that count's wall time by it: the result
is the count's time on a machine where the kernel takes ``REFERENCE_S``.
The kernel does the same kind of interpreter work as the counter (list
indexing, appends, integer tests in tight loops) and shares no code with
``src/``, so a change to pbtally cannot move it.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

#: the kernel's median time on a quiet 2-vCPU Xeon virtual machine, Python 3.11.7
REFERENCE_S = 0.0045
#: kernel runs per factor; the median is used
REPEATS = 3

_NODES = 300
_rng = random.Random(7)
_EDGES = [[_rng.randrange(_NODES) for _ in range(4)] for _ in range(_NODES)]


def kernel_seconds() -> float:
    """Wall time of one fixed graph search from every third node (4 to 7 ms)."""
    start = time.perf_counter()
    for source in range(0, _NODES, 3):
        seen = [0] * _NODES
        seen[source] = 1
        queue = [source]
        while queue:
            v = queue.pop()
            for w in _EDGES[v]:
                if not seen[w]:
                    seen[w] = 1
                    queue.append(w)
    return time.perf_counter() - start


def speed_factor() -> float:
    """``REFERENCE_S`` over the median of ``REPEATS`` kernel times.

    Collects garbage first, so neither the kernel nor the count timed right
    after it pays for an earlier count's garbage.
    """
    gc.collect()
    return REFERENCE_S / statistics.median(kernel_seconds() for _ in range(REPEATS))
