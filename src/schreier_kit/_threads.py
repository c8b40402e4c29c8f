"""Order-preserving parallel map, capped by SCHREIER_KIT_THREADS.

The default is a single worker; any worker count yields identical results
because every mapped function here is pure and the assembly keeps input
order.  No other package module imports or calls it; the module stays
only because ``bench/tracer.py`` imports it by name.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

ENV_VAR = "SCHREIER_KIT_THREADS"


def worker_count() -> int:
    raw = os.environ.get(ENV_VAR, "1")
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"{ENV_VAR} must be an integer, got {raw!r}") from None
    return max(1, n)


def map_ordered(fn, items):
    items = list(items)
    n = worker_count()
    if n == 1 or len(items) < 2:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=n) as pool:
        return list(pool.map(fn, items))
