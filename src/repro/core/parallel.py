"""Process-pool fan-out for experiment sweeps.

Shared-nothing parallelism over independent sweep cells: every cell is
a pure function of picklable inputs (app names, seeds, config
dataclasses), each worker process computes its cells in isolation, and
``ProcessPoolExecutor.map`` returns results in submission order — so
the output of a parallel sweep is positionally identical to the serial
one, and reports built from it are byte-identical at any job count.

``--jobs 1`` (the default) stays entirely in-process for
debuggability: no pool, no pickling, plain ``for`` loop.  The job
count resolves as: explicit argument > ``REPRO_JOBS`` environment
variable > 1.

Determinism-under-parallelism invariants (tested):

* cell functions take all inputs from their argument (no hidden
  global state besides deterministic module-level constructors);
* cell outputs must not depend on ``PYTHONHASHSEED``-salted ``hash()``
  (worker processes have different salts);
* result order is the input order, never completion order.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Iterable, Optional, Sequence

from repro.common.stats import StatRegistry
from repro.core.expcache import ExperimentCache, cache_key

#: Environment override for the default job count.
ENV_JOBS = "REPRO_JOBS"

#: Counters for sweep observability (pool vs inline task counts).
PARALLEL_STATS = StatRegistry("parallel")


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Effective worker count: argument > ``REPRO_JOBS`` env > 1."""
    if jobs is None:
        env = os.environ.get(ENV_JOBS, "").strip()
        if env:
            try:
                jobs = int(env)
            except ValueError:
                raise ValueError(
                    f"{ENV_JOBS} must be an integer, got {env!r}"
                ) from None
    if jobs is None:
        jobs = 1
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


def parallel_map(
    fn: Callable[[Any], Any],
    items: Iterable[Any],
    jobs: Optional[int] = None,
    cache: Optional[ExperimentCache] = None,
    key_fn: Optional[Callable[[Any], str]] = None,
) -> list[Any]:
    """Map ``fn`` over ``items`` with deterministic result ordering.

    With ``cache`` and ``key_fn``, cached cells are served without
    recomputation and fresh results are stored back — the cache lookup
    happens in the parent process, so only genuine misses are shipped
    to the pool.  ``fn`` must be a module-level (picklable) function
    when ``jobs > 1``.
    """
    items = list(items)
    jobs = resolve_jobs(jobs)
    results: list[Any] = [None] * len(items)
    missing: list[int] = []
    keys: list[Optional[str]] = [None] * len(items)
    if cache is not None and key_fn is not None:
        for i, item in enumerate(items):
            key = key_fn(item)
            keys[i] = key
            hit, value = cache.lookup(key)
            if hit:
                results[i] = value
            else:
                missing.append(i)
    else:
        missing = list(range(len(items)))

    if not missing:
        return results

    if jobs <= 1 or len(missing) == 1:
        PARALLEL_STATS.bump("parallel.inline_tasks", len(missing))
        for i in missing:
            results[i] = fn(items[i])
    else:
        PARALLEL_STATS.bump("parallel.pools")
        PARALLEL_STATS.bump("parallel.pool_tasks", len(missing))
        # Imported here: it loads multiprocessing, which no inline
        # (jobs 1) sweep needs.
        from concurrent.futures import ProcessPoolExecutor

        workers = min(jobs, len(missing))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            # executor.map yields in submission order: deterministic.
            for i, value in zip(missing, pool.map(fn, [items[i] for i in missing])):
                results[i] = value

    if cache is not None and key_fn is not None:
        for i in missing:
            cache.store(keys[i], results[i])
    return results


def map_cells(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    jobs: Optional[int] = None,
    cache: Optional[ExperimentCache] = None,
    key_parts: Optional[Callable[[Any], tuple]] = None,
    label: str = "",
) -> list[Any]:
    """:func:`parallel_map` with :func:`~repro.core.expcache.cache_key` keys.

    ``key_parts(item)`` returns the tuple of canonical inputs for the
    cell; ``label`` namespaces the key so different sweeps sharing an
    item shape never collide.
    """
    key_fn = None
    if cache is not None and key_parts is not None:
        def key_fn(item):
            return cache_key(label, *key_parts(item))
    return parallel_map(fn, items, jobs=jobs, cache=cache, key_fn=key_fn)
