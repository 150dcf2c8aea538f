"""One runner for independent seeded tasks: the samples of a sweep, the restarts of a search."""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

__all__ = ["task_rng", "run_in_order"]


def task_rng(seed: int, index: int) -> np.random.Generator:
    """Generator of task ``index``: spawn key (index,) of the low 64 bits of ``seed``.

    What a task draws depends on neither the other tasks nor the process that runs it.
    """
    return np.random.default_rng(
        np.random.SeedSequence(entropy=int(seed) & (2**64 - 1), spawn_key=(index,))
    )


def run_in_order(fn, tasks: list[tuple], jobs: int | None) -> list:
    """[fn(*task) for task in tasks] on min(jobs, len(tasks)) workers (None: one per core).

    jobs < 1 raises ValueError before any task runs. One worker runs the tasks
    in this process; more share one ProcessPoolExecutor, in chunks of
    len(tasks) // (8 * workers), at least 1. The pool pickles ``fn`` by name,
    so it must be a module-level function. Results come back in task order
    either way, so they do not depend on the worker count.
    """
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be at least 1; got {jobs}")
    workers = min((os.cpu_count() or 1) if jobs is None else jobs, len(tasks))
    if workers <= 1:
        return [fn(*task) for task in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunk = max(1, len(tasks) // (8 * workers))
        return list(pool.map(fn, *zip(*tasks), chunksize=chunk))
