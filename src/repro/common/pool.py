"""One process-pool fan-out for grids of independent, deterministic work.

The experiment grid (:mod:`repro.experiments.parallel`) and the fleet's
policy × cap grid (:mod:`repro.fleet.grid`) are cells that are pure
functions of their inputs, so any process may compute any of them.
:func:`partition` batches the cells, :func:`run_batches` runs the
batches on spawned workers and names every cell a worker did not
finish — it raised, its worker died, or the pool could not start — for
the caller to recompute serially, and :func:`exchange` is the directory
workers publish large results into so only small values cross the pipe.
"""

from __future__ import annotations

import tempfile
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: ``({item: result}, {item: error})`` — one batch's or a whole run's.
Outcome = Tuple[Dict[Any, Any], Dict[Any, str]]


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def partition(
    items: Sequence[Any], group_key: Callable[[Any], Any], jobs: int
) -> List[List[Any]]:
    """Deterministic batches of sortable ``items``, one per ``group_key``.

    A group shares costly state, so it is the unit of distribution; only
    when groups are fewer than ``jobs`` is the largest batch halved.
    """
    groups: Dict[Any, List[Any]] = {}
    for item in items:
        groups.setdefault(group_key(item), []).append(item)
    batches = list(groups.values())
    while len(batches) < min(jobs, len(items)):
        batches.sort(key=lambda batch: (-len(batch), batch[0]))
        largest = batches[0]
        if len(largest) <= 1:
            break
        mid = (len(largest) + 1) // 2
        batches[:1] = [largest[:mid], largest[mid:]]
    return sorted(batches)


def each(batch: Sequence[Any], compute: Callable[[Any], Any]) -> Outcome:
    """Worker-side loop: ``compute(item)`` per item, failures contained."""
    results: Dict[Any, Any] = {}
    errors: Dict[Any, str] = {}
    for item in batch:
        try:
            results[item] = compute(item)
        except Exception as exc:  # contained: the parent recomputes
            errors[item] = _describe(exc)
    return results, errors


def run_batches(
    batches: Sequence[Sequence[Any]],
    work: Callable[[Sequence[Any]], Outcome],
    jobs: int,
    initializer: Optional[Callable[..., None]] = None,
    initargs: Tuple[Any, ...] = (),
) -> Outcome:
    """Run module-level ``work(batch)`` on at most ``jobs`` spawned workers.

    Every item comes back as a result or an error: the one ``work``
    reported, the exception its batch raised, a dead worker's
    ``BrokenProcessPool`` or the ``OSError`` of a pool that never started.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    results: Dict[Any, Any] = {}
    failures: Dict[Any, str] = {}

    def lose(batch: Sequence[Any], error: str) -> None:
        for item in batch:
            if item not in results:
                failures.setdefault(item, error)

    try:
        with ProcessPoolExecutor(
            max_workers=max(1, min(jobs, len(batches))),
            mp_context=multiprocessing.get_context("spawn"),
            initializer=initializer,
            initargs=initargs,
        ) as pool:
            futures = []
            for batch in batches:
                try:
                    futures.append((batch, pool.submit(work, batch)))
                except (OSError, RuntimeError) as exc:  # no start / broken
                    lose(batch, _describe(exc))
            for batch, future in futures:
                try:
                    done, errors = future.result()
                except Exception as exc:  # raised, died or unpicklable
                    lose(batch, _describe(exc))
                else:
                    results.update(done)
                    failures.update(errors)
    except OSError as exc:  # the pool could not start
        for batch in batches:
            lose(batch, _describe(exc))
    for batch in batches:
        lose(batch, "worker returned no result")
    return results, failures


@contextmanager
def exchange(root: Optional[str] = None) -> Iterator[str]:
    """``root`` as is, else a temporary directory removed on exit."""
    if root is not None:
        yield str(root)
        return
    with tempfile.TemporaryDirectory(prefix="repro-pool-") as tmp:
        yield tmp
