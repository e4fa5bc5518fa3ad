"""The load matrix: every page under every configuration, each load once.

Every experiment loads a corpus the same way: :func:`load_matrix` runs
``pages × configs`` through :func:`~repro.baselines.configs.run_config`,
with the same load options (``network``, ``cache``, ``device``, ``user``,
``cpu_scale``) for every cell, and returns one row per page.  The jobs
run on a ``ProcessPoolExecutor`` (or inline when one worker is enough)
and are collected *by job index*, so the rows are bit-identical to what
the serial loop produces no matter how jobs interleave across workers.

Shared loads
------------
A load is a pure function of (blueprint, stamp, config, load options),
so the matrix runs each distinct one once per snapshot cache and keeps
the result next to that cache's snapshots
(:meth:`~repro.replay.cache.SnapshotCache.shared_load`).  The key is the
cache's content key (blueprint fingerprint plus stamp), the config, and
the load options by value, never an object's ``id()``.  A later matrix
that asks for the same load gets the same ``LoadMetrics`` object back,
which callers must not change; under ``REPRO_AUDIT=1`` each such hit is
compared with a fresh load (the ``shared-load`` invariant).  A load given
a :class:`~repro.browser.cache.BrowserCache` is never shared: the cache
carries state from one load to the next.

Determinism contract
--------------------
* Cell ``i * len(configs) + j`` is page ``i`` under config ``j``, the
  nesting order of the serial loop.
* Workers receive prebuilt ``(page, snapshot, store)`` bundles (pickled
  once per worker at pool start-up), not builders: ``materialize`` and
  ``record_snapshot`` are pure, so a pickled copy is value-identical to
  the parent's and each simulation is a pure function of its bundle.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro import audit
from repro.baselines.configs import run_config
from repro.browser.metrics import LoadMetrics
from repro.calibration import DEFAULT_EVAL_HOUR
from repro.net.http import NetworkConfig
from repro.pages.dynamics import LoadStamp
from repro.pages.page import PageBlueprint, PageSnapshot
from repro.replay.cache import DEFAULT_CACHE, SnapshotCache
from repro.replay.store import ReplayStore

#: Work bundle one job needs: the page plus its prebuilt snapshot/store.
WorkItem = Tuple[PageBlueprint, PageSnapshot, ReplayStore]

#: One load to run: (cell index, page index, config).
Job = Tuple[int, int, str]

#: Session default used when a matrix is built without an explicit
#: worker count; set from the CLI's ``--workers`` flag.
_DEFAULT_WORKERS = 1


def set_default_workers(workers: Optional[int]) -> None:
    """Set the session-wide default worker count (None/0 → cpu_count)."""
    global _DEFAULT_WORKERS
    _DEFAULT_WORKERS = resolve_workers(workers)


def get_default_workers() -> int:
    return _DEFAULT_WORKERS


def resolve_workers(
    workers: Optional[int], jobs: Optional[int] = None
) -> int:
    """Normalise a worker request.

    None or 0 auto-sizes to one worker per CPU, never more than there
    are ``jobs`` (pool start-up is pure overhead past that point — on a
    1-CPU box a 4-worker pool *lost* to the serial loop).  An explicit
    positive count is honoured, clamped only by ``jobs``; a negative one
    is refused.
    """
    if workers is not None and workers < 0:
        raise ValueError(
            f"worker count must be >= 0 (0 = one per CPU), got {workers}"
        )
    if not workers:
        workers = os.cpu_count() or 1
    if jobs is not None:
        workers = min(workers, max(1, jobs))
    return workers


@dataclass
class SweepPerf:
    """Machine-readable performance record of one load matrix."""

    #: Cells in the matrix (pages × configs).
    jobs: int
    workers: int
    elapsed: float
    cache_hits: int
    cache_misses: int
    #: "inline" when the loads ran in-process (effective workers == 1 or
    #: a single load — e.g. any 1-CPU host), "pool" when they fanned out
    #: over a ``ProcessPoolExecutor``.  Recorded so perf reports can't
    #: silently compare a pool-overhead run against a serial one.
    mode: str = "inline"
    #: Cells answered by a load that was already run (not run again).
    shared: int = 0

    @property
    def jobs_per_sec(self) -> float:
        return self.jobs / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    def as_dict(self) -> dict:
        return {
            "jobs": self.jobs,
            "workers": self.workers,
            "mode": self.mode,
            "elapsed_sec": self.elapsed,
            "jobs_per_sec": self.jobs_per_sec,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": self.cache_hit_rate,
            "shared_loads": self.shared,
        }


def grid_mode(workers: int, jobs: int) -> str:
    """How a matrix runs its loads: "inline" or "pool"."""
    return "inline" if workers <= 1 or jobs <= 1 else "pool"


# -- worker side -------------------------------------------------------------

#: Per-process work table, installed by the pool initializer so each job
#: submission only ships a few integers instead of the snapshot tree.
_WORKER_WORK: List[WorkItem] = []

#: The load options forwarded to every ``run_config`` call.
_WORKER_OPTIONS: dict = {}


def _init_worker(work: List[WorkItem], options: dict) -> None:
    global _WORKER_WORK, _WORKER_OPTIONS
    _WORKER_WORK = work
    _WORKER_OPTIONS = options


def _run_job(job: Job) -> Tuple[int, LoadMetrics]:
    index, page_index, config = job
    page, snapshot, store = _WORKER_WORK[page_index]
    return index, run_config(
        config, page, snapshot, store, **_WORKER_OPTIONS
    )


# -- parent side -------------------------------------------------------------

def _run_jobs(
    work: List[WorkItem], jobs: List[Job], workers: int, options: dict
) -> Iterator[Tuple[int, LoadMetrics]]:
    """Run ``jobs``, yielding ``(cell index, metrics)`` pairs."""
    if grid_mode(workers, len(jobs)) == "inline":
        _init_worker(work, options)
        try:
            for job in jobs:
                yield _run_job(job)
        finally:
            # Release the work table: leaving it populated would pin every
            # snapshot tree in this process for its remaining lifetime.
            _init_worker([], {})
        return
    with ProcessPoolExecutor(
        max_workers=workers,
        initializer=_init_worker,
        initargs=(work, options),
    ) as pool:
        results = pool.map(
            _run_job, jobs, chunksize=max(1, len(jobs) // (workers * 4))
        )
        for (_, page_index, _), (index, metrics) in zip(jobs, results):
            # A worker's metrics hold its pickled copy of the resource
            # tree; pointing them at this process's snapshot lets the
            # copy go, so a kept load costs its timelines, not a tree.
            resources = work[page_index][1].by_url()
            for timeline in metrics.timelines.values():
                if timeline.resource is not None:
                    timeline.resource = resources[timeline.url]
            yield index, metrics


def _options_key(options: dict) -> Optional[tuple]:
    """``run_config``'s load options by value; None if never shared.

    Omitted options take ``run_config``'s defaults, so an option passed
    at its default keys like an omitted one.
    """
    resolved = {**run_config.__kwdefaults__, **options}
    if resolved.pop("cache") is not None:
        return None
    network = resolved.pop("network") or NetworkConfig()
    return (astuple(network), tuple(sorted(resolved.items())))


@dataclass
class LoadMatrix:
    """One row per page, ``{config: LoadMetrics}``, plus the perf record.

    The metrics may be shared with other matrices: read them, never
    change them.
    """

    configs: List[str]
    rows: List[Dict[str, LoadMetrics]]
    perf: SweepPerf

    def series(self, config: str, metric: str = "plt") -> List[float]:
        """``metric`` (a ``LoadMetrics`` attribute) of ``config``, per page."""
        if config not in self.configs:
            raise KeyError(
                f"no series for config {config!r}; this matrix holds: "
                f"{', '.join(sorted(self.configs)) or '<none>'}"
            )
        return [getattr(row[config], metric) for row in self.rows]


def load_matrix(
    pages: Iterable[PageBlueprint],
    configs: Iterable[str],
    *,
    stamp: Optional[LoadStamp] = None,
    workers: Optional[int] = None,
    snapshots: Optional[SnapshotCache] = None,
    **options,
) -> LoadMatrix:
    """Load every page under every config, each distinct load once.

    ``stamp`` defaults to the evaluation hour.  ``workers=None`` uses the
    session default (1, i.e. serial, unless raised via
    :func:`set_default_workers` or the CLI's ``--workers``); 0 means one
    per CPU.  ``snapshots=None`` uses the session-wide snapshot cache
    and the loads it shares; pass a private :class:`SnapshotCache` to
    isolate both.  ``options`` are ``run_config``'s load options and must
    pickle.
    """
    pages = list(pages)
    configs = list(dict.fromkeys(configs))
    stamp = stamp or LoadStamp(when_hours=DEFAULT_EVAL_HOUR)
    snapshots = snapshots if snapshots is not None else DEFAULT_CACHE
    started = time.perf_counter()
    hits_before = snapshots.stats.hits
    misses_before = snapshots.stats.misses

    work: List[WorkItem] = [
        (page, *snapshots.materialized(page, stamp)) for page in pages
    ]
    options_key = _options_key(options)
    cells: List[Optional[LoadMetrics]] = []
    keys: List[Optional[tuple]] = []
    #: key -> cell of the job that runs it, for repeats within the matrix.
    runs: Dict[tuple, int] = {}
    jobs: List[Job] = []
    for page_index, (page, snapshot, store) in enumerate(work):
        content = snapshots.key(page, stamp)
        for config in configs:
            key = None
            shared = None
            if options_key is not None:
                key = (content, config, options_key)
                shared = snapshots.shared_load(key)
            if shared is not None and audit.ENABLED:
                audit.shared_load_matches(
                    f"{page.name!r} under {config!r}",
                    shared,
                    run_config(config, page, snapshot, store, **options),
                )
            if shared is None and (key is None or key not in runs):
                if key is not None:
                    runs[key] = len(cells)
                jobs.append((len(cells), page_index, config))
            keys.append(key)
            cells.append(shared)

    workers = resolve_workers(
        get_default_workers() if workers is None else workers, len(jobs)
    )
    for index, metrics in _run_jobs(work, jobs, workers, options):
        cells[index] = metrics
        if keys[index] is not None:
            snapshots.share_load(keys[index], metrics)
    for index, key in enumerate(keys):
        if cells[index] is None:
            cells[index] = cells[runs[key]]

    width = len(configs)
    rows = [
        dict(zip(configs, cells[index * width:(index + 1) * width]))
        for index in range(len(pages))
    ]
    perf = SweepPerf(
        jobs=len(cells),
        workers=workers,
        elapsed=time.perf_counter() - started,
        cache_hits=snapshots.stats.hits - hits_before,
        cache_misses=snapshots.stats.misses - misses_before,
        mode=grid_mode(workers, len(jobs)),
        shared=len(cells) - len(jobs),
    )
    return LoadMatrix(configs, rows, perf)
