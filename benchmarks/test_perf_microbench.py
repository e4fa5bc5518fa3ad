"""Simulator performance micro-benchmarks.

Unlike the figure benches (which run an experiment once and assert its
shape), these measure the simulator itself over multiple rounds: event
throughput of the DES core, and wall time of a single cold page load
under the baseline and under Vroom.  They guard against performance
regressions that would make the figure benches crawl.

The load-matrix benches at the bottom additionally write a
machine-readable perf report to ``BENCH_sweep.json`` at the repo root
(jobs/sec serial and parallel, measured speedup, snapshot-cache hit
rate).  It records one host's walls, so it is not committed.  Each timed
matrix uses a private snapshot cache, so it shares no loads and times
real ones.
"""

import json
import os
import time
from pathlib import Path

from repro.baselines.configs import run_config
from repro.calibration import DEFAULT_EVAL_HOUR
from repro.experiments.parallel import load_matrix
from repro.net.simulator import Simulator
from repro.pages.corpus import news_sports_corpus
from repro.pages.dynamics import LoadStamp
from repro.replay.cache import SnapshotCache
from repro.replay.recorder import record_snapshot

BENCH_REPORT_PATH = Path(__file__).resolve().parent.parent / "BENCH_sweep.json"


def test_perf_simulator_event_throughput(benchmark):
    def run_10k_events():
        sim = Simulator()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 10_000:
                sim.schedule(0.001, tick)

        sim.schedule(0.001, tick)
        sim.run()
        return count[0]

    events = benchmark(run_10k_events)
    assert events == 10_000


def _page_fixture():
    page = news_sports_corpus(count=1)[0]
    snapshot = page.materialize(LoadStamp(when_hours=DEFAULT_EVAL_HOUR))
    store = record_snapshot(snapshot)
    return page, snapshot, store


def test_perf_http2_page_load(benchmark):
    page, snapshot, store = _page_fixture()
    metrics = benchmark(
        lambda: run_config("http2", page, snapshot, store)
    )
    assert metrics.plt > 0


def test_perf_vroom_page_load(benchmark):
    page, snapshot, store = _page_fixture()
    metrics = benchmark(
        lambda: run_config("vroom", page, snapshot, store)
    )
    assert metrics.plt > 0


def test_perf_corpus_generation(benchmark):
    pages = benchmark(lambda: news_sports_corpus(count=10, seed=909))
    assert len(pages) == 10


# ---------------------------------------------------------------------------
# Load matrix: snapshot cache and parallel fan-out
# ---------------------------------------------------------------------------

SWEEP_PAGES = 10
SWEEP_CONFIGS = ["http2", "vroom", "push-all-fetch-asap"]


def test_perf_snapshot_cache_cold_vs_hot(benchmark):
    """A cache hit must be orders of magnitude cheaper than recording."""
    pages = news_sports_corpus(count=SWEEP_PAGES, seed=909)
    stamp = LoadStamp(when_hours=DEFAULT_EVAL_HOUR)
    cache = SnapshotCache()

    t0 = time.perf_counter()
    for page in pages:
        cache.materialized(page, stamp)
    cold = time.perf_counter() - t0

    def hot_pass():
        for page in pages:
            cache.materialized(page, stamp)

    benchmark(hot_pass)
    t0 = time.perf_counter()
    hot_pass()
    hot = time.perf_counter() - t0

    assert cache.stats.misses == SWEEP_PAGES
    assert cache.stats.hits >= SWEEP_PAGES
    assert hot < cold, "cache hit should be cheaper than a cold recording"
    _merge_report(
        {
            "snapshot_cache": {
                "pages": SWEEP_PAGES,
                "cold_record_sec": cold,
                "hot_lookup_sec": hot,
                "hit_speedup": cold / hot if hot > 0 else float("inf"),
            }
        }
    )


def test_perf_parallel_sweep_vs_serial(benchmark):
    """10 pages x 3 configs: auto-sized parallel matrix vs the serial path.

    Asserts bit-identical metrics between the two, records jobs/sec and
    the measured speedup in BENCH_sweep.json.  Workers (0) auto-size to
    ``min(cpu_count, jobs)``: on a 1-CPU box that degenerates to the
    serial path (where a forced 4-worker pool used to *lose* to serial),
    so the >= 2.5x wall-clock assertion only applies when the effective
    pool has 4+ workers — smaller machines still record the trajectory.
    """
    pages = news_sports_corpus(count=SWEEP_PAGES, seed=909)

    serial_t0 = time.perf_counter()
    serial_run = load_matrix(
        pages, SWEEP_CONFIGS, workers=1, snapshots=SnapshotCache()
    )
    serial_perf = serial_run.perf
    serial_elapsed = time.perf_counter() - serial_t0

    parallel_t0 = time.perf_counter()
    parallel_run = benchmark.pedantic(
        lambda: load_matrix(
            pages,
            SWEEP_CONFIGS,
            workers=0,
            snapshots=SnapshotCache(),
        ),
        rounds=1,
        iterations=1,
    )
    parallel_perf = parallel_run.perf
    parallel_elapsed = time.perf_counter() - parallel_t0

    # Determinism: the parallel grid must be bit-identical to serial.
    assert parallel_run.rows == serial_run.rows

    speedup = (
        serial_elapsed / parallel_elapsed if parallel_elapsed > 0 else 0.0
    )
    cpus = os.cpu_count() or 1
    effective_workers = parallel_perf.workers
    assert effective_workers == min(cpus, serial_perf.jobs)
    if effective_workers >= 4:
        assert speedup >= 2.5, (
            f"parallel sweep only {speedup:.2f}x faster than serial "
            f"with {effective_workers} workers on {cpus} CPUs"
        )
    _merge_report(
        {
            "parallel_sweep": {
                "pages": SWEEP_PAGES,
                "configs": SWEEP_CONFIGS,
                "jobs": serial_perf.jobs,
                "cpu_count": cpus,
                "workers": effective_workers,
                "mode": parallel_perf.mode,
                "serial_elapsed_sec": serial_elapsed,
                "parallel_elapsed_sec": parallel_elapsed,
                "serial_jobs_per_sec": serial_perf.jobs_per_sec,
                "parallel_jobs_per_sec": parallel_perf.jobs_per_sec,
                "speedup_vs_serial": speedup,
                "bit_identical_to_serial": True,
            }
        }
    )


def test_perf_cached_sweep_reuses_snapshots(benchmark):
    """Back-to-back matrices share snapshots: the second hits 100%."""
    pages = news_sports_corpus(count=SWEEP_PAGES, seed=909)
    cache = SnapshotCache()
    load_matrix(pages, ["http2"], workers=1, snapshots=cache)

    warm_perf = benchmark.pedantic(
        lambda: load_matrix(pages, ["vroom"], workers=1, snapshots=cache),
        rounds=1,
        iterations=1,
    ).perf
    assert warm_perf.cache_hit_rate == 1.0
    _merge_report(
        {
            "cached_sweep": {
                "pages": SWEEP_PAGES,
                "cache_hit_rate": warm_perf.cache_hit_rate,
                "jobs_per_sec": warm_perf.jobs_per_sec,
            }
        }
    )


def _merge_report(section: dict) -> None:
    """Fold one bench's numbers into BENCH_sweep.json (append-friendly)."""
    report = {}
    if BENCH_REPORT_PATH.exists():
        try:
            report = json.loads(BENCH_REPORT_PATH.read_text())
        except (ValueError, OSError):
            report = {}
    report.update(section)
    BENCH_REPORT_PATH.write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n"
    )
