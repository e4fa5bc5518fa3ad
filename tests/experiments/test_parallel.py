"""Determinism, plumbing and sharing tests for the load matrix."""

import pytest

from repro import audit
from repro.browser.cache import BrowserCache
from repro.experiments import parallel
from repro.experiments.parallel import (
    SweepPerf,
    load_matrix,
    resolve_workers,
    set_default_workers,
)
from repro.net.http import NetworkConfig
from repro.pages.corpus import news_sports_corpus
from repro.replay.cache import SnapshotCache

CONFIGS = ["http2", "vroom", "push-all-fetch-asap"]


@pytest.fixture(scope="module")
def pages():
    return news_sports_corpus(count=3)


@pytest.fixture(scope="module")
def serial_run(pages):
    return load_matrix(pages, CONFIGS, workers=1, snapshots=SnapshotCache())


class TestJobDecomposition:
    def test_indices_follow_serial_nesting(self, pages, monkeypatch):
        """Job ``i * len(configs) + j`` is page ``i`` under config ``j``."""
        jobs = []
        run_job = parallel._run_job

        def recording(job):
            jobs.append(job)
            return run_job(job)

        monkeypatch.setattr(parallel, "_run_job", recording)
        load_matrix(
            pages[:2], ["http2", "vroom"], workers=1,
            snapshots=SnapshotCache(),
        )
        assert jobs == [
            (0, 0, "http2"), (1, 0, "vroom"), (2, 1, "http2"), (3, 1, "vroom"),
        ]

    def test_resolve_workers(self):
        assert resolve_workers(3) == 3
        assert resolve_workers(None) >= 1
        assert resolve_workers(0) >= 1

    def test_resolve_workers_auto_sizes_to_cpus(self):
        import os

        assert resolve_workers(None) == (os.cpu_count() or 1)
        assert resolve_workers(0) == (os.cpu_count() or 1)

    def test_resolve_workers_clamped_by_jobs(self):
        assert resolve_workers(8, jobs=3) == 3
        assert resolve_workers(2, jobs=3) == 2
        assert resolve_workers(None, jobs=1) == 1
        # Degenerate job counts still yield a usable worker count.
        assert resolve_workers(8, jobs=0) == 1

    def test_resolve_workers_rejects_negative(self):
        with pytest.raises(ValueError, match="got -1"):
            resolve_workers(-1)
        with pytest.raises(ValueError, match="got -4"):
            set_default_workers(-4)

    def test_sweep_records_effective_workers(self, pages):
        perf = load_matrix(
            pages, ["http2"], workers=64, snapshots=SnapshotCache()
        ).perf
        # 3 pages x 1 config = 3 jobs: the pool never exceeds the jobs.
        assert perf.workers == 3


class TestDeterminism:
    """Parallel output must be bit-identical to the serial path."""

    def test_one_worker_matches_serial(self, pages, serial_run):
        run = load_matrix(pages, CONFIGS, workers=1, snapshots=SnapshotCache())
        assert run.rows == serial_run.rows
        assert run.perf.jobs == len(pages) * len(CONFIGS)

    def test_n_workers_match_serial(self, pages, serial_run, stamp):
        cache = SnapshotCache()
        run = load_matrix(pages, CONFIGS, workers=3, snapshots=cache)
        assert run.rows == serial_run.rows
        assert run.perf.workers == 3
        assert run.perf.mode == "pool"
        # A worker's load points at this process's snapshot, not at the
        # copy the worker was sent.
        snapshot, _ = cache.materialized(pages[0], stamp)
        root = snapshot.root
        assert run.rows[0]["vroom"].timelines[root.url].resource is root

    def test_session_default_workers_match_serial(self, pages, serial_run):
        set_default_workers(2)
        try:
            run = load_matrix(pages, CONFIGS, snapshots=SnapshotCache())
        finally:
            set_default_workers(1)
        assert run.perf.workers == 2
        assert run.rows == serial_run.rows

    def test_rows_follow_serial_order(self, pages, serial_run, stamp):
        """Row ``i`` holds page ``i``'s loads, in config order."""
        assert serial_run.configs == CONFIGS
        assert len(serial_run.rows) == len(pages)
        for page, row in zip(pages, serial_run.rows):
            root = page.materialize(stamp).root.url
            assert list(row) == CONFIGS
            assert all(root in metrics.timelines for metrics in row.values())

    def test_page_shards_match_serial(self, pages, serial_run):
        """One matrix per page reproduces the rows of the whole matrix."""
        for index, page in enumerate(pages):
            (row,) = load_matrix(
                [page], CONFIGS, workers=1, snapshots=SnapshotCache()
            ).rows
            assert row == serial_run.rows[index]

    def test_custom_metric_applies_in_parent(self, pages):
        run = load_matrix(
            pages, ["http2"], workers=2, snapshots=SnapshotCache()
        )
        assert run.series("http2", "aft") == [
            row["http2"].aft for row in run.rows
        ]
        assert all(value > 0 for value in run.series("http2", "aft"))


class TestWorkerStateHygiene:
    """The inline (workers=1) path borrows the worker globals of this
    process; it must release them or every snapshot tree stays pinned."""

    def test_inline_run_releases_work_table(self, pages):
        load_matrix(pages, ["http2"], workers=1, snapshots=SnapshotCache())
        assert parallel._WORKER_WORK == []
        assert parallel._WORKER_OPTIONS == {}

    def test_inline_run_releases_on_error(self, pages):
        with pytest.raises(ValueError, match="unknown configuration"):
            load_matrix(
                pages, ["no-such-config"], workers=1,
                snapshots=SnapshotCache(),
            )
        assert parallel._WORKER_WORK == []
        assert parallel._WORKER_OPTIONS == {}


class TestSweepPerf:
    def test_cache_counters_isolated_per_sweep(self, pages):
        cache = SnapshotCache()
        cold = load_matrix(pages, ["http2"], workers=1, snapshots=cache).perf
        warm = load_matrix(pages, ["vroom"], workers=1, snapshots=cache).perf
        assert cold.cache_misses == len(pages) and cold.cache_hits == 0
        assert warm.cache_hits == len(pages) and warm.cache_misses == 0
        assert warm.cache_hit_rate == 1.0
        assert cold.shared == warm.shared == 0

    def test_perf_report_shape(self):
        perf = SweepPerf(
            jobs=10, workers=2, elapsed=2.0, cache_hits=3, cache_misses=7,
            shared=4,
        )
        report = perf.as_dict()
        assert report["jobs_per_sec"] == 5.0
        assert report["cache_hit_rate"] == 0.3
        assert report["mode"] == "inline"
        assert report["shared_loads"] == 4
        assert set(report) == {
            "jobs", "workers", "mode", "elapsed_sec", "jobs_per_sec",
            "cache_hits", "cache_misses", "cache_hit_rate", "shared_loads",
        }

    def test_grid_mode_dispatch(self):
        from repro.experiments.parallel import grid_mode

        assert grid_mode(workers=1, jobs=30) == "inline"
        assert grid_mode(workers=4, jobs=1) == "inline"
        assert grid_mode(workers=4, jobs=30) == "pool"

    def test_sweep_records_inline_mode_for_single_worker(self, pages):
        perf = load_matrix(
            pages, ["http2"], workers=1, snapshots=SnapshotCache()
        ).perf
        assert perf.workers == 1
        assert perf.mode == "inline"


class TestLoadMatrixSeries:
    def test_series_error_names_known_configs(self, serial_run):
        with pytest.raises(
            KeyError, match="http2, push-all-fetch-asap, vroom"
        ):
            serial_run.series("polaris")


def _count_loads(monkeypatch):
    """Counts the loads ``run_config`` starts from here on."""
    from repro.baselines import configs

    calls = []
    load_page = configs.load_page

    def counting(*args, **kwargs):
        calls.append(1)
        return load_page(*args, **kwargs)

    monkeypatch.setattr(configs, "load_page", counting)
    return calls


class TestSharedLoads:
    """A matrix runs each distinct load once per snapshot cache."""

    def test_second_matrix_runs_no_loads(self, pages, monkeypatch):
        cache = SnapshotCache()
        first = load_matrix(pages, CONFIGS, snapshots=cache)
        loads = _count_loads(monkeypatch)
        second = load_matrix(pages, CONFIGS, snapshots=cache)
        assert loads == []
        assert second.perf.shared == second.perf.jobs == len(first.rows) * 3
        for before, after in zip(first.rows, second.rows):
            assert all(after[config] is before[config] for config in CONFIGS)

    def test_repeated_page_loads_once(self, pages, monkeypatch):
        loads = _count_loads(monkeypatch)
        run = load_matrix(
            [pages[0], pages[0]], ["http2"], snapshots=SnapshotCache()
        )
        assert len(loads) == 1 and run.perf.shared == 1
        assert run.rows[0]["http2"] is run.rows[1]["http2"]

    def test_same_load_shared_across_config_lists(self, pages):
        cache = SnapshotCache()
        first = load_matrix(pages, ["http2", "vroom"], snapshots=cache)
        second = load_matrix(
            pages, ["vroom", "polaris"], snapshots=cache,
            network=NetworkConfig(), device="nexus6",
        )
        assert second.perf.shared == len(pages)
        assert all(
            b["vroom"] is a["vroom"]
            for a, b in zip(first.rows, second.rows)
        )

    @pytest.mark.parametrize(
        "options",
        [
            {"network": NetworkConfig(loss_rate=0.01)},
            {"network": NetworkConfig(engine="reference")},
            {"cpu_scale": 0.5},
            {"device": "nexus10"},
            {"user": "user7"},
        ],
        ids=["loss", "engine", "cpu_scale", "device", "user"],
    )
    def test_other_options_run_again(self, pages, options, monkeypatch):
        cache = SnapshotCache()
        load_matrix(pages[:1], ["http2"], snapshots=cache)
        loads = _count_loads(monkeypatch)
        run = load_matrix(pages[:1], ["http2"], snapshots=cache, **options)
        assert run.perf.shared == 0
        assert len(loads) == 1

    def test_browser_cache_never_shared(self, page, snapshot, monkeypatch):
        cache = SnapshotCache()
        warm = BrowserCache()
        warm.seed_from_snapshot(
            snapshot.all_resources(), when_hours=snapshot.stamp.when_hours
        )
        load_matrix([page], ["http2"], snapshots=cache, cache=warm)
        loads = _count_loads(monkeypatch)
        run = load_matrix([page], ["http2"], snapshots=cache, cache=warm)
        assert run.perf.shared == 0
        assert len(loads) == 1
        cold = load_matrix([page], ["http2"], snapshots=cache)
        assert cold.perf.shared == 0

    def test_private_cache_shares_nothing_with_session(
        self, pages, monkeypatch
    ):
        load_matrix(pages[:1], ["http2"])
        assert load_matrix(pages[:1], ["http2"]).perf.shared == 1
        loads = _count_loads(monkeypatch)
        private = load_matrix(pages[:1], ["http2"], snapshots=SnapshotCache())
        assert private.perf.shared == 0
        assert len(loads) == 1

    def test_audit_catches_a_changed_shared_load(self, pages):
        cache = SnapshotCache()
        run = load_matrix(pages[:1], ["http2"], snapshots=cache)
        audit.enable()
        try:
            # An unchanged shared load passes the audit.
            load_matrix(pages[:1], ["http2"], snapshots=cache)
            run.rows[0]["http2"].plt = 0.0
            with pytest.raises(audit.AuditError, match="shared-load"):
                load_matrix(pages[:1], ["http2"], snapshots=cache)
        finally:
            audit.disable()
