"""The long-run benchmark's throughput reads one run over its own wall."""

import pytest

from repro.experiments.longrun_bench import longrun_benchmark
from repro.scenario import ScenarioSpec

TINY = dict(
    pages=4,
    horizon_hours=2.0,
    rate_per_hour=1200.0,
    shards=3,
    replication=2,
    rollup_hours=0.5,
)


def test_lookups_per_s_divides_by_the_straight_run():
    payload = longrun_benchmark(ScenarioSpec(**TINY))
    perf = payload["perf"]
    lookups = payload["report"]["totals"]["lookups"]
    assert lookups > 0
    assert perf["lookups_per_s"] * perf["straight_wall_s"] == pytest.approx(
        lookups, rel=0.02
    )
    # The round trip runs the scenario twice; the straight leg is one.
    assert perf["straight_wall_s"] < perf["resume_wall_s"]
    assert "straight_wall_s" not in payload["resume"]
