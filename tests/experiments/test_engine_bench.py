"""Contract tests for the engine micro-benchmark behind ``repro bench``."""

import pytest

from repro import audit
from repro.experiments.engine_bench import (
    SCENARIOS,
    SMOKE_GOLDENS,
    EngineScenario,
    bench_scenario,
    engine_benchmark,
    smoke_check,
    smoke_counters,
    smoke_run,
)


@pytest.fixture(scope="module")
def smoke_report():
    return smoke_run()


def test_smoke_matches_pinned_goldens(smoke_report):
    """The deterministic counters equal the goldens CI asserts."""
    assert smoke_check(smoke_report) == []


def test_scenarios_and_goldens_agree():
    assert sorted(SMOKE_GOLDENS) == sorted(s.name for s in SCENARIOS)


def test_smoke_check_flags_drift(smoke_report):
    import copy

    drifted = copy.deepcopy(smoke_report)
    drifted["scenarios"][0]["counters_fast"]["link_pokes"] += 1
    problems = smoke_check(drifted)
    assert len(problems) == 1
    assert "link_pokes" in problems[0]


def test_smoke_check_flags_missing_scenario(smoke_report):
    trimmed = {"scenarios": smoke_report["scenarios"][1:]}
    problems = smoke_check(trimmed)
    assert any("missing from report" in problem for problem in problems)


def test_smoke_check_flags_lost_speedup(smoke_report):
    """Dropping below the pinned floor fails the smoke job."""
    import copy

    drifted = copy.deepcopy(smoke_report)
    drifted["scenarios"][0]["wall_speedup"] = 0.5
    problems = smoke_check(drifted)
    assert any("lost its wall-clock edge" in problem for problem in problems)


def test_acceptance_ratios(smoke_report):
    """The ISSUE's perf criteria, on counters only (wall-clock is not
    asserted in CI — single-repeat walls are too noisy)."""
    rows = {row["scenario"]: row for row in smoke_report["scenarios"]}
    assert rows["push-all-high-rtt"]["event_reduction"] >= 2.0
    assert rows["single-stream-drain"]["event_reduction"] >= 2.0
    for row in rows.values():
        assert row["bit_identical"] is True
        assert row["plt"] > 0


def test_counters_cover_all_modes(smoke_report):
    observed = smoke_counters(smoke_report)
    for scenario, counters in observed.items():
        # The fast engine only ever removes heap events (inline steps
        # replace refresh ticks one for one), never adds any.
        assert counters["events_scheduled_fast"] <= (
            counters["events_scheduled_reference"]
        ), scenario
    for row in smoke_report["scenarios"]:
        reference = row["counters_reference"]
        assert reference["link_fast_forward_steps"] == 0, row["scenario"]
        assert reference["link_pokes"] == row["counters_fast"]["link_pokes"]


def test_batched_counters_present(smoke_report):
    rows = {row["scenario"]: row for row in smoke_report["scenarios"]}
    for row in rows.values():
        assert row["wall_fast_sec"] > 0
        assert row["wall_speedup"] > 0
    # Inline steps engage hardest on the single-stream drain, and the
    # closed-form allocator where several connections share the link.
    assert rows["single-stream-drain"]["counters_fast"][
        "link_fast_forward_steps"
    ] > 1000
    assert rows["corpus-news"]["counters_fast"]["link_wf_fast_hits"] > 0


def test_audited_counters_equal_plain_counters(smoke_report):
    """The audit checks the path the plain run takes, so an audited
    benchmark counts exactly the plain trace on both engines, and the
    audited smoke check holds every golden."""
    was = audit.ENABLED
    audit.enable()
    try:
        audited_report = engine_benchmark(repeats=1)
        problems = smoke_check(audited_report)
    finally:
        if not was:
            audit.disable()
    assert problems == []
    plain = {row["scenario"]: row for row in smoke_report["scenarios"]}
    for row in audited_report["scenarios"]:
        name = row["scenario"]
        assert row["counters_fast"] == plain[name]["counters_fast"], name
        assert row["counters_reference"] == (
            plain[name]["counters_reference"]
        ), name


def test_custom_scenario_runs_and_verifies():
    """bench_scenario verifies bit-identity on arbitrary shapes, not
    just the pinned ones — the suite is reusable for new scenarios."""
    scenario = EngineScenario(
        name="tiny",
        description="tiny drain",
        kind="synthetic",
        images=1,
        image_bytes=200_000,
        base_rtt=0.05,
        loss_rate=0.0,
    )
    row = bench_scenario(scenario, repeats=1)
    assert row["bit_identical"] is True
