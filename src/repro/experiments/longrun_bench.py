"""Long-horizon continuous-operation benchmark (``BENCH_longrun.json``).

Drives the :mod:`repro.longrun` streaming runner through the acceptance
scenario — at least 48 simulated hours of Zipf×Poisson traffic with the
shard fail/heal cycle active and content rotating under the corpus
epoch model — and packages three results:

* the straight-through report (windowed rollups, constant-memory
  aggregates, the served-hint chain);
* a checkpoint/resume round trip whose resumed report must be
  bit-identical (by fingerprint) to the straight run;
* a paired A/B lane (replication 2 vs 1 by default) over the identical
  workload stream, reported as per-window deltas.

``smoke_run``/``smoke_check`` follow the repo's pinned-golden pattern:
CI runs ``repro longrun --smoke`` under ``REPRO_AUDIT=1`` and any drift
in the serving stream shows up as a loud counter diff.
"""

from __future__ import annotations

import resource
import time
from typing import Dict, List, Optional

from repro.longrun import checkpoint_roundtrip, run_paired
from repro.scenario.spec import ScenarioSpec

#: The acceptance scenario: two simulated days of default-rate traffic,
#: a shard knocked out (and healed) every 12 hours, digest-aware hint
#: filtering on, hourly rollups.
DEFAULT_SPEC = ScenarioSpec(
    horizon_hours=48.0,
    digest_filter_bits=8,
    shard_cycle_every_hours=12.0,
    shard_cycle_down_hours=1.5,
    shard_cycle_start_hours=6.0,
)

#: Default B-lane policy: drop replication to 1 so the paired deltas
#: show what the replicas buy during the fail/heal windows.
DEFAULT_VARIANT = {"replication": 1}


def _slim_lane(lane: dict) -> dict:
    """An A/B lane without its bulky full report (rollups, tenants)."""
    report = lane["report"]
    return {
        "label": lane["label"],
        "overrides": lane["overrides"],
        "totals": report["totals"],
        "latency": report["latency"],
        "chain": report["chain"],
        "fingerprint": report["fingerprint"],
    }


def longrun_benchmark(
    spec: Optional[ScenarioSpec] = None,
    checkpoint_at_hours: Optional[float] = None,
    variant: Optional[Dict[str, object]] = None,
) -> dict:
    """Straight run + checkpoint/resume + paired A/B, one payload."""
    spec = DEFAULT_SPEC if spec is None else spec
    variant = dict(DEFAULT_VARIANT if variant is None else variant)

    wall = time.perf_counter()
    resume = checkpoint_roundtrip(spec, checkpoint_at_hours)
    resume_wall = time.perf_counter() - wall
    report = resume.pop("report")
    straight_wall = resume.pop("straight_wall_s")

    wall = time.perf_counter()
    paired = run_paired(spec, {}, variant, label_a="base", label_b="variant")
    ab_wall = time.perf_counter() - wall

    lookups = report["totals"]["lookups"]
    return {
        "benchmark": "longrun",
        "spec": spec.as_dict(),
        "spec_fingerprint": spec.fingerprint(),
        "report": report,
        "resume": resume,
        "ab": {
            "lane_a": _slim_lane(paired["lane_a"]),
            "lane_b": _slim_lane(paired["lane_b"]),
            "stream_identical": paired["stream_identical"],
            "windows": paired["windows"],
            "summary": paired["summary"],
        },
        "perf": {
            "resume_wall_s": round(resume_wall, 3),
            "straight_wall_s": round(straight_wall, 3),
            "ab_wall_s": round(ab_wall, 3),
            # One run's lookups over that run's own wall; the round
            # trip's wall also covers the checkpointed second run.
            "lookups_per_s": round(lookups / straight_wall, 1)
            if straight_wall > 0
            else 0.0,
            "peak_rss_kb": resource.getrusage(
                resource.RUSAGE_SELF
            ).ru_maxrss,
        },
    }


#: Smoke scenario: small and fast (a few seconds), but it still crosses
#: four shard fail/heal windows, several content-rotation epochs, and a
#: mid-horizon checkpoint, so the pinned counters cover every moving
#: part of the harness.
SMOKE_SPEC = ScenarioSpec(
    pages=6,
    horizon_hours=3.0,
    rate_per_hour=400.0,
    shards=4,
    shard_memory_bytes=128 * 1024,
    digest_filter_bits=8,
    shard_cycle_every_hours=1.0,
    shard_cycle_down_hours=0.25,
    shard_cycle_start_hours=0.5,
    rollup_hours=0.5,
)

#: Golden counters for :data:`SMOKE_SPEC` (asserted by ``--smoke``).
#: ``chain`` hashes every served hint set in arrival order, so any
#: change to workload draws, store behaviour, fault timing, resolver
#: output, or digest filtering lands here.
EXPECTED_SMOKE: Dict[str, object] = {
    "lookups": 1205,
    "hits": 1109,
    "stale_hits": 96,
    "misses": 0,
    "unavailable": 0,
    "failovers": 78,
    "shard_wipes": 3,
    "windows": 6,
    "digest_filtered_lookups": 1018,
    "chain": "24ba18bbabfcf12dba3cc4e42cca456eea15a61d",
}


def smoke_run() -> dict:
    """Run the pinned smoke scenario; return its benchmark payload."""
    return longrun_benchmark(SMOKE_SPEC)


def smoke_check(payload: dict) -> List[str]:
    """Mismatches between a smoke payload and the golden counters."""
    problems: List[str] = []
    report = payload["report"]
    totals = report["totals"]
    actuals: Dict[str, object] = {
        key: totals.get(key)
        for key in (
            "lookups",
            "hits",
            "stale_hits",
            "misses",
            "unavailable",
            "failovers",
            "shard_wipes",
        )
    }
    actuals["windows"] = len(report["rollups"])
    actuals["digest_filtered_lookups"] = report["digest"][
        "filtered_lookups"
    ]
    actuals["chain"] = report["chain"]
    for field, expected in EXPECTED_SMOKE.items():
        actual = actuals.get(field)
        if actual != expected:
            problems.append(
                f"{field}: expected {expected!r}, got {actual!r}"
            )
    if not payload["resume"]["match"]:
        problems.append(
            "checkpoint/resume fingerprint diverged from the straight "
            f"run ({payload['resume']['resumed_fingerprint']} != "
            f"{payload['resume']['straight_fingerprint']})"
        )
    if not payload["ab"]["stream_identical"]:
        problems.append("A/B lanes did not share the workload stream")
    if payload["ab"]["lane_b"]["totals"]["unavailable"] <= (
        payload["ab"]["lane_a"]["totals"]["unavailable"]
    ):
        problems.append(
            "replication=1 lane should see more unavailable lookups "
            "than replication=2 during the fail/heal cycle"
        )
    return problems
