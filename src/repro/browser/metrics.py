"""Load metrics: PLT, above-the-fold time, Speed Index, critical path.

The paper reports page load time (navigation start to ``onload``),
above-the-fold time (last render of content visible without scrolling) and
Speed Index (how quickly visible content converges), plus the fraction of
the load's critical path spent waiting on the network (Fig 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.pages.resources import Priority, Resource


@dataclass
class ResourceTimeline:
    """Per-resource event times within one page load (seconds from start)."""

    url: str
    #: The snapshot's resource, compared by ``url`` alone: comparing the
    #: tree would walk its parent and child links, and two copies of one
    #: snapshot (a worker's and the parent's) hold equal loads.
    resource: Optional[Resource] = field(default=None, compare=False)
    size: int = 0
    priority: Optional[Priority] = None
    discovered_at: Optional[float] = None
    discovered_via: str = ""
    #: The resource whose processing/arrival revealed this one (None=root).
    discovered_from: Optional[str] = None
    fetch_started_at: Optional[float] = None
    headers_at: Optional[float] = None
    fetched_at: Optional[float] = None
    processed_at: Optional[float] = None
    rendered_at: Optional[float] = None
    from_cache: bool = False
    pushed: bool = False
    #: At least one fetch of this URL failed terminally (all retries
    #: exhausted).  A later refetch may still succeed — ``fetched_at``
    #: records the recovery if so.
    failed: bool = False
    #: True when the page actually references this URL (false for
    #: extraneous hint fetches — server false positives).
    referenced: bool = True

    @property
    def completion_at(self) -> Optional[float]:
        times = [
            value
            for value in (self.fetched_at, self.processed_at, self.rendered_at)
            if value is not None
        ]
        return max(times) if times else None


@dataclass
class LoadMetrics:
    """Aggregate outcome of one simulated page load."""

    page: str
    plt: float
    aft: float
    speed_index: float
    onload_at: float
    cpu_busy_time: float
    bytes_fetched: float
    wasted_bytes: float
    #: Seconds the access link spent delivering bytes during the load.
    link_busy_time: float = 0.0
    #: Downlink capacity of the access link (bits per second).
    link_capacity_bps: float = 0.0
    #: Resilience counters (all zero on a fault-free load): request
    #: re-dispatches, per-attempt deadline expiries, mid-body connection
    #: drops, injected 5xx responses, terminal fetch failures, and bytes
    #: delivered for attempts that ultimately failed.
    retries: int = 0
    timeouts: int = 0
    connection_drops: int = 0
    error_responses: int = 0
    failed_fetches: int = 0
    fault_wasted_bytes: float = 0.0
    timelines: Dict[str, ResourceTimeline] = field(default_factory=dict)
    critical_path: List["CriticalHop"] = field(default_factory=list)
    #: Optional (time, cpu_busy, active_streams) samples; populated when
    #: ``BrowserConfig.sample_interval`` is positive.
    utilization_trace: List[Tuple[float, bool, int]] = field(
        default_factory=list
    )
    #: Deterministic engine perf counters (heap events scheduled/executed/
    #: cancelled, link pokes, fast-forward steps, rate recomputes).
    #: Excluded from equality: the fast-forward and event-per-tick engines
    #: produce identical *results* but intentionally different counters,
    #: and the equivalence suite compares metrics with ``==``.
    engine_counters: Dict[str, int] = field(default_factory=dict, compare=False)

    @property
    def network_wait_fraction(self) -> float:
        """Share of the critical path spent waiting for the network."""
        total = sum(hop.duration for hop in self.critical_path)
        if total <= 0:
            return 0.0
        network = sum(
            hop.duration for hop in self.critical_path if hop.kind == "network"
        )
        return network / total

    @property
    def cpu_utilization(self) -> float:
        """Fraction of the load the renderer CPU spent busy."""
        if self.plt <= 0:
            return 0.0
        return min(1.0, self.cpu_busy_time / self.plt)

    @property
    def link_active_fraction(self) -> float:
        """Fraction of the load with at least one stream receiving."""
        if self.plt <= 0:
            return 0.0
        return min(1.0, self.link_busy_time / self.plt)

    @property
    def link_utilization(self) -> float:
        """Delivered throughput as a fraction of downlink capacity."""
        if self.plt <= 0 or self.link_capacity_bps <= 0:
            return 0.0
        achieved = self.bytes_fetched * 8.0 / self.plt
        return min(1.0, achieved / self.link_capacity_bps)

    def referenced_timelines(self) -> List[ResourceTimeline]:
        return [
            timeline
            for timeline in self.timelines.values()
            if timeline.referenced
        ]

    def discovery_complete_at(self, high_priority_only: bool = False) -> float:
        """When the client knew about every (high-priority) resource."""
        times = [
            timeline.discovered_at
            for timeline in self.referenced_timelines()
            if timeline.discovered_at is not None
            and (
                not high_priority_only
                or timeline.priority is Priority.PRELOAD
            )
        ]
        return max(times) if times else 0.0

    def fetch_complete_at(self, high_priority_only: bool = False) -> float:
        """When the client finished downloading every such resource."""
        times = [
            timeline.fetched_at
            for timeline in self.referenced_timelines()
            if timeline.fetched_at is not None
            and (
                not high_priority_only
                or timeline.priority is Priority.PRELOAD
            )
        ]
        return max(times) if times else 0.0


@dataclass
class CriticalHop:
    """One segment of the reconstructed critical path."""

    url: str
    kind: str  # "network" | "cpu"
    start: float
    end: float

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)


def reconstruct_critical_path(
    timelines: Dict[str, ResourceTimeline], onload_at: float
) -> List[CriticalHop]:
    """Walk back from the last-finishing resource through discovery causes.

    Each hop on the chain is split into a network interval (fetch start to
    last byte) and CPU/queue intervals (everything else between the causal
    events).  The approximation matches how WProf-style analyses attribute
    critical-path time.
    """
    finished = [
        timeline
        for timeline in timelines.values()
        if timeline.referenced and timeline.completion_at is not None
    ]
    if not finished:
        return []
    current: Optional[ResourceTimeline] = max(
        finished, key=lambda timeline: timeline.completion_at or 0.0
    )
    hops: List[CriticalHop] = []
    guard = 0
    while current is not None and guard < 10_000:
        guard += 1
        completion = current.completion_at or 0.0
        fetch_start = (
            current.fetch_started_at
            if current.fetch_started_at is not None
            else completion
        )
        fetched = current.fetched_at if current.fetched_at is not None else completion
        if completion > fetched:
            hops.append(CriticalHop(current.url, "cpu", fetched, completion))
        if fetched > fetch_start:
            hops.append(
                CriticalHop(current.url, "network", fetch_start, fetched)
            )
        discovered = (
            current.discovered_at
            if current.discovered_at is not None
            else fetch_start
        )
        if fetch_start > discovered:
            hops.append(
                CriticalHop(current.url, "cpu", discovered, fetch_start)
            )
        parent_url = current.discovered_from
        parent = timelines.get(parent_url) if parent_url else None
        if parent is None:
            if discovered > 0:
                hops.append(CriticalHop(current.url, "cpu", 0.0, discovered))
            break
        anchor = parent.completion_at or 0.0
        anchor = min(anchor, discovered)
        if discovered > anchor:
            hops.append(CriticalHop(current.url, "cpu", anchor, discovered))
        current = parent
    hops.reverse()
    return hops


def speed_index(
    render_events: List[Tuple[float, float]], horizon: float
) -> float:
    """Speed Index in milliseconds.

    ``render_events`` are (time, pixel_weight) pairs for above-the-fold
    content becoming visible; ``horizon`` is the time by which the viewport
    is final (the AFT).  SI integrates (1 - visual completeness) over time.
    """
    total_weight = sum(weight for _, weight in render_events)
    if total_weight <= 0 or horizon <= 0:
        return horizon * 1000.0
    events = sorted(render_events)
    area = 0.0
    completeness = 0.0
    last_time = 0.0
    for time, weight in events:
        time = min(time, horizon)
        area += (1.0 - completeness) * (time - last_time)
        completeness += weight / total_weight
        last_time = time
    area += (1.0 - min(1.0, completeness)) * max(0.0, horizon - last_time)
    return area * 1000.0
