"""Closed-loop measurement, output checks and the traced per-layer pass.

Each workload is a closed loop with one caller in one process: the next
operation starts only when the previous one returned.  The operation is
one page load on the load workloads and one hint lookup — the server
half of a Vroom page load — on the hint workloads, where the caller is
the :class:`LongRunner` streaming a scenario's arrivals.  Lookups are
too short to time one by one, so their wall is sampled per scheduler
period (see :func:`_run_in_slices`).  Every wall is scaled to the
reference host speed by the probes taken around it (:mod:`hostspeed`).

:func:`measure` gives the end-to-end metrics with tracing off;
:func:`trace` repeats one pass of the same work untraced, traced and
profiled, and gives the per-layer metrics.
"""

from __future__ import annotations

import cProfile
import gc
import json
import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from inputs import (
    DEFAULT_SEED,
    HINT_WORKLOADS,
    LOAD_WORKLOADS,
    build_load_inputs,
    hint_record,
    hint_spec,
    load_record,
    pass_digest,
    record_digest,
    run_load,
)
from hostspeed import SpeedProbe
from repro.longrun import LongRunner
from spans import PACKAGES, Tracer, package_shares

PINNED_PATH = Path(__file__).with_name("pinned.json")

#: Set-up runs at least this many times and for at least this long
#: before the timed loop; ``setup_s`` is the median (the hint workloads
#: add one more sample per scenario run).
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0
#: Host-speed probes taken after each set-up build.
SETUP_PROBES = 4

END_TO_END_UNITS: Dict[str, str] = {
    "setup_s": "s",
    "loads_per_s": "1/s",
    "load_wall_ms.p50": "ms",
    "load_wall_ms.p90": "ms",
    "lookups_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS: Dict[str, str] = {
    "pages.materialize.calls": "count",
    "pages.materialize.s": "s",
    "replay.record_snapshot.calls": "count",
    "replay.record_snapshot.s": "s",
    "core.vroom_servers.s": "s",
    "core.stable_set.calls": "count",
    "core.stable_set.s": "s",
    "core.cache_digest.s": "s",
    "core.digest_filtered_urls": "count",
    "browser.load_page.s": "s",
    "browser.wakeups": "count",
    "browser.failed_fetches": "count",
    "browser.retries": "count",
    "net.events_scheduled": "count",
    "net.events_cancelled": "count",
    "net.link_pokes": "count",
    "net.link_rate_recomputes": "count",
    "net.wf_fast_share": "ratio",
    "net.link_batch_steps": "count",
    "net.fast_path_share": "ratio",
    "scenario.build.s": "s",
    "service.process_lookup.calls": "count",
    "service.process_lookup_us.p50": "us",
    "service.process_lookup_us.p99": "us",
    "service.route_cache_hit_ratio": "ratio",
    "service.process_batch.calls": "count",
    "service.process_batch.s": "s",
    "service.inserts": "count",
    "service.evictions": "count",
    "service.scheduler.executed": "count",
    "service.scheduler.loads_spent": "count",
    "service.served_share": "ratio",
    "service.miss_share": "ratio",
    "service.unavailable": "count",
    "service.failovers": "count",
    "service.read_repairs": "count",
    "service.resident_bytes": "bytes",
    "longrun.self_s": "s",
    "longrun.windows": "count",
    "trace.overhead": "ratio",
    "profile.overhead": "ratio",
    **{f"{name}.self_share": "ratio" for name in PACKAGES + ("other",)},
}

#: Spans reported as ``<span>.s`` self time, and with ``.calls``.
_SPAN_SECONDS = (
    "pages.materialize",
    "replay.record_snapshot",
    "core.vroom_servers",
    "core.stable_set",
    "core.cache_digest",
    "browser.load_page",
    "scenario.build",
    "service.process_batch",
)
_SPAN_CALLS = (
    "pages.materialize",
    "replay.record_snapshot",
    "core.stable_set",
    "service.process_lookup",
    "service.process_batch",
)


@dataclass
class Outcome:
    """One run's result line plus what went into it."""

    attempted: int
    failed: int
    metrics: Dict[str, float]
    units: Dict[str, str]
    info: Dict[str, object] = field(default_factory=dict)
    checks: Dict[str, bool] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0

    def result_line(self) -> str:
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    name: {"value": self.metrics[name], "unit": unit}
                    for name, unit in self.units.items()
                },
            }
        )


def load_pins() -> dict:
    with open(PINNED_PATH) as handle:
        return json.load(handle)


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process (kilobytes on Linux) in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed(call: Callable):
    start = time.perf_counter()
    value = call()
    return time.perf_counter() - start, value


#: A timed stretch of the run: (clock at its start, wall).
Span = Tuple[float, float]


def _spanned(call: Callable):
    start = time.perf_counter()
    value = call()
    return (start, time.perf_counter() - start), value


def _as_measured(start: float, wall: float) -> float:
    return wall


def _setup_spans(build: Callable, probe: SpeedProbe):
    """Time ``build`` repeatedly; returns (spans, last value).

    The previous result is collected before each build, so no build
    pays for its predecessor's garbage and the discarded copies do not
    raise the peak RSS.  A few probes follow each build, so set-up is
    scaled by the host speed of its own seconds.
    """
    spans: List[Span] = []
    value = None
    while len(spans) < SETUP_REPEATS or (
        sum(wall for _, wall in spans) < SETUP_SECONDS
    ):
        value = None
        gc.collect()
        span, value = _spanned(build)
        spans.append(span)
        probe.probe(SETUP_PROBES)
    return spans, value


def _p90(samples: List[float]) -> float:
    if len(samples) < 2:
        return samples[0] if samples else 0.0
    return statistics.quantiles(samples, n=10)[8]


def _reference_records(workload: str, seed: int, smoke: bool):
    """Pinned outputs, when this seed and input size are pinned."""
    if seed != DEFAULT_SEED or smoke:
        return None
    return load_pins()[workload]


def _pinned_jobs(pins: Optional[dict], jobs: int) -> List[Optional[str]]:
    """Per-job pinned digests; a job the pins lack can never match."""
    if pins is None:
        return [None] * jobs
    return (pins["jobs"].split() + ["unpinned"] * jobs)[:jobs]


# -- load workloads --------------------------------------------------------


def measure_loads(
    workload: str, seed: int, seconds: float, pages: Optional[int] = None
) -> Outcome:
    probe = SpeedProbe()
    setup, inputs = _setup_spans(
        lambda: build_load_inputs(workload, seed, pages), probe
    )
    jobs = inputs.jobs
    expected = _pinned_jobs(
        _reference_records(workload, seed, pages is not None), len(jobs)
    )
    records: List[Optional[str]] = [None] * len(jobs)
    loads: List[Span] = []
    fetched = attempted = failed = 0
    clock = time.perf_counter
    start = clock()
    while attempted < len(jobs) or clock() - start < seconds:
        probe.maybe()
        index = attempted % len(jobs)
        attempted += 1
        began = clock()
        try:
            metrics = run_load(inputs, jobs[index])
        except Exception:
            traceback.print_exc(file=sys.stderr)
            failed += 1
            continue
        loads.append((began, clock() - began))
        fetched += len(metrics.timelines)
        record = load_record(metrics)
        if records[index] is None:
            records[index] = record
        digest = record_digest(record)
        if expected[index] is None:
            expected[index] = digest
        elif expected[index] != digest:
            failed += 1
    probe.probe(SETUP_PROBES)
    info = _load_info(inputs)
    info.update(
        {
            "host_speed": probe.info(),
            "as_measured": _load_metrics(_as_measured, setup, loads, fetched),
            "timed_s": clock() - start,
            "load_samples": len(loads),
            "passes": attempted / len(jobs),
            "resources_fetched": fetched,
            "setup_samples": len(setup),
            "digest": (
                pass_digest(records) if None not in records else None
            ),
        }
    )
    return Outcome(
        attempted, failed, _load_metrics(probe.scaled, setup, loads, fetched),
        END_TO_END_UNITS, info,
    )


def _load_metrics(
    scale: Callable, setup: List[Span], loads: List[Span], fetched: int
) -> Dict[str, float]:
    """End-to-end metrics of a load workload from walls ``scale``d."""
    walls = [scale(*span) for span in loads]
    busy = sum(walls)
    return {
        "setup_s": statistics.median(scale(*span) for span in setup),
        "loads_per_s": len(walls) / busy if busy else 0.0,
        "load_wall_ms.p50": statistics.median(walls) * 1e3 if walls else 0.0,
        "load_wall_ms.p90": _p90(walls) * 1e3,
        "lookups_per_s": fetched / busy if busy else 0.0,
        "peak_rss_mb": peak_rss_mb(),
    }


def _load_info(inputs) -> dict:
    configs = sorted({job[1] for job in inputs.jobs})
    profiles = sorted({job[2] or "lte" for job in inputs.jobs})
    return {
        "workload": inputs.workload,
        "seed": inputs.seed,
        "pages": len(inputs.pages),
        "configs": configs,
        "profiles": profiles,
        "jobs_per_pass": len(inputs.jobs),
    }


def _load_pass(workload: str, seed: int, pages: Optional[int]):
    """Set up and load every job once; failed loads give ``None``."""
    inputs = build_load_inputs(workload, seed, pages)
    results = []
    for job in inputs.jobs:
        try:
            results.append(run_load(inputs, job))
        except Exception:
            traceback.print_exc(file=sys.stderr)
            results.append(None)
    return inputs, results


def trace_loads(
    workload: str, seed: int, pages: Optional[int] = None
) -> Outcome:
    run = lambda: _load_pass(workload, seed, pages)  # noqa: E731
    untraced_wall, (inputs, plain) = _timed(run)
    tracer = Tracer()
    with tracer:
        traced_wall, (_, traced) = _timed(run)
    profiler = cProfile.Profile()
    profiled_wall, (_, profiled) = _timed(lambda: profiler.runcall(run))

    pinned = _pinned_jobs(
        _reference_records(workload, seed, pages is not None),
        len(inputs.jobs),
    )
    passes = (plain, traced, profiled)
    attempted = failed = 0
    for index in range(len(inputs.jobs)):
        digests = [
            record_digest(load_record(m)) if m is not None else None
            for m in (result[index] for result in passes)
        ]
        reference = pinned[index] or digests[0]
        attempted += len(digests)
        failed += sum(
            1 for digest in digests if digest is None or digest != reference
        )

    done = [m for m in traced if m is not None]
    counters: Dict[str, int] = {}
    for m in done:
        for key, value in m.engine_counters.items():
            counters[key] = counters.get(key, 0) + value
    values = _span_values(tracer)
    values.update(_share_values(profiler, untraced_wall, traced_wall, profiled_wall))
    pokes = counters.get("link_pokes", 0)
    fast = counters.get("link_wf_fast_hits", 0)
    solved = fast + counters.get("link_rate_recomputes", 0)
    values.update(
        {
            "browser.wakeups": counters.get("browser_wakeups", 0),
            "browser.failed_fetches": sum(m.failed_fetches for m in done),
            "browser.retries": sum(m.retries for m in done),
            "net.events_scheduled": counters.get("events_scheduled", 0),
            "net.events_cancelled": counters.get("events_cancelled", 0),
            "net.link_pokes": pokes,
            "net.link_rate_recomputes": counters.get(
                "link_rate_recomputes", 0
            ),
            "net.wf_fast_share": fast / solved if solved else 0.0,
            "net.link_batch_steps": counters.get("link_batch_steps", 0),
            "net.fast_path_share": (
                counters.get("link_fast_forward_steps", 0) / pokes
                if pokes
                else 0.0
            ),
        }
    )
    outcome = Outcome(
        attempted, failed, _per_layer(values), PER_LAYER_UNITS,
        _load_info(inputs),
    )
    shares = {name: values[f"{name}.self_share"] for name in PACKAGES}
    outcome.checks = {
        "net.self_share is the largest package share": max(
            shares, key=shares.get
        ) == "net",
    }
    return outcome


# -- hint workloads --------------------------------------------------------


#: One scheduler period of a hint run: (clock at its start, wall, lookups).
Slice = Tuple[float, float, int]


def _run_in_slices(runner: LongRunner, slices: List[Slice], probe: SpeedProbe):
    """Run to the horizon one scheduler period at a time.

    ``run_to`` resumes exactly where it stopped, so the slices replay the
    straight run event for event.  Each slice — its arrivals plus the
    scheduler tick that closes it — is appended to ``slices`` with the
    lookups it served.  Probes run between slices, outside their walls.
    """
    spec = runner.spec
    counters = runner.service.store.counters
    periods = math.ceil(spec.horizon_hours / spec.batch_period_hours)
    clock = time.perf_counter
    served = 0
    for index in range(1, periods + 1):
        began = clock()
        runner.run_to(min(index * spec.batch_period_hours, spec.horizon_hours))
        slices.append((began, clock() - began, counters.lookups - served))
        served = counters.lookups
        probe.maybe()


def measure_hint(
    workload: str,
    seed: int,
    seconds: float,
    horizon_hours: Optional[float] = None,
) -> Outcome:
    build = lambda: LongRunner(  # noqa: E731
        hint_spec(workload, seed, horizon_hours)
    )
    probe = SpeedProbe()
    setup, _ = _setup_spans(build, probe)
    pins = _reference_records(workload, seed, horizon_hours is not None)
    expected = pins["record"] if pins else None
    slices: List[Slice] = []
    overhead: List[Span] = []
    hours_per_s: List[float] = []
    lookups = attempted = failed = runs = 0
    clock = time.perf_counter
    start = clock()
    while runs == 0 or clock() - start < seconds:
        runs += 1
        span, runner = _spanned(build)
        setup.append(span)
        overhead.append(span)
        probe.maybe()
        spec = runner.spec
        first = len(slices)
        try:
            _run_in_slices(runner, slices, probe)
            span, report = _spanned(runner.report)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            attempted += spec.lookups_estimate()
            failed += spec.lookups_estimate()
            del slices[first:]
            continue
        overhead.append(span)
        served = report["totals"]["lookups"]
        attempted += served
        lookups += served
        hours_per_s.append(
            spec.horizon_hours / sum(wall for _, wall, _ in slices[first:])
        )
        record = hint_record(report)
        if expected is None:
            expected = record
        elif record != expected:
            failed += served
        # A finished runner is cyclic garbage; free it now so the peak
        # RSS does not depend on when the collector happens to run.
        del runner, report
        gc.collect()
    probe.probe(SETUP_PROBES)
    info = _hint_info(spec)
    info.update(
        {
            "host_speed": probe.info(),
            "as_measured": _hint_metrics(
                _as_measured, setup, slices, overhead, lookups
            ),
            "timed_s": clock() - start,
            "runs": runs,
            "slice_samples": sum(1 for _, _, n in slices if n),
            "setup_samples": len(setup),
            "sim_hours_per_s": (
                statistics.median(hours_per_s) if hours_per_s else 0.0
            ),
            "digest": expected,
        }
    )
    return Outcome(
        attempted, failed,
        _hint_metrics(probe.scaled, setup, slices, overhead, lookups),
        END_TO_END_UNITS, info,
    )


def _hint_metrics(
    scale: Callable,
    setup: List[Span],
    slices: List[Slice],
    overhead: List[Span],
    lookups: int,
) -> Dict[str, float]:
    """End-to-end metrics of a hint workload from walls ``scale``d.

    ``lookups_per_s`` divides by the runs' own walls, the sum of their
    slices; ``loads_per_s`` also counts each run's build and report.
    """
    per_lookup = [scale(at, wall) / n for at, wall, n in slices if n]
    running = sum(scale(at, wall) for at, wall, _ in slices)
    around = sum(scale(*span) for span in overhead)
    return {
        "setup_s": statistics.median(scale(*span) for span in setup),
        "loads_per_s": lookups / (running + around) if running else 0.0,
        "load_wall_ms.p50": (
            statistics.median(per_lookup) * 1e3 if per_lookup else 0.0
        ),
        "load_wall_ms.p90": _p90(per_lookup) * 1e3,
        "lookups_per_s": lookups / running if running else 0.0,
        "peak_rss_mb": peak_rss_mb(),
    }


def _hint_info(spec) -> dict:
    return {
        "pages": spec.pages,
        "horizon_hours": spec.horizon_hours,
        "rate_per_hour": spec.rate_per_hour,
        "spec_fingerprint": spec.fingerprint(),
        "seed": spec.workload_seed,
        "spec": spec.as_dict(),
    }


def _hint_run(workload: str, seed: int, horizon_hours: Optional[float]):
    runner = LongRunner(hint_spec(workload, seed, horizon_hours))
    try:
        runner.run_to(runner.spec.horizon_hours)
        return runner, runner.report()
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return runner, None


def trace_hint(
    workload: str, seed: int, horizon_hours: Optional[float] = None
) -> Outcome:
    run = lambda: _hint_run(workload, seed, horizon_hours)  # noqa: E731
    untraced_wall, (runner, plain) = _timed(run)
    tracer = Tracer()
    with tracer:
        traced_wall, (traced_runner, traced) = _timed(run)
    profiler = cProfile.Profile()
    profiled_wall, (_, profiled) = _timed(lambda: profiler.runcall(run))

    pins = _reference_records(workload, seed, horizon_hours is not None)
    records = [
        hint_record(report) if report is not None else None
        for report in (plain, traced, profiled)
    ]
    reference = pins["record"] if pins else records[0]
    estimate = runner.spec.lookups_estimate()
    attempted = failed = 0
    for report, record in zip((plain, traced, profiled), records):
        served = report["totals"]["lookups"] if report else estimate
        attempted += served
        if record is None or record != reference:
            failed += served

    values = _span_values(tracer)
    values.update(_share_values(profiler, untraced_wall, traced_wall, profiled_wall))
    lookup_samples = tracer.samples["service.process_lookup"]
    if traced is not None:
        totals = traced["totals"]
        scheduler = traced["scheduler"]
        store = traced_runner.service.store
        routed = store.route_cache_hits + store.route_cache_misses
        count = totals["lookups"]
        values.update(
            {
                "core.digest_filtered_urls": traced["digest"]["filtered_urls"],
                "service.process_lookup_us.p50": (
                    statistics.median(lookup_samples) * 1e6
                ),
                "service.process_lookup_us.p99": (
                    statistics.quantiles(lookup_samples, n=100)[98] * 1e6
                ),
                "service.route_cache_hit_ratio": (
                    store.route_cache_hits / routed if routed else 0.0
                ),
                "service.inserts": totals["inserts"],
                "service.evictions": totals["evictions"],
                "service.scheduler.executed": scheduler["executed"],
                "service.scheduler.loads_spent": scheduler["loads_spent"],
                "service.served_share": (
                    (totals["hits"] + totals["stale_hits"]) / count
                ),
                "service.miss_share": (
                    (totals["misses"] + totals["expired"]) / count
                ),
                "service.unavailable": totals["unavailable"],
                "service.failovers": totals["failovers"],
                "service.read_repairs": totals["read_repairs"],
                "service.resident_bytes": totals["resident_bytes"],
                "longrun.self_s": tracer.self_s["longrun.run_to"],
                "longrun.windows": len(traced["rollups"]),
            }
        )
    outcome = Outcome(
        attempted, failed, _per_layer(values), PER_LAYER_UNITS,
        _hint_info(runner.spec),
    )
    spans = tracer.self_s
    outcome.checks = {"net.self_share is about 0": values["net.self_share"] < 0.01}
    if workload == "hint-fleet":
        outcome.checks["core.cache_digest.s is over half the wall"] = (
            values["core.cache_digest.s"] > 0.5 * traced_wall
        )
    else:
        outcome.checks["core.cache_digest.s is 0"] = (
            values["core.cache_digest.s"] == 0
        )
        outcome.checks["pages.materialize.s is the largest span"] = (
            max(spans, key=spans.get) == "pages.materialize"
        )
    return outcome


# -- shared ----------------------------------------------------------------


def _span_values(tracer: Tracer) -> Dict[str, float]:
    values: Dict[str, float] = {}
    for name in _SPAN_SECONDS:
        values[f"{name}.s"] = tracer.self_s[name]
    for name in _SPAN_CALLS:
        values[f"{name}.calls"] = tracer.calls[name]
    return values


def _share_values(
    profiler, untraced: float, traced: float, profiled: float
) -> Dict[str, float]:
    values = {
        f"{name}.self_share": share
        for name, share in package_shares(profiler).items()
    }
    values["trace.overhead"] = traced / untraced
    values["profile.overhead"] = profiled / untraced
    return values


def _per_layer(values: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric; a layer the workload never reaches reads 0."""
    return {name: values.get(name, 0) for name in PER_LAYER_UNITS}


def measure(workload: str, seed: int, seconds: float) -> Outcome:
    if workload in LOAD_WORKLOADS:
        return measure_loads(workload, seed, seconds)
    if workload in HINT_WORKLOADS:
        return measure_hint(workload, seed, seconds)
    raise ValueError(f"unknown workload {workload!r}")


def trace(workload: str, seed: int) -> Outcome:
    if workload in LOAD_WORKLOADS:
        return trace_loads(workload, seed)
    if workload in HINT_WORKLOADS:
        return trace_hint(workload, seed)
    raise ValueError(f"unknown workload {workload!r}")


def pin_records() -> dict:
    """Fresh pinned outputs for every workload at :data:`DEFAULT_SEED`."""
    pins: Dict[str, dict] = {"seed": DEFAULT_SEED}
    for workload in LOAD_WORKLOADS:
        _, results = _load_pass(workload, DEFAULT_SEED, None)
        records = [load_record(m) for m in results]
        pins[workload] = {
            "digest": pass_digest(records),
            "jobs": " ".join(record_digest(record) for record in records),
        }
    for workload in HINT_WORKLOADS:
        _, report = _hint_run(workload, DEFAULT_SEED, None)
        pins[workload] = {"record": hint_record(report)}
    return pins
