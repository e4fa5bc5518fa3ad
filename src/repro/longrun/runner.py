"""Long-horizon streaming runner: days of service time, constant memory.

:class:`LongRunner` drives a :class:`~repro.service.backend.HintService`
through the workload a :class:`~repro.scenario.spec.ScenarioSpec`
describes — Zipf×Poisson lookups, periodic offline-resolution ticks,
shards failing and healing on the spec's cycle, content rotating under
the store per the corpus churn model.  The service owns the event loop
(:meth:`HintService.run_to`); the runner advances it one rollup window
at a time and keeps only what is its own.  Three disciplines make
horizons of simulated days (millions of lookups) tractable:

**Streaming generation.**  The service draws arrivals one at a time
from its :class:`repro.service.workload.Workload`, so the stream is a
pure function of the workload seed and at most one generated-but-
unprocessed lookup exists at any moment.

**Constant-memory aggregation.**  Per-lookup records are never kept.
A :class:`RollupAggregator` folds each lookup into the current rollup
window (fixed-bucket :class:`LatencyHistogram` + Welford running stats)
and emits one row per window; state is O(horizon / rollup_hours).
The service trims its per-page resolver memo tables after every tick —
they are keyed by resolution hour and would otherwise grow forever for
zero hit-rate benefit.

**Checkpoint/resume.**  The runner's whole state (service, workload
stream, clock, pending lookahead, aggregator, digests, fingerprint
chain) pickles into a self-verifying checkpoint.  Resuming and running
to the horizon is bit-identical to the uninterrupted run: the final
report fingerprint matches exactly, and :func:`checkpoint_roundtrip`
asserts it under ``REPRO_AUDIT=1``.

The served-hint stream is fingerprinted as a *hex-string* sha1 chain —
``chain = sha1(chain + record)`` per lookup — rather than a live hash
object, because hashlib objects do not pickle and the chain must ride
through checkpoints.
"""

from __future__ import annotations

import hashlib
import json
import math
import pickle
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro import audit
from repro.core.cache_digest import CacheDigest, filter_pushes
from repro.scenario.spec import ScenarioSpec
from repro.service.backend import HintService
from repro.service.placement import FleetLookup
from repro.service.store import LatencyHistogram, LookupStatus
from repro.service.workload import Lookup

#: Version 2: the arrival stream and lookahead live in the service.
CHECKPOINT_VERSION = 2


@dataclass
class RunningStats:
    """Welford-style running mean/variance — O(1) per sample."""

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0
    min_value: float = math.inf
    max_value: float = -math.inf

    def add(self, value: float) -> None:
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (value - self.mean)
        if value < self.min_value:
            self.min_value = value
        if value > self.max_value:
            self.max_value = value

    @property
    def variance(self) -> float:
        return self.m2 / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "mean": round(self.mean, 6),
            "std": round(math.sqrt(self.variance), 6),
            "min": round(self.min_value, 6) if self.count else 0.0,
            "max": round(self.max_value, 6) if self.count else 0.0,
        }


class RollupAggregator:
    """Folds per-lookup outcomes into per-window rollup rows.

    One row per simulated rollup window; the open window holds a
    fixed-bucket histogram and a handful of counters, so memory never
    scales with the lookup count.
    """

    def __init__(self, window_hours: float):
        self.window_hours = window_hours
        self.rows: List[dict] = []
        self.overall = RunningStats()
        self._window = self._fresh_window()
        self._prev: Dict[str, float] = {}

    @staticmethod
    def _fresh_window() -> dict:
        return {
            "lookups": 0,
            "hits": 0,
            "stale_hits": 0,
            "cold": 0,
            "unavailable": 0,
            "digest_lookups": 0,
            "digest_filtered_urls": 0,
            "hist": LatencyHistogram(),
            "stats": RunningStats(),
        }

    def record(
        self,
        status: LookupStatus,
        latency_ms: float,
        *,
        unavailable: bool,
        digest_used: bool,
        filtered_urls: int,
    ) -> None:
        window = self._window
        window["lookups"] += 1
        if status is LookupStatus.HIT:
            window["hits"] += 1
        elif status is LookupStatus.STALE_HIT:
            window["stale_hits"] += 1
        else:
            window["cold"] += 1
        if unavailable:
            window["unavailable"] += 1
        if digest_used:
            window["digest_lookups"] += 1
            window["digest_filtered_urls"] += filtered_urls
        window["hist"].record(latency_ms)
        window["stats"].add(latency_ms)
        self.overall.add(latency_ms)

    def close_window(
        self,
        begin_hours: float,
        end_hours: float,
        snapshot: Dict[str, float],
        down_shards: List[int],
    ) -> None:
        """Emit the open window's row; ``snapshot`` drives the deltas."""
        window = self._window
        summary = window["hist"].summary()
        served = window["hits"] + window["stale_hits"]
        row = {
            "window": len(self.rows),
            "begin_hours": round(begin_hours, 6),
            "end_hours": round(end_hours, 6),
            "lookups": window["lookups"],
            "served": served,
            "served_rate": (
                round(served / window["lookups"], 6)
                if window["lookups"]
                else 0.0
            ),
            "hits": window["hits"],
            "stale_hits": window["stale_hits"],
            "cold": window["cold"],
            "unavailable": window["unavailable"],
            "digest_lookups": window["digest_lookups"],
            "digest_filtered_urls": window["digest_filtered_urls"],
            "mean_ms": round(window["stats"].mean, 6),
            "p50_ms": summary["p50_ms"],
            "p99_ms": summary["p99_ms"],
            "down_shards": list(down_shards),
        }
        for key in sorted(snapshot):
            row[f"{key}_delta"] = snapshot[key] - self._prev.get(key, 0)
        self._prev = dict(snapshot)
        self.rows.append(row)
        self._window = self._fresh_window()


class LongRunner:
    """Streaming continuous-operation driver for one scenario.

    ``run_to(t)`` advances the simulation to run-relative hour ``t``
    (events are processed in time order, resumable at any boundary);
    ``report()`` is valid once the horizon is reached.  The runner is
    picklable at any pause point — see :meth:`to_checkpoint_bytes`.
    """

    def __init__(self, spec: ScenarioSpec):
        self.spec = spec
        self.pages = spec.build_pages()
        self.service = HintService(self.pages, spec.service_config())
        self._windows_closed = 0
        self._finished = False
        #: Run-relative hours advanced so far.
        self.clock = 0.0
        self.agg = RollupAggregator(spec.rollup_hours)
        #: Hex sha1 chain over every served lookup, seeded with the
        #: spec fingerprint so two scenarios can never share a chain.
        self.chain = spec.fingerprint()
        #: (user, page_index) -> digest of that visit's served hints;
        #: bounded by user_pool × pages, not by the horizon.
        self._digests: Dict[Tuple[str, int], CacheDigest] = {}
        self.digest_lookups = 0
        self.digest_filtered_urls = 0

    # -- the per-lookup callback ------------------------------------------

    # repro: hotpath
    def _process_arrival(
        self, lookup: Lookup, result: FleetLookup, latency_ms: float
    ) -> None:
        spec = self.spec
        entry, status = result.entry, result.status
        served = status in (LookupStatus.HIT, LookupStatus.STALE_HIT)
        urls: List[str] = []
        if served and entry is not None:
            urls = sorted(entry.payload.get("urls", []))
        filtered = urls
        digest_used = False
        if spec.digest_filter_bits and served:
            key = (lookup.user, lookup.page_index)
            digest = self._digests.get(key)
            if digest is not None:
                digest_used = True
                filtered = filter_pushes(urls, digest)
                self.digest_lookups += 1
                self.digest_filtered_urls += len(urls) - len(filtered)
            if urls and (digest is None or not digest.summarises(urls)):
                # This visit's served hints become the next visit's
                # digest: the warm-client repeat-visit model.  A held
                # digest that summarises them stays, since a rebuild
                # would be identical.
                # repro: allow[PERF405] CacheDigest cannot take __slots__
                # while its pickled fields are pinned as an instance dict.
                self._digests[key] = CacheDigest(
                    urls, bits_per_entry=spec.digest_filter_bits
                )
        record = (
            f"{lookup.seq}|{status.value if served else 'cold'}|"
            f"{','.join(filtered)}"
        )
        self.chain = hashlib.sha1(
            (self.chain + "\n" + record).encode()
        ).hexdigest()
        self.agg.record(
            status,
            latency_ms,
            unavailable=result.unavailable,
            digest_used=digest_used,
            filtered_urls=len(urls) - len(filtered),
        )

    def _counter_snapshot(self) -> Dict[str, float]:
        totals = self.service.store.totals()
        counters = self.service.scheduler.counters
        return {
            "evictions": totals["evictions"],
            "inserts": totals["inserts"],
            "failovers": totals["failovers"],
            "entries_lost": totals["entries_lost"],
            "executed": counters.executed,
            "loads_spent": counters.loads_spent,
        }

    def _close_window(self, end_hours: float) -> None:
        begin = self._windows_closed * self.spec.rollup_hours
        self.agg.close_window(
            begin,
            end_hours,
            self._counter_snapshot(),
            sorted(self.service.store.down),
        )
        self._windows_closed += 1

    # -- the loop ---------------------------------------------------------

    def run_to(self, until_hours: float) -> "LongRunner":
        """Advance to run-relative hour ``until_hours`` (clamped)."""
        spec = self.spec
        horizon = spec.horizon_hours
        until = min(until_hours, horizon)
        if until < self.clock:
            raise ValueError(
                f"cannot run backwards: at {self.clock}h, asked {until}h"
            )
        while True:
            boundary = (self._windows_closed + 1) * spec.rollup_hours
            if boundary > until:
                break
            # Events at the boundary belong to the next window: serve
            # up to the last float before it, then close the window.
            self.service.run_to(
                math.nextafter(boundary, -math.inf), self._process_arrival
            )
            self._close_window(boundary)
        self.service.run_to(until, self._process_arrival)
        self.clock = until
        if until >= horizon and not self._finished:
            # Close the final (possibly partial) window.
            if self._windows_closed * spec.rollup_hours < horizon:
                self._close_window(horizon)
            self._finished = True
        return self

    # -- results ----------------------------------------------------------

    def report(self) -> dict:
        """The run's constant-size report; requires the horizon reached."""
        if not self._finished:
            raise RuntimeError(
                f"report requested at {self.clock}h before the "
                f"{self.spec.horizon_hours}h horizon"
            )
        service_report = self.service.report().as_dict()
        out = {
            "spec": self.spec.as_dict(),
            "spec_fingerprint": self.spec.fingerprint(),
            "horizon_hours": self.spec.horizon_hours,
            "chain": self.chain,
            "totals": service_report["totals"],
            "latency": service_report["latency"],
            "overall_latency": self.agg.overall.as_dict(),
            "scheduler": service_report["scheduler"],
            "placement": service_report["placement"],
            "tenants": service_report["tenants"],
            "warmup_hit_rate": service_report["warmup_hit_rate"],
            "digest": {
                "bits_per_entry": self.spec.digest_filter_bits,
                "filtered_lookups": self.digest_lookups,
                "filtered_urls": self.digest_filtered_urls,
            },
            "rollups": self.agg.rows,
        }
        out["fingerprint"] = report_fingerprint(out)
        return out

    # -- checkpoint / resume ----------------------------------------------

    def to_checkpoint_bytes(self) -> bytes:
        """Serialise the runner; self-verifying and resume-exact."""
        state = pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)
        return pickle.dumps(
            {
                "version": CHECKPOINT_VERSION,
                "spec_fingerprint": self.spec.fingerprint(),
                "clock_hours": self.clock,
                "state_sha256": hashlib.sha256(state).hexdigest(),
                "state": state,
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )

    @classmethod
    def from_checkpoint_bytes(cls, data: bytes) -> "LongRunner":
        envelope = pickle.loads(data)
        if envelope.get("version") != CHECKPOINT_VERSION:
            raise ValueError(
                f"unsupported checkpoint version {envelope.get('version')!r}"
            )
        state = envelope["state"]
        if hashlib.sha256(state).hexdigest() != envelope["state_sha256"]:
            raise ValueError("checkpoint state digest mismatch")
        runner = pickle.loads(state)
        if not isinstance(runner, cls):
            raise ValueError("checkpoint does not hold a LongRunner")
        if runner.spec.fingerprint() != envelope["spec_fingerprint"]:
            raise ValueError("checkpoint spec fingerprint mismatch")
        if audit.ENABLED:
            audit.require(
                runner.clock == envelope["clock_hours"],
                "longrun-checkpoint",
                "restored clock disagrees with the envelope",
            )
        return runner

    def save_checkpoint(self, path: str) -> None:
        with open(path, "wb") as handle:
            handle.write(self.to_checkpoint_bytes())

    @classmethod
    def load_checkpoint(cls, path: str) -> "LongRunner":
        with open(path, "rb") as handle:
            return cls.from_checkpoint_bytes(handle.read())


def report_fingerprint(payload: dict) -> str:
    """sha256 over the canonical JSON form of a report."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def run_scenario(spec: ScenarioSpec) -> dict:
    """Run a scenario straight through and return its report."""
    return LongRunner(spec).run_to(spec.horizon_hours).report()


def checkpoint_roundtrip(
    spec: ScenarioSpec, checkpoint_at_hours: Optional[float] = None
) -> dict:
    """Prove resume ≡ straight-through for one scenario.

    Runs the scenario uninterrupted, then again with a checkpoint/
    serialise/restore cycle at ``checkpoint_at_hours`` (default: half
    the horizon), and compares the final report fingerprints.  Under
    ``REPRO_AUDIT=1`` a mismatch raises instead of merely reporting.
    ``straight_wall_s`` is the wall time of the uninterrupted run alone,
    the divisor for a per-run throughput.
    """
    at = (
        checkpoint_at_hours
        if checkpoint_at_hours is not None
        else spec.horizon_hours / 2.0
    )
    started = time.perf_counter()
    straight = run_scenario(spec)
    straight_wall = time.perf_counter() - started
    first = LongRunner(spec).run_to(at)
    blob = first.to_checkpoint_bytes()
    resumed = LongRunner.from_checkpoint_bytes(blob)
    resumed_report = resumed.run_to(spec.horizon_hours).report()
    match = resumed_report["fingerprint"] == straight["fingerprint"]
    if audit.ENABLED:
        audit.require(
            match,
            "longrun-resume",
            "resumed report fingerprint diverged from straight-through",
        )
    return {
        "checkpoint_at_hours": at,
        "checkpoint_bytes": len(blob),
        "straight_fingerprint": straight["fingerprint"],
        "resumed_fingerprint": resumed_report["fingerprint"],
        "match": match,
        "straight_wall_s": straight_wall,
        "report": straight,
    }
