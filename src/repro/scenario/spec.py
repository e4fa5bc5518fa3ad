"""`ScenarioSpec`: one declarative, fingerprintable run description.

Every experiment so far wires its corpus, workload, store policy and
fault schedule together imperatively.  A spec replaces that with a
single frozen dataclass whose fields are the *complete* causal surface
of a long-horizon run: two specs with equal fingerprints describe
bit-identical runs, and a spec survives a JSON round trip unchanged —
which is what lets a checkpoint name the run it belongs to.

The fingerprint reuses the length-prefixed hashing discipline of
:func:`repro.replay.cache.blueprint_fingerprint`: every component is
written as ``len:bytes`` before hashing, so no value can bleed into its
neighbour and no field boundary depends on values containing no
delimiter characters.

The spec is registered in the devtools config-drift contract
(:data:`repro.devtools.driftrules.DEFAULT_CONTRACTS`), so its knob
table in ``docs/API.md`` is machine-checked against this file.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from typing import Callable, Dict, List, Optional, Tuple

from repro.calibration import DEFAULT_EVAL_HOUR
from repro.net.faults import (
    FaultPlan,
    FaultRule,
    fault_rule_from_dict,
    fault_rule_to_dict,
)
from repro.net.profiles import PROFILES, NetworkProfile, profile
from repro.pages.corpus import (
    accuracy_corpus,
    alexa_top100_corpus,
    alexa_top400_sample_corpus,
    news_sports_corpus,
    shopping_corpus,
)
from repro.pages.page import PageBlueprint
from repro.service.backend import ServiceConfig
from repro.service.placement import shard_outage_rule
from repro.service.workload import expected_lookups

#: Corpus name -> builder; the declarative half of ``cli.CORPORA`` plus
#: the shopping corpus (the CLI keeps its own map because the scenario
#: layer must not import the CLI).
CORPUS_BUILDERS: Dict[str, Callable[..., List[PageBlueprint]]] = {
    "news": news_sports_corpus,
    "alexa100": alexa_top100_corpus,
    "alexa400": alexa_top400_sample_corpus,
    "accuracy": accuracy_corpus,
    "shopping": shopping_corpus,
}


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything a continuous-operation run depends on, declaratively."""

    # -- corpus ----------------------------------------------------------
    corpus: str = "news"
    pages: int = 12
    #: Override the corpus builder's pinned seed (None keeps it).
    corpus_seed: Optional[int] = None
    # -- horizon ---------------------------------------------------------
    horizon_hours: float = 48.0
    start_hour: float = DEFAULT_EVAL_HOUR
    # -- workload (the stream A/B lanes must share) ----------------------
    rate_per_hour: float = 1500.0
    zipf_exponent: float = 1.1
    phone_fraction: float = 0.85
    user_pool: int = 32
    workload_seed: int = 0
    # -- network class (declarative; grids vary it) ----------------------
    network_profile: str = "lte"
    # -- store policy ----------------------------------------------------
    shards: int = 8
    vnodes: int = 64
    shard_memory_bytes: int = 256 * 1024
    replication: int = 2
    ttl_hours: float = 12.0
    freshness_hours: float = 2.0
    frontend_cache_entries: int = 0
    frontend_cache_ttl_hours: float = 0.05
    # -- offline-resolution scheduler ------------------------------------
    batch_period_hours: float = 0.25
    crawl_budget_per_hour: float = 60.0
    prewarm: bool = True
    # -- client cache digests (repro.core.cache_digest) ------------------
    #: Bits per digest entry for the warm-client hint filter (0 = off).
    #: When on, each (user, page) repeat visit summarises its previous
    #: visit's served hints as a cache digest and served hints are
    #: filtered through it — the CASPer-style "don't push what I hold".
    digest_filter_bits: int = 0
    # -- shard fail/heal cycle -------------------------------------------
    #: Take one shard down every this many hours (0 = no cycle); the
    #: victim rotates round-robin through the fleet.
    shard_cycle_every_hours: float = 0.0
    shard_cycle_down_hours: float = 1.0
    #: Run-relative hour of the first outage.
    shard_cycle_start_hours: float = 6.0
    fault_seed: int = 0
    #: Extra hand-written fault rules appended after the cycle's.
    extra_fault_rules: Tuple[FaultRule, ...] = ()
    # -- aggregation cadence ---------------------------------------------
    #: Rollup-row window (simulated hours): the runner keeps one row per
    #: window, never per-lookup records.
    rollup_hours: float = 1.0

    def __post_init__(self) -> None:
        if self.corpus not in CORPUS_BUILDERS:
            raise ValueError(
                f"unknown corpus {self.corpus!r}; "
                f"choose from {sorted(CORPUS_BUILDERS)}"
            )
        if self.pages < 1:
            raise ValueError("a scenario needs at least one page")
        if self.horizon_hours <= 0:
            raise ValueError("horizon must be positive")
        if self.rate_per_hour <= 0:
            raise ValueError("arrival rate must be positive")
        if not 0.0 <= self.phone_fraction <= 1.0:
            raise ValueError("phone fraction must be within [0, 1]")
        if self.user_pool < 1:
            raise ValueError("user pool must be positive")
        if self.network_profile not in PROFILES:
            raise ValueError(
                f"unknown network profile {self.network_profile!r}; "
                f"choose from {sorted(PROFILES)}"
            )
        if self.shards < 1:
            raise ValueError("need at least one shard")
        if not 1 <= self.replication <= self.shards:
            raise ValueError(
                f"replication {self.replication} outside [1, {self.shards}]"
            )
        if self.ttl_hours <= 0 or self.freshness_hours <= 0:
            raise ValueError("TTL and freshness horizons must be positive")
        if self.batch_period_hours <= 0:
            raise ValueError("batch period must be positive")
        if self.crawl_budget_per_hour <= 0:
            raise ValueError("crawl budget must be positive")
        if self.digest_filter_bits and not (
            1 <= self.digest_filter_bits <= 32
        ):
            raise ValueError("digest_filter_bits must be 0 or in [1, 32]")
        if self.shard_cycle_every_hours < 0:
            raise ValueError("shard cycle period must be non-negative")
        if self.shard_cycle_every_hours > 0:
            if not 0 < self.shard_cycle_down_hours < (
                self.shard_cycle_every_hours
            ):
                raise ValueError(
                    "outage length must sit inside the cycle period"
                )
            if self.shard_cycle_start_hours < 0:
                raise ValueError("first outage must not predate the run")
        if self.rollup_hours <= 0:
            raise ValueError("rollup window must be positive")

    # -- composition -----------------------------------------------------

    def build_pages(self) -> List[PageBlueprint]:
        """Materialise the page fleet this spec names."""
        builder = CORPUS_BUILDERS[self.corpus]
        if self.corpus_seed is None:
            return builder(count=self.pages)
        return builder(count=self.pages, seed=self.corpus_seed)

    def network(self) -> NetworkProfile:
        """The last-mile class client-side evaluations should assume."""
        return profile(self.network_profile)

    def lookups_estimate(self) -> int:
        """Expected stream length (the Poisson mean over the horizon)."""
        return expected_lookups(self.rate_per_hour, self.horizon_hours)

    def cycle_rules(self) -> Tuple[FaultRule, ...]:
        """The shard fail/heal schedule as placement outage rules.

        Outage ``k`` hits shard ``k % shards`` at run-relative hour
        ``start + k * every`` for ``down`` hours; windows are expressed
        in absolute simulated hours, as the placement layer expects.
        """
        if self.shard_cycle_every_hours <= 0:
            return ()
        rules: List[FaultRule] = []
        k = 0
        while (
            self.shard_cycle_start_hours
            + k * self.shard_cycle_every_hours
            < self.horizon_hours
        ):
            down_at = (
                self.start_hour
                + self.shard_cycle_start_hours
                + k * self.shard_cycle_every_hours
            )
            rules.append(
                shard_outage_rule(
                    k % self.shards,
                    down_at_hours=down_at,
                    up_at_hours=down_at + self.shard_cycle_down_hours,
                )
            )
            k += 1
        return tuple(rules)

    def fault_plan(self) -> Optional[FaultPlan]:
        rules = self.cycle_rules() + self.extra_fault_rules
        if not rules:
            return None
        return FaultPlan(seed=self.fault_seed, rules=rules)

    def service_config(self) -> ServiceConfig:
        """The backend configuration this spec compiles down to.

        ``fingerprint`` stays off (the runner chains its own hex digest,
        which — unlike a live sha1 object — survives pickling) and the
        bridge stays off (per-lookup samples would break the constant-
        memory contract).
        """
        return ServiceConfig(
            pages=self.pages,
            horizon_hours=self.horizon_hours,
            rate_per_hour=self.rate_per_hour,
            zipf_exponent=self.zipf_exponent,
            phone_fraction=self.phone_fraction,
            user_pool=self.user_pool,
            shards=self.shards,
            vnodes=self.vnodes,
            shard_memory_bytes=self.shard_memory_bytes,
            ttl_hours=self.ttl_hours,
            freshness_hours=self.freshness_hours,
            replication=self.replication,
            frontend_cache_entries=self.frontend_cache_entries,
            frontend_cache_ttl_hours=self.frontend_cache_ttl_hours,
            shard_fault_rules=self.cycle_rules() + self.extra_fault_rules,
            fault_seed=self.fault_seed,
            batch_period_hours=self.batch_period_hours,
            crawl_budget_per_hour=self.crawl_budget_per_hour,
            prewarm=self.prewarm,
            start_hour=self.start_hour,
            seed=self.workload_seed,
            fingerprint=False,
            bridge_sample_every=0,
        )

    # -- identity --------------------------------------------------------

    def fingerprint(self) -> str:
        """Stable content hash over every field of the spec.

        Length-prefixed like ``blueprint_fingerprint``; fault rules are
        expanded field by field so two rule tuples can never collide by
        concatenation.
        """
        digest = hashlib.sha256()

        def put(text: str) -> None:
            data = text.encode()
            digest.update(str(len(data)).encode())
            digest.update(b":")
            digest.update(data)

        for spec_field in fields(self):
            put(spec_field.name)
            value = getattr(self, spec_field.name)
            if spec_field.name == "extra_fault_rules":
                put(str(len(value)))
                for rule in value:
                    for rule_field in fields(rule):
                        put(rule_field.name)
                        put(repr(getattr(rule, rule_field.name)))
            else:
                put(repr(value))
        return digest.hexdigest()

    # -- JSON round trip -------------------------------------------------

    def as_dict(self) -> dict:
        out = {}
        for spec_field in fields(self):
            value = getattr(self, spec_field.name)
            if spec_field.name == "extra_fault_rules":
                value = [fault_rule_to_dict(rule) for rule in value]
            out[spec_field.name] = value
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        kwargs = dict(data)
        kwargs["extra_fault_rules"] = tuple(
            fault_rule_from_dict(rule)
            for rule in kwargs.get("extra_fault_rules", ())
        )
        return cls(**kwargs)
