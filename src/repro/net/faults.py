"""Deterministic fault injection for origin servers and the link layer.

Vroom's premise is that servers hand clients dependency hints and push
promises that may be stale or wrong under page churn (Secs 4.2, 6.4), and
measurement studies of deployed push ("Is the Web ready for HTTP/2 Server
Push?") show failures and wasted transfers are the norm in the wild.  A
:class:`FaultPlan` makes those failure modes reproducible: a seeded set of
:class:`FaultRule`\\ s injects server errors, response stalls, connection
drops and slow-start resets per URL/domain/time-window.

Every decision is a pure function of ``(seed, rule index, url, attempt)``,
so identical plans produce identical fault sequences across runs and
across worker processes — the property every sweep in this repo relies
on.  A plan with no rules never rolls at all, which keeps the zero-fault
configuration bit-identical to an unfaulted load.

Fault kinds
-----------

``SERVER_ERROR``
    The origin returns a small uncacheable 5xx body instead of the
    content (handled by :class:`~repro.net.origin.OriginServer`).
``STALL``
    The response bytes vanish in the network: nothing ever arrives.
    Only a client request timeout rescues the exchange — plans that
    stall must be paired with ``NetworkConfig.request_timeout > 0`` or
    the load wedges loudly.
``CONNECTION_DROP``
    The response starts streaming and dies partway through; delivered
    bytes are counted as fault waste.
``SLOW_START_RESET``
    The connection's congestion window collapses back to the initial
    value (models a loss burst / NAT rebinding); the request itself
    still completes.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, replace
from typing import Optional, Tuple

#: Body size of an injected 5xx error response, in bytes.
ERROR_RESPONSE_BYTES = 512


class FaultKind(enum.Enum):
    SERVER_ERROR = "server_error"
    STALL = "stall"
    CONNECTION_DROP = "connection_drop"
    SLOW_START_RESET = "slow_start_reset"


#: Kinds injected by the client/link layer (vs. the origin server).
TRANSPORT_KINDS = frozenset(
    {FaultKind.STALL, FaultKind.CONNECTION_DROP, FaultKind.SLOW_START_RESET}
)

#: Kinds decided by the origin server.  ``server_fault`` runs once per
#: request attempt on the lookup hot path, so the membership set is a
#: module constant rather than a fresh per-call set display.
SERVER_KINDS = frozenset({FaultKind.SERVER_ERROR})


def _unit_roll(seed: int, lane: object, url: str, attempt: int) -> float:
    """A deterministic uniform in [0, 1) from the fault coordinates."""
    digest = hashlib.blake2b(
        f"{seed}|{lane}|{url}|{attempt}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") / float(1 << 64)


@dataclass(frozen=True)
class FaultRule:
    """One injection rule: what to break, where, when, and how often."""

    kind: FaultKind
    #: Probability the rule fires per matching request attempt.
    rate: float = 1.0
    #: Only URLs containing this substring (None = every URL).
    url_substring: Optional[str] = None
    #: Only this origin domain (None = every domain).
    domain: Optional[str] = None
    #: Only hint-driven prefetches (the scheduler's speculative fetches).
    hints_only: bool = False
    #: Simulated-time window during which the rule is live.
    not_before: float = 0.0
    not_after: float = float("inf")

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"fault rate {self.rate!r} outside [0, 1]")
        if self.not_after < self.not_before:
            raise ValueError("fault window ends before it starts")

    def matches(
        self, url: str, domain: str, *, now: float, is_hint: bool
    ) -> bool:
        if self.hints_only and not is_hint:
            return False
        if self.domain is not None and self.domain != domain:
            return False
        if self.url_substring is not None and self.url_substring not in url:
            return False
        return self.not_before <= now <= self.not_after


def fault_rule_to_dict(rule: FaultRule) -> dict:
    """JSON-clean form of one fault rule (``inf`` becomes ``None``)."""
    return {
        "kind": rule.kind.value,
        "rate": rule.rate,
        "url_substring": rule.url_substring,
        "domain": rule.domain,
        "hints_only": rule.hints_only,
        "not_before": rule.not_before,
        "not_after": (
            None if rule.not_after == float("inf") else rule.not_after
        ),
    }


def fault_rule_from_dict(data: dict) -> FaultRule:
    """Inverse of :func:`fault_rule_to_dict`."""
    return FaultRule(
        kind=FaultKind(data["kind"]),
        rate=data["rate"],
        url_substring=data["url_substring"],
        domain=data["domain"],
        hints_only=data.get("hints_only", False),
        not_before=data["not_before"],
        not_after=(
            float("inf") if data["not_after"] is None else data["not_after"]
        ),
    )


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, ordered set of fault rules; first matching rule wins.

    Plans are immutable and picklable, so one plan can be shared by every
    origin server, the HTTP client, and every sweep worker process while
    all of them see the same fault sequence.
    """

    seed: int = 0
    rules: Tuple[FaultRule, ...] = ()

    def with_rule(self, rule: FaultRule) -> "FaultPlan":
        return replace(self, rules=self.rules + (rule,))

    def _decide(
        self,
        kinds,
        url: str,
        domain: str,
        *,
        now: float,
        attempt: int,
        is_hint: bool,
    ) -> Optional[FaultKind]:
        for index, rule in enumerate(self.rules):
            if rule.kind not in kinds:
                continue
            if not rule.matches(url, domain, now=now, is_hint=is_hint):
                continue
            if _unit_roll(self.seed, index, url, attempt) < rule.rate:
                return rule.kind
        return None

    def server_fault(
        self, url: str, domain: str, *, now: float, attempt: int,
        is_hint: bool = False,
    ) -> Optional[FaultKind]:
        """Server-side fault (if any) for this request attempt."""
        return self._decide(
            SERVER_KINDS, url, domain,
            now=now, attempt=attempt, is_hint=is_hint,
        )

    def transport_fault(
        self, url: str, domain: str, *, now: float, attempt: int,
        is_hint: bool = False,
    ) -> Optional[FaultKind]:
        """Transport/link-layer fault (if any) for this request attempt."""
        return self._decide(
            TRANSPORT_KINDS, url, domain,
            now=now, attempt=attempt, is_hint=is_hint,
        )

    def drop_fraction(self, url: str, attempt: int) -> float:
        """How far through the body a CONNECTION_DROP strikes (0.1–0.9)."""
        return 0.1 + 0.8 * _unit_roll(self.seed, "drop", url, attempt)


@dataclass(frozen=True)
class ResiliencePolicy:
    """Client-side knobs that keep loads finishing under faults."""

    #: Per-attempt deadline from request dispatch to last body byte.
    #: Zero disables timeouts entirely (the historical behaviour).
    request_timeout: float = 5.0
    #: Re-dispatches after a failed attempt before giving up.
    max_retries: int = 2
    #: First retry delay; doubles per subsequent retry.
    retry_backoff: float = 0.25

    def __post_init__(self) -> None:
        if self.request_timeout < 0:
            raise ValueError("request_timeout must be non-negative")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.retry_backoff < 0:
            raise ValueError("retry_backoff must be non-negative")


def hint_fault_plan(
    rate: float,
    seed: int = 0,
    kinds: Tuple[FaultKind, ...] = (
        FaultKind.SERVER_ERROR,
        FaultKind.STALL,
        FaultKind.CONNECTION_DROP,
    ),
) -> FaultPlan:
    """A plan that fails hint-driven prefetches at ``rate`` overall.

    The rate is split across ``kinds`` so the combined per-attempt failure
    probability equals ``rate`` (rules roll independently).  ``rate=0``
    returns an empty plan, which never rolls and therefore leaves the
    simulation bit-identical to an unfaulted run.
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"fault rate {rate!r} outside [0, 1]")
    if rate == 0.0 or not kinds:
        return FaultPlan(seed=seed)
    per_rule = 1.0 - (1.0 - rate) ** (1.0 / len(kinds))
    rules = tuple(
        FaultRule(kind=kind, rate=per_rule, hints_only=True)
        for kind in kinds
    )
    return FaultPlan(seed=seed, rules=rules)
