"""Runtime invariant audit: cheap assertions armed by ``REPRO_AUDIT=1``.

Every headline claim this reproduction makes rests on the discrete-event
simulation being perfectly deterministic and internally consistent.  The
static linter (:mod:`repro.devtools`) proves what it can from source; the
invariants here are the ones it cannot prove statically, so they are
checked *while a load runs* instead:

* **sim-clock-monotonic** — no event callback ever rewinds the
  simulator's virtual clock.
* **fifo-discipline** — under the paper's FIFO server discipline
  (modified Mahimahi), an HTTP/2 connection delivers at most one
  response body at a time, and the one being delivered is the
  front-of-queue stream (highest weight, then lowest stream id).
* **fifo-order** — per origin, equal-priority responses complete in the
  order their bodies started (the server serialises its responses).
* **stage-gate** — the Vroom client scheduler never issues a
  speculative hint prefetch whose stage gate (preload →
  semi-important → unimportant) has not opened yet.
* **stage-transition** — scheduler stages only ever advance.
* **fetch-bytes** — every completed exchange's stream carried exactly
  its header bytes plus its body bytes.
* **byte-conservation** — bytes the link delivered equal the bytes the
  streams received and the bytes :class:`LoadMetrics` reports.
* **fast-forward-bounds** — an inline clock advance (the link's
  event-coalesced fast path) only ever jumps strictly forward and
  strictly before the next pending heap event, so coalescing is
  unobservable to every other model.
* **busy-set-cache** — the fast engine's incrementally maintained
  busy-channel set always equals a fresh recomputation from stream
  state (stale entries would silently misallocate bandwidth).
* **waterfill-fast-path** — the closed-form 1–3-connection
  water-filling allocation is bit-identical to the general iterative
  solver on the same inputs.

This module sits at layer 0 of the package DAG (like
:mod:`repro.calibration`): it imports nothing from ``repro``, so every
simulation layer may import it.  All hooks are behind ``if
audit.ENABLED`` checks at the call sites, so a disabled audit costs one
attribute read on the hot paths it guards.

Enable with the environment variable ``REPRO_AUDIT=1``, the CLI flag
``--audit``, or programmatically::

    from repro import audit
    audit.enable()
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, Tuple

__all__ = [
    "AuditError",
    "ENABLED",
    "enable",
    "disable",
    "enabled",
    "require",
    "clock_monotonic",
    "fifo_discipline",
    "fifo_order",
    "stage_gate",
    "stage_transition",
    "fetch_bytes_accounted",
    "bytes_conserved",
    "fast_forward_bounds",
    "busy_set_matches",
    "waterfill_equivalent",
]


class AuditError(AssertionError):
    """A runtime invariant was violated.

    Derives from ``AssertionError``: an audit failure means the model
    broke its own contract, never that an input was bad.
    """

    def __init__(self, invariant: str, detail: str):
        self.invariant = invariant
        self.detail = detail
        super().__init__(f"audit invariant {invariant!r} violated: {detail}")


#: Global switch.  Reading the environment once at import keeps the
#: opt-in out of every hot path; this is infrastructure configuration,
#: not simulation state, so the purity rule is waived here.
ENABLED = os.environ.get("REPRO_AUDIT", "0") not in ("", "0")  # repro: allow[PUR201] audit opt-in is read once at import, never during a simulation


def enable() -> None:
    """Arm the audit for the rest of the process."""
    global ENABLED
    ENABLED = True


def disable() -> None:
    global ENABLED
    ENABLED = False


def enabled() -> bool:
    return ENABLED


def require(condition: bool, invariant: str, detail: str = "") -> None:
    """Raise :class:`AuditError` unless ``condition`` holds."""
    if not condition:
        raise AuditError(invariant, detail)


# -- invariant helpers (call sites guard with ``if audit.ENABLED``) --------


def clock_monotonic(before: float, after: float, context: str = "") -> None:
    """The virtual clock never moves backwards across a callback."""
    if after < before:
        raise AuditError(
            "sim-clock-monotonic",
            f"clock moved from {before!r} back to {after!r}"
            + (f" during {context}" if context else ""),
        )


def fifo_discipline(
    channel_ordinal: int,
    rated: Iterable[Tuple[float, int]],
    head: Tuple[float, int],
    active: Iterable[Tuple[float, int]],
) -> None:
    """FIFO connections serialise delivery and serve the queue head.

    ``rated`` are (weight, id) pairs of streams with a positive rate
    after allocation; ``head`` is the stream the allocator picked;
    ``active`` are all not-yet-done streams on the connection.
    """
    rated = list(rated)
    if len(rated) > 1:
        raise AuditError(
            "fifo-discipline",
            f"channel {channel_ordinal} delivers {len(rated)} bodies "
            f"concurrently under FIFO scheduling: {sorted(rated)}",
        )
    expected = min(active, key=lambda pair: (-pair[0], pair[1]), default=None)
    if expected is not None and head != expected:
        raise AuditError(
            "fifo-discipline",
            f"channel {channel_ordinal} serves stream {head} while "
            f"{expected} heads the queue",
        )


def fifo_order(
    last_by_key: Dict[Tuple[str, float], int],
    domain: str,
    weight: float,
    stream_id: int,
) -> None:
    """Equal-priority responses of one origin complete in start order.

    ``last_by_key`` is caller-owned state mapping (domain, weight) to the
    last completed stream id; stream ids increase in body-start order.
    """
    key = (domain, weight)
    last = last_by_key.get(key)
    if last is not None and stream_id < last:
        raise AuditError(
            "fifo-order",
            f"origin {domain!r} completed stream {stream_id} after "
            f"stream {last} of equal priority {weight!r}",
        )
    last_by_key[key] = stream_id


def stage_gate(
    current_stage: int,
    hint_stage: int,
    url: str,
    root_settled: bool,
) -> None:
    """A hint prefetch may only be issued once its stage gate is open.

    Stages are compared by their ``Priority`` ordinal: preload (0) <
    semi-important (1) < unimportant (2).  Preload hints fetch
    immediately by design; later stages additionally require the root
    document to have settled, since stage advancement is gated on it.
    """
    if hint_stage > current_stage:
        raise AuditError(
            "stage-gate",
            f"hint prefetch of {url!r} (stage {hint_stage}) issued while "
            f"the scheduler is in stage {current_stage}",
        )
    if hint_stage > 0 and not root_settled:
        raise AuditError(
            "stage-gate",
            f"stage-{hint_stage} hint prefetch of {url!r} issued before "
            "the root document settled",
        )


def stage_transition(old_stage: int, new_stage: int) -> None:
    """Scheduler stages only ever advance (preload → semi → unimportant)."""
    if new_stage < old_stage:
        raise AuditError(
            "stage-transition",
            f"scheduler stage moved backwards: {old_stage} -> {new_stage}",
        )


def fetch_bytes_accounted(
    url: str,
    stream_total: float,
    header_bytes: float,
    body_size: float,
    tolerance: float = 0.5,
) -> None:
    """A completed exchange's stream carried headers plus body, exactly."""
    expected = header_bytes + body_size
    if abs(stream_total - expected) > tolerance:
        raise AuditError(
            "fetch-bytes",
            f"{url!r} stream carried {stream_total!r} bytes; headers "
            f"({header_bytes!r}) + body ({body_size!r}) = {expected!r}",
        )


def fast_forward_bounds(
    now: float,
    target: float,
    next_event: "float | None",
) -> None:
    """An inline clock advance stays strictly inside the silent window.

    ``next_event`` is the time of the next pending heap event (None when
    the heap is empty); the advance must end strictly before it so the
    coalesced steps are indistinguishable from the event-per-tick trace.
    """
    if target <= now:
        raise AuditError(
            "fast-forward-bounds",
            f"inline advance from {now!r} to {target!r} does not move "
            "strictly forward",
        )
    if next_event is not None and next_event <= target:
        raise AuditError(
            "fast-forward-bounds",
            f"inline advance to {target!r} reaches past the next pending "
            f"event at {next_event!r}",
        )


def busy_set_matches(
    cached_ids: "list[int]",
    recomputed_ids: "list[int]",
) -> None:
    """The memoised busy-channel set equals a fresh recomputation.

    Both arguments are channel ids in link order; the cache must be
    invalidated on every stream start, completion, and abort, so any
    difference means a missed invalidation hook.
    """
    if cached_ids != recomputed_ids:
        raise AuditError(
            "busy-set-cache",
            f"cached busy channels {cached_ids!r} != recomputed "
            f"{recomputed_ids!r} (missed invalidation)",
        )


def waterfill_equivalent(
    caps: "list[float]",
    budget: float,
    fast: "list[float]",
    general: "list[float]",
) -> None:
    """Closed-form water-filling matches the general solver bit for bit."""
    if fast != general:
        raise AuditError(
            "waterfill-fast-path",
            f"closed-form allocation {fast!r} != general solver "
            f"{general!r} for caps {caps!r} budget {budget!r}",
        )


def bytes_conserved(
    bytes_delivered: float,
    stream_bytes: float,
    metrics_bytes: float,
    tolerance: float,
) -> None:
    """Link, stream, and metrics byte counts agree within ``tolerance``."""
    if abs(bytes_delivered - stream_bytes) > tolerance:
        raise AuditError(
            "byte-conservation",
            f"link delivered {bytes_delivered!r} bytes but streams "
            f"received {stream_bytes!r} (tolerance {tolerance!r})",
        )
    if metrics_bytes != bytes_delivered:
        raise AuditError(
            "byte-conservation",
            f"LoadMetrics reports {metrics_bytes!r} bytes fetched; the "
            f"link delivered {bytes_delivered!r}",
        )
