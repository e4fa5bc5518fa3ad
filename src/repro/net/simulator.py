"""Minimal deterministic discrete-event simulation engine.

Events are ``(time, sequence, callback)`` triples in a binary heap.  The
sequence number breaks time ties in scheduling order, which keeps every run
fully deterministic.  Time is float seconds from an arbitrary origin.

Cancelled events are *compacted* out of the heap lazily: the simulator
counts cancellations and rebuilds the heap once cancelled entries dominate,
so models that churn timer events (e.g. the link's rate-refresh tick) never
drag a long tail of dead events through every ``heappop``.  The live-event
count is maintained incrementally, making :meth:`Simulator.pending` O(1)
instead of an O(n) scan.

Two executors share one scheduling contract, and ``NetworkConfig.engine``
picks between them:

* :class:`Simulator` — the reference engine (``engine="reference"``): one
  :class:`Event` object per scheduled callback, popped and dispatched one
  at a time.  It is the oracle the fast engine is tested against.
* :class:`ArraySimulator` — the fast engine's executor (``engine="fast"``,
  the default): struct-of-arrays event state (a heap of packed
  ``(time, seq, slot)`` tuples ordered entirely by C-level tuple
  comparison, plus slot-indexed parallel lists for callback and
  generation) with a tiny ``__slots__`` :class:`EventHandle` handed out
  only at the API boundary.  The heap ordering key is identical, so it
  executes the same callbacks in the same order; it just stops
  allocating one Python object and one rich-comparison call chain per
  event.  It also offers :meth:`ArraySimulator.advance_inline`, which
  lets the *currently executing* callback move the clock forward without
  a heap round-trip.  The advance is refused unless it is unobservable —
  strictly forward, strictly before the next pending event, and within
  the active ``run(until=...)`` cap — so the access link, its only user,
  produces the same observables as the reference engine's one heap event
  per refresh tick.

The deterministic perf counters (``events_scheduled``, ``executed``,
``events_cancelled``, ``compactions``) depend only on
the event trace, never on wall time, so they are stable across machines
and usable as CI regression goldens.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple, Union

from repro import audit

#: Compaction threshold: rebuild the heap once at least this many events are
#: cancelled *and* they outnumber the live ones.  Rebuilding is O(n); with
#: this policy its amortised cost per cancellation is O(1).
_COMPACT_MIN_CANCELLED = 64


class Event:
    """Handle to a scheduled callback; supports cancellation."""

    __slots__ = ("time", "seq", "callback", "cancelled", "sim")

    def __init__(self, time: float, seq: int, callback: Callable[[], None]):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        #: Owning simulator while the event sits in the heap; detached
        #: (set to None) once popped so late cancels don't skew accounting.
        self.sim: Optional["Simulator"] = None

    def cancel(self) -> None:
        if self.cancelled:
            return
        self.cancelled = True
        if self.sim is not None:
            self.sim._note_cancelled()

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


class Simulator:
    """Event queue with a monotone virtual clock."""

    def __init__(self) -> None:
        self._queue: List[Event] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._running = False
        #: Cancelled events still sitting in the heap.
        self._cancelled = 0
        #: Total events executed (exposed for runaway detection / stats).
        self.executed = 0
        #: Heap rebuilds performed by lazy compaction (exposed for tests).
        self.compactions = 0
        #: Deterministic perf counters: heap events pushed and in-heap
        #: events cancelled.
        self.events_scheduled = 0
        self.events_cancelled = 0

    @property
    def now(self) -> float:
        return self._now

    def schedule(self, delay: float, callback: Callable[[], None]) -> Event:
        """Run ``callback`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        event = Event(self._now + delay, next(self._seq), callback)
        event.sim = self
        heapq.heappush(self._queue, event)
        self.events_scheduled += 1
        return event

    def schedule_drop(self, delay: float, callback: Callable[[], None]) -> None:
        """:meth:`schedule` for fire-and-forget callers.

        Most of the engine's scheduled events — DNS completions, response
        arrivals, CPU-task finishes, the sampler and scanner loops — are
        never cancelled, so the returned handle goes straight to garbage.
        This variant lets the array executor skip building it; here it is
        plain :meth:`schedule` with the result dropped, so both executors
        expose one API with identical trace semantics.
        """
        self.schedule(delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> Event:
        """Run ``callback`` at absolute simulated time ``time``.

        The event lands at exactly ``max(now, time)`` — not at
        ``now + (time - now)``, whose round trip through a relative
        delay can be off by one ulp.  Callers that must hit a
        precomputed absolute time bit-exactly (a connection's ready
        time, the CPU's busy-until mark) depend on this.
        """
        event = Event(max(self._now, time), next(self._seq), callback)
        event.sim = self
        heapq.heappush(self._queue, event)
        self.events_scheduled += 1
        return event

    # repro: hotpath
    def call_soon(self, callback: Callable[[], None]) -> Event:
        """Run ``callback`` at the current time, after pending same-time events."""
        return self.schedule(0.0, callback)

    def _note_cancelled(self) -> None:
        self._cancelled += 1
        self.events_cancelled += 1
        if (
            self._cancelled >= _COMPACT_MIN_CANCELLED
            and self._cancelled * 2 > len(self._queue)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled events and restore the heap invariant.

        Safe at any point: event ordering is total (time, seq), so
        ``heapify`` over the surviving events reproduces exactly the order
        a pop-by-pop drain would have seen.
        """
        for event in self._queue:
            if event.cancelled:
                event.sim = None
        self._queue = [event for event in self._queue if not event.cancelled]
        heapq.heapify(self._queue)
        self._cancelled = 0
        self.compactions += 1

    # repro: hotpath
    def run(
        self,
        until: Optional[float] = None,
        max_events: int = 5_000_000,
    ) -> float:
        """Drain the queue; returns the final clock value.

        ``until`` caps virtual time; ``max_events`` guards against runaway
        feedback loops in buggy models (raises ``RuntimeError``).
        """
        if self._running:
            raise RuntimeError("simulator is not reentrant")
        self._running = True
        heappop = heapq.heappop
        heappush = heapq.heappush
        try:
            # Callbacks may cancel events and trigger a compaction that
            # replaces ``self._queue``, so re-read the attribute each loop.
            # repro: allow[PERF403] hoisting would pin the
            # pre-compaction queue object and silently drop events.
            while self._queue:
                event = heappop(self._queue)
                if event.cancelled:
                    event.sim = None
                    self._cancelled -= 1
                    continue
                if until is not None and event.time > until:
                    heappush(self._queue, event)
                    self._now = until
                    break
                event.sim = None
                if event.time < self._now - 1e-12:
                    raise RuntimeError("event scheduled in the past")
                if event.time > self._now:
                    self._now = event.time
                self.executed += 1
                if self.executed > max_events:
                    raise RuntimeError(
                        f"exceeded {max_events} events; likely a model loop"
                    )
                if audit.ENABLED:
                    before = self._now
                    event.callback()
                    audit.clock_monotonic(
                        before, self._now, f"event #{event.seq}"
                    )
                else:
                    event.callback()
        finally:
            self._running = False
        return self._now

    def peek_time(self) -> Optional[float]:
        """Time of the next pending event, if any."""
        queue = self._queue
        while queue and queue[0].cancelled:
            dead = heapq.heappop(queue)
            dead.sim = None
            self._cancelled -= 1
        return queue[0].time if queue else None

    def pending(self) -> int:
        """Number of live (non-cancelled) events, in O(1)."""
        return len(self._queue) - self._cancelled


class EventHandle:
    """API-boundary handle to an :class:`ArraySimulator` event.

    The simulator itself never touches these — event state lives in the
    struct-of-arrays storage — so the handle only carries enough to cancel:
    the owning simulator, the slot its payload occupies, and the sequence
    number that proves the slot still holds *this* event (slots are
    recycled; a stale handle's seq no longer matches and the cancel is a
    no-op, mirroring the reference engine's detach-on-pop behaviour).
    """

    __slots__ = ("sim", "seq", "slot", "time", "cancelled")

    def __init__(
        self, sim: "ArraySimulator", seq: int, slot: int, time: float
    ):
        self.sim = sim
        self.seq = seq
        self.slot = slot
        self.time = time
        self.cancelled = False

    def cancel(self) -> None:
        if self.cancelled:
            return
        self.cancelled = True
        sim = self.sim
        # Generation check: only cancel if the slot still holds this event
        # (not popped, not recycled).  Late cancels don't skew accounting.
        if sim._slot_seq[self.slot] == self.seq:
            sim._cancel_slot(self.slot)


class ArraySimulator:
    """Struct-of-arrays event queue — same contract as :class:`Simulator`.

    Storage layout: the heap holds packed ``(time, seq, slot)`` tuples —
    compared by C-level tuple comparison on exactly the ``(time, seq)``
    key the reference engine uses — and two slot-indexed parallel lists
    hold the payload: ``_cb[slot]`` is the callback (``None`` once
    cancelled) and ``_slot_seq[slot]`` the generation guard.  Popped slots
    go on a free list and are recycled, so steady-state execution
    allocates one small tuple per event instead of a five-field object,
    and every heap sift runs without entering Python ``__lt__``.

    Determinism: ``seq`` comes from the same monotone counter discipline,
    so same-time events execute in scheduling order, bit-identical to the
    reference engine.  All perf counters keep reference semantics.
    """

    def __init__(self) -> None:
        self._queue: List[Tuple[float, int, int]] = []
        self._cb: List[Optional[Callable[[], None]]] = []
        self._slot_seq: List[int] = []
        self._free: List[int] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._running = False
        #: ``until`` cap of the active :meth:`run`, honoured by
        #: :meth:`advance_inline`; None outside a capped run.
        self._until: Optional[float] = None
        self._cancelled = 0
        self.executed = 0
        self.compactions = 0
        self.events_scheduled = 0
        self.events_cancelled = 0

    @property
    def now(self) -> float:
        return self._now

    def schedule(
        self, delay: float, callback: Callable[[], None]
    ) -> EventHandle:
        """Run ``callback`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        time = self._now + delay
        seq = next(self._seq)
        free = self._free
        if free:
            slot = free.pop()
            self._cb[slot] = callback
            self._slot_seq[slot] = seq
        else:
            slot = len(self._cb)
            self._cb.append(callback)
            self._slot_seq.append(seq)
        heapq.heappush(self._queue, (time, seq, slot))
        self.events_scheduled += 1
        return EventHandle(self, seq, slot, time)

    def schedule_raw(self, delay: float, callback: Callable[[], None]) -> int:
        """Heap-schedule without building an :class:`EventHandle`.

        Returns the storage slot.  For hot callers (the link's refresh
        tick) that keep the *only* reference to the event and know it is
        still pending — the callback clears the caller's record when it
        runs — the slot plus :meth:`_cancel_slot` replaces the handle at
        zero allocations.  The sequence counter, heap entry and counters
        are exactly those of :meth:`schedule`; only the handle is
        skipped.  Precondition: ``delay >= 0`` (callers clamp).
        """
        time = self._now + delay
        seq = next(self._seq)
        free = self._free
        if free:
            slot = free.pop()
            self._cb[slot] = callback
            self._slot_seq[slot] = seq
        else:
            slot = len(self._cb)
            self._cb.append(callback)
            self._slot_seq.append(seq)
        heapq.heappush(self._queue, (time, seq, slot))
        self.events_scheduled += 1
        return slot

    def schedule_drop(self, delay: float, callback: Callable[[], None]) -> None:
        """:meth:`schedule` for fire-and-forget callers: no handle at all.

        Same storage writes, sequence consumption and counters as
        :meth:`schedule`; the :class:`EventHandle` (which the reference
        engine's callers would discard anyway) is never built.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        self.schedule_raw(delay, callback)

    def schedule_at(
        self, time: float, callback: Callable[[], None]
    ) -> EventHandle:
        """Run ``callback`` at absolute simulated time ``time``.

        Exact-time semantics match :meth:`Simulator.schedule_at`: the
        heap entry carries ``max(now, time)`` itself, never a value
        re-derived from a relative delay.
        """
        when = max(self._now, time)
        seq = next(self._seq)
        free = self._free
        if free:
            slot = free.pop()
            self._cb[slot] = callback
            self._slot_seq[slot] = seq
        else:
            slot = len(self._cb)
            self._cb.append(callback)
            self._slot_seq.append(seq)
        heapq.heappush(self._queue, (when, seq, slot))
        self.events_scheduled += 1
        return EventHandle(self, seq, slot, when)

    # repro: hotpath
    def call_soon(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` at the current time, after pending same-time events.

        No caller in the tree cancels a soon-event, so unlike the
        reference engine this returns no handle — sparing one allocation
        on what is (with watch fires and completions) one of the hottest
        scheduling paths.  Scheduling semantics and counters are exactly
        :meth:`schedule` with zero delay.
        """
        self.schedule_raw(0.0, callback)

    def _cancel_slot(self, slot: int) -> None:
        self._cb[slot] = None
        self._cancelled += 1
        self.events_cancelled += 1
        if (
            self._cancelled >= _COMPACT_MIN_CANCELLED
            and self._cancelled * 2 > len(self._queue)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and restore the heap invariant, in place.

        In-place (``queue[:] = ...``) so the ``run`` loop's local binding
        to the heap list stays valid across a mid-run compaction.
        """
        queue = self._queue
        free = self._free
        survivors = []
        cb = self._cb
        slot_seq = self._slot_seq
        for entry in queue:
            slot = entry[2]
            if cb[slot] is None:
                slot_seq[slot] = -1
                free.append(slot)
            else:
                survivors.append(entry)
        queue[:] = survivors
        heapq.heapify(queue)
        self._cancelled = 0
        self.compactions += 1

    # repro: hotpath
    def run(
        self,
        until: Optional[float] = None,
        max_events: int = 5_000_000,
    ) -> float:
        """Drain the queue; returns the final clock value.

        Semantics match :meth:`Simulator.run` exactly — cancelled-head
        skipping, the ``until`` push-back, past-event detection, per-event
        audit hooks — only the storage the loop walks is array-backed.
        """
        if self._running:
            raise RuntimeError("simulator is not reentrant")
        self._running = True
        self._until = until
        heappop = heapq.heappop
        heappush = heapq.heappush
        # Compaction is in-place, so these locals stay valid; callbacks
        # append via the same list objects.
        queue = self._queue
        cb = self._cb
        slot_seq = self._slot_seq
        free = self._free
        audit_enabled = audit.ENABLED
        try:
            while queue:
                time, seq, slot = heappop(queue)
                callback = cb[slot]
                if callback is None:
                    slot_seq[slot] = -1
                    free.append(slot)
                    self._cancelled -= 1
                    continue
                if until is not None and time > until:
                    heappush(queue, (time, seq, slot))
                    self._now = until
                    break
                # Free the slot before dispatch; stamping the generation
                # to -1 makes any late cancel via the handle a no-op.
                cb[slot] = None
                slot_seq[slot] = -1
                free.append(slot)
                if time < self._now - 1e-12:
                    raise RuntimeError("event scheduled in the past")
                if time > self._now:
                    self._now = time
                self.executed += 1
                if self.executed > max_events:
                    raise RuntimeError(
                        f"exceeded {max_events} events; likely a model loop"
                    )
                if audit_enabled:
                    before = self._now
                    callback()
                    audit.clock_monotonic(before, self._now, f"event #{seq}")
                else:
                    callback()
        finally:
            self._running = False
            self._until = None
        return self._now

    def advance_inline(self, target: float) -> bool:
        """Move the clock to ``target`` from inside a running callback.

        Returns True and advances only when the jump is *unobservable*:
        strictly forward, strictly before the next pending event, and not
        past the active ``run(until=...)`` cap.  Otherwise returns False
        and leaves the clock untouched, so the caller falls back to
        scheduling a regular heap event — which keeps every observable
        identical to the reference engine's one event per step.
        """
        if target <= self._now:
            return False
        if self._until is not None and target > self._until:
            return False
        next_time = self.peek_time()
        if next_time is not None and next_time <= target:
            return False
        if audit.ENABLED:
            audit.fast_forward_bounds(self._now, target, next_time)
        self._now = target
        return True

    def peek_time(self) -> Optional[float]:
        """Time of the next pending event, if any."""
        queue = self._queue
        cb = self._cb
        while queue and cb[queue[0][2]] is None:
            dead = heapq.heappop(queue)
            self._slot_seq[dead[2]] = -1
            self._free.append(dead[2])
            self._cancelled -= 1
        return queue[0][0] if queue else None

    def pending(self) -> int:
        """Number of live (non-cancelled) events, in O(1)."""
        return len(self._queue) - self._cancelled


#: Either executor; they implement one contract (see module docstring), so
#: models annotate against the union and stay engine-agnostic.
SimulatorLike = Union[Simulator, ArraySimulator]
