"""Fluid-flow model of the client's cellular access link.

The downlink divides its bandwidth equally across *connections* that have
response bytes in flight (TCP fairness).  Within a connection, the share is
divided across streams according to the connection's scheduling mode:

* ``FAIR`` — equal split across all active streams (HTTP/2 default
  interleaving; also used for independent HTTP/1.1 connections, which each
  carry a single stream anyway).
* ``FIFO`` — streams transmit one at a time in arrival order.  This models
  the paper's Mahimahi modification where a server "returns the content for
  requested resources in the same order in which it receives requests".
* ``WEIGHTED`` — bandwidth proportional to per-stream weights (HTTP/2
  priorities).

Streams expose *offset watches* so the browser's preload scanner can react
the moment a particular byte of an HTML response arrives.  A stream's
initial watches are registered by :meth:`Channel.start_stream` itself, so
starting a response costs one link *poke* (integrate, fire, reassign).

The link is also the simulation's hottest loop: while any connection is in
slow start it refreshes its piecewise-constant rates every ``min_rtt / 2``.
It takes one of two paths, chosen by the simulator it is given:

* On the reference :class:`~repro.net.simulator.Simulator` every refresh
  step is its own heap event: :meth:`AccessLink._step` integrates and
  fires due watches, and :meth:`AccessLink._assign_and_horizon`
  water-fills and picks the next tick.  This is the oracle.
* On the fast :class:`~repro.net.simulator.ArraySimulator` consecutive
  refresh steps run inline via ``advance_inline`` instead of a
  schedule/cancel/pop heap round-trip per step, and a silent run of them
  is absorbed in locals by :meth:`AccessLink._run_batch`.  Each poke
  visits only the streams that can move: the busy channels, and on a FIFO
  connection only the one stream holding its rate
  (:meth:`AccessLink._step_batched`,
  :meth:`AccessLink._assign_and_horizon_batched`).  It performs the
  identical piecewise updates at the identical simulated times, and drops
  back to the heap whenever any foreign event could observe the
  difference, so results are bit-identical to the reference (see
  ``docs/ARCHITECTURE.md``).
"""

from __future__ import annotations

import bisect
import enum
import itertools
import math
import random
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro import audit
from repro.net.flow import waterfill, waterfill_small
from repro.net.simulator import ArraySimulator, Event, SimulatorLike

_EPS_BYTES = 1e-6
_EPS_TIME = 1e-12
_INF = float("inf")


class StreamScheduling(enum.Enum):
    FAIR = "fair"
    FIFO = "fifo"
    WEIGHTED = "weighted"


class StreamHandle:
    """One response body in flight over the shared link."""

    __slots__ = (
        "id",
        "channel",
        "bytes_total",
        "bytes_done",
        "on_complete",
        "weight",
        "rate",
        "done",
        "aborted",
        "started_at",
        "completed_at",
        "_watches",
        "_watch_cursor",
    )

    _ids = itertools.count()

    def __init__(
        self,
        channel: "Channel",
        nbytes: float,
        on_complete: Callable[[], None],
        weight: float,
    ):
        self.id = next(StreamHandle._ids)
        self.channel = channel
        self.bytes_total = float(nbytes)
        self.bytes_done = 0.0
        self.on_complete = on_complete
        self.weight = max(1e-6, weight)
        self.rate = 0.0
        self.done = False
        self.aborted = False
        self.started_at = channel.link.sim.now
        self.completed_at: Optional[float] = None
        #: Sorted (offset, callback) watch points; entries before
        #: ``_watch_cursor`` have fired already (a cursor beats ``pop(0)``'s
        #: O(n) front-shift, and the list is dropped once fully consumed).
        self._watches: List[Tuple[float, Callable[[], None]]] = []
        self._watch_cursor = 0

    def watch_offset(self, offset: float, callback: Callable[[], None]) -> None:
        """Invoke ``callback`` once ``offset`` bytes of the body have arrived."""
        if self._add_watch(offset, callback):
            self.channel.link.poke()
        else:
            self.channel.link.sim.call_soon(callback)

    def _add_watch(self, offset: float, callback: Callable[[], None]) -> bool:
        """Store a watch that is not yet due; False if it is due already."""
        if self.done or self.bytes_done + _EPS_BYTES >= offset:
            return False
        # A stored offset strictly exceeds bytes_done, hence every fired
        # offset, so insertion always lands at or after the cursor.  Equal
        # offsets keep registration order (insort is right-biased), exactly
        # as the previous append-then-stable-sort did.
        bisect.insort(
            self._watches, (offset, callback), key=lambda pair: pair[0]
        )
        return True

    def abort(self) -> None:
        """Tear the stream down without completing it (drop/timeout).

        Marks the stream done so the link stops allocating bandwidth to
        it, but never fires ``on_complete`` or the remaining watches —
        the exchange failed and the client handles the fallout.
        """
        if self.done:
            return
        self.done = True
        self.aborted = True
        self._watches = []
        self._watch_cursor = 0
        self.channel.link.bytes_retired += self.bytes_done
        self.channel.invalidate_active()
        self.channel.link.poke()

    def next_threshold(self) -> float:
        """Bytes remaining until the next interesting point (watch or end)."""
        target = self.bytes_total
        if self._watch_cursor < len(self._watches):
            target = min(target, self._watches[self._watch_cursor][0])
        return max(0.0, target - self.bytes_done)

    def fire_ready(self, sim: SimulatorLike) -> None:
        """Fire watches whose offsets have arrived; completion if finished."""
        watches = self._watches
        if watches:
            cursor = self._watch_cursor
            count = len(watches)
            arrived = self.bytes_done + _EPS_BYTES
            while cursor < count and watches[cursor][0] <= arrived:
                sim.call_soon(watches[cursor][1])
                cursor += 1
            if cursor >= count:
                self._watches = []
                self._watch_cursor = 0
            else:
                self._watch_cursor = cursor
        if not self.done and self.bytes_done + _EPS_BYTES >= self.bytes_total:
            self.bytes_done = self.bytes_total
            self.done = True
            self.completed_at = sim.now
            self.channel.link.bytes_retired += self.bytes_done
            self.channel.invalidate_active()
            sim.call_soon(self.on_complete)


def _fifo_order(stream: StreamHandle) -> Tuple[float, int]:
    """FIFO service order: request order within a priority class.

    An urgent stream (higher weight) jumps ahead, as nghttpx honours
    HTTP/2 priority frames even when the server serialises its responses.
    """
    return (-stream.weight, stream.id)


#: Initial congestion window (10 segments of ~1460 B, RFC 6928).
INITIAL_CWND_BYTES = 14600.0

#: Upper bound on any connection's congestion window.
MAX_CWND_BYTES = 4.0e6


class Channel:
    """The link-facing side of one transport connection.

    Carries a TCP-like congestion window: the connection's byte rate is
    capped at ``cwnd / rtt``, and the window opens by one byte per byte
    delivered (slow-start doubling per RTT).  A connection that has already
    moved bytes is therefore *warm* — the mechanism behind HTTP/2's edge
    over six cold HTTP/1.1 connections and behind RTTs appearing on page
    load critical paths.
    """

    __slots__ = (
        "id",
        "link",
        "ordinal",
        "scheduling",
        "rtt",
        "cwnd",
        "streams",
        "_active_cache",
        "_head",
        "_wtotal",
        "_holder",
        "_last_busy_at",
        "_bytes_to_next_loss",
        "_loss_count",
        "_rng",
    )

    _ids = itertools.count()

    def __init__(
        self,
        link: "AccessLink",
        scheduling: StreamScheduling,
        rtt: float = 0.0,
    ):
        self.id = next(Channel._ids)
        self.link = link
        #: Per-link ordinal: stable across runs (unlike the global id),
        #: so identical simulations see identical loss sequences.
        self.ordinal = len(link.channels)
        self.scheduling = scheduling
        self.rtt = rtt
        self.cwnd = INITIAL_CWND_BYTES
        self.streams: List[StreamHandle] = []
        #: Memoised list of not-yet-done streams; None when stale.  Stream
        #: starts and completions invalidate it, so the per-poke rate loops
        #: stop re-filtering (and re-allocating) an unchanged set.
        self._active_cache: Optional[List[StreamHandle]] = None
        #: Fast engine, same lifetime as ``_active_cache``: the FIFO queue
        #: head and the WEIGHTED weight total (None when stale).
        self._head: Optional[StreamHandle] = None
        self._wtotal: Optional[float] = None
        #: Fast engine, FIFO only: the one stream carrying the connection's
        #: rate since the last assignment (every other stream's rate is
        #: 0.0), or None before the first.
        self._holder: Optional[StreamHandle] = None
        self._last_busy_at = link.sim.now
        #: Cached loss RNG, reseeded per draw on the (ordinal, loss_count)
        #: scheme so sequences match the historical fresh-instance-per-draw
        #: behaviour without the per-loss allocation.
        self._rng: Optional[random.Random] = None
        self._loss_count = 0
        #: Bytes until this connection's next simulated packet loss.
        self._bytes_to_next_loss = self._sample_loss_gap(seed_extra=0)

    def _sample_loss_gap(self, seed_extra: int) -> float:
        """Deterministic exponential gap between losses, in bytes."""
        if self.link.loss_rate <= 0:
            return float("inf")
        seed = (self.ordinal + 1) * 9973 + seed_extra
        rng = self._rng
        if rng is None:
            # repro: allow[PERF402] constructed once and cached on
            # self._rng; later calls only reseed it.
            rng = self._rng = random.Random(seed)
        else:
            rng.seed(seed)
        mean_gap = 1460.0 / self.link.loss_rate
        return -mean_gap * math.log(max(1e-12, rng.random()))

    def _register_delivery(self, delivered: float) -> None:
        """Loss events halve the window (TCP congestion avoidance)."""
        if self.link.loss_rate <= 0:
            return
        self._bytes_to_next_loss -= delivered
        while self._bytes_to_next_loss <= 0:
            self._loss_count += 1
            self.cwnd = max(INITIAL_CWND_BYTES, self.cwnd / 2.0)
            self._bytes_to_next_loss += self._sample_loss_gap(
                seed_extra=self._loss_count
            )

    def rate_cap(self) -> float:
        """Maximum byte rate this connection's window currently allows."""
        if self.rtt <= 0:
            return float("inf")
        return min(self.cwnd, MAX_CWND_BYTES) / self.rtt

    def grow_window(self, delivered_bytes: float) -> None:
        if self.rtt <= 0:
            return
        self.cwnd = min(MAX_CWND_BYTES, self.cwnd + delivered_bytes)

    def reset_window(self) -> None:
        """Collapse the window to its initial value (injected loss burst)."""
        self.cwnd = INITIAL_CWND_BYTES

    def start_stream(
        self,
        nbytes: float,
        on_complete: Callable[[], None],
        weight: float = 1.0,
        watches: Iterable[Tuple[float, Callable[[], None]]] = (),
    ) -> StreamHandle:
        """Start a body of ``nbytes`` and register its offset ``watches``.

        The watches are stored before the stream's single link poke, so
        that poke's horizon already accounts for them and no follow-up
        poke is needed; equal offsets fire in registration order.  A
        watch already due at registration fires after the poke's own
        callbacks, as a :meth:`StreamHandle.watch_offset` call made right
        after this one would.
        """
        if nbytes < 0:
            raise ValueError("stream size must be non-negative")
        # TCP slow-start-after-idle: a connection quiet for more than an
        # RTO collapses its window back to the initial value.  This is why
        # six sporadically-used HTTP/1.1 connections lose to one
        # continuously-busy HTTP/2 connection.
        if not self.active_streams():
            idle = self.link.sim.now - self._last_busy_at
            if idle > max(0.2, 2.0 * self.rtt):
                self.cwnd = INITIAL_CWND_BYTES
        stream = StreamHandle(self, nbytes, on_complete, weight)
        self.streams.append(stream)
        self.invalidate_active()
        if nbytes == 0:
            stream.fire_ready(self.link.sim)
            self.streams.remove(stream)
            self.invalidate_active()
        due = [
            callback
            for offset, callback in watches
            if not stream._add_watch(offset, callback)
        ]
        if nbytes:
            self.link.poke()
        for callback in due:
            self.link.sim.call_soon(callback)
        return stream

    def invalidate_active(self) -> None:
        self._active_cache = None
        self._head = None
        self._wtotal = None
        # Channel membership in the link's busy set may have changed too.
        self.link._busy_cache = None

    def active_streams(self) -> List[StreamHandle]:
        active = self._active_cache
        if active is None:
            active = self._active_cache = [
                stream for stream in self.streams if not stream.done
            ]
        return active

    def audit_fifo(self, head: StreamHandle) -> None:
        """Check that FIFO scheduling serves only ``head``, the queue head."""
        active = self.active_streams()
        audit.fifo_discipline(
            self.ordinal,
            [(stream.weight, stream.id) for stream in active if stream.rate > 0],
            (head.weight, head.id),
            [(stream.weight, stream.id) for stream in active],
        )

    def assign_rates(self, byte_rate: float) -> None:
        """Distribute this connection's byte rate across its streams."""
        active = self.active_streams()
        for stream in active:
            stream.rate = 0.0
        if not active:
            return
        if self.scheduling is StreamScheduling.FIFO:
            head = min(active, key=_fifo_order)
            head.rate = byte_rate
            if audit.ENABLED:
                self.audit_fifo(head)
        elif self.scheduling is StreamScheduling.WEIGHTED:
            total = sum(stream.weight for stream in active)
            for stream in active:
                stream.rate = byte_rate * stream.weight / total
        else:
            each = byte_rate / len(active)
            for stream in active:
                stream.rate = each


class AccessLink:
    """The shared last-mile downlink."""

    def __init__(
        self,
        sim: SimulatorLike,
        downlink_bps: float,
        loss_rate: float = 0.0,
    ):
        if downlink_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss rate must be in [0, 1)")
        self.sim = sim
        self.downlink_bps = downlink_bps
        #: Per-packet loss probability (halves a connection's window).
        self.loss_rate = loss_rate
        self.channels: List[Channel] = []
        self._last_update = sim.now
        #: The fast engine's simulator, or None on the reference engine.
        #: Only the fast engine fast-forwards, batches silent runs and
        #: skips streams that cannot move (see the module docstring).
        self._raw_sim = sim if isinstance(sim, ArraySimulator) else None
        #: Reference engine: handle of the pending refresh tick.
        self._tick_event: Optional[Event] = None
        #: Fast engine: the refresh tick skips the per-event
        #: :class:`EventHandle`; the link keeps only the raw storage slot
        #: (-1 when no tick is pending).  The invariant that makes
        #: slot-cancel safe: the slot is recorded only by
        #: :meth:`_reschedule` and cleared either there (cancel) or at
        #: :meth:`_tick` entry (execution), so a recorded slot is always
        #: still pending in the heap.
        self._tick_slot = -1
        self._in_poke = False
        #: Fast engine: memoised busy-channel list (in ``channels``
        #: order, which the allocator's budget walk observes bitwise).
        #: Invalidated by every stream start/completion/abort via
        #: :meth:`Channel.invalidate_active`; None when stale.
        self._busy_cache: Optional[List[Channel]] = None
        #: Fast engine: the slow-start refresh span (half the busy set's
        #: smallest RTT; 0.0 if none), derived with ``_busy_cache``.
        self._refresh = 0.0
        #: Fast engine: force the next :meth:`_step` to run its full
        #: watch/completion scan even at zero dt (set when a batch run
        #: exits on a threshold crossing it has not fired yet).
        self._scan_forced = False
        #: Total body bytes delivered (for accounting tests).
        self.bytes_delivered = 0.0
        #: Bytes carried by streams that already finished (completed or
        #: aborted).  ``bytes_retired`` plus the in-flight streams'
        #: ``bytes_done`` must always track ``bytes_delivered``.
        self.bytes_retired = 0.0
        #: Seconds during which at least one stream was receiving bytes.
        self.busy_time = 0.0
        #: Deterministic perf counters: poke sweeps (direct calls plus one
        #: per refresh step, inline or heap), refresh steps taken inline,
        #: and general iterative water-filling solves.
        self.pokes = 0
        self.ff_steps = 0
        self.rate_recomputes = 0
        #: Fast-engine counters: homogeneous runs executed, total steps
        #: those runs absorbed, and closed-form water-filling hits.
        self.batch_runs = 0
        self.batch_steps = 0
        self.wf_fast_hits = 0

    def open_channel(
        self,
        scheduling: StreamScheduling = StreamScheduling.FAIR,
        rtt: float = 0.0,
    ) -> Channel:
        channel = Channel(self, scheduling, rtt=rtt)
        self.channels.append(channel)
        return channel

    # -- internals -----------------------------------------------------------

    def _advance(self) -> None:
        now = self.sim.now
        dt = now - self._last_update
        if dt > _EPS_TIME:
            # Hot loop: skip idle channels outright (growing a window by
            # zero bytes and registering a zero-byte delivery are no-ops)
            # and accumulate the link total in a local.  The float
            # operations and their order are identical to the naive loop.
            delivered_total = self.bytes_delivered
            lossy = self.loss_rate > 0
            busy = False
            for channel in self.channels:
                active = channel.active_streams()
                if not active:
                    continue
                busy = True
                channel_delivered = 0.0
                for stream in active:
                    delta = stream.rate * dt
                    stream.bytes_done = min(
                        stream.bytes_total, stream.bytes_done + delta
                    )
                    channel_delivered += delta
                    delivered_total += delta
                channel.grow_window(channel_delivered)
                if lossy:
                    channel._register_delivery(channel_delivered)
                if channel_delivered > 0:
                    channel._last_busy_at = now
            if busy:
                self.busy_time += dt
            self.bytes_delivered = delivered_total
        self._last_update = now

    def _busy_channels(self) -> List[Channel]:
        """Fast engine: the memoised list of channels carrying streams.

        In ``channels`` order, which the allocator's budget walk observes
        bitwise.  A rebuild also re-derives the refresh span.  Under audit
        every cache hit is checked against a fresh recomputation.
        """
        busy = self._busy_cache
        if busy is None:
            busy = self._busy_cache = [
                channel
                for channel in self.channels
                if channel.active_streams()
            ]
            min_rtt = min(
                (channel.rtt for channel in busy if channel.rtt > 0),
                default=0.0,
            )
            self._refresh = min_rtt / 2.0 if min_rtt > 0 else 0.0
        elif audit.ENABLED:
            audit.busy_set_matches(
                [channel.id for channel in busy],
                [
                    channel.id
                    for channel in self.channels
                    if channel.active_streams()
                ],
            )
        return busy

    def _assign_and_horizon(self) -> Optional[float]:
        """Assign per-stream rates; return seconds until they next change.

        Returns None when the link is idle or nothing bounds the current
        piecewise-constant segment (no refresh tick is needed).  The body
        below is the reference engine's; the fast engine runs
        :meth:`_assign_and_horizon_batched` instead.
        """
        if self._raw_sim is not None:
            return self._assign_and_horizon_batched()
        busy = [
            channel for channel in self.channels if channel.active_streams()
        ]
        if not busy:
            return None
        if len(busy) == 1:
            # Fast path for the dominant case (one connection carrying
            # traffic, e.g. HTTP/2 push-all): same arithmetic as the
            # generic path below, minus the list and method-call churn.
            channel = busy[0]
            cap = channel.rate_cap()
            rate = min(self.downlink_bps / 8.0, cap)
            channel.assign_rates(rate)
            cwnd_limited = cap <= rate + _EPS_BYTES
            horizon = None
            for stream in channel.active_streams():
                stream_rate = stream.rate
                if stream_rate <= 0:
                    continue
                target = stream.bytes_total
                cursor = stream._watch_cursor
                if cursor < len(stream._watches):
                    watch = stream._watches[cursor][0]
                    if watch < target:
                        target = watch
                remaining = target - stream.bytes_done
                eta = remaining / stream_rate if remaining > 0 else 0.0
                if horizon is None or eta < horizon:
                    horizon = eta
        else:
            # Water-filling: equal shares, with cwnd-capped surplus
            # recycled (see :func:`repro.net.flow.waterfill`).
            caps = [channel.rate_cap() for channel in busy]
            self.rate_recomputes += 1
            alloc = waterfill(caps, self.downlink_bps / 8.0)
            cwnd_limited = False
            for channel, rate, cap in zip(busy, alloc, caps):
                channel.assign_rates(rate)
                if cap <= rate + _EPS_BYTES:
                    cwnd_limited = True
            horizon = None
            for channel in busy:
                for stream in channel.active_streams():
                    if stream.rate <= 0:
                        continue
                    eta = stream.next_threshold() / stream.rate
                    if horizon is None or eta < horizon:
                        horizon = eta
        if cwnd_limited:
            # Windows open continuously; refresh piecewise-constant rates
            # a few times per RTT while any connection is in slow start.
            min_rtt = min(
                (channel.rtt for channel in busy if channel.rtt > 0),
                default=0.0,
            )
            if min_rtt > 0:
                refresh = min_rtt / 2.0
                horizon = refresh if horizon is None else min(horizon, refresh)
        return horizon

    def _assign_and_horizon_batched(self) -> Optional[float]:
        """Loop-fused :meth:`_assign_and_horizon` equivalent.

        The fast engine's assignment.  Bit-identical to the reference
        body by construction:

        * A FIFO connection's only rated stream is its ``_holder``, so
          instead of zeroing every active stream the assignment zeroes
          the previous holder alone when the head changes hands.  The
          head itself and a WEIGHTED connection's weight total depend
          only on the connection's membership, so they are memoised on
          the channel (reset by :meth:`Channel.invalidate_active`); the
          refresh span is memoised with the busy list.
        * The FAIR horizon uses one division per connection instead of
          one per stream: all streams share the rate ``each``, and IEEE
          division by a positive constant is monotonic, so
          ``min_j(rem_j) / each`` equals ``min_j(rem_j / each)`` exactly
          (a non-positive minimum collapses to the same 0.0 the
          reference's ``max(0.0, ...)`` produces).

        Under audit every closed-form allocation is checked against the
        general iterative solver, and every FIFO assignment against the
        queue discipline.
        """
        busy = self._busy_channels()
        if not busy:
            return None
        total_byte_rate = self.downlink_bps / 8.0
        caps: List[float] = []
        for channel in busy:
            rtt = channel.rtt
            if rtt > 0:
                cwnd = channel.cwnd
                caps.append(
                    (cwnd if cwnd <= MAX_CWND_BYTES else MAX_CWND_BYTES)
                    / rtt
                )
            else:
                caps.append(_INF)
        if len(busy) == 1:
            cap = caps[0]
            alloc = [total_byte_rate if total_byte_rate <= cap else cap]
        else:
            small = waterfill_small(caps, total_byte_rate)
            if small is not None:
                self.wf_fast_hits += 1
                if audit.ENABLED:
                    audit.waterfill_equivalent(
                        caps,
                        total_byte_rate,
                        small,
                        waterfill(caps, total_byte_rate),
                    )
                alloc = small
            else:
                self.rate_recomputes += 1
                alloc = waterfill(caps, total_byte_rate)
        cwnd_limited = False
        horizon: Optional[float] = None
        for i, channel in enumerate(busy):
            rate = alloc[i]
            if caps[i] <= rate + _EPS_BYTES:
                cwnd_limited = True
            scheduling = channel.scheduling
            if scheduling is StreamScheduling.FIFO:
                # The head takes the whole connection rate, so it alone
                # bounds the horizon.
                head = channel._head
                if head is None:
                    head = channel._head = min(
                        channel.active_streams(), key=_fifo_order
                    )
                holder = channel._holder
                if holder is not head:
                    if holder is not None and not holder.done:
                        holder.rate = 0.0
                    channel._holder = head
                head.rate = rate
                if audit.ENABLED:
                    channel.audit_fifo(head)
                if rate > 0:
                    target = head.bytes_total
                    watches = head._watches
                    if watches:
                        offset = watches[head._watch_cursor][0]
                        if offset < target:
                            target = offset
                    rem = target - head.bytes_done
                    eta = rem / rate if rem > 0 else 0.0
                    if horizon is None or eta < horizon:
                        horizon = eta
            elif scheduling is StreamScheduling.WEIGHTED:
                active = channel.active_streams()
                wtotal = channel._wtotal
                if wtotal is None:
                    wtotal = channel._wtotal = sum(
                        stream.weight for stream in active
                    )
                for stream in active:
                    srate = rate * stream.weight / wtotal
                    stream.rate = srate
                    if srate <= 0:
                        continue
                    target = stream.bytes_total
                    watches = stream._watches
                    if watches:
                        offset = watches[stream._watch_cursor][0]
                        if offset < target:
                            target = offset
                    rem = target - stream.bytes_done
                    eta = rem / srate if rem > 0 else 0.0
                    if horizon is None or eta < horizon:
                        horizon = eta
            else:
                active = channel.active_streams()
                each = rate / len(active)
                min_rem = _INF
                for stream in active:
                    stream.rate = each
                    target = stream.bytes_total
                    watches = stream._watches
                    if watches:
                        offset = watches[stream._watch_cursor][0]
                        if offset < target:
                            target = offset
                    rem = target - stream.bytes_done
                    if rem < min_rem:
                        min_rem = rem
                if each > 0:
                    eta = min_rem / each if min_rem > 0 else 0.0
                    if horizon is None or eta < horizon:
                        horizon = eta
        if cwnd_limited:
            refresh = self._refresh
            if refresh > 0:
                if horizon is None or horizon > refresh:
                    horizon = refresh
        return horizon

    def _reschedule(self, horizon: Optional[float]) -> None:
        raw = self._raw_sim
        if raw is not None:
            # Handle-free tick bookkeeping on the fast engine: the
            # recorded slot is pending by the invariant documented at
            # ``_tick_slot``, so a plain slot-cancel replaces the handle.
            # Sequence numbers, heap entries and counters are identical
            # to the handle path.
            slot = self._tick_slot
            if slot >= 0:
                raw._cancel_slot(slot)
                self._tick_slot = -1
            if horizon is not None:
                self._tick_slot = raw.schedule_raw(
                    horizon if horizon > 0.0 else 0.0, self._tick
                )
            return
        if self._tick_event is not None:
            self._tick_event.cancel()
            self._tick_event = None
        if horizon is not None:
            self._tick_event = self.sim.schedule(max(0.0, horizon), self._tick)

    def _step(self) -> None:
        """Integrate progress to ``sim.now`` and fire due watches/completions."""
        if self._raw_sim is not None:
            self._step_batched()
            return
        self._advance()
        sim = self.sim
        for channel in self.channels:
            retired = False
            # fire_ready only defers callbacks (call_soon), so iterating
            # the live list is safe; rebuild it only when a stream ended.
            for stream in channel.streams:
                stream.fire_ready(sim)
                if stream.done:
                    retired = True
            if retired:
                # repro: allow[PERF401] compaction list is built only on
                # the ticks where a stream actually retired.
                channel.streams = [
                    stream for stream in channel.streams if not stream.done
                ]

    def _step_batched(self) -> None:
        """Fused single-walk :meth:`_step` for the fast engine.

        Integration (:meth:`_advance`'s body, with window growth inlined)
        and the watch/completion scan run in one pass over the busy
        channels instead of two over all of them.  Interleaving them per
        channel is exact: a channel's integration touches only its own
        streams' ``rate`` / ``bytes_done`` and its own window and loss
        state, and a scan only marks that channel's streams done and
        defers callbacks through ``call_soon`` — nothing a later channel's
        integration reads.  The link-level delivered/busy accumulators are
        carried in locals and written back once, in the same channel order
        as the two-pass reference, so every float lands identically.

        Only streams that can move are visited: every active stream of a
        FAIR or WEIGHTED connection, but only the ``_holder`` of a FIFO
        one.  Skipping the rest is exact.  A zero-rate stream adds ``0.0``
        to its own bytes and to both delivered totals.  A stream whose
        ``bytes_done`` did not change cannot newly cross a watch or its
        end, because ``watch_offset`` fires already-due offsets itself.
        An idle channel holds only done streams awaiting pruning, which
        nothing reads; like a busy channel's, they are pruned when one of
        its streams next retires.  For the same reason a zero-dt sweep is
        a no-op and returns at once, unless a batch run just crossed a
        threshold and forced the scan.

        The scan inlines :meth:`StreamHandle.fire_ready`'s entry guards
        (a due watch, else a due completion) so the ~90% of streams with
        nothing due skip the call entirely.  Matching the reference
        integrator, the sub-epsilon time sliver is dropped, not
        accumulated.
        """
        sim = self.sim
        now = sim.now
        dt = now - self._last_update
        self._last_update = now
        moved = dt > _EPS_TIME
        if not moved and not self._scan_forced:
            return
        self._scan_forced = False
        eps = _EPS_BYTES
        delivered_total = self.bytes_delivered
        lossy = self.loss_rate > 0
        busy = self._busy_channels()
        for channel in busy:
            if channel.scheduling is StreamScheduling.FIFO:
                holder = channel._holder
                movers: Sequence[StreamHandle] = (
                    () if holder is None or holder.done else (holder,)
                )
            else:
                movers = channel.active_streams()
            if moved:
                channel_delivered = 0.0
                for stream in movers:
                    delta = stream.rate * dt
                    grown = stream.bytes_done + delta
                    total = stream.bytes_total
                    stream.bytes_done = total if total <= grown else grown
                    channel_delivered += delta
                    delivered_total += delta
                if channel.rtt > 0:
                    grown_w = channel.cwnd + channel_delivered
                    channel.cwnd = (
                        MAX_CWND_BYTES
                        if MAX_CWND_BYTES <= grown_w
                        else grown_w
                    )
                if lossy:
                    channel._register_delivery(channel_delivered)
                if channel_delivered > 0:
                    channel._last_busy_at = now
            retired = False
            for stream in movers:
                watches = stream._watches
                if (
                    watches
                    and watches[stream._watch_cursor][0]
                    <= stream.bytes_done + eps
                ) or stream.bytes_done + eps >= stream.bytes_total:
                    stream.fire_ready(sim)
                    if stream.done:
                        retired = True
            if retired:
                # repro: allow[PERF401] compaction list is built only on
                # the ticks where a stream actually retired.
                channel.streams = [
                    stream for stream in channel.streams if not stream.done
                ]
        if moved:
            if busy:
                self.busy_time += dt
            self.bytes_delivered = delivered_total

    def poke(self) -> None:
        """Advance progress, fire due watches/completions, recompute rates."""
        if self._in_poke:
            return
        self._in_poke = True
        try:
            self.pokes += 1
            self._step()
            self._reschedule(self._assign_and_horizon())
        finally:
            self._in_poke = False

    # repro: hotpath
    def _tick(self) -> None:
        """Refresh-tick callback: one poke, then fast-forward while silent.

        Each loop iteration performs exactly the work one scheduled poke
        would have, at exactly the time that poke would have run.  On the
        fast engine the jump to the next step happens via
        :meth:`ArraySimulator.advance_inline`, which refuses whenever any
        pending heap event — a foreign model's callback, a watch just
        fired through ``call_soon``, or the run's ``until`` cap — could
        observe the coalescing.  A refused advance, and every step on the
        reference engine, schedules a regular tick instead, so both
        engines run the same steps at the same times.
        """
        if self._in_poke:
            return
        self._tick_event = None
        self._tick_slot = -1
        raw = self._raw_sim
        self._in_poke = True
        try:
            while True:
                self.pokes += 1
                self._step()
                horizon = self._assign_and_horizon()
                if (
                    horizon is None
                    or raw is None
                    or not raw.advance_inline(raw.now + max(0.0, horizon))
                ):
                    # repro: allow[PERF403] at most one _reschedule call
                    # runs per poke — the loop returns right after it.
                    self._reschedule(horizon)
                    return
                self.ff_steps += 1
                if not audit.ENABLED:
                    # Batch the rest of the silent run in locals.  Under
                    # audit the batch loop stands down so the generic
                    # loop above validates every step individually.
                    self._run_batch()
        finally:
            self._in_poke = False

    # repro: hotpath
    def _run_batch(self) -> None:
        """Execute a homogeneous run of silent refresh steps in one call.

        Any number of busy connections, any scheduling mode, any stream
        count.  During a silent window nothing outside the link runs, so
        the busy set, each connection's scheduling head/weights, and
        every stream's next threshold are all *fixed* — they are hoisted
        into parallel local arrays once, and each step then performs the
        reference loop's float operations (delivery in channel-then-
        stream order, window growth, loss draws, allocation, horizon) on
        those locals in the identical order.  The run ends at the first
        threshold crossing or bounds refusal (``run(until=)`` cap, next
        heap event, non-positive horizon) — exactly where the generic
        loop's ``advance_inline`` would refuse — and writes all state
        back, flagging :meth:`_step` to run the boundary scan that fires
        the crossing.  Step counters mirror one-per-tick accounting, so
        the executed trace stays bit-identical.
        """
        busy = self._busy_channels()
        nch = len(busy)
        if nch == 0:
            return
        # -- hoist fixed per-channel / per-stream state into locals ------
        actives: List[List[StreamHandle]] = []
        rtts: List[float] = []
        cwnds: List[float] = []
        btnls: List[float] = []
        loss_counts: List[int] = []
        last_busys: List[Optional[float]] = []
        heads: List[int] = []
        wtotals: List[float] = []
        modes: List[int] = []  # 0 FAIR, 1 FIFO, 2 WEIGHTED
        dones: List[List[float]] = []
        totals: List[List[float]] = []
        targets: List[List[float]] = []
        rates: List[List[float]] = []
        modes_append = modes.append
        heads_append = heads.append
        wtotals_append = wtotals.append
        for channel in busy:
            active = channel.active_streams()
            if not active:
                return
            actives.append(active)
            rtts.append(channel.rtt)
            cwnds.append(channel.cwnd)
            btnls.append(channel._bytes_to_next_loss)
            loss_counts.append(channel._loss_count)
            last_busys.append(None)
            if channel.scheduling is StreamScheduling.FIFO:
                modes_append(1)
                heads_append(active.index(min(active, key=_fifo_order)))
                wtotals_append(0.0)
            elif channel.scheduling is StreamScheduling.WEIGHTED:
                modes_append(2)
                heads_append(0)
                wtotals_append(sum(stream.weight for stream in active))
            else:
                modes_append(0)
                heads_append(0)
                wtotals_append(0.0)
            # repro: allow[PERF401] entry-time snapshot arrays: built once
            # per batch so the inner loop below can run allocation-free.
            dones.append([stream.bytes_done for stream in active])
            # repro: allow[PERF401] see above — once-per-batch snapshot.
            totals.append([stream.bytes_total for stream in active])
            # repro: allow[PERF401] see above — once-per-batch snapshot.
            rates.append([stream.rate for stream in active])
            ch_targets = []
            for stream in active:
                target = stream.bytes_total
                cursor = stream._watch_cursor
                if cursor < len(stream._watches):
                    watch = stream._watches[cursor][0]
                    if watch < target:
                        target = watch
                ch_targets.append(target)
            targets.append(ch_targets)
        sim = self.sim
        next_heap = sim.peek_time()
        until = sim._until
        total_rate = self.downlink_bps / 8.0
        lossy = self.loss_rate > 0
        refresh = self._refresh
        now = sim._now
        last_update = self._last_update
        delivered = self.bytes_delivered
        busy_time = self.busy_time
        steps = 0
        crossing = False
        wf_fast = 0
        range_nch = range(nch)
        while True:
            dt = now - last_update
            if dt > _EPS_TIME:
                for i in range_nch:
                    ch_rates = rates[i]
                    ch_dones = dones[i]
                    ch_totals = totals[i]
                    ch_delivered = 0.0
                    for j in range(len(ch_rates)):
                        delta = ch_rates[j] * dt
                        grown = ch_dones[j] + delta
                        total = ch_totals[j]
                        ch_dones[j] = total if total <= grown else grown
                        ch_delivered += delta
                        delivered += delta
                    if rtts[i] > 0:
                        cwnd = cwnds[i] + ch_delivered
                        cwnds[i] = (
                            MAX_CWND_BYTES
                            if MAX_CWND_BYTES <= cwnd
                            else cwnd
                        )
                    if lossy:
                        btnl = btnls[i] - ch_delivered
                        while btnl <= 0:
                            loss_counts[i] += 1
                            halved = cwnds[i] / 2.0
                            cwnds[i] = (
                                INITIAL_CWND_BYTES
                                if INITIAL_CWND_BYTES >= halved
                                else halved
                            )
                            btnl += busy[i]._sample_loss_gap(
                                seed_extra=loss_counts[i]
                            )
                        btnls[i] = btnl
                    if ch_delivered > 0:
                        last_busys[i] = now
                busy_time += dt
            last_update = now
            # -- threshold crossing ends the run (scan fires it) ---------
            for i in range_nch:
                ch_dones = dones[i]
                ch_targets = targets[i]
                for j in range(len(ch_dones)):
                    if ch_dones[j] + _EPS_BYTES >= ch_targets[j]:
                        crossing = True
                        break
                if crossing:
                    break
            if crossing:
                break
            # -- allocate: water-filling over current window caps --------
            # repro: allow[PERF401] caps are recomputed only when a window
            # boundary forces a fresh water-filling pass.
            caps = [
                min(cwnds[i], MAX_CWND_BYTES) / rtts[i]
                if rtts[i] > 0
                else float("inf")
                for i in range_nch
            ]
            if nch == 1:
                cap = caps[0]
                alloc = [total_rate if total_rate < cap else cap]
            elif nch <= 3:
                alloc = waterfill_small(caps, total_rate) or []
                wf_fast += 1
            else:
                alloc = waterfill(caps, total_rate)
            cwnd_limited = False
            for i in range_nch:
                rate = alloc[i]
                if caps[i] <= rate + _EPS_BYTES:
                    cwnd_limited = True
                ch_rates = rates[i]
                mode = modes[i]
                if mode == 0:
                    each = rate / len(ch_rates)
                    for j in range(len(ch_rates)):
                        ch_rates[j] = each
                elif mode == 1:
                    for j in range(len(ch_rates)):
                        ch_rates[j] = 0.0
                    ch_rates[heads[i]] = rate
                else:
                    wtotal = wtotals[i]
                    weights = actives[i]
                    for j in range(len(ch_rates)):
                        ch_rates[j] = rate * weights[j].weight / wtotal
            # -- horizon: next threshold or slow-start refresh -----------
            horizon: Optional[float] = None
            for i in range_nch:
                ch_rates = rates[i]
                ch_dones = dones[i]
                ch_targets = targets[i]
                for j in range(len(ch_rates)):
                    rate = ch_rates[j]
                    if rate <= 0:
                        continue
                    remaining = ch_targets[j] - ch_dones[j]
                    eta = remaining / rate if remaining > 0 else 0.0
                    if horizon is None or eta < horizon:
                        horizon = eta
            if cwnd_limited and refresh > 0:
                horizon = (
                    refresh if horizon is None else min(horizon, refresh)
                )
            if horizon is None:
                break
            # -- the advance_inline bounds, on locals --------------------
            target_t = now + (horizon if horizon > 0.0 else 0.0)
            if target_t <= now:
                break
            if until is not None and target_t > until:
                break
            if next_heap is not None and next_heap <= target_t:
                break
            now = target_t
            steps += 1
        # -- write the hoisted state back --------------------------------
        for i in range_nch:
            channel = busy[i]
            ch_dones = dones[i]
            ch_rates = rates[i]
            active = actives[i]
            for j in range(len(active)):
                stream = active[j]
                stream.bytes_done = ch_dones[j]
                stream.rate = ch_rates[j]
            channel.cwnd = cwnds[i]
            if lossy:
                channel._bytes_to_next_loss = btnls[i]
                channel._loss_count = loss_counts[i]
            if last_busys[i] is not None:
                channel._last_busy_at = last_busys[i]
        self.bytes_delivered = delivered
        self.busy_time = busy_time
        self._last_update = last_update
        sim._now = now
        sim.inline_advances += steps
        self.pokes += steps
        self.ff_steps += steps
        self.wf_fast_hits += wf_fast
        if steps:
            self.batch_runs += 1
            self.batch_steps += steps
        if crossing:
            self._scan_forced = True

    def active_stream_count(self) -> int:
        return sum(
            len(channel.active_streams()) for channel in self.channels
        )
