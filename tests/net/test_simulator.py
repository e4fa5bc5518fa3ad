"""Unit tests for the discrete-event engine."""

import pytest

from repro.net.simulator import ArraySimulator, Simulator


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(2.0, lambda: order.append("b"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(3.0, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_schedule_order(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, lambda: order.append(1))
        sim.schedule(1.0, lambda: order.append(2))
        sim.schedule(1.0, lambda: order.append(3))
        sim.run()
        assert order == [1, 2, 3]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule(-0.1, lambda: None)

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(5.0, lambda: seen.append(sim.now))
        assert sim.run() == 5.0
        assert seen == [5.0]

    def test_schedule_at_absolute(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: sim.schedule_at(4.0, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [4.0]

    def test_schedule_at_in_past_clamps_to_now(self):
        sim = Simulator()
        seen = []

        def later():
            sim.schedule_at(0.5, lambda: seen.append(sim.now))

        sim.schedule(2.0, later)
        sim.run()
        assert seen == [2.0]

    def test_call_soon_runs_after_pending_same_time(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, lambda: (order.append("first"), sim.call_soon(lambda: order.append("soon")))[0])
        sim.schedule(1.0, lambda: order.append("second"))
        sim.run()
        assert order == ["first", "second", "soon"]


class TestCancellation:
    def test_cancelled_event_skipped(self):
        sim = Simulator()
        seen = []
        event = sim.schedule(1.0, lambda: seen.append("no"))
        event.cancel()
        sim.run()
        assert seen == []

    def test_peek_time_skips_cancelled(self):
        sim = Simulator()
        first = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        first.cancel()
        assert sim.peek_time() == 2.0

    def test_pending_counts_live_events(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        dead = sim.schedule(2.0, lambda: None)
        dead.cancel()
        assert sim.pending() == 1

    def test_double_cancel_counts_once(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        dead = sim.schedule(2.0, lambda: None)
        dead.cancel()
        dead.cancel()
        assert sim.pending() == 1

    def test_cancel_after_execution_does_not_skew_pending(self):
        sim = Simulator()
        events = []
        events.append(sim.schedule(1.0, lambda: None))
        sim.run()
        events[0].cancel()  # already executed; must not affect accounting
        sim.schedule(2.0, lambda: None)
        assert sim.pending() == 1

    def test_mass_cancellation_compacts_heap(self):
        sim = Simulator()
        live = sim.schedule(500.0, lambda: None)
        doomed = [sim.schedule(float(i + 1), lambda: None) for i in range(200)]
        for event in doomed:
            event.cancel()
        assert sim.compactions >= 1
        assert sim.pending() == 1
        assert sim.peek_time() == 500.0
        live.cancel()
        assert sim.pending() == 0

    def test_order_preserved_across_compaction(self):
        sim = Simulator()
        order = []
        keepers = [
            sim.schedule(float(i), lambda i=i: order.append(i))
            for i in range(5)
        ]
        doomed = [
            sim.schedule(float(i) + 0.5, lambda: order.append(-1))
            for i in range(200)
        ]
        for event in doomed:
            event.cancel()
        assert sim.compactions >= 1
        sim.run()
        assert order == [0, 1, 2, 3, 4]
        assert keepers[0].sim is None


class TestRunControls:
    def test_until_pauses_clock(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: seen.append(1))
        sim.schedule(10.0, lambda: seen.append(2))
        sim.run(until=5.0)
        assert seen == [1]
        assert sim.now == 5.0
        sim.run()
        assert seen == [1, 2]

    def test_max_events_guard(self):
        sim = Simulator()

        def loop():
            sim.schedule(0.0, loop)

        sim.schedule(0.0, loop)
        with pytest.raises(RuntimeError):
            sim.run(max_events=100)

    def test_not_reentrant(self):
        sim = Simulator()
        errors = []

        def reenter():
            try:
                sim.run()
            except RuntimeError as exc:
                errors.append(exc)

        sim.schedule(1.0, reenter)
        sim.run()
        assert len(errors) == 1

    def test_executed_counter(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.executed == 5


class TestInlineAdvance:
    """Fast-forward contract (the fast engine's :class:`ArraySimulator`):
    only silent, strictly-forward windows."""

    def test_advance_moves_clock_and_counts(self):
        sim = ArraySimulator()
        assert sim.advance_inline(1.5) is True
        assert sim.now == 1.5
        # The jump took no heap event.
        assert sim.events_scheduled == 0 and sim.executed == 0

    def test_declines_backward_and_same_time(self):
        sim = ArraySimulator()
        sim.advance_inline(1.0)
        assert sim.advance_inline(1.0) is False
        assert sim.advance_inline(0.5) is False
        assert sim.now == 1.0
        assert sim.peek_time() is None

    def test_declines_when_event_pending_at_or_before_target(self):
        sim = ArraySimulator()
        sim.schedule(2.0, lambda: None)
        assert sim.advance_inline(2.0) is False
        assert sim.advance_inline(2.5) is False
        assert sim.advance_inline(1.9) is True
        assert sim.now == 1.9

    def test_cancelled_head_does_not_block(self):
        """Only *live* events bound the jump; lazily-cancelled heap
        heads are drained by peek_time rather than declining forever."""
        sim = ArraySimulator()
        event = sim.schedule(2.0, lambda: None)
        sim.schedule(5.0, lambda: None)
        event.cancel()
        assert sim.advance_inline(3.0) is True
        assert sim.now == 3.0
        assert sim.advance_inline(6.0) is False

    def test_declines_past_run_until(self):
        sim = ArraySimulator()
        outcomes = []

        def probe():
            outcomes.append(sim.advance_inline(5.0))
            outcomes.append(sim.advance_inline(3.0))

        sim.schedule(1.0, probe)
        sim.run(until=4.0)
        assert outcomes == [False, True]

    def test_schedule_and_cancel_counters(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        event.cancel()
        assert sim.events_scheduled == 2
        assert sim.events_cancelled == 1

    def test_cancel_after_pop_not_counted(self):
        sim = Simulator()
        holder = []

        def fire():
            holder[0].cancel()

        holder.append(sim.schedule(1.0, fire))
        sim.run()
        assert sim.events_cancelled == 0


class TestArraySimulator:
    """The array-backed executor's own API surface and slot discipline.

    Ordering/cancellation semantics shared with the reference engine are
    covered by running the whole reference suite against a random
    program in :meth:`test_trace_matches_reference_engine`; the tests
    around it pin what is *new*: raw-slot scheduling, handle-free
    fire-and-forget paths, and slot recycling with generation guards.
    """

    def test_trace_matches_reference_engine(self):
        """A seeded random schedule/cancel program fires in the same
        order at the same times on both engines."""
        import random

        def run(sim_cls):
            sim = sim_cls()
            fired = []
            rng = random.Random(1234)
            handles = []

            def fire(tag):
                fired.append((tag, sim.now))
                if rng.random() < 0.4:
                    tag2 = f"{tag}.{len(fired)}"
                    handles.append(
                        sim.schedule(rng.choice([0.0, 0.5, 1.0]), lambda: fire(tag2))
                    )
                if handles and rng.random() < 0.3:
                    handles.pop(rng.randrange(len(handles))).cancel()

            for i in range(50):
                handles.append(
                    sim.schedule(rng.choice([0.0, 1.0, 2.0, 3.0]),
                                 lambda i=i: fire(str(i)))
                )
            final = sim.run()
            return fired, final, sim.events_scheduled, sim.events_cancelled

        assert run(Simulator) == run(ArraySimulator)

    def test_schedule_raw_returns_slot_without_handle(self):
        sim = ArraySimulator()
        seen = []
        slot = sim.schedule_raw(1.0, lambda: seen.append(sim.now))
        assert isinstance(slot, int)
        assert sim.events_scheduled == 1
        sim.run()
        assert seen == [1.0]

    def test_raw_slot_cancel(self):
        sim = ArraySimulator()
        seen = []
        slot = sim.schedule_raw(1.0, lambda: seen.append("raw"))
        sim.schedule(2.0, lambda: seen.append("kept"))
        sim._cancel_slot(slot)
        sim.run()
        assert seen == ["kept"]
        assert sim.events_cancelled == 1

    def test_schedule_drop_fires_and_returns_nothing(self):
        sim = ArraySimulator()
        seen = []
        assert sim.schedule_drop(1.0, lambda: seen.append(sim.now)) is None
        sim.run()
        assert seen == [1.0]

    def test_schedule_drop_rejects_negative_delay(self):
        with pytest.raises(ValueError):
            ArraySimulator().schedule_drop(-0.1, lambda: None)
        # The reference engine exposes the same method, same contract.
        with pytest.raises(ValueError):
            Simulator().schedule_drop(-0.1, lambda: None)

    def test_call_soon_returns_none_and_runs_after_same_time(self):
        sim = ArraySimulator()
        order = []

        def first():
            assert sim.call_soon(lambda: order.append("soon")) is None
            order.append("first")

        sim.schedule(1.0, first)
        sim.schedule(1.0, lambda: order.append("second"))
        sim.run()
        assert order == ["first", "second", "soon"]

    def test_slot_recycled_after_execution(self):
        """Popped slots return to the free list and are reused instead
        of growing the parallel arrays."""
        sim = ArraySimulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        storage = len(sim._cb)
        assert sim._free, "executed event's slot must be freed"
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
            sim.run()
        assert len(sim._cb) == storage, "slots must be recycled, not grown"

    def test_stale_handle_cancel_is_noop(self):
        """A handle whose slot was recycled must not cancel the new
        occupant: the generation (seq) guard catches it."""
        sim = ArraySimulator()
        seen = []
        stale = sim.schedule(1.0, lambda: seen.append("old"))
        sim.run()
        replacement = sim.schedule(1.0, lambda: seen.append("new"))
        assert replacement.slot == stale.slot, (
            "test setup: the new event must recycle the old slot"
        )
        stale.cancel()  # stale seq: must not touch the recycled slot
        sim.run()
        assert seen == ["old", "new"]
        assert sim.events_cancelled == 0

    def test_cancel_after_execution_does_not_skew_counters(self):
        sim = ArraySimulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.run()
        handle.cancel()
        assert sim.events_cancelled == 0
        assert sim.pending() == 0

    def test_mass_cancellation_compacts_in_place(self):
        sim = ArraySimulator()
        keep = []
        handles = [
            sim.schedule(1.0 + i * 0.01, lambda: keep.append(sim.now))
            for i in range(100)
        ]
        for handle in handles[10:]:
            handle.cancel()
        assert sim.compactions >= 1
        assert sim.pending() == 10
        sim.run()
        assert len(keep) == 10
