"""Unit tests for the fluid shared access link."""

import math
import random

import pytest

from repro.browser.engine import BrowserConfig, PageLoadEngine
from repro.calibration import DEFAULT_EVAL_HOUR
from repro.core.push_policy import PushPolicy
from repro.core.scheduler import FetchAsapScheduler
from repro.core.server import vroom_servers
from repro.experiments import engine_bench
from repro.net.http import ENGINES, NetworkConfig
from repro.net.link import (
    _LOSS_DRAW_MEMO,
    AccessLink,
    INITIAL_CWND_BYTES,
    StreamScheduling,
    _loss_log_draw,
)
from repro.net.simulator import ArraySimulator, Simulator


def make_link(bandwidth_bps=8.0e6, sim_class=Simulator):
    sim = sim_class()
    return sim, AccessLink(sim, bandwidth_bps)


class TestSingleStream:
    def test_transfer_time_matches_bandwidth(self):
        sim, link = make_link(8.0e6)  # 1 MB/s
        channel = link.open_channel()
        done = []
        channel.start_stream(1_000_000, lambda: done.append(sim.now))
        sim.run()
        assert done == [pytest.approx(1.0, rel=1e-6)]

    def test_zero_byte_stream_completes_immediately(self):
        sim, link = make_link()
        channel = link.open_channel()
        done = []
        channel.start_stream(0, lambda: done.append(sim.now))
        sim.run()
        assert done == [0.0]

    def test_negative_size_rejected(self):
        _, link = make_link()
        channel = link.open_channel()
        with pytest.raises(ValueError):
            channel.start_stream(-1, lambda: None)

    def test_bytes_delivered_accounting(self):
        sim, link = make_link()
        channel = link.open_channel()
        channel.start_stream(500_000, lambda: None)
        sim.run()
        assert link.bytes_delivered == pytest.approx(500_000, rel=1e-6)


class TestSharing:
    """Bandwidth sharing across and within connections.

    Runs on the reference engine; :class:`TestSharingFast` reruns every
    case on the fast engine.
    """

    sim_class = Simulator

    def make_link(self, bandwidth_bps=8.0e6):
        return make_link(bandwidth_bps, sim_class=self.sim_class)

    def test_two_connections_split_bandwidth(self):
        sim, link = self.make_link(8.0e6)
        done = []
        for _ in range(2):
            channel = link.open_channel()
            channel.start_stream(500_000, lambda: done.append(sim.now))
        sim.run()
        # Each gets 0.5 MB/s: both finish at 1.0 s.
        assert done == [pytest.approx(1.0, rel=1e-6)] * 2

    def test_completion_frees_bandwidth(self):
        sim, link = self.make_link(8.0e6)
        done = {}
        small_channel = link.open_channel()
        big_channel = link.open_channel()
        small_channel.start_stream(
            250_000, lambda: done.setdefault("small", sim.now)
        )
        big_channel.start_stream(
            750_000, lambda: done.setdefault("big", sim.now)
        )
        sim.run()
        # small: 0.25MB at 0.5MB/s -> 0.5s; big then speeds up:
        # 0.25MB done by 0.5s, remaining 0.5MB at 1MB/s -> 1.0s total.
        assert done["small"] == pytest.approx(0.5, rel=1e-6)
        assert done["big"] == pytest.approx(1.0, rel=1e-6)

    def test_fair_within_connection(self):
        sim, link = self.make_link(8.0e6)
        channel = link.open_channel(StreamScheduling.FAIR)
        done = []
        channel.start_stream(500_000, lambda: done.append(("a", sim.now)))
        channel.start_stream(500_000, lambda: done.append(("b", sim.now)))
        sim.run()
        assert [t for _, t in done] == [pytest.approx(1.0, rel=1e-6)] * 2

    def test_fifo_serializes_within_connection(self):
        sim, link = self.make_link(8.0e6)
        channel = link.open_channel(StreamScheduling.FIFO)
        done = []
        channel.start_stream(500_000, lambda: done.append(("a", sim.now)))
        channel.start_stream(500_000, lambda: done.append(("b", sim.now)))
        sim.run()
        assert done[0][0] == "a"
        assert done[0][1] == pytest.approx(0.5, rel=1e-6)
        assert done[1][1] == pytest.approx(1.0, rel=1e-6)

    @staticmethod
    def _priority_jump(sim_class, bandwidth_bps=8.0e6, rtt=0.0, jump_at=0.1):
        """A bulk FIFO transfer preempted mid-way by an urgent stream;
        returns the completion order and each stream's final state."""
        sim, link = make_link(bandwidth_bps, sim_class=sim_class)
        channel = link.open_channel(StreamScheduling.FIFO, rtt=rtt)
        done = []
        streams = [
            channel.start_stream(
                800_000, lambda: done.append(("bulk", sim.now)), weight=0.2
            )
        ]

        def start_urgent():
            streams.append(
                channel.start_stream(
                    100_000,
                    lambda: done.append(("urgent", sim.now)),
                    weight=2.0,
                )
            )

        sim.schedule(jump_at, start_urgent)
        sim.run()
        return done, [
            (stream.bytes_done, stream.completed_at) for stream in streams
        ]

    def test_fifo_priority_jump(self):
        """A heavier-weight stream preempts the FIFO head, and the hand-off
        in the middle of a transfer lands bit for bit on both engines —
        also in slow start, where the fast engine batches refresh steps
        on either side of it."""
        slow_start = {"bandwidth_bps": 8.0e7, "rtt": 0.2, "jump_at": 0.5}
        for shape in ({}, slow_start):
            done, streams = self._priority_jump(self.sim_class, **shape)
            assert done[0][0] == "urgent"
            assert (done, streams) == self._priority_jump(Simulator, **shape)

    def test_weighted_proportional_shares(self):
        sim, link = self.make_link(8.0e6)
        channel = link.open_channel(StreamScheduling.WEIGHTED)
        done = {}
        channel.start_stream(
            300_000, lambda: done.setdefault("heavy", sim.now), weight=3.0
        )
        channel.start_stream(
            100_000, lambda: done.setdefault("light", sim.now), weight=1.0
        )
        sim.run()
        # Rates 0.75 / 0.25 MB/s: both complete at 0.4 s.
        assert done["heavy"] == pytest.approx(0.4, rel=1e-4)
        assert done["light"] == pytest.approx(0.4, rel=1e-4)


class TestSharingFast(TestSharing):
    """Every sharing case on the fast engine (:class:`ArraySimulator`)."""

    sim_class = ArraySimulator


class TestOffsetWatches:
    def test_watch_fires_at_offset(self):
        sim, link = make_link(8.0e6)
        channel = link.open_channel()
        hits = []
        stream = channel.start_stream(1_000_000, lambda: None)
        stream.watch_offset(250_000, lambda: hits.append(sim.now))
        sim.run()
        assert hits == [pytest.approx(0.25, rel=1e-6)]

    def test_watch_past_offset_fires_immediately(self):
        sim, link = make_link(8.0e6)
        channel = link.open_channel()
        hits = []
        stream = channel.start_stream(1_000_000, lambda: None)

        def late_watch():
            stream.watch_offset(100, lambda: hits.append(sim.now))

        sim.schedule(0.5, late_watch)
        sim.run()
        assert hits == [pytest.approx(0.5, rel=1e-6)]

    def test_multiple_watches_ordered(self):
        sim, link = make_link(8.0e6)
        channel = link.open_channel()
        hits = []
        stream = channel.start_stream(1_000_000, lambda: None)
        stream.watch_offset(750_000, lambda: hits.append("late"))
        stream.watch_offset(250_000, lambda: hits.append("early"))
        sim.run()
        assert hits == ["early", "late"]


@pytest.mark.parametrize(
    "sim_class", [Simulator, ArraySimulator], ids=["reference", "fast"]
)
class TestStartStreamWatches:
    """Watches handed to ``start_stream`` cost the link a single poke."""

    def test_initial_watches_poke_once(self, sim_class):
        sim, link = make_link(8.0e6, sim_class=sim_class)  # 1 MB/s
        channel = link.open_channel()
        hits = []
        stream = channel.start_stream(
            1_000_000,
            lambda: hits.append("done"),
            watches=[
                (500_000, lambda: hits.append("b")),
                (250_000, lambda: hits.append("a")),
                (500_000, lambda: hits.append("b2")),
            ],
        )
        assert link.pokes == 1
        assert [offset for offset, _ in stream._watches] == [
            250_000, 500_000, 500_000
        ]
        sim.run()
        assert hits == ["a", "b", "b2", "done"]

    def test_due_watch_fires_after_the_pokes_callbacks(self, sim_class):
        """A watch already due at registration is deferred past the
        callbacks of the poke that starts the stream."""
        sim, link = make_link(8.0e6, sim_class=sim_class)  # 1 MB/s
        hits = []
        pokes = []
        second = link.open_channel()

        def start_second():
            before = link.pokes
            second.start_stream(
                1_000,
                lambda: hits.append("second done"),
                watches=[
                    (0.0, lambda: hits.append("due")),
                    (500.0, lambda: hits.append("second 500")),
                ],
            )
            pokes.append(link.pokes - before)

        # Scheduled before the first stream exists, so it runs ahead of
        # the link's own tick at 0.25 s: its poke is the one that finds
        # the first stream's watch due.
        sim.schedule(0.25, start_second)
        first = link.open_channel()
        stream = first.start_stream(1_000_000, lambda: None)
        stream.watch_offset(250_000, lambda: hits.append("first 250k"))
        sim.run()
        assert pokes == [1]
        assert hits[:2] == ["first 250k", "due"]
        assert hits.index("second 500") < hits.index("second done")


class TestCongestionWindow:
    def test_cold_connection_slower_than_warm(self):
        """Slow start: the same bytes take longer on a fresh window."""
        def timed_transfer(prewarm):
            sim, link = make_link(80.0e6)  # fat link: cwnd is the cap
            channel = link.open_channel(rtt=0.1)
            done = []
            if prewarm:
                channel.cwnd = 4.0e6
            channel.start_stream(1_000_000, lambda: done.append(sim.now))
            sim.run()
            return done[0]

        assert timed_transfer(prewarm=False) > timed_transfer(prewarm=True)

    def test_window_grows_with_delivery(self):
        sim, link = make_link(80.0e6)
        channel = link.open_channel(rtt=0.1)
        channel.start_stream(500_000, lambda: None)
        sim.run()
        assert channel.cwnd > INITIAL_CWND_BYTES

    def test_idle_reset(self):
        sim, link = make_link(80.0e6)
        channel = link.open_channel(rtt=0.1)
        channel.start_stream(500_000, lambda: None)
        sim.run()
        grown = channel.cwnd
        assert grown > INITIAL_CWND_BYTES

        def second_transfer():
            channel.start_stream(100, lambda: None)

        sim.schedule(5.0, second_transfer)  # long idle -> reset
        sim.run()
        assert channel.cwnd < grown

    def test_zero_rtt_uncapped(self):
        sim, link = make_link(8.0e6)
        channel = link.open_channel(rtt=0.0)
        assert channel.rate_cap() == float("inf")

    def test_loss_halves_window(self):
        sim = Simulator()
        link = AccessLink(sim, 80.0e6, loss_rate=0.05)
        channel = link.open_channel(rtt=0.1)
        channel.start_stream(2_000_000, lambda: None)
        sim.run()
        assert channel._loss_count > 0

    def test_loss_slows_transfers(self):
        def finish_time(loss_rate):
            sim = Simulator()
            link = AccessLink(sim, 80.0e6, loss_rate=loss_rate)
            channel = link.open_channel(rtt=0.1)
            channel.start_stream(2_000_000, lambda: None)
            return sim.run()

        assert finish_time(0.10) > finish_time(0.0)

    def test_loss_is_deterministic(self):
        def run_once():
            sim = Simulator()
            link = AccessLink(sim, 80.0e6, loss_rate=0.05)
            channel = link.open_channel(rtt=0.1)
            channel.start_stream(1_000_000, lambda: None)
            sim.run()
            return channel._loss_count

        assert run_once() == run_once()

    def test_invalid_loss_rate_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            AccessLink(sim, 8.0e6, loss_rate=1.5)

    def test_zero_loss_never_loses(self):
        sim, link = make_link(8.0e6)
        channel = link.open_channel(rtt=0.05)
        channel.start_stream(3_000_000, lambda: None)
        sim.run()
        assert channel._loss_count == 0

    def test_bandwidth_must_be_positive(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            AccessLink(sim, 0.0)


class TestWatchCursor:
    """Sorted-insert + cursor bookkeeping behind the watch list."""

    def test_interleaved_out_of_order_registrations(self):
        """Watches registered out of order, some mid-transfer after
        earlier ones fired, still fire in offset order at exact times."""
        sim, link = make_link(8.0e6)  # 1 MB/s
        channel = link.open_channel()
        hits = []
        stream = channel.start_stream(1_000_000, lambda: hits.append("done"))
        stream.watch_offset(600_000, lambda: hits.append("c"))
        stream.watch_offset(200_000, lambda: hits.append("a"))
        stream.watch_offset(400_000, lambda: hits.append("b"))

        def mid_transfer():
            # 300 KB arrived: "a" has fired, cursor sits before "b".
            stream.watch_offset(500_000, lambda: hits.append("b2"))
            stream.watch_offset(320_000, lambda: hits.append("a2"))

        sim.schedule(0.3, mid_transfer)
        sim.run()
        assert hits == ["a", "a2", "b", "b2", "c", "done"]

    def test_equal_offsets_fire_in_registration_order(self):
        sim, link = make_link(8.0e6)
        channel = link.open_channel()
        hits = []
        stream = channel.start_stream(1_000_000, lambda: None)
        stream.watch_offset(250_000, lambda: hits.append("first"))
        stream.watch_offset(250_000, lambda: hits.append("second"))
        sim.run()
        assert hits == ["first", "second"]

    def test_cursor_resets_after_drain(self):
        """Once every watch fired, a fresh registration starts a new
        list rather than appending after a stale cursor."""
        sim, link = make_link(8.0e6)
        channel = link.open_channel()
        hits = []
        stream = channel.start_stream(1_000_000, lambda: None)
        stream.watch_offset(100_000, lambda: hits.append("early"))

        def late():
            assert stream._watches == []
            assert stream._watch_cursor == 0
            stream.watch_offset(800_000, lambda: hits.append("late"))

        sim.schedule(0.5, late)
        sim.run()
        assert hits == ["early", "late"]


class TestFastForwardMode:
    """The fast engine (:class:`ArraySimulator`) must match the reference
    :class:`Simulator`'s event-per-tick link bit for bit."""

    def _drain(self, fast, loss_rate=0.0):
        sim = ArraySimulator() if fast else Simulator()
        link = AccessLink(sim, 8.0e6, loss_rate=loss_rate)
        channel = link.open_channel(rtt=0.2)
        done = []
        hits = []
        stream = channel.start_stream(4_000_000, lambda: done.append(sim.now))
        stream.watch_offset(1_000_000, lambda: hits.append(sim.now))
        sim.run()
        return done, hits, link.bytes_delivered, channel._loss_count

    def test_drain_identical_with_and_without(self):
        assert self._drain(False) == self._drain(True)

    def test_lossy_drain_identical_with_and_without(self):
        off = self._drain(False, loss_rate=0.02)
        on = self._drain(True, loss_rate=0.02)
        assert off == on
        assert off[3] > 0, "loss must actually occur for this to test RNG"

    def test_fast_forward_coalesces_heap_events(self):
        def events_scheduled(fast):
            sim = ArraySimulator() if fast else Simulator()
            link = AccessLink(sim, 8.0e6, loss_rate=0.02)
            channel = link.open_channel(rtt=0.2)
            channel.start_stream(8_000_000, lambda: None)
            sim.run()
            return sim.events_scheduled, link.pokes

        off_events, off_pokes = events_scheduled(False)
        on_events, on_pokes = events_scheduled(True)
        assert on_events < off_events / 2
        assert on_pokes == off_pokes, "inline steps must mirror heap ticks"


class TestBatchedRunDetection:
    """Boundary behaviour of the fast engine's batch-run detection.

    A *run* is a maximal stretch of silent refresh steps that
    ``_run_batch`` absorbs in one call.  These tests pin where runs must
    end (a foreign heap event, the ``run(until=)`` cap) and that a batch
    invocation absorbing zero steps is not counted as a run — each
    against the reference engine bit for bit.
    """

    def _build(self, batched, channels=2, size=2_000_000, rtt=0.2):
        # 100 MB/s link: far above the 4 MB/0.2 s window cap, so the
        # whole drain stays cwnd-limited and every silent stretch is a
        # sequence of rtt/2 = 0.1 s refresh steps the batch loop can eat.
        sim = ArraySimulator() if batched else Simulator()
        link = AccessLink(sim, 8.0e8)
        done = []
        for index in range(channels):
            channel = link.open_channel(rtt=rtt)
            channel.start_stream(
                size, lambda index=index: done.append((index, sim.now))
            )
        return sim, link, done

    def test_run_split_by_cross_kind_event(self):
        """A foreign heap event mid-drain ends the run; a second run
        resumes after it.  Observables stay bit-identical."""
        ref_sim, _, ref_done = self._build(batched=False)
        ref_sim.schedule(1.0, lambda: None)
        ref_sim.run()

        sim, link, done = self._build(batched=True)
        sim.schedule(1.0, lambda: None)
        sim.run()

        assert done == ref_done
        assert link.batch_runs >= 2, (
            "the foreign event must split the silent drain into at "
            "least a run before it and a run after it"
        )

    def test_zero_length_runs_not_counted(self):
        """Foreign events denser than the batch loop's first horizon:
        every batch invocation refuses at step zero and no run is
        recorded, while the generic fast-forward step still works."""
        def run(batched):
            sim, link, done = self._build(batched=batched)
            # One no-op every 0.15 s (above the 0.1 s slow-start refresh
            # span, below two of them) for the whole drain: a generic
            # inline advance sometimes fits before the next no-op, but a
            # second consecutive step never does — every batch
            # invocation refuses at step zero.
            for k in range(1, 40):
                sim.schedule(0.15 * k, lambda: None)
            sim.run()
            return sim, link, done

        ref_sim, _, ref_done = run(batched=False)
        sim, link, done = run(batched=True)
        assert done == ref_done
        assert link.ff_steps > 0, "the generic inline step must engage"
        assert link.batch_runs == 0, (
            "zero-step batch invocations must not count as runs"
        )
        assert link.batch_steps == 0

    def test_run_truncated_by_run_until(self):
        """``run(until=)`` caps a run mid-silent-window: the clock stops
        exactly at the cap with partially-delivered state identical to
        the reference engine, and resuming completes identically."""
        ref_sim, ref_link, ref_done = self._build(batched=False)
        sim, link, done = self._build(batched=True)

        assert ref_sim.run(until=1.0) == 1.0
        assert sim.run(until=1.0) == 1.0
        assert sim.now == 1.0
        ref_bytes = [
            s.bytes_done for c in ref_link.channels for s in c.streams
        ]
        bat_bytes = [
            s.bytes_done for c in link.channels for s in c.streams
        ]
        assert bat_bytes == ref_bytes, "mid-run state must match bitwise"
        assert done == ref_done == []

        ref_sim.run()
        sim.run()
        assert done == ref_done
        assert link.bytes_delivered == ref_link.bytes_delivered

    def test_multi_stream_batch_engages_and_matches(self):
        """Two connections drain through the general (array-hoisted)
        batch loop — runs recorded, observables bit-identical."""
        ref_sim, ref_link, ref_done = self._build(batched=False)
        ref_sim.run()
        sim, link, done = self._build(batched=True)
        sim.run()
        assert done == ref_done
        assert link.bytes_delivered == ref_link.bytes_delivered
        assert link.batch_runs >= 1
        assert link.batch_steps > link.batch_runs
        assert link.pokes == ref_link.pokes, (
            "batched steps must mirror one-per-tick accounting"
        )

    def test_single_stream_scalar_batch_matches(self):
        """The one-connection drain goes through the batch loop and still
        mirrors the reference trace exactly."""
        ref_sim, ref_link, ref_done = self._build(batched=False, channels=1)
        ref_sim.run()
        sim, link, done = self._build(batched=True, channels=1)
        sim.run()
        assert done == ref_done
        assert link.batch_steps > 0
        assert link.pokes == ref_link.pokes


#: One generator for :func:`reseeded_gap`, reseeded on every draw.
_RESEEDED_RNG = random.Random()


def reseeded_gap(ordinal, seed_extra, loss_rate):
    """The reseed-per-draw ``Channel._sample_loss_gap`` the table replaced.

    Kept verbatim as the reference the memoised draws must equal.
    """
    seed = (ordinal + 1) * 9973 + seed_extra
    rng = _RESEEDED_RNG
    rng.seed(seed)
    mean_gap = 1460.0 / loss_rate
    return -mean_gap * math.log(max(1e-12, rng.random()))


class TestLossDrawTable:
    """Loss gaps come from a bounded process-wide memo of the draws.

    The memo must return the exact float the reseed-per-draw generator
    gave, through eviction and across loads, on both engines.
    """

    LOSS_RATES = (0.01, 0.02, 0.03, 0.5)
    ORDINALS = range(8)
    LOSS_COUNTS = range(1100)

    def _channels(self, loss_rate):
        """Channels at ordinals 0-7; opening one draws its count 0."""
        link = AccessLink(Simulator(), 8.0e6, loss_rate=loss_rate)
        return [link.open_channel(rtt=0.1) for _ in self.ORDINALS]

    def test_gaps_equal_the_reseeded_draws_through_eviction(self):
        # 8 ordinals x 1,100 loss counts is 8,800 distinct seeds, over
        # twice the bound, so every pass evicts before it wraps.
        assert len(self.ORDINALS) * len(self.LOSS_COUNTS) > 2 * _LOSS_DRAW_MEMO
        _loss_log_draw.cache_clear()
        for loss_rate in self.LOSS_RATES:
            for channel in self._channels(loss_rate):
                for count in self.LOSS_COUNTS:
                    assert channel._sample_loss_gap(
                        seed_extra=count
                    ) == reseeded_gap(channel.ordinal, count, loss_rate)
                    info = _loss_log_draw.cache_info()
                    assert info.currsize <= _LOSS_DRAW_MEMO
        # The earliest seeds were evicted long ago: redraw them.  Opening
        # the channels just drew each ordinal's count 0, so every other
        # redraw must miss.
        earliest = self._channels(0.02)[:2]
        evicted = _loss_log_draw.cache_info()
        assert evicted.currsize == _LOSS_DRAW_MEMO
        for channel in earliest:
            for count in self.LOSS_COUNTS:
                assert channel._sample_loss_gap(
                    seed_extra=count
                ) == reseeded_gap(channel.ordinal, count, 0.02)
        redrawn = _loss_log_draw.cache_info()
        assert redrawn.misses - evicted.misses == 2 * (
            len(self.LOSS_COUNTS) - 1
        )
        assert redrawn.currsize == _LOSS_DRAW_MEMO

    def test_lossless_link_never_touches_the_table(self):
        _loss_log_draw.cache_clear()
        sim, link = make_link()
        channel = link.open_channel(rtt=0.05)
        assert channel._sample_loss_gap(seed_extra=3) == float("inf")
        channel.start_stream(1_000_000, lambda: None)
        sim.run()
        info = _loss_log_draw.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0)

    @staticmethod
    def _drain_load(scenario, materialized, engine):
        """One ``single-stream-drain`` engine-bench load (3% loss)."""
        page, snapshot, store = materialized
        load = PageLoadEngine(
            snapshot,
            vroom_servers(
                page, snapshot, store, push_policy=PushPolicy.ALL_LOCAL
            ),
            NetworkConfig(
                h2_scheduling=StreamScheduling.FAIR,
                loss_rate=scenario.loss_rate,
                base_rtt=scenario.base_rtt,
                engine=engine,
            ),
            BrowserConfig(when_hours=DEFAULT_EVAL_HOUR),
            policy=FetchAsapScheduler(),
        )
        metrics = load.run()
        return metrics, [
            channel._loss_count for channel in load.client.link.channels
        ]

    def test_cold_and_warm_table_load_identically(self):
        scenario = next(
            scenario
            for scenario in engine_bench.SCENARIOS
            if scenario.name == "single-stream-drain"
        )
        # One snapshot for every load, so LoadMetrics compare by value
        # without walking two copies of the resource tree.
        materialized = engine_bench._materialize(scenario)
        runs = []
        for engine in ENGINES:
            _loss_log_draw.cache_clear()
            runs.append(self._drain_load(scenario, materialized, engine))
            cold = _loss_log_draw.cache_info()
            runs.append(self._drain_load(scenario, materialized, engine))
            warm = _loss_log_draw.cache_info()
            # The warm load draws every gap from the table.
            assert warm.misses == cold.misses > 0
            assert warm.hits - cold.hits == cold.misses
        assert sum(runs[0][1]) > 0, "the load must actually lose packets"
        assert all(run == runs[0] for run in runs[1:])
