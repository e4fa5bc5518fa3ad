"""Unit tests for the CPU cost model and serial task queue."""

import pytest

from repro.browser.cpu import CpuQueue, DEVICE_PROFILES
from repro.net.simulator import Simulator
from repro.pages.resources import ResourceType


class TestCpuProfile:
    def test_costs_scale_with_bytes(self):
        profile = DEVICE_PROFILES["nexus6"]
        assert profile.js_exec_time(200_000) > profile.js_exec_time(100_000)
        assert profile.html_parse_time(50_000) > 0

    def test_faster_device_is_faster(self):
        nexus6 = DEVICE_PROFILES["nexus6"]
        oneplus3 = DEVICE_PROFILES["oneplus3"]
        assert oneplus3.js_exec_time(100_000) < nexus6.js_exec_time(100_000)

    def test_tablet_is_slower(self):
        nexus6 = DEVICE_PROFILES["nexus6"]
        nexus10 = DEVICE_PROFILES["nexus10"]
        assert nexus10.js_exec_time(100_000) > nexus6.js_exec_time(100_000)

    def test_decode_cheaper_than_exec(self):
        profile = DEVICE_PROFILES["nexus6"]
        assert profile.decode_time(100_000) < profile.js_exec_time(100_000)

    def test_process_time_dispatch(self):
        profile = DEVICE_PROFILES["nexus6"]
        assert profile.process_time(
            ResourceType.HTML, 10_000
        ) == profile.html_parse_time(10_000)
        assert profile.process_time(
            ResourceType.JS, 10_000
        ) == profile.js_exec_time(10_000)
        assert profile.process_time(
            ResourceType.CSS, 10_000
        ) == profile.css_parse_time(10_000)
        assert profile.process_time(
            ResourceType.IMAGE, 10_000
        ) == profile.decode_time(10_000)


class TestCpuQueue:
    def test_serial_execution(self):
        sim = Simulator()
        cpu = CpuQueue(sim)
        done = []
        cpu.submit(1.0, lambda: done.append(sim.now))
        cpu.submit(2.0, lambda: done.append(sim.now))
        sim.run()
        assert done == [1.0, 3.0]

    def test_high_band_preempts_queued_low(self):
        sim = Simulator()
        cpu = CpuQueue(sim)
        order = []
        cpu.submit(1.0, lambda: order.append("first"))
        cpu.submit(1.0, lambda: order.append("low"), low_priority=True)
        cpu.submit(1.0, lambda: order.append("high"))
        sim.run()
        assert order == ["first", "high", "low"]

    def test_negative_duration_rejected(self):
        cpu = CpuQueue(Simulator())
        with pytest.raises(ValueError):
            cpu.submit(-1.0, lambda: None)

    def test_busy_time_accounting(self):
        sim = Simulator()
        cpu = CpuQueue(sim)
        cpu.submit(1.5, lambda: None)
        cpu.submit(0.5, lambda: None, low_priority=True)
        sim.run()
        assert cpu.busy_time == pytest.approx(2.0)

    def test_between_tasks_fires_at_boundary(self):
        """The event loop yields between tasks, not at queue drain."""
        sim = Simulator()
        cpu = CpuQueue(sim)
        seen = []
        cpu.submit(1.0, lambda: None)
        cpu.submit(5.0, lambda: None)
        cpu.between_tasks(lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1.0]

    def test_tasks_submitted_during_task_run_after(self):
        sim = Simulator()
        cpu = CpuQueue(sim)
        order = []

        def first():
            order.append(("first", sim.now))
            cpu.submit(1.0, lambda: order.append(("nested", sim.now)))

        cpu.submit(2.0, first)
        sim.run()
        assert order == [("first", 2.0), ("nested", 3.0)]
