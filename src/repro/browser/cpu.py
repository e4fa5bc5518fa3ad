"""Client CPU cost model and the single-threaded processing queue.

Mobile page loads are CPU-bound (paper Sec 2), so the renderer is modelled
as one serial processor: at any instant it runs at most one task (HTML
parse segment, script execution, CSS parse, image decode, layout).  Costs
are per-byte by resource type, scaled by a device speed multiplier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.calibration import (
    CPU_CSS_PARSE_PER_BYTE,
    CPU_HTML_PARSE_PER_BYTE,
    CPU_IMAGE_DECODE_PER_BYTE,
    CPU_JS_EXEC_PER_BYTE,
    CPU_LAYOUT_TIME,
    CPU_PER_RESOURCE_OVERHEAD,
    DEVICE_CPU_SPEEDUP,
)
from repro.net.simulator import SimulatorLike
from repro.pages.resources import ResourceType


@dataclass(frozen=True)
class CpuProfile:
    """Per-device CPU speed; derives task durations from byte counts."""

    device: str
    speedup: float = 1.0

    def _scale(self, seconds: float) -> float:
        return seconds / self.speedup

    def html_parse_time(self, nbytes: float) -> float:
        return self._scale(nbytes * CPU_HTML_PARSE_PER_BYTE)

    def js_exec_time(self, nbytes: float) -> float:
        return self._scale(
            nbytes * CPU_JS_EXEC_PER_BYTE + CPU_PER_RESOURCE_OVERHEAD
        )

    def css_parse_time(self, nbytes: float) -> float:
        return self._scale(
            nbytes * CPU_CSS_PARSE_PER_BYTE + CPU_PER_RESOURCE_OVERHEAD
        )

    def decode_time(self, nbytes: float) -> float:
        return self._scale(
            nbytes * CPU_IMAGE_DECODE_PER_BYTE + CPU_PER_RESOURCE_OVERHEAD / 4
        )

    def layout_time(self) -> float:
        return self._scale(CPU_LAYOUT_TIME)

    def process_time(self, rtype: ResourceType, nbytes: float) -> float:
        """Processing cost of a whole resource of the given type."""
        if rtype is ResourceType.HTML:
            return self.html_parse_time(nbytes)
        if rtype is ResourceType.JS:
            return self.js_exec_time(nbytes)
        if rtype is ResourceType.CSS:
            return self.css_parse_time(nbytes)
        return self.decode_time(nbytes)


DEVICE_PROFILES = {
    name: CpuProfile(device=name, speedup=speedup)
    for name, speedup in DEVICE_CPU_SPEEDUP.items()
}


#: CPU priority bands: the parser runs whenever it has bytes; opportunistic
#: work (arrival-driven script execution, CSS parse) fills its stalls;
#: deferrable work (decode bookkeeping) runs last.
BAND_PARSER = 0
BAND_EXEC = 1
BAND_DEFER = 2


class CpuQueue:
    """Serial task executor with three priority bands.

    Parser-driven work preempts queued (not running) arrival-driven work,
    matching renderer scheduling: the parser never starves behind
    opportunistic script execution.  Tasks are not preemptible once
    started — a renderer's run-to-completion event loop.
    """

    def __init__(self, sim: SimulatorLike):
        self.sim = sim
        self._bands: List[List[Tuple[float, Callable[[], None]]]] = [
            [], [], [],
        ]
        self._busy_until: Optional[float] = None
        #: Accumulated busy seconds (CPU utilisation accounting).
        self.busy_time = 0.0

    @property
    def busy(self) -> bool:
        return self._busy_until is not None and self._busy_until > self.sim.now

    def submit(
        self,
        duration: float,
        on_done: Callable[[], None],
        *,
        low_priority: bool = False,
        band: Optional[int] = None,
    ) -> None:
        """Queue a task of ``duration`` CPU-seconds, then call ``on_done``."""
        if duration < 0:
            raise ValueError("task duration must be non-negative")
        if band is None:
            band = BAND_DEFER if low_priority else BAND_EXEC
        self._bands[band].append((duration, on_done))
        self._kick()

    def between_tasks(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` at the next task boundary.

        The renderer's event loop yields between tasks, so a JavaScript
        handler (like Vroom's response_handler) runs once the *current*
        task finishes — it does not wait for the whole queue to drain.
        """
        if not self.busy:
            self.sim.call_soon(callback)
        else:
            self.sim.schedule_at(self._busy_until or self.sim.now, callback)

    def _kick(self) -> None:
        if self.busy:
            return
        for band in self._bands:
            if band:
                duration, on_done = band.pop(0)
                break
        else:
            return
        self._busy_until = self.sim.now + duration
        self.busy_time += duration

        def finish() -> None:
            self._busy_until = None
            on_done()
            self._kick()

        self.sim.schedule_drop(duration, finish)
