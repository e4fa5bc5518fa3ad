"""Sensitivity analysis: is "Vroom wins" an artifact of calibration?

The reproduction's constants (bandwidth, RTT, CPU speed) were calibrated
to the paper's testbed (docs/CALIBRATION.md).  A fair question is whether
the headline conclusion — Vroom beats the HTTP/2 baseline — survives
perturbation of those constants.  This module sweeps multipliers around
the calibrated operating point and reports the Vroom/HTTP2 PLT ratio at
each setting.

Expected shape: the ratio stays below 1.0 across a wide neighbourhood,
degrading toward 1.0 (and beyond) only in the regimes the paper itself
exempts (severely bandwidth-starved links; see `net.profiles`).
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.analysis.stats import median
from repro.calibration import LTE_DOWNLINK_BPS, LTE_RTT
from repro.experiments.parallel import load_matrix
from repro.net.http import NetworkConfig
from repro.pages.corpus import news_sports_corpus


def _ratio_at(
    pages,
    *,
    bandwidth_mult: float = 1.0,
    rtt_mult: float = 1.0,
    cpu_mult: float = 1.0,
) -> float:
    """Median Vroom/HTTP2 PLT ratio at one calibration point."""
    run = load_matrix(
        pages,
        ["http2", "vroom"],
        network=NetworkConfig(
            downlink_bps=LTE_DOWNLINK_BPS * bandwidth_mult,
            base_rtt=LTE_RTT * rtt_mult,
        ),
        cpu_scale=cpu_mult,
    )
    return median(
        [
            vroom / http2
            for vroom, http2 in zip(run.series("vroom"), run.series("http2"))
        ]
    )


def sensitivity_sweep(
    count: int = 6,
    multipliers: Sequence[float] = (0.5, 1.0, 2.0),
) -> Dict[str, Dict[float, float]]:
    """Vroom/HTTP2 ratio as each knob varies (others at calibration)."""
    pages = news_sports_corpus(count)
    out: Dict[str, Dict[float, float]] = {
        "bandwidth": {}, "rtt": {}, "cpu_speed": {},
    }
    for multiplier in multipliers:
        out["bandwidth"][multiplier] = _ratio_at(
            pages, bandwidth_mult=multiplier
        )
        out["rtt"][multiplier] = _ratio_at(
            pages, rtt_mult=multiplier
        )
        # cpu_speed multiplier speeds the CPU up; cpu_scale is a cost
        # multiplier, so invert.
        out["cpu_speed"][multiplier] = _ratio_at(
            pages, cpu_mult=1.0 / multiplier
        )
    return out
