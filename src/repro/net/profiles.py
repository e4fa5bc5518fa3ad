"""Network profiles beyond the paper's LTE baseline.

Sec 4.3 notes that Vroom's scheduler is tailored to a state-of-the-art
phone on LTE, where the CPU is the bottleneck, and that "alternate
scheduling strategies will likely be necessary in settings where either
network bandwidth ... or latency ... is the bottleneck".  These profiles
let the benchmarks probe exactly those regimes: a loaded cell (bandwidth
bound), 3G and 2G/EDGE (latency bound), fast Wi-Fi and 5G (CPU bound),
geostationary satellite (RTT bound), and a lossy cell whose random drops
keep resetting slow start.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.net.http import NetworkConfig


@dataclass(frozen=True)
class NetworkProfile:
    """Named last-mile characteristics."""

    name: str
    downlink_bps: float
    uplink_bps: float
    rtt: float
    #: Per-segment random-loss probability (bursty cells, 0 = clean).
    loss_rate: float = 0.0

    def config(self) -> NetworkConfig:
        """This profile's link as a transport (configurations set the
        protocol version and scheduling on a copy)."""
        return NetworkConfig(
            downlink_bps=self.downlink_bps,
            uplink_bps=self.uplink_bps,
            base_rtt=self.rtt,
            loss_rate=self.loss_rate,
        )


PROFILES: Dict[str, NetworkProfile] = {
    # The paper's setting: Verizon LTE, excellent signal.
    "lte": NetworkProfile("lte", 10.0e6, 4.0e6, 0.070),
    # Many users sharing the cell: bandwidth becomes the bottleneck.
    "loaded-lte": NetworkProfile("loaded-lte", 2.0e6, 0.8e6, 0.090),
    # HSPA-era 3G: latency dominates.
    "3g": NetworkProfile("3g", 3.0e6, 1.0e6, 0.250),
    # EDGE: both starved.
    "2g": NetworkProfile("2g", 0.24e6, 0.12e6, 0.600),
    # Home Wi-Fi: the CPU is overwhelmingly the limit.
    "wifi": NetworkProfile("wifi", 50.0e6, 20.0e6, 0.020),
    # mmWave/sub-6 5G, good signal: even more so than Wi-Fi.
    "5g": NetworkProfile("5g", 200.0e6, 50.0e6, 0.015),
    # Geostationary satellite: plenty of bandwidth, brutal RTT.
    "satellite": NetworkProfile("satellite", 20.0e6, 3.0e6, 0.600),
    # LTE with bursty random loss: slow start keeps collapsing.
    "bursty-loss": NetworkProfile(
        "bursty-loss", 10.0e6, 4.0e6, 0.070, loss_rate=0.02
    ),
}


def profile(name: str) -> NetworkProfile:
    try:
        return PROFILES[name]
    except KeyError:
        raise ValueError(
            f"unknown network profile {name!r}; "
            f"choose from {sorted(PROFILES)}"
        ) from None
