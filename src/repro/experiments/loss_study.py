"""Packet-loss study (related work: "How Speedy is SPDY?", Erman et al.).

The paper's related-work section cites two findings about HTTP/2's
single-connection design: page dependencies limit its gains, and "the
use of a single TCP connection can be detrimental in the presence of
high packet loss"; it notes Vroom "can be used with HTTP/1.1 in the face
of high packet loss".  This experiment sweeps loss rates and compares:

* HTTP/1.1 (six connections per domain — loss on one barely dents the
  aggregate window),
* HTTP/2 (one connection per domain — every loss halves the only pipe),
* Vroom over HTTP/2, and Vroom's hint mechanism over HTTP/1.1 (no push,
  hints only, fetched by the staged scheduler: ``vroom-http1``) — the
  fallback the paper describes.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.experiments.parallel import load_matrix
from repro.net.http import NetworkConfig
from repro.pages.corpus import news_sports_corpus

LOSS_RATES: Sequence[float] = (0.0, 0.01, 0.02)

#: Row name -> the configuration behind it.
ROWS = {
    "http1": "http1",
    "http2": "http2",
    "vroom_h2": "vroom",
    "vroom_h1": "vroom-http1",
}


def loss_sweep(
    count: int = 8,
    loss_rates: Sequence[float] = LOSS_RATES,
) -> Dict[float, Dict[str, List[float]]]:
    """PLT distributions per loss rate per configuration."""
    pages = news_sports_corpus(count)
    out: Dict[float, Dict[str, List[float]]] = {}
    for loss in loss_rates:
        run = load_matrix(
            pages, ROWS.values(), network=NetworkConfig(loss_rate=loss)
        )
        out[loss] = {row: run.series(config) for row, config in ROWS.items()}
    return out
