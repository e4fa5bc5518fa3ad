"""Online HTML analysis (Sec 4.1.2).

When a Vroom-compliant server responds to a request with an HTML object,
it parses the body *as it is being served* and includes every URL seen in
the markup among the returned dependencies.  This captures dynamic page
content (fresh stories, rotated images) that offline resolution misses,
because the analysis runs on the exact bytes this client receives.

The parse costs real latency (the paper measures ~100 ms median across the
top-1000 landing pages); the server layer adds that to the response's
think time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.calibration import VROOM_ONLINE_PARSE_OVERHEAD
from repro.pages.resources import Resource


@dataclass(frozen=True)
class OnlineAnalysis:
    """Result of parsing one served HTML body."""

    source_url: str
    urls: List[str]
    parse_overhead: float

    def __len__(self) -> int:
        return len(self.urls)


def analyze_html(doc: Resource) -> OnlineAnalysis:
    """The statically referenced URLs of a served HTML document.

    Only markup-visible references are found: URLs assembled inside script
    bodies stay invisible, exactly as for a real streaming tokenizer.  The
    URLs come from the document's one stored scan (:attr:`Resource.scan`),
    distinct and in markup order.
    """
    return OnlineAnalysis(
        source_url=doc.url,
        urls=list(doc.scan.urls),
        parse_overhead=VROOM_ONLINE_PARSE_OVERHEAD,
    )
