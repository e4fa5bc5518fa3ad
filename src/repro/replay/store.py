"""Storage format for recorded page loads."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.pages.resources import Resource


@dataclass
class RecordedResponse:
    """One recorded request/response exchange."""

    url: str
    domain: str
    size: int
    is_html: bool
    #: The resource behind the exchange (carried for policy layers); its
    #: ``body`` is the recorded body.
    resource: Optional[Resource] = None


@dataclass
class ReplayStore:
    """All exchanges captured while recording one page load."""

    page: str
    responses: Dict[str, RecordedResponse] = field(default_factory=dict)
    #: Per-domain RTT (beyond the cellular link) observed at record time.
    domain_rtts: Dict[str, float] = field(default_factory=dict)

    def add(self, response: RecordedResponse, rtt: float) -> None:
        self.responses[response.url] = response
        self.domain_rtts.setdefault(response.domain, rtt)

    def domains(self) -> List[str]:
        return list(self.domain_rtts)

    def urls(self) -> List[str]:
        return list(self.responses)

    def lookup(self, url: str) -> Optional[RecordedResponse]:
        return self.responses.get(url)

    def total_bytes(self) -> int:
        return sum(response.size for response in self.responses.values())
