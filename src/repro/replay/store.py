"""Storage format for recorded page loads."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.pages.resources import Resource


@dataclass
class ReplayStore:
    """All exchanges captured while recording one page load.

    A recorded exchange is the snapshot's own :class:`Resource`: its
    ``url``, ``domain``, ``size``, ``is_document`` and ``spec`` say what
    the server returns, and its ``body`` is the recorded body.
    """

    page: str
    responses: Dict[str, Resource] = field(default_factory=dict)
    #: Per-domain RTT (beyond the cellular link) observed at record time.
    domain_rtts: Dict[str, float] = field(default_factory=dict)

    def add(self, resource: Resource, rtt: float) -> None:
        self.responses[resource.url] = resource
        self.domain_rtts.setdefault(resource.domain, rtt)

    def domains(self) -> List[str]:
        return list(self.domain_rtts)

    def urls(self) -> List[str]:
        return list(self.responses)

    def lookup(self, url: str) -> Optional[Resource]:
        """The resource recorded under ``url``, or None."""
        return self.responses.get(url)

    def total_bytes(self) -> int:
        return sum(resource.size for resource in self.responses.values())
