"""Dependency hints: the response-header vocabulary of Table 1.

A Vroom-compliant server answers a request for an HTML object with three
ordered URL lists carried in response headers:

* ``Link`` (``rel=preload``) — resources the client must parse/execute,
  fetched at the highest priority, in processing order;
* ``x-semi-important`` — processable but lazily-evaluated resources
  (async scripts and the like);
* ``x-unimportant`` — everything that never needs parsing or executing
  (images, fonts, media) plus anything descending from third-party HTML.

Hints also carry the originating document so accuracy analyses can tie
each hint back to the response that delivered it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List

from repro.pages.resources import Priority

#: Header names, in decreasing priority order (Table 1).
HEADER_BY_PRIORITY = {
    Priority.PRELOAD: "link-preload",
    Priority.SEMI_IMPORTANT: "x-semi-important",
    Priority.UNIMPORTANT: "x-unimportant",
}

#: The headers a response must expose for a cross-origin scheduler script
#: to read them (Sec 5.2, footnote 7).
EXPOSED_HEADERS = ("Link", "x-semi-important", "x-unimportant")


@dataclass(frozen=True)
class DependencyHint:
    """One hinted URL with its priority class and processing order."""

    url: str
    priority: Priority
    #: Position in the client's expected processing order (lower first).
    order: int = 0
    #: Estimated size (lets the client budget; taken from server loads).
    size_estimate: int = 0

    @property
    def header(self) -> str:
        return HEADER_BY_PRIORITY[self.priority]


@dataclass
class HintBundle:
    """All hints attached to one HTML response, grouped by header."""

    source_url: str
    hints: List[DependencyHint] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.hints)

    def __iter__(self):
        return iter(self.hints)

    def add(self, hint: DependencyHint) -> None:
        self.hints.append(hint)

    def urls(self) -> List[str]:
        return [hint.url for hint in self.hints]

    def by_priority(self, priority: Priority) -> List[DependencyHint]:
        """Hints in one class, sorted by processing order (Sec 5.1)."""
        selected = [hint for hint in self.hints if hint.priority is priority]
        selected.sort(key=lambda hint: hint.order)
        return selected

    def headers(self) -> Dict[str, List[str]]:
        """Render the bundle the way it would appear on the wire."""
        rendered: Dict[str, List[str]] = {}
        for priority, header in HEADER_BY_PRIORITY.items():
            urls = [hint.url for hint in self.by_priority(priority)]
            if urls:
                rendered[header] = urls
        return rendered


def bundle_from_hints(
    source_url: str, hints: Iterable[DependencyHint]
) -> HintBundle:
    """Build a bundle, deduplicating URLs while preserving order."""
    bundle = HintBundle(source_url=source_url)
    seen = set()
    for hint in hints:
        if hint.url in seen or hint.url == source_url:
            continue
        seen.add(hint.url)
        bundle.add(hint)
    return bundle
