"""Resource model: types, discovery semantics, priorities, concrete instances.

A :class:`ResourceSpec` is the *template* for a resource inside a page
blueprint — it carries all the knobs that determine how the resource's URL
and body vary across loads.  A :class:`Resource` is a concrete instance
inside one materialised load (a snapshot): fixed URL, fixed size, and a
body rendered from the frozen tree the first time it is read.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional

from repro import audit


class ResourceType(enum.Enum):
    """MIME-class of a resource, driving CPU cost and priority."""

    HTML = "html"
    CSS = "css"
    JS = "js"
    IMAGE = "image"
    FONT = "font"
    VIDEO = "video"
    JSON = "json"
    OTHER = "other"


#: Types that must be parsed or executed on the client CPU.
PROCESSABLE_TYPES = frozenset(
    {ResourceType.HTML, ResourceType.CSS, ResourceType.JS}
)


class Discovery(enum.Enum):
    """How a browser discovers the need for this resource."""

    #: Referenced by a tag in the parent's markup; visible to the preload
    #: scanner as soon as the enclosing bytes arrive, and to server-side
    #: online HTML analysis.
    STATIC_MARKUP = "static"

    #: URL computed by JavaScript; only discovered when the parent script
    #: executes.  Invisible to online HTML analysis.
    SCRIPT_COMPUTED = "script"

    #: Referenced from a stylesheet (font / background image); discovered
    #: when the CSS is parsed.  Invisible to online HTML analysis.
    CSS_REF = "css"


class Priority(enum.IntEnum):
    """Vroom priority classes (Table 1), ordered high to low."""

    PRELOAD = 0
    SEMI_IMPORTANT = 1
    UNIMPORTANT = 2


def priority_of(
    rtype: ResourceType,
    *,
    exec_async: bool = False,
    in_iframe: bool = False,
    is_iframe_doc: bool = False,
) -> Priority:
    """Classify a resource per Table 1 and footnote 4 of the paper.

    Resources that must be parsed/executed are ``PRELOAD``; lazily-processed
    ones (async scripts, media-gated CSS) are ``SEMI_IMPORTANT``; everything
    else is ``UNIMPORTANT``.  Descendants of third-party HTML documents —
    including the embedded documents themselves — are ``UNIMPORTANT``
    because browsers only process iframes after the root document's parse.
    """
    if in_iframe or is_iframe_doc:
        return Priority.UNIMPORTANT
    if rtype in PROCESSABLE_TYPES:
        return Priority.SEMI_IMPORTANT if exec_async else Priority.PRELOAD
    return Priority.UNIMPORTANT


@dataclass
class ResourceSpec:
    """Template for one resource in a :class:`~repro.pages.page.PageBlueprint`.

    The ``name`` is the resource's stable identity across loads; the URL a
    given load sees is derived from the name plus whatever flux applies
    (rotation epoch, nonce, device class, personalization hash).
    """

    name: str
    rtype: ResourceType
    domain: str
    size: int
    parent: Optional[str] = None
    discovery: Discovery = Discovery.STATIC_MARKUP
    #: Relative position of the reference inside the parent body (0..1).
    position: float = 0.5
    exec_async: bool = False
    above_fold: bool = False
    #: Relative visual weight for Speed Index (only meaningful if rendered).
    pixel_weight: float = 0.0
    cacheable: bool = True
    #: Cache freshness lifetime in hours (0 = uncacheable response headers).
    max_age_hours: float = 24.0
    #: If set, the resource's URL rotates to a new one every N hours.
    lifetime_hours: Optional[float] = None
    #: Fresh URL on every load (ad/analytics nonce).
    unpredictable: bool = False
    #: URL varies with the client's device equivalence class.
    device_dependent: bool = False
    #: URL varies with the (user, domain) pair.
    personalized: bool = False
    #: Script whose computed children depend on user-specific state such as
    #: local time (Sec 4.2: left to clients to discover).
    user_state_script: bool = False
    #: Server-side generation latency; ``None`` uses the type default.
    server_think_time: Optional[float] = None

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"resource {self.name!r} must have positive size")
        if not 0.0 <= self.position <= 1.0:
            raise ValueError(f"resource {self.name!r} position out of [0, 1]")

    @property
    def processable(self) -> bool:
        return self.rtype in PROCESSABLE_TYPES

    @property
    def is_document(self) -> bool:
        return self.rtype is ResourceType.HTML


@dataclass(slots=True)
class Resource:
    """A concrete resource inside one materialised page load.

    :attr:`body` is the synthetic body (markup for documents, CSS and JS;
    empty for binaries).  It is a pure function of the resource and its
    children, and nothing mutates a tree once
    :meth:`~repro.pages.page.PageBlueprint.materialize` returns, so the
    body is rendered by :func:`repro.pages.markup.render_body` the first
    time it is read and cached on the resource.  A body read later is
    byte-identical to one rendered eagerly; callers that only need URLs
    never pay for rendering.  :attr:`scan`, a document's static
    references and tag URLs, is cached the same way, so every load of a
    snapshot shares one scan of each document.  Assigning :attr:`body`
    replaces the cached body and drops the cached scan.  Neither cache
    takes part in ``repr`` or ``==``.
    """

    spec: ResourceSpec
    url: str
    size: int
    #: Names resolved to concrete child resources, ordered by position.
    children: List["Resource"] = field(default_factory=list)
    parent: Optional["Resource"] = None
    #: True if this document is an embedded (iframe) HTML, not the root.
    is_iframe_doc: bool = False
    #: True if this resource lives inside an iframe's subtree.
    in_iframe: bool = False
    #: Position of this document's subtree in root processing order.
    process_order: int = -1
    #: The rendered body, or ``None`` until :attr:`body` is first read.
    _body: Optional[str] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: The scan of the body, or ``None`` until :attr:`scan` is first read.
    _scan: Optional["markup.DocumentScan"] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __hash__(self) -> int:
        return hash((id(self.spec), self.url))

    @property
    def body(self) -> str:
        body = self._body
        if body is None:
            body = self._body = markup.render_body(self)
        return body

    @body.setter
    def body(self, value: str) -> None:
        self._body = value
        self._scan = None

    @property
    def scan(self) -> "markup.DocumentScan":
        """The one scan of :attr:`body`, made on first read.

        Under audit every later read is checked against a fresh scan.
        """
        scan = self._scan
        if scan is None:
            scan = self._scan = markup.scan_document(self)
        elif audit.ENABLED:
            audit.scan_matches(self.url, scan, markup.scan_document(self))
        return scan

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def rtype(self) -> ResourceType:
        return self.spec.rtype

    @property
    def domain(self) -> str:
        return self.spec.domain

    @property
    def processable(self) -> bool:
        return self.spec.processable

    @property
    def is_document(self) -> bool:
        return self.spec.is_document

    @property
    def priority(self) -> Priority:
        return priority_of(
            self.rtype,
            exec_async=self.spec.exec_async,
            in_iframe=self.in_iframe,
            is_iframe_doc=self.is_iframe_doc,
        )

    def descendants(self) -> List["Resource"]:
        """All resources below this one, in pre-order."""
        out: List[Resource] = []
        stack = list(reversed(self.children))
        while stack:
            node = stack.pop()
            out.append(node)
            stack.extend(reversed(node.children))
        return out

    def subtree(self) -> List["Resource"]:
        """This resource plus :meth:`descendants`, in pre-order."""
        return [self] + self.descendants()


# ``markup`` renders bodies from the classes above, so it is imported last.
from repro.pages import markup  # noqa: E402
