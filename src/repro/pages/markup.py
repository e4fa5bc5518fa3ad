"""Synthetic markup bodies and the extraction parser.

Documents (HTML), stylesheets and scripts in a snapshot carry actual text
bodies so that *online HTML analysis* — the Vroom server parsing an HTML
response as it is served — is a real parse over real bytes rather than an
oracle.  The grammar is a deliberately small HTML subset:

* ``<link rel="stylesheet" href="URL">`` — CSS reference
* ``<script src="URL"></script>`` / ``<script async src="URL"></script>``
* ``<img src="URL">`` — images and other static media
* ``<iframe src="URL"></iframe>`` — embedded third-party documents
* filler text between tags

Script bodies reference their dynamically computed children inside string
literals assembled at run time, so a static parse cannot see them —
mirroring why online HTML analysis misses script-computed resources.
Stylesheet bodies use ``url(...)`` references.

A document's body is scanned once (:func:`scan_document`) and the scan is
kept on the resource (:attr:`Resource.scan`): the browser's parser and
preload scanner and the server's online analysis all read that one scan.
"""

from __future__ import annotations

import re
from typing import Dict, List, NamedTuple, Tuple

from repro.pages.resources import Discovery, Resource, ResourceType

_FILLER = (
    "lorem ipsum dolor sit amet consectetur adipiscing elit sed do eiusmod "
    "tempor incididunt ut labore et dolore magna aliqua "
)

_TAG_BY_TYPE = {
    ResourceType.CSS: '<link rel="stylesheet" href="{url}">',
    ResourceType.JS: '<script src="{url}"></script>',
    ResourceType.HTML: '<iframe src="{url}"></iframe>',
    ResourceType.IMAGE: '<img src="{url}">',
    ResourceType.FONT: '<img src="{url}">',
    ResourceType.VIDEO: '<video src="{url}"></video>',
    ResourceType.JSON: '<img src="{url}">',
    ResourceType.OTHER: '<img src="{url}">',
}

_ASYNC_SCRIPT_TAG = '<script async src="{url}"></script>'

#: Matches every URL-bearing tag the synthetic grammar can produce.
_TAG_RE = re.compile(
    r"<(?:link[^>]*?href|script[^>]*?src|img[^>]*?src|iframe[^>]*?src|"
    r"video[^>]*?src)=\"([^\"]+)\""
)

_CSS_URL_RE = re.compile(r"url\(([^)]+)\)")


def _pad(text: str, size: int) -> str:
    """Pad (or trim) ``text`` with filler so ``len(result) == size``."""
    if len(text) >= size:
        return text[:size]
    need = size - len(text)
    reps = need // len(_FILLER) + 1
    return text + (_FILLER * reps)[:need]


def render_document(doc: Resource, size: int) -> str:
    """Render an HTML body for ``doc`` with its static children embedded.

    Children declared ``STATIC_MARKUP`` get a tag at a byte offset matching
    their ``position``; script-computed and CSS-referenced children do not
    appear.  The body is padded with filler text to the requested size.
    """
    static_children = [
        child
        for child in doc.children
        if child.spec.discovery is Discovery.STATIC_MARKUP
    ]
    static_children.sort(key=lambda child: child.spec.position)

    parts: List[str] = ["<html><head>"]
    cursor = len(parts[0])
    for child in static_children:
        target = int(child.spec.position * max(size - 200, 1))
        if target > cursor:
            parts.append(_pad("", target - cursor))
            cursor = target
        template = _TAG_BY_TYPE[child.rtype]
        if child.rtype is ResourceType.JS and child.spec.exec_async:
            template = _ASYNC_SCRIPT_TAG
        tag = template.format(url=child.url)
        parts.append(tag)
        cursor += len(tag)
    parts.append("</html>")
    return _pad("".join(parts), size)


def render_script(script: Resource, size: int) -> str:
    """Render a JS body whose computed children are hidden from parsers.

    The child URL is split into fragments concatenated at run time, so a
    textual scan of the body never sees a complete URL.
    """
    lines = ["(function () {"]
    for child in script.children:
        if child.spec.discovery is Discovery.SCRIPT_COMPUTED:
            url = child.url
            mid = max(1, len(url) // 2)
            lines.append(
                f'  load("{url[:mid]}" + "{url[mid:]}");'
            )
    lines.append("})();")
    return _pad("\n".join(lines), size)


def render_stylesheet(sheet: Resource, size: int) -> str:
    """Render a CSS body with ``url(...)`` references to its children."""
    rules = ["body { margin: 0; }"]
    for child in sheet.children:
        if child.spec.discovery is Discovery.CSS_REF:
            rules.append(f".r {{ background: url({child.url}); }}")
    return _pad("\n".join(rules), size)


def render_body(resource: Resource) -> str:
    """Render the appropriate body for any processable resource."""
    if resource.rtype is ResourceType.HTML:
        return render_document(resource, resource.size)
    if resource.rtype is ResourceType.JS:
        return render_script(resource, resource.size)
    if resource.rtype is ResourceType.CSS:
        return render_stylesheet(resource, resource.size)
    return ""


def extract_urls_with_offsets(html_body: str) -> List[Tuple[str, int]]:
    """Every URL referenced by tags in an HTML body, in document order,
    with the byte offset where its tag ends.

    This is the parse a Vroom-compliant server performs while serving an
    HTML response (Sec 4.1.2) and also what the browser's preload scanner
    sees.  The scanner can only discover a reference once the bytes
    containing the full tag have arrived, so offsets matter to the
    browser model.
    """
    return [
        (match.group(1), match.end())
        for match in _TAG_RE.finditer(html_body)
    ]


def extract_css_urls(css_body: str) -> List[str]:
    """Extract ``url(...)`` references from a stylesheet body."""
    return [url.strip() for url in _CSS_URL_RE.findall(css_body)]


class ParsedRef(NamedTuple):
    """A static reference inside a document body."""

    child: Resource
    #: Where the child's tag ends in the body.
    byte_offset: int


class DocumentScan(NamedTuple):
    """One scan of a document's body: what all of its readers need."""

    #: Static children with their tag offsets, sorted by offset (ties
    #: keep child order).  The parser and the preload scanner read these.
    refs: Tuple[ParsedRef, ...]
    #: Distinct tag URLs in markup order.  Online analysis reads these.
    urls: Tuple[str, ...]


def scan_document(doc: Resource) -> DocumentScan:
    """Scan ``doc``'s body for its static references and tag URLs.

    Offsets come from the rendered body, so the parser model sees exactly
    what a real tokenizer would: a child's offset is the end of the first
    tag naming its URL.  A child whose tag was not found (shouldn't
    happen) falls back to its nominal position.
    """
    offsets: Dict[str, int] = {}
    for url, end in extract_urls_with_offsets(doc.body):
        offsets.setdefault(url, end)
    span = max(1, doc.size)
    refs = [
        ParsedRef(
            child, offsets.get(child.url, int(child.spec.position * span))
        )
        for child in doc.children
        if child.spec.discovery is Discovery.STATIC_MARKUP
    ]
    refs.sort(key=lambda ref: ref.byte_offset)
    return DocumentScan(tuple(refs), tuple(offsets))
