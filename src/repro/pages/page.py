"""Page blueprints and materialised snapshots.

A :class:`PageBlueprint` is the timeless description of a page: the resource
specs and their parent/child structure.  :meth:`PageBlueprint.materialize`
resolves every spec under a :class:`~repro.pages.dynamics.LoadStamp` into a
:class:`PageSnapshot` — the exact set of resources one load fetches, with
URLs, sizes and a root-document processing order.  Bodies are rendered
from the finished tree when first read (see
:class:`~repro.pages.resources.Resource`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.pages.dynamics import (
    LoadStamp,
    has_flux,
    resolve_size,
    resolve_url,
)
from repro.pages.resources import (
    Discovery,
    Resource,
    ResourceSpec,
    ResourceType,
)


@dataclass
class PageBlueprint:
    """The stable structure of a page across loads."""

    name: str
    root: str
    specs: Dict[str, ResourceSpec] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._children_cache: Optional[Dict[str, List[ResourceSpec]]] = None
        self._skeleton_cache: Optional[_Skeleton] = None

    def add(self, spec: ResourceSpec) -> ResourceSpec:
        if spec.name in self.specs:
            raise ValueError(f"duplicate resource name {spec.name!r}")
        if spec.parent is not None and spec.parent not in self.specs:
            raise ValueError(
                f"{spec.name!r} declares unknown parent {spec.parent!r}"
            )
        self.specs[spec.name] = spec
        self._children_cache = None
        self._skeleton_cache = None
        return spec

    @property
    def root_spec(self) -> ResourceSpec:
        return self.specs[self.root]

    def children_of(self, name: str) -> List[ResourceSpec]:
        """Direct children of ``name``, sorted by (position, name).

        Memoised over the whole blueprint (dependency resolution asks
        for children hundreds of times per simulated load) and rebuilt
        on :meth:`add`.  Callers treat the result as read-only.
        """
        cache = self._children_cache
        if cache is None:
            cache = {spec_name: [] for spec_name in self.specs}
            for spec in self.specs.values():
                if spec.parent is not None:
                    cache[spec.parent].append(spec)
            for kids in cache.values():
                kids.sort(key=lambda spec: (spec.position, spec.name))
            self._children_cache = cache
        kids = cache.get(name)
        return kids if kids is not None else []

    def validate(self) -> None:
        """Check structural invariants; raises ``ValueError`` on failure."""
        if self.root not in self.specs:
            raise ValueError(f"root {self.root!r} not among specs")
        if self.specs[self.root].parent is not None:
            raise ValueError("root resource must not have a parent")
        for spec in self.specs.values():
            if spec.name == self.root:
                continue
            if spec.parent is None:
                raise ValueError(f"non-root {spec.name!r} has no parent")
            parent = self.specs[spec.parent]
            if spec.discovery is Discovery.CSS_REF:
                if parent.rtype is not ResourceType.CSS:
                    raise ValueError(
                        f"{spec.name!r}: CSS_REF child of non-CSS parent"
                    )
            elif spec.discovery is Discovery.SCRIPT_COMPUTED:
                if parent.rtype is not ResourceType.JS:
                    raise ValueError(
                        f"{spec.name!r}: SCRIPT_COMPUTED child of non-JS parent"
                    )
            else:
                if parent.rtype is not ResourceType.HTML:
                    raise ValueError(
                        f"{spec.name!r}: STATIC_MARKUP child of non-HTML parent"
                    )
        # Reject cycles: walk up from every node.
        for spec in self.specs.values():
            seen = set()
            node: Optional[str] = spec.name
            while node is not None:
                if node in seen:
                    raise ValueError(f"parent cycle involving {node!r}")
                seen.add(node)
                node = self.specs[node].parent

    def resolve_urls(self, stamp: LoadStamp) -> List[str]:  # repro: hotpath
        """The URL of every resource the root reaches, in processing order.

        Equal to ``materialize(stamp).urls()`` without building the tree:
        each row of the memoised :class:`_Skeleton` without flux already
        carries its URL, so only flux rows call :func:`resolve_url`.
        Specs the root cannot reach are neither listed nor resolved.
        """
        return [
            resolve_url(spec, stamp) if url is None else url
            for spec, _, _, _, url, _ in self._skeleton().rows
        ]

    def materialize(self, stamp: LoadStamp) -> "PageSnapshot":  # repro: hotpath
        """Resolve every spec under ``stamp`` into a concrete snapshot.

        One pass over the memoised :class:`_Skeleton` builds the tree in
        pre-order, so each resource gets its processing order, iframe
        flags, parent and place among its siblings as it is created, and
        the pass's output doubles as the snapshot's walk.  URLs come from
        :meth:`resolve_urls` and sizes from the skeleton; a
        device-dependent row is re-sized only under another device class
        than the skeleton's.  Bodies are not rendered here:
        :attr:`Resource.body` renders on first read.
        """
        skeleton = self._skeleton()
        urls = self.resolve_urls(stamp)
        resize = skeleton.device_sized and (
            stamp.device_class != _ANY_STAMP.device_class
        )
        walk: List[Resource] = []
        append = walk.append
        for order, (spec, parent_row, iframe_doc, in_iframe, _, size) in enumerate(
            skeleton.rows
        ):
            if resize and spec.device_dependent:
                size = resolve_size(spec, stamp)
            parent = walk[parent_row] if parent_row >= 0 else None
            # Positional in field order: keywords cost ~15% of the pass.
            resource = Resource(
                spec,
                urls[order],
                size,
                [],
                parent,
                iframe_doc,
                in_iframe,
                order,
            )
            if parent is not None:
                parent.children.append(resource)
            append(resource)
        nodes = walk
        if skeleton.strays:
            nodes = walk + self._materialize_strays(skeleton.strays, stamp)
        # repro: allow[PERF405] one snapshot per call, not per resource.
        snapshot = PageSnapshot(
            page=self.name,
            stamp=stamp,
            root=walk[0],
            resources={name: nodes[row] for name, row in skeleton.slots},
        )
        snapshot._walk_cache = walk
        return snapshot

    def _materialize_strays(
        self, strays: List[ResourceSpec], stamp: LoadStamp
    ) -> List[Resource]:
        """Resources for specs the root cannot reach, linked among
        themselves but outside the walk (unvalidated blueprints only)."""
        by_name = {
            spec.name: Resource(
                spec, resolve_url(spec, stamp), resolve_size(spec, stamp)
            )
            for spec in strays
        }
        for name, resource in by_name.items():
            for child_spec in self.children_of(name):
                child = by_name[child_spec.name]
                child.parent = resource
                resource.children.append(child)
        return list(by_name.values())

    def _skeleton(self) -> "_Skeleton":
        """The stamp-independent shape of every snapshot (memoised).

        Built from :meth:`children_of` in one pre-order pass and dropped
        with it on :meth:`add`.
        """
        skeleton = self._skeleton_cache
        if skeleton is not None:
            return skeleton
        rows: List[_Row] = []
        device_sized = False
        row_of: Dict[str, int] = {}
        # (spec, parent row, parent's in_iframe or parent is an iframe doc)
        stack = [(self.specs[self.root], -1, False)]
        while stack:
            spec, parent_row, in_iframe = stack.pop()
            row = len(rows)
            row_of[spec.name] = row
            iframe_doc = parent_row >= 0 and spec.is_document
            url = None if has_flux(spec) else resolve_url(spec, _ANY_STAMP)
            size = resolve_size(spec, _ANY_STAMP)
            rows.append((spec, parent_row, iframe_doc, in_iframe, url, size))
            device_sized = device_sized or spec.device_dependent
            below = in_iframe or iframe_doc
            for child in reversed(self.children_of(spec.name)):
                stack.append((child, row, below))
        strays = [
            spec for spec in self.specs.values() if spec.name not in row_of
        ]
        for offset, spec in enumerate(strays):
            row_of[spec.name] = len(rows) + offset
        # repro: allow[PERF405] a NamedTuple carries no dict, and this
        # runs once per blueprint.
        skeleton = self._skeleton_cache = _Skeleton(
            rows=rows,
            device_sized=device_sized,
            strays=strays,
            slots=[(name, row_of[name]) for name in self.specs],
        )
        return skeleton

    def __getstate__(self) -> dict:
        # The skeleton is a memo that rebuilds on demand; pickled
        # blueprints (long-run checkpoints, worker payloads) leave it out.
        state = dict(self.__dict__)
        del state["_skeleton_cache"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._skeleton_cache = None


#: One pre-order row of a :class:`_Skeleton`: the spec, its parent's row
#: (-1 for the root), ``is_iframe_doc``, ``in_iframe``, the URL when the
#: spec has no flux (``None`` means resolve it per stamp), and the size
#: under :data:`_ANY_STAMP`.
_Row = Tuple[ResourceSpec, int, bool, bool, Optional[str], int]

#: The stamp the skeleton resolves under.  A spec without flux resolves
#: to the same URL under every stamp, and only a device-dependent spec
#: changes size with the stamp, and then only with its device class.
_ANY_STAMP = LoadStamp(when_hours=0.0)


class _Skeleton(NamedTuple):
    """What every materialisation of one blueprint shares.

    ``rows`` lists the resources the root reaches, in the client's
    pre-order processing order.  A child is in an iframe if its parent
    is, or if its parent is a document other than the root.
    ``device_sized`` says whether any row's size depends on the device
    class.  ``strays`` are specs the root does not reach, and ``slots``
    maps each spec name, in spec order, to its index in ``rows +
    strays``: the key order of :attr:`PageSnapshot.resources`.
    """

    rows: List[_Row]
    device_sized: bool
    strays: List[ResourceSpec]
    slots: List[Tuple[str, int]]


@dataclass
class PageSnapshot:
    """One concrete load of a page: what the client would actually fetch.

    The resource tree is fixed once :meth:`PageBlueprint.materialize`
    returns, so the pre-order walk and its derived views are computed once
    and memoised — the browser engine's discovery loop and completion
    checks hit these accessors thousands of times per simulated load.
    """

    page: str
    stamp: LoadStamp
    root: Resource
    resources: Dict[str, Resource]

    def __post_init__(self) -> None:
        self._walk_cache: Optional[List[Resource]] = None
        self._documents_cache: Optional[List[Resource]] = None

    def __iter__(self):
        return iter(self.all_resources())

    def _walk(self) -> List[Resource]:
        walk = self._walk_cache
        if walk is None:
            walk = self._walk_cache = self.root.subtree()
        return walk

    def all_resources(self) -> List[Resource]:
        return list(self._walk())

    def by_url(self) -> Dict[str, Resource]:
        return {resource.url: resource for resource in self._walk()}

    def urls(self) -> List[str]:
        return [resource.url for resource in self._walk()]

    def total_bytes(self) -> int:
        return sum(resource.size for resource in self._walk())

    def processable_bytes(self) -> int:
        return sum(
            resource.size
            for resource in self._walk()
            if resource.processable
        )

    def domains(self) -> List[str]:
        seen: Dict[str, None] = {}
        for resource in self._walk():
            seen.setdefault(resource.domain, None)
        return list(seen)

    def documents(self) -> List[Resource]:
        documents = self._documents_cache
        if documents is None:
            documents = self._documents_cache = [
                resource
                for resource in self._walk()
                if resource.is_document
            ]
        return documents

    def find(self, name: str) -> Resource:
        return self.resources[name]

    def hintable_descendants(self, doc: Resource) -> List[Resource]:
        """Descendants of ``doc`` reachable without crossing embedded HTML.

        This is the envelope a Vroom server serving ``doc`` may describe
        (Sec 4.2, Fig 10): embedded documents themselves are included, but
        nothing *derived from* them is, because their content may be
        personalised by another domain.
        """
        out: List[Resource] = []
        stack = list(reversed(doc.children))
        while stack:
            node = stack.pop()
            out.append(node)
            if node.is_document:
                continue
            stack.extend(reversed(node.children))
        return out


def shared_urls(a: PageSnapshot, b: PageSnapshot) -> List[str]:
    """URLs fetched by both snapshots (order follows ``a``)."""
    b_urls = set(b.urls())
    return [url for url in a.urls() if url in b_urls]


def merge_url_sets(snapshots: Iterable[PageSnapshot]) -> Dict[str, int]:
    """URL -> number of snapshots containing it."""
    counts: Dict[str, int] = {}
    for snapshot in snapshots:
        # dict.fromkeys deduplicates while keeping snapshot order, so the
        # result's insertion order is hash-seed independent.
        for url in dict.fromkeys(snapshot.urls()):
            counts[url] = counts.get(url, 0) + 1
    return counts
