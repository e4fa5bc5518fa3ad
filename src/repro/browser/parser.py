"""HTML document parsing with real blocking semantics.

Each document's parse is a little state machine that parses the body
segment by segment, one segment per static reference.  The engine starts
a parse only once the document's whole body is fetched, so the byte gate
each segment passes (``wait_for_bytes``) finds its bytes already there.
What drives the parse is the CPU queue (parse segments and script
execution are serial CPU tasks) and the blocking rules (a synchronous
script blocks the parser until it is fetched, earlier stylesheets are
applied, and the script has executed).

The preload scanner is modelled separately from the parser, and only it
reads a document's bytes as they arrive: static references are
*discovered* the moment their enclosing bytes arrive, before the
document's parse can start — exactly the behaviour that lets real
browsers overlap some fetches, and exactly what Vroom generalises.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.pages.resources import Resource, ResourceType


class DocumentParse:
    """Drives the parse of one HTML document inside a page load.

    The owner (the engine) supplies the environment via callbacks; this
    class only sequences segments, blocks and script execution.
    """

    def __init__(
        self,
        doc: Resource,
        *,
        parse_time: Callable[[float], float],
        submit_cpu: Callable[[float, Callable[[], None]], None],
        wait_for_bytes: Callable[[Resource, int, Callable[[], None]], None],
        wait_for_fetch: Callable[[Resource, Callable[[], None]], None],
        wait_for_css: Callable[[List[Resource], Callable[[], None]], None],
        execute_script: Callable[[Resource, Callable[[], None]], None],
        on_complete: Callable[["DocumentParse"], None],
        nonblocking_scripts: bool = False,
        on_segment: Optional[Callable[[int, int], None]] = None,
    ):
        self.doc = doc
        #: Static references in offset order, from the document's one scan.
        self.refs = doc.scan.refs
        self._parse_time = parse_time
        self._submit_cpu = submit_cpu
        self._wait_for_bytes = wait_for_bytes
        self._wait_for_fetch = wait_for_fetch
        self._wait_for_css = wait_for_css
        self._execute_script = execute_script
        self._on_complete = on_complete
        self.nonblocking_scripts = nonblocking_scripts
        self._on_segment = on_segment
        self._index = 0
        self._cursor = 0
        self.started = False
        self.finished = False

    # -- queries ---------------------------------------------------------

    def blocking_css_before(self, offset: int) -> List[Resource]:
        """Stylesheets declared earlier than ``offset`` in this document."""
        return [
            ref.child
            for ref in self.refs
            if ref.byte_offset <= offset
            and ref.child.rtype is ResourceType.CSS
        ]

    # -- state machine -----------------------------------------------------

    def start(self) -> None:
        if self.started:
            return
        self.started = True
        self._step()

    def _step(self) -> None:
        """Parse up to the next reference (or the end of the document)."""
        if self._index < len(self.refs):
            target = self.refs[self._index].byte_offset
        else:
            target = self.doc.size
        self._wait_for_bytes(
            self.doc, target, lambda: self._parse_segment(target)
        )

    def _parse_segment(self, target: int) -> None:
        length = max(0, target - self._cursor)
        self._cursor = target
        self._submit_cpu(
            self._parse_time(length),
            lambda: self._segment_parsed_with_progress(length),
        )

    def _segment_parsed_with_progress(self, length: int) -> None:
        if self._on_segment is not None and length > 0:
            self._on_segment(length, self._cursor)
        self._segment_parsed()

    def _segment_parsed(self) -> None:
        if self._index >= len(self.refs):
            self._finish()
            return
        ref = self.refs[self._index]
        self._index += 1
        child = ref.child
        is_sync_script = (
            child.rtype is ResourceType.JS
            and not child.spec.exec_async
            and not self.nonblocking_scripts
        )
        if not is_sync_script:
            # CSS / images / iframes / async scripts never block the parser.
            self._step()
            return
        blocking_css = self.blocking_css_before(ref.byte_offset)

        def after_fetch() -> None:
            self._wait_for_css(blocking_css, after_css)

        def after_css() -> None:
            self._execute_script(child, self._step)

        self._wait_for_fetch(child, after_fetch)

    def _finish(self) -> None:
        if self.finished:
            return
        self.finished = True
        self._on_complete(self)
