"""Unit tests for the incremental document parser state machine."""

from typing import Callable, List

from repro.browser.parser import DocumentParse
from repro.net.simulator import Simulator
from repro.pages import markup
from repro.pages.dynamics import LoadStamp
from repro.pages.page import PageBlueprint
from repro.pages.resources import Discovery, ResourceSpec, ResourceType

STAMP = LoadStamp(when_hours=5.0)


def build_doc(children_specs):
    page = PageBlueprint(name="pdoc", root="root")
    page.add(
        ResourceSpec(
            name="root",
            rtype=ResourceType.HTML,
            domain="a.com",
            size=20_000,
        )
    )
    for spec in children_specs:
        page.add(spec)
    page.validate()
    return page.materialize(STAMP).root


def child(name, rtype, position, **kw):
    return ResourceSpec(
        name=name,
        rtype=rtype,
        domain="a.com",
        size=kw.pop("size", 3_000),
        parent="root",
        position=position,
        **kw,
    )


class FakeEnvironment:
    """Deterministic instant-everything environment for the parser."""

    def __init__(self, doc, *, fetched=(), css_ready=True):
        self.sim = Simulator()
        self.doc = doc
        self.events: List[str] = []
        self.fetched = set(fetched)
        self.css_ready = css_ready
        self.completed = False
        self.parse = DocumentParse(
            doc,
            parse_time=lambda nbytes: nbytes * 1e-6,
            submit_cpu=self._submit,
            wait_for_bytes=self._wait_bytes,
            wait_for_fetch=self._wait_fetch,
            wait_for_css=self._wait_css,
            execute_script=self._execute,
            on_complete=self._done,
        )

    def _submit(self, duration: float, on_done: Callable[[], None]) -> None:
        self.sim.schedule(duration, on_done)

    def _wait_bytes(self, doc, offset, callback):
        self.events.append(f"bytes:{offset}")
        self.sim.call_soon(callback)

    def _wait_fetch(self, resource, callback):
        self.events.append(f"fetch:{resource.name}")
        self.sim.call_soon(callback)

    def _wait_css(self, sheets, callback):
        self.events.append(f"css:{len(sheets)}")
        self.sim.call_soon(callback)

    def _execute(self, resource, callback):
        self.events.append(f"exec:{resource.name}")
        self.sim.call_soon(callback)

    def _done(self, parse):
        self.completed = True

    def run(self):
        self.parse.start()
        self.sim.run()


class TestStaticRefs:
    def test_refs_match_markup_offsets(self):
        doc = build_doc(
            [
                child("i1", ResourceType.IMAGE, 0.2),
                child("j1", ResourceType.JS, 0.5),
            ]
        )
        refs = doc.scan.refs
        pairs = dict(markup.extract_urls_with_offsets(doc.body))
        for ref in refs:
            assert ref.byte_offset == pairs[ref.child.url]

    def test_refs_sorted(self):
        doc = build_doc(
            [
                child("late", ResourceType.IMAGE, 0.8),
                child("early", ResourceType.IMAGE, 0.1),
            ]
        )
        refs = doc.scan.refs
        assert [r.child.name for r in refs] == ["early", "late"]

    def test_script_computed_children_excluded(self):
        doc = build_doc(
            [
                child("j1", ResourceType.JS, 0.5),
                ResourceSpec(
                    name="dyn",
                    rtype=ResourceType.IMAGE,
                    domain="a.com",
                    size=100,
                    parent="j1",
                    discovery=Discovery.SCRIPT_COMPUTED,
                ),
            ]
        )
        refs = doc.scan.refs
        assert all(r.child.name != "dyn" for r in refs)


class TestBlockingCss:
    def test_blocking_css_before_position(self):
        doc = build_doc(
            [
                child("css_early", ResourceType.CSS, 0.1),
                child("css_late", ResourceType.CSS, 0.9),
                child("js_mid", ResourceType.JS, 0.5),
            ]
        )
        env = FakeEnvironment(doc)
        js_ref = next(
            r for r in env.parse.refs if r.child.name == "js_mid"
        )
        blocking = env.parse.blocking_css_before(js_ref.byte_offset)
        names = [sheet.name for sheet in blocking]
        assert names == ["css_early"]


class TestStateMachine:
    def test_sync_script_sequence(self):
        doc = build_doc(
            [
                child("css0", ResourceType.CSS, 0.1),
                child("sync", ResourceType.JS, 0.5),
            ]
        )
        env = FakeEnvironment(doc)
        env.run()
        assert env.completed
        fetch_index = env.events.index("fetch:sync")
        css_index = env.events.index("css:1")
        exec_index = env.events.index("exec:sync")
        assert fetch_index < css_index < exec_index

    def test_async_script_never_blocks(self):
        doc = build_doc(
            [child("ajs", ResourceType.JS, 0.5, exec_async=True)]
        )
        env = FakeEnvironment(doc)
        env.run()
        assert env.completed
        assert "fetch:ajs" not in env.events
        assert "exec:ajs" not in env.events

    def test_nonblocking_mode_skips_sync_waits(self):
        doc = build_doc([child("sync", ResourceType.JS, 0.5)])
        env = FakeEnvironment(doc)
        env.parse.nonblocking_scripts = True
        env.run()
        assert env.completed
        assert "fetch:sync" not in env.events

    def test_media_never_blocks(self):
        doc = build_doc(
            [
                child("img", ResourceType.IMAGE, 0.3),
                child("vid", ResourceType.VIDEO, 0.6),
            ]
        )
        env = FakeEnvironment(doc)
        env.run()
        assert env.completed
        assert not any(e.startswith("fetch:") for e in env.events)

    def test_parse_requests_bytes_in_order(self):
        doc = build_doc(
            [
                child("a", ResourceType.IMAGE, 0.2),
                child("b", ResourceType.IMAGE, 0.6),
            ]
        )
        env = FakeEnvironment(doc)
        env.run()
        byte_offsets = [
            int(event.split(":")[1])
            for event in env.events
            if event.startswith("bytes:")
        ]
        assert byte_offsets == sorted(byte_offsets)
        assert byte_offsets[-1] == doc.size

    def test_start_is_idempotent(self):
        doc = build_doc([child("img", ResourceType.IMAGE, 0.5)])
        env = FakeEnvironment(doc)
        env.parse.start()
        env.parse.start()
        env.sim.run()
        assert env.completed
        # Only one terminal byte request despite the double start.
        assert env.events.count(f"bytes:{doc.size}") == 1

    def test_empty_document(self):
        doc = build_doc([])
        env = FakeEnvironment(doc)
        env.run()
        assert env.completed
