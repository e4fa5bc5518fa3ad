"""Unit tests for the resource model."""

import pytest

from repro.pages.resources import (
    Discovery,
    Priority,
    PROCESSABLE_TYPES,
    Resource,
    ResourceSpec,
    ResourceType,
    priority_of,
)


def make_spec(**overrides):
    base = dict(
        name="r0",
        rtype=ResourceType.IMAGE,
        domain="a.com",
        size=1000,
    )
    base.update(overrides)
    return ResourceSpec(**base)


class TestResourceSpec:
    def test_positive_size_required(self):
        with pytest.raises(ValueError):
            make_spec(size=0)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            make_spec(size=-5)

    def test_position_bounds(self):
        with pytest.raises(ValueError):
            make_spec(position=1.5)
        with pytest.raises(ValueError):
            make_spec(position=-0.1)

    def test_position_boundaries_allowed(self):
        assert make_spec(position=0.0).position == 0.0
        assert make_spec(position=1.0).position == 1.0

    def test_processable_types(self):
        for rtype in (ResourceType.HTML, ResourceType.CSS, ResourceType.JS):
            assert make_spec(rtype=rtype).processable
        for rtype in (
            ResourceType.IMAGE,
            ResourceType.FONT,
            ResourceType.VIDEO,
            ResourceType.JSON,
            ResourceType.OTHER,
        ):
            assert not make_spec(rtype=rtype).processable

    def test_is_document(self):
        assert make_spec(rtype=ResourceType.HTML).is_document
        assert not make_spec(rtype=ResourceType.JS).is_document


class TestPriorityOf:
    def test_sync_processable_is_preload(self):
        assert priority_of(ResourceType.JS) is Priority.PRELOAD
        assert priority_of(ResourceType.CSS) is Priority.PRELOAD

    def test_async_processable_is_semi_important(self):
        assert (
            priority_of(ResourceType.JS, exec_async=True)
            is Priority.SEMI_IMPORTANT
        )

    def test_media_is_unimportant(self):
        assert priority_of(ResourceType.IMAGE) is Priority.UNIMPORTANT
        assert priority_of(ResourceType.FONT) is Priority.UNIMPORTANT
        assert priority_of(ResourceType.VIDEO) is Priority.UNIMPORTANT

    def test_iframe_descendants_are_unimportant(self):
        """Footnote 4: anything under third-party HTML is low priority."""
        assert (
            priority_of(ResourceType.JS, in_iframe=True)
            is Priority.UNIMPORTANT
        )
        assert (
            priority_of(ResourceType.CSS, in_iframe=True)
            is Priority.UNIMPORTANT
        )

    def test_iframe_documents_are_unimportant(self):
        assert (
            priority_of(ResourceType.HTML, is_iframe_doc=True)
            is Priority.UNIMPORTANT
        )

    def test_priority_ordering(self):
        assert Priority.PRELOAD < Priority.SEMI_IMPORTANT < Priority.UNIMPORTANT


class TestResource:
    def _tree(self):
        root_spec = make_spec(name="root", rtype=ResourceType.HTML)
        child_spec = make_spec(
            name="child", rtype=ResourceType.JS, parent="root"
        )
        grand_spec = make_spec(
            name="grand",
            rtype=ResourceType.IMAGE,
            parent="child",
            discovery=Discovery.SCRIPT_COMPUTED,
        )
        root = Resource(spec=root_spec, url="a.com/root.html", size=100)
        child = Resource(spec=child_spec, url="a.com/child.js", size=50)
        grand = Resource(spec=grand_spec, url="a.com/grand.jpg", size=10)
        child.parent = root
        grand.parent = child
        root.children = [child]
        child.children = [grand]
        return root, child, grand

    def test_descendants_preorder(self):
        root, child, grand = self._tree()
        assert root.descendants() == [child, grand]

    def test_subtree_includes_self(self):
        root, child, grand = self._tree()
        assert root.subtree() == [root, child, grand]
        assert grand.subtree() == [grand]

    def test_delegated_properties(self):
        root, child, _ = self._tree()
        assert child.name == "child"
        assert child.rtype is ResourceType.JS
        assert child.domain == "a.com"
        assert child.processable
        assert not child.is_document
        assert root.is_document


def test_processable_types_frozen():
    assert ResourceType.HTML in PROCESSABLE_TYPES
    with pytest.raises(AttributeError):
        PROCESSABLE_TYPES.add(ResourceType.IMAGE)
