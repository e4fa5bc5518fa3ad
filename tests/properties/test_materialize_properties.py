"""Property: one-pass ``materialize`` equals the eager three-walk reference.

Pages are random valid trees with nested iframes and every kind of URL
flux; each is materialised under several stamps in a row (so the
memoised skeleton is reused across tablets, personalised users, nonces
and rotation-epoch boundaries) and compared field by field.  The
URL-only ``resolve_urls`` must list exactly the tree's URLs, and those
must equal the independently written token-join oracle's, spec by spec
in processing order; the offline resolver's tree-free ``stable_set``
record must equal the one read off the window's loads built in full.
Names and domains carry ``_``, ``.`` and ``-``, and an unknown device
must raise exactly when the page has a device-dependent spec.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.pages.dynamics import LoadStamp
from repro.pages.page import PageBlueprint
from repro.pages.resources import Discovery, ResourceSpec, ResourceType
from tests.core.test_offline import assert_record_matches_tree
from tests.pages.test_dynamics import token_join_url
from tests.pages.test_materialize import (
    assert_same_snapshot,
    reference_materialize,
)

_CONTAINERS = (ResourceType.HTML, ResourceType.JS, ResourceType.CSS)

#: Child types (and how they are discovered) each parent type admits.
_CHILDREN = {
    ResourceType.HTML: (
        Discovery.STATIC_MARKUP,
        [
            ResourceType.HTML,
            ResourceType.JS,
            ResourceType.CSS,
            ResourceType.IMAGE,
            ResourceType.VIDEO,
        ],
    ),
    ResourceType.JS: (
        Discovery.SCRIPT_COMPUTED,
        [ResourceType.JS, ResourceType.IMAGE, ResourceType.JSON],
    ),
    ResourceType.CSS: (
        Discovery.CSS_REF,
        [ResourceType.FONT, ResourceType.IMAGE],
    ),
}

#: Rotation lifetimes; the stamps below sit on and next to their epochs.
_LIFETIMES = [None, None, 0.5, 1.0, 3.0]

#: Name stems and domains with the separators a URL token also uses.
_STEMS = ["n", "a_b", "x.y", "c-d"]
_DOMAINS = ["p.com", "cdn.p.com", "ads.q.com", "a_b.p-q.com", "x-y.z_w.org"]

#: A device no class lists: resolving a device-dependent spec raises.
_UNKNOWN_DEVICE = "iphone99"


@st.composite
def flux(draw):
    return dict(
        lifetime_hours=draw(st.sampled_from(_LIFETIMES)),
        unpredictable=draw(st.booleans()),
        device_dependent=draw(st.booleans()),
        personalized=draw(st.booleans()),
    )


@st.composite
def pages(draw):
    page = PageBlueprint(name="prop", root="r")
    page.add(
        ResourceSpec(
            "r",
            ResourceType.HTML,
            "p.com",
            draw(st.integers(min_value=300, max_value=6_000)),
            **draw(flux()),
        )
    )
    containers = ["r"]
    for index in range(draw(st.integers(min_value=0, max_value=24))):
        parent = draw(st.sampled_from(containers))
        discovery, kinds = _CHILDREN[page.specs[parent].rtype]
        rtype = draw(st.sampled_from(kinds))
        # Stems hold no digit, so the index keeps every name unique.
        name = f"{draw(st.sampled_from(_STEMS))}{index}"
        page.add(
            ResourceSpec(
                name,
                rtype,
                draw(st.sampled_from(_DOMAINS)),
                draw(st.integers(min_value=1, max_value=4_000)),
                parent=parent,
                discovery=discovery,
                # Few positions, so sibling ties fall back to name order.
                position=draw(st.sampled_from([0.0, 0.25, 0.5, 1.0])),
                exec_async=draw(st.booleans()),
                **draw(flux()),
            )
        )
        if rtype in _CONTAINERS:
            containers.append(name)
    page.validate()
    return page


stamps = st.builds(
    LoadStamp,
    when_hours=st.sampled_from(
        [
            -2.5000001,
            0.0,
            0.4999,
            0.5,
            0.9999,
            1.0,
            2.9999,
            3.0,
            1000.25,
            1e6 + 0.25,
        ]
    ),
    device=st.sampled_from(["nexus6", "oneplus3", "nexus10", _UNKNOWN_DEVICE]),
    user=st.sampled_from(["user0", "user7", "__vroom_server__"]),
    nonce=st.integers(min_value=0, max_value=3),
)


@given(pages(), st.lists(stamps, min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_materialize_matches_reference(page, stamp_list):
    # The drawn pages are validated, so the root reaches every spec.
    device_rows = any(spec.device_dependent for spec in page.specs.values())
    for stamp in stamp_list:
        unknown = stamp.device == _UNKNOWN_DEVICE
        if unknown and device_rows:
            for build in (page.resolve_urls, page.materialize):
                with pytest.raises(ValueError, match="unknown device"):
                    build(stamp)
            continue
        reference = reference_materialize(page, stamp)
        assert_same_snapshot(page.materialize(stamp), reference)
        urls = page.resolve_urls(stamp)
        assert urls == page.materialize(stamp).urls()
        assert urls == [
            token_join_url(resource.spec, stamp)
            for resource in reference.all_resources()
        ]
        if not unknown:
            assert_record_matches_tree(
                page, stamp.when_hours, stamp.device_class
            )
