"""Property: one-pass ``materialize`` equals the eager three-walk reference.

Pages are random valid trees with nested iframes and every kind of URL
flux; each is materialised under several stamps in a row (so the
memoised skeleton is reused across tablets, personalised users, nonces
and rotation-epoch boundaries) and compared field by field.
"""

from hypothesis import given, settings, strategies as st

from repro.pages.dynamics import LoadStamp
from repro.pages.page import PageBlueprint
from repro.pages.resources import Discovery, ResourceSpec, ResourceType
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
        name = f"n{index}"
        page.add(
            ResourceSpec(
                name,
                rtype,
                draw(st.sampled_from(["p.com", "cdn.p.com", "ads.q.com"])),
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
        [0.0, 0.4999, 0.5, 0.9999, 1.0, 2.9999, 3.0, 1000.25]
    ),
    device=st.sampled_from(["nexus6", "oneplus3", "nexus10"]),
    user=st.sampled_from(["user0", "user7", "__vroom_server__"]),
    nonce=st.integers(min_value=0, max_value=3),
)


@given(pages(), st.lists(stamps, min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_materialize_matches_reference(page, stamp_list):
    for stamp in stamp_list:
        assert_same_snapshot(
            page.materialize(stamp), reference_materialize(page, stamp)
        )
