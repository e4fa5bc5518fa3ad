"""Unit tests for URL flux (rotation, nonces, devices, personalization)."""

import hashlib
import itertools

import pytest

from repro.pages.dynamics import LoadStamp, resolve_size, resolve_url
from repro.pages.page import PageBlueprint
from repro.pages.resources import ResourceSpec, ResourceType


def make_spec(**overrides):
    base = dict(
        name="res", rtype=ResourceType.IMAGE, domain="a.com", size=1000
    )
    base.update(overrides)
    return ResourceSpec(**base)


STAMP = LoadStamp(when_hours=100.0)


class TestLoadStamp:
    def test_device_class_phone(self):
        assert LoadStamp(when_hours=0, device="nexus6").device_class == "phone"
        assert (
            LoadStamp(when_hours=0, device="oneplus3").device_class == "phone"
        )

    def test_device_class_tablet(self):
        assert (
            LoadStamp(when_hours=0, device="nexus10").device_class == "tablet"
        )

    def test_unknown_device_rejected(self):
        # A read that raises caches nothing, so every read raises.
        stamp = LoadStamp(when_hours=0, device="iphone99")
        for _ in range(2):
            with pytest.raises(ValueError, match="unknown device"):
                stamp.device_class

    def test_cached_tokens_leave_identity_alone(self):
        read = LoadStamp(when_hours=2.5, device="nexus10", user="u", nonce=7)
        assert (read.device_class, read.nonce_tail, read.user_tail) == (
            "tablet",
            "|7|2.5",
            "|u",
        )
        fresh = LoadStamp(when_hours=2.5, device="nexus10", user="u", nonce=7)
        assert read == fresh
        assert hash(read) == hash(fresh)
        assert repr(read) == repr(fresh)

    def test_back_to_back_same_instant_new_nonce(self):
        b2b = STAMP.back_to_back()
        assert b2b.when_hours == STAMP.when_hours
        assert b2b.nonce != STAMP.nonce
        assert b2b.user == STAMP.user

    def test_earlier_shifts_clock(self):
        earlier = STAMP.earlier(24.0)
        assert earlier.when_hours == STAMP.when_hours - 24.0


class TestRotation:
    def test_non_rotating_has_no_epoch(self):
        url = resolve_url(make_spec(), LoadStamp(when_hours=50.0))
        assert url == "a.com/res.jpg"

    def test_epoch_advances_with_time(self):
        spec = make_spec(lifetime_hours=6.0)
        for hours, epoch in ((5.9, 0), (6.0, 1), (6.1, 1), (59.0, 9)):
            url = resolve_url(spec, LoadStamp(when_hours=hours))
            assert url == f"a.com/res_e{epoch}.jpg"

    def test_zero_lifetime_rejected(self):
        spec = make_spec(lifetime_hours=0.0)
        with pytest.raises(ValueError):
            resolve_url(spec, LoadStamp(when_hours=1.0))

    def test_rotating_url_changes_across_epochs(self):
        spec = make_spec(lifetime_hours=6.0)
        url_now = resolve_url(spec, LoadStamp(when_hours=100.0))
        url_same_epoch = resolve_url(spec, LoadStamp(when_hours=101.0))
        url_next_epoch = resolve_url(spec, LoadStamp(when_hours=108.0))
        assert url_now == url_same_epoch
        assert url_now != url_next_epoch


class TestResolveUrl:
    def test_deterministic(self):
        spec = make_spec()
        assert resolve_url(spec, STAMP) == resolve_url(spec, STAMP)

    def test_stable_spec_ignores_nonce(self):
        spec = make_spec()
        assert resolve_url(spec, STAMP) == resolve_url(
            spec, STAMP.back_to_back()
        )

    def test_unpredictable_differs_per_nonce(self):
        spec = make_spec(unpredictable=True)
        assert resolve_url(spec, STAMP) != resolve_url(
            spec, STAMP.back_to_back()
        )

    def test_device_variant_by_class_not_model(self):
        spec = make_spec(device_dependent=True)
        nexus6 = LoadStamp(when_hours=100.0, device="nexus6")
        oneplus = LoadStamp(when_hours=100.0, device="oneplus3")
        tablet = LoadStamp(when_hours=100.0, device="nexus10")
        assert resolve_url(spec, nexus6) == resolve_url(spec, oneplus)
        assert resolve_url(spec, nexus6) != resolve_url(spec, tablet)

    def test_personalized_differs_per_user(self):
        spec = make_spec(personalized=True)
        alice = LoadStamp(when_hours=100.0, user="alice")
        bob = LoadStamp(when_hours=100.0, user="bob")
        assert resolve_url(spec, alice) != resolve_url(spec, bob)
        assert resolve_url(spec, alice) == resolve_url(spec, alice)

    def test_url_carries_domain_and_extension(self):
        spec = make_spec(rtype=ResourceType.FONT)
        url = resolve_url(spec, STAMP)
        assert url.startswith("a.com/")
        assert url.endswith(".woff2")

    def test_extensions_by_type(self):
        for rtype, ext in [
            (ResourceType.HTML, ".html"),
            (ResourceType.CSS, ".css"),
            (ResourceType.JS, ".js"),
            (ResourceType.IMAGE, ".jpg"),
            (ResourceType.JSON, ".json"),
            (ResourceType.VIDEO, ".mp4"),
        ]:
            assert resolve_url(make_spec(rtype=rtype), STAMP).endswith(ext)


class TestResolveSize:
    def test_stable_size(self):
        assert resolve_size(make_spec(size=500), STAMP) == 500

    def test_tablet_gets_bigger_device_variants(self):
        spec = make_spec(size=1000, device_dependent=True)
        phone = LoadStamp(when_hours=1.0, device="nexus6")
        tablet = LoadStamp(when_hours=1.0, device="nexus10")
        assert resolve_size(spec, tablet) > resolve_size(spec, phone)

    def test_size_never_below_one(self):
        spec = make_spec(size=1)
        assert resolve_size(spec, STAMP) >= 1


def _token_digest(*parts):
    joined = "|".join(str(part) for part in parts)
    return hashlib.sha1(joined.encode()).hexdigest()[:10]


_EXT = {
    ResourceType.HTML: "html",
    ResourceType.CSS: "css",
    ResourceType.JS: "js",
    ResourceType.IMAGE: "jpg",
    ResourceType.FONT: "woff2",
    ResourceType.VIDEO: "mp4",
    ResourceType.JSON: "json",
    ResourceType.OTHER: "bin",
}


def token_join_url(spec, stamp):
    """The token-list URL builder that the one-pass version replaced."""
    tokens = [spec.name]
    lifetime = spec.lifetime_hours
    if lifetime is not None:
        if lifetime <= 0:
            raise ValueError(f"{spec.name!r}: non-positive rotation lifetime")
        tokens.append(f"e{int(stamp.when_hours // lifetime)}")
    if spec.unpredictable:
        tokens.append(
            "n" + _token_digest(spec.name, stamp.nonce, stamp.when_hours)
        )
    if spec.device_dependent:
        tokens.append(stamp.device_class)
    if spec.personalized:
        tokens.append("u" + _token_digest(spec.domain, stamp.user))
    return f"{spec.domain}/{'_'.join(tokens)}.{_EXT[spec.rtype]}"


#: Every combination of the four kinds of flux (the lifetime on or off).
FLUX_COMBINATIONS = [
    dict(
        lifetime_hours=lifetime,
        unpredictable=unpredictable,
        device_dependent=device,
        personalized=personalized,
    )
    for lifetime, unpredictable, device, personalized in itertools.product(
        (None, 2.5), (False, True), (False, True), (False, True)
    )
]

#: On and next to 2.5-hour epoch boundaries, negative and fractional too.
BOUNDARY_HOURS = [
    -5.0, -2.5000001, -2.5, -0.0000001, 0.0, 0.0000001, 1.25,
    2.4999999, 2.5, 2.5000001, 997.5, 999.9999999, 1000.0,
]


class TestUrlFormatOracle:
    def test_sixteen_flux_combinations(self):
        assert len(FLUX_COMBINATIONS) == 16

    def test_matches_token_join(self):
        # The 16 specs also hang off one root, so resolve_urls, whose
        # rows share the tokens the stamp caches, is held to the oracle
        # row by row.
        page = PageBlueprint(name="flux", root="root")
        root = page.add(
            make_spec(name="root", rtype=ResourceType.HTML, domain="b.org")
        )
        for index, flux in enumerate(FLUX_COMBINATIONS):
            rtype = list(ResourceType)[index % len(ResourceType)]
            page.add(
                make_spec(
                    name=f"res{index}",
                    rtype=rtype,
                    domain="cdn.b.org",
                    parent="root",
                    **flux,
                )
            )
        rows = [root] + page.children_of("root")
        for hours, device, user, nonce in itertools.product(
            BOUNDARY_HOURS,
            ("nexus6", "oneplus3", "nexus10"),
            ("user0", "user7", "__vroom_server__"),
            (0, 1, 41_277),
        ):
            stamp = LoadStamp(
                when_hours=hours, device=device, user=user, nonce=nonce
            )
            want = [token_join_url(spec, stamp) for spec in rows]
            assert [resolve_url(spec, stamp) for spec in rows] == want
            assert page.resolve_urls(stamp) == want

    def test_non_positive_lifetime_raises(self):
        for lifetime in (0.0, -1.0):
            spec = make_spec(lifetime_hours=lifetime, device_dependent=True)
            stamp = LoadStamp(when_hours=3.0, device="iphone99")
            with pytest.raises(ValueError, match="non-positive rotation"):
                resolve_url(spec, stamp)
            with pytest.raises(ValueError, match="non-positive rotation"):
                token_join_url(spec, stamp)

    def test_non_positive_lifetime_raises_from_the_page(self):
        # The skeleton compiles every row's URL parts, so a page that
        # reaches such a spec raises before any URL or size is read.
        for lifetime in (0.0, -1.0):
            page = PageBlueprint(name="one", root="root")
            page.add(make_spec(name="root", rtype=ResourceType.HTML))
            page.add(make_spec(parent="root", lifetime_hours=lifetime))
            reads = (page.resolve_urls, page.materialize, page.sized_specs)
            for read in reads:
                with pytest.raises(ValueError, match="non-positive rotation"):
                    read(STAMP)

    def test_unknown_device_raises_only_for_device_dependent_specs(self):
        stamp = LoadStamp(when_hours=3.0, device="iphone99")
        for flux in FLUX_COMBINATIONS:
            spec = make_spec(**flux)
            if flux["device_dependent"]:
                with pytest.raises(ValueError, match="unknown device"):
                    resolve_url(spec, stamp)
            else:
                assert resolve_url(spec, stamp) == token_join_url(spec, stamp)

    def test_unknown_device_raises_only_for_pages_with_device_specs(self):
        stamp = LoadStamp(when_hours=3.0, device="iphone99")
        for flux in FLUX_COMBINATIONS:
            page = PageBlueprint(name="one", root="root")
            page.add(make_spec(name="root", rtype=ResourceType.HTML))
            spec = page.add(make_spec(parent="root", **flux))
            if flux["device_dependent"]:
                with pytest.raises(ValueError, match="unknown device"):
                    page.resolve_urls(stamp)
            else:
                assert page.resolve_urls(stamp)[1] == token_join_url(
                    spec, stamp
                )
