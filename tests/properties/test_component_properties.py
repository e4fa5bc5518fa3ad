"""Property-based tests for the extension components."""

import pickle

from hypothesis import given, settings, strategies as st

from repro.browser.cpu import BAND_DEFER, BAND_EXEC, BAND_PARSER, CpuQueue
from repro.core.cache_digest import CacheDigest, filter_pushes
from repro.net.simulator import Simulator
from repro.pages.serialization import (
    blueprint_from_dict,
    blueprint_to_dict,
)

# ---------------------------------------------------------------------------
# CacheDigest: one-sided error under any input
# ---------------------------------------------------------------------------

_url = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Nd")),
    min_size=1,
    max_size=30,
).map(lambda path: f"dom.com/{path}")

_urls = st.lists(_url, max_size=100)

#: URL lists that repeat entries often: many draws come from a small
#: fixed pool.
_urls_with_repeats = st.lists(
    st.sampled_from([f"dom.com/r{i}" for i in range(8)]) | _url,
    max_size=60,
)


@given(_urls, st.integers(min_value=2, max_value=16))
def test_digest_never_false_negative(urls, bits):
    digest = CacheDigest(urls, bits_per_entry=bits)
    assert all(url in digest for url in urls)


@given(_urls)
def test_filter_pushes_is_subset_preserving_order(urls):
    digest = CacheDigest(urls[: len(urls) // 2])
    filtered = filter_pushes(urls, digest)
    assert [url for url in urls if url in filtered] == filtered
    # Everything filtered out was claimed cached.
    for url in set(urls) - set(filtered):
        assert url in digest


@given(
    _urls_with_repeats,
    st.integers(min_value=1, max_value=32),
    _urls_with_repeats,
)
def test_digest_recognises_its_source_only_while_live(urls, bits, other):
    digest = CacheDigest(urls, bits_per_entry=bits)
    assert digest.summarises(list(urls))
    assert filter_pushes(list(urls), digest) == []
    clone = pickle.loads(pickle.dumps(digest))
    for pushes in (urls, other, other + urls):
        assert not clone.summarises(pushes)
        expected = [url for url in pushes if url not in digest]
        assert filter_pushes(pushes, clone) == expected
        assert filter_pushes(pushes, digest) == expected


# ---------------------------------------------------------------------------
# CpuQueue: conservation and band ordering
# ---------------------------------------------------------------------------


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.001, max_value=1.0),
            st.sampled_from([BAND_PARSER, BAND_EXEC, BAND_DEFER]),
        ),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=40, deadline=None)
def test_cpu_queue_conserves_work(tasks):
    sim = Simulator()
    cpu = CpuQueue(sim)
    done = []
    for duration, band in tasks:
        cpu.submit(duration, lambda d=duration: done.append(d), band=band)
    finish = sim.run()
    total = sum(duration for duration, _ in tasks)
    assert len(done) == len(tasks)
    assert abs(cpu.busy_time - total) < 1e-9
    assert abs(finish - total) < 1e-9  # serial, work-conserving


@given(
    st.lists(
        st.floats(min_value=0.01, max_value=0.5), min_size=2, max_size=10
    )
)
@settings(max_examples=30, deadline=None)
def test_cpu_queue_defer_band_runs_last_when_queued_together(durations):
    sim = Simulator()
    cpu = CpuQueue(sim)
    order = []
    for index, duration in enumerate(durations):
        band = BAND_DEFER if index % 2 else BAND_PARSER
        cpu.submit(
            duration,
            lambda i=index: order.append(i),
            band=band,
        )
    sim.run()
    # Among tasks queued before anything ran, parser-band tasks (the
    # first submission runs immediately regardless) precede defer-band.
    parser_positions = [
        order.index(i) for i in range(1, len(durations)) if i % 2 == 0
    ]
    defer_positions = [
        order.index(i) for i in range(1, len(durations)) if i % 2 == 1
    ]
    if parser_positions and defer_positions:
        assert max(parser_positions) < min(defer_positions) or (
            len(durations) <= 2
        )


# ---------------------------------------------------------------------------
# Serialization: generated pages always round-trip
# ---------------------------------------------------------------------------


@given(st.integers(min_value=0, max_value=5000))
@settings(max_examples=15, deadline=None)
def test_blueprints_round_trip(seed):
    from repro.calibration import ALEXA_TOP100_PROFILE
    from repro.pages.generator import generate_page

    page = generate_page(ALEXA_TOP100_PROFILE, "ser", seed=seed)
    restored = blueprint_from_dict(blueprint_to_dict(page))
    assert set(restored.specs) == set(page.specs)
    for name, spec in page.specs.items():
        assert restored.specs[name] == spec
