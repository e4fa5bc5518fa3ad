"""Satellite: digest-aware hint filtering (repro.core.cache_digest).

The wired-up knob (``ScenarioSpec.digest_filter_bits``) models a warm
client that summarises its previous visit's hints as a cache digest;
served hints are filtered through it so the service never re-pushes a
resource the client already holds.  The digest's error is one-sided —
a false positive suppresses a push, but a filtered hint list can never
contain a digest-held URL.
"""

import pytest

import repro.longrun.runner as runner_mod
from repro.core.cache_digest import CacheDigest, filter_pushes
from repro.longrun import LongRunner, run_scenario
from repro.scenario import ScenarioSpec

SMALL = dict(
    pages=4,
    horizon_hours=1.0,
    rate_per_hour=300.0,
    shards=3,
    rollup_hours=0.5,
    digest_filter_bits=8,
)


class TestFilterProperty:
    def test_filtered_hints_never_in_digest(self):
        held = [f"https://cdn.example/asset{i}.js" for i in range(40)]
        digest = CacheDigest(held, bits_per_entry=8)
        pushes = held + [
            f"https://cdn.example/fresh{i}.css" for i in range(40)
        ]
        filtered = filter_pushes(pushes, digest)
        assert all(url not in digest for url in filtered)
        # Everything held was suppressed (membership has no false
        # negatives), so at most the fresh URLs survive.
        assert set(filtered).isdisjoint(held)

    def test_low_bit_digest_only_over_filters(self):
        held = [f"https://a.example/r{i}" for i in range(64)]
        digest = CacheDigest(held, bits_per_entry=2)
        fresh = [f"https://b.example/n{i}" for i in range(64)]
        filtered = filter_pushes(held + fresh, digest)
        # One-sided error: collisions may drop fresh URLs, never leak
        # held ones.
        assert set(filtered) <= set(fresh)


class TestScenarioKnob:
    def test_runner_upholds_digest_invariant(self, monkeypatch):
        """Every filtered hint list the runner ever serves respects the
        digest: no surviving URL is digest-held, and every dropped URL
        is."""
        real = runner_mod.filter_pushes
        calls = []

        def checking(pushes, digest):
            out = real(pushes, digest)
            assert all(url not in digest for url in out)
            assert all(url in digest for url in set(pushes) - set(out))
            calls.append(len(pushes))
            return out

        monkeypatch.setattr(runner_mod, "filter_pushes", checking)
        report = run_scenario(ScenarioSpec(**SMALL))
        assert calls, "digest filter was never exercised"
        assert report["digest"]["filtered_lookups"] == len(calls)

    def test_repeat_visit_keeps_digest_changed_list_replaces_it(
        self, monkeypatch
    ):
        """A held digest survives a visit served its own source list
        (the rebuild would be identical); any other list replaces it
        with a digest built from that list."""
        source_of = {}
        real_digest = runner_mod.CacheDigest

        def building(urls, bits_per_entry):
            digest = real_digest(urls, bits_per_entry=bits_per_entry)
            source_of[id(digest)] = list(urls)
            return digest

        filtered = []
        real_filter = runner_mod.filter_pushes

        def recording(pushes, digest):
            filtered.append(list(pushes))
            return real_filter(pushes, digest)

        monkeypatch.setattr(runner_mod, "CacheDigest", building)
        monkeypatch.setattr(runner_mod, "filter_pushes", recording)
        runner = LongRunner(ScenarioSpec(**SMALL))
        process = runner._process_arrival
        outcomes = {"kept": 0, "replaced": 0}

        def checked(lookup, result, latency_ms):
            key = (lookup.user, lookup.page_index)
            held = runner._digests.get(key)
            filtered.clear()
            process(lookup, result, latency_ms)
            after = runner._digests.get(key)
            if held is None or not filtered or not filtered[0]:
                return
            if filtered[0] == source_of[id(held)]:
                assert after is held
                outcomes["kept"] += 1
            else:
                assert after is not held
                assert source_of[id(after)] == filtered[0]
                outcomes["replaced"] += 1

        runner._process_arrival = checked
        runner.run_to(runner.spec.horizon_hours)
        assert outcomes["kept"] > 0
        assert outcomes["replaced"] > 0

    def test_restored_digests_hold_no_source(self):
        """A checkpoint drops each digest's source list, so a resumed
        runner's digests summarise nothing until they are rebuilt."""
        runner = LongRunner(ScenarioSpec(**SMALL)).run_to(0.5)
        restored = LongRunner.from_checkpoint_bytes(
            runner.to_checkpoint_bytes()
        )
        assert restored._digests.keys() == runner._digests.keys()
        for key, digest in restored._digests.items():
            source = runner._digests[key]._source
            assert runner._digests[key].summarises(source)
            assert "_source" not in vars(digest)
            assert not digest.summarises(source)

    def test_digest_off_by_default(self):
        report = run_scenario(
            ScenarioSpec(**{**SMALL, "digest_filter_bits": 0})
        )
        assert report["digest"] == {
            "bits_per_entry": 0,
            "filtered_lookups": 0,
            "filtered_urls": 0,
        }

    def test_digest_filtering_changes_served_stream(self):
        with_digest = run_scenario(ScenarioSpec(**SMALL))
        without = run_scenario(
            ScenarioSpec(**{**SMALL, "digest_filter_bits": 0})
        )
        assert with_digest["digest"]["filtered_urls"] > 0
        assert with_digest["chain"] != without["chain"]

    def test_bits_knob_validated(self):
        with pytest.raises(ValueError, match="digest_filter_bits"):
            ScenarioSpec(**{**SMALL, "digest_filter_bits": 33})
