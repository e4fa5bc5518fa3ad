"""Shared fixtures: a small deterministic corpus, snapshots, servers."""

import pytest

from repro.calibration import DEFAULT_EVAL_HOUR, NEWS_SPORTS_PROFILE
from repro.pages.corpus import news_sports_corpus
from repro.pages.dynamics import LoadStamp
from repro.pages.generator import generate_page
from repro.pages.page import PageBlueprint
from repro.replay.recorder import record_snapshot


@pytest.fixture(scope="session")
def stamp():
    return LoadStamp(when_hours=DEFAULT_EVAL_HOUR)


@pytest.fixture(scope="session")
def corpus():
    """Six deterministic News/Sports pages (session-wide)."""
    return news_sports_corpus(count=6)


@pytest.fixture(scope="session")
def page(corpus):
    return corpus[0]


@pytest.fixture(scope="session")
def snapshot(page, stamp):
    return page.materialize(stamp)


@pytest.fixture(scope="session")
def store(snapshot):
    return record_snapshot(snapshot)


@pytest.fixture()
def small_page():
    """A fresh small page for tests that mutate or iterate quickly."""
    return generate_page(NEWS_SPORTS_PROFILE, "tiny", seed=99)


@pytest.fixture
def count_materialize(monkeypatch):
    """Counts ``PageBlueprint.materialize`` calls from here on."""
    calls = []
    materialize = PageBlueprint.materialize

    def counting(page, stamp):
        calls.append(stamp)
        return materialize(page, stamp)

    monkeypatch.setattr(PageBlueprint, "materialize", counting)
    return calls
