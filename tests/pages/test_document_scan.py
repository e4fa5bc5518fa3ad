"""The one stored scan of each document: made on first read, shared by
every load of a snapshot, dropped when the body is assigned."""

import pickle

import pytest

from repro import audit
from repro.baselines.configs import run_config
from repro.pages import markup
from repro.replay.recorder import record_snapshot

CONFIGS = ("http2", "vroom", "push-all-fetch-asap")


def ref_pairs(scan):
    return [(ref.child.url, ref.byte_offset) for ref in scan.refs]


@pytest.fixture()
def count_scans(monkeypatch):
    """URLs of the documents scanned from here on, one entry per scan.

    The audit stays off: it re-scans on every later read by design.
    """
    monkeypatch.setattr(audit, "ENABLED", False)
    scanned = []
    scan_document = markup.scan_document

    def counting(doc):
        scanned.append(doc.url)
        return scan_document(doc)

    monkeypatch.setattr(markup, "scan_document", counting)
    return scanned


def test_one_scan_per_document_across_loads(small_page, stamp, count_scans):
    snapshot = small_page.materialize(stamp)
    store = record_snapshot(snapshot)
    for _ in range(2):
        for config in CONFIGS:
            run_config(config, small_page, snapshot, store)
    documents = [doc.url for doc in snapshot.documents()]
    assert len(documents) > 1
    assert sorted(count_scans) == sorted(documents)


def test_assigning_the_body_drops_the_scan(small_page, stamp, count_scans):
    root = small_page.materialize(stamp).root
    assert root.scan.refs
    root.body = ""
    assert root.scan.urls == ()
    assert count_scans == [root.url, root.url]


def test_scan_stays_out_of_repr_and_eq(small_page, stamp):
    scanned = small_page.materialize(stamp).root
    fresh = small_page.materialize(stamp).root
    assert scanned.scan.refs
    # Compare the documents alone, not their trees.
    scanned.children = fresh.children = []
    assert "ParsedRef" not in repr(scanned)
    assert scanned == fresh


def test_pickle_round_trip_keeps_the_refs(small_page, stamp, count_scans):
    snapshot = small_page.materialize(stamp)
    for doc in snapshot.documents():
        doc.scan
    clone = pickle.loads(pickle.dumps(snapshot))
    for doc, copy in zip(snapshot.documents(), clone.documents()):
        assert ref_pairs(copy.scan) == ref_pairs(doc.scan)
        assert copy.scan.urls == doc.scan.urls
        # The refs point into the clone's own tree.
        assert all(ref.child.parent is copy for ref in copy.scan.refs)
    # The clone read the pickled scans instead of scanning again.
    assert len(count_scans) == len(snapshot.documents())


@pytest.fixture()
def armed():
    audit.enable()
    yield
    audit.disable()


def test_audit_checks_every_later_read(armed, small_page, stamp):
    root = small_page.materialize(stamp).root
    scan = root.scan
    assert root.scan is scan
    first = scan.refs[0]
    root._scan = scan._replace(
        refs=(first._replace(byte_offset=first.byte_offset + 1),)
        + scan.refs[1:]
    )
    with pytest.raises(audit.AuditError, match="document-scan"):
        root.scan
