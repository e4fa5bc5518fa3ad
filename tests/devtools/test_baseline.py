"""Baseline semantics: matching, staleness, persistence."""

from repro.devtools.baseline import Baseline, BaselineEntry
from repro.devtools.findings import Finding


def _finding(code="DET101", path="net/link.py", line=10, message="msg",
             occurrence=0):
    return Finding(code=code, path=path, line=line, message=message,
                   occurrence=occurrence)


def _entry(finding, reason="known debt"):
    return BaselineEntry(
        path=finding.path,
        code=finding.code,
        message=finding.message,
        occurrence=finding.occurrence,
        reason=reason,
    )


def test_partition_splits_new_suppressed_stale():
    known = _finding()
    fresh = _finding(code="DET103", line=20, message="other")
    gone = _finding(code="PUR201", path="core/x.py", message="paid off")
    baseline = Baseline(entries=[_entry(known), _entry(gone)])
    new, suppressed, stale = baseline.partition([known, fresh])
    assert new == [fresh]
    assert suppressed == [known]
    assert [entry.key for entry in stale] == [_entry(gone).key]


def test_matching_ignores_line_numbers():
    """Moving code around must not churn the baseline."""
    baseline = Baseline(entries=[_entry(_finding(line=10))])
    new, suppressed, stale = baseline.partition([_finding(line=99)])
    assert not new and not stale
    assert len(suppressed) == 1


def test_occurrences_distinguish_duplicate_violations():
    first = _finding(occurrence=0)
    second = _finding(line=11, occurrence=1)
    baseline = Baseline(entries=[_entry(first)])
    new, suppressed, stale = baseline.partition([first, second])
    assert new == [second]
    assert suppressed == [first]
    assert not stale


def test_save_load_roundtrip(tmp_path):
    path = tmp_path / "baseline.json"
    original = Baseline(
        entries=[
            _entry(_finding(), reason="memo key only"),
            _entry(_finding(code="PUR201", path="pages/io.py",
                            message="file write"), reason="cli boundary"),
        ]
    )
    original.save(path)
    loaded = Baseline.load(path)
    assert loaded.entries == original.entries


def test_load_missing_file_is_empty_baseline(tmp_path):
    baseline = Baseline.load(tmp_path / "absent.json")
    assert baseline.entries == []
    new, suppressed, stale = baseline.partition([_finding()])
    assert len(new) == 1 and not suppressed and not stale


def test_from_findings_stamps_reason():
    baseline = Baseline.from_findings([_finding()], reason="seeded")
    assert [entry.reason for entry in baseline.entries] == ["seeded"]
    assert baseline.entries[0].key == _finding().key
