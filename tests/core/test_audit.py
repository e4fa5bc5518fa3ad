"""Unit coverage for every helper in :mod:`repro.audit`."""

from types import SimpleNamespace

import pytest

from repro import audit


@pytest.fixture()
def armed():
    audit.enable()
    yield
    audit.disable()


def test_enable_disable_roundtrip():
    was = audit.enabled()
    try:
        audit.enable()
        assert audit.enabled() and audit.ENABLED
        audit.disable()
        assert not audit.enabled() and not audit.ENABLED
    finally:
        (audit.enable if was else audit.disable)()


def test_audit_error_is_an_assertion_error():
    error = audit.AuditError("some-invariant", "details here")
    assert isinstance(error, AssertionError)
    assert error.invariant == "some-invariant"
    assert "some-invariant" in str(error) and "details here" in str(error)


def test_require():
    audit.require(True, "ok")
    with pytest.raises(audit.AuditError) as info:
        audit.require(False, "broken", "the detail")
    assert info.value.invariant == "broken"


def test_clock_monotonic():
    audit.clock_monotonic(1.0, 1.0)
    audit.clock_monotonic(1.0, 2.5)
    with pytest.raises(audit.AuditError, match="sim-clock-monotonic"):
        audit.clock_monotonic(2.0, 1.5, context="event #7")


def test_fifo_discipline_accepts_single_head():
    audit.fifo_discipline(
        0, rated=[(2.0, 5)], head=(2.0, 5),
        active=[(2.0, 5), (2.0, 9), (1.0, 3)],
    )


def test_fifo_discipline_rejects_concurrent_bodies():
    with pytest.raises(audit.AuditError, match="fifo-discipline"):
        audit.fifo_discipline(
            1, rated=[(2.0, 5), (2.0, 9)], head=(2.0, 5),
            active=[(2.0, 5), (2.0, 9)],
        )


def test_fifo_discipline_rejects_wrong_head():
    # (weight 2, id 9) is served although (weight 2, id 5) heads the queue.
    with pytest.raises(audit.AuditError, match="fifo-discipline"):
        audit.fifo_discipline(
            1, rated=[(2.0, 9)], head=(2.0, 9),
            active=[(2.0, 5), (2.0, 9)],
        )


def test_fifo_order_tracks_per_origin_per_weight():
    last = {}
    audit.fifo_order(last, "cdn.example", 2.0, 4)
    audit.fifo_order(last, "cdn.example", 2.0, 7)
    audit.fifo_order(last, "cdn.example", 1.0, 5)  # other weight: own lane
    audit.fifo_order(last, "ads.example", 2.0, 1)  # other origin: own lane
    with pytest.raises(audit.AuditError, match="fifo-order"):
        audit.fifo_order(last, "cdn.example", 2.0, 6)


def test_stage_gate_rules():
    # Preload hints are need-now: allowed even before the root settles.
    audit.stage_gate(0, 0, "u", root_settled=False)
    # Open gate, root settled: fine.
    audit.stage_gate(2, 1, "u", root_settled=True)
    with pytest.raises(audit.AuditError, match="stage-gate"):
        audit.stage_gate(0, 1, "u", root_settled=True)
    with pytest.raises(audit.AuditError, match="root document settled"):
        audit.stage_gate(2, 1, "u", root_settled=False)


def test_stage_transition_only_advances():
    audit.stage_transition(0, 0)
    audit.stage_transition(0, 2)
    with pytest.raises(audit.AuditError, match="stage-transition"):
        audit.stage_transition(2, 1)


def test_fetch_bytes_accounted():
    audit.fetch_bytes_accounted("u", 1100.0, 100.0, 1000.0)
    audit.fetch_bytes_accounted("u", 1100.2, 100.0, 1000.0)  # in tolerance
    with pytest.raises(audit.AuditError, match="fetch-bytes"):
        audit.fetch_bytes_accounted("u", 900.0, 100.0, 1000.0)


def test_scan_matches():
    child = SimpleNamespace(url="a.com/x.jpg")
    stored = (((child, 40),), ("a.com/x.jpg",))
    audit.scan_matches("a.com/", stored, (((child, 40),), ("a.com/x.jpg",)))
    with pytest.raises(audit.AuditError, match="document-scan") as info:
        audit.scan_matches(
            "a.com/", stored, (((child, 41),), ("a.com/x.jpg",))
        )
    assert "('a.com/x.jpg', 41)" in str(info.value)


def test_bytes_conserved():
    audit.bytes_conserved(5000.0, 5000.4, 5000.0, tolerance=1.0)
    with pytest.raises(audit.AuditError, match="byte-conservation"):
        audit.bytes_conserved(5000.0, 4000.0, 5000.0, tolerance=1.0)
    with pytest.raises(audit.AuditError, match="LoadMetrics"):
        audit.bytes_conserved(5000.0, 5000.0, 4500.0, tolerance=1.0)


def test_env_opt_in_matches_the_documented_contract(armed):
    # enable()/disable() drive the same switch the env var seeds.
    assert audit.ENABLED
