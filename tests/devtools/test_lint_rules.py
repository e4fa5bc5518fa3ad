"""Every AST rule is exercised by the fixture files.

``fixtures/positives.py`` tags each violating line with ``# expect:
CODE``; the tests here assert the scanner flags exactly those lines
with exactly those codes.  ``fixtures/negatives.py`` holds near-misses
that must never be flagged.
"""

import re
from pathlib import Path
from typing import Dict

from repro.devtools.astrules import scan_source
from repro.devtools.findings import RULES
from repro.devtools.runner import lint_package

FIXTURES = Path(__file__).parent / "fixtures"
_EXPECT = re.compile(r"#\s*expect:\s*([A-Z]+\d+)")

#: Rules raised by the single-module AST scanner.  LAY3xx comes from
#: the import-graph checker (test_layering.py); CFG6xx needs docs + CLI
#: cross-checks (test_drift_rules.py).  Together the three fixture
#: suites must cover the whole registry —
#: test_registry_is_fully_fixture_covered below.
AST_RULES = {
    code
    for code in RULES
    if not code.startswith(("LAY", "CFG"))
}


def _expectations(source: str) -> Dict[int, str]:
    """line number -> expected rule code, from ``# expect:`` markers."""
    out: Dict[int, str] = {}
    for number, text in enumerate(source.splitlines(), start=1):
        match = _EXPECT.search(text)
        if match:
            out[number] = match.group(1)
    return out


def _flagged(source: str, pure: bool) -> Dict[int, set]:
    findings = scan_source(source, "fixture.py", pure=pure)
    out: Dict[int, set] = {}
    for finding in findings:
        out.setdefault(finding.line, set()).add(finding.code)
    return out


def test_every_marked_line_is_flagged():
    source = (FIXTURES / "positives.py").read_text()
    expected = _expectations(source)
    flagged = _flagged(source, pure=True)
    missed = {
        line: code
        for line, code in expected.items()
        if code not in flagged.get(line, set())
    }
    assert not missed, f"rules failed to fire: {missed}"


def test_no_unmarked_line_is_flagged():
    source = (FIXTURES / "positives.py").read_text()
    expected = _expectations(source)
    flagged = _flagged(source, pure=True)
    spurious = {
        line: codes
        for line, codes in flagged.items()
        if line not in expected or codes != {expected[line]}
    }
    assert not spurious, f"unexpected findings: {spurious}"


def test_positive_fixture_covers_every_ast_rule():
    source = (FIXTURES / "positives.py").read_text()
    assert set(_expectations(source).values()) == AST_RULES


def test_registry_is_fully_fixture_covered():
    """Adding a rule to RULES without a fixture fails here, by family."""
    claimed = set(AST_RULES)
    claimed |= {code for code in RULES if code.startswith("LAY")}
    claimed |= {code for code in RULES if code.startswith("CFG")}
    assert claimed == set(RULES), (
        "new rule family: give it a fixture suite and add its prefix "
        "to the split above"
    )


def test_negatives_are_never_flagged():
    source = (FIXTURES / "negatives.py").read_text()
    assert scan_source(source, "negatives.py", pure=True) == []


def test_purity_rules_relax_outside_pure_layers():
    """DET104/PUR201 apply only to sim layers; the rest always apply."""
    source = (FIXTURES / "positives.py").read_text()
    codes = {
        code for codes in _flagged(source, pure=False).values()
        for code in codes
    }
    assert "DET104" not in codes
    assert "PUR201" not in codes
    assert {"DET101", "DET102", "DET103", "DET105"} <= codes


def test_pragma_waives_the_named_rule(tmp_path):
    layer = tmp_path / "core"
    layer.mkdir()
    (layer / "mod.py").write_text(
        "import time\n"
        "def f():\n"
        "    return time.time()  # repro: allow[DET104] fixture waiver\n"
    )
    report = lint_package(tmp_path)
    assert report.clean
    assert [finding.code for finding in report.waived] == ["DET104"]


def test_pragma_does_not_waive_other_rules(tmp_path):
    layer = tmp_path / "core"
    layer.mkdir()
    (layer / "mod.py").write_text(
        "import time\n"
        "def f():\n"
        "    return time.time()  # repro: allow[PUR201] wrong code\n"
    )
    report = lint_package(tmp_path)
    assert [finding.code for finding in report.findings] == ["DET104"]
    assert not report.waived
