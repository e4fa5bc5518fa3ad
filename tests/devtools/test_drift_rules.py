"""CFG6xx config/contract drift: dataclasses vs docs tables vs CLI flags."""

from pathlib import Path

from repro.devtools.driftrules import (
    normalize_default,
    parse_knob_tables,
    scan_config,
)
from repro.devtools.findings import RULES
from repro.devtools.modules import parse_package

REPO_ROOT = Path(__file__).resolve().parents[2]
PACKAGE_ROOT = REPO_ROOT / "src" / "repro"
API_DOCS = REPO_ROOT / "docs" / "API.md"

CONTRACT = ("cfgpkg.conf.TunerConfig",)

CONF_SOURCE = (
    "from dataclasses import dataclass\n"
    "from typing import Optional\n"
    "@dataclass\n"
    "class TunerConfig:\n"
    "    name: str\n"
    "    alpha: float = 0.5\n"
    "    beta: int = 100_000\n"
    "    gamma: Optional[float] = None\n"
)

GOOD_DOCS = (
    "<!-- knobs: cfgpkg.conf.TunerConfig -->\n"
    "| knob | default | meaning |\n"
    "| --- | --- | --- |\n"
    "| `name` | `required` | tuner identity |\n"
    "| `alpha` | `0.5` | damping |\n"
    "| `beta` | `100000` | budget |\n"
    "| `gamma` | `None` | optional override |\n"
)


def _modules(tmp_path, conf=CONF_SOURCE, cli=None):
    root = tmp_path / "cfgpkg"
    root.mkdir(exist_ok=True)
    (root / "__init__.py").write_text("")
    (root / "conf.py").write_text(conf)
    if cli is not None:
        (root / "cli.py").write_text(cli)
    return parse_package(root, package="cfgpkg")


def test_matching_docs_are_clean(tmp_path):
    findings = scan_config(_modules(tmp_path), GOOD_DOCS, CONTRACT)
    assert findings == []


def test_semantic_default_comparison(tmp_path):
    """``100_000`` in docs matches ``100000`` in code, and vice versa."""
    docs = GOOD_DOCS.replace("`100000`", "`100_000`")
    assert scan_config(_modules(tmp_path), docs, CONTRACT) == []
    assert normalize_default("100_000") == normalize_default("100000")


def test_missing_table_is_cfg601(tmp_path):
    findings = scan_config(_modules(tmp_path), "# no tables here\n", CONTRACT)
    assert [finding.code for finding in findings] == ["CFG601"]
    assert "TunerConfig" in findings[0].message


def test_undocumented_field_is_cfg601(tmp_path):
    docs = GOOD_DOCS.replace("| `gamma` | `None` | optional override |\n", "")
    findings = scan_config(_modules(tmp_path), docs, CONTRACT)
    assert [finding.code for finding in findings] == ["CFG601"]
    assert "gamma" in findings[0].message


def test_removed_but_documented_field_is_cfg602(tmp_path):
    docs = GOOD_DOCS + "| `delta` | `3` | no longer exists |\n"
    findings = scan_config(_modules(tmp_path), docs, CONTRACT)
    assert [finding.code for finding in findings] == ["CFG602"]
    assert "delta" in findings[0].message


def test_default_drift_is_cfg603(tmp_path):
    docs = GOOD_DOCS.replace("| `alpha` | `0.5` |", "| `alpha` | `0.7` |")
    findings = scan_config(_modules(tmp_path), docs, CONTRACT)
    assert [finding.code for finding in findings] == ["CFG603"]
    assert "alpha" in findings[0].message
    assert "`0.5`" in findings[0].message and "`0.7`" in findings[0].message


def test_required_marker_must_match_defaultlessness(tmp_path):
    docs = GOOD_DOCS.replace("| `name` | `required` |", "| `name` | `'x'` |")
    findings = scan_config(_modules(tmp_path), docs, CONTRACT)
    assert [finding.code for finding in findings] == ["CFG603"]
    assert "required" in findings[0].message


def test_fixture_covers_every_cfg_rule():
    """The scenarios above must exercise the whole CFG family."""
    covered = {"CFG601", "CFG602", "CFG603"}
    assert covered == {code for code in RULES if code.startswith("CFG")}


# -- CLI flag cross-check ----------------------------------------------------


def _cli_source(default: str) -> str:
    return (
        "import argparse\n"
        "def build():\n"
        "    parser = argparse.ArgumentParser()\n"
        f"    parser.add_argument('--alpha', type=float, default={default})\n"
        "    parser.add_argument('--unrelated', default=9)\n"
        "    return parser\n"
    )


def test_cli_flag_matching_dataclass_default_is_clean(tmp_path):
    modules = _modules(tmp_path, cli=_cli_source("0.5"))
    assert scan_config(modules, GOOD_DOCS, CONTRACT) == []


def test_cli_flag_default_none_means_not_given(tmp_path):
    modules = _modules(tmp_path, cli=_cli_source("None"))
    assert scan_config(modules, GOOD_DOCS, CONTRACT) == []


def test_cli_flag_drift_is_cfg603(tmp_path):
    modules = _modules(tmp_path, cli=_cli_source("2.0"))
    findings = scan_config(modules, GOOD_DOCS, CONTRACT)
    assert [finding.code for finding in findings] == ["CFG603"]
    assert "--alpha" in findings[0].message
    assert findings[0].path == "cli.py"


# -- the real repository contract --------------------------------------------


def test_repo_docs_match_repo_dataclasses():
    modules = parse_package(PACKAGE_ROOT, "repro")
    assert scan_config(modules, API_DOCS.read_text()) == []


def test_corrupting_api_docs_raises_cfg603():
    """Flip one default in docs/API.md: the drift pass must catch it."""
    docs = API_DOCS.read_text()
    corrupted = docs.replace("| `ttl_hours` | `12.0` |",
                             "| `ttl_hours` | `9.9` |", 1)
    assert corrupted != docs, "docs/API.md lost its ttl_hours row"
    modules = parse_package(PACKAGE_ROOT, "repro")
    findings = scan_config(modules, corrupted)
    assert [finding.code for finding in findings] == ["CFG603"]
    assert "ttl_hours" in findings[0].message


def test_repo_docs_tables_cover_every_contract_class():
    tables = parse_knob_tables(API_DOCS.read_text())
    from repro.devtools.driftrules import DEFAULT_CONTRACTS
    assert set(DEFAULT_CONTRACTS) <= set(tables)
