"""``repro lint`` end to end through the argparse front end."""

import json
from pathlib import Path

from repro.cli import main
from repro.devtools.baseline import Baseline, BaselineEntry
from repro.devtools.findings import RULES

REPO_ROOT = Path(__file__).resolve().parents[2]
PACKAGE_ROOT = REPO_ROOT / "src" / "repro"
BASELINE_PATH = REPO_ROOT / "lint-baseline.json"


def test_lint_is_clean_with_repo_baseline(capsys):
    code = main([
        "lint", "--root", str(PACKAGE_ROOT),
        "--baseline", str(BASELINE_PATH),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "0 finding(s)" in out
    assert "0 stale" in out


def test_lint_json_output_is_machine_readable(capsys):
    code = main([
        "lint", "--root", str(PACKAGE_ROOT),
        "--baseline", str(BASELINE_PATH), "--format", "json",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["findings"] == []
    assert payload["stale_baseline"] == []
    assert payload["summary"]["clean"] is True
    assert payload["summary"]["files_scanned"] > 50


def test_lint_rules_lists_the_registry(capsys):
    assert main(["lint", "--rules"]) == 0
    out = capsys.readouterr().out
    for code in RULES:
        assert code in out


def test_lint_fails_on_new_finding(tmp_path, capsys):
    layer = tmp_path / "pkg" / "core"
    layer.mkdir(parents=True)
    (layer / "mod.py").write_text(
        "import time\n"
        "def f():\n"
        "    return time.time()\n"
    )
    code = main([
        "lint", "--root", str(tmp_path / "pkg"),
        "--baseline", str(tmp_path / "absent.json"),
    ])
    assert code == 1
    assert "DET104" in capsys.readouterr().out


def test_update_baseline_then_clean(tmp_path, capsys):
    layer = tmp_path / "pkg" / "core"
    layer.mkdir(parents=True)
    (layer / "mod.py").write_text(
        "import random\n"
        "def f():\n"
        "    return random.random()\n"
    )
    baseline_path = tmp_path / "baseline.json"
    assert main([
        "lint", "--root", str(tmp_path / "pkg"),
        "--baseline", str(baseline_path), "--update-baseline",
        "--reason", "seeded RNG pending a determinism fix",
    ]) == 0
    capsys.readouterr()
    entries = Baseline.load(baseline_path).entries
    assert [entry.code for entry in entries] == ["DET103"]
    assert entries[0].reason == "seeded RNG pending a determinism fix"
    assert main([
        "lint", "--root", str(tmp_path / "pkg"),
        "--baseline", str(baseline_path),
    ]) == 0
    assert "1 baselined" in capsys.readouterr().out


def test_update_baseline_preserves_existing_reasons(tmp_path, capsys):
    layer = tmp_path / "pkg" / "core"
    layer.mkdir(parents=True)
    (layer / "mod.py").write_text(
        "import random\n"
        "def f():\n"
        "    return random.random()\n"
    )
    baseline_path = tmp_path / "baseline.json"
    main([
        "lint", "--root", str(tmp_path / "pkg"),
        "--baseline", str(baseline_path), "--update-baseline",
        "--reason", "first pass",
    ])
    entries = Baseline.load(baseline_path).entries
    Baseline(
        entries=[
            type(entry)(
                path=entry.path, code=entry.code, message=entry.message,
                occurrence=entry.occurrence, reason="explained now",
            )
            for entry in entries
        ]
    ).save(baseline_path)
    main([
        "lint", "--root", str(tmp_path / "pkg"),
        "--baseline", str(baseline_path), "--update-baseline",
        "--reason", "refreshing the file",
    ])
    capsys.readouterr()
    assert [
        entry.reason for entry in Baseline.load(baseline_path).entries
    ] == ["explained now"]


def _write_finding_package(tmp_path):
    layer = tmp_path / "pkg" / "core"
    layer.mkdir(parents=True)
    (layer / "mod.py").write_text(
        "import random\n"
        "def f():\n"
        "    return random.random()\n"
    )
    return tmp_path / "pkg", tmp_path / "baseline.json"


def test_update_baseline_requires_reason(tmp_path, capsys):
    root, baseline_path = _write_finding_package(tmp_path)
    code = main([
        "lint", "--root", str(root),
        "--baseline", str(baseline_path), "--update-baseline",
    ])
    assert code == 2
    assert "--reason" in capsys.readouterr().err
    assert not baseline_path.exists()


def test_update_baseline_rejects_todo_reason(tmp_path, capsys):
    root, baseline_path = _write_finding_package(tmp_path)
    code = main([
        "lint", "--root", str(root),
        "--baseline", str(baseline_path), "--update-baseline",
        "--reason", "TODO: explain",
    ])
    assert code == 2
    assert "--reason" in capsys.readouterr().err
    assert not baseline_path.exists()


def test_filtered_update_keeps_unselected_entries(tmp_path, capsys):
    """A filtered --update-baseline rewrites only the codes it ran."""
    root, baseline_path = _write_finding_package(tmp_path)
    main([
        "lint", "--root", str(root),
        "--baseline", str(baseline_path), "--update-baseline",
        "--reason", "seeded RNG pending a determinism fix",
    ])
    before = baseline_path.read_text()
    assert main([
        "lint", "--root", str(root),
        "--baseline", str(baseline_path), "--only-family", "config",
        "--update-baseline", "--reason", "config pass only",
    ]) == 0
    assert baseline_path.read_text() == before
    capsys.readouterr()
    assert main([
        "lint", "--root", str(root), "--baseline", str(baseline_path),
    ]) == 0
    assert "1 baselined" in capsys.readouterr().out


def test_update_baseline_drops_stale_entries(tmp_path, capsys):
    """An entry whose violation is gone leaves the file on update.

    A filtered update drops only the stale entries it selected; a
    plain one drops every stale entry.
    """
    root, baseline_path = _write_finding_package(tmp_path)
    main([
        "lint", "--root", str(root),
        "--baseline", str(baseline_path), "--update-baseline",
        "--reason", "seeded RNG pending a determinism fix",
    ])
    unselected = BaselineEntry(
        path="core/mod.py", code="CFG601", message="x", occurrence=1,
        reason="outside the det family",
    )
    Baseline(
        entries=Baseline.load(baseline_path).entries + [unselected]
    ).save(baseline_path)
    (root / "core" / "mod.py").write_text("def f():\n    return 4\n")
    assert main([
        "lint", "--root", str(root),
        "--baseline", str(baseline_path), "--only-family", "det",
        "--update-baseline", "--reason", "det pass only",
    ]) == 0
    assert Baseline.load(baseline_path).entries == [unselected]
    assert main([
        "lint", "--root", str(root),
        "--baseline", str(baseline_path), "--update-baseline",
        "--reason", "full pass",
    ]) == 0
    capsys.readouterr()
    assert Baseline.load(baseline_path).entries == []


def test_unknown_code_entry_is_stale_on_every_run(tmp_path, capsys):
    """An entry for a code no rule emits can never match a finding.

    ``OLD901`` stands for a retired rule's code.
    """
    assert "OLD901" not in RULES
    root, baseline_path = _write_finding_package(tmp_path)
    (root / "core" / "mod.py").write_text("def f():\n    return 4\n")
    retired = BaselineEntry(
        path="core/mod.py", code="OLD901", message="x", occurrence=1,
        reason="a code no rule emits",
    )
    Baseline(entries=[retired]).save(baseline_path)
    for narrowing in ([], ["--only-family", "config"]):
        assert main([
            "lint", "--root", str(root),
            "--baseline", str(baseline_path), *narrowing,
        ]) == 1
        assert "stale baseline entry OLD901" in capsys.readouterr().out
    assert main([
        "lint", "--root", str(root),
        "--baseline", str(baseline_path), "--only-family", "config",
        "--update-baseline", "--reason", "config pass only",
    ]) == 0
    capsys.readouterr()
    assert Baseline.load(baseline_path).entries == []

def test_select_narrows_the_run(tmp_path, capsys):
    root, baseline_path = _write_finding_package(tmp_path)
    # The package's only violation is DET103; selecting another code
    # must leave the run clean (and not report unrelated stale entries).
    assert main([
        "lint", "--root", str(root),
        "--baseline", str(baseline_path), "--select", "CFG601",
    ]) == 0
    capsys.readouterr()
    code = main([
        "lint", "--root", str(root),
        "--baseline", str(baseline_path), "--select", "DET103",
    ])
    assert code == 1
    assert "DET103" in capsys.readouterr().out


def test_only_family_narrows_the_run(tmp_path, capsys):
    root, baseline_path = _write_finding_package(tmp_path)
    assert main([
        "lint", "--root", str(root),
        "--baseline", str(baseline_path), "--only-family", "config",
    ]) == 0
    capsys.readouterr()
    code = main([
        "lint", "--root", str(root),
        "--baseline", str(baseline_path), "--only-family", "det",
    ])
    assert code == 1
    assert "DET103" in capsys.readouterr().out


def test_unknown_selection_is_a_usage_error(tmp_path, capsys):
    root, baseline_path = _write_finding_package(tmp_path)
    assert main([
        "lint", "--root", str(root),
        "--baseline", str(baseline_path), "--select", "NOPE999",
    ]) == 2
    assert "NOPE999" in capsys.readouterr().err
    assert main([
        "lint", "--root", str(root),
        "--baseline", str(baseline_path), "--only-family", "nonsense",
    ]) == 2
    assert "nonsense" in capsys.readouterr().err


def test_stats_line_reports_cost(tmp_path, capsys):
    root, baseline_path = _write_finding_package(tmp_path)
    main([
        "lint", "--root", str(root),
        "--baseline", str(baseline_path), "--stats",
    ])
    assert "stats:" in capsys.readouterr().out


def test_check_baseline_accepts_reasoned_entries(capsys):
    code = main(["lint", "--baseline", str(BASELINE_PATH),
                 "--check-baseline"])
    assert code == 0
    assert "0 without a reason" in capsys.readouterr().out


def test_check_baseline_rejects_reasonless_entries(tmp_path, capsys):
    bad = tmp_path / "baseline.json"
    bad.write_text(json.dumps({
        "entries": [
            {"path": "core/mod.py", "code": "DET103",
             "message": "x", "occurrence": 1, "reason": ""},
            {"path": "core/mod.py", "code": "DET104",
             "message": "y", "occurrence": 1, "reason": "TODO later"},
            {"path": "core/mod.py", "code": "DET105",
             "message": "z", "occurrence": 1, "reason": "real reason"},
        ]
    }))
    code = main(["lint", "--baseline", str(bad), "--check-baseline"])
    assert code == 1
    captured = capsys.readouterr()
    assert "2 without a reason" in captured.out
    assert "DET103" in captured.err and "DET104" in captured.err
    assert "DET105" not in captured.err
