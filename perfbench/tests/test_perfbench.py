"""Tests of the benchmark itself: seeded inputs, output checks, audit, CLI.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import hostspeed  # noqa: E402
import inputs  # noqa: E402
import measure  # noqa: E402
from repro.replay.cache import blueprint_fingerprint  # noqa: E402

HELD_OUT_SEED = 424242
SMOKE_PAGES = 3
SMOKE_HOURS = 1.0


def _page_fingerprints(workload, seed):
    return [
        blueprint_fingerprint(page)
        for page in inputs.load_pages(workload, seed, SMOKE_PAGES)
    ]


@pytest.mark.parametrize("workload", inputs.LOAD_WORKLOADS)
def test_load_inputs_are_a_function_of_the_seed(workload):
    same = _page_fingerprints(workload, inputs.DEFAULT_SEED)
    assert same == _page_fingerprints(workload, inputs.DEFAULT_SEED)
    held_out = _page_fingerprints(workload, HELD_OUT_SEED)
    assert not set(held_out) & set(same)


@pytest.mark.parametrize("workload", inputs.HINT_WORKLOADS)
def test_hint_inputs_are_a_function_of_the_seed(workload):
    spec = inputs.hint_spec(workload, inputs.DEFAULT_SEED)
    assert spec.fingerprint() == (
        inputs.hint_spec(workload, inputs.DEFAULT_SEED).fingerprint()
    )
    assert spec.fingerprint() != (
        inputs.hint_spec(workload, HELD_OUT_SEED).fingerprint()
    )


@pytest.mark.parametrize("workload", inputs.LOAD_WORKLOADS)
def test_held_out_seed_passes_the_load_checks(workload):
    measured = measure.measure_loads(
        workload, HELD_OUT_SEED, 0.01, pages=SMOKE_PAGES
    )
    assert measured.correct and measured.failed == 0
    traced = measure.trace_loads(workload, HELD_OUT_SEED, pages=SMOKE_PAGES)
    assert traced.correct and traced.failed == 0
    assert traced.attempted == 3 * len(
        inputs.build_load_inputs(workload, HELD_OUT_SEED, SMOKE_PAGES).jobs
    )


@pytest.mark.parametrize("workload", inputs.HINT_WORKLOADS)
def test_held_out_seed_passes_the_hint_checks(workload):
    measured = measure.measure_hint(
        workload, HELD_OUT_SEED, 0.01, horizon_hours=SMOKE_HOURS
    )
    assert measured.correct and measured.failed == 0
    traced = measure.trace_hint(
        workload, HELD_OUT_SEED, horizon_hours=SMOKE_HOURS
    )
    assert traced.correct and traced.failed == 0
    assert traced.metrics["service.process_lookup.calls"] > 0


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_default_seed_reproduces_the_pinned_outputs(workload):
    outcome = measure.measure(workload, inputs.DEFAULT_SEED, 0.0)
    assert outcome.correct and outcome.failed == 0
    pins = measure.load_pins()[workload]
    pinned = pins["digest"] if "digest" in pins else pins["record"]
    assert outcome.info["digest"] == pinned


_AUDITED_SMOKE = """
import json, sys
sys.path[:0] = [{src!r}, {bench!r}]
from repro import audit
from repro.longrun import LongRunner
import inputs
assert audit.ENABLED
out = {{}}
for workload in inputs.LOAD_WORKLOADS:
    data = inputs.build_load_inputs(workload, {seed}, {pages})
    out[workload] = [
        inputs.load_record(inputs.run_load(data, job)) for job in data.jobs
    ]
for workload in inputs.HINT_WORKLOADS:
    runner = LongRunner(inputs.hint_spec(workload, {seed}, {hours}))
    runner.run_to(runner.spec.horizon_hours)
    out[workload] = [inputs.hint_record(runner.report())]
print(json.dumps(out))
"""


def test_audited_smoke_matches_the_plain_run():
    """Generated inputs stay inside the model's invariants under audit."""
    code = _AUDITED_SMOKE.format(
        src=str(ROOT / "src"),
        bench=str(BENCH),
        seed=HELD_OUT_SEED,
        pages=SMOKE_PAGES,
        hours=SMOKE_HOURS,
    )
    env = dict(os.environ, REPRO_AUDIT="1")
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr[-3000:]
    audited = json.loads(done.stdout.strip().splitlines()[-1])
    for workload in inputs.LOAD_WORKLOADS:
        data = inputs.build_load_inputs(workload, HELD_OUT_SEED, SMOKE_PAGES)
        plain = [
            inputs.load_record(inputs.run_load(data, job)) for job in data.jobs
        ]
        assert audited[workload] == plain
    for workload in inputs.HINT_WORKLOADS:
        _, report = measure._hint_run(workload, HELD_OUT_SEED, SMOKE_HOURS)
        assert audited[workload] == [inputs.hint_record(report)]


def test_walls_are_scaled_by_the_probes_around_them():
    probe = hostspeed.SpeedProbe()
    reference = hostspeed.REFERENCE_PROBE_S
    # Ten seconds at the reference speed, then ten at half of it.
    probe.times = [index * 0.05 for index in range(400)]
    probe.walls = [reference] * 200 + [2 * reference] * 200
    assert probe.scaled(2.0, 0.03) == pytest.approx(0.03)
    assert probe.scaled(15.0, 0.03) == pytest.approx(0.015)
    # Past the last probe, the nearest ones stand in.
    assert probe.scaled(60.0, 0.03) == pytest.approx(0.015)


def _run_cli(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def _result(done):
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    return result


def test_cli_prints_every_metric_named_in_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert end_to_end == measure.END_TO_END_UNITS
    assert per_layer == measure.PER_LAYER_UNITS
    assert [w["name"] for w in declared["workloads"]] == list(
        inputs.WORKLOADS
    )

    seed = str(HELD_OUT_SEED)
    plain = _result(
        _run_cli("--workload", "bulk-transfer-loads", "--seed", seed,
                 "--seconds", "1", "--trace", "0")
    )
    assert {
        name: metric["unit"] for name, metric in plain["metrics"].items()
    } == end_to_end
    assert all(metric["value"] > 0 for metric in plain["metrics"].values())
    traced = _result(
        _run_cli("--workload", "bulk-transfer-loads", "--seed", seed,
                 "--seconds", "1", "--trace", "1")
    )
    assert set(traced["metrics"]) == set(per_layer)


def test_cli_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        BENCH, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = _run_cli(
        "--workload", "page-loads", "--seed", "1", "--seconds", "1",
        "--trace", "0", cwd=tmp_path,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
