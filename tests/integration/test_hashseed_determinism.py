"""PYTHONHASHSEED regression guard.

A simulation result may never depend on the process's string-hash seed.
Each case below runs the same probe in fresh interpreters under three
different ``PYTHONHASHSEED`` values and asserts bit-identical output.
This is the regression net behind the determinism fixes (stable_nonce
replacing builtin ``hash()`` in the offline/online resolvers) and the
DET1xx lint rules.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"

_PROBE = """
import json

from repro.baselines.configs import run_config
from repro.calibration import DEFAULT_EVAL_HOUR
from repro.core.offline import OfflineResolver
from repro.pages.corpus import news_sports_corpus
from repro.pages.dynamics import LoadStamp, stable_nonce
from repro.replay.recorder import record_snapshot

page = news_sports_corpus(count=2)[0]
stamp = LoadStamp(when_hours=DEFAULT_EVAL_HOUR)
snapshot = page.materialize(stamp)
store = record_snapshot(snapshot)

resolver = OfflineResolver(page)
offline = resolver.offline_loads(DEFAULT_EVAL_HOUR, "phone")
stable = resolver.stable_set(DEFAULT_EVAL_HOUR)

metrics = run_config("vroom", page, snapshot, store)

payload = {
    "nonce_probe": [stable_nonce("page", index) for index in range(4)],
    "offline_nonces": [snap.stamp.nonce for snap in offline],
    "stable_urls": stable["urls"],
    "plt": metrics.plt,
    "aft": metrics.aft,
    "speed_index": metrics.speed_index,
    "bytes_fetched": metrics.bytes_fetched,
    "fetch_insertion_order": list(metrics.timelines),
}
print(json.dumps(payload, sort_keys=True))
"""


def _run_probe(seed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(seed)
    env["PYTHONPATH"] = str(SRC)
    result = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
        check=True,
    )
    return json.loads(result.stdout)


@pytest.fixture(scope="module")
def probes():
    return {seed: _run_probe(seed) for seed in (0, 1, 2)}


def test_probe_is_hashseed_independent(probes):
    baseline = probes[0]
    for seed, payload in probes.items():
        assert payload == baseline, (
            f"PYTHONHASHSEED={seed} diverged from seed 0"
        )


def test_nonces_are_stable_and_distinct(probes):
    nonces = probes[0]["nonce_probe"]
    assert len(set(nonces)) == len(nonces)
    offline = probes[0]["offline_nonces"]
    assert len(set(offline)) == len(offline)


def test_fetch_order_is_populated(probes):
    """The strongest signal: the per-load fetch insertion order (a dict's
    insertion order, easily poisoned by set iteration upstream) agrees
    across seeds and actually contains the page's resources."""
    order = probes[0]["fetch_insertion_order"]
    assert len(order) > 5
    assert len(set(order)) == len(order)
