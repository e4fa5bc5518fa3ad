"""The fast engine vs the reference oracle: bit-for-bit.

``NetworkConfig.engine`` picks the executor.  ``"reference"`` runs the
plain :class:`~repro.net.simulator.Simulator`, one heap event per
callback and per link refresh tick.  ``"fast"`` (the default) runs the
array-backed :class:`~repro.net.simulator.ArraySimulator`, on which the
link fast-forwards silent refresh ticks inline and visits only the
streams that can move.  The choice may only ever be a *performance*
knob: every observable — PLT, speed index, byte counts, timelines, the
critical path — must be identical, so this suite asserts full
:class:`LoadMetrics` equality
(``engine_counters`` is excluded from dataclass comparison by design: the
counters are *supposed* to differ).

The sample points: a grid of configurations (FAIR, FIFO and WEIGHTED
scheduling) × fault plans × pages, two seeded random samples of (loss,
fault rate, configuration, page) triples, a FAIR push-all load on a clean
and a lossy link, and audited runs of both engines.
"""

import functools
import random
from unittest import mock

import pytest

from repro import audit
from repro.baselines import configs
from repro.baselines.configs import run_config
from repro.browser.engine import BrowserConfig, load_page
from repro.calibration import DEFAULT_EVAL_HOUR
from repro.core.push_policy import PushPolicy
from repro.core.scheduler import FetchAsapScheduler
from repro.core.server import vroom_servers
from repro.net.faults import ResiliencePolicy, hint_fault_plan
from repro.net.http import NetworkConfig
from repro.net.link import StreamScheduling
from repro.replay.recorder import record_snapshot

#: The configurations exercising distinct engine paths (client-driven,
#: hint-driven, and push-everything server behaviour).
CONFIGS = ["http2", "vroom", "push-all-fetch-asap"]

#: The grid adds polaris, the one WEIGHTED-scheduling configuration.  The
#: seeded random samples keep drawing from ``CONFIGS`` so their points
#: stay put.
GRID_CONFIGS = CONFIGS + ["polaris"]

#: fault plan × resilience pairs: faulted runs need retries/timeouts or
#: the load legitimately wedges (that guard is its own test elsewhere).
FAULT_PLANS = {
    "no-faults": (None, None),
    "hint-faults": (hint_fault_plan(0.3, seed=7), ResiliencePolicy()),
}

LOSS_RATES = [0.0, 0.01, 0.03]
FAULT_RATES = [0.0, 0.2, 0.4]


def _sample(seed, fault_seed):
    """Eight seeded (loss, fault rate, config, page index) triples.

    Seeded so every run checks the same points; each sample also fixes
    the seed of its fault plans.
    """
    rng = random.Random(seed)
    return [
        (
            rng.choice(LOSS_RATES),
            rng.choice(FAULT_RATES),
            rng.choice(CONFIGS),
            rng.randrange(4),  # corpus page index
            fault_seed,
        )
        for _ in range(8)
    ]


TRIPLES = _sample(0xBA7C4, fault_seed=11) + _sample(0xE7D12, fault_seed=23)


def _run(engine, *args, **kwargs):
    """``run_config`` with every :class:`NetworkConfig` on ``engine``."""
    with mock.patch.object(
        configs, "NetworkConfig", functools.partial(NetworkConfig, engine=engine)
    ):
        return run_config(*args, **kwargs)


def _run_faulted(engine, page, snapshot, store, config, loss, fault_rate,
                 fault_seed):
    plan = hint_fault_plan(fault_rate, seed=fault_seed) if fault_rate else None
    return _run(
        engine,
        config,
        page,
        snapshot,
        store,
        loss_rate=loss,
        fault_plan=plan,
        resilience=ResiliencePolicy() if plan else None,
    )


def _audited(run):
    audit.enable()
    try:
        return run()
    finally:
        audit.disable()


@pytest.mark.parametrize("config", GRID_CONFIGS)
@pytest.mark.parametrize("faults", sorted(FAULT_PLANS))
def test_metrics_bit_identical(corpus, stamp, config, faults):
    """reference == fast for every config × fault plan, across two pages."""
    fault_plan, resilience = FAULT_PLANS[faults]
    for page in corpus[:2]:
        snapshot = page.materialize(stamp)
        store = record_snapshot(snapshot)
        reference, fast = (
            _run(
                engine,
                config,
                page,
                snapshot,
                store,
                fault_plan=fault_plan,
                resilience=resilience,
            )
            for engine in ("reference", "fast")
        )
        assert fast == reference, (
            f"{page.name} under {config!r}/{faults}: the fast engine "
            f"changed observables (plt {reference.plt!r} vs {fast.plt!r})"
        )


@pytest.mark.parametrize(
    "loss,fault_rate,config,page_index,fault_seed",
    TRIPLES,
    ids=[
        f"loss{loss}-fault{fault}-{config}-p{idx}-seed{seed}"
        for loss, fault, config, idx, seed in TRIPLES
    ],
)
def test_random_triples_bit_identical(
    corpus, stamp, loss, fault_rate, config, page_index, fault_seed
):
    """reference == fast on a random (loss, faults, scenario) triple.

    One materialization is shared by both runs — the comparison is about
    engines, never snapshot drift.
    """
    page = corpus[page_index]
    snapshot = page.materialize(stamp)
    store = record_snapshot(snapshot)
    reference, fast = (
        _run_faulted(
            engine, page, snapshot, store, config, loss, fault_rate,
            fault_seed,
        )
        for engine in ("reference", "fast")
    )
    assert fast == reference, (
        f"{page.name} under {config!r} loss={loss} faults={fault_rate}: "
        f"the fast engine changed observables "
        f"(plt {reference.plt!r} vs {fast.plt!r})"
    )
    # Inline steps replace refresh ticks one for one: the same logical
    # link steps, never more heap events.
    assert (
        fast.engine_counters["link_pokes"]
        == reference.engine_counters["link_pokes"]
    )
    assert (
        fast.engine_counters["events_scheduled"]
        <= reference.engine_counters["events_scheduled"]
    )


@pytest.mark.parametrize("loss_rate", [0.0, 0.02])
def test_lossy_link_bit_identical(page, snapshot, store, loss_rate):
    """Loss RNG draws must line up between the fast and reference engines."""

    def run(engine):
        servers = vroom_servers(
            page, snapshot, store, push_policy=PushPolicy.ALL_LOCAL
        )
        return load_page(
            snapshot,
            servers,
            NetworkConfig(
                h2_scheduling=StreamScheduling.FAIR,
                loss_rate=loss_rate,
                engine=engine,
            ),
            BrowserConfig(when_hours=DEFAULT_EVAL_HOUR),
            policy=FetchAsapScheduler(),
        )

    assert run("reference") == run("fast")


def test_audit_run_passes_and_stays_identical(page, snapshot, store):
    """REPRO_AUDIT=1 end to end on the fast engine: the invariant hooks
    (fast-forward bounds, busy-set cache, closed-form water-filling,
    FIFO discipline) hold, and arming them perturbs nothing."""
    plain = run_config("vroom", page, snapshot, store)
    audited = _audited(lambda: run_config("vroom", page, snapshot, store))
    assert audited == plain


@pytest.mark.parametrize("fault_seed", [11, 23], ids=["seed11", "seed23"])
def test_audited_corpus_load_identical(corpus, stamp, fault_seed):
    """REPRO_AUDIT=1 on a lossy, faulted corpus load with each sample's
    fault seed: every hook holds on the fast engine, and arming the
    audit changes nothing observable."""
    page = corpus[0]
    snapshot = page.materialize(stamp)
    store = record_snapshot(snapshot)

    def run():
        return _run_faulted(
            "fast", page, snapshot, store, "vroom", 0.01, 0.2, fault_seed
        )

    assert _audited(run) == run()


def test_audited_reference_matches_audited_fast(corpus, stamp):
    """reference vs fast compared end to end *with the audit armed on
    both sides*, so the invariant hooks police the very runs being
    compared."""
    page = corpus[1]
    snapshot = page.materialize(stamp)
    store = record_snapshot(snapshot)
    reference, fast = _audited(
        lambda: [
            _run_faulted(
                engine, page, snapshot, store, "push-all-fetch-asap",
                0.01, 0.0, 23,
            )
            for engine in ("reference", "fast")
        ]
    )
    assert fast == reference


def test_counters_surface_on_metrics(page, snapshot, store):
    """LoadMetrics carries the deterministic engine counter block, and
    the reference engine never fast-forwards a tick."""
    fast = _run("fast", "push-all-fetch-asap", page, snapshot, store)
    counters = fast.engine_counters
    assert counters["events_scheduled"] > 0
    assert counters["events_executed"] > 0
    assert counters["link_pokes"] > 0
    assert counters["link_fast_forward_steps"] > 0
    reference = _run("reference", "push-all-fetch-asap", page, snapshot, store)
    assert reference.engine_counters["link_fast_forward_steps"] == 0
    # pokes mirror one-per-tick on both engines: inline steps replace
    # heap events one for one, never skipping or adding work.
    assert reference.engine_counters["link_pokes"] == counters["link_pokes"]


def test_batch_counters_surface_on_metrics(page, snapshot, store):
    """The closed-form allocation counter surfaces on LoadMetrics and
    stays zero on the reference engine; the counters of the deleted
    batch loop no longer appear in the block."""
    fast = _run("fast", "push-all-fetch-asap", page, snapshot, store)
    assert fast.engine_counters["link_wf_fast_hits"] > 0
    reference = _run("reference", "push-all-fetch-asap", page, snapshot, store)
    assert reference.engine_counters["link_wf_fast_hits"] == 0
    for name in ("link_batch_runs", "link_batch_steps"):
        assert name not in fast.engine_counters, name
        assert name not in reference.engine_counters, name
    assert reference == fast
