"""Layer spans and package self-time shares for the traced benchmark run.

Spans are recorded from the benchmark's side of each layer boundary: a
:class:`Tracer`, used as a context manager, rebinds a public function or
method (on its module, or on its class) to a timing wrapper and restores
the original binding on exit.  Nothing inside ``src/`` changes.

Each span name accumulates a call count and a *self* time: the span's
duration minus the part of it that nested spans cover.  Spans stay in
memory; the runner prints them when the benchmark ends.

The browser/net split inside ``load_page`` has no public boundary, so it
comes from a separate :mod:`cProfile` pass instead, grouped by
``repro.<package>`` (see :func:`package_shares`).
"""

from __future__ import annotations

import collections
import os
import pstats
import time
from typing import Callable, Dict, List, Tuple

import repro
import repro.baselines.configs as configs_module
import repro.browser.engine as engine_module
import repro.core.server as server_module
import repro.longrun.runner as runner_module
import repro.replay.recorder as recorder_module
from repro.core import OfflineResolver
from repro.core.cache_digest import CacheDigest
from repro.longrun import LongRunner
from repro.pages import PageBlueprint
from repro.scenario import ScenarioSpec
from repro.service import HintService

#: Span name -> the (owner, attribute) bindings it wraps.  A name with
#: several bindings covers every call site the benchmark reaches: the
#: definition module (called directly by the bulk workload) and the
#: name imported into ``repro.baselines.configs`` (called by
#: ``run_config``).
SPANS: Dict[str, Tuple[Tuple[object, str], ...]] = {
    "pages.materialize": ((PageBlueprint, "materialize"),),
    "replay.record_snapshot": ((recorder_module, "record_snapshot"),),
    "core.vroom_servers": (
        (configs_module, "vroom_servers"),
        (server_module, "vroom_servers"),
    ),
    "core.stable_set": ((OfflineResolver, "stable_set"),),
    "core.cache_digest": (
        (CacheDigest, "__init__"),
        (runner_module, "filter_pushes"),
    ),
    "browser.load_page": (
        (configs_module, "load_page"),
        (engine_module, "load_page"),
    ),
    "scenario.build": (
        (ScenarioSpec, "build_pages"),
        (ScenarioSpec, "service_config"),
    ),
    "service.process_lookup": ((HintService, "process_lookup"),),
    "service.process_batch": ((HintService, "process_batch"),),
    "longrun.run_to": ((LongRunner, "run_to"),),
}

#: Spans whose per-call durations are kept for percentiles.
SAMPLED = frozenset({"service.process_lookup"})


class Tracer:
    """Per-name call counts and self times for the spans in :data:`SPANS`."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = collections.Counter()
        self.self_s: Dict[str, float] = collections.Counter()
        self.samples: Dict[str, List[float]] = collections.defaultdict(list)
        #: Child-time accumulators of the open spans; index 0 is the root.
        self._child: List[float] = [0.0]
        self._patches: List[Tuple[object, str, object]] = []

    def _timed(self, name: str, original: Callable) -> Callable:
        child = self._child
        calls, self_s = self.calls, self.self_s
        samples = self.samples[name] if name in SAMPLED else None
        clock = time.perf_counter

        def timed(*args, **kwargs):
            child.append(0.0)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                nested = child.pop()
                child[-1] += elapsed
                calls[name] += 1
                self_s[name] += elapsed - nested
                if samples is not None:
                    samples.append(elapsed)

        return timed

    def __enter__(self) -> "Tracer":
        for name, bindings in SPANS.items():
            for owner, attribute in bindings:
                original = vars(owner)[attribute]
                self._patches.append((owner, attribute, original))
                setattr(owner, attribute, self._timed(name, original))
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)


_REPRO_ROOT = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep

#: Packages reported as ``<package>.self_share``; anything else
#: (layer-0 modules, the benchmark itself, stdlib not reached from
#: ``repro``) is ``other``.
PACKAGES = (
    "pages",
    "replay",
    "core",
    "baselines",
    "browser",
    "net",
    "scenario",
    "service",
    "longrun",
)


def _package_of(filename: str):
    if not filename.startswith(_REPRO_ROOT):
        return None
    head = filename[len(_REPRO_ROOT):].split(os.sep, 1)[0]
    return head if head in PACKAGES else "other"


def package_shares(profiler) -> Dict[str, float]:
    """Share of profiled self time per ``repro.<package>``.

    Self time of a function outside ``repro`` (a builtin such as
    ``sha256``, or a stdlib frame such as ``Random.seed``) is charged to
    the ``repro`` packages that called it, in proportion to the time
    each caller spent in it, walking up through stdlib callers.
    """
    stats = pstats.Stats(profiler).stats
    memo: Dict[tuple, Dict[str, float]] = {}

    def weights(func, path=()) -> Dict[str, float]:
        if func in memo:
            return memo[func]
        package = _package_of(func[0])
        if package is not None:
            return {package: 1.0}
        out: Dict[str, float] = collections.Counter()
        total = 0.0
        for caller, entry in stats.get(func, (0, 0, 0, 0, {}))[4].items():
            if caller == func or caller in path:
                continue
            share = entry[3]
            total += share
            for key, value in weights(caller, path + (func,)).items():
                out[key] += share * value
        result = (
            {key: value / total for key, value in out.items()}
            if total > 0
            else {"other": 1.0}
        )
        memo[func] = result
        return result

    totals: Dict[str, float] = collections.Counter()
    for func, entry in stats.items():
        for key, value in weights(func).items():
            totals[key] += entry[2] * value
    grand = sum(totals.values()) or 1.0
    return {
        key: totals.get(key, 0.0) / grand for key in PACKAGES + ("other",)
    }
