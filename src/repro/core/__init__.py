"""Vroom's primary contribution: server-aided dependency resolution.

* :mod:`repro.core.hints` — the dependency-hint header model (Table 1).
* :mod:`repro.core.offline` — periodic offline page loads, stable-set
  intersection, device equivalence classes (Sec 4.1.2).
* :mod:`repro.core.online` — on-the-fly analysis of served HTML.
* :mod:`repro.core.resolver` — the combined offline + online resolver with
  the personalization rules of Sec 4.2.
* :mod:`repro.core.push_policy` — what a Vroom server pushes vs hints
  (Sec 4.3), plus the strawman policies evaluated in Figs 18/19.
* :mod:`repro.core.scheduler` — the client-side staged fetch scheduler
  (Secs 4.3, 5.2).
* :mod:`repro.core.server` — decorating replay servers into
  Vroom-compliant ones.
"""

from repro.core.hints import DependencyHint, HintBundle
from repro.core.offline import OfflineResolver
from repro.core.online import analyze_html
from repro.core.resolver import ResolutionStrategy, VroomResolver
from repro.core.push_policy import PushPolicy
from repro.core.scheduler import VroomScheduler
from repro.core.server import make_vroom_decorator, vroom_servers

__all__ = [
    "DependencyHint",
    "HintBundle",
    "OfflineResolver",
    "analyze_html",
    "ResolutionStrategy",
    "VroomResolver",
    "PushPolicy",
    "VroomScheduler",
    "make_vroom_decorator",
    "vroom_servers",
]
