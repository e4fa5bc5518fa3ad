"""Repo-specific static analysis: determinism linting and layer checking.

The reproduction's results are only trustworthy if identical inputs give
bit-identical simulations and the simulation layers stay pure.  This
package machine-checks both properties:

* :mod:`repro.devtools.astrules` — AST determinism rules (unordered-set
  iteration, unseeded randomness, wall-clock reads, ``hash()``/``id()``
  hazards, I/O inside pure simulation layers).
* :mod:`repro.devtools.layering` — import-graph checker enforcing the
  package DAG (``audit``/``calibration`` → ``net``/``pages`` →
  ``browser``/``replay`` → ``core`` → ``baselines`` → ``analysis`` →
  ``experiments`` → ``cli``).
* :mod:`repro.devtools.driftrules` — CFG6xx config/contract drift rules
  (dataclass fields vs docs/API.md knob tables vs the CLI flag surface).
* :mod:`repro.devtools.baseline` — suppression file for fully-explained
  pre-existing debt, so new violations gate CI without blocking on old
  ones.
* :mod:`repro.devtools.modules` — the one parse of the package that
  every rule family reads.
* :mod:`repro.devtools.runner` — file walking, pragma handling, family
  and ``--select`` filters, and the human/JSON reports behind
  ``repro lint``.

The package is pure tooling: it imports nothing from the simulation (it
reads *source text*, never runs it), so it sits outside the simulation
DAG entirely and may never be imported by a simulation layer.
"""

from repro.devtools.findings import FAMILIES, Finding, RULES, family_of
from repro.devtools.baseline import Baseline
from repro.devtools.layering import LAYER_DEPS, check_layering, import_edges
from repro.devtools.modules import parse_package
from repro.devtools.runner import (
    LintReport,
    LintStats,
    lint_package,
    resolve_selection,
)

__all__ = [
    "FAMILIES",
    "Finding",
    "RULES",
    "family_of",
    "Baseline",
    "LAYER_DEPS",
    "check_layering",
    "import_edges",
    "parse_package",
    "LintReport",
    "LintStats",
    "lint_package",
    "resolve_selection",
]
