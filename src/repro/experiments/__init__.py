"""Experiment harness and per-figure regeneration functions."""

from repro.experiments.parallel import (
    LoadMatrix,
    SweepPerf,
    load_matrix,
    set_default_workers,
)
from repro.experiments.resilience import resilience_sweep
from repro.experiments import figures

__all__ = [
    "LoadMatrix",
    "SweepPerf",
    "load_matrix",
    "resilience_sweep",
    "set_default_workers",
    "figures",
]
