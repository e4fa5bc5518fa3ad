"""Callee module: heated transitively from ``engine.tick``.

Never imported at test time — parsed and scanned as text, like the
other rule fixtures.
"""

import random


class Kind:
    ALPHA = 1
    BETA = 2


class Gadget:
    """No ``__slots__``: instantiating this in a hot region is PERF405."""

    def __init__(self, value):
        self.value = value


class Slotted:
    """Slotted twin of :class:`Gadget` — must never be flagged."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


class HelperError(RuntimeError):
    """Raised from hot code; exceptions stay cold by definition."""


def make_rng(seed):
    """Hot via the ``tick -> make_rng`` edge."""
    return random.Random(seed)  # expect: PERF402


class LossSampler:
    """One cached generator, reseeded on every draw.

    Reseeding re-initialises the whole generator state, so it costs as
    much as constructing one: both lines are PERF402.
    """

    __slots__ = ("_rng",)

    def __init__(self):
        self._rng = None

    def gap(self, seed):
        """Hot via ``drain -> sampler.gap`` (dispatch by method name)."""
        rng = self._rng
        if rng is None:
            rng = self._rng = random.Random(seed)  # expect: PERF402
        else:
            rng.seed(seed)  # expect: PERF402
        return rng.random()


def cold_reseed(rng, seeds):
    """Unreachable from any seed: reseeding per call must stay silent."""
    out = []
    for seed in seeds:
        rng.seed(seed)
        out.append(rng.random())
    return out


def cold_helper(jobs):
    """Unreachable from any seed: the same pattern must stay silent."""
    out = []
    for job in jobs:
        out.extend([job for job in jobs])
    return out
