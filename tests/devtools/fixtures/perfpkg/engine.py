"""Hot-seeded fixture: every PERF4xx rule fires exactly where marked.

``# expect: CODE`` tags the line each finding must anchor to;
test_perf_rules.py scans this package through the real call graph, so
``tick`` is the only seed and everything else is heated (or left cold)
through resolved edges.
"""

import re

from perfpkg.helper import Gadget, HelperError, Kind, Slotted, make_rng


# repro: hotpath
def tick(jobs, config):
    rng = make_rng(7)
    wanted = {Kind.ALPHA, Kind.BETA}  # expect: PERF401
    total = 0
    for job in jobs:
        names = [str(job) for _ in jobs]  # expect: PERF401
        total += len(names)
        total += config.limit  # expect: PERF403
        total += config.limit
        total += config.limit
        try:  # expect: PERF404
            total += wanted == job
        except TypeError:
            raise HelperError("unorderable job")
    return drain(jobs, rng, total, config.sampler)


def drain(jobs, rng, total, sampler):
    """Hot via the ``tick -> drain`` edge."""
    for job in jobs:
        if re.match("a+", str(job)):  # expect: PERF402
            total += len(sorted(jobs))  # expect: PERF401
    total += sampler.gap(total)
    gadget = Gadget(total)  # expect: PERF405
    keep = Slotted(rng.random())
    return gadget, keep, total


def cold_path(jobs):
    """Unreachable from the seed: the same patterns must stay silent."""
    out = []
    for job in jobs:
        out.append([str(job) for _ in jobs])
        out.append(sorted(jobs))
    return out
