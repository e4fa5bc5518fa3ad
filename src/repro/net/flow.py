"""Water-filling bandwidth allocators for the fluid-flow link model.

The link divides its byte budget across busy connections by iterative
water-filling: equal shares, with any connection capped below its share
pinned to its cap and the surplus recycled into the next round.  This
module hosts two implementations of that exact computation:

* :func:`waterfill` — the general iterative solver on plain lists.  The
  reference engine allocates with it, and the fast engine falls back to
  it above three busy connections.
* :func:`waterfill_small` — closed-form unrolled solutions for the 1–3
  busy-connection signatures that dominate real page loads.  Every
  branch performs the same float operations in the same order as the
  iterative solver would, just without building the round's intermediate
  lists; under ``REPRO_AUDIT=1`` the link cross-checks the two on every
  fast-path hit (``audit.waterfill_equivalent``).

Bit-identity is the load-bearing property here: allocations feed
per-stream rates, rates feed delivery timestamps, and the equivalence
suite asserts ``LoadMetrics`` equality between the two engines down to
the last ulp.
"""

from __future__ import annotations

from typing import List, Optional

_EPS_BYTES = 1e-6


def waterfill(caps: List[float], budget: float) -> List[float]:
    """General iterative water-filling over connection rate caps.

    Returns byte rates aligned with ``caps``.  Shares are
    ``budget / len(remaining)``, a connection is capped when its cap is
    below ``share - _EPS_BYTES``, and capped connections subtract from
    the budget one at a time in list order.
    """
    n = len(caps)
    rates = [0.0] * n
    remaining = list(range(n))
    for _ in range(n + 1):
        if not remaining:
            break
        share = budget / len(remaining)
        capped = [i for i in remaining if caps[i] < share - _EPS_BYTES]
        if not capped:
            for i in remaining:
                rates[i] = share
            break
        for i in capped:
            rates[i] = caps[i]
            budget -= caps[i]
            remaining.remove(i)
    return rates


def _fill_two(cap_a: float, cap_b: float, budget: float) -> List[float]:
    """Closed-form two-connection water-filling (helper for 2 and 3)."""
    share = budget / 2
    capped_a = cap_a < share - _EPS_BYTES
    capped_b = cap_b < share - _EPS_BYTES
    if not capped_a and not capped_b:
        return [share, share]
    if capped_a and capped_b:
        return [cap_a, cap_b]
    if capped_a:
        rest = budget - cap_a
        return [cap_a, cap_b if cap_b < rest - _EPS_BYTES else rest]
    rest = budget - cap_b
    return [cap_a if cap_a < rest - _EPS_BYTES else rest, cap_b]


def waterfill_small(caps: List[float], budget: float) -> Optional[List[float]]:
    """Closed-form water-filling for 1–3 connections; None above that.

    Unrolls the iterative solver's rounds for the small signatures the
    link sees almost exclusively, skipping the per-call list/dict churn.
    Budget subtractions happen in ``caps`` order, matching the solver's
    in-order walk of each round's capped set.
    """
    n = len(caps)
    if n == 1:
        cap = caps[0]
        return [budget if budget < cap else cap]
    if n == 2:
        return _fill_two(caps[0], caps[1], budget)
    if n == 3:
        cap_a, cap_b, cap_c = caps
        share = budget / 3
        capped_a = cap_a < share - _EPS_BYTES
        capped_b = cap_b < share - _EPS_BYTES
        capped_c = cap_c < share - _EPS_BYTES
        ncapped = capped_a + capped_b + capped_c
        if ncapped == 0:
            return [share, share, share]
        if ncapped == 3:
            return [cap_a, cap_b, cap_c]
        if ncapped == 1:
            if capped_a:
                pair = _fill_two(cap_b, cap_c, budget - cap_a)
                return [cap_a, pair[0], pair[1]]
            if capped_b:
                pair = _fill_two(cap_a, cap_c, budget - cap_b)
                return [pair[0], cap_b, pair[1]]
            pair = _fill_two(cap_a, cap_b, budget - cap_c)
            return [pair[0], pair[1], cap_c]
        # Two capped: subtract both in caps order, remainder to the third.
        if not capped_c:
            rest = budget - cap_a - cap_b
            return [cap_a, cap_b, cap_c if cap_c < rest - _EPS_BYTES else rest]
        if not capped_b:
            rest = budget - cap_a - cap_c
            return [cap_a, cap_b if cap_b < rest - _EPS_BYTES else rest, cap_c]
        rest = budget - cap_b - cap_c
        return [cap_a if cap_a < rest - _EPS_BYTES else rest, cap_b, cap_c]
    return None
