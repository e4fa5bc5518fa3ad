"""Text reporting: measured series vs the paper's reported numbers."""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.analysis.stats import Cdf


def describe_series(
    name: str, values: Sequence[float], paper: Optional[float] = None
) -> str:
    """One table row: median / quartile summary plus the paper's value."""
    cdf = Cdf(values)
    row = (
        f"{name:<34} n={len(values):>3}  "
        f"p25={cdf.quantile(0.25):7.2f}  "
        f"median={cdf.median:7.2f}  "
        f"p75={cdf.quantile(0.75):7.2f}"
    )
    if paper is not None:
        row += f"  | paper~{paper:6.2f}"
    return row


def print_figure(
    title: str,
    series: Dict[str, Sequence[float]],
    paper_values: Optional[Dict[str, float]] = None,
) -> str:
    """Render a whole figure's series as a text block (also printed)."""
    paper_values = paper_values or {}
    lines = [f"== {title} =="]
    for name, values in series.items():
        if not values:
            lines.append(f"{name:<34} (empty)")
            continue
        lines.append(describe_series(name, values, paper_values.get(name)))
    block = "\n".join(lines)
    print(block)
    return block
