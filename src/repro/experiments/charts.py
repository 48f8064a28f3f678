"""ASCII charts for the figure experiments.

The paper's Figure 1 is a bar chart; these helpers render its data in a
terminal.  ``stacked_bars`` draws horizontal bars with a highlighted
prefix (Figure 1's real-vs-ideal IPC stacks).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

__all__ = ["hbar", "stacked_bars"]

_FULL = "#"
_REST = "."


def hbar(value: float, maximum: float, width: int = 40, fill: str = _FULL) -> str:
    """A single horizontal bar scaled to ``maximum``."""
    if maximum <= 0:
        raise ValueError("maximum must be positive")
    if width < 1:
        raise ValueError("width must be >= 1")
    clamped = max(0.0, min(value, maximum))
    cells = round(clamped / maximum * width)
    return fill * cells


def stacked_bars(
    rows: Sequence[Tuple[str, float, float]],
    width: int = 40,
    labels: Tuple[str, str] = ("real", "ideal"),
) -> str:
    """Bars with a solid prefix (first value) inside a dotted total.

    ``rows`` is (name, inner value, outer value); the inner segment is
    drawn solid and the remainder of the outer value dotted — Figure 1's
    "IPC real inside IPC perfect" shape.
    """
    if not rows:
        raise ValueError("no rows to draw")
    maximum = max(outer for _, _, outer in rows)
    out: List[str] = []
    name_width = max(len(name) for name, _, _ in rows)
    for name, inner, outer in rows:
        solid = hbar(min(inner, outer), maximum, width)
        dotted = hbar(outer, maximum, width, fill=_REST)[len(solid):]
        out.append(f"{name:>{name_width}}  |{solid}{dotted}|  {inner:.2f} / {outer:.2f}")
    out.append(f"{'':>{name_width}}  ({_FULL} = {labels[0]}, {_REST} = {labels[1]})")
    return "\n".join(out)


def figure1_chart(rows, width: int = 40) -> str:
    """Figure 1 as ASCII: each benchmark's real IPC inside perfect-mem."""
    return stacked_bars(
        [(r.benchmark, r.ipc_real, r.ipc_perfect_mem) for r in rows],
        width=width,
        labels=("IPC real", "IPC perfect memory"),
    )
