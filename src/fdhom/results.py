"""Small result values shared across modules."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class AtLeastCap:
    """A dimension-like quantity known only to be >= cap (truncated search)."""

    cap: int

    def __repr__(self):
        return f">= {self.cap} (capped)"


@dataclass
class QuiverGraph:
    """A quiver with arrow multiplicities and dotted arrows: an AR quiver
    (dotted arrows tau_n) or a McKay quiver (dotted arrows the twist by the
    determinant character)."""

    labels: list[str]
    arrow_mult: list[list[int]]  # arrow_mult[i][j] arrows from i to j
    dotted: dict  # vertex index -> vertex index
