"""Small result values shared across modules."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class AtLeastCap:
    """A dimension-like quantity known only to be >= cap (truncated search)."""

    cap: int

    def __repr__(self):
        return f">= {self.cap} (capped)"
