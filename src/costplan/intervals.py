"""Cost intervals: the unit of knowledge about a true action cost."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

#: Tolerance for every certification comparison in the package.
TOLERANCE = 1e-9

INF = math.inf


@dataclass(frozen=True)
class CostInterval:
    """A [lb, ub] bound guaranteed to contain an action's true cost.

    ub may be +inf (no upper prior). Invariant: 0 <= lb <= ub.
    """

    lb: float
    ub: float

    def __post_init__(self):
        if not (0.0 <= self.lb <= self.ub):
            raise ValueError(f"invalid cost interval [{self.lb}, {self.ub}]")

    @property
    def width(self) -> float:
        return self.ub - self.lb

    def contains(self, value: float) -> bool:
        return self.lb - TOLERANCE <= value <= self.ub + TOLERANCE

    def contains_interval(self, other: "CostInterval") -> bool:
        return self.lb <= other.lb + TOLERANCE and other.ub <= self.ub + TOLERANCE

    def intersect(self, other: "CostInterval") -> "CostInterval":
        """Intersection of two intervals; raises ValueError if empty."""
        lb = max(self.lb, other.lb)
        ub = min(self.ub, other.ub)
        if lb > ub + TOLERANCE:
            raise ValueError(
                f"empty intersection of [{self.lb}, {self.ub}] and [{other.lb}, {other.ub}]"
            )
        return CostInterval(lb, max(lb, ub))


def accumulate(intervals: Iterable[CostInterval]) -> CostInterval:
    """Componentwise sum of intervals; the bound on a plan's total cost.

    Empty input yields [0, 0]; +inf absorbs addition in the upper bound.
    """
    lb = 0.0
    ub = 0.0
    for iv in intervals:
        lb += iv.lb
        ub += iv.ub
    return CostInterval(lb, ub)
