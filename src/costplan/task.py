"""Grounded STRIPS task model plus the mutable cost-knowledge overlay."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Optional

from .errors import ModelInconsistencyError, PreconditionError
from .intervals import CostInterval, accumulate  # noqa: F401  (re-exported)

log = logging.getLogger("costplan.task")

State = frozenset  # of fact ids


@dataclass(frozen=True)
class Fact:
    id: int
    name: str


@dataclass(frozen=True)
class GroundAction:
    id: int
    name: str
    pre: frozenset
    add: frozenset
    delete: frozenset

    def __post_init__(self):
        if self.add & self.delete:
            raise ValueError(f"action {self.name}: add and delete sets overlap")


@dataclass(frozen=True)
class ChainSpec:
    """Immutable description of one action's estimator chain.

    levels: tuple of (time_ms, CostInterval) in invocation order.
    Remote chains substitute the interval at invocation time; the tuple
    here carries the static structure (count and charged times).
    """

    action_id: int
    prior: CostInterval
    levels: tuple

    def __len__(self):
        return len(self.levels)


@dataclass(frozen=True)
class PlanningTask:
    name: str
    facts: tuple  # of Fact
    init: State
    goal: frozenset
    actions: tuple  # of GroundAction
    chains: tuple  # of ChainSpec, indexed by action id
    true_costs: Optional[dict] = None  # action id -> hidden true cost

    @property
    def n_actions(self) -> int:
        return len(self.actions)

    def true_plan_cost(self, plan) -> float:
        """Sum of hidden true costs along a plan (test/oracle use)."""
        if self.true_costs is None:
            raise KeyError("task has no hidden true costs")
        return sum(self.true_costs[a] for a in plan)


def apply(state: State, action: GroundAction) -> State:
    """STRIPS successor: (state \\ del) | add. Requires pre <= state."""
    if not action.pre <= state:
        missing = sorted(action.pre - state)
        raise PreconditionError(
            f"action {action.name} inapplicable: missing facts {missing}"
        )
    return (state - action.delete) | action.add


def is_goal(state: State, task: PlanningTask) -> bool:
    return task.goal <= state


class CostTable:
    """Current interval knowledge per action; single-writer per episode.

    Refinement only narrows. An estimator reply that would widen an
    interval is clamped to the intersection (with a warning); an empty
    intersection is a hard model-inconsistency error. ``raised`` is an
    append-only log of action ids, one entry per refinement that strictly
    raised that action's lb; readers keep their own position in it.
    """

    def __init__(self, task: PlanningTask):
        self._intervals = [spec.prior for spec in task.chains]
        self.next_level = [0] * len(task.chains)
        self.raised: list[int] = []

    def interval(self, action_id: int) -> CostInterval:
        return self._intervals[action_id]

    def lb(self, action_id: int) -> float:
        return self._intervals[action_id].lb

    def refine(self, action_id: int, incoming: CostInterval) -> CostInterval:
        current = self._intervals[action_id]
        try:
            narrowed = current.intersect(incoming)
        except ValueError as exc:
            raise ModelInconsistencyError(
                f"action {action_id}: estimator interval [{incoming.lb}, {incoming.ub}] "
                f"is disjoint from current [{current.lb}, {current.ub}]"
            ) from exc
        if not current.contains_interval(incoming):
            log.warning(
                "action %d: estimator interval [%s, %s] would widen [%s, %s]; clamped",
                action_id, incoming.lb, incoming.ub, current.lb, current.ub,
            )
        if narrowed.lb > current.lb:
            self.raised.append(action_id)
        self._intervals[action_id] = narrowed
        return narrowed

    def plan_interval(self, plan) -> CostInterval:
        return accumulate(self._intervals[a] for a in plan)
