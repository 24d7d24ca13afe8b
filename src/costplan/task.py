"""Grounded STRIPS task model plus the mutable cost-knowledge overlay."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .errors import ModelInconsistencyError, PreconditionError
from .intervals import CostInterval, accumulate

log = logging.getLogger("costplan.task")

State = frozenset  # of fact ids


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
class PlanningTask:
    """A grounded task and its cost model, indexed by fact and action id.

    ``priors`` holds each action's starting interval and ``chains`` its
    estimator levels, the manifest's own ManifestLevel records in
    invocation order (empty when the manifest has no entry for it). A
    remote estimator answers in a level's place at invocation time; the
    chain still gives the level count and the declared times that a
    refinement budget is checked against.
    """

    name: str
    facts: tuple  # of fact names
    init: State
    goal: frozenset
    actions: tuple  # of GroundAction
    priors: tuple  # of CostInterval
    chains: tuple  # of tuples of ManifestLevel
    true_costs: Optional[dict] = None  # action id -> hidden true cost

    @property
    def n_actions(self) -> int:
        return len(self.actions)

    @cached_property
    def by_pre(self) -> dict:
        """Fact -> actions with that precondition, in id order; key None: those with none."""
        index: dict = {None: []}
        for action in self.actions:
            for fact in action.pre or (None,):
                index.setdefault(fact, []).append(action)
        return index

    @cached_property
    def relaxed(self) -> tuple:
        """h_max's flat arrays: (pre_count, pre, add, by_pre, free, is_goal).

        Per action id: precondition count and pre/add fact-id tuples. Per fact
        id: ids of the actions with that precondition (by_pre order) and a
        goal flag; free holds the precondition-free action ids. Facts are
        numbered up to the largest id in init, goal or any action, which may
        exceed ``len(facts)``.
        """
        n_facts = 1 + max([
            len(self.facts) - 1, *self.init, *self.goal,
            *(f for a in self.actions for f in a.pre | a.add),
        ])
        return (
            [len(a.pre) for a in self.actions],
            [tuple(a.pre) for a in self.actions],
            [tuple(a.add) for a in self.actions],
            [tuple(a.id for a in self.by_pre.get(f, ())) for f in range(n_facts)],
            tuple(a.id for a in self.by_pre[None]),
            [f in self.goal for f in range(n_facts)],
        )

    @cached_property
    def by_first_pre(self) -> dict:
        """As by_pre, but each action only under its smallest precondition."""
        return {
            fact: [a for a in actions if fact is None or min(a.pre) == fact]
            for fact, actions in self.by_pre.items()
        }

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
        self._intervals = list(task.priors)
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
