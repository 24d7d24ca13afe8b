"""Grounded STRIPS task model plus the mutable cost-knowledge overlay."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

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
    refinement budget is checked against. Every fact id in an action
    indexes ``facts``.
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
    def compiled(self) -> "CompiledTask":
        """The task's int bitset form, built on first use; A* and h_max share it."""
        return CompiledTask(self)

    def true_plan_cost(self, plan) -> float:
        """Sum of hidden true costs along a plan (test/oracle use)."""
        if self.true_costs is None:
            raise KeyError("task has no hidden true costs")
        return sum(self.true_costs[a] for a in plan)


class CompiledTask:
    """A task compiled once into int bitset states: fact f is bit ``1 << f``.

    ``init`` and ``goal`` are masks. ``groups[0]`` holds the
    precondition-free actions and ``groups[f + 1]`` the actions whose lowest
    precondition is fact f, each as ``(id, pre, keep, add)`` masks in id
    order: an action applies where ``state & pre == pre`` and leads to
    ``state & keep | add``. A* reads the groups of a state's facts in
    ascending order, so it proposes each applicable action exactly once.
    The h_max arrays (``relaxation``) are built on first use, as blind
    search never reads them.
    """

    def __init__(self, task: PlanningTask):
        self.actions = task.actions
        self.init = mask_of(task.init)
        self.goal = mask_of(task.goal)
        #: Init and goal may hold fact ids beyond ``task.facts`` (facts no
        #: action touches) in a hand-built task.
        self.n_facts = max(len(task.facts), self.init.bit_length(), self.goal.bit_length())
        self.groups = [[] for _ in range(self.n_facts + 1)]
        masks = {}  # fact set -> mask
        known = masks.get
        for action in task.actions:
            pre, add, delete = action.pre, action.add, action.delete
            # mask_of inlined, once per distinct fact set: this loop runs over
            # every ground action in every episode
            pre_mask = known(pre)
            if pre_mask is None:
                pre_mask = 0
                for f in pre:
                    pre_mask |= 1 << f
                masks[pre] = pre_mask
            add_mask = known(add)
            if add_mask is None:
                add_mask = 0
                for f in add:
                    add_mask |= 1 << f
                masks[add] = add_mask
            delete_mask = known(delete)
            if delete_mask is None:
                delete_mask = 0
                for f in delete:
                    delete_mask |= 1 << f
                masks[delete] = delete_mask
            self.groups[(pre_mask & -pre_mask).bit_length()].append(
                (action.id, pre_mask, ~delete_mask, add_mask)
            )

    @cached_property
    def relaxation(self) -> "Relaxation":
        """h_max's arrays, built on first use."""
        free, counts, multi_adds = [], [], []
        unary = [[] for _ in range(self.n_facts)]
        multi = [[] for _ in range(self.n_facts)]
        for action in self.actions:
            pre = action.pre
            if len(pre) > 1:
                for fact in pre:
                    multi[fact].append(len(counts))
                counts.append(len(pre))
                multi_adds.append((action.id, tuple(action.add)))
                continue
            edges = unary[min(pre)] if pre else free
            for f in action.add:
                edges.append((action.id, f))
        goal_facts = facts_of(self.goal)
        is_goal = [False] * self.n_facts
        for f in goal_facts:
            is_goal[f] = True
        return Relaxation(free, unary, multi, counts, multi_adds, goal_facts, is_goal)


class Relaxation(NamedTuple):
    """h_max's delete-relaxed view of a compiled task, indexed by fact id.

    ``free`` and ``unary[f]`` hold ``(action id, added fact)`` edges of the
    precondition-free actions and of those whose one precondition is f.
    Actions with more preconditions are counted: ``multi[f]`` lists indexes
    into ``counts`` (precondition count) and ``multi_adds`` ((action id,
    added facts)) of those with precondition f. Every list is in action id
    order. ``goal_facts`` lists the goal's fact ids and ``is_goal`` flags
    them.
    """

    free: list
    unary: list
    multi: list
    counts: list
    multi_adds: list
    goal_facts: list
    is_goal: list


def mask_of(facts) -> int:
    """The int bitset of a collection of fact ids."""
    mask = 0
    for f in facts:
        mask |= 1 << f
    return mask


def facts_of(mask: int) -> list:
    """The fact ids of an int bitset, ascending."""
    facts = []
    while mask:
        low = mask & -mask
        facts.append(low.bit_length() - 1)
        mask ^= low
    return facts


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

    It holds interval knowledge only; which estimator level comes next is
    EstimatorRegistry.next_level. Refinement only narrows. An estimator
    reply that would widen an interval is clamped to the intersection (with
    a warning); an empty intersection is a hard model-inconsistency error.
    ``raised`` is an append-only log of action ids, one entry per refinement
    that strictly raised that action's lb; readers keep their own position.
    """

    def __init__(self, task: PlanningTask):
        self._intervals = list(task.priors)
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
