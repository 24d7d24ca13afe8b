"""Grounded STRIPS task model: int-bitset states and actions, and their indexes."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional


@dataclass(frozen=True)
class GroundAction:
    """A ground STRIPS action; ``pre``, ``add`` and ``delete`` are int bitsets
    over fact ids (fact f is bit ``1 << f``; ``facts_of``/``mask_of`` convert)."""

    id: int
    name: str
    pre: int
    add: int
    delete: int

    def __post_init__(self):
        if self.add & self.delete:
            raise ValueError(f"action {self.name}: add and delete sets overlap")


@dataclass(frozen=True)
class PlanningTask:
    """A grounded task and its cost model, indexed by fact and action id.

    States, ``init``, ``goal`` and each action's fact sets are int bitsets.
    ``priors`` holds each action's starting interval and ``chains`` its
    estimator levels, the manifest's own ManifestLevel records in
    invocation order (empty when the manifest has no entry for it). A
    remote estimator answers in a level's place at invocation time; the
    chain still gives the level count and the declared times. Every fact
    id in an action indexes ``facts``.
    """

    name: str
    facts: tuple  # of fact names
    init: int
    goal: int
    actions: tuple  # of GroundAction
    priors: tuple  # of CostInterval
    chains: tuple  # of tuples of ManifestLevel
    true_costs: Optional[dict] = None  # action id -> hidden true cost

    @property
    def n_actions(self) -> int:
        return len(self.actions)

    @cached_property
    def n_facts(self) -> int:
        """Fact id bound; init and goal may hold facts no action touches in a
        hand-built task, beyond ``facts``."""
        return max(len(self.facts), self.init.bit_length(), self.goal.bit_length())

    @cached_property
    def groups(self) -> list:
        """A*'s action index: ``groups[0]`` holds the precondition-free actions
        and ``groups[f + 1]`` the actions whose lowest precondition is fact f,
        each as ``(id, pre, keep, add)`` in id order. An action applies where
        ``state & pre == pre`` and leads to ``state & keep | add``; reading the
        groups of a state's facts in ascending order proposes each applicable
        action exactly once."""
        groups = [[] for _ in range(self.n_facts + 1)]
        for action in self.actions:
            pre = action.pre
            groups[(pre & -pre).bit_length()].append((action.id, pre, ~action.delete, action.add))
        return groups

    @cached_property
    def relaxation(self) -> "Relaxation":
        """h_max's arrays, built on first use, as blind search never reads them."""
        source = self.n_facts
        counts, multi_adds = [], []
        unary = [[] for _ in range(source + 1)]
        multi = [[] for _ in range(source + 1)]
        pres = [facts_of(action.pre) for action in self.actions]
        for action, pre in zip(self.actions, pres):
            if len(pre) > 1:
                for fact in pre:
                    multi[fact].append(len(counts))
                counts.append(len(pre))
                multi_adds.append((action.id, facts_of(action.add)))
                continue
            edges = unary[pre[0] if pre else source]
            for f in facts_of(action.add):
                edges.append((action.id, f))
        goal_facts = facts_of(self.goal)
        is_goal = [False] * (source + 1)
        for f in goal_facts:
            is_goal[f] = True
        return Relaxation(unary, multi, counts, multi_adds, pres, goal_facts, is_goal)

    def true_plan_cost(self, plan) -> Optional[float]:
        """Sum of hidden true costs along a plan; None when a step has none."""
        costs = self.true_costs
        if costs is None or not all(a in costs for a in plan):
            return None
        return sum(costs[a] for a in plan)


class Relaxation(NamedTuple):
    """h_max's delete-relaxed view of a task, indexed by fact id.

    Fact ids run to ``n_facts``, one past the task's facts: a source fact
    that every precondition-free action needs. ``unary[f]`` holds the
    ``(action id, added fact)`` edges of the actions whose one precondition
    is f (of the precondition-free ones when f is the source). Actions with
    more preconditions are counted: ``multi[f]`` lists indexes into
    ``counts`` (precondition count) and ``multi_adds`` ((action id, added
    facts)) of those with precondition f. Every list is in action id order.
    ``pres[a]`` lists action a's real preconditions, ``goal_facts`` the
    goal's fact ids, and ``is_goal`` flags them.
    """

    unary: list
    multi: list
    counts: list
    multi_adds: list
    pres: list
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
