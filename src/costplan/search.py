"""Planning algorithms over interval-valued action costs.

The online-modeling planner ("asec" mode) runs A* on lower-bound costs and
lazily refines the cost intervals of actions on candidate plans until the
accumulated upper/lower bound ratio certifies the target suboptimality
multiplier epsilon, the chains are exhausted (uncertified), or the goal
is unreachable. The offline baseline conservatively invokes every
action's best estimator before searching.
"""

from __future__ import annotations

import heapq
import itertools
import logging
import math
import time
from dataclasses import dataclass
from typing import Optional

from .errors import MissingTrueCostError, OracleBoundExceededError
from .estimators import EstimatorRegistry
from .intervals import INF, TOLERANCE, CostInterval
from .metrics import MetricsReport
from .task import PlanningTask, facts_of

log = logging.getLogger("costplan.search")

#: Deterministic planning-time proxy in simulated mode: search effort is
#: charged per node expansion so machine outputs are reproducible.
MS_PER_EXPANSION = 0.01

HEURISTICS = ("blind", "hmax")

#: Episode modes: the one vocabulary of the CLI, suites and reports.
MODES = ("asec", "offline")


@dataclass(frozen=True)
class SearchConfig:
    """What an episode certifies, how it searches and in which mode; one check of all.

    ``epsilon`` (>= 1; inf accepts any plan) is the ub/lb ratio to certify.
    ``mode`` is "asec" (online modeling: refine plan actions on demand) or
    "offline" (every action's final estimate before one search).
    """

    epsilon: float = 1.0
    heuristic: str = "hmax"
    mode: str = "asec"

    def __post_init__(self):
        if not self.epsilon >= 1.0:  # NaN fails this too
            raise ValueError("epsilon must be >= 1")
        if self.heuristic not in HEURISTICS:
            raise ValueError(f"unknown heuristic {self.heuristic!r}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass(frozen=True)
class PlanCertificate:
    """An episode's answer: the plan and its cost interval at the verdict.

    ``lower`` and ``upper`` bound the plan's true cost ([inf, inf] without a
    plan). A* found the plan optimal under the lower-bound costs of the
    verdict, so ``lower`` is also the lb-optimal cost, and since every true
    cost is at least its lb, ``lower`` is at most C*, the optimal true plan
    cost. A ``certified`` verdict thus means ``upper <= epsilon * C*``.
    """

    plan: Optional[tuple]  # action ids, None when no plan exists
    lower: float
    upper: float
    epsilon: float
    verdict: str  # "certified" | "uncertified" | "no-plan"


def certified(lower: float, upper: float, epsilon: float) -> bool:
    if math.isinf(epsilon):
        return True
    return upper <= epsilon * lower + TOLERANCE


# ---------------------------------------------------------------------------
# Heuristics (admissible w.r.t. the registry's lower bounds)

class _HmaxEvaluator:
    """Delete-relaxation h_max over current lower-bound costs, on int states.

    Generalized Dijkstra over facts: an action fires when its last
    precondition is settled, at the max of its precondition costs. It runs
    over ``task.relaxation``: an action with at most one precondition is an
    edge that fires when its fact settles (a precondition-free one fires
    from the source, a fact no state holds that settles first, at cost 0),
    and only actions with more preconditions are counted down.

    A zero pass settles the cost-0 facts from a plain list before any heap
    operation: the source and the state's facts, then every fact an lb-0
    action adds once all its preconditions are settled (under online
    modeling most lbs are still a prior's 0, so this plateau is often most
    of the facts). The call returns 0 as soon as the list reaches the last
    goal fact; an action with a positive lb pushes what it adds, and the
    heap settles those facts as before. Costs are never negative, so cost 0 is the
    least and the list may settle in any order. Each fact's cost is still
    the same ``lb`` or ``c + lb`` float, so every h is bit for bit what a
    heap-only run returns; only the supporter chosen among equal-cost ones
    can differ, and the argument below holds for any recorded derivation.

    One evaluator serves a whole asec episode. Per state it caches the h
    value and a support mask: a bitmask over action ids holding the best
    supporters on the derivation of every goal fact it reached. Each call
    first reads the ids that ``EstimatorRegistry.refine`` appended to
    ``registry.raised`` since the previous call and drops every cached state
    whose mask holds one of them, so every computation reads the current
    ``registry.lbs``. A kept value is exactly what a fresh computation
    returns, not merely admissible: lbs only rise
    (refinement intersects intervals) and h_max is monotone in them, so no
    fact cost falls; a goal fact whose derivation holds no raised action
    still has that derivation, so its cost cannot rise either, and since
    IEEE ``+`` and ``max`` are monotone the fresh run yields the very same
    float. INF (relaxed unreachability does not depend on lbs) and h = 0
    for a goal inside the state carry an empty mask and are never dropped.
    """

    def __init__(self, task: PlanningTask, registry: EstimatorRegistry):
        self.task = task
        self.registry = registry
        self._raised_seen = len(registry.raised)
        self._cache: dict = {}  # int state -> (h, support mask)

    def __call__(self, state: int) -> float:
        if len(self.registry.raised) > self._raised_seen:
            self._drop_stale()
        entry = self._cache.get(state)
        if entry is None:
            entry = self._cache[state] = self._evaluate(state)
        return entry[0]

    def _drop_stale(self) -> None:
        raised = self.registry.raised
        stale = 0
        for action_id in raised[self._raised_seen:]:
            stale |= 1 << action_id
        self._raised_seen = len(raised)
        self._cache = {s: e for s, e in self._cache.items() if not e[1] & stale}

    def _evaluate(self, state: int) -> tuple:
        """(h, support mask) of a state, computed from scratch."""
        goal = self.task.goal
        if state & goal == goal:
            return 0.0, 0
        unary, multi, counts, multi_adds, pres, goal_facts, is_goal = self.task.relaxation
        lbs = self.registry.lbs
        cost = [INF] * len(is_goal)
        supporter = [-1] * len(is_goal)
        # The facts settled at cost 0, in the order reached: the source first.
        zero = [self.task.n_facts, *facts_of(state)]
        for f in zero:
            cost[f] = 0.0
        unsettled_goals = len(goal_facts) - (state & goal).bit_count()  # counted down as reached
        heap = []  # positive-cost facts only
        push, pop = heapq.heappush, heapq.heappop
        remaining = counts.copy()
        # Zero pass: an lb-0 action appends what it adds to the list it reads.
        for fact in zero:
            for a, f in unary[fact]:
                through = lbs[a]
                if cost[f] > through:
                    cost[f] = through
                    supporter[f] = a
                    if through:
                        push(heap, (through, f))
                    else:
                        zero.append(f)
                        if is_goal[f]:
                            unsettled_goals -= 1
                            if not unsettled_goals:
                                return 0.0, _support_mask(goal_facts, supporter, pres)
            for j in multi[fact]:
                left = remaining[j] - 1
                remaining[j] = left
                if not left:
                    a, added = multi_adds[j]
                    through = lbs[a]
                    for f in added:
                        if cost[f] > through:
                            cost[f] = through
                            supporter[f] = a
                            if through:
                                push(heap, (through, f))
                            else:
                                zero.append(f)
                                if is_goal[f]:
                                    unsettled_goals -= 1
                                    if not unsettled_goals:
                                        return 0.0, _support_mask(goal_facts, supporter, pres)
        while heap:
            c, fact = pop(heap)
            if c > cost[fact]:
                continue  # stale: costs only fall, so one entry per fact is current
            if is_goal[fact]:
                unsettled_goals -= 1
                if not unsettled_goals:
                    return c, _support_mask(goal_facts, supporter, pres)
            for a, f in unary[fact]:
                through = c + lbs[a]
                if cost[f] > through:
                    cost[f] = through
                    supporter[f] = a
                    push(heap, (through, f))
            for j in multi[fact]:
                left = remaining[j] - 1
                remaining[j] = left
                if not left:
                    a, added = multi_adds[j]
                    through = c + lbs[a]
                    for f in added:
                        if cost[f] > through:
                            cost[f] = through
                            supporter[f] = a
                            push(heap, (through, f))
        return INF, 0


def _support_mask(goal_facts, supporter: list, pres: list) -> int:
    """Bitmask of the supporter actions reachable back from the goal facts."""
    mask = 0
    stack = [supporter[f] for f in goal_facts]
    while stack:
        a = stack.pop()
        if a < 0 or mask >> a & 1:
            continue
        mask |= 1 << a
        for f in pres[a]:
            stack.append(supporter[f])
    return mask


def make_heuristic(name: str, task: PlanningTask, registry: EstimatorRegistry):
    """The episode's heuristic: a callable from an int state to an admissible h."""
    if name == "blind":
        return lambda state: 0.0
    return _HmaxEvaluator(task, registry)


# ---------------------------------------------------------------------------
# A* core

def astar_lb(task: PlanningTask, registry: EstimatorRegistry, heuristic) -> tuple:
    """A* on lower-bound costs over int states; duplicate detection with g reopening.

    Returns (plan or None, expansions). FIFO tie-breaking on equal f.
    Successors come precondition-free actions first, then by the state's
    facts in ascending id order, each fact's group in action id order (see
    ``PlanningTask.groups``). Nothing is memoized here: the heuristic is the
    only cache of h values.
    """
    init, goal, groups = task.init, task.goal, task.groups
    lbs = registry.lbs
    push, pop = heapq.heappush, heapq.heappop
    counter = itertools.count()
    best_g = {init: 0.0}
    open_heap = [(heuristic(init), next(counter), 0.0, init, None)]
    expansions = 0
    while open_heap:
        _, _, g, state, node = pop(open_heap)
        if g > best_g[state]:
            continue  # stale entry
        if state & goal == goal:
            plan = []
            while node is not None:
                action_id, node = node
                plan.append(action_id)
            return tuple(reversed(plan)), expansions
        expansions += 1
        rest = state
        group = groups[0]  # precondition-free actions, then one group per state fact
        while True:
            for action_id, pre, keep, add in group:
                if state & pre != pre:
                    continue
                succ = state & keep | add
                g2 = g + lbs[action_id]
                if g2 < best_g.get(succ, INF) - TOLERANCE:
                    best_g[succ] = g2
                    h = heuristic(succ)
                    if math.isinf(h):
                        continue
                    push(open_heap, (g2 + h, next(counter), g2, succ, (action_id, node)))
            if not rest:
                break
            low = rest & -rest  # the state's next fact, ascending
            rest ^= low
            group = groups[low.bit_length()]
    return None, expansions


# ---------------------------------------------------------------------------
# Planner episodes

def _pick_refinement(plan, registry) -> Optional[int]:
    """Widest refinable plan action; ties broken by earliest plan position."""
    best = None
    best_width = -1.0
    for action_id in plan:
        if not registry.refinable(action_id):
            continue
        width = registry.intervals[action_id].width
        if width > best_width:
            best = action_id
            best_width = width
    return best


def solve(
    task: PlanningTask, config: SearchConfig, registry: Optional[EstimatorRegistry] = None
) -> tuple:
    """One episode in ``config.mode``: (PlanCertificate, MetricsReport).

    ``registry`` defaults to a fresh local one; pass one to estimate remotely
    or under ``real_latency``. Offline first invokes every action's final
    level, which leaves nothing refinable, so A* runs once. Otherwise each
    replan is a fresh lower-bound A* that refines the plan's widest refinable
    action, until a verdict. One heuristic serves the episode: h_max keeps
    every value a refinement cannot have changed (see ``_HmaxEvaluator``).
    Each replan logs one DEBUG line. The verdict's bound is the certificate.
    """
    started = time.perf_counter()
    registry = registry or EstimatorRegistry(task)
    if config.mode == "offline":
        for action in task.actions:
            registry.invoke_final(action.id)  # an unavailable estimator keeps the prior
    heuristic = make_heuristic(config.heuristic, task, registry)
    expansions = 0
    for replan in itertools.count(1):
        plan, exp = astar_lb(task, registry, heuristic)
        expansions += exp
        bound = CostInterval(INF, INF) if plan is None else registry.plan_interval(plan)
        lb, ub = bound.lb, bound.ub
        if plan is None:
            verdict = "no-plan"
        elif certified(lb, ub, config.epsilon):
            verdict = "certified"
        elif (target := _pick_refinement(plan, registry)) is None:
            verdict = "uncertified"
        else:
            verdict = None
        if log.isEnabledFor(logging.DEBUG):  # the refine text is built only to be logged
            ratio = ub / lb if lb > 0 else (INF if ub > 0 else 1.0)
            log.debug(
                "replan %d: plan length %d, cost [%s, %s], ub/lb %s, %d expansions; %s",
                replan, len(plan or ()), lb, ub, ratio, exp,
                verdict or f"refine {task.actions[target].name} "
                           f"level {registry.next_level[target] + 1}",
            )
        if verdict is not None:
            break
        registry.invoke_next(target)
    charged_ms = registry.total_charged_ms()
    if registry.real_latency:
        planning_ms = max(0.0, (time.perf_counter() - started) * 1000.0 - charged_ms)
    else:
        planning_ms = expansions * MS_PER_EXPANSION
    report = MetricsReport(
        instance=task.name, mode=config.mode, n=task.n_actions, calls=tuple(registry.ledger),
        a_actual=registry.estimated_actions(), t_modeling_ms=charged_ms, t_planning_ms=planning_ms,
    )
    return PlanCertificate(plan, lb, ub, config.epsilon, verdict), report


# ---------------------------------------------------------------------------
# Test oracle: exact optimum over hidden true costs

def oracle_optimal(task: PlanningTask, state_bound: int = 10**6) -> float:
    """Uniform-cost search over hidden true costs; +inf when unreachable.

    An independent full scan of the actions per state, on frozenset states;
    each distinct fact set of the task is decoded once per call.
    """
    costs = task.true_costs or {}
    views = dict.fromkeys(m for a in task.actions for m in (a.pre, a.delete, a.add))
    for mask in (*views, task.init, task.goal):
        views[mask] = frozenset(facts_of(mask))
    actions = [(a.id, views[a.pre], views[a.delete], views[a.add]) for a in task.actions]
    init, goal = views[task.init], views[task.goal]

    def true_cost(action_id: int) -> float:
        try:
            return costs[action_id]
        except KeyError:
            raise MissingTrueCostError(
                f"action {task.actions[action_id].name}: no hidden true cost"
            ) from None

    counter = itertools.count()
    best_g = {init: 0.0}
    heap = [(0.0, next(counter), init)]
    settled = 0
    while heap:
        g, _, state = heapq.heappop(heap)
        if g > best_g.get(state, INF):
            continue
        if goal <= state:
            return g
        settled += 1
        if settled > state_bound:
            raise OracleBoundExceededError(
                f"oracle exceeded {state_bound} settled states on {task.name}"
            )
        for action_id, pre, delete, add in actions:
            if not pre <= state:
                continue
            succ = (state - delete) | add
            g2 = g + true_cost(action_id)
            if g2 < best_g.get(succ, INF) - TOLERANCE:
                best_g[succ] = g2
                heapq.heappush(heap, (g2, next(counter), succ))
    return INF
