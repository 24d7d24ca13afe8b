"""Planning algorithms over interval-valued action costs.

The dynamic planner ("asec" mode) runs A* on lower-bound costs and lazily
refines the cost intervals of actions on candidate plans until the
accumulated upper/lower bound ratio certifies the target suboptimality
multiplier epsilon, the chains are exhausted (uncertified), or the goal
is unreachable. The offline baseline conservatively invokes every
action's best estimator before searching.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass
from typing import Optional

from .errors import (
    EstimatorUnavailableError,
    MissingTrueCostError,
    OracleBoundExceededError,
)
from .estimators import EstimatorRegistry
from .intervals import INF, TOLERANCE
from .metrics import MetricsReport
from .task import CostTable, PlanningTask, is_goal

#: Deterministic planning-time proxy in simulated mode: search effort is
#: charged per node expansion so machine outputs are reproducible.
MS_PER_EXPANSION = 0.01

HEURISTICS = ("blind", "hmax")


@dataclass(frozen=True)
class SearchConfig:
    epsilon: float = 1.0
    heuristic: str = "hmax"

    def __post_init__(self):
        if self.epsilon < 1.0:
            raise ValueError("epsilon must be >= 1")
        if self.heuristic not in HEURISTICS:
            raise ValueError(f"unknown heuristic {self.heuristic!r}")


@dataclass(frozen=True)
class PlanCertificate:
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
# Heuristics (admissible w.r.t. the lower-bound cost table)

class _HmaxEvaluator:
    """Delete-relaxation h_max over current lower-bound costs.

    Generalized Dijkstra over facts: an action fires when its last
    precondition is settled, at the max of its precondition costs.

    One evaluator serves a whole asec episode. Per state it caches the h
    value and a support mask: a bitmask over action ids holding the best
    supporters on the derivation of every goal fact it reached. Each call
    first reads the ids that ``CostTable.refine`` appended to
    ``table.raised`` since the previous call, copies those lbs, and drops
    every cached state whose mask holds one of them. A kept value is exactly
    what a fresh computation returns, not merely admissible: lbs only rise
    (refinement intersects intervals) and h_max is monotone in them, so no
    fact cost falls; a goal fact whose derivation holds no raised action
    still has that derivation, so its cost cannot rise either, and since
    IEEE ``+`` and ``max`` are monotone the fresh run yields the very same
    float. INF (relaxed unreachability does not depend on lbs) and h = 0
    for a goal inside the state carry an empty mask and are never dropped.
    """

    def __init__(self, task: PlanningTask, table: CostTable):
        self.task = task
        self.table = table
        self.lbs = [table.lb(a.id) for a in task.actions]
        self._raised_seen = len(table.raised)
        self._cache: dict = {}  # state -> (h, support mask)
        self.by_pre: dict = {}
        self.no_pre = []
        for action in task.actions:
            if not action.pre:
                self.no_pre.append(action)
            for f in action.pre:
                self.by_pre.setdefault(f, []).append(action)

    def __call__(self, state) -> float:
        if len(self.table.raised) > self._raised_seen:
            self._drop_stale()
        entry = self._cache.get(state)
        if entry is None:
            entry = self._cache[state] = self._evaluate(state)
        return entry[0]

    def _drop_stale(self) -> None:
        raised = self.table.raised
        stale = 0
        for action_id in raised[self._raised_seen:]:
            self.lbs[action_id] = self.table.lb(action_id)
            stale |= 1 << action_id
        self._raised_seen = len(raised)
        self._cache = {s: e for s, e in self._cache.items() if not e[1] & stale}

    def _evaluate(self, state) -> tuple:
        """(h, support mask) of a state, computed from scratch."""
        goal = self.task.goal
        if goal <= state:
            return 0.0, 0
        cost = dict.fromkeys(state, 0.0)
        supporter = {}
        remaining = {}
        heap = [(0.0, f) for f in state]
        heapq.heapify(heap)
        for action in self.no_pre:
            through = self.lbs[action.id]
            for f in action.add:
                if cost.get(f, INF) > through:
                    cost[f] = through
                    supporter[f] = action
                    heapq.heappush(heap, (through, f))
        unsettled_goals = len(goal - state)
        settled = set()
        while heap:
            c, fact = heapq.heappop(heap)
            if fact in settled:
                continue
            settled.add(fact)
            if fact in goal:
                unsettled_goals -= 1
                if unsettled_goals == 0:
                    return c, _support_mask(goal, supporter)
            for action in self.by_pre.get(fact, ()):
                left = remaining.get(action.id)
                if left is None:
                    left = len(action.pre)
                left -= 1
                remaining[action.id] = left
                if left == 0:
                    through = c + self.lbs[action.id]
                    for f in action.add:
                        if cost.get(f, INF) > through:
                            cost[f] = through
                            supporter[f] = action
                            heapq.heappush(heap, (through, f))
        return INF, 0


def _support_mask(goal, supporter: dict) -> int:
    """Bitmask of the supporter actions reachable back from the goal facts."""
    mask = 0
    stack = [f for f in goal if f in supporter]
    seen = set(stack)
    while stack:
        action = supporter[stack.pop()]
        mask |= 1 << action.id
        for f in action.pre:
            if f in supporter and f not in seen:
                seen.add(f)
                stack.append(f)
    return mask


def hmax(state, task: PlanningTask, table: CostTable) -> float:
    return _HmaxEvaluator(task, table)(state)


def make_heuristic(name: str, task: PlanningTask, table: CostTable):
    if name == "blind":
        return lambda state: 0.0
    return _HmaxEvaluator(task, table)


# ---------------------------------------------------------------------------
# A* core

def astar_lb(task: PlanningTask, table: CostTable, heuristic) -> tuple:
    """A* on lower-bound costs; duplicate detection with g reopening.

    Returns (plan or None, expansions). FIFO tie-breaking on equal f.
    """
    counter = itertools.count()
    h_memo: dict = {}

    def h_of(state):
        value = h_memo.get(state)
        if value is None:
            value = heuristic(state)
            h_memo[state] = value
        return value

    start = task.init
    h0 = h_of(start)
    best_g = {start: 0.0}
    open_heap = [(h0, next(counter), 0.0, start, None)]
    expansions = 0
    # candidate pruning: an action is applicable only if its first
    # precondition fact is in the state
    no_pre = [a for a in task.actions if not a.pre]
    by_pre: dict = {}
    for action in task.actions:
        if action.pre:
            by_pre.setdefault(min(action.pre), []).append(action)
    while open_heap:
        f, _, g, state, node = heapq.heappop(open_heap)
        if g > best_g.get(state, INF):
            continue  # stale entry
        if is_goal(state, task):
            plan = []
            while node is not None:
                action_id, node = node
                plan.append(action_id)
            return tuple(reversed(plan)), expansions
        expansions += 1
        candidates = list(no_pre)
        for fact in state:
            candidates.extend(by_pre.get(fact, ()))
        for action in candidates:
            if not action.pre <= state:
                continue
            succ = (state - action.delete) | action.add
            g2 = g + table.lb(action.id)
            if g2 < best_g.get(succ, INF) - TOLERANCE:
                best_g[succ] = g2
                h = h_of(succ)
                if math.isinf(h):
                    continue
                heapq.heappush(open_heap, (g2 + h, next(counter), g2, succ, (action.id, node)))
    return None, expansions


# ---------------------------------------------------------------------------
# Planner episodes

def _episode_report(
    task, registry, mode: str, expansions: int, wall_s: float
) -> MetricsReport:
    if registry.clock.mode == "real":
        planning_ms = max(0.0, wall_s * 1000.0 - registry.clock.accumulated_ms)
    else:
        planning_ms = expansions * MS_PER_EXPANSION
    if mode == "offline":
        a_actual = frozenset(range(task.n_actions))
    else:
        a_actual = frozenset(registry.estimated_actions())
    return MetricsReport(
        instance=task.name,
        mode=mode,
        n=task.n_actions,
        a_actual=a_actual,
        calls=tuple(registry.ledger),
        t_modeling_ms=registry.total_charged_ms(),
        t_planning_ms=planning_ms,
    )


def _pick_refinement(plan, registry) -> Optional[int]:
    """Widest refinable plan action; ties broken by earliest plan position."""
    best = None
    best_width = -1.0
    for action_id in plan:
        if not registry.refinable(action_id):
            continue
        width = registry.table.interval(action_id).width
        if width > best_width:
            best = action_id
            best_width = width
    return best


def asec(
    task: PlanningTask, config: SearchConfig, registry: Optional[EstimatorRegistry] = None
) -> tuple:
    """A* with synchronous (on-demand) estimation of costs.

    Runs a fresh lower-bound A* after each refinement. One heuristic serves
    the whole episode: h_max keeps every value the refinement cannot have
    changed (see ``_HmaxEvaluator``). Memoized estimator results persist
    across replans, so total invocations are bounded by the total chain
    length.
    """
    registry = registry or EstimatorRegistry(task)
    table = registry.table
    heuristic = make_heuristic(config.heuristic, task, table)
    expansions = 0
    started = time.perf_counter()
    while True:
        plan, exp = astar_lb(task, table, heuristic)
        expansions += exp
        if plan is None:
            cert = PlanCertificate(None, INF, INF, config.epsilon, "no-plan")
            break
        bound = table.plan_interval(plan)
        if certified(bound.lb, bound.ub, config.epsilon):
            cert = PlanCertificate(plan, bound.lb, bound.ub, config.epsilon, "certified")
            break
        target = _pick_refinement(plan, registry)
        if target is None:
            cert = PlanCertificate(plan, bound.lb, bound.ub, config.epsilon, "uncertified")
            break
        try:
            registry.invoke_next(target)
        except EstimatorUnavailableError:
            pass  # action is now marked unrefinable; re-plan
    wall = time.perf_counter() - started
    return cert, _episode_report(task, registry, "dynamic", expansions, wall)


def astar_offline(
    task: PlanningTask, config: SearchConfig, registry: Optional[EstimatorRegistry] = None
) -> tuple:
    """Conservative baseline: best estimate for every action, then plain A*."""
    registry = registry or EstimatorRegistry(task)
    table = registry.table
    started = time.perf_counter()
    for action in task.actions:
        try:
            registry.invoke_final(action.id)
        except EstimatorUnavailableError:
            pass  # keep the prior for this action
    plan, expansions = astar_lb(
        task, table, make_heuristic(config.heuristic, task, table)
    )
    if plan is None:
        cert = PlanCertificate(None, INF, INF, config.epsilon, "no-plan")
    else:
        bound = table.plan_interval(plan)
        verdict = "certified" if certified(bound.lb, bound.ub, config.epsilon) else "uncertified"
        cert = PlanCertificate(plan, bound.lb, bound.ub, config.epsilon, verdict)
    wall = time.perf_counter() - started
    return cert, _episode_report(task, registry, "offline", expansions, wall)


def post_search_refine(
    certificate: PlanCertificate,
    registry: EstimatorRegistry,
    budget_ms: Optional[float] = None,
) -> PlanCertificate:
    """Narrow a found plan's cost bound by refining its widest actions.

    Stops when the budget or every chain on the plan is exhausted. The
    verdict may upgrade uncertified -> certified, never the reverse.
    """
    if certificate.plan is None:
        return certificate
    table = registry.table
    spent = 0.0
    while True:
        target = _pick_refinement(certificate.plan, registry)
        if target is None:
            break
        next_level = table.next_level[target]
        cost_ms = registry.task.chains[target].levels[next_level][0]
        if budget_ms is not None and spent + cost_ms > budget_ms + TOLERANCE:
            break
        try:
            registry.invoke_next(target)
        except EstimatorUnavailableError:
            continue
        spent += cost_ms
    bound = table.plan_interval(certificate.plan)
    verdict = certificate.verdict
    if verdict == "uncertified" and certified(bound.lb, bound.ub, certificate.epsilon):
        verdict = "certified"
    return PlanCertificate(
        certificate.plan, bound.lb, bound.ub, certificate.epsilon, verdict
    )


# ---------------------------------------------------------------------------
# Test oracle: exact optimum over hidden true costs

def oracle_optimal(task: PlanningTask, state_bound: int = 10**6) -> float:
    """Uniform-cost search over hidden true costs; +inf when unreachable."""
    costs = task.true_costs or {}

    def true_cost(action_id: int) -> float:
        try:
            return costs[action_id]
        except KeyError:
            raise MissingTrueCostError(
                f"action {task.actions[action_id].name}: no hidden true cost"
            ) from None

    counter = itertools.count()
    best_g = {task.init: 0.0}
    heap = [(0.0, next(counter), task.init)]
    settled = 0
    while heap:
        g, _, state = heapq.heappop(heap)
        if g > best_g.get(state, INF):
            continue
        if is_goal(state, task):
            return g
        settled += 1
        if settled > state_bound:
            raise OracleBoundExceededError(
                f"oracle exceeded {state_bound} settled states on {task.name}"
            )
        for action in task.actions:
            if not action.pre <= state:
                continue
            succ = (state - action.delete) | action.add
            g2 = g + true_cost(action.id)
            if g2 < best_g.get(succ, INF) - TOLERANCE:
                best_g[succ] = g2
                heapq.heappush(heap, (g2, next(counter), succ))
    return INF
