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

from .errors import (
    EstimatorUnavailableError,
    MissingTrueCostError,
    OracleBoundExceededError,
)
from .estimators import EstimatorRegistry
from .intervals import INF, TOLERANCE, CostInterval
from .metrics import MetricsReport
from .task import CostTable, PlanningTask, is_goal

log = logging.getLogger("costplan.search")

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
    precondition is settled, at the max of its precondition costs. It runs
    over the flat per-action and per-fact arrays of ``task.relaxed``,
    compiled once per task on first use, and visits actions in id order.

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
        pre_count, pre, add, by_pre, free, is_goal = self.task.relaxed
        lbs = self.lbs
        cost = [INF] * len(is_goal)
        supporter = [-1] * len(is_goal)
        for f in state:
            cost[f] = 0.0
        heap = [(0.0, f) for f in state]
        heapq.heapify(heap)
        push, pop = heapq.heappush, heapq.heappop
        for a in free:
            through = lbs[a]
            for f in add[a]:
                if cost[f] > through:
                    cost[f] = through
                    supporter[f] = a
                    push(heap, (through, f))
        remaining = pre_count.copy()
        unsettled_goals = len(goal)  # goal facts in the state settle too
        while heap:
            c, fact = pop(heap)
            if c > cost[fact]:
                continue  # stale: costs only fall, so one entry per fact is current
            if is_goal[fact]:
                unsettled_goals -= 1
                if not unsettled_goals:
                    return c, _support_mask(goal, supporter, pre)
            for a in by_pre[fact]:
                left = remaining[a] - 1
                remaining[a] = left
                if not left:
                    through = c + lbs[a]
                    for f in add[a]:
                        if cost[f] > through:
                            cost[f] = through
                            supporter[f] = a
                            push(heap, (through, f))
        return INF, 0


def _support_mask(goal, supporter: list, pre: list) -> int:
    """Bitmask of the supporter actions reachable back from the goal facts."""
    mask = 0
    stack = [supporter[f] for f in goal]
    while stack:
        a = stack.pop()
        if a < 0 or mask >> a & 1:
            continue
        mask |= 1 << a
        stack.extend(supporter[f] for f in pre[a])
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
    Nothing is memoized here: the heuristic is the only cache of h values.
    """
    counter = itertools.count()
    best_g = {task.init: 0.0}
    open_heap = [(heuristic(task.init), next(counter), 0.0, task.init, None)]
    expansions = 0
    # an action is tried only where its smallest precondition is in the state
    by_first_pre = task.by_first_pre
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
        for fact in itertools.chain((None,), state):
            for action in by_first_pre.get(fact, ()):
                if not action.pre <= state:
                    continue
                succ = (state - action.delete) | action.add
                g2 = g + table.lb(action.id)
                if g2 < best_g.get(succ, INF) - TOLERANCE:
                    best_g[succ] = g2
                    h = heuristic(succ)
                    if math.isinf(h):
                        continue
                    heapq.heappush(
                        open_heap, (g2 + h, next(counter), g2, succ, (action.id, node))
                    )
    return None, expansions


# ---------------------------------------------------------------------------
# Planner episodes

def _episode_report(
    task, registry, mode: str, expansions: int, wall_s: float
) -> MetricsReport:
    charged_ms = registry.total_charged_ms()
    if registry.real_latency:
        planning_ms = max(0.0, wall_s * 1000.0 - charged_ms)
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
        t_modeling_ms=charged_ms,
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


def _solve(
    task: PlanningTask, config: SearchConfig, registry: EstimatorRegistry,
    mode: str, started: float,
) -> tuple:
    """Replan on lower bounds, refining the widest plan action, until a verdict.

    Runs a fresh lower-bound A* after each refinement. One heuristic serves
    the whole episode: h_max keeps every value the refinement cannot have
    changed (see ``_HmaxEvaluator``). Memoized estimator results persist
    across replans, so total invocations are bounded by the total chain
    length. ``started`` is the episode's ``perf_counter`` start. Each
    replan logs one DEBUG line on the ``costplan.search`` logger.
    """
    table = registry.table
    heuristic = make_heuristic(config.heuristic, task, table)
    expansions = 0
    for replan in itertools.count(1):
        plan, exp = astar_lb(task, table, heuristic)
        expansions += exp
        bound = CostInterval(INF, INF) if plan is None else table.plan_interval(plan)
        lb, ub = bound.lb, bound.ub
        ratio = ub / lb if lb > 0 else (INF if ub > 0 else 1.0)
        if plan is None:
            verdict = "no-plan"
        elif certified(lb, ub, config.epsilon):
            verdict = "certified"
        else:
            target = _pick_refinement(plan, registry)
            verdict = "uncertified" if target is None else None
        if verdict is not None:
            log.debug(
                "replan %d: plan length %d, cost [%s, %s], ub/lb %s, %d expansions; %s",
                replan, len(plan or ()), lb, ub, ratio, exp, verdict,
            )
            cert = PlanCertificate(plan, lb, ub, config.epsilon, verdict)
            break
        log.debug(
            "replan %d: plan length %d, cost [%s, %s], ub/lb %s, %d expansions; "
            "refine %s level %d",
            replan, len(plan), lb, ub, ratio, exp,
            task.actions[target].name, table.next_level[target] + 1,
        )
        try:
            registry.invoke_next(target)
        except EstimatorUnavailableError:
            pass  # action is now marked unrefinable; re-plan
    wall = time.perf_counter() - started
    return cert, _episode_report(task, registry, mode, expansions, wall)


def asec(
    task: PlanningTask, config: SearchConfig, registry: Optional[EstimatorRegistry] = None
) -> tuple:
    """A* with synchronous (on-demand) estimation of costs."""
    started = time.perf_counter()
    return _solve(task, config, registry or EstimatorRegistry(task), "asec", started)


def astar_offline(
    task: PlanningTask, config: SearchConfig, registry: Optional[EstimatorRegistry] = None
) -> tuple:
    """Conservative baseline: best estimate for every action, then plain A*.

    Every chain ends fully invoked or unavailable, so nothing is refinable
    and the shared loop runs A* exactly once.
    """
    started = time.perf_counter()
    registry = registry or EstimatorRegistry(task)
    for action in task.actions:
        try:
            registry.invoke_final(action.id)
        except EstimatorUnavailableError:
            pass  # keep the prior for this action
    return _solve(task, config, registry, "offline", started)


#: Mode name -> episode runner; the one vocabulary of the CLI, suites and reports.
MODES = {"asec": asec, "offline": astar_offline}


def post_search_refine(
    certificate: PlanCertificate,
    registry: EstimatorRegistry,
    budget_ms: Optional[float] = None,
) -> PlanCertificate:
    """Narrow a found plan's cost bound by refining its widest actions.

    Stops when the budget or every chain on the plan is exhausted. The
    budget counts what the ledger charged for these calls (measured time
    under ``real_latency``); a call starts only if the spend so far plus its
    declared time fits. The verdict may upgrade uncertified -> certified,
    never the reverse.
    """
    if certificate.plan is None:
        return certificate
    table = registry.table
    first = len(registry.ledger)
    while True:
        target = _pick_refinement(certificate.plan, registry)
        if target is None:
            break
        cost_ms = registry.task.chains[target][table.next_level[target]].time_ms
        spent = sum(e.time_ms for e in registry.ledger[first:])
        if budget_ms is not None and spent + cost_ms > budget_ms + TOLERANCE:
            break
        try:
            registry.invoke_next(target)
        except EstimatorUnavailableError:
            continue
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
