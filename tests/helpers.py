"""Shared builders for hand-constructed tasks and randomized suites, and the
STRIPS, A* and h_max references the program's own search is checked against."""

import heapq
import itertools
import math
import random

from costplan.bench import gen_gridworld, gen_logistics, synthetic_manifest_for
from costplan.estimators import SyntheticConfig
from costplan.intervals import INF, TOLERANCE, CostInterval
from costplan.pddl import ground
from costplan.manifest import ManifestLevel
from costplan.search import make_heuristic
from costplan.task import GroundAction, PlanningTask, facts_of, mask_of


def make_task(actions, goal, init=frozenset({0}), true_costs=None, priors=None, name="hand"):
    """Build a task from (name, pre, add, delete, chain_levels) tuples.

    chain_levels: list of (time_ms, (lb, ub)); facts are bare integers, sets
    of them become the task's int bitsets.
    priors: optional {action index: (lb, ub)} overriding the [0, inf) default.
    """
    ground_actions = []
    chains = []
    max_fact = 0
    priors = priors or {}
    for i, (aname, pre, add, delete, levels) in enumerate(actions):
        ground_actions.append(
            GroundAction(
                id=i,
                name=aname,
                pre=mask_of(pre),
                add=mask_of(add),
                delete=mask_of(delete),
            )
        )
        chains.append(tuple(ManifestLevel(t, CostInterval(*iv)) for t, iv in levels))
        max_fact = max([max_fact, *pre, *add, *delete])
    return PlanningTask(
        name=name,
        facts=tuple(f"f{i}" for i in range(max_fact + 1)),
        init=mask_of(init),
        goal=mask_of(goal),
        actions=tuple(ground_actions),
        priors=tuple(CostInterval(*priors.get(i, (0.0, INF))) for i in range(len(actions))),
        chains=tuple(chains),
        true_costs=true_costs,
    )


def suite_instance(index, seed, config=None):
    """Deterministic small instance: alternating gridworlds and logistics."""
    config = config or SyntheticConfig()
    if index % 2 == 0:
        rows = 3 + (index // 2) % 3
        cols = 3 + (index // 3) % 3
        domain, problem = gen_gridworld(rows, cols, seed=seed)
    else:
        domain, problem = gen_logistics(
            trucks=1 + index % 2, cities=2 + index % 2, packages=1 + (index // 5) % 2,
            seed=seed,
        )
    manifest = synthetic_manifest_for(domain, problem, seed, config)
    return ground(domain, problem, manifest, name=f"suite{index}-s{seed}")


def acceptance_instance(index, seed):
    """Mixed gridworld/logistics instance, state space well under 10^4."""
    rng = random.Random(f"acc-{index}-{seed}")
    if index % 2 == 0:
        rows = rng.randint(3, 5)
        cols = rng.randint(3, 5)
        domain, problem = gen_gridworld(rows, cols, seed=seed)
    else:
        domain, problem = gen_logistics(
            trucks=rng.randint(1, 2), cities=rng.randint(2, 3),
            packages=rng.randint(1, 2), seed=seed,
        )
    manifest = synthetic_manifest_for(domain, problem, seed, SyntheticConfig(levels=3))
    return ground(domain, problem, manifest, name=f"acc{index}-s{seed}")


class PreconditionError(Exception):
    """An action applied in a state that lacks one of its preconditions."""


def apply(state, action):
    """STRIPS successor of an int state: (state \\ del) | add. Requires pre <= state."""
    if state & action.pre != action.pre:
        missing = facts_of(action.pre & ~state)
        raise PreconditionError(f"action {action.name} inapplicable: missing facts {missing}")
    return state & ~action.delete | action.add


def is_goal(state, task):
    return state & task.goal == task.goal


def hmax(state, task, registry):
    """h_max of an int state from a fresh evaluator: nothing cached, current lbs."""
    return make_heuristic("hmax", task, registry)(state)


def reference_hmax(state, task, lbs):
    """h_max of a frozenset state by value iteration, independent of the
    search module's kernel.

    Repeats cost(f) = min over actions adding f of (max of cost(pre) + lb)
    from cost 0 on the state's facts until nothing changes, which reaches the
    least fixpoint; h is the max goal-fact cost, +inf if one is unreached.
    """
    cost = dict.fromkeys(state, 0.0)
    changed = True
    while changed:
        changed = False
        for action in task.actions:
            pre = decode(action.pre)
            if not all(f in cost for f in pre):
                continue
            through = max((cost[f] for f in pre), default=0.0) + lbs[action.id]
            for f in decode(action.add):
                if through < cost.get(f, INF):
                    cost[f] = through
                    changed = True
    return max((cost.get(f, INF) for f in decode(task.goal)), default=0.0)


def decode(mask):
    """The frozenset view of an int bitset: a state or one of the task's fact sets."""
    return frozenset(facts_of(mask))


def reference_astar_lb(task, registry, heuristic):
    """A* on lower-bound costs over frozenset states; the reference for search.astar_lb.

    The heuristic takes frozenset states. Each action is tried under its
    smallest precondition (None: it has none), precondition-free actions
    first and then in the state's frozenset iteration order, each fact's
    actions in id order; FIFO tie-breaking on equal f. Returns (plan or
    None, expansions).
    """
    by_first_pre = {}
    for action in task.actions:
        view = (action.id, decode(action.pre), decode(action.delete), decode(action.add))
        by_first_pre.setdefault(min(view[1], default=None), []).append(view)
    init, goal = decode(task.init), decode(task.goal)
    counter = itertools.count()
    best_g = {init: 0.0}
    open_heap = [(heuristic(init), next(counter), 0.0, init, None)]
    expansions = 0
    while open_heap:
        _, _, g, state, node = heapq.heappop(open_heap)
        if g > best_g.get(state, INF):
            continue
        if goal <= state:
            plan = []
            while node is not None:
                action_id, node = node
                plan.append(action_id)
            return tuple(reversed(plan)), expansions
        expansions += 1
        for fact in itertools.chain((None,), state):
            for action_id, pre, delete, add in by_first_pre.get(fact, ()):
                if not pre <= state:
                    continue
                succ = (state - delete) | add
                g2 = g + registry.lbs[action_id]
                if g2 < best_g.get(succ, INF) - TOLERANCE:
                    best_g[succ] = g2
                    h = heuristic(succ)
                    if math.isinf(h):
                        continue
                    heapq.heappush(
                        open_heap, (g2 + h, next(counter), g2, succ, (action_id, node))
                    )
    return None, expansions


def eager_astar_lb(task, registry, heuristic):
    """search.astar_lb with every successor's h evaluated when it is pushed:
    the reference its lazy evaluation of h_max must match replan for replan.

    Returns (plan or None, expansions); the same int states, successor order
    and FIFO tie-breaking on equal f as search.astar_lb.
    """
    init, goal, groups = task.init, task.goal, task.groups
    lbs = registry.lbs
    counter = itertools.count()
    best_g = {init: 0.0}
    open_heap = [(heuristic(init), next(counter), 0.0, init, None)]
    expansions = 0
    while open_heap:
        _, _, g, state, node = heapq.heappop(open_heap)
        if g > best_g[state]:
            continue
        if state & goal == goal:
            plan = []
            while node is not None:
                action_id, node = node
                plan.append(action_id)
            return tuple(reversed(plan)), expansions
        expansions += 1
        for group in (groups[0], *(groups[f + 1] for f in facts_of(state))):
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
                    heapq.heappush(
                        open_heap, (g2 + h, next(counter), g2, succ, (action_id, node))
                    )
    return None, expansions
