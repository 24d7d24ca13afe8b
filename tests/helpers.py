"""Shared builders for hand-constructed tasks and randomized suites."""

import random

from costplan.bench import gen_gridworld, gen_logistics, synthetic_manifest_for
from costplan.estimators import SyntheticConfig
from costplan.intervals import INF, CostInterval
from costplan.pddl import ground
from costplan.manifest import ManifestLevel
from costplan.task import GroundAction, PlanningTask


def make_task(actions, goal, init=frozenset({0}), true_costs=None, priors=None, name="hand"):
    """Build a task from (name, pre, add, delete, chain_levels) tuples.

    chain_levels: list of (time_ms, (lb, ub)); facts are bare integers.
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
                pre=frozenset(pre),
                add=frozenset(add),
                delete=frozenset(delete),
            )
        )
        chains.append(tuple(ManifestLevel(t, CostInterval(*iv)) for t, iv in levels))
        max_fact = max([max_fact, *pre, *add, *delete])
    return PlanningTask(
        name=name,
        facts=tuple(f"f{i}" for i in range(max_fact + 1)),
        init=frozenset(init),
        goal=frozenset(goal),
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


def reference_hmax(state, task, lbs):
    """h_max by value iteration, independent of the search module's kernel.

    Repeats cost(f) = min over actions adding f of (max of cost(pre) + lb)
    from cost 0 on the state's facts until nothing changes, which reaches the
    least fixpoint; h is the max goal-fact cost, +inf if one is unreached.
    """
    cost = dict.fromkeys(state, 0.0)
    changed = True
    while changed:
        changed = False
        for action in task.actions:
            if not all(f in cost for f in action.pre):
                continue
            through = max((cost[f] for f in action.pre), default=0.0) + lbs[action.id]
            for f in action.add:
                if through < cost.get(f, INF):
                    cost[f] = through
                    changed = True
    return max((cost.get(f, INF) for f in task.goal), default=0.0)
