import itertools
import json
import logging
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from costplan import search
from costplan.bench import gen_gridworld, gen_logistics, synthetic_manifest_for
from costplan.errors import (
    EstimatorUnavailableError,
    MissingTrueCostError,
    OracleBoundExceededError,
)
from costplan.estimators import EstimatorRegistry, SyntheticConfig
from costplan.intervals import INF, TOLERANCE, CostInterval
from costplan.manifest import manifest_to_json, parse_manifest
from costplan.metrics import RunRecord, emit_report
from costplan.pddl import ground
from costplan.search import (
    SearchConfig,
    astar_lb,
    make_heuristic,
    oracle_optimal,
    solve,
)
from costplan.task import mask_of

from conftest import ACCEPTANCE_INSTANCES

from helpers import (
    acceptance_instance,
    decode,
    hmax,
    is_goal,
    make_task,
    reference_astar_lb,
    reference_hmax,
    suite_instance,
)


# ---------------------------------------------------------------------------
# hmax

def hmax_of(task, refinements=()):
    registry = EstimatorRegistry(task)
    for aid, iv in refinements:
        registry.refine(aid, CostInterval(*iv))
    return hmax(task.init, task, registry)


def test_hmax_zero_at_goal():
    task = make_task([("a", {0}, {1}, set(), [])], goal={0})
    assert hmax_of(task) == 0.0


def test_hmax_single_step():
    task = make_task([("a", {0}, {1}, set(), [])], goal={1})
    assert hmax_of(task, [(0, (3.0, 3.0))]) == 3.0


def test_hmax_chain_fixpoint():
    task = make_task(
        [
            ("a", {0}, {1}, set(), []),
            ("b", {1}, {2}, set(), []),
            ("c", {2}, {3}, set(), []),
        ],
        goal={3},
    )
    refinements = [(0, (1.0, 1.0)), (1, (2.0, 2.0)), (2, (4.0, 4.0))]
    assert hmax_of(task, refinements) == 7.0


def test_hmax_infinite_when_unreachable():
    task = make_task([("a", {0}, {1}, set(), [])], goal={2})
    assert math.isinf(hmax_of(task))


def test_hmax_counts_goal_facts_already_in_state():
    # goal fact 1 already holds; h is the cost of reaching fact 2
    task = make_task([("a", {0}, {2}, set(), [])], goal={1, 2}, init={0, 1})
    assert hmax_of(task, [(0, (5.0, 5.0))]) == 5.0


def test_hmax_admissible_vs_exhaustive():
    # every reachable state: hmax <= cheapest remaining lb-cost (oracle: Dijkstra)
    for index in range(4):
        task = suite_instance(index, seed=11)
        registry = EstimatorRegistry(task)
        for action in task.actions:  # pin lb = exact final
            registry.invoke_final(action.id)
        dist = _lb_distances_to_goal(task, registry)
        for state, remaining in dist.items():
            assert hmax(state, task, registry) <= remaining + TOLERANCE


def _lb_distances_to_goal(task, registry):
    """Forward Dijkstra from init, then optimal remaining cost per state."""
    import heapq
    import itertools

    counter = itertools.count()
    seen = {task.init: 0.0}
    heap = [(0.0, next(counter), task.init)]
    states = set()
    while heap:
        g, _, state = heapq.heappop(heap)
        if g > seen.get(state, INF):
            continue
        states.add(state)
        for action in task.actions:
            if state & action.pre == action.pre:
                succ = state & ~action.delete | action.add
                g2 = g + registry.lbs[action.id]
                if g2 < seen.get(succ, INF) - TOLERANCE:
                    seen[succ] = g2
                    heapq.heappush(heap, (g2, next(counter), succ))
    return {state: _dijkstra_cost(task, registry, state) for state in states}


def _dijkstra_cost(task, registry, start):
    import heapq
    import itertools

    counter = itertools.count()
    best = {start: 0.0}
    heap = [(0.0, next(counter), start)]
    while heap:
        g, _, state = heapq.heappop(heap)
        if g > best.get(state, INF):
            continue
        if state & task.goal == task.goal:
            return g
        for action in task.actions:
            if state & action.pre == action.pre:
                succ = state & ~action.delete | action.add
                g2 = g + registry.lbs[action.id]
                if g2 < best.get(succ, INF) - TOLERANCE:
                    best[succ] = g2
                    heapq.heappush(heap, (g2, next(counter), succ))
    return INF


# ---------------------------------------------------------------------------
# h_max reuse across refinements: the episode's evaluator keeps cached values
# only where a fresh computation would return the very same float

def _nested_chain(step):
    """Three nested levels whose lbs rise by ``step`` per level."""
    return [(1.0, (step, 9.0)), (2.0, (2 * step, 7.0)), (4.0, (3 * step, 3 * step))]


def _two_goal_task():
    # "spawn" has no preconditions; "join" needs facts from two supporters
    return make_task(
        [
            ("spawn", set(), {1}, set(), _nested_chain(1.0)),
            ("a", {0}, {2}, set(), _nested_chain(0.5)),
            ("b", {1}, {3}, set(), _nested_chain(2.0)),
            ("c", {2}, {3}, set(), _nested_chain(1.5)),
            ("join", {1, 2}, {4}, set(), _nested_chain(0.25)),
            ("d", {0}, {4}, set(), _nested_chain(2.0)),
        ],
        goal={3, 4},
        name="two-goal",
    )


def _grid_5x5(seed):
    domain, problem = gen_gridworld(5, 5, seed=seed)
    manifest = synthetic_manifest_for(domain, problem, seed, SyntheticConfig())
    return ground(domain, problem, manifest, name=f"grid5-s{seed}")


@pytest.mark.parametrize(
    "build",
    [
        lambda: suite_instance(0, seed=3),  # gridworld
        lambda: suite_instance(1, seed=3),  # logistics, one package
        lambda: suite_instance(5, seed=3),  # logistics, two goal facts
        lambda: _grid_5x5(seed=4),
        _two_goal_task,
    ],
    ids=["suite-grid", "suite-logistics", "suite-logistics-2goal", "grid5x5", "two-goal"],
)
def test_persistent_hmax_equals_fresh_after_each_refinement(build):
    task = build()
    rng = random.Random(task.name)
    registry = EstimatorRegistry(task)
    evaluator = make_heuristic("hmax", task, registry)
    computed = []
    evaluate = evaluator._evaluate
    evaluator._evaluate = lambda state: computed.append(state) or evaluate(state)
    touched = set()
    calls = 0

    def recording(state):
        touched.add(state)
        return evaluator(state)

    for _ in range(60):
        plan, _ = astar_lb(task, registry, recording)
        for state in touched:
            calls += 1
            lbs = list(registry.lbs)
            view = decode(state)
            assert evaluator(state) == hmax(state, task, registry) == reference_hmax(view, task, lbs)
        # half the refinements hit the current plan, as asec's do
        pool = list(plan or ()) if rng.random() < 0.5 else range(task.n_actions)
        refinable = [a for a in pool if registry.refinable(a)] or [
            a for a in range(task.n_actions) if registry.refinable(a)
        ]
        if not refinable:
            break
        registry.invoke_next(rng.choice(refinable))
    assert len(computed) < calls  # values really were reused


@pytest.mark.parametrize("eps", [1.0, 1.5])
def test_asec_shared_hmax_matches_fresh_per_replan(monkeypatch, eps):
    tasks = [acceptance_instance(i, seed=i) for i in range(6)] + [_grid_5x5(seed=2)]
    shared = [solve(task, SearchConfig(epsilon=eps)) for task in tasks]
    monkeypatch.setattr(
        search, "make_heuristic", lambda name, task, registry: lambda s: hmax(s, task, registry)
    )
    for task, (cert, report) in zip(tasks, shared):
        fresh_cert, fresh_report = solve(task, SearchConfig(epsilon=eps))
        # plan, [lb, ub] and verdict; the report holds the ledger and, in
        # simulated mode, the expansion count as t_planning_ms
        assert cert == fresh_cert
        assert report == fresh_report


def _goal_outside_facts():
    # fact 9 is in init and goal but in no action, so make_task leaves it out of facts
    return make_task(
        [
            ("a", {0}, {1}, set(), _nested_chain(1.0)),
            ("b", {1}, {2}, set(), _nested_chain(0.5)),
            ("c", {0}, {2}, set(), _nested_chain(2.0)),
        ],
        goal={2, 9},
        init={0, 9},
        name="goal-outside-facts",
    )


# Tasks for each branch of h_max's zero pass. An action with prior [0, 0]
# keeps lb 0 for the whole episode, so the plateau outlives refinement.
ZERO = (0.0, 0.0)


def _zero_multi_task():
    # "join"'s two preconditions both settle at 0 through lb-0 actions
    return make_task(
        [
            ("a", {0}, {1}, set(), []),
            ("b", {0}, {2}, set(), []),
            ("join", {1, 2}, {3}, set(), _nested_chain(1.0)),
            ("c", {0}, {3}, set(), _nested_chain(2.0)),
        ],
        goal={3},
        priors={0: ZERO, 1: ZERO},
        name="zero-multi",
    )


def _zero_free_goal_task():
    # "spawn" has no precondition, keeps lb 0 and adds the goal fact itself;
    # "drop" has none either, and its lb rises once it is refined
    return make_task(
        [
            ("spawn", set(), {2}, set(), []),
            ("a", {0}, {1}, set(), _nested_chain(1.0)),
            ("b", {1}, {3}, set(), _nested_chain(0.5)),
            ("drop", set(), {3}, set(), _nested_chain(1.5)),
        ],
        goal={2, 3},
        priors={0: ZERO},
        name="zero-free-goal",
    )


def _goal_in_state_and_past_plateau_task():
    # goal fact 5 holds in init; goal fact 3 lies past the plateau {0, 1, 2},
    # reached only through "far", whose lb is positive from the start
    return make_task(
        [
            ("a", {0}, {1}, set(), []),
            ("b", {1}, {2}, set(), []),
            ("far", {2}, {3}, set(), _nested_chain(1.0)),
            ("short", {0}, {4}, set(), _nested_chain(0.5)),
            ("c", {4}, {3}, set(), _nested_chain(2.0)),
        ],
        goal={3, 5},
        init={0, 5},
        priors={0: ZERO, 1: ZERO, 2: (0.5, 9.0)},
        name="goal-in-state",
    )


def _negative_zero_lbs_task():
    # a 4x4 grid whose manifest's default prior is [-0.0, null] and keeps
    # chains only for the moves into the goal cell: every other move keeps
    # lb -0.0, so the plateau is the grid and the goal lies past it
    domain, problem = gen_gridworld(4, 4, seed=5)
    (goal,) = problem.goal
    into_goal = goal.predicate.removeprefix("at")  # "-r-c"; moves are named move-r-c-r-c
    doc = json.loads(manifest_to_json(synthetic_manifest_for(domain, problem, 5, SyntheticConfig())))
    doc["default"]["prior"] = [-0.0, None]
    doc["actions"] = [entry for entry in doc["actions"] if entry["action"].endswith(into_goal)]
    task = ground(domain, problem, parse_manifest(json.dumps(doc)), name="negative-zero")
    assert any(math.copysign(1.0, prior.lb) < 0 for prior in task.priors)
    return task


def _cold_logistics_task():
    # logistics 1t3c2p: the first replan runs with every lb at its prior 0
    domain, problem = gen_logistics(trucks=1, cities=3, packages=2, seed=2)
    manifest = synthetic_manifest_for(domain, problem, 2, SyntheticConfig(levels=2))
    return ground(domain, problem, manifest, name="logistics-1t3c2p")


@pytest.mark.parametrize(
    "build",
    [lambda i=i: acceptance_instance(i, seed=i) for i in range(6)]
    + [lambda: suite_instance(5, seed=3), _two_goal_task, _goal_outside_facts]
    + [_zero_multi_task, _zero_free_goal_task, _goal_in_state_and_past_plateau_task,
       _negative_zero_lbs_task, _cold_logistics_task],
    ids=[*(f"acc{i}" for i in range(6)), "suite-logistics-2goal", "two-goal", "goal-outside-facts",
         "zero-multi", "zero-free-goal", "goal-in-state", "negative-zero", "cold-logistics"],
)
def test_hmax_kernel_equals_value_iteration_reference(monkeypatch, build):
    """Exact floats on every state an asec episode's A* touches, as lbs rise."""
    task = build()
    lbs_seen = set()

    def checked(name, task, registry):
        heuristic = make_heuristic(name, task, registry)

        def check(state):
            lbs = tuple(registry.lbs)
            lbs_seen.add(lbs)
            h = heuristic(state)
            assert h == reference_hmax(decode(state), task, lbs)
            return h

        return check

    monkeypatch.setattr(search, "make_heuristic", checked)
    cert, _ = solve(task, SearchConfig(epsilon=1.0))
    # lbs were raised between replans, unless the goal holds in init (acc0, acc3)
    assert len(lbs_seen) > 1 or (cert.plan == () and is_goal(task.init, task))


# ---------------------------------------------------------------------------
# The task's action index: A* proposes exactly the applicable actions, in
# ascending fact order, and int successors equal STRIPS on the frozenset view

INDEX_TASKS = [lambda i=i: acceptance_instance(i, seed=i) for i in range(6)] + [
    lambda: suite_instance(5, seed=3),  # logistics: load/unload have two preconditions
    _two_goal_task,  # "spawn" has no precondition
    _goal_outside_facts,  # init and goal hold a fact beyond task.facts
]


@pytest.mark.parametrize(
    "build", INDEX_TASKS,
    ids=[*(f"acc{i}" for i in range(6)), "suite-logistics-2goal", "two-goal", "goal-outside-facts"],
)
def test_action_indexes_propose_exactly_the_applicable_actions(monkeypatch, build):
    task = build()
    groups = task.groups
    assert task.groups is groups
    # group 0: no precondition; group f + 1: lowest precondition f; each in id order
    rows = [row for group in groups for row in group]
    assert sorted(row[0] for row in rows) == list(range(task.n_actions))
    for index, group in enumerate(groups):
        assert [row[0] for row in group] == sorted(row[0] for row in group)
        for action_id, pre, keep, add in group:
            action = task.actions[action_id]
            assert index == min(decode(action.pre), default=-1) + 1
            assert (pre, keep, add) == (action.pre, ~action.delete, action.add)
    touched = set()

    def recording(name, task, registry):
        heuristic = make_heuristic(name, task, registry)
        return lambda state: touched.add(state) or heuristic(state)

    monkeypatch.setattr(search, "make_heuristic", recording)
    solve(task, SearchConfig(epsilon=1.0))
    assert task.init in touched
    for state in touched:
        view = decode(state)
        proposed = [
            row for index in [0, *(f + 1 for f in sorted(view))]
            for row in groups[index] if state & row[1] == row[1]
        ]
        scan = [a for a in task.actions if decode(a.pre) <= view]
        assert sorted(row[0] for row in proposed) == [a.id for a in scan]
        # precondition-free actions first, then by ascending state fact, in id order
        assert [row[0] for row in proposed] == [
            a.id for a in sorted(scan, key=lambda a: (min(decode(a.pre), default=-1) + 1, a.id))
        ]
        for action_id, _, keep, add in proposed:
            action = task.actions[action_id]
            assert decode(state & keep | add) == view - decode(action.delete) | decode(action.add)


@pytest.mark.parametrize("heuristic", ["blind", "hmax"])
def test_astar_matches_frozenset_reference_on_acceptance_instances(heuristic):
    """Same lb plan cost on all 200 instances as lbs rise from the priors to
    the final levels; the same plan and expansions on every grid, whose
    states hold one fact, so successor order cannot differ."""
    compared = 0
    for index in range(ACCEPTANCE_INSTANCES):
        task = acceptance_instance(index, seed=index)
        registry = EstimatorRegistry(task)
        for invoke in (None, registry.invoke_next, registry.invoke_final):
            for action_id in range(task.n_actions if invoke else 0):
                if registry.refinable(action_id):
                    invoke(action_id)
            h = make_heuristic(heuristic, task, registry)
            plan, expansions = astar_lb(task, registry, h)
            ref_plan, ref_expansions = reference_astar_lb(task, registry, lambda s: h(mask_of(s)))
            assert (plan is None) == (ref_plan is None)
            if plan is not None:
                cost = registry.plan_interval(plan).lb
                assert cost == pytest.approx(registry.plan_interval(ref_plan).lb, abs=TOLERANCE)
            if index % 2 == 0:  # acceptance_instance's gridworlds
                assert (plan, expansions) == (ref_plan, ref_expansions)
            compared += 1
    assert compared == 3 * ACCEPTANCE_INSTANCES


def test_asec_replans_once_per_estimator_call(monkeypatch):
    # every successful call is followed by one replan, and the last replan
    # gives the verdict; the heuristic is made once per episode
    counts = {"astar_lb": 0, "make_heuristic": 0}
    for name in counts:
        original = getattr(search, name)

        def counted(*args, name=name, original=original):
            counts[name] += 1
            return original(*args)

        monkeypatch.setattr(search, name, counted)
    calls = 0
    for index in range(6):
        task = acceptance_instance(index, seed=index)
        for eps in (1.0, 1.5):
            counts.update(astar_lb=0, make_heuristic=0)
            _, report = solve(task, SearchConfig(epsilon=eps))
            assert counts == {"astar_lb": len(report.calls) + 1, "make_heuristic": 1}
            calls += len(report.calls)
    assert calls > 50


# ---------------------------------------------------------------------------
# ASEC behaviour on hand-built tasks

def test_asec_refines_only_promising_action():
    # A: prior unknown, refinable [1,10] -> [2,2] (true 2); B: exact prior [3,3].
    task = make_task(
        [
            ("A", {0}, {1}, {0}, [(1.0, (1.0, 10.0)), (10.0, (2.0, 2.0))]),
            ("B", {0}, {1}, {0}, []),
        ],
        goal={1},
        priors={1: (3.0, 3.0)},
        true_costs={0: 2.0, 1: 3.0},
    )
    cert, report = solve(task, SearchConfig(epsilon=1.5))
    assert cert.verdict == "certified"
    assert cert.plan == (0,)
    assert cert.lower == cert.upper == 2.0
    assert [(c.action_id, c.level) for c in report.calls] == [(0, 1), (0, 2)]
    assert cert.upper <= 1.5 * oracle_optimal(task) + TOLERANCE


def test_asec_exact_chains_epsilon_one_optimal():
    task = make_task(
        [
            ("A", {0}, {1}, {0}, [(1.0, (2.0, 2.0))]),
            ("B", {0}, {1}, {0}, [(1.0, (3.0, 3.0))]),
        ],
        goal={1},
        true_costs={0: 2.0, 1: 3.0},
    )
    cert, _ = solve(task, SearchConfig(epsilon=1.0))
    assert cert.verdict == "certified"
    assert cert.lower == cert.upper == 2.0 == oracle_optimal(task)


def test_asec_incomplete_when_chain_exhausts():
    task = make_task(
        [("only", {0}, {1}, set(), [(1.0, (1.0, 2.0))])],
        goal={1},
    )
    cert, _ = solve(task, SearchConfig(epsilon=1.5))
    assert cert.verdict == "uncertified"
    assert cert.plan == (0,)
    assert (cert.lower, cert.upper) == (1.0, 2.0)


def test_asec_unreachable_goal():
    task = make_task([("a", {0}, {1}, set(), [])], goal={2})
    cert, report = solve(task, SearchConfig(epsilon=1.0))
    assert cert.verdict == "no-plan"
    assert cert.plan is None
    assert report.calls == ()


def test_asec_empty_plan_when_goal_in_init():
    task = make_task([("a", {0}, {1}, set(), [])], goal={0})
    cert, _ = solve(task, SearchConfig(epsilon=1.0))
    assert cert.verdict == "certified"
    assert cert.plan == ()
    assert cert.lower == cert.upper == 0.0


def test_asec_epsilon_infinity_returns_lb_optimal():
    task = make_task(
        [
            ("A", {0}, {1}, {0}, []),
            ("B", {0}, {1}, {0}, []),
        ],
        goal={1},
        priors={0: (4.0, 9.0), 1: (2.0, 20.0)},
    )
    cert, report = solve(task, SearchConfig(epsilon=INF))
    assert cert.verdict == "certified"
    assert cert.plan == (1,)  # minimizes lb under the initial priors
    assert report.calls == ()


def test_replans_logged_at_debug_without_changing_outputs(caplog, tmp_path):
    task = _grid_5x5(seed=4)
    outputs = []
    for level in (logging.WARNING, logging.DEBUG):
        caplog.set_level(level, logger="costplan.search")
        cert, report = solve(task, SearchConfig(epsilon=1.5))
        paths = emit_report([RunRecord.from_episode(cert, report, task)], tmp_path / str(level))
        outputs.append(tuple(Path(p).read_bytes() for p in paths))
        if level == logging.WARNING:
            assert not caplog.records
    assert outputs[0] == outputs[1]
    lines = [r.getMessage() for r in caplog.records if r.name == "costplan.search"]
    assert len(lines) == len(report.calls) + 1 > 1  # one line per replan
    assert lines[0].startswith("replan 1: plan length ") and " refine " in lines[0]
    assert lines[-1].endswith("; certified")


def test_episode_debug_transcript_pinned(caplog, drive_task):
    # refines twice, then certifies
    caplog.set_level(logging.DEBUG, logger="costplan.search")
    solve(drive_task, SearchConfig(epsilon=1.0))
    assert [r.getMessage() for r in caplog.records if r.name == "costplan.search"] == [
        "replan 1: plan length 1, cost [0.0, inf], ub/lb inf, 1 expansions; "
        "refine drive a b level 1",
        "replan 2: plan length 1, cost [5.0, 10.0], ub/lb 2.0, 1 expansions; "
        "refine drive a b level 2",
        "replan 3: plan length 1, cost [7.0, 7.0], ub/lb 1.0, 1 expansions; certified",
    ]


def test_certificate_lower_bounds_c_star():
    # P looks cheaper (lb 10) but costs 14; Q costs 10.5, so C* = 10.5
    task = make_task(
        [
            ("P", {0}, {1}, {0}, [(1.0, (14.0, 14.0))]),
            ("Q", {0}, {1}, {0}, []),
        ],
        goal={1},
        priors={0: (10.0, 14.0), 1: (10.5, 10.5)},
        true_costs={0: 14.0, 1: 10.5},
    )
    cert, report = solve(task, SearchConfig(epsilon=1.5))
    assert (cert.plan, cert.lower, cert.upper, cert.verdict) == ((0,), 10.0, 14.0, "certified")
    assert cert.lower <= oracle_optimal(task) == 10.5
    assert report.calls == ()


# ---------------------------------------------------------------------------
# Offline baseline

def test_offline_charges_all_final_levels(drive_task):
    cert, report = solve(drive_task, SearchConfig(epsilon=1.0, mode="offline"))
    assert report.t_modeling_ms == 200.0
    assert cert.verdict == "certified"
    assert cert.lower == cert.upper == 7.0
    assert report.a_actual == frozenset({0, 1})


def test_offline_unreachable_still_charges():
    task = make_task(
        [("a", {0}, {1}, set(), [(5.0, (1.0, 1.0))])],
        goal={2},
    )
    cert, report = solve(task, SearchConfig(epsilon=1.0, mode="offline"))
    assert cert.verdict == "no-plan"
    assert report.t_modeling_ms == 5.0


def test_offline_searches_once_and_never_refines(monkeypatch):
    # inexact final levels leave the plan uncertified at epsilon 1
    task = make_task(
        [("a", {0}, {1}, set(), [(1.0, (1.0, 4.0)), (2.0, (2.0, 3.0))])],
        goal={1},
    )
    searches = []

    def counted(*args):
        searches.append(args)
        return astar_lb(*args)

    monkeypatch.setattr(search, "astar_lb", counted)
    cert, report = solve(task, SearchConfig(epsilon=1.0, mode="offline"))
    assert cert.verdict == "uncertified"
    assert (cert.lower, cert.upper) == (2.0, 3.0)
    assert len(searches) == 1
    assert [(e.action_id, e.level) for e in report.calls] == [(0, 2)]


def test_offline_a_actual_counts_only_estimated_actions():
    class DownForB:  # a remote estimator whose chain for "b" is unavailable
        def estimate(self, name, level):
            if name == "b":
                raise EstimatorUnavailableError("b is down")
            return CostInterval(3.0, 3.0), 5.0

    task = make_task(
        [("a", {0}, {1}, set(), [(5.0, (3.0, 3.0))]),
         ("b", {1}, {2}, set(), [(5.0, (2.0, 2.0))]),
         ("c", {2}, {3}, set(), [])],  # prior-only
        goal={3},
    )
    registry = EstimatorRegistry(task, remote=DownForB())
    cert, report = solve(task, SearchConfig(epsilon=1.0, mode="offline"), registry)
    assert (cert.plan, cert.verdict) == ((0, 1, 2), "uncertified")
    assert [(e.action_id, e.level) for e in report.calls] == [(0, 1)]
    assert (report.a_actual, report.n, report.t_avg_ms) == (frozenset({0}), 3, 5.0)


def test_offline_equals_asec_with_single_exact_levels():
    for index in range(6):
        task = suite_instance(
            index, seed=5, config=SyntheticConfig(levels=1, width=0.0)
        )
        cert_dyn, _ = solve(task, SearchConfig(epsilon=1.0))
        cert_off, _ = solve(task, SearchConfig(epsilon=1.0, mode="offline"))
        assert cert_dyn.verdict == cert_off.verdict == "certified"
        assert cert_dyn.lower == pytest.approx(cert_off.lower)


# ---------------------------------------------------------------------------
# Oracle

def test_oracle_on_drive(drive_task):
    assert oracle_optimal(drive_task) == 7.0


def test_oracle_empty_plan():
    task = make_task([("a", {0}, {1}, set(), [])], goal={0}, true_costs={0: 1.0})
    assert oracle_optimal(task) == 0.0


def test_oracle_unreachable():
    task = make_task([("a", {0}, {1}, set(), [])], goal={2}, true_costs={0: 1.0})
    assert math.isinf(oracle_optimal(task))


def test_oracle_requires_true_costs():
    task = make_task([("a", {0}, {1}, set(), [])], goal={1})
    with pytest.raises(MissingTrueCostError):
        oracle_optimal(task)


def test_oracle_state_bound():
    from costplan.bench import gen_gridworld, synthetic_manifest_for
    from costplan.pddl import ground

    domain, problem = gen_gridworld(3, 3, corner_to_corner=True)
    manifest = synthetic_manifest_for(domain, problem, 2, SyntheticConfig())
    task = ground(domain, problem, manifest)
    with pytest.raises(OracleBoundExceededError):
        oracle_optimal(task, state_bound=1)


# ---------------------------------------------------------------------------
# Properties on randomized suites

@settings(max_examples=25, deadline=None)
@given(index=st.integers(0, 7), seed=st.integers(0, 500), eps=st.sampled_from([1.0, 1.2, 2.0]))
def test_asec_soundness_random(index, seed, eps):
    task = suite_instance(index, seed)
    cert, _ = solve(task, SearchConfig(epsilon=eps))
    optimal = oracle_optimal(task)
    if cert.verdict == "certified" and cert.plan is not None:
        assert task.true_plan_cost(cert.plan) <= eps * optimal + TOLERANCE


@settings(max_examples=20, deadline=None)
@given(index=st.integers(0, 7), seed=st.integers(0, 500))
def test_asec_termination_bound(index, seed):
    task = suite_instance(index, seed)
    cert, report = solve(task, SearchConfig(epsilon=1.0))
    total_levels = sum(map(len, task.chains))
    assert len(report.calls) <= total_levels


def test_asec_ratio_monotone_per_refinement():
    # refining actions on a fixed plan never increases U/L
    task = make_task(
        [
            ("a", {0}, {1}, set(), [(1.0, (2.0, 6.0)), (2.0, (3.0, 4.0))]),
            ("b", {1}, {2}, set(), [(1.0, (1.0, 5.0)), (2.0, (2.0, 2.0))]),
        ],
        goal={2},
    )
    registry = EstimatorRegistry(task)
    plan = (0, 1)
    ratios = []
    for aid in (0, 1, 0, 1):
        registry.invoke_next(aid)
        bound = registry.plan_interval(plan)
        if bound.lb > 0:
            ratios.append(bound.ub / bound.lb)
    assert all(b <= a + TOLERANCE for a, b in zip(ratios, ratios[1:]))
