import itertools
import logging
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from costplan import search
from costplan.bench import gen_gridworld, synthetic_manifest_for
from costplan.errors import MissingTrueCostError, OracleBoundExceededError
from costplan.estimators import EstimatorRegistry, SyntheticConfig
from costplan.intervals import INF, TOLERANCE
from costplan.metrics import RunRecord, emit_report
from costplan.pddl import ground
from costplan.search import (
    SearchConfig,
    asec,
    astar_lb,
    astar_offline,
    hmax,
    make_heuristic,
    oracle_optimal,
    post_search_refine,
)
from costplan.task import CostTable

from helpers import acceptance_instance, make_task, reference_hmax, suite_instance


# ---------------------------------------------------------------------------
# hmax

def hmax_of(task, refinements=()):
    table = CostTable(task)
    for aid, iv in refinements:
        from costplan.intervals import CostInterval

        table.refine(aid, CostInterval(*iv))
    return hmax(task.init, task, table)


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
        table = registry.table
        dist = _lb_distances_to_goal(task, table)
        for state, remaining in dist.items():
            assert hmax(state, task, table) <= remaining + TOLERANCE


def _lb_distances_to_goal(task, table):
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
            if action.pre <= state:
                succ = (state - action.delete) | action.add
                g2 = g + table.lb(action.id)
                if g2 < seen.get(succ, INF) - TOLERANCE:
                    seen[succ] = g2
                    heapq.heappush(heap, (g2, next(counter), succ))
    return {state: _dijkstra_cost(task, table, state) for state in states}


def _dijkstra_cost(task, table, start):
    import heapq
    import itertools

    counter = itertools.count()
    best = {start: 0.0}
    heap = [(0.0, next(counter), start)]
    while heap:
        g, _, state = heapq.heappop(heap)
        if g > best.get(state, INF):
            continue
        if task.goal <= state:
            return g
        for action in task.actions:
            if action.pre <= state:
                succ = (state - action.delete) | action.add
                g2 = g + table.lb(action.id)
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
    table = registry.table
    evaluator = make_heuristic("hmax", task, table)
    computed = []
    evaluate = evaluator._evaluate
    evaluator._evaluate = lambda state: computed.append(state) or evaluate(state)
    touched = set()
    calls = 0

    def recording(state):
        touched.add(state)
        return evaluator(state)

    for _ in range(60):
        plan, _ = astar_lb(task, table, recording)
        for state in touched:
            calls += 1
            lbs = [table.lb(a) for a in range(task.n_actions)]
            assert evaluator(state) == hmax(state, task, table) == reference_hmax(state, task, lbs)
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
    shared = [asec(task, SearchConfig(epsilon=eps)) for task in tasks]
    monkeypatch.setattr(
        search, "make_heuristic", lambda name, task, table: lambda s: hmax(s, task, table)
    )
    for task, (cert, report) in zip(tasks, shared):
        fresh_cert, fresh_report = asec(task, SearchConfig(epsilon=eps))
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


@pytest.mark.parametrize(
    "build",
    [lambda i=i: acceptance_instance(i, seed=i) for i in range(6)]
    + [lambda: suite_instance(5, seed=3), _two_goal_task, _goal_outside_facts],
    ids=[*(f"acc{i}" for i in range(6)), "suite-logistics-2goal", "two-goal", "goal-outside-facts"],
)
def test_hmax_kernel_equals_value_iteration_reference(monkeypatch, build):
    """Exact floats on every state an asec episode's A* touches, as lbs rise."""
    task = build()
    lbs_seen = set()

    def checked(name, task, table):
        heuristic = make_heuristic(name, task, table)

        def check(state):
            lbs = tuple(table.lb(a) for a in range(task.n_actions))
            lbs_seen.add(lbs)
            h = heuristic(state)
            assert h == reference_hmax(state, task, lbs)
            return h

        return check

    monkeypatch.setattr(search, "make_heuristic", checked)
    cert, _ = asec(task, SearchConfig(epsilon=1.0))
    # lbs were raised between replans, unless the goal holds in init (acc0, acc3)
    assert len(lbs_seen) > 1 or (cert.plan == () and task.goal <= task.init)


# ---------------------------------------------------------------------------
# The per-task action indexes: A* proposes exactly the applicable actions,
# in the order of the full scan it replaced

INDEX_TASKS = [lambda i=i: acceptance_instance(i, seed=i) for i in range(6)] + [
    lambda: suite_instance(5, seed=3),  # logistics: load/unload have two preconditions
    _two_goal_task,  # "spawn" has no precondition
]


@pytest.mark.parametrize(
    "build", INDEX_TASKS, ids=[*(f"acc{i}" for i in range(6)), "suite-logistics-2goal", "two-goal"]
)
def test_action_indexes_propose_exactly_the_applicable_actions(monkeypatch, build):
    task = build()
    for fact in [None, *range(len(task.facts))]:
        holders = [a for a in task.actions if (fact in a.pre if fact is not None else not a.pre)]
        assert task.by_pre.get(fact, []) == holders
    assert task.by_pre is task.by_pre and task.by_first_pre is task.by_first_pre
    touched = set()

    def recording(name, task, table):
        heuristic = make_heuristic(name, task, table)
        return lambda state: touched.add(state) or heuristic(state)

    monkeypatch.setattr(search, "make_heuristic", recording)
    asec(task, SearchConfig(epsilon=1.0))
    assert task.init in touched
    for state in touched:
        proposed = [
            a for fact in itertools.chain((None,), state)
            for a in task.by_first_pre.get(fact, ()) if a.pre <= state
        ]
        scan = [a for a in task.actions if a.pre <= state]
        assert sorted(proposed, key=lambda a: a.id) == scan
        # precondition-free actions first, then by state fact, in id order
        order = [None, *state]
        assert proposed == sorted(
            scan, key=lambda a: (order.index(min(a.pre)) if a.pre else 0, a.id)
        )


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
            _, report = asec(task, SearchConfig(epsilon=eps))
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
    cert, report = asec(task, SearchConfig(epsilon=1.5))
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
    cert, _ = asec(task, SearchConfig(epsilon=1.0))
    assert cert.verdict == "certified"
    assert cert.lower == cert.upper == 2.0 == oracle_optimal(task)


def test_asec_incomplete_when_chain_exhausts():
    task = make_task(
        [("only", {0}, {1}, set(), [(1.0, (1.0, 2.0))])],
        goal={1},
    )
    cert, _ = asec(task, SearchConfig(epsilon=1.5))
    assert cert.verdict == "uncertified"
    assert cert.plan == (0,)
    assert (cert.lower, cert.upper) == (1.0, 2.0)


def test_asec_unreachable_goal():
    task = make_task([("a", {0}, {1}, set(), [])], goal={2})
    cert, report = asec(task, SearchConfig(epsilon=1.0))
    assert cert.verdict == "no-plan"
    assert cert.plan is None
    assert report.calls == ()


def test_asec_empty_plan_when_goal_in_init():
    task = make_task([("a", {0}, {1}, set(), [])], goal={0})
    cert, _ = asec(task, SearchConfig(epsilon=1.0))
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
    cert, report = asec(task, SearchConfig(epsilon=INF))
    assert cert.verdict == "certified"
    assert cert.plan == (1,)  # minimizes lb under the initial table
    assert report.calls == ()


def test_replans_logged_at_debug_without_changing_outputs(caplog, tmp_path):
    task = _grid_5x5(seed=4)
    outputs = []
    for level in (logging.WARNING, logging.DEBUG):
        caplog.set_level(level, logger="costplan.search")
        cert, report = asec(task, SearchConfig(epsilon=1.5))
        paths = emit_report([RunRecord.from_episode(cert, report, task)], tmp_path / str(level))
        outputs.append(tuple(Path(p).read_bytes() for p in paths))
        if level == logging.WARNING:
            assert not caplog.records
    assert outputs[0] == outputs[1]
    lines = [r.getMessage() for r in caplog.records if r.name == "costplan.search"]
    assert len(lines) == len(report.calls) + 1 > 1  # one line per replan
    assert lines[0].startswith("replan 1: plan length ") and " refine " in lines[0]
    assert lines[-1].endswith("; certified")


# ---------------------------------------------------------------------------
# Offline baseline

def test_offline_charges_all_final_levels(drive_task):
    cert, report = astar_offline(drive_task, SearchConfig(epsilon=1.0))
    assert report.t_modeling_ms == 200.0
    assert cert.verdict == "certified"
    assert cert.lower == cert.upper == 7.0
    assert report.a_actual == frozenset({0, 1})


def test_offline_unreachable_still_charges():
    task = make_task(
        [("a", {0}, {1}, set(), [(5.0, (1.0, 1.0))])],
        goal={2},
    )
    cert, report = astar_offline(task, SearchConfig(epsilon=1.0))
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
    cert, report = astar_offline(task, SearchConfig(epsilon=1.0))
    assert cert.verdict == "uncertified"
    assert (cert.lower, cert.upper) == (2.0, 3.0)
    assert len(searches) == 1
    assert [(e.action_id, e.level) for e in report.calls] == [(0, 2)]


def test_offline_equals_asec_with_single_exact_levels():
    for index in range(6):
        task = suite_instance(
            index, seed=5, config=SyntheticConfig(levels=1, width=0.0)
        )
        config = SearchConfig(epsilon=1.0)
        cert_dyn, _ = asec(task, config)
        cert_off, _ = astar_offline(task, config)
        assert cert_dyn.verdict == cert_off.verdict == "certified"
        assert cert_dyn.lower == pytest.approx(cert_off.lower)


# ---------------------------------------------------------------------------
# Post-search refinement

def refine_fixture():
    task = make_task(
        [("a", {0}, {1}, set(), [(1.0, (5.0, 10.0)), (10.0, (7.0, 7.0))])],
        goal={1},
    )
    registry = EstimatorRegistry(task)
    registry.invoke_next(0)  # table now [5,10]
    cert, _ = asec(task, SearchConfig(epsilon=3.0), registry)
    return task, registry, cert


def test_refine_budget_zero_is_noop():
    _, registry, cert = refine_fixture()
    assert post_search_refine(cert, registry, budget_ms=0.0) == cert


def test_refine_narrows_bound():
    _, registry, cert = refine_fixture()
    assert (cert.lower, cert.upper) == (5.0, 10.0)
    refined = post_search_refine(cert, registry, budget_ms=None)
    assert (refined.lower, refined.upper) == (7.0, 7.0)
    assert refined.plan == cert.plan


def test_refine_upgrades_verdict():
    # a certificate stuck at U/L = 8/5 = 1.6 > 1.5; one refinement reaches 7/5 = 1.4
    from costplan.search import PlanCertificate

    task = make_task(
        [("a", {0}, {1}, set(), [(1.0, (5.0, 7.0))])],
        goal={1},
        priors={0: (5.0, 8.0)},
    )
    registry = EstimatorRegistry(task)
    cert = PlanCertificate(plan=(0,), lower=5.0, upper=8.0, epsilon=1.5, verdict="uncertified")
    refined = post_search_refine(cert, registry, budget_ms=None)
    assert refined.verdict == "certified"
    assert (refined.lower, refined.upper) == (5.0, 7.0)


def test_refine_budget_limits_spend():
    task = make_task(
        [("a", {0}, {1}, set(), [(1.0, (5.0, 10.0)), (50.0, (7.0, 7.0))])],
        goal={1},
    )
    registry = EstimatorRegistry(task)
    cert, _ = asec(task, SearchConfig(epsilon=INF), registry)
    refined = post_search_refine(cert, registry, budget_ms=5.0)
    # level 1 (1 ms) fits; level 2 (50 ms) does not
    assert (refined.lower, refined.upper) == (5.0, 10.0)
    assert registry.total_charged_ms() == 1.0


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
    cert, _ = asec(task, SearchConfig(epsilon=eps))
    optimal = oracle_optimal(task)
    if cert.verdict == "certified" and cert.plan is not None:
        assert task.true_plan_cost(cert.plan) <= eps * optimal + TOLERANCE


@settings(max_examples=20, deadline=None)
@given(index=st.integers(0, 7), seed=st.integers(0, 500))
def test_asec_termination_bound(index, seed):
    task = suite_instance(index, seed)
    cert, report = asec(task, SearchConfig(epsilon=1.0))
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
        bound = registry.table.plan_interval(plan)
        if bound.lb > 0:
            ratios.append(bound.ub / bound.lb)
    assert all(b <= a + TOLERANCE for a, b in zip(ratios, ratios[1:]))
