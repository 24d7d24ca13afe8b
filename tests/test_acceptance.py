"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and the modeling-time ratio distribution.
"""

import itertools
import json
import math
import random

from costplan.bench import (
    EMPTY_MANIFEST,
    gen_gridworld,
    gen_logistics,
    synthetic_manifest_for,
)
from costplan.estimators import EstimatorRegistry, SyntheticConfig, generate_synthetic
from costplan.intervals import TOLERANCE
from costplan.manifest import parse_manifest
from costplan.metrics import MetricsReport, compare, t_offline_modeling
from costplan.pddl import (
    ActionSchema,
    Atom,
    DomainAst,
    PredicateSchema,
    ProblemAst,
    ground,
)
from costplan.remote import MockEstimatorServer, RemoteEstimatorClient
from costplan.search import SearchConfig, oracle_optimal, solve

from helpers import make_task

SUITE_CONFIG = SyntheticConfig(levels=3, exact_final=True)


def test_criterion_1_soundness(suite_runs):
    runs, elapsed = suite_runs
    violations = 0
    for task, eps, c_star, cert, _ in runs:
        if cert.plan is None:
            continue
        # the bound is the plan's true-cost interval, and its lower end bounds C*
        assert cert.lower <= c_star + 1e-9
        assert cert.lower - 1e-9 <= task.true_plan_cost(cert.plan) <= cert.upper + 1e-9
        if cert.verdict == "certified":
            assert cert.upper <= eps * cert.lower + 1e-9
            if task.true_plan_cost(cert.plan) > eps * c_star + 1e-9:
                violations += 1
    assert violations == 0
    assert elapsed < 300.0, f"suite took {elapsed:.1f}s, budget is 5 min"
    print(f"\nPASS criterion 1: soundness, {len(runs)} runs, 0 violations, {elapsed:.1f}s")


def test_criterion_2_exact_final_completeness(suite_runs):
    runs, _ = suite_runs
    solvable = [r for r in runs if not math.isinf(r[2])]
    certified = [r for r in solvable if r[3].verdict == "certified"]
    assert len(certified) == len(solvable)
    print(f"PASS criterion 2: exact-final completeness, "
          f"{len(certified)}/{len(solvable)} solvable runs certified")


def test_criterion_3_incompleteness_exhibit():
    task = make_task(
        [("only", {0}, {1}, set(), [(1.0, (1.0, 2.0))])],
        goal={1},
    )
    cert, _ = solve(task, SearchConfig(epsilon=1.5))
    assert cert.verdict == "uncertified"
    assert cert.plan == (0,)
    assert (cert.lower, cert.upper) == (1.0, 2.0)
    print("PASS criterion 3: incompleteness exhibit, uncertified with [1, 2]")


def test_criterion_4_epsilon_one_optimality(suite_runs):
    runs, _ = suite_runs
    checked = 0
    for task, eps, c_star, cert, _ in runs:
        if eps != 1.0 or cert.plan is None:
            continue
        assert cert.verdict == "certified"
        assert abs(task.true_plan_cost(cert.plan) - c_star) <= 1e-9
        checked += 1
    assert checked > 0
    print(f"PASS criterion 4: epsilon=1 optimality on {checked} instances")


def test_criterion_5_accounting_arithmetic():
    # 10^4 actions, each with a 100 ms final level (typical network latency)
    doc = {
        "actions": [
            {"action": f"a{i}", "estimators": [{"time_ms": 100.0, "interval": [1.0, 2.0]}]}
            for i in range(10**4)
        ]
    }
    manifest = parse_manifest(json.dumps(doc))
    assert t_offline_modeling(manifest) == 1.0e6

    dynamic = MetricsReport("t", "asec", 4, frozenset({0}), (), 11.0, 25.0)
    offline = MetricsReport("t", "offline", 4, frozenset(range(4)), (), 110.0, 20.0)
    comp = compare(dynamic, offline)
    assert comp.delta_modeling_ms == -99.0
    assert comp.delta_planning_ms == 5.0
    assert comp.dynamic_preferable
    print("PASS criterion 5: accounting arithmetic exact")


def test_criterion_6_modeling_time_savings():
    config = SyntheticConfig(levels=3, exact_final=True, cost_range=(5.0, 10.0))
    ratios = []
    for seed in range(10):
        domain, problem = gen_gridworld(10, 10, corner_to_corner=True)
        manifest = synthetic_manifest_for(domain, problem, seed, config)
        task = ground(domain, problem, manifest, name=f"g10-s{seed}")
        cert, report = solve(task, SearchConfig(epsilon=1.5))
        t_off = t_offline_modeling(manifest)
        assert len(report.a_actual) < report.n
        assert report.t_modeling_ms < t_off
        ratios.append(report.t_modeling_ms / t_off)
    ratios.sort()
    print(f"PASS criterion 6: |A_actual| < n and T_dyn < T_off in 10/10 runs; "
          f"T_dyn/T_off min={ratios[0]:.3f} median={ratios[5]:.3f} max={ratios[-1]:.3f}")


def test_criterion_7_offline_baseline_equivalence():
    config = SyntheticConfig(levels=1, width=0.0)  # single exact level per chain
    for index in range(30):
        task = _instance_with_config(index, config)
        c_star = oracle_optimal(task, state_bound=10**4)
        cert_dyn, _ = solve(task, SearchConfig(epsilon=1.0))
        cert_off, _ = solve(task, SearchConfig(epsilon=1.0, mode="offline"))
        cost_dyn = task.true_plan_cost(cert_dyn.plan)
        cost_off = task.true_plan_cost(cert_off.plan)
        assert abs(cost_dyn - c_star) <= 1e-9
        assert abs(cost_off - c_star) <= 1e-9
    print("PASS criterion 7: asec == offline == optimal on 30 exact-chain instances")


def _instance_with_config(index, config):
    rng = random.Random(f"acc7-{index}")
    if index % 2 == 0:
        domain, problem = gen_gridworld(rng.randint(3, 5), rng.randint(3, 5), seed=index)
    else:
        domain, problem = gen_logistics(1, rng.randint(2, 3), 1, seed=index)
    manifest = synthetic_manifest_for(domain, problem, index, config)
    return ground(domain, problem, manifest, name=f"acc7-{index}")


def test_criterion_8_estimator_invariants():
    checked = 0
    domain, problem = gen_gridworld(5, 5, corner_to_corner=True)  # 80 chains each
    skeleton = ground(domain, problem, EMPTY_MANIFEST)
    rng = random.Random(8)
    while checked < 10**4:
        config = SyntheticConfig(
            levels=rng.randint(1, 4),
            time_scale=rng.uniform(1.0, 3.0),
            width=rng.uniform(0.0, 10.0),
            decay=rng.uniform(0.2, 1.0),
            exact_final=rng.random() < 0.5,
        )
        manifest = generate_synthetic(skeleton, rng.randrange(2**32), config)
        for entry in manifest.entries:
            times = [lvl.time_ms for lvl in entry.levels]
            assert times == sorted(times)
            prev = None
            for lvl in entry.levels:
                assert lvl.interval.contains(entry.true_cost)
                if prev is not None:
                    assert prev.contains_interval(lvl.interval)
                prev = lvl.interval
            checked += 1
    # memoized single-charging
    task = ground(domain, problem, generate_synthetic(skeleton, 0, SyntheticConfig()))
    registry = EstimatorRegistry(task)
    first = registry.invoke_next(0)
    registry.invoke_final(0)
    registry.invoke_final(0)
    assert [(e.action_id, e.level) for e in registry.ledger] == [(0, 1), (0, 3)]
    print(f"PASS criterion 8: invariants on {checked} chains + memoized charging")


def test_criterion_9_remote_matches_local():
    for index in range(20):
        rng = random.Random(f"acc9-{index}")
        domain, problem = gen_gridworld(rng.randint(3, 4), rng.randint(3, 4), seed=index)
        manifest = synthetic_manifest_for(domain, problem, index, SUITE_CONFIG)
        task = ground(domain, problem, manifest, name=f"acc9-{index}")
        local_cert, _ = solve(task, SearchConfig(epsilon=1.2))
        server = MockEstimatorServer(manifest)
        server.start_background()
        try:
            with RemoteEstimatorClient("127.0.0.1", server.port) as client:
                remote_cert, _ = solve(
                    task, SearchConfig(epsilon=1.2), EstimatorRegistry(task, remote=client)
                )
        finally:
            server.shutdown()
            server.server_close()
        assert remote_cert == local_cert
    print("PASS criterion 9: remote certificates identical to local on 20 instances")


def test_criterion_10_grounding_oracle():
    rng = random.Random(10)
    for trial in range(50):
        n_types = rng.randint(1, 3)
        types = tuple((f"t{i}", "object") for i in range(n_types))
        objects = tuple(
            (f"o{i}", f"t{rng.randrange(n_types)}") for i in range(rng.randint(0, 6))
        )
        pred = PredicateSchema("p", (("?v", "object"),))
        schemas = []
        for s in range(rng.randint(1, 3)):
            n_params = rng.randint(0, 3)
            params = tuple((f"?x{j}", f"t{rng.randrange(n_types)}") for j in range(n_params))
            vars_ = tuple(v for v, _ in params)
            pick = lambda: (rng.choice(vars_),) if vars_ else ()
            schemas.append(ActionSchema(
                name=f"act{s}", params=params,
                pre=(Atom("p", pick()),),
                add=(Atom("p", pick()),),
                delete=(Atom("p", pick()),) if rng.random() < 0.5 else (),
            ))
        domain = DomainAst("g", (":strips", ":typing"), types, (pred,), tuple(schemas))
        problem = ProblemAst("p0", "g", objects, (), ())
        task = ground(domain, problem, EMPTY_MANIFEST)

        pools = {}
        for obj, typ in objects:
            pools.setdefault(typ, []).append(obj)
        expected = 0
        for schema in schemas:
            for combo in itertools.product(*[pools.get(t, []) for _, t in schema.params]):
                binding = {v: o for (v, _), o in zip(schema.params, combo)}
                add = {a.ground(binding) for a in schema.add}
                dele = {a.ground(binding) for a in schema.delete}
                if add & dele:
                    continue
                expected += 1
        assert task.n_actions == expected
    print("PASS criterion 10: grounding counts match enumeration on 50 configurations")
