import csv
import json
import math
from pathlib import Path

import pytest

from costplan.errors import TaskMismatchError
from costplan.estimators import LedgerEntry
from costplan.manifest import parse_manifest
from costplan.metrics import (
    CSV_COLUMNS,
    Comparison,
    MetricsReport,
    RunRecord,
    compare,
    emit_report,
    t_offline_modeling,
)
from costplan.search import SearchConfig, solve

from helpers import make_task


def report(mode, t_mod, t_plan, instance="task", n=10, a_actual=frozenset({0})):
    return MetricsReport(
        instance=instance,
        mode=mode,
        n=n,
        a_actual=a_actual,
        calls=tuple(LedgerEntry(a, 1, t_mod / max(1, len(a_actual))) for a in a_actual),
        t_modeling_ms=t_mod,
        t_planning_ms=t_plan,
    )


def manifest_with_final_times(times):
    doc = {
        "default": {"prior": [0.0, None]},
        "actions": [
            {"action": f"a{i}", "estimators": [{"time_ms": t, "interval": [1.0, 2.0]}]}
            for i, t in enumerate(times)
        ],
    }
    return parse_manifest(json.dumps(doc))


def test_t_offline_sums_final_times():
    assert t_offline_modeling(manifest_with_final_times([100.0, 100.0, 50.0])) == 250.0


def test_t_offline_typical_network_latency_at_scale():
    # 10^4 actions at 100 ms each: a million milliseconds of offline modeling
    manifest = manifest_with_final_times([100.0] * 10**4)
    assert t_offline_modeling(manifest) == 1.0e6


def test_t_offline_prior_only_chains_contribute_zero():
    manifest = parse_manifest('{"actions": [{"action": "a0", "estimators": []}]}')
    assert t_offline_modeling(manifest) == 0.0


def test_compare_preferable():
    result = compare(report("asec", 11.0, 25.0), report("offline", 110.0, 20.0))
    assert result.delta_modeling_ms == pytest.approx(-99.0)
    assert result.delta_planning_ms == pytest.approx(5.0)
    assert result.dynamic_preferable


def test_compare_identical_not_preferable():
    result = compare(report("asec", 10.0, 5.0), report("offline", 10.0, 5.0))
    assert result == Comparison(0.0, 0.0, False)


def test_compare_small_saving_not_preferable():
    result = compare(report("asec", 7.0, 15.0), report("offline", 10.0, 10.0))
    assert (result.delta_modeling_ms, result.delta_planning_ms) == (-3.0, 5.0)
    assert not result.dynamic_preferable


def test_compare_dynamic_slowdown_not_preferable():
    # |delta_modeling| > |delta_planning| but modeling got MORE expensive
    result = compare(report("asec", 110.0, 11.0), report("offline", 10.0, 10.0))
    assert result.delta_modeling_ms == 100.0
    assert not result.dynamic_preferable


def test_compare_rejects_mismatched_tasks():
    with pytest.raises(TaskMismatchError):
        compare(report("asec", 1.0, 1.0, instance="x"), report("offline", 1.0, 1.0, instance="y"))
    with pytest.raises(TaskMismatchError):
        compare(report("offline", 1.0, 1.0), report("offline", 1.0, 1.0))


def test_t_avg():
    rep = report("asec", 30.0, 0.0, a_actual=frozenset({1, 2, 3}))
    assert rep.t_avg_ms == pytest.approx(10.0)
    empty = report("asec", 0.0, 0.0, a_actual=frozenset())
    assert empty.t_avg_ms == 0.0


# ---------------------------------------------------------------------------
# Report files

def record(**overrides):
    base = dict(
        instance="i", mode="asec", epsilon=1.5, n=4, a_actual=2, calls=3,
        t_modeling_ms=12.0, t_planning_ms=0.5, t_avg_ms=6.0,
        plan_lb=3.0, plan_ub=4.0, verdict="certified", true_plan_cost=3.5,
    )
    base.update(overrides)
    return RunRecord(**base)


def test_emit_empty_report_has_header(tmp_path):
    csv_path, json_path = emit_report([], tmp_path / "out")
    with open(csv_path) as fh:
        rows = list(csv.reader(fh))
    assert rows == [CSV_COLUMNS]
    assert json.loads(Path(json_path).read_text()) == {"runs": []}


def test_emit_single_run(tmp_path):
    csv_path, _ = emit_report([record()], tmp_path / "out")
    with open(csv_path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["instance"] == "i"
    assert int(rows[0]["a_actual"]) <= int(rows[0]["n"])
    assert rows[0]["status"] == "ok"


def test_episode_row_without_hidden_cost_or_finite_bound(tmp_path):
    # "a" has a hidden cost; "b" has none and no estimator, so the plan's ub stays inf
    task = make_task([("a", {0}, {1}, {0}, []), ("b", {1}, {2}, {1}, [])], goal={2},
                     priors={0: (2.0, 2.0), 1: (1.0, math.inf)}, true_costs={0: 2.0})
    cert, report = solve(task, SearchConfig(epsilon=1.5))
    assert (cert.plan, cert.verdict) == ((0, 1), "uncertified")
    csv_path, _ = emit_report([RunRecord.from_episode(cert, report, task)], tmp_path / "out")
    with open(csv_path) as fh:
        (row,) = csv.DictReader(fh)
    assert (row["plan_lb"], row["plan_ub"], row["true_plan_cost"]) == ("3.0", "inf", "")
    assert task.true_plan_cost((0,)) == 2.0 and task.true_plan_cost(()) == 0


def test_emit_comparison_block(tmp_path):
    comp = Comparison(delta_modeling_ms=-9.0, delta_planning_ms=2.0, dynamic_preferable=True)
    _, json_path = emit_report(
        [record(), record(mode="offline")], tmp_path / "out", {"pair": comp}
    )
    doc = json.loads(Path(json_path).read_text())
    assert doc["comparisons"]["pair"]["delta_modeling_ms"] == -9.0
    assert doc["comparisons"]["pair"]["delta_planning_ms"] == 2.0
