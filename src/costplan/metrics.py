"""Modeling/planning time accounting and the offline-vs-dynamic decision."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, fields
from typing import Optional

from .errors import TaskMismatchError
from .manifest import EstimatorManifest


@dataclass(frozen=True)
class MetricsReport:
    """Estimator-call ledger and derived quantities for one episode."""

    instance: str
    mode: str  # one of search.MODES: "asec" | "offline"
    n: int
    a_actual: frozenset  # action ids estimated during the episode
    calls: tuple  # of LedgerEntry
    t_modeling_ms: float
    t_planning_ms: float

    @property
    def t_avg_ms(self) -> float:
        if not self.a_actual:
            return 0.0
        return self.t_modeling_ms / len(self.a_actual)


@dataclass(frozen=True)
class Comparison:
    delta_modeling_ms: float
    delta_planning_ms: float
    dynamic_preferable: bool


def t_offline_modeling(manifest: EstimatorManifest) -> float:
    """Total time of the final (best) estimator level over all actions.

    Prior-only chains contribute 0.
    """
    return sum(e.levels[-1].time_ms for e in manifest.entries if e.levels)


def compare(dynamic: MetricsReport, offline: MetricsReport) -> Comparison:
    """Decide whether dynamic modeling beat conservative offline modeling.

    Preferable when the modeling-time saving exceeds the planning-time
    overhead in magnitude AND dynamic modeling did not cost more: the
    raw deltas are also emitted so the magnitude-only criterion can be
    applied by the reader.
    """
    if dynamic.instance != offline.instance or dynamic.n != offline.n:
        raise TaskMismatchError(
            f"cannot compare {dynamic.instance!r} (n={dynamic.n}) "
            f"with {offline.instance!r} (n={offline.n})"
        )
    if dynamic.mode != "asec" or offline.mode != "offline":
        raise TaskMismatchError(
            f"expected an (asec, offline) pair, got ({dynamic.mode}, {offline.mode})"
        )
    delta_modeling = dynamic.t_modeling_ms - offline.t_modeling_ms
    delta_planning = dynamic.t_planning_ms - offline.t_planning_ms
    preferable = abs(delta_modeling) > abs(delta_planning) and delta_modeling <= 0
    return Comparison(
        delta_modeling_ms=delta_modeling,
        delta_planning_ms=delta_planning,
        dynamic_preferable=preferable,
    )


# ---------------------------------------------------------------------------
# Report files

@dataclass(frozen=True)
class RunRecord:
    """One CSV row: a single (instance, mode) planner episode."""

    instance: str
    mode: str
    epsilon: float
    n: int
    a_actual: int
    calls: int
    t_modeling_ms: float
    t_planning_ms: float
    t_avg_ms: float
    plan_lb: Optional[float]
    plan_ub: Optional[float]
    verdict: str
    true_plan_cost: Optional[float] = None
    status: str = "ok"

    @classmethod
    def from_episode(cls, cert, report, task) -> "RunRecord":
        """Row for a finished episode's PlanCertificate and MetricsReport."""
        return cls(
            instance=report.instance,
            mode=report.mode,
            epsilon=cert.epsilon,
            n=report.n,
            a_actual=len(report.a_actual),
            calls=len(report.calls),
            t_modeling_ms=report.t_modeling_ms,
            t_planning_ms=report.t_planning_ms,
            t_avg_ms=report.t_avg_ms,
            plan_lb=None if cert.plan is None else cert.lower,
            plan_ub=None if cert.plan is None else cert.upper,
            verdict=cert.verdict,
            true_plan_cost=None if cert.plan is None else task.true_plan_cost(cert.plan),
        )


CSV_COLUMNS = [field.name for field in fields(RunRecord)]


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        return repr(value)
    return str(value)


def emit_report(records, out_prefix, comparisons=None) -> tuple:
    """Write <prefix>.csv and a JSON twin <prefix>.json.

    comparisons: optional mapping of label -> Comparison, embedded in the
    JSON twin.
    """
    csv_path = f"{out_prefix}.csv"
    json_path = f"{out_prefix}.json"
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            writer.writerow(_cell(getattr(rec, col)) for col in CSV_COLUMNS)
    doc = {"runs": [asdict(rec) for rec in records]}
    if comparisons is not None:
        doc["comparisons"] = {
            label: asdict(comp) for label, comp in comparisons.items()
        }
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, allow_nan=True, default=str)
        fh.write("\n")
    return csv_path, json_path
