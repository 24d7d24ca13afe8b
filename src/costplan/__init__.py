"""Planner with online interval-valued action-cost estimation."""

from .intervals import INF, TOLERANCE, CostInterval, accumulate
from .task import CostTable, GroundAction, PlanningTask, State, apply, is_goal
from .manifest import EstimatorManifest, load_manifest, parse_manifest
from .pddl import ground, parse_domain, parse_problem
from .estimators import EstimatorRegistry, SyntheticConfig, generate_synthetic
from .search import (
    PlanCertificate,
    SearchConfig,
    asec,
    astar_offline,
    hmax,
    oracle_optimal,
    post_search_refine,
)
from .metrics import Comparison, MetricsReport, compare, emit_report, t_offline_modeling

__all__ = [
    "INF", "TOLERANCE", "CostInterval", "accumulate",
    "CostTable", "GroundAction", "PlanningTask", "State", "apply", "is_goal",
    "EstimatorManifest", "load_manifest", "parse_manifest",
    "ground", "parse_domain", "parse_problem",
    "EstimatorRegistry", "SyntheticConfig", "generate_synthetic",
    "PlanCertificate", "SearchConfig", "asec", "astar_offline", "hmax",
    "oracle_optimal", "post_search_refine",
    "Comparison", "MetricsReport", "compare", "emit_report", "t_offline_modeling",
]

__version__ = "0.1.0"
