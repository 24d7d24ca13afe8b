"""Planner with online interval-valued action-cost estimation."""

from .intervals import INF, TOLERANCE, CostInterval, accumulate
from .task import GroundAction, PlanningTask, facts_of, mask_of
from .manifest import EstimatorManifest, load_manifest, parse_manifest
from .pddl import ground, parse_domain, parse_problem
from .estimators import EstimatorRegistry, SyntheticConfig, generate_synthetic
from .search import PlanCertificate, SearchConfig, oracle_optimal, solve
from .metrics import Comparison, MetricsReport, compare, emit_report, t_offline_modeling

__all__ = [
    "INF", "TOLERANCE", "CostInterval", "accumulate",
    "GroundAction", "PlanningTask", "facts_of", "mask_of",
    "EstimatorManifest", "load_manifest", "parse_manifest",
    "ground", "parse_domain", "parse_problem",
    "EstimatorRegistry", "SyntheticConfig", "generate_synthetic",
    "PlanCertificate", "SearchConfig", "oracle_optimal", "solve",
    "Comparison", "MetricsReport", "compare", "emit_report", "t_offline_modeling",
]

__version__ = "0.1.0"
