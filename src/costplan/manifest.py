"""Estimator manifest: per-action chains of timed cost intervals.

File format (JSON):

    {"default": {"prior": [0.0, null]},
     "actions": [{"action": "drive a b",
                  "true_cost": 7.0,
                  "estimators": [{"time_ms": 1.0, "interval": [5.0, 10.0]},
                                 {"time_ms": 100.0, "interval": [7.0, 7.0]}]}]}

Numbers must be finite; only a null upper bound encodes +inf. Hidden true
costs are for test and synthetic use only; the planner never reads them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

from .errors import InvariantViolationError, ManifestError
from .intervals import INF, CostInterval


@dataclass(frozen=True)
class ManifestLevel:
    time_ms: float
    interval: CostInterval


@dataclass(frozen=True)
class ManifestEntry:
    action: str
    levels: tuple  # of ManifestLevel
    true_cost: Optional[float] = None
    prior: Optional[CostInterval] = None  # overrides the manifest default


@dataclass(frozen=True)
class EstimatorManifest:
    default_prior: CostInterval
    entries: tuple  # of ManifestEntry

    def by_action(self) -> dict:
        return {e.action: e for e in self.entries}


def _as_interval(raw, where: str) -> CostInterval:
    if not isinstance(raw, (list, tuple)) or len(raw) != 2:
        raise ManifestError(f"{where}: interval must be a [lb, ub] pair")
    lb = as_number(raw[0], f"{where}: lb")
    ub = INF if raw[1] is None else as_number(raw[1], f"{where}: ub")
    try:
        return CostInterval(lb, ub)
    except ValueError as exc:
        raise ManifestError(f"{where}: {exc}") from exc


def _validate_entry(entry: ManifestEntry, index: int) -> None:
    prev_time = -INF
    prev = entry.prior
    if prev is not None and entry.true_cost is not None and not prev.contains(entry.true_cost):
        raise InvariantViolationError(
            f"entry {index} ({entry.action!r}): true cost {entry.true_cost} outside prior"
        )
    for lvl_no, level in enumerate(entry.levels, start=1):
        where = f"entry {index} ({entry.action!r}), level {lvl_no}"
        if level.time_ms < 0:
            raise InvariantViolationError(f"{where}: negative time_ms")
        if level.time_ms < prev_time:
            raise InvariantViolationError(
                f"{where}: time {level.time_ms} decreases below {prev_time}"
            )
        prev_time = level.time_ms
        if prev is not None and not prev.contains_interval(level.interval):
            raise InvariantViolationError(
                f"{where}: interval [{level.interval.lb}, {level.interval.ub}] "
                f"not nested in [{prev.lb}, {prev.ub}]"
            )
        prev = level.interval
        if entry.true_cost is not None and not level.interval.contains(entry.true_cost):
            raise InvariantViolationError(
                f"{where}: true cost {entry.true_cost} outside interval"
            )


def as_number(raw, where: str) -> float:
    """A finite JSON number (not a bool) as a float; manifests and remote replies."""
    try:
        value = float(raw) if type(raw) in (int, float) else math.nan
    except OverflowError:  # an int beyond float range
        value = INF
    if not math.isfinite(value):
        raise ManifestError(f"{where} must be a finite number, got {raw!r}")
    return value


def parse_manifest(text: str) -> EstimatorManifest:
    """Parse and validate a JSON estimator manifest."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ManifestError(f"manifest is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ManifestError("manifest root must be an object")

    default = doc.get("default", {})
    if not isinstance(default, dict):
        raise ManifestError("default must be an object")
    prior = _as_interval(default.get("prior", [0.0, None]), "default prior")
    actions = doc.get("actions", [])
    if not isinstance(actions, list):
        raise ManifestError("actions must be a list")

    entries = []
    seen = set()
    for i, raw in enumerate(actions):
        if not isinstance(raw, dict) or not isinstance(raw.get("action"), str):
            raise ManifestError(f"entry {i}: needs an 'action' string")
        name = raw["action"]
        if name in seen:
            raise ManifestError(f"duplicate manifest entry for action {name!r}")
        seen.add(name)
        where = f"entry {i} ({name!r})"
        estimators = raw.get("estimators", [])
        if not isinstance(estimators, list):
            raise ManifestError(f"{where}: estimators must be a list")
        levels = []
        for j, lvl in enumerate(estimators, start=1):
            if not isinstance(lvl, dict):
                raise ManifestError(f"{where}, level {j}: must be an object")
            levels.append(ManifestLevel(
                time_ms=as_number(lvl.get("time_ms", 0.0), f"{where}, level {j}: time_ms"),
                interval=_as_interval(lvl.get("interval"), f"{where}, level {j}"),
            ))
        true_cost = raw.get("true_cost")
        entry_prior = raw.get("prior")
        entry = ManifestEntry(
            action=name,
            levels=tuple(levels),
            true_cost=None if true_cost is None else as_number(true_cost, f"{where}: true_cost"),
            prior=None if entry_prior is None else _as_interval(entry_prior, f"{where} prior"),
        )
        _validate_entry(entry, i)
        entries.append(entry)
    return EstimatorManifest(default_prior=prior, entries=tuple(entries))


def load_manifest(path) -> EstimatorManifest:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_manifest(fh.read())


def manifest_to_json(manifest: EstimatorManifest) -> str:
    """Serialize a manifest; inverse of parse_manifest, byte-deterministic."""

    def ub(v):
        return None if math.isinf(v) else v

    doc = {
        "default": {"prior": [manifest.default_prior.lb, ub(manifest.default_prior.ub)]},
        "actions": [
            {
                "action": e.action,
                **({"true_cost": e.true_cost} if e.true_cost is not None else {}),
                **({"prior": [e.prior.lb, ub(e.prior.ub)]} if e.prior is not None else {}),
                "estimators": [
                    {"time_ms": l.time_ms, "interval": [l.interval.lb, ub(l.interval.ub)]}
                    for l in e.levels
                ],
            }
            for e in manifest.entries
        ],
    }
    return json.dumps(doc, indent=2)
