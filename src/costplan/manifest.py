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
    try:
        lb = as_number(raw[0], "lb")
        return CostInterval(lb, INF if raw[1] is None else as_number(raw[1], "ub"))
    except (ManifestError, ValueError) as exc:
        raise ManifestError(f"{where}: {exc}") from exc


def _validate_entry(entry: ManifestEntry) -> None:
    """Raise for a broken invariant, with text to follow the entry's name."""
    prev_time = -INF
    prev = entry.prior
    if prev is not None and entry.true_cost is not None and not prev.contains(entry.true_cost):
        raise InvariantViolationError(f": true cost {entry.true_cost} outside prior")
    for lvl_no, level in enumerate(entry.levels, start=1):
        iv = level.interval
        if level.time_ms < 0:
            problem = "negative time_ms"
        elif level.time_ms < prev_time:
            problem = f"time {level.time_ms} decreases below {prev_time}"
        elif prev is not None and not prev.contains_interval(iv):
            problem = f"interval [{iv.lb}, {iv.ub}] not nested in [{prev.lb}, {prev.ub}]"
        elif entry.true_cost is not None and not iv.contains(entry.true_cost):
            problem = f"true cost {entry.true_cost} outside interval"
        else:
            prev_time, prev = level.time_ms, iv
            continue
        raise InvariantViolationError(f", level {lvl_no}: {problem}")


def as_number(raw, where: str) -> float:
    """A finite JSON number (not a bool) as a float; manifests, remote replies, suites."""
    try:
        value = float(raw) if type(raw) in (int, float) else math.nan
    except OverflowError:  # an int beyond float range
        value = INF
    if not math.isfinite(value):
        raise ManifestError(f"{where} must be a finite number, got {raw!r}")
    return value


def _parse_entry(raw: dict) -> ManifestEntry:
    """One checked 'actions' item. Error text starts after the entry's own
    name ("entry I ('A')"), which parse_manifest puts in front when raising."""
    estimators = raw.get("estimators", [])
    if not isinstance(estimators, list):
        raise ManifestError(": estimators must be a list")
    levels = []
    for j, lvl in enumerate(estimators, start=1):
        try:
            if not isinstance(lvl, dict):
                raise ManifestError(": must be an object")
            levels.append(ManifestLevel(
                time_ms=as_number(lvl.get("time_ms", 0.0), ": time_ms"),
                interval=_as_interval(lvl.get("interval"), ""),
            ))
        except ManifestError as exc:
            raise ManifestError(f", level {j}{exc}") from exc.__cause__
    true_cost = raw.get("true_cost")
    prior = raw.get("prior")
    entry = ManifestEntry(
        action=raw["action"],
        levels=tuple(levels),
        true_cost=None if true_cost is None else as_number(true_cost, ": true_cost"),
        prior=None if prior is None else _as_interval(prior, " prior"),
    )
    _validate_entry(entry)
    return entry


def parse_manifest(text: str) -> EstimatorManifest:
    """Parse and validate a JSON estimator manifest."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ManifestError(f"manifest is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ManifestError("manifest nests too deeply") from None
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
        try:
            entries.append(_parse_entry(raw))
        except ManifestError as exc:
            raise type(exc)(f"entry {i} ({name!r}){exc}") from exc.__cause__
    return EstimatorManifest(default_prior=prior, entries=tuple(entries))


def load_manifest(path) -> EstimatorManifest:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_manifest(fh.read())


def manifest_to_json(manifest: EstimatorManifest) -> str:
    """Serialize a manifest; inverse of parse_manifest, byte-deterministic.

    The text is what json.dumps(document, indent=2) writes, formatted here
    directly: with an indent, json's encoder runs in pure Python, at a few
    times the cost.
    """
    def number(value) -> str:  # float.__repr__ is what json writes for a finite float
        return repr(value) if type(value) is float and math.isfinite(value) else json.dumps(value)

    def array(items: list, pad: str) -> str:  # items already formatted at pad + 2
        return f"[\n{pad}  " + f",\n{pad}  ".join(items) + f"\n{pad}]" if items else "[]"

    def interval(iv: CostInterval, pad: str) -> str:
        return array([number(iv.lb), "null" if math.isinf(iv.ub) else number(iv.ub)], pad)

    entries = []
    for e in manifest.entries:
        fields = [f'"action": {json.dumps(e.action)}']
        if e.true_cost is not None:
            fields.append(f'"true_cost": {number(e.true_cost)}')
        if e.prior is not None:
            fields.append(f'"prior": {interval(e.prior, " " * 6)}')
        levels = [f'{{\n          "time_ms": {number(level.time_ms)},\n          "interval": '
                  f'{interval(level.interval, " " * 10)}\n        }}' for level in e.levels]
        fields.append(f'"estimators": {array(levels, " " * 6)}')
        entries.append("{\n      " + ",\n      ".join(fields) + "\n    }")
    return (f'{{\n  "default": {{\n    "prior": {interval(manifest.default_prior, " " * 4)}\n  }},'
            f'\n  "actions": {array(entries, "  ")}\n}}')
