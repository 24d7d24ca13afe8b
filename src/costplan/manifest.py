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
    name ("entry I ('A')"), which parse_manifest puts in front when raising.

    One loop checks each level's types and invariants: a time at least 0
    and no less than the last, an interval nested in the last (the first in
    the entry's prior) and holding the true cost. A type error anywhere, in
    the true cost or prior too, is reported before any broken invariant, so
    the first broken invariant is only recorded until the loop ends. A
    finite float skips ``as_number``; any other value goes through it for
    its check and its error text.
    """
    estimators = raw.get("estimators", [])
    if not isinstance(estimators, list):
        raise ManifestError(": estimators must be a list")
    true_cost, prior = raw.get("true_cost"), raw.get("prior")
    try:  # raised after the levels' type errors, before any broken invariant
        true_cost = None if true_cost is None else as_number(true_cost, ": true_cost")
        prior = None if prior is None else _as_interval(prior, " prior")
        late_error = None
    except ManifestError as exc:
        late_error = exc
    problem = None  # the first broken invariant
    if late_error is None and prior is not None and true_cost is not None \
            and not prior.contains(true_cost):
        problem = f": true cost {true_cost} outside prior"
    levels = []
    prev_time, prev = -INF, prior
    for j, lvl in enumerate(estimators, start=1):
        try:
            if not isinstance(lvl, dict):
                raise ManifestError(": must be an object")
            time_ms = lvl.get("time_ms", 0.0)
            if type(time_ms) is not float or not -INF < time_ms < INF:
                time_ms = as_number(time_ms, ": time_ms")
            pair = lvl.get("interval")
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise ManifestError(": interval must be a [lb, ub] pair")
            lb, ub = pair
            if type(lb) is not float or not -INF < lb < INF:
                lb = as_number(lb, ": lb")
            if ub is None:
                ub = INF
            elif type(ub) is not float or not -INF < ub < INF:
                ub = as_number(ub, ": ub")
            try:
                iv = CostInterval(lb, ub)
            except ValueError as exc:
                raise ManifestError(f": {exc}") from exc
        except ManifestError as exc:
            raise ManifestError(f", level {j}{exc}") from exc.__cause__
        levels.append(ManifestLevel(time_ms, iv))
        if problem is not None or late_error is not None:
            continue
        if time_ms < 0:
            problem = "negative time_ms"
        elif time_ms < prev_time:
            problem = f"time {time_ms} decreases below {prev_time}"
        elif prev is not None and not prev.contains_interval(iv):
            problem = f"interval [{iv.lb}, {iv.ub}] not nested in [{prev.lb}, {prev.ub}]"
        elif true_cost is not None and not iv.contains(true_cost):
            problem = f"true cost {true_cost} outside interval"
        else:
            prev_time, prev = time_ms, iv
            continue
        problem = f", level {j}: {problem}"
    if late_error is not None:
        raise late_error
    if problem is not None:
        raise InvariantViolationError(problem)
    return ManifestEntry(raw["action"], tuple(levels), true_cost, prior)


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
