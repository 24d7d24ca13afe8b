import json
import math

import pytest

from costplan.errors import InvariantViolationError, ManifestError
from costplan.manifest import load_manifest, manifest_to_json, parse_manifest


def entry_json(times, intervals, true_cost=None, action="a x"):
    body = {
        "action": action,
        "estimators": [
            {"time_ms": t, "interval": list(iv)} for t, iv in zip(times, intervals)
        ],
    }
    if true_cost is not None:
        body["true_cost"] = true_cost
    return json.dumps({"default": {"prior": [0.0, None]}, "actions": [body]})


def test_nested_monotone_entry_accepted():
    manifest = parse_manifest(entry_json([1, 10], [(0, 10), (2, 3)]))
    entry = manifest.entries[0]
    assert [lvl.time_ms for lvl in entry.levels] == [1, 10]
    assert entry.levels[1].interval.lb == 2


def test_decreasing_times_rejected():
    with pytest.raises(InvariantViolationError, match="time"):
        parse_manifest(entry_json([10, 1], [(0, 10), (2, 3)]))


def test_non_nested_intervals_rejected():
    with pytest.raises(InvariantViolationError, match="nested"):
        parse_manifest(entry_json([1, 10], [(2, 3), (0, 10)]))


def test_true_cost_outside_interval_rejected():
    with pytest.raises(InvariantViolationError, match="true cost"):
        parse_manifest(entry_json([1], [(2, 3)], true_cost=5.0))


def test_duplicate_entries_rejected():
    doc = json.loads(entry_json([1], [(2, 3)]))
    doc["actions"].append(doc["actions"][0])
    with pytest.raises(ManifestError, match="duplicate"):
        parse_manifest(json.dumps(doc))


def test_null_ub_means_infinity():
    manifest = parse_manifest(entry_json([1], [(2, None)]))
    assert math.isinf(manifest.entries[0].levels[0].interval.ub)


def test_bad_json_rejected():
    with pytest.raises(ManifestError, match="JSON"):
        parse_manifest("{not json")


DRIVE = {"action": "drive a b"}


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"default": [0, 1]}, "default must be an object"),
        ({"actions": {}}, "actions must be a list"),
        ({"actions": [{"action": ["drive"]}]}, "entry 0: needs an 'action' string"),
        ({"actions": [{**DRIVE, "estimators": 5}]},
         r"entry 0 \('drive a b'\): estimators must be a list"),
        ({"actions": [{**DRIVE, "estimators": [5]}]},
         r"entry 0 \('drive a b'\), level 1: must be an object"),
        ({"actions": [{**DRIVE, "estimators": [{"time_ms": "x", "interval": [0, 1]}]}]},
         r"entry 0 \('drive a b'\), level 1: time_ms must be a finite number"),
        ({"actions": [{**DRIVE, "estimators": [{"time_ms": math.inf, "interval": [0, 1]}]}]},
         r"level 1: time_ms must be a finite number, got inf"),
        ({"actions": [{**DRIVE, "true_cost": "x"}]},
         r"entry 0 \('drive a b'\): true_cost must be a finite number, got 'x'"),
        ({"actions": [{**DRIVE, "true_cost": math.nan}]}, "true_cost must be a finite number"),
        ({"actions": [{**DRIVE, "true_cost": True}]}, "true_cost must be a finite number"),
        ({"actions": [{**DRIVE, "true_cost": 10**400}]}, "true_cost must be a finite number"),
    ],
    ids=[
        "default-list", "actions-object", "action-list", "estimators-int", "level-int", "time-str",
        "time-inf", "true-cost-str", "true-cost-nan", "true-cost-bool", "true-cost-huge",
    ],
)
def test_malformed_shapes_rejected(doc, message):
    with pytest.raises(ManifestError, match=message):
        parse_manifest(json.dumps(doc))


def test_default_prior_parsed(drive_paths):
    manifest = load_manifest(drive_paths["manifest"])
    assert manifest.default_prior.lb == 0.0
    assert math.isinf(manifest.default_prior.ub)
    assert manifest.by_action()["drive a b"].true_cost == 7.0


def test_serialization_roundtrip(drive_paths):
    manifest = load_manifest(drive_paths["manifest"])
    again = parse_manifest(manifest_to_json(manifest))
    assert again == manifest
