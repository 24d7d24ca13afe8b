import csv
import json
import os
from pathlib import Path

import pytest

from costplan.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def plan_args(drive_paths, *extra):
    return [
        "plan",
        "--domain", drive_paths["domain"],
        "--problem", drive_paths["problem"],
        "--manifest", drive_paths["manifest"],
        *extra,
    ]


def test_plan_prints_summary(capsys, drive_paths):
    code, out, _ = run(capsys, *plan_args(drive_paths, "--epsilon", "1.2", "--mode", "asec"))
    assert code == 0
    assert "drive a b" in out
    assert "verdict: certified" in out
    assert "estimator calls:" in out
    assert "[7, 7]" in out


def test_plan_reports_post_search_refinement_calls(capsys, drive_paths, tmp_path):
    # epsilon 2 certifies after the 1 ms level; the budget buys the 100 ms level
    out_prefix = tmp_path / "run"
    code, out, _ = run(capsys, *plan_args(
        drive_paths, "--epsilon", "2", "--refine-budget-ms", "500", "--out", str(out_prefix),
    ))
    assert code == 0
    assert "[7, 7]" in out
    assert "estimator calls: 2 over 1/2 actions, 101 ms modeling" in out
    with open(f"{out_prefix}.csv") as fh:
        (row,) = csv.DictReader(fh)
    assert (row["calls"], row["t_modeling_ms"]) == ("2", "101.0")


def test_plan_uncertified_exit_code(capsys, drive_paths, tmp_path):
    # epsilon 1.0 with an uncertifiable manifest: single inexact estimator
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({
        "actions": [
            {"action": "drive a b", "estimators": [{"time_ms": 1.0, "interval": [1.0, 2.0]}]},
            {"action": "drive b a", "estimators": [{"time_ms": 1.0, "interval": [1.0, 2.0]}]},
        ],
    }))
    out_prefix = tmp_path / "run"
    code, out, _ = run(
        capsys, "plan",
        "--domain", drive_paths["domain"], "--problem", drive_paths["problem"],
        "--manifest", str(manifest), "--epsilon", "1.5",
        "--out", str(out_prefix),
    )
    assert code == 1
    assert "verdict: uncertified" in out
    assert os.path.exists(f"{out_prefix}.csv")  # outputs still written


def test_plan_rejects_small_epsilon(capsys, drive_paths):
    code, _, err = run(capsys, *plan_args(drive_paths, "--epsilon", "0.9"))
    assert code == 2
    assert "epsilon must be >= 1" in err


def test_plan_missing_file_exit_2(capsys, drive_paths):
    code, _, err = run(
        capsys, "plan", "--domain", "nope.pddl",
        "--problem", drive_paths["problem"], "--manifest", drive_paths["manifest"],
    )
    assert code == 2
    assert "error:" in err


def test_plan_malformed_manifest_exit_2(capsys, drive_paths, tmp_path):
    manifest = tmp_path / "m.json"
    manifest.write_text('{"default": [0, 1]}')
    code, _, err = run(
        capsys, "plan", "--domain", drive_paths["domain"],
        "--problem", drive_paths["problem"], "--manifest", str(manifest),
    )
    assert code == 2
    assert "error: default must be an object" in err


def test_compare_prints_deltas(capsys, drive_paths):
    code, out, _ = run(
        capsys, "compare",
        "--domain", drive_paths["domain"], "--problem", drive_paths["problem"],
        "--manifest", drive_paths["manifest"], "--epsilon", "1.2",
    )
    assert code == 0
    assert "delta_modeling_ms:" in out
    assert "delta_planning_ms:" in out
    assert "dynamic preferable:" in out


def test_machine_outputs_byte_identical(capsys, drive_paths, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run(capsys, *plan_args(drive_paths, "--epsilon", "1.2", "--out", str(a)))
    run(capsys, *plan_args(drive_paths, "--epsilon", "1.2", "--out", str(b)))
    for suffix in (".csv", ".json"):
        assert Path(f"{a}{suffix}").read_bytes() == Path(f"{b}{suffix}").read_bytes()


def test_gen_instances_and_estimators_pipeline(capsys, tmp_path):
    inst = tmp_path / "inst"
    code, _, _ = run(
        capsys, "gen-instances", "--template", "gridworld",
        "--rows", "3", "--cols", "3", "--corner-to-corner", "--out", str(inst),
    )
    assert code == 0
    manifest = tmp_path / "manifest.json"
    code, _, _ = run(
        capsys, "gen-estimators",
        "--domain", str(inst / "domain.pddl"), "--problem", str(inst / "problem.pddl"),
        "--seed", "7", "--out", str(manifest),
    )
    assert code == 0
    code, out, _ = run(
        capsys, "plan",
        "--domain", str(inst / "domain.pddl"), "--problem", str(inst / "problem.pddl"),
        "--manifest", str(manifest), "--epsilon", "1.5",
    )
    assert code == 0
    assert "verdict: certified" in out


def test_bench_subcommand(capsys, tmp_path, drive_paths):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"entries": [{
        "name": "drive",
        "domain": drive_paths["domain"],
        "problem": drive_paths["problem"],
        "manifest": drive_paths["manifest"],
        "seeds": [0], "epsilons": [1.5],
    }]}))
    code, out, _ = run(capsys, "bench", "--suite", str(suite), "--out", str(tmp_path / "res"))
    assert code == 0
    assert os.path.exists(tmp_path / "res" / "results.csv")


def test_plan_with_remote_endpoint(capsys, drive_paths):
    from costplan.manifest import load_manifest
    from costplan.remote import MockEstimatorServer

    server = MockEstimatorServer(load_manifest(drive_paths["manifest"]))
    server.start_background()
    try:
        code, out, _ = run(
            capsys,
            *plan_args(drive_paths, "--epsilon", "1.2",
                       "--endpoint", f"127.0.0.1:{server.port}"),
        )
    finally:
        server.shutdown()
        server.server_close()
    assert code == 0
    assert "verdict: certified" in out
