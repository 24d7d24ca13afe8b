import csv
import json
import os
import re
import select
import subprocess
import sys
from pathlib import Path

import pytest

from costplan.cli import main
from costplan.intervals import CostInterval
from costplan.remote import RemoteEstimatorClient

SRC = str(Path(__file__).resolve().parents[1] / "src")


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


@pytest.mark.parametrize("command, flags, message", [
    ("plan", ["--epsilon", "nan"], "epsilon must be >= 1"),
    ("compare", ["--epsilon", "nan"], "epsilon must be >= 1"),
])
def test_nan_settings_exit_2(capsys, drive_paths, command, flags, message):
    code, out, err = run(capsys, command, *plan_args(drive_paths, *flags)[1:])
    assert (code, out) == (2, "")
    assert f"error: {message}" in err


def test_plan_malformed_pddl_exit_2(capsys, drive_paths, tmp_path):
    domain = tmp_path / "d.pddl"
    domain.write_text("(define (domain d) (:action))")
    code, _, err = run(
        capsys, "plan", "--domain", str(domain),
        "--problem", drive_paths["problem"], "--manifest", drive_paths["manifest"],
    )
    assert code == 2
    assert err == "error: :action needs a name\n"


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


@pytest.mark.parametrize("flag, text, message", [
    ("--domain", "(define (domain drive) (:predicates " + "(" * 3000 + ")" * 3000 + "))",
     "error: expected a symbol in :predicates, got a list\n"),
    ("--manifest", '{"actions": ' + "[" * 200000 + "]" * 200000 + "}",
     "error: manifest nests too deeply\n"),
], ids=["pddl", "manifest"])
def test_deep_nesting_exit_2(capsys, drive_paths, tmp_path, flag, text, message):
    path = tmp_path / "deep"
    path.write_text(text)
    paths = {**drive_paths, flag[2:]: str(path)}
    code, _, err = run(
        capsys, "plan", "--domain", paths["domain"],
        "--problem", paths["problem"], "--manifest", paths["manifest"],
    )
    assert (code, err) == (2, message)


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


def test_compare_out_writes_both_runs_and_the_comparison(capsys, drive_paths, tmp_path):
    out_prefix = tmp_path / "cmp"
    code, out, _ = run(capsys, "compare", *plan_args(
        drive_paths, "--epsilon", "1.2", "--out", str(out_prefix))[1:])
    assert code == 0
    with open(f"{out_prefix}.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["mode"], r["verdict"]) for r in rows] == [
        ("asec", "certified"), ("offline", "certified"),
    ]
    comparison = json.loads(Path(f"{out_prefix}.json").read_text())["comparisons"]["comparison"]
    assert f"dynamic preferable: {comparison['dynamic_preferable']}" in out
    assert f"delta_modeling_ms: {comparison['delta_modeling_ms']:.6g}" in out


def test_plan_without_a_plan_exits_1(capsys, drive_paths, tmp_path):
    # drive deletes (at ?from), so no state holds both locations
    problem = tmp_path / "p.pddl"
    problem.write_text("(define (problem both) (:domain drive) (:objects a b - loc)"
                       " (:init (at a)) (:goal (and (at a) (at b))))")
    code, out, _ = run(capsys, "plan", "--domain", drive_paths["domain"],
                       "--problem", str(problem), "--manifest", drive_paths["manifest"])
    assert code == 1
    assert out.splitlines()[:3] == [
        "no plan found", "cost bound: [inf, inf]  (epsilon=1)", "verdict: no-plan",
    ]


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


@pytest.mark.parametrize("flag, value, message", [
    ("--endpoint", "127.0.0.1:99999", "port must be an integer in 1-65535, not '99999'"),
    ("--endpoint", "127.0.0.1:0", "port must be an integer in 1-65535, not '0'"),
    ("--endpoint", "127.0.0.1", "endpoint must be HOST:PORT, not '127.0.0.1'"),
    ("--port", "99999", "port must be an integer in 0-65535, not '99999'"),
    ("--port", "-1", "port must be an integer in 0-65535, not '-1'"),
])
def test_bad_port_is_a_usage_error(capsys, drive_paths, flag, value, message):
    if flag == "--endpoint":
        argv = plan_args(drive_paths, flag, value)
    else:
        argv = ["serve-estimators", "--manifest", drive_paths["manifest"], flag, value]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.endswith(f"error: argument {flag}: {message}\n")


def test_serve_estimators_answers_a_client(drive_paths):
    pythonpath = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath}
    argv = [sys.executable, "-u", "-m", "costplan.cli", "serve-estimators",
            "--manifest", drive_paths["manifest"], "--port", "0"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, env=env) as proc:
        try:
            assert select.select([proc.stdout], [], [], 30)[0], "no banner within 30 s"
            banner = proc.stdout.readline()
            match = re.fullmatch(r"serving 2 chains on (.+):(\d+)\n", banner)
            assert match, banner
            with RemoteEstimatorClient(match[1], int(match[2])) as client:
                assert client.estimate("drive a b", 1) == (CostInterval(5.0, 10.0), 1.0)
        finally:
            proc.terminate()
            proc.communicate(timeout=10)
