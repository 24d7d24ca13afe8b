import csv
import dataclasses
import glob
import json
import math
import os
from pathlib import Path

import pytest

from costplan.bench import (
    EMPTY_MANIFEST,
    gen_gridworld,
    gen_logistics,
    load_suite,
    run_suite,
    synthetic_manifest_for,
)
from costplan.errors import ConfigError
from costplan.estimators import SyntheticConfig
from costplan.pddl import ground, parse_domain, parse_problem, print_domain, print_problem
from costplan.search import oracle_optimal

from helpers import is_goal


def grounded(domain, problem):
    return ground(domain, problem, EMPTY_MANIFEST)


def test_gridworld_3x3_counts():
    domain, problem = gen_gridworld(3, 3, corner_to_corner=True)
    task = grounded(domain, problem)
    assert len(task.facts) == 9
    assert task.n_actions == 24  # 4-connected directed edges


def test_gridworld_1x1_trivial():
    domain, problem = gen_gridworld(1, 1, corner_to_corner=True)
    task = grounded(domain, problem)
    assert is_goal(task.init, task)
    manifest = synthetic_manifest_for(domain, problem, 0, SyntheticConfig())
    solvable = ground(domain, problem, manifest)
    assert oracle_optimal(solvable) == 0.0


def test_gridworld_roundtrips_through_parser():
    domain, problem = gen_gridworld(2, 3, seed=4)
    assert parse_domain(print_domain(domain)) == domain
    assert parse_problem(print_problem(problem)) == problem


def test_logistics_counts_match_enumeration():
    trucks, cities, packages = 2, 3, 2
    domain, problem = gen_logistics(trucks, cities, packages, seed=0)
    task = grounded(domain, problem)
    drives = trucks * cities * (cities - 1)
    loads = unloads = packages * trucks * cities
    assert task.n_actions == drives + loads + unloads


def test_logistics_without_packages_keeps_the_first_truck_as_goal():
    domain, problem = gen_logistics(2, 3, 0, seed=0)
    assert problem.goal == problem.init[:1]
    task = grounded(domain, problem)
    assert task.n_actions == 2 * 3 * 2  # drives only
    assert task.init & task.goal == task.goal


@pytest.mark.parametrize("seed", range(8))
def test_generated_instances_solvable(seed):
    for maker in (
        lambda: gen_gridworld(3, 4, seed=seed),
        lambda: gen_logistics(1, 3, 1, seed=seed),
    ):
        domain, problem = maker()
        manifest = synthetic_manifest_for(domain, problem, seed, SyntheticConfig())
        task = ground(domain, problem, manifest)
        assert not math.isinf(oracle_optimal(task))


def test_generator_rejects_bad_sizes():
    with pytest.raises(ConfigError):
        gen_gridworld(0, 3)
    with pytest.raises(ConfigError):
        gen_logistics(0, 1, 1)


# ---------------------------------------------------------------------------
# Suite running

def read_rows(path):
    return list(csv.DictReader(Path(path).read_text().splitlines()))


def write_suite(tmp_path, entries):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps({"entries": entries}))
    return path


def write_instance(tmp_path, name="inst"):
    domain, problem = gen_gridworld(3, 3, seed=1, corner_to_corner=True)
    dpath = tmp_path / f"{name}-d.pddl"
    ppath = tmp_path / f"{name}-p.pddl"
    dpath.write_text(print_domain(domain))
    ppath.write_text(print_problem(problem))
    return str(dpath), str(ppath)


def test_suite_runs_both_modes_with_comparison(tmp_path):
    dpath, ppath = write_instance(tmp_path)
    suite = load_suite(write_suite(tmp_path, [{
        "name": "g3", "domain": dpath, "problem": ppath,
        "synthetic": {"levels": 2}, "seeds": [0], "epsilons": [1.5],
        "modes": ["asec", "offline"],
    }]))
    csv_path, json_path = run_suite(suite, tmp_path / "out")
    rows = read_rows(csv_path)
    assert len(rows) == 2
    assert {r["mode"] for r in rows} == {"asec", "offline"}
    doc = json.loads(Path(json_path).read_text())
    assert len(doc["comparisons"]) == 1
    (comp,) = doc["comparisons"].values()
    assert "delta_modeling_ms" in comp and "delta_planning_ms" in comp


def test_suite_deterministic(tmp_path):
    dpath, ppath = write_instance(tmp_path)
    suite = load_suite(write_suite(tmp_path, [{
        "name": "g3", "domain": dpath, "problem": ppath,
        "synthetic": {}, "seeds": [0, 1], "epsilons": [1.0, 2.0],
    }]))
    csv1, _ = run_suite(suite, tmp_path / "out1")
    csv2, _ = run_suite(suite, tmp_path / "out2")
    assert Path(csv1).read_bytes() == Path(csv2).read_bytes()


def test_suite_isolates_parse_errors(tmp_path):
    dpath, ppath = write_instance(tmp_path)
    broken = tmp_path / "broken.pddl"
    broken.write_text("(define (domain oops)")
    suite = load_suite(write_suite(tmp_path, [
        {"name": "bad", "domain": str(broken), "problem": ppath, "synthetic": {}},
        {"name": "good", "domain": dpath, "problem": ppath, "synthetic": {}},
    ]))
    csv_path, _ = run_suite(suite, tmp_path / "out")
    rows = read_rows(csv_path)
    by_instance = {r["instance"]: r for r in rows}
    assert by_instance["bad"]["status"].startswith("parse-error")
    good_rows = [r for r in rows if r["instance"].startswith("good")]
    assert good_rows and all(r["status"] == "ok" for r in good_rows)


def test_suite_isolates_undecodable_files(caplog, capsys, tmp_path):
    from costplan.cli import main

    dpath, ppath = write_instance(tmp_path)
    binary = tmp_path / "binary.pddl"
    binary.write_bytes(b"(define (domain \xff))")
    path = write_suite(tmp_path, [
        {"name": "bad", "domain": str(binary), "problem": ppath, "synthetic": {}},
        {"name": "good", "domain": dpath, "problem": ppath, "synthetic": {},
         "modes": ["asec"]},
    ])
    out = tmp_path / "out"
    assert main(["bench", "--suite", str(path), "--out", str(out)]) == 0
    rows = read_rows(out / "results.csv")
    assert [(r["instance"], r["status"].split(" can't")[0]) for r in rows] == [
        ("bad", "parse-error: UnicodeDecodeError: 'utf-8' codec"), ("good#s0", "ok"),
    ]
    assert "bad: parse failed" in caplog.text
    assert "wrote" in capsys.readouterr().out


def test_suite_validation():
    from costplan.bench import _entry_from_json

    for seeds in ([], [0, True], [0, "x"], [0, 1.0]):
        with pytest.raises(ConfigError, match="entry 0: seeds must be a nonempty list of integers"):
            _entry_from_json(0, {"domain": "d", "problem": "p", "manifest": "m", "seeds": seeds})
    for epsilon, message in ((0.5, "epsilon must be >= 1"),
                             (math.nan, "epsilon must be a finite number, got nan"),
                             (True, "epsilon must be a finite number, got True"),
                             ("1.5", "epsilon must be a finite number, got '1.5'")):
        with pytest.raises(ConfigError, match=f"entry 0: {message}"):
            _entry_from_json(0, {"domain": "d", "problem": "p", "manifest": "m",
                                 "epsilons": [1.5, epsilon]})
    for modes in (["x"], [["asec"]]):
        with pytest.raises(ConfigError, match="entry 0: unknown mode"):
            _entry_from_json(0, {"domain": "d", "problem": "p", "manifest": "m", "modes": modes})
    with pytest.raises(ConfigError, match="entry 0: must be an object"):
        _entry_from_json(0, 5)
    with pytest.raises(ConfigError, match="entry 0: unknown heuristic 'hmx'"):
        _entry_from_json(0, {"domain": "d", "problem": "p", "manifest": "m", "heuristic": "hmx"})
    with pytest.raises(ConfigError, match="entry 0: synthetic: .*levles"):
        _entry_from_json(0, {"domain": "d", "problem": "p", "synthetic": {"levles": 2}})
    with pytest.raises(ConfigError, match="entry 0: synthetic: levels"):
        _entry_from_json(0, {"domain": "d", "problem": "p", "synthetic": {"levels": 0}})
    grid = {"template": "gridworld", "rows": 2, "cols": 2}
    for form in ({"domain": "d", "problem": "p", "generate": grid}, {"domain": "d"}, {}):
        with pytest.raises(ConfigError, match="domain and problem, or generate"):
            _entry_from_json(0, {**form, "manifest": "m"})
    with pytest.raises(ConfigError, match="generate must be an object"):
        _entry_from_json(0, {"generate": "gridworld", "manifest": "m"})
    for key in ("seeds", "epsilons", "modes"):
        with pytest.raises(ConfigError, match=f"entry 0: {key} must be a list"):
            _entry_from_json(0, {"domain": "d", "problem": "p", "manifest": "m", key: 5})
    for key in ("epsilons", "modes"):
        with pytest.raises(ConfigError, match=f"entry 0: {key} must not be empty"):
            _entry_from_json(0, {"domain": "d", "problem": "p", "manifest": "m", key: []})
    with pytest.raises(ConfigError, match="entry 0: synthetic must be an object"):
        _entry_from_json(0, {"domain": "d", "problem": "p", "synthetic": 5})
    with pytest.raises(ConfigError, match="entry 0: need 'manifest' or 'synthetic'"):
        _entry_from_json(0, {"domain": "d", "problem": "p"})


def test_bench_suite_errors_exit_2(capsys, tmp_path):
    from costplan.cli import main

    grid = {"template": "gridworld", "rows": 2, "cols": 2}
    bad_entries = (
        {"synthetic": {"levles": 2}}, {"synthetic": {}, "heuristic": "hmx"},
        {"synthetic": {}, "modes": [["asec"]]}, {"synthetic": {}, "seeds": 5},
        {"synthetic": 5}, {"synthetic": {}, "epsilons": 1.5}, {"synthetic": {}, "epsilons": ["x"]},
        {"synthetic": {}, "epsilons": [math.nan]}, {"synthetic": {}, "epsilons": []},
        {"synthetic": {}, "modes": []}, {"synthetic": {"base_time_ms": math.nan}},
        {"synthetic": {"cost_range": 5}}, {"synthetic": {"cost_range": [1]}},
    )
    cases = [({"entries": [{"generate": grid, **bad}]}, "suite entry 0: ") for bad in bad_entries]
    cases += [({"entries": [5]}, "suite entry 0: "), ([], "suite: "), ({"entries": {}}, "suite: ")]
    path = tmp_path / "suite.json"
    for doc, prefix in cases:
        path.write_text(json.dumps(doc))
        assert main(["bench", "--suite", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: " + prefix)


# ---------------------------------------------------------------------------
# Generated suite entries

SUITES = os.path.join(os.path.dirname(__file__), "..", "data", "suites")


def test_generated_entry_matches_gen_instances_files(capsys, tmp_path):
    from costplan.cli import main

    generators = {
        "grid": {"template": "gridworld", "rows": 3, "cols": 4, "seed": 2},
        "log": {"template": "logistics", "trucks": 1, "cities": 3, "packages": 1, "seed": 3},
    }
    common = {"synthetic": {"levels": 2}, "seeds": [0, 1], "epsilons": [1.0, 1.5]}
    generated, files = [], []
    for name, params in generators.items():
        argv = ["gen-instances", "--out", str(tmp_path / name)]
        for key, value in params.items():
            argv += [f"--{key}", str(value)]
        assert main(argv) == 0
        generated.append({"name": name, "generate": params, **common})
        files.append({"name": name, "domain": str(tmp_path / name / "domain.pddl"),
                      "problem": str(tmp_path / name / "problem.pddl"), **common})
    capsys.readouterr()
    out_gen = run_suite(load_suite(write_suite(tmp_path, generated)), tmp_path / "gen")
    out_files = run_suite(load_suite(write_suite(tmp_path, files)), tmp_path / "files")
    for generated_path, files_path in zip(out_gen, out_files):
        assert Path(generated_path).read_bytes() == Path(files_path).read_bytes()
    rows = read_rows(out_gen[0])
    assert len(rows) == 16 and all(r["status"] == "ok" for r in rows)


def test_generate_errors_become_error_rows(tmp_path):
    suite = load_suite(write_suite(tmp_path, [
        {"name": "nope", "generate": {"template": "maze"}, "synthetic": {}},
        {"name": "typo", "generate": {"template": "gridworld", "rows": 2, "colz": 2},
         "synthetic": {}},
        {"name": "small", "generate": {"template": "gridworld", "rows": 0, "cols": 2},
         "synthetic": {}},
        {"name": "ok", "generate": {"template": "gridworld", "rows": 2, "cols": 2},
         "synthetic": {}},
    ]))
    csv_path, _ = run_suite(suite, tmp_path / "out")
    by_instance = {r["instance"]: r["status"] for r in read_rows(csv_path)}
    assert by_instance["nope"] == "generate-error: unknown template 'maze'"
    assert by_instance["typo"].startswith("generate-error: gridworld:")
    assert by_instance["small"].startswith("generate-error: grid sizes")
    assert by_instance["ok#s0"] == "ok"


def test_ground_errors_become_error_rows(tmp_path, drive_paths):
    manifest = tmp_path / "m.json"
    manifest.write_text('{"actions": [{"action": "fly a b", "estimators": []}]}')
    suite = load_suite(write_suite(tmp_path, [{
        "name": "drive", "domain": drive_paths["domain"], "problem": drive_paths["problem"],
        "manifest": str(manifest), "seeds": [0, 1],
    }]))
    csv_path, _ = run_suite(suite, tmp_path / "out")
    status = "ground-error: manifest entry 'fly a b' names no ground action"
    assert [(r["instance"], r["verdict"], r["status"]) for r in read_rows(csv_path)] == [
        ("drive#s0", "error", status), ("drive#s1", "error", status),
    ]


def test_unexpected_run_exception_becomes_one_error_row(caplog, capsys, monkeypatch, tmp_path):
    from costplan import bench
    from costplan.cli import main

    solve = bench.solve

    def flaky(task, config):
        if task.name.endswith("#s1") and config.mode == "offline":
            raise RuntimeError("estimator backend exploded")
        return solve(task, config)

    monkeypatch.setattr(bench, "solve", flaky)
    dpath, ppath = write_instance(tmp_path)
    path = write_suite(tmp_path, [{
        "name": "g3", "domain": dpath, "problem": ppath, "synthetic": {},
        "seeds": [0, 1], "epsilons": [1.5], "modes": ["asec", "offline"],
    }])
    out = tmp_path / "out"
    assert main(["bench", "--suite", str(path), "--out", str(out)]) == 0
    rows = read_rows(out / "results.csv")
    assert [(r["instance"], r["mode"]) for r in rows] == [
        ("g3#s0", "asec"), ("g3#s0", "offline"), ("g3#s1", "asec"), ("g3#s1", "offline"),
    ]
    assert [r["status"] for r in rows] == [
        "ok", "ok", "ok", "run-error: RuntimeError: estimator backend exploded",
    ]
    assert len(os.listdir(out / "runs")) == 2 * 3  # a CSV/JSON pair per run that finished
    assert "wrote" in capsys.readouterr().out
    assert "g3#s1, epsilon 1.5, mode offline: run failed" in caplog.text
    assert "RuntimeError: estimator backend exploded" in caplog.text  # with its traceback


def test_checked_in_suites_load():
    paths = sorted(glob.glob(os.path.join(SUITES, "*.json")))
    assert len(paths) >= 2
    for path in paths:
        assert load_suite(path)


def test_compare_modes_suite_grid5_seed0(tmp_path):
    entry = next(e for e in load_suite(os.path.join(SUITES, "compare_modes.json"))
                 if e.name == "grid5")
    suite = (dataclasses.replace(entry, seeds=(0,)),)
    csv_path, json_path = run_suite(suite, tmp_path / "out")
    rows = read_rows(csv_path)
    for epsilon in entry.epsilons:
        pair = [r for r in rows if float(r["epsilon"]) == epsilon]
        assert [r["mode"] for r in pair] == ["asec", "offline"]
        assert all(r["verdict"] == "certified" and r["instance"] == "grid5#s0" for r in pair)
    assert sorted(json.loads(Path(json_path).read_text())["comparisons"]) == [
        f"grid5#s0@eps={epsilon}" for epsilon in entry.epsilons
    ]
