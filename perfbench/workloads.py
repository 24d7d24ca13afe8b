"""Benchmark inputs: three workloads, their files on disk, and their references.

Every workload has a fixed base instance set built with the program's own
generators. The workload seed turns it into an isomorphic copy: grid cells go
through one of the eight symmetries of the square, logistics trucks, cities
and packages are permuted, and every declaration list (actions, predicates,
objects, init, goal, manifest entries) is shuffled. The program therefore sees
different files, fact ids, action ids and tie-breaking orders on every seed,
while the instance structure and the estimator charges stay fixed. Fresh
random instances per seed were tried first: their per-run medians spread
20-40% across seeds, wider than any regression bound could absorb.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import os
import random
import re
import select
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from costplan import cli
from costplan.bench import gen_gridworld, gen_logistics, synthetic_manifest_for
from costplan.estimators import SyntheticConfig
from costplan.manifest import EstimatorManifest, manifest_to_json
from costplan.metrics import t_offline_modeling
from costplan.pddl import Atom, ground, print_domain, print_problem
from costplan.search import oracle_optimal

#: Chain shape and suboptimality target of the ROADMAP baseline.
SYNTHETIC = SyntheticConfig(levels=3, cost_range=(5, 10))
EPSILON = 1.5


class SetupError(RuntimeError):
    """The benchmark could not prepare its inputs or its estimator server."""


@dataclass(frozen=True)
class Instance:
    name: str
    domain: Path
    problem: Path
    manifest: Path
    c_star: float  # oracle optimum over the hidden true costs
    offline_modeling_ms: float  # what eager offline modeling would charge


# ---------------------------------------------------------------------------
# Base instance sets


def _grid_cell(atom: Atom) -> tuple:
    _, r, c = atom.predicate.split("-")
    return int(r), int(c)


def _grid_distance(problem) -> int:
    (r1, c1), (r2, c2) = _grid_cell(problem.init[0]), _grid_cell(problem.goal[0])
    return abs(r1 - r2) + abs(c1 - c2)


#: (size, gen_gridworld seed) of the grid bases: start-goal distance 4-6 and
#: 1,700-2,100 A* expansions per asec episode on every relabelling, about
#: 0.25 s each. Episode times form one cluster, so their median sits where
#: samples are dense. A mix of 8x8-10x10 bases at any distance 4-6 spread
#: 0.1-0.9 s, and the median fell into gaps between instances that moved
#: with the seed.
GRID_BASES = (
    (8, 5), (8, 7), (8, 8), (8, 13), (8, 15), (8, 16), (8, 20), (8, 21),
    (9, 2), (9, 12), (10, 21),
)


def _grid_bases():
    for n, base_seed in GRID_BASES:
        domain, problem = gen_gridworld(n, n, base_seed)
        manifest = synthetic_manifest_for(domain, problem, base_seed, SYNTHETIC)
        yield n, domain, problem, manifest


def _logistics_bases():
    """2 trucks, 4 cities, 3 packages; one base with 1, 2 and 3 packages to move.

    Solving time grows about threefold per package that must move, so the
    pass holds one of each instead of whatever a random draw gives.
    """
    for moving in (1, 2, 3):
        base_seed = 0
        while True:
            domain, problem = gen_logistics(2, 4, 3, base_seed)
            where = {a.args[0]: a.args[1] for a in problem.init}
            if sum(where[g.args[0]] != g.args[1] for g in problem.goal) == moving:
                break
            base_seed += 1
        yield domain, problem, synthetic_manifest_for(domain, problem, base_seed, SYNTHETIC)


#: Size of the remote workload's grid (2 * 20 * 19 * 2 = 1,520 move actions)
#: and its number of start/goal problems.
REMOTE_GRID = 20
REMOTE_PROBLEMS = 3


def _remote_bases():
    """One 20x20 domain and manifest; the first problems with start != goal."""
    problems = []
    base_seed = 0
    while len(problems) < REMOTE_PROBLEMS:
        domain, problem = gen_gridworld(REMOTE_GRID, REMOTE_GRID, base_seed)
        if _grid_distance(problem) > 0:
            problems.append(problem)
        base_seed += 1
    manifest = synthetic_manifest_for(domain, problems[0], 0, SYNTHETIC)
    return domain, manifest, problems


# ---------------------------------------------------------------------------
# Seeded relabelling


def _grid_symmetry(n: int, k: int):
    """Rename at-r-c / move-r-c-r2-c2 through symmetry k (0-7) of the n x n square."""

    def cell(r: int, c: int) -> str:
        for _ in range(k % 4):
            r, c = c, n - 1 - r
        if k >= 4:
            c = n - 1 - c
        return f"{r}-{c}"

    def rename(word: str) -> str:
        head, *nums = word.split("-")
        if head == "at" and len(nums) == 2:
            return "at-" + cell(int(nums[0]), int(nums[1]))
        if head == "move" and len(nums) == 4:
            return f"move-{cell(int(nums[0]), int(nums[1]))}-{cell(int(nums[2]), int(nums[3]))}"
        return word

    return rename


def _permutation(rng: random.Random, groups):
    mapping = {}
    for names in groups:
        shuffled = list(names)
        rng.shuffle(shuffled)
        mapping.update(zip(names, shuffled))
    return lambda word: mapping.get(word, word)


def _shuffled(rng: random.Random, items) -> tuple:
    items = list(items)
    rng.shuffle(items)
    return tuple(items)


def _atom(atom: Atom, rename) -> Atom:
    return Atom(rename(atom.predicate), tuple(rename(a) for a in atom.args))


def _relabel_domain(domain, rename, rng):
    actions = [
        dataclasses.replace(
            s,
            name=rename(s.name),
            pre=tuple(_atom(a, rename) for a in s.pre),
            add=tuple(_atom(a, rename) for a in s.add),
            delete=tuple(_atom(a, rename) for a in s.delete),
        )
        for s in domain.actions
    ]
    predicates = [dataclasses.replace(p, name=rename(p.name)) for p in domain.predicates]
    return dataclasses.replace(
        domain, actions=_shuffled(rng, actions), predicates=_shuffled(rng, predicates)
    )


def _relabel_problem(problem, rename, rng):
    return dataclasses.replace(
        problem,
        objects=_shuffled(rng, ((rename(o), t) for o, t in problem.objects)),
        init=_shuffled(rng, (_atom(a, rename) for a in problem.init)),
        goal=_shuffled(rng, (_atom(a, rename) for a in problem.goal)),
    )


def _relabel_manifest(manifest: EstimatorManifest, rename, rng) -> EstimatorManifest:
    entries = (
        dataclasses.replace(e, action=" ".join(rename(w) for w in e.action.split()))
        for e in manifest.entries
    )
    return dataclasses.replace(manifest, entries=_shuffled(rng, entries))


#: Relabelled copies of each asec base instance in one pass. Run time varies
#: by up to about 40% between copies (tie-breaking follows fact and action
#: ids), so a pass averages over two copies instead of resting on one.
COPIES = 2


def _grid_instances(rng: random.Random):
    """Yield (name, domain, problem, manifest) for a seeded copy of the grid set."""
    for i, (n, domain, problem, manifest) in enumerate(_grid_bases()):
        for copy in range(COPIES):
            rename = _grid_symmetry(n, rng.randrange(8))
            yield (
                f"grid{n}-{i}.{copy}",
                _relabel_domain(domain, rename, rng),
                _relabel_problem(problem, rename, rng),
                _relabel_manifest(manifest, rename, rng),
            )


def _logistics_instances(rng: random.Random):
    for i, (domain, problem, manifest) in enumerate(_logistics_bases()):
        by_type = {}
        for obj, typ in problem.objects:
            by_type.setdefault(typ, []).append(obj)
        for copy in range(COPIES):
            rename = _permutation(rng, by_type.values())
            yield (
                f"logistics-{i}.{copy}",
                _relabel_domain(domain, lambda w: w, rng),
                _relabel_problem(problem, rename, rng),
                _relabel_manifest(manifest, rename, rng),
            )


def _remote_instances(rng: random.Random):
    domain, manifest, problems = _remote_bases()
    rename = _grid_symmetry(REMOTE_GRID, rng.randrange(8))
    domain = _relabel_domain(domain, rename, rng)
    manifest = _relabel_manifest(manifest, rename, rng)
    for i, problem in enumerate(problems):
        yield f"grid{REMOTE_GRID}-{i}", domain, _relabel_problem(problem, rename, rng), manifest


@dataclass(frozen=True)
class Workload:
    """One named workload; BENCHMARK.json records why each was chosen."""

    name: str
    mode: str
    heuristic: str
    remote: bool
    instances: Callable  # random.Random -> (name, domain, problem, manifest) tuples


WORKLOADS = {
    w.name: w
    for w in (
        Workload("grid-asec-hmax", "asec", "hmax", False, _grid_instances),
        Workload("logistics-asec-blind", "asec", "blind", False, _logistics_instances),
        Workload("grid-offline-remote", "offline", "blind", True, _remote_instances),
    )
}


# ---------------------------------------------------------------------------
# Files, references and the estimator server


def write_instances(workload: Workload, seed: int, inputs: Path) -> list:
    """Write the seeded PDDL and manifest files and compute each C* reference."""
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)
    written = {}  # identical domain/manifest texts share one file
    instances = []

    def write(kind: str, suffix: str, text: str, name: str) -> Path:
        if text not in written:
            path = inputs / f"{name}.{kind}{suffix}"
            path.write_text(text, encoding="utf-8")
            written[text] = path
        return written[text]

    rng = random.Random(f"{workload.name}/{seed}")
    for name, domain, problem, manifest in workload.instances(rng):
        task = ground(domain, problem, manifest)
        instances.append(
            Instance(
                name=name,
                domain=write("domain", ".pddl", print_domain(domain), name),
                problem=write("problem", ".pddl", print_problem(problem), name),
                manifest=write("manifest", ".json", manifest_to_json(manifest) + "\n", name),
                c_star=oracle_optimal(task),
                offline_modeling_ms=t_offline_modeling(manifest),
            )
        )
    return instances


def plan_argv(workload: Workload, instance: Instance, out: Path, endpoint=None) -> list:
    """The `costplan plan` command line a user would type for one episode."""
    argv = [
        "plan",
        "--domain", str(instance.domain),
        "--problem", str(instance.problem),
        "--manifest", str(instance.manifest),
        "--epsilon", str(EPSILON),
        "--mode", workload.mode,
        "--heuristic", workload.heuristic,
        "--out", str(out),
    ]
    if endpoint is not None:
        argv += ["--endpoint", endpoint]
    return argv


def run_cli(argv: list) -> tuple:
    """Run `costplan` in process; return (exit code, captured stdout)."""
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = cli.main(argv)
    return code, captured.getvalue()


def report_paths(out: Path) -> tuple:
    """The CSV and JSON files `costplan plan --out OUT` writes."""
    return Path(f"{out}.csv"), Path(f"{out}.json")


def read_report(out: Path) -> tuple:
    return tuple(path.read_bytes() for path in report_paths(out))


class EstimatorServer:
    """A `costplan serve-estimators --port 0` subprocess, stopped by close()."""

    BANNER = re.compile(r" on ([0-9.]+):(\d+)\s*$")
    START_TIMEOUT_S = 30.0

    def __init__(self, root: Path, manifest: Path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
        )
        self._proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "costplan.cli", "serve-estimators",
             "--manifest", str(manifest), "--port", "0"],
            cwd=root, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
        )
        try:
            ready, _, _ = select.select([self._proc.stdout], [], [], self.START_TIMEOUT_S)
            banner = self._proc.stdout.readline() if ready else ""
            match = self.BANNER.search(banner)
            if match is None:
                raise SetupError(f"estimator server gave no banner: {banner!r}")
        except BaseException:
            self.close()
            raise
        self.endpoint = f"{match.group(1)}:{match.group(2)}"

    def close(self) -> None:
        if self._proc.poll() is None:
            self._proc.terminate()
            try:
                self._proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        self._proc.stdout.close()
