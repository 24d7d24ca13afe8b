"""Instance generation and batch experiment orchestration.

Generators produce desk-scale stand-ins for competition benchmarks in
plain PDDL, so real benchmark files drop in unchanged. A suite file is
JSON:

    {"entries": [{"name": "grid3",
                  "domain": "d.pddl", "problem": "p.pddl",
                  "manifest": "m.json",            # or "synthetic": {...}
                  "seeds": [0, 1], "epsilons": [1.0, 1.5],
                  "modes": ["asec", "offline"],
                  "heuristic": "hmax"}]}

Instead of "domain" and "problem" an entry may give "generate": the name
of a GENERATORS template plus that generator's keyword arguments, e.g.
{"template": "gridworld", "rows": 5, "cols": 5, "corner_to_corner": true}.
The instance is built once per entry; the entry's seeds seed its
synthetic manifests. "synthetic" takes SyntheticConfig's fields.
"""

from __future__ import annotations

import json
import logging
import math
import os
import random
from dataclasses import dataclass

from .errors import ConfigError, PlanningError
from .estimators import SyntheticConfig, generate_synthetic
from .intervals import INF, CostInterval
from .manifest import EstimatorManifest, load_manifest
from .metrics import RunRecord, compare, emit_report
from .pddl import (
    ActionSchema,
    Atom,
    DomainAst,
    PredicateSchema,
    ProblemAst,
    ground,
    parse_domain,
    parse_problem,
)
from .search import HEURISTICS, MODES, SearchConfig

log = logging.getLogger("costplan.bench")


# ---------------------------------------------------------------------------
# Instance generators

def gen_gridworld(
    rows: int, cols: int, seed: int = 0, corner_to_corner: bool = False
) -> tuple:
    """4-connected grid; one zero-ary move schema per directed edge.

    rows x cols cells give rows*cols location facts and
    2*(rows*(cols-1) + cols*(rows-1)) move actions. Always solvable.
    """
    if rows < 1 or cols < 1:
        raise ConfigError("grid sizes must be >= 1")

    def at(r, c):
        return Atom(f"at-{r}-{c}", ())

    cells = [(r, c) for r in range(rows) for c in range(cols)]
    predicates = tuple(PredicateSchema(at(r, c).predicate, ()) for r, c in cells)
    actions = []
    for r, c in cells:
        for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            r2, c2 = r + dr, c + dc
            if 0 <= r2 < rows and 0 <= c2 < cols:
                actions.append(
                    ActionSchema(
                        name=f"move-{r}-{c}-{r2}-{c2}",
                        params=(),
                        pre=(at(r, c),),
                        add=(at(r2, c2),),
                        delete=(at(r, c),),
                    )
                )
    domain = DomainAst(
        name="gridworld",
        requirements=(":strips",),
        types=(),
        predicates=predicates,
        actions=tuple(actions),
    )
    if corner_to_corner:
        start, goal = (0, 0), (rows - 1, cols - 1)
    else:
        rng = random.Random(seed)
        start = rng.choice(cells)
        goal = rng.choice(cells)
    problem = ProblemAst(
        name=f"grid-{rows}x{cols}-s{seed}",
        domain="gridworld",
        objects=(),
        init=(at(*start),),
        goal=(at(*goal),),
    )
    return domain, problem


def gen_logistics(
    trucks: int, cities: int, packages: int, seed: int = 0
) -> tuple:
    """Trucks drive between fully connected cities; packages load/unload.

    Ground action count: trucks*cities*(cities-1) drives plus
    2*packages*trucks*cities load/unload pairs.
    """
    if trucks < 1 or cities < 1 or packages < 0:
        raise ConfigError("logistics sizes must be >= 1 (packages >= 0)")
    domain = DomainAst(
        name="logistics",
        requirements=(":strips", ":typing"),
        types=(("truck", "object"), ("city", "object"), ("pkg", "object")),
        predicates=(
            PredicateSchema("truck-at", (("?t", "truck"), ("?c", "city"))),
            PredicateSchema("pkg-at", (("?p", "pkg"), ("?c", "city"))),
            PredicateSchema("in-truck", (("?p", "pkg"), ("?t", "truck"))),
        ),
        actions=(
            ActionSchema(
                name="drive",
                params=(("?t", "truck"), ("?from", "city"), ("?to", "city")),
                pre=(Atom("truck-at", ("?t", "?from")),),
                add=(Atom("truck-at", ("?t", "?to")),),
                delete=(Atom("truck-at", ("?t", "?from")),),
            ),
            ActionSchema(
                name="load",
                params=(("?p", "pkg"), ("?t", "truck"), ("?c", "city")),
                pre=(Atom("pkg-at", ("?p", "?c")), Atom("truck-at", ("?t", "?c"))),
                add=(Atom("in-truck", ("?p", "?t")),),
                delete=(Atom("pkg-at", ("?p", "?c")),),
            ),
            ActionSchema(
                name="unload",
                params=(("?p", "pkg"), ("?t", "truck"), ("?c", "city")),
                pre=(Atom("in-truck", ("?p", "?t")), Atom("truck-at", ("?t", "?c"))),
                add=(Atom("pkg-at", ("?p", "?c")),),
                delete=(Atom("in-truck", ("?p", "?t")),),
            ),
        ),
    )
    rng = random.Random(seed)
    city_names = [f"c{i}" for i in range(cities)]
    objects = (
        tuple((f"t{i}", "truck") for i in range(trucks))
        + tuple((c, "city") for c in city_names)
        + tuple((f"p{i}", "pkg") for i in range(packages))
    )
    init = [Atom("truck-at", (f"t{i}", rng.choice(city_names))) for i in range(trucks)]
    goal = []
    for i in range(packages):
        init.append(Atom("pkg-at", (f"p{i}", rng.choice(city_names))))
        goal.append(Atom("pkg-at", (f"p{i}", rng.choice(city_names))))
    if not goal:
        goal = [init[0]]  # keep the goal nonempty: first truck stays locatable
    problem = ProblemAst(
        name=f"log-{trucks}t{cities}c{packages}p-s{seed}",
        domain="logistics",
        objects=objects,
        init=tuple(init),
        goal=tuple(goal),
    )
    return domain, problem


#: Suite "generate" template -> instance generator returning (domain, problem).
GENERATORS = {"gridworld": gen_gridworld, "logistics": gen_logistics}

EMPTY_MANIFEST = EstimatorManifest(default_prior=CostInterval(0.0, INF), entries=())


def synthetic_manifest_for(
    domain: DomainAst, problem: ProblemAst, seed: int, config: SyntheticConfig
) -> EstimatorManifest:
    """Ground once with bare priors to enumerate actions, then attach chains."""
    skeleton = ground(domain, problem, EMPTY_MANIFEST)
    return generate_synthetic(skeleton, seed, config)


# ---------------------------------------------------------------------------
# Suite running

@dataclass(frozen=True)
class SuiteEntry:
    name: str
    domain: str | None  # PDDL paths; None when generated
    problem: str | None
    generate: dict | None  # "template" plus generator keyword arguments
    manifest: str | None  # path; None when synthetic
    synthetic: SyntheticConfig | None
    seeds: tuple
    epsilons: tuple
    modes: tuple
    heuristic: str = "hmax"


def _entry_from_json(i: int, raw: dict) -> SuiteEntry:
    if not isinstance(raw, dict):
        raise ConfigError(f"suite entry {i}: must be an object")
    if ("domain" in raw, "problem" in raw, "generate" in raw) not in (
        (True, True, False), (False, False, True)
    ):
        raise ConfigError(f"suite entry {i}: give domain and problem, or generate")
    if not isinstance(raw.get("generate", {}), dict):
        raise ConfigError(f"suite entry {i}: generate must be an object")
    for key in ("seeds", "epsilons", "modes"):
        if not isinstance(raw.get(key, []), list):
            raise ConfigError(f"suite entry {i}: {key} must be a list")
    seeds = tuple(raw.get("seeds", [0]))
    if not seeds:
        raise ConfigError(f"suite entry {i}: seeds must be nonempty")
    try:
        epsilons = tuple(float(e) for e in raw.get("epsilons", [1.0]))
    except (TypeError, ValueError):
        raise ConfigError(f"suite entry {i}: epsilons must be numbers") from None
    if any(e < 1.0 for e in epsilons):
        raise ConfigError(f"suite entry {i}: epsilons must all be >= 1")
    modes = tuple(raw.get("modes", list(MODES)))
    for mode in modes:
        if not isinstance(mode, str) or mode not in MODES:
            raise ConfigError(f"suite entry {i}: unknown mode {mode!r}")
    heuristic = raw.get("heuristic", "hmax")
    if heuristic not in HEURISTICS:
        raise ConfigError(f"suite entry {i}: unknown heuristic {heuristic!r}")
    synthetic = None
    if "synthetic" in raw:
        if not isinstance(raw["synthetic"], dict):
            raise ConfigError(f"suite entry {i}: synthetic must be an object")
        params = dict(raw["synthetic"])
        if "cost_range" in params:
            params["cost_range"] = tuple(params["cost_range"])
        try:
            synthetic = SyntheticConfig(**params)
            synthetic.validate()
        except (TypeError, ConfigError) as exc:
            raise ConfigError(f"suite entry {i}: synthetic: {exc}") from None
    elif "manifest" not in raw:
        raise ConfigError(f"suite entry {i}: need 'manifest' or 'synthetic'")
    return SuiteEntry(
        name=raw.get("name", f"entry{i}"), domain=raw.get("domain"),
        problem=raw.get("problem"), generate=raw.get("generate"),
        manifest=raw.get("manifest"), synthetic=synthetic, seeds=seeds,
        epsilons=epsilons, modes=modes, heuristic=heuristic,
    )


def load_suite(path) -> tuple:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    entries = doc.get("entries", []) if isinstance(doc, dict) else None
    if not isinstance(entries, list):
        raise ConfigError("suite: need an object whose 'entries' is a list")
    return tuple(_entry_from_json(i, raw) for i, raw in enumerate(entries))


def _instance(entry: SuiteEntry) -> tuple:
    """(domain, problem) ASTs of an entry: generated, or parsed from its files."""
    if entry.generate is None:
        with open(entry.domain, "r", encoding="utf-8") as fh:
            domain = parse_domain(fh.read())
        with open(entry.problem, "r", encoding="utf-8") as fh:
            return domain, parse_problem(fh.read())
    params = dict(entry.generate)
    template = params.pop("template", None)
    generator = GENERATORS.get(str(template))
    if generator is None:
        raise ConfigError(f"unknown template {template!r}")
    try:
        return generator(**params)
    except TypeError as exc:
        raise ConfigError(f"{template}: {exc}") from None


def run_suite(suite, outdir) -> tuple:
    """Run every (entry, seed, epsilon, mode) combination into result rows.

    Any Exception while reading or generating an instance, grounding it or
    running it becomes one error row for what failed (see _error_status);
    the batch goes on. KeyboardInterrupt still ends the batch. Writes
    results.csv/.json in outdir and one report pair per run under
    outdir/runs/; deterministic given the seeds.
    """
    runs_dir = os.path.join(outdir, "runs")
    os.makedirs(runs_dir, exist_ok=True)  # creates outdir too
    records = []
    comparisons = {}
    for entry in suite:
        try:
            domain, problem = _instance(entry)
        except Exception as exc:
            kind = "parse" if entry.generate is None else "generate"
            records.append(_failure_record(entry.name, _error_status(kind, exc, entry.name)))
            continue
        for seed in entry.seeds:
            instance = f"{entry.name}#s{seed}"
            try:
                if entry.synthetic is not None:
                    manifest = synthetic_manifest_for(domain, problem, seed, entry.synthetic)
                else:
                    manifest = load_manifest(entry.manifest)
                task = ground(domain, problem, manifest, name=instance)
            except Exception as exc:
                records.append(_failure_record(instance, _error_status("ground", exc, instance)))
                continue
            for epsilon in entry.epsilons:
                reports = {}
                for mode in entry.modes:
                    config = SearchConfig(epsilon=epsilon, heuristic=entry.heuristic)
                    try:
                        cert, report = MODES[mode](task, config)
                    except Exception as exc:
                        where = f"{instance}, epsilon {epsilon}, mode {mode}"
                        status = _error_status("run", exc, where)
                        records.append(_failure_record(instance, status, mode, epsilon))
                        continue
                    reports[mode] = report
                    records.append(RunRecord.from_episode(cert, report, task))
                    run_name = f"{instance}_e{epsilon}_{mode}".replace("#", "_")
                    emit_report(records[-1:], os.path.join(runs_dir, run_name))
                if "asec" in reports and "offline" in reports:
                    comparisons[f"{instance}@eps={epsilon}"] = compare(
                        reports["asec"], reports["offline"]
                    )
    return emit_report(records, os.path.join(outdir, "results"), comparisons)


def _error_status(kind: str, exc: Exception, where: str) -> str:
    """``<kind>-error: <msg>`` for a PlanningError or OSError (a fault in the
    inputs); otherwise ``<kind>-error: <Type>: <msg>``, its traceback logged."""
    if isinstance(exc, (PlanningError, OSError)):
        return f"{kind}-error: {exc}"
    log.error("%s: %s failed", where, kind, exc_info=exc)
    return f"{kind}-error: {type(exc).__name__}: {exc}"


def _failure_record(instance, status, mode="", epsilon=math.nan) -> RunRecord:
    return RunRecord(
        instance=instance, mode=mode, epsilon=epsilon, n=0, a_actual=0, calls=0,
        t_modeling_ms=0.0, t_planning_ms=0.0, t_avg_ms=0.0, plan_lb=None, plan_ub=None,
        verdict="error", status=status,
    )
