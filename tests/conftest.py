import os
import time

import pytest

from costplan.manifest import load_manifest
from costplan.pddl import ground, parse_domain, parse_problem
from costplan.search import SearchConfig, oracle_optimal, solve

from helpers import acceptance_instance

DATA = os.path.join(os.path.dirname(__file__), "..", "data", "drive")
ACCEPTANCE_EPSILONS = (1.0, 1.1, 1.5, 2.0)
ACCEPTANCE_INSTANCES = 200


@pytest.fixture(scope="session")
def drive_paths():
    return {
        "domain": os.path.join(DATA, "domain.pddl"),
        "problem": os.path.join(DATA, "problem.pddl"),
        "manifest": os.path.join(DATA, "manifest.json"),
    }


@pytest.fixture(scope="session")
def drive_task(drive_paths):
    with open(drive_paths["domain"]) as fh:
        domain = parse_domain(fh.read())
    with open(drive_paths["problem"]) as fh:
        problem = parse_problem(fh.read())
    manifest = load_manifest(drive_paths["manifest"])
    return ground(domain, problem, manifest)


@pytest.fixture(scope="session")
def suite_runs():
    """All (task, epsilon, C*, certificate, report) acceptance episodes and
    their wall time; shared by acceptance criteria 1, 2 and 4 and the golden
    digests."""
    started = time.perf_counter()
    runs = []
    for index in range(ACCEPTANCE_INSTANCES):
        task = acceptance_instance(index, seed=index)
        c_star = oracle_optimal(task, state_bound=10**4)
        for eps in ACCEPTANCE_EPSILONS:
            cert, report = solve(task, SearchConfig(epsilon=eps))
            runs.append((task, eps, c_star, cert, report))
    return runs, time.perf_counter() - started
