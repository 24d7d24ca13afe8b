"""Golden digests: every pinned episode's outputs hash as recorded.

``golden_digests.json`` holds one sha256 per episode: for the acceptance
episodes over the certificate (plan, bounds, verdict), the estimator ledger
and the expansion count; for ``costplan plan`` runs over the exit code,
stdout and the CSV/JSON reports. A change that is meant to keep outputs
byte-identical must leave every digest as it is. A change that moves outputs
on purpose replaces the file's section with the table the failing test prints.
"""

import hashlib
import json
import os
from pathlib import Path

import pytest

from costplan.bench import gen_gridworld, gen_logistics, synthetic_manifest_for
from costplan.cli import main
from costplan.estimators import SyntheticConfig
from costplan.manifest import manifest_to_json
from costplan.pddl import print_domain, print_problem
from costplan.search import MS_PER_EXPANSION

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_digests.json")
#: Chain shape of the benchmark's synthetic manifests.
CLI_CONFIG = SyntheticConfig(levels=3, cost_range=(5.0, 10.0))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_golden(section: str, digests: dict) -> None:
    with open(GOLDEN, encoding="utf-8") as fh:
        expected = json.load(fh)[section]
    moved = sorted(key for key in {*expected, *digests} if expected.get(key) != digests.get(key))
    if moved:
        print(json.dumps({section: digests}, indent=1, sort_keys=True))
    assert not moved, f"{len(moved)} {section} digests differ (old -> new):\n" + "\n".join(
        f"{key}: {expected.get(key)} -> {digests.get(key)}" for key in moved
    )


def test_acceptance_episodes_match_golden(suite_runs):
    runs, _ = suite_runs
    digests = {}
    for task, eps, _, cert, report in runs:
        ledger = tuple((e.action_id, e.level, e.time_ms, e.failed) for e in report.calls)
        expansions = round(report.t_planning_ms / MS_PER_EXPANSION)
        episode = (cert.plan, cert.lower, cert.upper, cert.verdict, ledger, expansions)
        digests[f"{task.name}@{eps}"] = sha256(repr(episode))
    check_golden("acceptance", digests)


@pytest.fixture(scope="module")
def cli_instances(tmp_path_factory, drive_paths):
    """name -> (domain, problem, manifest) paths of the pinned plan inputs."""
    instances = {"drive": (drive_paths["domain"], drive_paths["problem"], drive_paths["manifest"])}
    generated = {
        "grid8x8": gen_gridworld(8, 8, corner_to_corner=True),
        "logistics1t3c2p": gen_logistics(1, 3, 2, seed=0),
    }
    for name, (domain, problem) in generated.items():
        root = tmp_path_factory.mktemp(name)
        texts = {
            "domain.pddl": print_domain(domain),
            "problem.pddl": print_problem(problem),
            "manifest.json": manifest_to_json(synthetic_manifest_for(domain, problem, 0, CLI_CONFIG)),
        }
        for file_name, text in texts.items():
            (root / file_name).write_text(text, encoding="utf-8")
        instances[name] = tuple(str(root / file_name) for file_name in texts)
    return instances


def test_plan_outputs_match_golden(cli_instances, tmp_path, capsys):
    digests = {}
    for name, (domain, problem, manifest) in cli_instances.items():
        for mode in ("asec", "offline"):
            for heuristic in ("blind", "hmax"):
                for epsilon in ("1", "1.5"):
                    key = f"{name}/{mode}/{heuristic}/e{epsilon}"
                    out = tmp_path / key.replace("/", "_")
                    code = main([
                        "plan", "--domain", domain, "--problem", problem, "--manifest", manifest,
                        "--mode", mode, "--heuristic", heuristic, "--epsilon", epsilon,
                        "--out", str(out),
                    ])
                    stdout = capsys.readouterr().out.replace(str(tmp_path), "")
                    reports = [Path(f"{out}.{ext}").read_text(encoding="utf-8")
                               for ext in ("csv", "json")]
                    digests[key] = sha256("\0".join([str(code), stdout, *reports]))
    check_golden("plan", digests)
