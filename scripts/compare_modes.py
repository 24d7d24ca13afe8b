#!/usr/bin/env python3
"""Compare online-modeling search against the invoke-everything baseline.

Generates gridworld instances of increasing size with synthetic estimator
chains, runs both modes at each target suboptimality epsilon, and writes
per-run records plus modeling/planning deltas to <out>/results.{csv,json}.

Usage: python3 scripts/compare_modes.py [--sizes 5 8 10] [--seeds 3]
           [--epsilons 1.0 1.5] [--out results/compare]
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from costplan.bench import gen_gridworld, synthetic_manifest_for
from costplan.estimators import SyntheticConfig
from costplan.metrics import RunRecord, compare, emit_report, t_offline_modeling
from costplan.pddl import ground
from costplan.search import SearchConfig, asec, astar_offline


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[5, 8, 10])
    parser.add_argument("--seeds", type=int, default=3)
    parser.add_argument("--epsilons", type=float, nargs="+", default=[1.0, 1.5])
    parser.add_argument("--out", default="results/compare")
    args = parser.parse_args(argv)

    config = SyntheticConfig(cost_range=(5.0, 10.0))
    records, comparisons = [], {}
    for size in args.sizes:
        domain, problem = gen_gridworld(size, size, corner_to_corner=True)
        for seed in range(args.seeds):
            manifest = synthetic_manifest_for(domain, problem, seed, config)
            instance = f"grid{size}#s{seed}"
            task = ground(domain, problem, manifest, name=instance)
            for eps in args.epsilons:
                sc = SearchConfig(epsilon=eps, heuristic="hmax")
                cert_dyn, rep_dyn = asec(task, sc)
                cert_off, rep_off = astar_offline(task, sc)
                records += [
                    RunRecord.from_episode(instance, "asec", eps, cert_dyn, rep_dyn, task),
                    RunRecord.from_episode(instance, "offline", eps, cert_off, rep_off, task),
                ]
                comp = compare(rep_dyn, rep_off)
                comparisons[f"{instance}@eps={eps}"] = comp
                ratio = rep_dyn.t_modeling_ms / t_offline_modeling(manifest)
                print(
                    f"{instance} eps={eps}: {cert_dyn.verdict}, "
                    f"|A_actual|={len(rep_dyn.a_actual)}/{rep_dyn.n}, "
                    f"T_dyn/T_off={ratio:.3f}, "
                    f"dynamic_preferable={comp.dynamic_preferable}"
                )
    csv_path, json_path = emit_report(records, args.out, comparisons)
    print(f"wrote {csv_path} and {json_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
