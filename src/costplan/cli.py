"""Command-line entry point.

Exit codes: 0 success, 1 planner returned uncertified or found no plan
(outputs are still written), 2 usage or parse errors. Set ASEC_LOG to a
logging level name (DEBUG, INFO, ...) to control verbosity.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import inspect
import logging
import math
import os
import sys

from .bench import GENERATORS, load_suite, run_suite, synthetic_manifest_for
from .errors import PlanningError
from .estimators import EstimatorRegistry, SyntheticConfig
from .manifest import load_manifest, manifest_to_json
from .metrics import RunRecord, compare, emit_report
from .pddl import ground, parse_domain, parse_problem, print_domain, print_problem
from .remote import MockEstimatorServer, RemoteEstimatorClient
from .search import HEURISTICS, MODES, SearchConfig, solve


def _port(text: str, low: int = 0) -> int:
    """An argparse type: a TCP port number in low-65535."""
    if not (text.isascii() and text.isdigit() and low <= int(text) <= 65535):
        raise argparse.ArgumentTypeError(f"port must be an integer in {low}-65535, not {text!r}")
    return int(text)


def _endpoint(text: str) -> tuple:
    """An argparse type: HOST:PORT, a port in 1-65535; an empty HOST is 127.0.0.1."""
    host, sep, port = text.rpartition(":")
    if not sep:
        raise argparse.ArgumentTypeError(f"endpoint must be HOST:PORT, not {text!r}")
    return host or "127.0.0.1", _port(port, low=1)


def _add_plan_flags(sub):
    sub.add_argument("--domain", required=True)
    sub.add_argument("--problem", required=True)
    sub.add_argument("--manifest", required=True)
    sub.add_argument("--epsilon", type=float, default=1.0)
    sub.add_argument("--heuristic", choices=HEURISTICS, default="hmax")
    sub.add_argument("--real-latency", action="store_true")
    sub.add_argument("--endpoint", type=_endpoint, help="host:port of a remote estimator")
    sub.add_argument("--out", default=None, help="output path prefix for CSV/JSON reports")


@functools.cache  # built once per process: parsing never changes a parser
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="costplan",
        description="Planner with online interval-valued action-cost estimation.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    plan = subs.add_parser("plan", help="solve one instance")
    _add_plan_flags(plan)
    plan.add_argument("--mode", choices=MODES, default="asec")

    comp = subs.add_parser("compare", help="run both modes and compare accounting")
    _add_plan_flags(comp)

    bench = subs.add_parser("bench", help="run a suite file")
    bench.add_argument("--suite", required=True)
    bench.add_argument("--out", required=True, help="output directory")

    gen_est = subs.add_parser("gen-estimators", help="attach synthetic chains to a task")
    gen_est.add_argument("--domain", required=True)
    gen_est.add_argument("--problem", required=True)
    gen_est.add_argument("--seed", type=int, default=0)
    gen_est.add_argument("--levels", type=int, default=SyntheticConfig.levels)
    gen_est.add_argument("--time-scale", type=float, default=SyntheticConfig.time_scale)
    gen_est.add_argument("--base-time-ms", type=float, default=SyntheticConfig.base_time_ms)
    gen_est.add_argument("--width", type=float, default=SyntheticConfig.width)
    gen_est.add_argument("--decay", type=float, default=SyntheticConfig.decay)
    gen_est.add_argument("--no-exact-final", action="store_true")
    gen_est.add_argument("--cost-min", type=float, default=SyntheticConfig.cost_range[0])
    gen_est.add_argument("--cost-max", type=float, default=SyntheticConfig.cost_range[1])
    gen_est.add_argument("--out", required=True, help="manifest output path")

    gen_inst = subs.add_parser("gen-instances", help="generate PDDL instances")
    gen_inst.add_argument("--template", choices=list(GENERATORS), required=True)
    gen_inst.add_argument("--rows", type=int, default=3)
    gen_inst.add_argument("--cols", type=int, default=3)
    gen_inst.add_argument("--corner-to-corner", action="store_true")
    gen_inst.add_argument("--trucks", type=int, default=1)
    gen_inst.add_argument("--cities", type=int, default=3)
    gen_inst.add_argument("--packages", type=int, default=1)
    gen_inst.add_argument("--seed", type=int, default=0)
    gen_inst.add_argument("--out", required=True, help="output directory")

    serve = subs.add_parser("serve-estimators", help="serve a manifest over TCP")
    serve.add_argument("--manifest", required=True)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=_port, default=7007)
    return parser


def _load_task(args):
    with open(args.domain, "r", encoding="utf-8") as fh:
        domain = parse_domain(fh.read())
    with open(args.problem, "r", encoding="utf-8") as fh:
        problem = parse_problem(fh.read())
    manifest = load_manifest(args.manifest)
    return ground(domain, problem, manifest)


def _remote(args):
    """The --endpoint client, closed on exit; a context holding None without one."""
    if args.endpoint is None:
        return contextlib.nullcontext()
    return RemoteEstimatorClient(*args.endpoint)


def _registry(task, args, remote) -> EstimatorRegistry:
    return EstimatorRegistry(task, remote=remote, real_latency=args.real_latency)


def _print_certificate(task, cert, report):
    if cert.plan is None:
        print("no plan found")
    else:
        print(f"plan ({len(cert.plan)} steps):")
        for action_id in cert.plan:
            print(f"  {task.actions[action_id].name}")
    upper = "inf" if math.isinf(cert.upper) else f"{cert.upper:.6g}"
    print(f"cost bound: [{cert.lower:.6g}, {upper}]  (epsilon={cert.epsilon:g})")
    print(f"verdict: {cert.verdict}")
    print(
        f"estimator calls: {len(report.calls)} over {len(report.a_actual)}/{report.n} actions, "
        f"{report.t_modeling_ms:.6g} ms modeling, {report.t_planning_ms:.6g} ms planning"
    )


def _cmd_plan(args) -> int:
    config = SearchConfig(epsilon=args.epsilon, heuristic=args.heuristic, mode=args.mode)
    task = _load_task(args)
    with _remote(args) as remote:
        cert, report = solve(task, config, _registry(task, args, remote))
    _print_certificate(task, cert, report)
    if args.out:
        paths = emit_report([RunRecord.from_episode(cert, report, task)], args.out)
        print(f"wrote {paths[0]} and {paths[1]}")
    return 0 if cert.verdict == "certified" else 1


def _cmd_compare(args) -> int:
    configs = [SearchConfig(args.epsilon, args.heuristic, mode=mode) for mode in MODES]
    task = _load_task(args)
    with _remote(args) as remote:  # one client serves both registries
        (cert_dyn, rep_dyn), (cert_off, rep_off) = [
            solve(task, config, _registry(task, args, remote)) for config in configs]
    comparison = compare(rep_dyn, rep_off)
    print(f"dynamic : modeling {rep_dyn.t_modeling_ms:.6g} ms, "
          f"planning {rep_dyn.t_planning_ms:.6g} ms, verdict {cert_dyn.verdict}")
    print(f"offline : modeling {rep_off.t_modeling_ms:.6g} ms, "
          f"planning {rep_off.t_planning_ms:.6g} ms, verdict {cert_off.verdict}")
    print(f"delta_modeling_ms: {comparison.delta_modeling_ms:.6g}")
    print(f"delta_planning_ms: {comparison.delta_planning_ms:.6g}")
    print(f"dynamic preferable: {comparison.dynamic_preferable}")
    if args.out:
        records = [RunRecord.from_episode(cert_dyn, rep_dyn, task),
                   RunRecord.from_episode(cert_off, rep_off, task)]
        emit_report(records, args.out, {"comparison": comparison})
    return 0 if cert_dyn.verdict == "certified" else 1


def _cmd_bench(args) -> int:
    suite = load_suite(args.suite)
    csv_path, json_path = run_suite(suite, args.out)
    print(f"wrote {csv_path} and {json_path}")
    return 0


def _cmd_gen_estimators(args) -> int:
    with open(args.domain, "r", encoding="utf-8") as fh:
        domain = parse_domain(fh.read())
    with open(args.problem, "r", encoding="utf-8") as fh:
        problem = parse_problem(fh.read())
    config = SyntheticConfig(
        levels=args.levels,
        time_scale=args.time_scale,
        base_time_ms=args.base_time_ms,
        width=args.width,
        decay=args.decay,
        exact_final=not args.no_exact_final,
        cost_range=(args.cost_min, args.cost_max),
    )
    manifest = synthetic_manifest_for(domain, problem, args.seed, config)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(manifest_to_json(manifest))
        fh.write("\n")
    print(f"wrote {args.out} ({len(manifest.entries)} chains)")
    return 0


def _cmd_gen_instances(args) -> int:
    generator = GENERATORS[args.template]
    params = inspect.signature(generator).parameters  # the template's own flags
    domain, problem = generator(**{k: v for k, v in vars(args).items() if k in params})
    os.makedirs(args.out, exist_ok=True)
    domain_path = os.path.join(args.out, "domain.pddl")
    problem_path = os.path.join(args.out, "problem.pddl")
    with open(domain_path, "w", encoding="utf-8") as fh:
        fh.write(print_domain(domain))
    with open(problem_path, "w", encoding="utf-8") as fh:
        fh.write(print_problem(problem))
    print(f"wrote {domain_path} and {problem_path}")
    return 0


def _cmd_serve(args) -> int:
    manifest = load_manifest(args.manifest)
    server = MockEstimatorServer(manifest, host=args.host, port=args.port)
    print(f"serving {len(manifest.entries)} chains on {args.host}:{server.port}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
    return 0


COMMANDS = {
    "plan": _cmd_plan,
    "compare": _cmd_compare,
    "bench": _cmd_bench,
    "gen-estimators": _cmd_gen_estimators,
    "gen-instances": _cmd_gen_instances,
    "serve-estimators": _cmd_serve,
}


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("ASEC_LOG", "WARNING").upper())
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return COMMANDS[args.command](args)
    except (PlanningError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
