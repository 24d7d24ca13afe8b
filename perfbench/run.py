#!/usr/bin/env python3
"""costplan benchmark: PDDL files on disk to a certified plan.

    python3 perfbench/run.py --workload grid-asec-hmax --seed 1 --seconds 30 --trace 0

Each episode is `costplan plan ...` run in process through `cli.main`, over
files written during set-up. Episodes run one after another (closed loop, one
caller) in whole passes over the workload's instance set, for at least two
passes and until --seconds of passes have passed. A fresh set-up precedes
every pass, and more follow the last pass until there are SETUPS of them.
Host-speed probes (hostspeed.py) run between episodes. Every report is
checked.

--trace 0 prints the end-to-end metrics, stated at the reference host speed
with the measured values beside them. --trace 1 runs every episode untraced
and then traced, prints the per-layer metrics and writes the spans under
.perfbench_work/. The last line of stdout is the JSON result; the exit code is
0 when every episode passed its checks and 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import resource
import shutil
import signal
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
SRC = ROOT / "src"
if not (SRC / "costplan" / "__init__.py").is_file():
    sys.exit(f"perfbench: no costplan sources under {SRC}")
sys.path.insert(0, str(SRC))

from hostspeed import at_reference, probe_for  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    EPSILON,
    WORKLOADS,
    EstimatorServer,
    Instance,
    SetupError,
    plan_argv,
    read_report,
    report_paths,
    run_cli,
    write_instances,
)

#: Set-ups per untraced run, spread over it: one before each pass, the rest
#: after the last. setup_s is their median.
SETUPS = 6

#: Probe time as a share of the time of the episode or set-up next to it
#: (see run_pass and hostspeed.py).
PROBE_SHARE = 0.08

#: An episode is stated at reference speed with the probes of the episodes
#: up to WINDOW before and after it; slow phases of the host last seconds.
WINDOW = 2

UNITS = {
    "certs_per_s": "1/s",
    "episode_ms_p50": "ms",
    "time_to_cert_ms_p50": "ms",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
    "pddl.parse_ms": "ms",
    "pddl.ground_ms": "ms",
    "pddl.ground_actions": "count",
    "manifest.load_ms": "ms",
    "search.astar_ms": "ms",
    "search.make_heuristic_ms": "ms",
    "search.replans": "count",
    "search.expansions": "count",
    "search.us_per_expansion": "us",
    "search.last_replan_share": "share",
    "search.heuristic_evals": "count",
    "search.heuristic_ms": "ms",
    "search.us_per_heuristic_eval": "us",
    "estimators.calls": "count",
    "estimators.charged_ms": "ms",
    "estimators.invoke_ms": "ms",
    "estimators.on_plan_share": "share",
    "remote.calls": "count",
    "remote.rtt_ms_p50": "ms",
    "remote.rtt_ms_p99": "ms",
    "remote.errors": "count",
    "metrics.emit_ms": "ms",
    "trace.overhead_share": "share",
    "trace.unaccounted_share": "share",
    "tradeoff.modeling_saved_ms": "ms",
    "tradeoff.proxy_planning_ms": "ms",
    "tradeoff.astar_over_proxy": "ratio",
    "host.slowdown": "ratio",
}


@dataclass
class Setup:
    instances: list
    out: Path
    endpoint: str | None = None


@dataclass
class Episode:
    instance: Instance
    wall_s: float
    traced: bool
    failures: list
    charged_ms: float = 0.0
    proxy_ms: float = 0.0
    probes: list = field(default_factory=list)  # probe times just before it


def set_up(workload, seed: int, stack: contextlib.ExitStack, references: dict) -> Setup:
    """Write the inputs, compute the references, start the server, warm up.

    `references` maps an instance to the (csv, json) report bytes every
    episode must reproduce; it outlives the set-up, so set-ups and passes are
    checked against each other. The server lives until `stack` closes, which
    happens before the next set-up: one server sees one pass, so its client
    connections (one per call) stay well inside the ephemeral port range.
    """
    state = Setup(write_instances(workload, seed, WORK / "inputs"), WORK / "out")
    shutil.rmtree(state.out, ignore_errors=True)
    state.out.mkdir(parents=True)
    if workload.remote:
        for inst in state.instances:
            local = state.out / f"{inst.name}.local"
            run_cli(plan_argv(workload, inst, local))
            references.setdefault(inst.name, read_report(local))
        server = EstimatorServer(ROOT, state.instances[0].manifest)
        stack.callback(server.close)
        state.endpoint = server.endpoint
    run_cli(plan_argv(workload, state.instances[0], state.out / "warmup", state.endpoint))
    return state


def check(inst: Instance, code: int, report: tuple, reference: tuple) -> tuple:
    """Failures of one episode's outputs, plus its charged and proxy ms."""
    failures = [] if code == 0 else [f"exit code {code}"]
    if report != reference:
        failures.append("report bytes differ from the reference run")
    rows = list(csv.DictReader(io.StringIO(report[0].decode("utf-8"))))
    if len(rows) != 1:
        return failures + [f"report has {len(rows)} rows"], 0.0, 0.0
    row = rows[0]
    if row["verdict"] != "certified":
        return failures + [f"verdict {row['verdict']}"], 0.0, 0.0
    lb, ub, true = float(row["plan_lb"]), float(row["plan_ub"]), float(row["true_plan_cost"])
    if not lb <= true <= ub:
        failures.append(f"true cost {true} outside [{lb}, {ub}]")
    if ub > EPSILON * lb + 1e-9:
        failures.append(f"ub {ub} > epsilon * lb {lb}")
    if true > EPSILON * inst.c_star + 1e-9:
        failures.append(f"true cost {true} > epsilon * C* {inst.c_star}")
    return failures, float(row["t_modeling_ms"]), float(row["t_planning_ms"])


def run_episode(workload, inst: Instance, state: Setup, references: dict, tracer=None) -> Episode:
    out = state.out / inst.name
    for stale in report_paths(out):  # a missing report must not read as the last one
        stale.unlink(missing_ok=True)
    argv = plan_argv(workload, inst, out, state.endpoint)
    first_span = len(tracer.spans) if tracer else 0
    start = perf_counter()
    try:
        if tracer is None:
            code, stdout = run_cli(argv)
        else:
            with tracer.span("episode") as attrs:
                code, stdout = run_cli(argv)
            attrs["instance"] = inst.name
            attrs["plan"] = [line.strip() for line in stdout.splitlines() if line.startswith("  ")]
    except Exception as exc:  # a crash is a failed episode, not a failed benchmark
        return Episode(inst, perf_counter() - start, tracer is not None, [f"raised {exc!r}"])
    wall = perf_counter() - start
    try:
        report = read_report(out)
        reference = references.setdefault(inst.name, report)
        failures, charged, proxy = check(inst, code, report, reference)
    except (OSError, KeyError, ValueError) as exc:
        return Episode(inst, wall, tracer is not None, [f"unreadable report: {exc!r}"])
    # Untraced runs see a swallowed remote error as a report that differs
    # from the local reference; traced runs also count it directly.
    if tracer is not None and tracer.remote_errors(first_span):
        failures.append(f"{tracer.remote_errors(first_span)} EstimatorUnavailableError")
    return Episode(inst, wall, tracer is not None, failures, charged, proxy)


def run_pass(workload, state: Setup, references: dict, tracer=None) -> list:
    """One episode per instance; with a tracer, an untraced then a traced one.

    Host-speed probes run before each untraced episode, for PROBE_SHARE of
    the previous episode's time, and are kept on it. Pairing each traced
    episode with an untraced one just before it keeps machine-speed drift out
    of trace.overhead_share.
    """
    episodes = []
    last_s = 0.0
    for inst in state.instances:
        probes = probe_for(last_s, PROBE_SHARE)
        episodes.append(run_episode(workload, inst, state, references))
        episodes[-1].probes = probes
        last_s = episodes[-1].wall_s
        if tracer is not None:
            with tracer.patched():
                episodes.append(run_episode(workload, inst, state, references, tracer))
    return episodes


def _percentile_line(walls_ms: list) -> str:
    """Median plus the highest percentile with at least 10 samples beyond it."""
    n = len(walls_ms)
    cuts = statistics.quantiles(walls_ms, n=100) if n >= 2 else []
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            return f"{n} samples; p{p} {cuts[p - 1]:.4f} ms"
    return f"{n} samples; too few for a tail percentile"


def reference_walls(episodes) -> list:
    """Each untraced episode's wall seconds at reference host speed."""
    untraced = [e for e in episodes if not e.traced]
    return [
        at_reference(e.wall_s, [p for near in untraced[max(0, i - WINDOW): i + WINDOW + 1]
                                for p in near.probes])
        for i, e in enumerate(untraced)
    ]


def end_to_end(state, episodes, elapsed, setups) -> dict:
    """The gated metrics; every time is stated at the reference host speed.

    Each episode and set-up is scaled by the probes next to it (hostspeed.py
    says why); `certs_per_s` by the run's slowdown, its measured episode time
    over its time at reference speed. The measured values are printed beside
    them.
    """
    ref_s = reference_walls(episodes)
    slowdown = sum(e.wall_s for e in episodes) / sum(ref_s)
    ok = [e for e in episodes if not e.failures]
    walls_ms = [e.wall_s * 1000 for e in episodes]
    raw = {
        "certs_per_s": len(ok) / elapsed,
        "episode_ms_p50": statistics.median(walls_ms),
        "time_to_cert_ms_p50":
            statistics.median(e.charged_ms + e.wall_s * 1000 for e in ok) if ok else 0.0,
        "setup_s": statistics.median(seconds for seconds, _ in setups),
    }
    metrics = {
        "certs_per_s": raw["certs_per_s"] * slowdown,
        "episode_ms_p50": statistics.median(ref_s) * 1000,
        "time_to_cert_ms_p50": statistics.median(
            e.charged_ms + s * 1000 for e, s in zip(episodes, ref_s) if not e.failures
        ) if ok else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(at_reference(*setup) for setup in setups),
    }
    first_pass = episodes[: len(state.instances)]
    print(f"host slowdown        {slowdown:.4f}  (measured episode time over its time at "
          f"reference speed, from {sum(len(e.probes) for e in episodes)} probes; "
          f"measured values in brackets)")
    print(f"certs_per_s          {metrics['certs_per_s']:.4f} 1/s  "
          f"[{raw['certs_per_s']:.4f}]")
    print(f"episode_ms_p50       {metrics['episode_ms_p50']:.4f} ms  "
          f"[{raw['episode_ms_p50']:.4f}]  ({_percentile_line(walls_ms)}, measured)")
    print(f"time_to_cert_ms_p50  {metrics['time_to_cert_ms_p50']:.4f} ms  "
          f"[{raw['time_to_cert_ms_p50']:.4f}]  (charged + wall)")
    print(f"modeling_charged_ms  {sum(e.charged_ms for e in first_pass):.4f} ms  "
          f"(ledger sum per pass; deterministic, so printed but not gated)")
    print(f"failed_share         {(len(episodes) - len(ok)) / len(episodes):.4f}  "
          f"({len(episodes) - len(ok)}/{len(episodes)}; also the result's failed/attempted)")
    print(f"peak_rss_mb          {metrics['peak_rss_mb']:.4f} MiB")
    print(f"setup_s              {metrics['setup_s']:.4f} s  [{raw['setup_s']:.4f}]  "
          f"(measured median of {', '.join(f'{t:.3f}' for t, _ in setups)})")
    return metrics


def per_layer(tracer, episodes) -> dict:
    """Per-layer metrics as measured; host.slowdown says how fast the host ran."""
    metrics, self_ms = tracer.layer_metrics()
    metrics["host.slowdown"] = (
        sum(e.wall_s for e in episodes if not e.traced) / sum(reference_walls(episodes)))
    traced = [e for e in episodes if e.traced]
    untraced_s = sum(e.wall_s for e in episodes if not e.traced)
    metrics["trace.overhead_share"] = sum(e.wall_s for e in traced) / untraced_s - 1
    n = len(traced)
    saved = sum(e.instance.offline_modeling_ms - e.charged_ms for e in traced) / n
    proxy = sum(e.proxy_ms for e in traced) / n
    metrics["tradeoff.modeling_saved_ms"] = saved
    metrics["tradeoff.proxy_planning_ms"] = proxy
    metrics["tradeoff.astar_over_proxy"] = metrics["search.astar_ms"] / proxy if proxy else 0.0

    episode_ms = sum(e.wall_s for e in traced) * 1000 / n
    print(f"layer self time per traced episode ({n} episodes, {episode_ms:.3f} ms each):")
    for layer, ms in sorted(self_ms.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:24s} {ms:12.4f} ms  {ms / episode_ms:7.2%}")
    print(f"trade-off per episode: modeling saved vs offline {saved:.1f} ms; "
          f"measured A* {metrics['search.astar_ms']:.1f} ms; "
          f"0.01 ms/expansion proxy {proxy:.1f} ms")
    for name, value in metrics.items():
        print(f"{name:30s} {value:.6g} {UNITS[name]}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    tracer = Tracer() if args.trace else None
    min_passes, min_setups = (1, 1) if tracer else (2, SETUPS)
    setups, episodes, references = [], [], {}  # setups: (seconds, probe times)
    elapsed = 0.0  # wall time of the passes, without the probes
    passes = 0
    stack = contextlib.ExitStack()  # owns the estimator server of the current set-up
    try:
        while passes < min_passes or elapsed < args.seconds or len(setups) < min_setups:
            stack.close()
            started = perf_counter()
            state = set_up(workload, args.seed, stack, references)
            took = perf_counter() - started
            setups.append((took, probe_for(took, PROBE_SHARE)))
            if passes < min_passes or elapsed < args.seconds:
                started = perf_counter()
                ran = run_pass(workload, state, references, tracer)
                elapsed += perf_counter() - started - sum(sum(e.probes) for e in ran)
                episodes += ran
                passes += 1
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        stack.close()

    failed = [e for e in episodes if e.failures]
    print(f"workload {workload.name}  seed {args.seed}  {passes} passes of "
          f"{len(state.instances)} instances{' (untraced + traced)' if tracer else ''}  "
          f"{len(episodes)} episodes in {elapsed:.2f} s")
    for e in failed[:10]:
        print(f"FAIL {e.instance.name}: {'; '.join(e.failures)}")
    if tracer is None:
        metrics = end_to_end(state, episodes, elapsed, setups)
    else:
        metrics = per_layer(tracer, episodes)
        WORK.mkdir(exist_ok=True)
        tracer.write(WORK / f"spans-{workload.name}-seed{args.seed}.jsonl")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(episodes),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
