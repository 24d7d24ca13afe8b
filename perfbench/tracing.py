"""Layer spans recorded from outside the program, for the traced run only.

`Tracer.patched()` replaces the public functions each layer exposes with
wrappers that record a span: name, start, end and parent. Heuristic calls are
too many and too short for a span each; they are counted on the tracer and
attached to the enclosing `search.astar_lb` span. Spans stay in memory until
`write()`. A span's self time is its duration minus its children's durations;
an episode span's self time is the part of the episode no layer covers.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
from time import perf_counter_ns

from costplan import cli, search
from costplan.errors import EstimatorUnavailableError
from costplan.estimators import EstimatorRegistry
from costplan.remote import RemoteEstimatorClient

#: Span name -> layer whose self time it counts towards.
LAYER_OF = {
    "cli.parse_domain": "pddl.parse",
    "cli.parse_problem": "pddl.parse",
    "cli.ground": "pddl.ground",
    "cli.load_manifest": "manifest.load",
    "search.make_heuristic": "search.make_heuristic",
    "search.astar_lb": "search.astar",
    "estimators.invoke_next": "estimators.invoke",
    "estimators.invoke_final": "estimators.invoke",
    "remote.estimate": "remote.estimate",
    "cli.emit_report": "metrics.emit",
    "episode": "unaccounted",
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.attrs = {}
        self.start = self.end = 0

    @property
    def ns(self) -> int:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []
        self.h_evals = 0
        self.h_ns = 0

    @contextlib.contextmanager
    def span(self, name):
        """Record one span; yields its attribute dict."""
        record = Span(name, self._open[-1] if self._open else -1)
        self._open.append(len(self.spans))
        self.spans.append(record)
        record.start = perf_counter_ns()
        try:
            yield record.attrs
        except BaseException as exc:
            record.attrs["error"] = type(exc).__name__
            raise
        finally:
            record.end = perf_counter_ns()
            self._open.pop()

    # -- wrappers -----------------------------------------------------------

    def _timed(self, name, fn, annotate=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                result = fn(*args, **kwargs)
                if annotate is not None:
                    attrs.update(annotate(result))
                return result

        return traced

    def _astar(self, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span("search.astar_lb") as attrs:
                evals, ns = self.h_evals, self.h_ns
                plan, expansions = fn(*args, **kwargs)
                attrs.update(
                    expansions=expansions,
                    h_evals=self.h_evals - evals,
                    h_ns=self.h_ns - ns,
                )
                return plan, expansions

        return traced

    def _make_heuristic(self, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span("search.make_heuristic"):
                heuristic = fn(*args, **kwargs)

            def counted(state):
                start = perf_counter_ns()
                value = heuristic(state)
                self.h_ns += perf_counter_ns() - start
                self.h_evals += 1
                return value

            return counted

        return traced

    def _invoke(self, name, fn):
        @functools.wraps(fn)
        def traced(registry, action_id, *args, **kwargs):
            with self.span(name) as attrs:
                attrs["action"] = registry.task.actions[action_id].name
                before = len(registry.ledger)
                try:
                    return fn(registry, action_id, *args, **kwargs)
                finally:
                    attrs["charged_ms"] = sum(e.time_ms for e in registry.ledger[before:])

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Install the layer wrappers; restore the originals on exit."""
        patches = [
            (cli, "parse_domain", self._timed("cli.parse_domain", cli.parse_domain)),
            (cli, "parse_problem", self._timed("cli.parse_problem", cli.parse_problem)),
            (cli, "load_manifest", self._timed("cli.load_manifest", cli.load_manifest)),
            (cli, "ground", self._timed(
                "cli.ground", cli.ground, lambda task: {"actions": task.n_actions})),
            (cli, "emit_report", self._timed("cli.emit_report", cli.emit_report)),
            (search, "astar_lb", self._astar(search.astar_lb)),
            (search, "make_heuristic", self._make_heuristic(search.make_heuristic)),
            (EstimatorRegistry, "invoke_next",
             self._invoke("estimators.invoke_next", EstimatorRegistry.invoke_next)),
            (EstimatorRegistry, "invoke_final",
             self._invoke("estimators.invoke_final", EstimatorRegistry.invoke_final)),
            (RemoteEstimatorClient, "estimate",
             self._timed("remote.estimate", RemoteEstimatorClient.estimate)),
        ]
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)

    def remote_errors(self, first: int = 0) -> int:
        """Client calls that raised EstimatorUnavailableError, in spans[first:]."""
        return sum(
            span.name == "remote.estimate"
            and span.attrs.get("error") == EstimatorUnavailableError.__name__
            for span in self.spans[first:]
        )

    # -- output -------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps({
                    "name": span.name, "start_ns": span.start, "end_ns": span.end,
                    "parent": span.parent, "attrs": span.attrs,
                }, default=str) + "\n")

    def layer_metrics(self) -> tuple:
        """Per-layer metrics (per traced episode) and self ms per layer per episode."""
        child_ns = [0] * len(self.spans)
        episode_of = list(range(len(self.spans)))  # index of each span's episode span
        for i, span in enumerate(self.spans):
            if span.parent >= 0:
                child_ns[span.parent] += span.ns
                episode_of[i] = episode_of[span.parent]
        episodes = [s for s in self.spans if s.parent < 0]
        n = max(1, len(episodes))
        by_name = {}
        self_ns = dict.fromkeys(LAYER_OF.values(), 0)
        last_astar = {}  # episode -> expansions of its final replan
        invokes = []  # (span, whether its action is on the episode's plan)
        for i, span in enumerate(self.spans):
            by_name.setdefault(span.name, []).append(span)
            self_ns[LAYER_OF[span.name]] += span.ns - child_ns[i]
            if span.name == "search.astar_lb":
                last_astar[episode_of[i]] = span.attrs.get("expansions", 0)
            elif span.name.startswith("estimators.invoke_"):
                plan = self.spans[episode_of[i]].attrs.get("plan", ())
                invokes.append((span, span.attrs.get("action") in plan))

        def spans(*names):
            return [s for name in names for s in by_name.get(name, ())]

        def total_ms(*names):
            return sum(s.ns for s in spans(*names)) / 1e6

        astar = spans("search.astar_lb")
        expansions = sum(s.attrs.get("expansions", 0) for s in astar)
        h_evals = sum(s.attrs.get("h_evals", 0) for s in astar)
        h_ns = sum(s.attrs.get("h_ns", 0) for s in astar)
        rtts = [s.ns / 1e6 for s in spans("remote.estimate")]
        episode_ns = sum(s.ns for s in episodes)

        metrics = {
            "pddl.parse_ms": total_ms("cli.parse_domain", "cli.parse_problem") / n,
            "pddl.ground_ms": total_ms("cli.ground") / n,
            "pddl.ground_actions": sum(s.attrs.get("actions", 0) for s in spans("cli.ground")) / n,
            "manifest.load_ms": total_ms("cli.load_manifest") / n,
            "search.astar_ms": total_ms("search.astar_lb") / n,
            "search.make_heuristic_ms": total_ms("search.make_heuristic") / n,
            "search.replans": len(astar) / n,
            "search.expansions": expansions / n,
            "search.us_per_expansion":
                (sum(s.ns for s in astar) - h_ns) / 1e3 / expansions if expansions else 0.0,
            "search.last_replan_share": sum(last_astar.values()) / expansions if expansions else 0.0,
            "search.heuristic_evals": h_evals / n,
            "search.heuristic_ms": h_ns / 1e6 / n,
            "search.us_per_heuristic_eval": h_ns / 1e3 / h_evals if h_evals else 0.0,
            "estimators.calls": len(invokes) / n,
            "estimators.charged_ms": sum(s.attrs.get("charged_ms", 0.0) for s, _ in invokes) / n,
            "estimators.invoke_ms": sum(s.ns for s, _ in invokes) / 1e6 / n,
            "estimators.on_plan_share":
                sum(on_plan for _, on_plan in invokes) / len(invokes) if invokes else 0.0,
            "remote.calls": len(rtts) / n,
            "remote.rtt_ms_p50": statistics.median(rtts) if rtts else 0.0,
            "remote.rtt_ms_p99": statistics.quantiles(rtts, n=100)[98] if len(rtts) > 1 else 0.0,
            "remote.errors": self.remote_errors(),
            "metrics.emit_ms": total_ms("cli.emit_report") / n,
            "trace.unaccounted_share": self_ns["unaccounted"] / episode_ns if episode_ns else 0.0,
        }
        return metrics, {layer: ns / 1e6 / n for layer, ns in self_ns.items()}
