"""Estimator chains, the per-episode cost knowledge they refine, and accounted time.

Each call is charged to the registry's time ledger, never waited out, so
runs with hundreds of 100 ms estimator calls finish in milliseconds while
the ledger stays exact. By default a call is charged its declared (or
server-reported) time; with ``real_latency`` it is charged its measured
wall time instead, also when the estimator turns out to be unavailable.
"""

from __future__ import annotations

import logging
import random
import time
from dataclasses import dataclass

from .errors import (
    ChainExhaustedError,
    ConfigError,
    EstimatorUnavailableError,
    ManifestError,
    ModelInconsistencyError,
)
from .intervals import INF, CostInterval, accumulate
from .manifest import EstimatorManifest, ManifestEntry, ManifestLevel, as_number
from .task import PlanningTask

log = logging.getLogger("costplan.estimators")


@dataclass(frozen=True)
class LedgerEntry:
    action_id: int
    level: int  # 1-based
    time_ms: float
    failed: bool = False  # unavailable; charged only under real_latency


class EstimatorRegistry:
    """Per-episode cost knowledge: intervals, chain cursor and time ledger.

    Single-writer: one search episode owns a registry. Chains are the task's
    ManifestLevel tuples; with a remote client each level's interval and time
    come from the server instead. ``intervals`` holds each action's current
    interval and ``lbs`` its lb, the flat list A* and h_max read. ``raised``
    is an append-only log with one action id per refinement that strictly
    raised that lb; readers keep their own position. Refinement only narrows:
    a reply that would widen an interval is clamped to the intersection (with
    a warning), and an empty intersection is a ModelInconsistencyError.
    Levels are invoked in order per action, each charged at most once: its
    declared or server-reported ``time_ms``, or under ``real_latency`` its
    measured wall time, which a ``failed`` (unavailable) call is charged too.
    The ledger is the only accumulator of charges. ``next_level`` counts each
    chain's levels invoked or skipped: an unavailable estimator skips the rest
    of its chain, and the call returns the interval kept so far. The first
    failure with a given error text is logged at WARNING, its repeats at DEBUG.
    """

    def __init__(self, task: PlanningTask, remote=None, real_latency: bool = False):
        self.task = task
        self.real_latency = real_latency
        self.ledger: list[LedgerEntry] = []
        self.intervals = list(task.priors)
        self.lbs = [interval.lb for interval in self.intervals]
        self.raised: list[int] = []
        self.next_level = [0] * len(task.chains)
        self._remote = remote
        self._warned: set[str] = set()  # error texts already logged at WARNING

    def refinable(self, action_id: int) -> bool:
        return self.next_level[action_id] < len(self.task.chains[action_id])

    def refine(self, action_id: int, incoming: CostInterval) -> CostInterval:
        current = self.intervals[action_id]
        try:
            narrowed = current.intersect(incoming)
        except ValueError as exc:
            raise ModelInconsistencyError(
                f"action {action_id}: estimator interval [{incoming.lb}, {incoming.ub}] "
                f"is disjoint from current [{current.lb}, {current.ub}]"
            ) from exc
        if not current.contains_interval(incoming):
            log.warning(
                "action %d: estimator interval [%s, %s] would widen [%s, %s]; clamped",
                action_id, incoming.lb, incoming.ub, current.lb, current.ub,
            )
        if narrowed.lb > current.lb:
            self.lbs[action_id] = narrowed.lb
            self.raised.append(action_id)
        self.intervals[action_id] = narrowed
        return narrowed

    def plan_interval(self, plan) -> CostInterval:
        return accumulate(self.intervals[a] for a in plan)

    def _produce(self, action_id: int, level: int) -> tuple[CostInterval, float]:
        """Interval and declared time for a 1-based level of an action's chain."""
        if self._remote is not None:
            return self._remote.estimate(self.task.actions[action_id].name, level)
        lvl = self.task.chains[action_id][level - 1]
        return lvl.interval, lvl.time_ms

    def _invoke(self, action_id: int, level: int) -> CostInterval:
        """Charge and apply a 1-based level; the chain counts as invoked
        through it, or to its end if the estimator is unavailable."""
        if level <= self.next_level[action_id]:
            return self.intervals[action_id]  # already charged and applied
        started = time.perf_counter()
        try:
            interval, time_ms = self._produce(action_id, level)
        except EstimatorUnavailableError as exc:
            cause = str(exc)
            log.log(logging.DEBUG if cause in self._warned else logging.WARNING,
                    "action %s level %d: estimator unavailable, rest of its chain "
                    "skipped: %s", self.task.actions[action_id].name, level, cause)
            self._warned.add(cause)
            if self.real_latency:
                elapsed_ms = (time.perf_counter() - started) * 1000.0
                self.ledger.append(LedgerEntry(action_id, level, elapsed_ms, failed=True))
            self.next_level[action_id] = len(self.task.chains[action_id])
            return self.intervals[action_id]
        if self.real_latency:
            time_ms = (time.perf_counter() - started) * 1000.0
        self.ledger.append(LedgerEntry(action_id, level, time_ms))
        result = self.refine(action_id, interval)
        self.next_level[action_id] = level
        return result

    def invoke_next(self, action_id: int) -> CostInterval:
        """Invoke the action's next uninvoked estimator level."""
        if not self.refinable(action_id):
            raise ChainExhaustedError(
                f"action {self.task.actions[action_id].name}: "
                f"all {len(self.task.chains[action_id])} estimator levels invoked or skipped"
            )
        return self._invoke(action_id, self.next_level[action_id] + 1)

    def invoke_final(self, action_id: int) -> CostInterval | None:
        """Invoke only the final (best) level, as conservative offline modeling does.

        Prior-only chains contribute nothing. Marks the chain fully invoked.
        """
        k = len(self.task.chains[action_id])
        return self._invoke(action_id, k) if k else None

    def total_charged_ms(self) -> float:
        return sum(e.time_ms for e in self.ledger)

    def estimated_actions(self) -> frozenset:
        """Ids of the actions with at least one answered estimator call."""
        return frozenset(e.action_id for e in self.ledger if not e.failed)


# ---------------------------------------------------------------------------
# Synthetic manifest generation

@dataclass(frozen=True)
class SyntheticConfig:
    """Chain shape for synthetic estimators attached to a grounded task.

    Level j (1-based) runs for base_time_ms * time_scale**(j-1) and returns
    an interval of width width * decay**(j-1) containing the hidden true
    cost, positioned pseudo-randomly subject to nesting. The constructor
    rejects an invalid shape with a ConfigError, including a non-finite
    number and a last level whose time overflows a float.
    """

    levels: int = 3
    time_scale: float = 2.0
    base_time_ms: float = 25.0
    width: float = 4.0
    decay: float = 0.5
    exact_final: bool = True
    cost_range: tuple = (1.0, 10.0)

    def __post_init__(self):
        if type(self.levels) is not int or self.levels < 1:
            raise ConfigError("levels must be an int >= 1")
        if not (isinstance(self.cost_range, tuple) and len(self.cost_range) == 2):
            raise ConfigError(f"cost_range must be a pair of numbers, not {self.cost_range!r}")
        lo, hi = self.cost_range
        for name, value in [("time_scale", self.time_scale), ("base_time_ms", self.base_time_ms),
                            ("width", self.width), ("decay", self.decay),
                            ("cost_range[0]", lo), ("cost_range[1]", hi)]:
            try:
                as_number(value, name)
            except ManifestError as exc:
                raise ConfigError(str(exc)) from None
        if not self.time_scale >= 1.0:
            raise ConfigError("time_scale must be >= 1")
        if not (0.0 < self.decay <= 1.0):
            raise ConfigError("decay must be in (0, 1]")
        if not self.width >= 0.0:
            raise ConfigError("width must be nonnegative")
        if not self.base_time_ms >= 0.0:
            raise ConfigError("base_time_ms must be nonnegative")
        if not (0.0 <= lo <= hi):
            raise ConfigError("cost_range must satisfy 0 <= lo <= hi")
        try:
            last_ms = float(self.base_time_ms * self.time_scale ** (self.levels - 1))
        except OverflowError:
            last_ms = INF
        if last_ms == INF:
            raise ConfigError(f"level {self.levels}'s time_ms overflows")


def generate_synthetic(
    task: PlanningTask, seed: int, config: SyntheticConfig = SyntheticConfig()
) -> EstimatorManifest:
    """Deterministically attach synthetic estimator chains to every action."""
    rng = random.Random(seed)
    lo, hi = config.cost_range
    entries = []
    for action in task.actions:
        true_cost = rng.uniform(lo, hi)
        prev_lb, prev_ub = 0.0, INF
        levels = []
        for j in range(1, config.levels + 1):
            time_ms = config.base_time_ms * config.time_scale ** (j - 1)
            if config.exact_final and j == config.levels:
                lb = ub = true_cost
            else:
                w = config.width * config.decay ** (j - 1)
                low = max(prev_lb, true_cost - w, 0.0)
                high = min(true_cost, prev_ub - w)
                lb = rng.uniform(low, max(low, high))
                ub = lb + w
            levels.append(ManifestLevel(time_ms=time_ms, interval=CostInterval(lb, ub)))
            prev_lb, prev_ub = lb, ub
        entries.append(
            ManifestEntry(action=action.name, levels=tuple(levels), true_cost=true_cost)
        )
    return EstimatorManifest(
        default_prior=CostInterval(0.0, INF), entries=tuple(entries)
    )
