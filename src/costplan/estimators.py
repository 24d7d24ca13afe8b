"""Estimator chains with accounted invocation time.

Each call is charged to the registry's time ledger, never waited out, so
runs with hundreds of 100 ms estimator calls finish in milliseconds while
the ledger stays exact. By default a call is charged its declared (or
server-reported) time; with ``real_latency`` it is charged its measured
wall time instead, also when the estimator turns out to be unavailable.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from .errors import ChainExhaustedError, ConfigError, EstimatorUnavailableError
from .intervals import INF, CostInterval
from .manifest import EstimatorManifest, ManifestEntry, ManifestLevel
from .task import CostTable, PlanningTask


@dataclass(frozen=True)
class LedgerEntry:
    action_id: int
    level: int  # 1-based
    time_ms: float
    failed: bool = False  # unavailable; charged only under real_latency


class EstimatorRegistry:
    """Per-episode estimator state: chains, chain cursor, cost table, time ledger.

    Chains are the task's ManifestLevel tuples, the records a remote
    estimator serves too; with a remote client each level's interval and
    time come from the server instead. Single-writer: one search episode
    owns a registry and its CostTable.
    Levels are invoked sequentially per action (prefix invocation); each
    (action, level) pair is charged at most once: its declared or
    server-reported ``time_ms``, or with ``real_latency`` the measured wall
    time of producing it, which a ``failed`` (unavailable) call is charged
    too. The ledger is the only accumulator of charges. Only the registry
    moves ``next_level``, the count of each chain's levels invoked or skipped.
    """

    def __init__(self, task: PlanningTask, remote=None, real_latency: bool = False):
        self.task = task
        self.real_latency = real_latency
        self.ledger: list[LedgerEntry] = []
        self.table = CostTable(task)
        self.next_level = [0] * len(task.chains)
        self._remote = remote
        self._unavailable: set[int] = set()

    def chain_length(self, action_id: int) -> int:
        return len(self.task.chains[action_id])

    def refinable(self, action_id: int) -> bool:
        if action_id in self._unavailable:
            return False
        return self.next_level[action_id] < self.chain_length(action_id)

    def _produce(self, action_id: int, level: int) -> tuple[CostInterval, float]:
        """Interval and declared time for a 1-based level of an action's chain."""
        if self._remote is not None:
            return self._remote.estimate(self.task.actions[action_id].name, level)
        lvl = self.task.chains[action_id][level - 1]
        return lvl.interval, lvl.time_ms

    def _invoke(self, action_id: int, level: int) -> CostInterval:
        if level <= self.next_level[action_id]:
            return self.table.interval(action_id)  # already charged and applied
        started = time.perf_counter()
        try:
            interval, time_ms = self._produce(action_id, level)
        except EstimatorUnavailableError:
            self._unavailable.add(action_id)
            if self.real_latency:
                elapsed_ms = (time.perf_counter() - started) * 1000.0
                self.ledger.append(LedgerEntry(action_id, level, elapsed_ms, failed=True))
            raise
        if self.real_latency:
            time_ms = (time.perf_counter() - started) * 1000.0
        self.ledger.append(LedgerEntry(action_id, level, time_ms))
        return self.table.refine(action_id, interval)

    def invoke_next(self, action_id: int) -> CostInterval:
        """Invoke the action's next uninvoked estimator level."""
        level = self.next_level[action_id]
        if level >= self.chain_length(action_id):
            raise ChainExhaustedError(
                f"action {self.task.actions[action_id].name}: "
                f"all {self.chain_length(action_id)} estimator levels invoked"
            )
        result = self._invoke(action_id, level + 1)
        self.next_level[action_id] = level + 1
        return result

    def invoke_final(self, action_id: int) -> CostInterval | None:
        """Invoke only the final (best) level, as conservative offline modeling does.

        Prior-only chains contribute nothing. Marks the chain fully invoked.
        """
        k = self.chain_length(action_id)
        if k == 0:
            return None
        result = self._invoke(action_id, k)
        self.next_level[action_id] = k
        return result

    def total_charged_ms(self) -> float:
        return sum(e.time_ms for e in self.ledger)

    def estimated_actions(self) -> set[int]:
        return {e.action_id for e in self.ledger if not e.failed}


# ---------------------------------------------------------------------------
# Synthetic manifest generation

@dataclass(frozen=True)
class SyntheticConfig:
    """Chain shape for synthetic estimators attached to a grounded task.

    Level j (1-based) runs for base_time_ms * time_scale**(j-1) and returns
    an interval of width width * decay**(j-1) containing the hidden true
    cost, positioned pseudo-randomly subject to nesting. The constructor
    rejects an invalid shape with a ConfigError.
    """

    levels: int = 3
    time_scale: float = 2.0
    base_time_ms: float = 25.0
    width: float = 4.0
    decay: float = 0.5
    exact_final: bool = True
    cost_range: tuple = (1.0, 10.0)

    def __post_init__(self):
        if self.levels < 1:
            raise ConfigError("levels must be >= 1")
        if not self.time_scale >= 1.0:  # NaN fails these too
            raise ConfigError("time_scale must be >= 1")
        if not (0.0 < self.decay <= 1.0):
            raise ConfigError("decay must be in (0, 1]")
        if not self.width >= 0.0:
            raise ConfigError("width must be nonnegative")
        if not self.base_time_ms >= 0.0:
            raise ConfigError("base_time_ms must be nonnegative")
        lo, hi = self.cost_range
        if not (0.0 <= lo <= hi):
            raise ConfigError("cost_range must satisfy 0 <= lo <= hi")


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
