import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from costplan.bench import EMPTY_MANIFEST, gen_gridworld, synthetic_manifest_for
from costplan.errors import ChainExhaustedError, ConfigError, EstimatorUnavailableError
from costplan.estimators import (
    EstimatorRegistry,
    SyntheticConfig,
    generate_synthetic,
)
from costplan.intervals import INF, CostInterval
from costplan.manifest import manifest_to_json
from costplan.pddl import ground
from costplan.search import SearchConfig, solve

from helpers import make_task


def two_level_task():
    return make_task(
        [("a", {0}, {1}, set(), [(1.0, (5.0, 10.0)), (100.0, (7.0, 7.0))])],
        goal={1},
    )


class TestRegistry:
    def test_first_invocation_refines_prior(self):
        reg = EstimatorRegistry(two_level_task())
        assert reg.invoke_next(0) == CostInterval(5.0, 10.0)
        assert reg.total_charged_ms() == 1.0

    def test_second_level_nests(self):
        reg = EstimatorRegistry(two_level_task())
        reg.invoke_next(0)
        assert reg.invoke_next(0) == CostInterval(7.0, 7.0)
        assert reg.total_charged_ms() == 101.0

    def test_exhausted_chain_raises(self):
        reg = EstimatorRegistry(two_level_task())
        reg.invoke_next(0)
        reg.invoke_next(0)
        assert not reg.refinable(0)
        with pytest.raises(ChainExhaustedError):
            reg.invoke_next(0)

    def test_final_level_charged_alone(self):
        reg = EstimatorRegistry(two_level_task())
        reg.invoke_final(0)
        assert reg.total_charged_ms() == 100.0
        assert reg.intervals[0] == CostInterval(7.0, 7.0)
        assert not reg.refinable(0)

    def test_memoized_single_charge(self):
        reg = EstimatorRegistry(two_level_task())
        reg.invoke_next(0)
        reg.invoke_next(0)
        reg.invoke_final(0)  # level 2 already charged
        assert reg.total_charged_ms() == 101.0
        assert len(reg.ledger) == 2

    def test_final_on_prior_only_chain_charges_nothing(self):
        reg = EstimatorRegistry(make_task([("a", {0}, {1}, set(), [])], goal={1}))
        assert reg.invoke_final(0) is None
        assert (reg.ledger, reg.intervals[0]) == ([], CostInterval(0.0, INF))
        assert not reg.refinable(0)

    @pytest.mark.parametrize("real_latency", [False, True])
    def test_unavailable_estimator_skips_the_rest_of_its_chain(self, caplog, real_latency):
        class DownServer:
            def estimate(self, name, level):
                raise EstimatorUnavailableError("down")

        reg = EstimatorRegistry(two_level_task(), remote=DownServer(), real_latency=real_latency)
        assert reg.invoke_next(0) == CostInterval(0.0, INF)  # the prior, no exception
        assert not reg.refinable(0)
        assert reg.next_level[0] == len(reg.task.chains[0]) == 2
        assert reg.intervals[0] == CostInterval(0.0, INF) and reg.raised == []
        assert [(r.name, r.levelname, r.getMessage()) for r in caplog.records] == [(
            "costplan.estimators", "WARNING",
            "action a level 1: estimator unavailable, rest of its chain skipped: down",
        )]
        if real_latency:
            assert [(e.action_id, e.level, e.failed) for e in reg.ledger] == [(0, 1, True)]
        else:
            assert reg.ledger == []
        with pytest.raises(ChainExhaustedError):
            reg.invoke_next(0)
        assert reg.invoke_final(0) == CostInterval(0.0, INF)  # skipped, not retried
        assert len(reg.ledger) == int(real_latency) and len(caplog.records) == 1

    def test_one_warning_per_cause(self, caplog):
        class DeadEndpoint:
            def estimate(self, name, level):
                raise EstimatorUnavailableError("estimator endpoint unreachable: refused")

        domain, problem = gen_gridworld(5, 5, seed=1)
        task = ground(domain, problem, synthetic_manifest_for(domain, problem, 1, SyntheticConfig()))
        caplog.set_level("DEBUG", logger="costplan.estimators")
        cert, report = solve(task, SearchConfig(mode="offline"), EstimatorRegistry(task, DeadEndpoint()))
        assert cert.verdict == "uncertified" and report.calls == ()
        records = [r for r in caplog.records if r.name == "costplan.estimators"]
        assert len(records) == task.n_actions > 1
        assert [r.levelname for r in records] == ["WARNING"] + ["DEBUG"] * (task.n_actions - 1)
        assert records[0].getMessage().endswith("skipped: estimator endpoint unreachable: refused")

        class TwoCauses:
            def estimate(self, name, level):
                raise EstimatorUnavailableError(f"level {level} down")

        caplog.clear()
        reg = EstimatorRegistry(make_task([("a", {0}, {1}, set(), [(1.0, (5.0, 10.0))] * 2),
                                           ("b", {0}, {1}, set(), [(1.0, (5.0, 10.0))] * 2)],
                                          goal={1}), TwoCauses())
        reg.invoke_next(0)
        reg.invoke_final(1)
        assert [r.levelname for r in caplog.records] == ["WARNING", "WARNING"]

    def test_lbs_track_intervals(self):
        reg = EstimatorRegistry(two_level_task())
        assert reg.lbs == [0.0]
        reg.invoke_next(0)
        reg.refine(0, CostInterval(6.0, 12.0))  # widening ub, clamped
        assert reg.lbs == [reg.intervals[0].lb] == [6.0]
        assert reg.raised == [0, 0]


def slow_level_task():
    return make_task([("a", {0}, {1}, set(), [(5000.0, (3.0, 3.0))])], goal={1})


def test_simulated_clock_never_sleeps():
    reg = EstimatorRegistry(slow_level_task())
    started = time.perf_counter()
    reg.invoke_next(0)
    assert time.perf_counter() - started < 0.5
    assert reg.total_charged_ms() == 5000.0


def test_real_latency_charges_measured_time_not_declared():
    reg = EstimatorRegistry(slow_level_task(), real_latency=True)
    started = time.perf_counter()
    reg.invoke_next(0)
    assert time.perf_counter() - started < 0.5
    (entry,) = reg.ledger
    assert 0.0 <= entry.time_ms < 5000.0
    assert reg.total_charged_ms() == entry.time_ms


# ---------------------------------------------------------------------------
# Synthetic generation

def grid_task():
    domain, problem = gen_gridworld(2, 2, seed=1)
    return ground(domain, problem, EMPTY_MANIFEST)


def test_zero_width_single_level_is_exact():
    manifest = generate_synthetic(
        grid_task(), seed=3, config=SyntheticConfig(levels=1, width=0.0)
    )
    for entry in manifest.entries:
        (level,) = entry.levels
        assert level.interval.lb == level.interval.ub == entry.true_cost


def test_same_seed_byte_identical():
    a = manifest_to_json(generate_synthetic(grid_task(), seed=42))
    b = manifest_to_json(generate_synthetic(grid_task(), seed=42))
    assert a == b
    c = manifest_to_json(generate_synthetic(grid_task(), seed=43))
    assert a != c


def test_width_schedule():
    config = SyntheticConfig(levels=3, width=8.0, decay=0.5, exact_final=False)
    manifest = generate_synthetic(grid_task(), seed=7, config=config)
    for entry in manifest.entries:
        widths = [lvl.interval.width for lvl in entry.levels]
        assert widths == pytest.approx([8.0, 4.0, 2.0])


def test_invalid_configs_rejected():
    for bad in [
        dict(levels=0),
        dict(decay=1.5),
        dict(decay=0.0),
        dict(time_scale=0.5),
        dict(width=-1.0),
        dict(cost_range=(5.0, 2.0)),
        dict(cost_range=5),
        dict(cost_range=(1,)),
        dict(time_scale=math.nan),
        dict(width=math.nan),
        dict(base_time_ms=math.nan),
        dict(base_time_ms=math.inf),
        dict(base_time_ms=-1),
        dict(time_scale=math.inf),
        dict(width=math.inf),
        dict(cost_range=(1.0, math.inf)),
        dict(cost_range=(math.nan, 2.0)),
        dict(cost_range=(1, 10**400)),
        dict(levels=2.0),
        dict(levels=True),
        dict(time_scale=1e200),
        dict(levels=2, time_scale=10**200, base_time_ms=10**200),
    ]:
        with pytest.raises(ConfigError):
            SyntheticConfig(**bad)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    levels=st.integers(1, 5),
    time_scale=st.floats(1.0, 4.0),
    width=st.floats(0.0, 20.0),
    decay=st.floats(0.1, 1.0),
    exact_final=st.booleans(),
)
def test_synthetic_chain_invariants(seed, levels, time_scale, width, decay, exact_final):
    config = SyntheticConfig(
        levels=levels, time_scale=time_scale, width=width, decay=decay,
        exact_final=exact_final,
    )
    manifest = generate_synthetic(grid_task(), seed, config)
    for entry in manifest.entries:
        times = [lvl.time_ms for lvl in entry.levels]
        assert times == sorted(times)
        prev = None
        for lvl in entry.levels:
            assert lvl.interval.contains(entry.true_cost)
            if prev is not None:
                assert prev.contains_interval(lvl.interval)
            prev = lvl.interval
