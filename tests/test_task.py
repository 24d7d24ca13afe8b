import pytest

from costplan.errors import ModelInconsistencyError
from costplan.intervals import INF, CostInterval
from costplan.estimators import EstimatorRegistry
from costplan.task import GroundAction, mask_of

from helpers import PreconditionError, apply, decode, is_goal, make_task


def act(pre, add, delete, name="a", aid=0):
    return GroundAction(
        id=aid, name=name, pre=mask_of(pre), add=mask_of(add), delete=mask_of(delete)
    )


def test_apply_strips_semantics():
    assert decode(apply(mask_of({0}), act({0}, {1}, {0}))) == {1}


def test_apply_identity_effects():
    assert decode(apply(mask_of({0}), act({0}, set(), set()))) == {0}


def test_apply_keeps_unrelated_facts():
    assert decode(apply(mask_of({0, 1}), act({1}, {2}, {1}))) == {0, 2}


def test_apply_rejects_unmet_precondition():
    with pytest.raises(PreconditionError, match=r"missing facts \[1\]"):
        apply(mask_of({0}), act({1}, {2}, set()))


def test_add_delete_overlap_rejected():
    with pytest.raises(ValueError):
        act({0}, {1}, {1})


def test_is_goal():
    task = make_task([("a", {0}, {1}, set(), [])], goal={1})
    assert not is_goal(mask_of({0}), task)
    assert is_goal(mask_of({0, 1}), task)
    empty_goal = make_task([("a", {0}, {1}, set(), [])], goal=set())
    assert is_goal(mask_of(()), empty_goal)


class TestCostTable:
    """The per-episode cost table, ``EstimatorRegistry.intervals``, and its ``refine``."""

    def _table(self):
        task = make_task([("a", {0}, {1}, set(), [(1.0, (0.0, 10.0))])], goal={1})
        return EstimatorRegistry(task)

    def test_starts_at_prior(self):
        table = self._table()
        assert table.intervals[0] == CostInterval(0.0, INF)

    def test_refinement_narrows(self):
        table = self._table()
        table.refine(0, CostInterval(2.0, 8.0))
        table.refine(0, CostInterval(3.0, 5.0))
        assert table.intervals[0] == CostInterval(3.0, 5.0)

    def test_widening_clamped_to_intersection(self, caplog):
        table = self._table()
        table.refine(0, CostInterval(2.0, 8.0))
        with caplog.at_level("WARNING", logger="costplan.estimators"):
            result = table.refine(0, CostInterval(1.0, 5.0))
        assert result == CostInterval(2.0, 5.0)
        assert any("clamped" in rec.message for rec in caplog.records)

    def test_disjoint_refinement_is_hard_error(self):
        table = self._table()
        table.refine(0, CostInterval(2.0, 3.0))
        with pytest.raises(ModelInconsistencyError):
            table.refine(0, CostInterval(5.0, 6.0))

    def test_width_nonincreasing_over_refinements(self):
        table = self._table()
        widths = [table.intervals[0].width]
        for iv in [(1.0, 9.0), (0.5, 7.0), (2.0, 12.0), (3.0, 6.5)]:
            table.refine(0, CostInterval(*iv))
            widths.append(table.intervals[0].width)
        assert all(b <= a for a, b in zip(widths, widths[1:]))

    def test_raised_logs_only_strict_lb_rises(self):
        table = self._table()
        table.refine(0, CostInterval(0.0, 8.0))  # ub-only narrowing
        assert table.raised == []
        table.refine(0, CostInterval(2.0, 8.0))
        assert table.raised == [0]
        table.refine(0, CostInterval(2.0, 6.0))  # equal lb
        table.refine(0, CostInterval(1.0, 9.0))  # widening, clamped
        assert table.raised == [0]
        table.refine(0, CostInterval(3.0, 6.0))
        assert table.raised == [0, 0]
