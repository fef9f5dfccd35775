"""Tests for the adaptive class scheduler: windows, work-stealing, skew.

The destination quotient collapses all-pairs benchmarks into a handful of
classes — fewer classes than workers, and wildly uneven sizes.  These tests
pin the scheduler semantics on a *synthetic* skewed partition (one giant
class plus singletons over a cheap path network), independent of the
quotient itself: the split plan is deterministic, splits keep multiple
workers busy, verdicts and report order match the unsplit baseline, and the
crash / stop-on-failure / degrade contracts of the pre-refactor dispatcher
are unchanged.
"""

import multiprocessing
import os

import pytest

from repro import core
from repro.core.parallel import (
    MAX_WINDOW,
    SCHEDULER_MODES,
    SchedulerStats,
    _class_work_items,
    _window_size,
    check_classes_in_parallel,
)
from repro.core.symmetry import SymmetryClass
from repro.routing import path_topology, shortest_path_network
from repro.verify import Modular, verify


def _assert_no_orphaned_workers():
    for child in multiprocessing.active_children():
        child.join(timeout=10)
    assert multiprocessing.active_children() == []


def _verdicts(reports):
    return [
        (report.node, [(result.condition, result.holds) for result in report.results])
        for report in reports
    ]


class TestWindowSize:
    def test_decays_to_one_at_the_tail(self):
        assert _window_size(1, 4) == 1
        assert _window_size(4, 4) == 1
        assert _window_size(0, 4) == 1

    def test_grows_with_backlog_up_to_the_cap(self):
        assert _window_size(8, 4) == 2
        assert _window_size(9, 4) == 3
        assert _window_size(1000, 4) == MAX_WINDOW

    def test_degenerate_worker_counts(self):
        assert _window_size(10, 0) == 1
        assert _window_size(10, -1) == 1


def _classes(*groups):
    return [SymmetryClass(key=index, members=tuple(group)) for index, group in enumerate(groups)]


class TestSplitPlan:
    def test_splits_largest_class_in_place_until_workers_covered(self):
        classes = _classes(("a", "b", "c", "d"), ("e",))
        stats = SchedulerStats()
        items = _class_work_items(classes, 4, core.CONDITION_KINDS, "adaptive", stats)
        # The giant class splits into one item per condition kind, at its
        # original position, so dispatch order still follows class order.
        assert items == [(0, (kind,)) for kind in core.CONDITION_KINDS] + [(1, None)]
        assert stats.classes_stolen == 1

    def test_plan_is_deterministic_on_ties(self):
        classes = _classes(("a", "b"), ("c", "d"), ("e", "f"))
        first = _class_work_items(classes, 8, core.CONDITION_KINDS, "adaptive", SchedulerStats())
        second = _class_work_items(classes, 8, core.CONDITION_KINDS, "adaptive", SchedulerStats())
        assert first == second
        # Ties break to the earliest class.
        assert first[0] == (0, (core.CONDITION_KINDS[0],))

    def test_fixed_scheduler_and_single_job_never_split(self):
        classes = _classes(("a", "b", "c", "d"), ("e",))
        for jobs, scheduler in ((4, "fixed"), (1, "adaptive")):
            stats = SchedulerStats()
            items = _class_work_items(classes, jobs, core.CONDITION_KINDS, scheduler, stats)
            assert items == [(0, None), (1, None)]
            assert stats.classes_stolen == 0

    def test_spot_check_classes_are_never_split(self):
        classes = [
            SymmetryClass(key=0, members=("a", "b", "c", "d"), spot_member="b"),
            SymmetryClass(key=1, members=("e",)),
        ]
        stats = SchedulerStats()
        items = _class_work_items(classes, 8, core.CONDITION_KINDS, "adaptive", stats)
        # Only the splittable singleton can be stolen; the spot-check class
        # must stay whole (its extra member is compared against the full
        # verdict vector in one place).
        assert (0, None) in items
        assert all(index != 0 or sub is None for index, sub in items)

    def test_single_condition_kind_cannot_split(self):
        classes = _classes(("a", "b", "c", "d"))
        stats = SchedulerStats()
        items = _class_work_items(classes, 4, ("inductive",), "adaptive", stats)
        assert items == [(0, None)]
        assert stats.classes_stolen == 0


class TestSkewedPartition:
    """End-to-end scheduler runs over a synthetic one-giant-class partition."""

    def _annotated(self, length=6):
        topology = path_topology(length)
        network = shortest_path_network(topology, "n0")
        interfaces = {
            node: core.finally_(index, core.globally(lambda r: r.is_some))
            for index, node in enumerate(topology.nodes)
        }
        return core.annotate(network, interfaces)

    def _skewed_classes(self, annotated):
        # One giant class of the interior nodes (same in-degree, so the
        # class is structurally plausible) plus the endpoint singletons —
        # the shape the destination quotient produces on all-pairs runs.
        return [
            SymmetryClass(key="interior", members=("n1", "n2", "n3", "n4")),
            SymmetryClass(key="head", members=("n0",)),
            SymmetryClass(key="tail", members=("n5",)),
        ]

    def test_work_stealing_keeps_multiple_workers_busy(self):
        annotated = self._annotated()
        classes = self._skewed_classes(annotated)
        stats = SchedulerStats()
        reports, totals = check_classes_in_parallel(
            annotated,
            classes,
            delay=0,
            jobs=4,
            conditions=core.CONDITION_KINDS,
            fail_fast=True,
            stats=stats,
        )
        # Deterministic report order: class order, members in member order.
        assert [report.node for report in reports] == [
            member for cls in classes for member in cls.members
        ]
        # 3 classes < 4 workers forced a split of the giant class...
        assert stats.classes_stolen >= 1
        # ...which kept at least two distinct worker processes busy.
        assert len(stats.worker_pids) >= 2
        assert sum(stats.window.values()) >= len(classes)
        assert totals is not None
        _assert_no_orphaned_workers()

    def test_split_and_fixed_schedulers_agree_on_verdicts(self):
        annotated = self._annotated()
        classes = self._skewed_classes(annotated)
        adaptive_stats = SchedulerStats()
        adaptive, _ = check_classes_in_parallel(
            annotated,
            classes,
            delay=0,
            jobs=4,
            conditions=core.CONDITION_KINDS,
            fail_fast=True,
            stats=adaptive_stats,
        )
        fixed, _ = check_classes_in_parallel(
            annotated,
            classes,
            delay=0,
            jobs=4,
            conditions=core.CONDITION_KINDS,
            fail_fast=True,
            scheduler="fixed",
        )
        assert adaptive_stats.classes_stolen >= 1
        assert _verdicts(adaptive) == _verdicts(fixed)
        _assert_no_orphaned_workers()

    def test_adaptive_runs_are_reproducible(self):
        annotated = self._annotated()
        classes = self._skewed_classes(annotated)
        first, _ = check_classes_in_parallel(
            annotated, classes, delay=0, jobs=4,
            conditions=core.CONDITION_KINDS, fail_fast=True,
        )
        second, _ = check_classes_in_parallel(
            annotated, classes, delay=0, jobs=4,
            conditions=core.CONDITION_KINDS, fail_fast=True,
        )
        assert _verdicts(first) == _verdicts(second)
        _assert_no_orphaned_workers()

    def test_unknown_scheduler_is_rejected(self):
        annotated = self._annotated()
        classes = self._skewed_classes(annotated)
        with pytest.raises(ValueError, match="unknown scheduler"):
            check_classes_in_parallel(
                annotated, classes, delay=0, jobs=2,
                conditions=core.CONDITION_KINDS, fail_fast=True,
                scheduler="eager",
            )
        assert "adaptive" in SCHEDULER_MODES and "fixed" in SCHEDULER_MODES

    def test_crash_propagates_through_split_plan(self):
        topology = path_topology(6)
        network = shortest_path_network(topology, "n0")

        def exploding_predicate(route):
            raise RuntimeError("worker exploded")

        annotated = core.annotate(
            network,
            {node: core.globally(exploding_predicate) for node in topology.nodes},
        )
        classes = self._skewed_classes(annotated)
        with pytest.raises(RuntimeError, match="worker exploded"):
            check_classes_in_parallel(
                annotated, classes, delay=0, jobs=4,
                conditions=core.CONDITION_KINDS, fail_fast=True,
            )
        _assert_no_orphaned_workers()

    def test_crash_closes_the_pool_instead_of_killing_busy_workers(self, monkeypatch):
        """A worker killed while writing its result holds the result queue's
        lock forever, and ``Pool.terminate()`` then deadlocks joining the
        pool's task handler.  A crash must let the in-flight items finish."""
        import multiprocessing.pool

        terminated = []
        original = multiprocessing.pool.Pool.terminate

        def spy(pool):
            terminated.append(pool)
            return original(pool)

        monkeypatch.setattr(multiprocessing.pool.Pool, "terminate", spy)
        self.test_crash_propagates_through_split_plan()
        assert terminated == []

    def test_degraded_run_matches_pool_window_accounting(self, monkeypatch):
        """Satellite contract: the sequential-degrade path records the same
        adaptive window accounting the pool path would have used."""
        annotated = self._annotated()
        classes = self._skewed_classes(annotated)
        pooled_stats = SchedulerStats()
        pooled, _ = check_classes_in_parallel(
            annotated, classes, delay=0, jobs=4,
            conditions=core.CONDITION_KINDS, fail_fast=True, stats=pooled_stats,
        )

        import repro.core.parallel as parallel

        class _FailingContext:
            def Pool(self, processes):
                raise OSError("no semaphores on this platform")

        monkeypatch.setattr(
            parallel.multiprocessing, "get_context", lambda kind: _FailingContext()
        )
        degraded_stats = SchedulerStats()
        with pytest.warns(RuntimeWarning, match="process pool unavailable"):
            degraded, _ = check_classes_in_parallel(
                annotated, classes, delay=0, jobs=4,
                conditions=core.CONDITION_KINDS, fail_fast=True, stats=degraded_stats,
            )
        assert _verdicts(degraded) == _verdicts(pooled)
        assert degraded_stats.window == pooled_stats.window
        assert degraded_stats.classes_stolen == pooled_stats.classes_stolen
        assert degraded_stats.worker_pids == {os.getpid()}
        _assert_no_orphaned_workers()


class TestSchedulerReportPlumbing:
    def test_stop_on_failure_and_scheduler_stats_in_report(self):
        topology = path_topology(4)
        network = shortest_path_network(topology, "n0")
        # Every interface claims the node never has a route: the source's
        # initial condition fails immediately.
        annotated = core.annotate(
            network, {node: core.globally(lambda r: r.is_none) for node in topology.nodes}
        )
        report = verify(
            annotated, Modular(symmetry="classes", parallel=2, stop_on_failure=True)
        )
        assert not report.passed
        assert report.stopped_early
        assert report.conditions_skipped > 0
        assert report.scheduler is not None
        assert set(report.scheduler) == {"classes_stolen", "window", "workers"}
        assert "stopped early" in report.summary()
        assert "scheduler" in report.summary()
        _assert_no_orphaned_workers()

    def test_sequential_run_reports_no_scheduler(self):
        topology = path_topology(3)
        network = shortest_path_network(topology, "n0")
        interfaces = {
            node: core.finally_(index, core.globally(lambda r: r.is_some))
            for index, node in enumerate(topology.nodes)
        }
        annotated = core.annotate(network, interfaces)
        report = verify(annotated, Modular(symmetry="classes"))
        assert report.passed
        assert report.scheduler is None
