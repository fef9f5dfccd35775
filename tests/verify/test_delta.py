"""Engine-level tests for ``Modular(delta="reuse")`` re-verification.

The delta contract: a warm re-run reuses every recorded verdict with
byte-identical results, a one-node config edit re-checks only the edited
neighbourhood, and the layer composes with symmetry, parallel dispatch,
stop-on-failure and the persistent backend without changing any verdict.
"""

import os

import pytest

from repro.core.annotations import AnnotatedNetwork
from repro.core.results import condition_verdicts
from repro.networks import registry
from repro.networks.benchmarks import inject_interface_failure
from repro.verify import DEFAULT_STORE_DIR, Modular, Session, verify


@pytest.fixture(scope="module")
def reach():
    return registry.build("fattree/reach", pods=4).annotated


def _store(tmp_path, name="delta.json"):
    return str(tmp_path / name)


def _store_documents():
    """The store files under the default directory (not their lock files)."""
    return [name for name in os.listdir(DEFAULT_STORE_DIR) if name.endswith(".json")]


def _fresh_nodes(report):
    """Nodes that reached the SMT backend this run (any non-reused result)."""
    return {
        result.node
        for node_report in report.node_reports.values()
        for result in node_report.results
        if not result.reused
    }


class TestColdWarm:
    def test_cold_then_warm_roundtrip(self, reach, tmp_path):
        store = _store(tmp_path)
        cold = verify(reach, Modular(delta="reuse", store=store))
        assert cold.passed and cold.conditions_reused == 0
        assert cold.conditions_recheck == cold.conditions_checked
        assert os.path.exists(store)

        warm = verify(reach, Modular(delta="reuse", store=store))
        assert warm.conditions_reused == warm.conditions_checked > 0
        assert warm.conditions_recheck == 0
        assert condition_verdicts(warm) == condition_verdicts(cold)

    def test_delta_off_never_touches_a_store(self, reach, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        report = verify(reach, Modular())
        assert report.delta == "off" and report.conditions_reused == 0
        assert not os.path.exists(DEFAULT_STORE_DIR)

    def test_default_store_path_under_dot_directory(self, reach, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        verify(reach, Modular(delta="reuse"))
        assert len(_store_documents()) == 1
        warm = verify(reach, Modular(delta="reuse"))
        assert warm.conditions_reused == warm.conditions_checked

    def test_condition_subset_keeps_its_own_store(self, reach, tmp_path, monkeypatch):
        # A different verdict-affecting knob is a different strategy
        # signature, hence a different default store: no cross-reuse.
        monkeypatch.chdir(tmp_path)
        verify(reach, Modular(delta="reuse"))
        subset = verify(reach, Modular(delta="reuse", conditions=("safety",)))
        assert subset.conditions_reused == 0
        assert len(_store_documents()) == 2

    def test_explicit_store_with_other_signature_degrades(self, reach, tmp_path):
        store = _store(tmp_path)
        verify(reach, Modular(delta="reuse", store=store))
        with pytest.warns(RuntimeWarning, match="different strategy signature"):
            other = verify(reach, Modular(delta="reuse", store=store, delay=1))
        assert other.conditions_reused == 0


class TestEditInvalidation:
    def test_one_node_edit_rechecks_only_the_neighbourhood(self, reach, tmp_path):
        store = _store(tmp_path)
        verify(reach, Modular(delta="reuse", store=store))
        edited, poisoned = inject_interface_failure(reach)

        delta = verify(edited, Modular(delta="reuse", store=store))
        full = verify(edited, Modular())
        assert condition_verdicts(delta) == condition_verdicts(full)
        assert delta.conditions_reused > 0

        topology = reach.network.topology
        successors = {
            node for node in reach.nodes if poisoned in topology.predecessors(node)
        }
        assert _fresh_nodes(delta) == {poisoned} | successors
        assert len(_fresh_nodes(delta)) <= 1 + max(
            len(list(topology.predecessors(node))) for node in reach.nodes
        )

    def test_failing_nodes_are_never_recorded(self, reach, tmp_path):
        store = _store(tmp_path)
        edited, poisoned = inject_interface_failure(reach)
        first = verify(edited, Modular(delta="reuse", store=store))
        assert not first.passed
        # A second run on the same broken network must re-discharge every
        # failing condition (fresh counterexamples), reusing only passes.
        second = verify(edited, Modular(delta="reuse", store=store))
        assert condition_verdicts(second) == condition_verdicts(first)
        failing = {
            result.node
            for node_report in second.node_reports.values()
            for result in node_report.results
            if not result.holds
        }
        assert failing and failing <= _fresh_nodes(second)

    def test_propagated_pass_is_never_recorded_as_proved(self, reach, tmp_path):
        """Regression: a hint class propagates its representative's pass to a
        member whose own conditions fail.  The store may only hold what was
        proved — the representative's hashes — so a later hint-free run must
        re-discharge the member and report its failure."""
        edges = [node for node in reach.nodes if node.startswith("edge-")]
        edited, poisoned = inject_interface_failure(reach, edges[-1])
        topology = reach.network.topology
        partner = next(
            node for node in edges if topology.in_degree(node) == topology.in_degree(poisoned)
        )
        hinted = AnnotatedNetwork(
            edited.network,
            {node: edited.interface(node) for node in edited.nodes},
            {node: edited.node_property(node) for node in edited.nodes},
            minimum_time_width=edited.minimum_time_width,
            symmetry_key=lambda node: "pair" if node in (partner, poisoned) else None,
        )
        truth = verify(edited, Modular())
        assert truth.node_reports[partner].passed and not truth.node_reports[poisoned].passed

        store = _store(tmp_path)
        trusted = verify(hinted, Modular(symmetry="classes", delta="reuse", store=store))
        assert trusted.node_reports[poisoned].passed  # hints are trusted, as documented
        unhinted = verify(edited, Modular(delta="reuse", store=store))
        assert not unhinted.node_reports[poisoned].passed
        assert condition_verdicts(unhinted) == condition_verdicts(truth)

    def test_reverted_edit_is_fully_reusable(self, reach, tmp_path):
        """An edit re-checked the neighbourhood, but the original condition
        hashes are still recorded — the revert reuses every verdict."""
        store = _store(tmp_path)
        cold = verify(reach, Modular(delta="reuse", store=store))
        edited, _ = inject_interface_failure(reach)
        verify(edited, Modular(delta="reuse", store=store))
        reverted = verify(reach, Modular(delta="reuse", store=store))
        assert reverted.conditions_reused == reverted.conditions_checked
        assert condition_verdicts(reverted) == condition_verdicts(cold)


class TestComposition:
    def test_with_symmetry_classes(self, reach, tmp_path):
        store = _store(tmp_path)
        cold = verify(reach, Modular(delta="reuse", store=store, symmetry="classes"))
        assert cold.passed and cold.conditions_reused == 0
        warm = verify(reach, Modular(delta="reuse", store=store, symmetry="classes"))
        assert warm.conditions_reused == warm.conditions_checked
        assert condition_verdicts(warm) == condition_verdicts(cold)
        # Reused class members still carry their propagation provenance.
        propagated = {
            result.node
            for node_report in warm.node_reports.values()
            for result in node_report.results
            if result.propagated_from is not None
        }
        assert propagated and len(propagated) == len(reach.nodes) - warm.symmetry_classes

    def test_spot_check_member_choice_ignores_the_store(self, reach, tmp_path):
        """The rng stream is drawn before the delta filter, so which members
        get re-verified cannot depend on what the store contains."""
        store = _store(tmp_path)

        def discharged(report):
            return {
                result.node
                for node_report in report.node_reports.values()
                for result in node_report.results
                if result.propagated_from is None and not result.reused
            }

        plain = verify(reach, Modular(symmetry="spot-check", spot_check_seed=11))
        cold = verify(
            reach,
            Modular(delta="reuse", store=store, symmetry="spot-check", spot_check_seed=11),
        )
        assert discharged(cold) == discharged(plain)
        warm = verify(
            reach,
            Modular(delta="reuse", store=store, symmetry="spot-check", spot_check_seed=11),
        )
        assert warm.conditions_reused == warm.conditions_checked
        assert condition_verdicts(warm) == condition_verdicts(cold)

    def test_sequentially_warmed_store_serves_a_parallel_run(self, reach, tmp_path):
        store = _store(tmp_path)
        cold = verify(reach, Modular(delta="reuse", store=store))
        warm = verify(reach, Modular(delta="reuse", store=store, parallel=2))
        assert warm.conditions_reused == warm.conditions_checked
        assert condition_verdicts(warm) == condition_verdicts(cold)
        assert warm.parallelism == 2

    def test_with_persistent_backend(self, tmp_path):
        benchmark = registry.build("ghost/reach")
        store = _store(tmp_path)
        with Session(
            benchmark.annotated, Modular(delta="reuse", store=store, backend="persistent")
        ) as session:
            cold = session.run()
            warm = session.run()
        assert cold.passed and cold.conditions_reused == 0
        assert warm.conditions_reused == warm.conditions_checked
        assert condition_verdicts(warm) == condition_verdicts(cold)

    def test_stopped_run_records_nothing_unproved(
        self, one_failing_node_annotated, tmp_path
    ):
        annotated = one_failing_node_annotated(length=6, failing="n2")
        store = _store(tmp_path)
        stopped = verify(
            annotated, Modular(delta="reuse", store=store, stop_on_failure=True)
        )
        assert stopped.stopped_early and stopped.conditions_skipped > 0
        # The warm run may only reuse nodes the stopped run fully proved.
        warm = verify(annotated, Modular(delta="reuse", store=store))
        proved_before_stop = {
            report.node
            for report in stopped.node_reports.values()
            if report.passed and all(r.condition for r in report.results)
        }
        reused_now = {
            result.node
            for node_report in warm.node_reports.values()
            for result in node_report.results
            if result.reused
        }
        assert reused_now <= proved_before_stop
        full = verify(annotated, Modular())
        assert condition_verdicts(warm) == condition_verdicts(full)
