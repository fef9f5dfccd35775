"""Tests for the on-disk delta store (:mod:`repro.verify.store`).

The store's contract is *fail-soft*: any unusable file — truncated, corrupt,
wrong schema version, recorded for another network or strategy — degrades to
an empty store (a full verification run) with a :class:`RuntimeWarning`, and
never a crash or a stale verdict.
"""

import json
import os

import pytest

from repro.networks import registry
from repro.verify import (
    DEFAULT_STORE_DIR,
    DeltaStore,
    Modular,
    STORE_VERSION,
    Session,
    default_store_path,
)

NETWORK = "net-fp"
STRATEGY = "strategy-sig"


@pytest.fixture
def store_path(tmp_path):
    return str(tmp_path / "store.json")


def _saved_store(path, proved):
    store = DeltaStore(path=path, network=NETWORK, strategy=STRATEGY)
    store.record(proved)
    store.save()
    return store


class TestFailSoftLoading:
    def test_missing_file_is_a_silent_cold_start(self, store_path, recwarn):
        store = DeltaStore.open(store_path, NETWORK, STRATEGY)
        assert store.conditions == {}
        assert not any(issubclass(w.category, RuntimeWarning) for w in recwarn.list)

    def test_truncated_file_degrades_with_warning(self, store_path):
        _saved_store(store_path, {"safety": "fp"})
        with open(store_path, "r+", encoding="utf-8") as handle:
            handle.truncate(len(handle.read()) // 2)
        with pytest.warns(RuntimeWarning, match="unreadable or corrupt"):
            store = DeltaStore.open(store_path, NETWORK, STRATEGY)
        assert store.conditions == {}

    def test_non_object_document_degrades(self, store_path):
        with open(store_path, "w", encoding="utf-8") as handle:
            json.dump(["not", "a", "store"], handle)
        with pytest.warns(RuntimeWarning, match="not a JSON object"):
            assert DeltaStore.open(store_path, NETWORK, STRATEGY).conditions == {}

    def test_version_skew_degrades(self, store_path):
        _saved_store(store_path, {"safety": "fp"})
        with open(store_path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        document["version"] = STORE_VERSION + 1
        with open(store_path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        with pytest.warns(RuntimeWarning, match="format version"):
            assert DeltaStore.open(store_path, NETWORK, STRATEGY).conditions == {}

    def test_other_network_or_strategy_degrades(self, store_path):
        _saved_store(store_path, {"safety": "fp"})
        with pytest.warns(RuntimeWarning, match="different network topology"):
            assert DeltaStore.open(store_path, "other-net", STRATEGY).conditions == {}
        with pytest.warns(RuntimeWarning, match="different strategy signature"):
            assert DeltaStore.open(store_path, NETWORK, "other-sig").conditions == {}

    def test_malformed_tables_degrade(self, store_path):
        document = {
            "version": STORE_VERSION,
            "network": NETWORK,
            "strategy": STRATEGY,
            "conditions": "oops",
        }
        with open(store_path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        with pytest.warns(RuntimeWarning, match="malformed condition table"):
            assert DeltaStore.open(store_path, NETWORK, STRATEGY).conditions == {}

    def test_version_2_store_degrades(self, store_path):
        """Version 2 stores may hold hashes of members that only received a
        propagated verdict; they must never be reused."""
        document = {
            "version": 2,
            "network": NETWORK,
            "strategy": STRATEGY,
            "conditions": {"fp": {"kind": "safety", "holds": True, "node": "a"}},
            "nodes": {"a": {"dependency": "dep", "conditions": {"safety": "fp"}}},
        }
        with open(store_path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        with pytest.warns(RuntimeWarning, match="format version 2 != 3"):
            assert DeltaStore.open(store_path, NETWORK, STRATEGY).conditions == {}

    def test_corrupt_store_still_yields_a_full_passing_run(self, store_path):
        """End to end: the session degrades to a full run, never crashes."""
        with open(store_path, "w", encoding="utf-8") as handle:
            handle.write('{"version":')  # truncated mid-document
        benchmark = registry.build("ghost/reach")
        with pytest.warns(RuntimeWarning, match="running a full verification"):
            with Session(
                benchmark.annotated, Modular(delta="reuse", store=store_path)
            ) as session:
                report = session.run()
        assert report.passed and report.conditions_reused == 0
        # The rebuilt store replaced the corrupt file and is warm now.
        with Session(
            benchmark.annotated, Modular(delta="reuse", store=store_path)
        ) as session:
            warm = session.run()
        assert warm.conditions_reused == warm.conditions_checked > 0


class TestQueries:
    def test_record_then_reusable(self, store_path):
        store = DeltaStore(path=store_path, network=NETWORK, strategy=STRATEGY)
        store.record({"initial": "fp-i", "safety": "fp-s"})
        proved = {"initial": "fp-i", "safety": "fp-s", "inductive": "fp-n"}
        assert store.has_conditions(proved, ("initial", "safety"))
        assert store.has_conditions(proved, ("safety",))
        assert not store.has_conditions({"safety": "fp-s2"}, ("safety",))
        assert not store.has_conditions(proved, ("initial", "inductive"))

    def test_has_conditions_matches_by_content_not_node(self, store_path):
        """A revert: hashes recorded before an edit stay reusable after it."""
        store = DeltaStore(path=store_path, network=NETWORK, strategy=STRATEGY)
        store.record({"safety": "fp-s"})
        store.record({"safety": "fp-s2"})
        assert store.has_conditions({"safety": "fp-s"}, ("safety",))
        assert store.has_conditions({"safety": "fp-s2"}, ("safety",))
        assert not store.has_conditions({"safety": "fp-other"}, ("safety",))
        assert not store.has_conditions({}, ("safety",))


class TestSaving:
    def test_round_trip(self, store_path):
        _saved_store(store_path, {"safety": "fp"})
        loaded = DeltaStore.open(store_path, NETWORK, STRATEGY)
        assert loaded.has_conditions({"safety": "fp"}, ("safety",))
        assert not loaded.dirty

    def test_clean_store_save_is_a_no_op(self, store_path):
        store = DeltaStore(path=store_path, network=NETWORK, strategy=STRATEGY)
        store.save()
        assert not os.path.exists(store_path)
        store.record({"safety": "fp"})
        store.save()
        stamp = os.stat(store_path).st_mtime_ns
        # Recording an identical entry does not dirty the store.
        store.record({"safety": "fp"})
        store.save()
        assert os.stat(store_path).st_mtime_ns == stamp

    def test_interrupted_save_keeps_the_previous_version(self, store_path, monkeypatch):
        _saved_store(store_path, {"safety": "fp"})
        store = DeltaStore.open(store_path, NETWORK, STRATEGY)
        store.record({"safety": "fp-b"})

        def explode(source, target):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", explode)
        with pytest.raises(OSError, match="disk full"):
            store.save()
        monkeypatch.undo()
        # The original store is intact and no temp files leak.
        reloaded = DeltaStore.open(store_path, NETWORK, STRATEGY)
        assert set(reloaded.conditions) == {"fp"}
        directory = os.path.dirname(store_path)
        assert [name for name in os.listdir(directory) if name.endswith(".tmp")] == []


    def test_concurrent_writers_both_keep_their_hashes(self, store_path):
        """Two runs open one store, record disjoint hashes and both save: the
        second save merges the first's hashes instead of overwriting them."""
        _saved_store(store_path, {"safety": "fp"})
        first = DeltaStore.open(store_path, NETWORK, STRATEGY)
        second = DeltaStore.open(store_path, NETWORK, STRATEGY)
        first.record({"safety": "fp-first"})
        second.record({"initial": "fp-second"})
        first.save()
        second.save()
        reloaded = DeltaStore.open(store_path, NETWORK, STRATEGY)
        assert set(reloaded.conditions) == {"fp", "fp-first", "fp-second"}

    def test_save_replaces_a_store_it_cannot_merge(self, store_path):
        with open(store_path, "w", encoding="utf-8") as handle:
            handle.write('{"version":')  # truncated mid-document
        store = DeltaStore(path=store_path, network=NETWORK, strategy=STRATEGY)
        store.record({"safety": "fp"})
        store.save()
        assert set(DeltaStore.open(store_path, NETWORK, STRATEGY).conditions) == {"fp"}


class TestDefaultPath:
    def test_default_path_is_keyed_by_network_and_strategy(self):
        path = default_store_path("n" * 64, "s" * 64)
        assert path == os.path.join(DEFAULT_STORE_DIR, f"{'n' * 16}-{'s' * 8}.json")
        assert default_store_path("n" * 64, "t" * 64) != path
