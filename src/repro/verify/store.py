"""The delta-verification store: proved condition hashes between runs.

``Modular(delta="reuse")`` makes :class:`repro.verify.Session` consult a
small on-disk store before discharging anything: a symmetry class whose
representative's *condition fingerprints* (see
:mod:`repro.core.fingerprint`) are all recorded as proved gets its verdicts
back as ``reused`` events, and only the remaining classes are handed to the
SMT backend.  This module owns that store's format and lifecycle.

**Format.**  One JSON document per (network topology, strategy signature)
pair, with one table, ``conditions``: canonical condition content hash →
metadata (the condition kind).  Presence means "proved".  Only *passing*
verdicts are recorded; a failing condition is always re-discharged so its
counterexample is fresh and its verdict can never go stale.

The key is the content hash of the (canonicalized, node-identity-erased)
query itself, so a stale entry can never produce a wrong verdict: any
semantic change to a condition changes its hash, and an entry that no
longer matches is simply not found.  Entries are never evicted — if the
operator reverts a config edit, the old hashes match again and are
legitimately reused — which makes the table a monotone set.

**Robustness.**  Loading is fail-soft by design: a truncated/corrupt file, a
format-version mismatch, a different network topology or a different
strategy signature each degrade to an empty store (i.e. a full run) with a
:class:`RuntimeWarning` naming the reason — never a crash, never a stale
verdict.  Saving is atomic (write-to-temp + ``os.replace``) so a crashed or
interrupted run cannot truncate a previously good store.  Saving also
unions the table with the file's current content, under an exclusive lock
on a sidecar ``<path>.lock`` where POSIX file locks exist, so two runs
saving the same store both keep their proved hashes.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
import warnings
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

try:
    import fcntl
except ImportError:  # not POSIX: saves stay atomic but are not serialized
    fcntl = None  # type: ignore[assignment]

#: Format version; bump on any incompatible schema change.  Loaders treat a
#: mismatch as "no store" (full run), never attempt migration in place.
#: Version 3: the condition table is the only table (the per-node dependency
#: index is gone).  Version 2 stores may hold the condition hashes of class
#: members that only received a propagated verdict and were never proved.
STORE_VERSION = 3

#: Directory the session drops stores into when no explicit path is given.
DEFAULT_STORE_DIR = ".timepiece-delta"


def default_store_path(network_fingerprint: str, strategy_signature: str) -> str:
    """The conventional store location for a (network, strategy) pair."""
    return os.path.join(
        DEFAULT_STORE_DIR,
        f"{network_fingerprint[:16]}-{strategy_signature[:8]}.json",
    )


def _warn(path: str, reason: str) -> None:
    warnings.warn(
        f"delta store {path!r} ignored ({reason}); running a full verification",
        RuntimeWarning,
        stacklevel=4,
    )


def _read_conditions(
    path: str, network: str, strategy: str
) -> tuple[dict[str, dict] | None, str | None]:
    """The condition table stored at ``path``, or ``None`` and why not.

    The reason is ``None`` for a missing file (a cold start, not worth a
    warning) and names the problem for every unusable one.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except FileNotFoundError:
        return None, None
    except (OSError, ValueError) as error:
        return None, f"unreadable or corrupt: {error}"
    if not isinstance(document, dict):
        return None, "malformed document (not a JSON object)"
    if document.get("version") != STORE_VERSION:
        return None, f"format version {document.get('version')!r} != {STORE_VERSION}"
    if document.get("network") != network:
        return None, "recorded for a different network topology"
    if document.get("strategy") != strategy:
        return None, "recorded under a different strategy signature"
    conditions = document.get("conditions")
    if not isinstance(conditions, dict):
        return None, "malformed condition table"
    return conditions, None


@contextlib.contextmanager
def _exclusive(path: str) -> Iterator[None]:
    """Hold an exclusive POSIX lock on the sidecar ``<path>.lock``.

    The lock file is never removed: unlinking it would let a later writer
    lock a fresh inode while an earlier one still holds the old.  Closing
    the handle releases the lock.
    """
    if fcntl is None:
        yield
        return
    with open(path + ".lock", "a", encoding="utf-8") as handle:
        fcntl.flock(handle, fcntl.LOCK_EX)
        yield


@dataclass
class DeltaStore:
    """In-memory image of one store file, plus its identity header."""

    path: str
    network: str
    strategy: str
    #: Canonical condition fingerprint → metadata.  Presence means "proved".
    conditions: dict[str, dict] = field(default_factory=dict)
    #: Whether anything changed since load (saving is skipped otherwise).
    dirty: bool = False

    # -- loading -----------------------------------------------------------------

    @classmethod
    def open(cls, path: str, network: str, strategy: str) -> "DeltaStore":
        """Load the store at ``path``, degrading to empty on any problem.

        Every failure mode — missing file (a cold start, not warned about),
        unreadable file, malformed JSON, wrong schema version, different
        network topology, different strategy signature — yields an empty
        store so the session falls back to a full run; all but the cold
        start emit a :class:`RuntimeWarning` naming the reason.
        """
        store = cls(path=path, network=network, strategy=strategy)
        conditions, reason = _read_conditions(path, network, strategy)
        if reason is not None:
            _warn(path, reason)
        elif conditions is not None:
            store.conditions = conditions
        return store

    # -- queries -----------------------------------------------------------------

    def has_conditions(
        self, condition_fingerprints: Mapping[str, str], kinds: Sequence[str]
    ) -> bool:
        """Whether every requested kind's exact condition is recorded as proved.

        Condition fingerprints are content hashes of the (canonicalized)
        query itself, so a hit may be reused whichever node or run proved it —
        e.g. after a config edit was reverted, the old conditions are still
        in the table.
        """
        for kind in kinds:
            fingerprint = condition_fingerprints.get(kind)
            if fingerprint is None or fingerprint not in self.conditions:
                return False
        return True

    # -- updates -----------------------------------------------------------------

    def record(self, condition_fingerprints: Mapping[str, str]) -> None:
        """Record proved conditions, given as kind → condition fingerprint.

        Callers only record conditions that were discharged and passed —
        the store never holds failing or merely propagated verdicts.
        """
        for kind, fingerprint in condition_fingerprints.items():
            if fingerprint not in self.conditions:
                self.conditions[fingerprint] = {"kind": kind}
                self.dirty = True

    def save(self) -> None:
        """Persist the store, merged with the file's content (no-op when clean).

        Under the sidecar lock, re-reads the file and unions its condition
        table into this one when its header matches (otherwise the file is
        replaced, as a fail-soft load would have discarded it).  The full
        document goes to a sibling temp file that is ``os.replace``d over
        the target, so readers only ever observe a complete store — an
        interrupted save leaves the previous version intact.
        """
        if not self.dirty:
            return
        directory = os.path.dirname(self.path) or "."
        os.makedirs(directory, exist_ok=True)
        with _exclusive(self.path):
            current, _ = _read_conditions(self.path, self.network, self.strategy)
            for fingerprint, metadata in (current or {}).items():
                self.conditions.setdefault(fingerprint, metadata)
            document = {
                "version": STORE_VERSION,
                "network": self.network,
                "strategy": self.strategy,
                "conditions": self.conditions,
            }
            descriptor, temporary = tempfile.mkstemp(
                prefix=os.path.basename(self.path) + ".", suffix=".tmp", dir=directory
            )
            try:
                with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
                    json.dump(document, handle, indent=1, sort_keys=True)
                os.replace(temporary, self.path)
            except BaseException:
                try:
                    os.unlink(temporary)
                except OSError:
                    pass
                raise
        self.dirty = False
