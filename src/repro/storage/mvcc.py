"""MVCC transaction management (snapshot isolation).

Rows carry a *creating* and a *deleting* transaction id (TID).  A TID
resolves to a commit timestamp once its transaction commits; the
:class:`TransactionManager` owns that mapping.  A row version is visible to a
transaction's snapshot when

- it was created by the reading transaction itself, or by a transaction that
  committed at or before the snapshot timestamp, and
- it was not deleted by the reading transaction, nor by any transaction that
  committed at or before the snapshot timestamp.

This is the scheme the paper attributes to SAP HANA (§2.2): writers never
block analytical readers, and every query sees a transactionally consistent
snapshot of the HTAP tables.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from enum import Enum

from ..errors import TransactionError

NO_TID = 0  # sentinel: "never deleted" / "created at bootstrap"


class TransactionStatus(Enum):
    ACTIVE = "ACTIVE"
    COMMITTED = "COMMITTED"
    ABORTED = "ABORTED"


@dataclass
class Transaction:
    """A transaction handle: identity, snapshot, and undo bookkeeping."""

    tid: int
    snapshot_ts: int
    status: TransactionStatus = TransactionStatus.ACTIVE
    commit_ts: int | None = None
    # Undo log: (table, kind, row_id); kind is "insert" or "delete".
    undo: list[tuple[object, str, int]] = field(default_factory=list)

    @property
    def is_active(self) -> bool:
        return self.status is TransactionStatus.ACTIVE


class TransactionManager:
    """Allocates TIDs / commit timestamps and answers visibility questions.

    When constructed with a :class:`repro.storage.wal.WriteAheadLog`, commit
    and abort records are appended to it so recovery can tell committed work
    apart from in-flight work.
    """

    def __init__(self, wal=None, metrics=None, tracer=None) -> None:
        self._next_tid = 1
        self._next_commit_ts = 1
        self._commit_ts: dict[int, int] = {}
        self._aborted: set[int] = set()
        self._active: dict[int, Transaction] = {}
        # Serializes lifecycle transitions: TID / commit-timestamp
        # allocation and the active set are shared mutable state, and
        # concurrent sessions must never observe (or allocate) a torn
        # view of them.  Reentrant because rollback runs table undo hooks
        # that may consult visibility.
        self._lock = threading.RLock()
        self._wal = wal
        self._tracer = tracer
        # Pre-resolved counter handles: commit/abort are hot paths.
        self._m_commits = None if metrics is None else metrics.counter("txn.commits")
        self._m_aborts = None if metrics is None else metrics.counter("txn.aborts")

    # -- lifecycle --------------------------------------------------------

    def begin(self) -> Transaction:
        with self._lock:
            tid = self._next_tid
            self._next_tid += 1
            txn = Transaction(tid=tid, snapshot_ts=self._next_commit_ts - 1)
            self._active[tid] = txn
        return txn

    def commit(self, txn: Transaction) -> int:
        with self._lock:
            if not txn.is_active:
                raise TransactionError(f"transaction {txn.tid} is not active")
            ts = self._next_commit_ts
            self._next_commit_ts += 1
            self._commit_ts[txn.tid] = ts
            txn.commit_ts = ts
            txn.status = TransactionStatus.COMMITTED
            wrote = bool(txn.undo)
            txn.undo.clear()
            del self._active[txn.tid]
            # A read-only transaction (every autocommit SELECT's snapshot)
            # left nothing in the log to commit, so it pays no log record
            # and no fsync.
            if wrote and self._wal is not None:
                self._wal.log_commit(txn.tid)
        if self._m_commits is not None:
            self._m_commits.inc()
        tracer = self._tracer
        if tracer is not None and tracer.enabled:
            tracer.event("mvcc.commit", tid=txn.tid, commit_ts=ts)
        return ts

    def rollback(self, txn: Transaction) -> None:
        with self._lock:
            if not txn.is_active:
                raise TransactionError(f"transaction {txn.tid} is not active")
            for table, kind, row_id in reversed(txn.undo):
                table._undo(kind, row_id)  # type: ignore[attr-defined]
            txn.undo.clear()
            self._aborted.add(txn.tid)
            txn.status = TransactionStatus.ABORTED
            del self._active[txn.tid]
            if self._wal is not None:
                self._wal.log_abort(txn.tid)
        if self._m_aborts is not None:
            self._m_aborts.inc()
        tracer = self._tracer
        if tracer is not None and tracer.enabled:
            tracer.event("mvcc.abort", tid=txn.tid)

    # -- visibility --------------------------------------------------------

    def commit_ts_of(self, tid: int) -> int | None:
        """The commit timestamp of ``tid``; None if in flight or aborted."""
        if tid == NO_TID:
            return 0
        return self._commit_ts.get(tid)

    def was_committed_before(self, tid: int, snapshot_ts: int) -> bool:
        ts = self.commit_ts_of(tid)
        return ts is not None and ts <= snapshot_ts

    def is_visible(self, created_tid: int, deleted_tid: int, txn: Transaction) -> bool:
        """Visibility of one row version to ``txn``'s snapshot."""
        created_ok = created_tid == txn.tid or self.was_committed_before(
            created_tid, txn.snapshot_ts
        )
        if not created_ok:
            return False
        if deleted_tid == NO_TID:
            return True
        deleted_applies = deleted_tid == txn.tid or self.was_committed_before(
            deleted_tid, txn.snapshot_ts
        )
        return not deleted_applies

    @property
    def active_count(self) -> int:
        return len(self._active)

    def oldest_active_snapshot(self) -> int:
        """Snapshot horizon below which dead versions can be reclaimed."""
        if not self._active:
            return self._next_commit_ts - 1
        return min(t.snapshot_ts for t in self._active.values())
