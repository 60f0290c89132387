"""Column tables: fragments + MVCC row versions + constraints.

A :class:`ColumnTable` stores one fragment pair per column plus two parallel
version vectors (``created_tids`` / ``deleted_tids``).  Row ids are stable
for the lifetime of the table (delta merge recompresses values but does not
renumber rows); deleted rows are reclaimed only by :meth:`vacuum`.
"""

from __future__ import annotations

import threading
from array import array
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from ..errors import ConstraintError, ExecutionError
from ..catalog.schema import TableSchema
from .column import ColumnFragments
from .mvcc import NO_TID, Transaction, TransactionManager

if TYPE_CHECKING:  # pragma: no cover
    from .wal import WriteAheadLog


class ColumnTable:
    """One HTAP column table with delta/main fragments and MVCC versions."""

    def __init__(
        self,
        schema: TableSchema,
        txn_manager: TransactionManager,
        wal: "WriteAheadLog | None" = None,
        faults=None,
    ):
        self.schema = schema
        self._txns = txn_manager
        self.wal = wal
        self._faults = faults
        self._columns: dict[str, ColumnFragments] = {
            col.name: ColumnFragments() for col in schema.columns
        }
        # Serializes writers (insert/delete/bulk_load/merge/vacuum/DDL).
        # Readers stay lock-free: they snapshot ``len(created_tids)`` once
        # and never read past it, and _append_row appends column values
        # *before* created_tids so a row only becomes countable once its
        # values are all in place.  Lock ordering is txn-lock < table-lock
        # < wal-lock (rollback: txn->table; insert: table->wal).
        self._write_lock = threading.RLock()
        self.created_tids = array("q")
        self.deleted_tids = array("q")
        # Fast-path flag: while every row was bulk-loaded (created at
        # bootstrap, never deleted), every snapshot sees all rows and scans
        # skip per-row visibility checks entirely.
        self._mvcc_dirty = False
        # One multimap per unique constraint: key tuple -> candidate row ids,
        # held as a bare row id until a second version shares the key (an
        # MVCC update), then as a set.  Entries are superset
        # approximations; visibility is re-checked on use.
        self._unique_indexes: list[dict[tuple, int | set[int]]] = [
            {} for _ in schema.unique_constraints
        ]

    # -- basic shape ------------------------------------------------------

    def __len__(self) -> int:
        return len(self.created_tids)

    @property
    def delta_size(self) -> int:
        first = next(iter(self._columns.values()), None)
        return first.delta_size if first is not None else 0

    def column(self, name: str) -> ColumnFragments:
        return self._columns[name.lower()]

    # -- loading and mutation ----------------------------------------------

    def bulk_load(self, rows: Iterable[Sequence[object]], merge: bool = True) -> int:
        """Load rows outside any transaction (visible to every snapshot).

        Used by workload generators; validates types and unique constraints,
        then optionally performs an immediate delta merge so benchmarks start
        from a compressed main fragment.
        """
        count = 0
        log_rows = self.wal is not None and getattr(self.wal, "durable", False)
        with self._write_lock:
            for row in rows:
                row_id = self._append_row(row, NO_TID, validate_unique=True)
                if log_rows:
                    # Durable WALs must cover the generator fast path too, or
                    # bulk-loaded tables would come back empty after recovery.
                    self.wal.log_insert(
                        NO_TID, self.schema.name,
                        tuple(self._row_values(row_id)), row_id,
                    )
                count += 1
            if merge and count:
                self.merge_delta()
        return count

    def insert(self, txn: Transaction, row: Sequence[object]) -> int:
        """Insert one row in ``txn``; returns the new row id."""
        if self._faults is not None:
            self._faults.fire("storage.insert", table=self.schema.name)
        with self._write_lock:
            row_id = self._append_row(row, txn.tid, validate_unique=True)
            txn.undo.append((self, "insert", row_id))
            if self.wal is not None:
                self.wal.log_insert(
                    txn.tid, self.schema.name, tuple(self._row_values(row_id)), row_id
                )
        return row_id

    def delete_row(self, txn: Transaction, row_id: int) -> None:
        """Mark ``row_id`` deleted by ``txn`` (it must be visible to it)."""
        if self._faults is not None:
            self._faults.fire("storage.delete", table=self.schema.name)
        with self._write_lock:
            if not self.is_visible(row_id, txn):
                raise ExecutionError(f"row {row_id} is not visible to transaction {txn.tid}")
            deleter = self.deleted_tids[row_id]
            if deleter != NO_TID and self._txns.commit_ts_of(deleter) is None and deleter != txn.tid:
                # Another in-flight transaction already deleted it: write conflict.
                raise ConstraintError(
                    f"write-write conflict on {self.schema.name!r} row {row_id}"
                )
            self.deleted_tids[row_id] = txn.tid
            self._mvcc_dirty = True
            txn.undo.append((self, "delete", row_id))
            if self.wal is not None:
                self.wal.log_delete(txn.tid, self.schema.name, row_id)

    def update_row(self, txn: Transaction, row_id: int, new_row: Sequence[object]) -> int:
        """MVCC update = delete old version + insert new version."""
        with self._write_lock:
            self.delete_row(txn, row_id)
            return self.insert(txn, new_row)

    def _append_row(self, row: Sequence[object], created_tid: int, validate_unique: bool) -> int:
        columns = self.schema.columns
        if len(row) != len(columns):
            raise ExecutionError(
                f"expected {len(columns)} values for {self.schema.name!r}, got {len(row)}"
            )
        coerced = []
        for col, value in zip(columns, row):
            if value is None and not col.nullable:
                raise ConstraintError(
                    f"NULL in NOT NULL column {self.schema.name}.{col.name}"
                )
            coerced.append(col.data_type.validate(value))
        if validate_unique:
            self._check_unique(coerced, created_tid)
        row_id = len(self.created_tids)
        for col, value in zip(columns, coerced):
            self._columns[col.name].append(value)
        # created_tids grows last: a lock-free reader sizes its scan by it,
        # so every other per-row array, and the dirty flag that turns on
        # visibility checks, must already cover the row.
        self.deleted_tids.append(NO_TID)
        if created_tid != NO_TID:
            self._mvcc_dirty = True
        self.created_tids.append(created_tid)
        self._index_row(row_id, coerced)
        return row_id

    def _row_values(self, row_id: int) -> list[object]:
        return [self._columns[c.name].get(row_id) for c in self.schema.columns]

    # -- uniqueness ---------------------------------------------------------

    def _key_of(self, constraint_index: int, values: Sequence[object]) -> tuple | None:
        constraint = self.schema.unique_constraints[constraint_index]
        key = tuple(values[self.schema.column_index(c)] for c in constraint.columns)
        return None if any(v is None for v in key) else key

    def _index_row(self, row_id: int, values: Sequence[object]) -> None:
        for i, index in enumerate(self._unique_indexes):
            key = self._key_of(i, values)
            if key is None:
                continue
            held = index.get(key)
            if held is None:
                index[key] = row_id
            elif held.__class__ is int:
                index[key] = {held, row_id}
            else:
                held.add(row_id)

    def _unindex_row(self, row_id: int, values: Sequence[object]) -> None:
        for i, index in enumerate(self._unique_indexes):
            key = self._key_of(i, values)
            held = None if key is None else index.get(key)
            if held is None:
                continue
            if held.__class__ is int:
                if held == row_id:
                    del index[key]
            else:
                held.discard(row_id)
                if not held:
                    del index[key]

    def _check_unique(self, values: Sequence[object], writer_tid: int) -> None:
        for i, constraint in enumerate(self.schema.unique_constraints):
            key = self._key_of(i, values)
            if key is None:
                continue  # SQL semantics: NULLs never collide
            held = self._unique_indexes[i].get(key)
            if held is None:
                continue
            for row_id in ((held,) if held.__class__ is int else held):
                if self._version_conflicts(row_id, writer_tid):
                    label = "PRIMARY KEY" if constraint.is_primary else "UNIQUE"
                    raise ConstraintError(
                        f"{label} violation on {self.schema.name}({', '.join(constraint.columns)})"
                        f": duplicate key {key!r}"
                    )

    def _version_conflicts(self, row_id: int, writer_tid: int) -> bool:
        """Would a row with the same key conflict with a write by ``writer_tid``?

        A candidate conflicts when its creating version is *live*: committed
        and not deleted by a committed deleter, or created/retained by the
        writer itself, or created by another in-flight transaction (a
        would-be write-write race, rejected conservatively).
        """
        created = self.created_tids[row_id]
        deleted = self.deleted_tids[row_id]
        created_live = (
            created == NO_TID
            or created == writer_tid
            or self._txns.commit_ts_of(created) is not None
            or self._is_in_flight(created)
        )
        if not created_live:
            return False
        if deleted == NO_TID:
            return True
        if deleted == writer_tid:
            return False  # the writer already deleted the old version
        # A committed delete frees the key; an in-flight or aborted deleter
        # leaves the old version (potentially) alive, so conflict.
        return self._txns.commit_ts_of(deleted) is None

    def _is_in_flight(self, tid: int) -> bool:
        return (
            tid != NO_TID
            and self._txns.commit_ts_of(tid) is None
            and tid not in self._txns._aborted
        )

    def _undo(self, kind: str, row_id: int) -> None:
        """Rollback hook: clean auxiliary structures (visibility is handled
        by the aborted-TID set in the transaction manager)."""
        with self._write_lock:
            if kind == "insert":
                self._unindex_row(row_id, self._row_values(row_id))
            elif kind == "delete":
                self.deleted_tids[row_id] = NO_TID

    # -- reads ----------------------------------------------------------------

    def is_visible(self, row_id: int, txn: Transaction) -> bool:
        return self._txns.is_visible(self.created_tids[row_id], self.deleted_tids[row_id], txn)

    def visible_row_ids(self, txn: Transaction) -> "list[int] | range":
        if not self._mvcc_dirty:
            return range(len(self.created_tids))
        created = self.created_tids
        deleted = self.deleted_tids
        is_visible = self._txns.is_visible
        return [i for i in range(len(created)) if is_visible(created[i], deleted[i], txn)]

    def read_columns(self, txn: Transaction, names: Sequence[str]) -> tuple[list[list[object]], int]:
        """Read a snapshot of the named columns.

        Returns ``(columns, row_count)`` where each column is a dense list of
        visible values in row-id order — the engine's scan primitive.
        """
        row_ids = self.visible_row_ids(txn)
        count = len(row_ids)
        columns: list[list[object]] = []
        for name in names:
            fragments = self.column(name)
            if isinstance(row_ids, range):
                # Fast path: all rows visible at snapshot time.  Decode by
                # explicit range, never ``fragments.values()``: a concurrent
                # writer may have appended column values past the row-count
                # snapshot (values land before created_tids), and the full
                # decode would tear — more values than counted rows.
                columns.append(fragments.get_range(0, count))
            else:
                columns.append([fragments.get(i) for i in row_ids])
        return columns, count

    def read_column_batches(
        self,
        txn: Transaction,
        names: Sequence[str],
        batch_size: int,
        row_ids: "Sequence[int] | range | None" = None,
        vectorized: bool = False,
    ) -> Iterator[tuple[list[list[object]], int]]:
        """Stream a snapshot of the named columns in ``batch_size`` batches.

        Yields ``(columns, row_count)`` tuples in row-id order.  ``row_ids``
        lets block pruning compose with streaming: a caller that already
        narrowed the scan (zone maps, visibility) passes the surviving ids
        and each batch decodes only those.  Contiguous ranges (the common
        all-visible case) decode via fragment slices rather than per-row
        lookups.  With ``vectorized`` the main-fragment portion of a batch
        stays dictionary-coded (a :class:`DictVector` sharing the fragment
        dictionary) instead of decoding to Python objects.  With no names
        the batches still carry ``row_count`` — the zero-column
        ``COUNT(*)`` input.
        """
        if row_ids is None:
            row_ids = self.visible_row_ids(txn)
        fragments = [self.column(name) for name in names]
        contiguous = isinstance(row_ids, range) and row_ids.step == 1
        total = len(row_ids)
        for start in range(0, total, batch_size):
            ids = row_ids[start:start + batch_size]
            if contiguous:
                if vectorized:
                    columns = [
                        f.get_range_vector(ids.start, ids.stop) for f in fragments
                    ]
                else:
                    columns = [f.get_range(ids.start, ids.stop) for f in fragments]
            elif vectorized:
                columns = [f.get_many_vector(ids) for f in fragments]
            else:
                columns = [f.get_many(ids) for f in fragments]
            yield columns, len(ids)

    def scan_rows(self, txn: Transaction) -> Iterator[tuple[int, list[object]]]:
        for row_id in self.visible_row_ids(txn):
            yield row_id, self._row_values(row_id)

    def visible_row_count(self, txn: Transaction) -> int:
        return len(self.visible_row_ids(txn))

    # -- schema evolution -------------------------------------------------------

    def add_column(self, column, default: object = None) -> None:
        """Add a column to the table (the §5 custom-fields extension).

        Existing rows get ``default``.  The column must be nullable unless a
        non-NULL default is supplied.
        """
        from ..catalog.schema import ColumnSchema

        assert isinstance(column, ColumnSchema)
        if self.schema.has_column(column.name):
            raise ConstraintError(
                f"column {column.name!r} already exists on {self.schema.name!r}"
            )
        if not column.nullable and default is None:
            raise ConstraintError(
                f"new NOT NULL column {column.name!r} requires a default"
            )
        if default is not None:
            default = column.data_type.validate(default)
        with self._write_lock:
            # Dict entry first, schema second: a concurrent reader that sees
            # the new column in the schema must find its fragments.
            self._columns[column.name] = ColumnFragments(
                [default] * len(self.created_tids)
            )
            self.schema.columns.append(column)

    # -- maintenance ---------------------------------------------------------

    def merge_delta(self) -> None:
        """Merge every column's delta into its main fragment (§2.2).

        Copy-on-write per column: a fresh merged ``ColumnFragments`` is
        built and swapped into the dict in one atomic store, so lock-free
        readers holding the old object keep a consistent main+delta pair.
        (In-place ``fragments.merge()`` would momentarily show the merged
        main *and* the not-yet-cleared delta: duplicated rows.)
        """
        with self._write_lock:
            for name, fragments in list(self._columns.items()):
                self._columns[name] = ColumnFragments(fragments.values())

    def vacuum(self) -> int:
        """Physically remove versions dead to every possible snapshot.

        Returns the number of reclaimed rows.  Row ids are renumbered, so
        this must not run while queries are executing — the serving layer
        never calls it; embedded callers must quiesce first.  The write
        lock below still excludes concurrent writers.
        """
        with self._write_lock:
            return self._vacuum_locked()

    def _vacuum_locked(self) -> int:
        horizon = self._txns.oldest_active_snapshot()
        keep: list[int] = []
        for row_id in range(len(self.created_tids)):
            created = self.created_tids[row_id]
            deleted = self.deleted_tids[row_id]
            dead_delete = deleted != NO_TID and self._txns.was_committed_before(deleted, horizon)
            aborted_insert = created != NO_TID and created in self._txns._aborted
            if not (dead_delete or aborted_insert):
                keep.append(row_id)
        reclaimed = len(self.created_tids) - len(keep)
        if reclaimed == 0:
            return 0
        for name, fragments in list(self._columns.items()):
            values = [fragments.get(i) for i in keep]
            new_fragments = ColumnFragments(values)
            self._columns[name] = new_fragments
        self.created_tids = array("q", (self.created_tids[i] for i in keep))
        self.deleted_tids = array("q", (self.deleted_tids[i] for i in keep))
        self._unique_indexes = [{} for _ in self.schema.unique_constraints]
        for new_id in range(len(keep)):
            self._index_row(new_id, self._row_values(new_id))
        return reclaimed

    # -- statistics ------------------------------------------------------------

    def estimated_row_count(self) -> int:
        return len(self.created_tids)

    def estimated_distinct(self, column: str) -> int:
        fragments = self.column(column)
        distinct = fragments.main.distinct_count()
        if fragments.delta_size:
            distinct += len(set(fragments.delta.values)) // 2 + 1
        return max(distinct, 1)
