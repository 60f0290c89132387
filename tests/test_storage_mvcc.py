"""MVCC transaction and snapshot-isolation tests over column tables."""

import pytest

from repro.catalog.schema import ColumnSchema, TableSchema, UniqueConstraint
from repro.datatypes import INTEGER, varchar
from repro.errors import ConstraintError, ExecutionError, TransactionError
from repro.storage import ColumnTable, TransactionManager
from repro.storage.mvcc import TransactionStatus


def make_table(txns, name="t", unique=True):
    constraints = [UniqueConstraint(("id",), True)] if unique else []
    schema = TableSchema(
        name,
        [ColumnSchema("id", INTEGER, False), ColumnSchema("v", varchar(20))],
        constraints,
    )
    return ColumnTable(schema, txns)


class TestTransactionLifecycle:
    def test_commit_assigns_timestamp(self):
        txns = TransactionManager()
        txn = txns.begin()
        ts = txns.commit(txn)
        assert txn.status is TransactionStatus.COMMITTED
        assert txn.commit_ts == ts

    def test_double_commit_rejected(self):
        txns = TransactionManager()
        txn = txns.begin()
        txns.commit(txn)
        with pytest.raises(TransactionError):
            txns.commit(txn)

    def test_rollback_then_commit_rejected(self):
        txns = TransactionManager()
        txn = txns.begin()
        txns.rollback(txn)
        with pytest.raises(TransactionError):
            txns.commit(txn)

    def test_active_count(self):
        txns = TransactionManager()
        a, b = txns.begin(), txns.begin()
        assert txns.active_count == 2
        txns.commit(a)
        txns.rollback(b)
        assert txns.active_count == 0


class TestSnapshotIsolation:
    def test_uncommitted_rows_invisible_to_others(self):
        txns = TransactionManager()
        table = make_table(txns)
        writer = txns.begin()
        table.insert(writer, (1, "a"))
        reader = txns.begin()
        assert table.visible_row_count(reader) == 0
        assert table.visible_row_count(writer) == 1  # own writes visible

    def test_snapshot_does_not_move(self):
        txns = TransactionManager()
        table = make_table(txns)
        reader = txns.begin()
        writer = txns.begin()
        table.insert(writer, (1, "a"))
        txns.commit(writer)
        # reader began before the commit: still sees nothing
        assert table.visible_row_count(reader) == 0
        late_reader = txns.begin()
        assert table.visible_row_count(late_reader) == 1

    def test_delete_respects_snapshots(self):
        txns = TransactionManager()
        table = make_table(txns)
        table.bulk_load([(1, "a")])
        old_reader = txns.begin()
        deleter = txns.begin()
        table.delete_row(deleter, 0)
        txns.commit(deleter)
        assert table.visible_row_count(old_reader) == 1
        assert table.visible_row_count(txns.begin()) == 0

    def test_rollback_hides_inserts(self):
        txns = TransactionManager()
        table = make_table(txns)
        txn = txns.begin()
        table.insert(txn, (1, "a"))
        txns.rollback(txn)
        assert table.visible_row_count(txns.begin()) == 0

    def test_rollback_restores_deletes(self):
        txns = TransactionManager()
        table = make_table(txns)
        table.bulk_load([(1, "a")])
        txn = txns.begin()
        table.delete_row(txn, 0)
        txns.rollback(txn)
        assert table.visible_row_count(txns.begin()) == 1

    def test_update_is_delete_plus_insert(self):
        txns = TransactionManager()
        table = make_table(txns)
        table.bulk_load([(1, "old")])
        old_reader = txns.begin()
        writer = txns.begin()
        table.update_row(writer, 0, (1, "new"))
        txns.commit(writer)
        columns, n = table.read_columns(old_reader, ["v"])
        assert (n, columns[0]) == (1, ["old"])
        columns, n = table.read_columns(txns.begin(), ["v"])
        assert (n, columns[0]) == (1, ["new"])

    def test_delete_invisible_row_rejected(self):
        txns = TransactionManager()
        table = make_table(txns)
        writer = txns.begin()
        table.insert(writer, (1, "a"))
        other = txns.begin()
        with pytest.raises(ExecutionError):
            table.delete_row(other, 0)

    def test_write_write_conflict_on_delete(self):
        txns = TransactionManager()
        table = make_table(txns)
        table.bulk_load([(1, "a")])
        t1, t2 = txns.begin(), txns.begin()
        table.delete_row(t1, 0)
        with pytest.raises(ConstraintError):
            table.delete_row(t2, 0)

    @pytest.mark.parametrize("bulk_loaded", [False, True])
    def test_lock_free_read_between_the_appends_of_an_insert(self, bulk_loaded):
        # Readers take no lock, so a scan may run between any two appends
        # of a concurrent insert: it must neither fail nor see the row.
        from array import array

        txns = TransactionManager()
        table = make_table(txns)
        if bulk_loaded:
            table.bulk_load([(1, "a")])  # all rows visible: the range fast path
        else:
            committed = txns.begin()
            table.insert(committed, (1, "a"))
            txns.commit(committed)
        reader = txns.begin()
        seen = []

        class ReadBeforeAppend(array):
            def append(self, value):
                seen.append(table.read_columns(reader, ["id"]))
                super().append(value)

        table.created_tids = ReadBeforeAppend("q", table.created_tids)
        table.deleted_tids = ReadBeforeAppend("q", table.deleted_tids)
        table.insert(txns.begin(), (2, "b"))
        assert seen == [([[1]], 1)] * 2


class TestConstraints:
    def test_unique_violation_same_txn(self):
        txns = TransactionManager()
        table = make_table(txns)
        txn = txns.begin()
        table.insert(txn, (1, "a"))
        with pytest.raises(ConstraintError):
            table.insert(txn, (1, "b"))

    def test_unique_violation_across_committed(self):
        txns = TransactionManager()
        table = make_table(txns)
        table.bulk_load([(1, "a")])
        txn = txns.begin()
        with pytest.raises(ConstraintError):
            table.insert(txn, (1, "b"))

    def test_reinsert_after_committed_delete(self):
        txns = TransactionManager()
        table = make_table(txns)
        table.bulk_load([(1, "a")])
        deleter = txns.begin()
        table.delete_row(deleter, 0)
        txns.commit(deleter)
        writer = txns.begin()
        table.insert(writer, (1, "b"))  # key is free again
        txns.commit(writer)

    def test_delete_then_reinsert_same_txn(self):
        txns = TransactionManager()
        table = make_table(txns)
        table.bulk_load([(1, "a")])
        txn = txns.begin()
        table.delete_row(txn, 0)
        table.insert(txn, (1, "b"))
        txns.commit(txn)
        columns, n = table.read_columns(txns.begin(), ["v"])
        assert (n, columns[0]) == (1, ["b"])

    def test_concurrent_insert_same_key_conflicts(self):
        txns = TransactionManager()
        table = make_table(txns)
        t1, t2 = txns.begin(), txns.begin()
        table.insert(t1, (1, "a"))
        with pytest.raises(ConstraintError):
            table.insert(t2, (1, "b"))

    def test_aborted_insert_frees_key(self):
        txns = TransactionManager()
        table = make_table(txns)
        t1 = txns.begin()
        table.insert(t1, (1, "a"))
        txns.rollback(t1)
        t2 = txns.begin()
        table.insert(t2, (1, "b"))
        txns.commit(t2)

    def test_primary_key_violation_against_a_single_version_key(self):
        txns = TransactionManager()
        table = make_table(txns)
        writer = txns.begin()
        table.insert(writer, (1, "a"))
        txns.commit(writer)
        other = txns.begin()
        with pytest.raises(ConstraintError, match="PRIMARY KEY"):
            table.insert(other, (1, "b"))
        assert table._unique_indexes[0] == {(1,): 0}  # a bare row id

    def test_update_in_place_of_a_key_within_one_transaction(self):
        txns = TransactionManager()
        table = make_table(txns)
        table.bulk_load([(1, "a")])
        txn = txns.begin()
        new_id = table.update_row(txn, 0, (1, "b"))
        new_id = table.update_row(txn, new_id, (1, "c"))
        # three versions share the key: the entry grew into a set
        assert table._unique_indexes[0] == {(1,): {0, 1, 2}}
        with pytest.raises(ConstraintError):
            table.insert(txn, (1, "d"))
        txns.commit(txn)
        columns, n = table.read_columns(txns.begin(), ["v"])
        assert (n, columns[0]) == (1, ["c"])
        with pytest.raises(ConstraintError):
            table.insert(txns.begin(), (1, "e"))

    def test_rollback_unindexes_bare_and_shared_keys(self):
        txns = TransactionManager()
        table = make_table(txns)
        table.bulk_load([(1, "a")])
        txn = txns.begin()
        table.insert(txn, (2, "x"))
        table.update_row(txn, 0, (1, "b"))
        txns.rollback(txn)
        assert table._unique_indexes[0] == {(1,): {0}}
        again = txns.begin()
        table.insert(again, (2, "y"))  # the key the rollback freed
        with pytest.raises(ConstraintError):
            table.insert(again, (1, "z"))  # row 0 still holds key 1
        txns.commit(again)

    def test_null_keys_never_collide(self):
        txns = TransactionManager()
        schema = TableSchema(
            "n", [ColumnSchema("k", INTEGER), ColumnSchema("v", varchar(5))],
            [UniqueConstraint(("k",))],
        )
        table = ColumnTable(schema, txns)
        txn = txns.begin()
        table.insert(txn, (None, "a"))
        table.insert(txn, (None, "b"))  # SQL: NULLs don't violate UNIQUE
        txns.commit(txn)

    def test_not_null_enforced(self):
        txns = TransactionManager()
        table = make_table(txns)
        txn = txns.begin()
        with pytest.raises(ConstraintError):
            table.insert(txn, (None, "a"))

    def test_arity_mismatch(self):
        txns = TransactionManager()
        table = make_table(txns)
        txn = txns.begin()
        with pytest.raises(ExecutionError):
            table.insert(txn, (1,))


class TestMaintenance:
    def test_merge_preserves_visibility(self):
        txns = TransactionManager()
        table = make_table(txns)
        table.bulk_load([(i, f"v{i}") for i in range(5)], merge=False)
        assert table.delta_size == 5
        reader = txns.begin()
        before, _ = table.read_columns(reader, ["id"])
        table.merge_delta()
        assert table.delta_size == 0
        after, _ = table.read_columns(reader, ["id"])
        assert before == after

    def test_vacuum_reclaims_dead_versions(self):
        txns = TransactionManager()
        table = make_table(txns)
        table.bulk_load([(i, f"v{i}") for i in range(3)])
        deleter = txns.begin()
        table.delete_row(deleter, 1)
        txns.commit(deleter)
        assert table.vacuum() == 1
        assert len(table) == 2
        columns, _ = table.read_columns(txns.begin(), ["id"])
        assert sorted(columns[0]) == [0, 2]

    def test_vacuum_blocked_by_old_snapshot(self):
        txns = TransactionManager()
        table = make_table(txns)
        table.bulk_load([(1, "a")])
        old_reader = txns.begin()  # holds the horizon
        deleter = txns.begin()
        table.delete_row(deleter, 0)
        txns.commit(deleter)
        assert table.vacuum() == 0
        assert table.visible_row_count(old_reader) == 1

    def test_vacuum_reindexes_keys(self):
        txns = TransactionManager()
        table = make_table(txns)
        table.bulk_load([(1, "a"), (2, "b")])
        deleter = txns.begin()
        table.delete_row(deleter, 0)
        txns.commit(deleter)
        table.vacuum()
        txn = txns.begin()
        with pytest.raises(ConstraintError):
            table.insert(txn, (2, "dup"))
        table.insert(txn, (1, "fresh"))

    def test_add_column_backfills_default(self):
        txns = TransactionManager()
        table = make_table(txns)
        table.bulk_load([(1, "a")])
        table.add_column(ColumnSchema("zz_ext", varchar(10)), default=None)
        columns, _ = table.read_columns(txns.begin(), ["zz_ext"])
        assert columns[0] == [None]
        txn = txns.begin()
        table.insert(txn, (2, "b", "custom"))
        txns.commit(txn)

    def test_add_duplicate_column_rejected(self):
        txns = TransactionManager()
        table = make_table(txns)
        with pytest.raises(ConstraintError):
            table.add_column(ColumnSchema("id", INTEGER))

    def test_add_not_null_column_needs_default(self):
        txns = TransactionManager()
        table = make_table(txns)
        with pytest.raises(ConstraintError):
            table.add_column(ColumnSchema("x", INTEGER, nullable=False))
