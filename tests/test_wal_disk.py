"""Durable WAL: framing, segments, checkpoints, torn tails, recovery."""

import json
import os
import struct
import zlib

import pytest

from repro.database import Database
from repro.errors import TransactionError
from repro.storage import DiskWriteAheadLog, WriteAheadLog
from repro.storage.wal_disk import FSYNC_POLICIES, _frame, _iter_frames


def segments(wal_dir):
    return sorted(n for n in os.listdir(wal_dir)
                  if n.startswith("wal-") and n.endswith(".seg"))


def checkpoints(wal_dir):
    return sorted(n for n in os.listdir(wal_dir)
                  if n.startswith("checkpoint-") and n.endswith(".ckpt"))


def rows_of(db, table="t"):
    return sorted(db.query(f"select id, v from {table}").rows)


class TestFraming:
    def test_frame_round_trip(self):
        data = _frame(b"alpha") + _frame(b"beta")
        assert [p for _, p in _iter_frames(data)] == [b"alpha", b"beta"]

    def test_iter_frames_stops_at_bad_crc(self):
        good = _frame(b"alpha")
        bad = struct.pack("<II", 4, zlib.crc32(b"good")) + b"evil"
        assert [p for _, p in _iter_frames(good + bad + _frame(b"beta"))] == [b"alpha"]

    def test_iter_frames_stops_at_short_payload(self):
        torn = _frame(b"alpha") + struct.pack("<II", 100, 0) + b"short"
        ends = [end for end, _ in _iter_frames(torn)]
        assert ends == [len(_frame(b"alpha"))]

    def test_invalid_fsync_policy_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="fsync policy"):
            DiskWriteAheadLog(str(tmp_path), fsync="sometimes")
        assert set(FSYNC_POLICIES) == {"always", "commit", "never"}


class TestDurableRoundTrip:
    @pytest.mark.parametrize("fsync", FSYNC_POLICIES)
    def test_committed_rows_survive(self, tmp_path, fsync):
        db = Database(wal_dir=str(tmp_path), fsync=fsync)
        db.execute("create table t (id int primary key, v int)")
        db.execute("insert into t values (1, 10), (2, 20)")
        db.close()
        recovered = Database.recover(str(tmp_path), fsync=fsync)
        assert rows_of(recovered) == [(1, 10), (2, 20)]
        recovered.close()

    def test_uncommitted_transaction_dropped(self, tmp_path):
        db = Database(wal_dir=str(tmp_path))
        db.execute("create table t (id int primary key, v int)")
        db.execute("insert into t values (1, 10)")
        txn = db.begin()
        db.execute("insert into t values (2, 20)", txn)
        db.close()  # crash before commit
        recovered = Database.recover(str(tmp_path))
        assert rows_of(recovered) == [(1, 10)]
        recovered.close()

    def test_deletes_and_updates_replay(self, tmp_path):
        db = Database(wal_dir=str(tmp_path))
        db.execute("create table t (id int primary key, v int)")
        db.execute("insert into t values (1, 10), (2, 20), (3, 30)")
        db.execute("delete from t where id = 2")
        db.execute("update t set v = 99 where id = 3")
        db.close()
        recovered = Database.recover(str(tmp_path))
        assert rows_of(recovered) == [(1, 10), (3, 99)]
        recovered.close()

    def test_bulk_load_survives_recovery(self, tmp_path):
        db = Database(wal_dir=str(tmp_path))
        db.execute("create table t (id int primary key, v int)")
        db.bulk_load("t", [(i, i * 10) for i in range(50)])
        db.close()
        recovered = Database.recover(str(tmp_path))
        assert recovered.query("select count(*) from t").scalar() == 50
        recovered.close()

    def test_views_and_drops_replay(self, tmp_path):
        db = Database(wal_dir=str(tmp_path))
        db.execute("create table t (id int primary key, v int)")
        db.execute("create table gone (id int primary key)")
        db.execute("insert into t values (1, 5)")
        db.execute("create view doubled as select id, v * 2 as v2 from t")
        db.execute("drop table gone")
        db.close()
        recovered = Database.recover(str(tmp_path))
        assert recovered.query("select v2 from doubled").rows == [(10,)]
        assert not recovered.catalog.has_table("gone")
        recovered.close()

    def test_work_after_recovery_is_durable(self, tmp_path):
        db = Database(wal_dir=str(tmp_path))
        db.execute("create table t (id int primary key, v int)")
        db.execute("insert into t values (1, 10)")
        db.close()
        mid = Database.recover(str(tmp_path))
        mid.execute("insert into t values (2, 20)")
        mid.execute("delete from t where id = 1")
        mid.close()
        final = Database.recover(str(tmp_path))
        assert rows_of(final) == [(2, 20)]
        final.close()


class TestCheckpoint:
    def test_checkpoint_truncates_log(self, tmp_path):
        db = Database(wal_dir=str(tmp_path))
        db.execute("create table t (id int primary key, v int)")
        db.execute("insert into t values (1, 10), (2, 20)")
        assert len(db.wal.records()) > 0
        db.checkpoint()
        assert db.wal.records() == []
        assert len(checkpoints(str(tmp_path))) == 1
        assert db.metrics.counter("wal.checkpoints").value == 1
        db.execute("insert into t values (3, 30)")
        db.close()
        recovered = Database.recover(str(tmp_path))
        assert rows_of(recovered) == [(1, 10), (2, 20), (3, 30)]
        recovered.close()

    def test_checkpoint_requires_durable_wal(self):
        db = Database()
        with pytest.raises(TransactionError, match="durable WAL"):
            db.checkpoint()

    def test_checkpoint_refuses_active_transactions(self, tmp_path):
        db = Database(wal_dir=str(tmp_path))
        db.execute("create table t (id int primary key, v int)")
        txn = db.begin()
        db.execute("insert into t values (1, 1)", txn)
        with pytest.raises(TransactionError, match="active transactions"):
            db.checkpoint()
        db.commit(txn)
        db.checkpoint()  # fine once the transaction is closed
        db.close()

    def test_recovery_ends_with_fresh_checkpoint(self, tmp_path):
        db = Database(wal_dir=str(tmp_path))
        db.execute("create table t (id int primary key, v int)")
        db.execute("insert into t values (1, 10)")
        db.close()
        recovered = Database.recover(str(tmp_path))
        # Replay compacts row ids; a fresh checkpoint keeps the log from
        # mixing pre- and post-recovery id spaces.
        assert len(checkpoints(str(tmp_path))) == 1
        assert recovered.wal.records() == []
        recovered.close()

    def test_corrupt_checkpoint_falls_back(self, tmp_path):
        db = Database(wal_dir=str(tmp_path))
        db.execute("create table t (id int primary key, v int)")
        db.execute("insert into t values (1, 10)")
        db.checkpoint()
        db.execute("insert into t values (2, 20)")
        db.close()
        (ckpt,) = checkpoints(str(tmp_path))
        path = os.path.join(str(tmp_path), ckpt)
        with open(path, "r+b") as handle:
            handle.seek(12)
            handle.write(b"\x00\x00\x00\x00")  # corrupt the payload
        with pytest.warns(UserWarning, match="corrupt"):
            recovered = Database.recover(str(tmp_path))
        # The only checkpoint is gone — and with it the DDL covering the
        # post-checkpoint records.  The engine still comes up, loudly
        # degraded, rather than refusing to start.
        assert recovered.metrics.counter("wal.torn_tail_truncations").value >= 1
        assert recovered.metrics.counter("wal.replay_skips").value >= 1
        assert recovered.health()["status"] == "degraded"
        assert not recovered.catalog.has_table("t")
        recovered.close()


class TestTornTail:
    def test_garbage_tail_truncated(self, tmp_path):
        db = Database(wal_dir=str(tmp_path))
        db.execute("create table t (id int primary key, v int)")
        db.execute("insert into t values (1, 10)")
        seg_path = db.wal._segment_path
        db.close()
        with open(seg_path, "ab") as handle:
            handle.write(b"\xde\xad\xbe\xef torn by a crash")
        with pytest.warns(UserWarning, match="torn tail"):
            recovered = Database.recover(str(tmp_path))
        assert rows_of(recovered) == [(1, 10)]
        assert recovered.metrics.counter("wal.torn_tail_truncations").value == 1
        recovered.close()

    def test_truncation_is_persistent(self, tmp_path):
        db = Database(wal_dir=str(tmp_path))
        db.execute("create table t (id int primary key, v int)")
        db.execute("insert into t values (1, 10)")
        seg_path = db.wal._segment_path
        clean_size = os.path.getsize(seg_path)
        db.close()
        with open(seg_path, "ab") as handle:
            handle.write(b"garbage")
        # checkpoint_after=False keeps the old segments around so the
        # in-place truncation is observable.
        with pytest.warns(UserWarning, match="torn tail"):
            recovered = Database.recover(str(tmp_path), checkpoint_after=False)
        recovered.close()
        assert os.path.getsize(seg_path) == clean_size

    def test_segments_after_tear_ignored(self, tmp_path):
        wal = DiskWriteAheadLog(str(tmp_path), fsync="never")
        wal.log_insert(0, "t", (1,), 0)
        wal.close()
        torn = os.path.join(str(tmp_path), segments(str(tmp_path))[0])
        with open(torn, "ab") as handle:
            handle.write(b"XX")
        bogus = os.path.join(str(tmp_path), "wal-00000099.seg")
        with open(bogus, "wb") as handle:
            handle.write(_frame(json.dumps(
                {"lsn": 9, "tid": 9, "kind": "insert", "table": "t",
                 "payload": [9], "row_id": 9}).encode()))
        with pytest.warns(UserWarning, match="follows a torn tail"):
            reloaded = DiskWriteAheadLog(str(tmp_path), fsync="never")
        assert [r.lsn for r in reloaded.records()] == [1]
        reloaded.close()


class TestSegments:
    def test_segment_rolls_at_size_limit(self, tmp_path):
        wal = DiskWriteAheadLog(str(tmp_path), fsync="never", segment_bytes=256)
        for i in range(20):
            wal.log_insert(0, "t", (i, "x" * 30), i)
        wal.close()
        assert len(segments(str(tmp_path))) > 1
        reloaded = DiskWriteAheadLog(str(tmp_path), fsync="never")
        assert len(reloaded.records()) == 20
        reloaded.close()

    def test_fresh_segment_per_attach(self, tmp_path):
        wal = DiskWriteAheadLog(str(tmp_path), fsync="never")
        wal.log_insert(0, "t", (1,), 0)
        wal.close()
        second = DiskWriteAheadLog(str(tmp_path), fsync="never")
        second.log_insert(0, "t", (2,), 1)
        second.close()
        assert len(segments(str(tmp_path))) == 2
        reloaded = DiskWriteAheadLog(str(tmp_path), fsync="never")
        assert [r.payload for r in reloaded.records()] == [(1,), (2,)]
        reloaded.close()

    def test_fsync_counter(self, tmp_path):
        db = Database(wal_dir=str(tmp_path), fsync="commit")
        db.execute("create table t (id int primary key)")
        before = db.metrics.counter("wal.fsyncs").value
        db.execute("insert into t values (1)")
        assert db.metrics.counter("wal.fsyncs").value == before + 1  # commit only
        db.close()


class TestReadOnlyCommits:
    """A transaction that wrote nothing logs no commit record: autocommit
    SELECT snapshots cost no WAL bytes and no fsync."""

    def _wal_bytes(self, wal_dir):
        return sum(os.path.getsize(os.path.join(wal_dir, n))
                   for n in segments(wal_dir))

    def test_selects_leave_the_wal_untouched(self, tmp_path):
        db = Database(wal_dir=str(tmp_path), fsync="commit")
        db.execute("create table t (id int primary key, v int)")
        db.execute("insert into t values (1, 10), (2, 20)")
        fsyncs = db.metrics.counter("wal.fsyncs").value
        size = self._wal_bytes(str(tmp_path))
        for value in range(5):
            db.query(f"select v from t where id = {value}")
            db.execute("select count(*) from t")
        txn = db.begin()  # an explicit read-only transaction, too
        db.query("select sum(v) from t", txn)
        db.commit(txn)
        assert db.metrics.counter("wal.fsyncs").value == fsyncs
        assert self._wal_bytes(str(tmp_path)) == size
        db.close()

    def test_a_posting_still_fsyncs_once(self, tmp_path):
        db = Database(wal_dir=str(tmp_path), fsync="commit")
        db.execute("create table t (id int primary key, v int)")
        before = db.metrics.counter("wal.fsyncs").value
        txn = db.begin()
        db.execute("insert into t values (1, 10)", txn)
        db.query("select count(*) from t", txn)
        db.execute("insert into t values (2, -10)", txn)
        db.commit(txn)
        assert db.metrics.counter("wal.fsyncs").value == before + 1
        db.close()

    def test_recovery_rebuilds_rows_written_between_reads(self, tmp_path):
        db = Database(wal_dir=str(tmp_path), fsync="commit")
        db.execute("create table t (id int primary key, v int)")
        for i in range(6):
            db.execute(f"insert into t values ({i}, {i * 10})")
            db.query("select count(*) from t")
        db.execute("delete from t where id = 0")
        db.query("select sum(v) from t")
        expected = rows_of(db)
        db.close()
        recovered = Database.recover(str(tmp_path))
        assert rows_of(recovered) == expected
        recovered.close()


class TestJsonlHardening:
    def _dump(self, tmp_path):
        wal, = [WriteAheadLog()]
        wal.log_insert(1, "t", (1, "a"), 0)
        wal.log_commit(1)
        path = str(tmp_path / "wal.jsonl")
        wal.dump_jsonl(path)
        return path

    def test_round_trip(self, tmp_path):
        path = self._dump(tmp_path)
        loaded = WriteAheadLog.load_jsonl(path)
        assert [r.kind for r in loaded.records()] == ["insert", "commit"]

    def test_torn_final_line_skipped_with_warning(self, tmp_path):
        path = self._dump(tmp_path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"lsn": 3, "tid": 2, "kind": "ins')  # torn write
        with pytest.warns(UserWarning, match="torn final line"):
            loaded = WriteAheadLog.load_jsonl(path)
        assert [r.kind for r in loaded.records()] == ["insert", "commit"]

    def test_malformed_middle_line_raises_transaction_error(self, tmp_path):
        path = self._dump(tmp_path)
        lines = open(path, encoding="utf-8").readlines()
        lines.insert(1, "not json at all\n")
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        with pytest.raises(TransactionError, match="malformed WAL record at .*:2"):
            WriteAheadLog.load_jsonl(path)

    def test_missing_key_middle_line_raises(self, tmp_path):
        path = self._dump(tmp_path)
        lines = open(path, encoding="utf-8").readlines()
        lines.insert(1, '{"lsn": 99}\n')
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        with pytest.raises(TransactionError, match="malformed"):
            WriteAheadLog.load_jsonl(path)

    def test_blank_lines_ignored(self, tmp_path):
        path = self._dump(tmp_path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("\n\n")
        loaded = WriteAheadLog.load_jsonl(path)
        assert len(loaded.records()) == 2
