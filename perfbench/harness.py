"""Workload set-up, the timed loops and the metrics they yield.

Three workloads, each chosen to stress different layers (see README.md):

- ``browse_hot``: one client, four repeated shapes with fresh literals ->
  the plan-cache hit path and the executor;
- ``adhoc_vdm``: one client, never-repeating browser projections plus the
  paper suite -> binder and optimizer;
- ``htap_post``: three sessions through the serving layer on a durable WAL,
  postings beside reads -> storage and admission.

The sizes, latency limits and merge threshold below are fixed: later
changes are judged against them, so they are never re-derived.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import shutil
import statistics
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from . import gen
from .spans import LayerTracer

JOURNAL_ROWS = 2000
JOURNAL_DIM_ROWS = 50
#: The data is a fixed fixture; ``--seed`` drives the traffic only, so
#: seeds differ in what they ask, not in what the tables hold.
DATA_SEED = 3
TPCH_SCALE = 0.02
TA_ROWS, TD_ROWS = 2000, 300

HTAP_CLIENTS = 3
#: Admission slots.  One slot runs one statement at a time, so a read never
#: overlaps an insert: ``ColumnTable.visible_row_ids`` reads the MVCC arrays
#: without the table's write lock, and with two slots about one op in 10,000
#: failed with ``IndexError`` (see README.md, Caveats).
HTAP_WORKERS = 1
HTAP_FSYNC = "commit"
MERGE_THRESHOLD = 300  # acdoca delta rows that trigger merge_delta
#: Latency limits (goodput counts ops within them), about 1.5-2x the p99
#: each op type measured when the benchmark was defined.
WRITE_LIMIT_MS = 400.0
READ_LIMIT_MS = 400.0
CLOSED_LIMIT_MS = {"browse_hot": 50.0, "adhoc_vdm": 150.0}

SETUP_REPEATS = 3
CHECK_STRIDE = 25  # every 25th closed-loop op is re-checked
HTAP_READ_CHECKS = 12

#: Sizes for the benchmark's own smoke tests (``--tiny``).
TINY = {"journal_rows": 400, "tpch_scale": 0.002, "ta_rows": 40, "td_rows": 10}


@dataclass
class Sizes:
    journal_rows: int = JOURNAL_ROWS
    tpch_scale: float = TPCH_SCALE
    ta_rows: int = TA_ROWS
    td_rows: int = TD_ROWS


@dataclass
class Env:
    """One set-up database and what the loops need from it."""

    db: object
    setup_s: float
    manager: object = None
    wal_dir: Path | None = None


@dataclass
class RunResult:
    """What one timed phase produced."""

    elapsed_s: float
    latency_s: list[float] = field(default_factory=list)
    kinds: list[str] = field(default_factory=list)
    ok: list[bool] = field(default_factory=list)
    within_limit: int = 0
    results: dict[int, list] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    counters_before: dict = field(default_factory=dict)
    counters_after: dict = field(default_factory=dict)
    cache_before: tuple = (0, 0, 0, 0)
    cache_after: tuple = (0, 0, 0, 0)
    operators_removed: list[int] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.ok)

    @property
    def failed(self) -> int:
        return self.ok.count(False)


# -- set-up --------------------------------------------------------------------


def suite_queries() -> list[tuple[str, str]]:
    """The 16 paper-suite queries with their result-check mode."""
    from repro.workloads.queries import all_suites

    out = []
    for queries in all_suites().values():
        for query in queries:
            lowered = query.sql.lower()
            check = "subset" if " limit " in lowered and "order by" not in lowered \
                else "multiset"
            out.append((query.sql, check))
    return out


def build(workload: str, sizes: Sizes, *, reference: bool = False,
          wal_dir: Path | None = None):
    """A database loaded with ``workload``'s data.

    ``reference`` builds the check oracle: no plan cache, scalar execution.
    """
    from repro import Database
    from repro.vdm.journal import JournalModel
    from repro.workloads import create_tpch_schema, load_tpch

    kwargs = {"plan_cache_size": 0, "vectorized": False} if reference else {}
    if wal_dir is not None:
        kwargs.update(wal_dir=str(wal_dir), fsync=HTAP_FSYNC)
    db = Database(**kwargs)
    JournalModel(db, rows=sizes.journal_rows, dim_rows=JOURNAL_DIM_ROWS,
                 seed=DATA_SEED).build()
    if workload == "adhoc_vdm":
        create_tpch_schema(db)
        load_tpch(db, scale=sizes.tpch_scale)
        db.execute("create table ta (key int primary key, a int, ext int)")
        db.execute("create table td (key int primary key, a int, ext int)")
        db.bulk_load("ta", [(i, i * 10, i * 100) for i in range(sizes.ta_rows)])
        db.bulk_load("td", [(i, i * 10, i * 100)
                            for i in range(sizes.ta_rows, sizes.ta_rows + sizes.td_rows)])
    return db


def warm(db, ops) -> None:
    """Run every statement kind, at every LIMIT/OFFSET value the traffic
    uses, three times: each plan-cache entry is promoted and lazy imports
    are done before the first timed op."""
    seen: dict[tuple, int] = {}
    for op in ops:
        key = (op.kind, op.slot)
        if seen.get(key, 0) < 3:
            seen[key] = seen.get(key, 0) + 1
            db.query(op.sql if isinstance(op.sql, str) else op.sql[0])


def setup(workload: str, seed: int, sizes: Sizes, workdir: Path, index: int = 0) -> Env:
    """Build, load, deploy the VDM and warm up: the ``setup_s`` interval."""
    started = time.perf_counter()
    wal_dir = None
    if workload == "htap_post":
        wal_dir = workdir / f"wal-{os.getpid()}-{index}"
        shutil.rmtree(wal_dir, ignore_errors=True)
    db = build(workload, sizes, wal_dir=wal_dir)
    manager = None
    if workload == "browse_hot":
        warm(db, gen.browse_stream(seed + 1_000_003, 2000, sizes.journal_rows))
    elif workload == "adhoc_vdm":
        for sql, _ in suite_queries():
            db.query(sql)
            db.query(sql)
    else:
        from repro.serving import SessionManager

        manager = SessionManager(db, max_concurrent=HTAP_WORKERS)
        warm(db, [op for op in gen.htap_stream(
            seed + 1_000_003, 600, sizes.journal_rows, JOURNAL_DIM_ROWS)
            if op.kind == "read"])
    return Env(db, time.perf_counter() - started, manager, wal_dir)


def teardown(env: Env) -> None:
    env.db.close()
    if env.wal_dir is not None:
        shutil.rmtree(env.wal_dir, ignore_errors=True)


# -- counters ------------------------------------------------------------------

_COUNTERS = ("exec.batches_produced", "exec.kernel_calls", "exec.topn_heap_evictions",
             "nse.blocks_pruned", "nse.blocks_scanned", "serving.shed")


def _counters(db) -> dict:
    return {name: db.metrics.counter(name).value for name in _COUNTERS}


def _cache(db) -> tuple:
    cache = db.plan_cache
    if cache is None:
        return (0, 0, 0, 0)
    return (cache.hits, cache.misses, cache.evictions, cache.invalidations)


# -- the closed loop -----------------------------------------------------------


def closed_loop(env: Env, ops: list, seconds: float, limit_ms: float,
                tracer: LayerTracer | None = None) -> RunResult:
    """One client sends the next statement when the previous one returns."""
    db = env.db
    clock = time.perf_counter
    run = RunResult(0.0, counters_before=_counters(db), cache_before=_cache(db))
    limit_s = limit_ms / 1000.0
    started = clock()
    deadline = started + seconds
    for index, op in enumerate(ops):
        sent = clock()
        if sent >= deadline:
            break
        if tracer is not None:
            tracer.op(index)
        try:
            result = db.query(op.sql)
        except Exception as exc:  # a failed op is counted, not fatal
            run.latency_s.append(clock() - sent)
            run.kinds.append(op.kind)
            run.ok.append(False)
            run.errors.append(f"{op.sql[:80]}: {_describe(exc)}")
            continue
        latency = clock() - sent
        run.latency_s.append(latency)
        run.kinds.append(op.kind)
        run.ok.append(True)
        run.within_limit += latency <= limit_s
        if result.stats is not None:
            run.operators_removed.append(
                result.stats.operators_before - result.stats.operators_after)
        if index % CHECK_STRIDE == 0:
            run.results[index] = result.rows
    else:
        raise RuntimeError("statement stream exhausted before the timed phase ended")
    run.elapsed_s = clock() - started
    if tracer is not None:
        tracer.op(None)
    run.counters_after = _counters(db)
    run.cache_after = _cache(db)
    return run


# -- the mixed read/write loop ------------------------------------------------


def mixed_loop(env: Env, ops: list, seconds: float,
               tracer: LayerTracer | None = None) -> RunResult:
    """``HTAP_CLIENTS`` closed-loop clients, each with its own session, take
    the next op of one shared stream until ``seconds`` have passed; the
    serving layer admits ``HTAP_WORKERS`` statements at a time.  A
    background thread merges the ``acdoca`` delta whenever it passes
    ``MERGE_THRESHOLD`` rows."""
    db, manager = env.db, env.manager
    table = db.catalog.table("acdoca")
    clock = time.perf_counter
    run = RunResult(0.0, counters_before=_counters(db), cache_before=_cache(db))
    records: dict[int, tuple] = {}
    merges: list[float] = []
    delta_at_read: list[int] = []
    claim = threading.Lock()
    cursor = iter(range(len(ops)))
    exhausted = threading.Event()
    stop_merger = threading.Event()
    wal_before = _dir_bytes(env.wal_dir)

    def perform(session, op) -> None:
        if op.kind == "read":
            delta_at_read.append(table.delta_size)
            stats = session.query(op.sql[0]).stats
            if stats is not None:
                run.operators_removed.append(stats.operators_before - stats.operators_after)
            return
        session.begin()
        try:
            for statement in op.sql:
                session.execute(statement)
        except BaseException:
            session.rollback()
            raise
        session.commit()

    def client(session, deadline: float) -> None:
        while clock() < deadline:
            with claim:
                index = next(cursor, None)
            if index is None:
                exhausted.set()
                return
            op = ops[index]
            ok, error = True, None
            sent = clock()
            try:
                if tracer is None:
                    perform(session, op)
                else:
                    tracer.op(index)
                    tracer.span("client", perform, session, op)
            except Exception as exc:  # counted as a failed op
                ok, error = False, _describe(exc)
            records[index] = (clock() - sent, ok, error)

    def merger() -> None:
        while not stop_merger.is_set():
            if table.delta_size >= MERGE_THRESHOLD:
                started = clock()
                table.merge_delta()
                merges.append(clock() - started)
            else:
                stop_merger.wait(0.005)

    sessions = [manager.session() for _ in range(HTAP_CLIENTS)]
    started = clock()
    clients = [threading.Thread(target=client, args=(s, started + seconds), daemon=True)
               for s in sessions]
    merge_thread = threading.Thread(target=merger, daemon=True)
    for thread in clients + [merge_thread]:
        thread.start()
    for thread in clients:
        thread.join(timeout=seconds + 120)
        if thread.is_alive():
            raise RuntimeError("a client did not finish")
    run.elapsed_s = clock() - started
    stop_merger.set()
    merge_thread.join(timeout=60)
    if merge_thread.is_alive():
        raise RuntimeError("the merge thread did not finish")
    for session in sessions:
        session.close()
    if exhausted.is_set():
        raise RuntimeError("op stream exhausted before the timed phase ended")

    write_limit, read_limit = WRITE_LIMIT_MS / 1000.0, READ_LIMIT_MS / 1000.0
    acked, failed_posts = [], []
    for index in sorted(records):
        op = ops[index]
        latency, ok, error = records[index]
        run.latency_s.append(latency)
        run.kinds.append(op.kind)
        run.ok.append(ok)
        if ok:
            run.within_limit += latency <= (write_limit if op.kind == "post" else read_limit)
            if op.kind == "post":
                acked.append(op)
        else:
            run.errors.append(f"{op.kind}: {error}")
            if op.kind == "post":
                failed_posts.append(op)
    run.counters_after = _counters(db)
    run.cache_after = _cache(db)
    run.extra = {
        "merges": merges,
        "delta_at_read": delta_at_read,
        "acked": acked,
        "failed_posts": failed_posts,
        "posted_rows": sum(len(op.rows) for op in acked),
        "wal_bytes": _dir_bytes(env.wal_dir) - wal_before,
    }
    return run


def _describe(exc: BaseException) -> str:
    """The exception and the innermost program frame that raised it."""
    frames = traceback.extract_tb(exc.__traceback__)
    where = next((f"{Path(f.filename).name}:{f.lineno} in {f.name}"
                  for f in reversed(frames) if "repro" in Path(f.filename).parts), "?")
    return f"{type(exc).__name__}: {exc} (at {where})"


def _dir_bytes(path: Path | None) -> int:
    if path is None or not path.exists():
        return 0
    return sum(entry.stat().st_size for entry in path.iterdir() if entry.is_file())


# -- statistics ----------------------------------------------------------------


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile (``q`` in [0, 1])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(run: RunResult, setup_s: float, rss_mb: float) -> dict:
    """The user-visible metrics of one untraced run."""
    ok_lat = [lat for lat, ok in zip(run.latency_s, run.ok) if ok]
    reads = [lat for lat, ok, kind in zip(run.latency_s, run.ok, run.kinds)
             if ok and kind != "post"]
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(ok_lat) / run.elapsed_s, "ops/s"),
        "latency_p50_ms": (statistics.median(ok_lat) * 1000.0, "ms"),
        "latency_p99_ms": (quantile(ok_lat, 0.99) * 1000.0, "ms"),
        "read_p50_ms": (statistics.median(reads) * 1000.0, "ms"),
        "goodput_ops_s": (run.within_limit / run.elapsed_s, "ops/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def informational(run: RunResult) -> dict:
    """Figures printed beside the metrics: failures, the read tail, the
    write side of ``htap_post`` and the sample counts behind p99."""
    ok_writes = [lat for lat, ok, kind in zip(run.latency_s, run.ok, run.kinds)
                 if ok and kind == "post"]
    reads = [lat for lat, ok, kind in zip(run.latency_s, run.ok, run.kinds)
             if ok and kind != "post"]
    out = {
        "read_p99_ms": (quantile(reads, 0.99) * 1000.0, "ms"),
        "failed_frac": (run.failed / max(1, run.attempted), "ratio"),
        "samples": (run.attempted - run.failed, "count"),
        "samples_beyond_p99": (int((run.attempted - run.failed) * 0.01), "count"),
    }
    if ok_writes:
        out["write_p50_ms"] = (statistics.median(ok_writes) * 1000.0, "ms")
        out["write_p99_ms"] = (quantile(ok_writes, 0.99) * 1000.0, "ms")
    return out


def per_layer(run: RunResult, tracer: LayerTracer, gc_pauses: list[float],
              overhead_pct: float) -> dict:
    """Per-layer metrics of one traced run (spans + program counters)."""
    n_ops = max(1, run.attempted)
    queries = sum(1 for kind in run.kinds if kind != "post") or 1
    posts = max(1, run.kinds.count("post"))
    self_s: dict[str, float] = {}
    fsyncs = {"post": 0, "read": 0}
    optimize_calls = 0
    waits: list[float] = []
    # Span op ids are stream positions; both loops run a prefix of the stream.
    kinds = dict(enumerate(run.kinds))
    for op, layers in tracer.self_times().items():
        if op is None:
            continue
        for key, seconds in layers.items():
            self_s[key] = self_s.get(key, 0.0) + seconds
    for span in tracer.spans:
        if span.op is None:
            continue
        if span.key == "storage.fsync":
            fsyncs["post" if kinds.get(span.op) == "post" else "read"] += 1
        elif span.key == "optimizer.optimize":
            optimize_calls += 1
        elif span.key == "serving.acquire" and span.value is not None:
            waits.append(span.value)

    def ms_per(key: str, count: int) -> float:
        return self_s.get(key, 0.0) * 1000.0 / count

    before, after = run.counters_before, run.counters_after
    delta = {name: after[name] - before[name] for name in after}
    hits = run.cache_after[0] - run.cache_before[0]
    misses = run.cache_after[1] - run.cache_before[1]
    pruned, scanned = delta["nse.blocks_pruned"], delta["nse.blocks_scanned"]
    extra = run.extra
    merges = extra.get("merges", [])
    return {
        "sql.extract_shape_ms": (ms_per("sql.extract_shape", n_ops), "ms"),
        "sql.parse_ms": (ms_per("sql.parse", n_ops), "ms"),
        "algebra.bind_ms": (ms_per("algebra.bind", n_ops), "ms"),
        "optimizer.optimize_ms": (ms_per("optimizer.optimize", n_ops), "ms"),
        "optimizer.optimize_calls_per_query": (optimize_calls / queries, "count"),
        "optimizer.operators_removed_per_query": (
            statistics.fmean(run.operators_removed) if run.operators_removed else 0.0,
            "count"),
        "optimizer.compile_ms": (ms_per("optimizer.compile", n_ops), "ms"),
        "cache.plan_hit_rate": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "cache.probe_ms": (ms_per("cache.probe", n_ops), "ms"),
        "cache.evictions_per_kop": (
            (run.cache_after[2] - run.cache_before[2]) * 1000.0 / queries, "count"),
        "cache.invalidations_per_kop": (
            (run.cache_after[3] - run.cache_before[3]) * 1000.0 / queries, "count"),
        "engine.execute_ms": (ms_per("engine.execute", n_ops), "ms"),
        "engine.batches_per_query": (delta["exec.batches_produced"] / queries, "count"),
        "engine.kernel_calls_per_query": (delta["exec.kernel_calls"] / queries, "count"),
        "engine.topn_evictions_per_query": (
            delta["exec.topn_heap_evictions"] / queries, "count"),
        "engine.blocks_pruned_frac": (
            pruned / (pruned + scanned) if pruned + scanned else 0.0, "ratio"),
        "observability.feedback_ms": (ms_per("observability.feedback", n_ops), "ms"),
        "database.bookkeeping_ms": (ms_per("database", n_ops), "ms"),
        "serving.session_ms": (
            (self_s.get("serving", 0.0) + self_s.get("serving.acquire", 0.0))
            * 1000.0 / n_ops, "ms"),
        "serving.queue_wait_ms": (quantile(waits, 0.5) * 1000.0, "ms"),
        "serving.queue_wait_p99_ms": (quantile(waits, 0.99) * 1000.0, "ms"),
        "serving.shed": (delta["serving.shed"], "count"),
        "storage.insert_ms": (
            self_s.get("storage.insert", 0.0) * 1000.0 / max(1, extra.get("posted_rows", 0)),
            "ms"),
        "storage.commit_ms": (ms_per("storage.commit", n_ops), "ms"),
        "storage.fsync_ms": (ms_per("storage.fsync", n_ops), "ms"),
        "storage.fsyncs_per_post": (fsyncs["post"] / posts, "count"),
        "storage.fsyncs_per_read": (fsyncs["read"] / queries, "count"),
        "storage.wal_bytes_per_row": (
            extra.get("wal_bytes", 0) / max(1, extra.get("posted_rows", 0)), "bytes"),
        "storage.merge_ms": (statistics.median(merges) * 1000.0 if merges else 0.0, "ms"),
        "storage.merge_max_ms": (max(merges) * 1000.0 if merges else 0.0, "ms"),
        "storage.merges": (len(merges), "count"),
        "storage.delta_rows_at_read": (
            statistics.fmean(extra["delta_at_read"]) if extra.get("delta_at_read") else 0.0,
            "count"),
        "process.gc_pause_ms": (sum(gc_pauses) * 1000.0 * 1000.0 / n_ops, "ms"),
        "tracing.overhead_pct": (overhead_pct, "%"),
    }


class GcPauses:
    """Collects generation-2 collection pauses while installed."""

    def __init__(self) -> None:
        self.pauses: list[float] = []
        self._started = 0.0

    def _callback(self, phase: str, info: dict) -> None:
        if info.get("generation") != 2:
            return
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.pauses.append(time.perf_counter() - self._started)

    def __enter__(self) -> "GcPauses":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._callback)
