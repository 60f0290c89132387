"""Layer spans recorded from outside the program.

:class:`LayerTracer` replaces public entry points of the engine's layers
with thin wrappers for the duration of a traced run and restores them
afterwards; the untraced run installs nothing.  Each wrapper records one
span ``(id, parent, layer key, start, end, op)`` in memory, keeping a
thread-local stack so concurrent workers never interleave.  A call into
the layer that is already on top of the stack (a binder recursing into a
view body, say) is not split into a new span: its time is the layer's
self time either way.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    id: int
    parent: int  # -1 for a root
    key: str
    start: float
    end: float
    op: object  # the op id the worker set, or None outside ops
    value: object = None  # the wrapped call's return value, when kept


def entry_points():
    """``(owner, attribute, layer key, keep return value)`` for every
    wrapped entry point.  Module-level functions are patched where the
    caller looks them up (``repro.database`` imports ``parse_statement``
    and ``plan_feedback_rows`` by name; the others are imported lazily from
    their modules at call time)."""
    import repro.database as database
    import repro.optimizer.pipeline as pipeline
    import repro.serving.session as session_mod
    import repro.sql.normalize as normalize
    from repro.algebra.binder import Binder
    from repro.cache.plan_cache import PlanCache
    from repro.engine.executor import Executor
    from repro.observability.querylog import QueryLog
    from repro.serving.admission import AdmissionController
    from repro.serving.session import Session
    from repro.storage.mvcc import TransactionManager
    from repro.storage.table import ColumnTable
    from repro.storage.wal_disk import DiskWriteAheadLog

    return [
        (database.Database, "query", "database", False),
        (database.Database, "execute", "database", False),
        (normalize, "extract_shape", "sql.extract_shape", False),
        (database, "parse_statement", "sql.parse", False),
        (session_mod, "parse_statement", "sql.parse", False),
        (Binder, "bind_query", "algebra.bind", False),
        (pipeline, "optimize_plan", "optimizer.optimize", False),
        (Executor, "compile", "optimizer.compile", False),
        (PlanCache, "probe", "cache.probe", False),
        (Executor, "execute", "engine.execute", False),
        (Executor, "execute_physical", "engine.execute", False),
        (database, "plan_feedback_rows", "observability.feedback", False),
        (QueryLog, "record", "observability.feedback", False),
        (QueryLog, "record_operators", "observability.feedback", False),
        (QueryLog, "record_feedback", "observability.feedback", False),
        (ColumnTable, "insert", "storage.insert", False),
        (TransactionManager, "commit", "storage.commit", False),
        (DiskWriteAheadLog, "sync", "storage.fsync", False),
        (AdmissionController, "acquire", "serving.acquire", True),
        (Session, "query", "serving", False),
        (Session, "execute", "serving", False),
        (Session, "begin", "serving", False),
        (Session, "commit", "serving", False),
        (Session, "rollback", "serving", False),
    ]


class LayerTracer:
    """Install with ``with LayerTracer() as tracer:``; spans land in
    ``tracer.spans``.  Workers tag their spans with :meth:`op`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, key: str, fn, *args, keep: bool = False, **kwargs):
        """Call ``fn`` inside a span of layer ``key``."""
        stack = self._stack()
        if stack and stack[-1][0] == key:
            return fn(*args, **kwargs)
        span_id = next(self._ids)
        parent = stack[-1][1] if stack else -1
        stack.append((key, span_id))
        start = time.perf_counter()
        value = None
        try:
            value = fn(*args, **kwargs)
            return value
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, parent, key, start, end,
                                   getattr(self._local, "op", None),
                                   value if keep else None))

    def op(self, op_id) -> None:
        """Tag this thread's following spans with ``op_id`` (None: untag)."""
        self._local.op = op_id

    # -- install / restore -------------------------------------------------

    def __enter__(self) -> "LayerTracer":
        for owner, attr, key, keep in entry_points():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, key, keep))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, key: str, keep: bool):
        span = self.span

        def wrapper(*args, **kwargs):
            return span(key, fn, *args, keep=keep, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> dict[object, dict[str, float]]:
        """Per op: layer key -> self seconds (duration minus direct children).

        Spans outside any op (a background merge) are grouped under None."""
        child_s: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent >= 0:
                child_s[span.parent] += span.end - span.start
        per_op: dict[object, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for span in self.spans:
            per_op[span.op][span.key] += span.end - span.start - child_s[span.id]
        return per_op

    def roots(self) -> dict[object, list[Span]]:
        """Per op: its root spans (spans without a parent)."""
        out: dict[object, list[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent < 0:
                out[span.op].append(span)
        return out

    def dump(self, path) -> None:
        """Write every span as one JSON line (for offline analysis)."""
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps([s.id, s.parent, s.key, s.start, s.end,
                                         s.op if isinstance(s.op, (int, str)) else None])
                             + "\n")
