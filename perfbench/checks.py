"""Output checks: an untimed pass that fails the benchmark on any mismatch.

Reads are re-run on a reference database built from the same seed with
the plan cache off and scalar execution (``plan_cache_size=0,
vectorized=False``) and compared exactly: ordered results as lists (every
ordered statement ends its ORDER BY in a unique key), the rest as
multisets, and an unordered LIMIT as a correctly sized sub-multiset of the
unlimited result.  The open-loop workload also checks that every
acknowledged posting is present and balanced, that failed postings left
nothing behind, and that recovery from the WAL rebuilds the same table.
"""

from __future__ import annotations

import re
from collections import Counter

_LIMIT = re.compile(r"\s+limit\s+(\d+)(?:\s+offset\s+(\d+))?\s*$", re.IGNORECASE)


def compare(check: str, sql: str, got: list, reference_db) -> str | None:
    """None when ``got`` is a correct result of ``sql``, else a description."""
    if check == "subset":
        match = _LIMIT.search(sql)
        if match is None:
            return f"subset check needs a trailing LIMIT: {sql}"
        full = reference_db.query(sql[:match.start()]).rows
        limit, offset = int(match.group(1)), int(match.group(2) or 0)
        expected_len = max(0, min(limit, len(full) - offset))
        if len(got) != expected_len:
            return f"{len(got)} rows, expected {expected_len}: {sql}"
        if Counter(got) - Counter(full):
            return f"rows outside the unlimited result: {sql}"
        return None
    expected = reference_db.query(sql).rows
    if check == "ordered":
        if list(got) != list(expected):
            return f"ordered result differs ({len(got)} vs {len(expected)} rows): {sql}"
        return None
    if Counter(got) != Counter(expected):
        return f"result multiset differs ({len(got)} vs {len(expected)} rows): {sql}"
    return None


def check_closed(run, ops, reference_db) -> list[str]:
    """Compare every kept closed-loop result with the reference."""
    problems = []
    for index, rows in sorted(run.results.items()):
        op = ops[index]
        problem = compare(op.check, op.sql, rows, reference_db)
        if problem is not None:
            problems.append(f"op {index} ({op.kind}): {problem}")
    return problems


def check_postings(db, acked, failed, initial_rows: int) -> list[str]:
    """Every acknowledged posting present and balanced; failed ones absent."""
    problems = []
    count = db.query("select count(*) from acdoca").scalar()
    expected = initial_rows + sum(len(op.rows) for op in acked)
    if count != expected:
        problems.append(f"acdoca has {count} rows, expected {expected} "
                        f"({initial_rows} initial + acknowledged lines)")
    if acked:
        first = min(op.dockey for op in acked)
        unbalanced = db.query(
            f"select dockey, sum(amount) from acdoca where dockey >= {first} "
            "group by dockey having sum(amount) <> 0").rows
        if unbalanced:
            problems.append(f"{len(unbalanced)} unbalanced posted documents, "
                            f"e.g. {unbalanced[0]}")
        present = db.query(
            f"select count(distinct dockey) from acdoca where dockey >= {first}").scalar()
        if present < len(acked):
            problems.append(f"{present} posted documents present, {len(acked)} acknowledged")
    for op in failed:
        left = db.query(f"select count(*) from acdoca where dockey = {op.dockey}").scalar()
        if left:
            problems.append(f"failed posting {op.dockey} left {left} rows")
    return problems


def acdoca_totals(db) -> tuple:
    return tuple(db.query("select count(*), sum(amount) from acdoca").rows[0])


def check_recovery(wal_dir, expected: tuple) -> list[str]:
    """``Database.recover`` must rebuild the same acdoca row count and sum."""
    from repro import Database

    recovered = Database.recover(str(wal_dir), checkpoint_after=False)
    try:
        got = acdoca_totals(recovered)
    finally:
        recovered.close()
    if got != expected:
        return [f"recovery rebuilt acdoca (count, sum) = {got}, expected {expected}"]
    return []
