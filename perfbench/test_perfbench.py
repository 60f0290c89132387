"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench -q``.
They use the ``--tiny`` sizes, so they check plumbing, not speed.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import checks, gen, harness  # noqa: E402
from perfbench.spans import LayerTracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = harness.Sizes(**harness.TINY)


def _run(cwd: Path, workload: str, trace: int, seed: int = 3):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


def _stream(workload: str, seed: int):
    if workload == "browse_hot":
        return gen.browse_stream(seed, 2000, TINY.journal_rows)
    if workload == "adhoc_vdm":
        return gen.adhoc_stream(seed, 2000, harness.suite_queries())
    return gen.htap_stream(seed, 2000, TINY.journal_rows, harness.JOURNAL_DIM_ROWS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["browse_hot", "adhoc_vdm", "htap_post"])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    out = _run(ROOT, workload, trace)
    assert out.returncode == 0, out.stdout + out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    for m in spec:
        assert any(line.startswith(f"metric {m['name']} ") and line.endswith(f" {m['unit']}")
                   for line in lines), m["name"]


def test_run_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero and
    prints no result."""
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = _run(tmp_path, "browse_hot", 0)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


@pytest.mark.parametrize("workload", ["browse_hot", "adhoc_vdm", "htap_post"])
def test_same_seed_same_stream_other_seed_other_stream(workload):
    def stream(seed):
        return [op.sql for op in _stream(workload, seed)]

    assert stream(7) == stream(7)
    assert stream(7) != stream(8)


def test_adhoc_projection_shapes_never_repeat():
    ops = [op for op in _stream("adhoc_vdm", 11) if op.kind == "projection"]
    from repro.sql.normalize import normalize_sql

    shapes = [normalize_sql(op.sql) for op in ops]
    assert len(set(shapes)) == len(shapes)


@pytest.mark.parametrize("workload,root_key", [
    ("browse_hot", "database"), ("adhoc_vdm", "database"), ("htap_post", "client"),
])
def test_layer_self_times_sum_to_the_root_span(workload, root_key, tmp_path):
    env = harness.setup(workload, 5, TINY, tmp_path)
    ops = _stream(workload, 5)
    from repro.database import Database

    original = Database.__dict__["query"]
    with LayerTracer() as tracer:
        if workload == "htap_post":
            run = harness.mixed_loop(env, ops, 0.5, tracer)
        else:
            run = harness.closed_loop(env, ops, 0.5, 250.0, tracer)
    harness.teardown(env)
    assert Database.__dict__["query"] is original  # wrappers removed
    roots = tracer.roots()
    per_op = tracer.self_times()
    assert len([op for op in roots if op is not None]) == run.attempted
    for op, spans in roots.items():
        if op is None:
            continue
        assert [span.key for span in spans] == [root_key]
        duration = spans[0].end - spans[0].start
        assert sum(per_op[op].values()) == pytest.approx(duration, rel=1e-9, abs=1e-12)
        assert per_op[op][root_key] >= 0.0


def test_output_check_catches_a_tampered_row(tmp_path):
    env = harness.setup("browse_hot", 2, TINY, tmp_path)
    ops = _stream("browse_hot", 2)
    run = harness.closed_loop(env, ops, 1.0, 250.0)
    reference = harness.build("browse_hot", TINY, reference=True)
    assert checks.check_closed(run, ops, reference) == []
    index, rows = next((i, r) for i, r in sorted(run.results.items()) if r)
    run.results[index] = [rows[0][:-1] + ("tampered",)] + list(rows[1:])
    problems = checks.check_closed(run, ops, reference)
    assert len(problems) == 1 and f"op {index} " in problems[0]
    harness.teardown(env)


def test_output_check_catches_a_missing_acknowledged_posting(tmp_path):
    env = harness.setup("htap_post", 4, TINY, tmp_path)
    run = harness.mixed_loop(env, _stream("htap_post", 4), 1.0)
    acked = run.extra["acked"]
    assert acked and run.failed == 0
    assert checks.check_postings(env.db, acked, [], TINY.journal_rows) == []
    ghost = dataclasses.replace(acked[-1], dockey=10**6)
    assert checks.check_postings(env.db, acked + [ghost], [], TINY.journal_rows)
    # A posting reported failed must have left no rows behind.
    assert checks.check_postings(env.db, acked[1:], [acked[0]], TINY.journal_rows)
    totals = checks.acdoca_totals(env.db)
    env.db.close()
    assert checks.check_recovery(env.wal_dir, totals) == []
    assert checks.check_recovery(env.wal_dir, (totals[0] + 1, totals[1]))
    harness.teardown(env)
