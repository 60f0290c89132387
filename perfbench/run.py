#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload browse_hot --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run; ``--trace 1``
runs the workload untraced and then again, with the same seed, with layer
spans installed, and prints the per-layer metrics plus the tracing
overhead.  Each run re-checks its outputs against a reference database and
reports ``"correct": false`` (exit status 1) on any mismatch.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (``{name: {"value": v, "unit": u}}``).
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("browse_hot", "adhoc_vdm", "htap_post"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small data and few set-ups (the benchmark's own tests)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import harness

    sizes = harness.Sizes(**harness.TINY) if args.tiny else harness.Sizes()
    workdir = ROOT / "perfbench" / "out"
    workdir.mkdir(parents=True, exist_ok=True)
    bench = Bench(args.workload, args.seed, args.seconds, sizes, workdir,
                  setup_repeats=1 if args.tiny else harness.SETUP_REPEATS)
    if args.trace:
        correct, run, metrics, info = bench.traced()
    else:
        correct, run, metrics, info = bench.untraced()
    for name, (value, unit) in list(metrics.items()) + list(info.items()):
        print(f"{'metric' if name in metrics else 'info'} {name} {value} {unit}")
    for problem in bench.problems:
        print(f"check failed: {problem}")
    for error in run.errors[:5]:
        print(f"op failed: {error}")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


class Bench:
    """One workload at one seed: streams, set-ups, loops and checks."""

    def __init__(self, workload, seed, seconds, sizes, workdir, setup_repeats):
        from perfbench import gen, harness

        self.h = harness
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.sizes, self.workdir = sizes, workdir
        self.setup_repeats = setup_repeats
        self.problems: list[str] = []
        if workload == "browse_hot":
            self.ops = gen.browse_stream(seed, int(seconds * 300) + 200, sizes.journal_rows)
        elif workload == "adhoc_vdm":
            self.ops = gen.adhoc_stream(seed, int(seconds * 200) + 200,
                                        harness.suite_queries())
        else:
            self.ops = gen.htap_stream(seed, int(seconds * 150) + 200,
                                       sizes.journal_rows, harness.JOURNAL_DIM_ROWS)

    # -- passes --------------------------------------------------------------

    def _loop(self, env, tracer=None):
        h = self.h
        if self.workload == "htap_post":
            return h.mixed_loop(env, self.ops, self.seconds, tracer)
        return h.closed_loop(env, self.ops, self.seconds,
                             h.CLOSED_LIMIT_MS[self.workload], tracer)

    def untraced(self):
        h = self.h
        env = h.setup(self.workload, self.seed, self.sizes, self.workdir, 0)
        run = self._loop(env)
        rss = h.peak_rss_mb()
        self._check(env, run)
        setups = [env.setup_s]
        del env
        for index in range(1, self.setup_repeats):
            gc.collect()
            env = h.setup(self.workload, self.seed, self.sizes, self.workdir, index)
            setups.append(env.setup_s)
            h.teardown(env)
        metrics = h.end_to_end(run, statistics.median(setups), rss)
        info = h.informational(run)
        info["setup_runs"] = (len(setups), "count")
        info["src_lines"] = (_src_lines(), "lines")
        return not self.problems, run, metrics, info

    def traced(self):
        from perfbench.spans import LayerTracer

        h = self.h
        env = h.setup(self.workload, self.seed, self.sizes, self.workdir, 0)
        plain = self._loop(env)
        h.teardown(env)
        del env
        gc.collect()
        env = h.setup(self.workload, self.seed, self.sizes, self.workdir, 1)
        with LayerTracer() as tracer, h.GcPauses() as pauses:
            run = self._loop(env, tracer)
        self._check(env, run)
        tracer.dump(self.workdir / f"spans-{self.workload}-{self.seed}.jsonl")
        untraced = h.end_to_end(plain, 0.0, 0.0)
        traced = h.end_to_end(run, 0.0, 0.0)
        overhead = (traced["latency_p50_ms"][0] / untraced["latency_p50_ms"][0] - 1.0) * 100.0
        metrics = h.per_layer(run, tracer, pauses.pauses, overhead)
        info = {}
        for name in ("ops_per_s", "latency_p50_ms", "latency_p99_ms",
                     "read_p50_ms", "goodput_ops_s"):
            value, unit = untraced[name]
            info[f"untraced.{name}"] = (value, unit)
            info[f"traced.{name}"] = (traced[name][0], unit)
            info[f"overhead.{name}"] = (traced[name][0] - value, unit)
        info.update(h.informational(run))
        return not self.problems, run, metrics, info

    # -- checks --------------------------------------------------------------

    def _check(self, env, run) -> None:
        from perfbench import checks

        h = self.h
        if self.workload != "htap_post":
            reference = h.build(self.workload, self.sizes, reference=True)
            self.problems += checks.check_closed(run, self.ops, reference)
            if not run.results:
                self.problems.append("no result was kept for checking")
            env.db.close()
            return
        acked, failed = run.extra["acked"], run.extra["failed_posts"]
        self.problems += checks.check_postings(env.db, acked, failed, self.sizes.journal_rows)
        reference = h.build(self.workload, self.sizes, reference=True)
        reference.bulk_load("acdoca", [row for op in acked for row in op.rows])
        reads = [op for op in self.ops[:run.attempted] if op.kind == "read"]
        stride = max(1, len(reads) // h.HTAP_READ_CHECKS)
        for op in reads[::stride]:
            got = env.db.query(op.sql[0]).rows
            problem = checks.compare(op.check, op.sql[0], got, reference)
            if problem is not None:
                self.problems.append(f"read: {problem}")
        totals = checks.acdoca_totals(env.db)
        env.db.close()
        self.problems += checks.check_recovery(env.wal_dir, totals)
        h.teardown(env)


def _src_lines() -> int:
    return sum(len(path.read_text(encoding="utf-8").splitlines())
               for path in (ROOT / "src").rglob("*.py"))


if __name__ == "__main__":
    sys.exit(main())
