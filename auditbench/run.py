"""auditbench: the audit stack measured end to end and layer by layer.

Run from the root of a checkout:

    python3 auditbench/run.py --workload explain-serve --seed 7 --seconds 10 --trace 0

The benchmark builds a hospital world from the seed
(``SimulationConfig.benchmark``: about 28.5k log rows, 11 standard
templates, coverage about 0.78), writes it as a CSV directory, and
drives the shipped program from outside: ``python -m repro.cli serve``
in its own process, loaded by closed-loop keep-alive ``AuditClient``
connections of this one process (two: one per CPU of the 2-CPU
machine the benchmark was tuned on; each waits for its reply, as a
portal page or a review screen does).  Every answer is checked against an in-process
memory-backend service over the same CSV directory, outside the timed
window.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``failed`` counts non-2xx
replies, typed errors, timeouts and wrong answers; ``failed_share`` is
``failed / attempted``.  Lines before it are the human report: every
figure by name with its unit, exact counter deltas of ``/v1/stats``
over the window, and any traceback the program printed, unfiltered.

End-to-end metrics (``--trace 0``), on every workload:

  setup_s         s, lower is better.  CPU seconds (user + system) the
                  program spends from launch to its first successful
                  /v1/healthz (interpreter start, CSV load, SQLite ingest,
                  eager warm; on mine-offline, to the service being
                  open), normalised to the reference host speed (below);
                  the median of 3 launches.  The CPU seconds as measured
                  and the wall time of each launch are printed beside
                  it.  World generation is the benchmark's and is not
                  counted.
  cpu_ms_per_op   ms, lower is better.  CPU time (user + system) of the
                  program's process over the window per headline
                  operation completed in it, normalised to the reference
                  host speed: per explain on explain-serve and
                  audit-sqlite, per ingest on ingest-mixed, per sweep on
                  mine-offline.  The other connection's work is in the
                  numerator, so it shows as contention, but the path a
                  workload exists for moves the figure in full.  The
                  figure as measured is printed beside it.
  peak_rss_mb     MiB, lower is better.  VmHWM of the program's process,
                  read from /proc/<pid>/status.

Normalisation (``hostspeed.py``): on the shared 2-CPU host the benchmark
was tuned on, the CPU time of the same work drifts with other tenants'
load, by up to 2x within a minute and by about 30% between two sets of
ten runs ten minutes apart.  While the program sets up and while it is
loaded, a thread of the benchmark times a small fixed pure-Python
workload again and again (about a tenth of one CPU); the program's CPU
time is divided by how much slower than its reference time that
workload ran meanwhile ("host slowdown" in the report).

The report also prints, by name and unit, the latencies and rates the
workloads exist for: explain_rps, explain_p50_ms, explain_p95_ms,
ingest_aps, ingest_p50_ms, ingest_p95_ms, scan_rows_per_s, mine_s,
sweeps_per_s, queries_per_explain and failed_share.  A p95 is printed
only with at least ten samples beyond it; otherwise the report says
so.  They are not in the JSON, whose metrics are each measured on every
workload and must hold a bound of at most a quarter of the median from
one set of ten runs to the next.  In a closed loop the host's drift
reaches latencies and rates amplified by queueing (explain_p50_ms spread
0.38 of the median over ten seeds in a busy period), and no probe of
the host's speed undoes that.  mine-offline also has too few sweeps for
any tail.

Traced run (``--trace 1``): the workload runs twice, first untraced
(for the overhead), then with the program started through
``auditbench/traced_serve.py`` (or the mining child with tracing),
which wraps each layer's public functions, keeps spans in memory with
a parent and a request id, and writes them out at exit.  A span's self
time is its duration minus the union of its children's intervals.  The
JSON then carries every per-layer metric; a layer the workload never
enters reads 0.  ``trace.overhead_ratio`` is the untraced phase's
headline rate over the traced phase's.

Self-tests of the harness: ``python3 auditbench/run.py --self-test``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import sys

from procs import ROOT, SRC, WORK_ROOT

#: Workloads, metric names, units and bounds.
BENCHMARK = ROOT / "BENCHMARK.json"


def load_benchmark() -> dict:
    return json.loads(BENCHMARK.read_text())


def build_parser(bench: dict) -> argparse.ArgumentParser:
    from layers import LAYER_METRICS

    workloads = "\n".join(
        f"  {w['name']}\n      {w['why']}" for w in bench["workloads"]
    )
    end_to_end = "\n".join(
        f"  {m['name']:16s} {m['unit']:5s} {m['better']} is better, bound {m['bound']}"
        for m in bench["end_to_end"]
    )
    layers = "\n".join(
        f"  {name:36s} {unit:8s} feeds {feeds}" for name, unit, feeds in LAYER_METRICS
    )
    parser = argparse.ArgumentParser(
        prog="auditbench",
        description=__doc__,
        epilog=(
            f"workloads:\n{workloads}\n\nend-to-end metrics (--trace 0):\n"
            f"{end_to_end}\n\nper-layer metrics (--trace 1):\n{layers}"
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0, help="measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--self-test", action="store_true", help="run the harness self-tests"
    )
    return parser


def _fmt(value: float | None) -> str:
    return "not reported" if value is None else f"{value:.6g}"


def main(argv: list[str] | None = None) -> int:
    bench = load_benchmark()
    args = build_parser(bench).parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"auditbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.self_test:
        import selftest

        return selftest.main()
    if args.workload is None:
        print("auditbench: --workload is required", file=sys.stderr)
        return 2

    from workloads import WORKLOADS
    from world import build_world

    workdir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        world = build_world(args.seed, workdir / "world")
        # the world stays alive all run; keep the collector off it
        gc.collect()
        gc.freeze()
        run = WORKLOADS[args.workload](
            world, args.seed, args.seconds, bool(args.trace), workdir
        )
        report(args, run, bench)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()
    return 0


def report(args: argparse.Namespace, run, bench: dict) -> None:
    from layers import LAYER_METRICS, layer_metrics
    from measure import median

    last = run.phases[-1]
    print(f"auditbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    norm = ", ".join(f"{s:.3f}" for p in run.phases for s in p.setup_s)
    cpu = ", ".join(f"{s:.3f}" for p in run.phases for s in p.setup_cpu_s)
    wall = ", ".join(f"{s:.3f}" for p in run.phases for s in p.setup_wall_s)
    print(f"  setup_s              {_fmt(median(last.setup_s)):>12} s          per launch {norm}; CPU as measured {cpu}; wall {wall}")
    for name, value, unit, note in run.figures:
        print(f"  {name:20s} {_fmt(value):>12} {unit:10s} {note}")
    print(f"  cpu_ms_per_op        {_fmt(run.cpu_ms_per_op):>12} ms         as measured {run.cpu_ms_per_op_measured:.6g}; host slowdown {last.slowdown:.4g}")
    print(f"  peak_rss_mb          {_fmt(last.peak_rss_mb):>12} MiB")
    print(f"  failed_share         {_fmt(run.failed / max(run.attempted, 1)):>12}            {run.failed} of {run.attempted}")
    print(f"  counter deltas over the window (exact): {json.dumps(run.counts, sort_keys=True)}")
    for problem in run.problems:
        print(f"  FAILED: {problem}")
    for phase in run.phases:
        for stopped in phase.stopped:
            for block in stopped.tracebacks:
                print("  program traceback:\n" + block)

    if not args.trace:
        values = {
            "setup_s": median(last.setup_s),
            "cpu_ms_per_op": run.cpu_ms_per_op,
            "peak_rss_mb": last.peak_rss_mb,
        }
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in bench["end_to_end"]
        }
    else:
        untraced, traced = run.phases
        if traced.window is not None:
            window = (traced.window.start, traced.window.end)
            ops = [op for s in traced.streams for op in s.window_ops()]
            client_ms = [(op.end - op.start) * 1000.0 for op in ops if op.ok]
        else:
            sweeps = traced.mining["sweeps"]
            window = (sweeps[0]["start"], sweeps[-1]["end"])
            ops, client_ms = sweeps, []
        alerts = next((v for n, v, _, _ in run.figures if n == "alert_share"), 0.0)
        values = layer_metrics(
            traced.spans,
            window,
            ops=len(ops),
            client_ms=client_ms,
            counts=run.counts,
            alert_share=alerts,
            mining=traced.mining,
            overhead_ratio=untraced.throughput / traced.throughput,
        )
        print(f"  tracing overhead: untraced {untraced.throughput:.6g}/s, traced {traced.throughput:.6g}/s")
        for name, unit, feeds in LAYER_METRICS:
            print(f"  {name:36s} {values[name]:>12.6g} {unit:8s} feeds {feeds}")
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in bench["per_layer"]
        }
    print(
        json.dumps(
            {
                "correct": run.failed == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )


if __name__ == "__main__":
    sys.exit(main())
