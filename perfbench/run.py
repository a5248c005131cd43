#!/usr/bin/env python3
"""Run one orbistack benchmark workload and print its metrics.

    python3 perfbench/run.py --workload embed --seed 1 --seconds 36 --trace 0

Run from the root of a checkout.  The workload's jobs (built from the
seed by ``workloads``) go through ``orbistack.cli.main`` in this
process, one thread, stdout captured.  Passes over the whole job list
repeat until the next one would end past ``--seconds``; every pass
starts with the program's caches cleared, as a fresh process would.
Outputs are checked after timing.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are ``setup_s`` (median time for a fresh
interpreter to import ``orbistack`` and ``orbistack.cli``, timed before
every pass), ``wall_ref`` (a pass's time, summed over the CLI calls,
divided by the mean time of a fixed piece of reference work run after
each of its jobs; median over the passes) and ``peak_rss_mb``.
With ``--trace 1`` untraced and traced passes alternate and the metrics
are the per-layer ones from ``tracer``, plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
sys.path[:0] = [str(SRC), str(ROOT)]

from perfbench import checks, workloads  # noqa: E402
from perfbench.tracer import Tracer, clear_program_caches, layer_metrics  # noqa: E402

MIN_PASSES = 3
# Fresh interpreters timed for setup_s before each untraced pass, so that
# the median spans the whole run rather than its first seconds.
SETUP_SPAWNS_PER_PASS = 4
# Size of the reference work: about 3.5-4.5 ms on a 2.1 GHz Xeon VM.
REFERENCE_ROUNDS = 6000


@dataclass
class Pass:
    wall: float
    outputs: list
    failed: int
    stdout_bytes: int
    references: list


def measure_setup(count: int) -> list:
    """Wall times of ``count`` fresh interpreters importing the CLI."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    command = [sys.executable, "-c", "import orbistack, orbistack.cli"]
    times = []
    for _ in range(count):
        start = time.perf_counter()
        # No timeout: with one, subprocess waits by polling at intervals
        # that grow to 50 ms, so every time would be rounded up to the
        # next poll (0.1135 s, 0.1635 s, ...).  Without one it blocks in
        # waitpid and returns when the child exits.
        subprocess.run(command, env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return times


def reference() -> float:
    """Seconds taken by a fixed piece of pure-Python work.

    It shares no code with the program and runs after every job, so the
    reference times of a run sample the host's speed at the same moments
    as the jobs.  The collector is off, so that collections of the
    program's heap are not charged to it.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        table = {}
        for i in range(REFERENCE_ROUNDS):
            key = (i * 2654435761) & 0xFFF
            table[key] = table.get(key, 0) + i % 7
        ",".join(str(v) for _, v in sorted(table.items()))
        return time.perf_counter() - start
    finally:
        gc.enable()


def call(cli, argv, stdin_text):
    """(exit code, stdout, seconds) of one in-process CLI invocation."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text or "")
    try:
        with contextlib.redirect_stdout(out):
            start = time.perf_counter()
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:  # argparse rejects argv this way
                code = exc.code
            elapsed = time.perf_counter() - start
    finally:
        sys.stdin = saved
    return code, out.getvalue(), elapsed


def run_pass(cli, jobs, tracer: Tracer | None = None) -> Pass:
    clear_program_caches()
    gc.collect()
    outputs = [None] * len(jobs)
    references = []
    wall = 0.0
    failed = 0
    stdout_bytes = 0
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        for i, job in enumerate(jobs):
            stdin = None
            if job.stdin_from is not None:
                stdin = outputs[job.stdin_from]
                if stdin is None:
                    failed += 1
                    continue
                if job.mutate is not None:
                    stdin = job.mutate(stdin)
            if tracer is not None:
                tracer.job = i
            try:
                code, out, elapsed = call(cli, job.argv, stdin)
            except Exception:  # a crash is a failed operation; keep measuring
                print(f"job {i} {list(job.argv)} raised:", file=sys.stderr)
                traceback.print_exc()
                failed += 1
                continue
            finally:
                references.append(reference())
            wall += elapsed
            if code != job.expect_exit:
                print(
                    f"job {i} {list(job.argv)} exited {code}, expected {job.expect_exit}",
                    file=sys.stderr,
                )
                failed += 1
                continue
            outputs[i] = out
            stdout_bytes += len(out.encode("utf-8"))
    finally:
        if tracer is not None:
            tracer.uninstall()
    return Pass(wall, outputs, failed, stdout_bytes, references)


def declared_units(trace: bool) -> dict:
    """Name to unit of the metrics ``BENCHMARK.json`` declares for the mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "orbistack" / "cli.py").is_file():
        print(f"perfbench: no orbistack sources under {SRC}", file=sys.stderr)
        return 2

    units = declared_units(bool(args.trace))
    setup_times = []
    if not args.trace:
        # The first start writes the bytecode caches, which an installed
        # package has already; it is not timed.
        measure_setup(1)
    from orbistack import cli

    jobs = workloads.WORKLOADS[args.workload](args.seed)
    tracer = Tracer() if args.trace else None
    walls, ratios, traced_ratios, layer_runs, references = [], [], [], [], []
    first = None
    attempted = failed = 0
    changed = set()
    start = time.perf_counter()
    while True:
        rounds = [(None, ratios)] + ([(tracer, traced_ratios)] if tracer else [])
        for active, sink in rounds:
            if not args.trace:
                setup_times += measure_setup(SETUP_SPAWNS_PER_PASS)
            result = run_pass(cli, jobs, active)
            attempted += len(jobs)
            failed += result.failed
            references += result.references
            sink.append(result.wall / statistics.fmean(result.references))
            if active is None:
                walls.append(result.wall)
            else:
                metrics = layer_metrics(active)
                metrics["cli.stdout_bytes"] = result.stdout_bytes
                layer_runs.append(metrics)
            if first is None:
                first = result
            else:
                changed.update(
                    i for i, (a, b) in enumerate(zip(first.outputs, result.outputs)) if a != b
                )
        elapsed = time.perf_counter() - start
        if len(walls) >= MIN_PASSES and elapsed * (len(walls) + 1) / len(walls) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(
        f"{args.workload} seed {args.seed}: {len(walls)} passes, "
        f"wall {', '.join(f'{w:.3f}' for w in walls)} s, "
        f"reference {statistics.fmean(references) * 1000:.3f} ms",
        file=sys.stderr,
    )

    problems = [
        f"job {i} {list(jobs[i].argv)}: output differs between passes" for i in sorted(changed)
    ]
    problems += checks.CHECKS[args.workload](jobs, first.outputs)
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)

    if args.trace:
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl")
        values = {
            name: statistics.median(run[name] for run in layer_runs) for name in layer_runs[0]
        }
        # In reference units first, so that the host's speed changes
        # between traced and untraced passes cancel; then in seconds at
        # the run's mean reference time.
        values["trace.overhead_s"] = (
            statistics.fmean(traced_ratios) - statistics.fmean(ratios)
        ) * statistics.fmean(references)
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            # A pass's time in units of the reference work timed beside
            # its jobs, median over the passes.  The shared host runs this
            # process up to 1.4x slower for a minute or more at a time;
            # pass times follow that, and so do the reference times.
            "wall_ref": statistics.median(ratios),
            "peak_rss_mb": peak_rss_mb,
        }
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(values)} differ from BENCHMARK.json {sorted(units)}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in sorted(values.items())
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
