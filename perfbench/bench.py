"""Workloads and measurement for the clustereval benchmark.

Every workload runs one CLI command through ``clustereval.cli.main`` in
this process, with stdout captured, one invocation after another (a closed
loop with one client and no threads). Untraced runs give the end-to-end
metrics; traced runs alternate the stage-by-stage mirror in ``traced`` with
untraced invocations and give the per-layer metrics.
"""

from __future__ import annotations

import gc
import io
import json
import os
import statistics
import subprocess
import sys
import time
from collections.abc import Callable
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict, dataclass
from pathlib import Path

import checks
import generate
import traced
from clustereval import cli

SETUP_MIN_S = 1.0  # setup_s is the median of the generate-and-write passes
SETUP_MIN_PASSES = 5  # made in at least this long, and at least this many
MIN_SAMPLES = 5  # invocations measured even when they overrun --seconds
RSS_CHILDREN = 3  # fresh processes per run; peak_rss_mb is their median
CHILD_TIMEOUT_S = 120.0
THRESHOLD = "0.2"
SWEEP_THRESHOLDS = [f"{0.05 * k:.2f}" for k in range(1, 11)]


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[..., generate.Inputs]
    argv: Callable[[str, str], list[str]]
    check: Callable[[str, generate.Inputs, str], list[str]]  # (stdout, inputs, expert path)


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's typical use; the dense F-table dominates.
        Workload(
            "flat-noisy",
            generate.flat_noisy,
            lambda s, e: ["evaluate", "--system", s, "--expert", e, "--threshold", THRESHOLD,
                          "--format", "json", "--trace"],
            lambda out, inp, e: checks.evaluate_json(out, inp, float(THRESHOLD)),
        ),
        # R(R-1)/2 re-maps on a small table isolate the resolver, and the
        # table and trace renderers get a large input.
        Workload(
            "conflict-cascade",
            generate.conflict_cascade,
            lambda s, e: ["table", "--system", s, "--expert", e, "--threshold", THRESHOLD,
                          "--trace"],
            lambda out, inp, e: checks.table_text(
                out, inp, float(THRESHOLD), len(inp.system) * (len(inp.system) - 1) // 2
            ),
        ),
        # Parse and inherit flattening of a deep hierarchy lead; one table
        # feeds ten resolve and aggregate passes.
        Workload(
            "deep-gold",
            generate.deep_gold,
            lambda s, e: ["sweep", "--system", s, "--expert", e, "--flatten", "inherit",
                          "--thresholds", ",".join(SWEEP_THRESHOLDS)],
            lambda out, inp, e: checks.sweep_csv(out, inp, e, SWEEP_THRESHOLDS),
        ),
        # The only command that reaches the pair metric.
        Workload(
            "pair-baseline",
            generate.pair_partitions,
            lambda s, e: ["baseline", "--system", s, "--expert", e],
            lambda out, inp, e: checks.baseline_text(out, inp),
        ),
    )
}

END_TO_END_UNITS = {"cli_s": "s", "cli_cpu_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}

PER_LAYER_UNITS = {
    "model.parse_system_s": "s",
    "model.parse_expert_s": "s",
    "model.flatten_s": "s",
    "model.tokens": "count",
    "model.columns": "count",
    "model.column_incidences": "count",
    "mapping.ftable_s": "s",
    "mapping.ftable_cells": "count",
    "mapping.ftable_nonzero": "count",
    "mapping.ftable_nonzero_ratio": "share",
    "mapping.resolve_s": "s",
    "mapping.resolve_calls": "count",
    "mapping.initial_conflicts": "count",
    "mapping.remaps": "count",
    "mapping.mapped_pairs": "count",
    "aggregate.aggregate_s": "s",
    "aggregate.calls": "count",
    "metrics.pair_baseline_s": "s",
    "metrics.pair_count_s": "s",
    "metrics.pairs": "count",
    "cli.read_s": "s",
    "cli.render_s": "s",
    "cli.output_bytes": "bytes",
    "self.cli_s": "s",
    "self.model_s": "s",
    "self.mapping_s": "s",
    "self.aggregate_s": "s",
    "self.metrics_s": "s",
    "trace.total_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "share",
}


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]  # name -> (value, unit)
    notes: list[str]  # human-readable lines: digest, sample counts, problems

    def line(self) -> str:
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
            }
        )


def invoke(argv: list[str]) -> tuple[int, str, float, float]:
    """One in-process ``cli.main`` call: exit code, stdout, wall and CPU seconds."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code if isinstance(exc.code, int) else 2
        cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
    return code, out.getvalue(), wall, cpu


def child_peak_rss_mb(argv: list[str], src: Path, stdout_path: Path) -> tuple[int, float, bytes]:
    """Run ``python -m clustereval`` in a fresh process, through the small
    ``peak_rss`` launcher; return its exit code, peak RSS in MiB and stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    launcher = Path(__file__).with_name("peak_rss.py")
    proc = subprocess.run(
        [sys.executable, str(launcher), str(CHILD_TIMEOUT_S), str(stdout_path),
         sys.executable, "-m", "clustereval", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S + 30,
        check=True,
    )
    code, peak_kib = map(int, proc.stdout.split())
    return code, peak_kib / 1024.0, stdout_path.read_bytes()


def _setup(workload: Workload, seed: int, workdir: Path, sizes: dict):
    """Generate and write the inputs repeatedly; every pass must write the
    same bytes."""
    times, digests = [], set()
    while len(times) < SETUP_MIN_PASSES or sum(times) < SETUP_MIN_S:
        start = time.perf_counter()
        inputs = workload.generate(seed, **sizes)
        paths = inputs.write(workdir)
        times.append(time.perf_counter() - start)
        digests.add(generate.digest(paths))
    return inputs, paths, statistics.median(times), digests


def _percentile_note(name: str, values: list[float]) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(values)
    note = f"{name}: median {statistics.median(values):.6f} s over {n} samples"
    if n >= 20:
        note += f", p{100 * (n - 10) // n} {sorted(values)[n - 11]:.6f} s"
    return note


def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    workdir: Path,
    src: Path,
    sizes: dict | None = None,
) -> Result:
    """Set up, check and time one workload. Paths in the argv are relative
    to the current directory, so the CLI output names them the same way on
    every run."""
    inputs, paths, setup_s, digests = _setup(workload, seed, workdir, sizes or {})
    system_path, expert_path = (os.path.relpath(p) for p in paths)
    argv = workload.argv(system_path, expert_path)
    problems = [] if len(digests) == 1 else ["inputs differ between setup passes"]
    notes = [f"{workload.name}: input digest {' '.join(sorted(digests))}"]

    code, reference, _, _ = invoke(argv)  # warm-up, and the output every later run must match
    attempted, failed = 1, 0
    if code != 0:
        problems.append(f"cli exited {code}")
    else:
        problems += workload.check(reference, inputs, expert_path)
    reference_ok = not problems
    failed += not reference_ok

    def record(code: int, out: str) -> None:
        nonlocal attempted, failed
        attempted += 1
        if code != 0 or out != reference:
            problems.append(f"invocation {attempted}: exit {code}, stdout differs from the first")
            failed += 1
        elif not reference_ok:
            failed += 1

    walls, cpus, summaries, traced_totals = [], [], [], []
    tracer = traced.Tracer()
    rec = traced_out = None
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_SAMPLES or time.perf_counter() < deadline:
        if trace:
            gc.collect()
            tracer.run = len(summaries)
            start = time.perf_counter()
            traced_out, rec = traced.run(argv, tracer)
            traced_totals.append(time.perf_counter() - start)
            summaries.append(tracer.summary(tracer.run))
            record(0, traced_out)
        gc.collect()
        code, out, wall, cpu = invoke(argv)
        record(code, out)
        walls.append(wall)
        cpus.append(cpu)
    notes.append(_percentile_note(f"{workload.name}: cli_s", walls))

    if trace:
        layer = {k: statistics.median(s.get(k, 0.0) for s in summaries) for k in PER_LAYER_UNITS}
        layer.update(traced.counts(rec, traced_out))
        layer["trace.overhead_s"] = statistics.median(traced_totals) - statistics.median(walls)
        metrics = {k: (layer[k], u) for k, u in PER_LAYER_UNITS.items()}
        with open(workdir / "spans.jsonl", "w", encoding="utf-8") as sink:
            for i, s in enumerate(tracer.spans):
                sink.write(json.dumps({"id": i, **asdict(s)}) + "\n")
        notes.append(f"{workload.name}: {len(tracer.spans)} spans written to {workdir / 'spans.jsonl'}")
    else:
        rss = []
        for _ in range(RSS_CHILDREN):
            code, peak, out = child_peak_rss_mb(argv, src, workdir / "child_stdout.txt")
            record(code, out.decode("utf-8", errors="replace"))
            rss.append(peak)
        values = {
            "cli_s": statistics.median(walls),
            "cli_cpu_s": statistics.median(cpus),
            "peak_rss_mb": statistics.median(rss),
            "setup_s": setup_s,
        }
        metrics = {k: (values[k], u) for k, u in END_TO_END_UNITS.items()}
    notes.append(f"{workload.name}: fail_share {failed / attempted:.4f} share ({failed} of {attempted})")
    notes += [f"{workload.name}: check failed: {p}" for p in problems[:20]]
    return Result(not problems, attempted, failed, metrics, notes)
