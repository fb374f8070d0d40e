"""Benchmark entry point.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. The package is imported from ``src/`` of
that checkout, never from an installed copy; without it the benchmark exits
2 and prints no result. Each workload's inputs are generated from the seed
into ``perfbench/_work/<workload>/``. Human-readable notes come first; the
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``). With ``--workload all`` every
workload runs in turn and the metric names carry a ``<workload>/`` prefix.
The exit code is 1 when any output check failed.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = Path("perfbench") / "_work"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the clustereval CLI.")
    parser.add_argument("--workload", default="all", help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "clustereval" / "__init__.py").is_file():
        print(f"error: no clustereval package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    import bench  # imports clustereval, so only once src/ is on the path

    if args.workload != "all" and args.workload not in bench.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(bench.WORKLOADS)}")
    names = list(bench.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result = bench.measure(
            bench.WORKLOADS[name], args.seed, args.seconds, bool(args.trace), WORKDIR / name, SRC
        )
        for note in result.notes:
            print(note)
        for metric, (value, unit) in result.metrics.items():
            print(f"{name}: {metric} = {value:.6g} {unit}")
        results[name] = result

    if len(results) == 1:
        (final,) = results.values()
    else:
        final = bench.Result(
            correct=all(r.correct for r in results.values()),
            attempted=sum(r.attempted for r in results.values()),
            failed=sum(r.failed for r in results.values()),
            metrics={f"{n}/{k}": v for n, r in results.items() for k, v in r.metrics.items()},
            notes=[],
        )
    print(final.line(), flush=True)
    return 0 if final.correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
