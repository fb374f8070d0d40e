"""Output checks for the benchmark workloads.

Each check reads one command's stdout and tests invariants that any correct
implementation must satisfy, against the ground truth the generator kept.
None compares against a frozen digest of the output, so a deliberate change
to how scores are computed or rounded does not read as a failure. Each
check returns a list of problems; an empty list means the output passed.
Standard library only: nothing here calls the package under test.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from fractions import Fraction

from generate import Inputs


def _dice(a: frozenset, b: frozenset) -> Fraction:
    """Exact element-based F-measure of two classes."""
    return Fraction(2 * len(a & b), len(a) + len(b))


def _injective(pairs: list[tuple[str, str]]) -> list[str]:
    problems = []
    for side, name in ((0, "system class"), (1, "expert column")):
        for key, n in Counter(p[side] for p in pairs).items():
            if n > 1:
                problems.append(f"mapping not injective: {name} {key} mapped {n} times")
    return problems


def _partitioned(mapped: list[str], unmapped: list[str], universe, what: str) -> list[str]:
    """Every item is reported exactly once, mapped or unmapped."""
    if sorted(mapped + unmapped) != sorted(universe):
        return [f"{what} are not each reported exactly once as mapped or unmapped"]
    return []


def evaluate_json(out: str, inputs: Inputs, threshold: float) -> list[str]:
    """``evaluate --format json`` with the all-columns policy."""
    system = dict(inputs.system)
    columns = dict(inputs.columns)
    floor = Fraction(str(threshold))
    problems: list[str] = []
    for expert in json.loads(out)["experts"]:
        overall, pairs = expert["overall"], expert["pairs"]
        total = sum(len(m) for m in system.values())
        if overall["yy"] + overall["yn"] != total:
            problems.append(f"overall yy+yn={overall['yy'] + overall['yn']}, want {total}")
        problems += _injective([(p["system_class"], p["expert_column"]) for p in pairs])
        problems += _partitioned(
            [p["system_class"] for p in pairs],
            [u["label"] for u in expert["unmapped_system"]],
            system,
            "system classes",
        )
        problems += _partitioned(
            [p["expert_column"] for p in pairs],
            [u["column"] for u in expert["unmapped_expert"]],
            columns,
            "expert columns",
        )
        yy_sum = ny_sum = 0
        for p in pairs:
            a, b = system[p["system_class"]], columns[p["expert_column"]]
            yy = len(a & b)
            if (p["yy"], p["yn"], p["ny"]) != (yy, len(a) - yy, len(b) - yy):
                problems.append(f"pair {p['system_class']}->{p['expert_column']}: wrong counts")
            if _dice(a, b) < floor:
                problems.append(f"pair {p['system_class']}->{p['expert_column']}: F below threshold")
            yy_sum += yy
            ny_sum += len(b) - yy
        for u in expert["unmapped_expert"]:
            if u["size"] != len(columns[u["column"]]):
                problems.append(f"unmapped column {u['column']}: wrong size")
            ny_sum += u["size"]
        if overall["yy"] != yy_sum:
            problems.append(f"overall yy={overall['yy']}, want {yy_sum}")
        if overall["ny"] != ny_sum:
            problems.append(f"overall ny={overall['ny']}, want {ny_sum}")
    return problems


_MAPPING_LINE = re.compile(r"  (\S+) -> (\S+)  F=([0-9.]+)(  \(re-mapped\))?$")
_TRACE_LINE = re.compile(r"  (\S+): (\S+) -> (\S+)  loss=-?[0-9.]+$")


def table_text(out: str, inputs: Inputs, threshold: float, remaps: int) -> list[str]:
    """``table --trace`` in text form for one expert, expecting ``remaps`` events."""
    system = dict(inputs.system)
    columns = dict(inputs.columns)
    floor = Fraction(str(threshold))
    lines = out.splitlines()
    problems: list[str] = []
    shape = f"({len(system)} rows x {len(columns)} cols,"
    if not lines or shape not in lines[0]:
        problems.append(f"table header does not announce {shape}")
    section = None
    pairs: list[tuple[str, str]] = []
    unmapped_rows: list[str] = []
    unmapped_cols: list[str] = []
    events = 0
    for line in lines:
        if line in ("mapping:", "trace:"):
            section = line
        elif line.startswith("unmapped rows: "):
            unmapped_rows = line[len("unmapped rows: ") :].split(", ")
        elif line.startswith("unmapped cols: "):
            unmapped_cols = line[len("unmapped cols: ") :].split(", ")
        elif section == "mapping:" and line != "  (none)":
            m = _MAPPING_LINE.match(line)
            if not m or m[1] not in system or m[2] not in columns:
                problems.append(f"unreadable mapping line {line!r}")
                continue
            pairs.append((m[1], m[2]))
            exact = _dice(system[m[1]], columns[m[2]])
            if exact < floor:
                problems.append(f"pair {m[1]}->{m[2]}: F below threshold")
            if abs(float(m[3]) - float(exact)) > 5.1e-5:
                problems.append(f"pair {m[1]}->{m[2]}: F={m[3]}, want {float(exact):.4f}")
        elif section == "trace:" and line != "  (no re-maps)":
            if not _TRACE_LINE.match(line):
                problems.append(f"unreadable trace line {line!r}")
            events += 1
    problems += _injective(pairs)
    problems += _partitioned([p[0] for p in pairs], unmapped_rows, system, "system rows")
    problems += _partitioned([p[1] for p in pairs], unmapped_cols, columns, "expert columns")
    if events != remaps:
        problems.append(f"trace has {events} re-maps, want {remaps}")
    return problems


def _near_int(x: float) -> int | None:
    n = round(x)
    return n if abs(x - n) <= 1e-6 * max(1.0, abs(x)) else None


def sweep_csv(out: str, inputs: Inputs, expert_path: str, thresholds: list[str]) -> list[str]:
    """``sweep`` with the all-columns policy.

    The CSV carries only P, R and F, so the counts are recovered from them:
    yy + yn is the total system size S and yy + ny the total column size T
    (every column counts, mapped or not), so P*S and R*T must agree on one
    whole yy.
    """
    total_system = sum(len(m) for _, m in inputs.system)
    total_columns = sum(len(m) for _, m in inputs.columns)
    most_pairs = min(len(inputs.system), len(inputs.columns))
    lines = out.splitlines()
    problems: list[str] = []
    if not lines or lines[0] != "expert,threshold,mapped_pairs,precision,recall,f_measure":
        problems.append("missing CSV header")
    rows = lines[1:]
    if len(rows) != len(thresholds):
        problems.append(f"sweep has {len(rows)} rows, want one per threshold ({len(thresholds)})")
    for row, want in zip(rows, thresholds):
        fields = row.split(",")
        if len(fields) != 6 or fields[0] != expert_path or float(fields[1]) != float(want):
            problems.append(f"sweep row {row!r} does not match threshold {want}")
            continue
        mapped, p, r, f = int(fields[2]), *map(float, fields[3:])
        if not 0 <= mapped <= most_pairs:
            problems.append(f"threshold {want}: {mapped} mapped pairs")
        yy_p, yy_r = _near_int(p * total_system), _near_int(r * total_columns)
        if yy_p is None or yy_p != yy_r or not 0 <= yy_p <= total_system:
            problems.append(f"threshold {want}: P and R imply different yy ({p * total_system}, {r * total_columns})")
        want_f = 2 * p * r / (p + r) if p + r else 0.0
        if not math.isclose(f, want_f, rel_tol=1e-9, abs_tol=1e-12):
            problems.append(f"threshold {want}: F={f} inconsistent with P and R")
    return problems


_PAIRS_LINE = re.compile(r"system pairs=(\d+) expert pairs=(\d+)$")
_COUNTS_LINE = re.compile(r"contingency: yy=(\d+) yn=(\d+) ny=(\d+)$")


def baseline_text(out: str, inputs: Inputs) -> list[str]:
    """``baseline`` on two partitions, checked against closed-form pair counts."""
    lines = out.splitlines()
    m_pairs = _PAIRS_LINE.match(lines[1]) if len(lines) > 2 else None
    m_counts = _COUNTS_LINE.match(lines[2]) if len(lines) > 2 else None
    if not (m_pairs and m_counts):
        return ["baseline output lacks the pair and contingency lines"]
    system_pairs, expert_pairs = int(m_pairs[1]), int(m_pairs[2])
    yy, yn, ny = map(int, m_counts.groups())
    want_system = sum(math.comb(len(m), 2) for _, m in inputs.system)
    want_expert = sum(math.comb(len(m), 2) for _, m in inputs.columns)
    owner = {w: j for j, (_, members) in enumerate(inputs.columns) for w in members}
    cells = Counter((i, owner[w]) for i, (_, m) in enumerate(inputs.system) for w in m if w in owner)
    want_yy = sum(math.comb(n, 2) for n in cells.values())
    problems = []
    if system_pairs != want_system or yy + yn != want_system:
        problems.append(f"system pairs {system_pairs}, yy+yn={yy + yn}, want {want_system}")
    if expert_pairs != want_expert or yy + ny != want_expert:
        problems.append(f"expert pairs {expert_pairs}, yy+ny={yy + ny}, want {want_expert}")
    if yy != want_yy:
        problems.append(f"yy={yy}, want {want_yy}")
    if any(line.startswith("warning:") for line in lines):
        problems.append("partition inputs reported as overlapping")
    return problems
