"""Evaluate system-generated, possibly overlapping word classes against
expert-provided gold clusterings, flat or hierarchical.

The pipeline: flatten the expert hierarchy into one column per class and
subclass, score every (system class, expert column) pair by element-based
F-measure, resolve the one-to-one mapping by iterative minimal-loss
conflict repair, then fold mapped pairs and unmapped remainders into a
single overall contingency table.
"""

from .aggregate import EvaluationReport, aggregate, evaluate
from .mapping import brute_force_mapping, build_f_table, initial_potentials, resolve_conflicts
from .metrics import pair_baseline
from .model import DocumentError, flatten, parse_clustering, parse_hierarchy

__version__ = "0.1.0"

__all__ = [
    "DocumentError",
    "EvaluationReport",
    "aggregate",
    "brute_force_mapping",
    "build_f_table",
    "evaluate",
    "flatten",
    "initial_potentials",
    "pair_baseline",
    "parse_clustering",
    "parse_hierarchy",
    "resolve_conflicts",
]
