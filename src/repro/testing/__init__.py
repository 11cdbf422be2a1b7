"""Correctness subsystem: invariants, fault injection, differential runs.

Three reusable pieces, consumed by the test suite and importable by any
future perf PR as its standing gate:

* :mod:`repro.testing.invariants` — executable checkers for the paper's
  monotone transition effects (Formulas 4, 7, 8), the dominance
  correctness of canonical frontiers, cache-invalidation soundness, and
  :class:`~repro.core.stats.SearchStats` counter consistency;
* :mod:`repro.testing.faults` — a seeded, deterministic fault injector
  (cache evictions mid-solve, statistics bumps between sweep steps,
  transient errors inside scheduler workers) plus the
  :class:`TransientFault` drills the service's fallback path absorbs;
* :mod:`repro.testing.differential` — the lattice runner: every Table 1
  problem solved per algorithm across cache modes, batching, the
  process backend, snapshot boots and async serving, cross-checked
  against the exhaustive oracle and (on the service path) the row
  engine, with printable seeds to reproduce any failing lattice point.
"""

from repro.testing.differential import (
    DifferentialFailure,
    LatticePoint,
    run_service_lattice,
    run_solver_lattice,
    solver_lattice,
    service_lattice,
    table1_problems,
)
from repro.testing.faults import FaultInjector, FaultPlan
from repro.testing.invariants import (
    InvariantViolation,
    check_canonical_frontier,
    check_cost_monotone,
    check_doi_monotone,
    check_search_stats,
    check_size_antitone,
    check_stats_token_soundness,
    check_vertical_budget_decreases,
)

__all__ = [
    "DifferentialFailure",
    "FaultInjector",
    "FaultPlan",
    "InvariantViolation",
    "LatticePoint",
    "check_canonical_frontier",
    "check_cost_monotone",
    "check_doi_monotone",
    "check_search_stats",
    "check_size_antitone",
    "check_stats_token_soundness",
    "check_vertical_budget_decreases",
    "run_service_lattice",
    "run_solver_lattice",
    "service_lattice",
    "solver_lattice",
    "table1_problems",
]
