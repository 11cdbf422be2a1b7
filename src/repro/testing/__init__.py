"""Correctness subsystem: invariants, fault injection, differential runs.

Four reusable pieces, consumed by the test suite and importable by any
future perf PR as its standing gate:

* :mod:`repro.testing.invariants` — executable checkers for the paper's
  monotone transition effects (Formulas 4, 7, 8), the dominance
  correctness of canonical frontiers, cache-invalidation soundness, and
  :class:`~repro.core.stats.SearchStats` counter consistency;
* :mod:`repro.testing.faults` — a seeded, deterministic fault injector
  (cache evictions mid-solve, statistics bumps between sweep steps,
  transient errors inside scheduler tasks) plus the
  :class:`TransientFault` drills the service's fallback path absorbs;
* :mod:`repro.testing.differential` — the lattice runner: every Table 1
  problem solved per algorithm across cache modes, batching,
  snapshot boots and async serving, cross-checked
  against the exhaustive oracle and (on the service path) the row
  engine, with printable seeds to reproduce any failing lattice point;
* :mod:`repro.testing.reference` — the tuple-state FINDBOUNDARY sweep
  and ``Horizontal2`` growth the mask-native search loops replaced,
  kept as their call-for-call oracle.
"""
