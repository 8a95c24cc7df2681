"""Burkholder-function-driven adaptive online learning.

Subpackages:

- ``linalg``: norm catalogue, dual-ball linear minimization oracles,
  interval-supremum scans
- ``losses``: convex 1-Lipschitz losses with subgradient selection
- ``burkholder``: the Burkholder function catalogue and probe checks
- ``learner``: the ZigZag prediction engine with runtime admissibility
  certificates
- ``tuning``: doubling-trick learning-rate schedules, one per lane
- ``spectral``: matrix prediction from an expert net of factor matrices
- ``rademacher``: Monte Carlo Rademacher-complexity estimators and
  martingale-inequality verifiers on dyadic trees
- ``harness``: adversaries, baselines, offline comparators, experiment
  orchestration
"""

__version__ = "0.1.0"
