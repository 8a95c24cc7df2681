"""Doubling-trick schedules for the learning rate.

The regret guarantee pays Psi_{eta,p} (``learner.psi``), whose infimum over
eta > 0 is the p-th root.  Two schedules halve eta (in the p'-1 power)
whenever a running interval-sup complexity functional Phi crosses
eta^-(p'-1):

- realized mode: Phi is built from the learner's own signed increments
  eps_t l'_t x_t; the trigger is evaluated after each completed round, so a
  phase always contains the round that burst it and the pre-boundary
  invariant holds for the phase minus its last round.
- expected mode: Phi is a Monte Carlo estimate of E_eps of the interval sup
  of the raw inputs x_t (no gradients, no learner signs); the trigger is
  evaluated when x_t arrives, before predicting, so the bursting x_t opens
  the new phase.

Both schedules use eta_i = 2^(-i/(p'-1)) eta_0 computed in closed form.
The tuner is a ZigZag learner with one lane per seed; each lane keeps its
own phase log, whose last ``PhaseRecord`` is the lane's open phase.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .learner import ZigZagLearner
from .linalg import IntervalSupTracker, NormTag, conjugate
from .rng import rademacher, substream

__all__ = [
    "phi_expected",
    "ExpectedPhiTracker",
    "DoublingZigZag",
    "PhaseRecord",
    "default_eta0",
]

MAX_RESTARTS_PER_ROUND = 200


class ExpectedPhiTracker(IntervalSupTracker):
    """Monte Carlo estimate of beta^p E_eps sup-over-intervals ||sum eps_t
    z_t||^p, maintained incrementally.

    An interval-sup tracker over K sign paths fixed once (common random
    numbers): appending z extends path k by eps_k z with a fresh sign, so
    earlier rounds' contributions never change and the restart predicate is
    stable.
    """

    def __init__(self, tag: NormTag, p: float, beta: float, k_paths: int, rng: np.random.Generator, shape=()):
        if k_paths < 100:
            raise ValueError(f"need at least 100 Monte Carlo paths, got {k_paths}")
        super().__init__(tag, shape, paths=k_paths)
        self.p = p
        self.beta = beta
        self.rng = rng

    def append(self, increment) -> None:
        z = np.asarray(increment, dtype=float).reshape(self.shape)
        signs = rademacher(self.rng, self.k).astype(float)
        super().append(signs.reshape((self.k,) + (1,) * z.ndim) * z)

    @property
    def value(self) -> float:
        return float(self.beta**self.p * np.mean(self.sups**self.p))

    @property
    def standard_error(self) -> float:
        vals = self.beta**self.p * self.sups**self.p
        return float(np.std(vals, ddof=1) / np.sqrt(self.k))


def phi_expected(increments, tag: NormTag, p: float, beta: float, k_paths: int = 500, seed: int = 0):
    """One-shot Monte Carlo (mean, standard error) of the expected-sign
    interval-sup functional over the given raw increments."""
    arr = np.asarray(increments, dtype=float)
    tracker = ExpectedPhiTracker(tag, p, beta, k_paths, substream(seed, "phi-expected"), shape=arr.shape[1:])
    for z in arr:
        tracker.append(z)
    return tracker.value, tracker.standard_error


def default_eta0(p: float, beta: float, mode: str) -> float:
    """eta_0 = (beta p)^-p for p >= 2 and 1 for p < 2 in realized mode; the
    expected-mode schedule allows any eta_0 < 1, so the same choice is capped
    at 1/2."""
    eta0 = (beta * p) ** (-p) if p >= 2.0 else 1.0
    if mode == "expected":
        eta0 = min(eta0, 0.5)
    return eta0


@dataclass
class PhaseRecord:
    index: int
    start: int  # first round of the phase (1-based)
    end: int  # last round of the phase (inclusive); start-1 while open and for empty phases
    eta: float
    threshold: float
    phi_full: float
    phi_minus_last: float
    final: bool = False


class DoublingZigZag(ZigZagLearner):
    """Doubling-trick ZigZag learner with one lane per seed.

    Lane k draws its signs from ``substream(seed_k, "learner")`` across all
    of its phases and keeps its own rate ``eta[k]``, complexity tracker and
    phase log.  The last record of a lane's log is its open phase: index,
    start, rate and threshold are set when it opens, the two Phi fields shift
    as increments are folded in, and the end is set when it closes.  A phase
    reset zeroes only that lane's sums, so every lane is bit-identical to a
    one-seed run.  ``begin_round`` must be called with x_t before ``predict``
    each round (the episode driver does this).
    """

    def __init__(self, spec, mode: str, seeds, eta0: float | None = None, mc_paths: int = 500):
        if mode not in ("realized", "expected"):
            raise ValueError(f"mode must be 'realized' or 'expected', got {mode!r}")
        self.mode = mode
        self.seeds = list(seeds)
        self.p_prime, _ = conjugate(spec.p)
        self.eta0 = float(eta0) if eta0 is not None else default_eta0(spec.p, spec.beta, mode)
        self.mc_paths = mc_paths
        super().__init__(spec, np.full(len(self.seeds), self.eta_for(0)), [substream(seed, "learner") for seed in self.seeds])
        self.phase_log: list[list[PhaseRecord]] = [[] for _ in range(self.lanes)]
        self._trackers = [None] * self.lanes
        for k in range(self.lanes):
            self._open_phase(k)

    def eta_for(self, i: int) -> float:
        return 2.0 ** (-i / (self.p_prime - 1.0)) * self.eta0

    def _open_phase(self, k: int) -> None:
        """Close lane k's open phase after round t and open its next phase
        at round t + 1, with the next rate, zero sums and a fresh tracker."""
        log = self.phase_log[k]
        if log:
            log[-1].end = self.t
        index = len(log)
        self.eta[k] = eta = self.eta_for(index)
        log.append(PhaseRecord(index, self.t + 1, self.t, eta, eta ** (-(self.p_prime - 1.0)), 0.0, 0.0))
        self.S[k] = self.M[k] = 0.0
        spec = self.spec
        if self.mode == "realized":
            self._trackers[k] = IntervalSupTracker(spec.tag, shape=spec.point_shape)
        else:
            rng = substream(self.seeds[k], "phi-mc", index)
            self._trackers[k] = ExpectedPhiTracker(spec.tag, spec.p, spec.beta, self.mc_paths, rng, shape=spec.point_shape)

    def _fold(self, k: int, increment) -> bool:
        """Fold an increment into lane k's Phi and say whether eta Phi crosses
        the open phase's threshold; in expected mode a crossing Phi is not
        recorded, because its increment opens the next phase."""
        tracker = self._trackers[k]
        tracker.append(increment)
        phi = tracker.value if self.mode == "expected" else self.spec.beta**self.spec.p * tracker.value**self.spec.p
        rec = self.phase_log[k][-1]
        crosses = rec.eta * phi > rec.threshold
        if not (crosses and self.mode == "expected"):
            rec.phi_minus_last, rec.phi_full = rec.phi_full, phi
        return crosses

    def begin_round(self, x) -> None:
        """Expected mode only: fold the incoming x into each lane's phase
        complexity and restart the lanes whose threshold is crossed (the
        bursting x opens their new phase)."""
        if self.mode != "expected":
            return
        for k, x_k in enumerate(np.broadcast_to(self._instance(x), self.S.shape)):
            restarts = 0
            while self._fold(k, x_k):
                if restarts >= MAX_RESTARTS_PER_ROUND:
                    raise RuntimeError("doubling restart loop exceeded the safety cap")
                self._open_phase(k)
                restarts += 1

    def update(self, x, dloss) -> np.ndarray:
        """The ZigZag update; in realized mode each lane then absorbs its
        signed increment eps l' x into its phase complexity, and a lane whose
        threshold is crossed closes its phase (keeping the round that burst
        it) with the reset taking effect from the next round."""
        eps = super().update(x, dloss)
        if self.mode == "realized":
            xs = np.broadcast_to(self._instance(x), self.S.shape)
            for k, signed in enumerate(eps * np.asarray(dloss, dtype=float)):
                if self._fold(k, signed * xs[k]):
                    self._open_phase(k)
        return eps

    def finish(self) -> list[list[PhaseRecord]]:
        """Close every lane's open phase and return the K complete phase
        logs."""
        for log in self.phase_log:
            log[-1].end = self.t
            log[-1].final = True
        return self.phase_log
