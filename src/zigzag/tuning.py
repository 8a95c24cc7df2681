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
  evaluated when x_t arrives, in the round's ``predict`` before the
  prediction, so the bursting x_t opens the new phase.

Both schedules use eta_i = 2^(-i/(p'-1)) eta_0 computed in closed form.
The tuner is a ZigZag learner with one lane per seed; each lane keeps its
own phase log, whose last ``PhaseRecord`` is the lane's open phase.  One
interval-sup tracker measures Phi for all lanes at once, and a lane's phase
reset restarts only that lane's paths.  Its exact pruning
(``linalg.IntervalSupTracker``) computes far fewer than O(t) norms per path
and round.  In expected mode it takes each lane's z once with one sign per
path; for an inner-product norm its pruning then costs O(t) scalar steps per
path and round, whatever the dimension.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .learner import ConfigError, ZigZagLearner
from .linalg import IntervalSupTracker, NormTag, conjugate
from .rng import rademacher, substream

__all__ = [
    "ExpectedPhiTracker",
    "DoublingZigZag",
    "PhaseRecord",
    "default_eta0",
    "phase_threshold",
]

MAX_RESTARTS_PER_ROUND = 200
_SIGN_BLOCK = 32  # rounds of Monte Carlo signs each lane draws at a time


class ExpectedPhiTracker(IntervalSupTracker):
    """Monte Carlo estimate of beta^p E_eps sup-over-intervals ||sum eps_t
    z_t||^p, maintained incrementally for one or more lanes.

    One interval-sup tracker over ``k_paths`` sign paths per lane, fixed once
    per lane (common random numbers): appending z extends every path of a
    lane by eps z with a fresh sign from that lane's generator, so earlier
    rounds' contributions never change and the restart predicate is stable.
    The tracker takes z per lane and eps per path, in that factored form.
    Each lane draws its signs in blocks of rounds; a block of Philox draws
    equals the same number of single draws.
    """

    def __init__(self, tag: NormTag, p: float, beta: float, k_paths: int, rngs, shape=()):
        if k_paths < 100:
            raise ValueError(f"need at least 100 Monte Carlo paths, got {k_paths}")
        self.rngs = list(rngs)
        super().__init__(tag, shape, paths=len(self.rngs) * k_paths, lanes=len(self.rngs))
        self.p = p
        self.beta = beta
        self.k_paths = k_paths
        self._block = None  # (block, lanes, k_paths) signs

    def append(self, increment) -> None:
        """Extend the paths of lane l by eps z_l; ``increment`` is one z of
        ``shape`` for every lane or one per lane."""
        j = self.n % _SIGN_BLOCK
        if j == 0:
            self._block = np.stack([rademacher(rng, (_SIGN_BLOCK, self.k_paths)) for rng in self.rngs], axis=1)
        super().append(increment, self._block[j])

    def restart_lane(self, lane: int, rng: np.random.Generator, z) -> None:
        """Restart one lane as a fresh tracker on ``rng`` that is fed z: the
        lane's newest append is redrawn from ``rng``, which then serves its
        later rounds."""
        self.rngs[lane] = rng
        j = (self.n - 1) % _SIGN_BLOCK
        self._block[j:, lane] = rademacher(rng, (_SIGN_BLOCK - j, self.k_paths))
        self.restart([lane], np.asarray(z, dtype=float)[np.newaxis], self._block[j, [lane]])

    @property
    def values(self) -> np.ndarray:
        """Each lane's estimate."""
        return self.beta**self.p * np.mean(self.sups.reshape(len(self.rngs), self.k_paths) ** self.p, axis=1)


def default_eta0(p: float, beta: float, mode: str) -> float:
    """eta_0 = (beta p)^-p for p >= 2 and 1 for p < 2 in realized mode; the
    expected-mode schedule allows any eta_0 < 1, so the same choice is capped
    at 1/2."""
    eta0 = (beta * p) ** (-p) if p >= 2.0 else 1.0
    if mode == "expected":
        eta0 = min(eta0, 0.5)
    return eta0


def phase_threshold(eta: float, p: float) -> float:
    """eta^-(p'-1), which eta Phi crosses to close a phase of rate eta; inf past the largest float, where float ** raises."""
    with np.errstate(over="ignore"):
        return float(np.float_power(eta, -(conjugate(p)[0] - 1.0)))


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
    of its phases and keeps its own rate ``eta[k]`` and phase log.  The last
    record of a lane's log is its open phase: index, start, rate and
    threshold are set when it opens, and its end and two Phi fields when it
    closes (while it is open, the Phi fields live in one array over the
    lanes).  One complexity tracker serves every lane: realized mode tracks
    one path per lane, expected mode ``mc_paths`` per lane, and a phase reset
    restarts only that lane's paths and zeroes only its sums, so every lane
    is bit-identical to a one-seed run.  A round runs per-lane Python only
    for the lanes that cross.  A round is ``predict`` then ``update``, as
    for any learner.
    """

    def __init__(self, spec, mode: str, seeds, mc_paths: int, eta0: float | None = None):
        if mode not in ("realized", "expected"):
            raise ValueError(f"mode must be 'realized' or 'expected', got {mode!r}")
        self.mode = mode
        self.seeds = list(seeds)
        self.p_prime, _ = conjugate(spec.p)
        self.eta0 = float(eta0) if eta0 is not None else default_eta0(spec.p, spec.beta, mode)
        super().__init__(spec, np.full(len(self.seeds), self.eta_for(0)), [substream(seed, "learner") for seed in self.seeds])
        self.phase_log: list[list[PhaseRecord]] = [[] for _ in range(self.lanes)]
        self._threshold = np.empty(self.lanes)
        self._phi = np.zeros((2, self.lanes))  # the open phases' (phi_minus_last, phi_full)
        if mode == "realized":
            self.tracker = IntervalSupTracker(spec.tag, spec.point_shape, paths=self.lanes)
        else:
            rngs = [substream(seed, "phi-mc", 0) for seed in self.seeds]
            self.tracker = ExpectedPhiTracker(spec.tag, spec.p, spec.beta, mc_paths, rngs, shape=spec.point_shape)
        for k in range(self.lanes):
            self._open_phase(k)

    def eta_for(self, i: int) -> float:
        return 2.0 ** (-i / (self.p_prime - 1.0)) * self.eta0

    def _close_phase(self, k: int) -> PhaseRecord:
        rec = self.phase_log[k][-1]
        rec.end = self.t
        rec.phi_minus_last, rec.phi_full = self._phi[:, k].tolist()
        return rec

    def _open_phase(self, k: int) -> None:
        """Close lane k's open phase after round t and open its next phase
        at round t + 1, with the next rate and zero sums; the caller
        restarts the lane's tracker paths."""
        log = self.phase_log[k]
        if log:
            self._close_phase(k)
        index = len(log)
        self.eta[k] = eta = self.eta_for(index)
        self._threshold[k] = threshold = phase_threshold(eta, self.spec.p)
        log.append(PhaseRecord(index, self.t + 1, self.t, eta, threshold, 0.0, 0.0))
        self._phi[:, k] = 0.0
        self.S[k] = self.M[k] = 0.0

    def _fold(self, phi, lanes=slice(None)) -> np.ndarray:
        """Take the lanes' new Phi and say where eta Phi crosses the open
        phase's threshold; in expected mode a crossing Phi is not recorded,
        because its increment opens the next phase."""
        crosses = self.eta[lanes] * phi > self._threshold[lanes]
        keep = ~crosses if self.mode == "expected" else True
        self._phi[:, lanes] = np.where(keep, (self._phi[1, lanes], phi), self._phi[:, lanes])
        return crosses

    def predict(self, x) -> np.ndarray:
        """The lanes' predictions for x_t.  In expected mode the round's first
        call first folds x_t into every lane's phase complexity and restarts
        the lanes it carries over their thresholds: x_t opens their new phase."""
        if self.mode == "expected" and self.tracker.n == self.t:
            xs = np.broadcast_to(self._instance(x), self.S.shape)
            self.tracker.append(xs)
            for k in np.flatnonzero(self._fold(self.tracker.values)):
                for _ in range(MAX_RESTARTS_PER_ROUND):
                    self._open_phase(k)
                    self.tracker.restart_lane(k, substream(self.seeds[k], "phi-mc", len(self.phase_log[k]) - 1), xs[k])
                    if not self._fold(self.tracker.values[[k]], [k])[0]:
                        break
                else:
                    raise ConfigError(f"seeds {self.seeds}: round {self.t + 1} crossed more than {MAX_RESTARTS_PER_ROUND} doubling "
                                      f"thresholds of seed {self.seeds[k]}; eta0 = {self.eta0} is too large for the stream")
        return super().predict(x)

    def update(self, x, dloss) -> np.ndarray:
        """The ZigZag update; in realized mode each lane then absorbs its
        signed increment eps l' x into its phase complexity, and a lane whose
        threshold is crossed closes its phase (keeping the round that burst
        it) with the reset taking effect from the next round."""
        eps = super().update(x, dloss)
        if self.mode == "realized":
            spec = self.spec
            xs = np.broadcast_to(self._instance(x), self.S.shape)
            signed = eps * np.asarray(dloss, dtype=float)
            self.tracker.append(signed.reshape((-1,) + (1,) * len(spec.point_shape)) * xs)
            # float_power calls the C library's pow, as Python's float ** does;
            # np.power's vector kernel can round the last bit differently
            crossing = np.flatnonzero(self._fold(spec.beta**spec.p * np.float_power(self.tracker.sups, spec.p)))
            for k in crossing:
                self._open_phase(k)
            self.tracker.restart(crossing)
        return eps

    def finish(self) -> list[list[PhaseRecord]]:
        """Close every lane's open phase and return the K complete phase
        logs."""
        for k in range(self.lanes):
            self._close_phase(k).final = True
        return self.phase_log
