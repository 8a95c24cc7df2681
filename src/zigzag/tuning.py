"""Learning-rate machinery: the variational identity behind the p-th root,

    x^(1/p) = inf_{eta > 0} Psi_{eta,p}(x),
    Psi_{eta,p}(x) = (1/p) (eta x + eta^(1-p') / (p' - 1)),

and two doubling-trick schedules that halve eta (in the p'-1 power) whenever
a running interval-sup complexity functional Phi crosses eta^-(p'-1):

- realized mode: Phi is built from the learner's own signed increments
  eps_t l'_t x_t; the trigger is evaluated after each completed round, so a
  phase always contains the round that burst it and the pre-boundary
  invariant holds for the phase minus its last round.
- expected mode: Phi is a Monte Carlo estimate of E_eps of the interval sup
  of the raw inputs x_t (no gradients, no learner signs); the trigger is
  evaluated when x_t arrives, before predicting, so the bursting x_t opens
  the new phase.

Both schedules use eta_i = 2^(-i/(p'-1)) eta_0 computed in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import IntervalSupTracker, NormTag, conjugate
from .rng import rademacher, substream

__all__ = [
    "psi",
    "phi_expected",
    "ExpectedPhiTracker",
    "DoublingZigZag",
    "PhaseRecord",
    "default_eta0",
]

MAX_RESTARTS_PER_ROUND = 200


def psi(eta: float, p: float, x: float) -> float:
    """Psi_{eta,p}(x); minimizing over eta recovers x^(1/p)."""
    if eta <= 0:
        raise ValueError(f"psi requires eta > 0, got {eta}")
    p_prime, _ = conjugate(p)
    return (eta * x + eta ** (1.0 - p_prime) / (p_prime - 1.0)) / p


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
    end: int  # last round of the phase (inclusive); start-1 for empty phases
    eta: float
    threshold: float
    phi_full: float
    phi_minus_last: float
    final: bool = False


class DoublingZigZag:
    """Doubling-trick wrapper around a fresh-per-phase ZigZag learner.

    The wrapped learner keeps one sign stream across phases; phase resets
    zero only its cumulative sums.  ``begin_round`` must be called with x_t
    before ``predict`` each round (the episode driver does this).
    """

    def __init__(
        self,
        spec,
        mode: str,
        seed: int,
        eta0: float | None = None,
        mc_paths: int = 500,
    ):
        from .learner import ZigZagLearner  # deferred: learner imports psi from here

        if mode not in ("realized", "expected"):
            raise ValueError(f"mode must be 'realized' or 'expected', got {mode!r}")
        self.spec = spec
        self.mode = mode
        self.seed = seed
        self.p = spec.p
        self.p_prime, _ = conjugate(spec.p)
        self.beta = spec.beta
        self.eta0 = float(eta0) if eta0 is not None else default_eta0(spec.p, spec.beta, mode)
        self.mc_paths = mc_paths

        self.phase_index = 0
        self.learner = ZigZagLearner(spec, self.eta_for(0), substream(seed, "learner"))
        self.phase_log: list[PhaseRecord] = []
        self._round = 0
        self._phase_start = 1
        self._phi_history: list[float] = []  # tracker value after each append
        self._tracker = self._new_tracker()

    # -- schedule ------------------------------------------------------

    def eta_for(self, i: int) -> float:
        return 2.0 ** (-i / (self.p_prime - 1.0)) * self.eta0

    @property
    def eta(self) -> float:
        return self.learner.eta

    @property
    def threshold(self) -> float:
        return self.eta ** (-(self.p_prime - 1.0))

    # -- tracker -------------------------------------------------------

    def _new_tracker(self):
        self._phi_history = []
        if self.mode == "realized":
            return IntervalSupTracker(self.spec.tag, shape=self.spec.point_shape)
        return ExpectedPhiTracker(
            self.spec.tag,
            self.p,
            self.beta,
            self.mc_paths,
            substream(self.seed, "phi-mc", self.phase_index),
            shape=self.spec.point_shape,
        )

    def _phi_value(self) -> float:
        if self.mode == "realized":
            return self.beta**self.p * self._tracker.value**self.p
        return self._tracker.value

    def _append(self, increment) -> None:
        self._tracker.append(increment)
        self._phi_history.append(self._phi_value())

    def _close_phase(self, end_round: int, drop_last_appended: bool, final: bool = False) -> None:
        hist = self._phi_history[:-1] if drop_last_appended else self._phi_history
        phi_full = hist[-1] if hist else 0.0
        phi_minus_last = hist[-2] if len(hist) >= 2 else 0.0
        self.phase_log.append(
            PhaseRecord(
                index=self.phase_index,
                start=self._phase_start,
                end=end_round,
                eta=self.eta,
                threshold=self.threshold,
                phi_full=phi_full,
                phi_minus_last=phi_minus_last,
                final=final,
            )
        )

    def _advance_phase(self, first_round_of_new_phase: int) -> None:
        self.phase_index += 1
        self.learner.eta = self.eta_for(self.phase_index)
        self.learner.reset_sums()
        self._phase_start = first_round_of_new_phase
        self._tracker = self._new_tracker()

    # -- per-round interface --------------------------------------------

    def begin_round(self, x) -> bool:
        """Expected mode only: fold the incoming x into the phase complexity
        and restart if the threshold is crossed (the bursting x opens the new
        phase).  Returns whether a restart happened."""
        self._round += 1
        if self.mode != "expected":
            return False
        self._append(x)
        restarts = 0
        while self.eta * self._tracker.value > self.threshold:
            if restarts >= MAX_RESTARTS_PER_ROUND:
                raise RuntimeError("doubling restart loop exceeded the safety cap")
            self._close_phase(self._round - 1, drop_last_appended=True)
            self._advance_phase(self._round)
            self._append(x)
            restarts += 1
        return restarts > 0

    def doubling_step(self, increment) -> bool:
        """Realized mode: absorb one signed increment into the phase
        complexity; if the threshold is crossed the phase closes (keeping the
        round that burst it) and the reset takes effect from the next round.
        Returns whether a restart happened."""
        self._append(increment)
        if self.eta * self._phi_value() > self.threshold:
            self._close_phase(self._round, drop_last_appended=False)
            self._advance_phase(self._round + 1)
            return True
        return False

    def predict(self, x) -> float:
        return self.learner.predict(x)

    def update(self, x, dloss_val: float) -> int:
        eps = self.learner.update(x, dloss_val)
        if self.mode == "realized":
            self.doubling_step(eps * dloss_val * np.asarray(x, dtype=float))
        return eps

    def finish(self) -> list[PhaseRecord]:
        """Close the final phase and return the complete phase log."""
        self._close_phase(self._round, drop_last_appended=False, final=True)
        return self.phase_log

    # episode driver compatibility

    def relaxation_value(self) -> float:
        return self.learner.relaxation_value()

    def certificate(self, x, grid=None, tol: float = 1e-8, yhat: float | None = None):
        return self.learner.certificate(x, grid=grid, tol=tol, yhat=yhat)
