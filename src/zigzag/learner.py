"""The ZigZag online learner, over K sign-path lanes.

Round structure (online supervised protocol): nature reveals x_t, the learner
predicts, nature reveals y_t, the learner takes a subgradient and updates.
The prediction is the negated derivative at zero of

    G_t(a) = E_{sigma in +-1} (eta/p) U(S + a x_t, M + sigma a x_t),

where S and M accumulate l'_s x_s and eps_s l'_s x_s along a realized sign
path.  The two-point expectation over sigma is always computed exactly, from
one ``dirderiv_batch`` query that returns both signs.  Predictions are not
clipped.

Lanes: the regret guarantee holds in expectation over the learner's own signs
eps, so one learner steps K independent sign paths together.  ``S`` and ``M``
are ``(K, *point_shape)`` arrays, and ``predict``, ``certificate`` and
``relaxation_value`` answer all K lanes with one U query each.  An instance
is either shared by all lanes (``point_shape``) or one per lane
(``(K, *point_shape)``, K > 1), so the lanes can be independent sign paths on
one stream or independent seeds with their own streams.  Lane k draws its
signs from its own generator in fixed blocks; a block of Philox draws equals
the same number of single draws, so every lane is bit-identical to a one-lane
run of its generator and its stream.  K = 1 is the single-path learner.

Admissibility certificate: zig-zag concavity of U makes G_t concave, so for
every l' in [-1, 1]

    yhat * l' + G_t(l') <= G_t(0),

deterministically per round and lane.  ``certificate(x, yhat)`` returns each
lane's worst slack G_t(0) - yhat * l' - G_t(l') over a grid of l' values,
from one ``value_batch`` query over the lanes, both sign branches and (S, M);
it is the per-round witness behind the regret guarantee, and a slack below
``-CERT_TOL`` is a violation.  ``run_episode(..., certify=True)`` records it
every round on ``CERT_GRID``, so a certified round queries U three times:
predict, certificate and ``relaxation_value``.

M tracks each lane's realized sign path.  The alternative potential that
re-averages over all sign paths each round costs 2^t evaluations and is not
implemented; for depth <= 12 the dyadic-tree enumeration in ``rademacher``
would serve as the exact oracle if that mode were ever needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .burkholder import BurkholderSpec
from .linalg import conjugate
from .losses import dloss_batch, loss_batch
from .rng import rademacher

__all__ = [
    "ZigZagLearner",
    "EpisodeTrace",
    "run_episode",
    "theorem_residual",
    "psi",
    "lane_instances",
    "validate_labels",
    "TRACE_COLUMNS",
    "CERT_GRID",
    "CERT_TOL",
]

TRACE_COLUMNS = ("t", "yhat", "y", "loss", "dloss", "eps", "rel_value", "cum_loss")
_SIGMAS = np.array([[1.0, -1.0]])
_SIGN_BLOCK = 256  # signs each lane draws at a time
CERT_GRID = np.linspace(-1.0, 1.0, 41)  # the l' values a certificate checks
CERT_GRID.flags.writeable = False
CERT_TOL = 1e-8  # a slack below -CERT_TOL is a violation


class ZigZagLearner:
    """Online learner driven by a Burkholder function, over K lanes.

    State: cumulative sums ``S`` and ``M`` of shape ``(K, *point_shape)``,
    the round index, the learning rate (one for all lanes, or a length-K
    array of per-lane rates; None is 1.0), and one sign stream per lane; K is
    ``len(rngs)``.
    """

    def __init__(self, spec: BurkholderSpec, eta, rngs):
        self.rngs = list(rngs)
        if not self.rngs:
            raise ValueError("need one sign generator per lane, got none")
        self.lanes = len(self.rngs)
        eta = np.asarray(1.0 if eta is None else eta, dtype=float)
        if eta.shape not in ((), (self.lanes,)) or np.any(eta <= 0):
            raise ValueError(f"learning rate must be positive, one for all lanes or one per lane, got {eta}")
        self.spec = spec
        self.eta = float(eta) if eta.ndim == 0 else eta
        self.t = 0
        self._signs = None
        self.S = np.zeros((self.lanes, *spec.point_shape))
        self.M = np.zeros((self.lanes, *spec.point_shape))

    def _instance(self, x) -> np.ndarray:
        return lane_instances(x, self.spec.point_shape, self.lanes)

    def predict(self, x) -> np.ndarray:
        """The K lanes' predictions for instance x."""
        x = self._instance(x)
        dd = self.spec.dirderiv_batch(self.S[:, np.newaxis], self.M[:, np.newaxis], x[:, np.newaxis], _SIGMAS)
        return -(self.eta / self.spec.p) * 0.5 * (dd[:, 0] + dd[:, 1])

    def update(self, x, dloss) -> np.ndarray:
        """Draw every lane's next sign, absorb its subgradient step (``dloss``
        broadcasts to the K lanes), and return the K drawn signs."""
        x = self._instance(x)
        dloss = np.asarray(dloss, dtype=float)
        if np.count_nonzero(np.abs(dloss) > 1.0 + 1e-12):
            raise ValueError(f"|dloss| must be <= 1, got {dloss}")
        if self.t % _SIGN_BLOCK == 0:
            self._signs = np.stack([rademacher(rng, _SIGN_BLOCK) for rng in self.rngs])
        eps = self._signs[:, self.t % _SIGN_BLOCK]
        lane_axes = (-1,) + (1,) * (x.ndim - 1)
        step = dloss.reshape(lane_axes) * x
        self.S = self.S + step
        self.M = self.M + eps.reshape(lane_axes) * step
        self.t += 1
        return eps

    def relaxation_value(self) -> np.ndarray:
        return (self.eta / self.spec.p) * self.spec.value_batch(self.S, self.M)

    def certificate(self, x, yhat, grid=CERT_GRID) -> np.ndarray:
        """Each lane's worst slack of yhat*l' + G_t(l') <= G_t(0) over a grid
        of l' in [-1, 1], as a ``(K,)`` array; ``yhat`` broadcasts to the K
        lanes."""
        xs = self._instance(x)
        grid = np.asarray(grid, dtype=float)
        scale = np.reshape(self.eta / self.spec.p, (-1, 1))
        g = grid.size
        # rows (S + l'x, M + l'x) and (S + l'x, M - l'x) over the grid, then
        # (S, M) as the row with l' = 0, for every lane
        ls = np.concatenate([grid, grid, [0.0]])
        signs = np.concatenate([np.ones(g), -np.ones(g), [1.0]])
        axes = (2 * g + 1,) + (1,) * (xs.ndim - 1)
        steps = ls.reshape(axes) * xs[:, np.newaxis]
        vals = self.spec.value_batch(
            self.S[:, np.newaxis] + steps, self.M[:, np.newaxis] + signs.reshape(axes) * steps
        )  # (K, 2g + 1)
        g_vals = scale * 0.5 * (vals[:, :g] + vals[:, g : 2 * g])
        rhs = scale * vals[:, -1:]
        slack = rhs - (np.asarray(yhat, dtype=float)[..., np.newaxis] * grid + g_vals)
        return slack.min(axis=1)


def lane_instances(x, point_shape: tuple, lanes: int) -> np.ndarray:
    """Instance ``x`` as a ``(1 or K, *point_shape)`` array: one instance of
    ``point_shape`` shared by the K lanes, or, when K > 1, one per lane.  A
    one-lane learner takes only the shared form, so a stray length-1 axis is
    never read as a lane axis.  Any other shape raises."""
    shape = np.shape(x)
    if shape == point_shape:
        return np.asarray(x, dtype=float)[np.newaxis]
    if lanes > 1 and shape == (lanes, *point_shape):
        return np.asarray(x, dtype=float)
    raise ValueError(f"instance shape {shape} is neither the point shape {point_shape} nor {(lanes, *point_shape)}")


@dataclass
class EpisodeTrace:
    """Per-round record of one episode: the instances ``xs`` as the adversary
    gave them (shared by the lanes, or one per lane) and one ``(n, K)`` array
    per column, row t holding round t + 1 of every lane."""

    xs: list
    yhat: np.ndarray
    y: np.ndarray
    loss: np.ndarray
    dloss: np.ndarray
    eps: np.ndarray
    rel_value: np.ndarray
    cum_loss: np.ndarray
    cert_worst_slack: np.ndarray | None = None

    @property
    def n(self) -> int:
        return len(self.yhat)

    def to_csv(self, lane: int = 0) -> str:
        """One lane's rounds (an experiment cell is one lane) in the fixed
        ``TRACE_COLUMNS`` schema."""
        columns = (getattr(self, name)[:, lane].tolist() for name in TRACE_COLUMNS[1:])
        rows = zip(range(1, self.n + 1), *columns)
        return ",".join(TRACE_COLUMNS) + "\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows)


def run_episode(learner, loss_name: str, adversary, n: int, certify: bool = False) -> EpisodeTrace:
    """Drive one episode of the online protocol over the learner's lanes.

    ``learner`` needs ``lanes`` (K), ``predict(x)`` returning K predictions
    and ``update(x, dloss) -> eps`` taking and returning K values; a
    ``begin_round(x)`` hook (doubling tuners) and ``relaxation_value()`` are
    used when present.  ``certify`` records each round's per-lane
    ``certificate(x, yhat)`` as ``cert_worst_slack``.
    ``adversary.next_x(t)`` gives one x_t for all lanes or one per lane, and
    ``adversary.next_y(t, x, yhat)`` answers the K predictions at once (a
    label that ignores them may be shared by all lanes).  The adversary owns
    its randomness, so learner and adversary draws never interact.
    """
    columns = {name: np.empty((n, learner.lanes), dtype=int if name == "eps" else float) for name in TRACE_COLUMNS[1:]}
    cert_slacks = np.empty((n, learner.lanes)) if certify else None
    xs = []
    cum = np.zeros(learner.lanes)
    for i in range(n):
        x = adversary.next_x(i + 1)
        if hasattr(learner, "begin_round"):
            learner.begin_round(x)
        yhat = learner.predict(x)
        y = adversary.next_y(i + 1, x, yhat)
        validate_labels(loss_name, y)
        lv = loss_batch(loss_name, yhat, y)
        dl = dloss_batch(loss_name, yhat, y)
        if certify:
            cert_slacks[i] = learner.certificate(x, yhat)
        eps = learner.update(x, dl)
        cum = cum + lv
        rel = learner.relaxation_value() if hasattr(learner, "relaxation_value") else np.nan
        xs.append(np.asarray(x, dtype=float))
        for column, value in zip(columns.values(), (yhat, y, lv, dl, eps, rel, cum)):
            column[i] = value
    return EpisodeTrace(xs=xs, cert_worst_slack=cert_slacks, **columns)


def validate_labels(loss_name: str, y) -> None:
    """Raise ``ValueError`` unless the labels suit the loss: {-1, +1} for hinge and linear, [-1, 1] for absolute."""
    size = np.abs(np.asarray(y, dtype=float))
    if loss_name in ("hinge", "linear"):
        if np.count_nonzero(size != 1.0):
            raise ValueError(f"{loss_name} loss needs labels in {{-1, +1}}, got {y}")
    elif np.count_nonzero(~(size <= 1.0)):
        raise ValueError(f"absolute loss needs labels in [-1, 1], got {y}")


def psi(eta, p: float, x):
    """Psi_{eta,p}(x) = (1/p) (eta x + eta^(1-p') / (p' - 1)); minimizing
    over eta > 0 recovers x^(1/p).  ``eta`` and ``x`` broadcast, so a
    learner's per-lane rates give per-lane values."""
    if np.any(np.asarray(eta) <= 0):
        raise ValueError(f"psi requires eta > 0, got {eta}")
    p_prime, _ = conjugate(p)
    # float_power calls the C library's pow, as Python's float ** does
    return (eta * x + np.float_power(eta, 1.0 - p_prime) / (p_prime - 1.0)) / p


def theorem_residual(trace: EpisodeTrace, learner: ZigZagLearner) -> dict:
    """Each lane's realized path against the regret guarantee, from the
    learner that ran ``trace``: its final sums S and M and its rate.

    Uses the linearized regret sum(yhat_t l'_t) + ||S_n||, which dominates
    the true regret pathwise, so the reported residual

        linearized_regret - Psi_{eta,p}(beta^p ||M_n||^p)

    upper-bounds the residual for any comparator.  Its mean over sign paths
    is guaranteed <= 0.  Every value is a length-K array.  Each lane's sum
    runs over a contiguous row, so a lane's value does not depend on K.
    """
    spec = learner.spec
    payoff = np.ascontiguousarray((trace.yhat * trace.dloss).T).sum(axis=1)
    linearized_regret = payoff + spec.norm_batch(learner.S)
    bound = psi(learner.eta, spec.p, spec.beta**spec.p * spec.norm_batch(learner.M) ** spec.p)
    return {"linearized_regret": linearized_regret, "residual": linearized_regret - bound}
