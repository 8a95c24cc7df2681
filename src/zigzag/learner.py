"""The ZigZag online learner, over K sign-path lanes.

Round structure (online supervised protocol): nature reveals x_t, the learner
predicts, nature reveals y_t, the learner takes a subgradient and updates.
The prediction is the negated derivative at zero of

    G_t(a) = E_{sigma in +-1} (eta/p) U(S + a x_t, M + sigma a x_t),

where S and M accumulate l'_s x_s and eps_s l'_s x_s along a realized sign
path.  The two-point expectation over sigma is always computed exactly, from
one ``mean_dirderiv`` query, the exact two-point mean of the zig-zag
derivative; where the sigma-odd terms cancel in closed form it computes only
the even part, which carries less rounding than adding the two signs'
derivatives.  Predictions are not clipped.

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
from one ``zigzag_line`` query over the lanes, which averages both sign
branches at every l' of the grid and at l' = 0; it is the per-round witness
behind the regret guarantee, and a slack below ``-CERT_TOL`` is a violation.
``run_episode(..., certify=True)`` records it every round on ``CERT_GRID``.

Nothing in the next round reads a certificate or a relaxation value, so
``run_episode`` keeps only the adversary, ``predict``, label validation,
``dloss`` and ``update`` in its round loop, where a round queries U once
(``mean_dirderiv``, the exact two-point mean, for predict).  It copies the
state those recorded queries read into buffers of ``BLOCK`` rounds and
answers each block with one ``certificate`` call (one ``zigzag_line``
query) and one ``relaxation_value`` call (one ``value_batch`` query) over
the block's leading round axis; the losses are one ``loss_batch`` after the
loop.  Every query is elementwise or reduces only trailing point or grid
axes, so a recorded value has the bits of a per-round query.

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
    "BLOCK",
]

TRACE_COLUMNS = ("t", "yhat", "y", "loss", "dloss", "eps", "rel_value", "cum_loss")
_CSV_ROW = ",".join(["%r"] * len(TRACE_COLUMNS)) + "\n"  # one trace row, each value as its repr
_SIGN_BLOCK = 256  # signs each lane draws at a time
CERT_GRID = np.linspace(-1.0, 1.0, 41)  # the l' values a certificate checks
CERT_GRID.flags.writeable = False
CERT_TOL = 1e-8  # a slack below -CERT_TOL is a violation
BLOCK = 16  # rounds whose certificates and relaxation values run_episode answers with one query each


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
        return -(self.eta / self.spec.p) * self.spec.mean_dirderiv(self.S, self.M, x)

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

    def state(self) -> tuple:
        """``(S, M, eta/p)``, the state ``certificate`` and
        ``relaxation_value`` read; eta/p is one number or one per lane."""
        return self.S, self.M, self.eta / self.spec.p

    def relaxation_value(self, state=None) -> np.ndarray:
        """(eta/p) U(S, M) for each lane: of the live state, or of a
        recorded ``state()`` stacked over leading round axes."""
        S, M, scale = self.state() if state is None else state
        return scale * self.spec.value_batch(S, M)

    def certificate(self, x, yhat, grid=CERT_GRID, state=None) -> np.ndarray:
        """Each lane's worst slack of yhat*l' + G_t(l') <= G_t(0) over a grid
        of l' in [-1, 1], as a ``(K,)`` array, from one ``zigzag_line``
        query along (S + l'x, M +- l'x); ``yhat`` broadcasts to the K
        lanes.  With a recorded ``state()`` stacked over leading round axes,
        ``x`` holds the rounds' ``(K, *point_shape)`` instances and ``yhat``
        their ``(K,)`` predictions on the same axes, and so does the
        result."""
        grid = np.asarray(grid, dtype=float)
        if state is None:
            x, state = self._instance(x), self.state()
        S, M, scale = state
        scale = np.expand_dims(scale, -1)
        # G_t / scale over the grid and, as the last column, at l' = 0
        vals = self.spec.zigzag_line(S, M, x, np.append(grid, 0.0))
        slack = scale * vals[..., -1:] - (np.asarray(yhat, dtype=float)[..., np.newaxis] * grid + scale * vals[..., :-1])
        return slack.min(axis=-1)


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
        return ",".join(TRACE_COLUMNS) + "\n" + "".join(_CSV_ROW % row for row in rows)


def run_episode(learner, loss_name: str, adversary, n: int, certify: bool = False) -> EpisodeTrace:
    """Drive one episode of the online protocol over the learner's lanes.

    ``learner`` needs ``lanes`` (K), ``predict(x)`` returning K predictions
    and ``update(x, dloss) -> eps`` taking and returning K values; a
    ``begin_round(x)`` hook (doubling tuners) and ``relaxation_value`` are
    used when present.  ``certify`` records each round's per-lane
    ``certificate(x, yhat)`` as ``cert_worst_slack``.
    ``adversary.next_x(t)`` gives one x_t for all lanes or one per lane, and
    ``adversary.next_y(t, x, yhat)`` answers the K predictions at once (a
    label that ignores them may be shared by all lanes).  The adversary owns
    its randomness, so learner and adversary draws never interact.

    The recorded queries run once per block of ``BLOCK`` rounds, on the
    ``state()`` copied before (certificate) and after (relaxation value)
    each round's update.
    """
    columns = {name: np.empty((n, learner.lanes), dtype=int if name == "eps" else float) for name in TRACE_COLUMNS[1:-1]}
    columns["rel_value"][:] = np.nan
    cert_slacks = np.empty((n, learner.lanes)) if certify else None
    relax = hasattr(learner, "relaxation_value")
    if certify or relax:
        point = (BLOCK, learner.lanes, *learner.spec.point_shape)
        before, after = ((np.empty(point), np.empty(point), np.empty(point[:2])) for _ in range(2))
        block_xs = np.empty(point)
    xs = []
    for i in range(n):
        x = adversary.next_x(i + 1)
        if hasattr(learner, "begin_round"):
            learner.begin_round(x)
        yhat = learner.predict(x)
        y = adversary.next_y(i + 1, x, yhat)
        validate_labels(loss_name, y)
        dl = dloss_batch(loss_name, yhat, y)
        j = i % BLOCK
        if certify:
            block_xs[j] = x
            for buf, value in zip(before, learner.state()):
                buf[j] = value
        eps = learner.update(x, dl)
        xs.append(np.asarray(x, dtype=float))
        for name, value in (("yhat", yhat), ("y", y), ("dloss", dl), ("eps", eps)):
            columns[name][i] = value
        if relax:
            for buf, value in zip(after, learner.state()):
                buf[j] = value
        if (certify or relax) and (j == BLOCK - 1 or i == n - 1):
            rounds, m = slice(i - j, i + 1), j + 1
            if certify:
                cert_slacks[rounds] = learner.certificate(block_xs[:m], columns["yhat"][rounds], state=tuple(buf[:m] for buf in before))
            if relax:
                columns["rel_value"][rounds] = learner.relaxation_value(tuple(buf[:m] for buf in after))
    columns["loss"][:] = loss_batch(loss_name, columns["yhat"], columns["y"])
    # a running total starts at +0.0, so a -0.0 first loss sums to +0.0; cumsum keeps it -0.0
    cum_loss = np.cumsum(columns["loss"], axis=0) + 0.0
    return EpisodeTrace(xs=xs, cert_worst_slack=cert_slacks, cum_loss=cum_loss, **columns)


def validate_labels(loss_name: str, y) -> None:
    """Raise ``ValueError`` unless the labels suit the loss: {-1, +1} for hinge
    and linear, [-1, 1] for absolute.  The message names the first bad label,
    its index and how many labels are bad."""
    labels = np.asarray(y, dtype=float).reshape(-1)
    size = np.abs(labels)
    signs = loss_name in ("hinge", "linear")
    bad = size != 1.0 if signs else ~(size <= 1.0)
    count = np.count_nonzero(bad)
    if count:
        i = int(np.argmax(bad))
        allowed = "{-1, +1}" if signs else "[-1, 1]"
        raise ValueError(f"{loss_name} loss needs labels in {allowed}, got {float(labels[i])} at index {i} ({count} of {labels.size} labels are bad)")


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
    with np.errstate(over="ignore"):  # an infinite bound gives a -inf residual, which run_experiment rejects
        bound = psi(learner.eta, spec.p, spec.beta**spec.p * spec.norm_batch(learner.M) ** spec.p)
    return {"linearized_regret": linearized_regret, "residual": linearized_regret - bound}
