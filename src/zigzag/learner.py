"""The ZigZag online learner.

Round structure (online supervised protocol): nature reveals x_t, the learner
predicts, nature reveals y_t, the learner takes a subgradient and updates.
The prediction is the negated derivative at zero of

    G_t(a) = E_{sigma in +-1} (eta/p) U(S + a x_t, M + sigma a x_t),

where S and M accumulate l'_s x_s and eps_s l'_s x_s along the single
realized sign path.  The two-point expectation over sigma is always computed
exactly, from one ``dirderiv_batch`` query that returns both signs.
Predictions are not clipped.

Admissibility certificate: zig-zag concavity of U makes G_t concave, so for
every l' in [-1, 1]

    yhat * l' + G_t(l') <= G_t(0),

deterministically per round.  ``certificate`` checks this on a grid of l'
values with one ``value_batch`` query over both sign branches and (S, M); it
is the per-round witness behind the regret guarantee.  A certified round
thus queries U three times: predict, certificate and ``relaxation_value``.

M tracks the single realized sign path.  The alternative potential that
re-averages over all sign paths each round costs 2^t evaluations and is not
implemented; for depth <= 12 the dyadic-tree enumeration in ``rademacher``
would serve as the exact oracle if that mode were ever needed.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .burkholder import BurkholderSpec
from .losses import dloss, loss
from .rng import rademacher, substream
from .tuning import psi

__all__ = [
    "ZigZagLearner",
    "CertificateReport",
    "EpisodeTrace",
    "run_episode",
    "theorem_residual",
    "TRACE_COLUMNS",
]

TRACE_COLUMNS = ("t", "yhat", "y", "loss", "dloss", "eps", "rel_value", "cum_loss")
_SIGMAS = np.array([1.0, -1.0])


@dataclass
class CertificateReport:
    worst_slack: float
    arg_worst: float
    violations: int
    grid_size: int

    @property
    def ok(self) -> bool:
        return self.violations == 0


class ZigZagLearner:
    """Online learner driven by a Burkholder function.

    State: cumulative sums ``S`` and ``M`` in the construction's space, the
    round index, the learning rate, and a private sign stream.
    """

    def __init__(self, spec: BurkholderSpec, eta: float, rng: np.random.Generator):
        if eta <= 0:
            raise ValueError(f"learning rate must be positive, got {eta}")
        self.spec = spec
        self.eta = float(eta)
        self.rng = rng
        self.S = spec.zero_point()
        self.M = spec.zero_point()
        self.t = 0

    def reset_sums(self) -> None:
        """Zero the cumulative sums (used at doubling-phase boundaries); the
        sign stream keeps running."""
        self.S = self.spec.zero_point()
        self.M = self.spec.zero_point()

    def _check_shape(self, x) -> None:
        if np.shape(x) != self.spec.point_shape:
            raise ValueError(f"instance shape {np.shape(x)} does not match the point shape {self.spec.point_shape}")

    def predict(self, x) -> float:
        self._check_shape(x)
        row = [np.asarray(v, dtype=float)[np.newaxis] for v in (self.S, self.M, x)]
        dd_plus, dd_minus = self.spec.dirderiv_batch(*row, _SIGMAS)
        return float(-(self.eta / self.spec.p) * 0.5 * (dd_plus + dd_minus))

    def update(self, x, dloss_val: float) -> int:
        """Draw a fresh sign, absorb the subgradient step, and return the
        drawn sign."""
        if abs(dloss_val) > 1.0 + 1e-12:
            raise ValueError(f"|dloss| must be <= 1, got {dloss_val}")
        self._check_shape(x)
        eps = int(rademacher(self.rng))
        step = dloss_val * np.asarray(x, dtype=float)
        self.S = self.S + step
        self.M = self.M + eps * step
        self.t += 1
        return eps

    def relaxation_value(self) -> float:
        return (self.eta / self.spec.p) * self.spec.value(self.S, self.M)

    def certificate(self, x, grid=None, tol: float = 1e-8, yhat: float | None = None) -> CertificateReport:
        """Check yhat*l' + G_t(l') <= G_t(0) over a grid of l' in [-1, 1]."""
        self._check_shape(x)
        if grid is None:
            grid = np.linspace(-1.0, 1.0, 41)
        grid = np.asarray(grid, dtype=float)
        if yhat is None:
            yhat = self.predict(x)
        scale = self.eta / self.spec.p
        xs = np.asarray(x, dtype=float)
        g = grid.size
        # rows (S + l'x, M + l'x) and (S + l'x, M - l'x) over the grid, then
        # (S, M) as the row with l' = 0
        ls = np.concatenate([grid, grid, [0.0]])
        signs = np.concatenate([np.ones(g), -np.ones(g), [1.0]])
        axes = (2 * g + 1,) + (1,) * xs.ndim
        steps = ls.reshape(axes) * xs
        vals = self.spec.value_batch(self.S + steps, self.M + signs.reshape(axes) * steps)
        g_vals = scale * 0.5 * (vals[:g] + vals[g : 2 * g])
        rhs = scale * vals[-1]
        slack = rhs - (yhat * grid + g_vals)
        worst = int(np.argmin(slack))
        return CertificateReport(
            worst_slack=float(slack[worst]),
            arg_worst=float(grid[worst]),
            violations=int(np.sum(slack < -tol)),
            grid_size=grid.size,
        )


@dataclass
class EpisodeTrace:
    """Per-round record of one episode plus the derived summary."""

    xs: list
    yhat: np.ndarray
    y: np.ndarray
    loss: np.ndarray
    dloss: np.ndarray
    eps: np.ndarray
    rel_value: np.ndarray
    cum_loss: np.ndarray
    cert_worst_slack: np.ndarray | None = None
    summary: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.yhat)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(",".join(TRACE_COLUMNS) + "\n")
        for t in range(self.n):
            row = (
                str(t + 1),
                repr(float(self.yhat[t])),
                repr(float(self.y[t])),
                repr(float(self.loss[t])),
                repr(float(self.dloss[t])),
                str(int(self.eps[t])),
                repr(float(self.rel_value[t])),
                repr(float(self.cum_loss[t])),
            )
            buf.write(",".join(row) + "\n")
        return buf.getvalue()


def run_episode(
    learner,
    loss_name: str,
    adversary,
    n: int,
    seed: int,
    cert_grid=None,
    cert_tol: float = 1e-8,
) -> EpisodeTrace:
    """Drive one episode of the online protocol.

    ``learner`` needs ``predict(x)`` and ``update(x, dloss) -> eps``; a
    ``begin_round(x)`` hook (doubling tuners) and ``relaxation_value()`` are
    used when present.  The adversary draws from its own substream so learner
    and adversary randomness never interact.
    """
    adv_rng = substream(seed, "adversary")
    xs, yhats, ys, losses, dlosses, epss, rels, cums = [], [], [], [], [], [], [], []
    cert_slacks = [] if cert_grid is not None else None
    cum = 0.0
    for t in range(1, n + 1):
        x = adversary.next_x(t, adv_rng)
        if hasattr(learner, "begin_round"):
            learner.begin_round(x)
        yhat = learner.predict(x)
        y = adversary.next_y(t, x, yhat, adv_rng)
        _validate_label(loss_name, y)
        lv = loss(loss_name, yhat, y)
        dl = dloss(loss_name, yhat, y)
        if cert_slacks is not None:
            rep = learner.certificate(x, grid=cert_grid, tol=cert_tol, yhat=yhat)
            cert_slacks.append(rep.worst_slack)
        eps = learner.update(x, dl)
        cum += lv
        xs.append(np.asarray(x, dtype=float))
        yhats.append(yhat)
        ys.append(y)
        losses.append(lv)
        dlosses.append(dl)
        epss.append(eps)
        rels.append(learner.relaxation_value() if hasattr(learner, "relaxation_value") else float("nan"))
        cums.append(cum)
    return EpisodeTrace(
        xs=xs,
        yhat=np.array(yhats),
        y=np.array(ys),
        loss=np.array(losses),
        dloss=np.array(dlosses),
        eps=np.array(epss, dtype=int),
        rel_value=np.array(rels),
        cum_loss=np.array(cums),
        cert_worst_slack=np.array(cert_slacks) if cert_slacks is not None else None,
    )


def _validate_label(loss_name: str, y: float) -> None:
    if loss_name in ("hinge", "linear"):
        if y not in (-1.0, 1.0):
            raise ValueError(f"{loss_name} loss needs labels in {{-1, +1}}, got {y}")
    elif not -1.0 <= y <= 1.0:
        raise ValueError(f"absolute loss needs labels in [-1, 1], got {y}")


def theorem_residual(trace: EpisodeTrace, spec: BurkholderSpec, eta: float) -> dict:
    """Summary of one realized path against the regret guarantee.

    Uses the linearized regret sum(yhat_t l'_t) + ||sum l'_t x_t||, which
    dominates the true regret pathwise, so the reported residual

        linearized_regret - Psi_{eta,p}(beta^p ||M_n||^p)

    upper-bounds the residual for any comparator.  Its mean over sign paths
    is guaranteed <= 0.
    """
    if trace.n == 0:
        s_norm = 0.0
        m_norm = 0.0
        lin_payoff = 0.0
    else:
        steps = np.array([d * x for d, x in zip(trace.dloss, trace.xs)])
        s_final = steps.sum(axis=0)
        m_final = (trace.eps.reshape((-1,) + (1,) * (steps.ndim - 1)) * steps).sum(axis=0)
        s_norm = spec.norm(s_final)
        m_norm = spec.norm(m_final)
        lin_payoff = float(np.dot(trace.yhat, trace.dloss))
    linearized_regret = lin_payoff + s_norm
    bound = psi(eta, spec.p, spec.beta**spec.p * m_norm**spec.p)
    return {
        "benchmark_linearized": s_norm,
        "linearized_regret": linearized_regret,
        "m_norm": m_norm,
        "residual": linearized_regret - bound,
    }
