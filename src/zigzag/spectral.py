"""Matrix prediction at desk scale: a greedy net of factor matrices, one
quadratic (Hilbert p=2) ZigZag sub-learner per net point, and multiplicative
weights aggregation with clipped predictions.

The hypothesis class is rank-r matrices with trace norm at most tau; inputs
are entry incidences X_t = e_i e_j', so every per-expert quantity reduces to
rank-one row updates of the projected sums S V and M V in R^(d x r).

Exact nets on the Frobenius sphere are exponential, so ``build_net`` grows a
greedy farthest-point net capped at ``max_size`` and reports the coverage
radius actually achieved.  Its distances are found in two steps.  Every
sphere point has squared norm tau up to rounding, so the point farthest from
the net is the one whose largest inner product with the net is least: one
matrix product per pick, and one per block of probes, ranks the points.
Only the near-ties, the points within a proven rounding band of the least,
are then measured exactly as sequential sums of squared coordinate
differences, so the net and its radius are those of the sequential squared
distances, bit for bit.  One shared sign draw per round updates every
expert.  Multiplicative-weights losses use the clipped predictions (the
aggregation needs bounded losses); sub-learner gradients are taken at the
unclipped predictions.

The certificate needs five inner products per expert v (a = <S_i, v_j>,
c = <M_i, v_j>, b = |v_j|^2, |S V|^2, |M V|^2): along its rows each norm is
a quadratic in l', and one ``(m, 3) @ (3, 41)`` product evaluates every
expert's slack over the grid.  ``sv``, ``mv`` and ``experts`` keep their
``(m, d, r)`` layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .learner import CERT_GRID, CERT_TOL
from .losses import dloss_batch, loss_batch
from .rng import rademacher, substream

__all__ = [
    "build_net",
    "NetCoverage",
    "mw_step",
    "entry_stats",
    "SpectralZigZag",
    "SpectralResult",
    "make_entry_stream",
    "trace_norm_comparator",
    "run_spectral",
]

# [1, l', l'^2] at every grid point: slack coefficients @ _POWERS = slacks
_POWERS = np.stack([np.ones_like(CERT_GRID), CERT_GRID, CERT_GRID**2])
_POWERS.flags.writeable = False


@dataclass
class NetCoverage:
    size: int
    radius_requested: float
    radius_achieved: float


def _sphere_sample(rng, count, d, r, tau):
    pts = rng.normal(size=(count, d, r))
    norms = np.sqrt(np.sum(pts**2, axis=(1, 2)))
    norms = np.where(norms == 0.0, 1.0, norms)
    return pts * (math.sqrt(tau) / norms)[:, np.newaxis, np.newaxis]


def build_net(
    d: int,
    r: int,
    tau: float,
    net_alpha: float,
    seed: int,
    max_size: int,
    probe_count: int = 10_000,
) -> tuple[np.ndarray, NetCoverage]:
    """Greedy farthest-point net on the Frobenius sphere of radius sqrt(tau).

    Stops when either a pool of min(8000, max(1000, 10 max_size)) sphere
    points is covered to ``net_alpha`` or ``max_size`` points have been
    placed; the probe-estimated coverage radius is reported either way (an
    under-sized net is reported, not fatal).  The module docstring says how
    the distances are found.
    """
    if not 0 < tau < math.inf:
        raise ValueError(f"tau must be positive and finite, got {tau}")
    if max_size < 1 or probe_count < 1:
        raise ValueError(f"max_size and probe_count must be at least 1, got {max_size} and {probe_count}")
    rng = substream(seed, "net")
    pool = _sphere_sample(rng, min(8000, max(1000, 10 * max_size)), d, r, tau).reshape(-1, d * r)
    cols = pool.T.copy()  # one contiguous row per coordinate: the faster product per pick
    band, norm_lo = _tie_band(pool)
    net = [0]
    maxdot = pool[0] @ cols  # each pool point's largest inner product with the net
    dots, near = np.empty_like(maxdot), np.empty(maxdot.shape, dtype=bool)
    while len(net) < max_size:
        pick = int(np.argmin(maxdot))
        np.less_equal(maxdot, maxdot[pick] + band, out=near)
        # a lone candidate is the farthest point, and its squared distance of
        # at least 2 (norm_lo - maxdot - band) may clear net_alpha^2 with room
        lone = np.count_nonzero(near) == 1 and 2.0 * (norm_lo - maxdot[pick] - 2.0 * band) > net_alpha**2
        if not lone:
            near_idx = np.flatnonzero(near)
            # argmax over square-rooted distances: sqrt can map two squares to one value
            dists = np.sqrt(_min_sq_distances(pool[near_idx], pool[net]))
            if not dists.max() > net_alpha:
                break
            pick = int(near_idx[np.argmax(dists)])
        net.append(pick)
        np.maximum(maxdot, np.matmul(pool[pick], cols, out=dots), out=maxdot)
    points = pool[net]
    del pool, cols, maxdot, dots, near  # the probes are drawn without the pool alive

    probes = _sphere_sample(rng, probe_count, d, r, tau).reshape(probe_count, -1)
    band, _ = _tie_band(points, probes)
    rows = max(1, 2**17 // len(net))  # a probe block's products stay within 1 MB
    block, maxdot = np.empty((rows, len(net))), np.empty(probe_count)
    for start in range(0, probe_count, rows):
        blk = probes[start : start + rows]
        np.max(np.matmul(blk, points.T, out=block[: len(blk)]), axis=1, out=maxdot[start : start + rows])
    far = np.flatnonzero(maxdot <= maxdot.min() + band)
    # sqrt is monotone, so one sqrt of the largest square gives the radius
    coverage = NetCoverage(
        size=len(net),
        radius_requested=net_alpha,
        radius_achieved=float(np.sqrt(_min_sq_distances(probes[far], points).max())),
    )
    return points.reshape(-1, d, r), coverage


def _tie_band(*point_sets: np.ndarray) -> tuple[float, float]:
    """The half-width of the near-tie band, in inner-product units, and the
    least squared norm of the flat points.

    Let the computed squared norms lie in [lo, hi] and u = eps / 2; the
    exact ones lie within dim u hi of that range.  For any c in it,
    |p - q|^2 is within 2 (hi - lo) + 4 dim u hi of 2 c - 2 <p, q>.  The
    sequential sum of squared differences is within 4 (dim + 2) u hi of
    |p - q|^2, and a float inner product within dim u hi of <p, q>.  So a
    point whose squared distance to the net is the largest, or whose square
    root equals the largest one (squares 5 u apart, at most 4 hi), has a
    largest inner product with the net within 2 (hi - lo) + (10 dim + 18) u hi
    of the least one.  The band widens the second term to 16 (dim + 2) u hi,
    which also covers the rounding of the band and of the comparisons.
    """
    norms = np.concatenate([np.einsum("ij,ij->i", pts, pts) for pts in point_sets])
    lo, hi = float(norms.min()), float(norms.max())
    dim = point_sets[0].shape[1]
    return 2.0 * (hi - lo) + 8.0 * (dim + 2) * np.finfo(float).eps * hi, lo


def _min_sq_distances(points: np.ndarray, net: np.ndarray) -> np.ndarray:
    """Each flat point's least squared Frobenius distance to the flat net
    points; the d*r squared differences add in sequence (``np.add.accumulate``
    along the coordinates), in chunks of at most 2**17 differences."""
    out = np.empty(points.shape[0])
    rows = max(1, 2**17 // net.size)
    for start in range(0, points.shape[0], rows):
        sq = np.square(np.subtract(points[start : start + rows, np.newaxis, :], net))
        np.add.accumulate(sq, axis=2, out=sq)
        np.min(sq[:, :, -1], axis=1, out=out[start : start + rows])
    return out


def mw_step(log_weights: np.ndarray, loss_vec: np.ndarray, gamma: float) -> np.ndarray:
    """One multiplicative-weights update in log space; returns new log
    weights normalized so the weights sum to one."""
    lw = np.asarray(log_weights, dtype=float) - gamma * np.asarray(loss_vec, dtype=float)
    lw = lw - lw.max()
    return lw - math.log(np.exp(lw).sum())


def entry_stats(entries) -> tuple[int, int]:
    """Max visit counts over rows and over columns of (i, j) entries."""
    ij = np.asarray(entries, dtype=int).reshape(-1, 2)
    return int(np.bincount(ij[:, 0], minlength=1).max()), int(np.bincount(ij[:, 1], minlength=1).max())


class SpectralZigZag:
    """Aggregated entry predictor.

    Per round t with entry (i, j) and label y:

    1. every expert v predicts f_v = -eta tau^2 (1-alpha)^(-1) <S V_v, X V_v>
       (the sigma-averaged derivative of its quadratic potential),
    2. an expert is sampled from the multiplicative weights and its clipped
       prediction is played,
    3. all experts incur the clipped loss for the weight update and absorb
       their own subgradient step with one shared fresh sign.
    """

    def __init__(
        self,
        d: int,
        r: int,
        tau: float,
        horizon: int,
        *,
        loss_name: str,
        max_net: int,
        seed: int = 0,
        eta: float | None = None,
    ):
        if horizon < 1 or not tau > 0:
            raise ValueError(f"horizon must be at least 1 and tau positive, got horizon={horizon}, tau={tau}")
        self.d = d
        self.r = r
        self.tau = float(tau)
        self.horizon = horizon
        self.loss_name = loss_name
        self.net_alpha = 1.0 / (horizon * tau)
        self.experts, self.coverage = build_net(d, r, tau, self.net_alpha, seed, max_net)
        self.m = self.experts.shape[0]
        self.gamma = math.sqrt(math.log(self.m) / horizon)
        self.eta = 1.0 / (tau * math.sqrt(horizon)) if eta is None else float(eta)
        self.coef = self.eta * tau**2 / 2.0 / (1.0 - self.net_alpha)
        self.sv = np.zeros((self.m, d, r))
        self.mv = np.zeros((self.m, d, r))
        self.log_weights = np.full(self.m, -math.log(self.m))
        self.cum_mw_loss = np.zeros(self.m)
        self._choice_rng = substream(seed, "mw-choice")
        self._sign_rng = substream(seed, "signs")
        self._poly = np.empty((self.m, 3))  # certificate scratch: slack coefficients
        self._slack = np.empty((self.m, CERT_GRID.size))  # and the slacks over the grid
        self.t = 0

    @property
    def weights(self) -> np.ndarray:
        return np.exp(self.log_weights)

    def predict_all(self, i: int, j: int) -> np.ndarray:
        inner = np.einsum("vk,vk->v", self.sv[:, i, :], self.experts[:, j, :])
        return -2.0 * self.coef * inner

    def certificate(self, i: int, j: int, f: np.ndarray) -> tuple[float, int]:
        """Worst admissibility slack of the experts' predictions ``f`` over
        experts and the 41-point grid of l' values in [-1, 1], evaluated at
        the current state.  Returns (worst_slack, violations)."""
        coef = self.coef
        vj = self.experts[:, j, :]
        a = np.einsum("vk,vk->v", self.sv[:, i, :], vj)  # <S_i, v_j>
        c = np.einsum("vk,vk->v", self.mv[:, i, :], vj)  # <M_i, v_j>
        b = np.einsum("vk,vk->v", vj, vj)  # |v_j|^2
        s2 = np.einsum("vdk,vdk->v", self.sv, self.sv)  # |S V|^2
        m2 = np.einsum("vdk,vdk->v", self.mv, self.mv)  # |M V|^2
        # slack(l') = coef (|S|^2 - |M|^2) - f l' - coef (|S + x|^2 - (|M + x|^2 + |M - x|^2) / 2)
        # for x = l' e_i v_j', where |S + x|^2 = |S|^2 + 2 l' a + l'^2 b and
        # |M +- x|^2 = |M|^2 +- 2 l' c + l'^2 b: a quadratic in l' per expert.
        # Its constant, the c terms and its l'^2 term cancel (zig-zag concavity
        # of this potential is an equality); they are computed, not assumed.
        poly = self._poly
        poly[:, 0] = coef * (s2 - m2) - coef * (s2 - 0.5 * (m2 + m2))
        poly[:, 1] = -f - coef * (2.0 * a - 0.5 * (2.0 * c - 2.0 * c))
        poly[:, 2] = -coef * (b - 0.5 * (b + b))
        slack = np.matmul(poly, _POWERS, out=self._slack)
        return float(slack.min()), int(np.count_nonzero(slack < -CERT_TOL))

    def round(self, i: int, j: int, y: float, f: np.ndarray) -> dict:
        clipped = np.clip(f, -1.0, 1.0)
        q = self.weights
        v = int(self._choice_rng.choice(self.m, p=q / q.sum()))
        yhat = float(clipped[v])
        mw_losses = loss_batch(self.loss_name, clipped, y)
        grads = dloss_batch(self.loss_name, f, y)
        eps = int(rademacher(self._sign_rng))
        self.log_weights = mw_step(self.log_weights, mw_losses, self.gamma)
        self.cum_mw_loss += mw_losses
        step = grads[:, np.newaxis] * self.experts[:, j, :]
        self.sv[:, i, :] += step
        self.mv[:, i, :] += eps * step
        self.t += 1
        return {
            "yhat": yhat,
            "expert": v,
            "eps": eps,
            "loss": float(mw_losses[v]),
            "weight_sum": float(q.sum()),
        }


def make_entry_stream(kind: str, d: int, n: int, r: int, seed: int, entries=None):
    """Entry/label stream generators.

    - uniform: entries uniform over the grid, labels from the sign of a
      planted random rank-r matrix
    - row-spiky: all entries in row 0 (worst-case row counts)
    - explicit: caller-provided (i, j, y) triples
    """
    if kind == "explicit":
        if entries is None:
            raise ValueError("explicit stream needs entries")
        bad = next((e for e in entries if any(isinstance(v, (bool, np.bool_)) or not float(v).is_integer() for v in e[:2])), None)
        if bad is not None:
            raise ValueError(f"explicit entry {bad!r} has an index that is not a whole number")
        stream = [(int(i), int(j), float(y)) for i, j, y in entries]
        if not all(0 <= i < d and 0 <= j < d for i, j, _ in stream):
            raise ValueError(f"explicit entries must index a {d} x {d} matrix")
        return stream
    rng = substream(seed, "entry-stream", kind)
    u = rng.normal(size=(d, r))
    v = rng.normal(size=(d, r))
    planted = u @ v.T
    # a batch draw gives the values of drawing i, j, i, j, ... one at a time
    if kind == "uniform":
        ij = rng.integers(0, d, size=(n, 2))
    elif kind == "row-spiky":
        ij = np.stack([np.zeros(n, dtype=int), rng.integers(0, d, size=n)], axis=1)
    else:
        raise ValueError(f"unknown stream kind {kind!r}")
    ys = np.where(planted[ij[:, 0], ij[:, 1]] >= 0.0, 1.0, -1.0)
    return [(i, j, y) for (i, j), y in zip(ij.tolist(), ys.tolist())]


def _project_trace_ball(f: np.ndarray, tau: float, r: int) -> np.ndarray:
    u, s, vt = np.linalg.svd(f, full_matrices=False)
    s = np.maximum(s, 0.0)
    s[r:] = 0.0
    if s.sum() > tau:
        # project the kept singular values onto the simplex of radius tau
        top = s[:r]
        srt = np.sort(top)[::-1]
        css = np.cumsum(srt) - tau
        idx = np.arange(1, len(srt) + 1)
        cond = srt - css / idx > 0
        rho = idx[cond][-1]
        theta = css[rho - 1] / rho
        s[:r] = np.maximum(top - theta, 0.0)
    return (u * s) @ vt


def trace_norm_comparator(
    stream,
    d: int,
    r: int,
    tau: float,
    loss_name: str,
    iters: int = 400,
) -> tuple[float, np.ndarray]:
    """Best rank-r trace-norm-bounded matrix for the realized stream, found
    by projected subgradient descent with step 0.5/sqrt(k); returns (best
    cumulative loss, F)."""
    entries = np.array([(i, j) for i, j, _ in stream], dtype=int)
    ys = np.array([y for _, _, y in stream])
    f = np.zeros((d, d))
    best_loss, best_f = float("inf"), f
    for k in range(iters + 1):
        preds = f[entries[:, 0], entries[:, 1]]
        total = float(loss_batch(loss_name, preds, ys).sum())
        if total < best_loss:
            best_loss, best_f = total, f
        if k == iters:
            break
        g = np.zeros((d, d))
        np.add.at(g, (entries[:, 0], entries[:, 1]), dloss_batch(loss_name, preds, ys))
        # every step makes a new f, so best_f is never written through
        f = _project_trace_ball(f - (0.5 / math.sqrt(k + 1)) * g, tau, r)
    return best_loss, best_f


@dataclass
class SpectralResult:
    learner_loss: float
    best_expert_loss: float
    comparator_loss: float
    regret: float
    n_row: int
    n_col: int
    rate_ratio: float
    regret_rate_mid: float
    regret_rate_end: float
    coverage: NetCoverage
    cert_worst_slack: float
    cert_violations: int
    weight_drift: float
    rows: list = field(default_factory=list)


def run_spectral(
    d: int,
    r: int,
    tau: float,
    n: int,
    *,
    stream_kind: str,
    loss_name: str,
    max_net: int,
    seed: int = 0,
    eta: float | None = None,
    entries=None,
) -> SpectralResult:
    """Full desk-scale run: stream, aggregation, certificates, comparators,
    and the rate ratio regret / (sqrt(r) d sqrt(max(N_row, N_col)))."""
    stream = make_entry_stream(stream_kind, d, n, r, seed, entries=entries)
    alg = SpectralZigZag(d, r, tau, horizon=len(stream), loss_name=loss_name, seed=seed, max_net=max_net, eta=eta)
    total = 0.0
    worst_slack = float("inf")
    violations = 0
    weight_drift = 0.0
    rows = []
    for t, (i, j, y) in enumerate(stream, start=1):
        f = alg.predict_all(i, j)
        slack, viol = alg.certificate(i, j, f)
        worst_slack = min(worst_slack, slack)
        violations += viol
        rec = alg.round(i, j, y, f)
        weight_drift = max(weight_drift, abs(rec["weight_sum"] - 1.0))
        total += rec["loss"]
        rows.append((t, i, j, rec["yhat"], y, rec["loss"], rec["expert"]))
    best_expert = float(alg.cum_mw_loss.min())
    comparator_loss, comparator_f = trace_norm_comparator(stream, d, r, tau, loss_name)
    comparator = min(comparator_loss, best_expert)
    regret = total - comparator
    ij = np.array([(i, j) for i, j, _ in stream], dtype=int)
    n_row, n_col = entry_stats(ij)
    denom = math.sqrt(r) * d * math.sqrt(max(n_row, n_col, 1))

    # average regret rate against the final comparator matrix at the halfway
    # point and at the end (the sublinearity witness)
    comp_losses = loss_batch(loss_name, comparator_f[ij[:, 0], ij[:, 1]], np.array([y for *_, y in stream]))
    learner_losses = np.array([row[5] for row in rows])
    cum_regret = np.cumsum(learner_losses - comp_losses)
    half = max(1, len(stream) // 2)
    rate_mid = float(cum_regret[half - 1] / half)
    rate_end = float(cum_regret[-1] / len(stream))

    return SpectralResult(
        learner_loss=total,
        best_expert_loss=best_expert,
        comparator_loss=comparator_loss,
        regret=regret,
        n_row=n_row,
        n_col=n_col,
        rate_ratio=regret / denom,
        regret_rate_mid=rate_mid,
        regret_rate_end=rate_end,
        coverage=alg.coverage,
        cert_worst_slack=worst_slack,
        cert_violations=violations,
        weight_drift=weight_drift,
        rows=rows,
    )
