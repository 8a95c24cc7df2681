"""Experiment orchestration: adversaries, the adaptive gradient baseline,
offline comparators, a brute-force minimax oracle for tiny games, and the
config-driven runner with fixed CSV/JSON output schemas.

All adversaries draw instances of the construction's point shape and rescale
them onto the unit ball of the configured norm, so streams always satisfy the
protocol's boundedness contract; an optional ``normalize=False`` escape hatch
exercises scale-free behavior.  Experiment cells run seed by seed, in seed
order.
"""

from __future__ import annotations

import dataclasses
import json
import math
import pathlib

import numpy as np

from .burkholder import make_spec
from .learner import ZigZagLearner, run_episode, theorem_residual
from .linalg import GramTag, LpTag, NormTag, dual_ball_lmo
from .losses import dloss_batch, loss_batch
from .rademacher import rad_estimate, rad_exact
from .rng import substream
from .spectral import run_spectral
from .tuning import DoublingZigZag

__all__ = [
    "IIDGaussianX",
    "IIDRademacherCoordsX",
    "FixedStream",
    "LowRankStream",
    "SignFlip",
    "make_adversary",
    "AdaptiveGD",
    "offline_comparator",
    "brute_force_minimax",
    "rad_exact_scalar",
    "run_experiment",
    "write_outputs",
    "merge_reports",
    "SUMMARY_KEYS",
]

SUMMARY_KEYS = (
    "config",
    "regret",
    "benchmark_linearized",
    "comparator_fw",
    "rad_mean",
    "rad_se",
    "residual_mean",
    "residual_se",
    "phases",
)


# ---------------------------------------------------------------------------
# adversaries


def _unit(x, tag: NormTag, normalize: bool):
    if not normalize:
        return x
    n = tag.norm(x)
    return x / n if n > 0 else x


class IIDGaussianX:
    """Gaussian instances of the given shape scaled onto the unit sphere of
    the configured norm; labels are fresh uniform signs."""

    def __init__(self, shape, tag: NormTag, normalize: bool = True):
        self.shape = shape
        self.tag = tag
        self.normalize = normalize

    def next_x(self, t, rng):
        return _unit(rng.normal(size=self.shape), self.tag, self.normalize)

    def next_y(self, t, x, yhat, rng):
        return float(rng.choice([-1.0, 1.0]))


class IIDRademacherCoordsX(IIDGaussianX):
    """Sign-vector instances scaled onto the unit sphere of the norm."""

    def next_x(self, t, rng):
        x = (rng.integers(0, 2, size=self.shape) * 2 - 1).astype(float)
        return _unit(x, self.tag, self.normalize)


class LowRankStream(IIDGaussianX):
    """Instances drawn from a fixed random subspace of the given rank; the
    shape is a tuple."""

    def __init__(self, shape: tuple, rank: int, tag: NormTag, seed: int, normalize: bool = True):
        super().__init__(shape, tag, normalize)
        self.basis = substream(seed, "low-rank-basis").normal(size=(*shape, rank))

    def next_x(self, t, rng):
        x = self.basis @ rng.normal(size=self.basis.shape[-1])
        return _unit(x, self.tag, self.normalize)


class FixedStream:
    """Replay explicit arrays of instances and labels."""

    def __init__(self, xs, ys):
        self.xs = [np.asarray(x, dtype=float) for x in xs]
        self.ys = [float(y) for y in ys]
        if len(self.xs) != len(self.ys):
            raise ValueError("xs and ys must have equal length")

    def next_x(self, t, rng):
        return self.xs[t - 1]

    def next_y(self, t, x, yhat, rng):
        return self.ys[t - 1]


class SignFlip:
    """Label adversary y_t = -sign(yhat_t) with ties resolved to +1,
    wrapping any instance source."""

    def __init__(self, base):
        self.base = base

    def next_x(self, t, rng):
        return self.base.next_x(t, rng)

    def next_y(self, t, x, yhat, rng):
        return 1.0 if yhat == 0.0 else -float(np.sign(yhat))


def make_adversary(cfg: dict, shape: tuple, tag: NormTag, seed: int):
    """The adversary a config names, drawing instances of ``shape``."""
    kind = cfg["kind"]
    normalize = bool(cfg.get("normalize", True))
    if kind == "iid-gaussian":
        return IIDGaussianX(shape, tag, normalize)
    if kind == "iid-rademacher-coords":
        return IIDRademacherCoordsX(shape, tag, normalize)
    if kind == "sign-flip":
        base_kind = cfg.get("base", "iid-gaussian")
        base = make_adversary({"kind": base_kind, "normalize": normalize}, shape, tag, seed)
        return SignFlip(base)
    if kind == "low-rank-stream":
        return LowRankStream(shape, int(cfg["rank"]), tag, seed, normalize)
    if kind == "fixed-file":
        if "path" in cfg:
            data = json.loads(pathlib.Path(cfg["path"]).read_text())
            return FixedStream(data["xs"], data["ys"])
        return FixedStream(cfg["xs"], cfg["ys"])
    raise ValueError(f"unknown adversary kind {kind!r}")


# ---------------------------------------------------------------------------
# baselines and comparators


class AdaptiveGD:
    """Online projected gradient descent on the Euclidean unit ball with the
    adaptive step D / sqrt(sum of squared gradient norms), D = diameter 2."""

    def __init__(self, d: int):
        self.w = np.zeros(d)
        self.grad_sq = 0.0

    def predict(self, x) -> float:
        return float(self.w @ np.asarray(x, dtype=float))

    def update(self, x, dloss_val: float) -> int:
        g = dloss_val * np.asarray(x, dtype=float)
        self.grad_sq += float(g @ g)
        if self.grad_sq > 0.0:
            self.w = self.w - (2.0 / math.sqrt(self.grad_sq)) * g
            nrm = float(np.linalg.norm(self.w))
            if nrm > 1.0:
                self.w = self.w / nrm
        return 0


def _margins(w, xs_matrix, tag):
    if isinstance(tag, GramTag):
        return xs_matrix @ (tag.a @ w)
    return xs_matrix @ w


def _pairing(g, v, tag):
    if isinstance(tag, GramTag):
        return float(g @ tag.a @ v)
    return float(g @ v)


def offline_comparator(xs, ys, tag: NormTag, loss_name: str, iters: int = 500) -> dict:
    """Frank-Wolfe over the dual-norm unit ball for the best-in-class
    cumulative loss inf_w sum_t loss(<w, x_t>, y_t).

    Returns the best loss seen, the iterate, and the final duality gap.  An
    empty stream yields zero.
    """
    xs = [np.atleast_1d(np.asarray(x, dtype=float)) for x in xs]
    if not xs:
        return {"best_loss": 0.0, "w": None, "gap": 0.0}
    x_mat = np.stack(xs)
    ys = np.asarray(ys, dtype=float)
    w = np.zeros(x_mat.shape[1])
    best_loss = float(loss_batch(loss_name, _margins(w, x_mat, tag), ys).sum())
    best_w = w.copy()
    gap = float("inf")
    for k in range(iters):
        margins = _margins(w, x_mat, tag)
        total = float(loss_batch(loss_name, margins, ys).sum())
        if total < best_loss:
            best_loss = total
            best_w = w.copy()
        grads = dloss_batch(loss_name, margins, ys)
        g = grads @ x_mat
        s = dual_ball_lmo(g, tag)
        gap = _pairing(g, w - s, tag)
        step = 2.0 / (k + 2.0)
        w = (1.0 - step) * w + step * s
    total = float(loss_batch(loss_name, _margins(w, x_mat, tag), ys).sum())
    if total < best_loss:
        best_loss = total
        best_w = w.copy()
    return {"best_loss": best_loss, "w": best_w, "gap": gap}


def rad_exact_scalar(xs) -> float:
    """Exact E|sum eps_t x_t| for a scalar sequence."""
    return rad_exact(np.asarray(xs, dtype=float).reshape(-1, 1), LpTag(2.0))


def brute_force_minimax(xs, loss_name: str, grid_size: int = 41) -> float:
    """Exact minimax regret of the fixed-sequence game by backward induction.

    The learner picks yhat from a grid on [-1, 1], the adversary answers with
    y in {-1, +1}, and the terminal comparator inf over |w| <= 1 of the
    cumulative loss has a closed form because |x_t| <= 1 makes hinge and
    absolute losses linear in w y over the reachable range.  The induction
    runs over arrays of all 2^t label paths per level: O(grid_size * 2^n).
    """
    xs = [float(x) for x in xs]
    n = len(xs)
    if n > 4:
        raise ValueError("backward induction limited to n <= 4 rounds")
    if any(abs(x) > 1.0 + 1e-12 for x in xs):
        raise ValueError("instances must lie in [-1, 1]")
    if loss_name not in ("hinge", "absolute", "linear"):
        raise ValueError(f"unsupported loss {loss_name!r}")
    grid = np.linspace(-1.0, 1.0, grid_size)
    offset = float(n) if loss_name in ("hinge", "absolute") else 0.0
    labels = np.array([-1.0, 1.0])
    # sum_t x_t y_t of the 2^n label paths; path i has children 2i and 2i+1
    corr = np.zeros(1)
    for x in xs:
        corr = (corr[:, np.newaxis] + x * labels).reshape(-1)
    # -inf_w sum loss = |sum x_t y_t| - n for hinge/absolute, |.| for linear
    value = np.abs(corr) - offset
    loss_minus = loss_batch(loss_name, grid, -1.0)
    loss_plus = loss_batch(loss_name, grid, 1.0)
    for _ in range(n):
        children = value.reshape(-1, 2)
        worst = np.maximum(loss_minus + children[:, :1], loss_plus + children[:, 1:])
        value = worst.min(axis=1)
    return float(value[0])


# ---------------------------------------------------------------------------
# config-driven experiments


def _build_learner(config: dict, spec, seed: int):
    algorithm = config["algorithm"]
    if algorithm == "zigzag":
        eta = config.get("eta") or 1.0
        return ZigZagLearner(spec, eta, substream(seed, "learner"))
    if algorithm == "zigzag-doubling-realized":
        return DoublingZigZag(spec, "realized", seed, eta0=config.get("eta0"))
    if algorithm == "zigzag-doubling-expected":
        return DoublingZigZag(spec, "expected", seed, eta0=config.get("eta0"), mc_paths=int(config.get("mc_paths", 500)))
    if algorithm == "adaptive-gd":
        return AdaptiveGD(config["d"])
    raise ValueError(f"unknown algorithm {config['algorithm']!r}")


def _run_cell(config: dict, seed: int) -> dict:
    spec = make_spec(config["spec"]) if config.get("spec") else None
    loss_name = config.get("loss", "hinge")
    n = int(config["n"])
    if config["algorithm"] == "adaptive-gd":
        tag, shape = LpTag(2.0), (int(config["d"]),)
    else:
        tag, shape = spec.tag, spec.point_shape
        if spec.p <= 1 or len(shape) > 1:
            raise ValueError(
                f"construction {spec.construction!r} cannot run: psi and the doubling schedule need p > 1 (p = {spec.p}) "
                f"and the Frank-Wolfe comparator needs vector points (shape {shape})"
            )
    adversary = make_adversary(config["adversary"], shape, tag, seed)
    learner = _build_learner(config, spec, seed)
    if config.get("certify") and not hasattr(learner, "certificate"):
        raise ValueError(f"algorithm {config['algorithm']!r} has no certificate; it cannot run with certify: true")
    cert_grid = np.linspace(-1, 1, 41) if config.get("certify") else None
    trace = run_episode(learner, loss_name, adversary, n, seed, cert_grid=cert_grid)

    # the comparator class and the Rademacher estimate live in R^d, so scalar
    # instances enter them as 1-vectors
    xs = [np.atleast_1d(x) for x in trace.xs]
    fw = offline_comparator(xs, trace.y, tag, loss_name, iters=int(config.get("fw_iters", 500)))
    total_loss = float(trace.cum_loss[-1]) if trace.n else 0.0
    increments = np.array([d_ * x for d_, x in zip(trace.dloss, xs)]) if trace.n else np.zeros((0, *shape))
    rad_mean, rad_se = rad_estimate(increments, tag, int(config.get("rad_samples", 1000)), seed=seed)
    summary = {
        "seed": seed,
        "regret": total_loss - fw["best_loss"],
        "total_loss": total_loss,
        "comparator_fw": fw["best_loss"],
        "fw_gap": fw["gap"],
        "rad_mean": rad_mean,
        "rad_se": rad_se,
        "phases": [dataclasses.asdict(rec) for rec in learner.finish()] if hasattr(learner, "finish") else [],
        # tag.norm(sum_t l'_t x_t), the same value as theorem_residual's
        # benchmark_linearized
        "benchmark_linearized": float(tag.norm(increments.sum(axis=0))),
        "residual": theorem_residual(trace, spec, learner.eta)["residual"] if isinstance(learner, ZigZagLearner) else None,
        "cert_worst_slack": float(trace.cert_worst_slack.min()) if trace.cert_worst_slack is not None and trace.n else None,
        # companion to the no-normalize escape hatch: scale-free runs report
        # how large the instances actually got
        "max_x_norm": float(max((tag.norm(x) for x in xs), default=0.0)),
    }
    trace.summary = summary
    return {**summary, "trace_csv": trace.to_csv()}


def _spectral_cell(config: dict, seed: int) -> dict:
    c = run_spectral(
        d=int(config["d"]),
        r=int(config["r"]),
        tau=float(config["tau"]),
        n=int(config["n"]),
        stream_kind=config.get("entry_distribution", "uniform"),
        loss_name=config.get("loss", "hinge"),
        seed=seed,
        max_net=int(config.get("net_size", 500)),
        eta=config.get("eta"),
    )
    return {
        "seed": seed,
        "regret": c.regret,
        "total_loss": c.learner_loss,
        "comparator_fw": c.comparator_loss,
        "fw_gap": None,
        "rad_mean": None,
        "rad_se": None,
        "phases": [],
        "benchmark_linearized": None,
        "residual": None,
        "cert_worst_slack": c.cert_worst_slack,
        "max_x_norm": None,
        # spectral-specific detail goes to a sidecar file so summary.json
        # keeps the fixed key set
        "spectral": {
            "seed": seed,
            "learner_loss": c.learner_loss,
            "best_expert_loss": c.best_expert_loss,
            "n_row": c.n_row,
            "n_col": c.n_col,
            "rate_ratio": c.rate_ratio,
            "regret_rate_mid": c.regret_rate_mid,
            "regret_rate_end": c.regret_rate_end,
            "net_size": c.coverage.size,
            "net_radius_achieved": c.coverage.radius_achieved,
            "cert_worst_slack": c.cert_worst_slack,
            "cert_violations": c.cert_violations,
        },
    }


def run_experiment(config: dict) -> dict:
    """Run every seed cell of a config, in seed order, and assemble the
    fixed-schema summary.  Spectral configs run seed 0 unless they list
    seeds."""
    spectral = config.get("algorithm") == "spectral"
    run_cell = _spectral_cell if spectral else _run_cell
    cells = [run_cell(config, seed) for seed in config.get("seeds", [0] if spectral else [])]
    residuals = [c["residual"] for c in cells if c["residual"] is not None]
    summary = {
        "config": config,
        "regret": [c["regret"] for c in cells],
        "benchmark_linearized": [c["benchmark_linearized"] for c in cells],
        "comparator_fw": [c["comparator_fw"] for c in cells],
        "rad_mean": [c["rad_mean"] for c in cells],
        "rad_se": [c["rad_se"] for c in cells],
        "residual_mean": float(np.mean(residuals)) if residuals else None,
        "residual_se": float(np.std(residuals, ddof=1) / math.sqrt(len(residuals))) if len(residuals) > 1 else None,
        "phases": [c["phases"] for c in cells],
    }
    summary["_cells"] = cells  # traces and sidecar detail for writers; stripped from summary.json
    return summary


def write_outputs(summary: dict, out_dir) -> list[str]:
    """Write per-seed trace CSVs, the spectral.json sidecar of spectral cells
    and the fixed-schema summary.json; returns the written paths."""
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    cells = summary.get("_cells", [])
    for cell in cells:
        if "trace_csv" in cell:
            path = out / f"episode_seed{cell['seed']}.csv"
            path.write_text(cell["trace_csv"])
            written.append(str(path))
    spectral = [cell["spectral"] for cell in cells if "spectral" in cell]
    if spectral:
        path = out / "spectral.json"
        path.write_text(json.dumps(spectral, indent=2, sort_keys=True))
        written.append(str(path))
    clean = {k: summary[k] for k in summary if not k.startswith("_")}
    path = out / "summary.json"
    path.write_text(json.dumps(clean, indent=2, sort_keys=True))
    written.append(str(path))
    return written


def merge_reports(directory) -> dict:
    """Scan a directory tree for summary.json files and digest them,
    including the headline regret / Rademacher-estimate ratio and, for
    doubling runs, the empirical regret / (beta^2 log^2 n * estimate) rate
    ratio."""
    root = pathlib.Path(directory)
    digests = []
    for path in sorted(root.rglob("summary.json")):
        data = json.loads(path.read_text())
        config = data.get("config", {})
        ratios = []
        for reg, rad in zip(data.get("regret", []), data.get("rad_mean", [])):
            if rad:
                ratios.append(reg / rad)
        digest = {
            "path": str(path),
            "algorithm": config.get("algorithm"),
            "regret": data.get("regret"),
            "rad_mean": data.get("rad_mean"),
            "regret_to_rad_ratio": ratios,
            "residual_mean": data.get("residual_mean"),
        }
        if any(data.get("phases", [])) and config.get("spec") and config.get("n"):
            beta = make_spec(config["spec"]).beta
            scale = beta**2 * math.log(max(int(config["n"]), 2)) ** 2
            digest["doubling_rate_ratio"] = [r / scale for r in ratios]
        digests.append(digest)
    return {"runs": digests}
