"""Experiment orchestration: adversaries, the adaptive gradient baseline,
offline comparators, a brute-force minimax oracle for tiny games, and the
config-driven runner with fixed CSV/JSON output schemas.

All adversaries draw instances of the construction's point shape and rescale
them onto the unit ball of the configured norm, so streams always satisfy the
protocol's boundedness contract; an optional ``normalize=False`` escape hatch
exercises scale-free behavior.  The seeds of a config are lanes: one learner
and one adversary serve every seed, each seed drawing from its own adversary
stream, and one batched Frank-Wolfe loop solves every seed's comparator.
In doubling configs each lane keeps its own phase schedule.  A config that
cannot run (a missing or unknown key, a spec that cannot be built, a bad number,
size, rank or seed list, a fixed-file stream too short for n rounds) raises
``ConfigError`` before any adversary or learner is built.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import pathlib

import numpy as np

from .burkholder import make_spec
from .learner import CERT_GRID, ZigZagLearner, lane_instances, run_episode, theorem_residual, validate_labels
from .linalg import LpTag, NormTag, dual_ball_lmo
from .losses import LOSSES, dloss_batch, loss_batch
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
    "ConfigError",
    "write_outputs",
    "merge_reports",
    "SUMMARY_KEYS",
]

ALGORITHMS = ("zigzag", "zigzag-doubling-realized", "zigzag-doubling-expected", "adaptive-gd", "spectral")
ADVERSARY_KINDS = ("iid-gaussian", "iid-rademacher-coords", "sign-flip", "low-rank-stream", "fixed-file")
ENTRY_DISTRIBUTIONS = ("uniform", "row-spiky")
CONFIG_KEYS = ("algorithm", "spec", "loss", "adversary", "n", "seeds", "eta", "eta0", "certify", "fw_iters",
               "rad_samples", "mc_paths", "d", "r", "tau", "net_size", "entry_distribution", "out_dir")
ADVERSARY_KEYS = ("kind", "base", "normalize", "rank", "path", "xs", "ys")

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


class ConfigError(ValueError):
    """A config that ``run_experiment`` rejects before building any adversary
    or learner: an unknown algorithm, adversary kind or loss, or a
    combination that cannot run."""


# ---------------------------------------------------------------------------
# adversaries


class IIDGaussianX:
    """Gaussian instances of the given shape scaled onto the unit sphere of
    the configured norm; labels are fresh uniform signs.  ``next_x`` gives the
    K lanes' instances (the instance itself when K = 1), ``next_y`` K labels."""

    def __init__(self, shape, tag: NormTag, seeds, normalize: bool = True):
        self.shape = shape
        self.tag = tag
        self.normalize = normalize
        self.rngs = [substream(seed, "adversary") for seed in seeds]

    def _draw(self, k):
        return self.rngs[k].normal(size=self.shape)

    def next_x(self, t):
        xs = np.stack([self._draw(k) for k in range(len(self.rngs))])
        if self.normalize:
            norms = self.tag.norm_batch(xs)
            xs = xs / np.where(norms > 0, norms, 1.0).reshape((-1,) + (1,) * (xs.ndim - 1))
        return xs[0] if len(xs) == 1 else xs

    def next_y(self, t, x, yhat):
        # the draw rng.choice([-1.0, 1.0]) makes, without its overhead
        return np.array([(-1.0, 1.0)[rng.integers(0, 2)] for rng in self.rngs])


class IIDRademacherCoordsX(IIDGaussianX):
    """Sign-vector instances scaled onto the unit sphere of the norm."""

    def _draw(self, k):
        return (self.rngs[k].integers(0, 2, size=self.shape) * 2 - 1).astype(float)


class LowRankStream(IIDGaussianX):
    """Instances drawn from a fixed random subspace of the given rank, one
    subspace per seed; the shape is a tuple."""

    def __init__(self, shape: tuple, rank: int, tag: NormTag, seeds, normalize: bool = True):
        super().__init__(shape, tag, seeds, normalize)
        self.bases = [substream(seed, "low-rank-basis").normal(size=(*shape, rank)) for seed in seeds]

    def _draw(self, k):
        basis = self.bases[k]
        return basis @ self.rngs[k].normal(size=basis.shape[-1])


class FixedStream:
    """Replay explicit arrays of instances and labels, the same to every lane."""

    def __init__(self, xs, ys):
        self.xs = [np.asarray(x, dtype=float) for x in xs]
        self.ys = [float(y) for y in ys]
        if len(self.xs) != len(self.ys):
            raise ConfigError(f"a fixed-file stream needs as many labels as instances, got {len(self.ys)} and {len(self.xs)}")

    def next_x(self, t):
        return self.xs[t - 1]

    def next_y(self, t, x, yhat):
        return self.ys[t - 1]


class SignFlip:
    """Label adversary y_t = -sign(yhat_t), wrapping any instance source and
    answering every lane's prediction at once.

    Tie rule: a prediction equal to zero, -0.0 included, gets the label +1.
    """

    def __init__(self, base):
        self.base = base

    def next_x(self, t):
        return self.base.next_x(t)

    def next_y(self, t, x, yhat):
        return np.where(yhat == 0.0, 1.0, -np.sign(yhat))


def make_adversary(cfg: dict, shape: tuple, tag: NormTag, seeds):
    """The adversary a config names, drawing instances of ``shape`` for one lane per seed."""
    kind = cfg["kind"]
    normalize = bool(cfg.get("normalize", True))
    if kind == "iid-gaussian":
        return IIDGaussianX(shape, tag, seeds, normalize)
    if kind == "iid-rademacher-coords":
        return IIDRademacherCoordsX(shape, tag, seeds, normalize)
    if kind == "sign-flip":
        base_kind = cfg.get("base", "iid-gaussian")
        base_cfg = {k: v for k, v in cfg.items() if k != "base"}
        base = make_adversary(dict(base_cfg, kind=base_kind), shape, tag, seeds)
        return SignFlip(base)
    if kind == "low-rank-stream":
        return LowRankStream(shape, int(cfg["rank"]), tag, seeds, normalize)
    if kind == "fixed-file":
        try:
            data = json.loads(pathlib.Path(cfg["path"]).read_text()) if "path" in cfg else cfg
        except (OSError, ValueError) as exc:  # missing, unreadable or not JSON
            raise ConfigError(f"fixed-file path {cfg['path']!r} cannot be read as a JSON stream: {exc}") from None
        _require(data, ("xs", "ys"), "a fixed-file stream")
        return FixedStream(data["xs"], data["ys"])
    raise ConfigError(f"unknown adversary kind {kind!r}")


# ---------------------------------------------------------------------------
# baselines and comparators


class AdaptiveGD:
    """Online projected gradient descent on the Euclidean unit ball with the
    adaptive step D / sqrt(sum of squared gradient norms), D = diameter 2,
    over K independent lanes: ``w`` is ``(K, d)``, an instance is shared or
    one per lane (as for ``ZigZagLearner``), ``predict`` returns and
    ``update`` takes K values, and the signs it returns are 0."""

    def __init__(self, d: int, lanes: int = 1):
        self.lanes = lanes
        self.shape = (d,)
        self.w = np.zeros((lanes, d))
        self.grad_sq = np.zeros(lanes)

    def predict(self, x) -> np.ndarray:
        return _rowdot(self.w, lane_instances(x, self.shape, self.lanes))

    def update(self, x, dloss) -> np.ndarray:
        x = lane_instances(x, self.shape, self.lanes)
        g = np.asarray(dloss, dtype=float).reshape(-1, 1) * x
        self.grad_sq = self.grad_sq + _rowdot(g, g)
        rate = np.divide(2.0, np.sqrt(self.grad_sq), out=np.zeros(self.lanes), where=self.grad_sq > 0.0)
        w = self.w - rate[:, np.newaxis] * g
        self.w = w / np.maximum(np.sqrt(_rowdot(w, w)), 1.0)[:, np.newaxis]
        return np.zeros(self.lanes, dtype=int)


def _rowdot(a, b) -> np.ndarray:
    """<a, b> over the last axis, one BLAS dot per row, so a row's value does
    not depend on how many rows there are."""
    return np.matmul(a[..., np.newaxis, :], b[..., :, np.newaxis])[..., 0, 0]


def offline_comparator(xs, ys, tag: NormTag, loss_name: str, iters: int = 500) -> dict:
    """Frank-Wolfe over the dual-norm unit ball for the best-in-class
    cumulative loss inf_w sum_t loss(<w, x_t>, y_t) of one stream (``xs`` of
    shape ``(n, d)``, ``ys`` of shape ``(n,)``) or of K streams solved
    together (``(K, n, d)`` and ``(K, n)``).

    Returns per stream the best loss seen and the duality gap of the last
    step, with the streams' leading axis (none for one stream).  An empty
    stream yields zero.  Iterates pair with instances through ``tag.dual``.
    """
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    lead = y.shape[:-1]
    if y.shape[-1] == 0:
        return {"best_loss": np.zeros(lead)[()], "gap": np.zeros(lead)[()]}
    w = np.zeros((*lead, x.shape[-1]))
    best_loss = gap = np.full(lead, np.inf)
    for k in range(iters + 1):
        m = (x @ tag.dual(w)[..., np.newaxis])[..., 0]
        total = loss_batch(loss_name, m, y).sum(axis=-1)
        best_loss = np.where(total < best_loss, total, best_loss)
        if k == iters:
            break
        g = (dloss_batch(loss_name, m, y)[..., np.newaxis, :] @ x)[..., 0, :]
        s = dual_ball_lmo(g, tag)
        if k == iters - 1:
            gap = _rowdot(tag.dual(g), w - s)
        step = 2.0 / (k + 2.0)
        w = (1.0 - step) * w + step * s
    return {"best_loss": best_loss[()], "gap": gap[()]}


def rad_exact_scalar(xs) -> float:
    """Exact E|sum eps_t x_t| for a scalar sequence."""
    return rad_exact(np.asarray(xs, dtype=float).reshape(-1, 1), LpTag(2.0))


def brute_force_minimax(xs, loss_name: str) -> float:
    """Exact minimax regret of the fixed-sequence game by backward induction.

    The learner picks yhat from a 41-point grid on [-1, 1], the adversary
    answers with y in {-1, +1}, and the terminal comparator inf over |w| <= 1
    of the cumulative loss has a closed form because |x_t| <= 1 makes hinge
    and absolute losses linear in w y over the reachable range.  The induction
    runs over arrays of all 2^t label paths per level: O(41 * 2^n).
    """
    xs = [float(x) for x in xs]
    n = len(xs)
    if n > 4:
        raise ValueError("backward induction limited to n <= 4 rounds")
    if any(abs(x) > 1.0 + 1e-12 for x in xs):
        raise ValueError("instances must lie in [-1, 1]")
    if loss_name not in ("hinge", "absolute", "linear"):
        raise ValueError(f"unsupported loss {loss_name!r}")
    grid = np.linspace(-1.0, 1.0, 41)
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


def _check_config(config: dict):
    """Reject what cannot run; return the config's Burkholder spec (None for
    adaptive-gd and spectral configs)."""
    _check_keys(config, CONFIG_KEYS, "config")
    algorithm = config.get("algorithm")
    if algorithm not in ALGORITHMS:
        raise ConfigError(f"unknown algorithm {algorithm!r}")
    loss_name = config.get("loss", "hinge")
    if loss_name not in LOSSES:
        raise ConfigError(f"unknown loss {loss_name!r}")
    for key in ("eta", "eta0"):  # absent or null: the default rate
        if config.get(key) is not None and not (_is_number(config[key]) and config[key] > 0):
            raise ConfigError(f"{key} must be a finite number > 0, got {config[key]!r}")
    for key, low in {"fw_iters": 0, "rad_samples": 100, "mc_paths": 100}.items():
        if key in config and not _is_count(config[key], low):
            raise ConfigError(f"{key} must be at least {low}, got {config[key]!r}; it takes a whole number")
    seeds = config.get("seeds", [])
    integers = isinstance(seeds, (list, tuple)) and all(isinstance(s, numbers.Integral) and not isinstance(s, bool) for s in seeds)
    if not integers or len(set(seeds)) < len(seeds):  # a seed names its cell's output file
        raise ConfigError(f"seeds must be a list of distinct integers, got {seeds!r}")
    if not isinstance(config.get("certify", False), bool):
        raise ConfigError(f"certify must be true or false, got {config['certify']!r}")
    if algorithm == "spectral":
        if config.get("certify") is False:
            raise ConfigError("a spectral run always certifies every round; it cannot run with certify: false")
        _require(config, ("d", "r", "n", "tau"), "a spectral config")
        sizes = {key: config[key] for key in ("d", "r", "n")}
        sizes["net_size"] = config.get("net_size", 500)
        if not all(map(_is_count, sizes.values())) or not (_is_number(config["tau"]) and config["tau"] > 0):
            raise ConfigError(f"a spectral run needs net_size, d, r, n >= 1 and tau > 0, got {sizes}, tau={config['tau']!r}")
        stream = config.get("entry_distribution", "uniform")
        if stream not in ENTRY_DISTRIBUTIONS:
            raise ConfigError(f"unknown entry_distribution {stream!r}; a spectral config takes one of {ENTRY_DISTRIBUTIONS}")
        return None
    _require(config, ("n", "adversary", "d" if algorithm == "adaptive-gd" else "spec"), f"algorithm {algorithm!r}")
    if not _is_count(config["n"]):
        raise ConfigError(f"a run needs a whole number of n >= 1 rounds, got n = {config['n']!r}")
    if algorithm == "adaptive-gd" and not _is_count(config["d"]):
        raise ConfigError(f"algorithm 'adaptive-gd' needs a whole number d >= 1, got d = {config['d']!r}")
    adversary = config["adversary"]
    _check_keys(adversary, ADVERSARY_KEYS, "adversary")
    _require(adversary, ("kind",), "an adversary")
    if not isinstance(adversary.get("normalize", True), bool):
        raise ConfigError(f"adversary.normalize must be true or false, got {adversary['normalize']!r}")
    kinds = [adversary["kind"]] + ([adversary.get("base", "iid-gaussian")] if adversary["kind"] == "sign-flip" else [])
    for kind in kinds:
        if kind not in ADVERSARY_KINDS:
            raise ConfigError(f"unknown adversary kind {kind!r}")
    if "low-rank-stream" in kinds:
        _require(adversary, ("rank",), "a low-rank-stream adversary")
        if not _is_count(adversary["rank"]):
            raise ConfigError(f"a low-rank-stream adversary needs a whole number rank >= 1, got rank = {adversary['rank']!r}")
    if algorithm == "adaptive-gd" and config.get("certify"):
        raise ConfigError(f"algorithm {algorithm!r} has no certificate; it cannot run with certify: true")
    if algorithm != "adaptive-gd" and not isinstance(config["spec"], dict):
        raise ConfigError(f"spec must be a JSON object, got {config['spec']!r}")
    if algorithm != "adaptive-gd" and "d" in config["spec"] and not _is_count(config["spec"]["d"]):
        raise ConfigError(f"spec {config['spec']!r} needs a whole number d >= 1, got d = {config['spec']['d']!r}")
    try:
        spec = None if algorithm == "adaptive-gd" else make_spec(config["spec"])
    except KeyError as exc:
        raise ConfigError(f"spec {config['spec']!r} needs the key {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"spec {config['spec']!r} cannot be built: {exc}") from None
    if spec is not None and (spec.p <= 1 or len(spec.point_shape) > 1):
        raise ConfigError(
            f"construction {spec.construction!r} cannot run: psi and the doubling schedule need p > 1 (p = {spec.p}) "
            f"and the Frank-Wolfe comparator needs vector points (shape {spec.point_shape})"
        )
    if "fixed-file" in kinds:
        _check_fixed_stream(adversary, (int(config["d"]),) if spec is None else spec.point_shape, int(config["n"]), loss_name)
    return spec


def _is_number(value, whole: bool = False) -> bool:
    """Whether a config value is a finite number, and a whole one (3 or 3.0) if ``whole``; "3" and True are not."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    return real and (isinstance(value, numbers.Integral) or (math.isfinite(value) and (not whole or float(value).is_integer())))


def _is_count(value, low: int = 1) -> bool:
    """Whether a config value is a whole number >= ``low``."""
    return _is_number(value, whole=True) and value >= low


def _check_keys(cfg, known: tuple, what: str):
    """Reject a ``what`` that is not a JSON object or has a key the program does not read."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"{what} must be a JSON object, got {cfg!r}")
    unknown = [key for key in cfg if key not in known]
    if unknown:
        raise ConfigError(f"unknown {what} key {unknown[0]!r}; {what} keys are {', '.join(known)}")


def _require(cfg: dict, keys: tuple, what: str):
    missing = [key for key in keys if key not in cfg]
    if missing:
        raise ConfigError(f"{what} needs {', '.join(map(repr, missing))}")


def _check_fixed_stream(cfg: dict, shape: tuple, n: int, loss_name: str):
    """Reject a fixed-file stream (or sign-flip base) that cannot serve n rounds of ``shape`` under the loss."""
    stream = make_adversary(dict(cfg, kind="fixed-file"), shape, None, [])
    if len(stream.xs) < n:
        raise ConfigError(f"a fixed-file stream of {len(stream.xs)} rows cannot serve n = {n} rounds")
    wrong = [i for i, x in enumerate(stream.xs) if x.shape != shape]
    if wrong:
        raise ConfigError(f"fixed-file instance {wrong[0]} is not of the point shape {shape}")
    if cfg["kind"] == "fixed-file":  # a sign-flip base's labels are never read
        try:
            validate_labels(loss_name, stream.ys)
        except ValueError as exc:
            raise ConfigError(f"fixed-file {exc}") from None


def _build_learner(config: dict, spec, seeds: list):
    """The learner of a config with one lane per seed."""
    algorithm = config["algorithm"]
    if algorithm == "zigzag":
        eta = 1.0 if config.get("eta") is None else config["eta"]
        return ZigZagLearner(spec, eta, [substream(seed, "learner") for seed in seeds])
    if algorithm == "adaptive-gd":
        return AdaptiveGD(int(config["d"]), lanes=len(seeds))
    mode = algorithm.removeprefix("zigzag-doubling-")
    return DoublingZigZag(spec, mode, seeds, eta0=config.get("eta0"), mc_paths=int(config.get("mc_paths", 500)))


def _run_cells(config: dict, spec, seeds: list) -> list[dict]:
    """The per-seed cells of a zigzag, doubling or adaptive-gd config.  The
    seeds are the lanes of one learner and one episode (a doubling lane keeps
    its own phases), and one Frank-Wolfe loop solves every seed's
    comparator."""
    if not seeds:
        return []
    loss_name = config.get("loss", "hinge")
    n = int(config["n"])
    tag, shape = (LpTag(2.0), (int(config["d"]),)) if spec is None else (spec.tag, spec.point_shape)
    cert_grid = CERT_GRID if config.get("certify") else None
    adversary = make_adversary(config["adversary"], shape, tag, seeds)
    learner = _build_learner(config, spec, seeds)
    trace = run_episode(learner, loss_name, adversary, n, cert_grid=cert_grid)

    # the comparator class and the Rademacher estimate live in R^m, so
    # scalar instances enter them as 1-vectors; row k is seed k's stream,
    # and an instance shared by the lanes (fixed-file) is in every row
    m = math.prod(shape)
    lanes = len(seeds)
    xs = np.ascontiguousarray(np.broadcast_to(np.reshape(trace.xs, (n, -1, m)), (n, lanes, m)).swapaxes(0, 1))
    ys = np.ascontiguousarray(trace.y.T)
    fw = offline_comparator(xs, ys, tag, loss_name, iters=int(config.get("fw_iters", 500)))
    increments = np.ascontiguousarray(trace.dloss.T)[..., np.newaxis] * xs
    linearized = tag.norm_batch(increments.sum(axis=1))  # ||sum_t l'_t x_t|| per lane
    max_x_norms = tag.norm_batch(xs.reshape(-1, m)).reshape(lanes, n).max(axis=1)
    residuals = theorem_residual(trace, learner)["residual"] if config["algorithm"] == "zigzag" else [None] * lanes
    phases = learner.finish() if isinstance(learner, DoublingZigZag) else [[]] * lanes

    cells = []
    for i, seed in enumerate(seeds):
        total_loss = float(trace.cum_loss[-1, i])
        rad_mean, rad_se = rad_estimate(increments[i], tag, int(config.get("rad_samples", 1000)), seed=seed)
        cells.append({
            "seed": seed,
            "regret": total_loss - float(fw["best_loss"][i]),
            "comparator_fw": float(fw["best_loss"][i]),
            "rad_mean": rad_mean,
            "rad_se": rad_se,
            "phases": [dataclasses.asdict(rec) for rec in phases[i]],
            "benchmark_linearized": float(linearized[i]),
            "residual": None if residuals[i] is None else float(residuals[i]),
            "cert_worst_slack": float(trace.cert_worst_slack[:, i].min()) if cert_grid is not None else None,
            # companion to the no-normalize escape hatch: scale-free runs
            # report how large the instances actually got
            "max_x_norm": float(max_x_norms[i]),
            "trace_csv": trace.to_csv(i),
        })
    return cells


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
        "comparator_fw": c.comparator_loss,
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
    """Run every seed cell of a config and assemble the fixed-schema summary,
    cells in seed order.  Spectral configs run seed 0 unless they list
    seeds.  Raises ``ConfigError`` before any round for a config that cannot
    run."""
    spec = _check_config(config)
    if config["algorithm"] == "spectral":
        cells = [_spectral_cell(config, seed) for seed in config.get("seeds", [0])]
    else:
        cells = _run_cells(config, spec, list(config.get("seeds", [])))
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
