"""Experiment orchestration: adversaries, the adaptive gradient baseline,
offline comparators, a brute-force minimax oracle for tiny games, and the
config-driven runner with fixed CSV/JSON output schemas.

All adversaries draw instances of the construction's point shape and rescale
them onto the unit ball of the configured norm, so streams always satisfy the
protocol's boundedness contract; an optional ``normalize=False`` escape hatch
exercises scale-free behavior.  The seeds of a config are lanes: one learner
and one adversary serve every seed, each seed drawing from its own adversary
stream, and one batched Frank-Wolfe loop solves every seed's comparator.
In doubling configs each lane keeps its own phase schedule.  One table,
``CONFIG_TABLE``, states each config key's kind, default and the algorithms
that need it; a config that cannot run (a missing or unknown key, a value not
of its key's kind, a spec that cannot be built, a fixed-file stream too short
for n rounds) raises ``ConfigError`` before any adversary or learner is built.
"""

from __future__ import annotations

import collections
import dataclasses
import json
import math
import numbers
import pathlib

import numpy as np

from .burkholder import BurkholderSpec, make_spec
from .learner import BLOCK, ConfigError, ZigZagLearner, lane_instances, psi, run_episode, theorem_residual, validate_labels
from .linalg import LpTag, NormTag, dual_ball_lmo
from .losses import LOSSES, dloss_batch, loss_batch
from .rademacher import MIN_SAMPLES, rad_estimate
from .rng import substream
from .spectral import run_spectral
from .tuning import DoublingZigZag, default_eta0, phase_threshold

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
    "run_experiment",
    "check_config",
    "build_spec",
    "load_json",
    "spectral_result",
    "entry_triples",
    "ConfigError",
    "CONFIG_TABLE",
    "write_outputs",
    "merge_reports",
    "CELL_KEYS",
    "SUMMARY_KEYS",
]

ALGORITHMS = ("zigzag", "zigzag-doubling-realized", "zigzag-doubling-expected", "adaptive-gd", "spectral")
ADVERSARY_KINDS = ("iid-gaussian", "iid-rademacher-coords", "sign-flip", "low-rank-stream", "fixed-file")


# A row of the config table: the kind of value a key takes, its default
# (None: none), the algorithms (adversary kinds, in the adversary scope) that
# need it, the least whole number a ``count`` takes, the names a ``name``
# takes and the greatest ``count`` (None: none).  The first row of a scope
# says what the rest serve (the algorithm, the adversary kind) and is always
# needed; a sign-flip adversary's ``base`` is a kind too.  Only the rules
# that relate two or more keys are code, in ``check_config``.
Key = collections.namedtuple("Key", "kind default needed_by low names high", defaults=(None, (), 1, (), None))
CONFIG_TABLE = {
    "config": {
        "algorithm": Key("name", names=ALGORITHMS),
        "spec": Key("object", needed_by=ALGORITHMS[:3]),  # zigzag and doubling
        "loss": Key("name", "hinge", names=LOSSES),
        "adversary": Key("object", needed_by=ALGORITHMS[:4]),  # all but spectral
        "n": Key("count", needed_by=ALGORITHMS),
        "seeds": Key("seeds"),  # [] or, for spectral, [0]: check_config fills it in
        "eta": Key("positive"),  # None: the algorithm's own rate
        "eta0": Key("positive"),
        "certify": Key("flag", False),
        "fw_iters": Key("count", 500, low=0),
        "rad_samples": Key("count", 1000, low=MIN_SAMPLES),
        "mc_paths": Key("count", 500, low=MIN_SAMPLES),
        "d": Key("count", needed_by=("adaptive-gd", "spectral")),
        "r": Key("count", needed_by=("spectral",)),
        "tau": Key("positive", needed_by=("spectral",)),
        "net_size": Key("count", 500),
        "entry_distribution": Key("name", "uniform", names=("uniform", "row-spiky")),
        "out_dir": Key("text", "runs"),
    },
    "adversary": {
        "kind": Key("name", names=ADVERSARY_KINDS),
        "base": Key("name", "iid-gaussian", names=tuple(k for k in ADVERSARY_KINDS if k != "sign-flip")),
        "normalize": Key("flag", True),
        "rank": Key("count", needed_by=("low-rank-stream",)),
        "path": Key("text"),
        "xs": Key("stream"),
        "ys": Key("stream"),
    },
}

# kind: (whether a value is of the kind, what the settings hold for it, the
# message for a value that is not); xs and ys are checked as a stream
KINDS = {
    "count": (lambda v, row: _is_number(v, whole=True) and row.low <= v and (row.high is None or v <= row.high), int,
              "{name} must be at least {low}{high}, got {value!r}; it takes a whole number"),
    "positive": (lambda v, row: _is_number(v) and v > 0, float, "{name} must be a finite number > 0, got {value!r}"),
    "flag": (lambda v, row: isinstance(v, bool), None, "{name} must be true or false, got {value!r}"),
    "name": (lambda v, row: v in row.names, None, "unknown {name} {value!r}; {name} takes one of {names}"),
    "seeds": (lambda v, row: _distinct_integers(v), list, "{name} must be a list of distinct integers, got {value!r}"),
    "text": (lambda v, row: isinstance(v, str) and v != "", None, "{name} must be non-empty text, got {value!r}"),
    "object": (lambda v, row: isinstance(v, dict), None, "{name} must be a JSON object, got {value!r}"),
    "stream": (lambda v, row: True, None, ""),
}

# the per-seed values a cell reports: the summary lists each key over the
# seeds, and each must be finite
CELL_KEYS = ("regret", "benchmark_linearized", "comparator_fw", "rad_mean", "rad_se", "phases")
SUMMARY_KEYS = ("config", *CELL_KEYS, "residual_mean", "residual_se")


# ---------------------------------------------------------------------------
# adversaries


def _lane_form(xs):
    """One round's ``(K, *shape)`` instances as ``next_x`` gives them: the
    instance itself when K = 1."""
    return xs[0] if len(xs) == 1 else xs


class IIDGaussianX:
    """Gaussian instances of the given shape scaled onto the unit sphere of
    the configured norm; labels are fresh uniform signs.  ``next_x`` gives the
    K lanes' instances (the instance itself when K = 1), ``next_y`` K labels.

    ``draw(rounds)`` is the one draw path: each lane's next ``rounds``
    instances from one generator call, normalized with one ``norm_batch``,
    the numbers of that many one-round draws.  ``next_x`` draws one round,
    because ``next_y`` draws labels from the same generators; ``SignFlip``,
    which draws none, takes a block."""

    def __init__(self, shape, tag: NormTag, seeds, normalize: bool):
        self.shape = shape
        self.tag = tag
        self.normalize = normalize
        self.rngs = [substream(seed, "adversary") for seed in seeds]

    def _draw(self, rounds):
        """Each lane's next ``rounds`` raw draws, lane by lane: ``(K * rounds, *shape)``."""
        return np.concatenate([rng.normal(size=(rounds, *self.shape)) for rng in self.rngs])

    def draw(self, rounds: int) -> np.ndarray:
        """The K lanes' instances of the next ``rounds`` rounds, shape
        ``(rounds, K, *shape)``."""
        xs = self._draw(rounds)
        if self.normalize:
            norms = self.tag.norm_batch(xs)
            xs /= np.where(norms > 0, norms, 1.0).reshape((-1,) + (1,) * len(self.shape))
        return np.ascontiguousarray(xs.reshape((len(self.rngs), rounds, *self.shape)).swapaxes(0, 1))

    def next_x(self, t):
        return _lane_form(self.draw(1)[0])

    def next_y(self, t, x, yhat):
        # the draw rng.choice([-1.0, 1.0]) makes, without its overhead
        return np.array([(-1.0, 1.0)[rng.integers(0, 2)] for rng in self.rngs])


class IIDRademacherCoordsX(IIDGaussianX):
    """Sign-vector instances scaled onto the unit sphere of the norm."""

    def _draw(self, rounds):
        return (np.concatenate([rng.integers(0, 2, size=(rounds, *self.shape)) for rng in self.rngs]) * 2 - 1).astype(float)


class LowRankStream(IIDGaussianX):
    """Instances drawn from a fixed random subspace of the given rank, one
    subspace per seed; the shape is a tuple."""

    def __init__(self, shape: tuple, rank: int, tag: NormTag, seeds, normalize: bool):
        super().__init__(shape, tag, seeds, normalize)
        self.rank = rank
        # lane k's basis as (1, *shape[:-1], shape[-1] or 1, rank) matrices
        bases = [substream(seed, "low-rank-basis").normal(size=(*shape, rank)) for seed in seeds]
        self.bases = np.stack(bases).reshape((len(seeds), 1, *shape[:-1], -1, rank))

    def _draw(self, rounds):
        # every lane's (rank, 1) coefficient column of every round against its
        # basis in one stacked matmul: each product has the bits of
        # basis @ v, which v @ basis.T would not keep
        v = np.concatenate([rng.normal(size=(rounds, self.rank)) for rng in self.rngs])
        v = v.reshape((len(self.rngs), rounds) + (1,) * len(self.shape[:-1]) + (self.rank, 1))
        return np.matmul(self.bases, v).reshape((-1, *self.shape))


class FixedStream:
    """Replay explicit arrays of instances and labels, the same to every lane."""

    def __init__(self, xs, ys):
        try:
            self.xs = [np.asarray(x, dtype=float) for x in xs]
            self.ys = [float(y) for y in ys]
        except (TypeError, ValueError) as exc:  # not a list, or an entry that is not a number
            raise ConfigError(f"a fixed-file stream needs lists of numbers for xs and ys: {exc}") from None
        if len(self.xs) != len(self.ys):
            raise ConfigError(f"a fixed-file stream needs as many labels as instances, got {len(self.ys)} and {len(self.xs)}")

    def next_x(self, t):
        return self.xs[t - 1]

    def next_y(self, t, x, yhat):
        return self.ys[t - 1]


class SignFlip:
    """Label adversary y_t = -sign(yhat_t), wrapping any instance source and
    answering every lane's prediction at once.  It never draws the base's
    labels, so a base with ``draw`` gives its instances ``BLOCK`` rounds at
    a time; rounds are read in order from t = 1.

    Tie rule: a prediction equal to zero, -0.0 included, gets the label +1.
    A NaN prediction has no sign: it raises ``ConfigError`` naming the
    ``seeds`` of the lanes and the round.
    """

    def __init__(self, base, seeds=()):
        self.base = base
        self.seeds = list(seeds)
        self._block = None

    def next_x(self, t):
        if not hasattr(self.base, "draw"):  # a stream that replays its instances
            return self.base.next_x(t)
        if (t - 1) % BLOCK == 0:
            self._block = self.base.draw(BLOCK)
        return _lane_form(self._block[(t - 1) % BLOCK])

    def next_y(self, t, x, yhat):
        if np.isnan(yhat).any():
            raise ConfigError(f"seeds {self.seeds}: round {t} predicted NaN, which sign-flip cannot label; the run overflowed a float")
        return np.where(yhat > 0.0, -1.0, 1.0)


def make_adversary(cfg: dict, shape: tuple, tag: NormTag, seeds):
    """The adversary an adversary object names, drawing instances of ``shape``
    for one lane per seed.  The object is walked through the table's
    adversary rows, so a key it leaves out takes its default."""
    cfg = _walk(cfg, "adversary")
    source = cfg["base"] if cfg["kind"] == "sign-flip" else cfg["kind"]
    if source == "fixed-file":
        adversary = _fixed_stream(cfg)
    elif source == "low-rank-stream":
        adversary = LowRankStream(shape, cfg["rank"], tag, seeds, cfg["normalize"])
    else:
        draws = IIDGaussianX if source == "iid-gaussian" else IIDRademacherCoordsX
        adversary = draws(shape, tag, seeds, cfg["normalize"])
    return SignFlip(adversary, seeds) if cfg["kind"] == "sign-flip" else adversary


def _fixed_stream(cfg: dict) -> FixedStream:
    """The stream of a walked fixed-file adversary (or sign-flip base): the
    xs and ys of the JSON file at its ``path``, or its own."""
    path, data = cfg["path"], cfg
    if path is not None:
        data = load_json(pathlib.Path(path).read_text, f"fixed-file path {path!r} cannot be read as a JSON stream")
    missing = [key for key in ("xs", "ys") if not isinstance(data, dict) or data.get(key) is None]
    if missing:
        raise ConfigError(f"a fixed-file stream needs {', '.join(map(repr, missing))}")
    return FixedStream(data["xs"], data["ys"])


def entry_triples(entries, d: int, loss_name: str) -> list:
    """The (i, j, y) triples of an adversarial entry file for a d x d spectral
    run, as read from JSON; ``ConfigError`` for an empty or malformed list, an
    index outside the matrix or a label the loss does not take."""
    if not isinstance(entries, list) or not entries:
        raise ConfigError(f"an entry file needs a non-empty list of [i, j, y] triples, got {entries!r}")
    for t, entry in enumerate(entries):
        if not (isinstance(entry, list) and len(entry) == 3 and _is_number(entry[2])
                and all(_is_number(v, whole=True) and 0 <= v < d for v in entry[:2])):
            raise ConfigError(f"entry {t} is {entry!r}; entries are [i, j, y] with whole numbers i, j that index "
                              f"a {d} x {d} matrix and a number y")
    try:
        validate_labels(loss_name, [entry[2] for entry in entries])
    except ValueError as exc:
        raise ConfigError(f"entry file: {exc}") from None
    return entries


def load_json(read, what: str):
    """``json.loads(read())``; a ``ConfigError`` that begins with ``what`` if
    reading fails (a missing or unreadable file) or the text is not JSON."""
    try:
        return json.loads(read())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{what}: {exc}") from None


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
        self.point_shape = (d,)
        self.w = np.zeros((lanes, d))
        self.grad_sq = np.zeros(lanes)

    def predict(self, x) -> np.ndarray:
        return _rowdot(self.w, lane_instances(x, self.point_shape, self.lanes))

    def update(self, x, dloss) -> np.ndarray:
        x = lane_instances(x, self.point_shape, self.lanes)
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


def offline_comparator(xs, ys, tag: NormTag, loss_name: str, iters: int) -> dict:
    """Frank-Wolfe over the dual-norm unit ball for the best-in-class
    cumulative loss inf_w sum_t loss(<w, x_t>, y_t) of one stream (``xs`` of
    shape ``(n, d)``, ``ys`` of shape ``(n,)``) or of K streams solved
    together (``(K, n, d)`` and ``(K, n)``).

    Returns per stream the best loss seen and ``lower``, a proven bound on
    the optimum f*, with the streams' leading axis (none for one stream).
    For a subgradient g_k at w_k and the LMO answer s_k, convexity and the
    LMO give f* >= f(w_k) + <g_k, w* - w_k> >= f(w_k) - <g_k, w_k - s_k>.
    ``lower`` is the largest such bound so far.  The loop stops after
    ``iters`` steps, or sooner once every stream's best loss meets its
    ``lower``; the best loss is then optimal to within the rounding of one
    loss sum and one gap product.  An empty stream yields zero, and
    ``iters = 0`` a bound of -inf.
    Iterates pair with instances through ``tag.dual``.
    """
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    lead = y.shape[:-1]
    if y.shape[-1] == 0:
        return {"best_loss": np.zeros(lead)[()], "lower": np.zeros(lead)[()]}
    w = np.zeros((*lead, x.shape[-1]))
    best_loss = np.full(lead, np.inf)
    lower = np.full(lead, -np.inf)
    for k in range(iters + 1):
        m = (x @ tag.dual(w)[..., np.newaxis])[..., 0]
        total = loss_batch(loss_name, m, y).sum(axis=-1)
        best_loss = np.where(total < best_loss, total, best_loss)
        if k == iters:
            break
        g = (dloss_batch(loss_name, m, y)[..., np.newaxis, :] @ x)[..., 0, :]
        s = dual_ball_lmo(g, tag)
        lower = np.maximum(lower, total - _rowdot(tag.dual(g), w - s))
        if np.all(best_loss <= lower):
            break
        step = 2.0 / (k + 2.0)
        w = (1.0 - step) * w + step * s
    return {"best_loss": best_loss[()], "lower": lower[()]}


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


def check_config(config: dict) -> dict:
    """Reject a config that cannot run, before any adversary or learner is
    built; return its settings: every default filled in, whole numbers as
    ``int`` and, for a zigzag, doubling or adaptive-gd config, the built spec
    (None for adaptive-gd) and the walked adversary, a fixed-file stream
    inline as checked."""
    settings = _walk(config, "config")
    algorithm = settings["algorithm"]
    if algorithm == "spectral" and config.get("certify") is False:
        raise ConfigError("a spectral run always certifies every round; it cannot run with certify: false")
    if algorithm == "adaptive-gd" and settings["certify"]:
        raise ConfigError(f"algorithm {algorithm!r} has no certificate; it cannot run with certify: true")
    if settings["seeds"] is None:
        settings["seeds"] = [0] if algorithm == "spectral" else []
    if algorithm in ("adaptive-gd", "spectral"):  # a point of d entries, or a d x r factor matrix
        size = settings["d"] * (settings["r"] if algorithm == "spectral" else 1)
        if size > MAX_POINT_SIZE:
            raise ConfigError(f"algorithm {algorithm!r} has points of {size} entries; a point has at most {MAX_POINT_SIZE}")
    if algorithm == "spectral":
        tau, n = settings["tau"], settings["n"]
        alpha = 1.0 / (n * tau)  # the net radius; the run squares both
        if not (math.isfinite(tau * tau) and math.isfinite(alpha * alpha)):
            raise ConfigError(f"tau = {tau} with n = {n} rounds overflows tau^2 or the squared net radius (1/(n tau))^2")
        if alpha >= 1.0:  # the experts' coefficient divides by 1 - alpha
            raise ConfigError(f"tau = {tau} with n = {n} rounds gives the net radius 1/(n tau) = {alpha:.6g}; a spectral run needs n tau > 1")
        return settings
    spec = settings["spec"] = None if algorithm == "adaptive-gd" else build_spec(settings["spec"])
    if spec is not None and (spec.p <= 1 or len(spec.point_shape) > 1):
        raise ConfigError(
            f"construction {spec.construction!r} cannot run: psi and the doubling schedule need p > 1 (p = {spec.p}) "
            f"and the Frank-Wolfe comparator needs vector points (shape {spec.point_shape})"
        )
    if algorithm == "zigzag" and settings["eta"] is not None:
        with np.errstate(over="ignore"):
            bound = psi(settings["eta"], spec.p, 0.0)  # the eta^(1-p') / (p' - 1) term, over p
        if not np.isfinite(bound):
            raise ConfigError(f"eta = {settings['eta']} with p = {spec.p} overflows the bound's term eta^(1-p') / (p' - 1)")
    if algorithm.startswith("zigzag-doubling"):
        eta0 = settings["eta0"] or default_eta0(spec.p, spec.beta, algorithm.removeprefix("zigzag-doubling-"))
        if not eta0 > 0:
            raise ConfigError(f"the default eta0 = (beta p)^-p = {eta0} with p = {spec.p} is not > 0; give eta0")
        if not math.isfinite(phase_threshold(eta0, spec.p)):
            raise ConfigError(f"eta0 = {eta0} with p = {spec.p} overflows the first phase's threshold eta0^-(p'-1)")
    adversary = settings["adversary"] = _walk(settings["adversary"], "adversary")
    if "fixed-file" in _sources(adversary):
        stream, n = _fixed_stream(adversary), settings["n"]
        shape = _point_space(settings)[1]
        if len(stream.xs) < n:
            raise ConfigError(f"a fixed-file stream of {len(stream.xs)} rows cannot serve n = {n} rounds")
        for i, x in enumerate(stream.xs):
            if x.shape != shape or not np.isfinite(x).all():
                wrong = f"is not of the point shape {shape}" if x.shape != shape else f"holds {x[~np.isfinite(x)][0]}, not a finite number"
                raise ConfigError(f"fixed-file instance {i} {wrong}")
        if adversary["kind"] == "fixed-file":  # a sign-flip base's labels are never read
            try:
                validate_labels(settings["loss"], stream.ys)
            except ValueError as exc:
                raise ConfigError(f"fixed-file {exc}") from None
        adversary.update(path=None, xs=stream.xs, ys=stream.ys)  # the stream that runs is the one checked
    return settings


MAX_POINT_SIZE = 1024  # entries in one spec point; a 10,000-probe batch of them is 82 MB
MAX_L1_LEVELS = 1000  # levels ceil(B / eps) of an l1-composed spec; each probe evaluates every level

# the kind of each number a spec may hold; a group-p2 ``shape`` is a pair of counts
SPEC_NUMBERS = {key: Key("positive") for key in ("p", "a", "B", "eps")} | {key: Key("count") for key in ("k", "d")}


def build_spec(cfg) -> BurkholderSpec:
    """``make_spec`` for a spec that comes from outside the program: one
    that is not an object, holds a number not of its kind in
    ``SPEC_NUMBERS``, cannot be built, has points of more than
    ``MAX_POINT_SIZE`` entries or, for l1-composed, more than
    ``MAX_L1_LEVELS`` levels raises ``ConfigError``."""
    cfg = dict(checked("spec", CONFIG_TABLE["config"]["spec"], cfg))
    for key, row in SPEC_NUMBERS.items():
        if key in cfg:
            cfg[key] = checked(f"spec.{key}", row, cfg[key])
    if "shape" in cfg:
        if not (isinstance(cfg["shape"], (list, tuple)) and len(cfg["shape"]) == 2):
            raise ConfigError(f"spec.shape must be a pair of whole numbers, got {cfg['shape']!r}")
        cfg["shape"] = [checked("spec.shape", Key("count"), n) for n in cfg["shape"]]
    levels = cfg["B"] / cfg["eps"] if cfg.get("construction") == "l1-composed" and {"B", "eps"} <= cfg.keys() else 0.0
    if levels > MAX_L1_LEVELS:  # ceil(B / eps) levels, checked before the level table is built
        raise ConfigError(f"spec {cfg!r} has B / eps = {levels:.6g} levels; an l1-composed spec has at most {MAX_L1_LEVELS}")
    try:
        spec = make_spec(cfg)
        scale = float(spec.beta) ** spec.p  # beta^p scales the majorant and every bound
    except KeyError as exc:
        raise ConfigError(f"spec {cfg!r} needs the key {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"spec {cfg!r} cannot be built: {exc}") from None
    except OverflowError:  # a constant, or beta^p, past the largest float
        scale = math.inf
    if not math.isfinite(scale):
        raise ConfigError(f"spec {cfg!r} cannot be built: its constants overflow a float (beta^p must be finite)")
    size = math.prod(spec.point_shape)
    if size > MAX_POINT_SIZE:
        raise ConfigError(f"spec {cfg!r} has points of {size} entries; a point has at most {MAX_POINT_SIZE}")
    return spec


def _walk(cfg, scope: str) -> dict:
    """Check an object against one scope of the config table and return its
    settings, every key present and every default filled in.  A key set to
    null is read as absent, so walking settings again gives them back."""
    rows = CONFIG_TABLE[scope]
    if not isinstance(cfg, dict):
        raise ConfigError(f"{scope} must be a JSON object, got {cfg!r}")
    unknown = [key for key in cfg if key not in rows]
    if unknown:
        raise ConfigError(f"unknown {scope} key {unknown[0]!r}; {scope} keys are {', '.join(rows)}")
    prefix = "" if scope == "config" else f"{scope}."
    settings = {}
    for key, row in rows.items():
        value = cfg.get(key)
        settings[key] = row.default if value is None else checked(prefix + key, row, value)
    head = next(iter(rows))
    if settings[head] is None:
        raise ConfigError(f"{scope} needs {head!r}")
    owners = (settings[head],) if scope == "config" else _sources(settings)
    for key, row in rows.items():
        owner = next((o for o in owners if o in row.needed_by), None)
        if owner is not None and settings[key] is None:
            raise ConfigError(f"{prefix.replace('.', ' ')}{head} {owner!r} needs {key!r}")
    return settings


def checked(name: str, row: Key, value):
    """``value`` as the settings hold it, or a ``ConfigError`` naming the key and the value."""
    fits, convert, message = KINDS[row.kind]
    if not fits(value, row):
        high = "" if row.high is None else f" and at most {row.high}"
        raise ConfigError(message.format(name=name, value=value, low=row.low, high=high, names=", ".join(row.names)))
    return value if convert is None else convert(value)


def _sources(adversary: dict) -> tuple:
    """The kinds a walked adversary draws from: its kind and, for sign-flip, its base."""
    return (adversary["kind"],) + ((adversary["base"],) if adversary["kind"] == "sign-flip" else ())


def _point_space(settings: dict) -> tuple:
    """The norm tag and the point shape of a checked non-spectral config."""
    spec = settings["spec"]
    return (LpTag(2.0), (settings["d"],)) if spec is None else (spec.tag, spec.point_shape)


def _is_number(value, whole: bool = False) -> bool:
    """Whether a config value is a finite number, and a whole one (3 or 3.0) if ``whole``; "3" and True are not."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    return real and (isinstance(value, numbers.Integral) or (math.isfinite(value) and (not whole or float(value).is_integer())))


def _distinct_integers(value) -> bool:
    """Whether a config value is a list of distinct integers (a seed names its cell's output file)."""
    integers = isinstance(value, (list, tuple)) and all(isinstance(s, numbers.Integral) and not isinstance(s, bool) for s in value)
    return integers and len(set(value)) == len(value)


def _build_learner(settings: dict):
    """The learner of checked settings with one lane per seed."""
    algorithm, seeds = settings["algorithm"], settings["seeds"]
    if algorithm == "zigzag":
        return ZigZagLearner(settings["spec"], settings["eta"], [substream(seed, "learner") for seed in seeds])
    if algorithm == "adaptive-gd":
        return AdaptiveGD(settings["d"], lanes=len(seeds))
    mode = algorithm.removeprefix("zigzag-doubling-")
    return DoublingZigZag(settings["spec"], mode, seeds, eta0=settings["eta0"], mc_paths=settings["mc_paths"])


def _run_cells(settings: dict) -> list[dict]:
    """The per-seed cells of a zigzag, doubling or adaptive-gd config.  The
    seeds are the lanes of one learner and one episode (a doubling lane keeps
    its own phases), and one Frank-Wolfe loop solves every seed's
    comparator."""
    seeds = settings["seeds"]
    if not seeds:
        return []
    loss_name, n = settings["loss"], settings["n"]
    tag, shape = _point_space(settings)
    adversary = make_adversary(settings["adversary"], shape, tag, seeds)
    learner = _build_learner(settings)
    trace = run_episode(learner, loss_name, adversary, n, certify=settings["certify"])

    # the comparator class and the Rademacher estimate live in R^(point size),
    # so scalar instances enter them as 1-vectors; row k is seed k's stream,
    # and an instance shared by the lanes (fixed-file) is in every row
    lanes = len(seeds)
    xs = np.ascontiguousarray(trace.xs.reshape(n, lanes, -1).swapaxes(0, 1))
    ys = np.ascontiguousarray(trace.y.T)
    fw = offline_comparator(xs, ys, tag, loss_name, iters=settings["fw_iters"])
    increments = np.ascontiguousarray(trace.dloss.T)[..., np.newaxis] * xs
    linearized = tag.norm_batch(increments.sum(axis=1))  # ||sum_t l'_t x_t|| per lane
    residuals = theorem_residual(trace, learner)["residual"] if settings["algorithm"] == "zigzag" else [None] * lanes
    phases = learner.finish() if isinstance(learner, DoublingZigZag) else [[]] * lanes

    cells = []
    for i, seed in enumerate(seeds):
        total_loss = float(trace.cum_loss[-1, i])
        rad_mean, rad_se = rad_estimate(increments[i], tag, settings["rad_samples"], seed=seed)
        cells.append({
            "seed": seed,
            "regret": total_loss - float(fw["best_loss"][i]),
            "comparator_fw": float(fw["best_loss"][i]),
            "rad_mean": rad_mean,
            "rad_se": rad_se,
            "phases": [dataclasses.asdict(rec) for rec in phases[i]],
            "benchmark_linearized": float(linearized[i]),
            "residual": None if residuals[i] is None else float(residuals[i]),
            "cert_worst_slack": float(trace.cert_worst_slack[:, i].min()) if settings["certify"] else None,
            "trace_csv": trace.to_csv(i),
        })
    return cells


def spectral_result(settings: dict, seed: int, entries=None):
    """``run_spectral`` on the checked settings of a spectral config;
    ``entries`` (i, j, y) triples replace the entry distribution."""
    return run_spectral(
        d=settings["d"],
        r=settings["r"],
        tau=settings["tau"],
        n=settings["n"],
        stream_kind=settings["entry_distribution"] if entries is None else "explicit",
        loss_name=settings["loss"],
        seed=seed,
        max_net=settings["net_size"],
        eta=settings["eta"],
        entries=entries,
    )


def _spectral_cell(settings: dict, seed: int) -> dict:
    c = spectral_result(settings, seed)
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
    run, and after the rounds for a run whose summary, phases or spectral
    detail would hold a number that is not finite."""
    settings = check_config(config)
    if settings["algorithm"] == "spectral":
        cells = [_spectral_cell(settings, seed) for seed in settings["seeds"]]
    else:
        cells = _run_cells(settings)
    for cell in cells:  # a JSON output holds finite numbers only
        for key in (*CELL_KEYS, "residual", "spectral"):
            bad = _first_non_finite(cell.get(key))
            if bad is not None:
                raise ConfigError(f"seed {cell['seed']}: {key} holds {bad}, not a finite number; the run overflowed a float")
    residuals = [c["residual"] for c in cells if c["residual"] is not None]
    summary = {"config": config} | {key: [c[key] for c in cells] for key in CELL_KEYS}
    summary["residual_mean"] = float(np.mean(residuals)) if residuals else None
    summary["residual_se"] = float(np.std(residuals, ddof=1) / math.sqrt(len(residuals))) if len(residuals) > 1 else None
    for key in ("residual_mean", "residual_se"):
        bad = _first_non_finite(summary[key])
        if bad is not None:
            raise ConfigError(f"seeds {settings['seeds']}: {key} is {bad}, not a finite number; the run overflowed a float")
    # traces and sidecar detail for writers, and the checked settings;
    # stripped from summary.json
    summary["_cells"] = cells
    summary["_settings"] = settings
    return summary


def _first_non_finite(value):
    """The first float in a value bound for JSON (nested lists and dicts)
    that is NaN or infinite, or None."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return next((bad for bad in map(_first_non_finite, value) if bad is not None), None)
    return value if isinstance(value, float) and not math.isfinite(value) else None


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
        path.write_text(json.dumps(spectral, indent=2, sort_keys=True, allow_nan=False))
        written.append(str(path))
    clean = {k: summary[k] for k in summary if not k.startswith("_")}
    path = out / "summary.json"
    path.write_text(json.dumps(clean, indent=2, sort_keys=True, allow_nan=False))
    written.append(str(path))
    return written


def merge_reports(directory) -> dict:
    """Scan a directory tree for summary.json files and digest them,
    including the headline regret / Rademacher-estimate ratio and, for
    doubling runs, the empirical regret / (beta^2 log^2 n * estimate) rate
    ratio.  A missing directory, a file that is not a JSON object, a
    ``config`` that is not an object, a ``regret`` or ``rad_mean`` that is not
    a list of finite numbers or nulls, a regret / rad_mean ratio that
    overflows, a ``residual_mean`` that is not a finite number or null,
    ``phases`` that are not a list, or a doubling run's spec that cannot be
    built or ``n`` that is not a count raises ``ConfigError``."""
    root = pathlib.Path(directory)
    if not root.is_dir():
        raise ConfigError(f"report directory {str(directory)!r} is not a directory")
    digests = []
    for path in sorted(root.rglob("summary.json")):
        data = load_json(path.read_text, f"{str(path)!r} cannot be read as JSON")
        if not isinstance(data, dict):
            raise ConfigError(f"{str(path)!r} must hold a JSON object, got {data!r}")
        config = data.get("config", {})
        if not isinstance(config, dict):
            raise ConfigError(f"{str(path)!r}: config must be a JSON object, got {config!r}")
        for key in ("regret", "rad_mean"):
            value = data.get(key, [])
            if not (isinstance(value, list) and all(v is None or _is_number(v) for v in value)):
                raise ConfigError(f"{str(path)!r}: {key} must be a list of finite numbers or nulls, got {value!r}")
        residual = data.get("residual_mean")
        if not (residual is None or _is_number(residual)):
            raise ConfigError(f"{str(path)!r}: residual_mean must be a finite number or null, got {residual!r}")
        ratios = []
        for reg, rad in zip(data.get("regret", []), data.get("rad_mean", [])):
            if reg is not None and rad:
                ratios.append(reg / rad)
        if not all(map(math.isfinite, ratios)):
            raise ConfigError(f"{str(path)!r}: a regret / rad_mean ratio overflows a float")
        digest = {
            "path": str(path),
            "algorithm": config.get("algorithm"),
            "regret": data.get("regret"),
            "rad_mean": data.get("rad_mean"),
            "regret_to_rad_ratio": ratios,
            "residual_mean": residual,
        }
        phases = data.get("phases", [])
        if not isinstance(phases, list):
            raise ConfigError(f"{str(path)!r}: phases must be a list, got {phases!r}")
        if any(phases) and config.get("spec") and config.get("n"):
            beta = build_spec(config["spec"]).beta
            n = checked(f"{str(path)!r}: config.n", CONFIG_TABLE["config"]["n"], config["n"])
            scale = beta**2 * math.log(max(n, 2)) ** 2
            digest["doubling_rate_ratio"] = [r / scale for r in ratios]
        digests.append(digest)
    return {"runs": digests}
