"""Monte Carlo estimators of empirical Rademacher complexity and statistical
verifiers of sign-invariance (UMD-type) and one-sided decoupling inequalities
on dyadic martingale trees.

A dyadic tree of depth n stores, for each level t, the 2^(t-1) values
x_t(eps_{1:t-1}) indexed by the sign path so far, so a path of signs selects
a predictable process and eps_t x_t(eps_{1:t-1}) is a martingale difference
sequence.  A tree has at most 14 levels (``MAX_DEPTH``), so the UMD check
takes exact means over all its 2^n paths at every depth, and the
decoupling check up to depth 8 (``DECOUPLING_EXACT_DEPTH``); the exact
Rademacher oracles take sequences of up to 20 steps (``MAX_EXACT_DEPTH``).

Every exact oracle walks the tree level by level: level t holds the 2^t
distinct sign prefixes, each extended by both signs of the next step, so a
running sum and its norm are computed once per prefix rather than once per
leaf below it, and no table of all 2^n sign paths is built.  Leaf i is the
path whose sign t is +1 exactly when bit t of i is set, and each sum is
accumulated in step order as a running sum along its path would be.

Statistical checks report 3-standard-error bands; hard assertions are made
only where an exact identity exists (the scalar second-moment case).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import LpTag, NormTag, OneTag, SupTag
from .rng import rademacher, substream

__all__ = [
    "MAX_DEPTH",
    "MAX_EXACT_DEPTH",
    "MIN_SAMPLES",
    "DECOUPLING_EXACT_DEPTH",
    "DyadicTree",
    "rad_estimate",
    "rad_exact",
    "maximal_rad_estimate",
    "maximal_rad_exact",
    "umd_check",
    "UMDReport",
    "hitczenko_check",
    "DecouplingReport",
    "umd_reference_constant",
]

MAX_DEPTH = 14
MAX_EXACT_DEPTH = 20  # the exact Rademacher oracles enumerate at most 2^20 sign paths
MIN_SAMPLES = 100  # the fewest sign draws a Monte Carlo estimate takes
DECOUPLING_EXACT_DEPTH = 8  # hitczenko_check takes exact means up to this depth and draws paths on deeper trees, unless it is told otherwise
SIGN_BLOCK = 2**13  # floats in an estimate's sign buffer: 64 KiB, below the allocator's 128 KiB mmap threshold


def _sign_blocks(rng: np.random.Generator, k: int, n: int):
    """Yield ``(start, signs)``, rows ``start`` onward of ``rademacher(rng,
    (k, n))`` as floats, one block of rows at a time from the raw stream of
    a fresh generator.  ``rng.integers(0, 2)`` takes the top bit of each
    32-bit half of the raw 64-bit words, low half first; a block holds an
    even number of rows, so it reads whole words and the blocks continue one
    another's draw.  Each block's words are shifted in place and written as
    +-1.0 into one buffer of at most ``SIGN_BLOCK`` floats (two rows for
    rows longer than half of it), which the next block overwrites.  Valid
    only on a generator that has not been drawn from, since ``integers``
    would first use a half word left buffered by an earlier draw."""
    rows = max(2, SIGN_BLOCK // n // 2 * 2)
    buffer = np.empty(rows * n)
    for start in range(0, k, rows):
        count = min(rows, k - start) * n
        halves = rng.bit_generator.random_raw((count + 1) // 2).view(np.uint32)[:count]
        halves >>= 31
        signs = buffer[:count]
        np.multiply(halves, 2.0, out=signs)
        signs -= 1.0
        yield start, signs.reshape(-1, n)


class DyadicTree:
    """A predictable process indexed by sign paths.

    ``levels[t]`` has shape (2^t, dim): the values of x_{t+1} as a function
    of the first t signs.  A sign path maps to a node index via the bits
    (eps + 1) / 2 in little-endian order.
    """

    def __init__(self, levels: list[np.ndarray]):
        if not levels:
            raise ValueError("tree needs at least one level")
        if len(levels) > MAX_DEPTH:
            raise ValueError(f"depth {len(levels)} exceeds the cap of {MAX_DEPTH}")
        self.levels = []
        dim = np.atleast_2d(levels[0]).shape[-1]
        for t, lvl in enumerate(levels):
            arr = np.asarray(lvl, dtype=float).reshape(2**t, -1)
            if arr.shape[1] != dim:
                raise ValueError("all levels must share the same dimension")
            self.levels.append(arr)
        self.depth = len(self.levels)
        self.dim = dim

    @classmethod
    def random_gaussian(cls, depth: int, dim: int, rng: np.random.Generator):
        return cls([rng.normal(size=(2**t, dim)) for t in range(depth)])

    @classmethod
    def prefix_sign(cls, depth: int):
        """Adversarial scalar tree x_t = sign of the running prefix sum
        (ties resolved to +1), so each increment pushes away from zero."""
        levels = [np.ones((1, 1))]
        prefix = np.zeros(1)
        for _ in range(1, depth):
            # at level t a child's index is its parent's plus bit * 2^(t-1),
            # so the children of sign -1 come first, in parent order, then
            # those of sign +1
            vals = levels[-1][:, 0]
            prefix = np.concatenate([prefix - vals, prefix + vals])
            levels.append(np.where(prefix >= 0.0, 1.0, -1.0)[:, np.newaxis])
        return cls(levels)

    def path_values(self, signs: np.ndarray) -> np.ndarray:
        """Gather x_t(eps_{1:t-1}) along sign paths.

        ``signs``: (k, depth) array of +-1.  Returns (k, depth, dim).
        """
        signs = np.asarray(signs)
        k = signs.shape[0]
        out = np.empty((k, self.depth, self.dim))
        idx = np.zeros(k, dtype=int)
        for t in range(self.depth):
            out[:, t, :] = self.levels[t][idx]
            bit = ((signs[:, t] + 1) // 2).astype(int)
            idx = idx | (bit << t)
        return out


def _mean_se(samples: np.ndarray, exact: bool = False) -> tuple[float, float]:
    """Mean and standard error of ``samples``; an exact average has SE 0.

    A sampled mean is x_0 + mean(x - x_0), with the SE from the same
    differences, so equal samples give their value and an SE of exactly 0."""
    if exact or samples.size < 2:
        return float(samples.mean()), 0.0
    diffs = samples - samples[0]
    return float(samples[0] + diffs.mean()), float(np.std(diffs, ddof=1) / np.sqrt(samples.size))


def _sum_norms(signs: np.ndarray, zs: np.ndarray, tag: NormTag) -> np.ndarray:
    """Per sign row, ||sum_t eps_t z_t||."""
    return tag.norm_batch((signs @ zs.reshape(len(zs), -1)).reshape((len(signs), *zs.shape[1:])))


def _prefix_max_norms(signs: np.ndarray, zs: np.ndarray, tag: NormTag) -> np.ndarray:
    """Per sign row, max over tau of ||sum_{t<=tau} eps_t z_t||, from one
    running prefix per row."""
    prefix = np.zeros((signs.shape[0], *zs.shape[1:]))
    best = np.zeros(signs.shape[0])
    axes = (-1,) + (1,) * (zs.ndim - 1)
    for t in range(zs.shape[0]):
        prefix += signs[:, t].reshape(axes) * zs[t]
        best = np.maximum(best, tag.norm_batch(prefix))
    return best


def _estimate(statistic, scope: str, zs, tag: NormTag, k_samples: int, seed: int) -> tuple[float, float]:
    """Monte Carlo (mean, SE) of ``statistic(signs, zs, tag)`` over k sign
    rows drawn from the ``scope`` substream of ``seed``, reduced one block
    of rows at a time (``_sign_blocks``), so memory does not grow with k."""
    zs = np.asarray(zs, dtype=float)
    if zs.shape[0] == 0:
        return 0.0, 0.0
    if k_samples < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {k_samples}")
    samples = np.empty(k_samples)
    for start, signs in _sign_blocks(substream(seed, scope), k_samples, zs.shape[0]):
        samples[start : start + len(signs)] = statistic(signs, zs, tag)
    return _mean_se(samples)


def _exact(per_path, zs, tag: NormTag) -> float:
    """Exact mean of ``per_path(zs, tag)``, one value for each of the 2^n
    sign paths."""
    zs = np.asarray(zs, dtype=float)
    if zs.shape[0] == 0:
        return 0.0
    if zs.shape[0] > MAX_EXACT_DEPTH:
        raise ValueError(f"enumeration limited to n <= {MAX_EXACT_DEPTH}")
    return float(per_path(zs, tag).mean())


def _tree_sums(steps, shape: tuple):
    """Yield, for each level t, the running sums sum_{s<=t} eps_s v_s on all
    2^(t+1) sign prefixes, where ``steps[t]`` is v_t: one value shared by
    every prefix of length t, or one row per prefix.  The children of row j
    are row j (sign -1) and row j + 2^t (sign +1), so row i of the last
    level is leaf i.

    Every level is written in place into one ``(2^n, *shape)`` buffer, by
    the two operations prefix + v and prefix - v that build it, so a yielded
    level is valid only until the next one is yielded."""
    buf = np.empty((2 ** len(steps), *shape))
    buf[0] = 0.0
    w = 1
    for v in steps:
        np.add(buf[:w], v, out=buf[w : 2 * w])
        np.subtract(buf[:w], v, out=buf[:w])
        w *= 2
        yield buf[:w]


def _tree_sum_norms(zs: np.ndarray, tag: NormTag) -> np.ndarray:
    """``_sum_norms`` on every sign path, leaf by leaf: the norms of the
    walk's last level."""
    *_, leaves = _tree_sums(zs, zs.shape[1:])
    return tag.norm_batch(leaves)


def _tree_prefix_max_norms(zs: np.ndarray, tag: NormTag) -> np.ndarray:
    """``_prefix_max_norms`` on every sign path, leaf by leaf; the norm of
    each distinct prefix is computed once.  A child inherits its parent's
    running maximum, in one ``(2^n,)`` array laid out as the walk's
    levels."""
    best = np.zeros(2 ** len(zs))
    for prefix in _tree_sums(zs, zs.shape[1:]):
        w = len(prefix) // 2
        best[w : 2 * w] = best[:w]
        np.maximum(best[: 2 * w], tag.norm_batch(prefix), out=best[: 2 * w])
    return best


def rad_estimate(zs, tag: NormTag, k_samples: int, seed: int) -> tuple[float, float]:
    """Monte Carlo (mean, SE) of ||sum_t eps_t z_t|| over k sign draws."""
    return _estimate(_sum_norms, "rad", zs, tag, k_samples, seed)


def rad_exact(zs, tag: NormTag) -> float:
    """Exact E_eps ||sum eps_t z_t|| over all 2^n sign patterns, by a walk
    over the 2^t distinct prefixes of each level."""
    return _exact(_tree_sum_norms, zs, tag)


def maximal_rad_estimate(zs, tag: NormTag, k_samples: int, seed: int) -> tuple[float, float]:
    """Monte Carlo (mean, SE) of max over prefixes tau of
    ||sum_{t<=tau} eps_t z_t||."""
    return _estimate(_prefix_max_norms, "maximal-rad", zs, tag, k_samples, seed)


def maximal_rad_exact(zs, tag: NormTag) -> float:
    """Exact E_eps max over prefixes tau of ||sum_{t<=tau} eps_t z_t||, by a
    walk over the 2^t distinct prefixes of each level."""
    return _exact(_tree_prefix_max_norms, zs, tag)


def umd_reference_constant(tag: NormTag, p: float, dim: int) -> dict:
    """Reference sign-invariance constants per space, for reporting next to
    the empirically found ratios.  Entries marked order-only suppress an
    unknown absolute constant; the lp constant p* - 1 is stated only for
    p > 1 and is None otherwise."""
    if isinstance(tag, LpTag):
        return {"value": max(p, p / (p - 1.0)) - 1.0 if p > 1 else None, "order_only": False}
    if isinstance(tag, (SupTag, OneTag)):
        return {"value": float(np.log(max(dim, 2))), "order_only": True}
    return {"value": float("nan"), "order_only": True}


@dataclass
class UMDReport:
    p: float
    rhs_mean: float
    rhs_se: float
    patterns: list = field(default_factory=list)  # (pattern, lhs_mean, lhs_se, ratio)
    max_ratio_root: float = 0.0
    reference: dict = field(default_factory=dict)
    exact: bool = False


def umd_check(p: float, tag: NormTag, tree: DyadicTree, n_patterns: int = 64, seed: int = 0) -> UMDReport:
    """Compute E||sum xi_t eps_t x_t||^p / E||sum eps_t x_t||^p over a
    search set of fixed sign patterns xi (the all-ones and alternating
    patterns plus random ones) and report the largest ratio^(1/p).

    The search lower-bounds the sign-invariance constant.  Both sides are
    exact means over all 2^n paths, walked once per pattern, at every depth
    a tree may have; ``seed`` draws the random patterns.
    """
    n = tree.depth
    rng_pat = substream(seed, "umd-patterns")
    patterns = [np.ones(n), np.array([(-1.0) ** t for t in range(n)])]
    patterns += [rademacher(rng_pat, n).astype(float) for _ in range(n_patterns)]

    def moment(pattern):
        *_, leaves = _tree_sums([xi * x for xi, x in zip(pattern, tree.levels)], (tree.dim,))
        return float(np.mean(tag.norm_batch(leaves) ** p))

    moments = [moment(pat) for pat in patterns]
    rhs_mean = moments[0]  # the all-ones pattern leaves the martingale as it is
    if rhs_mean == 0.0:
        raise ValueError("degenerate tree: the base martingale is identically zero")
    rows = [(pat.astype(int).tolist(), mean, 0.0, mean / rhs_mean) for pat, mean in zip(patterns, moments)]
    return UMDReport(
        p=p,
        rhs_mean=rhs_mean,
        rhs_se=0.0,
        patterns=rows,
        max_ratio_root=max(row[3] for row in rows) ** (1.0 / p),
        reference=umd_reference_constant(tag, p, tree.dim),
        exact=True,
    )


@dataclass
class DecouplingReport:
    p: float
    lhs_mean: float
    lhs_se: float
    rhs_mean: float
    rhs_se: float
    empirical_constant: float
    bound_ok: bool
    exact: bool


def hitczenko_check(
    tree: DyadicTree,
    p: float,
    k_samples: int = 4000,
    seed: int = 0,
    exact: bool | None = None,
) -> DecouplingReport:
    """One-sided decoupling on a scalar dyadic tree: compare

        LHS = E_eps     |sum_t eps_t  x_t(eps)|^p
        RHS = E_eps,eps'|sum_t eps'_t eps_t x_t(eps)|^p   (fresh signs eps')

    and report the empirical constant (LHS/RHS)^(1/p).  A loose hard bound
    LHS <= 10^p RHS is asserted via ``bound_ok``.

    With ``exact`` (depth <= 8 by default) both sides are exact means over
    all sign paths.  For a fixed eps, eps' -> delta = eps' eps is a bijection
    of the sign paths, so RHS is the mean over all (delta, eps) pairs of
    |sum_t delta_t x_t(eps)|^p: a walk over delta whose step t is x_t at
    every leaf eps at once.
    """
    if tree.dim != 1:
        raise ValueError("decoupling check expects scalar trees")
    n = tree.depth
    if exact is None:
        exact = n <= DECOUPLING_EXACT_DEPTH
    if exact:
        *_, sums = _tree_sums(tree.levels, (1,))
        # leaf i of eps reads node i mod 2^t of level t
        *_, decoupled = _tree_sums([np.tile(lvl[:, 0], 2 ** (n - t)) for t, lvl in enumerate(tree.levels)], (2**n,))
    else:
        rng = substream(seed, "decoupling")
        signs = rademacher(rng, (k_samples, n))
        terms = signs * tree.path_values(signs)[..., 0]  # eps_t x_t(eps) on (paths, n)
        sums = terms.sum(axis=1)
        decoupled = (rademacher(rng, (k_samples, n)).astype(float) * terms).sum(axis=1)  # one fresh eps' per path
    lhs_mean, lhs_se = _mean_se(np.abs(sums) ** p, exact)
    rhs_mean, rhs_se = _mean_se(np.abs(decoupled) ** p, exact)
    constant = (lhs_mean / rhs_mean) ** (1.0 / p) if rhs_mean > 0 else float("inf")
    return DecouplingReport(
        p=p,
        lhs_mean=lhs_mean,
        lhs_se=lhs_se,
        rhs_mean=rhs_mean,
        rhs_se=rhs_se,
        empirical_constant=constant,
        bound_ok=bool(lhs_mean <= 10.0**p * rhs_mean),
        exact=exact,
    )
