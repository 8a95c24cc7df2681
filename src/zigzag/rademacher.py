"""Monte Carlo estimators of empirical Rademacher complexity and statistical
verifiers of sign-invariance (UMD-type) and one-sided decoupling inequalities
on dyadic martingale trees.

A dyadic tree of depth n stores, for each level t, the 2^(t-1) values
x_t(eps_{1:t-1}) indexed by the sign path so far, so a path of signs selects
a predictable process and eps_t x_t(eps_{1:t-1}) is a martingale difference
sequence.  Depth is capped at 14 so exact enumeration over all 2^n paths
stays feasible as an oracle next to every Monte Carlo estimate.

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


def _all_signs(n: int) -> np.ndarray:
    """All 2^n sign paths as float +-1 rows; row i holds the bits of i in
    little-endian order, bit 0 as -1 and bit 1 as +1."""
    codes = np.arange(2**n)
    return (((codes[:, np.newaxis] >> np.arange(n)) & 1) * 2 - 1).astype(float)


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
    def random_gaussian(cls, depth: int, dim: int, rng: np.random.Generator, scale: float = 1.0):
        return cls([scale * rng.normal(size=(2**t, dim)) for t in range(depth)])

    @classmethod
    def constant(cls, depth: int, vectors: np.ndarray):
        """Non-anticipating tree: level t is the constant vector vectors[t]."""
        vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
        if vectors.shape[0] != depth:
            raise ValueError("need one vector per level")
        return cls([np.tile(vectors[t], (2**t, 1)) for t in range(depth)])

    @classmethod
    def prefix_sign(cls, depth: int):
        """Adversarial scalar tree x_t = sign of the running prefix sum
        (ties resolved to +1), so each increment pushes away from zero."""
        levels = [np.ones((1, 1))]
        prefix = np.zeros(1)
        for t in range(1, depth):
            # index i at level t encodes the t signs; build prefix sums for
            # all 2^t paths from the 2^(t-1) parents
            parent_vals = levels[t - 1][:, 0]
            new_prefix = np.empty(2**t)
            for parent in range(2 ** (t - 1)):
                for bit, eps in ((0, -1.0), (1, 1.0)):
                    child = parent | (bit << (t - 1))
                    new_prefix[child] = prefix[parent] + eps * parent_vals[parent]
            vals = np.where(new_prefix >= 0.0, 1.0, -1.0)
            levels.append(vals[:, np.newaxis])
            prefix = new_prefix
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

    def enumerate_paths(self) -> tuple[np.ndarray, np.ndarray]:
        """All 2^depth sign paths and their gathered values."""
        signs = _all_signs(self.depth)
        return signs, self.path_values(signs)


def _se(samples: np.ndarray) -> float:
    if samples.size < 2:
        return 0.0
    return float(np.std(samples, ddof=1) / np.sqrt(samples.size))


def rad_estimate(zs, tag: NormTag, k_samples: int, seed: int) -> tuple[float, float]:
    """Monte Carlo (mean, SE) of ||sum_t eps_t z_t|| over k sign draws."""
    zs = np.asarray(zs, dtype=float)
    if zs.shape[0] == 0:
        return 0.0, 0.0
    if k_samples < 100:
        raise ValueError(f"need at least 100 samples, got {k_samples}")
    rng = substream(seed, "rad")
    signs = rademacher(rng, (k_samples, zs.shape[0])).astype(float)
    sums = np.tensordot(signs, zs, axes=(1, 0))
    norms = tag.norm_batch(sums)
    return float(norms.mean()), _se(norms)


def rad_exact(zs, tag: NormTag) -> float:
    """Exact E_eps ||sum eps_t z_t|| by enumerating all 2^n sign patterns."""
    zs = np.asarray(zs, dtype=float)
    n = zs.shape[0]
    if n == 0:
        return 0.0
    if n > 20:
        raise ValueError("enumeration limited to n <= 20")
    signs = _all_signs(n)
    sums = np.tensordot(signs, zs, axes=(1, 0))
    return float(tag.norm_batch(sums).mean())


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


def maximal_rad_estimate(zs, tag: NormTag, k_samples: int, seed: int) -> tuple[float, float]:
    """Monte Carlo (mean, SE) of max over prefixes tau of
    ||sum_{t<=tau} eps_t z_t||."""
    zs = np.asarray(zs, dtype=float)
    if zs.shape[0] == 0:
        return 0.0, 0.0
    if k_samples < 100:
        raise ValueError(f"need at least 100 samples, got {k_samples}")
    rng = substream(seed, "maximal-rad")
    signs = rademacher(rng, (k_samples, zs.shape[0])).astype(float)
    maxima = _prefix_max_norms(signs, zs, tag)
    return float(maxima.mean()), _se(maxima)


def maximal_rad_exact(zs, tag: NormTag) -> float:
    zs = np.asarray(zs, dtype=float)
    n = zs.shape[0]
    if n == 0:
        return 0.0
    if n > 20:
        raise ValueError("enumeration limited to n <= 20")
    signs = _all_signs(n)
    return float(_prefix_max_norms(signs, zs, tag).mean())


def umd_reference_constant(tag: NormTag, p: float, dim: int) -> dict:
    """Reference sign-invariance constants per space, for reporting next to
    the empirically found ratios.  Entries marked order-only suppress an
    unknown absolute constant."""
    p_star = max(p, p / (p - 1.0)) if p > 1 else float("inf")
    if isinstance(tag, LpTag):
        return {"value": p_star - 1.0, "order_only": False}
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


def umd_check(
    p: float,
    tag: NormTag,
    tree: DyadicTree,
    k_samples: int = 2000,
    n_patterns: int = 64,
    seed: int = 0,
    exact: bool | None = None,
) -> UMDReport:
    """Estimate E||sum xi_t eps_t x_t||^p / E||sum eps_t x_t||^p over a
    search set of fixed sign patterns xi (the all-ones and alternating
    patterns plus random ones) and report the largest ratio^(1/p).

    The search lower-bounds the sign-invariance constant; with ``exact`` (or
    depth <= 12 by default) both sides are full enumerations over paths.
    """
    n = tree.depth
    if exact is None:
        exact = n <= 12
    if exact:
        signs, values = tree.enumerate_paths()
    else:
        rng = substream(seed, "umd-paths")
        signs = rademacher(rng, (k_samples, n))
        values = tree.path_values(signs)

    rng_pat = substream(seed, "umd-patterns")
    patterns = [np.ones(n), np.array([(-1.0) ** t for t in range(n)])]
    patterns += [rademacher(rng_pat, n).astype(float) for _ in range(n_patterns)]

    terms = signs[:, :, np.newaxis] * values  # (paths, n, dim)

    def moment(pattern):
        sums = (terms * pattern[np.newaxis, :, np.newaxis]).sum(axis=1)
        vals = tag.norm_batch(sums) ** p
        return float(vals.mean()), 0.0 if exact else _se(vals)

    rhs_mean, rhs_se = moment(np.ones(n))
    if rhs_mean == 0.0:
        raise ValueError("degenerate tree: the base martingale is identically zero")
    rows = []
    best = 0.0
    for pat in patterns:
        lhs_mean, lhs_se = moment(pat)
        ratio = lhs_mean / rhs_mean
        best = max(best, ratio)
        rows.append((pat.astype(int).tolist(), lhs_mean, lhs_se, ratio))
    return UMDReport(
        p=p,
        rhs_mean=rhs_mean,
        rhs_se=rhs_se,
        patterns=rows,
        max_ratio_root=best ** (1.0 / p),
        reference=umd_reference_constant(tag, p, tree.dim),
        exact=exact,
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
    LHS <= 10^p RHS is asserted via ``bound_ok``; with ``exact`` the pair
    expectation enumerates all 2^n x 2^n sign combinations.
    """
    if tree.dim != 1:
        raise ValueError("decoupling check expects scalar trees")
    n = tree.depth
    if exact is None:
        exact = n <= 8
    if exact:
        signs, values = tree.enumerate_paths()
        terms = (signs[:, :, np.newaxis] * values).squeeze(-1)  # (2^n, n)
        lhs_samples = np.abs(terms.sum(axis=1)) ** p
        fresh = _all_signs(n)
        decoupled = np.abs(fresh @ terms.T) ** p  # (eps', eps)
        lhs_mean, lhs_se = float(lhs_samples.mean()), 0.0
        rhs_mean, rhs_se = float(decoupled.mean()), 0.0
    else:
        rng = substream(seed, "decoupling")
        signs = rademacher(rng, (k_samples, n))
        values = tree.path_values(signs)
        terms = (signs[:, :, np.newaxis] * values).squeeze(-1)
        lhs_samples = np.abs(terms.sum(axis=1)) ** p
        fresh = rademacher(rng, (k_samples, n)).astype(float)
        rhs_samples = np.abs((fresh * terms).sum(axis=1)) ** p
        lhs_mean, lhs_se = float(lhs_samples.mean()), _se(lhs_samples)
        rhs_mean, rhs_se = float(rhs_samples.mean()), _se(rhs_samples)
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
