"""The Burkholder function catalogue.

A Burkholder function U for (norm, p, beta) satisfies

  1. U(x, y) >= ||x||^p - beta^p ||y||^p        (majorization)
  2. a -> U(x + a*z, y + sigma*a*z) is concave for every sigma in {-1, +1}
     (zig-zag concavity)
  3. U(0, 0) <= 0

These three properties are what the ZigZag learner consumes: it only ever
queries U and its directional derivative along zig-zag rays.  The module
provides the concrete constructions, plus numerical probe checks for the
three properties.  Five of them are one kernel: the sharp Hilbert-space
function alpha_p (r - beta_p s)(r + s)^(p-1) of block norms r = |x|_b and
s = |y|_b, summed over blocks (Burkholder 1984).  Scalar power is one
coordinate, lp sums have one block per coordinate, Hilbert balls (Euclidean
or Gram) one block, weighted l2 is the Hilbert p = 2 function with the
weight as Gram matrix, and (p, 2) group norms have one Euclidean block per
row.  The others are an even-power scalar function with elementary constants
and weak-type functions for l1 built from a biconvex zeta function.

Every construction is immutable after creation and all operations are pure,
except that ``ComposedL1U.majorant_batch`` fits and keeps ``fitted_coeff`` on first use.
Points are 0-d arrays for scalar constructions, 1-d arrays for vector ones
and 2-d arrays for matrix ones; ``point_shape`` names the shape.  The queries
``value_batch(xs, ys)``, ``dirderiv_batch(xs, ys, zs, sigmas)``,
``norm_batch(xs)`` and ``majorant_batch(xs, ys)`` live once, on
``BurkholderSpec``, and a construction supplies only its kernels.  A point
argument is any number of leading batch axes followed by ``point_shape``, so
a single point is a batch with no leading axes; ``sigmas`` has the batch
shape alone; any other point shape raises ``ValueError``.  Batch axes
broadcast, so one row of (x, y, z) against ``sigmas = [+1, -1]`` gives both
zig-zag derivatives in one call.

Kink convention: wherever |.| or a norm is non-smooth, the directional
derivative uses the selection sign(0) = 0 (derivative of the even extension).
Any supergradient selection preserves admissibility of the learner.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import (
    GramTag,
    GroupP2Tag,
    LpTag,
    NormTag,
    OneTag,
    conjugate,
)
from .rng import rademacher, substream

__all__ = [
    "BurkholderSpec",
    "ScalarPowerU",
    "LpSumU",
    "HilbertU",
    "WeightedL2U",
    "GroupP2U",
    "EvenPowerU",
    "L1WeakTypeU",
    "ComposedL1U",
    "elementary_scalar_params",
    "zeta_l1",
    "make_spec",
    "SPEC_KEYS",
    "check_majorization",
    "check_zigzag",
    "MajorizationReport",
    "ZigzagReport",
]


def optimal_constants(p: float) -> tuple[float, float]:
    """(alpha_p, beta_p) with alpha_p = p(1 - 1/p*)^(p-1) and beta_p = p* - 1,
    the sharp constants for the scalar power construction."""
    _, p_star = conjugate(p)
    return p * (1.0 - 1.0 / p_star) ** (p - 1.0), p_star - 1.0


# ---------------------------------------------------------------------------


class BurkholderSpec:
    """Base class: a concrete Burkholder function plus its target norm."""

    construction = "abstract"
    p: float
    beta: float
    tag: NormTag
    point_shape: tuple = ()

    # radii used by the probe sampler
    probe_radii = (1.0, 5.0)

    def _points(self, *args) -> list[np.ndarray]:
        """The point arguments as float arrays, each checked to end in
        ``point_shape``, with one more leading axis: the kernels then never
        reduce to numpy scalars, which round differently from arrays, so a
        single point gives the bits of a one-row batch."""
        k = len(self.point_shape)
        points = [np.asarray(a, dtype=float) for a in args]
        for a in points:
            if a.shape[a.ndim - k :] != self.point_shape:
                raise ValueError(f"{self.construction} points have shape {self.point_shape}, got an array of shape {a.shape}")
        return [a[np.newaxis] for a in points]

    def value_batch(self, xs, ys) -> np.ndarray:
        """U at every point of the broadcast batch."""
        return self._value(*self._points(xs, ys))[0]

    def dirderiv_batch(self, xs, ys, zs, sigmas) -> np.ndarray:
        """Supergradient of a -> U(x + a z, y + sigma a z) at a = 0, at every
        point of the broadcast batch."""
        return self._dirderiv(*self._points(xs, ys, zs), np.asarray(sigmas, dtype=float)[np.newaxis])[0]

    def norm_batch(self, xs) -> np.ndarray:
        """The norm of every point of a batch."""
        (xs,) = self._points(xs)
        batch = xs.shape[1 : xs.ndim - len(self.point_shape)]
        return self.tag.norm_batch(xs.reshape((-1, *self.point_shape))).reshape(batch)

    def majorant_batch(self, xs, ys) -> np.ndarray:
        """The function U must dominate: ||x||^p - beta^p ||y||^p."""
        nx = self.norm_batch(xs)
        ny = self.norm_batch(ys)
        return nx**self.p - self.beta**self.p * ny**self.p

    def _value(self, xs, ys) -> np.ndarray:
        raise NotImplementedError

    def _dirderiv(self, xs, ys, zs, sigmas, h: float = 1e-6) -> np.ndarray:
        """Symmetric difference quotient of U along (z, sigma z): the
        supergradient selection of the l1 constructions, which have no closed
        algebraic form."""
        sigmas = sigmas.reshape(sigmas.shape + (1,) * len(self.point_shape))
        up = self._value(xs + h * zs, ys + sigmas * h * zs)
        dn = self._value(xs - h * zs, ys - sigmas * h * zs)
        return (up - dn) / (2.0 * h)

    def sample_points(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Probe sampler: componentwise uniform at two radii, with 10% of
        draws biased onto kinks (a coordinate within 1e-4 of zero)."""
        r_small, r_big = self.probe_radii
        radii = np.where(rng.random(n) < 0.5, r_small, r_big)
        pts = rng.uniform(-1.0, 1.0, size=(n, *self.point_shape))
        pts = pts * radii.reshape((n,) + (1,) * (pts.ndim - 1))
        k = max(1, n // 10)
        idx = rng.choice(n, size=k, replace=False)
        pts[idx] = self._kink_bias(pts[idx], rng)
        return pts

    def _kink_bias(self, pts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        flat = pts.reshape(pts.shape[0], -1)
        cols = rng.integers(0, flat.shape[1], size=flat.shape[0])
        flat[np.arange(flat.shape[0]), cols] = rng.uniform(-1e-4, 1e-4, size=flat.shape[0])
        return flat.reshape(pts.shape)


class _PowerU(BurkholderSpec):
    """The sharp Hilbert-space function alpha_p (r - beta_p s)(r + s)^(p-1)
    of the block norms r = |x|_b and s = |y|_b, summed over the last
    ``block_axes`` axes of the norms (Burkholder 1984).  A block's inner
    product is the tag's pairing over the last point axis: ``tag.dual`` gives
    the form xd of x with <x, z>_b = sum(xd * z), once per point argument of
    a query.  A subclass may state another block norm (``_norms``) and its
    derivative along z (``_slopes``)."""

    block_axes = 0

    def __init__(self, p: float):
        self.p = float(p)
        self.alpha, self.beta = optimal_constants(self.p)

    @staticmethod
    def _norms(xs, xd):
        return np.sqrt(np.maximum(np.sum(xd * xs, axis=-1), 0.0))

    @staticmethod
    def _slopes(xd, r, zs):
        """d/da |x + a z|_b at a = 0 for every block, given r = |x|_b and the
        form xd of x: here <x, z> / r, and 0 at r = 0."""
        pos = r > 0.0
        return np.where(pos, np.sum(xd * zs, axis=-1) / np.where(pos, r, 1.0), 0.0)

    def _sum_blocks(self, u):
        return u.sum(axis=tuple(range(-self.block_axes, 0))) if self.block_axes else u

    def _value(self, xs, ys):
        r = self._norms(xs, self.tag.dual(xs))
        s = self._norms(ys, self.tag.dual(ys))
        return self._sum_blocks(self.alpha * (r - self.beta * s) * (r + s) ** (self.p - 1.0))

    def _dirderiv(self, xs, ys, zs, sigmas):
        # du/dr dr + du/ds ds with dr, ds the block slopes along z and sigma z
        sigmas = sigmas.reshape(sigmas.shape + (1,) * self.block_axes)
        xd = self.tag.dual(xs)
        yd = self.tag.dual(ys)
        r = self._norms(xs, xd)
        s = self._norms(ys, yd)
        t = r + s
        tp1 = t ** (self.p - 1.0)
        safe = t > 0.0
        tp2 = np.where(safe, np.where(safe, t, 1.0) ** (self.p - 2.0), 0.0)
        core = (self.p - 1.0) * (r - self.beta * s) * tp2
        du_dr = self.alpha * (tp1 + core)
        du_ds = self.alpha * (-self.beta * tp1 + core)
        return self._sum_blocks(du_dr * self._slopes(xd, r, zs) + du_ds * (sigmas * self._slopes(yd, s, zs)))


class ScalarPowerU(_PowerU):
    """alpha_p (|x| - beta_p |y|)(|x| + |y|)^(p-1) on the real line, the sharp
    construction for |.|^p: one coordinate block."""

    construction = "scalar-p"
    point_shape = ()
    tag = LpTag(2.0)  # any lp tag is |.| in one dimension

    @staticmethod
    def _norms(xs, xd):
        return np.abs(xs)

    @staticmethod
    def _slopes(xd, r, zs):
        # sign(x) z (the form of x is x), with the kink selection sign(0) = 0
        return np.sign(xd) * zs


class LpSumU(ScalarPowerU):
    """Coordinate-wise sum of the scalar power function; Burkholder for
    (||.||_p^p, p, beta_p) since every property survives addition."""

    construction = "lp-sum"
    block_axes = 1

    def __init__(self, p: float, dim: int):
        super().__init__(p)
        self.dim = int(dim)
        self.tag = LpTag(self.p)
        self.point_shape = (self.dim,)


class HilbertU(_PowerU):
    """The scalar power construction applied to Hilbert-space norms, valid in
    any dimension: one block.  The inner product is either the Euclidean one
    (pass ``dim``) or an explicit Gram matrix over representer coefficients
    (pass ``gram``)."""

    construction = "hilbert"

    def __init__(self, p: float, dim: int | None = None, gram: np.ndarray | None = None):
        super().__init__(p)
        if (dim is None) == (gram is None):
            raise ValueError("provide exactly one of dim or gram")
        if gram is not None:
            self.tag = GramTag(gram)
            self.dim = self.tag.a.shape[0]
        else:
            self.dim = int(dim)
            self.tag = LpTag(2.0)
        self.point_shape = (self.dim,)


class WeightedL2U(HilbertU):
    """x'Ax - y'Ay for a PSD weight matrix A: the Hilbert p = 2 function
    (alpha_2 = beta_2 = 1) with A as the Gram matrix."""

    construction = "weighted-l2"

    def __init__(self, a: np.ndarray):
        super().__init__(2.0, gram=a)


class GroupP2U(_PowerU):
    """Row-wise sum of the Hilbert construction over matrices: Burkholder for
    the (p, 2) group norm raised to the p.  Each row is a Euclidean block."""

    construction = "group-p2"
    block_axes = 1

    def __init__(self, p: float, shape: tuple[int, int]):
        super().__init__(p)
        self.shape = (int(shape[0]), int(shape[1]))
        self.tag = GroupP2Tag(self.p)
        self.point_shape = self.shape


def elementary_scalar_params(k: int) -> tuple[float, float, float]:
    """Constants (C, B, majorant_coeff) for the even-power scalar function
    x^k - C x^(k-2) y^2 - B y^k, built from first principles via Young's
    inequality rather than the sharp PDE solution.

    C = 2 binom(k,2); B = (2 C binom(k-2,2))^(k-2) / ((k-2) binom(k,2));
    after scaling by k/2 the function dominates |x|^k - majorant_coeff |y|^k
    with majorant_coeff = C^(k/2) + (k/2) B.
    """
    if k < 4 or k % 2 != 0:
        raise ValueError(f"even-power construction requires even k >= 4, got {k}")
    c = 2.0 * math.comb(k, 2)
    b = (2.0 * c * math.comb(k - 2, 2)) ** (k - 2) / ((k - 2) * math.comb(k, 2))
    coeff = c ** (k / 2.0) + (k / 2.0) * b
    return c, b, coeff


class EvenPowerU(BurkholderSpec):
    """(k/2)(x^k - C x^(k-2) y^2 - B y^k) for even k >= 4: an elementary
    scalar construction with non-sharp constants."""

    construction = "even-power"
    point_shape = ()
    probe_radii = (1.0, 3.0)

    def __init__(self, k: int):
        self.k = int(k)
        self.c, self.b, coeff = elementary_scalar_params(self.k)
        self.p = float(self.k)
        self.beta = coeff ** (1.0 / self.k)
        self.tag = LpTag(2.0)

    def _value(self, x, y):
        k = self.k
        return (k / 2.0) * (x**k - self.c * x ** (k - 2) * y**2 - self.b * y**k)

    def _dirderiv(self, x, y, z, sigmas):
        k = self.k
        sz = sigmas * z
        d = (
            k * x ** (k - 1) * z
            - self.c * ((k - 2) * x ** (k - 3) * y**2 * z + 2.0 * x ** (k - 2) * y * sz)
            - self.b * k * y ** (k - 1) * sz
        )
        return (k / 2.0) * d


# ---------------------------------------------------------------------------
# weak-type functions for l1 via a biconvex zeta function


def _z_coordinate(x, y, a):
    """Per-coordinate biconvex kernel; two branches split at
    |x+y| + |x-y| = 2/a, where they agree (the split is continuous)."""
    u = np.abs(x + y)
    v = np.abs(x - y)
    s = u + v
    first = a * x * y / 2.0 - 1.0 / (2.0 * a)
    arg = np.maximum((a / 2.0) * s, 1e-300)
    second = (u / 2.0) * np.log(arg) - v / 2.0
    return np.where(s <= 2.0 / a, first, second)


def zeta_l1(xs, ys, a: float) -> np.ndarray:
    """The biconvex zeta function for the l1 norm over the last axis:
    (2 / log(3a)) (1 + sum_i z(x_i, y_i))."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    return (2.0 / math.log(3.0 * a)) * (1.0 + _z_coordinate(xs, ys, a).sum(axis=-1))


class L1WeakTypeU(BurkholderSpec):
    """Weak-type function for the l1 norm: U(x, y) = 1 - u(x+y, y-x) / u(0,0),
    where u is the canonical biconvex extension of zeta:

      u(x, y) = max(zeta(x, y), ||x+y||_1)   if max(||x||_1, ||y||_1) < 1
      u(x, y) = ||x+y||_1                    otherwise.

    It dominates 1{||x||_1 >= 1} - (2/u(0,0)) ||y||_1 rather than a power
    difference; the shifted-majorization composition turns a scaled stack of
    these into a function for ||.||_1 itself (see ComposedL1U).  The interior
    kernel max(zeta, ||x+y||_1) is ``_u_interior``, the one body both classes
    evaluate; zeta is computed only for rows inside the unit ball.
    """

    construction = "l1-weak"

    def __init__(self, a: float, dim: int):
        self.a = float(a)
        self.dim = int(dim)
        if self.dim >= 2 and self.a < self.dim * math.log(self.dim):
            warnings.warn(
                f"a={self.a} below the validity threshold d*log(d)={self.dim * math.log(self.dim):.3f}; "
                "the weak-type properties may fail",
                stacklevel=2,
            )
        self.tag = OneTag()
        self.point_shape = (self.dim,)
        self.u00 = float(self._u_interior(np.zeros(self.dim), np.zeros(self.dim)))
        if self.u00 <= 0.0:
            raise ValueError(f"u(0,0) = {self.u00:.6g} <= 0: invalid parameters (a={a}, d={dim})")
        self.p = 1.0
        self.beta = 2.0 / self.u00  # weak-type constant

    def _u_interior(self, xs, ys):
        """u(x, y) for points inside the unit ball max(||x||_1, ||y||_1) < 1."""
        return np.maximum(zeta_l1(xs, ys, self.a), np.sum(np.abs(xs + ys), axis=-1))

    def _u_batch(self, xs, ys):
        u = np.sum(np.abs(xs + ys), axis=-1)
        inside = np.maximum(np.sum(np.abs(xs), axis=-1), np.sum(np.abs(ys), axis=-1)) < 1.0
        u[inside] = self._u_interior(xs[inside], ys[inside])
        return u

    def _value(self, xs, ys):
        return 1.0 - self._u_batch(xs + ys, ys - xs) / self.u00

    def majorant_batch(self, xs, ys):
        return np.where(self.norm_batch(xs) >= 1.0, 1.0, 0.0) - self.beta * self.norm_batch(ys)

    def _kink_bias(self, pts, rng):
        # the interesting kink is the unit l1 sphere
        norms = self.tag.norm_batch(pts)
        norms = np.where(norms == 0.0, 1.0, norms)
        target = 1.0 + rng.uniform(-1e-4, 1e-4, size=pts.shape[0])
        scale = (target / norms).reshape((pts.shape[0],) + (1,) * (pts.ndim - 1))
        return pts * scale


# (row, level) pairs per interior chunk of ComposedL1U.value_batch; a chunk
# holds whole rows, so only a row with more interior levels exceeds it
_LEVEL_CHUNK = 1 << 12


class ComposedL1U(BurkholderSpec):
    """Stack of rescaled weak-type functions approximating a Burkholder
    function for ||.||_1 at power one:

      U1(x, y) = eps * sum_{k=1..N} U_weak(x / (k eps), y / (k eps)),
      N = ceil(B / eps),

    valid up to additive slack eps for ||x||_1, ||y||_1 <= B.  The
    majorization constant in front of log(B/eps)*||y||_1 is fitted
    empirically by ``fit_majorant_coeff``; since a finite-probe maximum
    estimates the true supremum from below, the majorant applies a small
    safety margin on top of the fitted value.  Probes are drawn inside the
    validity region (the l1 ball of radius B).

    Evaluation (the weak-type to strong-type layer-cake step of Burkholder
    1984): level lambda_k is exterior for a row when m = max(||x+y||_1,
    ||y-x||_1) >= lambda_k, and there the weak function is affine,
    1 - beta ||y||_1 / lambda_k with beta = 2/u(0,0).  The K exterior levels
    of a row therefore sum in closed form to K - beta ||y||_1 H_K, where
    ``harmonic[K]`` = H_K = sum_{k<=K} 1/lambda_k.  Only the interior
    (row, level) pairs go through the weak function's interior kernel, in
    chunks of whole rows, so a row's value does not depend on the rest of
    the batch.
    """

    construction = "l1-composed"
    fit_margin = 1.05

    def __init__(self, weak: L1WeakTypeU, bound: float, eps: float):
        if not (bound > eps > 0.0):
            raise ValueError(f"need B > eps > 0, got B={bound}, eps={eps}")
        self.weak = weak
        self.bound = float(bound)
        self.eps = float(eps)
        self.n_levels = math.ceil(self.bound / self.eps)
        self.lam = self.eps * np.arange(1, self.n_levels + 1)
        self.harmonic = np.concatenate(([0.0], np.cumsum(1.0 / self.lam)))
        self.tag = OneTag()
        self.dim = weak.dim
        self.point_shape = (self.dim,)
        self.p = 1.0
        self.beta = weak.beta
        self.fitted_coeff: float | None = None

    def sample_points(self, rng: np.random.Generator, n: int) -> np.ndarray:
        # uniform direction on the l1 sphere scaled by a uniform radius in
        # (0, B]; 10% of draws land within 1e-4 of a level boundary lambda_k,
        # where the stacked weak functions have their kinks
        pts = rng.uniform(-1.0, 1.0, size=(n, self.dim))
        norms = self.tag.norm_batch(pts)
        norms = np.where(norms == 0.0, 1.0, norms)
        radii = self.bound * rng.uniform(0.0, 1.0, size=n)
        pts = pts * (radii / norms)[:, np.newaxis]
        k = max(1, n // 10)
        idx = rng.choice(n, size=k, replace=False)
        lam = self.lam[rng.integers(0, self.n_levels, size=k)]
        target = lam + rng.uniform(-1e-4, 1e-4, size=k)
        cur = self.tag.norm_batch(pts[idx])
        cur = np.where(cur == 0.0, 1.0, cur)
        pts[idx] = pts[idx] * (target / cur)[:, np.newaxis]
        return pts

    def _value(self, xs, ys):
        xs, ys = np.broadcast_arrays(xs, ys)
        batch = xs.shape[:-1]
        x = xs.reshape(-1, self.dim)
        y = ys.reshape(-1, self.dim)
        # the levels lambda_k <= m are exterior, and sum in closed form
        m = np.maximum(np.sum(np.abs(x + y), axis=1), np.sum(np.abs(y - x), axis=1))
        n_ext = np.searchsorted(self.lam, m, side="right")
        total = n_ext - self.beta * np.sum(np.abs(y), axis=1) * self.harmonic[n_ext]
        # the interior (row, level) pairs, level by level within a row
        counts = self.n_levels - n_ext
        ends = np.cumsum(counts)
        lo = 0
        while lo < len(counts):
            start = ends[lo] - counts[lo]
            hi = max(lo + 1, int(np.searchsorted(ends, start + _LEVEL_CHUNK, side="right")))
            c = counts[lo:hi]
            rows = np.repeat(np.arange(hi - lo), c)
            level = np.arange(rows.size) - np.repeat(np.cumsum(c) - c - n_ext[lo:hi], c)
            lam = self.lam[level][:, np.newaxis]
            xl = x[lo:hi][rows] / lam
            yl = y[lo:hi][rows] / lam
            w = 1.0 - self.weak._u_interior(xl + yl, yl - xl) / self.weak.u00
            total[lo:hi] += np.bincount(rows, weights=w, minlength=hi - lo)
            lo = hi
        return self.eps * total.reshape(batch)

    def fit_majorant_coeff(self, n_probes: int = 20_000, seed: int = 0) -> float:
        """Smallest C such that ||x||_1 - C*beta*log(B/eps)*||y||_1 - eps
        stays below U1 on the probe set (all probes lie in the valid
        region)."""
        rng = substream(seed, "composed-fit")
        xs = self.sample_points(rng, n_probes)
        ys = self.sample_points(rng, n_probes)
        nx = self.norm_batch(xs)
        ny = self.norm_batch(ys)
        vals = self.value_batch(xs, ys)
        scale = self.beta * math.log(self.bound / self.eps)
        pos = ny > 1e-9
        need = (nx[pos] - self.eps - vals[pos]) / (scale * ny[pos])
        coeff = float(np.max(need)) if need.size else 0.0
        self.fitted_coeff = max(coeff, 0.0)
        return self.fitted_coeff

    def majorant_batch(self, xs, ys):
        if self.fitted_coeff is None:
            self.fit_majorant_coeff()
        scale = self.fit_margin * self.fitted_coeff * self.beta * math.log(self.bound / self.eps)
        return self.norm_batch(xs) - scale * self.norm_batch(ys) - self.eps


# ---------------------------------------------------------------------------
# probe checks


@dataclass
class MajorizationReport:
    violations: int
    worst_slack: float
    n_probes: int

    @property
    def ok(self) -> bool:
        return self.violations == 0


@dataclass
class ZigzagReport:
    midpoint_violations: int
    worst_midpoint_slack: float
    second_diff_breaches: int
    worst_second_diff: float
    n_probes: int

    @property
    def ok(self) -> bool:
        return self.midpoint_violations == 0 and self.second_diff_breaches == 0


def check_majorization(
    spec: BurkholderSpec,
    n_probes: int = 10_000,
    seed: int = 0,
    tol: float = 1e-9,
    majorant=None,
) -> MajorizationReport:
    """Count probes where U(x, y) < majorant(x, y) - tol and record the worst
    slack min(U - majorant)."""
    rng = substream(seed, "majorization", spec.construction)
    xs = spec.sample_points(rng, n_probes)
    ys = spec.sample_points(rng, n_probes)
    vals = spec.value_batch(xs, ys)
    maj = majorant(xs, ys) if majorant is not None else spec.majorant_batch(xs, ys)
    slack = vals - maj
    return MajorizationReport(
        violations=int(np.sum(slack < -tol)),
        worst_slack=float(slack.min()),
        n_probes=n_probes,
    )


def check_zigzag(
    spec: BurkholderSpec,
    n_probes: int = 10_000,
    seed: int = 0,
    tol: float = 1e-7,
    value_fn=None,
) -> ZigzagReport:
    """Probe zig-zag concavity along a -> U(x + a z, y + sigma a z).

    Midpoint test: U at the midpoint of a random interval [t1, t2] must be at
    least the endpoint average, slack >= -tol.  A raw central second
    difference at a random offset must stay below 1e-10 times the local
    magnitude of U (at least 1).
    """
    rng = substream(seed, "zigzag", spec.construction)
    fn = value_fn if value_fn is not None else spec.value_batch
    xs = spec.sample_points(rng, n_probes)
    ys = spec.sample_points(rng, n_probes)
    zs = spec.sample_points(rng, n_probes)
    sigma = rademacher(rng, n_probes).astype(float)
    ts = np.sort(rng.uniform(-1.5, 1.5, size=(n_probes, 2)), axis=1)
    t1, t2 = ts[:, 0], ts[:, 1]
    tm = 0.5 * (t1 + t2)

    extra = (1,) * (xs.ndim - 1)

    def at(alpha):
        a = alpha.reshape((-1,) + extra)
        s = sigma.reshape((-1,) + extra)
        return fn(xs + a * zs, ys + s * a * zs)

    v1, v2, vm = at(t1), at(t2), at(tm)
    slack = vm - 0.5 * (v1 + v2)
    midpoint_violations = int(np.sum(slack < -tol))

    # raw central second difference, scaled by the local magnitude of U
    h = 1e-3
    a0 = rng.uniform(-1.0, 1.0, size=n_probes)
    v0 = at(a0)
    sd = (at(a0 - h) + at(a0 + h) - 2.0 * v0) / np.maximum(1.0, np.abs(v0))

    return ZigzagReport(
        midpoint_violations=midpoint_violations,
        worst_midpoint_slack=float(slack.min()),
        second_diff_breaches=int(np.sum(sd > 1e-10)),
        worst_second_diff=float(sd.max()),
        n_probes=n_probes,
    )


# ---------------------------------------------------------------------------


# the keys each construction reads, besides ``construction``
SPEC_KEYS = {
    "scalar-p": ("p",),
    "lp-sum": ("p", "d"),
    "hilbert": ("p", "d", "gram"),
    "weighted-l2": ("weight",),
    "group-p2": ("p", "d", "shape"),
    "even-power": ("k",),
    "l1-weak": ("a", "d"),
    "l1-composed": ("a", "d", "B", "eps"),
}


def make_spec(cfg: dict) -> BurkholderSpec:
    """Build a construction from a config mapping.

    Recognized ``construction`` values are the keys of ``SPEC_KEYS``; any
    key that the construction does not read raises ``ValueError``.
    """
    kind = cfg["construction"]
    if kind not in SPEC_KEYS:
        raise ValueError(f"unknown construction {kind!r}")
    unknown = [key for key in cfg if key != "construction" and key not in SPEC_KEYS[kind]]
    if unknown:
        raise ValueError(f"unknown spec key {unknown[0]!r} for construction {kind!r}, which takes {', '.join(SPEC_KEYS[kind])}")
    if kind == "scalar-p":
        return ScalarPowerU(cfg["p"])
    if kind == "lp-sum":
        return LpSumU(cfg["p"], cfg["d"])
    if kind == "hilbert":
        return HilbertU(cfg.get("p", 2.0), dim=cfg.get("d"), gram=cfg.get("gram"))
    if kind == "weighted-l2":
        return WeightedL2U(cfg["weight"])
    if kind == "group-p2":
        return GroupP2U(cfg["p"], cfg.get("shape", (cfg["d"], cfg["d"])))
    if kind == "even-power":
        return EvenPowerU(cfg["k"])
    if kind == "l1-weak":
        return L1WeakTypeU(cfg["a"], cfg["d"])
    return ComposedL1U(L1WeakTypeU(cfg["a"], cfg["d"]), cfg["B"], cfg["eps"])  # l1-composed
