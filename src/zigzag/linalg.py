"""Finite-dimensional normed spaces: the norm catalogue, linear minimization
oracles over dual-norm balls, and the running interval-supremum tracker over
prefix sums.

Points are plain numpy arrays (scalars, vectors, or matrices).  Norm tags are
small immutable objects; batched evaluation treats the leading axis as the
batch axis (``GramTag`` and ``GroupP2Tag`` take any number of leading axes).
A tag's ``dual`` is its pairing (x itself for the standard duality product).
Gram products are row-stable: each row is its own vector-matrix product, so a
row's norm and form do not depend on how many rows share the call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "NormTag",
    "LpTag",
    "GramTag",
    "GroupP2Tag",
    "SupTag",
    "OneTag",
    "conjugate",
    "dual_ball_lmo",
    "IntervalSupTracker",
    "check_psd",
]

PSD_TOL = 1e-10
_UNIT_ROUNDOFF = np.finfo(float).eps / 2.0
_TINY = np.finfo(float).smallest_subnormal


def conjugate(p: float) -> tuple[float, float]:
    """Return ``(p', p*)`` for ``p > 1``: the conjugate exponent ``p/(p-1)``
    and ``max(p, p')``."""
    if p <= 1:
        raise ValueError(f"conjugate exponent requires p > 1, got {p}")
    p_prime = p / (p - 1.0)
    return p_prime, max(p, p_prime)


def check_psd(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Validate a finite symmetric PSD matrix, tolerating eigenvalue noise
    down to ``-1e-10``."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must have finite entries")
    if not np.allclose(a, a.T, atol=1e-8):
        raise ValueError(f"{name} must be symmetric")
    w = np.linalg.eigvalsh(a)
    if w.min() < -PSD_TOL:
        raise ValueError(f"{name} is not PSD: min eigenvalue {w.min():.3e}")
    return a


class NormTag:
    """Base class for norm tags. Subclasses implement ``norm_batch`` over the
    leading batch axis."""

    name = "abstract"

    def norm_batch(self, xs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def dual(self, xs):
        """The form of x with <x, z> = sum(dual(x) * z) over the last axis."""
        return xs

    def gram_bound(self) -> float | None:
        """For a norm from an inner product, ``norm(x)^2 = sum(dual(x) * x)``
        with ``dual(x) = x A``: a bound alpha on |x|'|A||y| / (|x|_2 |y|_2).
        None for every other norm."""
        return None

    def underflow(self, shape) -> float:
        """The largest norm of a point of ``shape`` whose computed norm can
        be 0.  Past relative rounding, every computed norm is within it of
        the exact norm, since the terms a norm loses to underflow form such
        a point.  The tracker's triangle bound reads it; a norm from an
        inner product (``gram_bound``) has its own band instead."""
        raise NotImplementedError


@dataclass(frozen=True)
class LpTag(NormTag):
    p: float
    name: str = field(init=False, default="lp")

    def __post_init__(self):
        if self.p <= 1:
            raise ValueError(f"Lp tag requires p in (1, inf), got {self.p}")

    def norm_batch(self, xs):
        xs = np.asarray(xs, dtype=float)
        flat = xs.reshape(xs.shape[0], -1)
        if self.p == 2.0:  # the same bits as the power path, 2-3x faster
            return np.sqrt(np.sum(np.square(flat), axis=1))
        return np.sum(np.abs(flat) ** self.p, axis=1) ** (1.0 / self.p)

    def gram_bound(self):
        return 1.0 if self.p == 2.0 else None

    def underflow(self, shape):
        return (math.prod(shape) * _TINY) ** (1.0 / self.p)  # every |x_i|^p within one ulp of 0


class SupTag(NormTag):
    name = "sup"

    def norm_batch(self, xs):
        xs = np.asarray(xs, dtype=float)
        return np.max(np.abs(xs.reshape(xs.shape[0], -1)), axis=1)

    def underflow(self, shape):
        return 0.0  # no powers: nothing underflows


class OneTag(NormTag):
    name = "one"

    def norm_batch(self, xs):
        xs = np.asarray(xs, dtype=float)
        return np.sum(np.abs(xs.reshape(xs.shape[0], -1)), axis=1)

    def underflow(self, shape):
        return 0.0  # no powers: nothing underflows


class GramTag(NormTag):
    """Norm sqrt(x' A x) of a point given by coefficients against a fixed PSD
    Gram matrix A, batched over any leading axes; negative rounding noise in
    the quadratic form is clamped at zero."""

    name = "gram"

    def __init__(self, gram: np.ndarray):
        self.a = check_psd(gram, "gram")

    def norm_batch(self, xs):
        xs = np.asarray(xs, float)
        return np.sqrt(np.maximum(np.sum(self.dual(xs) * xs, axis=-1), 0.0))

    def dual(self, xs):
        """x' A over the last axis: the form with x' A y = sum(dual(x) * y)."""
        return (np.asarray(xs, float)[..., np.newaxis, :] @ self.a)[..., 0, :]

    def gram_bound(self):
        return float(np.abs(self.a).sum(axis=1).max())  # the largest row sum of |A| bounds its spectral norm


@dataclass(frozen=True)
class GroupP2Tag(NormTag):
    """(p, 2) group norm of a matrix: lp norm of the row-wise l2 norms."""

    p: float
    name: str = field(init=False, default="group-p2")

    def __post_init__(self):
        if self.p <= 1:
            raise ValueError(f"group (p,2) tag requires p in (1, inf), got {self.p}")

    def norm_batch(self, xs):
        xs = np.asarray(xs, dtype=float)
        rows = np.sqrt(np.sum(xs**2, axis=-1))
        return np.sum(rows**self.p, axis=-1) ** (1.0 / self.p)

    def underflow(self, shape):
        # every x_ij^2, or every row norm^p, within one ulp of 0
        rows, cols = shape
        return rows ** (1.0 / self.p) * math.sqrt(cols * _TINY) + (rows * _TINY) ** (1.0 / self.p)


def dual_ball_lmo(g, tag: NormTag) -> np.ndarray:
    """argmin of <w, g> over the unit ball of the dual of ``tag``'s norm, for
    a vector ``g`` or for every row of a ``(K, d)`` batch.

    The comparator class lives in the dual ball, so by duality the optimum
    value is minus the norm of g.  Closed forms are used for lp / gram / sup / one
    tags.  A zero gradient (row) returns zero.

    The pairing is the tag's ``dual``: for gram tags both ``g`` and the
    result are coefficient vectors and <w, g>_G = w' G g (the space is
    self-dual); all other tags pair with the standard duality product.
    """
    g = np.asarray(g, dtype=float)
    if isinstance(tag, LpTag):
        # Hoelder equality: |w_i| ~ |g_i|^(p-1), scaled onto the dual sphere
        w = -np.sign(g) * np.abs(g) ** (tag.p - 1.0)
        p_prime, _ = conjugate(tag.p)
        return w / _nonzero(np.sum(np.abs(w) ** p_prime, axis=-1) ** (1.0 / p_prime))
    if isinstance(tag, SupTag):
        # dual ball is l1: a signed basis vector at the largest |g_i|
        i = np.argmax(np.abs(g), axis=-1)[..., np.newaxis]
        w = np.zeros_like(g)
        np.put_along_axis(w, i, -np.sign(np.take_along_axis(g, i, axis=-1)), axis=-1)
        return w
    if isinstance(tag, OneTag):
        return -np.sign(g)
    if isinstance(tag, GramTag):
        # self-dual Hilbert ball in coefficient coordinates
        return -g / _nonzero(tag.norm_batch(g))
    raise ValueError(f"dual_ball_lmo does not support tag {tag.name!r}")


def _nonzero(norms) -> np.ndarray:
    """Per-row divisors: a zero norm divides by 1, so a zero row stays zero."""
    return np.where(norms > 0.0, norms, 1.0)[..., np.newaxis]


class IntervalSupTracker:
    """Running sup over interval sums of appended increments on K paths:
    ``sups[k]`` is max over 0 <= a <= b <= t of norm(P_b - P_a) for the
    prefix sums of path k.  The paths form ``lanes`` equal lanes (one path
    each unless given); every path of a lane takes its lane's increment z
    times its own sign.  ``append`` takes one z per lane, ``(lanes,
    *shape)``, or one of ``shape`` for every lane, and rejects any other
    shape; without signs every sign is 1, so a tracker with one path per
    lane takes any ``(paths, *shape)`` increment.

    Exact pruning: each live prefix row a keeps, per path, a bound on its
    distance to the newest prefix, and only rows whose bound can reach the
    path's sup are measured; a measured row's bound restarts from its
    measured norm.  Every sup is therefore the maximum over the same
    computed norms as a full O(t)-per-append scan, bit for bit, while the
    share of norms computed falls as the sup grows.  The bound depends on
    the tag alone:

    - for a norm from an inner product (``NormTag.gram_bound``) it is an
      estimate of the squared distance carried by the recurrence
      ``D2[a] += 2 eps <P_{t-1} - P_a, z> + ||z||^2``, whose cross terms
      come from one cumulative sum of ``eps_s <z_s, z>`` over the rows, so
      an append costs O(rows x paths) with no factor of the dimension; a row
      is skipped only when ``D2[a] + band < sup^2`` (``_band``);
    - for every other norm it is the triangle inequality: the increment's
      norm is added to every bound, and a row is skipped only when its
      bound is below ``sup (1 - 1e-9)``, a margin for relative rounding.
      Underflow is absolute: a computed norm can fall short of the exact
      one by the tag's ``underflow`` term, so each increment also adds
      three of those, one for its own norm, one for the row's measured
      norm and one for the norm the scan would compute.

    ``restart`` starts some lanes over as if fresh: their rows before the
    new origin get bound -inf, so the pruning mask also does the reset, and
    rows that no path still reads are dropped when the buffer fills.
    """

    def __init__(self, tag: NormTag, shape=(), paths: int = 1, lanes: int | None = None):
        self.tag = tag
        self.shape = tuple(shape)
        self.k = paths
        self.lanes = paths if lanes is None else lanes
        if self.lanes < 1 or paths % self.lanes:
            raise ValueError(f"{paths} paths do not form {self.lanes} equal lanes")
        self.n = 0
        self.sups = np.zeros(paths)
        self._alpha = tag.gram_bound()  # None: the triangle bound
        self._reach = 0.0 if self._alpha is not None else 3.0 * tag.underflow(self.shape)  # the triangle bound's absolute term per increment
        self._length = np.zeros(self.lanes)  # sum of the lanes' Euclidean increment norms since their origins
        lane_paths = (self.lanes, paths // self.lanes)
        self._prefixes = np.zeros((1, *lane_paths, *self.shape))  # live prefix rows, oldest first
        self._bounds = np.zeros((1, *lane_paths))  # bound per row and path, -inf where the path no longer reads the row
        self._signs = np.zeros((1, *lane_paths))  # each path's sign on the increment that made the row
        self._z = np.zeros((1, self.lanes, math.prod(self.shape)))  # that increment per lane, 0 up to the lane's origin
        self._scratch = np.zeros((1, paths + paths % 2))  # the cross terms, an even row for complex views
        self._live = 1

    def append(self, increment, signs=None) -> None:
        """Extend path j of lane l by ``signs[l, j] * increment[l]``; the
        signs are +-1, ``(lanes, paths / lanes)``, and all 1 if absent."""
        z = np.asarray(increment, dtype=float)
        if z.shape not in (self.shape, (self.lanes, *self.shape)):
            raise ValueError(f"increment shape {z.shape} is neither {self.shape} nor {(self.lanes, *self.shape)}")
        if z.shape == self.shape:
            z = np.repeat(z[np.newaxis], self.lanes, axis=0)
        signs = np.ones(self._bounds.shape[1:]) if signs is None else np.asarray(signs, dtype=float).reshape(self._bounds.shape[1:])
        if self._live == len(self._bounds):
            self._make_room()
        m = self._live
        prev, bounds, new = self._prefixes[:m], self._bounds[:m], self._prefixes[m]
        np.multiply(signs.reshape(*signs.shape, *(1,) * len(self.shape)), z[:, np.newaxis], out=new)
        new += prev[-1]
        flat = z.reshape(self.lanes, -1)
        thresholds = self._extend_bounds(flat, signs)
        idx = np.flatnonzero(bounds >= thresholds)
        if idx.size:
            paths = idx % self.k
            rows = np.take(prev.reshape(m * self.k, *self.shape), idx, axis=0)
            norms = self.tag.norm_batch(np.take(new.reshape(self.k, *self.shape), paths, axis=0) - rows)
            np.put(bounds, idx, self._as_bounds(norms))
            np.maximum.at(self.sups, paths, norms)
        self._bounds[m], self._signs[m], self._z[m] = 0.0, signs, flat
        self._live += 1
        self.n += 1

    def _extend_bounds(self, z, signs) -> np.ndarray:
        """Extend every live row's bound by the newest increment (one flat z
        per lane and the paths' signs) and return the per-path thresholds,
        ``(lanes, paths / lanes)``: a row is measured when its bound is at
        least its path's threshold."""
        bounds = self._bounds[: self._live]
        sups = self.sups.reshape(signs.shape)
        if self._alpha is None:
            bounds += (self.tag.norm_batch(z.reshape(-1, *self.shape)) + self._reach)[:, np.newaxis]
            return sups * (1.0 - 1e-9)
        with np.errstate(over="ignore", invalid="ignore"):  # a lane whose squares overflow measures every row
            self._length += np.sqrt(np.einsum("ld,ld->l", z, z))
            zd = self.tag.dual(z)
            q = self._scratch[: self._live]
            cross = q[:, : self.k].reshape(bounds.shape)
            np.multiply(self._signs[: self._live], np.einsum("mld,ld->ml", self._z[: self._live], zd)[..., np.newaxis], out=cross)
            pairs = q.view(complex)  # two paths per complex addition: the same float additions, half the steps
            np.cumsum(pairs, axis=0, out=pairs)  # cross[a] = sum over s <= a of eps_s <z_s, z>
            width = 2.0 * signs
            shift = width * cross[-1] + np.einsum("ld,ld->l", zd, z)[:, np.newaxis]
            np.multiply(cross, width, out=cross)
            scale = self._alpha * self._length**2
            thresholds = sups * sups - self._band(scale, z.shape[1])[:, np.newaxis]
            out_of_range = ~(scale < 2.0**1019)
            if out_of_range.any():  # every live row becomes +inf; a dead one NaN, which no comparison selects
                cross[:, out_of_range] = 0.0
                shift[out_of_range] = np.inf
                thresholds[out_of_range] = 0.0
            bounds -= cross
            bounds += shift
        return thresholds

    def _as_bounds(self, norms) -> np.ndarray:
        """Measured norms in the bounds' units: squared for the estimates."""
        if self._alpha is None:
            return norms
        with np.errstate(over="ignore"):
            return norms * norms

    def _band(self, scale, dim: int) -> np.ndarray:
        """Half-width of the rounding band of a lane's squared-distance
        estimates, from ``scale = alpha L^2``.

        Let u = 2^-53, tiny = 2^-1074, alpha bound |x|'|A||y| / (|x|_2
        |y|_2) for the matrix A of the tag's pairing (1 for l2), L be the sum
        of the Euclidean norms of the lane's increments since its origin, the
        newest included, and m the live rows.  L bounds the Euclidean norm of
        every exact interval sum X of the lane's paths.  A stored prefix
        gains at most u L of rounding per append, so a stored difference is
        within m u L of X, and its computed norm^2 within (5 m + 2 dim + 5) u
        alpha L^2 of ||X||^2.  An estimate restarts from a measured norm^2
        (3 u more for the root and the square) and then takes at most m steps
        of the recurrence.  In a step the inner products <z_s, z> are each
        within (2 dim + 1) u alpha |z_s| |z|, the cumulative sum within 2 m u
        alpha L |z|, so the doubled cross term is within (4 m + 4 dim + 2) u
        alpha L |z|; <z, z> is within (2 dim + 1) u alpha |z|^2 and the three
        additions into the estimate within 8 u alpha L^2.  Summed over the
        steps, with the sum of the |z| at most L, an estimate is within (17 m
        + 8 dim + 11) u alpha L^2 of ||X||^2, and the computed norm^2 of its
        row within (22 m + 10 dim + 16) u alpha L^2 of the estimate.
        Rounding sup^2 and the threshold sup^2 - band adds 3 u sup^2 <= 4 u
        alpha L^2.  The band's 128 (m + dim + 2) u alpha L^2 covers all of it
        with room for the rounding of L and of the band.  Underflow adds at
        most tiny / 2 to a product: over the dim-term inner products, the
        dual form's error carried through |z_s|_1 <= sqrt(dim) |z_s|_2, the m
        rows and the m steps this stays below 4 (m + dim + 2)^3 (1 + L) tiny.
        A lane whose scale could overflow a float in these steps skips no row
        (``_extend_bounds``).
        """
        reach = self._live + dim + 2
        return 128.0 * reach * _UNIT_ROUNDOFF * scale + 4.0 * reach**3 * _TINY * (1.0 + self._length)

    def restart(self, lanes, increment=None, signs=None) -> None:
        """Start ``lanes`` (an index array or slice of the lane axis) over
        from their newest prefix: from then on their paths read as a fresh
        tracker fed only the later appends.  Given an ``increment`` for
        those lanes (with the paths' ``signs``, in ``append``'s form), they
        start over from the prefix before the newest append instead and
        take it in its place."""
        origin = self._live - (1 if increment is None else 2)
        sups = self.sups.reshape(self._bounds.shape[1:])
        self._prefixes[origin, lanes] = 0.0
        self._bounds[:origin, lanes] = -np.inf
        self._bounds[origin, lanes] = sups[lanes] = 0.0
        self._z[: origin + 1, lanes] = self._length[lanes] = 0.0
        if increment is not None:
            z = np.asarray(increment, dtype=float)
            if signs is None:
                signs = np.ones(sups[lanes].shape)
            zero = self._prefixes[origin, lanes]
            self._prefixes[origin + 1, lanes] = new = zero + np.reshape(signs, (*signs.shape, *(1,) * len(self.shape))) * z[:, np.newaxis]
            norms = self.tag.norm_batch(new.reshape(-1, *self.shape)).reshape(signs.shape)
            self._bounds[origin, lanes] = self._as_bounds(norms)
            sups[lanes] = np.maximum(sups[lanes], norms)
            self._signs[origin + 1, lanes] = signs
            self._z[origin + 1, lanes] = flat = z.reshape(len(norms), -1)
            self._length[lanes] = np.sqrt(np.einsum("ld,ld->l", flat, flat))

    def _make_room(self) -> None:
        """Drop the rows no path reads any more; double the buffer if that
        frees less than half of it."""
        drop = int(np.argmax((self._bounds[: self._live] > -np.inf).any(axis=(1, 2))))
        m = self._live - drop
        rows = len(self._bounds) * (1 if 2 * m <= len(self._bounds) else 2)
        for name in ("_prefixes", "_bounds", "_signs", "_z"):
            old = getattr(self, name)
            new = np.empty((rows, *old.shape[1:]))
            new[:m] = old[drop : self._live]
            setattr(self, name, new)
        self._scratch = np.zeros((rows, self._scratch.shape[1]))
        self._live = m
