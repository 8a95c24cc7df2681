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


class SupTag(NormTag):
    name = "sup"

    def norm_batch(self, xs):
        xs = np.asarray(xs, dtype=float)
        return np.max(np.abs(xs.reshape(xs.shape[0], -1)), axis=1)


class OneTag(NormTag):
    name = "one"

    def norm_batch(self, xs):
        xs = np.asarray(xs, dtype=float)
        return np.sum(np.abs(xs.reshape(xs.shape[0], -1)), axis=1)


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
        if tag.p == 2.0:
            return -g / _nonzero(np.linalg.norm(g, axis=-1))
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
    prefix sums of path k.  ``append`` takes a ``(paths, *shape)`` increment
    (or one of ``shape`` for every path) and rejects any other shape.

    Exact pruning: each live prefix row a keeps, per path, an upper bound on
    norm(P_t - P_a).  By the triangle inequality an append adds the path's
    increment norm to every bound, and only rows whose bound (with a 1e-9
    relative margin for rounding) exceeds the path's sup are measured; a
    measured norm becomes the row's new bound.  Every sup is therefore the
    maximum over the same computed norms as a full O(t)-per-append scan, bit
    for bit, while the share of norms computed falls as the sup grows.

    ``restart`` starts some paths over as if fresh: their rows before the new
    origin get bound -inf, so the pruning mask also does the reset, and rows
    that no path still reads are dropped when the buffer fills.
    """

    def __init__(self, tag: NormTag, shape=(), paths: int = 1):
        self.tag = tag
        self.shape = tuple(shape)
        self.k = paths
        self.n = 0
        self.sups = np.zeros(paths)
        self._prefixes = np.zeros((1, paths, *self.shape))  # live prefix rows, oldest first
        self._bounds = np.zeros((1, paths))  # bound on norm(newest - row), -inf where a path no longer reads the row
        self._live = 1

    def append(self, increment) -> None:
        increment = np.asarray(increment, dtype=float)
        if increment.shape not in (self.shape, (self.k, *self.shape)):
            raise ValueError(f"increment shape {increment.shape} is neither {self.shape} nor {(self.k, *self.shape)}")
        if self._live == len(self._prefixes):
            self._make_room()
        m = self._live
        prev, bounds = self._prefixes[:m], self._bounds[:m]
        new = prev[-1] + increment
        bounds += self.tag.norm_batch(increment.reshape(-1, *self.shape))
        idx = np.flatnonzero(bounds * (1.0 + 1e-9) > self.sups)
        if idx.size:
            rows = np.take(prev.reshape(m * self.k, *self.shape), idx, axis=0)
            np.put(bounds, idx, self.tag.norm_batch(np.take(new, idx % self.k, axis=0) - rows))
            self.sups = np.maximum(self.sups, bounds.max(axis=0))
        self._prefixes[m] = new
        self._bounds[m] = 0.0
        self._live += 1
        self.n += 1

    def restart(self, paths, increment=None) -> None:
        """Start ``paths`` (an index array or slice of the path axis) over
        from their newest prefix: from then on they read as a fresh tracker
        fed only the later appends.  Given an ``increment`` for those paths,
        they start over from the prefix before the newest append instead and
        take ``increment`` in its place."""
        origin = self._live - (1 if increment is None else 2)
        self._prefixes[origin, paths] = 0.0
        self._bounds[:origin, paths] = -np.inf
        self._bounds[origin, paths] = self.sups[paths] = 0.0
        if increment is not None:
            zero = self._prefixes[origin, paths]
            self._prefixes[origin + 1, paths] = new = zero + increment
            self._bounds[origin, paths] = norms = self.tag.norm_batch(new - zero)
            self.sups[paths] = np.maximum(self.sups[paths], norms)

    def _make_room(self) -> None:
        """Drop the rows no path reads any more; double the buffer if that
        frees less than half of it."""
        drop = int(np.argmax((self._bounds[: self._live] > -np.inf).any(axis=1)))
        m = self._live - drop
        rows = len(self._prefixes) * (1 if 2 * m <= len(self._prefixes) else 2)
        prefixes, bounds = np.empty((rows, *self._prefixes.shape[1:])), np.empty((rows, self.k))
        prefixes[:m], bounds[:m] = self._prefixes[drop : self._live], self._bounds[drop : self._live]
        self._prefixes, self._bounds, self._live = prefixes, bounds, m
