"""Finite-dimensional normed spaces: the norm catalogue, linear minimization
oracles over dual-norm balls, and the running interval-supremum tracker over
prefix sums.

Points are plain numpy arrays (scalars, vectors, or matrices).  Norm tags are
small immutable objects; batched evaluation treats the leading axis as the
batch axis (``GramTag`` and ``GroupP2Tag`` take any number of leading axes).
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
    """Validate a symmetric PSD matrix, tolerating eigenvalue noise down to
    ``-1e-10``."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if not np.allclose(a, a.T, atol=1e-8):
        raise ValueError(f"{name} must be symmetric")
    w = np.linalg.eigvalsh(a)
    if w.min() < -PSD_TOL:
        raise ValueError(f"{name} is not PSD: min eigenvalue {w.min():.3e}")
    return a


class NormTag:
    """Base class for norm tags. Subclasses implement ``norm_batch`` over the
    leading batch axis; ``norm`` is the pointwise convenience wrapper."""

    name = "abstract"

    def norm(self, x) -> float:
        arr = np.asarray(x, dtype=float)
        return float(self.norm_batch(arr[np.newaxis, ...])[0])

    def norm_batch(self, xs: np.ndarray) -> np.ndarray:
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
        return np.asarray(xs, float) @ self.a


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
    """argmin of <w, g> over the unit ball of the dual of ``tag``'s norm.

    The comparator class lives in the dual ball, so by duality the optimum
    value is -tag.norm(g).  Closed forms are used for lp / gram / sup / one
    tags.  A zero gradient returns the zero vector.

    For gram tags both ``g`` and the result are coefficient vectors and the
    pairing is the Hilbert inner product <w, g>_G = w' G g (the space is
    self-dual); all other tags pair with the standard duality product.
    """
    g = np.asarray(g, dtype=float)
    if not np.any(g):
        return np.zeros_like(g)
    if isinstance(tag, LpTag):
        if tag.p == 2.0:
            return -g / np.linalg.norm(g)
        # Hoelder equality: |w_i| ~ |g_i|^(p-1), scaled onto the dual sphere
        mag = np.abs(g) ** (tag.p - 1.0)
        w = -np.sign(g) * mag
        p_prime, _ = conjugate(tag.p)
        return w / np.sum(np.abs(w) ** p_prime) ** (1.0 / p_prime)
    if isinstance(tag, SupTag):
        # dual ball is l1: a signed basis vector at the largest |g_i|
        w = np.zeros_like(g)
        i = np.unravel_index(int(np.argmax(np.abs(g))), g.shape)
        w[i] = -np.sign(g[i])
        return w
    if isinstance(tag, OneTag):
        return -np.sign(g)
    if isinstance(tag, GramTag):
        # self-dual Hilbert ball in coefficient coordinates
        denom = tag.norm(g)
        if denom == 0.0:
            return np.zeros_like(g)
        return -g / denom
    raise ValueError(f"dual_ball_lmo does not support tag {tag.name!r}")


class IntervalSupTracker:
    """Running sup over interval sums of appended increments on K paths:
    ``sups[k]`` is max over 0 <= a <= b <= t of norm(P_b - P_a) for the
    prefix sums of path k.  ``append`` takes a ``(paths, *shape)`` increment
    (or one of ``shape`` for every path) and rejects any other shape;
    ``value`` is path 0's sup.

    Each append costs O(t) norm evaluations per path, so a length-n stream
    costs O(n^2) total; no sub-quadratic scheme exists for general norms.
    The prefixes P_0..P_t live in one buffer that doubles when full.
    """

    def __init__(self, tag: NormTag, shape=(), paths: int = 1):
        self.tag = tag
        self.shape = tuple(shape)
        self.k = paths
        self.n = 0
        self._prefixes = np.zeros((1, paths, *self.shape))
        self.sups = np.zeros(paths)

    @property
    def value(self) -> float:
        return float(self.sups[0])

    def append(self, increment) -> None:
        increment = np.asarray(increment, dtype=float)
        if increment.shape not in (self.shape, (self.k, *self.shape)):
            raise ValueError(f"increment shape {increment.shape} is neither {self.shape} nor {(self.k, *self.shape)}")
        prev = self._prefixes[: self.n + 1]  # (t+1, paths, *shape)
        new = prev[-1] + increment
        diffs = new[np.newaxis] - prev
        norms = self.tag.norm_batch(diffs.reshape(-1, *self.shape)).reshape(self.n + 1, self.k)
        self.sups = np.maximum(self.sups, norms.max(axis=0))
        if self.n + 1 == len(self._prefixes):
            self._prefixes = np.concatenate([self._prefixes, np.empty_like(self._prefixes)])
        self.n += 1
        self._prefixes[self.n] = new
