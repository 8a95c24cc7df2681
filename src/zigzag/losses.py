"""Convex 1-Lipschitz losses with deterministic subgradient selection.

Each loss has one body, ``loss_batch`` / ``dloss_batch``, evaluated pointwise
over arrays; ``loss`` and ``dloss`` are its scalar form.
"""

from __future__ import annotations

import numpy as np

__all__ = ["LOSSES", "loss", "dloss", "loss_batch", "dloss_batch"]

LOSSES = ("hinge", "absolute", "linear")


def loss(fn: str, yhat: float, y: float) -> float:
    return float(loss_batch(fn, yhat, y))


def dloss(fn: str, yhat: float, y: float) -> float:
    return float(dloss_batch(fn, yhat, y))


def loss_batch(fn: str, yhat: np.ndarray, y: np.ndarray) -> np.ndarray:
    yhat = np.asarray(yhat, dtype=float)
    y = np.asarray(y, dtype=float)
    if fn == "hinge":
        return np.maximum(0.0, 1.0 - yhat * y)
    if fn == "absolute":
        return np.abs(yhat - y)
    if fn == "linear":
        return -yhat * y
    raise ValueError(f"unknown loss {fn!r}")


def dloss_batch(fn: str, yhat: np.ndarray, y: np.ndarray) -> np.ndarray:
    """A subgradient of the loss in its first argument, always in [-1, 1].

    At kinks the selection is 0: hinge picks 0 at and beyond the margin,
    absolute picks 0 at yhat == y.
    """
    yhat = np.asarray(yhat, dtype=float)
    y = np.asarray(y, dtype=float)
    if fn == "hinge":
        return np.where(1.0 - yhat * y > 0.0, -y, 0.0)
    if fn == "absolute":
        return np.sign(yhat - y)
    if fn == "linear":
        return -y * np.ones_like(yhat)
    raise ValueError(f"unknown loss {fn!r}")
