"""Spatial point-process sampling and thinning.

All operations work on a finite square window with a guard margin: points
are sampled on the larger (guarded) square, while measurements are taken
only on the inner square, so that dependent thinning and interference at
measured points are free of edge effects (minus sampling).

The random primitives take a seed or a ``Generator``, drawn from in place,
so the Monte Carlo engine composes them on one per-realization stream.
Everything is deterministic given an explicit seed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.random  # numpy 2 loads it on first use, which would fall inside a run

from .errors import ParameterError

_ROUNDING = 8.0 * np.finfo(float).eps  # relative pad that covers the rounding of a row key


@dataclass(frozen=True)
class Window:
    """Centered square measurement region with a sampling guard margin.

    The measurement region is the square of side ``2 * half_width``; the
    sampling region is the square of side ``2 * (half_width + guard)``.
    """

    half_width: float
    guard: float = 0.0

    def __post_init__(self) -> None:
        if not (self.half_width > 0 and np.isfinite(self.half_width)):
            raise ParameterError(f"half_width must be positive, got {self.half_width}")
        if not (self.guard >= 0 and np.isfinite(self.guard)):
            raise ParameterError(f"guard must be >= 0, got {self.guard}")

    @property
    def sampling_half_width(self) -> float:
        return self.half_width + self.guard


def sample_ppp(intensity: float, window: Window, seed) -> np.ndarray:
    """Homogeneous Poisson process on the sampling region, as an (n, 2) array;
    ``seed`` is a seed or a ``Generator``, drawn from in place."""
    if intensity < 0:
        raise ParameterError(f"intensity must be >= 0, got {intensity}")
    rng = np.random.default_rng(seed)
    h = window.sampling_half_width
    n = rng.poisson(intensity * (2.0 * h) ** 2)
    return rng.uniform(-h, h, size=(n, 2))


def matern_ii_thin(points: np.ndarray, marks: np.ndarray, delta: float) -> np.ndarray:
    """Dependent (Matern type II) thinning with hard-core distance ``delta``.

    A point survives iff no other point within distance ``delta`` carries a
    larger mark (one per point, e.g. its traffic load), i.e. the locally
    highest load stays on.  Marks are only compared, so any real values
    serve.  Mark ties (measure zero in theory, possible in finite precision)
    are broken by insertion index so the output is always a valid hard-core
    set.
    """
    if delta < 0:
        raise ParameterError(f"delta must be >= 0, got {delta}")
    if len(points) != len(marks):
        raise ParameterError("points and marks must have equal length")
    pts = np.asarray(points, float)
    if delta == 0 or len(pts) < 2:
        return pts.copy()
    i, j = _close_pairs(pts, delta)
    m = np.asarray(marks)
    # total order on (mark, index); the smaller of each conflicting pair dies
    i_loses = (m[i] < m[j]) | ((m[i] == m[j]) & (i < j))
    keep = np.ones(len(pts), dtype=bool)
    keep[np.where(i_loses, i, j)] = False
    return pts[keep]


def _close_pairs(pts: np.ndarray, delta: float):
    """Indices (i, j) of every pair, once, of two or more points at most ``delta`` > 0 apart, by
    the exact test dx^2 + dy^2 <= delta^2 of ``cKDTree.query_pairs``.  Sorted into rows a little
    taller than delta by the key (row, x), a point's partners lie ahead of it in its row, or within
    delta in x in the next row, left or right: ``searchsorted`` finds these windows, padded for
    the keys' rounding, and each candidate is checked exactly.  One window at a time keeps the
    temporaries small."""
    x, y = pts[:, 0], pts[:, 1]
    x0, y0 = x.min(), y.min()
    width = 2.0 * (x.max() - x0) + 3.0 * delta  # holds a row's keys and a window past them
    key = np.floor((y - y0) / (delta + _ROUNDING * (y.max() - y0 + delta))) * width + (x - x0)
    order = np.argsort(key)
    key = key[order]
    pad = _ROUNDING * (key[-1] + width)
    ps = pts[order]
    ahead = np.searchsorted(key, key + (delta + pad), "right")
    next_lo = np.searchsorted(key, key + (width - delta - pad))
    next_mid = np.searchsorted(key, key + width)
    next_hi = np.searchsorted(key, key + (width + delta + pad), "right")
    i, j = [], []
    for first, stop in ((np.arange(1, len(key) + 1), ahead), (next_lo, next_mid), (next_mid, next_hi)):
        count = stop - first
        cand = np.repeat(first - np.cumsum(count) + count, count)
        cand += np.arange(len(cand))
        d = ps.take(cand, axis=0)
        d -= np.repeat(ps, count, axis=0)
        d *= d
        hit = np.flatnonzero(d[:, 0] + d[:, 1] <= delta * delta)
        i.append(np.repeat(order, count).take(hit))
        j.append(order.take(cand.take(hit)))
    return np.concatenate(i), np.concatenate(j)


def random_thin(points: np.ndarray, retain_prob: float, seed) -> np.ndarray:
    """Independent thinning: each point kept with probability ``retain_prob``;
    ``seed`` is a seed or a ``Generator``, drawn from in place."""
    if not 0.0 <= retain_prob <= 1.0:
        raise ParameterError(f"retain_prob must be in [0, 1], got {retain_prob}")
    pts = np.asarray(points, float)
    rng = np.random.default_rng(seed)
    return pts[rng.uniform(size=len(pts)) < retain_prob]


def in_measurement_region(points: np.ndarray, window: Window) -> np.ndarray:
    """Boolean mask of points inside the inner measurement square."""
    pts = np.asarray(points, float)
    if len(pts) == 0:
        return np.zeros(0, dtype=bool)
    return (np.abs(pts) <= window.half_width).all(axis=1)
