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

_CELL_PAD = 8.0 * np.finfo(float).eps  # relative pad on a cell side, for rounding

# Allocated and freed at once: freeing a mapped 1 MB block raises glibc's malloc trim threshold
# to 2 MB, so the few-hundred-kB temporaries of ``matern_ii_thin`` and of each Monte Carlo
# realization stop being mapped and faulting their pages in on every call (25-44k minor faults
# in a benchmark mc-sweep pass without it).  It runs on importing this module, which every run does.
np.empty(1 << 17)


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
    set.  Distances are tested exactly as ``cKDTree.query_pairs`` does, dx^2 +
    dy^2 <= delta^2, on a grid of cells that each hold their highest mark
    (README, "Numerical notes").
    """
    if delta < 0:
        raise ParameterError(f"delta must be >= 0, got {delta}")
    if len(points) != len(marks):
        raise ParameterError("points and marks must have equal length")
    pts = np.asarray(points, float)
    n = len(pts)
    if delta == 0 or n < 2:
        return pts.copy()
    x, y = pts[:, 0], pts[:, 1]
    x0, y0 = x.min(), y.min()
    span = max(x.max() - x0, y.max() - y0)
    pad = _CELL_PAD * (span + delta)  # covers the rounding of the cell indices and of the test
    # over 3 points within delta of a point on average: cells of side delta/√8 less the pad put any
    # two points of a 3x3 block within delta, and number under 8πn/3.  Else at most about 4n cells.
    fine = n * np.pi * delta * delta > 3.0 * span * span
    side, reach = ((delta - pad) / np.sqrt(8.0), 3) if fine else (max(delta + pad, span / (2.0 * np.sqrt(n))), 1)
    cx = ((x - x0) / side).astype(np.intp)
    cy = ((y - y0) / side).astype(np.intp)
    width = int(cx.max()) + 2 * reach + 1  # an empty border of reach cells on every side
    size = (int(cy.max()) + 2 * reach + 1) * width
    order = np.argsort(cy * width + cx)
    cell = (cy[order] + reach) * width + cx[order] + reach
    xs, ys, ms = x[order], y[order], np.asarray(marks)[order]
    top = np.full(size, ms.min())  # the highest mark of each cell
    np.maximum.at(top, cell, ms)
    run = 2 * reach + 1  # r3[c] and row[c]: the highest mark of cells c .. c + 2 and c .. c + run - 1
    r3 = np.maximum(np.maximum(top[:-2], top[1:-1]), top[2:])
    row = r3 if run == 3 else np.maximum(np.maximum(r3[:-4], r3[3:-1]), r3[4:])
    dead = np.zeros(n, dtype=bool)
    if fine:  # a higher mark in the 3x3 block around a point's cell c (at c - width - 1) removes it
        dead = np.maximum(np.maximum(r3[: -2 * width], r3[width:-width]), r3[2 * width :])[cell - width - 1] > ms
    # every other point is checked exactly against the rows of cells within delta of its own whose
    # highest mark is at least its own; cell c holds the sorted points first[c] .. first[c + 1] - 1
    first = np.concatenate(([0], np.cumsum(np.bincount(cell, minlength=size))))
    rest = np.flatnonzero(~dead)
    seg = (cell[rest, None] + np.arange(-reach * (width + 1), reach * width, width)).reshape(-1)
    k = np.flatnonzero(row[seg] >= np.repeat(ms[rest], run))
    lo = first[seg[k]]
    cnt = first[seg[k] + run] - lo
    i = np.repeat(rest[k // run], cnt)
    j = np.repeat(lo - np.cumsum(cnt) + cnt, cnt) + np.arange(cnt.sum())
    hit = np.flatnonzero((xs[j] - xs[i]) ** 2 + (ys[j] - ys[i]) ** 2 <= delta * delta)
    i, j = i[hit], j[hit]
    # total order on (mark, index); the smaller of each conflicting pair dies
    dead[i[(ms[i] < ms[j]) | ((ms[i] == ms[j]) & (order[i] < order[j]))]] = True
    return np.delete(pts, order[dead], axis=0)


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
