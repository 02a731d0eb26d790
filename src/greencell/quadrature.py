"""Fixed Gauss-Legendre (32, 64 nodes) and Gauss-Hermite (96 nodes) rules,
built once at import without LAPACK, their mapping onto panels, and the
bracketed root finder of the analytic path."""
from decimal import Decimal, localcontext

import numpy as np

_SQRT_PI = Decimal("1.7724538509055160272981674833411451827975494561224")


def _recurrence(x, a, c):
    """q_{n-1}, q_n and q_n' at ``x`` for q_{k+1} = a_k x q_k - c_k q_{k-1},
    q_0 = 1, n = len(a), with integer a_k, c_k.  ``x`` is a numpy array of
    doubles or a single ``Decimal``; the arithmetic is the same for both."""
    q_prev, q, dq_prev, dq = 0 * x, 0 * x + 1, 0 * x, 0 * x
    for ak, ck in zip(a, c):
        q_prev, q, dq_prev, dq = (
            q,
            ak * (x * q) - ck * q_prev,
            dq,
            ak * (q + x * dq) - ck * dq_prev,
        )
    return q_prev, q, dq


def _gauss_rule(a, c, mu0, grid):
    """Gauss rule for the even degree n = len(a) member of a symmetric family
    q_{k+1} = a_k x q_k - c_k q_{k-1} with integer a_k, c_k, weights summing
    to the measure's mass ``mu0`` (a ``Decimal``).

    No eigensolver: the positive roots are bracketed by sign changes on
    ``grid`` (ascending from 0, fine enough to separate them) and
    Newton-iterated on the recurrence in double.  Each root then gets two
    Newton steps in 40-digit decimal arithmetic, where its weight
    1 / (q_{n-1} q_n') and the normalization are also formed, so every node
    and weight is rounded to double once (tests/test_analytics.py checks
    both against 50-digit rules).  Weights from the recurrence in double are
    off by up to ~500 ulp near the ends of the interval.
    """
    n = len(a)
    if n % 2:
        raise ValueError("need an even degree")
    q = _recurrence(grid, a, c)[1]
    i = np.flatnonzero(np.signbit(q[:-1]) != np.signbit(q[1:]))
    if len(i) != n // 2:
        raise ArithmeticError(f"grid separates {len(i)} of {n // 2} positive roots")
    x = grid[i] - q[i] * (grid[i + 1] - grid[i]) / (q[i + 1] - q[i])
    for _ in range(50):
        _, q, dq = _recurrence(x, a, c)
        step = q / dq
        x = x - step
        if np.abs(step).max() <= 1e-13 * x.max():
            break
    else:
        raise ArithmeticError("Gauss rule Newton iteration did not converge")
    nodes, weights = [], []
    with localcontext() as ctx:  # localcontext(prec=40) needs Python 3.11
        ctx.prec = 40
        for xi in map(Decimal, x.tolist()):
            for _ in range(2):
                q_prev, q, dq = _recurrence(xi, a, c)
                xi -= q / dq
            nodes.append(xi)
            weights.append(1 / (q_prev * dq))
        scale = mu0 / (2 * sum(weights))  # q_n is even: the rule is symmetric
        x = np.array([float(v) for v in nodes])
        w = np.array([float(v * scale) for v in weights])
    return np.concatenate([-x[::-1], x]), np.concatenate([w[::-1], w])


def gauss_legendre(n: int):
    """n-point Gauss-Legendre nodes and weights on [-1, 1]; (k+1)! P_{k+1}
    is the integer-coefficient recurrence."""
    grid = np.cos(np.linspace(0.5 * np.pi, 0.0, 8 * n))
    return _gauss_rule([2 * k + 1 for k in range(n)], [k * k for k in range(n)], Decimal(2), grid)


def gauss_hermite(n: int):
    """n-point Gauss-Hermite nodes and weights for the weight exp(-x^2);
    every root of H_n lies below sqrt(2n + 1)."""
    grid = np.linspace(0.0, np.sqrt(2.0 * n + 1.0), 8 * n)
    return _gauss_rule([2] * n, [2 * k for k in range(n)], _SQRT_PI, grid)


_GH_NODES, _GH_WEIGHTS = gauss_hermite(96)
_GL_NODES, _GL_WEIGHTS = gauss_legendre(64)
_GL32_NODES, _GL32_WEIGHTS = gauss_legendre(32)
# the 32-node rule through x -> (3x - x^3) / 2, whose flat ends absorb
# square-root behaviour of the integrand at the panel edges
_SMOOTH_NODES = 0.5 * _GL32_NODES * (3.0 - _GL32_NODES**2)
_SMOOTH_WEIGHTS = 1.5 * (1.0 - _GL32_NODES**2) * _GL32_WEIGHTS


def _panelize(edges, nodes, weights):
    """A rule on [-1, 1] mapped onto contiguous panels along the last axis of
    ``edges``, one row of panels (and of nodes) per leading index."""
    edges = np.asarray(edges, float)
    lo, hi = edges[..., :-1], edges[..., 1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    x = mid[..., None] + half[..., None] * nodes
    w = half[..., None] * weights
    return x.reshape(*edges.shape[:-1], -1), w.reshape(*edges.shape[:-1], -1)


def regula_falsi(f, a, b, fa, fb, f_tol):
    """Root of ``f`` bracketed by ``a`` and ``b``, by Anderson-Bjorck's Illinois
    regula falsi: (b, fb) is the latest iterate, (a, fa) the last of opposite
    sign, shrunk when kept.  Returns the last iterate and its value once
    |f| <= ``f_tol`` or a step moves x by at most 1e-14."""
    for _ in range(100):
        x = b - fb * (b - a) / (fb - fa)
        fx = f(x)
        if abs(fx) <= f_tol or abs(x - b) <= 1e-14:
            break
        if (fx > 0) != (fb > 0):
            a, fa = b, fb
        else:
            m = 1.0 - fx / fb
            fa *= m if m > 0 else 0.5
        b, fb = x, fx
    return x, fx
