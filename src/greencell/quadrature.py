"""Fixed Gauss-Legendre (32, 64 nodes) and Gauss-Hermite (96 nodes) rules,
built once at import without LAPACK, and their mapping onto panels."""
import numpy as np

_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitting constant


def _two_sum(a, b):
    """(s, e) with s + e == a + b exactly (Knuth)."""
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def _fast_two_sum(a, b):
    """(s, e) with s + e == a + b exactly, given |a| >= |b|."""
    s = a + b
    return s, b - (s - a)


def _split(a):
    """(hi, lo) with hi + lo == a and hi holding at most 26 significant bits."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _dd_mul(a, b):
    """Product of two double-double (hi, lo) values.  The exact product of
    the high parts uses Dekker's split, so no fused multiply-add is needed."""
    p = a[0] * b[0]
    ah, al = _split(a[0])
    bh, bl = _split(b[0])
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return _fast_two_sum(p, e + (a[0] * b[1] + a[1] * b[0]))


def _dd_scale(k, b):
    """Integer ``k`` (|k| < 2**26, so it needs no split) times a double-double."""
    p = k * b[0]
    bh, bl = _split(b[0])
    return _fast_two_sum(p, ((k * bh - p) + k * bl) + k * b[1])


def _dd_add(a, b):
    """Sum of two double-double values; safe under cancellation."""
    s, e = _two_sum(a[0], b[0])
    return _two_sum(s, e + (a[1] + b[1]))


def _recurrence(x, a, c):
    """q_{n-1}, q_n and q_n' at ``x`` for q_{k+1} = a_k x q_k - c_k q_{k-1},
    q_0 = 1, n = len(a).  ``x`` is an array, or a double-double (hi, lo)
    pair of arrays, which makes every returned value such a pair."""
    if isinstance(x, tuple):
        mul, scale, add = _dd_mul, _dd_scale, _dd_add
        zero = (np.zeros_like(x[0]),) * 2
        one = (zero[0] + 1.0, zero[0])
    else:
        mul = scale = np.multiply
        add = np.add
        zero, one = np.zeros_like(x), np.ones_like(x)
    q_prev, q, dq_prev, dq = zero, one, zero, zero
    for ak, ck in zip(a, c):
        q_prev, q, dq_prev, dq = (
            q,
            add(scale(ak, mul(x, q)), scale(-ck, q_prev)),
            dq,
            add(scale(ak, add(q, mul(x, dq))), scale(-ck, dq_prev)),
        )
    return q_prev, q, dq


def _gauss_rule(a, c, mu0, grid):
    """Gauss rule for the even degree n = len(a) member of a symmetric family
    q_{k+1} = a_k x q_k - c_k q_{k-1} with integer a_k, c_k (exact in double),
    weights summing to the measure's mass ``mu0``.

    No eigensolver: the positive roots are bracketed by sign changes on
    ``grid`` (ascending from 0, fine enough to separate them), Newton-iterated
    on the recurrence in double, then given two Newton steps in double-double
    arithmetic.  The weights 1 / (q_{n-1} q_n') are evaluated at that
    double-double root: taken at the rounded node, or with the recurrence in
    plain double, they are off by up to ~500 ulp near the ends of the
    interval.  Nodes come out correctly rounded and weights within 4 ulp of
    50-digit rules (tests/test_analytics.py).
    """
    n = len(a)
    if n % 2 or max(a.max(), c.max()) >= 2.0**26:
        raise ValueError("need an even degree and integer coefficients below 2**26")
    q = _recurrence(grid, a, c)[1]
    i = np.flatnonzero(np.signbit(q[:-1]) != np.signbit(q[1:]))
    if len(i) != n // 2:
        raise ArithmeticError(f"grid separates {len(i)} of {n // 2} positive roots")
    x = grid[i] - q[i] * (grid[i + 1] - grid[i]) / (q[i + 1] - q[i])
    x = np.concatenate([-x[::-1], x])  # exact mirror images: q_n is even
    for _ in range(50):
        _, q, dq = _recurrence(x, a, c)
        step = q / dq
        x = x - step
        if np.abs(step).max() <= 1e-13 * x.max():
            break
    else:
        raise ArithmeticError("Gauss rule Newton iteration did not converge")
    x = (x, np.zeros_like(x))
    for _ in range(2):
        q_prev, q, dq = _recurrence(x, a, c)
        x = _two_sum(x[0], x[1] - (q[0] + q[1]) / dq[0])
    p = _dd_mul(q_prev, dq)
    u = 1.0 / (p[0] + p[1])
    return x[0], u * (mu0 / u.sum())


def gauss_legendre(n: int):
    """n-point Gauss-Legendre nodes and weights on [-1, 1]; (k+1)! P_{k+1}
    is the integer-coefficient recurrence."""
    k = np.arange(n, dtype=float)
    return _gauss_rule(2.0 * k + 1.0, k * k, 2.0, np.cos(np.linspace(0.5 * np.pi, 0.0, 8 * n)))


def gauss_hermite(n: int):
    """n-point Gauss-Hermite nodes and weights for the weight exp(-x^2);
    every root of H_n lies below sqrt(2n + 1)."""
    k = np.arange(n, dtype=float)
    grid = np.linspace(0.0, np.sqrt(2.0 * n + 1.0), 8 * n)
    return _gauss_rule(np.full(n, 2.0), 2.0 * k, np.sqrt(np.pi), grid)


_GH_NODES, _GH_WEIGHTS = gauss_hermite(96)
_GL_NODES, _GL_WEIGHTS = gauss_legendre(64)
_GL32_NODES, _GL32_WEIGHTS = gauss_legendre(32)


def _panelize(edges, nodes, weights):
    """Gauss-Legendre nodes/weights on a sequence of contiguous panels."""
    edges = np.asarray(edges, float)
    lo, hi = edges[:-1], edges[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    x = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    w = (half[:, None] * weights[None, :]).ravel()
    return x, w
