"""The sample-grid rule, finite-difference stencils and quadrature helpers
on uniform grids, and the two cubic interpolants the curves need (PCHIP and
a not-a-knot spline).

Interior derivatives use five-point central stencils; the two rows at each
end use six-point one-sided stencils (Fornberg weights) so boundary values
stay at least one order better than the quantities built from them.
"""

import numpy as np

from .errors import InputError


def grid_fault(t):
    """Why t is not a sample grid, or None: the one grid rule of curves and pulses.

    A sample grid is 1-d, at least 2 finite samples, starting at 0, with
    steps equal to the first within 1e-9 of it.
    """
    if t.ndim != 1 or t.shape[0] < 2 or not np.all(np.isfinite(t)):
        return "time grid must be 1-d with at least 2 samples, all finite"
    steps = np.diff(t)
    if t[0] != 0.0 or np.any(steps <= 0):
        return "time grid must start at 0 and increase"
    if np.max(np.abs(steps - steps[0])) > 1e-9 * steps[0]:
        return "time grid must be uniform"
    return None


def _fornberg_weights(z, x, m):
    # weights w[k] with f^(m)(z) ~ sum w[k] f(x[k]); Fornberg (1988)
    n = len(x)
    c = np.zeros((n, m + 1))
    c1 = 1.0
    c4 = x[0] - z
    c[0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - z
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, m]


_EDGE_POINTS = 6
_W_EDGE = {
    m: [_fornberg_weights(float(row), np.arange(_EDGE_POINTS, dtype=float), m) for row in (0, 1)]
    for m in (1, 2, 3)
}


def _apply_edges(d, y, dx, m):
    w0, w1 = _W_EDGE[m]
    head = y[:_EDGE_POINTS]
    tail = y[-_EDGE_POINTS:][::-1]
    sign = (-1.0) ** m
    scale = dx ** m
    d[0] = np.tensordot(w0, head, axes=(0, 0)) / scale
    d[1] = np.tensordot(w1, head, axes=(0, 0)) / scale
    d[-1] = sign * np.tensordot(w0, tail, axes=(0, 0)) / scale
    d[-2] = sign * np.tensordot(w1, tail, axes=(0, 0)) / scale


def fd1(y, dx):
    """First derivative, five-point central stencils (one-sided at the ends)."""
    y = np.asarray(y, dtype=float)
    if y.shape[0] < _EDGE_POINTS:
        raise InputError(f"need at least {_EDGE_POINTS} samples for the stencils")
    d = np.empty_like(y)
    d[2:-2] = (y[:-4] - 8 * y[1:-3] + 8 * y[3:-1] - y[4:]) / (12 * dx)
    _apply_edges(d, y, dx, 1)
    return d


def fd2(y, dx):
    """Second derivative, five-point central stencils."""
    y = np.asarray(y, dtype=float)
    if y.shape[0] < _EDGE_POINTS:
        raise InputError(f"need at least {_EDGE_POINTS} samples for the stencils")
    h2 = dx * dx
    d = np.empty_like(y)
    d[2:-2] = (-y[:-4] + 16 * y[1:-3] - 30 * y[2:-2] + 16 * y[3:-1] - y[4:]) / (12 * h2)
    _apply_edges(d, y, dx, 2)
    return d


def fd3(y, dx):
    """Third derivative, five-point central stencils."""
    y = np.asarray(y, dtype=float)
    if y.shape[0] < _EDGE_POINTS:
        raise InputError(f"need at least {_EDGE_POINTS} samples for the stencils")
    h3 = dx ** 3
    d = np.empty_like(y)
    d[2:-2] = (-y[:-4] + 2 * y[1:-3] - 2 * y[3:-1] + y[4:]) / (2 * h3)
    _apply_edges(d, y, dx, 3)
    return d


def cumtrapz(y, dx):
    """Cumulative trapezoid along axis 0, starting at zero."""
    y = np.asarray(y, dtype=float)
    seg = 0.5 * dx * (y[1:] + y[:-1])
    out = np.zeros_like(y)
    out[1:] = np.cumsum(seg, axis=0)
    return out


def cumtrapz_end_corrected(y, dx):
    """Cumulative trapezoid with the per-prefix Euler-Maclaurin correction."""
    y = np.asarray(y, dtype=float)
    out = cumtrapz(y, dx)
    yd = fd1(y, dx)
    return out - dx * dx / 12.0 * (yd - yd[0])


def carried_unwrap(angles, ok, seed=None):
    """Unwrap angles over reliable samples; unreliable ones inherit neighbors.

    Bridges across unreliable gaps pick the nearest branch, so a genuine pi
    flip across a gap survives while no spurious winding is invented.  With
    `seed` given, the first reliable sample continues from that branch.
    """
    angles = np.asarray(angles, dtype=float)
    ok = np.asarray(ok, dtype=bool)
    idx = np.flatnonzero(ok)
    out = np.empty_like(angles)
    if idx.size == 0:
        out[:] = 0.0 if seed is None else seed
        return out
    vals = angles[idx]
    if seed is not None:
        vals = np.unwrap(np.concatenate([[seed], vals]))[1:]
    else:
        vals = np.unwrap(vals)
    out[idx] = vals
    fill = np.maximum.accumulate(np.where(ok, np.arange(len(ok)), -1))
    missing = fill >= 0
    out[missing] = out[fill[missing]]
    out[~missing] = vals[0] if seed is None else seed
    return out


# three-node Gauss-Legendre rule on [-1, 1]: exact for degree 5, so a
# panel of width h carries an O(h^7) error
_GL3_NODES = np.array([-np.sqrt(0.6), 0.0, np.sqrt(0.6)])
_GL3_WEIGHTS = np.array([5.0, 8.0, 5.0]) / 9.0


# panels per integrand call in cumulative_gauss3: the temporaries of one
# call (a few dozen arrays of 3 * 8192 floats) stay in cache
_GAUSS3_BLOCK = 1 << 13


def cumulative_gauss3(f, lam):
    """Cumulative integral of f from lam[0], one 3-point Gauss panel per interval.

    `lam` must be ascending and `f` map a lambda array to (len, 3) values.
    f sees each node once, three per interval, in blocks of _GAUSS3_BLOCK
    intervals.  Returns an array of shape (len(lam), 3).
    """
    lam = np.asarray(lam, dtype=float)
    mid = 0.5 * (lam[1:] + lam[:-1])
    half = 0.5 * (lam[1:] - lam[:-1])
    seg = np.empty((mid.size, 3))
    for i in range(0, mid.size, _GAUSS3_BLOCK):
        h = half[i : i + _GAUSS3_BLOCK, None]
        nodes = mid[i : i + _GAUSS3_BLOCK, None] + h * _GL3_NODES
        vals = f(nodes.ravel()).reshape(h.size, 3, 3)
        seg[i : i + _GAUSS3_BLOCK] = h * np.einsum("q,mqc->mc", _GL3_WEIGHTS, vals)
    out = np.zeros((lam.size, 3))
    np.cumsum(seg, axis=0, out=out[1:])
    return out


def _pchip_edge_slope(h0, h1, m0, m1):
    # one-sided three-point end slope, limited to keep the end monotone
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip_slopes(x, y, k):
    """Fritsch-Carlson slopes at the knots k of the 1-D data (x, y).

    Interior knots take the weighted harmonic mean of the two adjacent
    secants, or zero where those differ in sign or either is zero; the two
    end knots take the limited one-sided estimate.
    """
    n = x.shape[0]
    km = np.clip(k, 1, n - 2)
    h0 = x[km] - x[km - 1]
    h1 = x[km + 1] - x[km]
    m0 = (y[km] - y[km - 1]) / h0
    m1 = (y[km + 1] - y[km]) / h1
    flat = (np.sign(m1) != np.sign(m0)) | (m1 == 0) | (m0 == 0)
    w1 = 2 * h1 + h0
    w2 = h1 + 2 * h0
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.where(flat, 0.0, 1.0 / ((w1 / m0 + w2 / m1) / (w1 + w2)))
    for knot, near, far in ((0, 0, 1), (n - 1, n - 2, n - 3)):
        h0, h1 = x[near + 1] - x[near], x[far + 1] - x[far]
        m0 = (y[near + 1] - y[near]) / h0
        m1 = (y[far + 1] - y[far]) / h1
        d[k == knot] = _pchip_edge_slope(h0, h1, m0, m1)
    return d


def pchip(x, y, xq):
    """Monotone cubic (PCHIP) interpolant of (x, y) evaluated at sorted xq.

    x must be strictly increasing with at least three knots, and xq sorted
    ascending.  Slopes are formed only at the knots bounding the intervals
    that some xq falls in, so the cost is O(len(xq) log len(x)) however
    dense the data.  Intervals are half-open [x_i, x_{i+1}) with the last
    one closed, and points outside [x_0, x_-1] extend the end cubics.  The
    formulas and their operation order are those of
    scipy.interpolate.PchipInterpolator (slopes) and PPoly (Horner-free
    power-basis evaluation), so the values agree with it bit for bit.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xq = np.asarray(xq, dtype=float)
    i = np.clip(np.searchsorted(x, xq, side="right") - 1, 0, x.shape[0] - 2)
    d = _pchip_slopes(x, y, np.concatenate([i, i + 1]))
    d0, d1 = d[: i.size], d[i.size :]
    h = x[i + 1] - x[i]
    slope = (y[i + 1] - y[i]) / h
    t = (d0 + d1 - 2 * slope) / h
    c3 = t / h
    c2 = (slope - d0) / h - t
    s = xq - x[i]
    s2 = s * s
    return ((y[i] + d0 * s) + c2 * s2) + c3 * (s2 * s)


def _cyclic_reduction(lo, diag, up, rhs):
    """Solve a strictly diagonally dominant tridiagonal system.

    Row i reads lo[i] u[i-1] + diag[i] u[i] + up[i] u[i+1] = rhs[i]; lo[0]
    and up[-1] are never read.  Each level eliminates the odd-numbered
    unknowns from the even-numbered rows, halving the system, so about
    log2(n) vectorized passes solve it; dominance keeps every pivot away
    from zero without pivoting.  rhs may carry trailing columns.
    """
    levels = []
    while diag.size > 1:
        m = diag.size
        k, q = (m + 1) // 2, m // 2
        b_odd = diag[1::2]
        # row 2j takes -lo/b of odd row 2j-1 and -up/b of odd row 2j+1
        left = -lo[2::2] / b_odd[: k - 1]
        right = -up[0::2][:q] / b_odd
        lo_n = np.zeros(k)
        up_n = np.zeros(k)
        diag_n = diag[0::2].copy()
        rhs_n = rhs[0::2].copy()
        diag_n[1:] += left * up[1::2][: k - 1]
        diag_n[:q] += right * lo[1::2]
        lo_n[1:] = left * lo[1::2][: k - 1]
        up_n[:q] = right * up[1::2]
        rhs_n[1:] += left[:, None] * rhs[1::2][: k - 1]
        rhs_n[:q] += right[:, None] * rhs[1::2]
        levels.append((lo, diag, up, rhs))
        lo, diag, up, rhs = lo_n, diag_n, up_n, rhs_n
    u = rhs / diag[0]
    for lo, diag, up, rhs in reversed(levels):
        m, k = diag.size, u.shape[0]
        q = m // 2
        full = np.empty((m,) + rhs.shape[1:])
        full[0::2] = u
        odd = rhs[1::2] - lo[1::2][:, None] * u[:q]
        odd[: k - 1] -= up[1::2][: k - 1, None] * u[1:]
        full[1::2] = odd / diag[1::2][:, None]
        u = full
    return u


def not_a_knot_spline(x, y):
    """Cubic spline through (x, y) with not-a-knot ends, as a callable.

    x must be strictly increasing with at least four knots; y has shape
    (len(x), c).  The end conditions and interior equations are those of
    scipy.interpolate.CubicSpline's default: the third derivative is
    continuous at x[1] and x[-2], and the knot slopes solve the usual
    tridiagonal system.  The two not-a-knot rows are folded into their
    neighbours, which leaves a strictly diagonally dominant system for
    _cyclic_reduction.  The callable maps sorted or unsorted points to a
    (len, c) array; intervals are half-open [x_i, x_{i+1}) with the last
    one closed, and points outside [x_0, x_-1] extend the end cubics.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    dx = np.diff(x)
    slope = np.diff(y, axis=0) / dx[:, None]
    # interior rows i = 1 .. n-2 of the slope system, unknowns s_1 .. s_{n-2}
    lo, up = dx[1:], dx[:-1]
    diag = 2.0 * (dx[:-1] + dx[1:])
    rhs = 3.0 * (dx[1:, None] * slope[:-1] + dx[:-1, None] * slope[1:])
    # not-a-knot rows: dx1 s0 + d0 s1 = b0 and d1 s_{n-2} + dx_{n-3} s_{n-1} = b1
    d0, d1 = x[2] - x[0], x[-1] - x[-3]
    b0 = ((dx[0] + 2.0 * d0) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d0
    b1 = (dx[-1] ** 2 * slope[-2] + (2.0 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1
    # fold them in: subtracting row 0 from row 1 removes s0, and row n-1
    # from row n-2 removes s_{n-1}; both folded rows keep diag > off-diagonal
    diag[0] = d0
    rhs[0] -= b0
    diag[-1] = d1
    rhs[-1] -= b1
    s = np.empty_like(y)
    s[1:-1] = _cyclic_reduction(lo, diag, up, rhs)
    s[0] = (b0 - d0 * s[1]) / dx[1]
    s[-1] = (b1 - d1 * s[-2]) / dx[-2]
    # power-basis coefficients, highest degree first, as (4, c, n - 1) so
    # that evaluation runs along contiguous rows
    t = (s[:-1] + s[1:] - 2.0 * slope) / dx[:, None]
    coef = np.stack(
        [t / dx[:, None], (slope - s[:-1]) / dx[:, None] - t, s[:-1], y[:-1]]
    ).transpose(0, 2, 1).copy()
    last = x.size - 2

    def spline(xq):
        xq = np.asarray(xq, dtype=float)
        i = np.clip(np.searchsorted(x, xq, side="right") - 1, 0, last)
        c = np.take(coef, i, axis=2)
        h = xq - x[i]
        out = np.empty((xq.size, coef.shape[1]))
        v = out.T
        np.multiply(c[0], h, out=v)
        v += c[1]
        v *= h
        v += c[2]
        v *= h
        v += c[3]
        return out

    return spline
