"""Hot kernels: SU(2) products and trajectories, the nested Magnus sum, and
the twist-free frame transport.

Every SU(2) evolution steps with one fourth-order Magnus step over
node-sampled Pauli coefficients (``_magnus4_factors``).  Noise rows that
are constant along the nodes share the drive's terms of that step, formed
once per block, and each row adds its value times them.  The step
exponential takes cos a and sin(a)/a as even series in a^2 = |heff|^2,
cut at the block's largest a^2; a block with a step angle past 0.5 rad
takes libm's sin and cos.  ``su2_product`` forms only the final product,
for one Hamiltonian or a batch of them: it reduces cache-sized blocks of
steps pairwise and chains the blocks in order.  ``su2_trajectory`` forms
every prefix by a blocked NumPy scan.
The frame transport is a single vectorized NumPy kernel.  The nested
Magnus sum is an O(N^2) test oracle (``simulator.magnus_errors`` runs it
only when asked with nested=True), vectorized per row in NumPy.  Every
kernel has this one implementation.

State convention: a special-unitary 2x2 matrix is carried as the complex
pair (u1, u2) with matrix [[u1, -conj(u2)], [u2, conj(u1)]].  One step
with effective Pauli vector heff is the exact exponential exp(-i heff.sigma).
"""

import bisect
import math

import numpy as np

__all__ = [
    "su2_product",
    "su2_trajectory",
    "magnus_nested_r2",
    "transport_components",
]

# step factors per block of su2_product, over all batch rows; a block's
# working set is about 72 B per factor, so about 2.3 MiB
_BLOCK_FACTORS = 1 << 15

# cos(a) and sin(a)/a are series in a^2 up to this a^2 (a = 0.5 rad per step)
_SERIES_MAX_A2 = 0.25
# Taylor coefficients of cos(a) and sin(a)/a in a^2: (-1)^k/(2k)!, (-1)^k/(2k+1)!
_COS_TERMS = tuple((-1) ** k / math.factorial(2 * k) for k in range(8))
_SINC_TERMS = tuple((-1) ** k / math.factorial(2 * k + 1) for k in range(8))
# terms k < K serve every a2 below _SERIES_LIMITS[K - 1], where the first
# dropped term a2^K/(2K)! falls to 2^-60; K = 8 serves all of _SERIES_MAX_A2,
# and at least the a2 term is always kept
_SERIES_LIMITS = tuple((2.0**-60 * math.factorial(2 * k)) ** (1.0 / k) for k in range(1, 8))

# always False: kept only for perfbench/run.py environment(), which records them
HAVE_NUMBA = USE_NUMBA = False


def _prep(*arrays):
    return tuple(np.ascontiguousarray(a, dtype=np.float64) for a in arrays)


def _magnus4_factors(hx, hy, hz, dt, out=None):
    # Step factors (s1, s2) of exp(-i heff.sigma) for each node interval
    # along the last axis, with the two-node fourth-order Magnus log
    # heff = dt*(h_k + h_{k+1})/2 - dt^2/6 * (h_k x h_{k+1}), which is exact
    # to O(dt^5) for a Hamiltonian linear in t.  The h arrays broadcast, so
    # a batch axis on one of them gives one row of factors per batch entry.
    # The factors are written into out[0] and out[1] when given.
    # An hz whose last axis has length 1 is constant along the nodes, one
    # value per row: heff is then the drive-only terms plus hz times the
    # noise coefficients, both formed once for all rows.
    x0, x1 = hx[..., :-1], hx[..., 1:]
    y0, y1 = hy[..., :-1], hy[..., 1:]
    half = 0.5 * dt
    c6 = dt * dt / 6.0
    # x and z are carried negated (nx = -heff_x, nz = -heff_z): the factors
    # take them with that sign, and the norm does not see it
    if hz.shape[-1] == 1:
        nx = hz * (c6 * (y0 - y1))
        nx += -half * (x0 + x1)
        my = hz * (c6 * (x0 - x1))
        my += half * (y0 + y1)
        nz = c6 * (x0 * y1 - y0 * x1) - dt * hz
    else:
        z0, z1 = hz[..., :-1], hz[..., 1:]
        nx = c6 * (y0 * z1 - z0 * y1) - half * (x0 + x1)
        my = half * (y0 + y1) - c6 * (z0 * x1 - x0 * z1)
        nz = c6 * (x0 * y1 - y0 * x1) - half * (z0 + z1)
    c, snc = _cos_sinc(nx * nx + my * my + nz * nz)
    if out is None:
        out = np.empty((2,) + c.shape, dtype=np.complex128)
    s1, s2 = out
    s1.real = c
    np.multiply(snc, nz, out=s1.imag)
    np.multiply(snc, my, out=s2.real)
    np.multiply(snc, nx, out=s2.imag)
    return s1, s2


def _cos_sinc(a2):
    # cos(a) and sin(a)/a from a2 = a^2.  Up to a2 = _SERIES_MAX_A2 both are
    # even Taylor series in a2, cut where the first dropped term is below
    # 2^-60 at the largest a2; past it, libm's sin and cos of sqrt(a2).
    top = float(a2.max(initial=0.0))
    if top > _SERIES_MAX_A2:
        a = np.sqrt(a2)
        return np.cos(a), np.divide(np.sin(a), a, out=np.ones_like(a), where=a > 0.0)
    k = max(1, bisect.bisect_right(_SERIES_LIMITS, top))
    c = a2 * _COS_TERMS[k]
    snc = a2 * _SINC_TERMS[k]
    for j in range(k - 1, 0, -1):
        c += _COS_TERMS[j]
        c *= a2
        snc += _SINC_TERMS[j]
        snc *= a2
    c += 1.0
    snc += 1.0
    return c, snc


def _compose(b1, b2, a1, a2):
    # (b1, b2) applied after (a1, a2): the product B A of the 2x2 matrices
    return b1 * a1 - np.conj(b2) * a2, b2 * a1 + np.conj(b1) * a2


def _pairwise_product(s1, s2):
    # Ordered product of the step factors along the last axis by log-depth
    # pairwise reduction; an odd last factor is folded into its neighbour.
    # The result is not normalized.
    while s1.shape[-1] > 1:
        if s1.shape[-1] % 2:
            s1[..., -2], s2[..., -2] = _compose(
                s1[..., -1], s2[..., -1], s1[..., -2], s2[..., -2]
            )
            s1, s2 = s1[..., :-1], s2[..., :-1]
        s1, s2 = _compose(s1[..., 1::2], s2[..., 1::2], s1[..., 0::2], s2[..., 0::2])
    return s1[..., 0], s2[..., 0]


def su2_product(hx, hy, hz, dt):
    """Final evolution (u1, u2) over node-sampled h arrays.

    The steps are those of ``su2_trajectory``; only their ordered product
    is formed.  hx and hy are 1-D.  A 1-D hz gives (u1, u2) as complex
    numbers; an hz with a leading batch axis (one row per Hamiltonian, for
    instance one row per noise value) gives one (u1, u2) per row as arrays.
    An hz whose last axis has length 1 is constant along the nodes (hz of
    shape (1,) or (B, 1)): each block then forms the drive-only terms of
    the Magnus log, -dt/2 (x0 + x1), dt/2 (y0 + y1) and
    dt^2/6 (x0 y1 - y0 x1), and the noise coefficients dt^2/6 (y0 - y1),
    dt^2/6 (x0 - x1) and -dt once, and each row adds its hz times them.
    The step exponential needs cos a and sin(a)/a of a^2 = |heff|^2: up to
    a^2 = 1/4 both are even Taylor series in a^2, with as many terms as put
    the first dropped one, a^(2K)/(2K)! at the block's largest a^2, below
    2^-60 (at most eight); a block with a larger a^2 takes libm's sin and
    cos of sqrt(a^2), the only exact path for coarse pulses.
    The steps are taken in blocks of about _BLOCK_FACTORS factors over all
    rows: each block's factors are built, reduced pairwise and folded into
    a running product, so the working set stays cache-sized whatever the
    batch or the step count.  The rounding error grows with the depth of
    the reduction plus the number of blocks, so one normalization at the
    end suffices.
    """
    hx, hy = _prep(hx, hy)
    hz = np.asarray(hz, dtype=np.float64)
    dt = float(dt)
    rows = np.atleast_2d(hz)
    constant = rows.shape[1] == 1
    steps = max(1, _BLOCK_FACTORS // rows.shape[0])
    u1 = np.ones(rows.shape[0], dtype=np.complex128)
    u2 = np.zeros(rows.shape[0], dtype=np.complex128)
    # one buffer takes every block's factors: a fresh pair per block let
    # glibc trim the heap after each block and fault it back in the next
    n_steps = hx.shape[0] - 1
    factors = np.empty((2, rows.shape[0], min(steps, n_steps)), dtype=np.complex128)
    for k in range(0, n_steps, steps):
        nodes = slice(k, k + steps + 1)
        hz_block = rows if constant else rows[:, nodes]
        out = factors[..., : min(steps, n_steps - k)]
        b1, b2 = _pairwise_product(*_magnus4_factors(hx[nodes], hy[nodes], hz_block, dt, out))
        u1, u2 = _compose(b1, b2, u1, u2)
    norm = np.sqrt(np.abs(u1) ** 2 + np.abs(u2) ** 2)
    u1, u2 = u1 / norm, u2 / norm
    if hz.ndim == 1:
        return complex(u1[0]), complex(u2[0])
    return u1, u2


def su2_trajectory(hx, hy, hz, dt):
    """Evolution (u1, u2) at every substep node for node-sampled h arrays.

    The steps are the fourth-order Magnus steps of ``su2_product``.  The
    prefix products form a blocked two-level scan (Blelloch 1990): about
    sqrt(m) blocks of about sqrt(m) steps, padded with identity steps, are
    scanned side by side; the block totals are then chained into one carry
    per block and applied in a single multiply.
    """
    hx, hy, hz = _prep(hx, hy, hz)
    s1, s2 = _magnus4_factors(hx, hy, hz, float(dt))
    m = s1.shape[0]
    width = max(1, int(np.ceil(np.sqrt(m))))
    blocks = -(-m // width)
    # step factors laid out (position in block, block), identity-padded
    p1 = np.ones(blocks * width, dtype=np.complex128)
    p2 = np.zeros(blocks * width, dtype=np.complex128)
    p1[:m] = s1
    p2[:m] = s2
    p1 = np.ascontiguousarray(p1.reshape(blocks, width).T)
    p2 = np.ascontiguousarray(p2.reshape(blocks, width).T)
    for j in range(1, width):
        p1[j], p2[j] = _compose(p1[j], p2[j], p1[j - 1], p2[j - 1])
    # carry into block b: the product of the totals of blocks 0..b-1
    c1 = np.empty(blocks, dtype=np.complex128)
    c2 = np.empty(blocks, dtype=np.complex128)
    w1, w2 = 1.0 + 0.0j, 0.0j
    for b, (t1, t2) in enumerate(zip(p1[-1].tolist(), p2[-1].tolist())):
        c1[b], c2[b] = w1, w2
        w1, w2 = t1 * w1 - t2.conjugate() * w2, t2 * w1 + t1.conjugate() * w2
    p1, p2 = _compose(p1, p2, c1, c2)
    u1 = np.empty(m + 1, dtype=np.complex128)
    u2 = np.empty(m + 1, dtype=np.complex128)
    u1[0], u2[0] = 1.0, 0.0
    u1[1:] = p1.T.reshape(-1)[:m]
    u2[1:] = p2.T.reshape(-1)[:m]
    norm = np.sqrt(np.abs(u1) ** 2 + np.abs(u2) ** 2)
    return u1 / norm, u2 / norm


# kept in this module under this name because perfbench/tracer.py wraps it here
def magnus_nested_r2(vx, vy, vz, dt):
    """Nested-trapezoid second-order error vector R2 = int r x rdot dt.

    O(N^2): every node's inner trapezoid is formed afresh, one NumPy row each.
    """
    v = np.stack(_prep(vx, vy, vz), axis=1)
    dt = float(dt)
    n = v.shape[0]
    r2 = np.zeros(3)
    for i in range(1, n):
        w_in = np.full(i + 1, dt)
        w_in[0] = 0.5 * dt
        w_in[-1] = 0.5 * dt
        inner = w_in @ v[: i + 1]
        wi = dt if i < n - 1 else 0.5 * dt
        r2 += wi * np.cross(inner, v[i])
    return r2


def _rowdot(u, v):
    return np.einsum("ij,ij->i", u, v)


def _reflect(x, v, vv):
    # reflection of the rows of x across the planes normal to the rows of v;
    # rows with vv == 0 are left unchanged
    d = np.divide(2.0 * _rowdot(v, x), vv, out=np.zeros_like(vv), where=vv > 0.0)
    return x - d[:, None] * v


def transport_components(points, tangent, rddot, m1):
    """Twist-free frame components (a, b) of r'' along the curve.

    The frame vector m1 is carried by double-reflection transport (Wang,
    Juettler, Zheng & Liu 2008); a, b are the components of r'' in the
    transported (m1, t x m1) basis.  Each step's two reflections compose to
    a rotation R_i taking t_i to t_{i+1}, so against any per-sample basis
    (f_i, g_i = t_i x f_i) the transported vector is cos(theta_i) f_i +
    sin(theta_i) g_i with theta_{i+1} = theta_i + angle of R_i f_i in
    (f_{i+1}, g_{i+1}).  All steps are evaluated at once and the angle
    increments are summed.
    """
    points = np.asarray(points, dtype=np.float64)
    tangent = np.asarray(tangent, dtype=np.float64)
    rddot = np.asarray(rddot, dtype=np.float64)
    m1 = np.asarray(m1, dtype=np.float64)
    # reference f_i: the coordinate axis least aligned with t_i, projected
    # off t_i; switches between axes are absorbed into the angle increments
    n = tangent.shape[0]
    f = np.zeros_like(tangent)
    f[np.arange(n), np.argmin(np.abs(tangent), axis=1)] = 1.0
    f -= _rowdot(f, tangent)[:, None] * tangent
    f /= np.linalg.norm(f, axis=1)[:, None]
    g = np.cross(tangent, f)

    # both reflections of every step: across the chord bisector plane, then
    # the plane that takes the reflected tangent onto the next tangent
    v1 = np.diff(points, axis=0)
    c1 = _rowdot(v1, v1)
    t_left = _reflect(tangent[:-1], v1, c1)
    v2 = tangent[1:] - t_left
    rf = _reflect(_reflect(f[:-1], v1, c1), v2, _rowdot(v2, v2))

    theta = np.empty(n)
    theta[0] = np.arctan2(m1 @ g[0], m1 @ f[0])
    np.cumsum(np.arctan2(_rowdot(rf, g[1:]), _rowdot(rf, f[1:])), out=theta[1:])
    theta[1:] += theta[0]
    c = np.cos(theta)
    s = np.sin(theta)
    rf_dot = _rowdot(rddot, f)
    rg_dot = _rowdot(rddot, g)
    return c * rf_dot + s * rg_dot, c * rg_dot - s * rf_dot
