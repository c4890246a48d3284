import os
from pathlib import Path

import numpy as np
import pytest

import curvepulse as cp
from curvepulse import _accel
from curvepulse._numerics import cumtrapz, fd1
from curvepulse.simulator import interaction_tangent, u0_trajectory
from curvepulse.su2 import IDENTITY, PAULIS, SIGMA_X, SIGMA_Y, SIGMA_Z

BUILTINS = list(cp.BUILTIN_CURVES)


def python_env():
    """Environment for a child interpreter that imports this curvepulse."""
    src = str(Path(cp.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src if not path else src + os.pathsep + path}


@pytest.fixture(scope="session")
def builtin_curves():
    return {name: cp.builtin_curve(name) for name in BUILTINS}


@pytest.fixture(scope="session")
def builtin_frenet(builtin_curves):
    return {name: cp.frenet_data(c) for name, c in builtin_curves.items()}


@pytest.fixture(scope="session")
def builtin_pulses(builtin_frenet):
    return {name: cp.pulses_from_curve(f) for name, f in builtin_frenet.items()}


def random_special_unitary(rng):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(0.0, 2.0 * np.pi)
    return cp.axis_angle_unitary(axis, angle)


def pauli_compose(vec, id_coeff=0.0):
    """The 2x2 matrix id_coeff * I + vec . sigma."""
    vec = np.asarray(vec)
    return id_coeff * IDENTITY + vec[0] * SIGMA_X + vec[1] * SIGMA_Y + vec[2] * SIGMA_Z


def rotation_of(u):
    """Oracle for the rotation R of a unitary: u^dag (v.sigma) u = (R v).sigma.

    Read off Pauli traces of the conjugated Pauli matrices, independently of
    the quaternion lift in curvepulse.su2.
    """
    m = u.matrix
    r = np.empty((3, 3))
    for a in range(3):
        conj = m.conj().T @ PAULIS[a] @ m
        for b in range(3):
            r[b, a] = 0.5 * np.real(np.trace(PAULIS[b] @ conj))
    return r


def kabsch_align(moving, fixed):
    """Best rigid alignment of `moving` onto `fixed` (proper rotation + shift).

    Returns (rotation, translation, rms) so that moving @ rotation.T + translation
    approximates fixed with the returned root-mean-square residual.
    """
    moving = np.asarray(moving, dtype=float)
    fixed = np.asarray(fixed, dtype=float)
    mc = moving.mean(axis=0)
    fc = fixed.mean(axis=0)
    h = (moving - mc).T @ (fixed - fc)
    u, _, vt = np.linalg.svd(h)
    sign = np.sign(np.linalg.det(vt.T @ u.T))
    d = np.diag([1.0, 1.0, sign])
    rot = vt.T @ d @ u.T
    shift = fc - rot @ mc
    aligned = moving @ rot.T + shift
    rms = float(np.sqrt(np.mean(np.sum((aligned - fixed) ** 2, axis=1))))
    return rot, shift, rms


def helix_curve(a=1.0, b=0.5, span=2.0 * np.pi, n_samples=4096):
    def sampler(lam):
        lam = np.atleast_1d(lam)
        return np.stack([a * np.cos(lam), a * np.sin(lam), b * lam], axis=1)

    return cp.reparameterize_by_arclength(sampler, (0.0, span), n_samples, source_tag="helix")


def magnus_nested_loop(vx, vy, vz, dt):
    """Literal O(N^2) nested trapezoid of the commutator double integral.

    Reported as the real vector R2 = int r x rdot dt; the reference for the
    vectorized ``_accel.magnus_nested_r2``.
    """
    n = vx.shape[0]
    r2x = 0.0
    r2y = 0.0
    r2z = 0.0
    for i in range(1, n):
        ax = 0.5 * vx[0]
        ay = 0.5 * vy[0]
        az = 0.5 * vz[0]
        for j in range(1, i):
            ax += vx[j]
            ay += vy[j]
            az += vz[j]
        ax = (ax + 0.5 * vx[i]) * dt
        ay = (ay + 0.5 * vy[i]) * dt
        az = (az + 0.5 * vz[i]) * dt
        wi = dt
        if i == n - 1:
            wi = 0.5 * dt
        r2x += wi * (ay * vz[i] - az * vy[i])
        r2y += wi * (az * vx[i] - ax * vz[i])
        r2z += wi * (ax * vy[i] - ay * vx[i])
    return r2x, r2y, r2z


def magnus_a2_nested(pulse, refinement):
    """A2 of a pulse by the O(N^2) nested quadrature: the oracle for magnus_errors.

    The noise axis v = U0^dag sz U0 is read off the noise-free trajectory at
    `refinement`; the inner integral r(t) is the nested trapezoid of
    ``_accel.magnus_nested_r2`` plus the Euler-Maclaurin correction
    dt^2/12 (vdot(0) - vdot(t)) that magnus_errors' end-corrected prefixes
    carry, so both routes are accurate to the same order.
    """
    u1, u2, dt = u0_trajectory(pulse, refinement)
    v = interaction_tangent(u1, u2)
    vdot = fd1(v, dt)
    delta_r = dt * dt / 12.0 * (vdot[0] - vdot)
    correction = np.trapezoid(np.cross(delta_r, v), dx=dt, axis=0)
    return _accel.magnus_nested_r2(v[:, 0], v[:, 1], v[:, 2], dt) + correction


def third_order_vector(curve):
    """Geometric oracle for the third error integral A3 of a closed curve.

    Built from nested quadratures of the curve points and their tangents,
    independently of any propagation.
    """
    v = fd1(curve.points, curve.dt)
    r = curve.points
    dt = curve.dt
    s = cumtrapz(np.cross(v, r), dt)
    m = cumtrapz(v[:, :, None] * r[:, None, :], dt)
    g = cumtrapz(np.sum(v * r, axis=1), dt)
    term1 = np.cross(v, s)
    term2 = np.einsum("nij,nj->ni", m, v) - g[:, None] * v
    return -(2.0 / 3.0) * np.trapezoid(term1 + term2, dx=dt, axis=0)


def stadium_rows(straight=1.0, radius=1.0, rows=513):
    """Closed stadium as raw rows: two straights joined by half-circles.

    Sampled at equal arc-length steps from the middle of the lower straight,
    so the curve starts (and ends) on a zero-curvature run.  Load it through
    a CSV file to get the spline route every curve file takes.
    """
    s = np.linspace(0.0, 2.0 * straight + 2.0 * np.pi * radius, rows)
    half = 0.5 * straight
    ends = np.cumsum([half, np.pi * radius, straight, np.pi * radius])
    seg = np.searchsorted(ends, s, side="right")
    pts = np.zeros((rows, 3))
    # (anchor x, anchor y, direction) of each piece, in traversal order
    pieces = [
        (0.0, 0.0, 1.0),
        (half, radius, 1.0),
        (half, 2.0 * radius, -1.0),
        (-half, radius, -1.0),
        (-half, 0.0, 1.0),
    ]
    for k, (x0, y0, sign) in enumerate(pieces):
        m = seg == k
        u = s[m] - (ends[k - 1] if k else 0.0)
        if k % 2 == 0:  # straight run along +-x
            pts[m, 0] = x0 + sign * u
            pts[m, 1] = y0
        else:  # half-circle about (x0, y0)
            a = u / radius
            pts[m, 0] = x0 + sign * radius * np.sin(a)
            pts[m, 1] = y0 - sign * radius * np.cos(a)
    return cp.SpaceCurve(s, pts, "stadium")
