"""Independent reference computations for the benchmark's output checks.

Nothing here calls curvepulse: every expected value is derived from the
files an operation wrote, or from the inputs the benchmark generated, with
arithmetic written out in this module.

An SU(2) element is carried as a unit quaternion (w, x, y, z) standing for
w*I - i*(x*sx + y*sy + z*sz).
"""

import csv

import numpy as np


def read_csv_columns(path):
    """Header names and float columns of a comma-separated file."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader)]
        rows = np.array([[float(v) for v in row] for row in reader if row])
    return header, rows


def _quat_product(a, b):
    # the operator a @ b (b acts first), renormalized
    wa, va = a[..., 0], a[..., 1:]
    wb, vb = b[..., 0], b[..., 1:]
    w = wa * wb - np.sum(va * vb, axis=-1)
    v = wa[..., None] * vb + wb[..., None] * va + np.cross(va, vb)
    out = np.concatenate([w[..., None], v], axis=-1)
    return out / np.linalg.norm(out, axis=-1, keepdims=True)


def _ordered_product(steps):
    """steps[k] acts at time k; returns steps[-1] @ ... @ steps[0]."""
    q = steps
    while q.shape[0] > 1:
        if q.shape[0] % 2:
            q = np.concatenate([q, [[1.0, 0.0, 0.0, 0.0]]])
        q = _quat_product(q[1::2], q[0::2])
    return q[0]


def evolve_pulse(t, omega_x, omega_y, substeps=4):
    """Noise-free evolution of H = (omega_x sx + omega_y sy) / 2.

    The drive is linear between samples (the pulse-file convention); each
    substep is the exact exponential of the two-point Gauss-Legendre
    fourth-order Magnus log, so the result is accurate to O(dt^4).
    """
    t = np.asarray(t, dtype=float)
    h = 0.5 * np.column_stack([omega_x, omega_y, np.zeros_like(t)])
    fine = np.linspace(t[0], t[-1], (t.size - 1) * substeps + 1)
    dt = fine[1] - fine[0]
    c = np.sqrt(3.0) / 6.0
    g1 = fine[:-1] + (0.5 - c) * dt
    g2 = fine[:-1] + (0.5 + c) * dt
    a1 = np.column_stack([np.interp(g1, t, h[:, k]) for k in range(3)])
    a2 = np.column_stack([np.interp(g2, t, h[:, k]) for k in range(3)])
    m = 0.5 * dt * (a1 + a2) + (np.sqrt(3.0) / 6.0) * dt * dt * np.cross(a2, a1)
    ang = np.linalg.norm(m, axis=1)
    sinc = np.where(ang > 0, np.sin(ang) / np.where(ang > 0, ang, 1.0), 1.0)
    steps = np.column_stack([np.cos(ang), sinc[:, None] * m])
    return _ordered_product(steps)


def quat_to_matrix(q):
    w, x, y, z = q
    return np.array([[w - 1j * z, -1j * x - y], [-1j * x + y, w + 1j * z]])


def phase_free_distance(a, b):
    """Operator-norm distance between two 2x2 unitaries, up to global phase."""
    tr = np.trace(np.conj(a).T @ b)
    phase = tr / abs(tr) if abs(tr) > 0 else 1.0
    return float(np.linalg.norm(a - b * np.conj(phase), ord=2))


_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def rotation_of(u):
    """SO(3) matrix R with u (v.sigma) u^dag = (R v).sigma."""
    u = u / np.sqrt(np.linalg.det(u))
    return np.array(
        [
            [0.5 * np.real(np.trace(_PAULI[i] @ u @ _PAULI[j] @ np.conj(u).T)) for j in range(3)]
            for i in range(3)
        ]
    )


def axis_rotation(axis, angle):
    """Rodrigues rotation matrix about a (not necessarily unit) axis."""
    n = np.asarray(axis, dtype=float)
    n = n / np.linalg.norm(n)
    k = np.array([[0, -n[2], n[1]], [n[2], 0, -n[0]], [-n[1], n[0], 0]])
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)


def rigid_rms(a, b):
    """RMS distance between two point sets after the best rigid motion (Kabsch)."""
    pa = a - a.mean(axis=0)
    pb = b - b.mean(axis=0)
    u, _, vt = np.linalg.svd(pb.T @ pa)
    d = np.diag([1.0, 1.0, np.sign(np.linalg.det(u @ vt))])
    rot = u @ d @ vt
    return float(np.sqrt(np.mean(np.sum((pa @ rot.T - pb) ** 2, axis=1))))


def _shoelace(u, w):
    return 0.5 * float(np.sum(u * np.roll(w, -1) - np.roll(u, -1) * w))


def expected_classification(points, length, closure_rtol=1e-3, area_rtol=1e-3):
    """Noise-cancellation order implied by a source curve's geometry."""
    closed = np.linalg.norm(points[-1] - points[0]) <= closure_rtol * length
    x, y, z = points.T
    areas = np.array([_shoelace(y, z), _shoelace(z, x), _shoelace(x, y)])
    flat = bool(np.all(np.abs(areas) <= area_rtol * length * length))
    if closed and flat:
        return "second-order"
    return "first-order" if closed else "uncorrected"


def square_infidelity(duration, angle, delta_beta):
    """Average gate infidelity of a square pulse against its noise-free gate.

    H = (Omega/2) sx + delta_beta sz with Omega = angle / duration.  With
    U = exp(-i phi n.sigma), phi = |h| T, and U0 = exp(-i angle/2 sx), the
    infidelity is (2/3) |vec(U0^dag U)|^2, written without cancellation:
    vec_x = sin(phi - angle/2) - eps cos(angle/2) sin(phi) with
    eps = 1 - n_x, and |vec_yz| = sin(phi) n_z.
    """
    half = 0.5 * angle / duration
    db = np.asarray(delta_beta, dtype=float)
    mag = np.hypot(half, db)
    phi = mag * duration
    eps = db * db / (mag * (mag + half))
    detune = duration * db * db / (mag + half)  # phi - angle/2
    vx = np.sin(detune) - eps * np.cos(0.5 * angle) * np.sin(phi)
    vyz = np.sin(phi) * db / mag
    return (2.0 / 3.0) * (vx * vx + vyz * vyz)
