"""Exact 2x2 algebra for SU(2) evolutions.

The column-pair representation ``Unitary2``, the unitary of a (chi, phi,
theta) angle triple, phase-aligned gate distances, axis-angle conversions,
and the lift of a rotation to SU(2).
Evolutions themselves step in ``_accel``.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InputError

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY = np.eye(2, dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)

# from_matrix's unitarity bound
_UNITARY_TOL = 1e-8


@dataclass(frozen=True)
class Unitary2:
    """Special-unitary 2x2 matrix stored as the column pair (u1, u2)."""

    u1: complex
    u2: complex

    @property
    def matrix(self):
        return np.array(
            [[self.u1, -np.conj(self.u2)], [self.u2, np.conj(self.u1)]], dtype=complex
        )

    @classmethod
    def from_matrix(cls, m):
        m = np.asarray(m, dtype=complex)
        if m.shape != (2, 2):
            raise InputError(f"expected a 2x2 matrix, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise InputError("non-finite matrix entries")
        if np.max(np.abs(m @ m.conj().T - IDENTITY)) > _UNITARY_TOL:
            raise InputError("matrix is not unitary within tolerance")
        # strip the global det phase so the stored pair is special-unitary
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        m = m / np.sqrt(det)
        return cls(complex(m[0, 0]), complex(m[1, 0]))

    def normalized(self):
        norm = np.sqrt(abs(self.u1) ** 2 + abs(self.u2) ** 2)
        return Unitary2(self.u1 / norm, self.u2 / norm)


def unitary_from_angles(chi, phi, theta):
    """Assemble the evolution operator from its (chi, phi, theta) angles."""
    u1 = np.exp(0.5j * (theta + phi)) * np.cos(chi / 2.0)
    u2 = -1j * np.exp(0.5j * (phi - theta)) * np.sin(chi / 2.0)
    return Unitary2(complex(u1), complex(u2))


def _su2_pair(u):
    # (u1, u2) of a unitary with its determinant phase removed; either root
    # serves, since the distance below is even in the overall sign
    w = u if isinstance(u, Unitary2) else Unitary2.from_matrix(u)
    return w.u1, w.u2


def _distance_sq(u, v):
    # Squared phase-aligned distance of SU(2) pairs (u1, u2), row by row.
    # Tr(u^dag v) is real for SU(2), so the aligning phase is +-1 and the
    # distance is the smaller of |u - v| and |u + v|, free of cancellation.
    minus = np.abs(u[0] - v[0]) ** 2 + np.abs(u[1] - v[1]) ** 2
    plus = np.abs(u[0] + v[0]) ** 2 + np.abs(u[1] + v[1]) ** 2
    return np.minimum(minus, plus)


def gate_distance(u, v):
    """Phase-aligned operator-norm distance min_phase ||u - e^{i phase} v||.

    With both determinant phases removed the aligning phase is +-1, and the
    difference of two SU(2) pairs is a scaled unitary whose operator norm is
    the pair distance, so small distances keep their digits.
    """
    return float(np.sqrt(_distance_sq(_su2_pair(u), _su2_pair(v))))


def axis_angle_unitary(axis, angle):
    """cos(angle/2) I - i sin(angle/2) (axis.sigma) for a unit axis."""
    axis = np.asarray(axis, dtype=float)
    n = np.linalg.norm(axis)
    if n == 0:
        raise InputError("rotation axis must be nonzero")
    axis = axis / n
    half = angle / 2.0
    u1 = np.cos(half) - 1j * np.sin(half) * axis[2]
    u2 = np.sin(half) * (axis[1] - 1j * axis[0])
    return Unitary2(complex(u1), complex(u2))


def unitary_axis_angle(u):
    """Rotation axis and angle in [0, pi] of u, up to global phase."""
    m = (u if isinstance(u, Unitary2) else Unitary2.from_matrix(u)).matrix
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    m = m / np.sqrt(det)
    c = np.clip(np.real(np.trace(m)) / 2.0, -1.0, 1.0)
    # -i sin(angle/2) axis.sigma is the Pauli part of m
    s_vec = -np.imag(np.array([0.5 * np.trace(m @ p) for p in PAULIS]))
    s = np.linalg.norm(s_vec)
    angle = 2.0 * np.arctan2(s, c)
    if s < 1e-12:
        return np.array([0.0, 0.0, 1.0]), float(angle)
    axis = s_vec / s
    if angle > np.pi:
        angle = 2.0 * np.pi - angle
        axis = -axis
    return axis, float(angle)


def _proper_rotation(r):
    """r as a float array, if it is orthogonal within 1e-6 with det > 0."""
    r = np.asarray(r, dtype=float)
    if r.shape != (3, 3) or np.max(np.abs(r @ r.T - np.eye(3))) > 1e-6:
        raise InputError("not an orthogonal 3x3 matrix")
    if np.linalg.det(r) < 0:
        raise InputError("not a rotation: the matrix has determinant -1")
    return r


def unitary_from_rotation(r):
    """One of the two SU(2) preimages of a proper rotation (global sign free)."""
    r = _proper_rotation(r)
    # quaternion extraction for the adjoint convention used above
    q = np.empty(4)
    tr = np.trace(r)
    if tr > 0:
        s = np.sqrt(tr + 1.0) * 2
        q[0] = 0.25 * s
        q[1] = (r[2, 1] - r[1, 2]) / s
        q[2] = (r[0, 2] - r[2, 0]) / s
        q[3] = (r[1, 0] - r[0, 1]) / s
    else:
        i = int(np.argmax(np.diag(r)))
        j, k = (i + 1) % 3, (i + 2) % 3
        s = np.sqrt(max(1e-15, 1.0 + r[i, i] - r[j, j] - r[k, k])) * 2
        q[0] = (r[k, j] - r[j, k]) / s
        q[i + 1] = 0.25 * s
        q[j + 1] = (r[j, i] + r[i, j]) / s
        q[k + 1] = (r[k, i] + r[i, k]) / s
    q = q / np.linalg.norm(q)
    # U = q0 I + i (q.sigma) satisfies U^dag (v.sigma) U = (R v).sigma
    u1 = q[0] + 1j * q[3]
    u2 = -q[2] + 1j * q[1]
    return Unitary2(complex(u1), complex(u2)).normalized()
