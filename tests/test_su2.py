import numpy as np
import pytest
from scipy.linalg import expm

import curvepulse as cp
from curvepulse import _accel
from curvepulse.errors import InputError
from curvepulse.simulator import interaction_tangent
from curvepulse.su2 import IDENTITY, SIGMA_X, Unitary2

from conftest import pauli_compose, random_special_unitary, rotation_of


def taylor_exponential(m, terms=50):
    # independent oracle: truncated series of exp(m)
    out = np.eye(2, dtype=complex)
    acc = np.eye(2, dtype=complex)
    for k in range(1, terms):
        acc = acc @ m / k
        out = out + acc
    return out


def step_propagator(h, dt):
    # the package's one step exponential, for a Pauli vector h held
    # constant over the step: exp(-i dt h.sigma)
    s1, s2 = _accel._magnus4_factors(*(np.full(2, c) for c in h), dt)
    return Unitary2(complex(s1[0]), complex(s2[0]))


class TestStepPropagator:
    def test_zero_hamiltonian_is_identity(self):
        u = step_propagator(np.zeros(3), 1.0)
        assert np.max(np.abs(u.matrix - IDENTITY)) == 0.0

    def test_half_period_x_drive_is_x_flip(self):
        u = step_propagator(np.array([np.pi / 2, 0.0, 0.0]), 1.0)
        assert np.max(np.abs(u.matrix - (-1j * SIGMA_X))) < 1e-14

    def test_matches_taylor_series(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            h = rng.normal(scale=2.0, size=3)
            dt = rng.uniform(0.05, 0.8)
            want = taylor_exponential(-1j * dt * pauli_compose(h))
            got = step_propagator(h, dt).matrix
            assert np.max(np.abs(got - want)) < 1e-12


class TestPauli:
    def test_conjugated_z_rotates_to_y(self):
        # the curve velocity is the Pauli vector of U^dag sz U
        u = Unitary2.from_matrix(expm(-1j * np.pi / 4 * SIGMA_X))
        vec = interaction_tangent(np.array([u.u1]), np.array([u.u2]))[0]
        assert np.max(np.abs(vec - np.array([0.0, 1.0, 0.0]))) < 1e-12


class TestGateDistance:
    def test_zero_for_equal_and_phase(self):
        rng = np.random.default_rng(11)
        u = random_special_unitary(rng).matrix
        assert cp.gate_distance(u, u) < 1e-15
        assert cp.gate_distance(u, np.exp(1.23j) * u) < 1e-12

    def test_orthogonal_rotation(self):
        assert abs(cp.gate_distance(np.eye(2), SIGMA_X) - np.sqrt(2.0)) < 1e-12

    def test_small_distances_resolved(self):
        u = cp.axis_angle_unitary([0, 1, 0], 2e-10).matrix
        d = cp.gate_distance(np.eye(2), u)
        assert 0.5e-10 < d < 2e-10


class TestRotationLift:
    def test_roundtrip(self):
        rng = np.random.default_rng(8)
        for _ in range(500):
            u = random_special_unitary(rng)
            r = rotation_of(u)
            assert np.max(np.abs(r @ r.T - np.eye(3))) < 1e-12
            assert abs(np.linalg.det(r) - 1.0) < 1e-12
            back = cp.unitary_from_rotation(r).matrix
            d = min(np.max(np.abs(back - u.matrix)), np.max(np.abs(back + u.matrix)))
            assert d < 1e-10

    def test_z_rotation_convention(self):
        # U = exp(-i psi/2 sz) acts on x as rotation by -psi about z
        psi = 0.7
        u = cp.axis_angle_unitary([0, 0, 1], psi)
        r = rotation_of(u)
        want = np.array([np.cos(psi), -np.sin(psi), 0.0])
        assert np.max(np.abs(r @ np.array([1.0, 0, 0]) - want)) < 1e-12
        # the lift follows the same convention
        assert cp.gate_distance(cp.unitary_from_rotation(r), u) < 1e-12

    @pytest.mark.parametrize("diag", [(-1.0, -1.0, -1.0), (1.0, 1.0, -1.0)])
    def test_improper_matrix_rejected(self, diag):
        # orthogonal with determinant -1: no SU(2) preimage exists
        with pytest.raises(InputError, match="not a rotation"):
            cp.unitary_from_rotation(np.diag(diag))


class TestAxisAngle:
    def test_extraction(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            angle = rng.uniform(0.05, np.pi - 0.05)
            got_axis, got_angle = cp.unitary_axis_angle(cp.axis_angle_unitary(axis, angle))
            assert abs(got_angle - angle) < 1e-10
            assert np.max(np.abs(got_axis - axis)) < 1e-9


class TestUnitary2:
    def test_from_matrix_strips_phase(self):
        rng = np.random.default_rng(4)
        u = random_special_unitary(rng)
        w = Unitary2.from_matrix(np.exp(0.4j) * u.matrix)
        assert abs(abs(w.u1) ** 2 + abs(w.u2) ** 2 - 1.0) < 1e-12

    def test_rejects_non_unitary(self):
        with pytest.raises(InputError):
            Unitary2.from_matrix(np.array([[1.0, 0.2], [0.0, 1.0]]))

    def test_long_product_stays_unitary(self):
        # one million Magnus steps in one pairwise product
        rng = np.random.default_rng(9)
        n = 1_000_000
        hx = rng.normal(scale=1.0, size=n)
        hy = rng.normal(scale=1.0, size=n)
        hz = rng.normal(scale=1.0, size=n)
        u1, u2 = _accel.su2_product(hx, hy, hz, 1e-4)
        det = abs(u1) ** 2 + abs(u2) ** 2
        assert abs(det - 1.0) < 1e-9


def test_matrix_shape_guard():
    with pytest.raises(InputError, match="2x2"):
        Unitary2.from_matrix(np.eye(3))
