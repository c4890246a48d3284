import numpy as np
import pytest

import curvepulse as cp
from curvepulse import _accel
from curvepulse._numerics import fd2
from curvepulse.synthesis import _first_valid_normal

from conftest import magnus_nested_loop, stadium_rows


def _transport_reference(points, tangent, rddot, m1):
    # One double-reflection step per sample (Wang, Juettler, Zheng & Liu
    # 2008): the sequential form of the frame transport, kept as the
    # reference for the vectorized kernel.
    m1x, m1y, m1z = (float(v) for v in m1)
    n = tangent.shape[0]
    a_out = np.empty(n)
    b_out = np.empty(n)
    for i in range(n):
        tx, ty, tz = tangent[i, 0], tangent[i, 1], tangent[i, 2]
        m2x = ty * m1z - tz * m1y
        m2y = tz * m1x - tx * m1z
        m2z = tx * m1y - ty * m1x
        a_out[i] = rddot[i, 0] * m1x + rddot[i, 1] * m1y + rddot[i, 2] * m1z
        b_out[i] = rddot[i, 0] * m2x + rddot[i, 1] * m2y + rddot[i, 2] * m2z
        if i == n - 1:
            break
        # first reflection: across the chord bisector plane
        v1x = points[i + 1, 0] - points[i, 0]
        v1y = points[i + 1, 1] - points[i, 1]
        v1z = points[i + 1, 2] - points[i, 2]
        c1 = v1x * v1x + v1y * v1y + v1z * v1z
        if c1 > 0.0:
            d = 2.0 * (v1x * tx + v1y * ty + v1z * tz) / c1
            tlx = tx - d * v1x
            tly = ty - d * v1y
            tlz = tz - d * v1z
            d = 2.0 * (v1x * m1x + v1y * m1y + v1z * m1z) / c1
            m1x -= d * v1x
            m1y -= d * v1y
            m1z -= d * v1z
        else:
            tlx, tly, tlz = tx, ty, tz
        # second reflection: align the reflected tangent with the next one
        v2x = tangent[i + 1, 0] - tlx
        v2y = tangent[i + 1, 1] - tly
        v2z = tangent[i + 1, 2] - tlz
        c2 = v2x * v2x + v2y * v2y + v2z * v2z
        if c2 > 0.0:
            d = 2.0 * (v2x * m1x + v2y * m1y + v2z * m1z) / c2
            m1x -= d * v2x
            m1y -= d * v2y
            m1z -= d * v2z
        # re-orthogonalize against the new tangent
        tnx, tny, tnz = tangent[i + 1, 0], tangent[i + 1, 1], tangent[i + 1, 2]
        dot = m1x * tnx + m1y * tny + m1z * tnz
        m1x -= dot * tnx
        m1y -= dot * tny
        m1z -= dot * tnz
        norm = np.sqrt(m1x * m1x + m1y * m1y + m1z * m1z)
        m1x /= norm
        m1y /= norm
        m1z /= norm
    return a_out, b_out


def _trajectory_reference(hx, hy, hz, dt):
    # One fourth-order Magnus step per node interval, multiplied in order:
    # the sequential form of the trajectory, kept as the reference for the
    # blocked scan and, at its last node, for the pairwise product.
    # heff = dt*(h_k + h_{k+1})/2 - dt^2/6 * (h_k x h_{k+1})
    n = hx.shape[0]
    u1_out = np.empty(n, dtype=np.complex128)
    u2_out = np.empty(n, dtype=np.complex128)
    u1 = 1.0 + 0.0j
    u2 = 0.0 + 0.0j
    u1_out[0] = u1
    u2_out[0] = u2
    c6 = dt * dt / 6.0
    for k in range(n - 1):
        mx = 0.5 * dt * (hx[k] + hx[k + 1]) - c6 * (hy[k] * hz[k + 1] - hz[k] * hy[k + 1])
        my = 0.5 * dt * (hy[k] + hy[k + 1]) - c6 * (hz[k] * hx[k + 1] - hx[k] * hz[k + 1])
        mz = 0.5 * dt * (hz[k] + hz[k + 1]) - c6 * (hx[k] * hy[k + 1] - hy[k] * hx[k + 1])
        a = np.sqrt(mx * mx + my * my + mz * mz)
        if a > 0.0:
            c = np.cos(a)
            snc = np.sin(a) / a
        else:
            c = 1.0
            snc = 1.0
        s1 = c - 1j * snc * mz
        s2 = snc * (my - 1j * mx)
        w1 = s1 * u1 - np.conj(s2) * u2
        w2 = s2 * u1 + np.conj(s1) * u2
        u1 = w1
        u2 = w2
        if k % 512 == 511:
            norm = np.sqrt(abs(u1) ** 2 + abs(u2) ** 2)
            u1 = u1 / norm
            u2 = u2 / norm
        u1_out[k + 1] = u1
        u2_out[k + 1] = u2
    return u1_out, u2_out


def _stadium(tmp_path):
    # starts on a straight run, loaded through the CSV route
    cp.save_curve_csv(stadium_rows(), tmp_path / "stadium.csv")
    return cp.load_curve(tmp_path / "stadium.csv")


TRANSPORT_CURVES = {
    "circle": lambda tmp_path: cp.builtin_curve("circle"),
    "lemniscate": lambda tmp_path: cp.builtin_curve("lemniscate"),
    "alpha_eq12": lambda tmp_path: cp.builtin_curve("alpha_eq12"),
    "stadium": _stadium,
    "clifford_fig1@32768": lambda tmp_path: cp.builtin_curve("clifford_fig1", 32768),
}


@pytest.fixture(scope="module")
def step_fields():
    rng = np.random.default_rng(17)
    n = 5000
    return (
        rng.normal(scale=2.0, size=n),
        rng.normal(scale=2.0, size=n),
        rng.normal(scale=0.5, size=n),
        2.5e-4,
    )


class TestPathEquality:
    def test_product_paths_agree(self, step_fields):
        # the pairwise product equals the last node of the sequential
        # Magnus4 reference, for odd and even step counts
        cases = {"step_fields": step_fields}
        for nodes in (2, 3, 4, 1001):
            rng = np.random.default_rng(nodes)
            cases[nodes] = (*rng.normal(scale=2.0, size=(3, nodes)), 1.0 / 64)
        for label, (hx, hy, hz, dt) in cases.items():
            a1, a2 = _accel.su2_product(hx, hy, hz, dt)
            b1, b2 = _trajectory_reference(hx, hy, hz, dt)
            assert abs(a1 - b1[-1]) < 1e-12, label
            assert abs(a2 - b2[-1]) < 1e-12, label

    def test_batched_product_matches_rows(self, step_fields):
        # a batch of hz rows gives the same (u1, u2) as one product per row;
        # over 40 rows the 4999 steps span six full blocks and a partial one,
        # while each single row fits in one block
        hx, hy, hz, dt = step_fields
        rows = hz[None, :] + np.linspace(-1.0, 1.0, 40)[:, None]
        block = _accel._BLOCK_FACTORS // rows.shape[0]
        assert block < hx.size - 1 and (hx.size - 1) % block
        u1, u2 = _accel.su2_product(hx, hy, rows, dt)
        assert u1.shape == u2.shape == (rows.shape[0],)
        for i in (0, 13, 39):
            b1, b2 = _accel.su2_product(hx, hy, rows[i], dt)
            assert abs(u1[i] - b1) < 1e-13
            assert abs(u2[i] - b2) < 1e-13

    def test_trajectory_paths_agree(self, step_fields):
        # 32761 nodes give 32760 steps, not a perfect square, so the last
        # block is padded with identity steps
        cases = {"step_fields": step_fields}
        for nodes in (32761, 2, 3):
            rng = np.random.default_rng(nodes)
            cases[nodes] = (*rng.normal(scale=2.0, size=(3, nodes)), 1.0 / 4096)
        for label, (hx, hy, hz, dt) in cases.items():
            a1, a2 = _accel.su2_trajectory(hx, hy, hz, dt)
            b1, b2 = _trajectory_reference(hx, hy, hz, dt)
            assert np.max(np.abs(a1 - b1)) < 1e-12, label
            assert np.max(np.abs(a2 - b2)) < 1e-12, label

    def test_magnus_paths_agree(self):
        # the vectorized nested sum equals the literal double loop
        rng = np.random.default_rng(23)
        n = 600
        v = rng.normal(size=(n, 3))
        v /= np.linalg.norm(v, axis=1)[:, None]
        dt = 1.0 / (n - 1)
        a = _accel.magnus_nested_r2(v[:, 0], v[:, 1], v[:, 2], dt)
        b = magnus_nested_loop(v[:, 0], v[:, 1], v[:, 2], dt)
        assert np.max(np.abs(a - np.array(b))) < 1e-12

    def test_trajectory_final_matches_product_limit(self, step_fields):
        # both kernels take the same Magnus4 steps on the same nodes, so the
        # trajectory's last node is the product
        hx, hy, hz, dt = step_fields
        u1_t, u2_t = _accel.su2_trajectory(hx, hy, hz, dt)
        u1_p, u2_p = _accel.su2_product(hx, hy, hz, dt)
        assert abs(u1_t[-1] - u1_p) < 1e-12
        assert abs(u2_t[-1] - u2_p) < 1e-12

    @pytest.mark.parametrize("name", list(TRANSPORT_CURVES))
    def test_transport_paths_agree(self, name, tmp_path):
        # the inputs drive_phase_track hands the kernel
        frenet = cp.frenet_data(TRANSPORT_CURVES[name](tmp_path))
        rddot = fd2(frenet.points, frenet.dt)
        t0 = frenet.tangent[0]
        m1 = _first_valid_normal(frenet)
        m1 = m1 - (m1 @ t0) * t0
        m1 /= np.linalg.norm(m1)
        a, b = _accel.transport_components(frenet.points, frenet.tangent, rddot, m1)
        a_ref, b_ref = _transport_reference(frenet.points, frenet.tangent, rddot, m1)
        scale = np.max(np.linalg.norm(rddot, axis=1))
        assert np.max(np.abs(a - a_ref)) <= 1e-12 * scale
        assert np.max(np.abs(b - b_ref)) <= 1e-12 * scale
