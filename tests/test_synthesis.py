import numpy as np
import pytest

import curvepulse as cp
from curvepulse._numerics import fd1
from curvepulse.errors import InputError, NoSolutionError
from curvepulse.synthesis import gate_from_frame

from conftest import helix_curve, stadium_rows

CLIFFORD_TARGET = cp.axis_angle_unitary(np.array([-1.0, 1.0, 1.0]), 2 * np.pi / 3)


class TestPulsesFromCurve:
    def test_circle_constant_drive(self, builtin_frenet):
        pulse = cp.pulses_from_curve(builtin_frenet["circle"], phi0=0.25)
        assert np.max(np.abs(pulse.omega - 1.0)) < 1e-6
        assert np.max(np.abs(pulse.phi - 0.25)) < 1e-6

    def test_helix_linear_phase(self):
        f = cp.frenet_data(helix_curve())
        pulse = cp.pulses_from_curve(f)
        assert np.max(np.abs(pulse.omega - 0.8)) < 1e-6
        slope = np.polyfit(pulse.t, pulse.phi, 1)[0]
        assert abs(slope - 0.4) < 1e-6

    def test_initial_phase_convention(self, builtin_frenet, builtin_curves):
        pulse = cp.pulses_from_curve(builtin_frenet["clifford_fig1"], phi0=0.7)
        assert abs(pulse.phi[0] - 0.7) < 1e-9
        # the choice of phi0 must be shared consistently with the extraction
        gate = cp.target_gate_from_curve(
            builtin_curves["clifford_fig1"], builtin_frenet["clifford_fig1"], phi0=0.7
        )
        u = cp.propagate(pulse, 0.0)
        assert cp.gate_distance(gate.unitary, u) < 5e-5

    def test_clifford_two_lobed_envelope(self, builtin_pulses):
        # qualitative shape check: the blended-curve pulse has two dominant
        # envelope lobes separated by a deep dip
        omega = builtin_pulses["clifford_fig1"].omega
        level = 0.3 * omega.max()
        above = omega > level
        runs = int(np.sum(np.diff(above.astype(int)) == 1) + (1 if above[0] else 0))
        assert runs == 2
        dip = omega[np.argmax(above) :][: np.argmax(omega)].min()
        assert dip < 0.05 * omega.max()

    def test_phase_integral_matches_torsion_quadrature(self):
        # the transported phase equals the running torsion integral; strict
        # on the well-conditioned helix, loose on the stiff spherical loop
        # whose pointwise torsion quadrature is noisy at its sharp features
        from curvepulse._numerics import cumtrapz

        f = cp.frenet_data(helix_curve())
        pulse = cp.pulses_from_curve(f)
        assert np.max(np.abs(pulse.phi - cumtrapz(f.torsion, f.dt))) < 3e-6

        f = cp.frenet_data(cp.builtin_curve("alpha_eq12"))
        pulse = cp.pulses_from_curve(f)
        assert np.max(np.abs(pulse.phi - cumtrapz(f.torsion, f.dt))) < 5e-3


class TestTargetGate:
    def test_plane_loop_identity(self):
        # circle in the xz plane starting along +z: identity up to phase
        def sampler(lam):
            lam = np.atleast_1d(lam)
            return np.stack([1 - np.cos(lam), np.zeros_like(lam), np.sin(lam)], axis=1)

        c = cp.reparameterize_by_arclength(sampler, (0.0, 2 * np.pi), 4096)
        gate = cp.target_gate_from_curve(c)
        assert cp.gate_distance(gate.unitary, np.eye(2)) < 1e-6
        assert gate.closed

    def test_clifford_gate_reproduction(self, builtin_curves, builtin_frenet):
        gate = cp.target_gate_from_curve(
            builtin_curves["clifford_fig1"], builtin_frenet["clifford_fig1"]
        )
        assert cp.gate_distance(gate.unitary, CLIFFORD_TARGET) < 1e-3
        assert abs(gate.angle - 2 * np.pi / 3) < 1e-3

    def test_agrees_with_propagation(self, builtin_curves, builtin_frenet, builtin_pulses):
        for name in builtin_curves:
            gate = cp.target_gate_from_curve(builtin_curves[name], builtin_frenet[name])
            u = cp.propagate(builtin_pulses[name], 0.0)
            # default grids; the acceptance suite re-runs this at finer ones
            assert cp.gate_distance(gate.unitary, u) < 5e-5, name

    def test_frame_route_cross_check(self, builtin_curves, builtin_frenet):
        for name in ("circle", "alpha_eq12", "const_torsion_gamma"):
            gate = cp.target_gate_from_curve(builtin_curves[name], builtin_frenet[name])
            other = gate_from_frame(builtin_frenet[name])
            assert cp.gate_distance(gate.unitary, other) < 1e-5, name

    @pytest.mark.parametrize("shape", [(1.0, 1.0, 513), (3.0, 0.5, 2049)])
    def test_pole_tangent_end_uses_carried_normal(self, tmp_path, shape):
        # a stadium ends on a straight run: the final tangent is at the pole
        # and the final sample has no normal of its own, so phi_end must come
        # from the normal carried from the nearest curved sample
        cp.save_curve_csv(stadium_rows(*shape), tmp_path / "stadium.csv")
        for n in (2048, 4096, 6000, 8192):
            curve = cp.load_curve(tmp_path / "stadium.csv", n_samples=n)
            f = cp.frenet_data(curve)
            gate = cp.target_gate_from_curve(curve, f)
            assert f.flagged[-1] and "degenerate_final_normal" in gate.flags, n
            u = cp.propagate(cp.pulses_from_curve(f), 0.0)
            assert cp.gate_distance(gate.unitary, u) < 1e-6, n

    def test_open_curve_flagged(self):
        f = cp.frenet_data(helix_curve())
        gate = cp.target_gate_from_curve(helix_curve(), f)
        assert not gate.closed
        assert "non_robust_open_curve" in gate.flags


class TestRigidInvariance:
    def test_pulse_and_gate_invariant(self):
        rng = np.random.default_rng(7)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        if np.linalg.det(q) < 0:
            q[:, 0] *= -1
        shift = rng.normal(size=3)
        for name in ("alpha_eq12", "clifford_fig1"):
            c = cp.builtin_curve(name, n_samples=512)
            c2 = c.transformed(rotation=q, translation=shift)
            p1 = cp.pulses_from_curve(cp.frenet_data(c), phi0=0.4)
            p2 = cp.pulses_from_curve(cp.frenet_data(c2), phi0=0.4)
            assert np.sqrt(np.mean((p1.omega - p2.omega) ** 2)) < 1e-8
            g1 = cp.target_gate_from_curve(c, phi0=0.4)
            g2 = cp.target_gate_from_curve(c2, phi0=0.4)
            assert cp.gate_distance(g1.unitary, g2.unitary) < 1e-8

    @pytest.mark.parametrize("samples", [6000, 8192])
    def test_rotated_stadium_gate(self, tmp_path, samples):
        # the benchmark's stadium starts and ends on straight runs, where r''
        # is rounding noise whose angle turns with the pose; counted as a
        # drive phase it set the end phase, and both gate readouts landed up
        # to 4.5e-4 from the evolution of the same pulse
        cp.save_curve_csv(stadium_rows(1.0, 1.0, 513), tmp_path / "stadium.csv")
        cz, sz, cx, sx = np.cos(0.3), np.sin(0.3), np.cos(1.2), np.sin(1.2)
        rz = np.array([[cz, -sz, 0.0], [sz, cz, 0.0], [0.0, 0.0, 1.0]])
        rx = np.array([[1.0, 0.0, 0.0], [0.0, cx, -sx], [0.0, sx, cx]])
        curve = cp.load_curve(tmp_path / "stadium.csv", n_samples=samples)
        curve = curve.transformed(rotation=rz @ rx)
        frenet = cp.frenet_data(curve)
        u = cp.propagate(cp.pulses_from_curve(frenet), 0.0)
        endpoint = cp.target_gate_from_curve(curve, frenet).unitary
        assert cp.gate_distance(endpoint, u) < 1e-6
        assert cp.gate_distance(gate_from_frame(frenet), u) < 1e-6


class TestFrameTransforms:
    def test_zero_detuning_passthrough(self):
        t = np.linspace(0.0, 1.0, 256)
        wx = np.sin(np.pi * t) ** 2
        pulse = cp.transform_to_transverse_frame(t, wx, np.zeros_like(t))
        assert np.max(np.abs(pulse.phi)) == 0.0
        assert np.max(np.abs(pulse.omega - np.abs(wx))) < 1e-15

    def test_zero_drive(self):
        t = np.linspace(0.0, 1.0, 256)
        pulse = cp.transform_to_transverse_frame(t, np.zeros_like(t), np.full_like(t, 2.0))
        assert np.max(pulse.omega) == 0.0

    def test_constant_detuning_gives_constant_torsion(self):
        # the frame transform of an x-drive plus constant z field produces
        # a pulse whose reconstructed curve has constant torsion -Delta
        delta = 1.3
        t = np.linspace(0.0, 4.0, 2048)
        wx = 2.0 + np.sin(2 * np.pi * t / 4.0) ** 2
        pulse = cp.transform_to_transverse_frame(t, wx, np.full_like(t, delta))
        rec = cp.curve_from_pulse(pulse)
        f = cp.frenet_data(rec.curve)
        assert np.max(np.abs(f.torsion + delta)) < 1e-4

    def test_roundtrip_smooth(self, builtin_pulses):
        pulse = builtin_pulses["alpha_eq12"]
        lab = cp.transform_to_lab_frame(pulse)
        back = cp.transform_to_transverse_frame(
            lab.t, lab.omega_x, lab.omega_z, lab.phase0, lab.phase_ramp
        )
        assert np.max(np.abs(back.omega_x - pulse.omega_x)) < 1e-10
        assert np.max(np.abs(back.omega_y - pulse.omega_y)) < 1e-10

    def test_roundtrip_with_sign_crossing(self):
        # signed envelope crossing zero: the pi flips must survive
        t = np.linspace(0.0, 2.0, 1024)
        wx = np.sin(2 * np.pi * t)
        wy = 0.3 * np.sin(4 * np.pi * t + 0.4)
        omega = np.hypot(wx, wy)
        phi = np.arctan2(wy, wx)
        pulse = cp.PulseWaveform(t, omega, np.unwrap(phi))
        lab = cp.transform_to_lab_frame(pulse)
        back = cp.transform_to_transverse_frame(
            lab.t, lab.omega_x, lab.omega_z, lab.phase0, lab.phase_ramp
        )
        assert np.max(np.abs(back.omega_x - pulse.omega_x)) < 1e-10
        assert np.max(np.abs(back.omega_y - pulse.omega_y)) < 1e-10

    def test_grid_mismatch_rejected(self):
        t = np.linspace(0.0, 1.0, 64)
        with pytest.raises(InputError):
            cp.transform_to_transverse_frame(t, np.zeros(32), np.zeros(64))


class TestSolveTargetPhase:
    def test_locates_clifford_parameter(self):
        def family(q):
            return cp.builtin_curve("clifford_fig1", n_samples=1024, q=q)

        result = cp.solve_target_phase(family, CLIFFORD_TARGET, (1.3, 1.9), tol=1e-4)
        assert not result.flat
        assert abs(result.param - 1.6054) < 5e-3
        assert result.distance < 1e-3

    def test_flat_landscape_circle_radius(self):
        def family(radius):
            return cp.builtin_curve("circle", n_samples=512, radius=radius)

        result = cp.solve_target_phase(family, np.eye(2), (0.5, 2.0), n_scan=9)
        assert result.flat

    def test_flat_landscape_rigid_rotation(self):
        base = cp.builtin_curve("alpha_eq12", n_samples=1024)
        target = cp.target_gate_from_curve(base)

        def family(angle):
            c, s = np.cos(angle), np.sin(angle)
            rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
            return base.transformed(rotation=rot)

        result = cp.solve_target_phase(family, target, (-0.5, 0.5), n_scan=9)
        assert result.flat
        assert result.distance < 1e-6

    def test_no_bracket_raises(self):
        def family(q):
            return cp.builtin_curve("clifford_fig1", n_samples=512, q=q)

        # distance is monotone increasing over this range: no interior bracket
        with pytest.raises(NoSolutionError) as err:
            cp.solve_target_phase(family, CLIFFORD_TARGET, (1.7, 2.2), n_scan=7)
        assert len(err.value.distances) == 7


class TestPulseIO:
    def test_csv_roundtrip_exact(self, tmp_path, builtin_pulses):
        pulse = builtin_pulses["circle"]
        path = tmp_path / "pulse.csv"
        cp.save_pulse_csv(pulse, path)
        from curvepulse.synthesis import read_pulse_file

        t, wx, wy, det, _ = read_pulse_file(str(path))
        assert np.array_equal(t, pulse.t)
        assert np.array_equal(wx, pulse.omega_x)
        assert np.array_equal(wy, pulse.omega_y)
        assert det is None

    def test_json_roundtrip_exact(self, tmp_path, builtin_pulses):
        pulse = builtin_pulses["alpha_eq12"]
        path = tmp_path / "pulse.json"
        cp.save_pulse_json(pulse, path)
        from curvepulse.synthesis import read_pulse_file

        t, wx, wy, det, meta = read_pulse_file(str(path))
        assert np.array_equal(t, pulse.t)
        assert np.max(np.abs(wx - pulse.omega_x)) < 1e-15
        assert meta["phi0"] == pulse.metadata["phi0"]


class TestWaveformValidation:
    def test_negative_omega_rejected(self):
        t = np.linspace(0.0, 1.0, 16)
        with pytest.raises(InputError):
            cp.PulseWaveform(t, -np.ones(16), np.zeros(16))

    def test_non_uniform_grid_rejected(self):
        t = np.concatenate([[0.0], np.cumsum(np.linspace(0.1, 0.2, 15))])
        with pytest.raises(InputError):
            cp.PulseWaveform(t, np.ones(16), np.zeros(16))

    def test_angles_recoverable(self, builtin_pulses):
        pulse = builtin_pulses["circle"]
        assert np.max(np.abs(pulse.omega_x - pulse.omega * np.cos(pulse.phi))) < 1e-12


def _grid(case):
    """A 16-sample grid in steps of 1/8, edited by case, and whether the rule takes it."""
    t = np.arange(16) * 0.125
    if case == "one_sample":
        return t[:1], False
    if case == "offset":
        return t + 0.5, False
    if case == "repeated":
        t[5] = t[4]
        return t, False
    if case == "nan":
        t[5] = np.nan
        return t, False
    # the step from t[8] to t[9] alone is off, by 2e-9 or 0.5e-9 of dt
    if case == "step_off_2e-9":
        t[9:] += 2e-9 * 0.125
        return t, False
    if case == "step_off_0.5e-9":
        t[9:] += 0.5e-9 * 0.125
        return t, True
    return t, True


@pytest.mark.parametrize(
    "case",
    ["uniform", "one_sample", "offset", "repeated", "nan", "step_off_2e-9", "step_off_0.5e-9"],
)
def test_curves_and_pulses_share_the_grid_rule(case):
    # SpaceCurve and PulseWaveform accept the same grids and turn down the
    # rest with the same reason
    t, accepted = _grid(case)
    n = t.shape[0]
    build = {
        "curve": lambda: cp.SpaceCurve(t, np.zeros((n, 3)), "grid"),
        "pulse": lambda: cp.PulseWaveform(t, np.ones(n), np.zeros(n)),
    }
    if accepted:
        for make in build.values():
            make()
        return
    reasons = set()
    for make in build.values():
        with pytest.raises(InputError) as err:
            make()
        reasons.add(str(err.value))
    assert len(reasons) == 1, reasons
