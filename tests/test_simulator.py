import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

import curvepulse as cp
from curvepulse.errors import ConvergenceError, InputError
from curvepulse.simulator import MAX_REFINEMENT, interaction_trajectory
from curvepulse.su2 import SIGMA_X, SIGMA_Z, _distance_sq, _su2_pair

from conftest import magnus_a2_nested, pauli_compose, third_order_vector


def square_x_pulse(duration=1.0, angle=np.pi, n_samples=128):
    return cp.square_pulse(duration, angle=angle, n_samples=n_samples)


class TestPropagate:
    def test_square_pi_pulse_is_x_flip(self):
        u = cp.propagate(square_x_pulse(), 0.0, refinement=1)
        assert cp.gate_distance(u, -1j * SIGMA_X) < 1e-12

    def test_free_evolution_exact(self):
        t = np.linspace(0.0, 2.0, 64)
        pulse = cp.PulseWaveform(t, np.zeros(64), np.zeros(64))
        delta = 0.3
        u = cp.propagate(pulse, delta, refinement=1)
        want = expm(-1j * delta * 2.0 * SIGMA_Z)
        assert cp.gate_distance(u, want) < 1e-12

    def test_matches_dense_expm_oracle(self):
        # independent oracle: scipy expm over very fine midpoint steps.  The
        # midpoint product is second order with an error series in even
        # powers of the step, so (4 U_512 - U_256) / 3 is fourth order.
        rng = np.random.default_rng(12)
        n = 33
        t = np.linspace(0.0, 1.0, n)
        omega = 2.0 + np.sin(2 * np.pi * t) + 0.3 * rng.normal(size=n).cumsum() / n
        omega = np.abs(omega)
        phi = 0.4 * np.cos(2 * np.pi * t)
        pulse = cp.PulseWaveform(t, omega, phi)
        delta = 0.05

        def midpoint_product(fine):
            u_ref = np.eye(2, dtype=complex)
            wx, wy = pulse.omega_x, pulse.omega_y
            for k in range(n - 1):
                for j in range(fine):
                    frac = (j + 0.5) / fine
                    hx = 0.5 * (wx[k] + frac * (wx[k + 1] - wx[k]))
                    hy = 0.5 * (wy[k] + frac * (wy[k + 1] - wy[k]))
                    h = pauli_compose([hx, hy, delta])
                    u_ref = expm(-1j * (t[1] - t[0]) / fine * h) @ u_ref
            return u_ref

        u_ref = (4.0 * midpoint_product(512) - midpoint_product(256)) / 3.0
        u = cp.propagate(pulse, delta, refinement=512)
        assert cp.gate_distance(u, u_ref) < 1e-10

    def test_auto_converges_on_builtins(self, builtin_pulses):
        # the default settings certify every built-in at a few substeps
        for name, pulse in builtin_pulses.items():
            for db in (0.0, cp.default_noise_grid(pulse.duration).max()):
                _, cert = cp.propagate(pulse, db, certify=True)
                assert cert.converged, (name, db, cert)
                assert cert.refinement <= 8, (name, db, cert)

    def test_certificate(self):
        pulse = square_x_pulse(n_samples=64)
        u, cert = cp.propagate(pulse, 0.1, certify=True)
        assert cert.converged
        assert cert.last_delta < 1e-8

    def test_strict_raises_for_unresolvable(self):
        # absurdly fast drive cannot converge within the refinement cap; the
        # certificate says so (sweep --certify turns that into exit 3)
        t = np.linspace(0.0, 1.0, 16)
        pulse = cp.PulseWaveform(t, np.full(16, 1e7), np.linspace(0, 40 * np.pi, 16))
        _, cert = cp.propagate(pulse, 0.0, certify=True)
        assert cert.refinement == MAX_REFINEMENT
        assert not cert.converged
        assert cert.last_delta >= 1e-8

    def test_fixed_refinement_certificate_rule(self, builtin_pulses):
        # a given refinement r returns the r result, certified by its change
        # at 2r, in propagate and in infidelity_sweep alike
        pulse = builtin_pulses["clifford_fig1"]
        grid = cp.default_noise_grid(pulse.duration)
        sweep = cp.infidelity_sweep(pulse, delta_beta=grid, refinement=2)
        target = cp.propagate(pulse, 0.0, refinement=2)
        db = grid[-1]
        plain = cp.propagate(pulse, db, refinement=2)
        certified, cert = cp.propagate(pulse, db, refinement=2, certify=True)
        assert certified == plain
        assert cert.refinement == sweep.refinement == 2
        fine = cp.propagate(pulse, db, refinement=4)
        assert cert.last_delta == cp.gate_distance(plain, fine)
        assert abs(cp.average_gate_infidelity(certified, target) - sweep.infidelity[-1]) < 1e-13

    def test_input_validation(self):
        with pytest.raises(InputError):
            cp.propagate("not a pulse", 0.0)
        # no substep count resolves a non-finite noise value
        pulse = square_x_pulse()
        for bad in (np.nan, np.inf, -np.inf):
            for kwargs in ({}, {"certify": True}, {"refinement": 2}):
                with pytest.raises(InputError, match="finite"):
                    cp.propagate(pulse, bad, **kwargs)

    def test_refinement_below_one_rejected(self):
        # every evolution checks its substep count, not only the CLI
        pulse = square_x_pulse()
        calls = (
            lambda: cp.propagate(pulse, 0.0, refinement=0),
            lambda: cp.propagate(pulse, 0.0, refinement=-2, certify=True),
            lambda: cp.infidelity_sweep(pulse, refinement=0),
            lambda: cp.curve_from_pulse(pulse, refinement=0),
        )
        for call in calls:
            with pytest.raises(InputError, match="refinement"):
                call()

    def test_one_checked_trajectory_builder(self):
        # reverse analysis enters one builder, which checks its pulse itself
        assert cp.curve_from_pulse is interaction_trajectory
        for evolve in (interaction_trajectory, cp.magnus_errors, cp.robustness_report):
            with pytest.raises(InputError, match="expects a PulseWaveform"):
                evolve("x")


class TestDetuningColumn:
    @pytest.mark.parametrize(
        "evolve",
        [cp.propagate, cp.infidelity_sweep, cp.magnus_errors, cp.curve_from_pulse,
         cp.robustness_report],
        ids=lambda f: f.__name__,
    )
    def test_lab_waveform_refused(self, evolve, builtin_pulses):
        # a lab-frame waveform keeps its phase in the z field; its drive
        # columns alone are another pulse, so no evolution may drop the field
        lab = cp.transform_to_lab_frame(builtin_pulses["clifford_fig1"]).to_waveform()
        with pytest.raises(InputError, match="detuning"):
            evolve(lab)

    def test_zero_column_evolves(self):
        pulse = square_x_pulse()
        zero = cp.PulseWaveform(pulse.t, pulse.omega, pulse.phi, detuning=np.zeros(128))
        assert cp.gate_distance(cp.propagate(zero), cp.propagate(pulse)) == 0.0


class TestInfidelity:
    def test_exact_cases(self):
        rng = np.random.default_rng(2)
        from conftest import random_special_unitary

        u = random_special_unitary(rng).matrix
        assert cp.average_gate_infidelity(u, u) == 0.0
        assert cp.average_gate_infidelity(np.exp(0.7j) * u, u) < 1e-15
        assert abs(cp.average_gate_infidelity(SIGMA_X, np.eye(2)) - 2.0 / 3.0) < 1e-15

    def test_bounds_and_phase_invariance(self):
        rng = np.random.default_rng(13)
        from conftest import random_special_unitary

        for _ in range(100):
            a = random_special_unitary(rng).matrix
            b = random_special_unitary(rng).matrix
            val = cp.average_gate_infidelity(a, b)
            assert 0.0 <= val <= 1.0
            val2 = cp.average_gate_infidelity(np.exp(1j * rng.uniform(0, 2 * np.pi)) * a, b)
            assert abs(val - val2) < 1e-14


    def test_small_distance_without_cancellation(self):
        # v = u exp(-i eps n.sigma) sits at phase-aligned distance
        # d = 2 sin(eps / 2) from u; 1 - (|Tr|^2 + 2) / 6 rounds such a pair
        # to a multiple of 1.1e-16, far from the true 6.7e-19
        rng = np.random.default_rng(4)
        from conftest import random_special_unitary

        d = 1e-9
        eps = 2.0 * np.arcsin(0.5 * d)
        for _ in range(5):
            u = random_special_unitary(rng)
            n = rng.normal(size=3)
            v = u.matrix @ cp.axis_angle_unitary(n, 2.0 * eps).matrix
            expected = d * d * (4.0 - d * d) / 6.0
            for pair in ((u, v), (u.matrix, np.exp(0.3j) * v)):
                val = cp.average_gate_infidelity(*pair)
                assert abs(val - expected) < 1e-6 * expected


class TestSweep:
    def test_square_pulse_uncorrected_slope(self):
        sweep = cp.infidelity_sweep(square_x_pulse(n_samples=256))
        assert abs(sweep.slope - 2.0) < 0.2

    def test_even_in_noise_sign(self):
        # a square pulse's infidelity is even in the noise sign: compare the
        # three strongest grid points with their mirrors
        pulse = square_x_pulse(n_samples=256)
        sweep = cp.infidelity_sweep(pulse)
        r = sweep.refinement
        target = cp.propagate(pulse, 0.0, refinement=r)
        top = np.argsort(sweep.delta_beta)[-3:]
        mirror = [
            cp.average_gate_infidelity(cp.propagate(pulse, -db, refinement=r), target)
            for db in sweep.delta_beta[top]
        ]
        scale = sweep.infidelity[top].max()
        asymmetry = np.max(np.abs(mirror - sweep.infidelity[top])) / scale
        assert asymmetry < 1e-6

    @pytest.mark.parametrize("name", ["clifford_fig1", "const_torsion_gamma"])
    def test_batched_sweep_matches_per_point(self, builtin_pulses, name):
        # one batched product per refinement gives the same infidelities and
        # self-target as one propagate per point, and the same asymmetry
        # against the mirror points -delta_beta
        pulse = builtin_pulses[name]
        sweep = cp.infidelity_sweep(pulse)
        assert sweep.converged
        assert sweep.last_delta < 1e-8
        r = sweep.refinement
        target = cp.propagate(pulse, 0.0, refinement=r)

        def per_point(db):
            u = cp.propagate(pulse, db, refinement=r)
            return cp.average_gate_infidelity(u, target)

        for db, infid in zip(sweep.delta_beta, sweep.infidelity):
            assert abs(infid - per_point(db)) < 1e-13
        top = np.argsort(sweep.delta_beta)[-3:]
        mirror = np.array([per_point(-sweep.delta_beta[i]) for i in top])
        batched = np.max(np.abs(mirror - sweep.infidelity[top]))
        single = np.max(np.abs(mirror - [per_point(sweep.delta_beta[i]) for i in top]))
        assert abs(batched - single) < 1e-13

    @pytest.mark.parametrize(
        "name, grid_span, refinement",
        [("clifford_fig1", None, 2), ("alpha_eq12", (-1.8, -0.3), 4)],
    )
    def test_certificate_matches_row_by_row(self, builtin_pulses, name, grid_span, refinement):
        # the batched certificate equals propagate's, row by row: the
        # largest phase-aligned change from r/2 to r over every grid row and
        # the self row, with the doubling stopped at the first r below 1e-8
        pulse = builtin_pulses[name]
        grid = None if grid_span is None else np.logspace(*grid_span, 12) / pulse.duration
        sweep = cp.infidelity_sweep(pulse, delta_beta=grid)
        assert sweep.refinement == refinement

        def largest_change(r):
            rows = np.concatenate([sweep.delta_beta, [0.0]])
            pairs = [
                (cp.propagate(pulse, db, refinement=r), cp.propagate(pulse, db, refinement=r // 2))
                for db in rows
            ]
            return max(np.sqrt(_distance_sq(_su2_pair(u), _su2_pair(v))) for u, v in pairs)

        delta = largest_change(refinement)
        assert abs(sweep.last_delta - delta) < 1e-14
        assert sweep.converged == (delta < 1e-8)
        if refinement > 2:
            assert largest_change(refinement // 2) >= 1e-8

    def test_sweep_memory_flat_in_grid_size(self):
        # the batch is reduced in fixed row chunks, so the traced peak does
        # not grow with the number of grid points
        pulse = cp.synthetic_smooth_pulse(0, n_samples=16384)
        peaks = []
        for n_points in (12, 200):
            grid = cp.default_noise_grid(pulse.duration, n_points=n_points)
            tracemalloc.start()
            try:
                cp.infidelity_sweep(pulse, delta_beta=grid)
                peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0], peaks
        assert max(peaks) < 48.0, peaks

    def test_grid_validation(self):
        pulse = square_x_pulse()
        with pytest.raises(InputError):
            cp.infidelity_sweep(pulse, delta_beta=np.array([-0.1, 0.2, 0.3]))
        with pytest.raises(InputError):
            cp.infidelity_sweep(pulse, delta_beta=np.logspace(-2, -1.5, 6))
        # NaN and inf pass the sign and span checks
        for bad in (np.nan, np.inf):
            grid = np.logspace(-3, -1, 8)
            grid[3] = bad
            with pytest.raises(InputError, match="finite"):
                cp.infidelity_sweep(pulse, delta_beta=grid)
        with pytest.raises(InputError, match="empty"):
            cp.infidelity_sweep(pulse, delta_beta=[])

    def test_too_few_points_above_the_floor(self, builtin_pulses):
        # alpha_eq12's loop cancels through third order: on the default grid
        # fewer than 3 of its infidelities clear the double-precision floor
        with pytest.raises(
            ConvergenceError, match="fewer than 3 sweep points above the infidelity noise floor"
        ):
            cp.infidelity_sweep(builtin_pulses["alpha_eq12"])

    def test_zero_noise_infidelity_floor(self, builtin_curves, builtin_frenet, builtin_pulses):
        # a correctly synthesized pulse reproduces its geometric target
        # essentially exactly at zero noise
        for name in ("circle", "clifford_fig1"):
            gate = cp.target_gate_from_curve(builtin_curves[name], builtin_frenet[name])
            u = cp.propagate(builtin_pulses[name], 0.0)
            assert cp.average_gate_infidelity(u, gate.unitary) < 1e-10, name

    def test_slope_stability_under_doubling(self, builtin_pulses):
        pulse = builtin_pulses["clifford_fig1"]
        base = cp.infidelity_sweep(pulse)
        dense = cp.infidelity_sweep(
            pulse,
            delta_beta=cp.default_noise_grid(pulse.duration, n_points=24),
            refinement=2 * base.refinement,
        )
        assert abs(base.slope - dense.slope) < 0.1

    def test_generic_second_order_exponent(self, builtin_curves, builtin_pulses):
        # the lemniscate closes and encloses no net projected area, but its
        # third error integral survives, so the infidelity scales as the
        # generic second-order delta_beta^6 (alpha_eq12 cancels A3 by symmetry
        # and scales faster); criterion 05's grid
        curve = builtin_curves["lemniscate"]
        pulse = builtin_pulses["lemniscate"]
        assert cp.robustness_report(pulse).classification == "second-order"
        assert np.linalg.norm(third_order_vector(curve)) > 1e-3 * curve.total_length**3
        grid = np.logspace(-1.8, -0.3, 12) / pulse.duration
        sweep = cp.infidelity_sweep(pulse, delta_beta=grid)
        assert sweep.converged
        assert int(sweep.used.sum()) >= 6
        assert abs(sweep.slope - 6.0) < 0.3, sweep.slope


class TestMagnus:
    def test_zero_drive(self):
        t = np.linspace(0.0, 2.0, 512)
        pulse = cp.PulseWaveform(t, np.zeros(512), np.zeros(512))
        mag = cp.magnus_errors(pulse)
        assert np.max(np.abs(mag.a1_vector - np.array([0.0, 0.0, 2.0]))) < 1e-12
        assert mag.a2_norm < 1e-12

    def test_routes_agree(self, builtin_pulses):
        # the single-pass A2 against the nested O(N^2) quadrature of the
        # same trajectory
        for name in ("circle", "alpha_eq12", "clifford_fig1"):
            pulse = builtin_pulses[name]
            mag = cp.magnus_errors(pulse)
            refinement = (mag.substeps - 1) // (pulse.n_samples - 1)
            nested = magnus_a2_nested(pulse, refinement)
            assert np.max(np.abs(nested - mag.a2_vector)) < 1e-9, name

    def test_nested_flag(self, builtin_pulses):
        pulse = builtin_pulses["circle"]
        plain = cp.magnus_errors(pulse)
        # "auto" survives as a synonym for False; the nested route is a test
        # oracle, so True is refused like any other value
        auto = cp.magnus_errors(pulse, nested="auto")
        assert np.array_equal(auto.a1_vector, plain.a1_vector)
        assert np.array_equal(auto.a2_vector, plain.a2_vector)
        for bad in (True, "always", None, 1, 0):
            with pytest.raises(InputError, match="nested"):
                cp.magnus_errors(pulse, nested=bad)

    def test_no_phase_track(self, builtin_pulses, monkeypatch):
        # the integrals are read off the trajectory without its theta/phi
        # unwraps, which only the reverse-analysis report reads
        def unused(*args, **kwargs):
            raise AssertionError("phase track unwrapped")

        monkeypatch.setattr(cp.simulator, "carried_unwrap", unused)
        assert cp.magnus_errors(builtin_pulses["circle"]).a1_norm < 1e-9

    def test_first_order_reconstruction_scaling(self):
        # U0 * exp(-i db A1.sigma) reproduces the noisy propagator to O(db^2)
        pulse = square_x_pulse(n_samples=256)
        mag = cp.magnus_errors(pulse)
        u0 = cp.propagate(pulse, 0.0, refinement=32).matrix
        dists = []
        for db in (0.02, 0.01):
            recon = u0 @ expm(-1j * db * pauli_compose(mag.a1_vector))
            exact = cp.propagate(pulse, db, refinement=32).matrix
            dists.append(cp.gate_distance(recon, exact))
        assert dists[0] / dists[1] > 2.5

    def test_closed_curve_pulse_small_a1(self, builtin_pulses):
        mag = cp.magnus_errors(builtin_pulses["circle"])
        assert mag.a1_norm < 1e-9

    def test_sphere_loop_third_order_vanishes(self, builtin_curves):
        # the spherical loop's third error integral vanishes by two symmetries
        # together.  The reversal symmetry (x even, y odd, z even) kills the x
        # and z components of A3 but leaves y; the three-fold rotation about z
        # (a start-point shift by L/3, which leaves the leading error term
        # unchanged once A1 = A2 = 0) kills x and y.  That is why its noise
        # scaling beats the generic second-order rate.
        assert np.linalg.norm(third_order_vector(builtin_curves["alpha_eq12"])) < 1e-6
        assert np.linalg.norm(third_order_vector(builtin_curves["const_torsion_gamma"])) > 0.1
        assert np.linalg.norm(third_order_vector(builtin_curves["clifford_fig1"])) > 0.1

        # both symmetries themselves, on the raw loop coordinates
        from curvepulse.curves import _sphere_loop_point

        lam = np.linspace(0.1, 3.0, 7)
        fwd = _sphere_loop_point(lam)
        rev = _sphere_loop_point(-lam)
        assert np.max(np.abs(rev - fwd * np.array([1.0, -1.0, 1.0]))) < 1e-14
        c, s = np.cos(2 * np.pi / 3), np.sin(2 * np.pi / 3)
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        turned = _sphere_loop_point(lam + 2 * np.pi / 3)
        assert np.max(np.abs(turned - fwd @ rot.T)) < 1e-14


class TestSquarePulse:
    def test_rotation_angle(self):
        pulse = cp.square_pulse(2.0, angle=2 * np.pi / 3)
        u = cp.propagate(pulse, 0.0, refinement=1)
        _, angle = cp.unitary_axis_angle(u)
        assert abs(angle - 2 * np.pi / 3) < 1e-12

    def test_rejects_bad_duration(self):
        with pytest.raises(InputError):
            cp.square_pulse(0.0)
