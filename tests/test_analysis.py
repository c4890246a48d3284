import json

import numpy as np
import pytest

import curvepulse as cp
from curvepulse import _accel
from curvepulse._files import write_csv, write_json
from curvepulse.cli import main
from curvepulse.errors import InputError

from conftest import helix_curve, kabsch_align


def wrap_angle(x):
    return (x + np.pi) % (2 * np.pi) - np.pi


class TestCurveFromPulse:
    def test_free_evolution_is_straight_line(self):
        t = np.linspace(0.0, 1.5, 512)
        pulse = cp.PulseWaveform(t, np.zeros(512), np.zeros(512))
        rec = cp.curve_from_pulse(pulse)
        want = np.stack([np.zeros_like(t), np.zeros_like(t), t], axis=1)
        assert np.max(np.abs(rec.curve.points - want)) < 1e-9
        assert np.max(np.abs(rec.theta - rec.theta[0])) < 1e-9

    def test_square_pulse_semicircle(self):
        # constant x drive: closed-form evolution traces a semicircle of
        # radius 1/Omega in the yz plane
        omega = np.pi
        t = np.linspace(0.0, 1.0, 1024)
        pulse = cp.PulseWaveform(t, np.full_like(t, omega), np.zeros_like(t))
        rec = cp.curve_from_pulse(pulse)
        want = np.stack(
            [np.zeros_like(t), (1.0 - np.cos(omega * t)) / omega, np.sin(omega * t) / omega],
            axis=1,
        )
        assert np.max(np.abs(rec.curve.points - want)) < 1e-8
        radius = np.linalg.norm(rec.curve.points - np.array([0.0, 1 / omega, 0.0]), axis=1)
        assert np.max(np.abs(radius - 1 / omega)) < 1e-8

    def test_unit_speed_by_construction(self, builtin_pulses):
        rec = cp.curve_from_pulse(builtin_pulses["clifford_fig1"])
        assert rec.unit_speed_error < 1e-10

    def test_roundtrip_circle(self, builtin_curves, builtin_pulses):
        rec = cp.curve_from_pulse(builtin_pulses["circle"])
        _, _, rms = kabsch_align(rec.curve.points, builtin_curves["circle"].points)
        assert rms < 1e-5 * builtin_curves["circle"].total_length

    def test_theta_consistency_with_gate_extraction(self, builtin_curves, builtin_frenet, builtin_pulses):
        for name in builtin_curves:
            gate = cp.target_gate_from_curve(builtin_curves[name], builtin_frenet[name])
            rec = cp.curve_from_pulse(builtin_pulses[name])
            dtheta = abs(wrap_angle(rec.theta[-1] - gate.phase_theta_final))
            if "degenerate_final_tangent" in gate.flags:
                # at a pole finish only theta+phi is observable; the split
                # between theta and phi is chart convention, the gate is not
                u_track = cp.unitary_from_angles(0.0, rec.phi_angle[-1], rec.theta[-1])
                assert cp.gate_distance(u_track, gate.unitary) < 1e-4, name
            else:
                assert dtheta < 1e-5, name


class TestRobustnessReport:
    def test_second_order_classification(self, builtin_pulses):
        report = cp.robustness_report(builtin_pulses["alpha_eq12"])
        assert report.classification == "second-order"
        assert report.predicted_slope == 6

    def test_first_order_classification(self, builtin_pulses):
        report = cp.robustness_report(builtin_pulses["clifford_fig1"])
        assert report.classification in ("first-order", "second-order")
        assert report.predicted_slope >= 4

    def test_square_pulse_uncorrected(self):
        pulse = cp.square_pulse(1.0, n_samples=512)
        report = cp.robustness_report(pulse)
        assert report.classification == "uncorrected"
        assert report.predicted_slope == 2

    def test_magnus_identity(self, builtin_pulses):
        # every reported integral is read off the trajectory magnus_errors reads
        pulse = builtin_pulses["alpha_eq12"]
        report = cp.robustness_report(pulse)
        mag = cp.magnus_errors(pulse)
        assert report.magnus_a1_norm == report.closure_residual
        assert np.array_equal(report.r2_vector, mag.a2_vector)
        assert np.array_equal(report.projected_areas, 0.5 * mag.a2_vector)

    def test_nested_route_not_run(self, builtin_pulses, tmp_path, monkeypatch):
        # the O(N^2) nested quadrature and the curve-side area quadrature are
        # test oracles; no output reads them
        def oracle_called(*args):
            raise AssertionError("robustness_report ran a test oracle")

        monkeypatch.setattr(_accel, "magnus_nested_r2", oracle_called)
        for module in (cp, cp.curves, cp.analysis):
            monkeypatch.setattr(module, "area_diagnostics", oracle_called, raising=False)
        pulse = builtin_pulses["circle"]
        assert cp.robustness_report(pulse).classification == "first-order"
        cp.save_pulse_csv(pulse, tmp_path / "circle.csv")
        out = tmp_path / "an"
        assert main(["analyze", "--pulse-file", str(tmp_path / "circle.csv"), "--out", str(out)]) == 0
        assert (out / "report.json").exists()

    @pytest.mark.parametrize("n_samples", [2, 3, 5])
    def test_few_sample_pulse(self, tmp_path, n_samples):
        # a constant pi drive over T = 1 traces the semicircle
        # (0, (1 - cos pi t)/pi, sin(pi t)/pi): |A1| = 2/pi and A2 = (-1/pi, 0, 0).
        # The reader accepts two samples, and the trajectory has about 8192
        # nodes whatever the sample count, so analyze takes them too.
        t = np.linspace(0.0, 1.0, n_samples)
        pulse = cp.PulseWaveform(t, np.full(n_samples, np.pi), np.zeros(n_samples))
        cp.save_pulse_csv(pulse, tmp_path / "pi.csv")
        out = tmp_path / "an"
        assert main(["analyze", "--pulse-file", str(tmp_path / "pi.csv"), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["n_samples"] == n_samples
        assert abs(report["closure_residual"] - 2.0 / np.pi) < 1e-12
        assert np.max(np.abs(np.array(report["r2_vector"]) - [-1.0 / np.pi, 0.0, 0.0])) < 1e-12
        assert report["classification"] == "uncorrected"

    def test_one_evolution_per_audit(self, builtin_pulses, tmp_path, monkeypatch):
        # curve, closure and both Magnus integrals come from one trajectory
        calls = []
        trajectory = _accel.su2_trajectory

        def counted(*args):
            calls.append(args)
            return trajectory(*args)

        monkeypatch.setattr(_accel, "su2_trajectory", counted)
        pulse = builtin_pulses["clifford_fig1"]
        cp.robustness_report(pulse)
        assert len(calls) == 1
        cp.save_pulse_csv(pulse, tmp_path / "p.csv")
        calls.clear()
        assert main(["analyze", "--pulse-file", str(tmp_path / "p.csv"), "--out", str(tmp_path / "an")]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("refinement", [1, 4])
    def test_first_integral_is_the_closure(self, builtin_pulses, refinement):
        # the refinement reaches every number: A1 is the reported curve's
        # endpoint, not a second evolution's
        report = cp.robustness_report(builtin_pulses["alpha_eq12"], refinement=refinement)
        assert report.magnus_a1_norm == report.closure_residual

    def test_perturbation_degrades_closure(self, builtin_frenet):
        f = builtin_frenet["alpha_eq12"]
        base = cp.pulses_from_curve(f)
        residuals = []
        for eps in (0.005, 0.01):
            pulse = cp.PulseWaveform(base.t, base.omega * (1 + eps), base.phi)
            residuals.append(cp.robustness_report(pulse).closure_residual)
        # closure residual grows linearly with the amplitude error
        assert residuals[1] / residuals[0] == pytest.approx(2.0, rel=0.2)
        report = cp.robustness_report(
            cp.PulseWaveform(base.t, base.omega * 1.01, base.phi)
        )
        assert report.classification != "second-order"

    def test_report_dict_serializable(self, builtin_pulses):
        report = cp.robustness_report(builtin_pulses["circle"])
        text = json.dumps(report.to_dict(), sort_keys=True)
        assert "closure_residual" in text

    def test_report_scalars_converge_under_refinement(self):
        pulse = cp.synthetic_smooth_pulse(3, n_samples=512)
        vals = []
        for refinement in (1, 2, 4):
            r = cp.robustness_report(pulse, refinement=refinement)
            vals.append(np.array([r.closure_residual, *r.r2_vector]))
        d1 = np.abs(vals[1] - vals[0])
        d2 = np.abs(vals[2] - vals[1])
        assert np.all(d2 <= 0.35 * d1 + 1e-12)


class TestOracleAgreement:
    def test_random_smooth_pulses(self):
        # reconstructed-curve diagnostics equal the Magnus integrals
        for seed in range(20):
            pulse = cp.synthetic_smooth_pulse(seed, n_samples=1024)
            rec = cp.curve_from_pulse(pulse)
            diag = cp.area_diagnostics(rec.curve)
            mag = cp.magnus_errors(pulse)
            assert abs(rec.curve.closure_residual() - mag.a1_norm) < 1e-8, seed
            assert np.max(np.abs(diag.r2_vector - mag.a2_vector)) < 1e-8, seed

    def test_report_against_curve_quadratures(self, builtin_pulses):
        # area_diagnostics of the reported curve checks the report: the same
        # closure, a stencil quadrature of r x rdot that agrees with A2, and
        # shoelace areas, a polygon rule whose error falls as dt^2, near A2/2
        for name, pulse in builtin_pulses.items():
            report = cp.robustness_report(pulse)
            diag = cp.area_diagnostics(report.reconstructed_curve)
            scale = report.curve_length**2
            assert diag.closure_residual == report.closure_residual, name
            assert np.max(np.abs(diag.r2_vector - report.r2_vector)) < 1e-9 * scale, name
            assert np.max(np.abs(diag.projected_areas - report.projected_areas)) < 1e-7 * scale, name
        errors = []
        for n in (1024, 2048):
            report = cp.robustness_report(cp.synthetic_smooth_pulse(3, n_samples=n))
            diag = cp.area_diagnostics(report.reconstructed_curve)
            errors.append(np.max(np.abs(diag.projected_areas - report.projected_areas)))
        assert errors[0] > 3.5 * errors[1], errors


class TestRoundtrip:
    def test_builtins(self, builtin_curves, builtin_pulses):
        for name, c in builtin_curves.items():
            rec = cp.curve_from_pulse(builtin_pulses[name])
            _, _, rms = kabsch_align(rec.curve.points, c.points)
            assert rms < 1e-5 * c.total_length, name

    def test_helix_open_curve(self):
        c = helix_curve()
        pulse = cp.pulses_from_curve(cp.frenet_data(c))
        rec = cp.curve_from_pulse(pulse)
        _, _, rms = kabsch_align(rec.curve.points, c.points)
        assert rms < 1e-6 * c.total_length


class TestImport:
    def test_export_import_roundtrip(self, tmp_path, builtin_pulses):
        pulse = builtin_pulses["circle"]
        path = tmp_path / "pulse.csv"
        cp.save_pulse_csv(pulse, path)
        back = cp.import_external_pulse(path)
        assert np.max(np.abs(back.omega_x - pulse.omega_x)) < 1e-12
        assert np.max(np.abs(back.omega_y - pulse.omega_y)) < 1e-12
        assert "sha256" in back.metadata
        # provenance is the bytes' hash and the file: no wall clock
        assert back.metadata == cp.import_external_pulse(path).metadata

    def test_non_uniform_grid_resampled(self, tmp_path):
        t = np.concatenate([[0.0], np.cumsum(np.linspace(0.01, 0.02, 127))])
        wx = np.sin(np.pi * t / t[-1])
        rows = ["t,omega_x,omega_y"] + [f"{a},{b},0" for a, b in zip(t, wx)]
        path = tmp_path / "irregular.csv"
        path.write_text("\n".join(rows) + "\n")
        pulse = cp.import_external_pulse(path)
        steps = np.diff(pulse.t)
        assert np.max(np.abs(steps - steps[0])) < 1e-12 * steps[0]
        assert "resample_max_error" in pulse.metadata
        assert pulse.metadata["resample_max_error"] < 1e-3

    def test_detuning_folded_to_transverse(self, tmp_path):
        t = np.linspace(0.0, 2.0, 256)
        wx = 1.0 + 0.2 * np.sin(np.pi * t)
        det = np.full_like(t, 0.7)
        rows = ["t,omega_x,omega_y,detuning"] + [
            f"{a},{b},0,{d}" for a, b, d in zip(t, wx, det)
        ]
        path = tmp_path / "lab.csv"
        path.write_text("\n".join(rows) + "\n")
        pulse = cp.import_external_pulse(path)
        # transverse frame: phase ramps at -0.7 rad per unit time
        slope = np.polyfit(pulse.t, pulse.phi, 1)[0]
        assert abs(slope + 0.7) < 1e-3
        assert np.max(np.abs(pulse.omega - wx)) < 1e-12

    def test_lab_json_twin_imports_as_its_csv(self, tmp_path):
        # a JSON pulse's detuning column is folded as the CSV's is: the same
        # drive, bit for bit
        pulse = cp.pulses_from_curve(cp.frenet_data(cp.builtin_curve("clifford_fig1", n_samples=512)))
        lab = cp.transform_to_lab_frame(pulse).to_waveform()
        cp.save_pulse_csv(lab, tmp_path / "lab.csv")
        cp.save_pulse_json(lab, tmp_path / "lab.json")
        from_csv = cp.import_external_pulse(tmp_path / "lab.csv")
        from_json = cp.import_external_pulse(tmp_path / "lab.json")
        assert from_json.metadata["frame"] == "transverse (detuning folded)"
        assert np.array_equal(from_json.omega, from_csv.omega)
        assert np.array_equal(from_json.phi, from_csv.phi)

    @pytest.mark.parametrize("name", ["alpha_eq12", "const_torsion_gamma"])
    def test_lab_csv_import_converges(self, tmp_path, name):
        # transverse pulse -> lab waveform (signed x drive plus z field) ->
        # CSV -> import, which folds the z field back into the phase: the
        # worst drive error must fall at least 10x from 2048 to 4096 samples.
        # clifford_fig1 is left out: its deep envelope dip limits fd1 of the
        # drive angle, and its error falls only 1.7x (1.6e-4 -> 9.4e-5).
        errors = []
        for n in (2048, 4096):
            pulse = cp.pulses_from_curve(cp.frenet_data(cp.builtin_curve(name, n_samples=n)))
            path = tmp_path / f"lab-{n}.csv"
            cp.save_pulse_csv(cp.transform_to_lab_frame(pulse).to_waveform(), path)
            back = cp.import_external_pulse(path)
            assert back.metadata["frame"] == "transverse (detuning folded)"
            errors.append(
                max(
                    np.max(np.abs(back.omega_x - pulse.omega_x)),
                    np.max(np.abs(back.omega_y - pulse.omega_y)),
                )
            )
        assert errors[0] >= 10.0 * errors[1], errors

    @pytest.mark.parametrize("phi0", [0.0, 0.4])
    def test_lab_csv_keeps_start_phase(self, tmp_path, phi0):
        # the lab waveform's columns carry the drive's start phase, so the
        # imported pulse makes the original's gate; with phi(0) dropped it
        # landed 0.28 away at phi0 = 0.4
        curve = cp.builtin_curve("clifford_fig1", n_samples=4096)
        pulse = cp.pulses_from_curve(cp.frenet_data(curve), phi0=phi0)
        path = tmp_path / "lab.csv"
        cp.save_pulse_csv(cp.transform_to_lab_frame(pulse).to_waveform(), path)
        back = cp.import_external_pulse(path)
        assert cp.gate_distance(cp.propagate(back, 0.0), cp.propagate(pulse, 0.0)) < 1e-6

    def test_decreasing_time_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,omega_x,omega_y\n0,1,0\n0.2,1,0\n0.1,1,0\n")
        with pytest.raises(InputError, match="line 4"):
            cp.import_external_pulse(path)

    def test_nan_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,omega_x,omega_y\n0,1,0\n0.1,nan,0\n")
        with pytest.raises(InputError, match="non-finite"):
            cp.import_external_pulse(path)

    def test_inf_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,omega_x,omega_y\n0,1,0\n0.1,1,0\n0.2,0,-inf\n")
        with pytest.raises(InputError, match="line 4: non-finite"):
            cp.import_external_pulse(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,x,y\n0,1,0\n")
        with pytest.raises(InputError, match="header"):
            cp.import_external_pulse(path)


@pytest.mark.parametrize("t0", [1e5, 1e6, 1e8])
@pytest.mark.parametrize("suffix", [".csv", ".json"])
def test_offset_time_column_imports(tmp_path, suffix, t0):
    # a 4096-sample pulse whose t starts at t0: shifted to 0, its steps
    # differ by about 1e-8 of dt at t0 = 1e5, so import resamples it; it
    # used to hand that grid on, which PulseWaveform refused ("time grid
    # must be uniform"), and analyze and sweep exited 2
    pulse = cp.synthetic_smooth_pulse(0, n_samples=4096)

    def write(start):
        path = tmp_path / f"pulse-{start:g}{suffix}"
        t = pulse.t + start
        if suffix == ".csv":
            write_csv(path, "t,omega_x,omega_y", [t, pulse.omega_x, pulse.omega_y])
        else:
            write_json(path, {"t": t, "omega": pulse.omega, "phi": pulse.phi, "metadata": {}})
        return path

    path = write(t0)
    imported = cp.import_external_pulse(path)
    assert "resample_max_error" in imported.metadata
    gate = cp.propagate(cp.import_external_pulse(write(0.0)), 0.0)
    assert cp.gate_distance(cp.propagate(imported, 0.0), gate) <= 1e-9
    for command in ("analyze", "sweep"):
        assert main([command, "--pulse-file", str(path), "--out", str(tmp_path / command)]) == 0


class TestSyntheticPulse:
    def test_reproducible_and_soft_edged(self):
        a = cp.synthetic_smooth_pulse(5)
        b = cp.synthetic_smooth_pulse(5)
        assert np.array_equal(a.omega, b.omega)
        assert a.omega[0] < 1e-12 and a.omega[-1] < 1e-12
        assert a.metadata["synthetic"]
