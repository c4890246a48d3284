import builtins
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import curvepulse as cp
from curvepulse import _accel, cli
from curvepulse._files import write_csv
from curvepulse.cli import build_parser, main

from conftest import kabsch_align, python_env, stadium_rows


def tree_hashes(outdir):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(outdir).iterdir())
    }


def count_transports(monkeypatch):
    """Sample counts of every frame transport from here on."""
    calls = []
    inner = _accel.transport_components

    def counting(points, tangent, rddot, m1):
        calls.append(len(tangent))
        return inner(points, tangent, rddot, m1)

    monkeypatch.setattr(_accel, "transport_components", counting)
    return calls


@pytest.fixture(scope="module")
def synth_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    rc = main(
        [
            "synth",
            "--builtin",
            "clifford_fig1",
            "--param",
            "q=1.6054",
            "--samples",
            "4096",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    return out


class TestSynth:
    def test_outputs_exist_and_parse(self, synth_out):
        for name in ("pulse.csv", "pulse.json", "frenet.csv", "gate.json", "manifest.json"):
            assert (synth_out / name).exists(), name
        gate = json.loads((synth_out / "gate.json").read_text())
        assert abs(gate["angle"] - 2 * np.pi / 3) < 1e-3
        axis = np.array(gate["axis"])
        assert np.max(np.abs(axis - np.array([-1, 1, 1]) / np.sqrt(3))) < 2e-3
        assert gate["closed"]
        assert gate["propagation_distance"] < 1e-4
        header = (synth_out / "frenet.csv").read_text().splitlines()[0]
        assert header == "t,kappa,tau"

    def test_circle_constant_pulse(self, tmp_path):
        out = tmp_path / "circle"
        rc = main(["synth", "--builtin", "circle", "--samples", "256", "--out", str(out)])
        assert rc == 0
        data = np.loadtxt(out / "pulse.csv", delimiter=",", skiprows=1)
        omega = np.hypot(data[:, 1], data[:, 2])
        assert np.max(np.abs(omega - 1.0)) < 1e-5

    def test_curve_file_roundtrip(self, tmp_path):
        out1 = tmp_path / "a"
        curve = cp.builtin_curve("alpha_eq12", n_samples=2048)
        cp.save_curve_csv(curve, tmp_path / "my.csv")
        rc = main(
            [
                "synth",
                "--curve-file",
                str(tmp_path / "my.csv"),
                "--samples",
                "2048",
                "--out",
                str(out1),
            ]
        )
        assert rc == 0
        out2 = tmp_path / "b"
        rc = main(["analyze", "--pulse-file", str(out1 / "pulse.csv"), "--out", str(out2)])
        assert rc == 0
        rec = cp.load_curve(out2 / "curve.csv", n_samples=2048)
        _, _, rms = kabsch_align(rec.points, curve.points)
        assert rms < 1e-4 * curve.total_length

    def test_open_curve_warns_but_succeeds(self, tmp_path, capsys):
        helix = cp.reparameterize_by_arclength(
            lambda lam: np.stack(
                [np.cos(np.atleast_1d(lam)), np.sin(np.atleast_1d(lam)), 0.5 * np.atleast_1d(lam)],
                axis=1,
            ),
            (0.0, 2 * np.pi),
            512,
        )
        cp.save_curve_csv(helix, tmp_path / "helix.csv")
        out = tmp_path / "h"
        rc = main(
            ["synth", "--curve-file", str(tmp_path / "helix.csv"), "--samples", "512", "--out", str(out)]
        )
        assert rc == 0
        assert "not closed" in capsys.readouterr().err
        assert not json.loads((out / "gate.json").read_text())["closed"]

    def test_tangential_second_derivative_does_not_raise(self, tmp_path, capsys):
        # a straight-run sample of this stadium has r'' along the tangent
        # at 6000 samples; it must not leave non-finite frame data behind
        cp.save_curve_csv(stadium_rows(3.0, 0.5, 2049), tmp_path / "stadium.csv")
        out = tmp_path / "s"
        rc = main(
            ["synth", "--curve-file", str(tmp_path / "stadium.csv"), "--samples", "6000",
             "--out", str(out)]
        )
        if rc == 3:
            # the only stage of synth that can give up is the self-check
            assert "propagation not converged" in capsys.readouterr().err
            return
        assert rc == 0
        for name in ("pulse.csv", "frenet.csv"):
            data = np.loadtxt(out / name, delimiter=",", skiprows=1)
            assert np.all(np.isfinite(data)), name
        gate = json.loads((out / "gate.json").read_text())
        for part in ("unitary_re", "unitary_im"):
            assert np.all(np.isfinite(gate[part])), part

    def test_unknown_builtin_exits_2(self, tmp_path, capsys):
        rc = main(["synth", "--builtin", "circle", "--param", "bogus", "--out", str(tmp_path / "x")])
        assert rc == 2

    def test_missing_curve_file_exits_2(self, tmp_path):
        rc = main(["synth", "--curve-file", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "x")])
        assert rc == 2

    def test_scalar_curve_json_samples_exit_2(self, tmp_path, capsys):
        path = tmp_path / "scalar.json"
        path.write_text(json.dumps({"samples": list(range(16))}))
        rc = main(["synth", "--curve-file", str(path), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "line 1: expected 4 columns, got 1" in capsys.readouterr().err

    def test_curve_file_read_and_hashed_once(self, tmp_path, monkeypatch):
        # the input is read once and hashed from that read; every output is
        # hashed from the bytes written, so no file is read back
        curve_file = tmp_path / "loop.csv"
        cp.save_curve_csv(cp.random_fourier_loop(2, n_samples=512), curve_file)
        reads = []
        inner = builtins.open

        def recording_open(file, mode="r", *args, **kwargs):
            if not isinstance(file, int) and not set(mode) & set("wax+"):
                reads.append(Path(file))
            return inner(file, mode, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", recording_open)
        out = tmp_path / "out"
        rc = main(["synth", "--curve-file", str(curve_file), "--samples", "1024", "--out", str(out)])
        assert rc == 0
        rc = main(["analyze", "--pulse-file", str(out / "pulse.csv"), "--out", str(tmp_path / "an")])
        assert rc == 0
        monkeypatch.undo()
        assert [p for p in reads if tmp_path in p.parents] == [curve_file, out / "pulse.csv"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["inputs"] == {
            "curve_file": hashlib.sha256(curve_file.read_bytes()).hexdigest()
        }

    def test_one_frame_transport(self, tmp_path, monkeypatch):
        # the drive phase is frame data: the pulse and the gate share it
        calls = count_transports(monkeypatch)
        argv = ["synth", "--builtin", "clifford_fig1", "--samples", "1024"]
        assert main(argv + ["--out", str(tmp_path / "syn")]) == 0
        assert calls == [1024]

    def test_builtin_synth_never_loads_scipy(self, tmp_path):
        # the arc-length inverse is NumPy; only curve files build a spline
        code = (
            "import sys; import curvepulse.cli as cli;"
            "assert cli.main(['synth', '--builtin', 'clifford_fig1', '--samples', '1024',"
            f" '--out', {str(tmp_path / 'syn')!r}]) == 0;"
            "assert 'scipy' not in sys.modules, 'synth'"
        )
        subprocess.run([sys.executable, "-c", code], env=python_env(), check=True)

    def test_curve_file_synth_never_loads_scipy(self, tmp_path):
        # the spline through a curve file's rows is NumPy as well
        curve_file = tmp_path / "loop.csv"
        cp.save_curve_csv(cp.random_fourier_loop(3, n_samples=256), curve_file)
        code = (
            "import sys; import curvepulse.cli as cli;"
            f"assert cli.main(['synth', '--curve-file', {str(curve_file)!r}, '--samples', '1024',"
            f" '--out', {str(tmp_path / 'syn')!r}]) == 0;"
            "assert 'scipy' not in sys.modules, 'synth'"
        )
        subprocess.run([sys.executable, "-c", code], env=python_env(), check=True)


class TestAnalyze:
    def test_classification_outputs(self, tmp_path):
        out1 = tmp_path / "synth"
        rc = main(["synth", "--builtin", "alpha_eq12", "--samples", "1024", "--out", str(out1)])
        assert rc == 0
        out2 = tmp_path / "an"
        rc = main(["analyze", "--pulse-file", str(out1 / "pulse.csv"), "--out", str(out2)])
        assert rc == 0
        report = json.loads((out2 / "report.json").read_text())
        assert report["classification"] == "second-order"
        theta = np.loadtxt(out2 / "theta.csv", delimiter=",", skiprows=1)
        assert theta.shape[1] == 2

    def test_square_pulse_uncorrected(self, tmp_path):
        pulse = cp.square_pulse(1.0, n_samples=256)
        cp.save_pulse_csv(pulse, tmp_path / "sq.csv")
        out = tmp_path / "an"
        rc = main(["analyze", "--pulse-file", str(tmp_path / "sq.csv"), "--out", str(out)])
        assert rc == 0
        assert json.loads((out / "report.json").read_text())["classification"] == "uncorrected"

    def test_truncated_pulse_open_curve(self, tmp_path, builtin_pulses):
        pulse = builtin_pulses["circle"]
        keep = int(0.95 * pulse.n_samples)
        cut = cp.PulseWaveform(pulse.t[:keep], pulse.omega[:keep], pulse.phi[:keep])
        cp.save_pulse_csv(cut, tmp_path / "cut.csv")
        out = tmp_path / "an"
        rc = main(["analyze", "--pulse-file", str(tmp_path / "cut.csv"), "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        dropped_arc = pulse.duration - cut.duration
        assert report["classification"] == "uncorrected"
        assert report["closure_residual"] == pytest.approx(dropped_arc, rel=0.3)

    def test_missing_pulse_file_exits_2(self, tmp_path):
        rc = main(["analyze", "--pulse-file", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "x")])
        assert rc == 2

    def test_unequal_pulse_json_columns_exit_2(self, tmp_path, capsys):
        t = np.linspace(0.0, 1.0, 64)
        path = tmp_path / "ragged.json"
        path.write_text(json.dumps({"t": t.tolist(), "omega": [1.0] * 64, "phi": [0.0] * 60}))
        rc = main(["analyze", "--pulse-file", str(path), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "line 61: expected 3 columns, got 2" in capsys.readouterr().err

    def test_manifest_hashes_the_pulse_bytes(self, tmp_path):
        pulse_file = tmp_path / "sq.csv"
        cp.save_pulse_csv(cp.square_pulse(1.0, n_samples=256), pulse_file)
        out = tmp_path / "an"
        assert main(["analyze", "--pulse-file", str(pulse_file), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["inputs"] == {
            "pulse_file": hashlib.sha256(pulse_file.read_bytes()).hexdigest()
        }

    def test_analyze_never_loads_scipy(self, tmp_path):
        # splines are only built for curves; the pulse side must not pay for
        # importing scipy
        pulse_file = tmp_path / "sq.csv"
        cp.save_pulse_csv(cp.square_pulse(1.0, n_samples=256), pulse_file)
        code = (
            "import sys; import curvepulse.cli as cli;"
            "assert 'scipy' not in sys.modules, 'import';"
            f"assert cli.main(['analyze', '--pulse-file', {str(pulse_file)!r},"
            f" '--out', {str(tmp_path / 'an')!r}]) == 0;"
            "assert 'scipy' not in sys.modules, 'analyze'"
        )
        subprocess.run([sys.executable, "-c", code], env=python_env(), check=True)


class TestSweep:
    def test_from_curve_target_uses_refinement(self, tmp_path, synth_out, monkeypatch):
        # the target curve is evolved at the sweep's --refinement, and at
        # the default refinement when none is given, by the curve-only
        # helper: no phase tracks or Magnus integrals are formed
        seen = []
        inner = cli._pulse_curve

        def recording(pulse, refinement=None):
            seen.append(refinement)
            return inner(pulse, refinement)

        def unused(*args, **kwargs):
            raise AssertionError("curve_from_pulse called")

        monkeypatch.setattr(cli, "_pulse_curve", recording)
        monkeypatch.setattr(cp.analysis, "curve_from_pulse", unused)
        args = ["sweep", "--pulse-file", str(synth_out / "pulse.csv"), "--target", "from-curve"]
        args += ["--grid", "1e-3:4e-2:5"]
        assert main(args + ["--refinement", "4", "--out", str(tmp_path / "r4")]) == 0
        assert main(args + ["--out", str(tmp_path / "auto")]) == 0
        assert seen == [4, None]

    def test_open_curve_target_flagged(self, tmp_path, capsys):
        # an open curve's target carries its flags into fit.json and warns
        pulse_file = tmp_path / "smooth.csv"
        cp.save_pulse_csv(cp.synthetic_smooth_pulse(3, n_samples=512), pulse_file)
        args = ["sweep", "--pulse-file", str(pulse_file), "--target", "from-curve"]
        assert main(args + ["--out", str(tmp_path / "fc")]) == 0
        fit = json.loads((tmp_path / "fc" / "fit.json").read_text())
        assert "non_robust_open_curve" in fit["target"]["flags"]
        assert "open curve" in capsys.readouterr().err

    def test_from_curve_target_one_frame_transport(self, tmp_path, synth_out, monkeypatch):
        # the reconstructed curve's frame data are built once, with its phase
        calls = count_transports(monkeypatch)
        args = ["sweep", "--pulse-file", str(synth_out / "pulse.csv"), "--target", "from-curve"]
        assert main(args + ["--grid", "1e-3:4e-2:5", "--out", str(tmp_path / "fc")]) == 0
        assert calls == [4096]

    def test_sweep_with_square_baseline(self, tmp_path, synth_out, capsys):
        out = tmp_path / "sweep"
        rc = main(
            [
                "sweep",
                "--pulse-file",
                str(synth_out / "pulse.csv"),
                "--target",
                "from-curve",
                "--compare",
                "square",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        fit = json.loads((out / "fit.json").read_text())
        assert abs(fit["slope"] - 4.0) < 0.3
        assert fit["converged"] is True
        assert fit["last_delta"] < 1e-8
        # a closed curve's target is not flagged open, and nothing warns
        assert "non_robust_open_curve" not in fit["target"]["flags"]
        assert "warning" not in capsys.readouterr().err
        base = json.loads((out / "square_fit.json").read_text())
        assert abs(base["slope"] - 2.0) < 0.1
        data = np.loadtxt(out / "sweep.csv", delimiter=",", skiprows=1)
        assert data.shape == (12, 2)

    def test_square_baseline_of_the_self_target(self, tmp_path, monkeypatch):
        # the self target is the sweep's delta_beta = 0 row: the baseline's
        # angle is read off it, so the pulse is evolved once per refinement
        pulse = cp.pulses_from_curve(cp.frenet_data(cp.builtin_curve("clifford_fig1", n_samples=1024)))
        cp.save_pulse_csv(pulse, tmp_path / "p.csv")
        nodes = []
        product = _accel.su2_product

        def counted(hx, hy, hz, dt):
            nodes.append(hx.shape[-1])
            return product(hx, hy, hz, dt)

        monkeypatch.setattr(_accel, "su2_product", counted)
        out = tmp_path / "sq"
        assert main(["sweep", "--pulse-file", str(tmp_path / "p.csv"), "--compare", "square", "--out", str(out)]) == 0
        fit = json.loads((out / "fit.json").read_text())
        pulse_nodes = [1023 * 2**k + 1 for k in range(7)]
        evolved = [m for m in nodes if m in pulse_nodes]
        assert evolved == pulse_nodes[: len(evolved)]
        assert evolved[-1] == 1023 * fit["refinement"] + 1
        square = json.loads((out / "square_fit.json").read_text())
        assert abs(square["slope"] - 2.0) < 0.1

    def test_axis_angle_target(self, tmp_path, synth_out):
        out = tmp_path / "sweep2"
        rc = main(
            [
                "sweep",
                "--pulse-file",
                str(synth_out / "pulse.csv"),
                "--target",
                "axis=-1,1,1",
                f"angle={2*np.pi/3}",
                "--grid",
                "1e-3:4e-2:8",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        fit = json.loads((out / "fit.json").read_text())
        assert fit["target"]["kind"] == "axis-angle"

    def test_square_baseline_of_a_negative_angle(self, tmp_path, synth_out):
        # the same rotation spelled with a negative angle gets the same baseline
        spellings = (["axis=-1,1,1", f"angle={-2*np.pi/3}"], ["axis=1,-1,-1", f"angle={2*np.pi/3}"])
        outs = []
        for k, target in enumerate(spellings):
            out = tmp_path / f"sweep{k}"
            argv = ["sweep", "--pulse-file", str(synth_out / "pulse.csv"), "--target", *target]
            argv += ["--grid", "1e-3:4e-2:8", "--compare", "square", "--out", str(out)]
            assert main(argv) == 0
            outs.append(out)
        for name in ("square_sweep.csv", "square_fit.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_square_baseline_of_an_angle_past_pi(self, tmp_path, synth_out):
        # angle=7 and angle=7-2pi spell one rotation, up to the rounding of
        # 7-2pi; both baselines turn by its angle in [0, pi]
        outs = []
        for k, angle in enumerate((7.0, 7.0 - 2.0 * np.pi)):
            out = tmp_path / f"sweep{k}"
            argv = ["sweep", "--pulse-file", str(synth_out / "pulse.csv"), "--target", "axis=1,0,0"]
            argv += [f"angle={angle!r}", "--compare", "square", "--out", str(out)]
            assert main(argv) == 0
            outs.append(out)
        fits = [json.loads((out / "square_fit.json").read_text()) for out in outs]
        for key in ("slope", "intercept"):
            assert fits[0][key] == pytest.approx(fits[1][key], rel=1e-12, abs=1e-12), key
        rows = [np.loadtxt(out / "square_sweep.csv", delimiter=",", skiprows=1) for out in outs]
        np.testing.assert_allclose(rows[0], rows[1], rtol=1e-12, atol=0.0)

    def test_bad_grid_exits_2(self, tmp_path, synth_out):
        rc = main(
            ["sweep", "--pulse-file", str(synth_out / "pulse.csv"), "--grid", "oops", "--out", str(tmp_path / "x")]
        )
        assert rc == 2

    def test_unconverged_exits_3(self, tmp_path):
        t = np.linspace(0.0, 1.0, 16)
        wild = cp.PulseWaveform(t, np.full(16, 1e7), np.linspace(0, 40 * np.pi, 16))
        cp.save_pulse_csv(wild, tmp_path / "wild.csv")
        rc = main(
            [
                "sweep",
                "--pulse-file",
                str(tmp_path / "wild.csv"),
                "--refinement",
                "1",
                "--certify",
                "--out",
                str(tmp_path / "x"),
            ]
        )
        assert rc == 3


    def test_unconverged_sweep_warns_and_certify_exits_3(self, tmp_path, capsys):
        # a coarse drive: its sweep clears the noise floor, but propagation
        # still moves between refinement 1 and 2
        t = np.linspace(0.0, 1.0, 16)
        coarse = cp.PulseWaveform(t, np.full(16, 40.0), np.linspace(0, 6 * np.pi, 16))
        cp.save_pulse_csv(coarse, tmp_path / "coarse.csv")
        argv = ["sweep", "--pulse-file", str(tmp_path / "coarse.csv"), "--refinement", "1"]
        assert main(argv + ["--out", str(tmp_path / "warn")]) == 0
        assert "not converged at refinement 1" in capsys.readouterr().err
        fit = json.loads((tmp_path / "warn" / "fit.json").read_text())
        assert fit["converged"] is False
        assert fit["last_delta"] > 1e-8
        assert main(argv + ["--certify", "--out", str(tmp_path / "strict")]) == 3
        assert "not converged at refinement 1" in capsys.readouterr().err


def test_commands_run_with_scipy_blocked(tmp_path):
    # scipy is a test dependency only: with its import made to fail, a curve
    # file is synthesized, and the pulse analyzed and swept
    curve_file = tmp_path / "clifford.csv"
    cp.save_curve_csv(cp.builtin_curve("clifford_fig1", n_samples=512), curve_file)
    syn, pulse_file = tmp_path / "syn", tmp_path / "syn" / "pulse.csv"
    code = (
        "import sys; sys.modules['scipy'] = None; import curvepulse.cli as cli;"
        f"assert cli.main(['synth', '--curve-file', {str(curve_file)!r}, '--out', {str(syn)!r}]) == 0;"
        f"assert cli.main(['analyze', '--pulse-file', {str(pulse_file)!r},"
        f" '--out', {str(tmp_path / 'an')!r}]) == 0;"
        f"assert cli.main(['sweep', '--pulse-file', {str(pulse_file)!r}, '--target', 'from-curve',"
        f" '--compare', 'square', '--out', {str(tmp_path / 'sw')!r}]) == 0"
    )
    subprocess.run([sys.executable, "-c", code], env=python_env(), check=True)


class TestArgumentValidation:
    @pytest.mark.parametrize("command", ["synth", "analyze", "sweep"])
    @pytest.mark.parametrize("value", ["0", "-2", "abc", "65"])
    def test_bad_refinement_exits_2(self, tmp_path, synth_out, capsys, command, value):
        source = {
            "synth": ["--builtin", "circle", "--samples", "256"],
            "analyze": ["--pulse-file", str(synth_out / "pulse.csv")],
            "sweep": ["--pulse-file", str(synth_out / "pulse.csv")],
        }[command]
        out = tmp_path / "x"
        rc = main([command, *source, "--refinement", value, "--out", str(out)])
        assert rc == 2
        assert "--refinement" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["synth", "analyze", "sweep"])
    def test_largest_refinement_accepted(self, tmp_path, command):
        # MAX_REFINEMENT (64) is the largest value --refinement takes
        pulse_file = tmp_path / "square.csv"
        cp.save_pulse_csv(cp.square_pulse(1.0, n_samples=64), pulse_file)
        source = {
            "synth": ["--builtin", "circle", "--samples", "256"],
            "analyze": ["--pulse-file", str(pulse_file)],
            "sweep": ["--pulse-file", str(pulse_file)],
        }[command]
        out = tmp_path / "x"
        assert main([command, *source, "--refinement", "64", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["refinement"] == "64"

    @pytest.mark.parametrize(
        "extra",
        [
            ["--target", "axis=1,0,0", "angle=nan"],
            ["--target", "axis=inf,0,0", "angle=1"],
            ["--grid", "1e-3:inf:5"],
        ],
    )
    def test_non_finite_sweep_input_exits_2(self, tmp_path, synth_out, capsys, extra):
        argv = ["sweep", "--pulse-file", str(synth_out / "pulse.csv"), *extra]
        assert main([*argv, "--out", str(tmp_path / "x")]) == 2
        assert "finite" in capsys.readouterr().err


class TestParser:
    def test_built_once_and_stateless(self, tmp_path, synth_out):
        assert build_parser() is build_parser()
        for radius in ("2.0", "0.5"):
            out = tmp_path / f"circle-{radius}"
            argv = ["synth", "--builtin", "circle", "--param", f"radius={radius}",
                    "--samples", "256", "--out", str(out)]
            assert main(argv) == 0
            config = json.loads((out / "manifest.json").read_text())["config"]
            assert config["param"] == [f"radius={radius}"]
        pulse_file = str(synth_out / "pulse.csv")
        grid = ["--grid", "1e-3:4e-2:5"]
        target = ["--target", "axis=0,0,1", "angle=1.0"]
        assert main(["sweep", "--pulse-file", pulse_file, *target, *grid,
                     "--out", str(tmp_path / "axis")]) == 0
        assert main(["sweep", "--pulse-file", pulse_file, *grid, "--out", str(tmp_path / "self")]) == 0
        fit = json.loads((tmp_path / "self" / "fit.json").read_text())
        assert fit["target"] == {"kind": "self"}
        config = json.loads((tmp_path / "self" / "manifest.json").read_text())["config"]
        assert config["target"] is None


class TestCsvWriter:
    def test_bytes_match_savetxt(self, tmp_path):
        # signed zeros, subnormals and extreme exponents print as np.savetxt
        # prints them
        rng = np.random.default_rng(8)
        cols = [np.linspace(0.0, 1.0, 4096), rng.normal(size=4096), rng.normal(size=(4096, 2))]
        cols[1][:6] = [-0.0, 0.0, 1e-320, -4.9e-324, 1.5e300, -2.5e-300]
        cols[2][:3, 1] = [1e-300, -1e300, -0.0]
        write_csv(tmp_path / "new.csv", "t,a,b,c", cols)
        with open(tmp_path / "ref.csv", "w", encoding="utf-8") as fh:
            np.savetxt(
                fh,
                np.column_stack(cols),
                fmt="%.17g",
                delimiter=",",
                header="t,a,b,c",
                comments="",
            )
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


class TestDeterminism:
    def test_byte_identical_outputs(self, tmp_path):
        args = ["synth", "--builtin", "alpha_eq12", "--samples", "512"]
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert tree_hashes(out1) == tree_hashes(out2)

    @pytest.mark.parametrize(
        "argv",
        [
            ["synth", "--builtin", "circle", "--samples", "256"],
            ["analyze", "--pulse-file", None],
            ["sweep", "--pulse-file", None, "--grid", "1e-4:1e-2:5"],
        ],
        ids=["synth", "analyze", "sweep"],
    )
    def test_rerun_trims_longer_outputs(self, tmp_path, argv):
        # A rerun writes over the outputs already in --out; whatever an old
        # file held past the new end must be cut off.
        pulse_file = tmp_path / "sq.csv"
        cp.save_pulse_csv(cp.square_pulse(1.0, n_samples=256), pulse_file)
        argv = [str(pulse_file) if a is None else a for a in argv]
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 0
        first = tree_hashes(out)
        for name in first:
            with open(out / name, "ab") as fh:
                fh.write(b"stale,tail\n" * 1000)
        assert main(argv + ["--out", str(out)]) == 0
        assert tree_hashes(out) == first

    def test_json_twin_gives_the_csv_outputs(self, tmp_path, synth_out):
        # pulse.json holds the text of pulse.csv, so analyze and sweep read
        # the same pulse from either and write the same bytes; only the
        # manifest, which names and hashes the input, differs
        for argv in (["analyze"], ["sweep", "--target", "from-curve", "--compare", "square"]):
            outputs = []
            for twin in ("pulse.csv", "pulse.json"):
                out = tmp_path / f"{argv[0]}-{twin}"
                assert main(argv + ["--pulse-file", str(synth_out / twin), "--out", str(out)]) == 0
                outputs.append(tree_hashes(out))
            for hashes in outputs:
                assert hashes.pop("manifest.json")
            assert outputs[0] == outputs[1], argv[0]

    def test_manifest_records_hashes(self, synth_out):
        manifest = json.loads((synth_out / "manifest.json").read_text())
        for name, digest in manifest["outputs"].items():
            actual = hashlib.sha256((synth_out / name).read_bytes()).hexdigest()
            assert actual == digest, name
        assert manifest["version"] == cp.__version__
