"""The console script's contract, end to end.

Each command runs in a child interpreter through the console script's entry
point, `curvepulse.cli:run`, of the curvepulse this suite imports, in a
temporary directory.  To run the module against an installed package, from
a directory outside the checkout and with no `src` on the path:

    python -m pytest -o pythonpath= CHECKOUT/tests/test_console.py

Checks of the same commands that other modules already make:
- the JSON twin gives the CSV twin's outputs:
  `test_cli.py::TestDeterminism::test_json_twin_gives_the_csv_outputs`;
- the from-curve sweep of `synth`'s pulse, with its square baseline:
  `test_cli.py::TestSweep::test_sweep_with_square_baseline`;
- synth, analyze and sweep with SciPy blocked:
  `test_cli.py::test_commands_run_with_scipy_blocked`.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import curvepulse as cp

from conftest import python_env, stadium_rows

RUN = "from curvepulse.cli import run; run()"
# SciPy is a test dependency only: its import is made to fail
RUN_WITHOUT_SCIPY = "import sys; sys.modules['scipy'] = None; " + RUN


def curvepulse(cwd, *argv, code=RUN):
    """Run `curvepulse ARGV` in cwd; a nonzero exit fails the test."""
    subprocess.run([sys.executable, "-c", code, *argv], cwd=cwd, env=python_env(), check=True)


def read_json(path):
    return json.loads(Path(path).read_text())


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """synth of clifford_fig1, and analyze of its pulse."""
    work = tmp_path_factory.mktemp("console")
    curvepulse(work, "synth", "--builtin", "clifford_fig1", "--out", "cli-synth")
    curvepulse(work, "analyze", "--pulse-file", "cli-synth/pulse.csv", "--out", "cli-analyze")
    return work


def test_resynthesis_from_the_analyzed_curve(workdir):
    # the curve that analyze reads off the pulse synthesizes the same gate,
    # with SciPy importable or not
    curve = "cli-analyze/curve.csv"
    curvepulse(workdir, "synth", "--curve-file", curve, "--out", "cli-resynth")
    curvepulse(
        workdir, "synth", "--curve-file", curve, "--out", "cli-resynth-noscipy",
        code=RUN_WITHOUT_SCIPY,
    )
    gate = (workdir / "cli-resynth" / "gate.json").read_bytes()
    assert gate == (workdir / "cli-resynth-noscipy" / "gate.json").read_bytes()
    for run in ("cli-synth", "cli-resynth"):
        distance = read_json(workdir / run / "gate.json")["propagation_distance"]
        assert distance <= 1e-4, (run, distance)


@pytest.mark.parametrize("samples", [4096, 8192])
def test_stadium_end_normal(tmp_path, samples):
    # the benchmark's stadium ends on a straight run, where the end frame
    # carries the normal of the last curved sample
    cp.save_curve_csv(stadium_rows(1.0, 1.0, 513), tmp_path / "stadium.csv")
    out = f"cli-stadium-{samples}"
    curvepulse(tmp_path, "synth", "--curve-file", "stadium.csv", "--samples", str(samples), "--out", out)
    gate = read_json(tmp_path / out / "gate.json")
    assert gate["propagation_distance"] <= 1e-6, gate["propagation_distance"]
    assert "degenerate_final_normal" in gate["flags"], gate["flags"]


def test_stadium_rows_are_the_benchmark_stadium(tmp_path, monkeypatch):
    # the stadium above is the benchmark's input, byte for byte
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    workloads._write_curve_csv(tmp_path / "bench.csv", *workloads.stadium_curve())
    cp.save_curve_csv(stadium_rows(1.0, 1.0, 513), tmp_path / "tests.csv")
    assert (tmp_path / "tests.csv").read_bytes() == (tmp_path / "bench.csv").read_bytes()


def test_lab_frame_waveform(tmp_path):
    # a lab-frame waveform, with its z drive folded into the phase on import,
    # is analyzed, and its sweep against the curve's own gate scales as
    # delta_beta^4 against the square pulse's delta_beta^2
    pulse = cp.pulses_from_curve(cp.frenet_data(cp.builtin_curve("clifford_fig1")))
    cp.save_pulse_csv(cp.transform_to_lab_frame(pulse).to_waveform(), tmp_path / "lab.csv")
    curvepulse(tmp_path, "analyze", "--pulse-file", "lab.csv", "--out", "cli-lab-analyze")
    curvepulse(
        tmp_path, "sweep", "--pulse-file", "lab.csv", "--target", "from-curve",
        "--compare", "square", "--out", "cli-lab-sweep",
    )
    fit = read_json(tmp_path / "cli-lab-sweep" / "fit.json")
    square = read_json(tmp_path / "cli-lab-sweep" / "square_fit.json")
    assert fit["converged"] is True, fit
    assert abs(fit["slope"] - 4.0) <= 0.3, fit["slope"]
    assert abs(square["slope"] - 2.0) <= 0.1, square["slope"]
