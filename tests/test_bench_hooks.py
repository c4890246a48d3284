"""What the benchmark harness under perfbench/ needs of the package.

perfbench/tracer.py wraps package functions by name in every run, and its
hooks bind their parameters by name and read `.refinement` off their
results; run.py reads `_accel.HAVE_NUMBA` and `_accel.USE_NUMBA`, and
stages.py makes a few calls of its own.  A rename or a deletion that the
rest of the suite does not notice would fail every benchmark run; here it
fails a test.  The harness's files are imported, never changed.
"""

from pathlib import Path

import pytest

import curvepulse as cp
from curvepulse import _accel
from curvepulse.cli import main

from conftest import magnus_a2_nested

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracer(monkeypatch):
    """An untimed benchmark Tracer, installed for the test and then restored."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer as tracer_module

    hooks = tracer_module.Tracer(timed=False)
    with hooks:
        hooks.begin_op(0, "hooks")
        yield hooks
        hooks.end_op()


def test_commands_run_under_the_tracer(tmp_path, tracer):
    synth = tmp_path / "synth"
    pulse = str(synth / "pulse.csv")
    commands = [
        ["synth", "--builtin", "clifford_fig1", "--samples", "512", "--out", str(synth)],
        ["analyze", "--pulse-file", pulse, "--out", str(tmp_path / "analyze")],
        ["sweep", "--pulse-file", pulse, "--target", "from-curve", "--compare", "square",
         "--out", str(tmp_path / "sweep")],
    ]
    for argv in commands:
        assert main(argv) == 0, argv[0]
    record = tracer.op_record(0)
    assert record["refinements"], record
    assert record["su2_product_substeps"] > 0 and record["su2_trajectory_substeps"] > 0, record
    for name in ("synthesis.drive_phase_track", "_accel.transport_components",
                 "analysis.curve_from_pulse", "simulator.infidelity_sweep"):
        assert tracer.op_counts[0][name + ".calls"] > 0, name


def test_run_and_stages_calls(tracer):
    # the flags run.py records, and the calls stages.py makes that the
    # commands above do not
    assert isinstance(_accel.HAVE_NUMBA, bool) and isinstance(_accel.USE_NUMBA, bool)
    frenet = cp.frenet_data(cp.builtin_curve("clifford_fig1", n_samples=512))
    pulse = cp.pulses_from_curve(frenet)
    u, cert = cp.propagate(pulse, 0.0, certify=True)
    assert cert.refinement >= 1 and isinstance(cert.converged, bool)
    assert cp.magnus_errors(pulse, nested="auto").a1_norm >= 0.0
    assert cp.reconstruct_from_frenet(frenet).shape == (512, 3)
    # the tracer's hook on the nested quadrature, which only test oracles call
    magnus_a2_nested(pulse, 1)
    assert tracer.op_counts[0]["_accel.magnus_nested_r2.pairs"] == 512 * 511 // 2
