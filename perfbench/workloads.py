"""Workload inputs, operations and output checks.

A workload is built from a seed: it writes its input files into a work
directory and returns one round of operations.  Each operation is one call
of the in-process CLI (``curvepulse.cli.main``) plus a check of the files it
wrote, against ``oracle`` computations or properties the method must have.
"""

import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import oracle

# Operations that fail today because of faults in the program.  Their inputs
# do not depend on the seed, so they fail in every round; they are counted in
# `failed` and do not make a run incorrect as long as they fail for the
# reason given here.
KNOWN_FAILURES = {
    # the t->0 anchoring in synthesis._endpoint_phase_delta picks the wrong
    # pi branch when the curve starts on a straight segment
    "synth:stadium@4096": "gate_vs_evolution",
    # the same endpoint phase is snapped to the wrong branch for about one
    # in nine random Fourier loops loaded from CSV; loop seed 7 is one
    "synth:fourier-7": "gate_vs_evolution",
    # the default grid leaves pulses whose error cancels beyond second order
    # below the 1e-13 infidelity floor (exit 3)
    "sweep:alpha_eq12": "exit 3",
    "sweep:lemniscate": "exit 3",
    "sweep-fc:lemniscate": "exit 3",
    # the gate read off the reconstructed alpha_eq12 curve is not the gate
    # the pulse implements
    "sweep-fc:alpha_eq12": "from_curve_target",
}

BUILTINS = ("circle", "lemniscate", "clifford_fig1", "alpha_eq12", "const_torsion_gamma")
SAMPLES = 4096
GATE_TOL = 1e-4
STADIUM_SAMPLES = (4096, 8192)
# fixed, not drawn from --seed: the fault above makes a drawn loop fail on
# some seeds only, which would change the failed share from run to run
FOURIER_LOOP_SEEDS = tuple(range(8))


@dataclass(frozen=True)
class Op:
    """One CLI invocation; `check(outdir)` returns a failure reason or None."""

    name: str
    argv: tuple
    check: Callable


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple
    warmup: Op
    inputs: dict


# ---------------------------------------------------------------------------
# shared helpers


def _json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _write_curve_csv(path, t, points):
    np.savetxt(
        path, np.column_stack([t, points]), fmt="%.17g", delimiter=",",
        header="t,x,y,z", comments="",
    )


def stadium_curve(straight=1.0, radius=1.0, rows=513):
    """Closed stadium: two straight segments joined by half-circles.

    Starts at the middle of the lower straight segment, so the first
    samples have zero curvature.  Parameterized by arc length.
    """
    s = np.linspace(0.0, 2.0 * straight + 2.0 * np.pi * radius, rows)
    b1 = straight / 2
    b2 = b1 + np.pi * radius
    b3 = b2 + straight
    b4 = b3 + np.pi * radius
    x = np.empty_like(s)
    y = np.empty_like(s)
    seg = s < b1
    x[seg], y[seg] = s[seg], 0.0
    seg = (s >= b1) & (s < b2)
    a = (s[seg] - b1) / radius
    x[seg], y[seg] = b1 + radius * np.sin(a), radius - radius * np.cos(a)
    seg = (s >= b2) & (s < b3)
    x[seg], y[seg] = b1 - (s[seg] - b2), 2.0 * radius
    seg = (s >= b3) & (s < b4)
    a = (s[seg] - b3) / radius
    x[seg], y[seg] = -b1 - radius * np.sin(a), radius + radius * np.cos(a)
    seg = s >= b4
    x[seg], y[seg] = -b1 + (s[seg] - b4), 0.0
    return s, np.column_stack([x, y, np.zeros_like(s)])


# ---------------------------------------------------------------------------
# forward-synth: curve -> pulse + gate


def _gate_matrix(gate):
    return np.array(gate["unitary_re"]) + 1j * np.array(gate["unitary_im"])


def _check_synth(outdir, radius=None, clifford=False):
    _, pulse = oracle.read_csv_columns(outdir / "pulse.csv")
    _, frenet = oracle.read_csv_columns(outdir / "frenet.csv")
    gate = _json(outdir / "gate.json")
    kappa = frenet[:, 1]
    envelope = np.hypot(pulse[:, 1], pulse[:, 2])
    if np.max(np.abs(envelope - kappa)) > 1e-9 * np.max(kappa):
        return "envelope_vs_curvature"
    if radius is not None and np.max(np.abs(kappa * radius - 1.0)) > 1e-6:
        return "circle_curvature"
    if not gate["closed"]:
        return "closed_flag"
    u_ref = oracle.quat_to_matrix(oracle.evolve_pulse(pulse[:, 0], pulse[:, 1], pulse[:, 2]))
    if oracle.phase_free_distance(_gate_matrix(gate), u_ref) > GATE_TOL:
        return "gate_vs_evolution"
    if clifford:
        expected = oracle.axis_rotation([-1.0, 1.0, 1.0], 2.0 * np.pi / 3.0)
        if np.max(np.abs(oracle.rotation_of(_gate_matrix(gate)) - expected)) > 1e-3:
            return "clifford_rotation"
    return None


def _forward_synth(cp, seed, workdir):
    rng = np.random.default_rng([seed, 1])
    radius = float(rng.uniform(0.5, 2.0))
    inputs = {"circle_radius": radius, "fourier_loop_seeds": list(FOURIER_LOOP_SEEDS)}

    ops = []
    for name in BUILTINS:
        argv = ["synth", "--builtin", name, "--samples", str(SAMPLES)]
        kwargs = {"clifford": name == "clifford_fig1"}
        if name == "circle":
            argv += ["--param", f"radius={radius!r}"]
            kwargs["radius"] = radius
        ops.append(Op(f"synth:{name}", tuple(argv), partial(_check_synth, **kwargs)))
    ops.append(
        Op(
            "synth:clifford_fig1@32768",
            ("synth", "--builtin", "clifford_fig1", "--samples", "32768"),
            partial(_check_synth, clifford=True),
        )
    )
    for loop_seed in FOURIER_LOOP_SEEDS:
        path = workdir / f"fourier-{loop_seed}.csv"
        cp.save_curve_csv(cp.random_fourier_loop(loop_seed, n_samples=2048), path)
        ops.append(
            Op(
                f"synth:fourier-{loop_seed}",
                ("synth", "--curve-file", str(path), "--samples", str(SAMPLES)),
                _check_synth,
            )
        )
    path = workdir / "stadium.csv"
    _write_curve_csv(path, *stadium_curve())
    for n in STADIUM_SAMPLES:
        ops.append(
            Op(
                f"synth:stadium@{n}",
                ("synth", "--curve-file", str(path), "--samples", str(n)),
                _check_synth,
            )
        )
    return ops, ops[0], inputs


# ---------------------------------------------------------------------------
# pulse set shared by reverse-audit and noise-sweep


@dataclass(frozen=True)
class PulseInput:
    name: str
    path: Path
    classification: str
    source_points: np.ndarray = None  # curve the pulse was synthesized from


def _pulse_set(cp, seed, workdir):
    rng = np.random.default_rng([seed, 2])
    pulses = []
    for name in BUILTINS:
        curve = cp.builtin_curve(name, n_samples=SAMPLES)
        pulse = cp.pulses_from_curve(cp.frenet_data(curve))
        path = workdir / f"{name}.csv"
        cp.save_pulse_csv(pulse, path)
        label = oracle.expected_classification(curve.points, curve.total_length)
        pulses.append(PulseInput(name, path, label, curve.points))
        if name == "clifford_fig1":
            lab = cp.transform_to_lab_frame(pulse).to_waveform()
            lab_path = workdir / "clifford_fig1-lab.csv"
            cp.save_pulse_csv(lab, lab_path)
            lab_input = PulseInput("clifford_fig1-lab", lab_path, label, curve.points)
    pulses.append(lab_input)
    synth_seeds = [int(s) for s in rng.integers(0, 2**31, size=4)]
    sizes = (2048, 2048, 2048, 16384)
    for k, (s, n) in enumerate(zip(synth_seeds, sizes)):
        name = f"synthetic-{k}" if n == 2048 else "synthetic-16k"
        path = workdir / f"{name}.csv"
        cp.save_pulse_csv(cp.synthetic_smooth_pulse(s, n_samples=n), path)
        pulses.append(PulseInput(name, path, "uncorrected"))
    return pulses, {"synthetic_seeds": synth_seeds, "synthetic_samples": list(sizes)}


def _check_analyze(outdir, pulse_input):
    report = _json(outdir / "report.json")
    _, curve = oracle.read_csv_columns(outdir / "curve.csv")
    _, pulse = oracle.read_csv_columns(pulse_input.path)
    if abs(report["curve_length"] - pulse[-1, 0]) > 1e-9 * pulse[-1, 0]:
        return "curve_length"
    closure = float(np.linalg.norm(curve[-1, 1:] - curve[0, 1:]))
    if abs(report["closure_residual"] - closure) > 1e-12 * report["curve_length"]:
        return "closure_vs_curve"
    if abs(report["magnus_a1_norm"] - report["closure_residual"]) > 1e-8:
        return "a1_vs_closure"
    if abs(report["magnus_a2_norm"] - float(np.linalg.norm(report["r2_vector"]))) > 1e-8:
        return "a2_vs_r2"
    if pulse_input.source_points is not None:
        rms = oracle.rigid_rms(curve[:, 1:], pulse_input.source_points)
        if rms > 1e-5 * report["curve_length"]:
            return "round_trip"
    if report["classification"] != pulse_input.classification:
        return "classification"
    return None


def _reverse_audit(cp, seed, workdir):
    pulses, inputs = _pulse_set(cp, seed, workdir)
    ops = [
        Op(
            f"analyze:{p.name}",
            ("analyze", "--pulse-file", str(p.path)),
            partial(_check_analyze, pulse_input=p),
        )
        for p in pulses
    ]
    return ops, ops[0], inputs


# ---------------------------------------------------------------------------
# noise-sweep: pulse -> infidelity sweep + slope fit

_SLOPES = {"uncorrected": (2.0, 0.2), "first-order": (4.0, 0.3)}
_SECOND_ORDER_MIN_SLOPE = 5.6


def _check_slope(slope, classification):
    if classification in _SLOPES:
        centre, tol = _SLOPES[classification]
        return abs(slope - centre) <= tol
    return slope >= _SECOND_ORDER_MIN_SLOPE


def _square_classification(angle):
    # a square pulse traces a circular arc of that angle: closed (first
    # order) only for whole turns
    turns = angle / (2.0 * np.pi)
    return "first-order" if turns > 0.5 and abs(turns - round(turns)) < 1e-9 else "uncorrected"


def _check_sweep(outdir, pulse_input):
    fit = _json(outdir / "fit.json")
    if not _check_slope(fit["slope"], pulse_input.classification):
        return "slope"
    return None


def _check_sweep_from_curve(outdir, pulse_input):
    fit = _json(outdir / "fit.json")
    square_fit = _json(outdir / "square_fit.json")
    _, square = oracle.read_csv_columns(outdir / "square_sweep.csv")
    _, pulse = oracle.read_csv_columns(pulse_input.path)
    expected = oracle.square_infidelity(pulse[-1, 0], fit["target"]["angle"], square[:, 0])
    # the program evaluates 1 - F in double precision: a few ulps of 1 absolute
    if not np.all(np.abs(square[:, 1] - expected) <= 1e-6 * expected + 1e-15):
        return "square_closed_form"
    if not _check_slope(square_fit["slope"], _square_classification(fit["target"]["angle"])):
        return "square_slope"
    if pulse_input.source_points is None:
        # open curves: the reconstructed-curve target is not checked (see README)
        return None
    _, sweep = oracle.read_csv_columns(outdir / "sweep.csv")
    # a closed curve's own gate is the pulse's noise-free gate, so the
    # infidelity must vanish with the noise
    if sweep[np.argmin(sweep[:, 0]), 1] > 1e-6:
        return "from_curve_target"
    if not _check_slope(fit["slope"], pulse_input.classification):
        return "slope"
    return None


def _noise_sweep(cp, seed, workdir):
    pulses, inputs = _pulse_set(cp, seed, workdir)
    ops = []
    for p in pulses:
        ops.append(
            Op(
                f"sweep:{p.name}",
                ("sweep", "--pulse-file", str(p.path)),
                partial(_check_sweep, pulse_input=p),
            )
        )
        ops.append(
            Op(
                f"sweep-fc:{p.name}",
                ("sweep", "--pulse-file", str(p.path), "--target", "from-curve",
                 "--compare", "square"),
                partial(_check_sweep_from_curve, pulse_input=p),
            )
        )
    # warm up on the operation that reaches the most layers
    return ops, ops[1], inputs


_BUILDERS = {
    "forward-synth": _forward_synth,
    "reverse-audit": _reverse_audit,
    "noise-sweep": _noise_sweep,
}
WORKLOADS = tuple(_BUILDERS)


def build(cp, name, seed, workdir):
    """Write the workload's inputs under workdir and return its round of ops."""
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    ops, warmup, inputs = _BUILDERS[name](cp, seed, workdir)
    return Workload(name, tuple(ops), warmup, inputs)
