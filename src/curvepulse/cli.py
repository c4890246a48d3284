"""Command-line surface: synth (curve -> pulse), analyze (pulse -> report),
sweep (pulse -> noise-scaling fit).  Emits tidy CSV/JSON plus a manifest
with config and content hashes; identical config and inputs must produce
byte-identical outputs."""

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from . import __version__
from ._files import write_csv, write_json
from .analysis import _pulse_curve, import_external_pulse, robustness_report
from .curves import (
    BUILTIN_CURVES,
    _load_curve_hashed,
    builtin_curve,
    frenet_data,
    save_curve_csv,
)
from .errors import ConvergenceError, CurvePulseError, InputError
from .simulator import (
    MAX_REFINEMENT,
    average_gate_infidelity,
    infidelity_sweep,
    propagate,
    square_pulse,
)
from .su2 import axis_angle_unitary, gate_distance, unitary_axis_angle
from .synthesis import (
    pulses_from_curve,
    save_pulse_csv,
    save_pulse_json,
    target_gate_from_curve,
)


def _write_json(path, payload):
    return write_json(path, payload, indent=2)


def _write_manifest(outdir, command, config, inputs, outputs):
    """inputs maps each input file's name to the sha256 of the bytes read,
    outputs each output file's name to the sha256 of the bytes written."""
    manifest = {
        "version": __version__,
        "command": command,
        "config": config,
        "inputs": inputs,
        "outputs": outputs,
    }
    _write_json(outdir / "manifest.json", manifest)


def _parse_params(items):
    params = {}
    for item in items or []:
        if "=" not in item:
            raise InputError(f"--param expects k=v, got {item!r}")
        key, val = item.split("=", 1)
        try:
            params[key] = float(val)
        except ValueError as exc:
            raise InputError(f"--param {key}: {exc}") from exc
    return params


def _resolve_curve(args):
    inputs = {}
    if args.builtin and args.curve_file:
        raise InputError("give either --builtin or --curve-file, not both")
    if args.builtin:
        curve = builtin_curve(args.builtin, n_samples=args.samples, **_parse_params(args.param))
    elif args.curve_file:
        path = Path(args.curve_file)
        if not path.exists():
            raise InputError(f"curve file not found: {path}")
        curve, inputs["curve_file"] = _load_curve_hashed(path, args.samples)
    else:
        raise InputError("a curve source is required: --builtin NAME or --curve-file PATH")
    return curve, inputs


def _load_pulse(args):
    path = Path(args.pulse_file)
    if not path.exists():
        raise InputError(f"pulse file not found: {path}")
    pulse = import_external_pulse(path)
    return pulse, {"pulse_file": pulse.metadata["sha256"]}


def _refinement_arg(value):
    if value == "auto":
        return None
    if not value.isdecimal() or not 1 <= int(value) <= MAX_REFINEMENT:
        raise InputError(
            f"--refinement expects 'auto' or an integer from 1 to {MAX_REFINEMENT}, got {value!r}"
        )
    return int(value)


def cmd_synth(args):
    refinement = _refinement_arg(args.refinement)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    curve, inputs = _resolve_curve(args)
    frenet = frenet_data(curve)
    pulse = pulses_from_curve(frenet, phi0=args.phi0)
    gate = target_gate_from_curve(curve, frenet, phi0=args.phi0)
    if not gate.closed:
        print(
            f"warning: curve is not closed (residual {curve.closure_residual():.3e}); "
            "gate flagged non-robust",
            file=sys.stderr,
        )

    u_sim = propagate(pulse, 0.0, refinement=refinement)
    selfcheck = gate_distance(gate.unitary, u_sim)
    selfcheck_infid = average_gate_infidelity(u_sim, gate.unitary)

    outputs = {
        "pulse.csv": save_pulse_csv(pulse, outdir / "pulse.csv"),
        "pulse.json": save_pulse_json(pulse, outdir / "pulse.json"),
        "frenet.csv": write_csv(
            outdir / "frenet.csv", "t,kappa,tau", [frenet.t, frenet.curvature, frenet.torsion]
        ),
    }
    m = gate.unitary.matrix
    outputs["gate.json"] = _write_json(
        outdir / "gate.json",
        {
            "axis": gate.axis.tolist(),
            "angle": gate.angle,
            "theta_final": gate.phase_theta_final,
            "unitary_re": np.real(m).tolist(),
            "unitary_im": np.imag(m).tolist(),
            "closed": gate.closed,
            "flags": list(gate.flags),
            "closure_residual": curve.closure_residual(),
            "curve_length": curve.total_length,
            "propagation_distance": selfcheck,
            "propagation_infidelity": selfcheck_infid,
        },
    )
    config = {
        "builtin": args.builtin,
        "curve_file": args.curve_file,
        "param": sorted(args.param or []),
        "phi0": args.phi0,
        "samples": args.samples,
        "refinement": args.refinement,
    }
    _write_manifest(outdir, "synth", config, inputs, outputs)
    return 0


def cmd_analyze(args):
    refinement = _refinement_arg(args.refinement)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    pulse, inputs = _load_pulse(args)
    report = robustness_report(pulse, refinement=refinement)

    curve = report.reconstructed_curve
    outputs = {
        "report.json": _write_json(outdir / "report.json", report.to_dict()),
        "curve.csv": save_curve_csv(curve, outdir / "curve.csv"),
        "theta.csv": write_csv(outdir / "theta.csv", "t,theta", [curve.t, report.theta_track]),
    }
    config = {
        "pulse_file": str(args.pulse_file),
        "refinement": args.refinement,
    }
    _write_manifest(outdir, "analyze", config, inputs, outputs)
    return 0


def _parse_target(tokens, pulse, refinement):
    if not tokens or tokens == ["from-curve"]:
        if tokens:
            # index, not unpack: the trajectory is released before the gate is read
            curve = _pulse_curve(pulse, refinement)[0]
            gate = target_gate_from_curve(curve, phi0=float(pulse.phi[0]))
            if "non_robust_open_curve" in gate.flags:
                print(
                    f"warning: from-curve target read off an open curve (closure residual "
                    f"{curve.closure_residual():.3e}): the curve cancels no noise and its "
                    "gate readout can move with the rounding of its points",
                    file=sys.stderr,
                )
            info = {"kind": "from-curve", "angle": gate.angle, "flags": list(gate.flags)}
            return gate.unitary, info
        return None, {"kind": "self"}
    fields = {}
    for tok in tokens:
        if "=" not in tok:
            raise InputError(f"--target token {tok!r} not understood")
        key, val = tok.split("=", 1)
        fields[key] = val
    if "axis" not in fields or "angle" not in fields:
        raise InputError("--target needs axis=x,y,z and angle=RAD (or from-curve)")
    try:
        axis = np.array([float(v) for v in fields["axis"].split(",")])
        angle = float(fields["angle"])
    except ValueError as exc:
        raise InputError(f"--target: {exc}") from exc
    if axis.shape != (3,):
        raise InputError("--target axis needs three components")
    if not (np.all(np.isfinite(axis)) and np.isfinite(angle)):
        raise InputError("--target axis and angle must be finite")
    return axis_angle_unitary(axis, angle), {
        "kind": "axis-angle",
        "axis": axis.tolist(),
        "angle": angle,
    }


def _parse_grid(text, duration):
    if text is None:
        return None
    try:
        lo, hi, npts = text.split(":")
        lo, hi, npts = float(lo), float(hi), int(npts)
    except ValueError as exc:
        raise InputError(f"--grid expects lo:hi:npts, got {text!r}: {exc}") from exc
    if not (0 < lo < hi < np.inf) or npts < 3:
        raise InputError("--grid needs finite 0 < lo < hi and npts >= 3")
    return np.logspace(np.log10(lo), np.log10(hi), npts) / duration


def _write_sweep(outdir, prefix, sweep, target_info):
    # the two files' names mapped to the sha256 of their bytes
    columns = [sweep.delta_beta, sweep.infidelity]
    sweep_csv = write_csv(outdir / f"{prefix}sweep.csv", "delta_beta,infidelity", columns)
    fit_json = _write_json(
        outdir / f"{prefix}fit.json",
        {
            "slope": sweep.slope,
            "intercept": sweep.intercept,
            "residual": sweep.residual,
            "n_points": int(sweep.delta_beta.size),
            "n_used": int(sweep.used.sum()),
            "refinement": sweep.refinement,
            "converged": sweep.converged,
            "last_delta": sweep.last_delta,
            "grid_min": float(sweep.delta_beta.min()),
            "grid_max": float(sweep.delta_beta.max()),
            "target": target_info,
        },
    )
    return {f"{prefix}sweep.csv": sweep_csv, f"{prefix}fit.json": fit_json}


def cmd_sweep(args):
    refinement = _refinement_arg(args.refinement)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    pulse, inputs = _load_pulse(args)
    grid = _parse_grid(args.grid, pulse.duration)
    mean_omega = float(np.mean(pulse.omega))
    if grid is not None and mean_omega > 0 and grid.max() > 0.2 * mean_omega:
        print(
            f"warning: grid extends beyond the weak-noise regime "
            f"(max delta_beta {grid.max():.3e} vs mean drive {mean_omega:.3e})",
            file=sys.stderr,
        )
    target, target_info = _parse_target(args.target, pulse, refinement)

    sweep = infidelity_sweep(pulse, target=target, delta_beta=grid, refinement=refinement)
    if not sweep.converged:
        message = (
            f"sweep propagation not converged at refinement {sweep.refinement}: "
            f"delta {sweep.last_delta:.3e}"
        )
        if args.certify:
            raise ConvergenceError(message)
        print(f"warning: {message}", file=sys.stderr)
    outputs = _write_sweep(outdir, "", sweep, target_info)

    if args.compare == "square":
        # the angle in [0, pi] of the rotation, however the target spells it
        _, angle = unitary_axis_angle(sweep.target)
        baseline = square_pulse(pulse.duration, angle=angle, n_samples=256)
        base_sweep = infidelity_sweep(
            baseline, target=None, delta_beta=sweep.delta_beta
        )
        outputs.update(_write_sweep(outdir, "square_", base_sweep, {"kind": "square-baseline"}))

    config = {
        "pulse_file": str(args.pulse_file),
        "target": args.target,
        "grid": args.grid,
        "compare": args.compare,
        "refinement": args.refinement,
        "certify": args.certify,
    }
    _write_manifest(outdir, "sweep", config, inputs, outputs)
    return 0


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="curvepulse",
        description="Closed space curves <-> noise-robust single-qubit pulses",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument(
            "--refinement", default="auto", help="substeps per sample interval, or 'auto'"
        )

    p_synth = sub.add_parser("synth", help="curve -> pulse + gate report")
    common(p_synth)
    p_synth.add_argument("--samples", type=int, default=4096, help="curve sample count")
    p_synth.add_argument("--builtin", choices=BUILTIN_CURVES, help="built-in curve name")
    p_synth.add_argument("--curve-file", help="curve CSV/JSON file")
    p_synth.add_argument("--param", action="append", help="builtin parameter k=v")
    p_synth.add_argument("--phi0", type=float, default=None, help="initial drive phase")
    p_synth.set_defaults(func=cmd_synth)

    p_an = sub.add_parser("analyze", help="pulse -> robustness report + curve")
    common(p_an)
    p_an.add_argument("--pulse-file", required=True, help="pulse CSV/JSON file")
    p_an.set_defaults(func=cmd_analyze)

    p_sw = sub.add_parser("sweep", help="pulse -> noise sweep + slope fit")
    common(p_sw)
    p_sw.add_argument("--pulse-file", required=True, help="pulse CSV/JSON file")
    p_sw.add_argument(
        "--target",
        nargs="+",
        default=None,
        help="'from-curve' or axis=x,y,z angle=RAD (default: noise-free evolution)",
    )
    p_sw.add_argument("--grid", default=None, help="delta_beta*T grid as lo:hi:npts (log)")
    p_sw.add_argument("--compare", choices=["square"], default=None)
    p_sw.add_argument(
        "--certify", action="store_true", help="fail (exit 3) unless propagation converged"
    )
    p_sw.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CurvePulseError as exc:  # pragma: no cover - safety net
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run():
    raise SystemExit(main())
