"""Per-stage timings on three built-in curves, plus the CLI end to end.

Best of three wall times per stage at 4096 samples, NumPy fallback unless
numba is active.  Prints a markdown table, then one JSON line with every
number, so stage-level figures can be quoted next to the workload metrics.
"""

import contextlib
import io
import json
import sys
import time

CURVES = ("clifford_fig1", "alpha_eq12", "const_torsion_gamma")
REPEATS = 3


def best_of(fn, repeats=REPEATS):
    best, out = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - start)
    return best, out


def _stage_row(cp, name):
    row = {}
    row["builtin_curve"], curve = best_of(lambda: cp.builtin_curve(name))
    frenet = cp.frenet_data(curve)
    row["pulses_from_curve"], pulse = best_of(lambda: cp.pulses_from_curve(frenet))
    row["target_gate_from_curve"], _ = best_of(lambda: cp.target_gate_from_curve(curve, frenet))
    row["propagate_auto"], (_, cert) = best_of(lambda: cp.propagate(pulse, 0.0, certify=True))
    row["propagate_refinement"] = cert.refinement
    row["propagate_converged"] = cert.converged
    try:
        row["infidelity_sweep"], _ = best_of(lambda: cp.infidelity_sweep(pulse))
    except cp.ConvergenceError:
        row["infidelity_sweep"] = "ConvergenceError"
    row["magnus_nested_auto"], _ = best_of(lambda: cp.magnus_errors(pulse, nested="auto"))
    row["magnus_nested_off"], _ = best_of(lambda: cp.magnus_errors(pulse, nested=False))
    row["robustness_report"], _ = best_of(lambda: cp.robustness_report(pulse))
    row["reconstruct_from_frenet"], _ = best_of(lambda: cp.reconstruct_from_frenet(frenet))
    return row, pulse


def _cli(cli, argv):
    with contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def main(cp, env, import_s, workdir):
    cli = sys.modules["curvepulse.cli"]
    rows, pulses = {}, {}
    for name in CURVES:
        rows[name], pulses[name] = _stage_row(cp, name)
    for name, pulse in pulses.items():
        cp.save_pulse_csv(pulse, workdir / f"{name}.csv")

    clifford = str(workdir / "clifford_fig1.csv")
    commands = {
        "synth clifford_fig1": ["synth", "--builtin", "clifford_fig1"],
        "analyze clifford_fig1 pulse": ["analyze", "--pulse-file", clifford],
        "sweep --target from-curve --compare square": [
            "sweep", "--pulse-file", clifford, "--target", "from-curve", "--compare", "square",
        ],
        "sweep alpha_eq12 pulse": ["sweep", "--pulse-file", str(workdir / "alpha_eq12.csv")],
    }
    cli_rows = {}
    for k, (label, argv) in enumerate(commands.items()):
        out = str(workdir / f"cli-{k}")
        seconds, rc = best_of(lambda argv=argv, out=out: _cli(cli, [*argv, "--out", out]))
        cli_rows[label] = {"seconds": seconds, "exit": rc}

    def cell(value):
        return f"{value * 1000:.0f} ms" if isinstance(value, float) else str(value)

    print(f"| stage | {' | '.join(CURVES)} |")
    print(f"|---|{'---|' * len(CURVES)}")
    for stage in rows[CURVES[0]]:
        print(f"| `{stage}` | {' | '.join(cell(rows[c][stage]) for c in CURVES)} |")
    print(f"\npackage import (fresh interpreter): {import_s:.3f} s")
    for label, r in cli_rows.items():
        print(f"- `{label}`: {r['seconds']:.3f} s, exit {r['exit']}")
    print(json.dumps({"env": env, "import_s": import_s, "stages": rows, "cli": cli_rows}))
    return 0
