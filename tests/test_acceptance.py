"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here, not configurable.
"""

import hashlib
import json

import numpy as np

import curvepulse as cp
from curvepulse._numerics import fd1
from curvepulse.cli import main

from conftest import BUILTINS, helix_curve, kabsch_align, third_order_vector


def _report(num, ok, detail):
    print(f"ACCEPTANCE-{num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_frenet_exactness():
    """Helix and circle curvature/torsion match closed forms at 4096 samples."""
    f = cp.frenet_data(helix_curve(a=1.0, b=0.5, n_samples=4096))
    kerr = float(np.max(np.abs(f.curvature - 0.8)))
    terr = float(np.max(np.abs(f.torsion - 0.4)))
    fc = cp.frenet_data(cp.builtin_curve("circle", n_samples=4096))
    cerr = float(np.max(np.abs(fc.curvature - 1.0)))
    czero = float(np.max(np.abs(fc.torsion)))
    ok = kerr < 1e-6 and terr < 1e-6 and cerr < 1e-6 and czero < 1e-6
    _report(
        1,
        ok,
        f"helix kappa err {kerr:.2e}, tau err {terr:.2e}; "
        f"circle kappa err {cerr:.2e}, tau {czero:.2e} (tol 1e-6)",
    )


def test_criterion_02_geometric_dynamic_identity(builtin_pulses):
    """Magnus integrals equal the pulse's curve diagnostics within 1e-8.

    The first/second error integrals are compared against the independently
    reconstructed curve of the same pulse (closure residual and the r x rdot
    quadrature), which is the frame in which the identity is stated.
    """
    worst1 = worst2 = 0.0
    for name in BUILTINS:
        pulse = builtin_pulses[name]
        mag = cp.magnus_errors(pulse)
        # a second, finer trajectory, so the identity compares two evolutions
        rec = cp.curve_from_pulse(pulse, refinement=8)
        diag = cp.area_diagnostics(rec.curve)
        worst1 = max(worst1, abs(mag.a1_norm - rec.curve.closure_residual()))
        worst2 = max(worst2, float(np.max(np.abs(mag.a2_vector - diag.r2_vector))))
    ok = worst1 < 1e-8 and worst2 < 1e-8
    _report(2, ok, f"max |A1-closure| {worst1:.2e}, max |A2-R2| {worst2:.2e} (tol 1e-8)")


def test_criterion_03_gate_extraction_without_schrodinger():
    """Geometric gate equals noise-free propagation within 1e-6 (32768 samples)."""
    worst = 0.0
    details = []
    for name in BUILTINS:
        curve = cp.builtin_curve(name, n_samples=32768)
        frenet = cp.frenet_data(curve)
        gate = cp.target_gate_from_curve(curve, frenet)
        u = cp.propagate(cp.pulses_from_curve(frenet), 0.0)
        d = cp.gate_distance(gate.unitary, u)
        details.append(f"{name} {d:.1e}")
        worst = max(worst, d)
    _report(3, worst < 1e-6, f"phase-aligned distances: {', '.join(details)} (tol 1e-6)")


def test_criterion_04_clifford_gate(builtin_curves, builtin_frenet, builtin_pulses):
    """Published Clifford gate reproduced; sweep slope 4 vs square baseline 2."""
    target = cp.axis_angle_unitary(np.array([-1.0, 1.0, 1.0]), 2 * np.pi / 3)
    gate = cp.target_gate_from_curve(
        builtin_curves["clifford_fig1"], builtin_frenet["clifford_fig1"]
    )
    dist = cp.gate_distance(gate.unitary, target)

    pulse = builtin_pulses["clifford_fig1"]
    sweep = cp.infidelity_sweep(pulse)
    baseline = cp.infidelity_sweep(
        cp.square_pulse(pulse.duration, angle=gate.angle), delta_beta=sweep.delta_beta
    )
    improvement = baseline.infidelity[0] / max(sweep.infidelity[0], 1e-300)
    ok = dist < 1e-3 and abs(sweep.slope - 4.0) < 0.3 and abs(baseline.slope - 2.0) < 0.2
    _report(
        4,
        ok,
        f"gate distance {dist:.2e} (tol 1e-3); slope {sweep.slope:.2f} (4.0+-0.3) vs "
        f"square {baseline.slope:.2f} (2.0+-0.2); small-noise improvement {improvement:.1e}x",
    )


def test_criterion_05_second_order_identity(builtin_curves, builtin_pulses):
    """Spherical loop: closure, vanishing projected areas, and sweep slope 8.

    Closure and vanishing projected areas cancel the first two error orders,
    which guarantees an infidelity exponent of at least 6.  This loop also
    cancels the third order, through its own symmetry, so the exponent is 8.

    The loop is x + iy = (sqrt2 e^{-2i lam} - 2 e^{i lam}) / 4,
    z = sqrt(sqrt2 cos 3lam + 2.5) / 2.  lam -> -lam maps (x, y, z) to
    (x, -y, z) and reverses the traversal; lam -> lam + 2pi/3 rotates the
    loop by 2pi/3 about z and keeps the traversal.

    Third order.  The mirror with reversal maps the tangent to
    T(t) -> -M T(L - t), with M = diag(1, -1, 1).  -M is a proper rotation,
    and time reversal flips the Magnus terms as Omega_k -> (-1)^(k+1) Omega_k,
    so Omega_3 -> -M Omega_3: its x and z components vanish.  The rotation is
    the same loop started L/3 later.  A start-point shift conjugates the
    error by the partial evolution, which is 1 + O(db); once A1 = A2 = 0 it
    leaves the leading term Omega_3 unchanged, so Omega_3 = R Omega_3 and the
    y component vanishes too.  Hence A3 = 0, which is asserted here as the
    premise of the exponent (geometric oracle, tol 1e-6).  The mirror alone
    does not do it: a closed Fourier loop with x, z even and y odd and no
    three-fold rotation keeps a non-zero A3 along y.

    Fourth order.  The same steps give Omega_4 -> +M Omega_4 and, as the
    leading term, Omega_4 = R Omega_4: A4 lies along the symmetry axis z and
    nothing forces it to zero.  The infidelity scales as |db^4 A4|^2, so the
    exponent is 8.  On the 4096-sample pulse the vector part of U0^dag U(db)
    grows as (db T)^4 over db T = 0.2..0.5.
    """
    curve = builtin_curves["alpha_eq12"]
    diag = cp.area_diagnostics(curve)
    closure_ok = diag.closure_residual < 1e-6
    areas_ok = bool(
        np.max(np.abs(diag.projected_areas)) < 1e-5 * curve.total_length**2
    )
    a3 = float(np.linalg.norm(third_order_vector(curve)))
    a3_ok = a3 < 1e-6

    pulse = builtin_pulses["alpha_eq12"]
    grid = np.logspace(-1.8, -0.3, 12) / pulse.duration
    sweep = cp.infidelity_sweep(pulse, delta_beta=grid)
    slope_ok = abs(sweep.slope - 8.0) < 0.4
    _report(
        5,
        closure_ok and areas_ok and a3_ok and slope_ok,
        f"closure {diag.closure_residual:.2e} (tol 1e-6, {'ok' if closure_ok else 'FAIL'}); "
        f"max |area|/L^2 {np.max(np.abs(diag.projected_areas))/curve.total_length**2:.2e} "
        f"(tol 1e-5, {'ok' if areas_ok else 'FAIL'}); "
        f"|A3| {a3:.2e} (tol 1e-6, {'ok' if a3_ok else 'FAIL: third order survives'}); "
        f"slope {sweep.slope:.2f} (required 8.0+-0.4, "
        f"{'ok' if slope_ok else 'FAIL: not the exponent 8 that A1 = A2 = A3 = 0 gives'})",
    )


def test_criterion_06_constant_torsion_construction():
    """Constant-torsion loop: closed, uniform torsion, constant-detuning export."""
    curve = cp.builtin_curve("const_torsion_gamma", n_samples=8192)
    frenet = cp.frenet_data(curve)
    closure = curve.closure_residual()
    cv = float(frenet.torsion.std() / abs(frenet.torsion.mean()))

    pulse = cp.pulses_from_curve(frenet)
    lab = cp.transform_to_lab_frame(pulse)
    detuning_spread = float(lab.omega_z.std())
    back = cp.transform_to_transverse_frame(
        lab.t, lab.omega_x, lab.omega_z, lab.phase0, lab.phase_ramp
    )
    roundtrip = float(
        max(
            np.max(np.abs(back.omega_x - pulse.omega_x)),
            np.max(np.abs(back.omega_y - pulse.omega_y)),
        )
    )
    ok = closure < 1e-6 and cv < 1e-3 and detuning_spread < 1e-3 and roundtrip < 1e-10
    _report(
        6,
        ok,
        f"closure {closure:.2e} (tol 1e-6); torsion CV {cv:.2e} (tol 1e-3); "
        f"lab detuning spread {detuning_spread:.2e}; frame roundtrip {roundtrip:.2e}",
    )


def test_criterion_07_roundtrip(builtin_curves, builtin_pulses):
    """curve -> pulse -> curve matches up to rigid motion, RMS < 1e-5 x length."""
    worst = 0.0
    for name in BUILTINS:
        c = builtin_curves[name]
        rec = cp.curve_from_pulse(builtin_pulses[name])
        _, _, rms = kabsch_align(rec.curve.points, c.points)
        worst = max(worst, rms / c.total_length)
    for seed in range(10):
        c = cp.random_fourier_loop(seed)
        rec = cp.curve_from_pulse(cp.pulses_from_curve(cp.frenet_data(c)))
        _, _, rms = kabsch_align(rec.curve.points, c.points)
        worst = max(worst, rms / c.total_length)
    _report(7, worst < 1e-5, f"worst aligned RMS / length {worst:.2e} (tol 1e-5)")


def test_criterion_08_rigid_motion_invariance():
    """Rigid motions leave the drive fields and extracted gate unchanged.

    Run at 512 samples, where rotation-equivariant truncation cancels
    exactly and only float rounding remains.  The phase-velocity check
    masks samples whose envelope is below 1e-3 of the peak: the drive
    phase carries no physical content where the drive vanishes.
    """
    rng = np.random.default_rng(2024)
    worst_omega = worst_phidot = worst_gate = 0.0
    for trial in range(3):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        if np.linalg.det(q) < 0:
            q[:, 0] *= -1
        shift = rng.normal(size=3)
        for name in BUILTINS:
            c = cp.builtin_curve(name, n_samples=512)
            c2 = c.transformed(rotation=q, translation=shift)
            p1 = cp.pulses_from_curve(cp.frenet_data(c), phi0=0.4)
            p2 = cp.pulses_from_curve(cp.frenet_data(c2), phi0=0.4)
            worst_omega = max(
                worst_omega, float(np.sqrt(np.mean((p1.omega - p2.omega) ** 2)))
            )
            level = 1e-3 * max(p1.omega.max(), p2.omega.max())
            mask = (p1.omega > level) & (p2.omega > level)
            for w in range(1, 5):
                mask[w:] &= mask[:-w]
                mask[:-w] &= mask[w:]
            pd = fd1(p1.phi - p2.phi, c.dt)
            worst_phidot = max(worst_phidot, float(np.sqrt(np.mean(pd[mask] ** 2))))
            g1 = cp.target_gate_from_curve(c, phi0=0.4)
            g2 = cp.target_gate_from_curve(c2, phi0=0.4)
            worst_gate = max(worst_gate, cp.gate_distance(g1.unitary, g2.unitary))
    ok = worst_omega < 1e-8 and worst_phidot < 1e-8 and worst_gate < 1e-8
    _report(
        8,
        ok,
        f"max RMS d(omega) {worst_omega:.1e}, d(phase velocity) {worst_phidot:.1e}, "
        f"gate distance {worst_gate:.1e} (tol 1e-8)",
    )


def test_criterion_09_convergence_certification():
    """Reported scalars converge at second order under doubling."""
    seqs = {"closure": [], "r2_z": [], "gate_distance": [], "total_twist": []}
    for n in (4096, 8192, 16384):
        c = cp.builtin_curve("alpha_eq12", n_samples=n)
        f = cp.frenet_data(c)
        d = cp.area_diagnostics(c)
        seqs["closure"].append(d.closure_residual)
        seqs["r2_z"].append(d.r2_vector[2])
        gate = cp.target_gate_from_curve(c, f)
        u = cp.propagate(cp.pulses_from_curve(f), 0.0)
        seqs["gate_distance"].append(cp.gate_distance(gate.unitary, u))
        fc = cp.frenet_data(cp.builtin_curve("clifford_fig1", n_samples=n))
        seqs["total_twist"].append(float(np.trapezoid(fc.torsion, dx=fc.dt)))

    ratios = {}
    ok = True
    for key, (v1, v2, v3) in seqs.items():
        d1, d2 = abs(v2 - v1), abs(v3 - v2)
        # second-order shrink, with a floor for deltas at rounding noise
        passed = d2 <= 0.5 * d1 + 1e-9
        ratios[key] = f"{d2 / d1:.2f}" if d1 > 1e-9 else "noise-floor"
        ok &= passed

    pulse = cp.pulses_from_curve(cp.frenet_data(cp.builtin_curve("clifford_fig1")))
    s1 = cp.infidelity_sweep(pulse)
    s2 = cp.infidelity_sweep(
        pulse,
        delta_beta=cp.default_noise_grid(pulse.duration, n_points=24),
        refinement=2 * s1.refinement,
    )
    slope_ok = abs(s1.slope - s2.slope) < 0.1
    ok &= slope_ok
    _report(
        9,
        ok,
        "delta ratios under doubling "
        + ", ".join(f"{k} {r}" for k, r in ratios.items())
        + f" (need <= 0.5); slope shift {abs(s1.slope - s2.slope):.3f} (tol 0.1)",
    )


def _run_twice(args, base):
    hashes = []
    for tag in ("a", "b"):
        out = base / tag
        rc = main(args + ["--out", str(out)])
        assert rc == 0, args
        hashes.append(
            {
                p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(out.iterdir())
            }
        )
    return hashes[0] == hashes[1]


def test_criterion_10_cli_contract(tmp_path):
    """Example commands run end to end, validate, and are byte-deterministic."""
    synth_dir = tmp_path / "clifford"
    rc = main(
        [
            "synth", "--builtin", "clifford_fig1", "--param", "q=1.6054",
            "--samples", "4096", "--out", str(synth_dir / "a"),
        ]
    )
    assert rc == 0
    pulse_file = str(synth_dir / "a" / "pulse.csv")

    curve = cp.builtin_curve("circle", n_samples=512)
    cp.save_curve_csv(curve, tmp_path / "circle.csv")
    sq = cp.square_pulse(1.0, n_samples=256)
    cp.save_pulse_csv(sq, tmp_path / "square.csv")

    checks = []
    commands = [
        ["synth", "--builtin", "circle", "--samples", "512"],
        ["synth", "--builtin", "clifford_fig1", "--param", "q=1.6054", "--samples", "1024"],
        ["synth", "--curve-file", str(tmp_path / "circle.csv"), "--samples", "512"],
        ["analyze", "--pulse-file", pulse_file],
        ["analyze", "--pulse-file", str(tmp_path / "square.csv")],
        ["sweep", "--pulse-file", pulse_file, "--target", "from-curve", "--compare", "square"],
        ["sweep", "--pulse-file", pulse_file, "--grid", "1e-3:4e-2:8"],
    ]
    for k, args in enumerate(commands):
        checks.append(_run_twice(args, tmp_path / f"cmd{k}"))

    # schema spot checks
    manifest = json.loads((tmp_path / "cmd0" / "a" / "manifest.json").read_text())
    schema_ok = {"version", "command", "config", "inputs", "outputs"} <= set(manifest)
    report = json.loads((tmp_path / "cmd4" / "a" / "report.json").read_text())
    schema_ok &= report["classification"] == "uncorrected"
    fit = json.loads((tmp_path / "cmd5" / "a" / "fit.json").read_text())
    schema_ok &= abs(fit["slope"] - 4.0) < 0.3
    ok = all(checks) and bool(schema_ok)
    _report(
        10,
        ok,
        f"{len(commands)} commands byte-deterministic: {all(checks)}; schemas valid: {bool(schema_ok)}",
    )
