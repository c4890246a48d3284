"""Forward synthesis: curve geometry to drive fields and target gates.

The drive envelope equals the curvature and the drive-phase velocity equals
the torsion of a unit-speed curve.  The implemented gate is read off the
endpoint tangent, the accumulated torsion, and a continuously unwrapped
endpoint phase, without ever integrating the Schrodinger equation.

Orientation convention: an evolution starting from the identity always has
initial tangent +z and initial normal (-sin(phi0), cos(phi0), 0), where
phi0 is the initial drive phase (default 0).  Gate extraction first moves
the curve rigidly into that pose, which is why rigid motions of the curve
never change the result.
"""

from dataclasses import dataclass, field

import numpy as np

from ._files import read_table, write_csv, write_json
from ._numerics import carried_unwrap, cumtrapz_end_corrected, fd1, fd2, grid_fault
from .curves import frenet_data
from .errors import InputError, NoSolutionError
from .su2 import (
    Unitary2,
    gate_distance,
    unitary_axis_angle,
    unitary_from_angles,
    unitary_from_rotation,
)

_POLE_TOL = 1e-7
# a curve is closed when its end gap is at most this fraction of its length
CLOSURE_RTOL = 1e-3
# drive samples with an envelope at most this fraction of its peak carry no phase
_ENVELOPE_FLOOR = 1e-12
_Z = np.array([0.0, 0.0, 1.0])


@dataclass(frozen=True)
class PulseWaveform:
    """Drive fields on a uniform time grid: envelope omega >= 0, phase phi.

    t follows the one grid rule (_numerics.grid_fault): at least 2 finite
    samples from 0, in steps equal to the first within 1e-9 of it; import
    shifts a file's t to 0 and resamples it if the rule turns it down.

    Cartesian drive samples become (omega, phi) by one rule (_polar): the
    hypot envelope, and a phase held where the envelope is at most 1e-12 of
    its peak, minus the end-corrected ramp of a z field if there is one.
    The optional detuning column carries a lab-frame export's z field,
    which evolutions refuse; metadata records provenance and phi0.
    """

    t: np.ndarray
    omega: np.ndarray
    phi: np.ndarray
    detuning: np.ndarray = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        om = np.asarray(self.omega, dtype=float)
        ph = np.asarray(self.phi, dtype=float)
        if om.shape != t.shape or ph.shape != t.shape:
            raise InputError("t, omega, phi must be arrays of equal length")
        fault = grid_fault(t)
        if fault is not None:
            raise InputError(fault)
        if not (np.all(np.isfinite(om)) and np.all(np.isfinite(ph))):
            raise InputError("non-finite waveform values")
        if np.any(om < 0):
            raise InputError("omega must be non-negative (signs live in phi)")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "omega", om)
        object.__setattr__(self, "phi", ph)
        if self.detuning is not None:
            det = np.asarray(self.detuning, dtype=float)
            if det.shape != t.shape or not np.all(np.isfinite(det)):
                raise InputError("detuning must match the time grid and be finite")
            object.__setattr__(self, "detuning", det)

    @property
    def n_samples(self):
        return self.t.shape[0]

    @property
    def duration(self):
        return float(self.t[-1])

    @property
    def dt(self):
        return float(self.t[1] - self.t[0])

    @property
    def omega_x(self):
        return self.omega * np.cos(self.phi)

    @property
    def omega_y(self):
        return self.omega * np.sin(self.phi)


def _polar(wx, wy, ramp=0.0, turns=1):
    # envelope and drive phase of Cartesian drive samples, minus a ramp; the
    # phase is held across envelopes at most _ENVELOPE_FLOOR of the peak.
    # turns=2 unwraps twice the angle and halves it: a phase modulo pi
    omega = np.hypot(wx, wy)
    ok = omega > _ENVELOPE_FLOOR * max(float(omega.max()), 1e-300)
    phi = carried_unwrap(turns * np.arctan2(wy, wx), ok) / turns
    return omega, phi - ramp


@dataclass(frozen=True)
class LabFramePulse:
    """Single-axis drive plus z-axis field equivalent to a transverse pulse.

    omega_x is signed; phase0 is the initial drive-phase offset and
    phase_ramp the accumulated z-frame angle (its derivative is omega_z).
    """

    t: np.ndarray
    omega_x: np.ndarray
    omega_z: np.ndarray
    phase0: float
    phase_ramp: np.ndarray

    def to_waveform(self):
        """The drive as samples: along phase0, flipped by pi where omega_x < 0.

        Keeping phase0 in phi keeps it in the written columns, so an
        imported lab CSV starts at the drive's own phase.
        """
        omega = np.abs(self.omega_x)
        phi = self.phase0 + np.where(self.omega_x < 0, np.pi, 0.0)
        return PulseWaveform(
            self.t,
            omega,
            phi,
            detuning=self.omega_z,
            metadata={"frame": "lab", "phase0": float(self.phase0)},
        )


@dataclass(frozen=True)
class TargetGate:
    """Implemented gate with its rotation axis/angle and final phase angle."""

    unitary: Unitary2
    axis: np.ndarray
    angle: float
    phase_theta_final: float
    closed: bool
    flags: tuple = ()


def _resolve_phi0(phi0):
    return 0.0 if phi0 is None else float(phi0)


def canonical_frame(phi0):
    """Columns of the start frame of every evolution: +z, its normal, binormal."""
    e1 = np.array([-np.sin(phi0), np.cos(phi0), 0.0])
    return np.stack([_Z, e1, np.cross(_Z, e1)], axis=1)


def canonicalize_curve(curve, frenet, phi0):
    """Rigidly move a curve so tangent(0) = +z and normal(0) matches phi0.

    Returns (points, rotation); curvature/torsion are untouched by
    construction, so the synthesized pulse is identical.
    """
    rot = canonical_frame(phi0) @ frenet.start.T
    pts = (curve.points - curve.points[0]) @ rot.T
    return pts, rot


def drive_phase_track(frenet, phi0_val):
    """Accumulated drive phase phi(t) = phi0 + running torsion integral.

    Read off the frame data: the angle of r'' in a twist-free
    (parallel-transported) frame, which equals the torsion integral but
    stays exact across curvature zeros, where the plain quadrature misses
    the pi flip of the frame.  Returns (phi, reliable_mask).
    """
    return phi0_val + frenet.beta - frenet.anchor, frenet.reliable


def pulses_from_curve(frenet, phi0=None):
    """Drive fields from frame data: omega = curvature, phi = phi0 + int(torsion).

    The phase integral is carried by the twist-free frame (see
    drive_phase_track), so envelope zero crossings contribute their pi
    flips instead of being lost to quadrature.
    """
    phi0_val = _resolve_phi0(phi0)
    omega = frenet.curvature.copy()
    phi, reliable = drive_phase_track(frenet, phi0_val)
    warnings = []
    if frenet.any_flagged:
        warnings.append(
            f"{int(np.sum(frenet.flagged))} samples below the curvature floor; "
            "torsion continued from neighbors"
        )
    if not np.all(reliable):
        warnings.append(
            f"{int(np.sum(~reliable))} samples with negligible envelope; "
            "phase bridged across them"
        )
    meta = {"source_tag": frenet.source_tag, "phi0": phi0_val, "warnings": warnings}
    return PulseWaveform(frenet.t, omega, phi, metadata=meta)


def _endpoint_phase_delta(points, dt, final_tz):
    """Continuously unwrapped endpoint difference of the binormal-phase angle.

    The angle is arg(-i*x''*y' + i*x'*y'' + z'') along the canonical curve.
    Its limits at the ends are pinned by the tangent: exactly pi at the
    start (tangent +z with growing polar angle), and at a pole-tangent
    finish an even (+z) or odd (-z) multiple of pi, so the endpoint value
    is snapped to the known parity.  Unreliable samples (|W| tiny) are
    bridged by nearest-branch unwrapping.
    """
    rdot = fd1(points, dt)
    rddot = fd2(points, dt)
    w = (
        -1j * rddot[:, 0] * rdot[:, 1]
        + 1j * rdot[:, 0] * rddot[:, 1]
        + rddot[:, 2]
    )
    mag = np.abs(w)
    wmax = max(float(mag.max()), 1e-300)
    valid = mag >= _POLE_TOL * wmax
    # the start is always a pole departure; the one-sided stencil rows there
    # carry noise, so force them out of the unwrap
    head = min(2, len(valid))
    valid[:head] &= mag[:head] >= 1e-4 * wmax
    final_pole = abs(final_tz) > 1.0 - 1e-9
    if final_pole:
        tail = min(2, len(valid))
        valid[-tail:] &= mag[-tail:] >= 1e-4 * wmax
    idx = np.flatnonzero(valid)
    if idx.size < 2:
        # effectively planar through the pole axis; no phase winding resolvable
        return 0.0, ("endpoint_phase_unresolved",)
    n = points.shape[0]
    tv = idx * dt
    ph = np.unwrap(np.angle(w[idx]))
    # anchor the t->0 limit at exactly pi
    slope0 = (ph[1] - ph[0]) / (tv[1] - tv[0])
    ph0_est = ph[0] - slope0 * tv[0]
    ph += 2.0 * np.pi * np.round((np.pi - ph0_est) / (2.0 * np.pi))
    flags = ()
    if valid[-1] and not final_pole:
        ph_end = ph[-1]
    else:
        slope1 = (ph[-1] - ph[-2]) / (tv[-1] - tv[-2])
        ph_est = ph[-1] + slope1 * ((n - 1) * dt - tv[-1])
        if final_pole and final_tz > 0:
            ph_end = 2.0 * np.pi * np.round(ph_est / (2.0 * np.pi))
        elif final_pole:
            ph_end = 2.0 * np.pi * np.round((ph_est - np.pi) / (2.0 * np.pi)) + np.pi
        else:
            ph_end = ph_est
        flags = ("endpoint_phase_snapped",)
    return float(ph_end - np.pi), flags


def target_gate_from_curve(curve, frenet=None, phi0=None):
    """Implemented gate of a curve's pulse, from endpoint geometry alone.

    chi comes from the final tangent's polar angle, phi from its azimuth
    (or from the final normal at a pole), and theta from the accumulated
    torsion plus the unwrapped endpoint phase term.
    """
    if frenet is None:
        frenet = frenet_data(curve)
    phi0_val = _resolve_phi0(phi0)
    points, rot = canonicalize_curve(curve, frenet, phi0_val)
    dt = curve.dt
    flags = []
    if frenet.flagged[0]:
        flags.append("degenerate_initial_normal")

    closed = curve.closure_residual() <= CLOSURE_RTOL * curve.total_length
    if not closed:
        flags.append("non_robust_open_curve")

    tangent_end = rot @ frenet.end[:, 0]
    tz = np.clip(tangent_end[2], -1.0, 1.0)
    chi_end = float(np.arccos(tz))
    sin_chi = np.hypot(tangent_end[0], tangent_end[1])
    if sin_chi > _POLE_TOL:
        phi_end = float(np.arctan2(-tangent_end[0], tangent_end[1]))
    else:
        flags.append("degenerate_final_tangent")
        if frenet.flagged[-1]:
            # the normal was carried from the nearest valid sample
            flags.append("degenerate_final_normal")
        n_end = rot @ frenet.end[:, 1]
        phi_end = float(np.arctan2(n_end[0], -n_end[1]))

    phi_track, _ = drive_phase_track(frenet, phi0_val)
    total_torsion = float(phi_track[-1] - phi0_val)
    delta_arg, arg_flags = _endpoint_phase_delta(points, dt, float(tz))
    flags.extend(arg_flags)
    theta_end = -phi0_val - total_torsion - delta_arg

    unitary = unitary_from_angles(chi_end, phi_end, theta_end)
    axis, angle = unitary_axis_angle(unitary)
    return TargetGate(unitary, axis, angle, float(theta_end), closed, tuple(flags))


def gate_from_frame(frenet, phi0=None):
    """Cross-check gate assembly from the start and end frames (rotation lift).

    The lifted rotation takes the canonical frame at the final drive phase
    to `frenet.end`, seen in the pose where `frenet.start` is the canonical
    frame at phi0.  Independent of the endpoint-phase unwrapping; agrees
    with target_gate_from_curve up to global phase for well-posed curves.
    """
    phi0_val = _resolve_phi0(phi0)
    phi_end = float(drive_phase_track(frenet, phi0_val)[0][-1])
    rot = canonical_frame(phi0_val) @ frenet.start.T
    return unitary_from_rotation(rot @ frenet.end @ canonical_frame(phi_end).T)


def transform_to_transverse_frame(t, omega_x, omega_z, phase0=0.0, phase_ramp=None):
    """Rotate a (x-drive + z-field) Hamiltonian into the transverse form.

    The z field is absorbed into the frame: omega = |omega_x| and phi =
    phase0 - lambda, plus pi where omega_x < 0 and held where omega_x is at
    most 1e-12 of its peak (PulseWaveform's rule).  lambda is phase_ramp,
    or else the end-corrected running integral of omega_z, as on import.
    """
    t = np.asarray(t, dtype=float)
    omega_x = np.asarray(omega_x, dtype=float)
    omega_z = np.asarray(omega_z, dtype=float)
    if omega_x.shape != t.shape or omega_z.shape != t.shape:
        raise InputError("waveforms must share one time grid")
    lam = cumtrapz_end_corrected(omega_z, t[1] - t[0]) if phase_ramp is None else phase_ramp
    lam = np.asarray(lam, dtype=float)
    if lam.shape != t.shape:
        raise InputError("phase_ramp must match the time grid")
    omega, phi = _polar(omega_x, np.zeros_like(omega_x), lam - phase0)
    return PulseWaveform(t, omega, phi, metadata={"frame": "transverse", "phase0": float(phase0)})


def transform_to_lab_frame(pulse):
    """Signed-envelope export: drive along one axis plus a z field.

    Extracts a continuous drive angle xi(t) (unwrapped modulo pi so the
    envelope may change sign smoothly) and returns omega_x = signed
    envelope, omega_z = -d(xi)/dt, with the exact ramp kept for roundtrips.
    """
    wx = pulse.omega_x
    wy = pulse.omega_y
    _, xi = _polar(wx, wy, turns=2)
    signed = wx * np.cos(xi) + wy * np.sin(xi)
    omega_z = -fd1(xi, pulse.dt)
    return LabFramePulse(pulse.t, signed, omega_z, float(xi[0]), float(xi[0]) - xi)


@dataclass(frozen=True)
class PhaseSolveResult:
    param: float
    distance: float
    flat: bool
    scan_params: np.ndarray
    scan_distances: np.ndarray


def solve_target_phase(
    curve_family,
    target,
    param_range,
    tol=1e-6,
    n_scan=33,
    phi0=None,
    flat_tol=1e-6,
):
    """Locate the family parameter whose gate matches the target.

    Scans the range, then shrinks a bracket around the best sample until the
    parameter is pinned to `tol`.  A landscape flat to within `flat_tol` is
    reported as such instead of pretending a root was found.
    """
    target_m = target.unitary if isinstance(target, TargetGate) else target

    def dist(p):
        gate = target_gate_from_curve(curve_family(p))
        return gate_distance(gate.unitary, target_m)

    lo, hi = float(param_range[0]), float(param_range[1])
    ps = np.linspace(lo, hi, n_scan)
    ds = np.array([dist(p) for p in ps])
    if float(ds.max() - ds.min()) < flat_tol:
        k = int(np.argmin(ds))
        return PhaseSolveResult(float(ps[k]), float(ds[k]), True, ps, ds)
    k = int(np.argmin(ds))
    if k == 0 or k == n_scan - 1:
        raise NoSolutionError(
            "no interior bracket for the gate-distance minimum in the given range",
            params=ps,
            distances=ds,
        )
    a, b = ps[k - 1], ps[k + 1]
    # golden-section shrink of the bracketed minimum
    gr = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - gr * (b - a)
    d = a + gr * (b - a)
    fc, fd_ = dist(c), dist(d)
    while (b - a) > tol:
        if fc < fd_:
            b, d, fd_ = d, c, fc
            c = b - gr * (b - a)
            fc = dist(c)
        else:
            a, c, fc = c, d, fd_
            d = a + gr * (b - a)
            fd_ = dist(d)
    p_best = 0.5 * (a + b)
    return PhaseSolveResult(float(p_best), float(dist(p_best)), False, ps, ds)


# ---------------------------------------------------------------------------
# pulse file formats: CSV header t,omega_x,omega_y[,detuning] and a JSON twin


def save_pulse_csv(pulse, path):
    """Write the Cartesian drive columns; returns the sha256 of the bytes written."""
    cols = [pulse.t, pulse.omega_x, pulse.omega_y]
    header = "t,omega_x,omega_y"
    if pulse.detuning is not None:
        cols.append(pulse.detuning)
        header += ",detuning"
    return write_csv(path, header, cols)


def save_pulse_json(pulse, path):
    """Write omega, phi, detuning and metadata; returns the sha256 of the bytes written."""
    payload = {
        "t": pulse.t,
        "omega": pulse.omega,
        "phi": pulse.phi,
        "detuning": pulse.detuning,
        "metadata": {k: v for k, v in pulse.metadata.items() if k != "import_timestamp"},
    }
    return write_json(path, payload)


def _pulse_json_rows(payload, where):
    try:
        cols = [payload["t"], payload["omega"], payload["phi"]]
        header = ("t", "omega", "phi")
        if payload.get("detuning") is not None:
            cols.append(payload["detuning"])
            header += ("detuning",)
        # columns of unequal length give short rows, which the reader rejects
        n = max(map(len, cols))
    except (KeyError, TypeError) as exc:
        raise InputError(f"{where}: malformed pulse JSON: {exc}") from exc
    return header, [[c[i] for c in cols if i < len(c)] for i in range(n)]


def read_pulse_file(path):
    """Parse the shared pulse format; returns arrays without resampling.

    Errors carry line numbers (sample numbers for JSON); t must be strictly
    increasing and all values finite.  meta["sha256"] is the digest of the
    bytes that were parsed.  A JSON twin gives the values of its CSV bit for
    bit, except a -0.0 phase (written -0), which comes back as +0.0.
    """
    table = read_table(path, "t,omega_x,omega_y[,detuning]", 2, _pulse_json_rows)
    t, a, b = table.data.T[:3]
    det = table.data[:, 3] if table.data.shape[1] == 4 else None
    if table.payload is None:
        wx, wy = a, b
        meta = {}
    else:
        wx = a * np.cos(b)
        wy = a * np.sin(b)
        meta = dict(table.payload.get("metadata", {}))
    meta["sha256"] = table.sha256
    return t, wx, wy, det, meta
