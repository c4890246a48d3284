"""Reverse analysis: reconstruct the space curve behind an arbitrary pulse.

Any drive waveform defines a unit-speed curve through the running Pauli
vector of its noise axis in the interaction frame.  Closure of that curve
certifies first-order noise cancellation; vanishing projected areas certify
second order.  This is how externally optimized pulses are audited, and
how frame data rebuild their curve: through the pulse they define.
"""

from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from ._numerics import carried_unwrap as _carried_unwrap
from ._numerics import cumtrapz_end_corrected
from .curves import SpaceCurve
from .errors import InputError
from .simulator import MagnusErrors, _interaction_curve, _magnus_from
from .synthesis import (
    CLOSURE_RTOL,
    PulseWaveform,
    _polar,
    canonical_frame,
    pulses_from_curve,
    read_pulse_file,
)

_DEGEN_TOL = 1e-8
# projected areas at most this fraction of the squared length count as zero
AREA_RTOL = 1e-3


@dataclass(frozen=True)
class ReconstructionResult:
    """Curve, phase tracks and Magnus integrals of one trajectory."""

    curve: SpaceCurve
    theta: np.ndarray
    phi_angle: np.ndarray
    unit_speed_error: float
    refinement: int
    magnus: MagnusErrors


@dataclass(frozen=True)
class RobustnessReport:
    """Noise-cancellation audit of one pulse.

    predicted_slope classifies the log-log infidelity exponent that the
    cancelled error orders guarantee: 2 (uncorrected), 4 (closed curve), 6
    (closed with vanishing projected areas); the thresholds CLOSURE_RTOL and
    AREA_RTOL are relative to curve length / length squared.  It is a lower
    bound: a loop whose own symmetry cancels a further order scales faster
    (alpha_eq12 reaches 8).
    """

    closure_residual: float
    projected_areas: np.ndarray
    r2_vector: np.ndarray
    magnus_a1_norm: float
    magnus_a2_norm: float
    predicted_slope: int
    classification: str
    curve_length: float
    theta_track: np.ndarray
    reconstructed_curve: SpaceCurve

    def to_dict(self):
        return {
            "closure_residual": self.closure_residual,
            "projected_areas": self.projected_areas.tolist(),
            "r2_vector": self.r2_vector.tolist(),
            "magnus_a1_norm": self.magnus_a1_norm,
            "magnus_a2_norm": self.magnus_a2_norm,
            "predicted_slope": self.predicted_slope,
            "classification": self.classification,
            "curve_length": self.curve_length,
            "theta_final": float(self.theta_track[-1]),
            "closure_rtol": CLOSURE_RTOL,
            "area_rtol": AREA_RTOL,
            "n_samples": int(self.reconstructed_curve.n_samples),
        }


def _pulse_curve(pulse, refinement=None):
    # the pulse's interaction-frame curve on its own grid, and the
    # trajectory it was read off (see simulator._interaction_curve); callers
    # that need only the curve skip the phase tracks and Magnus integrals
    trajectory = _interaction_curve(pulse, refinement)
    _, _, _, positions, _, step = trajectory
    curve = SpaceCurve(pulse.t.copy(), positions[::step], source_tag="reconstructed")
    return curve, trajectory


def curve_from_pulse(pulse, refinement=None):
    """Integrate the noise axis of a pulse into its space curve.

    Also tracks the evolution phase angles theta(t), phi(t) continuously
    through the chart degeneracies, and carries the Magnus integrals of the
    same trajectory.  The curve is returned on the pulse's own grid; the
    default refinement is magnus_errors'.  The curve is unit speed by
    construction; unit_speed_error reports the rounding left.
    """
    if not isinstance(pulse, PulseWaveform):
        raise InputError("curve_from_pulse expects a PulseWaveform")
    curve, (u1, u2, v, positions, dt, step) = _pulse_curve(pulse, refinement)
    speed_err = float(np.max(np.abs(np.linalg.norm(v, axis=1) - 1.0)))

    # phase tracks: arg(u1) = (theta+phi)/2, arg(i u2) = (phi-theta)/2
    phi0 = float(pulse.phi[0])
    a_sum = _carried_unwrap(np.angle(u1), np.abs(u1) > _DEGEN_TOL, seed=0.0)
    a_diff = _carried_unwrap(np.angle(1j * u2), np.abs(u2) > _DEGEN_TOL, seed=phi0)
    theta = a_sum - a_diff
    phi_angle = a_sum + a_diff

    magnus = _magnus_from(v, positions, dt)
    return ReconstructionResult(
        curve, theta[::step], phi_angle[::step], speed_err, step, magnus
    )


def reconstruct_from_frenet(frenet):
    """Rebuild a curve from its frame data through the pulse it defines.

    Curvature and torsion are the envelope and phase velocity of a pulse,
    and the curve is that pulse's interaction-frame trajectory, so the
    rebuild is the curve of pulses_from_curve(frenet): the same Magnus4
    trajectory as reverse analysis, without its phase tracks and Magnus
    integrals.  That curve starts at the origin in the canonical pose
    (tangent +z, normal +y) and is turned rigidly into the pose of
    frenet.start.  Returns positions on the frame-data grid.
    """
    points = _pulse_curve(pulses_from_curve(frenet))[0].points
    return points @ (frenet.start @ canonical_frame(0.0).T).T


def robustness_report(pulse, refinement=None):
    """Assemble closure, area, and Magnus diagnostics into a classification.

    The pulse is evolved once, at `refinement` (default: magnus_errors'),
    and every number is read off that one trajectory: closure_residual is
    |A1|, r2_vector is A2, and projected_areas are A2/2, the areas of a
    curve that starts at the origin.  ``area_diagnostics`` is the
    curve-side oracle of the same integrals; the report does not run it.
    """
    rec = curve_from_pulse(pulse, refinement=refinement)
    mag = rec.magnus
    length = rec.curve.total_length

    closed = mag.a1_norm <= CLOSURE_RTOL * length
    areas = 0.5 * mag.a2_vector
    flat = bool(np.all(np.abs(areas) <= AREA_RTOL * length * length))
    if closed and flat:
        slope, label = 6, "second-order"
    elif closed:
        slope, label = 4, "first-order"
    else:
        slope, label = 2, "uncorrected"

    return RobustnessReport(
        closure_residual=mag.a1_norm,
        projected_areas=areas,
        r2_vector=mag.a2_vector,
        magnus_a1_norm=mag.a1_norm,
        magnus_a2_norm=mag.a2_norm,
        predicted_slope=slope,
        classification=label,
        curve_length=length,
        theta_track=rec.theta,
        reconstructed_curve=rec.curve,
    )


def import_external_pulse(path):
    """Load a pulse file, validate it, and normalize it for analysis.

    Non-uniform grids are resampled linearly (the worst interpolation
    deviation is recorded).  The drive becomes (omega, phi) by
    PulseWaveform's rule, minus the end-corrected running integral of a
    nonzero detuning column, so analysis always runs in the transverse
    frame.  Provenance (the hash of the bytes parsed, import timestamp) lands
    in metadata; the timestamp never enters serialized outputs.
    """
    t, wx, wy, det, meta = read_pulse_file(path)
    meta.update(
        {
            "source_file": str(path),
            "import_timestamp": datetime.now(timezone.utc).isoformat(),
        }
    )

    steps = np.diff(t)
    uniform = np.max(np.abs(steps - steps[0])) <= 1e-9 * steps[0]
    if not uniform:
        t_new = np.linspace(t[0], t[-1], len(t))
        wx_new = np.interp(t_new, t, wx)
        wy_new = np.interp(t_new, t, wy)
        det_new = np.interp(t_new, t, det) if det is not None else None
        back_x = np.interp(t, t_new, wx_new)
        back_y = np.interp(t, t_new, wy_new)
        meta["resample_max_error"] = float(
            max(np.max(np.abs(back_x - wx)), np.max(np.abs(back_y - wy)))
        )
        t, wx, wy, det = t_new, wx_new, wy_new, det_new
    if t[0] != 0.0:
        t = t - t[0]

    ramp = 0.0
    if det is not None and np.any(det != 0.0):
        ramp = cumtrapz_end_corrected(det, t[1] - t[0])
        meta["frame"] = "transverse (detuning folded)"
    omega, phi = _polar(wx, wy, ramp)
    return PulseWaveform(t, omega, phi, metadata=meta)


def synthetic_smooth_pulse(seed, duration=6.0, n_samples=2048, n_modes=4, scale=1.2):
    """Band-limited random test pulse with soft edges (zero at both ends).

    Stands in for externally optimized waveforms in tests and examples;
    entirely synthetic and pinned by the seed.
    """
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, duration, n_samples)
    window = np.sin(np.pi * t / duration) ** 2
    wx = np.zeros(n_samples)
    wy = np.zeros(n_samples)
    for k in range(1, n_modes + 1):
        ax, ay = rng.normal(0.0, scale / k, 2)
        bx, by = rng.normal(0.0, scale / k, 2)
        wx += ax * np.sin(np.pi * k * t / duration) + bx * np.cos(np.pi * k * t / duration)
        wy += ay * np.sin(np.pi * k * t / duration) + by * np.cos(np.pi * k * t / duration)
    wx *= window
    wy *= window
    omega, phi = _polar(wx, wy)
    return PulseWaveform(t, omega, phi, metadata={"synthetic": True, "seed": int(seed)})
