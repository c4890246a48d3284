"""Reverse analysis: reconstruct the space curve behind an arbitrary pulse.

Any drive waveform defines a unit-speed curve through the running Pauli
vector of its noise axis in the interaction frame.  Closure of that curve
certifies first-order noise cancellation; vanishing projected areas certify
second order.  This is how externally optimized pulses are audited, and
how frame data rebuild their curve: through the pulse they define.  Each
reads what it needs off the pulse's one trajectory record.
"""

from dataclasses import dataclass

import numpy as np

from ._numerics import cumtrapz_end_corrected, grid_fault
from .curves import SpaceCurve
from .simulator import interaction_trajectory
from .synthesis import (
    CLOSURE_RTOL,
    PulseWaveform,
    _polar,
    canonical_frame,
    pulses_from_curve,
    read_pulse_file,
)

# projected areas at most this fraction of the squared length count as zero
AREA_RTOL = 1e-3
# synthetic_smooth_pulse: duration, Fourier modes and coefficient scale
_SMOOTH_DURATION = 6.0
_SMOOTH_MODES = 4
_SMOOTH_SCALE = 1.2


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


# the reverse-analysis name of the one checked trajectory builder
curve_from_pulse = interaction_trajectory


def reconstruct_from_frenet(frenet):
    """Rebuild a curve from its frame data through the pulse it defines.

    Curvature and torsion are the envelope and phase velocity of a pulse,
    and the curve is that pulse's interaction-frame trajectory, so the
    rebuild is the curve of pulses_from_curve(frenet): the same Magnus4
    trajectory as reverse analysis, read for its curve only.  That curve
    starts at the origin in the canonical pose (tangent +z, normal +y) and
    is turned rigidly into the pose of frenet.start.  Returns positions on
    the frame-data grid.
    """
    points = interaction_trajectory(pulses_from_curve(frenet)).curve.points
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

    t is shifted to start at 0 first; a grid that then fails PulseWaveform's
    grid rule (_numerics.grid_fault) is resampled linearly onto
    np.linspace(0, T, n), with the worst deviation in resample_max_error.
    The drive becomes (omega, phi) by PulseWaveform's rule, minus the
    end-corrected running integral of a nonzero detuning column, so analysis
    always runs in the transverse frame.  Provenance lands in metadata: the
    sha256 of the bytes parsed and the source file, so two imports of one
    file carry equal metadata.
    """
    t, wx, wy, det, meta = read_pulse_file(path)
    meta["source_file"] = str(path)

    if t[0] != 0.0:
        t = t - t[0]
    if grid_fault(t) is not None:
        t_new = np.linspace(0.0, t[-1], len(t))
        wx_new = np.interp(t_new, t, wx)
        wy_new = np.interp(t_new, t, wy)
        det_new = np.interp(t_new, t, det) if det is not None else None
        back = np.interp(t, t_new, wx_new) - wx, np.interp(t, t_new, wy_new) - wy
        meta["resample_max_error"] = float(max(np.max(np.abs(b)) for b in back))
        t, wx, wy, det = t_new, wx_new, wy_new, det_new

    ramp = 0.0
    if det is not None and np.any(det != 0.0):
        ramp = cumtrapz_end_corrected(det, t[1] - t[0])
        meta["frame"] = "transverse (detuning folded)"
    omega, phi = _polar(wx, wy, ramp)
    return PulseWaveform(t, omega, phi, metadata=meta)


def synthetic_smooth_pulse(seed, n_samples=2048):
    """Band-limited random test pulse with soft edges (zero at both ends).

    Stands in for externally optimized waveforms in tests and examples;
    pinned by the seed.  Over 6 time units, modes k = 1..4 of pi k t / 6
    with normal coefficients of deviation 1.2 / k, under a sin^2 window.
    """
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, _SMOOTH_DURATION, n_samples)
    window = np.sin(np.pi * t / _SMOOTH_DURATION) ** 2
    wx = np.zeros(n_samples)
    wy = np.zeros(n_samples)
    for k in range(1, _SMOOTH_MODES + 1):
        ax, ay = rng.normal(0.0, _SMOOTH_SCALE / k, 2)
        bx, by = rng.normal(0.0, _SMOOTH_SCALE / k, 2)
        wave = np.pi * k * t / _SMOOTH_DURATION
        wx += ax * np.sin(wave) + bx * np.cos(wave)
        wy += ay * np.sin(wave) + by * np.cos(wave)
    wx *= window
    wy *= window
    omega, phi = _polar(wx, wy)
    return PulseWaveform(t, omega, phi, metadata={"synthetic": True, "seed": int(seed)})
