"""Noisy two-level evolution, gate fidelity sweeps, and Magnus error integrals.

The Hamiltonian is (omega_x/2) sx + (omega_y/2) sy + delta_beta sz with the
Cartesian drive components interpolated linearly between waveform samples;
a pulse with a nonzero detuning column is refused, not evolved without it.
Every evolution steps with one fourth-order Magnus step over the
node-sampled Hamiltonian: ``propagate`` and ``infidelity_sweep`` form the
final product (the sweep for all its noise values in one batch), and the
noise-free interaction-frame trajectory forms every prefix, so the
quadratures, not the stepping, limit the accuracy.  That one trajectory
gives the space curve and both Magnus integrals by linear quadratures.
The O(N^2) nested quadrature of the second integral
(``_accel.magnus_nested_r2``) is a test oracle; no function here runs it.
"""

from dataclasses import dataclass

import numpy as np

from . import _accel
from ._numerics import cumtrapz_end_corrected
from .errors import ConvergenceError, InputError
from .su2 import Unitary2, _distance_sq, _su2_pair
from .synthesis import PulseWaveform

MAX_REFINEMENT = 64
MAGNUS_SUBSTEP_CAP = 8192
_CONVERGENCE_TOL = 1e-8
# sweep infidelities at or below this sit in the double-precision noise
INFIDELITY_FLOOR = 1e-13
# the default sweep grid spans delta_beta * duration from _GRID_LO to _GRID_HI
_GRID_LO, _GRID_HI = 1e-3, 10 ** (-1.5)


@dataclass(frozen=True)
class PropagationCertificate:
    converged: bool
    refinement: int
    last_delta: float


@dataclass(frozen=True)
class NoiseSweepResult:
    """Quasistatic-noise sweep with its fitted log-log scaling exponent.

    target is the unitary the infidelities were measured against: the given
    target, or for target=None the sweep's own delta_beta = 0 row.
    """

    delta_beta: np.ndarray
    infidelity: np.ndarray
    slope: float
    intercept: float
    residual: float
    used: np.ndarray
    refinement: int
    converged: bool
    last_delta: float
    target: Unitary2


@dataclass(frozen=True)
class MagnusErrors:
    """First and second error integrals of the interaction-frame expansion.

    a1_vector is the Pauli vector of the first integral (the curve endpoint);
    a2_vector is the real second-order vector R2 = int r x rdot (the operator
    is -i R2.sigma); substeps counts the trajectory's nodes.
    """

    a1_vector: np.ndarray
    a2_vector: np.ndarray
    a1_norm: float
    a2_norm: float
    substeps: int


def _substep_nodes(pulse, delta_beta, refinement):
    # Pauli coefficients at the substep nodes.  The noise is constant along
    # the nodes, so hz is a column: shape (1,) for a scalar delta_beta, and
    # (B, 1), one row per noise value, for a 1-D one
    if refinement < 1:
        raise InputError("refinement must be >= 1")
    if pulse.detuning is not None and np.any(pulse.detuning != 0.0):
        raise InputError(
            "nonzero detuning column: no evolution models a z field; fold it into "
            "phi first (import_external_pulse, transform_to_transverse_frame)"
        )
    n = pulse.n_samples
    dt = pulse.dt / refinement
    total = (n - 1) * refinement + 1
    t_nodes = np.arange(total) * dt
    wx = np.interp(t_nodes, pulse.t, pulse.omega_x)
    wy = np.interp(t_nodes, pulse.t, pulse.omega_y)
    hz = np.asarray(delta_beta, dtype=float)[..., None]
    return 0.5 * wx, 0.5 * wy, hz, dt


def _evolve(pulse, delta_beta, refinement):
    # final (u1, u2) for a scalar delta_beta, or arrays of them for a 1-D one
    hx, hy, hz, dt = _substep_nodes(pulse, delta_beta, refinement)
    return _accel.su2_product(hx, hy, hz, dt)


def _largest_change(u, v):
    return float(np.sqrt(np.max(_distance_sq(u, v))))


def _infidelity(d2):
    # 1 - (|Tr|^2 + 2) / 6 with |Tr| = 2 - d2 for SU(2) pairs at squared
    # phase-aligned distance d2
    return d2 * (4.0 - d2) / 6.0


def _refined(pulse, delta_beta, refinement):
    # the one certificate rule.  A given refinement r is evaluated at r and
    # certified by its change at 2r.  With refinement=None the substep count
    # is doubled from r=1 until the largest change over all noise values is
    # below _CONVERGENCE_TOL, or MAX_REFINEMENT is reached.
    if refinement is not None:
        r = int(refinement)
        u = _evolve(pulse, delta_beta, r)
        delta = _largest_change(u, _evolve(pulse, delta_beta, 2 * r))
        return u, PropagationCertificate(delta < _CONVERGENCE_TOL, r, delta)
    r = 1
    u_prev = _evolve(pulse, delta_beta, r)
    while True:
        r *= 2
        u = _evolve(pulse, delta_beta, r)
        delta = _largest_change(u_prev, u)
        if delta < _CONVERGENCE_TOL or r >= MAX_REFINEMENT:
            return u, PropagationCertificate(delta < _CONVERGENCE_TOL, r, delta)
        u_prev = u


def propagate(pulse, delta_beta=0.0, refinement=None, certify=False):
    """Evolution operator of the noisy Hamiltonian over the full waveform.

    Each substep is one fourth-order Magnus step over the node-sampled
    Hamiltonian, exact for a constant drive and accurate to O(dt^4) for the
    linearly interpolated one.  The noise enters each step through the
    drive's shared Magnus terms, and the step exponential is a series in
    the squared step angle up to 0.5 rad per step and libm's sin and cos
    past it (``_accel.su2_product``).  With refinement=None the substep
    count per sample interval is doubled until the result moves by less
    than 1e-8 (phase-aligned), up to MAX_REFINEMENT.  certify=True returns
    (unitary, certificate); with a given refinement r the r result is
    returned, certified by its change at 2r, as in infidelity_sweep.
    """
    if not isinstance(pulse, PulseWaveform):
        raise InputError("propagate expects a PulseWaveform")
    delta_beta = float(delta_beta)
    if not np.isfinite(delta_beta):
        raise InputError(f"delta_beta must be finite, got {delta_beta}")
    if refinement is not None and not certify:
        return Unitary2(*_evolve(pulse, delta_beta, int(refinement)))
    (u1, u2), cert = _refined(pulse, delta_beta, refinement)
    u = Unitary2(u1, u2)
    return (u, cert) if certify else u


def average_gate_infidelity(actual, target):
    """1 - F with F = (|Tr(target^dag actual)|^2 + 2) / 6 for unitaries.

    Evaluated as d^2 (4 - d^2) / 6 from the squared phase-aligned distance
    d^2 of the two SU(2) pairs, so small infidelities carry no cancellation.
    """
    return float(_infidelity(_distance_sq(_su2_pair(actual), _su2_pair(target))))


def default_noise_grid(duration, n_points=12):
    """Log-spaced delta_beta grid with delta_beta * duration in [1e-3, 10**-1.5]."""
    return np.logspace(np.log10(_GRID_LO), np.log10(_GRID_HI), n_points) / duration


def infidelity_sweep(pulse, target=None, delta_beta=None, refinement=None):
    """Infidelity across a quasistatic-noise grid and its log-log slope.

    target=None measures against the pulse's own noise-free evolution, so
    the fitted exponent reflects pure noise scaling.  Points at or below
    INFIDELITY_FLOOR sit in the double-precision noise and are excluded
    from the fit.

    Every grid point and the noise-free self-target are evolved as one
    batched product, under propagate's certificate rule: with
    refinement=None the substep count is doubled on the whole batch until
    the largest phase-aligned change over all of it is below the
    convergence tolerance; a given refinement r is evaluated at r and
    certified by its change at 2r.  `converged` and `last_delta` report
    that certificate.
    """
    if delta_beta is None:
        delta_beta = default_noise_grid(pulse.duration)
    delta_beta = np.asarray(delta_beta, dtype=float)
    if delta_beta.size == 0:
        raise InputError("delta_beta grid is empty")
    if not np.all(np.isfinite(delta_beta)):
        raise InputError("delta_beta grid must be finite")
    if np.any(delta_beta <= 0):
        raise InputError("delta_beta grid must be positive")
    if delta_beta.size >= 2:
        decades = np.log10(delta_beta.max() / delta_beta.min())
        if decades < 1.49:
            raise InputError("delta_beta grid must span at least 1.5 decades")

    # one batch: the grid and the delta_beta=0 self-target; the certificate
    # covers every row
    n = delta_beta.size
    rows = np.concatenate([delta_beta, [0.0] if target is None else []])
    (u1, u2), cert = _refined(pulse, rows, refinement)

    if target is None:
        pair = (u1[-1], u2[-1])
    else:
        pair = _su2_pair(getattr(target, "unitary", target))
    infid = _infidelity(_distance_sq((u1[:n], u2[:n]), pair))
    used = infid > INFIDELITY_FLOOR
    if int(used.sum()) < 3:
        raise ConvergenceError(
            "fewer than 3 sweep points above the infidelity noise floor"
        )
    logx = np.log10(delta_beta[used])
    logy = np.log10(infid[used])
    slope, intercept = np.polyfit(logx, logy, 1)
    resid = float(np.sqrt(np.mean((np.polyval([slope, intercept], logx) - logy) ** 2)))

    return NoiseSweepResult(
        delta_beta,
        infid,
        float(slope),
        float(intercept),
        resid,
        used,
        cert.refinement,
        cert.converged,
        cert.last_delta,
        Unitary2(*pair),
    )


def interaction_tangent(u1, u2):
    """Pauli vector of U^dag sz U along a trajectory: the curve velocity."""
    vx = -2.0 * np.real(u1 * u2)
    vy = -2.0 * np.imag(u1 * u2)
    vz = np.abs(u1) ** 2 - np.abs(u2) ** 2
    return np.stack([vx, vy, vz], axis=1)


def u0_trajectory(pulse, refinement):
    """Noise-free evolution at every substep node."""
    hx, hy, hz, dt = _substep_nodes(pulse, 0.0, refinement)
    u1, u2 = _accel.su2_trajectory(hx, hy, hz, dt)
    return u1, u2, dt


def _interaction_curve(pulse, refinement=None):
    # the one noise-free evolution behind reverse analysis: (u1, u2) at every
    # substep node, the noise axis v = U0^dag sz U0 (unit speed, as every
    # node is normalized), its end-corrected running integral (the curve),
    # dt and the refinement; by default at most MAGNUS_SUBSTEP_CAP substeps
    if refinement is None:
        refinement = max(1, (MAGNUS_SUBSTEP_CAP - 1) // (pulse.n_samples - 1))
    refinement = int(refinement)
    u1, u2, dt = u0_trajectory(pulse, refinement)
    v = interaction_tangent(u1, u2)
    return u1, u2, v, cumtrapz_end_corrected(v, dt), dt, refinement


def _magnus_from(v, positions, dt):
    # A1 is the curve endpoint; A2 the single-pass quadrature of r x v on
    # the corrected prefixes, linear in the substep count
    a1 = positions[-1].copy()
    a2 = np.trapezoid(np.cross(positions, v), dx=dt, axis=0)
    return MagnusErrors(
        a1, a2, float(np.linalg.norm(a1)), float(np.linalg.norm(a2)), len(v)
    )


def magnus_errors(pulse, refinement=None, nested=False):
    """First- and second-order error integrals from the actual evolution.

    The interaction-frame axis U0^dag sz U0 is evaluated on the substep grid
    and integrated by end-corrected trapezoid rules: A1 is the endpoint of
    the resulting curve, A2 a single-pass accumulation on its prefixes.
    This is the trajectory ``curve_from_pulse`` reads, under the same
    default refinement.  nested accepts only False and its synonym "auto";
    any other value, True included, raises InputError: the O(N^2) nested
    quadrature of A2 is a test oracle, not an option.
    """
    # nested survives only for perfbench/stages.py, which passes both values
    if nested is not False and nested != "auto":
        raise InputError(f"nested must be False or 'auto', got {nested!r}")
    _, _, v, positions, dt, _ = _interaction_curve(pulse, refinement)
    return _magnus_from(v, positions, dt)


def square_pulse(duration, angle=np.pi, n_samples=256):
    """Constant-envelope pulse of the given duration and total rotation, at phase 0."""
    if duration <= 0:
        raise InputError("duration must be positive")
    t = np.linspace(0.0, duration, n_samples)
    omega = np.full(n_samples, angle / duration)
    phi = np.zeros(n_samples)
    return PulseWaveform(t, omega, phi, metadata={"shape": "square", "angle": float(angle)})
