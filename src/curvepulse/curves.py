"""Space curves: arc-length sampling, moving-frame data, area diagnostics.

Curves are stored as dense uniform arc-length samples (default 4096), so the
sample parameter t doubles as evolution time: curvature(t) is the drive
envelope and torsion(t) the drive-phase velocity of the matching pulse.
Derivatives come from five-point finite-difference stencils on the uniform
grid; convergence is certified by sample-doubling tests rather than splines.
"""

from dataclasses import dataclass

import numpy as np

from . import _accel
from ._files import read_table, write_csv
from ._numerics import (
    carried_unwrap,
    cumulative_gauss3,
    fd1,
    fd2,
    fd3,
    not_a_knot_spline,
    pchip,
)
from .errors import InputError
from .su2 import _proper_rotation

DEFAULT_SAMPLES = 4096
_MIN_SAMPLES = 64
_DENSE_FLOOR = 8192
_DENSE_CAP = 2 ** 22
# relative change of the arc length at which dense-grid doubling stops
_LENGTH_RTOL = 1e-9
# curvature below this fraction of its mean leaves the normal undefined
_CURVATURE_FLOOR_REL = 1e-8
# r'' below this fraction of its peak leaves the drive phase undefined
_PHASE_FLOOR_REL = 1e-7

SQRT2 = np.sqrt(2.0)
# random_fourier_loop: Fourier modes 2..5 on the circle, coefficient scale
_LOOP_MODES = 4
_LOOP_PERTURBATION = 0.3
CLIFFORD_Q = 1.6054  # phase parameter of the built-in Clifford-gate curve


@dataclass(frozen=True)
class SpaceCurve:
    """Uniformly sampled curve r(t) with t equal to arc length, r(0) = origin.

    t takes PulseWaveform's grid rule: at least 2 samples, starting at 0,
    with steps equal within 1e-9 of the first.
    """

    t: np.ndarray
    points: np.ndarray
    source_tag: str = "unknown"

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        pts = np.asarray(self.points, dtype=float)
        if t.ndim != 1 or t.shape[0] < 2:
            raise InputError("t must be a 1-d array of at least 2 samples")
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] != t.shape[0]:
            raise InputError("points must have shape (n, 3) matching t")
        if not np.all(np.isfinite(t)) or not np.all(np.isfinite(pts)):
            raise InputError("non-finite curve samples")
        steps = np.diff(t)
        if t[0] != 0.0 or np.any(steps <= 0):
            raise InputError("t must start at 0 and be strictly increasing")
        if np.max(np.abs(steps - steps[0])) > 1e-9 * steps[0]:
            raise InputError("t must be uniform")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "points", pts)

    @property
    def n_samples(self):
        return self.t.shape[0]

    @property
    def total_length(self):
        return float(self.t[-1])

    @property
    def dt(self):
        return float(self.t[1] - self.t[0])

    def closure_residual(self):
        return float(np.linalg.norm(self.points[-1] - self.points[0]))

    def transformed(self, rotation=None, translation=None):
        """Rigid copy: points @ rotation.T + translation, for a proper rotation."""
        pts = self.points
        if rotation is not None:
            pts = pts @ _proper_rotation(rotation).T
        if translation is not None:
            pts = pts + np.asarray(translation, dtype=float)
        return SpaceCurve(self.t.copy(), pts, self.source_tag)


@dataclass(frozen=True)
class FrenetData:
    """Curvature, torsion, end frames and drive angle of a sampled curve.

    Samples where curvature falls below the floor carry torsion continued
    from the nearest valid sample and are marked in `flagged`.  `start` and
    `end` are the frames (t, n, t x n) at the first and last sample, built
    by one rule (_frame): the sample's tangent and the normal of the nearest
    valid sample, orthonormalized.  `beta` is the unwrapped angle of r'' in
    the twist-free frame that starts at start's normal; the drive phase is
    phi0 + beta - anchor, where `anchor` is beta at the first sample of
    `reliable` (r'' above 1e-7 of its peak and the curvature noise floor).
    """

    t: np.ndarray
    curvature: np.ndarray
    torsion: np.ndarray
    flagged: np.ndarray
    start: np.ndarray
    end: np.ndarray
    beta: np.ndarray
    reliable: np.ndarray
    anchor: float
    source_tag: str = "unknown"

    @property
    def dt(self):
        return float(self.t[1] - self.t[0])

    @property
    def any_flagged(self):
        return bool(np.any(self.flagged))


@dataclass(frozen=True)
class AreaDiagnostics:
    """Closure and projected-area error-cancellation diagnostics.

    r2_vector is the quadrature of r x rdot; for a closed loop its
    components equal twice the signed projected areas (A_yz, A_zx, A_xy).
    """

    closure_residual: float
    r2_vector: np.ndarray
    projected_areas: np.ndarray


def _sampled(sampler, lam):
    """sampler(lam) as a checked (len(lam), 3) float array."""
    pts = np.asarray(sampler(lam), dtype=float)
    if pts.shape != (lam.shape[0], 3):
        raise InputError("sampler must map a lambda array to (n, 3) points")
    if not np.all(np.isfinite(pts)):
        raise InputError("sampler returned non-finite points")
    return pts


def reparameterize_by_arclength(
    sampler,
    lam_span=(0.0, 2.0 * np.pi),
    n_samples=DEFAULT_SAMPLES,
    source_tag="sampled",
):
    """Resample a parametric curve onto a uniform unit-speed grid.

    The arc length is measured on a dense uniform lambda grid of
    max(2 n_samples, 8192) intervals, doubled until the chord total, or its
    Richardson extrapolation from the last two grids, changes by less than
    _LENGTH_RTOL in relative terms.  The grids are nested (every other point
    of a doubled grid is, bit for bit, a point of the grid before it), so
    each doubling calls the sampler only on the new midpoints.  The length
    table is Richardson-extrapolated panel by panel: each pair of fine
    chords a, b spanning one chord C of the grid before gets
    R = (4 (a + b) - C) / 3, which is O(h^5) per panel and never below
    a + b, split between a and b in proportion to their lengths.  The
    points then sit O(h^4) from their true arc length.  lambda(s) is
    inverted by a monotone cubic (PCHIP) through the dense (s, lambda)
    pairs, whose slopes are formed only at the knots next to the output
    samples.  The output curve starts at the origin and has total_length
    equal to its final t value, the sum of the panel lengths.
    """
    lo, hi = float(lam_span[0]), float(lam_span[1])
    if not hi > lo:
        raise InputError("lam_span must be an increasing interval")
    if n_samples < _MIN_SAMPLES:
        raise InputError(f"n_samples must be at least {_MIN_SAMPLES}")

    m = max(2 * n_samples, _DENSE_FLOOR)
    lam = np.linspace(lo, hi, m + 1)
    pts = _sampled(sampler, lam)
    prev_seg = prev_len = prev_refined = None
    while True:
        d = np.diff(pts, axis=0)
        d *= d
        # the sum order of np.linalg.norm(axis=1), without its temporaries
        seg = np.sqrt((d[:, 0] + d[:, 1]) + d[:, 2])
        total = float(seg.sum())
        if total == 0.0:
            raise InputError("zero-length curve")
        if prev_len is not None:
            refined = total + (total - prev_len) / 3.0
            if (
                abs(total - prev_len) <= _LENGTH_RTOL * total
                or (
                    prev_refined is not None
                    and abs(refined - prev_refined) <= _LENGTH_RTOL * refined
                )
                or 2 * m > _DENSE_CAP
            ):
                break
            prev_refined = refined
        prev_seg, prev_len = seg, total
        m *= 2
        lam = np.linspace(lo, hi, m + 1)
        fine = np.empty((m + 1, 3))
        fine[0::2] = pts
        fine[1::2] = _sampled(sampler, np.ascontiguousarray(lam[1::2]))
        pts = fine

    if not np.all(seg > 0.0):
        raise InputError("sampler repeats a point: arc length is not invertible")
    pairs = seg.reshape(-1, 2)
    pair_sum = pairs[:, 0] + pairs[:, 1]
    pairs *= ((4.0 * pair_sum - prev_seg) / 3.0 / pair_sum)[:, None]
    s_dense = np.concatenate([[0.0], np.cumsum(seg)])
    length = float(s_dense[-1])
    t = np.linspace(0.0, length, n_samples)
    # monotone-cubic inversion: a piecewise-linear inverse would leave
    # O(h_dense^2) kinks that finite differences amplify into fake curvature
    lam_t = pchip(s_dense, lam, t)
    out = np.asarray(sampler(lam_t), dtype=float)
    out = out - out[0]
    return SpaceCurve(t, out, source_tag)


def _nearest_valid(valid):
    """Index of the nearest valid sample for every invalid one.

    Ties go to the lower index.  One binary search per invalid sample keeps
    long straight runs at O(n log n) time and O(n) memory.
    """
    idx_valid = np.flatnonzero(valid)
    idx_flagged = np.flatnonzero(~valid)
    above = np.searchsorted(idx_valid, idx_flagged)
    lo = idx_valid[np.maximum(above - 1, 0)]
    hi = idx_valid[np.minimum(above, idx_valid.size - 1)]
    return np.where(hi - idx_flagged < idx_flagged - lo, hi, lo)


def _frame(t, n):
    """Frame columns (t, n, t x n), with n orthonormalized against t.

    Without a normal, or where n lies along t, n is t x z, or t x x where
    t x z is shorter than 1e-6.
    """
    if n is not None:
        n = n - (n @ t) * t
    if n is None or np.linalg.norm(n) < 1e-12:
        n = np.cross(t, [0.0, 0.0, 1.0])
        if np.linalg.norm(n) < 1e-6:
            n = np.cross(t, [1.0, 0.0, 0.0])
    n = n / np.linalg.norm(n)
    return np.stack([t, n, np.cross(t, n)], axis=1)


def frenet_data(curve):
    """Curvature = |r''|, torsion, end frames and drive angle of a unit-speed curve.

    One pass of the finite-difference stencils gives curvature and torsion.
    The frames at both ends take the tangent there and the normal of the
    nearest valid sample (the first valid one for `start`, the last for
    `end`).  The angle of r'' in the twist-free frame (double-reflection
    transport; Wang, Juettler, Zheng & Liu 2008) follows from the same r'',
    once the other stencil arrays are released: the drive phase is that
    angle, so the transport runs once per curve.
    """
    pts = curve.points
    dt = curve.dt
    rdot = fd1(pts, dt)
    rddot = fd2(pts, dt)
    rdddot = fd3(pts, dt)

    tangent = rdot / np.linalg.norm(rdot, axis=1)[:, None]
    curvature = np.linalg.norm(rddot, axis=1)
    # below the relative floor, or below the rounding noise that second
    # differences amplify by 1/dt^2, the frame direction is meaningless
    coord_scale = max(float(np.max(np.linalg.norm(pts, axis=1))), 1e-300)
    noise_floor = 1e3 * np.finfo(float).eps * coord_scale / dt**2
    floor = max(_CURVATURE_FLOOR_REL * float(curvature.mean()), noise_floor)
    valid = curvature > floor

    ends = (None, None)
    if np.any(valid):
        unit = rddot[valid] / curvature[valid, None]
        # enforce exact orthogonality to the tangent (removes the tangential
        # finite-difference leakage near small curvature)
        proj = np.sum(unit * tangent[valid], axis=1)
        unit -= proj[:, None] * tangent[valid]
        across = np.linalg.norm(unit, axis=1)
        # r'' along the tangent alone (a straight run resampled at slightly
        # non-unit speed) clears the floor but leaves no normal direction
        # above the rounding of the projection itself
        keep = across > 4.0 * np.finfo(float).eps
        valid[valid] = keep
        if np.any(keep):
            # the normals of the first and last valid samples
            first_last = np.flatnonzero(keep)[[0, -1]]
            ends = unit[first_last] / across[first_last, None]
        del unit, proj, across, keep
    flagged = ~valid
    start = _frame(tangent[0], ends[0])
    end = _frame(tangent[-1], ends[-1])

    cross = np.cross(rdot, rddot)
    denom = np.sum(cross * cross, axis=1)
    torsion = np.zeros(len(pts))
    torsion[valid] = np.sum(cross[valid] * rdddot[valid], axis=1) / denom[valid]
    if np.any(valid) and np.any(flagged):
        torsion[flagged] = torsion[_nearest_valid(valid)]
    # the transport below allocates its own arrays: release these first
    del rdot, rdddot, cross, denom

    # drive angle: r'' in the twist-free frame transported from start's normal
    a, b = _accel.transport_components(pts, tangent, rddot, start[:, 1])
    mag = np.hypot(a, b)
    # the curvature's rounding-noise floor holds here too: on a straight run
    # the angle of noise-level r'' turns with the curve's pose
    reliable = mag > max(_PHASE_FLOOR_REL * float(mag.max()), noise_floor)
    beta = carried_unwrap(np.arctan2(b, a), reliable)
    idx = np.flatnonzero(reliable)
    anchor = beta[idx[0]] if idx.size else 0.0
    return FrenetData(
        curve.t,
        curvature,
        torsion,
        flagged,
        start,
        end,
        beta,
        reliable,
        anchor,
        curve.source_tag,
    )


def _shoelace(u, w):
    # signed polygon area with the loop closed back to the first vertex
    return 0.5 * float(np.sum(u * np.roll(w, -1) - np.roll(u, -1) * w))


def area_diagnostics(curve):
    """Closure residual, quadrature of r x rdot, and shoelace projected areas.

    The curve-side oracle of robustness_report's |A1|, A2 and A2/2: five-point
    stencils (at least 6 samples) and polygon sums, whose error falls as dt^2.
    """
    pts = curve.points
    dt = curve.dt
    rdot = fd1(pts, dt)
    r2 = np.trapezoid(np.cross(pts, rdot), dx=dt, axis=0)
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    areas = np.array([_shoelace(y, z), _shoelace(z, x), _shoelace(x, y)])
    return AreaDiagnostics(curve.closure_residual(), r2, areas)


# ---------------------------------------------------------------------------
# built-in curves


def _circle_sampler(radius):
    def f(lam):
        lam = np.atleast_1d(lam)
        return radius * np.stack(
            [np.cos(lam) - 1.0, np.sin(lam), np.zeros_like(lam)], axis=1
        )

    return f


def _lemniscate_sampler(a):
    # figure-eight traversed once, starting on a lobe so the two inflection
    # points stay interior (endpoints with zero curvature would leave the
    # gate extraction degenerate)
    def f(lam):
        lam = np.atleast_1d(lam)
        return np.stack(
            [-0.5 * a * np.sin(2 * lam), a * np.cos(lam), np.zeros_like(lam)], axis=1
        )

    return f


def _rot_z(q):
    c, s = np.cos(q), np.sin(q)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _clifford_sampler(q):
    rz = _rot_z(q)

    def f(lam):
        lam = np.atleast_1d(lam)
        env = SQRT2 * np.sin(np.pi * lam)
        s2 = np.sin(np.pi * lam / 2.0) ** 2
        c2 = np.cos(np.pi * lam / 2.0) ** 2
        zeros = np.zeros_like(lam)
        r1 = env[:, None] * np.stack([zeros, s2, c2], axis=1)
        r2 = (env[:, None] * np.stack([s2, c2, zeros], axis=1)) @ rz
        return (1.0 - lam)[:, None] * r1 + lam[:, None] * r2

    return f


def _sphere_loop_point(lam):
    lam = np.atleast_1d(lam)
    x = 0.25 * (SQRT2 * np.cos(2 * lam) - 2.0 * np.cos(lam))
    y = 0.25 * (-SQRT2 * np.sin(2 * lam) - 2.0 * np.sin(lam))
    z = 0.5 * np.sqrt(SQRT2 * np.cos(3 * lam) + 2.5)
    return np.stack([x, y, z], axis=1)


def _sphere_loop_and_velocity(lam):
    """Components of alpha_eq12's point and velocity from one cos/sin pair.

    cos and sin of 2 lam and 3 lam follow by angle addition, so both
    triples cost two trig calls and one square root per lam.
    """
    c1, s1 = np.cos(lam), np.sin(lam)
    c2 = c1 * c1 - s1 * s1
    s2 = 2.0 * s1 * c1
    c3 = c2 * c1 - s2 * s1
    s3 = s2 * c1 + c2 * s1
    root = np.sqrt(SQRT2 * c3 + 2.5)
    point = (0.25 * (SQRT2 * c2 - 2.0 * c1), -0.25 * (SQRT2 * s2 + 2.0 * s1), 0.5 * root)
    velocity = (0.5 * (s1 - SQRT2 * s2), -0.5 * (SQRT2 * c2 + c1), -0.75 * SQRT2 * s3 / root)
    return point, velocity


def _gamma_velocity(lam):
    """Integrand alpha x alpha' of the constant-torsion loop, shape (len(lam), 3)."""
    (x, y, z), (dx, dy, dz) = _sphere_loop_and_velocity(lam)
    return np.stack([y * dz - z * dy, z * dx - x * dz, x * dy - y * dx], axis=1)


def _gamma_sampler(lam):
    # running integral from lambda = 0: a grid that starts past 0 (the new
    # midpoints of a nested arc-length grid) gets a first panel from 0
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    if lam[0] > 0.0:
        return cumulative_gauss3(_gamma_velocity, np.concatenate([[0.0], lam]))[1:]
    return cumulative_gauss3(_gamma_velocity, lam)


BUILTIN_CURVES = ("circle", "lemniscate", "clifford_fig1", "alpha_eq12", "const_torsion_gamma")


def builtin_curve(name, n_samples=DEFAULT_SAMPLES, **params):
    """Construct one of the named curves on a uniform arc-length grid.

    circle(radius=1): one counter-clockwise loop in the xy plane.
    lemniscate(a=1): planar figure-eight traversed once.
    clifford_fig1(q=1.6054): closed loop whose endpoint tangents encode a
        two-thirds-turn rotation about (-1, 1, 1); q rotates the second
        blending arc about z.
    alpha_eq12: closed loop on the unit sphere with vanishing projected areas.
    const_torsion_gamma: closed constant-torsion loop built as the running
        integral of alpha x alpha' over alpha_eq12's loop alpha.  Every
        sampled lambda closes one panel from the lambda before it (from 0
        for the first), integrated by three-point Gauss-Legendre, whose
        O(h^7) error is at rounding level already on the coarsest dense
        arc-length grid (8192 intervals; 5e-15 against adaptive quadrature);
        alpha and alpha' share their trig values at each node.
    """

    def _reject_unknown(allowed):
        extra = set(params) - set(allowed)
        if extra:
            raise InputError(f"unknown parameters for {name}: {sorted(extra)}")

    if name == "circle":
        _reject_unknown({"radius"})
        radius = float(params.get("radius", 1.0))
        if radius <= 0:
            raise InputError("circle radius must be positive")
        return reparameterize_by_arclength(
            _circle_sampler(radius), (0.0, 2 * np.pi), n_samples, source_tag="circle"
        )
    if name == "lemniscate":
        _reject_unknown({"a"})
        a = float(params.get("a", 1.0))
        if a <= 0:
            raise InputError("lemniscate scale must be positive")
        return reparameterize_by_arclength(
            _lemniscate_sampler(a), (0.0, 2 * np.pi), n_samples, source_tag="lemniscate"
        )
    if name == "clifford_fig1":
        _reject_unknown({"q"})
        q = float(params.get("q", CLIFFORD_Q))
        return reparameterize_by_arclength(
            _clifford_sampler(q), (0.0, 1.0), n_samples, source_tag="clifford_fig1"
        )
    if name == "alpha_eq12":
        _reject_unknown(set())
        return reparameterize_by_arclength(
            _sphere_loop_point, (0.0, 2 * np.pi), n_samples, source_tag="alpha_eq12"
        )
    if name == "const_torsion_gamma":
        _reject_unknown(set())
        return reparameterize_by_arclength(
            _gamma_sampler, (0.0, 2 * np.pi), n_samples, source_tag="const_torsion_gamma"
        )
    raise InputError(f"unknown builtin curve {name!r}; choose from {BUILTIN_CURVES}")


def random_fourier_loop(seed, n_samples=DEFAULT_SAMPLES):
    """Smooth random closed curve: a circle plus decaying Fourier modes.

    The base circle keeps the curvature bounded away from zero; coefficients
    are pinned by the seed so test curves are reproducible.
    """
    rng = np.random.default_rng(seed)
    ks = np.arange(2, 2 + _LOOP_MODES)
    a = rng.normal(0.0, _LOOP_PERTURBATION, (_LOOP_MODES, 3)) / ks[:, None] ** 3
    b = rng.normal(0.0, _LOOP_PERTURBATION, (_LOOP_MODES, 3)) / ks[:, None] ** 3
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1

    def f(lam):
        lam = np.atleast_1d(lam)
        pts = np.stack([np.cos(lam) - 1.0, np.sin(lam), np.zeros_like(lam)], axis=1)
        for k, ak, bk in zip(ks, a, b):
            pts = pts + np.outer(np.cos(k * lam) - 1.0, ak) + np.outer(np.sin(k * lam), bk)
        return pts @ q.T

    return reparameterize_by_arclength(
        f, (0.0, 2 * np.pi), n_samples, source_tag=f"fourier_loop_{seed}"
    )


# ---------------------------------------------------------------------------
# curve file formats: CSV header t,x,y,z; a JSON twin is read, not written


def save_curve_csv(curve, path):
    """Write t,x,y,z rows; returns the sha256 of the bytes written."""
    return write_csv(path, "t,x,y,z", [curve.t, curve.points])


def _curve_json_rows(payload, where):
    if not isinstance(payload, dict) or not isinstance(payload.get("samples"), list):
        raise InputError(f"{where}: curve JSON must carry a 'samples' list")
    return ("t", "x", "y", "z"), payload["samples"]


def load_curve(path, n_samples=DEFAULT_SAMPLES):
    """Load a curve file (CSV or JSON) and reparameterize it by arc length.

    The rows are joined by a not-a-knot cubic spline in their own t (the
    end conditions of scipy's default CubicSpline, solved in NumPy), and
    that spline is resampled at n_samples points of uniform arc length.
    """
    return _load_curve_hashed(path, n_samples)[0]


def _load_curve_hashed(path, n_samples):
    """load_curve's curve, with the sha256 of the file bytes it parsed.

    read_table guarantees at least 8 rows with strictly increasing t, which
    not_a_knot_spline needs.
    """
    table = read_table(path, "t,x,y,z", 8, _curve_json_rows)
    tag = "file" if table.payload is None else table.payload.get("source_tag", "file")
    t_in, pts = table.data[:, 0], table.data[:, 1:]
    curve = reparameterize_by_arclength(
        not_a_knot_spline(t_in, pts), (t_in[0], t_in[-1]), n_samples, source_tag=tag
    )
    return curve, table.sha256
