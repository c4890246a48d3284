import functools
import json
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import CubicSpline, PchipInterpolator
from scipy.optimize import brentq

import curvepulse as cp
from curvepulse import curves
from curvepulse._numerics import _pchip_slopes, fd1, fd2, fd3, not_a_knot_spline, pchip
from curvepulse.curves import (
    _nearest_valid,
    _sphere_loop_and_velocity,
    _sphere_loop_point,
    save_curve_csv,
)
from curvepulse.errors import InputError

from conftest import helix_curve, kabsch_align, stadium_rows

HELIX_A, HELIX_B = 1.0, 0.5
HELIX_KAPPA = HELIX_A / (HELIX_A**2 + HELIX_B**2)  # 0.8
HELIX_TAU = HELIX_B / (HELIX_A**2 + HELIX_B**2)  # 0.4


def assert_proper_rotation(frame):
    assert np.max(np.abs(frame.T @ frame - np.eye(3))) < 1e-12
    assert np.linalg.det(frame) > 0.0


class TestStencils:
    def test_polynomial_exactness(self):
        rng = np.random.default_rng(1)
        t = np.linspace(0.0, 1.0, 40)
        p = np.polynomial.Polynomial(rng.normal(size=5))
        dx = t[1] - t[0]
        for fd, order, tol in [(fd1, 1, 1e-12), (fd2, 2, 1e-10), (fd3, 3, 1e-8)]:
            got = fd(p(t), dx)
            want = p.deriv(order)(t)
            assert np.max(np.abs(got - want)) < tol

    def test_requires_enough_samples(self):
        with pytest.raises(InputError):
            fd1(np.zeros(4), 0.1)


def _full_grid_reparameterize(sampler, span, n_samples, rel_tol=1e-9):
    """Reference: sample every dense level whole, invert with scipy's PCHIP.

    The last level's chords a, b are scaled per panel to the Richardson
    length (4 (a + b) - C) / 3, C the previous level's chord over both.
    """
    lo, hi = span
    m = max(2 * n_samples, 8192)
    prev_seg = prev_len = prev_refined = None
    while True:
        lam = np.linspace(lo, hi, m + 1)
        seg = np.linalg.norm(np.diff(sampler(lam), axis=0), axis=1)
        total = float(seg.sum())
        if prev_len is not None:
            refined = total + (total - prev_len) / 3.0
            if (
                abs(total - prev_len) <= rel_tol * total
                or (prev_refined is not None and abs(refined - prev_refined) <= rel_tol * refined)
                or 2 * m > 2**22
            ):
                break
            prev_refined = refined
        prev_seg, prev_len = seg, total
        m *= 2
    a, b = seg[0::2], seg[1::2]
    scale = (4.0 * (a + b) - prev_seg) / 3.0 / (a + b)
    s_dense = np.concatenate([[0.0], np.cumsum(np.column_stack([a * scale, b * scale]).ravel())])
    t = np.linspace(0.0, s_dense[-1], n_samples)
    out = sampler(PchipInterpolator(s_dense, lam)(t))
    return t, out - out[0]


class TestPchip:
    """The local PCHIP against scipy's global one, bit for bit."""

    @staticmethod
    def assert_matches_scipy(x, y, xq):
        assert np.array_equal(pchip(x, y, xq), PchipInterpolator(x, y)(xq))

    def test_random_increasing_data(self):
        rng = np.random.default_rng(11)
        for n in (3, 4, 7, 50, 400):
            x = np.cumsum(rng.uniform(0.01, 2.0, n))
            y = np.cumsum(rng.exponential(1.0, n))
            # queries between knots, on every knot and at both ends
            xq = np.sort(np.concatenate([rng.uniform(x[0], x[-1], 200), x, x[[0, -1]]]))
            self.assert_matches_scipy(x, y, xq)

    def test_sign_changes_and_zero_slopes(self):
        rng = np.random.default_rng(12)
        x = np.cumsum(rng.uniform(0.1, 1.0, 60))
        y = np.round(rng.normal(0.0, 2.0, 60))  # repeated values: zero secants
        y[20:25] = y[19]
        xq = np.sort(np.concatenate([np.linspace(x[0], x[-1], 999), x]))
        self.assert_matches_scipy(x, y, xq)
        # knots 19-24 each touch a zero secant of the flat run
        assert np.all(_pchip_slopes(x, y, np.arange(19, 25)) == 0.0)

    @pytest.mark.parametrize(
        "y, end_slope",
        [
            ([0.0, 1.0, 6.0, 7.0], 0.0),  # one-sided estimate against the first secant
            ([0.0, 1.0, -4.0, -3.0], 3.0),  # overshoot limited to three secants
            ([0.0, 1.0, 1.5, 1.7], 1.25),  # plain one-sided estimate
        ],
    )
    def test_end_slope_branches(self, y, end_slope):
        x = np.arange(4.0)
        y = np.asarray(y)
        assert _pchip_slopes(x, y, np.array([0]))[0] == end_slope
        # the mirrored data put the same branch at the right end
        assert _pchip_slopes(x, -y[::-1], np.array([3]))[0] == end_slope
        xq = np.linspace(0.0, 3.0, 61)
        self.assert_matches_scipy(x, y, xq)
        self.assert_matches_scipy(x, -y[::-1], xq)


class TestNotAKnotSpline:
    """The NumPy not-a-knot spline against scipy's CubicSpline."""

    @pytest.mark.parametrize("knots", ["uniform", "random"])
    @pytest.mark.parametrize("n", [8, 9, 33, 2048, 2049, 5000])
    def test_matches_scipy(self, n, knots):
        rng = np.random.default_rng(n)
        if knots == "uniform":
            x = np.linspace(-1.0, 2.0, n)
        else:
            # spacings within a factor of ten of each other: on clustered
            # knots both solves lose digits to the conditioning of the system
            x = np.cumsum(rng.uniform(0.1, 1.0, n))
            x *= 3.0 / x[-1]
        y = np.column_stack([np.sin(3.0 * x), np.cos(x) + x * x, rng.normal(size=n)])
        # every knot, one point inside every interval, both ends and half a
        # step beyond each end (the end cubics extended)
        inside = x[:-1] + rng.uniform(0.0, 1.0, n - 1) * np.diff(x)
        beyond = x[[0, -1]] + np.array([-0.5, 0.5]) * (x[1] - x[0])
        xq = np.concatenate([x, inside, x[[0, -1]], beyond])
        got = not_a_knot_spline(x, y)(xq)
        want = CubicSpline(x, y, axis=0)(xq)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(y))


class TestReparameterize:
    def test_unit_circle_circumference(self):
        c = cp.builtin_curve("circle")
        assert abs(c.total_length - 2 * np.pi) < 1e-8
        speed = np.linalg.norm(fd1(c.points, c.dt), axis=1)
        assert np.max(np.abs(speed - 1.0)) < 1e-6

    def test_quadratic_segment(self):
        # straight segment of length 3 with a non-uniform parameterization
        def sampler(lam):
            lam = np.atleast_1d(lam)
            return np.stack([3 * lam**2, np.zeros_like(lam), np.zeros_like(lam)], axis=1)

        c = cp.reparameterize_by_arclength(sampler, (0.0, 1.0), 256)
        assert abs(c.total_length - 3.0) < 1e-9
        steps = np.linalg.norm(np.diff(c.points, axis=0), axis=1)
        assert np.max(np.abs(steps - steps[0])) < 1e-9

    def test_sphere_loop_arclength_vs_quadrature(self):
        # oracle: adaptive quadrature of |alpha'(lambda)|
        want, err = quad(
            lambda lam: float(np.linalg.norm(_sphere_loop_and_velocity(lam)[1])),
            0.0,
            2 * np.pi,
            limit=200,
        )
        c = cp.builtin_curve("alpha_eq12")
        assert err < 1e-6
        assert abs(c.total_length - want) < 1e-7

    @pytest.mark.parametrize("name", curves.BUILTIN_CURVES)
    def test_points_sit_at_their_arc_length(self, name, monkeypatch):
        # oracle independent of the dense grids: adaptive quadrature of
        # |r'(lambda)| and a root find for the lambda at each output time
        seen = {}
        inner = curves.reparameterize_by_arclength

        def recording(sampler, span, *args, **kwargs):
            def recorded(lam):
                seen["lam"] = lam.copy()  # the last call samples the outputs
                return sampler(lam)

            seen["sampler"], seen["span"] = sampler, span
            return inner(recorded, span, *args, **kwargs)

        monkeypatch.setattr(curves, "reparameterize_by_arclength", recording)
        n = 4096
        curve = cp.builtin_curve(name, n_samples=n)
        sampler, (lo, hi) = seen["sampler"], seen["span"]
        if name == "const_torsion_gamma":
            velocity = curves._gamma_velocity
        else:
            def velocity(lam):  # complex step
                return np.imag(sampler(lam + 1e-30j)) / 1e-30

        def speed(lam):
            return float(np.linalg.norm(velocity(np.array([lam]))[0]))

        worst = 0.0
        for k in np.linspace(1, n - 2, 15).astype(int):
            lk = seen["lam"][k]
            sk = quad(speed, lo, lk, limit=200, epsabs=1e-15, epsrel=1e-13)[0]
            width = 1e-6 * (hi - lo)
            # midpoint rule across the sub-micro step from lk: O(width^3)
            true_lam = brentq(
                lambda x: sk + speed(0.5 * (lk + x)) * (x - lk) - curve.t[k],
                lk - width,
                lk + width,
                xtol=1e-17,
            )
            worst = max(worst, abs(lk - true_lam) * speed(lk))
        assert worst < 5e-12 * curve.total_length

    def test_sampler_calls_do_not_grow(self, monkeypatch, tmp_path):
        # dense levels plus the final resampling call, at 4096 samples: the
        # 8192-interval level once, each doubling only its new midpoints,
        # until successive Richardson totals agree at 32768 intervals
        n = 4096
        calls = []
        inner = curves.reparameterize_by_arclength

        def counting(sampler, *args, **kwargs):
            def counted(lam):
                calls.append(len(lam))
                return sampler(lam)

            return inner(counted, *args, **kwargs)

        monkeypatch.setattr(curves, "reparameterize_by_arclength", counting)
        save_curve_csv(cp.random_fourier_loop(3, n_samples=2048), tmp_path / "loop.csv")
        ceilings = {
            "circle": (4, lambda: cp.builtin_curve("circle")),
            "lemniscate": (4, lambda: cp.builtin_curve("lemniscate")),
            "clifford_fig1": (4, lambda: cp.builtin_curve("clifford_fig1")),
            "alpha_eq12": (4, lambda: cp.builtin_curve("alpha_eq12")),
            "const_torsion_gamma": (4, lambda: cp.builtin_curve("const_torsion_gamma")),
            "fourier_loop": (4, lambda: cp.random_fourier_loop(3)),
            "csv": (4, lambda: cp.load_curve(tmp_path / "loop.csv")),
        }
        for name, (ceiling, build) in ceilings.items():
            calls.clear()
            build()
            assert len(calls) <= ceiling, name
            assert calls[-1] == n, name
            assert sum(calls[:-1]) <= 8 * n + 1, name

    def test_rejects_zero_length(self):
        with pytest.raises(InputError):
            cp.reparameterize_by_arclength(
                lambda lam: np.zeros((len(np.atleast_1d(lam)), 3)), (0.0, 1.0), 64
            )

    def test_rejects_repeated_point(self):
        # a sampler that stalls repeats points, so lambda(s) has no inverse
        def sampler(lam):
            lam = np.clip(np.atleast_1d(lam), 0.25, 0.75)
            return np.stack([lam, lam**2, np.zeros_like(lam)], axis=1)

        with pytest.raises(InputError, match="repeats a point"):
            cp.reparameterize_by_arclength(sampler, (0.0, 1.0), 64)

    @pytest.mark.parametrize("name", ["clifford_fig1", "alpha_eq12", "perturbed_circle", "spline"])
    def test_matches_full_grid_reference(self, name):
        # pointwise samplers see the same dense points whether each level is
        # sampled whole or from its new midpoints, so the curve is unchanged
        if name == "clifford_fig1":
            sampler, span = functools.partial(curves._clifford, q=curves.CLIFFORD_Q), (0.0, 1.0)
        elif name == "alpha_eq12":
            sampler, span = _sphere_loop_point, (0.0, 2 * np.pi)
        elif name == "perturbed_circle":
            def sampler(lam):
                lam = np.atleast_1d(lam)
                return curves._circle(lam, radius=1.0) + 0.1 * np.sin(3 * lam)[:, None]

            span = (0.0, 2 * np.pi)
        else:  # the cubic spline load_curve fits through a file's rows
            rows = cp.random_fourier_loop(5, n_samples=512)
            sampler, span = not_a_knot_spline(rows.t, rows.points), (0.0, rows.t[-1])
        got = cp.reparameterize_by_arclength(sampler, span, 2048)
        want_t, want_points = _full_grid_reparameterize(sampler, span, 2048)
        assert np.array_equal(got.t, want_t)
        assert np.array_equal(got.points, want_points)

    def test_rejects_non_finite(self):
        def sampler(lam):
            lam = np.atleast_1d(lam)
            out = np.stack([lam, lam, lam], axis=1)
            out[0, 0] = np.nan
            return out

        with pytest.raises(InputError):
            cp.reparameterize_by_arclength(sampler, (0.0, 1.0), 64)


class TestFrenet:
    def test_circle_curvature_torsion(self, builtin_frenet):
        f = builtin_frenet["circle"]
        assert np.max(np.abs(f.curvature - 1.0)) < 1e-6
        assert np.max(np.abs(f.torsion)) < 1e-6

    def test_helix_closed_forms(self):
        f = cp.frenet_data(helix_curve())
        assert np.max(np.abs(f.curvature - HELIX_KAPPA)) < 1e-6
        assert np.max(np.abs(f.torsion - HELIX_TAU)) < 1e-6
        assert not f.any_flagged

    def test_frame_orthonormality(self, builtin_curves, builtin_frenet):
        for name, f in builtin_frenet.items():
            assert_proper_rotation(f.start)
            assert_proper_rotation(f.end)
            # the end frame starts from the tangent at the last sample
            rdot = fd1(builtin_curves[name].points, f.dt)[-1]
            assert np.max(np.abs(f.end[:, 0] - rdot / np.linalg.norm(rdot))) < 1e-12, name

    def test_constant_torsion_loop(self):
        c = cp.builtin_curve("const_torsion_gamma", n_samples=8192)
        f = cp.frenet_data(c)
        assert c.closure_residual() < 1e-6
        cv = f.torsion.std() / abs(f.torsion.mean())
        assert cv < 1e-3

    def test_straight_line_all_flagged(self):
        # no sample has a normal, so both frames take the one fallback
        # perpendicular, t x z (t x x along z); the tilted line (t.z = 0.95)
        # is where a second rule switching at |t.z| > 0.9 would differ
        t = np.linspace(0.0, 1.0, 128)
        for direction in ((0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (np.sqrt(1.0 - 0.95**2), 0.0, 0.95)):
            f = cp.frenet_data(cp.SpaceCurve(t, np.outer(t, direction), "line"))
            assert f.flagged.all()
            assert np.max(np.abs(f.torsion)) == 0.0
            # the end tangent's one-sided stencil rounds apart by at most 4e-14
            assert np.max(np.abs(f.start - f.end)) < 1e-12
            assert_proper_rotation(f.start)
            assert_proper_rotation(f.end)
            n = np.cross(direction, (1.0, 0.0, 0.0) if direction[2] == 1.0 else (0.0, 0.0, 1.0))
            assert np.max(np.abs(f.start[:, 1] - n / np.linalg.norm(n))) < 1e-12

    def test_nearest_valid_ties_go_low(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            valid = rng.random(200) < rng.uniform(0.05, 0.9)
            valid[rng.integers(200)] = True
            idx_valid = np.flatnonzero(valid)
            dist = np.abs(np.flatnonzero(~valid)[:, None] - idx_valid[None, :])
            assert np.array_equal(_nearest_valid(valid), idx_valid[np.argmin(dist, axis=1)])

    def test_long_straight_memory_is_linear(self, tmp_path):
        save_curve_csv(stadium_rows(20.0, 1.0, 4001), tmp_path / "stadium.csv")
        curve = cp.load_curve(tmp_path / "stadium.csv", n_samples=16384)
        tracemalloc.start()
        try:
            f = cp.frenet_data(curve)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # about 14k flagged against 2.4k valid samples: a pairwise distance
        # matrix between them alone would take 254 MiB
        assert np.sum(f.flagged) > 10000
        assert peak < 16 * 2**20

    def test_tangential_second_derivative_flagged(self, tmp_path):
        # on this stadium at 6000 samples one straight-run sample clears the
        # curvature floor with r'' exactly along the tangent
        save_curve_csv(stadium_rows(3.0, 0.5, 2049), tmp_path / "stadium.csv")
        f = cp.frenet_data(cp.load_curve(tmp_path / "stadium.csv", n_samples=6000))
        assert np.all(np.isfinite(f.torsion))
        assert_proper_rotation(f.start)
        assert_proper_rotation(f.end)

    def test_frenet_reconstruction(self, builtin_curves, builtin_frenet):
        # geometric core: the pulse defined by the frame data evolves back
        # into the curve, curvature zeros (lemniscate, clifford_fig1) included
        cases = [(builtin_curves[name], builtin_frenet[name]) for name in cp.BUILTIN_CURVES]
        helix = helix_curve()
        cases.append((helix, cp.frenet_data(helix)))
        for c, f in cases:
            rebuilt = cp.reconstruct_from_frenet(f)
            assert rebuilt.shape == c.points.shape
            rms = np.sqrt(np.mean(np.sum((rebuilt - c.points) ** 2, axis=1)))
            assert rms < 1e-4 * c.total_length, c.source_tag

    def test_reconstruction_follows_start_pose(self, builtin_curves):
        # a rigidly rotated and shifted curve comes back from its own frame
        # data, started at the origin in the moved start pose
        rng = np.random.default_rng(5)
        rot, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        rot *= np.sign(np.linalg.det(rot))
        c = builtin_curves["clifford_fig1"]
        moved = c.transformed(rot, [0.3, -1.2, 2.0])
        rebuilt = cp.reconstruct_from_frenet(cp.frenet_data(moved))
        err = np.max(np.linalg.norm(rebuilt - (moved.points - moved.points[0]), axis=1))
        assert err < 1e-5 * c.total_length

    def test_reconstruction_is_the_curve_of_its_pulse(self, builtin_frenet, monkeypatch):
        # the rebuild is reverse analysis' curve of the frame data's pulse,
        # read without the phase tracks, which only robustness_report reads
        f = builtin_frenet["clifford_fig1"]
        want = cp.curve_from_pulse(cp.pulses_from_curve(f)).curve.points

        def unused(*args, **kwargs):
            raise AssertionError("phase track unwrapped")

        monkeypatch.setattr(cp.simulator, "carried_unwrap", unused)
        rebuilt = cp.reconstruct_from_frenet(f)
        pose = f.start @ cp.synthesis.canonical_frame(0.0).T
        assert np.array_equal(rebuilt, want @ pose.T)


class TestAreas:
    def test_unit_circle(self):
        # the inscribed-polygon area deficit is 2 pi^3 / (3 n^2); 8192
        # samples put it safely inside the 1e-6 target
        d = cp.area_diagnostics(cp.builtin_curve("circle", n_samples=8192))
        assert d.closure_residual < 1e-8
        assert abs(d.projected_areas[2] - np.pi) < 1e-6
        assert abs(d.projected_areas[0]) < 1e-9
        assert abs(d.projected_areas[1]) < 1e-9

    def test_lemniscate_zero_net_area(self, builtin_curves):
        c = builtin_curves["lemniscate"]
        d = cp.area_diagnostics(c)
        assert np.max(np.abs(d.projected_areas)) < 1e-6 * c.total_length**2

    def test_sphere_loop_satisfies_second_order(self, builtin_curves):
        c = builtin_curves["alpha_eq12"]
        d = cp.area_diagnostics(c)
        assert d.closure_residual < 1e-6
        assert np.max(np.abs(d.projected_areas)) < 1e-5 * c.total_length**2

    def test_shoelace_matches_line_integral(self, builtin_curves):
        # 2x signed areas equal the r x rdot quadrature for closed loops
        for name in ("circle", "lemniscate", "alpha_eq12", "const_torsion_gamma"):
            c = builtin_curves[name]
            d = cp.area_diagnostics(c)
            assert (
                np.max(np.abs(d.r2_vector - 2.0 * d.projected_areas))
                < 1e-6 * c.total_length**2
            ), name

    def test_tilted_circle(self):
        rng = np.random.default_rng(6)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        if np.linalg.det(q) < 0:
            q[:, 0] *= -1
        c = cp.builtin_curve("circle", n_samples=1024).transformed(rotation=q)
        d = cp.area_diagnostics(c)
        assert np.max(np.abs(d.r2_vector - 2.0 * d.projected_areas)) < 1e-6 * c.total_length**2
        assert abs(np.linalg.norm(d.r2_vector) - 2 * np.pi) < 1e-5


class TestBuiltins:
    def test_unknown_name(self):
        with pytest.raises(InputError):
            cp.builtin_curve("klein_bottle")

    def test_unknown_param(self):
        with pytest.raises(InputError):
            cp.builtin_curve("circle", wobble=2.0)

    @pytest.mark.parametrize(
        "name, params, match",
        [
            ("circle", {"radius": 0.0}, "circle parameter 'radius' must be positive"),
            ("lemniscate", {"a": -1.0}, "lemniscate parameter 'a' must be positive"),
            ("alpha_eq12", {"q": 1.0}, r"unknown parameters for alpha_eq12: \['q'\]"),
            ("circle", {"radius": np.nan}, "circle parameter 'radius' must be finite"),
            ("lemniscate", {"a": np.inf}, "lemniscate parameter 'a' must be finite"),
            ("clifford_fig1", {"q": np.inf}, "clifford_fig1 parameter 'q' must be finite"),
            ("clifford_fig1", {"q": -np.inf}, "clifford_fig1 parameter 'q' must be finite"),
        ],
    )
    def test_parameter_rule(self, name, params, match):
        # one rule for every entry of the table: known names, finite, positive
        # where listed.  It runs before any sample is taken, so no sampler
        # warns (pyproject.toml turns a RuntimeWarning from curvepulse into
        # an error, which pytest.raises would not take for an InputError)
        with pytest.raises(InputError, match=match):
            cp.builtin_curve(name, n_samples=64, **params)

    def test_sphere_loop_start_point(self):
        # closed-form start point of the spherical loop, before translation
        want = np.array(
            [0.25 * (np.sqrt(2) - 2.0), 0.0, 0.5 * np.sqrt(np.sqrt(2) + 2.5)]
        )
        got = _sphere_loop_point(np.array([0.0]))[0]
        assert np.max(np.abs(got - want)) < 1e-15
        assert abs(np.linalg.norm(got) - 1.0) < 1e-12

    def test_clifford_endpoints_any_q(self):
        for q in (0.3, 1.6054):
            c = cp.builtin_curve("clifford_fig1", n_samples=512, q=q)
            assert np.max(np.abs(c.points[0])) == 0.0
            assert c.closure_residual() < 1e-9

    def test_gamma_closed(self, builtin_curves):
        assert builtin_curves["const_torsion_gamma"].closure_residual() < 1e-6

    def test_gamma_sampler_matches_quad(self):
        # oracle: adaptive quadrature of alpha x alpha', with alpha' taken by
        # complex step from the pointwise alpha_eq12 sampler
        def integrand(lam, c):
            alpha = _sphere_loop_point(np.array([lam + 1e-30j]))[0]
            return float(np.cross(alpha.real, alpha.imag / 1e-30)[c])

        lam = np.linspace(0.0, 2 * np.pi, 32769)
        got = curves._gamma_sampler(lam)
        for k in np.linspace(0, 32768, 9).astype(int)[1:]:
            for c in range(3):
                want, err = quad(
                    integrand, 0.0, lam[k], args=(c,), epsabs=1e-13, epsrel=1e-13, limit=200
                )
                assert err < 1e-13
                assert abs(got[k, c] - want) < 1e-12, (k, c)

    def test_gamma_integrand_three_nodes_per_lambda(self, monkeypatch):
        sampled, nodes = [], []
        sampler, integrand = curves._gamma_sampler, curves._gamma_velocity

        def counted_sampler(lam):
            sampled.append(np.size(lam))
            return sampler(lam)

        def counted_integrand(lam):
            nodes.append(lam.size)
            return integrand(lam)

        # the table holds the sampler itself, so its entry is the one patched
        entry = curves._BUILTINS["const_torsion_gamma"]
        monkeypatch.setitem(curves._BUILTINS, "const_torsion_gamma", (counted_sampler, *entry[1:]))
        monkeypatch.setattr(curves, "_gamma_velocity", counted_integrand)
        cp.builtin_curve("const_torsion_gamma", n_samples=4096)
        assert sum(sampled) > 0
        assert sum(nodes) <= 3 * sum(sampled)

    def test_unit_speed_all_builtins(self):
        # the five-point speed measurement carries an O(h^4 kappa^5) floor,
        # so the stiff curves (kappa up to ~84) need the finer grid for the
        # 1e-6 check to be about the parameterization rather than the ruler
        for name, n in [
            ("circle", 4096),
            ("lemniscate", 4096),
            ("clifford_fig1", 8192),
            ("alpha_eq12", 16384),
            ("const_torsion_gamma", 16384),
        ]:
            c = cp.builtin_curve(name, n_samples=n)
            speed = np.linalg.norm(fd1(c.points, c.dt), axis=1)
            assert np.max(np.abs(speed - 1.0)) < 1e-6, name


class TestConvergence:
    def test_quadrature_doubling(self):
        # closure, area vector, and total torsion improve at least 2nd order
        names = ("alpha_eq12", "clifford_fig1")
        for name in names:
            vals = []
            for n in (1024, 2048, 4096):
                c = cp.builtin_curve(name, n_samples=n)
                d = cp.area_diagnostics(c)
                f = cp.frenet_data(c)
                vals.append(
                    np.array(
                        [
                            d.closure_residual,
                            *d.r2_vector,
                            np.trapezoid(f.torsion, dx=c.dt),
                        ]
                    )
                )
            d1 = np.abs(vals[1] - vals[0])
            d2 = np.abs(vals[2] - vals[1])
            # second-order shrink wherever the delta is above rounding noise
            assert np.all(d2 <= 0.35 * d1 + 1e-9), name


class TestCurveIO:
    def test_csv_roundtrip(self, tmp_path, builtin_curves):
        c = builtin_curves["alpha_eq12"]
        path = tmp_path / "curve.csv"
        save_curve_csv(c, path)
        back = cp.load_curve(path)
        _, _, rms = kabsch_align(back.points, c.points)
        assert rms < 1e-6 * c.total_length

    def test_json_roundtrip(self, tmp_path):
        c = cp.builtin_curve("circle", n_samples=512)
        path = tmp_path / "curve.json"
        samples = np.column_stack([c.t, c.points]).tolist()
        path.write_text(json.dumps({"samples": samples, "source_tag": c.source_tag}))
        back = cp.load_curve(path)
        assert abs(back.total_length - c.total_length) < 1e-8

    def test_decreasing_time_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        rows = ["t,x,y,z"] + [f"{t},{t},0,0" for t in (0.0, 0.1, 0.05, 0.2, 0.3, 0.4, 0.5, 0.6)]
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(InputError, match="line 4"):
            cp.load_curve(path)

    def test_nan_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        rows = ["t,x,y,z"] + [f"{0.1*k},1,nan,0" for k in range(8)]
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(InputError, match="non-finite"):
            cp.load_curve(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c,d\n0,0,0,0\n")
        with pytest.raises(InputError, match="header"):
            cp.load_curve(path)


class TestSpaceCurveValidation:
    def test_time_grid_contract(self):
        pts = np.zeros((10, 3))
        with pytest.raises(InputError):
            cp.SpaceCurve(np.linspace(1.0, 2.0, 10), pts, "bad")
        with pytest.raises(InputError):
            cp.SpaceCurve(np.zeros(10), pts, "bad")
        # one sample has no step
        with pytest.raises(InputError):
            cp.SpaceCurve(np.zeros(1), np.zeros((1, 3)), "bad")
        # a unit circle on t ~ lambda^1.5 would give curvature 1788 to 58668
        lam = np.linspace(0.0, 1.0, 4096) ** 1.5 * 2.0 * np.pi
        circle = np.stack([np.cos(lam) - 1.0, np.sin(lam), np.zeros_like(lam)], axis=1)
        with pytest.raises(InputError):
            cp.SpaceCurve(lam, circle, "bad")

    @pytest.mark.parametrize(
        "matrix, message",
        [(2.0 * np.eye(3), "not an orthogonal"), (np.diag([1.0, 1.0, -1.0]), "not a rotation")],
        ids=["scaled", "reflection"],
    )
    def test_transformed_takes_proper_rotations_only(self, matrix, message):
        # a scaled copy is no longer unit speed: its frame data would read
        # curvature 2 on a unit circle
        circle = cp.builtin_curve("circle", n_samples=512)
        with pytest.raises(InputError, match=message):
            circle.transformed(matrix)
        c, s = np.cos(0.3), np.sin(0.3)
        turned = circle.transformed(np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]))
        assert np.max(np.abs(cp.frenet_data(turned).curvature - 1.0)) < 1e-6

    def test_random_loops_unflagged(self):
        for seed in range(10):
            c = cp.random_fourier_loop(seed, n_samples=1024)
            f = cp.frenet_data(c)
            assert not f.any_flagged, seed
            assert c.closure_residual() < 1e-8
