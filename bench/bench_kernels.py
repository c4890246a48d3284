"""Micro-benchmark: numba kernels vs the NumPy/Python fallback paths.

Run: python bench/bench_kernels.py --substeps 8192 --repeats 5

The same kernels are selected at import time by CURVEPULSE_NO_NUMBA; here
both implementations are invoked explicitly so one run shows the speedup.
The SU(2) trajectory has one NumPy implementation and no numba twin, so
its row shows the NumPy time alone.
"""

import argparse
import time

import numpy as np

from curvepulse import _accel


def time_call(fn, *args, repeats=5):
    best = float("inf")
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best * 1000.0, out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--substeps", type=int, default=8192)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    rng = np.random.default_rng(0)
    n = args.substeps
    hx = rng.normal(scale=2.0, size=n)
    hy = rng.normal(scale=2.0, size=n)
    hz = rng.normal(scale=0.2, size=n)
    dt = 1.0 / n
    v = rng.normal(size=(min(n, 4096), 3))
    v /= np.linalg.norm(v, axis=1)[:, None]

    rows = []

    def bench(label, nb_fn, py_fn, nb_args, py_args):
        t_py, ref = time_call(py_fn, *py_args, repeats=args.repeats)
        if nb_fn is not None:
            nb_fn(*nb_args)  # warm the JIT cache before timing
            t_nb, out = time_call(nb_fn, *nb_args, repeats=args.repeats)
            rows.append((label, t_nb, t_py, t_py / max(t_nb, 1e-9)))
        else:
            rows.append((label, float("nan"), t_py, float("nan")))

    bench(
        "su2 product",
        _accel._su2_product_nb,
        _accel._su2_product_numpy,
        (hx, hy, hz, dt),
        (hx, hy, hz, dt),
    )
    bench("su2 trajectory (NumPy scan)", None, _accel.su2_trajectory, (), (hx, hy, hz, dt))
    bench(
        "nested second-order integral",
        _accel._magnus_nested_nb,
        _accel._magnus_nested_numpy,
        (np.ascontiguousarray(v[:, 0]), np.ascontiguousarray(v[:, 1]), np.ascontiguousarray(v[:, 2]), dt),
        (v[:, 0], v[:, 1], v[:, 2], dt),
    )

    print(f"numba available: {_accel.HAVE_NUMBA}; dispatch uses numba: {_accel.USE_NUMBA}")
    print(f"{'kernel':<32}{'numba ms':>10}{'fallback ms':>13}{'speedup':>9}")
    for label, t_nb, t_py, ratio in rows:
        print(f"{label:<32}{t_nb:>10.3f}{t_py:>13.3f}{ratio:>8.1f}x")


if __name__ == "__main__":
    main()
