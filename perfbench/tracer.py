"""Layer hooks: spans and counts around curvepulse's public functions.

The hooks are installed from the benchmark's side: each named function is
replaced, in every curvepulse module that holds it, by a wrapper, so calls
from inside the package are caught as well as the benchmark's own.
`restore()` puts the originals back.  `su2` and `_numerics` are not wrapped:
their functions are too small to time without distorting the timings.

With ``timed=False`` the wrappers only count (work sizes, refinements);
the untraced end-to-end runs use that mode.  With ``timed=True`` they also
record one span per call: name, start, end, parent span and operation id.
"""

import functools
import inspect
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

# (module, function) pairs wrapped by module attribute
WRAPPED = (
    ("curves", "builtin_curve"),
    ("curves", "load_curve"),
    ("curves", "reparameterize_by_arclength"),
    ("curves", "frenet_data"),
    ("curves", "area_diagnostics"),
    ("synthesis", "drive_phase_track"),
    ("synthesis", "pulses_from_curve"),
    ("synthesis", "target_gate_from_curve"),
    ("simulator", "propagate"),
    ("simulator", "infidelity_sweep"),
    ("simulator", "magnus_errors"),
    ("analysis", "import_external_pulse"),
    ("analysis", "curve_from_pulse"),
    ("analysis", "robustness_report"),
    ("_accel", "su2_product"),
    ("_accel", "su2_trajectory"),
    ("_accel", "magnus_nested_r2"),
    ("_accel", "transport_components"),
    ("cli", "main"),
)

_MIB = 1024.0 * 1024.0

# per-layer metric -> (span name, kind); kind "s" is inclusive time, "self"
# is time minus the direct child spans
TIMES = {
    "curves.arclength_s": ("curves.reparameterize_by_arclength", "s"),
    "curves.frenet_s": ("curves.frenet_data", "s"),
    "curves.area_diagnostics_s": ("curves.area_diagnostics", "s"),
    "synthesis.pulses_s": ("synthesis.pulses_from_curve", "s"),
    "synthesis.gate_s": ("synthesis.target_gate_from_curve", "s"),
    "synthesis.phase_track_s": ("synthesis.drive_phase_track", "s"),
    "simulator.propagate_s": ("simulator.propagate", "s"),
    "simulator.sweep_s": ("simulator.infidelity_sweep", "s"),
    "simulator.magnus_s": ("simulator.magnus_errors", "s"),
    "analysis.import_s": ("analysis.import_external_pulse", "s"),
    "analysis.curve_from_pulse_s": ("analysis.curve_from_pulse", "s"),
    "analysis.report_self_s": ("analysis.robustness_report", "self"),
    "accel.su2_product_s": ("_accel.su2_product", "s"),
    "accel.su2_trajectory_s": ("_accel.su2_trajectory", "s"),
    "accel.magnus_nested_s": ("_accel.magnus_nested_r2", "s"),
    "accel.transport_s": ("_accel.transport_components", "s"),
    "cli.self_s": ("cli.main", "self"),
}

# per-layer metric -> (counter, unit); reported per operation
COUNTS = {
    "curves.arclength_calls": ("curves.reparameterize_by_arclength.calls", "calls/op"),
    "synthesis.phase_track_calls": ("synthesis.drive_phase_track.calls", "calls/op"),
    "simulator.propagate_calls": ("simulator.propagate.calls", "calls/op"),
    "simulator.propagate_unconverged": ("simulator.propagate.unconverged", "calls/op"),
    "simulator.sweep_points": ("simulator.infidelity_sweep.points", "points/op"),
    "simulator.magnus_nested_runs": ("_accel.magnus_nested_r2.calls", "runs/op"),
    "accel.su2_product_substeps": ("_accel.su2_product.substeps", "substeps/op"),
    "accel.su2_trajectory_substeps": ("_accel.su2_trajectory.substeps", "substeps/op"),
    "accel.magnus_nested_pairs": ("_accel.magnus_nested_r2.pairs", "pairs/op"),
    "accel.transport_samples": ("_accel.transport_components.samples", "samples/op"),
    # bytes moved, computed from array sizes (not measured): see README
    "accel.su2_product_bytes_computed": ("_accel.su2_product.bytes", "B/op"),
    "accel.su2_trajectory_bytes_computed": ("_accel.su2_trajectory.bytes", "B/op"),
    "accel.magnus_nested_bytes_computed": ("_accel.magnus_nested_r2.bytes", "B/op"),
    "accel.transport_bytes_computed": ("_accel.transport_components.bytes", "B/op"),
}

ALLOC_PEAK = "curves.frenet_alloc_peak_mib"

PER_LAYER_UNITS = {
    **{name: "s/op" for name in TIMES},
    **{name: unit for name, (_, unit) in COUNTS.items()},
    ALLOC_PEAK: "MiB",
}


class Tracer:
    """Wraps curvepulse's layer functions; one instance per run."""

    def __init__(self, timed):
        self.timed = timed
        self.spans = []  # [span_id, parent_id, op_id, name, start, end]
        self.op_counts = defaultdict(Counter)
        self.op_refinements = defaultdict(set)
        self.alloc_peak_mib = 0.0
        self._stack = []
        self._op = None
        self._saved = []

    # -- installation -----------------------------------------------------

    def install(self):
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "curvepulse" or name.startswith("curvepulse."))
        ]
        for mod_name, fn_name in WRAPPED:
            owner = sys.modules[f"curvepulse.{mod_name}"]
            original = getattr(owner, fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def restore(self):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- operations and spans -----------------------------------------------

    def begin_op(self, op_id, name):
        self._op = op_id
        if self.timed:
            self._push(f"op.{name}")

    def end_op(self):
        if self.timed:
            self._pop()
        self._op = None

    def _push(self, name):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([span_id, parent, self._op, name, time.perf_counter(), None])
        self._stack.append(span_id)

    def _pop(self):
        span_id = self._stack.pop()
        self.spans[span_id][5] = time.perf_counter()

    def _count(self, key, amount=1):
        self.op_counts[self._op][key] += amount

    def _wrap(self, name, fn):
        hook = getattr(self, "_hook_" + name.split(".", 1)[1], None)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._count(name + ".calls")
            if self.timed:
                self._push(name)
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(name, fn, signature.bind(*args, **kwargs))
            finally:
                if self.timed:
                    self._pop()

        return wrapper

    # -- per-function counters ----------------------------------------------

    def _hook_propagate(self, name, fn, bound):
        bound.apply_defaults()
        args = bound.arguments
        if args["refinement"] is not None:
            self.op_refinements[self._op].add(int(args["refinement"]))
            return fn(*bound.args, **bound.kwargs)
        # auto refinement: ask for the certificate (same work) to see whether
        # the doubling stopped on convergence or on the cap
        wanted = args["certify"]
        args["certify"] = True
        u, cert = fn(*bound.args, **bound.kwargs)
        self.op_refinements[self._op].add(int(cert.refinement))
        if not cert.converged:
            self._count(name + ".unconverged")
        return (u, cert) if wanted else u

    def _hook_infidelity_sweep(self, name, fn, bound):
        grid = bound.arguments.get("delta_beta")
        if grid is None:
            simulator = sys.modules["curvepulse.simulator"]
            grid = simulator.default_noise_grid(bound.arguments["pulse"].duration)
        self._count(name + ".points", len(grid))
        result = fn(*bound.args, **bound.kwargs)
        self.op_refinements[self._op].add(int(result.refinement))
        return result

    def _hook_curve_from_pulse(self, name, fn, bound):
        result = fn(*bound.args, **bound.kwargs)
        self.op_refinements[self._op].add(int(result.refinement))
        return result

    def _hook_su2_product(self, name, fn, bound):
        n = len(bound.arguments["hx"])
        self._count(name + ".substeps", n)
        self._count(name + ".bytes", 3 * 8 * n)
        return fn(*bound.args, **bound.kwargs)

    def _hook_su2_trajectory(self, name, fn, bound):
        n = len(bound.arguments["hx"])
        self._count(name + ".substeps", n - 1)
        # three float64 inputs read, two complex128 outputs written
        self._count(name + ".bytes", (3 * 8 + 2 * 16) * n)
        return fn(*bound.args, **bound.kwargs)

    def _hook_magnus_nested_r2(self, name, fn, bound):
        n = len(bound.arguments["vx"])
        self._count(name + ".pairs", n * (n - 1) // 2)
        # row i re-reads the i + 1 prefix vectors of three float64 values
        self._count(name + ".bytes", 3 * 8 * ((n - 1) * n // 2 + (n - 1)))
        return fn(*bound.args, **bound.kwargs)

    def _hook_transport_components(self, name, fn, bound):
        n = len(bound.arguments["tangent"])
        self._count(name + ".samples", n)
        # points, tangent and r'' read (3 x 3 float64), a and b written
        self._count(name + ".bytes", (9 * 8 + 2 * 8) * n)
        return fn(*bound.args, **bound.kwargs)

    def _hook_frenet_data(self, name, fn, bound):
        if not self.timed:
            return fn(*bound.args, **bound.kwargs)
        tracemalloc.start()
        try:
            return fn(*bound.args, **bound.kwargs)
        finally:
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            self.alloc_peak_mib = max(self.alloc_peak_mib, peak / _MIB)

    # -- results ----------------------------------------------------------

    def op_record(self, op_id):
        """Refinements and substep counts of one operation."""
        c = self.op_counts.get(op_id, Counter())
        return {
            "refinements": sorted(self.op_refinements.get(op_id, ())),
            "su2_product_substeps": c["_accel.su2_product.substeps"],
            "su2_trajectory_substeps": c["_accel.su2_trajectory.substeps"],
            "propagate_calls": c["simulator.propagate.calls"],
            "propagate_unconverged": c["simulator.propagate.unconverged"],
        }

    def per_layer(self, n_ops):
        """Layer metrics per operation, over everything recorded."""
        inclusive = Counter()
        child = Counter()
        for _, parent, _, name, start, end in self.spans:
            inclusive[name] += end - start
            if parent is not None:
                child[self.spans[parent][3]] += end - start
        metrics = {}
        for metric, (span, kind) in TIMES.items():
            value = inclusive[span]
            if kind == "self":
                value -= child[span]
            metrics[metric] = value / n_ops
        totals = Counter()
        for counts in self.op_counts.values():
            totals.update(counts)
        for metric, (key, _) in COUNTS.items():
            metrics[metric] = totals[key] / n_ops
        metrics[ALLOC_PEAK] = self.alloc_peak_mib
        return metrics
