#!/usr/bin/env python3
"""curvepulse pipeline benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload forward-synth --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one child process each
    python3 perfbench/run.py --short               # one checked round of every workload
    python3 perfbench/run.py --stages              # per-stage table (best of 3)
    python3 perfbench/run.py --compare A.json B.json

One closed-loop client drives the package through ``curvepulse.cli.main``
in process: it starts an operation only when the previous one has finished
and been checked.  A run attempts whole rounds of the workload's operations
until `--seconds` have passed.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the per-layer ones.
"""

import os

# one BLAS/OpenMP thread; must be set before NumPy loads
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracer import PER_LAYER_UNITS, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "peak_rss_mib": "MiB",
}

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import curvepulse; print(time.perf_counter() - t)"
)


class SetupError(Exception):
    """The package cannot be found or imported from this checkout."""


def import_package():
    """Import curvepulse from this checkout's src/ and nowhere else."""
    if not (SRC / "curvepulse" / "__init__.py").is_file():
        raise SetupError(f"no curvepulse package under {SRC}")
    sys.path.insert(0, str(SRC))
    cp = importlib.import_module("curvepulse")
    if Path(cp.__file__).resolve().parent != (SRC / "curvepulse").resolve():
        raise SetupError(f"curvepulse imported from {cp.__file__}, not from {SRC}")
    importlib.import_module("curvepulse.cli")
    return cp


def child_import_seconds():
    """Wall time of `import curvepulse` in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def environment(cp):
    accel = sys.modules["curvepulse._accel"]
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "curvepulse": cp.__version__,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "HAVE_NUMBA": bool(accel.HAVE_NUMBA),
        "USE_NUMBA": bool(accel.USE_NUMBA),
    }


def run_op(cli, tracer, op, outdir, op_id):
    """One operation: CLI call (timed) then its output check (untimed)."""
    outdir.mkdir(parents=True, exist_ok=True)
    stderr = io.StringIO()
    reason = None
    tracer.begin_op(op_id, op.name)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stderr(stderr):
            rc = cli.main([*op.argv, "--out", str(outdir)])
    except Exception as exc:  # an operation boundary: record it, keep running
        rc = None
        reason = f"exception {type(exc).__name__}"
        stderr.write(f"{type(exc).__name__}: {exc}\n")
    finally:
        latency = time.perf_counter() - start
        tracer.end_op()
    if reason is None and rc != 0:
        reason = f"exit {rc}"
    if reason is None:
        try:
            reason = op.check(outdir)
        except (OSError, ValueError, KeyError, IndexError, StopIteration) as exc:
            reason = f"check error {type(exc).__name__}"
    lines = stderr.getvalue().strip().splitlines()
    return {
        "op": op.name,
        "latency_s": latency,
        "ok": reason is None,
        "reason": reason,
        "stderr": lines[-1] if lines else "",
    }


def expected(record):
    """A failure is expected only for a known operation and its known reason."""
    return record["ok"] or workloads.KNOWN_FAILURES.get(record["op"]) == record["reason"]


@contextlib.contextmanager
def scratch_dir(label):
    """A work directory inside the benchmark's own tree, removed afterwards."""
    path = WORK / f"{label}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def run_workload(args, cp, workdir):
    cli = sys.modules["curvepulse.cli"]
    env = environment(cp)
    setup = {"import_s": [], "prepare_s": []}
    correct = True
    idle = Tracer(timed=False)  # never installed: set-up runs unhooked
    for rep in range(args.setup_reps):
        setup["import_s"].append(child_import_seconds())
        repdir = workdir / f"setup-{rep}"
        start = time.perf_counter()
        wl = workloads.build(cp, args.workload, args.seed, repdir / "inputs")
        warm = run_op(cli, idle, wl.warmup, repdir / "warmup", None)
        setup["prepare_s"].append(time.perf_counter() - start)
        correct &= expected(warm)
        if rep < args.setup_reps - 1:
            shutil.rmtree(repdir)
    setup_s = statistics.median(i + p for i, p in zip(setup["import_s"], setup["prepare_s"]))

    records = []
    tracer = Tracer(timed=bool(args.trace))
    with tracer:
        start = time.perf_counter()
        rounds = 0
        while True:
            for k, op in enumerate(wl.ops):
                op_id = len(records)
                rec = run_op(cli, tracer, op, repdir / "out" / str(k), op_id)
                rec.update(round=rounds, **tracer.op_record(op_id))
                records.append(rec)
            rounds += 1
            if time.perf_counter() - start >= args.seconds:
                break
    wall = time.perf_counter() - start

    latencies = [r["latency_s"] for r in records]
    n_ok = sum(r["ok"] for r in records)
    correct &= all(expected(r) for r in records)
    end_to_end = {
        "setup_s": setup_s,
        "ops_per_s": n_ok / sum(latencies),
        "latency_p50_s": statistics.median(latencies),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        values, units = tracer.per_layer(len(records)), PER_LAYER_UNITS
    else:
        values, units = end_to_end, E2E_UNITS
    result = {
        "correct": bool(correct),
        "attempted": len(records),
        "failed": len(records) - n_ok,
        "metrics": {k: {"value": float(values[k]), "unit": units[k]} for k in units},
    }

    print("# env " + json.dumps(env, sort_keys=True))
    print("# inputs " + json.dumps({"seed": args.seed, **wl.inputs}, sort_keys=True))
    print("# setup " + json.dumps(setup))
    print(f"# rounds {rounds} in {wall:.3f} s (client checks included)")
    if len(latencies) >= 40:
        # the highest percentile with at least ten operations beyond it
        pct = int(100 * (1 - 10 / len(latencies)))
        tail = statistics.quantiles(latencies, n=100)[pct - 1]
        print(f"# latency p{pct} {tail:.4f} s over {len(latencies)} operations")
    for line in summarize(records):
        print("# " + line)
    if args.trace:
        print("# end-to-end (traced) " + json.dumps(end_to_end, sort_keys=True))
    if args.record:
        payload = {
            "env": env,
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "inputs": wl.inputs,
            "setup": setup,
            "end_to_end": end_to_end,
            "result": result,
            "ops": records,
        }
        if args.trace:
            payload["spans"] = tracer.spans
        Path(args.record).write_text(json.dumps(payload) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


def summarize(records):
    """One line per operation name: count, median latency, failures, work."""
    by_name = {}
    for rec in records:
        by_name.setdefault(rec["op"], []).append(rec)
    for name, recs in by_name.items():
        failed = [r for r in recs if not r["ok"]]
        note = ""
        if failed:
            known = "known" if all(expected(r) for r in failed) else "UNEXPECTED"
            note = f" failed={len(failed)} ({known}: {failed[0]['reason']})"
        last = recs[-1]
        yield (
            f"{name:<30} n={len(recs):<3} p50={statistics.median(r['latency_s'] for r in recs):.4f}s"
            f" refinements={last['refinements']} su2_substeps="
            f"{last['su2_product_substeps'] + last['su2_trajectory_substeps']}{note}"
        )


def run_all(args):
    """Each workload in its own child process, so peak memory stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    exit_code = 0
    for name in workloads.WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--setup-reps", str(args.setup_reps),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        if proc.returncode != 0 or not lines:
            print(f"[{name}] exit {proc.returncode}: {proc.stderr.strip()[-500:]}", file=sys.stderr)
            combined["correct"] = False
            exit_code = 1
            continue
        result = json.loads(lines[-1])
        print(f"[{name}] correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"[{name}]   {metric:<40} {m['value']:.6g} {m['unit']}")
            combined["metrics"][f"{name}.{metric}"] = m
        if not result["correct"]:
            combined["correct"] = False
            exit_code = 1
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined))
    return exit_code


def compare(path_a, path_b):
    """Side-by-side metrics of two --record files; refuses mixed numba flags."""
    a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in (path_a, path_b))
    for flag in ("HAVE_NUMBA", "USE_NUMBA"):
        if a["env"][flag] != b["env"][flag]:
            print(
                f"error: refusing to compare: {flag} is {a['env'][flag]} in {path_a} "
                f"and {b['env'][flag]} in {path_b}",
                file=sys.stderr,
            )
            return 2
    if (a["workload"], a["trace"]) != (b["workload"], b["trace"]):
        print("error: records come from different workloads or trace modes", file=sys.stderr)
        return 2
    print(f"{'metric':<40}{'A':>14}{'B':>14}{'B/A':>9}  unit")
    for metric, ma in a["result"]["metrics"].items():
        vb = b["result"]["metrics"][metric]["value"]
        ratio = vb / ma["value"] if ma["value"] else float("nan")
        print(f"{metric:<40}{ma['value']:>14.6g}{vb:>14.6g}{ratio:>9.3f}  {ma['unit']}")
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25,
                        help="timed phase length; whole rounds, at least one (0: one round)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-reps", type=int, default=3,
                        help="set-up repetitions; setup_s is their median")
    parser.add_argument("--record", help="write the full run record (JSON) to this file")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--short", action="store_true",
                      help="one checked round of every workload (the benchmark's own test)")
    mode.add_argument("--stages", action="store_true", help="per-stage timing table")
    mode.add_argument("--compare", nargs=2, metavar=("A", "B"),
                      help="compare two --record files")
    args = parser.parse_args(argv)
    if args.setup_reps < 1 or args.seconds < 0:
        parser.error("--setup-reps must be >= 1 and --seconds >= 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.short:
        args.seconds, args.setup_reps, args.trace = 0, 1, 1
        return run_all(args)
    if args.workload == "all" and not args.stages:
        return run_all(args)
    try:
        cp = import_package()
    except (SetupError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.stages:
        import stages

        with scratch_dir("stages") as workdir:
            return stages.main(cp, environment(cp), child_import_seconds(), workdir)
    with scratch_dir(args.workload) as workdir:
        return run_workload(args, cp, workdir)


if __name__ == "__main__":
    sys.exit(main())
