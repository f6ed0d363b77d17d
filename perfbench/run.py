#!/usr/bin/env python3
"""opkern benchmark: run one workload and print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload python_bound --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py --workload gp_paths --seed 1 --seconds 38 --trace 1
    python3 perfbench/run.py --workload wide_blocks --smoke --seconds 1

Load model: a closed loop in one process and one client thread.  Each
operation (one pass over the workload's task list, see ``workloads.py``)
starts when the previous one ends.  With ``--trace 0`` the run prints the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
operations and prints the per-layer metrics of the traced ones (medians over
operations) plus the tracing overhead.  The last stdout line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

The program is imported from ``src/`` of the checkout; the run exits with
code 2, printing no result, when it is missing.  Outputs, the run record
and the spans go to ``.perfbench_out/<workload>/``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".perfbench_out"

# BLAS threads of this process (and of the set-up samples), pinned before
# numpy loads.  One thread: on a 2-core machine shared with other work, a
# second OpenBLAS thread made the full-matrix decompositions several times
# slower whenever the other core was busy, and their times unsteady.
BLAS_THREADS = 1
# glibc's mallopt parameter number and the threshold it is pinned to.
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 1 << 20
MALLOC_PINNED = None
# Set-up is short and noisy; its metric is the median of this many fresh
# processes, one before the timed loop and the rest spread over it (between
# operations, outside their timing), so that they meet the host in the same
# mix of fast and slow phases as the operations do.
SETUP_SAMPLES = 8
# Operations the timed loop runs even when they overrun --seconds; with
# --trace 1 the operations alternate untraced and traced.
MIN_OPS = 2

END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=38.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, finishes in seconds")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def pin_malloc() -> int | None:
    """Fix glibc's mmap threshold, so that large arrays are always mapped
    and unmapped.  Left dynamic, the threshold follows the sizes freed so
    far, and the peak resident set of the same run moved between two values
    about 7% apart with the seed and even the size of the environment.
    Returns the threshold, or None where the C library has no mallopt."""
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return None
    return MMAP_THRESHOLD if mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1 else None


def import_program():
    """Pin BLAS threads and the malloc threshold, then import opkern from
    this checkout's src/."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    global MALLOC_PINNED
    MALLOC_PINNED = pin_malloc()
    src = ROOT / "src"
    if not (src / "opkern" / "__init__.py").is_file():
        raise ImportError(f"no opkern package under {src}")
    sys.path.insert(0, str(src))
    import opkern

    if Path(opkern.__file__).resolve().parent != src / "opkern":
        raise ImportError(f"opkern imported from {opkern.__file__}, not {src}")
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    return workloads


def measure_setup(args, count: int) -> list[float]:
    """Seconds from process start to ready, for fresh set-up processes:
    interpreter start, imports of numpy and opkern, spec parsing and input
    generation."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    samples = []
    for _ in range(count):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up process exited {code}")
        samples.append(ready - start)
    return samples


def run_op(workload, tracer, op_id):
    """One operation: time each task, check its output outside the timed
    region.  Returns (timed seconds, error text or None)."""
    elapsed = 0.0
    for name, task in workload.tasks():
        try:
            if tracer is None:
                start = time.perf_counter()
                check = task()
                elapsed += time.perf_counter() - start
            else:
                tracer.op = op_id
                tracer.patch()
                span = tracer.open(f"task.{name}")
                try:
                    check = task()
                finally:
                    tracer.close(span)
                    tracer.unpatch()
                elapsed += span.end - span.start
            check()
        except Exception:  # an operation's failure is counted, not fatal
            return elapsed, f"task {name}: {traceback.format_exc(limit=3)}"
    return elapsed, None


def cache_sizes() -> dict:
    """L2 and L3 sizes from sysfs (cpu0), as the kernel reports them."""
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            out[f"L{level}"] = size
    return out


def openblas_runtime() -> dict:
    """OpenBLAS config string and thread count reported by the loaded library."""
    import glob

    import numpy as np

    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
            config = lib.scipy_openblas_get_config64_
            threads = lib.scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        config.restype, config.argtypes = ctypes.c_char_p, []
        threads.restype, threads.argtypes = ctypes.c_int, []
        return {"config": config().decode(), "threads": threads()}
    return {"config": None, "threads": None}


def run_record(args, setup, untraced, traced, failures) -> dict:
    import numpy as np

    src_hash = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src_hash.update(str(path.relative_to(ROOT)).encode())
            src_hash.update(path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            sha = proc.stdout.strip() or None
        except OSError:  # no git on PATH
            pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "git_sha": sha,
        "src_sha256": src_hash.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_build": f"{blas.get('name')} {blas.get('version')}",
        "openblas_runtime": openblas_runtime(),
        "nproc": os.cpu_count(),
        "blas_threads_pinned": BLAS_THREADS,
        "malloc_mmap_threshold_pinned": MALLOC_PINNED,
        "caches": cache_sizes(),
        "load": "closed loop, one process, one client thread; no queue, so no wait metrics",
        "setup_samples_s": setup,
        "ok_op_seconds_untraced": untraced,
        "ok_op_seconds_traced": traced,
        "ops_behind_op_p50_s": len(untraced),
        "traced_ops_behind_per_layer_medians": len(traced),
        "failures": failures,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        workloads = import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]
    out = OUT_ROOT / args.workload
    if args.setup_only:
        cls(args.seed, args.smoke, out)
        print("ready", flush=True)
        return 0

    setup = measure_setup(args, 1)
    workload = cls(args.seed, args.smoke, out)
    out.mkdir(parents=True, exist_ok=True)

    import spans

    tracer = spans.Tracer() if args.trace else None
    # Warm-up: one full-size operation, not timed, so first-call costs and
    # cold caches stay out of the medians; a failure counts.
    _, warmup_err = run_op(workload, None, None)
    failures = [f"warm-up: {warmup_err}"] if warmup_err else []

    untraced, traced, traced_ok = [], [], []  # seconds of ok operations
    attempted, timed = 0, 0.0
    loop_start = time.perf_counter()
    while True:
        with_trace = tracer is not None and attempted % 2 == 1
        gc.collect()  # the previous operation's garbage, outside the timed region
        op_start = time.perf_counter()
        seconds, err = run_op(workload, tracer if with_trace else None, attempted)
        timed += seconds
        if err:
            failures.append(f"operation {attempted}: {err}")
        elif with_trace:
            traced.append(seconds)
            traced_ok.append(attempted)
        else:
            untraced.append(seconds)
        attempted += 1
        now = time.perf_counter()
        last = now - op_start
        if now - loop_start >= len(setup) * args.seconds / SETUP_SAMPLES:
            setup += measure_setup(args, 1)
            now = time.perf_counter()
        if attempted >= MIN_OPS and now - loop_start + last > args.seconds:
            break

    setup += measure_setup(args, SETUP_SAMPLES - len(setup))
    ok = len(untraced) + len(traced)
    attempted += bool(warmup_err)
    failed = len(failures)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # With no ok operation the times of failed ones stand in; correct is false.
    p50 = statistics.median(untraced or [timed / attempted])
    e2e = {
        "setup_s": statistics.median(setup),
        "op_p50_s": p50,
        "ops_per_s": ok / timed,
        "peak_rss_mb": rss_mb,
    }
    name = args.workload
    print(f"{name} setup_s {e2e['setup_s']:.4f} s  (median of {len(setup)} processes)")
    print(f"{name} op_p50_s {p50:.4f} s  (median of {len(untraced)} untraced operations)")
    print(f"{name} ops_per_s {e2e['ops_per_s']:.4f} 1/s  ({ok} ok in {timed:.2f} s timed)")
    print(f"{name} peak_rss_mb {rss_mb:.1f} MB")
    print(f"{name} failed_share {failed / attempted:.4f} ratio  ({failed}/{attempted})")
    for f in failures:
        print(f"perfbench: {f}", file=sys.stderr)

    record = run_record(args, setup, untraced, traced, failures)
    if tracer is None:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
    else:
        by_op = {}
        for s in tracer.spans:
            by_op.setdefault(s.op, []).append(s)
        per_op = [spans.op_metrics(by_op[k]) for k in traced_ok] or [
            spans.op_metrics([])
        ]
        layer = spans.median_metrics(per_op)
        layer["bench.trace_overhead_s"] = statistics.median(traced or [p50]) - p50
        metrics = {k: {"value": layer[k], "unit": u} for k, u in spans.PER_LAYER.items()}
        for k, u in spans.PER_LAYER.items():
            print(f"{name} {k} {layer[k]:.6g} {u}")
        shares = [spans.layer_shares(by_op[k]) for k in traced_ok]
        if shares:
            share = spans.median_metrics(shares)
            print(f"{name} layer self-time shares: "
                  + ", ".join(f"{k} {v:.3f}" for k, v in share.items()))
            top = max(share, key=share.get)
            verdict = ("none stated" if cls.dominant is None
                       else "confirmed" if top == cls.dominant
                       else f"NOT confirmed, stated {cls.dominant}")
            print(f"{name} dominant layer: {top} ({verdict})")
            record["layer_self_time_shares"] = share
            record["dominant_layer"] = {"measured": top, "stated": cls.dominant}
        (out / "spans.json").write_text(json.dumps(tracer.dump()) + "\n")
    record["metrics"] = metrics
    (out / "run_record.json").write_text(json.dumps(record, indent=2) + "\n")
    print(f"run record: {(out / 'run_record.json').relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
