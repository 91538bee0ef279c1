"""One workload in one process, so that its peak RSS belongs to it alone.

Started by run.py.  Sets up (imports, fixtures, warm-up), reports the
monotonic time at which set-up ended, then runs timed passes over the
workload's operations in a closed loop until --seconds have passed.  With
--trace 1 it alternates untraced and traced passes, so the difference is
the tracing overhead.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parents[1]


def parse_args(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--scale", choices=("full", "smoke"), required=True)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def machine_facts(seed: int) -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps[k].get("name") for k in ("blas", "lapack")}
        blas["version"] = deps["blas"].get("version")
    except (TypeError, KeyError):
        blas = {"blas": "unknown"}
    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                   "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in thread_vars},
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "git_commit": git_commit(),
        "seed": seed,
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None
    when the checkout is not a git repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def run_pass(ops, tracer=None) -> dict:
    """Run every operation once.  Failures are recorded, never raised."""
    records = []
    start = time.perf_counter()
    for op in ops:
        ok, rss_kb = False, None
        if op.before is not None:
            op.before()
        t0 = time.perf_counter()
        try:
            result = tracer.run_op(op.label, op.run) if tracer else op.run()
            elapsed = time.perf_counter() - t0
            rss_kb = getattr(result, "rss_kb", None)
            ok = bool(op.check(result))
        except Exception:
            elapsed = time.perf_counter() - t0
            traceback.print_exc(file=sys.stderr)
        if not ok:
            print(f"FAILED: {op.label}", file=sys.stderr)
        records.append({"group": op.group, "label": op.label, "s": elapsed,
                        "ok": ok, "rss_kb": rss_kb})
    return {"traced": tracer is not None, "wall_s": time.perf_counter() - start,
            "ops": records}


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import eitff

    if Path(eitff.__file__).resolve().parent != src / "eitff":
        print(f"eitff imported from {eitff.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads

    out_dir = ROOT / ".bench_out"
    workdir = out_dir / f"work-{args.workload}-{os.getpid()}"
    sizes = workloads.SIZES[args.scale][args.workload]
    # Pipeline commands run as subprocesses, except in the traced run,
    # where they go through eitff.cli.main so that spans are recorded.
    workload = workloads.WORKLOADS[args.workload](
        args.seed, sizes, str(workdir), in_process=bool(args.trace)
    )
    try:
        workload.setup()
        ops = workload.ops()
        workloads.blas_touch()
        warm = run_pass(workload.warmup_ops(ops))
        ready = time.monotonic()
        if args.setup_only:
            print(json.dumps({"ready": ready}))
            return 0
        if not all(r["ok"] for r in warm["ops"]):
            print("warm-up operation failed", file=sys.stderr)

        tracer = tracing.Tracer() if args.trace else None
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(run_pass(ops))
            if tracer:
                tracer.install()
                first = len(tracer.spans)
                try:
                    passes.append(run_pass(ops, tracer))
                finally:
                    tracer.uninstall()
                passes[-1]["spans"] = [first, len(tracer.spans)]
            if time.perf_counter() - start >= args.seconds:
                break
        result = {
            "ready": ready,
            "facts": machine_facts(args.seed),
            "passes": passes,
            "rss_self_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }
        if tracer:
            result["layers"], result["parents"] = tracing.layer_metrics(tracer, passes)
            trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
            trace_path.write_text(json.dumps({"spans": tracer.spans}))
            result["trace_file"] = str(trace_path.relative_to(ROOT))
    finally:
        if workdir.exists():
            for path in workdir.iterdir():
                path.unlink()
            workdir.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
