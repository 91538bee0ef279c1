"""Benchmark of the eitff package: one command, three workloads.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout; the package is imported from ./src.
Each run starts the workload in a worker process of its own (see
worker.py), after two extra set-up-only workers, so that set-up time is
a median of three.  Operations run back to back in a closed loop from one
process; CLI commands run one at a time.  BLAS thread variables left
unset are pinned to the CPUs this process may use.  Bytecode for
src/eitff is written to its __pycache__, as for an installed package.

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics from spans recorded around calls into each eitff module.  Both
print each operation's median time and report failed checks on stderr;
the last stdout line is one JSON object with keys correct, attempted,
failed and metrics.  The full
result, with machine facts and per-operation samples, is also written
to .bench_out/.  --smoke runs every workload at tiny sizes in both modes
and checks that each metric named in BENCHMARK.json is emitted with its
unit and that no operation fails.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 3
# Every run must end within 180 s; stop a worker that is still busy here.
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    # Write bytecode next to the sources, as an installed package has it,
    # so that CLI start-up does not include compiling eitff.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    cpus = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, cpus)
    return env


def run_worker(argv: list[str], deadline: float) -> dict:
    """Start one worker, wait for it, and return its result with the
    set-up time measured from the moment it was started."""
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv],
        stdout=subprocess.PIPE, env=worker_env(), cwd=ROOT, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException as exc:
        # The worker's session holds any CLI child it started.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError(f"worker {' '.join(argv)} passed the deadline") from None
        raise
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(argv)} exited with {proc.returncode}")
    result = json.loads(out.decode().splitlines()[-1])
    result["setup_s"] = result["ready"] - spawned
    return result


def median_by_op(passes: list[dict]) -> dict:
    """Median time of each operation over the passes, with its group."""
    samples = defaultdict(list)
    groups = {}
    for p in passes:
        for rec in p["ops"]:
            samples[rec["label"]].append(rec["s"])
            groups[rec["label"]] = rec["group"]
    return {label: (groups[label], statistics.median(s)) for label, s in samples.items()}


def run_benchmark(workload: str, seed: int, seconds: float, trace: int, scale: str):
    """Run one workload and return (result, human-readable lines)."""
    OUT_DIR.mkdir(exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--scale", scale]
    setups = [run_worker(base + ["--setup-only"], deadline)["setup_s"]
              for _ in range(SETUP_REPEATS - 1)]
    res = run_worker(base, deadline)
    setups.append(res["setup_s"])

    records = [rec for p in res["passes"] for rec in p["ops"]]
    attempted = len(records)
    failed = sum(not rec["ok"] for rec in records)
    untraced = [p for p in res["passes"] if not p["traced"]]
    by_op = median_by_op(untraced)
    groups = defaultdict(float)
    for group, s in by_op.values():
        groups[group] += s
    child_rss = [rec["rss_kb"] for rec in records if rec["rss_kb"] is not None]

    lines = [f"workload={workload} seed={seed} trace={trace} scale={scale} "
             f"passes={len(untraced)} untraced"
             + (f", {len(res['passes']) - len(untraced)} traced" if trace else "")]
    for label, (group, s) in by_op.items():
        lines.append(f"  op {label!r} [{group}] = {s:.6f} s (median of {len(untraced)})")
    for group, s in groups.items():
        lines.append(f"{group} = {s:.6f} s (sum of per-operation medians over "
                     f"{len(untraced)} passes)")
    if trace:
        metrics = {k: {"value": res["layers"][k], "unit": unit}
                   for k, unit in tracing.PER_LAYER_UNITS.items()}
        for k, m in metrics.items():
            # The span a metric is read from: "frames.verify_eitff" for
            # "frames.verify_eitff_s" and "frames.verify_eitff.pairs".
            span = k.rsplit("_", 1)[0] if k.endswith(("_s", "_ms")) else k.rsplit(".", 1)[0]
            parents = ",".join(res["parents"].get(span, [])) or "-"
            label = " (computed)" if k in tracing.COMPUTED else ""
            lines.append(f"{k} = {m['value']:.6g} {m['unit']}{label} parents={parents}")
        lines.append(f"spans written to {res['trace_file']}")
    else:
        task_s = sum(groups.values())
        metrics = {
            "task_s": {"value": task_s, "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {
                "value": (max(child_rss) if child_rss else res["rss_self_kb"]) / 1024.0,
                "unit": "MB",
            },
        }
        lines.append(f"task_s = {task_s:.6f} s (sum of {', '.join(groups)})")
        lines.append(f"setup_s = {metrics['setup_s']['value']:.6f} s "
                     f"(median of {len(setups)} set-ups: "
                     + ", ".join(f"{s:.3f}" for s in setups) + ")")
        lines.append(f"peak_rss_mb = {metrics['peak_rss_mb']['value']:.3f} MB ("
                     + ("largest CLI child, via wait4" if child_rss else "worker RUSAGE_SELF")
                     + ")")
    lines.append(f"fail_frac = {failed / attempted:.6g} ({failed}/{attempted} operations failed)")
    lines.append("facts " + json.dumps(res["facts"], sort_keys=True))

    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed,
               "metrics": metrics}
    record = dict(summary, workload=workload, seed=seed, trace=trace, scale=scale,
                  setup_samples_s=setups, groups=dict(groups), facts=res["facts"],
                  computed=sorted(tracing.COMPUTED) if trace else [], passes=res["passes"])
    bench_file = OUT_DIR / f"BENCH-{workload}-seed{seed}-trace{trace}-{scale}.json"
    bench_file.write_text(json.dumps(record, indent=1))
    return summary, lines


def smoke() -> int:
    """Tiny sizes, both modes: every declared metric is emitted with its
    unit and no operation fails."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for wl in spec["workloads"]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            summary, lines = run_benchmark(wl["name"], 0, 0, trace, "smoke")
            print("\n".join(lines))
            got = summary["metrics"]
            for m in declared:
                if m["name"] not in got:
                    problems.append(f"{wl['name']} trace={trace}: {m['name']} missing")
                elif got[m["name"]]["unit"] != m["unit"]:
                    problems.append(f"{wl['name']} trace={trace}: {m['name']} unit "
                                    f"{got[m['name']]['unit']} != {m['unit']}")
            extra = set(got) - {m["name"] for m in declared}
            if extra:
                problems.append(f"{wl['name']} trace={trace}: undeclared {sorted(extra)}")
            if summary["failed"]:
                problems.append(f"{wl['name']} trace={trace}: fail_frac "
                                f"{summary['failed']}/{summary['attempted']}")
    for p in problems:
        print("SMOKE FAIL:", p)
    print("smoke", "failed" if problems else "ok")
    return 1 if problems else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=("certify", "pipeline", "symmetry"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "eitff" / "__init__.py").is_file():
        print(f"no eitff source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        p.error("--workload is required unless --smoke is given")
    try:
        summary, lines = run_benchmark(args.workload, args.seed, args.seconds,
                                       args.trace, "full")
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
