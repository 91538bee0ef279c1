"""Span recorder wrapped around the public functions of the eitff layers.

Spans are recorded from the benchmark side only: each listed function is
replaced by a wrapper in every eitff module that holds a reference to it,
because the package imports names with ``from .linalg import nullspace``
and a nested call looks the name up in the calling module.  Spans are
kept in memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from collections import defaultdict

# (module, function) pairs whose calls become spans.  The span name is
# "<module>.<function>".
TRACED = (
    ("linalg", "nullspace"),
    ("linalg", "polar_unitary"),
    ("radon_hurwitz", "build_rho_orthonormal"),
    ("radon_hurwitz", "verify_rho_orthonormal"),
    ("simplex", "rho_simplex_from_orthonormal"),
    ("simplex", "verify_rho_simplex"),
    ("frames", "build_eitff"),
    ("frames", "verify_eitff"),
    ("frames", "canonicalize"),
    ("frames", "naimark_complement"),
    ("frames", "block_omp_recover"),
    ("frame_io", "save_frame"),
    ("frame_io", "load_frame"),
    ("symmetry", "find_witness"),
    ("symmetry", "probe_symmetry"),
    ("symmetry", "check_certificate"),
    ("symmetry", "transposition_witness"),
    ("symmetry", "alternating_witness"),
    ("cli", "main"),
)


def _computed_counts(name: str, args, result) -> dict:
    """Work counts derived from a call's arguments and result.  They are
    computed from array shapes and file sizes, not measured."""
    if name == "frames.verify_eitff":
        n = args[0].n
        return {"pairs": n * (n - 1) // 2}
    if name == "linalg.nullspace":
        a = args[0]
        itemsize = 8 if a.field.value == "R" else 16
        return {"input_bytes": a.rows * a.cols * itemsize}
    if name == "symmetry.find_witness":
        return {"found": int(result is not None)}
    if name == "frame_io.save_frame":
        return {"file_bytes": os.path.getsize(args[1])}
    if name == "frame_io.load_frame":
        return {"file_bytes": os.path.getsize(args[0])}
    return {}


class Tracer:
    """Records (name, start, end, parent, op) spans while ``active``."""

    def __init__(self):
        self.spans: list[dict] = []
        self.active = False
        self.op = None
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = {
                "name": name,
                "parent": tracer._stack[-1] if tracer._stack else None,
                "op": tracer.op,
                "start": time.perf_counter(),
            }
            index = len(tracer.spans)
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                span["end"] = time.perf_counter()
            span["counts"] = _computed_counts(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Replace every traced function wherever an eitff module holds it."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "eitff" or key.startswith("eitff."))
        ]
        for module_name, func_name in TRACED:
            original = getattr(sys.modules[f"eitff.{module_name}"], func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def run_op(self, op_label: str, fn):
        """Call fn with span recording on, attributing spans to op_label."""
        self.op = op_label
        self.active = True
        try:
            return fn()
        finally:
            self.active = False
            self.op = None


def layer_totals(spans: list[dict], lo: int = 0, hi: int | None = None):
    """Over spans[lo:hi], per span name: summed self time (span minus its
    direct children), number of calls, summed computed counts, and the
    set of parent names ("op" for spans a benchmark operation opened)."""
    hi = len(spans) if hi is None else hi
    child_time = defaultdict(float)
    for span in spans[lo:hi]:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    self_s = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(lambda: defaultdict(int))
    parents = defaultdict(set)
    for index in range(lo, hi):
        span = spans[index]
        name = span["name"]
        self_s[name] += span["end"] - span["start"] - child_time[index]
        calls[name] += 1
        for key, value in span.get("counts", {}).items():
            counts[name][key] += value
        parent = span["parent"]
        parents[name].add("op" if parent is None else spans[parent]["name"])
    return dict(self_s), dict(calls), {k: dict(v) for k, v in counts.items()}, dict(parents)


# Per-layer metrics and their units.  The counts in COMPUTED are derived
# from call arguments, results and file sizes, not timed, so they repeat
# exactly from run to run.
PER_LAYER_UNITS = {
    "radon_hurwitz.build_rho_orthonormal_s": "s",
    "radon_hurwitz.verify_rho_orthonormal_s": "s",
    "simplex.rho_simplex_from_orthonormal_s": "s",
    "simplex.verify_rho_simplex_s": "s",
    "frames.build_eitff_s": "s",
    "frames.verify_eitff_s": "s",
    "frames.verify_eitff.pairs": "count",
    "frames.canonicalize_s": "s",
    "frames.naimark_complement_s": "s",
    "frames.block_omp_recover_ms": "ms",
    "frames.block_omp_recover.calls": "count",
    "frame_io.save_frame_s": "s",
    "frame_io.load_frame_s": "s",
    "frame_io.file_bytes": "bytes",
    "cli.startup_s": "s",
    "linalg.nullspace_s": "s",
    "linalg.polar_unitary_s": "s",
    "linalg.nullspace.input_bytes": "bytes",
    "symmetry.find_witness_s": "s",
    "symmetry.find_witness.calls": "count",
    "symmetry.find_witness.found": "count",
    "symmetry.witness_hit_ratio": "ratio",
    "symmetry.probe_symmetry_s": "s",
    "symmetry.check_certificate_s": "s",
    "symmetry.closed_form_ms": "ms",
    "trace.overhead_frac": "ratio",
}
COMPUTED = {
    "frames.verify_eitff.pairs",
    "frame_io.file_bytes",
    "linalg.nullspace.input_bytes",
    "symmetry.find_witness.calls",
    "symmetry.find_witness.found",
}

# Layers whose self time is reported as "<span>_s".
SELF_TIME_LAYERS = (
    "radon_hurwitz.build_rho_orthonormal",
    "radon_hurwitz.verify_rho_orthonormal",
    "simplex.rho_simplex_from_orthonormal",
    "simplex.verify_rho_simplex",
    "frames.build_eitff",
    "frames.verify_eitff",
    "frames.canonicalize",
    "frames.naimark_complement",
    "frame_io.save_frame",
    "frame_io.load_frame",
    "linalg.nullspace",
    "linalg.polar_unitary",
    "symmetry.find_witness",
    "symmetry.probe_symmetry",
    "symmetry.check_certificate",
)
CLOSED_FORM = ("symmetry.transposition_witness", "symmetry.alternating_witness")


def pass_layers(spans: list[dict], lo: int, hi: int, records: list[dict]) -> dict:
    """Per-layer metrics of one traced pass, whose spans are spans[lo:hi]."""
    self_s, calls, counts, _ = layer_totals(spans, lo, hi)
    m = {f"{name}_s": self_s.get(name, 0.0) for name in SELF_TIME_LAYERS}

    def count(name, key):
        return counts.get(name, {}).get(key, 0)

    def per_call_ms(names):
        n = sum(calls.get(name, 0) for name in names)
        return 1e3 * sum(self_s.get(name, 0.0) for name in names) / n if n else 0.0

    m["frames.verify_eitff.pairs"] = count("frames.verify_eitff", "pairs")
    m["frames.block_omp_recover_ms"] = per_call_ms(["frames.block_omp_recover"])
    m["frames.block_omp_recover.calls"] = calls.get("frames.block_omp_recover", 0)
    m["frame_io.file_bytes"] = (count("frame_io.save_frame", "file_bytes")
                                + count("frame_io.load_frame", "file_bytes"))
    startup = [r["s"] for r in records if r["group"] == "cli_startup_s"]
    m["cli.startup_s"] = statistics.median(startup) if startup else 0.0
    m["linalg.nullspace.input_bytes"] = count("linalg.nullspace", "input_bytes")
    searches = calls.get("symmetry.find_witness", 0)
    found = count("symmetry.find_witness", "found")
    m["symmetry.find_witness.calls"] = searches
    m["symmetry.find_witness.found"] = found
    m["symmetry.witness_hit_ratio"] = found / searches if searches else 0.0
    m["symmetry.closed_form_ms"] = per_call_ms(CLOSED_FORM)
    return m


def layer_metrics(tracer, passes) -> tuple[dict, dict]:
    """Median over traced passes of each per-layer metric, the tracing
    overhead, and the parent span names of every traced layer."""
    traced = [p for p in passes if p["traced"]]
    per_pass = [pass_layers(tracer.spans, *p["spans"], p["ops"]) for p in traced]
    layers = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    untraced = statistics.median(p["wall_s"] for p in passes if not p["traced"])
    traced_s = statistics.median(p["wall_s"] for p in traced)
    layers["trace.overhead_frac"] = (traced_s - untraced) / untraced
    _, _, _, parents = layer_totals(tracer.spans)
    return layers, {k: sorted(v) for k, v in parents.items()}
