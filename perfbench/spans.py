"""Span tracing for the traced run, from outside the library.

Wrappers are patched around the public functions of each ``gaugedist`` module,
in every module namespace that binds the function by name (``gauge_many``, for
one, is imported into ``distance_sets``, ``geometry_kernel`` and
``experiments``).  Each call records a span (name, start, end, parent) in
memory; spans are aggregated per pass into call counts, self times and work
counts, and written out when the run ends.  Nothing in the library changes.
"""

from __future__ import annotations

import gzip
import importlib
import os
import re
import statistics
import subprocess
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


def _n_vertices(boundary) -> int:
    return len(getattr(boundary, "vertices", boundary))


def _pairs(points) -> int:
    n = len(points)
    return n * (n - 1) // 2


def _file_bytes(a, r):
    return (os.path.getsize(a[1]),)


# Work counts taken after each call from its arguments and result: names, then values.
QUANTITIES = {
    "convex_body.gauge_many": (("points",), lambda a, r: (len(a[1]),)),
    "distance_sets.distance_set": (("pairs", "distinct"), lambda a, r: (_pairs(a[1]), len(r))),
    "distance_sets.grid_distance_set": (
        ("diff_vectors", "distinct"),
        lambda a, r: ((a[2] - 1) + (a[1] - 1) * (2 * a[2] - 1), len(r)),
    ),
    "geometry_kernel.boundary_intersection": (
        ("edge_pairs", "segments"),
        lambda a, r: (_n_vertices(a[0]) * _n_vertices(a[1]), len(r.maximal_segments)),
    ),
    "geometry_kernel.concurrence_check": (("segments",), lambda a, r: (len(a[0].maximal_segments),)),
    "point_sets.generate": (("points",), lambda a, r: (len(r),)),
    "experiments.write_sweep_csv": (("bytes",), _file_bytes),
    "experiments.write_moser_csv": (("bytes",), _file_bytes),
    "experiments.write_jsonl": (("bytes",), _file_bytes),
}

TARGETS = {
    "convex_body": ("gauge", "gauge_many", "gauge_exact", "boundary_points", "validate"),
    "distance_sets": ("distance_set", "grid_distance_set", "min_gap", "moser_count_check"),
    "geometry_kernel": (
        "boundary_intersection",
        "concurrence_check",
        "direction_line_classes",
        "random_symmetric_polygon",
        "strictly_convex_intersection_count",
    ),
    "point_sets": ("generate",),
    "experiments": (
        "run_sweep",
        "taxicab_count",
        "erdos_bound",
        "run_lemma_checks",
        "run_moser",
        "write_sweep_csv",
        "write_moser_csv",
        "write_jsonl",
    ),
    "cli": ("main",),
}

EXPERIMENT_RUNNERS = ("run_sweep", "taxicab_count", "erdos_bound", "run_lemma_checks", "run_moser")
WRITERS = ("write_sweep_csv", "write_moser_csv", "write_jsonl")
SCAN = "geometry_kernel.strictly_convex_intersection_count"


class Tracer:
    """In-memory span store; spans of one pass occupy a contiguous index range."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.quantities: list[tuple[int, str, int]] = []
        self._stack = [-1]
        self.t0 = time.perf_counter()

    def wrap(self, name: str, fn, measure):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        stack, now = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1])
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(now())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = now()
                stack.pop()
            if measure is not None:
                keys, values = measure
                for q, v in zip(keys, values(args, result)):
                    self.quantities.append((idx, q, v))
            return result

        return traced

    def __len__(self) -> int:
        return len(self.start)

    def aggregate(self, lo: int, hi: int) -> dict:
        """Per function: calls, self seconds and summed work counts of spans lo..hi-1."""
        child = defaultdict(float)
        dur = [self.end[i] - self.start[i] for i in range(lo, hi)]
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                child[p] += dur[i - lo]
        stats = defaultdict(lambda: defaultdict(float))
        scan_id = self._ids.get(SCAN)
        gauge_id = self._ids.get("convex_body.gauge")
        in_scan = {}
        for i in range(lo, hi):
            nid, p = self.name[i], self.parent[i]
            s = stats[self.names[nid]]
            s["calls"] += 1
            s["self_s"] += dur[i - lo] - child[i]
            in_scan[i] = nid == scan_id or in_scan.get(p, False)
            if nid == gauge_id and in_scan[i]:
                stats[SCAN]["scan_gauge_calls"] += 1
        for idx, q, v in self.quantities:
            if lo <= idx < hi:
                stats[self.names[self.name[idx]]][q] += v
        return stats

    def write(self, path: Path) -> None:
        """Write every span as ``index, name, start, end, parent`` (seconds since tracing began)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.names[self.name[i]]}\t{self.start[i] - self.t0:.9f}"
                    f"\t{self.end[i] - self.t0:.9f}\t{self.parent[i]}\n"
                )


@contextmanager
def patched(tracer: Tracer):
    """Replace every by-name binding of each target function with a traced wrapper."""
    modules = [m for k, m in list(sys.modules.items()) if k == "gaugedist" or k.startswith("gaugedist.")]
    saved = []
    try:
        for mod_name, funcs in TARGETS.items():
            owner = importlib.import_module(f"gaugedist.{mod_name}")
            for fn_name in funcs:
                orig = getattr(owner, fn_name)
                name = f"{mod_name}.{fn_name}"
                wrapper = tracer.wrap(name, orig, QUANTITIES.get(name))
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            saved.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)
        yield
    finally:
        for mod, attr, orig in reversed(saved):
            setattr(mod, attr, orig)


def layer_metrics(stats: dict) -> dict:
    """Per-layer metrics of one pass, named ``<module>.<function>.<quantity>``."""
    out = {}

    def get(name, q):
        return stats.get(name, {}).get(q, 0)

    for mod_name, funcs in TARGETS.items():
        for fn_name in funcs:
            name = f"{mod_name}.{fn_name}"
            out[f"{name}.calls"] = int(get(name, "calls"))
            out[f"{name}.self_s"] = float(get(name, "self_s"))
    for name, (keys, _) in QUANTITIES.items():
        for q in keys:
            out[f"{name}.{q}"] = int(get(name, q))
    evals = out["distance_sets.distance_set.pairs"] + out["distance_sets.grid_distance_set.diff_vectors"]
    distinct = out["distance_sets.distance_set.distinct"] + out["distance_sets.grid_distance_set.distinct"]
    out["distance_sets.distinct_per_eval"] = distinct / evals if evals else 0.0
    scans = out[f"{SCAN}.calls"]
    out[f"{SCAN}.gauge_percall"] = get(SCAN, "scan_gauge_calls") / scans if scans else 0.0
    out["experiments.self_s"] = sum(float(get(f"experiments.{f}", "self_s")) for f in EXPERIMENT_RUNNERS)
    out["experiments.writers.self_s"] = sum(float(get(f"experiments.{f}", "self_s")) for f in WRITERS)
    out["experiments.writers.bytes"] = int(sum(get(f"experiments.{f}", "bytes") for f in WRITERS))
    return out


_IMPORTTIME = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S+)")


def import_breakdown(env: dict, cwd: Path, runs: int) -> dict:
    """Median cumulative import seconds of numpy, scipy.spatial and the rest of gaugedist.cli.

    Each sample is a fresh interpreter under ``python -X importtime``.
    """
    samples = defaultdict(list)
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import gaugedist.cli"],
            env=env, cwd=cwd, capture_output=True, text=True, timeout=120, check=True,
        )
        cumulative = {}
        for m in _IMPORTTIME.finditer(proc.stderr):
            cumulative.setdefault(m.group(3), int(m.group(2)) / 1e6)
        numpy_s, scipy_s = cumulative["numpy"], cumulative["scipy.spatial"]
        samples["setup.import.numpy_s"].append(numpy_s)
        samples["setup.import.scipy_spatial_s"].append(scipy_s)
        samples["setup.import.gaugedist_s"].append(cumulative["gaugedist.cli"] - numpy_s - scipy_s)
    return {k: statistics.median(v) for k, v in samples.items()}
