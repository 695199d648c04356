"""Benchmark of the gaugedist command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload exact-lattice|float-points|lemma-trials|all
        [--seed 7] [--seconds 40] [--trace 0|1]

One process per workload drives ``gaugedist.cli.main(argv)`` in a closed loop:
one client, each command starting after the previous one returns, BLAS and
OpenMP pinned to one thread.  A pass runs every command of the workload once;
passes repeat for ``--seconds``.  Every output is checked, and a failed check
counts one failed operation without stopping the run.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
is a separate run that reports the per-layer metrics from spans recorded
around the library's public functions (see spans.py).  Human-readable lines
come first; the last line of stdout is one JSON object.  A full record with the
run environment goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager, nullcontext, redirect_stdout
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
RESULTS = HERE / "results"
DEFAULT_SEED = 7
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
REF_SAMPLES = 2  # reference-kernel runs before the first command and after each command
# The set-up reference: a fresh interpreter importing numpy and scipy.spatial,
# which no change to the repository alters, and its median time on the machine
# of the seed baseline.
SETUP_REF_CODE = "import numpy, scipy.spatial"
SETUP_REF_NOMINAL_S = 0.70
IMPORTTIME_SAMPLES = 3


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({v: "1" for v in THREAD_VARS})
    return env


def interpreter_seconds(code: str, env: dict) -> float:
    """Wall seconds of one fresh interpreter running ``code``.

    No timeout: with one, ``subprocess`` polls the child in 50 ms sleeps,
    which would quantize the measurement.
    """
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True)
    return time.perf_counter() - t0


def setup_pair(env: dict, reference_first: bool) -> tuple[float, float]:
    """Seconds of one set-up (a fresh interpreter importing gaugedist.cli, as
    every CLI invocation pays it) and of the set-up reference, back to back."""
    if reference_first:
        ref = interpreter_seconds(SETUP_REF_CODE, env)
        return interpreter_seconds("import gaugedist.cli", env), ref
    setup = interpreter_seconds("import gaugedist.cli", env)
    return setup, interpreter_seconds(SETUP_REF_CODE, env)


def make_reference():
    """A fixed mixed kernel (Fraction sums, a Python clustering loop, numpy sort
    and hypot) whose time tracks the machine's current single-core speed.

    Dividing pass times by it cancels the drift of a shared machine; it never
    changes, so the ratio still moves with the library's own speed.
    """
    import numpy as np

    data = np.random.default_rng(0).random(200_000)
    ordered = np.sort(data[:100_000]).tolist()

    def reference() -> float:
        t0 = time.perf_counter()
        acc = Fraction(0)
        for k in range(1, 300):
            acc += Fraction(1, k)
        clusters, start = 0, -1.0
        for v in ordered:
            if v - start > 1e-5:
                clusters, start = clusters + 1, v
        np.hypot(np.sort(data), data)
        return time.perf_counter() - t0

    return reference


# glibc's malloc_trim hands freed heap back to the system; absent elsewhere
_malloc_trim = getattr(ctypes.CDLL(None), "malloc_trim", None)


def release_heap() -> None:
    """Free what earlier commands left behind, as a fresh CLI process would start."""
    gc.collect()
    if _malloc_trim is not None:
        _malloc_trim(0)


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "machine": platform.machine(),
        "seed": seed,
    }


def run_op(cli, op) -> tuple:
    """Run one command; returns (seconds, exit code or None, stdout, --out bytes, error)."""
    if op.out is not None and op.out.exists():
        op.out.unlink()
    release_heap()
    buf = io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with redirect_stdout(buf):
            rc = cli.main(list(op.argv))
    except Exception as exc:  # a crash is a failed operation, not the end of the run
        rc, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    out = op.out.read_bytes() if op.out is not None and op.out.exists() else b""
    return seconds, rc, buf.getvalue(), out, error


class Checker:
    """Judges each operation: its own check, determinism across passes, recorded digests."""

    def __init__(self, workload: str, seed: int):
        self.first: dict[str, str] = {}
        self.recorded = None
        if seed == DEFAULT_SEED:
            self.recorded = json.loads(DIGESTS.read_text())[workload]
        self.attempted = 0
        self.failed = 0
        self.problems: dict[str, list[str]] = {}

    def __call__(self, op, rc, stdout, out, error) -> None:
        self.attempted += 1
        digest = hashlib.sha256(stdout.encode() + b"\0" + out).hexdigest()
        if error is not None:
            problems = [error]
        else:
            try:
                problems = op.check(rc, stdout, out)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
        first = self.first.setdefault(op.name, digest)
        if digest != first:
            problems.append("output bytes differ from the first pass")
        if self.recorded is not None and self.recorded.get(op.name) != digest:
            problems.append(f"sha256 {digest[:12]} != recorded {str(self.recorded.get(op.name))[:12]}")
        if problems:
            self.failed += 1
            self.problems.setdefault(op.name, problems)


def run_passes(cli, ops, seconds: float, check, reference, modes=(nullcontext,), after=None):
    """Repeat passes while the next one is expected to end within ``seconds``.

    Pass i runs inside ``modes[i % len(modes)]()``; ``after`` runs between
    passes, inside the time budget.  Every mode gets at least one pass.
    Returns per pass the seconds of each command, each command's seconds
    divided by the median of the reference-kernel runs just before and just
    after it, and the median seconds of all reference-kernel runs of the pass.
    """
    passes, normed, refs = [], [], []
    t_start = time.perf_counter()
    while True:
        times, ref = {}, [[reference() for _ in range(REF_SAMPLES)]]
        with modes[len(passes) % len(modes)]():
            for op in ops:
                seconds_op, rc, stdout, out, error = run_op(cli, op)
                times[op.name] = seconds_op
                ref.append([reference() for _ in range(REF_SAMPLES)])
                check(op, rc, stdout, out, error)
        passes.append(times)
        normed.append({op.name: times[op.name] / statistics.median(ref[k] + ref[k + 1])
                       for k, op in enumerate(ops)})
        refs.append(statistics.median(sum(ref, [])))
        if after is not None:
            after()
        elapsed = time.perf_counter() - t_start
        typical = elapsed / len(passes)
        if len(passes) >= len(modes) and elapsed + typical > seconds:
            return passes, normed, refs


def end_to_end(ops, passes, normed, setup) -> dict:
    """Set-up time, peak memory, the pass time in seconds and in reference-kernel
    units, and each command group's time.

    ``setup_s`` is the median ratio of set-up to set-up reference, in seconds
    at the reference's nominal time; ``wall_ref`` sums over commands the
    geometric mean over passes of the command's time in reference-kernel units.
    Both ratios cancel the drift of a shared machine's speed, which raw seconds
    carry.  The machine switches between a fast and a slow state in which the
    ratio differs a little; over a handful of passes a median jumps between the
    two, while the geometric mean weighs them by their share of passes.  The
    raw times are medians over passes.
    """
    ratios = [s / r for s, r in setup]
    metrics = {
        "setup_s": (statistics.median(ratios) * SETUP_REF_NOMINAL_S, "s", len(setup)),
        "setup_raw_s": (statistics.median(s for s, _ in setup), "s", len(setup)),
    }
    walls = [sum(p.values()) for p in passes]
    metrics["wall_s"] = (statistics.median(walls), "s", len(walls))
    wall_ref = sum(statistics.geometric_mean(n[op.name] for n in normed) for op in ops)
    metrics["wall_ref"] = (wall_ref, "ref", len(normed))
    for group in dict.fromkeys(op.group for op in ops):
        sums = [sum(p[op.name] for op in ops if op.group == group) for p in passes]
        metrics[group] = (statistics.median(sums), "s", len(sums))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["peak_rss_mb"] = (rss_mb, "MB", 1)
    return metrics


def unit_of(name: str) -> str:
    quantity = name.rsplit(".", 1)[1]
    if quantity.endswith("_s"):
        return "s"
    if quantity == "bytes":
        return "B"
    return "ratio" if "per" in quantity else "count"


def traced_layers(cli, ops, seconds: float, check, spans_path: Path) -> dict:
    """Alternate untraced and traced passes; per-layer medians of the traced ones.

    The tracing overhead is the median traced pass time minus the median
    untraced one, both in reference-kernel units (see ``run_passes``) and
    converted back to seconds at the run's median reference time; alternating
    and normalising keep slow spells of a shared machine out of it.
    """
    import spans

    layers = {k: (v, "s", IMPORTTIME_SAMPLES) for k, v in
              spans.import_breakdown(child_env(), ROOT, IMPORTTIME_SAMPLES).items()}
    tracer = spans.Tracer()
    bounds = []

    @contextmanager
    def traced():
        lo = len(tracer)
        with spans.patched(tracer):
            yield
        bounds.append((lo, len(tracer)))

    _, normed, refs = run_passes(cli, ops, seconds, check, make_reference(), modes=(nullcontext, traced))
    per_pass = [spans.layer_metrics(tracer.aggregate(lo, hi)) for lo, hi in bounds]
    for name, first in per_pass[0].items():
        median = statistics.median_low if isinstance(first, int) else statistics.median
        layers[name] = (median(p[name] for p in per_pass), unit_of(name), len(per_pass))
    ratios = [sum(n.values()) for n in normed]
    overhead = (statistics.median(ratios[1::2]) - statistics.median(ratios[0::2])) * statistics.median(refs)
    layers["trace.overhead_s"] = (overhead, "s", len(ratios[1::2]))
    RESULTS.mkdir(exist_ok=True)
    tracer.write(spans_path)
    return layers


def run_workload(args) -> int:
    for v in THREAD_VARS:
        os.environ[v] = "1"
    sys.path.insert(0, str(SRC))
    import gaugedist.cli as cli
    import workloads

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: gaugedist imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    env = environment(args.seed)
    check = Checker(args.workload, args.seed)
    tag = f"{args.workload}-seed{args.seed}"
    with tempfile.TemporaryDirectory(dir=HERE, prefix=".work-") as work:
        ops = workloads.build(args.workload, args.seed, Path(work))
        if args.trace:
            metrics = traced_layers(cli, ops, args.seconds, check, RESULTS / f"{tag}.spans.tsv.gz")
            listed = spec["per_layer"]
            extra = {}
        else:
            # set-up is sampled between passes so that it shares their window
            setup_pair(child_env(), False)  # warm-up: bytecode caches, page cache
            setup = []
            passes, normed, refs = run_passes(
                cli, ops, args.seconds, check, make_reference(),
                after=lambda: setup.append(setup_pair(child_env(), len(setup) % 2 == 1)))
            metrics = end_to_end(ops, passes, normed, setup)
            listed = spec["end_to_end"]
            extra = {"setup_and_reference_s": setup, "pass_seconds": passes,
                     "pass_reference_units": normed, "reference_s": refs}
    metrics["fail_frac"] = (check.failed / check.attempted, "ratio", check.attempted)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{check.attempted} operations, {check.failed} failed")
    print("environment " + json.dumps(env, sort_keys=True))
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:64s} {value:>14.6g} {unit:6s} n={n}")
    for name, problems in check.problems.items():
        print(f"FAILED {name}: " + "; ".join(problems))
    record = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "environment": env, "attempted": check.attempted, "failed": check.failed,
        "problems": check.problems,
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
        **extra,
    }
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{tag}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    result = {
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in listed},
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gaugedist" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no gaugedist sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    if args.workload != "all":
        return run_workload(args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    status = 0
    for w in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, cwd=ROOT).returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())
