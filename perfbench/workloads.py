"""The benchmark's workloads: CLI commands, their inputs and their output checks.

Each operation is one ``gaugedist`` CLI invocation.  Its check receives the
exit code, the captured stdout and the bytes of its ``--out`` file, and returns
a list of problems (empty when the output is right).  Expected values come
from oracles in this file that do not use the library's evaluation paths:
integer counts for lattices, ``Fraction`` pair loops for perturbed points, and
integer angle tests for the Moser counts.  The oracles run in a child process
(``build``), so their memory is not part of the measured process's peak.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import numpy as np

# Points whose exact squared distances 2 and 1 + (1 + 2**-49)**2 share one
# double square root; the true distance set has 7 values (0 and six pairs).
EXACT_DISC_REPRO = ((0.0, 0.0), (1.0, 1.0), (10.0, 10.0), (11.0, 11.0 + 2.0**-49))

MOSER_ARGS = [
    "--body", "square",
    "--cone", "0,1.5707963267948966",
    "--cone-inner", "0.39269908169872414,1.1780972450961724",
    "--N-range", "1..20",
]

Check = Callable[[Optional[int], str, bytes], list]


@dataclass(frozen=True)
class Op:
    """One CLI invocation: ``name`` is unique, ``group`` is the metric it sums into."""

    name: str
    group: str
    argv: tuple
    out: Optional[Path]
    check: Check


# ---------------------------------------------------------------- oracles


def lattice_side(R: float) -> int:
    return 2 * int(math.floor(R + 1e-12)) + 1


def disc_lattice_count(side: int) -> int:
    """Distinct Euclidean distances of a side x side unit grid: distinct a^2 + b^2."""
    return len({a * a + b * b for a in range(side) for b in range(side)})


def polygon_lattice_count(body: str, side: int) -> int:
    """Distinct square (max |.|) or diamond (|.| + |.|) distances of the grid."""
    return side if body == "square" else 2 * side - 1


def pball_lattice_count(side: int) -> int:
    # For p = 1.5, a^1.5 + b^1.5 over 0 <= a, b < side takes one value per
    # unordered pair {a, b}: equal sums would need equal square-free parts and
    # a sum of two cubes written two ways with cubes below 7^3, which has none.
    return side * (side + 1) // 2


def perturbed_points(R: float, jitter: float, seed: int) -> np.ndarray:
    from gaugedist.point_sets import GeneratorSpec, generate

    spec = GeneratorSpec(kind="perturbed_lattice", R=R, jitter=jitter, seed=seed)
    return generate(spec).points


def exact_values(points, body: str) -> list:
    """Sorted distinct exact values: max(|dx|, |dy|) for square, dx^2 + dy^2 for disc."""
    fr = [(Fraction(x), Fraction(y)) for x, y in points]
    vals = {Fraction(0)}
    for i, (xi, yi) in enumerate(fr):
        for xj, yj in fr[i + 1 :]:
            dx, dy = xj - xi, yj - yi
            vals.add(max(abs(dx), abs(dy)) if body == "square" else dx * dx + dy * dy)
    return sorted(vals)


def float_diamond_clusters(points: np.ndarray) -> tuple[int, float]:
    """Cluster count and min gap of the float taxicab distance set.

    Uses the same float operations as the normal-form gauge of the unit
    diamond (every edge normal is (+-c, +-c) with c = 1/hypot(1, 1), every
    offset c), so values match bit for bit; the pair enumeration and the
    greedy clustering are independent of the library.
    """
    c = 1.0 / np.hypot(1.0, 1.0)
    iu, ju = np.triu_indices(len(points), k=1)
    d = np.abs(points[ju] - points[iu])
    vals = np.sort(np.concatenate([[0.0], (d[:, 0] * c + d[:, 1] * c) / c]))
    tol = 1e-9 * float(vals[-1])
    reps = []
    start = None
    for v in vals.tolist():
        if start is None or v - start > tol:
            reps.append(v)
            start = v
    return len(reps), min(b - a for a, b in zip(reps, reps[1:]))


def moser_counts(N_range, width: float = 10.0) -> dict:
    """Lattice points per annulus width*N < max(|i|, |j|) < width*(N+1), strictly inside the cone (pi/8, 3pi/8).

    The cone test j/i > tan(pi/8) = sqrt(2) - 1 and j/i < tan(3pi/8) = sqrt(2) + 1
    is decided in integers; points on an annulus boundary belong to none.
    """
    counts = dict.fromkeys(N_range, 0)
    top = int(width * (max(N_range) + 1))
    for i in range(1, top + 1):
        for j in range(1, top + 1):
            m = max(i, j)
            N = int(m // width)
            if N in counts and m != N * width and (i + j) ** 2 > 2 * i * i and (
                j <= i or (j - i) ** 2 < 2 * i * i
            ):
                counts[N] += 1
    return counts


# ---------------------------------------------------------------- checks


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _exit_ok(rc) -> list:
    return [] if rc == 0 else [f"exit code {rc}, expected 0"]


def check_sweep(expected: list[dict], min_gap: Callable[[list], list]) -> Check:
    """Rows must carry the expected R, n_points and n_distances; min_gap gets its own test."""

    def check(rc, stdout, out):
        problems = _exit_ok(rc)
        rows = _rows(out.decode())
        got = [{k: r[k] for k in ("R", "n_points", "n_distances")} for r in rows]
        want = [{k: str(e[k]) for k in ("R", "n_points", "n_distances")} for e in expected]
        if got != want:
            problems.append(f"rows {got} != {want}")
        elif rows:
            problems += min_gap([r["min_gap"] for r in rows])
        return problems

    return check


def gaps_equal(value: float):
    def test(gaps):
        bad = [g for g in gaps if float(g) != value]
        return [f"min_gap {bad} != {value}"] if bad else []

    return test


def gaps_each(values: list, rel: float):
    def test(gaps):
        if len(gaps) != len(values) or not all(
            math.isclose(float(g), v, rel_tol=rel, abs_tol=0.0) for g, v in zip(gaps, values)
        ):
            return [f"min_gap {gaps} != {values}"]
        return []

    return test


def gaps_decreasing(gaps):
    vals = [float(g) for g in gaps]
    if any(b >= a for a, b in zip(vals, vals[1:])) or vals[-1] <= 0:
        return [f"disc min_gap does not decay: {gaps}"]
    return []


def check_json(expected: dict) -> Check:
    """stdout JSON must contain the expected fields (nested dicts compared by key)."""

    def check(rc, stdout, out):
        problems = _exit_ok(rc)
        report = json.loads(stdout)

        def walk(want, got, path):
            for k, v in want.items():
                if isinstance(v, dict):
                    walk(v, got.get(k, {}), f"{path}{k}.")
                elif got.get(k) != v:
                    problems.append(f"{path}{k} = {got.get(k)!r}, expected {v!r}")

        walk(expected, report, "")
        return problems

    return check


def check_erdos(N: int, side: int, lattice_distinct: int) -> Check:
    base = check_json(
        {
            "N": N,
            "flagged": False,
            "witnesses": {
                "random": {"n_points": N, "below_half": False},
                "lattice": {"n_points": side * side, "n_distances": lattice_distinct},
            },
        }
    )

    def check(rc, stdout, out):
        problems = base(rc, stdout, out)
        random = json.loads(stdout)["witnesses"]["random"]
        if not (math.sqrt(N) / 2 <= random["n_distances"] <= N * (N - 1) // 2 + 1):
            problems.append(f"random n_distances {random['n_distances']} out of range")
        return problems

    return check


def check_moser(counts: list) -> Check:
    """``counts`` holds (N, lattice points in annulus N) pairs."""
    span = 1.1780972450961724 - 0.39269908169872414

    def check(rc, stdout, out):
        problems = _exit_ok(rc)
        rows = _rows(out.decode())
        got = [(int(r["N"]), int(r["count"]), r["met"], r["truncated"]) for r in rows]
        want = [
            (N, c, "true" if c >= N * span else "false", "false") for N, c in counts
        ]
        if got != want:
            problems.append(f"moser rows {got} != {want}")
        return problems

    return check


def check_lemma(which: str, trials: int) -> Check:
    def check(rc, stdout, out):
        problems = _exit_ok(rc)
        summary = json.loads(stdout)
        rows = [json.loads(line) for line in out.decode().splitlines()]
        if summary["violations"] != 0:
            problems.append(f"{summary['violations']} violations")
        if summary["trials"] != trials or [r["trial"] for r in rows] != list(range(trials)):
            problems.append("trial rows do not run 0..trials-1")
        if which == "strict" and not (
            summary["max_count"] <= 2 and all(r["count"] <= 2 for r in rows)
        ):
            problems.append(f"strict max_count {summary['max_count']} > 2")
        if which == "13" and summary["max_classes"] > 2:
            problems.append(f"max_classes {summary['max_classes']} > 2")
        return problems

    return check


# ---------------------------------------------------------------- workloads
#
# Each workload has two halves.  ``_<workload>_expected(seed)`` runs the
# oracles and returns plain JSON data keyed by operation name; ``build`` runs
# it in a child process (see ``__main__`` below), so the oracles' memory never
# counts toward the peak memory of the measured process.  ``_<workload>(seed,
# work, expected)`` writes the input files and returns the operations.

EXACT_RADII = (5, 10, 20, 40)
EXACT_PERTURBED_RADII = (3, 4, 5)
TAXICAB_N = 100
FLOAT_RADII = (5, 10, 20, 30)
FLOAT_PERTURBED_RADII = (5, 10, 20)
ERDOS_N = 2000
MOSER_RANGE = range(1, 21)
LEMMA_BATCHES = (("14", 1000, "lemma_polygon_s"), ("13", 1000, "lemma_polygon_s"),
                 ("strict", 500, "lemma_strict_s"))


def _sweep_argv(body, setting, radii, out, *extra):
    return (
        "sweep", "--body", body, "--set", setting, "--R", ",".join(str(r) for r in radii),
        *extra, "--out", str(out), "--no-timestamp",
    )


def _lattice_rows(body: str, radii) -> list[dict]:
    rows = []
    for R in radii:
        side = lattice_side(R)
        n = disc_lattice_count(side) if body == "disc" else polygon_lattice_count(body, side)
        rows.append({"R": float(R), "n_points": side * side, "n_distances": n})
    return rows


def _exact_lattice_expected(seed: int) -> dict:
    expected = {
        f"sweep-exact-lattice-{body}": {"rows": _lattice_rows(body, EXACT_RADII)}
        for body in ("square", "diamond", "disc")
    }
    for body in ("square", "disc"):
        rows, gaps = [], []
        for R in EXACT_PERTURBED_RADII:
            pts = perturbed_points(float(R), 0.25, seed)
            vals = exact_values(pts, body)
            if body == "disc":
                vals = sorted(math.sqrt(q.numerator) / math.sqrt(q.denominator) for q in vals)
            rows.append({"R": float(R), "n_points": len(pts), "n_distances": len(vals)})
            gaps.append(float(min(b - a for a, b in zip(vals, vals[1:]))))
        expected[f"sweep-exact-perturbed-{body}"] = {"rows": rows, "gaps": gaps}
    side = TAXICAB_N + 1
    for body in ("square", "diamond", "disc"):
        count = disc_lattice_count(side) if body == "disc" else polygon_lattice_count(body, side)
        expected[f"taxicab-count-{body}"] = {"n_points": side * side, "n_distances": count}
    return expected


def _exact_lattice(seed: int, work: Path, expected: dict) -> list[Op]:
    ops = []
    for body in ("square", "diamond", "disc"):
        name = f"sweep-exact-lattice-{body}"
        out = work / f"sweep-lattice-{body}.csv"
        ops.append(Op(
            name, "sweep_s", _sweep_argv(body, "lattice", EXACT_RADII, out, "--exact"), out,
            check_sweep(expected[name]["rows"],
                        gaps_decreasing if body == "disc" else gaps_equal(1.0)),
        ))
    for body in ("square", "disc"):
        name = f"sweep-exact-perturbed-{body}"
        out = work / f"sweep-perturbed-{body}.csv"
        ops.append(Op(
            name, "sweep_s",
            _sweep_argv(body, "perturbed", EXACT_PERTURBED_RADII, out, "--exact",
                        "--jitter", "0.25", "--seed", str(seed)),
            out,
            # square gaps are exact rationals; disc gaps carry two square-root roundings
            check_sweep(expected[name]["rows"],
                        gaps_each(expected[name]["gaps"], 0.0 if body == "square" else 1e-6)),
        ))
    for body in ("square", "diamond", "disc"):
        name = f"taxicab-count-{body}"
        ops.append(Op(
            name, "taxicab_count_s", ("taxicab-count", "--n", str(TAXICAB_N), "--body", body),
            None, check_json({"body": body, "n": TAXICAB_N, **expected[name]}),
        ))
    return ops


def exact_disc_repro(work: Path) -> Op:
    """The exact disc sweep of EXACT_DISC_REPRO, judged against its true distance count.

    A known library defect makes it fail, so it is no part of a timed workload
    (a workload's operations must all succeed); ``known_defects.py`` runs it.
    """
    points = work / "exact-disc-repro.csv"
    points.write_text("x,y\n" + "".join(f"{x!r},{y!r}\n" for x, y in EXACT_DISC_REPRO))
    out = work / "sweep-exact-disc-repro.csv"
    n_true = len(exact_values(EXACT_DISC_REPRO, "disc"))
    return Op(
        "sweep-exact-disc-repro", "sweep_s",
        _sweep_argv("disc", f"file:{points}", (16,), out, "--exact"), out,
        check_sweep([{"R": 16.0, "n_points": 4, "n_distances": n_true}], lambda gaps: []),
    )


def _float_points_expected(seed: int) -> dict:
    rows, gaps = [], []
    for R in FLOAT_PERTURBED_RADII:
        pts = perturbed_points(float(R), 0.2, seed)
        count, gap = float_diamond_clusters(pts)
        rows.append({"R": float(R), "n_points": len(pts), "n_distances": count})
        gaps.append(gap)
    side = math.isqrt(ERDOS_N - 1) + 1
    return {
        "sweep-float-lattice-disc": {"rows": _lattice_rows("disc", FLOAT_RADII)},
        "sweep-float-perturbed-diamond": {"rows": rows, "gaps": gaps},
        "erdos-bound-disc": {"side": side, "n_distances": disc_lattice_count(side)},
        "erdos-bound-pball": {"side": side, "n_distances": pball_lattice_count(side)},
        "moser-square": {"counts": list(moser_counts(MOSER_RANGE).items())},
    }


def _float_points(seed: int, work: Path, expected: dict) -> list[Op]:
    out = work / "sweep-float-lattice-disc.csv"
    ops = [Op(
        "sweep-float-lattice-disc", "sweep_s",
        _sweep_argv("disc", "lattice", FLOAT_RADII, out), out,
        check_sweep(expected["sweep-float-lattice-disc"]["rows"], gaps_decreasing),
    )]
    exp = expected["sweep-float-perturbed-diamond"]
    out = work / "sweep-float-perturbed-diamond.csv"
    ops.append(Op(
        "sweep-float-perturbed-diamond", "sweep_s",
        _sweep_argv("diamond", "perturbed", FLOAT_PERTURBED_RADII, out, "--jitter", "0.2",
                    "--seed", str(seed)),
        out, check_sweep(exp["rows"], gaps_each(exp["gaps"], 0.0)),
    ))
    pball = work / "pball-1.5.json"
    pball.write_text(json.dumps({"type": "pball", "p": 1.5, "radius": 1.0}) + "\n")
    for name, body in (("disc", "disc"), ("pball", str(pball))):
        exp = expected[f"erdos-bound-{name}"]
        ops.append(Op(
            f"erdos-bound-{name}", "erdos_bound_s",
            ("erdos-bound", "--N", str(ERDOS_N), "--body", body, "--seed", str(seed)), None,
            check_erdos(ERDOS_N, exp["side"], exp["n_distances"]),
        ))
    out = work / "moser.csv"
    ops.append(Op(
        "moser-square", "moser_s",
        ("moser", *MOSER_ARGS, "--out", str(out), "--no-timestamp"), out,
        check_moser(expected["moser-square"]["counts"]),
    ))
    return ops


def _lemma_trials_expected(seed: int) -> dict:
    return {f"lemma-checks-{which}": {"trials": trials} for which, trials, _ in LEMMA_BATCHES}


def _lemma_trials(seed: int, work: Path, expected: dict) -> list[Op]:
    ops = []
    for which, trials, group in LEMMA_BATCHES:
        out = work / f"lemma-{which}.jsonl"
        ops.append(Op(
            f"lemma-checks-{which}", group,
            ("lemma-checks", "--which", which, "--trials", str(trials), "--seed", str(seed),
             "--out", str(out), "--no-timestamp"),
            out, check_lemma(which, expected[f"lemma-checks-{which}"]["trials"]),
        ))
    return ops


_WORKLOADS = {
    "exact-lattice": (_exact_lattice_expected, _exact_lattice),
    "float-points": (_float_points_expected, _float_points),
    "lemma-trials": (_lemma_trials_expected, _lemma_trials),
}


def build(workload: str, seed: int, work: Path) -> list[Op]:
    """Write the workload's input files under ``work`` and return its operations.

    The oracles run in a child process, which has ended when this returns.
    """
    child = subprocess.run(
        [sys.executable, __file__, workload, str(seed)],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        check=True, stdout=subprocess.PIPE,
    )
    expected = json.loads(child.stdout)
    return _WORKLOADS[workload][1](seed, work, expected)


if __name__ == "__main__":
    # python3 workloads.py WORKLOAD SEED: print the oracles' expected values as JSON
    print(json.dumps(_WORKLOADS[sys.argv[1]][0](int(sys.argv[2]))))
