"""Time the library's kernels on fixed inputs, one layer at a time.

    python bench/layers.py --src src --out layers.json
    python bench/layers.py --src /path/to/other/checkout/src --quick

Each layer is a fixed, seeded workload run ``REPEATS`` times (once with
``--quick``) after one untimed warm-up call; the JSON holds the median,
minimum and maximum seconds per workload.  The layers are the ones the
roadmap tracks: ``gauge_many`` per body, ``gauge_exact``, the exact polygon
keys of ``_exact_keys`` on the 321,201 difference vectors (dx, dy) of a
401 x 401 grid with 0 <= dx <= 400 (int64 keys for the square and the
diamond, Python ints for a random 12-gon), exact and float
``grid_distance_set`` (exact also on the 801 x 801 disc grid, with 195,114
distinct roots to round), the ``distance_set`` pair loop (exact under the
square, also on the 2,000 dyadic points of ``gauge_exact``, and under the
disc on object keys; float under the disc, under the diamond over the 1,521
perturbed lattice points of ``sweep --body diamond --set perturbed --R 20
--jitter 0.2 --seed 7``, and over the 2,000 random
points of ``erdos-bound`` under the disc and the p = 1.5 ball), the float
lattice ``run_sweep`` and ``moser_count_check`` of the README commands, exact
``boundary_intersection`` (under random translates, and under edge-aligned
translates with the polygon body as the first boundary), ``concurrence_check`` and
``direction_line_classes`` (on the edge-aligned intersections, computed
outside the timed call) and ``strictly_convex_intersection_count``.  The
root scan is timed twice: on 12 translates in the two-crossing range, as the
lemma batches call it (``.warm``: the warm-up call fills the scan's per-body
tables of first-pass boundary points), and on 12 translates of size 1e-12 at
alpha = 1 (``.floor``), where float error hides the sign of g over wide arcs:
the disc's scans resolve, the p = 1.5 ball's spend the whole halving budget.
Last come whole lemma batches: ``random_symmetric_polygon`` on the 200
polygons a batch draws, and ``lemma.polygon`` (``--which 14``, whose
external contacts are flagged and tested against u/(1 + alpha)) and
``lemma.strict``, each 200 trials of ``run_lemma_checks`` at seed 7.

``--src`` names the ``src`` directory to import ``gaugedist`` from, so one
script can time two checkouts on the same machine.  Only numpy and the
standard library are needed.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import statistics
import sys
import time
from pathlib import Path

REPEATS = 7  # timed runs per layer; --quick times one


def _layers(gd):
    """``{name: (description, zero-argument callable)}`` on fixed inputs."""
    import numpy as np

    rng = np.random.default_rng(8)
    pts = rng.uniform(-3.0, 3.0, size=(200_000, 2))
    poly = gd.random_symmetric_polygon(6, seed=8)
    bodies = {
        "square": gd.square(),
        "polygon12": poly,
        "disc": gd.Disc(1.0),
        "pball1.5": gd.PBall(1.5, 1.0),
    }
    layers = {}
    for name, body in bodies.items():
        layers[f"gauge_many.{name}"] = (
            f"gauge_many on {len(pts)} uniform points in [-3, 3]^2",
            lambda body=body: gd.gauge_many(body, pts),
        )
    dyadic = [(int(a) / 64, int(b) / 64) for a, b in rng.integers(-256, 257, size=(2000, 2))]
    layers["gauge_exact.polygon12"] = (
        f"gauge_exact on {len(dyadic)} dyadic points (denominator 64)",
        lambda: [gd.gauge_exact(poly, p) for p in dyadic],
    )
    dx, dy = np.meshgrid(np.arange(0, 401), np.arange(-400, 401), indexing="ij")
    diffs = np.stack((dx.ravel(), dy.ravel()), axis=1)
    for name, body in (("square", bodies["square"]), ("diamond", gd.diamond()),
                       ("random12", gd.random_symmetric_polygon(6, seed=1))):
        layers[f"exact_keys.{name}"] = (
            f"_exact_keys of the {len(diffs)} difference vectors of a 401 x 401 grid",
            lambda body=body: gd.distance_sets._exact_keys(body, diffs),
        )
    for name in ("square", "disc"):
        layers[f"grid_distance_set.exact.{name}"] = (
            "exact grid_distance_set of the 81 x 81 grid",
            lambda name=name: gd.grid_distance_set(bodies[name], 81, 81, exact=True),
        )
    layers["grid_distance_set.exact.disc801"] = (
        "exact grid_distance_set of the 801 x 801 grid (195,114 distinct distances)",
        lambda: gd.grid_distance_set(bodies["disc"], 801, 801, exact=True),
    )
    for name in ("disc", "pball1.5"):
        layers[f"grid_distance_set.float.{name}"] = (
            "float grid_distance_set of the 81 x 81 grid",
            lambda name=name: gd.grid_distance_set(bodies[name], 81, 81, exact=False),
        )
    jitter = [(x + int(a) / 1024, y + int(b) / 1024)
              for (x, y), (a, b) in zip(((i % 15, i // 15) for i in range(225)),
                                        rng.integers(-200, 201, size=(225, 2)))]
    layers["distance_set.exact.square"] = (
        f"exact pair loop over {len(jitter)} perturbed dyadic points",
        lambda: gd.distance_set(bodies["square"], jitter, exact=True),
    )
    # scaled by 0.3, whose double has a 54-bit denominator: the squared
    # lengths pass 2**63, so the disc's keys are Python ints (object dtype)
    wide = [(0.3 * x, 0.3 * y) for x, y in jitter]
    layers["distance_set.exact.disc"] = (
        f"exact pair loop over the same {len(wide)} points scaled by 0.3 (object keys)",
        lambda: gd.distance_set(bodies["disc"], wide, exact=True),
    )
    layers["distance_set.exact.square2000"] = (
        f"exact pair loop over the {len(dyadic)} dyadic points of gauge_exact (int64 keys)",
        lambda: gd.distance_set(bodies["square"], dyadic, exact=True),
    )
    cloud = rng.uniform(-20.0, 20.0, size=(800, 2))
    layers["distance_set.float.disc"] = (
        f"float pair loop over {len(cloud)} uniform points",
        lambda: gd.distance_set(bodies["disc"], cloud),
    )
    # the window of sweep --body diamond --set perturbed --R 20 --jitter 0.2 --seed 7
    perturbed = gd.generate(gd.GeneratorSpec(kind="perturbed_lattice", R=20.0, jitter=0.2, seed=7))
    layers["distance_set.float.diamond"] = (
        f"float pair loop over the {len(perturbed)} perturbed lattice points of a diamond sweep",
        lambda: gd.distance_set(gd.diamond(), perturbed),
    )
    # erdos-bound --N 2000: points in [0, 45)^2 and tol 1e-12 * 45, about 2e6 distinct
    # distances; its own generator, so the later layers keep their inputs
    random2000 = np.random.default_rng(2000).uniform(0.0, 45.0, size=(2000, 2))
    layers["distance_set.float.random2000"] = (
        f"float pair loop over {len(random2000)} uniform points, as erdos-bound runs it",
        lambda: gd.distance_set(bodies["disc"], random2000, tol=1e-12 * 45),
    )
    layers["distance_set.float.pball2000"] = (
        f"float pair loop over the same {len(random2000)} points under the p = 1.5 ball",
        lambda: gd.distance_set(bodies["pball1.5"], random2000, tol=1e-12 * 45),
    )
    disc_lattice = gd.GeneratorSpec(kind="lattice", R=5.0)
    layers["run_sweep.float_lattice.disc"] = (
        "float run_sweep of the unit lattice under the disc at R = 5, 10, 20, 30",
        lambda: gd.run_sweep(bodies["disc"], disc_lattice, [5, 10, 20, 30]),
    )
    # the README moser command: N = 1..20, width 10, so R = 10 * 21 + 1
    moser_lattice = gd.generate(gd.GeneratorSpec(kind="lattice", R=211.0))
    cone, inner = gd.Cone(0.0, math.pi / 2), gd.Cone(math.pi / 8, 3 * math.pi / 8)
    layers["moser_count_check.square"] = (
        f"moser_count_check of {len(moser_lattice)} lattice points, N = 1..20, square",
        lambda: gd.moser_count_check(moser_lattice, bodies["square"], cone, inner, range(1, 21)),
    )
    pairs, aligned = [], []
    for k in range(100):
        p = gd.random_symmetric_polygon(2 + k % 7, seed=1000 + k)
        alpha = (0.5, 1.0, 1.5, 2.0)[k % 4]
        u = (int(rng.integers(-160, 161)) / 64, int(rng.integers(-160, 161)) / 64)
        pairs.append((p.vertices, gd.transform_polygon(p, alpha, u)))
        # the same polygon and scale under a translate that shares segments,
        # as the lemma trials build them: a homothety about the vertex w, or at
        # alpha = 1 the edge opposite vw carried onto it, shifted a quarter
        (vx, vy), (wx, wy) = p.vertices[:2]
        if alpha == 1:
            u = (vx + wx + (wx - vx) / 4, vy + wy + (wy - vy) / 4)
        else:
            u = ((1 - alpha) * wx, (1 - alpha) * wy)
        aligned.append((p, alpha, u))
    # the random translates share no segment, so this layer never reaches the
    # overlap path; it is kept as it is, comparable with earlier timings
    layers["boundary_intersection"] = (
        f"exact boundary_intersection of {len(pairs)} polygon/translate pairs",
        lambda: [gd.boundary_intersection(a, b) for a, b in pairs],
    )
    aligned_pairs = [(p, gd.transform_polygon(p, alpha, u)) for p, alpha, u in aligned]
    results = [gd.boundary_intersection(p, m) for p, m in aligned_pairs]
    n_segments = sum(len(r.maximal_segments) for r in results)
    layers["boundary_intersection.aligned"] = (
        f"exact boundary_intersection of {len(aligned)} edge-aligned pairs, polygon body "
        f"first ({n_segments} segments)",
        lambda: [gd.boundary_intersection(p, m) for p, m in aligned_pairs],
    )
    # the layers below time only their own call on these intersections
    layers["concurrence_check"] = (
        f"concurrence_check of {len(results)} edge-aligned intersections ({n_segments} segments)",
        lambda: [gd.concurrence_check(r, alpha, u) for r, (_, alpha, u) in zip(results, aligned)],
    )
    layers["direction_line_classes"] = (
        f"direction_line_classes of the same {len(results)} intersections",
        lambda: [gd.direction_line_classes(r) for r in results],
    )
    scans = []
    for k in range(12):
        body = (bodies["disc"], bodies["pball1.5"], gd.PBall(3.0, 1.0))[k % 3]
        alpha = 0.5 + 0.125 * k
        rho = abs(1 - alpha) + (2 * min(1.0, alpha)) * (k + 0.5) / 12
        scans.append((body, alpha, (rho * math.cos(k), rho * math.sin(k))))
    scan = gd.strictly_convex_intersection_count
    layers["strictly_convex_intersection_count.warm"] = (
        f"{len(scans)} root scans over three bodies, translates in the two-crossing range",
        lambda: [scan(b, a, x) for b, a, x in scans],
    )
    floor = [(b, 1.0, (1e-12 * math.cos(k), 1e-12 * math.sin(k)))
             for k, (b, _, _) in enumerate(scans)]
    layers["strictly_convex_intersection_count.floor"] = (
        f"{len(floor)} root scans over three bodies at alpha = 1 and |x| = 1e-12",
        lambda: [scan(b, a, x) for b, a, x in floor],
    )
    # the polygons of 200 lemma trials at seed 7, drawn as the batches draw them
    draws = []
    for k in range(200):
        trial_rng = gd.prng.Xorshift64Star(gd.prng.derive_seed(7, k))
        draws.append((2 + trial_rng.below(7), trial_rng.next_u64()))
    layers["random_symmetric_polygon"] = (
        f"random_symmetric_polygon for the {len(draws)} polygons of a lemma batch at seed 7",
        lambda: [gd.random_symmetric_polygon(n, s) for n, s in draws],
    )
    for name, which in (("polygon", "14"), ("strict", "strict")):
        layers[f"lemma.{name}"] = (
            f"run_lemma_checks({which!r}, 200, seed=7)",
            lambda which=which: gd.run_lemma_checks(which, 200, 7),
        )
    return layers


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", required=True, help="directory holding the gaugedist package")
    ap.add_argument("--quick", action="store_true", help="one timed run per layer")
    ap.add_argument("--out", help="write the JSON here as well as to stdout")
    args = ap.parse_args(argv)
    src = Path(args.src).resolve()
    if not (src / "gaugedist" / "__init__.py").is_file():
        print(f"no gaugedist package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy as np

    import gaugedist as gd

    repeats = 1 if args.quick else REPEATS
    out = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "repeats": repeats,
        "layers": {},
    }
    for name, (what, fn) in _layers(gd).items():
        fn()  # warm-up: imports, cached forms and grids
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        out["layers"][name] = {
            "what": what,
            "median_s": statistics.median(times),
            "min_s": min(times),
            "max_s": max(times),
        }
        print(f"{name:48s} {statistics.median(times) * 1e3:10.2f} ms", file=sys.stderr)
    text = json.dumps(out, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
