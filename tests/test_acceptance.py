"""Acceptance suite: one test per release criterion, printed pass/fail lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Every tolerance and trial count is pinned here; the runtime budgets
are asserted with time.perf_counter.
"""

import math
import time

import numpy as np

from gaugedist import (
    Cone,
    Disc,
    GeneratorSpec,
    PBall,
    diamond,
    erdos_bound,
    gauge_many,
    grid_distance_set,
    random_symmetric_polygon,
    run_lemma_checks,
    run_moser,
    run_sweep,
    square,
    taxicab_count,
    write_jsonl,
)
from gaugedist.experiments import _STRICT_BODIES
from gaugedist.prng import Xorshift64Star, derive_seed

from oracles import homothet_pair_count, raycast_gauge_many


def _report(name: str, elapsed: float, limit: float) -> None:
    print(f"[PASS] {name} ({elapsed:.2f}s < {limit:.0f}s)")


def test_criterion_1_taxicab_lattice_counts():
    t0 = time.perf_counter()
    assert taxicab_count(50, "square")["n_distances"] == 51
    assert taxicab_count(50, "diamond")["n_distances"] == 101
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report("criterion 1: corner-lattice counts 51 (square) / 101 (diamond), exact", elapsed, 5)


def test_criterion_2_erdos_lower_bound():
    t0 = time.perf_counter()
    for body in (square(), diamond(), Disc(1.0)):
        rep = erdos_bound(body, 400, seed=7)
        assert rep["witnesses"]["lattice"]["n_distances"] >= 20, type(body).__name__
        assert not rep["flagged"]
        # same count straight from the exact grid path
        assert rep["witnesses"]["lattice"]["n_distances"] == len(
            grid_distance_set(body, 20, 20, 1.0, exact=True)
        )
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report("criterion 2: n=20 lattice has >= 20 distinct distances for square/diamond/disc", elapsed, 5)


def test_criterion_3_dichotomy_sweep():
    t0 = time.perf_counter()
    spec = GeneratorSpec(kind="lattice", R=5.0)
    radii = [5, 10, 20, 40]
    for body in (square(), diamond()):
        rows = run_sweep(body, spec, radii, exact=True)
        for r in rows:
            assert r.min_gap == 1, (type(body).__name__, r.R)
    disc_rows = run_sweep(Disc(1.0), spec, radii, exact=True)
    gaps = [r.min_gap for r in disc_rows]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.05
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report("criterion 3: polygon gaps stay 1; disc gap decays below 0.05 by R=40", elapsed, 60)


def test_criterion_4_concurrence_trials():
    t0 = time.perf_counter()
    batch = run_lemma_checks("14", 1000, seed=7)
    assert batch.violations == 0
    assert all(r["max_concurrence_error"] <= 1e-9 for r in batch.rows)
    # the alpha == 1 sub-suite ran, with coincidences flagged rather than failed
    assert any(r["alpha"] == 1.0 for r in batch.rows)
    assert batch.segments_flagged > 0
    assert batch.segments_checked > 200  # the batch is far from vacuous
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(
        f"criterion 4: 1000 concurrence trials, 0 violations "
        f"({batch.segments_checked} segments, {batch.segments_flagged} flagged)",
        elapsed,
        30,
    )


def test_criterion_5_direction_class_bound():
    t0 = time.perf_counter()
    batch = run_lemma_checks("13", 1000, seed=7)
    assert batch.violations == 0
    assert batch.max_classes <= 2
    assert any(r["classes"] == 2 for r in batch.rows)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(
        f"criterion 5: 1000 trials, supporting-line classes never exceed 2 "
        f"(max seen {batch.max_classes})",
        elapsed,
        30,
    )


def test_criterion_6_strictly_convex_bound():
    t0 = time.perf_counter()
    batch = run_lemma_checks("strict", 500, seed=7)
    assert batch.violations == 0
    assert batch.max_count <= 2
    counts = [r["count"] for r in batch.rows]
    assert counts.count(2) > 100  # crossings actually happen
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    for r in batch.rows:  # every row resolved, with the two-point closed form's count
        body = _STRICT_BODIES[r["trial"] % 3]
        assert r["count"] == homothet_pair_count(body, r["alpha"], r["u"]), r
        assert "unresolved" not in r["flags"], r
    _report(
        f"criterion 6: 500 strictly-convex trials at resolution 1e-4, counts <= 2 "
        f"(max {batch.max_count})",
        elapsed,
        60,
    )


def test_criterion_7_gauge_axiom_suite():
    t0 = time.perf_counter()
    bodies = [square(), diamond(), Disc(0.75), Disc(1.0), PBall(1.5, 1.0), PBall(3.0, 1.25)]
    bodies += [random_symmetric_polygon(2 + k % 9, seed=derive_seed(99, k)) for k in range(10)]
    per_body = 10000 // len(bodies) + 1
    total = 0
    for bi, body in enumerate(bodies):
        rng = Xorshift64Star(derive_seed(1234, bi))
        X = np.array([[rng.uniform(-10, 10), rng.uniform(-10, 10)] for _ in range(per_body)])
        Y = np.array([[rng.uniform(-10, 10), rng.uniform(-10, 10)] for _ in range(per_body)])
        alphas = np.array([4.0 * rng.random() for _ in range(per_body)])
        keep = (np.abs(X).sum(axis=1) > 0) & (np.abs(Y).sum(axis=1) > 0)
        X, Y, alphas = X[keep], Y[keep], alphas[keep]
        gx = gauge_many(body, X)
        gy = gauge_many(body, Y)
        # homogeneity
        gax = gauge_many(body, alphas[:, None] * X)
        assert np.all(np.abs(gax - alphas * gx) <= 1e-12 * (1 + gx) * np.maximum(1.0, alphas))
        # symmetry, exactly
        assert np.array_equal(gauge_many(body, -X), gx)
        # triangle inequality
        gsum = gauge_many(body, X + Y)
        assert np.all(gsum <= gx + gy + 1e-12 * (1 + gx + gy))
        # ray-cast oracle equivalence for polygons
        if hasattr(body, "vertices"):
            oracle = raycast_gauge_many(body.vertices, X)
            assert np.all(np.abs(oracle - gx) <= 1e-10 * (1 + gx))
        total += len(X)
    assert total >= 10000
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(f"criterion 7: gauge axioms + ray-cast oracle over {total} samples", elapsed, 10)


def test_criterion_8_moser_cone_counts():
    t0 = time.perf_counter()
    rows = run_moser(
        square(),
        Cone(0.0, math.pi / 2),
        Cone(math.pi / 8, 3 * math.pi / 8),
        range(1, 21),
    )
    assert not any(r.truncated for r in rows)
    assert all(r.met for r in rows)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report("criterion 8: annulus/cone counts beat N*(angle span) for N=1..20", elapsed, 10)


def test_criterion_9_determinism(tmp_path):
    t0 = time.perf_counter()
    for which, trials in (("14", 1000), ("13", 1000), ("strict", 500)):
        first = tmp_path / f"{which}_a.jsonl"
        second = tmp_path / f"{which}_b.jsonl"
        write_jsonl(run_lemma_checks(which, trials, seed=7).rows, first, timestamp=False)
        write_jsonl(run_lemma_checks(which, trials, seed=7).rows, second, timestamp=False)
        assert first.read_bytes() == second.read_bytes(), which
    elapsed = time.perf_counter() - t0
    _report("criterion 9: reruns of criteria 4-6 are byte-identical", elapsed, 999)
