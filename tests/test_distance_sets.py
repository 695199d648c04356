import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaugedist import (
    Annulus,
    Cone,
    Disc,
    DistanceSet,
    GeneratorSpec,
    PBall,
    PointSet,
    annulus_cone_points,
    diamond,
    distance_lists_from_two_points,
    distance_set,
    gauge,
    gauge_exact,
    gauge_many,
    generate,
    grid_distance_set,
    min_gap,
    moser_count_check,
    random_symmetric_polygon,
    square,
)
from gaugedist import distance_sets
from gaugedist.distance_sets import _cluster, _disc_roots, _exact_keys, _int_dtype, _key_law

from oracles import (
    brute_exact_counts,
    brute_pairwise_values,
    disc_int_key_set,
    disc_root,
    exact_polygon_gauge,
    full_integer_keys,
    greedy_cluster,
    moser_counts,
    row_pair_values,
)


def lattice_points(n):
    return np.array([[i, j] for i in range(n + 1) for j in range(n + 1)], dtype=float)


def grid_points(cols, rows, spacing):
    return np.array(
        [[i * spacing, j * spacing] for i in range(cols) for j in range(rows)], dtype=float
    )


# dyadic rationals m * 2**e: exact as doubles, mixed denominators
dyadic = st.builds(
    lambda m, e: m * 2.0**e, st.integers(-(2**12), 2**12), st.integers(-52, 4)
)
dyadic_spacing = st.builds(lambda m, e: m * 2.0**e, st.sampled_from([1, 3, 5]), st.integers(-6, 3))


class TestDistanceSet:
    def test_square_body_small_grid(self):
        ds = distance_set(square(), lattice_points(2), exact=True)
        assert ds.values == (0, 1, 2)
        assert sum(ds.multiplicities) == 9 * 10 // 2

    def test_single_pair_disc(self):
        ds = distance_set(Disc(1.0), np.array([[0.0, 0.0], [3.0, 4.0]]))
        assert len(ds) == 2
        assert ds.values[0] == 0.0 and abs(ds.values[1] - 5.0) < 1e-12

    def test_single_point(self):
        ds = distance_set(square(), np.array([[2.0, 1.0]]))
        assert ds.values == (0.0,)
        assert ds.multiplicities == (1,)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            distance_set(square(), np.empty((0, 2)))

    def test_pball_exact_rejected(self):
        with pytest.raises(ValueError):
            distance_set(PBall(1.5, 1.0), lattice_points(1), exact=True)

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_points_rejected(self, bad, exact):
        # a float tolerance of 1e-9 * inf would merge every distance into one
        with pytest.raises(ValueError, match="non-finite"):
            distance_set(square(), [[bad, 0.0], [0.0, 0.0], [1.0, 0.0]], exact=exact)

    @pytest.mark.parametrize("evaluate", [gauge_many, distance_set])
    def test_points_need_two_coordinates(self, evaluate):
        with pytest.raises(ValueError, match=r"points must have shape \(n, 2\)"):
            evaluate(square(), np.zeros((3, 3)))

    def test_matches_brute_force_oracle(self):
        pts = np.array([[0.0, 0.0], [1.5, 0.25], [-2.0, 1.0], [0.5, -3.0], [2.0, 2.0]])
        for body in (square(), diamond(), Disc(1.0), PBall(3.0, 1.0)):
            vals = brute_pairwise_values(lambda v: gauge(body, v), pts)
            ds = distance_set(body, pts, tol=1e-12)
            # every brute value is within tol of a clustered representative
            for v in vals:
                assert any(0 <= v - rep <= ds.tol + 1e-15 for rep in ds.values)
            assert sum(ds.multiplicities) == len(vals)

    def test_translation_invariance(self):
        pts = np.array([[0.0, 0.0], [1.0, 2.0], [-1.5, 0.5], [3.0, -1.0]])
        body = diamond()
        base = distance_set(body, pts, tol=1e-9)
        shifted = distance_set(body, pts + np.array([17.25, -3.5]), tol=1e-9)
        assert np.allclose(base.values, shifted.values, rtol=0, atol=1e-9)

    def test_scaling_law(self):
        pts = np.array([[0.0, 0.0], [1.0, 2.0], [-1.5, 0.5], [3.0, -1.0]])
        lam = 3.5
        body = square()
        base = distance_set(body, pts, tol=1e-12)
        scaled = distance_set(body, lam * pts, tol=1e-12)
        assert np.allclose(np.array(scaled.values), lam * np.array(base.values), rtol=1e-9)

    def test_square_body_integer_lattice_values_are_integers(self):
        ds = distance_set(square(), lattice_points(3), exact=True)
        assert all(isinstance(v, Fraction) and v.denominator == 1 for v in ds.values)

    def test_exact_disc_keeps_distances_whose_roots_round_together(self):
        # the differences (10, 10) and (10, 10 + 2**-49) have distinct exact
        # squares whose square roots round to one double
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [10.0, 10.0], [11.0, 11.0 + 2.0**-49]])
        ds = distance_set(Disc(1.0), pts, exact=True)
        assert len(ds) == 7
        assert sum(ds.multiplicities) == 10
        assert list(ds.values) == sorted(ds.values)
        assert min_gap(ds) == 0.0

    def test_cluster_count_monotone_in_tol(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(-4, 4, size=(30, 2))
        body = Disc(1.0)
        counts = [len(distance_set(body, pts, tol=t)) for t in (0.0, 1e-6, 1e-3, 0.1, 1.0)]
        assert counts == sorted(counts, reverse=True)


class TestGridFastPath:
    @pytest.mark.parametrize("body", [square(), diamond(), Disc(1.0)])
    def test_grid_matches_pair_loop_exact(self, body):
        pts = lattice_points(3)
        slow = distance_set(body, pts, exact=True)
        fast = grid_distance_set(body, 4, 4, 1.0, exact=True)
        assert slow.values == fast.values
        assert slow.multiplicities == fast.multiplicities

    def test_grid_matches_pair_loop_float(self):
        body = PBall(1.5, 1.0)
        pts = lattice_points(3)
        slow = distance_set(body, pts, tol=1e-9)
        fast = grid_distance_set(body, 4, 4, 1.0, exact=False, tol=1e-9)
        assert np.allclose(slow.values, fast.values, rtol=0, atol=1e-9)
        assert slow.multiplicities == fast.multiplicities

    @settings(max_examples=40, deadline=None)
    @given(
        cols=st.integers(1, 6),
        rows=st.integers(1, 6),
        spacing=dyadic_spacing,
        body=st.one_of(
            st.sampled_from([square(), diamond(), Disc(1.0), Disc(0.75)]),
            st.builds(random_symmetric_polygon, st.integers(2, 6), st.integers(0, 10**6)),
        ),
    )
    def test_drawn_grid_matches_pair_loop_exact(self, cols, rows, spacing, body):
        fast = grid_distance_set(body, cols, rows, spacing, exact=True)
        slow = distance_set(body, grid_points(cols, rows, spacing), exact=True)
        assert fast == slow

    @settings(max_examples=40, deadline=None)
    @given(
        cols=st.integers(1, 6),
        rows=st.integers(1, 6),
        spacing=dyadic_spacing,
        p=st.sampled_from([1.25, 1.5, 2.0, 3.0, 7.5]),
        tol=st.sampled_from([None, 0.0, 1e-9]),
    )
    def test_drawn_grid_matches_pair_loop_float(self, cols, rows, spacing, p, tol):
        body = PBall(p, 1.0)
        fast = grid_distance_set(body, cols, rows, spacing, tol=tol, exact=False)
        slow = distance_set(body, grid_points(cols, rows, spacing), tol=tol)
        assert fast == slow

    @pytest.mark.parametrize("spacing", [0.0, -1.0, math.inf, math.nan])
    @pytest.mark.parametrize("exact", [True, False])
    def test_spacing_must_be_positive_and_finite(self, spacing, exact):
        # a negative exact spacing gave keys in increasing order but values in decreasing order
        with pytest.raises(ValueError, match="spacing"):
            grid_distance_set(square(), 3, 3, spacing, exact=exact)

    @pytest.mark.parametrize("cols, rows", [(0, 3), (3, 0)])
    def test_grid_needs_a_point_per_side(self, cols, rows):
        with pytest.raises(ValueError, match="at least one point per side"):
            grid_distance_set(square(), cols, rows)

    def test_rectangular_grid_spacing(self):
        ds = grid_distance_set(square(), 3, 2, 0.5, exact=True)
        assert ds.values == (0, Fraction(1, 2), 1)
        assert sum(ds.multiplicities) == 6 * 7 // 2


class TestMinGap:
    def test_simple(self):
        ds = grid_distance_set(square(), 3, 3, 1.0, exact=True)
        assert min_gap(ds) == 1

    def test_none_for_singleton(self):
        ds = distance_set(square(), np.array([[1.0, 1.0]]))
        assert min_gap(ds) is None

    def test_disc_small_grid_gap_oracle(self):
        # brute force on {0..4}^2: tightest pair is sqrt(18)-sqrt(17)
        ds = distance_set(Disc(1.0), lattice_points(4), exact=True)
        expected = brute_pairwise_values(
            lambda v: math.hypot(v[0], v[1]), lattice_points(4)
        )
        distinct = sorted(set(round(v, 9) for v in expected))
        gaps = [b - a for a, b in zip(distinct, distinct[1:])]
        assert abs(min_gap(ds) - min(gaps)) < 1e-9
        assert abs(min_gap(ds) - (math.sqrt(18) - math.sqrt(17))) < 1e-12

    def test_disc_grid_shows_sqrt50_sqrt49_gap(self):
        ds = distance_set(Disc(1.0), lattice_points(7), exact=True)
        gaps = {round(b - a, 12) for a, b in zip(ds.values, ds.values[1:])}
        assert round(math.sqrt(50) - 7.0, 12) in gaps

    @pytest.mark.parametrize("R", [5, 10, 20, 40])
    def test_square_lattice_gap_constant(self, R):
        side = 2 * R + 1
        ds = grid_distance_set(square(), side, side, 1.0, exact=True)
        assert min_gap(ds) == 1


class TestAnnulusCone:
    def test_invariants(self):
        with pytest.raises(ValueError):
            Annulus(-1)
        with pytest.raises(ValueError, match="annulus width inf"):
            Annulus(1, width=math.inf)
        with pytest.raises(ValueError):
            Cone(1.0, 1.0)
        with pytest.raises(ValueError):
            Cone(0.0, 7.0)
        assert Annulus(2, width=10).inner == 20 and Annulus(2).outer == 30

    def test_first_quadrant_box_count(self):
        ps = generate(GeneratorSpec(kind="lattice", R=12.0))
        sub = annulus_cone_points(ps, square(), 0, Cone(0.0, math.pi / 2))
        assert len(sub) == 81
        assert np.all(sub.points[:, 0] >= 1) and np.all(sub.points[:, 1] >= 1)

    def test_empty_set(self):
        ps = PointSet(np.empty((0, 2)), 5.0)
        assert len(annulus_cone_points(ps, square(), 0, Cone(0.0, 1.0))) == 0

    def test_annulus_beyond_window(self):
        ps = generate(GeneratorSpec(kind="lattice", R=5.0))
        assert len(annulus_cone_points(ps, square(), 100, Cone(0.0, 1.0))) == 0

    def test_strict_boundaries(self):
        # gauge exactly 10 or angle exactly 0 are excluded
        ps = PointSet(np.array([[10.0, 0.0], [5.0, 0.0], [5.0, 5.0]]), 20.0)
        sub = annulus_cone_points(ps, square(), 0, Cone(0.0, math.pi / 2))
        assert {tuple(p) for p in sub.points} == {(5.0, 5.0)}

    def test_wrapping_cone(self):
        ps = PointSet(np.array([[5.0, 0.5], [5.0, -0.5], [-5.0, 0.0]]), 20.0)
        sub = annulus_cone_points(ps, Disc(1.0), 0, Cone(-math.pi / 4, math.pi / 4))
        assert len(sub) == 2


class TestDistanceLists:
    def test_two_points_at_gauge_one(self):
        sub = PointSet(np.array([[1.0, 0.0], [0.0, 1.0]]), 2.0)
        d, dprime = distance_lists_from_two_points((0, 0), (0, 0), sub, square())
        assert d == (1.0,) and dprime == (1.0,)

    def test_disjoint_base_points(self):
        sub = PointSet(np.array([[1.0, 0.0]]), 2.0)
        d, dprime = distance_lists_from_two_points((0, 0), (2, 0), sub, square())
        assert d == (1.0,) and dprime == (1.0,)

    def test_annulus_lists_are_short(self):
        # distances from +-(1,0) to annulus points take few distinct values:
        # they fall in an interval of width independent of N
        ps = generate(GeneratorSpec(kind="lattice", R=25.0))
        gauges = np.max(np.abs(ps.points), axis=1)
        sub = PointSet(ps.points[(gauges > 10) & (gauges < 20)], ps.R)
        d, dprime = distance_lists_from_two_points((1, 0), (-1, 0), sub, square())
        assert d == tuple(float(k) for k in range(10, 21))
        assert dprime == tuple(float(k) for k in range(10, 21))
        assert len(d) <= 25 and len(dprime) <= 25

    def test_empty_subset(self):
        sub = PointSet(np.empty((0, 2)), 1.0)
        assert distance_lists_from_two_points((0, 0), (1, 0), sub, square()) == ((), ())


class TestMoser:
    def test_lattice_counts_meet_bound(self):
        ps = generate(GeneratorSpec(kind="lattice", R=100.0))
        cone = Cone(0.0, math.pi / 2)
        inner = Cone(math.pi / 8, 3 * math.pi / 8)
        rows = moser_count_check(ps, square(), cone, inner, range(0, 6))
        by_n = {r.N: r for r in rows}
        assert by_n[5].count == 579  # frozen from direct enumeration
        assert all(r.met for r in rows if not r.truncated)
        assert by_n[0].met and by_n[0].bound == 0.0

    def test_window_truncation_flag(self):
        ps = generate(GeneratorSpec(kind="lattice", R=12.0))
        cone = Cone(0.0, math.pi / 2)
        inner = Cone(math.pi / 8, 3 * math.pi / 8)
        rows = moser_count_check(ps, square(), cone, inner, [0, 3])
        assert not rows[0].truncated
        assert rows[1].truncated  # annulus (30, 40) cannot fit in R = 12

    def test_truncation_is_decided_exactly(self):
        # width * (N + 1) * reach is 30: an annulus reaching exactly R fits, one
        # reaching a double past R does not
        cone, inner = Cone(0.0, math.pi / 2), Cone(math.pi / 8, 3 * math.pi / 8)
        for R, truncated in ((30.0, False), (math.nextafter(30.0, 0.0), True)):
            ps = PointSet(np.zeros((1, 2)), R)
            [row] = moser_count_check(ps, square(), cone, inner, [2])
            assert row.truncated is truncated, R

    def test_empty_set_fails_bounds(self):
        ps = PointSet(np.empty((0, 2)), 1000.0)
        cone = Cone(0.0, math.pi / 2)
        inner = Cone(math.pi / 8, 3 * math.pi / 8)
        rows = moser_count_check(ps, square(), cone, inner, [1, 2])
        assert all(r.count == 0 and not r.met for r in rows)

    def test_inner_cone_must_be_strict(self):
        ps = generate(GeneratorSpec(kind="lattice", R=30.0))
        with pytest.raises(ValueError):
            moser_count_check(ps, square(), Cone(0, 1), Cone(0, 0.5), [1])

    @staticmethod
    def assert_matches_oracle(ps, body, cone, inner, N_range, width):
        rows = moser_count_check(ps, body, cone, inner, N_range, width)
        expected = moser_counts(
            ps.points.tolist(), gauge_many(body, ps.points).tolist(),
            inner.theta1, inner.theta2, N_range, width,
        )
        assert [r.N for r in rows] == list(N_range)
        assert {r.N: r.count for r in rows} == expected
        assert all(type(r.count) is int and r.met == (r.count >= r.bound) for r in rows)

    @settings(max_examples=40, deadline=None)
    @given(
        body=st.sampled_from([square(), diamond(), Disc(1.0), Disc(0.75), PBall(1.5, 1.0), PBall(3.0, 2.0)]),
        unit=st.sampled_from([0.25, 0.5, 1.0, 1.25]),
        extent=st.integers(-1, 24),
        steps=st.lists(st.tuples(st.integers(-24, 24), st.integers(-24, 24)), max_size=40),
        cones=st.sampled_from([
            (Cone(0.0, math.pi / 2), Cone(math.pi / 8, 3 * math.pi / 8)),
            (Cone(-math.pi / 2, math.pi / 2), Cone(-math.pi / 4, math.pi / 4)),
            (Cone(0.0, 2 * math.pi), Cone(math.pi / 2, 3 * math.pi / 2)),
            (Cone(-math.pi, math.pi), Cone(-3.0, 0.5)),
        ]),
        width=st.sampled_from([0.75, 1.0, 2.5, 3.0, 7.5, 10.0]),
        N_range=st.lists(st.integers(0, 12), max_size=8),
    )
    def test_matches_point_by_point_oracle(self, body, unit, extent, steps, cones, width, N_range):
        # a full grid of step unit (none for extent -1) and loose points on it:
        # many sit exactly on an annulus boundary or a cone edge
        ks = np.arange(-extent, extent + 1)
        grid = [(i, j) for i in ks for j in ks]
        ps = PointSet(np.array(grid + steps, dtype=float).reshape(-1, 2) * unit, 31.0)
        self.assert_matches_oracle(ps, body, *cones, N_range, width)

    def test_empty_point_set_matches_oracle(self):
        ps = PointSet(np.empty((0, 2)), 5.0)
        for body in (square(), Disc(1.0), PBall(1.5, 1.0)):
            self.assert_matches_oracle(
                ps, body, Cone(0.0, math.pi / 2), Cone(math.pi / 8, 3 * math.pi / 8), [0, 1, 2], 2.5
            )

    def test_lattice_points_on_annulus_boundaries_are_excluded(self):
        # square gauge max(|x|, |y|): the lattice points at gauge 10, 20, 30 lie
        # exactly on width*N and belong to no open annulus
        ps = generate(GeneratorSpec(kind="lattice", R=45.0))
        cone, inner = Cone(0.0, math.pi / 2), Cone(math.pi / 8, 3 * math.pi / 8)
        g = gauge_many(square(), ps.points)
        on_boundary = np.isin(g, [10.0, 20.0, 30.0, 40.0]) & inner.contains(ps.points)
        assert on_boundary.sum() > 0
        self.assert_matches_oracle(ps, square(), cone, inner, range(0, 4), 10.0)
        rows = moser_count_check(ps, square(), cone, inner, range(0, 4), 10.0)
        in_open = inner.contains(ps.points) & (g % 10 != 0)
        assert sum(r.count for r in rows) == int((in_open & (g < 40)).sum())


@settings(max_examples=25, deadline=None)
@given(
    dx=st.floats(-20, 20),
    dy=st.floats(-20, 20),
)
def test_distance_set_of_two_points_is_the_gauge(dx, dy):
    pts = np.array([[0.0, 0.0], [dx, dy]])
    body = diamond()
    ds = distance_set(body, pts, tol=0.0)
    expected = gauge(body, (dx, dy))
    if expected == 0.0:
        assert ds.values == (0.0,)
    else:
        assert len(ds) == 2 and ds.values[1] == expected


@st.composite
def near_duplicate_runs(draw):
    """Sorted floats made of short runs whose steps sit around the tested tols."""
    vals = []
    for base in draw(st.lists(st.floats(0, 10), min_size=1, max_size=15)):
        step = draw(st.sampled_from([0.0, 1e-12, 4e-10, 1e-9, 3e-4, 1e-3, 0.3, 1.0]))
        vals.extend(base + k * step for k in range(draw(st.integers(1, 8))))
    return sorted(vals)


@settings(max_examples=200, deadline=None)
@given(
    vals=near_duplicate_runs(),
    tol=st.sampled_from([0.0, 1e-9, 1e-3, 1.0]),
    weighted=st.booleans(),
    data=st.data(),
)
def test_cluster_matches_greedy_loop(vals, tol, weighted, data):
    weights = None
    if weighted:
        weights = data.draw(st.lists(st.integers(1, 9), min_size=len(vals), max_size=len(vals)))
    firsts, counts, _ = _cluster(np.array(vals), tol, weights)
    assert (firsts.tolist(), counts.tolist()) == greedy_cluster(vals, tol, weights)


@settings(max_examples=200, deadline=None)
@given(
    pairs=st.lists(st.tuples(st.integers(-20, 20), st.integers(1, 9)), min_size=1, max_size=40),
    big=st.booleans(),
    weighted=st.booleans(),
)
@example(pairs=[(7, 2)], big=False, weighted=True)
@example(pairs=[(7, 2)], big=True, weighted=True)
@example(pairs=[(3, 1), (-3, 4)], big=False, weighted=True)
@example(pairs=[(3, 1), (-3, 4)], big=True, weighted=False)
@example(pairs=[(4, 2)] * 5, big=False, weighted=True)
@example(pairs=[(4, 2)] * 5, big=True, weighted=True)
@example(pairs=[(4, 1)] * 5, big=True, weighted=False)
@example(pairs=[(1, 1), (2, 3), (2, 1), (2, 5)], big=True, weighted=True)
def test_cluster_at_tol_0_sums_the_weights_of_each_distinct_key(pairs, big, weighted):
    """Unsorted int64 keys, or Python ints beyond int64 (object dtype), with
    weights or, as exact pairs have none, each key counting once."""
    keys = [k * 2**70 + 1 if big else k for k, _ in pairs]
    weights = [w for _, w in pairs] if weighted else None
    want = Counter()
    for k, w in zip(keys, weights or [1] * len(keys)):
        want[k] += w
    arr = np.array(keys, dtype=object if big else np.int64)
    firsts, counts, used = _cluster(arr, 0, None if weights is None else np.array(weights))
    assert firsts.tolist() == sorted(want) and all(type(k) is int for k in firsts.tolist())
    assert counts.tolist() == [want[k] for k in sorted(want)] and used == 0.0


@settings(max_examples=200, deadline=None)
@given(
    vals=near_duplicate_runs(),
    tol=st.sampled_from([None, 0.0, 1e-9, 1e-3, 1.0]),
    weighted=st.booleans(),
    data=st.data(),
)
def test_cluster_of_shuffled_values_matches_greedy_loop(vals, tol, weighted, data):
    """Unsorted floats: the clusters of their sorted order, tol None meaning 1e-9
    times the largest; without weights the values are sorted in place."""
    weights = [1] * len(vals)
    if weighted:
        weights = data.draw(st.lists(st.integers(1, 9), min_size=len(vals), max_size=len(vals)))
    pairs = data.draw(st.permutations(list(zip(vals, weights))))
    arr = np.array([v for v, _ in pairs])
    firsts, counts, used = _cluster(arr, tol, np.array([w for _, w in pairs]) if weighted else None)
    want_tol = 1e-9 * vals[-1] if tol is None else tol
    assert used == want_tol
    ordered = sorted(pairs)
    want = greedy_cluster([v for v, _ in ordered], want_tol, [w for _, w in ordered])
    assert (firsts.tolist(), counts.tolist()) == want
    if not weighted:
        assert arr.tolist() == vals


@pytest.mark.parametrize("vals, tol, wide", [
    # one run of gaps below tol, four times as wide as tol, between singletons
    pytest.param([-5.0] + [0.3 * k for k in range(14)] + [10.0, 20.0], 1.0, True, id="vals0-1.0"),
    # several wide runs, three values and longer, with equal values inside
    pytest.param([0.0, 0.6, 1.2, 1.2, 5.0, 5.9, 6.8, 30.0, 30.0, 30.99, 31.98], 1.0, True,
                 id="vals1-1.0"),
    pytest.param([k * 4e-10 for k in range(30)] + [1.0, 1.0 + 9e-10, 1.0 + 1.8e-9], 1e-9, True,
                 id="vals2-1e-09"),
    # a wide run at the first value, one ending at the last, one over every value
    pytest.param([0.0, 0.6, 1.2, 1.8, 2.4, 10.0], 1.0, True, id="wide-first"),
    pytest.param([-5.0, 0.0, 0.6, 1.2, 1.8, 2.4], 1.0, True, id="wide-last"),
    pytest.param([0.3 * k for k in range(10)], 1.0, True, id="wide-all"),
    # runs too short or too narrow to walk: one value, two, all equal
    pytest.param([3.0], 1.0, False, id="one"),
    pytest.param([3.0, 3.5], 1.0, False, id="two-near"),
    pytest.param([3.0, 5.0], 1.0, False, id="two-apart"),
    pytest.param([2.0] * 6, 0.0, False, id="equal-tol-0"),
    pytest.param([2.0] * 6, 1.0, False, id="equal-tol-1"),
])
@pytest.mark.parametrize("weighted", [False, True])
def test_cluster_splits_runs_wider_than_tol_as_the_greedy_loop(vals, tol, wide, weighted):
    gaps = np.diff(vals)
    # wide: a run whose gaps are all <= tol but whose span is not
    assert wide == any(vals[j] - vals[i] > tol and np.all(gaps[i:j] <= tol)
                       for i in range(len(vals)) for j in range(i + 1, len(vals)))
    weights = [1 + k % 3 for k in range(len(vals))] if weighted else None
    arr_weights = None if weights is None else np.array(weights)
    firsts, counts, _ = _cluster(np.array(vals), tol, arr_weights)
    assert (firsts.tolist(), counts.tolist()) == greedy_cluster(vals, tol, weights)


def assert_pair_loop_matches_rows(body, pts):
    """The float pair loop's values, sorted, are the row-at-a-time oracle's bit
    for bit, and its tol-0 set is the oracle's values clustered."""
    seen, build = [], distance_sets._distance_set

    def capture(n, vals, *rest):
        seen.append(np.sort(vals))
        return build(n, vals, *rest)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(distance_sets, "_distance_set", capture)
        ds = distance_set(body, pts, tol=0.0)
    want = np.sort(np.concatenate(([0.0], row_pair_values(body, pts))))
    assert seen[0].view(np.int64).tolist() == want.view(np.int64).tolist()
    keys, counts, _ = _cluster(want, 0.0)
    counts[0] += len(pts) - 1
    assert ds.keys.tobytes() == keys.tobytes() and ds.counts.tolist() == counts.tolist()


PAIR_LOOP_BODIES = [square(), diamond(), random_symmetric_polygon(5, 11), Disc(1.0),
                    PBall(1.5, 1.0), PBall(40.0, 1.0)]


@st.composite
def pair_loop_cases(draw):
    """A body and up to 64 points of either parity, with repeated points; under
    PBall(40, 1) near 1e10 or 1e-10, where gauge_many rescales rows."""
    body = draw(st.sampled_from(PAIR_LOOP_BODIES))
    coord = st.floats(-7.0, 7.0)
    pts = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=48))
    pts += draw(st.lists(st.sampled_from(pts), max_size=16))
    pts = np.array(pts)
    if isinstance(body, PBall) and body.p == 40.0:
        pts *= draw(st.sampled_from([1e10, 1e-10]))
    return body, pts


@settings(max_examples=150, deadline=None)
@given(case=pair_loop_cases())
@example(case=(square(), np.array([[0.0, 0.0]])))
@example(case=(diamond(), np.array([[0.1, 0.2], [0.3, -0.7]])))
@example(case=(Disc(1.0), np.array([[0.1, 0.2], [0.3, -0.7], [1 / 3, 2 / 3]])))
@example(case=(PBall(40.0, 1.0), np.array([[1e10, 3e10], [-2e10, 1 / 3], [0.5e10, 0.0]])))
@example(case=(PBall(40.0, 1.0), np.array([[1e-10, 3e-10], [-2e-10, 0.0], [0.0, 0.0], [0.0, 0.0]])))
def test_float_pair_loop_values_are_the_row_loops(case):
    """Pairs enumerated by cyclic shift, some as p_i - p_j, give the doubles of
    the loop over rows, which takes every pair as p_j - p_i with j > i."""
    assert_pair_loop_matches_rows(*case)


@pytest.mark.parametrize(
    "body", [square(), random_symmetric_polygon(6, 8), Disc(1.0), PBall(1.5, 1.0)],
    ids=["square", "polygon12", "disc", "pball1.5"],
)
def test_float_pair_loop_matches_a_row_at_a_time_loop_bit_for_bit(body):
    """Past one block of pairs: 300 and 301 points take three blocks of
    shifts, and 300 the half shift; a coincident pair and non-dyadic
    coordinates."""
    rng = np.random.default_rng(20)
    for n in (300, 301):
        pts = rng.uniform(-7.0, 7.0, (n, 2))
        pts[1] = pts[0]
        assert (n // 2) > distance_sets._PAIR_BLOCK // n  # more shifts than one block
        assert_pair_loop_matches_rows(body, pts)


@pytest.mark.parametrize("n", [30, 31])
def test_float_pair_loop_with_one_shift_per_block(monkeypatch, n):
    """A block smaller than one shift still takes a whole shift per call."""
    monkeypatch.setattr(distance_sets, "_PAIR_BLOCK", 8)
    pts = np.random.default_rng(n).uniform(-1.0, 1.0, (n, 2)) / 3
    for body in PAIR_LOOP_BODIES:
        assert_pair_loop_matches_rows(body, pts)


@pytest.mark.parametrize("n", [1, 2, 30, 31])
@pytest.mark.parametrize("scale, tiny, kinds", [
    (1.0, False, "iOi"), (0.3, True, "OOO"), (0.3, False, "iOu"),
], ids=["int64", "object", "limbs"])
def test_exact_pair_walk_with_one_shift_per_block(monkeypatch, n, scale, tiny, kinds):
    """The exact walk in blocks of one whole shift, then for even n the half
    shift, gives the brute-force sets of dyadic points (30 and 31 with a
    coincident pair).  The square's keys are int64, and the random 10-gon's,
    from its wide integer form, Python ints.  Scaled by 0.3, whose double has
    a 54-bit denominator, the points' disc keys pass int64 while their
    differences do not, so they are uint64 limbs; a first point 0.3 * 2**-30
    widens the common denominator by 24 bits, and every key, past int64,
    takes Python ints."""
    monkeypatch.setattr(distance_sets, "_PAIR_BLOCK", 8)
    seen, build = [], distance_sets._distance_set

    def capture(n, vals, *rest):
        seen.append(vals.dtype.kind)
        return build(n, vals, *rest)

    monkeypatch.setattr(distance_sets, "_distance_set", capture)
    pts = [(scale * int(a) / 64, scale * int(b) / 64)
           for a, b in np.random.default_rng(n).integers(-256, 257, (n, 2))]
    if tiny:
        pts[0] = (0.3 * 2.0**-30, pts[0][1])
    if n > 2:
        pts[-1] = pts[0]
    for body in (square(), random_symmetric_polygon(5, 11), Disc(1.0)):
        assert_matches_oracle(body, pts)
    # one point has only the zero key, int64 for every body but the 10-gon
    assert "".join(seen) == (kinds if n > 1 else "iOi")


def test_exact_key_dtype_is_fixed_by_the_widest_difference():
    """Shift 1 of these four points has differences up to L, whose disc keys
    fit int64; the half shift has 2L, whose key 49 * 2**58 does not.  The key
    array takes uint64 limbs before the walk, and every block fills it."""
    L = 7 * 2**28
    ds = distance_set(Disc(1.0), [(0, 0), (L, 0), (2 * L, 0), (L, 0)], exact=True)
    assert ds.keys.tolist() == [0.0, 1879048192.0, 3758096384.0]
    assert ds.counts.tolist() == [5, 4, 1]


def assert_disc_set_matches_int_keys(radius, pts):
    """The exact disc set of the points is the Python-int key oracle's: the
    same roots and min_gap, bit for bit, and the same counts."""
    ds = distance_set(Disc(radius), np.array(pts, dtype=float), exact=True)
    roots, counts = disc_int_key_set(radius, pts)
    assert ds.keys.tobytes() == roots.tobytes()
    assert ds.counts.tolist() == counts.tolist()
    gap = min_gap(ds)
    if len(roots) < 2:
        assert gap is None
    else:
        assert type(gap) is float and np.float64(gap).tobytes() == np.diff(roots).min().tobytes()


@st.composite
def wide_disc_sets(draw):
    """Points whose scaled differences pass 2**31, so that their squares pass
    int64, and reach up to and past 2**63: integers of up to 63 bits, rounded
    to doubles, times 2**-e, with some points repeated."""
    bits = draw(st.integers(28, 63))
    e = draw(st.integers(0, 80))
    coord = st.integers(-(2**bits), 2**bits).map(lambda m: m * 2.0**-e)
    pts = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=12))
    return pts + draw(st.lists(st.sampled_from(pts), max_size=3))


@settings(max_examples=200, deadline=None)
@given(pts=wide_disc_sets(), radius=st.sampled_from([1.0, 0.5, 2.0, 2.0**-30, 0.75, 0.3]))
def test_exact_disc_set_matches_python_int_keys(pts, radius):
    assert_disc_set_matches_int_keys(radius, pts)


# perfbench's EXACT_DISC_REPRO: its distinct squared distances 200 and
# 200 + 20 * 2**-49 + 2**-98 have roots that round to one double
EXACT_DISC_REPRO = [(0.0, 0.0), (1.0, 1.0), (10.0, 10.0), (11.0, 11.0 + 2.0**-49)]
# 2**63 - 1024 is a double, and so is 1023: one difference of 2**63 - 1
TOP = 2.0**63 - 1024


@pytest.mark.parametrize("radius, pts, form, by_limbs", [
    (1.0, [(0.1, 0.2), (1.3, -0.7), (0.1, 0.2), (2.5, 1 / 3), (-1.75, 0.9)], "limbs", True),
    (1.0, [(0.1, 0.2), (1.3, -0.7), (0.1, 0.2), (2.5, 1 / 3)], "limbs", True),
    (1.0, [(TOP, TOP), (-1023.0, -1023.0), (0.0, 0.0), (-1023.0, TOP)], "limbs", True),
    (1.0, [(TOP, TOP), (-1024.0, -1024.0), (0.0, 0.0)], "object", False),
    (0.3, EXACT_DISC_REPRO, "limbs", False),
    (1.0, [(0.0, 0.0), (2.0**-560, 2.0**-600), (2.0**-599, 0.0)], "limbs", False),
    (1.0, EXACT_DISC_REPRO, "limbs", True),
    # the top 64 bits of this key end in a rounding tie; bits below break it
    (1.0, [(0.0, 0.0), (855992426655.0, 6351.0)], "limbs", True),
], ids=["odd", "even", "key-near-2**127", "difference-2**63", "radius-0.3", "tiny", "repro",
        "sticky"])
def test_exact_disc_key_form_and_roots(monkeypatch, radius, pts, form, by_limbs):
    """Disc keys past int64 are uint64 limbs exactly when the widest scaled
    difference is below 2**63 (up to 2**63 - 1, whose key is near 2**127),
    and Python ints from 2**63 on.  Limbs are valued from the limbs when
    c = 1 / (den * radius)**2 is 2**-e with e < 1022, and as Python ints by
    the one root rule otherwise: under Disc(0.3), and for a tiny coordinate,
    whose common denominator is 2**600.  Either way the set is the oracle's,
    and EXACT_DISC_REPRO's two keys with one root stay two equal values."""
    seen, build, limb_roots = [], distance_sets._distance_set, distance_sets._limb_roots

    def capture(n, vals, *rest):
        seen.append("limbs" if vals.ndim == 2 and vals.dtype == np.uint64 else vals.dtype.name)
        return build(n, vals, *rest)

    def spy(*args):
        seen.append("by limbs")
        return limb_roots(*args)

    monkeypatch.setattr(distance_sets, "_distance_set", capture)
    monkeypatch.setattr(distance_sets, "_limb_roots", spy)
    assert_disc_set_matches_int_keys(radius, pts)
    assert seen == [form] + ["by limbs"] * by_limbs


def test_exact_pair_walk_memory_is_bounded_by_its_keys():
    """2,000 dyadic points under the square: the 1,999,001 int64 keys take
    16 MB, and the walk adds only a block's buffers (building every pair's
    index and difference arrays at once peaked above 130 MB)."""
    pts = np.random.default_rng(2000).integers(-256, 257, size=(2000, 2)) / 64
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        distance_set(square(), pts, exact=True)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 60e6


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0, -1e-300])
def test_invalid_tol_raises(tol):
    pts = [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]
    subset = PointSet(np.array(pts), 3.0)
    calls = [
        lambda: distance_set(square(), pts, tol=tol),
        lambda: grid_distance_set(Disc(1.0), 3, 2, tol=tol, exact=False),
        lambda: distance_lists_from_two_points((0.0, 1.0), (1.0, 1.0), subset, square(), tol=tol),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=f"clustering tolerance {tol} must be finite and >= 0"):
            call()


PTS = [[0.0, 0.0], [1.0, 0.0], [2.0, 0.5]]


@pytest.mark.parametrize("call, message", [
    (lambda: distance_set(PBall(1.5, 1.0), PTS, exact=True), "need a polygon or disc"),
    (lambda: grid_distance_set(PBall(3.0, 1.0), 40, 40), "need a polygon or disc"),
    (lambda: distance_set(square(), PTS, tol=0.0, exact=True), "take no clustering tolerance"),
    (lambda: distance_set(Disc(1.0), PTS, tol=math.nan, exact=True), "take no clustering"),
    (lambda: grid_distance_set(Disc(1.0), 40, 40, tol=1e-9), "take no clustering tolerance"),
    (lambda: grid_distance_set(diamond(), 40, 40, 0.5, tol=0.0, exact=True), "take no clustering"),
    (lambda: distance_set(Disc(1.0), PTS, tol=math.nan), "must be finite"),
    (lambda: grid_distance_set(Disc(1.0), 40, 40, tol=-1.0, exact=False), "must be finite"),
    (lambda: distance_lists_from_two_points(
        (0.0, 1.0), (1.0, 1.0), PointSet(np.array(PTS), 3.0), square(), tol=math.inf),
     "must be finite"),
])
def test_invalid_requests_fail_before_any_work(monkeypatch, call, message):
    def forbidden(*args, **kwargs):
        raise AssertionError("work began before the request was checked")

    for name in ("gauge_many", "_exact_keys", "_scale_to_ints"):
        monkeypatch.setattr(distance_sets, name, forbidden)
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.filterwarnings("error")
def test_overflowed_distance_is_not_clustered_at_an_infinite_tol():
    # the default tol is 1e-9 times the largest distance, here inf; numpy's
    # overflow warning must not escape ahead of the error
    with pytest.raises(ValueError, match="largest distance inf is not finite"):
        distance_set(Disc(1.0), [[1e308, 0.0], [-1e308, 0.0]])


HUGE = PointSet(np.array([[1e308, 0.0]]), 1e308)


@pytest.mark.parametrize("call, value", [
    # inf - inf in the square's gauge gives nan, which sorts last
    (lambda: distance_set(square(), [[1e308, 0.0], [-1e308, 0.0]], tol=1.0), "nan"),
    (lambda: distance_set(Disc(1.0), [[1e308, 0.0], [-1e308, 0.0]], tol=1.0), "inf"),
    (lambda: distance_set(Disc(1.0), [[1e308, 0.0], [-1e308, 0.0]], tol=0.0), "inf"),
    # three and four points: the overflow is in a block of whole shifts
    (lambda: distance_set(Disc(1.0), [[1e308, 0.0], [0.0, 0.0], [-1e308, 0.0]], tol=0.0), "inf"),
    (lambda: distance_set(PBall(1.5, 1.0), [[0.0, 1e308], [1.0, 0.0], [2.0, -1e308], [3.0, 0.0]],
                          tol=1.0), "inf"),
    (lambda: grid_distance_set(square(), 3, 3, 1e308, tol=1.0, exact=False), "nan"),
    (lambda: grid_distance_set(Disc(1.0), 3, 1, 1e308, tol=1.0, exact=False), "inf"),
    (lambda: distance_lists_from_two_points((-1e308, 0.0), (0.0, 0.0), HUGE, square(), tol=1.0),
     "nan"),
], ids=["pairs-square", "pairs-disc", "pairs-disc-tol-0", "pairs3-disc", "pairs4-pball",
        "grid-square", "grid-disc", "lists"])
@pytest.mark.filterwarnings("error")
def test_overflowed_distance_is_an_error_at_an_explicit_tol(call, value):
    """The error alone: no numpy overflow or invalid-value warning escapes."""
    with pytest.raises(ValueError, match=f"largest distance {value} is not finite"):
        call()


@pytest.mark.parametrize("call", [
    lambda: distance_set(Disc(1.0), [[1e200, 0.0], [0.0, 0.0]], exact=True),
    lambda: grid_distance_set(Disc(1.0), 2, 1, 1e200),
], ids=["pairs", "grid"])
def test_exact_disc_distance_beyond_the_double_range_is_an_error(call):
    # the key 1e400 exceeds the largest double, though its root does not
    with pytest.raises(ValueError, match="exact disc distance overflows a double"):
        call()


@pytest.mark.parametrize("spacing", [2.0**-520, 2.0**-1000, 1e-300, 2.0**-1022])
def test_exact_disc_set_at_a_tiny_spacing_is_the_per_key_formula(spacing):
    """The reduced denominator d of spacing**2 = m / d passes the double range,
    but the distances do not: each is the per-key formula's root at
    m / (d / 4**t), where d / 4**t fits, times exactly 2**-t."""
    c = Fraction(spacing) ** 2
    t = (c.denominator.bit_length() - 400) // 2
    want = [disc_root(k, c.numerator, c.denominator >> 2 * t) * 2.0**-t for k in (0, 1, 2)]
    ds = grid_distance_set(Disc(1.0), 2, 2, spacing)
    assert ds.keys.tolist() == want and ds.counts.tolist() == [4, 4, 2]


def test_exact_disc_set_at_spacing_2_pow_minus_1000():
    """sqrt(1) / sqrt(2**1999) for the diagonal, as the formula reduces the key
    2 at every power-of-two spacing below 1; the same doubles as at 2**-500,
    where the denominator fits, scaled exactly."""
    ds = grid_distance_set(Disc(1.0), 2, 2, 2.0**-1000)
    assert ds.keys.tolist() == [0.0, 2.0**-1000, 2.0**-999 / math.sqrt(2)]
    half = grid_distance_set(Disc(1.0), 2, 2, 2.0**-500)
    assert ds.keys.tolist() == [v * 2.0**-500 for v in half.keys.tolist()]


def test_exact_disc_distance_below_the_normal_range_is_an_error():
    with pytest.raises(ValueError, match="below the normal double range"):
        grid_distance_set(Disc(1.0), 2, 2, 2.0**-1040)
    # s = 511: the terms 2**-1022 and 1.5 * 2**1022 are normal, their roots'
    # quotient 2**-1022 / sqrt(1.5) is not
    with pytest.raises(ValueError, match="below the normal double range"):
        _disc_roots(np.array([0, 1], dtype=object), Fraction(1, 3 * 2**2043))


@settings(max_examples=200, deadline=None)
@given(
    num=st.integers(0, 2**60).map(lambda m: 2 * m + 1),
    e=st.integers(120, 900),
    t=st.integers(1, 560),
    keys=st.lists(st.one_of(st.integers(0, 2**40), st.integers(0, 2**100)),
                  min_size=1, max_size=20),
)
# s = 519: the zero key's denominator 1 scales below the smallest double
@example(num=1, e=900, t=580, keys=[0, 2**100 + 1])
def test_disc_roots_beyond_the_double_range_are_the_per_key_formula_scaled(num, e, t, keys):
    """c = num / 2**e with e >= 120, so dividing c by 4**t reduces no key
    further: the roots at c / 4**t, whose denominator passes the double range
    once e + 2t > 1023, are the per-key formula's roots at c times exactly
    2**-t."""
    want = [disc_root(k, num, 2**e) * 2.0**-t for k in keys]
    got = _disc_roots(np.array(keys, dtype=object), Fraction(num, 2 ** (e + 2 * t)))
    assert got.tolist() == want


# c = (spacing / radius)**2: small dyadic, wide dyadic (0.3 as a double has a
# 54-bit denominator) and non-dyadic (radius 3 or 0.7)
root_scales = st.builds(
    lambda s, r: Fraction(s) ** 2 / Fraction(r) ** 2,
    st.one_of(dyadic_spacing, st.sampled_from([0.3, 0.1, 1 / 3])),
    st.sampled_from([1.0, 0.75, 3.0, 0.7]),
)


@settings(max_examples=200, deadline=None)
@given(
    c=root_scales,
    keys=st.lists(st.one_of(st.integers(0, 2**40), st.integers(0, 2**80)), min_size=1, max_size=20),
    dtype=st.sampled_from([np.int64, object]),
    edge=st.integers(-2, 2),
)
# num = 1 and den = 1: the int64 branch up to the key 2**63 - 1
@example(c=Fraction(1), keys=[0, 1, 2**62, 2**63 - 1], dtype=np.int64, edge=0)
# spacing 0.3: den = 2**108 takes the object branch whatever the keys
@example(c=Fraction(0.3) ** 2, keys=[0, 1, 9040], dtype=np.int64, edge=0)
# no key fits int64: no keys, no roots
@example(c=Fraction(1), keys=[2**63], dtype=np.int64, edge=1)
def test_disc_roots_match_the_per_key_formula(c, keys, dtype, edge):
    """Bit for bit, in int64 and in object dtype, with keys just below, at and
    above the largest k for which k * numerator fits int64."""
    num, den = c.numerator, c.denominator
    keys = keys + [max((2**63 - 1) // num + edge, 0)]
    if dtype is np.int64:
        keys = [k for k in keys if k < 2**63]
    got = _disc_roots(np.array(keys, dtype=dtype), c)
    want = np.array([disc_root(k, num, den) for k in keys])
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 7),
    spacing=st.one_of(dyadic_spacing, st.sampled_from([0.3, 0.1])),
    radius=st.sampled_from([1.0, 0.75, 3.0, 0.7]),
)
def test_exact_disc_grid_matches_the_per_key_formula(n, spacing, radius):
    """One entry per distinct squared length k (in spacings) of the n x n grid,
    valued by the per-key formula, counting its pairs, ordered by (value, k)."""
    c = Fraction(spacing) ** 2 / Fraction(radius) ** 2
    pts = [(i, j) for i in range(n) for j in range(n)]
    pairs = Counter(
        (qx - px) ** 2 + (qy - py) ** 2 for a, (px, py) in enumerate(pts) for qx, qy in pts[a:]
    )
    want = sorted((disc_root(k, c.numerator, c.denominator), k, m) for k, m in pairs.items())
    ds = grid_distance_set(Disc(radius), n, n, spacing, exact=True)
    assert ds.keys.tolist() == [v for v, _, _ in want]
    assert ds.counts.tolist() == [m for _, _, m in want]


def polygon_oracle(body, pts):
    """(values, multiplicities) of the exact polygon distance set, by brute force."""
    counts = brute_exact_counts(lambda v: exact_polygon_gauge(body.vertices, v), pts)
    return tuple(v for v, _ in counts), tuple(c for _, c in counts)


def disc_oracle(radius, pts):
    """(values, multiplicities) of the exact disc distance set, by brute force:
    one entry per distinct exact square, valued sqrt(numerator) / sqrt(denominator)
    and ordered by (value, square)."""
    r2 = Fraction(radius) ** 2
    counts = brute_exact_counts(lambda v: (v[0] ** 2 + v[1] ** 2) / r2, pts)
    items = sorted((math.sqrt(q.numerator) / math.sqrt(q.denominator), q, c) for q, c in counts)
    return tuple(v for v, _, _ in items), tuple(c for _, _, c in items)


def assert_matches_oracle(body, pts):
    ds = distance_set(body, np.array(pts, dtype=float), exact=True)
    if isinstance(body, Disc):
        expected = disc_oracle(body.radius, pts)
    else:
        expected = polygon_oracle(body, pts)
    assert (ds.values, ds.multiplicities) == expected


@settings(max_examples=60, deadline=None)
@given(
    pts=st.lists(st.tuples(dyadic, dyadic), min_size=1, max_size=7),
    body=st.one_of(
        st.sampled_from([square(), diamond()]),
        st.builds(random_symmetric_polygon, st.integers(2, 6), st.integers(0, 10**6)),
    ),
)
def test_exact_pair_path_matches_fraction_brute_force_polygon(pts, body):
    assert_matches_oracle(body, pts)


@settings(max_examples=60, deadline=None)
@given(
    pts=st.lists(st.tuples(dyadic, dyadic), min_size=1, max_size=7),
    radius=st.sampled_from([1.0, 0.75, 3.0]),
)
def test_exact_pair_path_matches_fraction_brute_force_disc(pts, radius):
    assert_matches_oracle(Disc(radius), pts)


# odd multiples of 2**-52 next to coordinates up to 2**62: scaled to integers by
# the lcm of their denominators they reach 2**114, past int64
wide_dyadic = st.builds(
    lambda m, e: m * 2.0**e, st.integers(-(2**52), 2**52), st.sampled_from([-52, -20, 0, 10])
)
# q exceeds 2**62 and the integer coefficients have about 96 bits
BIG_POLYGON = random_symmetric_polygon(3, 0)


class TestIntegerKeys:
    def test_big_polygon_has_wide_integer_form(self):
        coef, q = BIG_POLYGON._integer_form
        assert q > 2**62
        assert max(abs(c) for c in coef.ravel()) > 2**90

    @settings(max_examples=60, deadline=None)
    @given(
        pts=st.lists(st.tuples(wide_dyadic, wide_dyadic), min_size=1, max_size=6),
        body=st.sampled_from([square(), diamond(), Disc(1.0), Disc(0.75), BIG_POLYGON]),
    )
    def test_wide_points_match_oracle(self, pts, body):
        assert_matches_oracle(body, pts)

    @pytest.mark.parametrize(
        "pts",
        [
            [(1.0, 2.0**-52), (3.0, -1.0), (0.5, 0.25)],  # disc keys overflow int64
            [(2.0**10, 2.0**-52), (0.0, 0.0), (-(2.0**10), 1.0)],  # every key overflows
        ],
    )
    @pytest.mark.parametrize("body", [square(), Disc(1.0)])
    def test_fine_denominators_match_oracle(self, pts, body):
        assert_matches_oracle(body, pts)

    def test_big_polygon_single_point_and_unit_grid(self):
        one = distance_set(BIG_POLYGON, np.array([[0.5, -0.25]]), exact=True)
        assert one == grid_distance_set(BIG_POLYGON, 1, 1, 1.0, exact=True)
        assert one.values == (0,) and one.multiplicities == (1,)

    def test_big_polygon_small_grid_matches_oracle(self):
        ds = grid_distance_set(BIG_POLYGON, 3, 2, 0.5, exact=True)
        assert (ds.values, ds.multiplicities) == polygon_oracle(
            BIG_POLYGON, grid_points(3, 2, 0.5).tolist()
        )

    @pytest.mark.parametrize("body", [square(), BIG_POLYGON, Disc(1.0)])
    def test_coincident_points_merge_with_the_diagonal(self, body):
        ds = distance_set(body, np.array([[0.0, 0.0], [0.0, 0.0]]), exact=True)
        assert ds.values == (0,) and ds.multiplicities == (3,)
        pts = [(1.0, 2.0), (0.0, 0.0), (1.0, 2.0), (0.0, 0.0), (3.0, 2.0**-52)]
        assert_matches_oracle(body, pts)

    # (body, |largest vector coordinate| just below the bound, just at it):
    # the key law's bound is max|V| * max_i(|coef_i,x| + |coef_i,y|) for a
    # polygon (row sums 2 and 4 here) and 2 * max|V|**2 for the disc
    BOUNDS = [
        (diamond(), 2**62 - 1, 2**62),
        (diamond(0.5), 2**61 - 1, 2**61),
        (Disc(1.0), 2**31 - 1, 2**31),
    ]

    @pytest.mark.parametrize("body, below, at", BOUNDS, ids=["diamond", "diamond-half", "disc"])
    def test_key_dtype_switches_at_the_int64_bound(self, body, below, at):
        """The key law's bound w * max(max|V|, 1)**e holds every key and picks
        int64 just below the switch and Python ints at it; int64 keys computed
        under it do not wrap, and the keys come near it."""
        law = _key_law(body)
        for c, dtype in ((below, np.int64), (at, object)):
            V = np.array([[c, c], [-c, 1], [0, 0]], dtype=object)
            bound = law.w * max(c, 1) ** law.e
            assert _int_dtype(bound) is dtype
            keys = _exact_keys(law.rows, V, dtype)
            assert keys.dtype == dtype
            if isinstance(body, Disc):
                expected = [x * x + y * y for x, y in V.tolist()]
            else:
                expected = full_integer_keys(body.vertices, V.tolist())
            assert keys.tolist() == expected
            assert 2**63 - 2**33 <= max(expected) <= bound  # the keys do reach the bound

    @pytest.mark.parametrize(
        "body, pts",
        [
            # scaled by 2**62, the vector (1 - 2**-52, 1 - 2**-52) has l1 norm 2**63 - 2**11
            (diamond(), [(2.0**-62, 0.0), (0.0, 0.0), (1 - 2.0**-52, 1 - 2.0**-52)]),
            (diamond(0.5), [(2.0**-62, 0.0), (0.0, 0.0), (0.5 - 2.0**-53, 0.5 - 2.0**-53)]),
            (diamond(0.5), [(2.0**-62, 0.0), (0.0, 0.0), (0.5, 0.5)]),  # key 2**63
            (Disc(1.0), [(0.0, 0.0), (2.0**31 - 1, 2.0**31 - 1), (1.0, 3.0)]),
            (Disc(1.0), [(0.0, 0.0), (2.0**31, 2.0**31), (1.0, 3.0)]),  # key 2**63
        ],
    )
    def test_pair_path_at_the_int64_bound_matches_oracle(self, body, pts):
        assert_matches_oracle(body, pts)

    def test_disc_values_follow_rounded_roots_not_keys(self):
        # scaled by 2**52 the vectors are (X, 0) and (X, 1) with X = 6563534842873445;
        # under r = 0.75 the root of the larger square X**2 + 1 rounds below that of X**2
        x = 6563534842873445 * 2.0**-52
        pts = [(0.0, 0.0), (x, 0.0), (x, 2.0**-52)]
        ds = distance_set(Disc(0.75), np.array(pts), exact=True)
        assert list(ds.values) == sorted(ds.values)
        assert_matches_oracle(Disc(0.75), pts)

    def test_points_are_read_as_doubles(self):
        """Exact mode counts the distances of the points' doubles: a Fraction
        coordinate is rounded first, unlike gauge_exact, which reads it exactly."""
        ds = distance_set(square(), [(Fraction(1, 3), 0), (0, 0)], exact=True)
        assert ds.values == (0, Fraction(1 / 3)) == (0, Fraction(6004799503160661, 2**54))
        assert gauge_exact(square(), (Fraction(1, 3), 0)) == Fraction(1, 3)

    @pytest.mark.parametrize("body", [square(), diamond(), BIG_POLYGON])
    def test_polygon_values_are_fractions(self, body):
        # the report writer prints a Fraction as a float; an int would print as "1"
        for ds in (
            grid_distance_set(body, 3, 3, 1.0, exact=True),
            distance_set(body, lattice_points(2), exact=True),
            distance_set(body, np.array([[0.0, 2.0**-52], [2.0**10, 1.0]]), exact=True),
        ):
            assert all(type(v) is Fraction for v in ds.values)
            assert all(type(c) is int for c in ds.multiplicities)


def float_oracle(body, pts, tol):
    """(values, multiplicities, tol) of the float distance set from the
    one-value-at-a-time greedy loop over every pair's gauge, the n zeros of the
    coincident pairs included."""
    i, j = np.triu_indices(len(pts), 1)
    vals = sorted([0.0] * len(pts) + gauge_many(body, pts[j] - pts[i]).tolist())
    tol = 1e-9 * vals[-1] if tol is None else tol
    reps, counts = greedy_cluster(vals, tol)
    return tuple(reps), tuple(counts), tol


def assert_same_set(ds, values, multiplicities, tol):
    """ds holds the oracle's tuples, and min_gap is theirs: the smallest
    difference of consecutive values, with the same type and digits."""
    assert len(ds) == len(values)
    assert ds.values == values and ds.multiplicities == multiplicities and ds.tol == tol
    assert all(type(a) is type(b) for a, b in zip(ds.values, values))
    assert all(type(c) is int for c in ds.multiplicities)
    gap = min((b - a for a, b in zip(values, values[1:])), default=None)
    assert repr(min_gap(ds)) == repr(gap)


float_bodies = st.one_of(
    st.sampled_from([square(), diamond(), Disc(1.0), Disc(0.75), PBall(1.5, 1.0), PBall(3.0, 2.0)]),
    st.builds(random_symmetric_polygon, st.integers(2, 6), st.integers(0, 10**6)),
)


class TestArraysMatchTupleOracles:
    """Distance sets are held as arrays; their length, tuples and min_gap must
    equal what the tuple-based oracles give."""

    @settings(max_examples=60, deadline=None)
    @given(
        pts=st.lists(st.tuples(dyadic, dyadic), min_size=1, max_size=9),
        body=float_bodies,
        tol=st.sampled_from([None, 0.0, 1e-9, 1e-3, 0.5]),
    )
    def test_float_pair_loop(self, pts, body, tol):
        pts = np.array(pts)
        assert_same_set(distance_set(body, pts, tol=tol), *float_oracle(body, pts, tol))

    @settings(max_examples=40, deadline=None)
    @given(
        cols=st.integers(1, 6),
        rows=st.integers(1, 6),
        spacing=dyadic_spacing,
        body=float_bodies,
        tol=st.sampled_from([None, 0.0, 1e-9, 0.25]),
    )
    def test_float_weighted_grid(self, cols, rows, spacing, body, tol):
        # the grid's closed-form pair counts are weights; at a dyadic spacing its
        # values are the pair loop's
        ds = grid_distance_set(body, cols, rows, spacing, tol=tol, exact=False)
        assert_same_set(ds, *float_oracle(body, grid_points(cols, rows, spacing), tol))

    @settings(max_examples=60, deadline=None)
    @given(
        pts=st.lists(st.tuples(dyadic, dyadic), min_size=1, max_size=7),
        body=st.one_of(
            st.sampled_from([square(), diamond(), BIG_POLYGON]),
            st.builds(random_symmetric_polygon, st.integers(2, 6), st.integers(0, 10**6)),
        ),
    )
    def test_exact_polygon_pair_path(self, pts, body):
        ds = distance_set(body, np.array(pts), exact=True)
        assert_same_set(ds, *polygon_oracle(body, pts), 0.0)

    @settings(max_examples=60, deadline=None)
    @given(
        pts=st.lists(st.tuples(dyadic, dyadic), min_size=1, max_size=7),
        radius=st.sampled_from([1.0, 0.75, 3.0]),
    )
    # two distinct distances whose roots round to one double: min_gap is 0.0
    @example(pts=[(0.0, 0.0), (1.0, 1.0), (10.0, 10.0), (11.0, 11.0 + 2.0**-49)], radius=1.0)
    def test_exact_disc_pair_path(self, pts, radius):
        ds = distance_set(Disc(radius), np.array(pts), exact=True)
        assert_same_set(ds, *disc_oracle(radius, pts), 0.0)

    @settings(max_examples=40, deadline=None)
    @given(
        cols=st.integers(1, 5),
        rows=st.integers(1, 5),
        spacing=dyadic_spacing,
        body=st.one_of(
            st.sampled_from([square(), diamond(), Disc(1.0), Disc(0.75), BIG_POLYGON]),
            st.builds(random_symmetric_polygon, st.integers(2, 6), st.integers(0, 10**6)),
        ),
    )
    def test_exact_grid(self, cols, rows, spacing, body):
        # grid keys are in units of the spacing, pair keys in units of the points'
        # common denominator: the keys differ, the values and gaps may not
        ds = grid_distance_set(body, cols, rows, spacing, exact=True)
        pts = grid_points(cols, rows, spacing).tolist()
        if isinstance(body, Disc):
            assert_same_set(ds, *disc_oracle(body.radius, pts), 0.0)
        else:
            assert_same_set(ds, *polygon_oracle(body, pts), 0.0)


class TestDistanceSetEquality:
    def test_equal_sets_from_different_keys(self):
        # pair keys count 1/16ths, grid keys 3/16ths: same values, unequal keys
        grid = grid_distance_set(diamond(), 3, 2, 3 / 16, exact=True)
        pairs = distance_set(diamond(), grid_points(3, 2, 3 / 16), exact=True)
        assert grid.keys.tolist() != pairs.keys.tolist()
        assert grid == pairs and not (grid != pairs)

    def test_values_counts_and_tol_all_count(self):
        base = DistanceSet(np.array([0.0, 1.0]), np.array([3, 2]), 0.0)
        assert base == DistanceSet(np.array([0.0, 1.0]), np.array([3, 2]), 0.0)
        assert base == DistanceSet(np.array([0, 2]), np.array([3, 2]), 0.0, Fraction(1, 2))
        assert base != DistanceSet(np.array([0.0, 1.5]), np.array([3, 2]), 0.0)
        assert base != DistanceSet(np.array([0.0, 1.0]), np.array([2, 3]), 0.0)
        assert base != DistanceSet(np.array([0.0, 1.0]), np.array([3, 2]), 1e-9)
        assert base != DistanceSet(np.array([0.0]), np.array([5]), 0.0)
        assert base != (0.0, 1.0) and base != "base"

    def test_arrays_are_read_only(self):
        ds = grid_distance_set(square(), 3, 3, 1.0, exact=True)
        before = (ds.values, ds.multiplicities)
        for arr in (ds.keys, ds.counts):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 5
        assert (ds.values, ds.multiplicities) == before == ((0, 1, 2), (9, 20, 16))
