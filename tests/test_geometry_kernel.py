import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gaugedist import (
    Disc,
    IntersectionResult,
    InvalidBodyError,
    PBall,
    Segment,
    SymmetricPolygon,
    boundary_intersection,
    boundary_point,
    boundary_points,
    concurrence_check,
    diamond,
    direction_line_classes,
    gauge,
    gauge_many,
    random_symmetric_polygon,
    square,
    strictly_convex_intersection_count,
    transform_polygon,
    validate,
)
from gaugedist import geometry_kernel
from gaugedist.convex_body import _scale_to_ints
from gaugedist.geometry_kernel import (
    _SAMPLES,
    _STEP,
    _STRIDE,
    _first_pass_points,
    _fraction_point,
    _homothet_check,
    _homothet_frame,
    _intersect_ints,
    _scan_bounds,
)
from gaugedist.prng import Xorshift64Star, derive_seed

from oracles import (
    _line_key,
    exact_edge_pieces,
    exact_gap,
    exact_turn,
    float_polygon_attempt,
    float_random_symmetric_polygon,
    homothet_pair_count,
    on_closed_polyline,
    on_closed_segment,
    reference_concurrence,
    reference_homothet_check,
    reference_homothet_frame,
    uncertified_brackets,
)


def seg_set(result):
    return {(tuple(map(float, s.a)), tuple(map(float, s.b))) for s in result.maximal_segments}


def pt_set(result):
    return {tuple(map(float, p)) for p in result.isolated_points}


class TestTransform:
    def test_scale_two_shift(self):
        out = transform_polygon(square(), 2.0, (1.0, 0.0))
        assert set(out) == {(3.0, 2.0), (-1.0, 2.0), (-1.0, -2.0), (3.0, -2.0)}

    def test_identity(self):
        assert transform_polygon(square(), 1.0, (0.0, 0.0)) == square().vertices

    def test_half_diamond(self):
        out = transform_polygon(diamond(), 0.5, (0.0, 0.0))
        assert set(out) == {(0.5, 0.0), (0.0, 0.5), (-0.5, 0.0), (0.0, -0.5)}

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            transform_polygon(square(), 0.0, (1.0, 0.0))

    @pytest.mark.parametrize(
        "alpha, u",
        [(math.inf, (0.0, 0.0)), (math.nan, (0.0, 0.0)), (1.0, (math.inf, 0.0)), (2.0, (0.0, math.nan))],
    )
    def test_rejects_non_finite_scale_or_translation(self, alpha, u):
        with pytest.raises(ValueError, match="finite"):
            transform_polygon(square(), alpha, u)


class TestBoundaryIntersection:
    def test_self_intersection_is_all_edges(self):
        res = boundary_intersection(square(), square())
        assert len(res.maximal_segments) == 4
        assert not res.isolated_points
        assert direction_line_classes(res) == 4

    def test_unit_shift_overlaps(self):
        # [-1,1]^2 against [0,2]x[-1,1]: the two horizontal boundary overlaps;
        # the line x=1 belongs only to the first square's boundary
        moved = transform_polygon(square(), 1.0, (1.0, 0.0))
        res = boundary_intersection(square(), moved)
        assert seg_set(res) == {
            ((0.0, -1.0), (1.0, -1.0)),
            ((0.0, 1.0), (1.0, 1.0)),
        }
        assert not res.isolated_points
        assert direction_line_classes(res) == 2

    def test_scaled_shift_left_edge(self):
        moved = transform_polygon(square(), 2.0, (1.0, 0.0))
        res = boundary_intersection(square(), moved)
        assert seg_set(res) == {((-1.0, -1.0), (-1.0, 1.0))}
        assert not res.isolated_points

    def test_crossing_squares_have_isolated_points(self):
        # [-1,1]^2 against [0,2]^2: no shared supporting lines, two crossings
        moved = transform_polygon(square(), 1.0, (1.0, 1.0))
        res = boundary_intersection(square(), moved)
        assert pt_set(res) == {(0.0, 1.0), (1.0, 0.0)}
        assert not res.maximal_segments

    def test_crossings_at_segment_ends_are_not_isolated(self):
        # [-1,1]^2 against [1,3]x[-1/2,3/2]: the edge pairs crossing at
        # (1, -1/2) and (1, 1) meet at the ends of the one shared segment
        res = boundary_intersection(square(), transform_polygon(square(), 1.0, (2.0, 0.5)))
        assert res.maximal_segments == (Segment((1, Fraction(-1, 2)), (1, 1)),)
        assert res.isolated_points == ()

    def test_corner_touch_is_one_isolated_point(self):
        # [-2,2]^2 against [2,4]^2: both collinear edge pairs and both crossing
        # pairs meet only at the shared corner
        res = boundary_intersection(
            transform_polygon(square(), 2.0, (0.0, 0.0)), transform_polygon(square(), 1.0, (3.0, 3.0))
        )
        assert res.isolated_points == ((2, 2),)
        assert res.maximal_segments == ()

    def test_vertex_homothety_segments_share_an_end(self):
        # [-1,1]^2 against its double about the vertex (1, 1): two segments meet there
        res = boundary_intersection(square(), transform_polygon(square(), 2.0, (-1.0, -1.0)))
        assert res.maximal_segments == (Segment((-1, 1), (1, 1)), Segment((1, -1), (1, 1)))
        assert res.isolated_points == ()
        rep = concurrence_check(res, 2.0, (-1.0, -1.0))
        assert rep.ok and rep.checked == 2 and rep.max_error == 0.0

    def test_swap_symmetry_exact(self):
        for alpha, u in [(1.0, (0.5, 0.25)), (2.0, (1.0, 0.0)), (0.5, (0.75, -0.5))]:
            moved = transform_polygon(square(), alpha, u)
            r1 = boundary_intersection(square(), moved)
            r2 = boundary_intersection(moved, square())
            assert seg_set(r1) == seg_set(r2)
            assert pt_set(r1) == pt_set(r2)

    def test_swap_symmetry_random_polygons(self):
        for k in range(20):
            poly = random_symmetric_polygon(4 + k % 4, seed=1000 + k)
            moved = transform_polygon(poly, 2.0, (0.25, -0.125))
            r1 = boundary_intersection(poly, moved)
            r2 = boundary_intersection(moved, poly)
            assert seg_set(r1) == seg_set(r2)
            assert pt_set(r1) == pt_set(r2)

    def test_isolated_points_lie_on_both_boundaries(self):
        for k in range(20):
            poly = random_symmetric_polygon(5, seed=2000 + k)
            moved = transform_polygon(poly, 1.5, (0.5, 0.5))
            res = boundary_intersection(poly, moved)
            for p in res.isolated_points:
                pf = (float(p[0]), float(p[1]))
                for boundary in (poly.vertices, moved):
                    dmin = _distance_to_boundary(pf, boundary)
                    assert dmin <= 1e-9

    def test_near_collinear_translate_is_not_an_overlap(self):
        # the horizontal edges miss each other's lines by about 1e-13: two
        # crossings, no shared segment
        low = Fraction(-1.0 + 1e-13)  # the moved square's bottom edge
        assert low != -1
        res = boundary_intersection(square(), transform_polygon(square(), 1.0, (0.5, 1e-13)))
        assert not res.maximal_segments
        assert set(res.isolated_points) == {(Fraction(-1, 2), Fraction(1)), (Fraction(1), low)}

    def test_rejects_degenerate_input(self):
        with pytest.raises(ValueError):
            boundary_intersection([(0, 0), (1, 0)], square())
        with pytest.raises(ValueError):
            boundary_intersection([(0, 0), (1, 0), (1, 0), (0, 1)], square())
        with pytest.raises(ValueError):
            boundary_intersection([(0, 0), (2, 0), (1, 0.0), (1, 1)], square())

    def test_rejects_boundaries_that_wind_more_than_once(self):
        # both turn left at every vertex; neither is a simple convex polygon
        pentagram = [(math.cos(t), math.sin(t)) for t in (4 * math.pi * k / 5 for k in range(5))]
        for bad in (square().vertices * 2, pentagram):
            with pytest.raises(ValueError, match="winds 2 times"):
                boundary_intersection(bad, square())
            with pytest.raises(ValueError, match="winds 2 times"):
                boundary_intersection(square(), bad[::-1])

    def test_rational_vertices_stay_exact(self):
        third = Fraction(1, 3)
        rect = [(third, 1), (-third, 1), (-third, -1), (third, -1)]
        res = boundary_intersection(rect, square())
        assert res.maximal_segments == (
            Segment((-third, -1), (third, -1)),
            Segment((-third, 1), (third, 1)),
        )
        assert not res.isolated_points


def _distance_to_boundary(p, vertices):
    best = math.inf
    m = len(vertices)
    for i in range(m):
        ax, ay = vertices[i]
        bx, by = vertices[(i + 1) % m]
        ex, ey = bx - ax, by - ay
        t = ((p[0] - ax) * ex + (p[1] - ay) * ey) / (ex * ex + ey * ey)
        t = min(max(t, 0.0), 1.0)
        best = min(best, math.hypot(p[0] - (ax + t * ex), p[1] - (ay + t * ey)))
    return best


def _dyadic(lo, hi, bits):
    return st.integers(math.ceil(lo * 2**bits), math.floor(hi * 2**bits)).map(lambda k: k / 2**bits)


def bits(vertices) -> list:
    """The vertices' doubles as hex strings, which tell -0.0 from 0.0."""
    return [(x.hex(), y.hex()) for x, y in vertices]


@st.composite
def homothety(draw, alphas=(0.5, 1.0, 2.0, 3.0)):
    """A random polygon G, a scale alpha from ``alphas`` and a translate u, all
    dyadic.  u comes from the four trial constructions of the experiments
    module docstring, or places one vertex of alpha*G + u on an edge of G.
    The opposite-edge construction holds at every alpha: it carries alpha
    times edge i + n of G onto the line of edge i, an external contact."""
    poly = random_symmetric_polygon(draw(st.integers(2, 8)), draw(st.integers(0, 2**32 - 1)))
    alpha = draw(st.sampled_from(alphas))
    verts = poly.vertices
    i = draw(st.integers(0, len(verts) - 1))
    (vx, vy), (wx, wy) = verts[i], verts[(i + 1) % len(verts)]
    ex, ey = wx - vx, wy - vy
    kind = draw(
        st.sampled_from(["edge-aligned", "vertex-homothety", "opposite-edge", "random", "vertex-on-edge"])
    )
    if kind == "edge-aligned":
        beta = draw(_dyadic(-alpha, 1.0, 12))
        u = ((1.0 - alpha) * vx + beta * ex, (1.0 - alpha) * vy + beta * ey)
    elif kind == "vertex-homothety":
        u = ((1.0 - alpha) * wx, (1.0 - alpha) * wy)
    elif kind == "opposite-edge":
        # alpha * (edge i + n) + u runs from v + (s + alpha) e to v + s e
        s = draw(_dyadic(2**-12 - alpha, 1.0 - 2**-12, 12))
        u = (vx + alpha * wx + s * ex, vy + alpha * wy + s * ey)
    elif kind == "random":
        u = (draw(_dyadic(-2.5, 2.5, 16)), draw(_dyadic(-2.5, 2.5, 16)))
    else:
        px, py = verts[draw(st.integers(0, len(verts) - 1))]
        s = draw(_dyadic(0.0, 1.0, 12))
        u = (vx + s * ex - alpha * px, vy + s * ey - alpha * py)
    return poly, alpha, u


def polygon_and_translate():
    """Vertices of G and of alpha*G + u, from :func:`homothety`."""
    return homothety().map(lambda case: (case[0].vertices, transform_polygon(*case)))


class TestIntersectionOracle:
    """boundary_intersection against edge pairs solved one by one in Fraction."""

    @settings(max_examples=150, deadline=None)
    @given(case=polygon_and_translate())
    def test_matches_edge_pair_oracle(self, case):
        V1, V2 = case
        res = boundary_intersection(V1, V2)
        segs = res.maximal_segments
        for s in segs:
            mid = ((s.a[0] + s.b[0]) / 2, (s.a[1] + s.b[1]) / 2)
            for p in (s.a, s.b, mid):
                assert on_closed_polyline(V1, p) and on_closed_polyline(V2, p)
        for p in res.isolated_points:
            assert on_closed_polyline(V1, p) and on_closed_polyline(V2, p)
            assert not any(on_closed_segment(p, s.a, s.b) for s in segs)

        points, pieces = exact_edge_pieces(V1, V2)
        for p in points:
            assert p in res.isolated_points or any(on_closed_segment(p, s.a, s.b) for s in segs)
        for p, q in pieces:
            assert any(on_closed_segment(p, s.a, s.b) and on_closed_segment(q, s.a, s.b) for s in segs)

        for k, s in enumerate(segs):
            for t in segs[k + 1 :]:
                if exact_turn(s.a, s.b, t.a) == 0 and exact_turn(s.a, s.b, t.b) == 0:
                    # one supporting line: the closed segments share no point
                    assert not on_closed_segment(t.a, s.a, s.b)
                    assert not on_closed_segment(t.b, s.a, s.b)
                    assert not on_closed_segment(s.a, t.a, t.b)

    @settings(max_examples=100, deadline=None)
    @given(case=polygon_and_translate())
    def test_body_and_vertex_lists_agree(self, case):
        # a polygon body skips the convexity check its constructor already ran
        V1, V2 = case
        body = SymmetricPolygon(V1)
        res = boundary_intersection(body, V2)
        assert res == boundary_intersection(V1, V2) == boundary_intersection(V1[::-1], V2)
        assert boundary_intersection(V2, body) == boundary_intersection(V2, V1[::-1])


class TestHomothetCheck:
    """The lemma trials' one-frame check against the public functions it replaces."""

    @settings(max_examples=200, deadline=None)
    @given(case=homothety(alphas=(0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0)))
    @example(case=(square(), 1.0, (0.25, 2.0)))  # an opposite-edge coincidence
    @example(case=(square(), 2.0, (3.0, 0.0)))  # an external contact through u/(1 + alpha)
    @example(case=(square(), 2.0, (1.0, 1.0)))  # two segments through u/(1 - alpha)
    def test_matches_public_composition(self, case):
        poly, alpha, u = case
        assume(alpha != 1 or u != (0.0, 0.0))
        A, B, D = _homothet_frame(poly, alpha, u)
        assert (A, B, D) == reference_homothet_frame(poly, alpha, u)

        def fractions(V, d):
            return [(Fraction(x) / d, Fraction(y) / d) for x, y in V]

        assert fractions(A, D) == fractions(poly.vertices, 1)
        assert fractions(B, D) == fractions(transform_polygon(poly, alpha, u), 1)
        res, want = reference_homothet_check(poly, alpha, u)
        rep = _homothet_check(poly, alpha, u)
        assert rep == want
        # each maximal segment has its own line, so the report counts the lines
        assert rep.checked + rep.flagged == direction_line_classes(res) == len(res.maximal_segments)

    @settings(max_examples=100, deadline=None)
    @given(
        poly=st.one_of(
            st.sampled_from([square(), diamond(), square(0.375)]),
            st.builds(random_symmetric_polygon, st.integers(2, 8), st.integers(0, 2**32 - 1)),
        ),
        alpha=st.sampled_from([0.25, 0.75, 1.0, 3.0, 0.3]),
        u=st.tuples(*[st.builds(lambda m, e: m * 2.0**e, st.integers(-(2**20), 2**20),
                                st.integers(-60, 4))] * 2),
    )
    def test_frame_matches_one_call_conversion(self, poly, alpha, u):
        # the polygon's own frame, scaled into lcm(den, den_u), is the frame of
        # one conversion of the vertices and u together, whichever
        # denominator is larger
        assert _homothet_frame(poly, alpha, u) == reference_homothet_frame(poly, alpha, u)

    @settings(max_examples=200, deadline=None)
    @given(case=homothety(alphas=(0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0)))
    @example(case=(square(), 2.0, (3.0, 0.0)))
    @example(case=(square(), 1.0, (2.0, 0.5)))
    def test_flags_exactly_the_anti_parallel_segments(self, case):
        # every edge pair of G and alpha * G + u, not only the two of each
        # direction: a segment lies on edges (i, i) or (i, i + n), the public
        # check flags it exactly on (i, i + n), and no segment misses its law
        poly, alpha, u = case
        assume(alpha != 1 or u != (0.0, 0.0))
        A, B, D = _homothet_frame(poly, alpha, u)
        n = len(A) // 2
        _, overlaps = _intersect_ints(A, B, lambda i: range(2 * n))
        for i, j, p, q in overlaps:
            assert j in (i, (i + n) % (2 * n))
            seg = Segment(_fraction_point(p, D), _fraction_point(q, D))
            rep = concurrence_check(IntersectionResult((), (seg,)), alpha, u)
            assert (rep.ok, rep.checked, rep.flagged, rep.max_error) == (True, int(j == i), int(j != i), 0.0)

    @pytest.mark.parametrize("alpha, u", [(1.0, (0.0, 0.0)), (0.0, (1.0, 0.0)), (2.0, (math.nan, 0.0))])
    def test_rejects_what_the_public_functions_reject(self, alpha, u):
        with pytest.raises(ValueError):
            reference_homothet_check(square(), alpha, u)
        with pytest.raises(ValueError):
            _homothet_check(square(), alpha, u)


@st.composite
def segments_on_few_lines(draw):
    """Segments on at most three lines through small integer points, with int,
    float or Fraction coordinates; an end may be moved by 2**-40, off its line."""
    coord = st.integers(-4, 4)
    lines = draw(st.lists(
        st.tuples(coord, coord, coord, coord).filter(lambda t: t[:2] != t[2:]),
        min_size=1, max_size=3,
    ))
    segs = []
    for _ in range(draw(st.integers(0, 5))):
        px, py, qx, qy = draw(st.sampled_from(lines))
        kind = draw(st.sampled_from([int, float, Fraction]))
        den = 1 if kind is int else 4
        ends = [[px + Fraction(k, den) * (qx - px), py + Fraction(k, den) * (qy - py)]
                for k in draw(st.lists(st.integers(-8, 8), min_size=2, max_size=2, unique=True))]
        if draw(st.booleans()):
            ends[draw(st.integers(0, 1))][draw(st.integers(0, 1))] += Fraction(1, 2**40)
        # a moved integer coordinate becomes a float
        segs.append(Segment(*(
            tuple(kind(c) if kind is not int or c.denominator == 1 else float(c) for c in end)
            for end in ends
        )))
    return segs


class TestDirectionClasses:
    @settings(max_examples=200, deadline=None)
    @given(segs=segments_on_few_lines())
    def test_matches_line_key_oracle(self, segs):
        want = {_line_key(*((Fraction(p[0]), Fraction(p[1])) for p in (s.a, s.b))) for s in segs}
        assert direction_line_classes(IntersectionResult((), tuple(segs))) == len(want)

    def test_empty(self):
        res = boundary_intersection(square(), transform_polygon(square(), 1.0, (5.0, 0.0)))
        assert direction_line_classes(res) == 0

    def test_single(self):
        res = boundary_intersection(square(), transform_polygon(square(), 2.0, (1.0, 0.0)))
        assert direction_line_classes(res) == 1

    def test_homothety_about_vertex_gives_two(self):
        # scaling about a vertex keeps both incident edges on their lines
        for alpha in (0.5, 2.0, 3.0):
            u = ((1 - alpha) * 1.0, (1 - alpha) * 1.0)  # vertex (1, 1)
            res = boundary_intersection(square(), transform_polygon(square(), alpha, u))
            assert direction_line_classes(res) == 2

    def test_float_segments_on_distinct_lines_are_distinct_classes(self):
        a = Segment((0.0, 0.0), (1.0, 0.0))
        b = Segment((2.0, 1e-12), (3.0, 1e-12))
        assert direction_line_classes(IntersectionResult((), (a, b))) == 2

    @pytest.mark.parametrize("p", [(1.0, 2.0), (Fraction(1, 3), 0)])
    def test_segment_needs_two_endpoints(self, p):
        with pytest.raises(ValueError, match="segment endpoints must differ"):
            Segment(p, p)


MISS = "segment 0: line's distance from u misses alpha times its distance from 0 by "


class TestConcurrence:
    def test_scaled_shift_passes_through_target(self):
        u = (1.0, 0.0)
        res = boundary_intersection(square(), transform_polygon(square(), 2.0, u))
        rep = concurrence_check(res, 2.0, u)
        assert rep.ok and rep.checked == 1
        assert rep.max_error == 0.0  # exact arithmetic: identically zero

    def test_opposite_edge_coincidence_flagged(self):
        u = (2.0, 0.0)
        res = boundary_intersection(square(), transform_polygon(square(), 1.0, u))
        rep = concurrence_check(res, 1.0, u)
        assert rep.ok
        assert rep.flagged == 1
        assert rep.flags == ("opposite-edge coincidence",)

    def test_external_edge_contact_passes_through_u_over_one_plus_alpha(self):
        # the square and 2 * square + (3, 0) touch from outside along x = 1, |y| <= 1, the
        # square's right edge and the image's left edge.  The line lies between 0 and u and
        # is 2 from u, twice its distance from 0: it passes through u/(1 + alpha) = (1, 0).
        # Both checks flag it and pass it.
        u = (3.0, 0.0)
        res = boundary_intersection(square(), transform_polygon(square(), 2.0, u))
        assert res.maximal_segments == (Segment((1, -1), (1, 1)),)
        public = concurrence_check(res, 2.0, u)
        assert _homothet_check(square(), 2.0, u) == public
        assert (public.ok, public.checked, public.flagged, public.max_error) == (True, 0, 1, 0.0)
        # at alpha = 1 the analogous contact passes through u/2 = (1, 1/4)
        u = (2.0, 0.5)
        res = boundary_intersection(square(), transform_polygon(square(), 1.0, u))
        public = concurrence_check(res, 1.0, u)
        assert _homothet_check(square(), 1.0, u) == public
        assert (public.ok, public.flags) == (True, ("opposite-edge coincidence",))

    def test_line_missing_u_over_one_plus_alpha_is_a_violation(self):
        # x = 1 lies between 0 and u = (3 + 2**-20, 0), 2 + 2**-20 from u, not 2 * 1: it misses
        # u/(1 + alpha) by 2**-20 / 3, and the size is 2**-20 relative to |u|
        u = (3.0 + 2**-20, 0.0)
        rep = concurrence_check(IntersectionResult((), (Segment((1, -1), (1, 1)),)), 2.0, u)
        assert (rep.ok, rep.checked, rep.flagged) == (False, 0, 1)
        assert rep.max_error == pytest.approx(2**-20 / (3 + 2**-20), rel=1e-15)
        assert rep.violations == (MISS + "3.179e-07 (rel)",)

    def test_miss_at_u_zero_is_an_absolute_distance(self):
        # at u = 0 the centre u/(1 - alpha) is the origin, and the size is the
        # line's distance from it, not a ratio to |u/(1 - alpha)| = 0
        res = IntersectionResult((), (Segment((5, -1), (5, 1)),))
        rep = concurrence_check(res, 3.0, (0.0, 0.0))
        assert (rep.ok, rep.checked, rep.max_error) == (False, 1, 5.0)
        assert rep.violations == (MISS + "5.000e+00 (abs)",)

    @pytest.mark.parametrize("u, size, label", [
        # the centre (-5e-301, 0) is 5 from x = 5, as the origin is: no jump at u = 0
        ((1e-300, 0.0), 5.0, "5.000e+00 (abs)"),
        # |u/(1 - alpha)| = 1/4 < 1: still the distance, 5 + 1/4
        ((0.5, 0.0), 5.25, "5.250e+00 (abs)"),
        # |u/(1 - alpha)| = 1: from here on relative, the distance 6 over 1
        ((2.0, 0.0), 6.0, "6.000e+00 (rel)"),
        ((4.0, 0.0), 3.5, "3.500e+00 (rel)"),
    ])
    def test_miss_is_relative_to_max_of_centre_and_one(self, u, size, label):
        res = IntersectionResult((), (Segment((5, -1), (5, 1)),))
        rep = concurrence_check(res, 3.0, u)
        assert (rep.ok, rep.checked, rep.max_error) == (False, 1, size)
        assert rep.violations == (MISS + label,)

    def test_parallel_translate_passes(self):
        u = (0.5, 0.0)
        res = boundary_intersection(square(), transform_polygon(square(), 1.0, u))
        rep = concurrence_check(res, 1.0, u)
        assert rep.ok and rep.checked == 2 and rep.flagged == 0
        assert rep.max_error == 0.0

    def test_alpha_one_zero_shift_rejected(self):
        res = boundary_intersection(square(), square())
        with pytest.raises(ValueError):
            concurrence_check(res, 1.0, (0.0, 0.0))

    def test_vertex_homothety_concurrence(self):
        for alpha in (0.5, 3.0):
            u = ((1 - alpha) * -1.0, (1 - alpha) * 1.0)  # vertex (-1, 1)
            res = boundary_intersection(square(), transform_polygon(square(), alpha, u))
            rep = concurrence_check(res, alpha, u)
            assert rep.ok and rep.checked == 2
            assert rep.max_error == 0.0

    def test_non_dyadic_homothety_in_doubles_misses(self):
        # the doubles 0.3 and 0.7 are not 3/10 and 7/10, and 0.7/(1 - 0.3) is not 1
        u = (0.7, 0.7)
        res = boundary_intersection(square(), transform_polygon(square(), 0.3, u))
        rep = concurrence_check(res, 0.3, u)
        assert not rep.ok and rep.checked == 2
        assert rep.max_error == pytest.approx(5.6e-17, rel=0.01)

    def test_non_dyadic_homothety_in_fractions_passes(self):
        alpha, u = Fraction(3, 10), (Fraction(7, 10), Fraction(7, 10))
        moved = [(alpha * Fraction(x) + u[0], alpha * Fraction(y) + u[1])
                 for x, y in square().vertices]
        rep = concurrence_check(boundary_intersection(square(), moved), alpha, u)
        assert rep.ok and rep.checked == 2
        assert rep.max_error == 0.0

    def test_line_missing_the_target_by_a_tiny_residual_fails(self):
        # alpha = 2, u = (1, 0): the target u/(1-alpha) is (-1, 0); x = -1 + 2**-40 misses it
        seg = Segment((-1 + 2**-40, -1.0), (-1 + 2**-40, 1.0))
        rep = concurrence_check(IntersectionResult((), (seg,)), 2.0, (1.0, 0.0))
        assert not rep.ok and rep.checked == 1
        assert rep.max_error == 2.0**-40

    def test_segment_nearly_parallel_to_u_fails(self):
        seg = Segment((0.0, 0.0), (1.0, 2**-45))
        rep = concurrence_check(IntersectionResult((), (seg,)), 1.0, (1.0, 0.0))
        assert not rep.ok and rep.checked == 1 and rep.flagged == 0
        assert 0.0 < rep.max_error < 1e-13

    @pytest.mark.parametrize(
        "alpha, u",
        [(math.inf, (1.0, 0.0)), (math.nan, (1.0, 0.0)), (2.0, (math.inf, 0.0)), (1.0, (0.0, math.nan))],
    )
    def test_non_finite_scale_or_translation_raises(self, alpha, u):
        res = boundary_intersection(square(), transform_polygon(square(), 2.0, (1.0, 0.0)))
        with pytest.raises(ValueError):
            concurrence_check(res, alpha, u)


def _dyadic_point(lo, hi, bits):
    return st.tuples(_dyadic(lo, hi, bits), _dyadic(lo, hi, bits)).map(
        lambda p: (Fraction(p[0]), Fraction(p[1]))
    )


@st.composite
def concurrence_case(draw):
    """(segments, alpha, u): dyadic segments on lines through u/(1-alpha) or
    u/(1+alpha), parallel to u, either of those moved off by 2**-40, or drawn
    at random.  u/(1+alpha) lies strictly between 0 and u, so a line through it
    separates them.  Or u carries alpha times edge i + n of a polygon onto the
    line of edge i, and the external contact of the two is one of the segments."""
    alpha = draw(st.sampled_from([0.5, 1.0, 2.0, 3.0]))
    fa = Fraction(alpha)
    segs = []
    if draw(st.booleans()):
        poly = random_symmetric_polygon(draw(st.integers(2, 6)), draw(st.integers(0, 2**32 - 1)))
        verts = [(Fraction(x), Fraction(y)) for x, y in poly.vertices]
        i = draw(st.integers(0, len(verts) - 1))
        v, w = verts[i], verts[(i + 1) % len(verts)]
        e = (w[0] - v[0], w[1] - v[1])
        # alpha * (edge i + n) + u runs from v + (s + alpha) e to v + s e
        s = Fraction(draw(_dyadic(2**-12 - alpha, 1.0 - 2**-12, 12)))
        fu = (v[0] + fa * w[0] + s * e[0], v[1] + fa * w[1] + s * e[1])
        lo, hi = max(s, 0), min(s + fa, 1)
        segs.append(((v[0] + lo * e[0], v[1] + lo * e[1]), (v[0] + hi * e[0], v[1] + hi * e[1])))
    else:
        fu = draw(_dyadic_point(-2.5, 2.5, 12))
        assume(fu != (0, 0) or alpha != 1)
    centres = [(fu[0] / k, fu[1] / k) for k in (1 - fa, 1 + fa) if k != 0]
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["through", "parallel", "random"]))
        if kind == "through":
            centre = draw(st.sampled_from(centres))
            d = draw(_dyadic_point(-2.0, 2.0, 8))
            assume(d != (0, 0))
            s, t = Fraction(draw(_dyadic(-2.0, 2.0, 8))), Fraction(draw(_dyadic(0.125, 2.0, 8)))
            a = (centre[0] + s * d[0], centre[1] + s * d[1])
            b = (a[0] + t * d[0], a[1] + t * d[1])
        elif kind == "parallel":
            assume(fu != (0, 0))
            a = draw(_dyadic_point(-3.0, 3.0, 12))
            t = Fraction(draw(_dyadic(0.125, 2.0, 8)))
            b = (a[0] + t * fu[0], a[1] + t * fu[1])
        else:
            a, b = draw(_dyadic_point(-3.0, 3.0, 12)), draw(_dyadic_point(-3.0, 3.0, 12))
            assume(a != b)
        if kind != "random" and draw(st.booleans()):
            off = Fraction(1, 2**40)
            a, b = (a[0] + off, a[1]), (b[0] + off, b[1])
        segs.append((a, b))
    u = (float(fu[0]), float(fu[1]))
    assert (Fraction(u[0]), Fraction(u[1])) == fu
    return [Segment(a, b) for a, b in segs], alpha, u


class TestConcurrenceOracle:
    """concurrence_check against the two-centre line-key check in Fraction."""

    @settings(max_examples=200, deadline=None)
    @given(case=concurrence_case())
    @example(case=([Segment((1, -1), (1, 1))], 1.0, (2.0, 0.0)))
    # the external contact of the square and 2 * square + (3, 0), on it and moved off by 2**-20
    @example(case=([Segment((1, -1), (1, 1))], 2.0, (3.0, 0.0)))
    @example(case=([Segment((1, -1), (1, 1))], 2.0, (3.0 + 2**-20, 0.0)))
    @example(case=([Segment((-1, 1), (1, 1)), Segment((1, -1), (1, 1))], 3.0, (-2.0, -2.0)))
    @example(case=([Segment((0, 0), (1, 1)), Segment((1, 0), (1, 1))], 2.0, (0.0, 0.0)))
    # a non-dyadic homothety about (1, 1), one segment moved off it by 2**-40
    @example(case=([Segment((Fraction(2, 5), 1), (1, 1)),
                    Segment((1 + Fraction(1, 2**40), Fraction(2, 5)), (1 + Fraction(1, 2**40), 1))],
                   Fraction(3, 10), (Fraction(7, 10), Fraction(7, 10))))
    # u = 0: the line x = 1 misses the centre 0 by 1, sized against |1 - alpha| = 2
    @example(case=([Segment((1, 0), (1, 1))], 3.0, (0.0, 0.0)))
    # a centre near 0 and one inside the unit disc: sized against 1
    @example(case=([Segment((5, -1), (5, 1))], 3.0, (1e-300, 0.0)))
    @example(case=([Segment((5, -1), (5, 1))], 3.0, (0.5, 0.0)))
    def test_matches_line_key_reference(self, case):
        segs, alpha, u = case
        rep = concurrence_check(IntersectionResult((), tuple(segs)), alpha, u)
        want = reference_concurrence([(s.a, s.b) for s in segs], alpha, u)
        got = (rep.ok, rep.checked, rep.flagged, rep.flags, len(rep.violations))
        assert got == tuple(want[k] for k in ("ok", "checked", "flagged", "flags", "violations"))
        assert rep.max_error == pytest.approx(max(want["sizes"], default=0.0), rel=1e-12)
        for seg, size in zip(segs, want["sizes"]):
            one = concurrence_check(IntersectionResult((), (seg,)), alpha, u)
            assert (one.max_error == 0.0) == (size == 0.0)
            assert one.max_error == pytest.approx(size, rel=1e-12)


class TestStrictlyConvexCount:
    def test_two_circles_crossing(self):
        assert strictly_convex_intersection_count(Disc(1.0), 1.0, (1.0, 0.0)).count == 2

    def test_two_circles_disjoint(self):
        assert strictly_convex_intersection_count(Disc(1.0), 1.0, (3.0, 0.0)).count == 0

    # g touches 0 without changing sign, so no sample pair certifies the
    # touching point: floats cannot tell a tangency from a near miss
    def test_external_tangency_is_unresolved(self):
        scan = strictly_convex_intersection_count(Disc(1.0), 1.0, (2.0, 0.0))
        assert (scan.count, scan.unresolved) == (0, True)

    @pytest.mark.parametrize("k, offset", [(100, 1e-5), (0, -1e-5)])
    def test_tangency_between_samples_is_unresolved(self, k, offset):
        # the touching angle falls between grid samples (and across the wrap for k = 0)
        phi = k * _STEP + offset
        x = (2 * math.cos(phi), 2 * math.sin(phi))
        scan = strictly_convex_intersection_count(Disc(1.0), 1.0, x)
        assert (scan.count, scan.unresolved) == (0, True)

    def test_internal_tangency(self):
        scan = strictly_convex_intersection_count(Disc(1.0), 0.5, (0.5, 0.0))
        assert (scan.count, scan.unresolved) == (0, True)

    def test_containment_gives_zero(self):
        assert strictly_convex_intersection_count(Disc(1.0), 3.0, (0.5, 0.0)).count == 0

    def test_circle_count_matches_geometry(self):
        # |1 - alpha| < |x| < 1 + alpha is the two-point regime for circles
        for alpha, d, expect in [(1.0, 0.4, 2), (2.0, 1.5, 2), (2.0, 0.5, 0), (0.5, 2.0, 0)]:
            got = strictly_convex_intersection_count(Disc(1.0), alpha, (d, 0.0)).count
            assert got == expect, (alpha, d)

    def test_cubic_ball_scaled_translates(self):
        # p=3 ball against its 1.3-scaled translates: never more than 2 points
        body = PBall(3.0, 1.0)
        rng = Xorshift64Star(2024)
        for _ in range(50):
            dx, dy = rng.in_disc()
            if dx == 0 and dy == 0:
                continue
            rho = 0.4 + 2.2 * rng.random()
            gd = gauge(body, (dx, dy))
            x = (rho * dx / gd, rho * dy / gd)
            assert strictly_convex_intersection_count(body, 1.3, x).count <= 2

    def test_pball_bound_small_batch(self):
        rng = Xorshift64Star(99)
        for body in (PBall(1.5, 1.0), PBall(3.0, 1.0)):
            for _ in range(25):
                alpha = 0.5 + 1.5 * rng.random()
                dx, dy = rng.in_disc()
                if dx == 0 and dy == 0:
                    continue
                rho = abs(1 - alpha) + (1 + alpha - abs(1 - alpha)) * (0.1 + 0.8 * rng.random())
                gd = gauge(body, (dx, dy))
                x = (rho * dx / gd, rho * dy / gd)
                assert strictly_convex_intersection_count(body, alpha, x).count <= 2

    def test_input_validation(self):
        with pytest.raises(ValueError):
            strictly_convex_intersection_count(square(), 1.0, (1.0, 0.0))
        with pytest.raises(ValueError):
            strictly_convex_intersection_count(Disc(1.0), 1.0, (0.0, 0.0))
        with pytest.raises(ValueError):
            strictly_convex_intersection_count(Disc(1.0), -1.0, (1.0, 0.0))

    @pytest.mark.parametrize(
        "alpha, x", [(1.0, (math.inf, 0.0)), (math.inf, (1.0, 0.0)), (1.0, (math.nan, 0.0))]
    )
    def test_non_finite_input_raises(self, alpha, x):
        with pytest.raises(ValueError):
            strictly_convex_intersection_count(Disc(1.0), alpha, x)


@st.composite
def scan_case(draw):
    """(body, alpha, x) for the root scan.  Translations cross,
    miss, contain, touch exactly on an axis at 1 + alpha or |1 - alpha|, cross
    inside the last grid cell (the sample pair (n-1, 0)), or sit at the
    rounding floor at alpha = 1, where g is noise and zero runs, crossings and
    flat minima of |g| crowd each other."""
    body = draw(
        st.one_of(
            st.builds(Disc, st.floats(0.25, 4.0)),
            st.sampled_from([PBall(1.5, 1.0), PBall(3.0, 1.0)]),
        )
    )
    alpha = draw(st.floats(0.3, 3.0))
    kind = draw(st.sampled_from(["cross", "disjoint", "contain", "axis", "wrap", "rounding"]))
    phi = draw(st.floats(0.0, 2 * math.pi))
    r = body.radius
    if kind == "axis":
        rho = draw(st.sampled_from([1 + alpha, abs(1 - alpha)])) * r
        assume(rho > 0)
        x = draw(st.sampled_from([(rho, 0.0), (0.0, rho), (-rho, 0.0), (0.0, -rho)]))
    elif kind == "wrap":
        # a point of the last cell [(n-1) step, 2 pi) lies on both curves
        t = (_SAMPLES - 1 + draw(st.floats(0.0, 1.0, exclude_max=True))) * _STEP
        (px, py), (qx, qy) = boundary_point(body, t), boundary_point(body, phi)
        x = (px - alpha * qx, py - alpha * qy)
    else:
        if kind == "rounding":
            alpha = 1.0
            rho = 10 ** draw(st.floats(-15.0, -11.0))
        else:
            lo, hi = abs(1 - alpha), 1 + alpha
            span = {"cross": (lo, hi), "disjoint": (hi, hi + 2), "contain": (0.01 * lo, lo)}
            rho = draw(st.floats(*span[kind]))
        ux, uy = boundary_point(body, phi)
        x = (rho * ux, rho * uy)
    assume(x[0] != 0 or x[1] != 0)
    return body, alpha, x


def _check_closed_form(body, alpha, x):
    """The scan's count against :func:`homothet_pair_count`: at most it, equal when
    resolved, at most 1 at an undecided tangency; one bracket per root, sorted by lo,
    and every bracket certified by the exact signs at its ends."""
    scan = strictly_convex_intersection_count(body, alpha, x)
    want = homothet_pair_count(body, alpha, x)
    assert scan.count <= (1 if want is None else want)
    assert scan.unresolved or want is None or scan.count == want
    assert scan.count == len(scan.brackets)
    assert list(scan.brackets) == sorted(scan.brackets)
    assert uncertified_brackets(body, alpha, x, scan.brackets) == []
    return scan


class TestFirstPassTable:
    """The scan's per-body table of first-pass boundary points."""

    @pytest.mark.parametrize("body", [Disc(1.0), PBall(1.5, 1.0), PBall(3.0, 2.0)])
    def test_read_only_boundary_points(self, body):
        table = _first_pass_points(body)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 0.0
        expected = boundary_points(body, np.arange(0, _SAMPLES, _STRIDE) * _STEP)
        assert np.array_equal(table, expected)

    def test_scan_is_the_same_cold_warm_anew_and_after_eviction(self):
        args = (1.3, (0.9, -0.4))
        _first_pass_points.cache_clear()
        cold = strictly_convex_intersection_count(PBall(3, 1), *args)
        warm = strictly_convex_intersection_count(PBall(3, 1), *args)
        anew = strictly_convex_intersection_count(PBall(3.0, 1.0), *args)
        assert _first_pass_points(PBall(3, 1)) is _first_pass_points(PBall(3.0, 1.0))
        for r in range(_first_pass_points.cache_info().maxsize):
            _first_pass_points(Disc(1.0 + r))
        misses = _first_pass_points.cache_info().misses
        evicted = strictly_convex_intersection_count(PBall(3.0, 1.0), *args)
        assert _first_pass_points.cache_info().misses == misses + 1
        assert cold == warm == anew == evicted
        assert cold.count == 2 and not cold.unresolved


class TestRootScanOracles:
    """The scan against the two-point closed form, with an exact certificate for every root."""

    @settings(max_examples=120, deadline=None)
    @given(case=scan_case())
    # a crossing inside the last grid cell, seen only through the pair (n-1, 0)
    @example(case=(Disc(1.0), 1.496175877787816, (2.496175877787816, 0.0)))
    # rounding noise: flat minima of |g| next to crossings are not tangencies
    @example(case=(PBall(1.5, 1.0), 1.0, (-3.2074114325844885e-14, 2.6793523255958387e-14)))
    # a run of zero samples through index 0: g is 0.0 at samples n-1 and 0
    @example(case=(Disc(1.0), 1.0, (1.8218282497603827e-17, 2.1933282903958047e-16)))
    # a crossing at grid sample n-1 itself: a run of one uncertain sample
    @example(case=(Disc(1.0), 1.296875, (-0.25655830190596896, -0.3209520094241996)))
    # a crossing at angle 0
    @example(case=(Disc(3.0), 2.75, (11.167438096953676, -1.1642400664939052)))
    @example(case=(Disc(1.0), 1.0, (0.45969769413186023, -0.8414709848078967)))
    # two crossings 1.2 grid steps apart
    @example(case=(Disc(1.0), 0.375, (0.6249999950000233, -9.999976599017931e-05)))
    # alpha = 1 at the rounding floor, where |g| is about 1e-11
    @example(case=(Disc(1.0), 1.0, (1e-11, 0.0)))
    # just past internal tangency: two crossings 0.6 grid steps apart, between two samples
    @example(case=(PBall(1.5, 1.0), 0.5, (0.49999991666696764, -2.4999939461282262e-05)))
    def test_matches_closed_form(self, case):
        _check_closed_form(*case)

    def test_certificate_rejects_what_the_signs_do_not_show(self):
        # unit circles with centres 1 apart cross at pi/3 and 5 pi/3; g < 0 between them
        case = (Disc(1.0), 1.0, (1.0, 0.0))
        a, b = _check_closed_form(*case).brackets
        shifted = [(lo + 8 * _STEP, hi + 8 * _STEP) for lo, hi in (a, b)]
        assert uncertified_brackets(*case, shifted) == shifted  # one sign at both ends
        assert uncertified_brackets(*case, [a, a, b]) == [a]  # overlaps its copy
        assert uncertified_brackets(*case, [(1.0, 1.0)]) == [(1.0, 1.0)]
        # opposite signs at both ends of each, but the second runs round past the first's lo
        assert uncertified_brackets(*case, [(0.5, a[1]), (b[0], 1.0)]) == [(b[0], 1.0)]

    def test_fixed_calls_match_closed_form(self):
        three = [Disc(1.0), PBall(1.5, 1.0), PBall(3.0, 1.0)]
        five = three + [Disc(0.5), PBall(3.0, 2.0)]
        calls = [(three[k % 3], 0.6 + 0.1 * k, (0.9 * math.cos(k), 0.9 * math.sin(k)))
                 for k in range(9)]
        calls += [(five[k % 5], 0.7 + 0.1 * k, (1.1 * math.cos(k), 1.1 * math.sin(k)))
                  for k in range(10)]
        for call in calls:
            assert not _check_closed_form(*call).unresolved, call

    @settings(max_examples=100, deadline=None)
    @given(
        r=st.floats(0.25, 4.0),
        alpha=st.floats(0.3, 3.0),
        phi=st.floats(0.0, 2 * math.pi),
        t=st.floats(0.01, 1.0),
    )
    def test_disc_count_matches_closed_form(self, r, alpha, phi, t):
        d = t * 2 * (1 + alpha) * r
        assume(all(abs(d - rt) > 1e-6 * rt for rt in ((1 + alpha) * r, abs(1 - alpha) * r)))
        x = (d * math.cos(phi), d * math.sin(phi))
        want = homothet_pair_count(Disc(r), alpha, x)
        assert strictly_convex_intersection_count(Disc(r), alpha, x).count == want


class TestScanCertificates:
    """The scan's slope and float-error bounds, and what it reports where
    floats cannot decide."""

    @pytest.mark.parametrize("body", [Disc(1.0), PBall(1.5, 1.0), PBall(3.0, 1.0)])
    @pytest.mark.parametrize("t", [1e-8, 1e-9, 1e-10, 1e-11, 1e-12])
    def test_translate_near_rounding_floor_never_reports_more_than_two(self, body, t):
        # alpha = 1 and x = (t, 0): two crossings, with |g| about t or less everywhere
        scan = strictly_convex_intersection_count(body, 1.0, (t, 0.0))
        assert scan.count <= 2
        assert scan.count == 2 or scan.unresolved

    @pytest.mark.parametrize("alpha", [1 - 1e-5, 1.0, 1 + 1e-5])
    def test_nearly_coincident_arcs(self, alpha):
        # the strict batch's "barely past internal tangency" radius near alpha = 1, where g is
        # about 1 - 1/alpha over wide arcs around the p = 3 ball's flat axis points
        body = PBall(3.0, 1.0)
        rho = abs(1 - alpha) + (1 + alpha - abs(1 - alpha)) * 0.002
        for k in range(24):
            c, s = math.cos(k * math.pi / 12), math.sin(k * math.pi / 12)
            gd = gauge(body, (c, s))
            scan = strictly_convex_intersection_count(body, alpha, (rho * c / gd, rho * s / gd))
            # at alpha = 1 and x on an axis both roots sit at flat points, where g' vanishes
            # faster than the bound: found, but the budget runs out before the arcs are cleared
            assert (scan.count, scan.unresolved) == (2, alpha == 1 and k % 6 == 0), k

    @pytest.mark.parametrize("body, x", [
        (PBall(3.0, 1.0), (-1.0461899687709008e-12, -2.754117263602614e-12)),
        (PBall(8.0, 1.0), (4.607888309022697e-13, 1.156261985545369e-13)),
    ])
    def test_uncertain_sample_between_samples_of_one_sign_is_unresolved(self, body, x):
        # halving between two certain samples of one sign finds a sample of uncertain sign,
        # which may hide two roots: both crossings are found, but the scan cannot finish
        scan = _check_closed_form(body, 1.0, x)
        assert (scan.count, scan.unresolved) == (2, True)

    @pytest.mark.parametrize("e", range(2, 14))
    def test_disc_near_internal_tangency_matches_closed_form(self, e):
        _check_closed_form(Disc(1.0), 1.0, (10.0 ** -e * math.cos(e), 10.0 ** -e * math.sin(e)))

    @pytest.mark.parametrize(
        "body", [Disc(1.0), PBall(1.1, 1.0), PBall(1.5, 1.0), PBall(3.0, 1.0), PBall(8.0, 1.0)]
    )
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_sampled_slope_is_within_lipschitz_bound(self, body, alpha):
        th = np.arange(_SAMPLES) * _STEP
        dth = np.diff(th)  # exact: neighbouring angles are within a factor 2
        worst = 0.0
        # |x| below r/3 (3 (p - 1) |x| < r) takes the sharper bound for p >= 2
        for phi, rho in ((0.3, 0.7), (1.9, 1.5), (4.0, 2.5), (2.6, 0.2), (5.1, 0.01), (0.9, 1e-4)):
            x = (rho * math.cos(phi), rho * math.sin(phi))
            lip, eps = _scan_bounds(body, alpha, math.hypot(*x))
            g = gauge_many(body, (boundary_points(body, th) - x) / alpha) - 1
            # the mean value theorem, plus the float error of the two samples
            worst = max(worst, ((np.abs(np.diff(g)) - 2 * eps) / dth).max() / lip)
        print(f"largest sampled slope / L for {body} at alpha {alpha}: {worst:.3g}")
        assert worst <= 1 + 1e-12

    @pytest.mark.parametrize("body, alpha, rho", [
        (Disc(1.0), 1.0, 0.6),
        (PBall(1.5, 0.5), 0.7, 1.1),
        (PBall(3.0, 2.0), 1.6, 1.5),
    ])
    def test_float_error_is_within_eps(self, body, alpha, rho):
        from mpmath import mp

        rng = np.random.default_rng(16)
        worst = 0.0
        for phi in (0.2, 1.3, 2.9, 4.4, 5.8):
            x = (rho * body.radius * math.cos(phi), rho * body.radius * math.sin(phi))
            _, eps = _scan_bounds(body, alpha, math.hypot(*x))
            scan = strictly_convex_intersection_count(body, alpha, x)
            assert scan.count == 2 and not scan.unresolved
            roots = []
            with mp.workdps(50):  # each root, bisected in its bracket on the exact gap
                for lo, hi in scan.brackets:
                    lo, hi = mp.mpf(lo), mp.mpf(hi) + (2 * mp.pi if hi < lo else 0)
                    glo = exact_gap(body, alpha, x, lo)
                    for _ in range(50):
                        mid = (lo + hi) / 2
                        if (exact_gap(body, alpha, x, mid) > 0) == (glo > 0):
                            lo = mid
                        else:
                            hi = mid
                    roots.append(float(lo))
            # 1,000 angles over the turn and 500 within 1e-12 of each root
            th = np.concatenate([rng.uniform(0, 2 * math.pi, 1000)]
                                + [t + rng.uniform(-1e-12, 1e-12, 500) for t in roots])
            fast = gauge_many(body, (boundary_points(body, th) - x) / alpha) - 1
            for t, f in zip(th.tolist(), fast.tolist()):
                px, py = boundary_point(body, t)
                slow = gauge(body, ((px - x[0]) / alpha, (py - x[1]) / alpha)) - 1.0
                with mp.workdps(50):
                    exact = exact_gap(body, alpha, x, t)
                    worst = max(worst, float(max(abs(f - exact), abs(slow - exact))) / eps)
        print(f"largest |computed g - g| / eps for {body}: {worst:.3g}")
        assert worst <= 1.0


class TestRandomSymmetricPolygon:
    def test_two_half_vertices_is_parallelogram(self):
        poly = random_symmetric_polygon(2, seed=5)
        assert poly.n_vertices == 4
        assert validate(poly) is None

    def test_deterministic(self):
        assert random_symmetric_polygon(6, seed=77) == random_symmetric_polygon(6, seed=77)

    def test_large_polygon_valid(self):
        poly = random_symmetric_polygon(50, seed=8)
        assert poly.n_vertices % 2 == 0
        assert validate(poly) is None

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            random_symmetric_polygon(1, seed=0)

    @pytest.mark.parametrize("n", [0, -1])
    def test_prng_below_needs_a_positive_bound(self, n):
        with pytest.raises(ValueError, match="below\\(\\) needs n >= 1"):
            Xorshift64Star(7).below(n)

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(2, 12), seed=st.integers(0, 2**64 - 1))
    @example(n=5, seed=9283)  # a negated zero coordinate
    def test_matches_float_draw_bit_for_bit(self, n, seed):
        poly = random_symmetric_polygon(n, seed)
        assert bits(poly.vertices) == bits(float_random_symmetric_polygon(n, seed).vertices)
        assert poly._frame == _scale_to_ints(poly.vertices)

    def test_negated_zero_keeps_its_sign(self):
        # the drawn point (-0.836..., 0.0) is not on the lower hull, its
        # negation is, with the y coordinate -0.0 that the double negation
        # gives; the grid integer 0 alone would give 0.0
        poly = random_symmetric_polygon(5, 9283)
        x, y = poly.vertices[3]
        assert x == 0.836151123046875
        assert math.copysign(1.0, y) == -1.0
        assert math.copysign(1.0, poly.vertices[7][1]) == 1.0

    @staticmethod
    def _degenerate_first(monkeypatch, failures):
        """Make the first ``failures`` draws put every point at (1, 1), whose
        hull with its negation has two vertices; record each draw's seed."""
        seeds = []

        class Rng(Xorshift64Star):
            def __init__(self, seed):
                super().__init__(seed)
                seeds.append(seed)
                if len(seeds) <= failures:
                    self.uniform = lambda lo, hi: 1.0

        monkeypatch.setattr(geometry_kernel, "Xorshift64Star", Rng)
        return seeds

    @pytest.mark.parametrize("n, seed", [(2, 5), (5, 9283), (8, 2**64 - 1)])
    def test_retries_with_the_next_derived_seed(self, monkeypatch, n, seed):
        seeds = self._degenerate_first(monkeypatch, 1)
        poly = random_symmetric_polygon(n, seed)
        assert seeds == [derive_seed(seed, 0), derive_seed(seed, 1)]
        expected = float_polygon_attempt(n, derive_seed(seed, 1))
        assert bits(poly.vertices) == bits(expected.vertices)
        assert poly._frame == _scale_to_ints(poly.vertices)

    def test_gives_up_after_64_draws(self, monkeypatch):
        seeds = self._degenerate_first(monkeypatch, 64)
        with pytest.raises(RuntimeError, match="no valid symmetric polygon after 64 attempts"):
            random_symmetric_polygon(3, 11)
        assert seeds == [derive_seed(11, k) for k in range(64)]

    @pytest.mark.parametrize("half", [
        ((0.5, 0.25), (1.0, 0.5), (1.5, 0.75)),  # collinear
        ((0.5, 0.25), (0.5, 0.25), (-0.25, 0.5)),  # a repeated vertex
        ((0.5, 0.0), (0.25, 0.0)),  # collinear on an axis
    ])
    def test_private_constructor_rejects_as_the_public_one(self, half):
        with pytest.raises(InvalidBodyError) as public:
            SymmetricPolygon.from_half(half)
        grid = [(round(x * 2**16), round(y * 2**16)) for x, y in half]
        with pytest.raises(InvalidBodyError) as private:
            SymmetricPolygon._from_half_frame(half, grid, 2**16)
        assert str(private.value) == str(public.value)


class TestLemmaTrialProperties:
    """Smaller-scale versions of the big acceptance batches."""

    def test_direction_classes_bounded(self):
        from gaugedist import run_lemma_checks

        batch = run_lemma_checks("13", 100, seed=123)
        assert batch.violations == 0
        assert batch.max_classes <= 2
        assert batch.segments_checked > 0

    def test_concurrence_holds(self):
        from gaugedist import run_lemma_checks

        batch = run_lemma_checks("14", 100, seed=321)
        assert batch.violations == 0
        assert all(r["max_concurrence_error"] <= 1e-9 for r in batch.rows)

    def test_strict_convexity_bound(self):
        from gaugedist import run_lemma_checks

        batch = run_lemma_checks("strict", 30, seed=11)
        assert batch.violations == 0
        assert batch.max_count <= 2
