import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaugedist import (
    Disc,
    InvalidBodyError,
    PBall,
    SymmetricPolygon,
    body_from_spec,
    boundary_point,
    boundary_points,
    diamond,
    distance_set,
    gauge,
    gauge_exact,
    gauge_many,
    load_body,
    max_euclid_radius,
    random_symmetric_polygon,
    square,
    validate,
)
from gaugedist.distance_sets import _exact_keys

from oracles import (
    exact_polygon_gauge,
    fraction_integer_form,
    full_integer_keys,
    full_normal_form,
    full_normal_gauge_many,
    raycast_gauge,
)


class TestValidate:
    """Bodies check their invariants once, at construction."""

    def test_square_ok(self):
        assert validate(square()) is None

    def test_odd_count_is_pairing_violation(self):
        with pytest.raises(InvalidBodyError, match="pairing"):
            SymmetricPolygon([(1, 0), (0, 1), (-1, 0)])

    def test_bowtie_order_is_convexity_violation(self):
        # vertices in bowtie order: the chain turns the wrong way somewhere
        with pytest.raises(InvalidBodyError, match="convex turn"):
            SymmetricPolygon([(1, 1), (-1, 1), (1, -1), (-1, -1)])

    def test_repeated_vertex(self):
        with pytest.raises(InvalidBodyError, match="repeated"):
            SymmetricPolygon([(1, 1), (1, 1), (-1, -1), (-1, -1)])

    def test_star_octagram_is_winding_violation(self):
        # {8/3}: a regular octagon's vertices taken three apart (c = dyadic
        # cos 45 degrees); every turn is a strict left turn around the origin,
        # but the boundary winds three times
        c = round(math.sqrt(0.5) * 2**16) / 2**16
        with pytest.raises(InvalidBodyError) as info:
            SymmetricPolygon.from_half([(1, 0), (-c, c), (0, -1), (c, c)])
        assert str(info.value) == "boundary winds 3 times around, not once"

    def test_clockwise_order_is_convexity_violation(self):
        with pytest.raises(InvalidBodyError, match="convex turn"):
            SymmetricPolygon(square().vertices[::-1])

    def test_disc_and_pball(self):
        assert validate(Disc(2.0)) is None
        assert validate(PBall(1.5, 1.0)) is None
        with pytest.raises(InvalidBodyError, match="disc radius 0.0 not positive"):
            Disc(0.0)
        with pytest.raises(InvalidBodyError, match=r"exponent 1.0 not in \(1, inf\)"):
            PBall(1.0, 1.0)  # p must exceed 1
        with pytest.raises(InvalidBodyError, match="p-ball radius -1.0 not positive"):
            PBall(3.0, -1.0)

    def test_operations_reject_invalid_bodies(self):
        # an invalid body cannot be built, so no operation can receive one;
        # other objects report an unsupported type
        with pytest.raises(InvalidBodyError):
            SymmetricPolygon([(1, 1), (-1, 1), (1, -1), (-1, -1)])
        with pytest.raises(InvalidBodyError, match="^unsupported body type tuple$"):
            validate((1.0, 0.0))
        with pytest.raises(InvalidBodyError, match="defined for polygon bodies"):
            gauge_exact(Disc(1.0), (1, 0))


def half_form(poly) -> tuple[np.ndarray, np.ndarray]:
    """The unit normals and offsets of the n rows the float gauge reads."""
    rows = np.array(poly._half_rows)
    return rows[:, :2], rows[:, 2]


class TestHalfRows:
    """Edge i + n is edge i negated, so the n half rows and their negations are
    the 2n rows of the oracle's half-plane form, :func:`full_normal_form`."""

    @pytest.mark.parametrize(
        "poly", [square(), diamond(), square(2.5), random_symmetric_polygon(6, seed=11)]
    )
    def test_rows_and_negations_are_the_full_normal_form(self, poly):
        normals, offsets = half_form(poly)
        full_normals, full_offsets = full_normal_form(poly.vertices)
        assert np.array_equal(np.concatenate((normals, -normals)), full_normals)
        assert np.array_equal(np.tile(offsets, 2), full_offsets)

    def test_unit_square(self):
        normals, offsets = half_form(square())
        both = np.concatenate((normals, -normals))
        assert {tuple(n) for n in np.round(both, 12)} == {(0.0, 1.0), (-1.0, 0.0), (0.0, -1.0), (1.0, 0.0)}
        assert np.allclose(offsets, 1.0)

    def test_diamond(self):
        normals, offsets = half_form(diamond())
        s = 1 / math.sqrt(2)
        assert np.allclose(np.abs(normals), s)
        assert np.allclose(offsets, s)

    def test_scaled_square_homogeneity(self):
        c = 2.5
        normals, offsets = half_form(square(c))
        assert np.allclose(np.sort(normals, axis=0), np.sort(half_form(square())[0], axis=0))
        assert np.allclose(offsets, c)

    def test_halfplane_reconstruction(self):
        # the polygon equals the half-plane intersection: vertices satisfy
        # every inequality |<v, n_i>| <= h_i
        poly = random_symmetric_polygon(6, seed=11)
        normals, offsets = half_form(poly)
        vals = np.asarray(poly.vertices) @ normals.T
        assert np.all(np.abs(vals) <= offsets[None, :] + 1e-12)


class TestGauge:
    def test_square_is_max_norm(self):
        assert gauge(square(), (3, 4)) == 4.0
        assert gauge(square(), (-3, -4)) == 4.0

    def test_disc_is_euclidean(self):
        assert gauge(Disc(1.0), (3, 4)) == 5.0
        assert gauge(Disc(2.0), (3, 4)) == 2.5

    def test_diamond_is_l1(self):
        assert abs(gauge(diamond(), (3, 4)) - 7.0) <= 1e-10 * 7.0
        assert gauge_exact(diamond(), (3, 4)) == 7

    def test_zero_point(self):
        for body in (square(), diamond(), Disc(1.0), PBall(1.5, 1.0)):
            assert gauge(body, (0.0, 0.0)) == 0.0

    def test_matches_raycast_oracle(self):
        poly = random_symmetric_polygon(7, seed=3)
        for x in [(1.3, -0.4), (-2.0, 5.0), (0.01, 0.02), (4.0, 4.0)]:
            g = gauge(poly, x)
            assert abs(g - raycast_gauge(poly.vertices, x)) <= 1e-10 * (1 + g)

    def test_gauge_many_matches_scalar(self):
        pts = np.array([[1.0, 2.0], [-3.0, 0.5], [0.0, 0.0], [2.0, -2.0]])
        for body in (square(), diamond(), Disc(0.7), PBall(3.0, 1.2)):
            many = gauge_many(body, pts)
            assert np.allclose(many, [gauge(body, p) for p in pts], rtol=0, atol=1e-14)

    def test_gauge_many_curved_bodies_bit_equal_to_written_out_formula(self):
        rng = np.random.default_rng(3)
        pts = np.concatenate((rng.uniform(-3.0, 3.0, (2000, 2)), rng.normal(0.0, 1e-3, (2000, 2))))
        for r in (0.7, 1.0, 1.2):
            assert np.array_equal(gauge_many(Disc(r), pts), np.hypot(pts[:, 0], pts[:, 1]) / r)
            for p in (1.5, 3.0):
                want = (np.abs(pts[:, 0]) ** p + np.abs(pts[:, 1]) ** p) ** (1.0 / p) / r
                assert np.array_equal(gauge_many(PBall(p, r), pts), want)

    def test_large_p_gauge_neither_overflows_nor_underflows(self):
        # 10^400 overflows a double and 1e-3^400 underflows to 0
        body = PBall(400.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert gauge(body, (10.0, 0.0)) == 10.0
            assert gauge(body, (1e-3, 0.0)) == 1e-3
            assert gauge(body, (0.0, 0.0)) == 0.0
            pts = [[10.0, 0.0], [1e-3, 0.0], [0.0, 0.0], [2.0, -1.0]]
            assert gauge_many(body, pts).tolist() == [10.0, 1e-3, 0.0, 2.0]

    def test_exact_gauge_fractions(self):
        assert gauge_exact(square(), (Fraction(1, 3), Fraction(1, 7))) == Fraction(1, 3)
        assert gauge_exact(diamond(), (Fraction(1, 3), Fraction(1, 7))) == Fraction(10, 21)

    def test_exact_gauge_rejects_invalid_and_curved_bodies(self):
        with pytest.raises(InvalidBodyError, match="convex turn"):
            SymmetricPolygon([(1, 1), (-1, 1), (1, -1), (-1, -1)])
        for body in (Disc(1.0), PBall(1.5, 1.0)):
            with pytest.raises(InvalidBodyError, match="polygon bodies"):
                gauge_exact(body, (1.0, 0.0))


finite_coord = st.floats(-1e300, 1e300, allow_subnormal=False)


@settings(max_examples=300, deadline=None)
@given(p=st.floats(1.01, 2000.0), x=st.tuples(finite_coord, finite_coord))
def test_pball_gauge_lies_between_max_norm_and_its_bound(p, x):
    """max(|x|, |y|) <= ||x||_p <= 2^(1/p) max(|x|, |y|) at any finite point and
    exponent, on both sides of the rescaling, with no warning."""
    m = max(abs(x[0]), abs(x[1]))
    body = PBall(p, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        one, many = gauge(body, x), gauge_many(body, [x])[0]
    for g in (one, many):
        assert m * (1 - 1e-12) <= g <= m * 2 ** (1 / p) * (1 + 1e-12)
    assert abs(one - many) <= 1e-14 * m


# dyadic rationals m * 2**e with denominators up to 2**52
dyadic = st.builds(lambda m, e: m * 2.0**e, st.integers(-(2**20), 2**20), st.integers(-52, 8))


@settings(max_examples=100, deadline=None)
@given(
    x=st.tuples(dyadic, dyadic),
    body=st.one_of(
        st.sampled_from([square(), diamond(), square(0.375)]),
        st.builds(random_symmetric_polygon, st.integers(2, 7), st.integers(0, 10**6)),
    ),
)
def test_exact_gauge_matches_fraction_oracle(x, body):
    g = gauge_exact(body, x)
    assert type(g) is Fraction
    assert g == exact_polygon_gauge(body.vertices, x)


def stretched_polygon(k, seed, ex, ey):
    """A random polygon with x scaled by 2**ex and y by 2**ey: exact, and still a body."""
    verts = random_symmetric_polygon(k, seed).vertices
    return SymmetricPolygon([(x * 2.0**ex, y * 2.0**ey) for x, y in verts])


# m * 2**e from the smallest subnormal's scale to near the largest double
extreme = st.builds(lambda m, e: m * 2.0**e, st.integers(1, 2**20), st.integers(-1074, 1000))


# dyadic polygons: fixed, random (2**-16 grid), and stretched toward both ends
# of the double range
dyadic_polygons = st.one_of(
    st.sampled_from([square(), diamond(), square(0.3)]),
    st.builds(stretched_polygon, st.integers(2, 9), st.integers(0, 10**6),
              st.integers(-1040, 1000), st.integers(-1040, 1000)),
    st.builds(lambda a, b: SymmetricPolygon.from_half([(a, 0.0), (0.0, b)]), extreme, extreme),
)


# vertices at the subnormal floor: the float offsets of edges 0 and 2 round to 0
SUBNORMAL_POLYGON = SymmetricPolygon(((2.0, 0.0), (0.0, 5e-324), (-2.0, -0.0), (-0.0, -5e-324)))
NO_FLOAT_FORM = r"^polygon edge 0 has normal \(0.0, 1.0\) and offset 0.0, not normal doubles"


def has_float_form(body) -> bool:
    """Whether the oracle's float normal form is exact enough to evaluate: every
    offset is a positive normal double, and every normal component is a normal
    double, or zero where its edge is parallel to an axis."""
    normals, offsets = full_normal_form(body.vertices)
    v = body.vertices
    axis = [(y1 == y0, x1 == x0) for (x0, y0), (x1, y1) in zip(v, v[1:] + v[:1])]
    normal = [(abs(nx) >= sys.float_info.min or zx) and (abs(ny) >= sys.float_info.min or zy)
              for (nx, ny), (zx, zy) in zip(normals.tolist(), axis)]
    return all(normal) and all(sys.float_info.min <= h < math.inf for h in offsets.tolist())


def test_polygon_without_float_form_is_served_only_exactly():
    with pytest.raises(ValueError, match=NO_FLOAT_FORM):
        gauge(SUBNORMAL_POLYGON, (1.0, 0.0))
    with pytest.raises(ValueError, match=NO_FLOAT_FORM):
        gauge_many(SUBNORMAL_POLYGON, [(1.0, 0.0)])
    assert gauge_exact(SUBNORMAL_POLYGON, (1.0, 0.0)) == Fraction(1, 2)
    ds = distance_set(SUBNORMAL_POLYGON, [(0.0, 0.0), (1.0, 0.0), (3.0, 0.0)], exact=True)
    assert ds.values == (0, Fraction(1, 2), 1, Fraction(3, 2))
    assert ds.multiplicities == (3, 1, 1, 1)


@settings(max_examples=200, deadline=None)
@given(body=dyadic_polygons)
@example(body=SymmetricPolygon.from_half([(1e200, 1e-300), (1e-300, 1e200)]))
def test_integer_form_matches_fraction_derivation(body):
    """The oracle's row i + n is its row i negated, and the body keeps rows 0 to n - 1."""
    rows, q = fraction_integer_form(body.vertices)
    n = len(rows) // 2
    assert rows[n:] == [(-a, -b) for a, b in rows[:n]]
    coef, body_q = body._integer_form
    assert ([tuple(row) for row in coef.tolist()], body_q) == (rows[:n], q)


# integer vectors: small, and up to 2**62, so that the keys of the same body
# are int64 for some draws and Python ints for others
int_vectors = st.lists(
    st.tuples(*2 * [st.one_of(st.integers(-9, 9), st.integers(-(2**62), 2**62))]),
    min_size=1, max_size=8,
)


@settings(max_examples=200, deadline=None)
@given(body=dyadic_polygons, vecs=int_vectors)
@example(body=square(), vecs=[(3, -4), (0, 0), (-5, 2)])  # int64 keys
@example(body=random_symmetric_polygon(3, 0), vecs=[(3, -4), (0, 0), (-5, 2)])  # object keys
def test_exact_keys_match_full_row_oracle(body, vecs):
    keys = _exact_keys(body, np.array(vecs, dtype=np.int64))
    assert keys.tolist() == full_integer_keys(body.vertices, vecs)


@settings(max_examples=200, deadline=None)
@given(body=dyadic_polygons)
@example(body=SUBNORMAL_POLYGON)
@example(body=stretched_polygon(2, 0, 39, -1040))  # an offset of -1.01e-313
def test_float_form_is_the_first_half_of_the_full_normal_form(body):
    """Row i + n of the oracle's float normal form is exactly minus row i (as
    numbers: a zero component may keep its sign) with the same offset, which
    is what lets the gauge read half the rows.  The body's float rows are the
    oracle's first half, or, without a float form (:func:`has_float_form`),
    reading them raises."""
    normals, offsets = full_normal_form(body.vertices)
    n = len(offsets) // 2
    assert np.array_equal(normals[n:], -normals[:n])
    assert offsets[n:].tobytes() == offsets[:n].tobytes()
    if not has_float_form(body):
        with pytest.raises(ValueError, match="not normal doubles"):
            body._half_rows
        return
    assert body._half_rows == tuple(zip(*normals[:n].T.tolist(), offsets[:n].tolist()))


# a coordinate: dyadic, a signed zero, near the largest double, or infinite
wide_coord = st.one_of(
    dyadic,
    st.sampled_from([0.0, -0.0, 1.7e308, -1.7e308, 1e308, math.inf, -math.inf]),
    st.builds(lambda m, e: m * 2.0**e, st.integers(-(2**20), 2**20), st.integers(-1074, 1000)),
)


@settings(max_examples=200, deadline=None)
@given(
    body=dyadic_polygons,
    pts=st.lists(st.tuples(wide_coord, wide_coord), min_size=1, max_size=12),
)
@example(body=square(), pts=[(-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (0.0, 0.0)])
@example(body=diamond(), pts=[(1.7e308, 1.7e308), (math.inf, 0.0), (math.inf, -math.inf)])
@example(body=stretched_polygon(2, 0, 39, -1040), pts=[(1.0, 0.0)])
@example(body=stretched_polygon(7, 152257, 815, -777), pts=[(1.0, 0.0)])
def test_half_normal_gauge_matches_full_normal_oracle(body, pts):
    """gauge_many equals the max over all 2n rows, nan where it is nan (an
    infinite coordinate times a zero normal component, or inf - inf) and inf
    where a row overflows; it never sets the sign bit, not even at a zero
    point, where the oracle's max may pick -0.0.  At finite points the scalar
    gauge gives the same doubles, bit for bit.  Both raise exactly when the
    body has no float form (:func:`has_float_form`)."""
    finite = [i for i, (x, y) in enumerate(pts) if math.isfinite(x) and math.isfinite(y)]
    if not has_float_form(body):
        with pytest.raises(ValueError, match="not normal doubles"):
            gauge_many(body, pts)
        for i in finite:
            with pytest.raises(ValueError, match="not normal doubles"):
                gauge(body, pts[i])
        return
    with np.errstate(over="ignore", invalid="ignore"):
        got = gauge_many(body, pts)
        want = full_normal_gauge_many(body, pts)
        one = np.array([gauge(body, pts[i]) for i in finite])
    assert np.array_equal(got, want, equal_nan=True)
    assert not np.signbit(got).any()
    assert one.tobytes() == got[finite].tobytes()


@settings(max_examples=200, deadline=None)
@given(body=dyadic_polygons)
# every offset is a positive normal double, but the x components of the normals
# underflow to 0: without the check, the gauge of a vertex reached 628.4
@example(body=stretched_polygon(7, 152257, 815, -777))
def test_float_gauge_of_every_vertex_is_one(body):
    """To within a few roundings of the largest ratio (|v_x n_x| + |v_y n_y|) / h
    over the vertices v and the oracle's rows (n, h)."""
    if not has_float_form(body):
        return
    normals, offsets = full_normal_form(body.vertices)
    cond = np.max(np.abs(np.asarray(body.vertices)) @ np.abs(normals).T / offsets)
    err = np.max(np.abs(gauge_many(body, body.vertices) - 1.0))
    assert err <= 16 * np.finfo(float).eps * cond


def test_signed_zero_point_has_gauge_plus_zero():
    for body in (square(), diamond(), random_symmetric_polygon(5, 2)):
        for x in [(-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)]:
            assert math.copysign(1.0, gauge(body, x)) == 1.0
            assert not np.signbit(gauge_many(body, [x])).any()


def test_gauge_many_reads_column_major_points_alike():
    rng = np.random.default_rng(5)
    pts = rng.uniform(-4.0, 4.0, (500, 2))
    for body in (square(), random_symmetric_polygon(6, 8), Disc(0.7), PBall(1.5, 1.0)):
        got = gauge_many(body, np.asfortranarray(pts))
        assert got.tobytes() == gauge_many(body, pts).tobytes()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    xc=st.tuples(st.floats(-50, 50), st.floats(-50, 50)),
    yc=st.tuples(st.floats(-50, 50), st.floats(-50, 50)),
    alpha=st.floats(0, 8),
)
def test_gauge_axioms_hold(seed, xc, yc, alpha):
    bodies = [
        square(),
        diamond(),
        Disc(0.8),
        PBall(1.5, 1.0),
        random_symmetric_polygon(5, seed),
    ]
    for body in bodies:
        gx = gauge(body, xc)
        gy = gauge(body, yc)
        # homogeneity
        gax = gauge(body, (alpha * xc[0], alpha * xc[1]))
        assert abs(gax - alpha * gx) <= 1e-12 * (1 + gx) * max(1.0, alpha)
        # symmetry is exact
        assert gauge(body, (-xc[0], -xc[1])) == gx
        # triangle inequality
        gsum = gauge(body, (xc[0] + yc[0], xc[1] + yc[1]))
        assert gsum <= gx + gy + 1e-12 * (1 + gx + gy)


class TestBoundaryPoint:
    def test_disc_north(self):
        p = boundary_point(Disc(1.0), math.pi / 2)
        assert abs(p[0]) < 1e-15 and abs(p[1] - 1.0) < 1e-15

    def test_square_diagonal_hits_corner(self):
        p = boundary_point(square(), math.pi / 4)
        assert abs(p[0] - 1.0) < 1e-12 and abs(p[1] - 1.0) < 1e-12

    def test_square_east(self):
        p = boundary_point(square(), 0.0)
        assert p == (1.0, 0.0)

    def test_output_has_unit_gauge(self):
        for body in (square(), diamond(), Disc(2.0), PBall(3.0, 0.5)):
            for theta in np.linspace(0, 2 * math.pi, 37):
                assert abs(gauge(body, boundary_point(body, theta)) - 1.0) <= 1e-12

    def test_vectorized_matches_scalar(self):
        thetas = np.linspace(0, 2 * math.pi, 17)
        body = PBall(1.5, 1.0)
        many = boundary_points(body, thetas)
        single = np.array([boundary_point(body, t) for t in thetas])
        assert np.allclose(many, single, rtol=0, atol=1e-14)


class TestBodySpecs:
    def test_polygon_with_completion(self):
        body = body_from_spec(
            {"type": "polygon", "vertices": [[1, 1], [-1, 1]], "symmetric_completion": True}
        )
        assert body == square()

    def test_disc_and_pball_specs(self):
        assert body_from_spec({"type": "disc", "radius": 2}) == Disc(2.0)
        assert body_from_spec({"type": "pball", "p": 3, "radius": 1}) == PBall(3.0, 1.0)

    def test_unknown_type(self):
        with pytest.raises(ValueError):
            body_from_spec({"type": "banana"})

    @pytest.mark.parametrize("spec, field", [
        # a string is no JSON boolean: "false" must not complete the polygon
        ({"type": "polygon", "vertices": [[1, 1], [-1, 1]], "symmetric_completion": "false"},
         "symmetric_completion"),
        ({"type": "polygon", "vertices": [[1, 1], [-1, 1]], "symmetric_completion": 1},
         "symmetric_completion"),
        ({"type": "disc", "radius": True}, "radius"),
        ({"type": "disc", "radius": "1.0"}, "radius"),
        ({"type": "disc", "radius": 10**400}, "radius"),
        ({"type": "pball", "p": "3", "radius": 1}, "p"),
        ({"type": "pball", "p": 3, "radius": False}, "radius"),
        # each vertex is an array of two JSON numbers
        ({"type": "polygon", "vertices": [["1", "1"], [-1, True]], "symmetric_completion": True},
         "vertices"),
        ({"type": "polygon", "vertices": [[1, 1], [-1, True]], "symmetric_completion": True},
         "vertices"),
        ({"type": "polygon", "vertices": [[1, 1], [-1, 1, 0]], "symmetric_completion": True},
         "vertices"),
    ])
    def test_fields_have_json_types(self, spec, field):
        with pytest.raises(ValueError, match=f"body spec field '{field}': "):
            body_from_spec(spec)

    def test_completion_is_false_when_absent_or_false(self):
        verts = [[1, 1], [-1, 1], [-1, -1], [1, -1]]
        assert body_from_spec({"type": "polygon", "vertices": verts}) == square()
        spec = {"type": "polygon", "vertices": verts, "symmetric_completion": False}
        assert body_from_spec(spec) == square()

    def test_load_named_and_file(self, tmp_path):
        assert load_body("square") == square()
        assert load_body("diamond") == diamond()
        assert load_body("disc") == Disc(1.0)
        path = tmp_path / "body.json"
        path.write_text('{"type": "disc", "radius": 3.5}')
        assert load_body(str(path)) == Disc(3.5)

    def test_max_euclid_radius(self):
        assert max_euclid_radius(square()) == math.sqrt(2)
        assert max_euclid_radius(Disc(2.0)) == 2.0
        assert max_euclid_radius(diamond()) == 1.0
        # p > 2 bulges past the inscribed disc on the diagonal
        assert max_euclid_radius(PBall(3.0, 1.0)) == 2 ** (0.5 - 1 / 3)
        assert max_euclid_radius(PBall(1.5, 1.0)) == 1.0
