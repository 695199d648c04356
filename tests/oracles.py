"""Independent oracles used by the tests.

These deliberately avoid the library's evaluation paths: the gauge oracle is a
ray cast (binary search on the scale with a cross-product point-in-polygon
test, no half-plane normal form), ``full_normal_gauge_many`` and
``full_integer_keys`` take the max over all 2n edges of a polygon's float and
integer normal forms, derived here from the vertices, where the library uses
half of them and an absolute value, ``plain_round_gauge_many`` evaluates the
plain and the rescaled p-ball formula on every row and picks one with
``np.where``, where the library rescales only the rows it finds, distance
oracles are brute-force pair loops (``row_pair_values`` is the float pair loop
one row at a time, each pair as p_j - p_i with j > i, where the library
enumerates pairs by cyclic shift), orientation checks use exact rational cross
products, the annulus/cone counts test one point at a time, the concurrence
reference keys each segment's supporting line on its own, the polygon lemma
trial is the composition of the library's public polygon functions that the
trials ran before they checked each homothet in one integer frame, the random
polygon draw snaps doubles with ``quantize`` and takes their hull in doubles,
the homothet frame converts the polygon and u in one call, the strictly
convex count is a closed form in the body's norm, with each scanned root
bracket certified by the exact signs of the gap at its ends, in mpmath, and
the exact disc set keys every pair in Python ints, where the library may hold
its keys as uint64 limbs, and values them by the library's root rule.
"""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
from mpmath import mp

from gaugedist import (
    Disc,
    InvalidBodyError,
    SymmetricPolygon,
    boundary_intersection,
    concurrence_check,
    direction_line_classes,
    gauge_many,
    random_symmetric_polygon,
    transform_polygon,
)
from gaugedist.convex_body import _scale_to_ints
from gaugedist.distance_sets import _disc_roots
from gaugedist.experiments import _choose_u
from gaugedist.prng import Xorshift64Star, derive_seed, quantize


def full_normal_form(vertices) -> tuple[np.ndarray, np.ndarray]:
    """Unit outward normals n_i and offsets h_i = <v_i, n_i> of every edge
    v_i -> v_i+1 of a polygon, as (2n, 2) and (2n,) float arrays."""
    verts = np.asarray(vertices, dtype=float)
    edges = np.roll(verts, -1, axis=0) - verts
    raw = np.stack([edges[:, 1], -edges[:, 0]], axis=1)
    normals = raw / np.hypot(raw[:, 0], raw[:, 1])[:, None]
    return normals, verts[:, 0] * normals[:, 0] + verts[:, 1] * normals[:, 1]


def full_normal_gauge_many(poly, points) -> np.ndarray:
    """Polygon gauge over every edge: max_i <x, n_i> / h_i on
    :func:`full_normal_form`, all 2n rows at once, reduced with ``np.max``.
    The max over {0.0, -0.0} may be either zero."""
    normals, offsets = full_normal_form(poly.vertices)
    pts = np.asarray(points, dtype=float)
    vals = pts[:, 0, None] * normals[None, :, 0] + pts[:, 1, None] * normals[None, :, 1]
    vals /= offsets
    return np.max(vals, axis=1)


def point_in_polygon(vertices, p) -> bool:
    """p inside the convex CCW polygon (boundary counts), by edge orientation."""
    m = len(vertices)
    for i in range(m):
        ax, ay = vertices[i]
        bx, by = vertices[(i + 1) % m]
        if (bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax) < 0:
            return False
    return True


def plain_round_gauge_many(body, points) -> np.ndarray:
    """``gauge_many`` of a disc or p-ball in plain whole-array expressions: hypot(x, y) / r,
    or (|x|^p + |y|^p)^(1/p) / r, and where that sum is not a normal double and the
    row is not zero, m ((|x|/m)^p + (|y|/m)^p)^(1/p) / r for m = max(|x|, |y|),
    chosen row by row with ``np.where``."""
    pts = np.asarray(points, dtype=float)
    ax, ay = np.abs(pts[:, 0]), np.abs(pts[:, 1])
    if isinstance(body, Disc):
        return np.hypot(ax, ay) / body.radius
    p = body.p
    m = np.maximum(ax, ay)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        s = ax**p + ay**p
        scaled = m * ((ax / m) ** p + (ay / m) ** p) ** (1.0 / p)
    rescale = ((s < np.finfo(float).tiny) | (s == np.inf)) & (m > 0)
    return np.where(rescale, scaled, s ** (1.0 / p)) / body.radius


def raycast_gauge(vertices, x, iters: int = 80) -> float:
    """Gauge via scaling x until it meets the boundary (scalar version)."""
    px, py = float(x[0]), float(x[1])
    if px == 0 and py == 0:
        return 0.0
    hi = 1.0
    for _ in range(200):
        if point_in_polygon(vertices, (px / hi, py / hi)):
            break
        hi *= 2.0
    lo = 0.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid > 0 and point_in_polygon(vertices, (px / mid, py / mid)):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def raycast_gauge_many(vertices, X, iters: int = 80) -> np.ndarray:
    """Vectorized ray-cast gauge for an (n, 2) array of nonzero points."""
    verts = np.asarray(vertices, dtype=float)
    edges = np.roll(verts, -1, axis=0) - verts

    def inside(P):
        rel = P[:, None, :] - verts[None, :, :]
        cr = edges[None, :, 0] * rel[:, :, 1] - edges[None, :, 1] * rel[:, :, 0]
        return np.all(cr >= 0.0, axis=1)

    X = np.asarray(X, dtype=float)
    n = len(X)
    hi = np.ones(n)
    for _ in range(200):
        out = ~inside(X / hi[:, None])
        if not out.any():
            break
        hi[out] *= 2.0
    lo = np.zeros(n)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        ok = inside(X / mid[:, None])
        hi = np.where(ok, mid, hi)
        lo = np.where(ok, lo, mid)
    return 0.5 * (lo + hi)


def brute_pairwise_values(gauge_fn, points):
    """Sorted list of all pairwise values (including the diagonal zeros)."""
    vals = []
    pts = list(points)
    for i, p in enumerate(pts):
        for q in pts[i:]:
            vals.append(gauge_fn((q[0] - p[0], q[1] - p[1])))
    return sorted(vals)


def row_pair_values(body, pts) -> np.ndarray:
    """The gauge_many values of every difference p_j - p_i, i < j, one call per
    row i, concatenated in row order."""
    rows = [gauge_many(body, pts[i + 1 :] - pts[i]) for i in range(len(pts) - 1)]
    return np.concatenate(rows) if rows else np.zeros(0)


def brute_exact_counts(key, points):
    """Sorted (exact key, pair count) over all pairs i <= j, diagonal included.

    ``key`` receives the exact rational difference vector of each pair.
    """
    fr = [(Fraction(x), Fraction(y)) for x, y in points]
    acc = Counter(
        key((q[0] - p[0], q[1] - p[1])) for i, p in enumerate(fr) for q in fr[i:]
    )
    return sorted(acc.items())


def exact_polygon_gauge(vertices, x) -> Fraction:
    """Exact gauge of a rational point: the largest cross(x, b - a) / cross(a, b)
    over the edges (a, b) of a CCW polygon with the origin inside."""
    fx, fy = Fraction(x[0]), Fraction(x[1])
    verts = [(Fraction(a), Fraction(b)) for a, b in vertices]
    best = Fraction(0)
    for (ax, ay), (bx, by) in zip(verts, verts[1:] + verts[:1]):
        best = max(best, (fx * (by - ay) - fy * (bx - ax)) / (ax * by - ay * bx))
    return best


def fraction_integer_form(vertices) -> tuple[list[tuple[int, int]], int]:
    """(coef rows, q) of a polygon's integer form, derived in Fractions: each
    edge (v, w) has normal (ey, -ex) over h = cross(v, w), q is the lcm of the
    denominators of these ratios and the rows are q times them."""
    verts = [(Fraction(x), Fraction(y)) for x, y in vertices]
    ratios = []
    for (vx, vy), (wx, wy) in zip(verts, verts[1:] + verts[:1]):
        ex, ey = wx - vx, wy - vy
        h = vx * ey - vy * ex
        ratios.append((ey / h, -ex / h))
    q = math.lcm(*(r.denominator for row in ratios for r in row))
    return [(int(a * q), int(b * q)) for a, b in ratios], q


def full_integer_keys(vertices, V) -> list[int]:
    """q * gauge of each integer vector (X, Y) in V: max_i <coef_i, (X, Y)>
    over all 2n rows of :func:`fraction_integer_form`."""
    coef, _ = fraction_integer_form(vertices)
    return [max(a * x + b * y for a, b in coef) for x, y in V]


def disc_root(k: int, num: int, den: int) -> float:
    """sqrt(k * num / den) for an integer k >= 0 and num / den in lowest terms,
    one key at a time: sqrt(numerator) / sqrt(denominator) of the product in
    lowest terms, each a correctly rounded root of a rounded integer."""
    g = math.gcd(k, den)
    return math.sqrt(k // g * num) / math.sqrt(den // g)


def disc_int_key_set(radius, points) -> tuple[np.ndarray, np.ndarray]:
    """(roots, counts) of the exact disc distance set, keyed in Python ints:
    each pair's squared difference of the points scaled to integers by their
    common denominator den, the n coincident pairs counted at key 0, valued
    by ``_disc_roots`` at c = 1 / (den * radius)**2 on an object array of the
    distinct keys and ordered by (root, key)."""
    ints, den = _scale_to_ints(points)
    counts = Counter(
        (qx - px) ** 2 + (qy - py) ** 2 for i, (px, py) in enumerate(ints) for qx, qy in ints[i + 1 :]
    )
    counts[0] += len(ints)
    keys = sorted(counts)
    roots = _disc_roots(np.array(keys, dtype=object), 1 / (den * Fraction(radius)) ** 2)
    order = np.argsort(roots, kind="stable")
    return roots[order], np.array([counts[keys[i]] for i in order.tolist()])


def greedy_cluster(sorted_vals, tol, weights=None):
    """Reference clustering, one value at a time: a value more than tol above
    its cluster's first value starts the next cluster.  Returns the firsts and
    the sizes (summed weights when given)."""
    reps, counts = [], []
    start = None
    for v, w in zip(sorted_vals, [1] * len(sorted_vals) if weights is None else weights):
        if start is None or v - start > tol:
            reps.append(v)
            counts.append(w)
            start = v
        else:
            counts[-1] += w
    return reps, counts


def moser_counts(points, gauges, theta1, theta2, N_range, width):
    """``{N: count}`` of the points strictly inside the annulus
    (width*N, width*(N+1)) and the open cone theta1 < angle < theta2, one
    point at a time.

    The gauges come from the caller, one per point, so this checks the
    selection and the counting, not gauge evaluation; the angle is taken with
    ``math.atan2`` and reduced modulo 2*pi from theta1.
    """
    counts = {}
    for N in N_range:
        inner, outer = width * N, width * (N + 1)
        count = 0
        for (x, y), g in zip(points, gauges):
            d = (math.atan2(y, x) - theta1) % (2 * math.pi)
            if 0 < d < theta2 - theta1 and inner < g < outer:
                count += 1
        counts[N] = count
    return counts


def brute_min_pairwise_euclid(points) -> float:
    pts = np.asarray(points, dtype=float)
    best = np.inf
    for i in range(len(pts) - 1):
        d = np.hypot(pts[i + 1 :, 0] - pts[i, 0], pts[i + 1 :, 1] - pts[i, 1])
        best = min(best, float(np.min(d)))
    return best


def exact_turn(o, a, b) -> int:
    """Sign of the cross product in exact rational arithmetic."""
    ox, oy = Fraction(o[0]), Fraction(o[1])
    cr = (Fraction(a[0]) - ox) * (Fraction(b[1]) - oy) - (Fraction(a[1]) - oy) * (
        Fraction(b[0]) - ox
    )
    return (cr > 0) - (cr < 0)


def on_closed_segment(p, a, b) -> bool:
    """p lies on the closed segment ab, decided in exact rationals."""
    p, a, b = ((Fraction(q[0]), Fraction(q[1])) for q in (p, a, b))
    ex, ey = b[0] - a[0], b[1] - a[1]
    px, py = p[0] - a[0], p[1] - a[1]
    return ex * py - ey * px == 0 and 0 <= ex * px + ey * py <= ex * ex + ey * ey


def on_closed_polyline(vertices, p) -> bool:
    """p lies on some edge of the closed polyline through ``vertices``."""
    m = len(vertices)
    return any(on_closed_segment(p, vertices[i], vertices[(i + 1) % m]) for i in range(m))


def exact_edge_pieces(V1, V2):
    """Intersection of two closed polylines, one edge pair at a time, in Fraction.

    Returns ``(points, segments)``: crossing and touching points, and the
    collinear overlaps of positive length as ``(p, q)`` pairs.  Each edge pair
    is solved on its own (Cramer's rule for a crossing, projection onto the
    first edge and clipping for a collinear overlap); nothing is merged,
    absorbed or deduplicated.
    """
    A = [(Fraction(x), Fraction(y)) for x, y in V1]
    B = [(Fraction(x), Fraction(y)) for x, y in V2]
    points, segments = [], []
    for a, b in zip(A, A[1:] + A[:1]):
        rx, ry = b[0] - a[0], b[1] - a[1]
        for c, d in zip(B, B[1:] + B[:1]):
            sx, sy = d[0] - c[0], d[1] - c[1]
            qx, qy = c[0] - a[0], c[1] - a[1]
            det = rx * sy - ry * sx
            if det != 0:
                # a + t*r == c + w*s
                t = (qx * sy - qy * sx) / det
                w = (qx * ry - qy * rx) / det
                if 0 <= t <= 1 and 0 <= w <= 1:
                    points.append((a[0] + t * rx, a[1] + t * ry))
                continue
            if qx * ry - qy * rx != 0:
                continue  # parallel, on different lines
            rr = rx * rx + ry * ry
            t0 = (qx * rx + qy * ry) / rr
            t1 = ((d[0] - a[0]) * rx + (d[1] - a[1]) * ry) / rr
            lo, hi = max(min(t0, t1), 0), min(max(t0, t1), 1)
            if lo == hi:
                points.append((a[0] + lo * rx, a[1] + lo * ry))
            elif lo < hi:
                segments.append(((a[0] + lo * rx, a[1] + lo * ry), (a[0] + hi * rx, a[1] + hi * ry)))
    return points, segments


def _line_key(a, b):
    """Line through the rational points a != b as (nx, ny, c), <n, p> = c, with
    n the primitive integer normal whose first nonzero entry is positive."""
    nx, ny = a[1] - b[1], b[0] - a[0]
    scale = math.lcm(nx.denominator, ny.denominator)
    nx, ny = int(nx * scale), int(ny * scale)
    g = math.gcd(nx, ny)
    nx, ny = nx // g, ny // g
    if nx < 0 or (nx == 0 and ny < 0):
        nx, ny = -nx, -ny
    return nx, ny, nx * a[0] + ny * a[1]


def reference_concurrence(segments, alpha, u) -> dict:
    """The concurrence law checked one segment at a time in Fraction, by the
    segment's supporting-line key <n, p> = c: a line with 0 and u on one side
    (or through either) must pass through u/(1-alpha), or be parallel to u at
    alpha == 1, and a line with 0 and u strictly on opposite sides, flagged,
    must pass through u/(1+alpha).

    Returns ``ok``, ``checked``, ``flagged``, ``flags``, ``violations`` (the
    number of nonzero residuals) and ``sizes``: per segment, the distance of
    the target u/k from the line, k = 1 - alpha or 1 + alpha, times |k| over
    max(|u|, |1 - alpha|), or at k == 0 the sine of the angle to u.
    """
    fu, fa = (Fraction(u[0]), Fraction(u[1])), Fraction(alpha)
    ref = max(math.hypot(float(fu[0]), float(fu[1])), abs(float(1 - fa)))
    checked = flagged = violations = 0
    sizes = []
    for a, b in segments:
        nx, ny, c = _line_key(*((Fraction(p[0]), Fraction(p[1])) for p in (a, b)))
        apart = c * (nx * fu[0] + ny * fu[1] - c) > 0  # <n, 0> - c and <n, u> - c differ in sign
        k = 1 + fa if apart else 1 - fa
        if k == 0:
            resid = nx * fu[0] + ny * fu[1]
            size = abs(float(resid)) / math.hypot(nx, ny) / ref
        else:
            resid = nx * fu[0] / k + ny * fu[1] / k - c
            size = abs(float(resid)) / math.hypot(nx, ny) * abs(float(k)) / ref
        flagged += apart
        checked += not apart
        violations += resid != 0
        sizes.append(size)
    return {
        "ok": violations == 0,
        "checked": checked,
        "flagged": flagged,
        "flags": ("opposite-edge coincidence",) * flagged,
        "violations": violations,
        "sizes": sizes,
    }


def reference_homothet_check(poly, alpha, u):
    """``(result, report)`` for the polygon and alpha * poly + u, through the
    public functions: the ``boundary_intersection`` of the polygon and its
    ``transform_polygon``, and that result's ``concurrence_check``."""
    res = boundary_intersection(poly, transform_polygon(poly, alpha, u))
    return res, concurrence_check(res, alpha, u)


def reference_polygon_trial(k, seed, alpha):
    """``(row, report)`` of polygon lemma trial k, drawn as the experiments
    module draws it and checked by :func:`reference_homothet_check`."""
    rng = Xorshift64Star(derive_seed(seed, k))
    poly = random_symmetric_polygon(2 + rng.below(7), rng.next_u64())
    u = _choose_u(rng, poly, alpha)
    res, rep = reference_homothet_check(poly, alpha, u)
    row = {
        "trial": k,
        "alpha": alpha,
        "u": [u[0], u[1]],
        "classes": direction_line_classes(res),
        "max_concurrence_error": rep.max_error,
        "flags": sorted(rep.flags),
    }
    return row, rep


def _norm(body, a, b):
    """||(a, b)||_K for a disc or p-ball K, in mpmath's current precision."""
    if isinstance(body, Disc):
        return mp.sqrt(a * a + b * b) / body.radius
    p = mp.mpf(body.p)
    return (abs(a) ** p + abs(b) ** p) ** (1 / p) / body.radius


def exact_gap(body, alpha, x, theta):
    """g(theta) = ||(b(theta) - x)/alpha||_K - 1, b(theta) the boundary point in
    direction theta, in mpmath's current precision at theta as given (a double
    or an mpf)."""
    c, s = mp.cos_sin(mp.mpf(theta))
    gb = _norm(body, c, s)
    return _norm(body, (c / gb - x[0]) / alpha, (s / gb - x[1]) / alpha) - 1


def homothet_pair_count(body, alpha, x):
    """Points of G intersect (alpha*G + x), G the boundary of a disc or p-ball K,
    in closed form: two when |1 - alpha| < ||x||_K < 1 + alpha, none outside
    [|1 - alpha|, 1 + alpha], one (a tangency) at either end.  K meets
    alpha*K + x iff ||x||_K <= 1 + alpha, one contains the other iff ||x||_K <=
    |1 - alpha|, and strictly convex boundaries cross in at most two points,
    an even number unless they touch.  ||x||_K is taken at 60 digits from the
    doubles as given; ``None`` within 1e-40 of an end."""
    with mp.workdps(60):
        n = _norm(body, mp.mpf(x[0]), mp.mpf(x[1]))
        lo, hi = abs(1 - mp.mpf(alpha)), 1 + mp.mpf(alpha)
        if min(abs(n - lo), abs(n - hi)) < mp.mpf("1e-40"):
            return None
        return 2 if lo < n < hi else 0


def uncertified_brackets(body, alpha, x, brackets) -> list:
    """The brackets (lo, hi) of ``brackets`` (sorted by lo; hi < lo across angle 0)
    that the exact signs do not certify: :func:`exact_gap`, taken in mpmath at 60
    digits, is zero at an end or has one sign at both, or the bracket overlaps
    the next one round the turn.  The rest are disjoint, and each holds an odd
    number of roots."""
    bad = []
    with mp.workdps(60):
        turn = 2 * mp.pi
        for k, (lo, hi) in enumerate(brackets):
            end = hi if hi >= lo else hi + turn
            nxt = brackets[k + 1][0] if k + 1 < len(brackets) else brackets[0][0] + turn
            if exact_gap(body, alpha, x, lo) * exact_gap(body, alpha, x, hi) >= 0 or nxt < end:
                bad.append((lo, hi))
    return bad


def float_polygon_attempt(n_half_vertices, attempt_seed):
    """One attempt of the float polygon draw: n points of the annulus
    0.5 <= |p| <= 1.5 from ``Xorshift64Star(attempt_seed)``, snapped with
    ``quantize`` to the 2**-16 grid, and the lower hull, in doubles, of the
    set of them and their negations, completed by ``from_half``; raises
    ``InvalidBodyError`` for a degenerate hull."""
    rng = Xorshift64Star(attempt_seed)
    pts = []
    while len(pts) < n_half_vertices:
        px = rng.uniform(-1.5, 1.5)
        py = rng.uniform(-1.5, 1.5)
        if 0.25 <= px * px + py * py <= 2.25:
            pts.append((quantize(px, 16), quantize(py, 16)))
    chain = []
    for p in sorted(set(pts + [(-a, -b) for a, b in pts])):
        while len(chain) >= 2 and ((chain[-1][0] - chain[-2][0]) * (p[1] - chain[-2][1])
                                   - (chain[-1][1] - chain[-2][1]) * (p[0] - chain[-2][0])) <= 0:
            chain.pop()
        chain.append(p)
    return SymmetricPolygon.from_half(chain[:-1])


def float_random_symmetric_polygon(n_half_vertices, seed):
    """The random polygon drawn in doubles: :func:`float_polygon_attempt` with
    ``derive_seed(seed, attempt)`` for attempts 0, 1, ... up to 64."""
    for attempt in range(64):
        try:
            return float_polygon_attempt(n_half_vertices, derive_seed(seed, attempt))
        except InvalidBodyError:
            continue
    raise RuntimeError("no valid symmetric polygon after 64 attempts")


def reference_homothet_frame(poly, alpha, u):
    """``(A, B, D)`` of the lemma trials' homothet frame, with the polygon's
    vertices and u converted to integers in one ``_scale_to_ints`` call."""
    an, ad = float(alpha).as_integer_ratio()
    V, [(ux, uy)], den = _scale_to_ints(poly.vertices, [u])
    A = [(ad * x, ad * y) for x, y in V]
    B = [(an * x + ad * ux, an * y + ad * uy) for x, y in V]
    return A, B, ad * den
