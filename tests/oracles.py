"""Independent oracles used by the tests.

These deliberately avoid the library's evaluation paths: the gauge oracle is a
ray cast (binary search on the scale with a cross-product point-in-polygon
test, no half-plane normal form), distance oracles are brute-force pair loops,
and orientation checks use exact rational cross products.
"""

from collections import Counter
from fractions import Fraction

import numpy as np


def point_in_polygon(vertices, p) -> bool:
    """p inside the convex CCW polygon (boundary counts), by edge orientation."""
    m = len(vertices)
    for i in range(m):
        ax, ay = vertices[i]
        bx, by = vertices[(i + 1) % m]
        if (bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax) < 0:
            return False
    return True


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
