"""Structure of boundary intersections between a convex curve and its scaled translate.

For a convex polygon boundary G and a scaled translate a*G + u, the
intersection decomposes into isolated points plus maximal segments.  Input
boundaries must be simple strictly convex polygons (polygon bodies are by
construction; vertex lists get one exact check that rejects star polygons and
boundaries listed twice), so each line holds at most one edge of each, every
collinear edge pair yields a whole maximal segment, and segments are never
merged, and a point found on a segment is one of its ends.
This module computes that decomposition, counts the distinct supporting lines
of the segments (never more than two when u != 0), and checks the concurrence
law with one predicate, cross(b - a, w) == 0 for each segment ab: for a != 1
every supporting line passes through u/(1-a) (w = u/(1-a) - a), and for
a == 1 every segment is parallel to u (w = u) except when u carries one of
two anti-parallel edges onto the other (an "opposite-edge coincidence").

Overlap-versus-crossing classification is discontinuous, so the polygon code
is exact: coordinates convert to rationals (doubles convert losslessly) and
are scaled to integers, points stay integer triples until the result is
built, and no tolerance enters the polygon checks.  Only the root scan for
strictly convex bodies works in floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

import numpy as np

from .convex_body import (
    Disc,
    InvalidBodyError,
    PBall,
    SymmetricPolygon,
    _convexity,
    _scalar_gauge,
    _scale_to_ints,
    boundary_points,
    gauge_many,
)
from .prng import Xorshift64Star, derive_seed, quantize

__all__ = [
    "ConcurrenceReport",
    "IntersectionResult",
    "RootScan",
    "Segment",
    "boundary_intersection",
    "concurrence_check",
    "convex_hull",
    "direction_line_classes",
    "random_symmetric_polygon",
    "strictly_convex_intersection_count",
    "transform_polygon",
]


@dataclass(frozen=True)
class Segment:
    """Closed segment with distinct endpoints (zero length is never allowed)."""

    a: tuple
    b: tuple

    def __post_init__(self):
        if tuple(self.a) == tuple(self.b):
            raise ValueError("segment endpoints must differ")
        object.__setattr__(self, "a", (self.a[0], self.a[1]))
        object.__setattr__(self, "b", (self.b[0], self.b[1]))


@dataclass(frozen=True)
class IntersectionResult:
    """Isolated points plus maximal segments; no point lies on a listed segment."""

    isolated_points: tuple
    maximal_segments: tuple


def _checked_scale_shift(alpha, u) -> tuple[float, float]:
    """u as floats, once alpha is positive and finite and u is finite."""
    if not (alpha > 0 and math.isfinite(alpha)):
        raise ValueError("scale factor must be positive and finite")
    ux, uy = float(u[0]), float(u[1])
    if not (math.isfinite(ux) and math.isfinite(uy)):
        raise ValueError("translation must be finite")
    return ux, uy


def transform_polygon(boundary, alpha: float, u) -> tuple:
    """Vertices of alpha * boundary + u (orientation preserved; alpha > 0, finite),
    in floats from alpha and u as given (the double 0.3 is not 3/10): exact
    only when every alpha * v + u is a double."""
    ux, uy = _checked_scale_shift(alpha, u)
    verts = boundary.vertices if isinstance(boundary, SymmetricPolygon) else boundary
    return tuple((alpha * float(x) + ux, alpha * float(y) + uy) for x, y in verts)


def _point(x: int, y: int, d: int) -> tuple:
    """The rational point (x/d, y/d), d > 0, as its reduced integer triple."""
    g = math.gcd(x, y, d)
    return (x // g, y // g, d // g)


def boundary_intersection(boundary1, boundary2) -> IntersectionResult:
    """Decompose the intersection of two convex closed polylines, exactly.

    Each boundary is a polygon body or a vertex list.  A polygon body is
    trusted: its constructor already checked that it is simple, strictly
    convex and counterclockwise.  A vertex list, in either orientation, must
    be a simple strictly convex polygon; anything else, a star polygon or a
    boundary listed twice included, raises ``ValueError``.  A convex
    boundary has at most one edge on any line, so every collinear edge pair
    overlaps in a whole maximal segment and no segments are merged.  The
    other edge pairs give crossing and touching points; one inside a segment
    would lie inside an edge of each boundary and on no other edge, so only
    the segment's own pair could make it.  The isolated points are therefore
    the points found minus the segment ends.  The arithmetic is integer; the
    result holds ``Fraction`` coordinates.
    """
    A, B, den = _scale_to_ints(
        *(b.vertices if isinstance(b, SymmetricPolygon) else b for b in (boundary1, boundary2))
    )
    # the set difference below relies on both boundaries being simple
    for V, boundary in ((A, boundary1), (B, boundary2)):
        if isinstance(boundary, SymmetricPolygon):
            continue
        orient, viol = _convexity(V)
        if viol:
            raise ValueError("boundary is not a simple convex polygon: " + "; ".join(viol))
        if orient < 0:
            V.reverse()
    m1, m2 = len(A), len(B)
    point_pool: set = set()
    overlaps: list = []

    for i in range(m1):
        ax, ay = A[i]
        bx, by = A[(i + 1) % m1]
        rx, ry = bx - ax, by - ay
        for j in range(m2):
            cx, cy = B[j]
            dx, dy = B[(j + 1) % m2]
            sx, sy = dx - cx, dy - cy
            qx, qy = cx - ax, cy - ay
            rxs = rx * sy - ry * sx
            qxr = qx * ry - qy * rx
            if rxs == 0:
                if qxr != 0:
                    continue
                rr = rx * rx + ry * ry
                t0 = qx * rx + qy * ry
                t1 = t0 + sx * rx + sy * ry
                lo, hi = max(min(t0, t1), 0), min(max(t0, t1), rr)
                if lo > hi:
                    continue
                p_lo = _point(ax * rr + lo * rx, ay * rr + lo * ry, rr)
                if lo == hi:
                    point_pool.add(p_lo)
                    continue
                overlaps.append((p_lo, _point(ax * rr + hi * rx, ay * rr + hi * ry, rr)))
            else:
                qxs = qx * sy - qy * sx
                if rxs < 0:
                    rxs, qxs, qxr = -rxs, -qxs, -qxr
                if not (0 <= qxs <= rxs and 0 <= qxr <= rxs):
                    continue
                point_pool.add(_point(ax * rxs + qxs * rx, ay * rxs + qxs * ry, rxs))

    # A pool point on a segment is one of its ends: a point inside the segment
    # of the pair (i, j) is inside edges i and j and on no other edge of the
    # simple boundaries, so only (i, j), which made the segment, could make it.
    isolated = point_pool.difference(p for ends in overlaps for p in ends)

    def frac(p):
        return (Fraction(p[0], p[2] * den), Fraction(p[1], p[2] * den))

    points = sorted(map(frac, isolated))
    segments = [Segment(*sorted((frac(p), frac(q)))) for p, q in overlaps]
    segments.sort(key=lambda s: (s.a, s.b))
    return IntersectionResult(tuple(points), tuple(segments))


def direction_line_classes(result: IntersectionResult) -> int:
    """Number of distinct supporting lines among the maximal segments (exact)."""
    ends, _ = _scale_to_ints([p for s in result.maximal_segments for p in (s.a, s.b)])
    # the line <n, p> = c, keyed in the common frame by its primitive integer
    # normal n, first nonzero entry positive, and c
    lines = set()
    for (ax, ay), (bx, by) in zip(ends[::2], ends[1::2]):
        g = math.gcd(bx - ax, by - ay)
        nx, ny = (ay - by) // g, (bx - ax) // g
        if nx < 0 or (nx == 0 and ny < 0):
            nx, ny = -nx, -ny
        lines.add((nx, ny, nx * ax + ny * ay))
    return len(lines)


@dataclass(frozen=True)
class ConcurrenceReport:
    ok: bool
    checked: int
    flagged: int
    max_point_error: float
    max_angle_error: float
    violations: tuple[str, ...] = ()
    flags: tuple[str, ...] = ()


def _on_segment(p, a, b) -> bool:
    cross = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
    if cross != 0:
        return False
    dot = (p[0] - a[0]) * (b[0] - a[0]) + (p[1] - a[1]) * (b[1] - a[1])
    return 0 <= dot <= (b[0] - a[0]) ** 2 + (b[1] - a[1]) ** 2


def _opposite_edge_coincidence(a, b, u, V) -> bool:
    """True when the segment ab lies on an edge i of the valid polygon V and
    ab - u on edge i + n, the only edge anti-parallel to it: the translate
    carried one of two parallel edges onto the other.  Edge i + n is minus
    edge i, so a, b, u - a and u - b must all lie on edge i.  Every point is
    an integer pair in one frame."""
    ua, ub = (u[0] - a[0], u[1] - a[1]), (u[0] - b[0], u[1] - b[1])
    return any(
        all(_on_segment(p, v, w) for p in (a, b, ua, ub)) for v, w in zip(V, V[1:] + V[:1])
    )


def concurrence_check(
    result: IntersectionResult,
    alpha: float,
    u,
    polygon: Optional[SymmetricPolygon] = None,
) -> ConcurrenceReport:
    """Check the concurrence/parallelism law on every maximal segment, exactly.

    One predicate serves both regimes: the segment ab passes when
    cross(b - a, w) == 0, decided in integers, with w = u/(1-alpha) - a for
    alpha != 1 (the supporting line passes through u/(1-alpha)) and w = u for
    alpha == 1 (the segment is parallel to u).  A nonzero cross product is a
    violation, except that for alpha == 1 a segment that verifiably comes from
    two anti-parallel edges of the supplied polygon at offset u is flagged
    instead.  A violation's float size is |cross| / (|b - a| * ref): the miss
    distance relative to ref = |u/(1-alpha)| (1 when that is 0) in
    ``max_point_error``, the sine of the angle to u (ref = |u|) in
    ``max_angle_error``.  alpha and u are read exactly as given, so the
    double 0.3 is not 3/10: state a non-dyadic homothety in ``Fraction``s.
    """
    ux, uy = _checked_scale_shift(alpha, u)
    if alpha == 1 and ux == 0 and uy == 0:
        raise ValueError("alpha == 1 requires a nonzero translation")
    if alpha == 1:
        target, ref, miss = u, math.hypot(ux, uy), "direction off u by sin angle {:.3e}"
    else:
        scale = 1 - Fraction(alpha)
        target = (Fraction(u[0]) / scale, Fraction(u[1]) / scale)
        ref = math.hypot(float(target[0]), float(target[1])) or 1.0
        miss = "supporting line misses u/(1-alpha) by {:.3e} (rel)"
    # one integer frame for the segment ends, the target and, where the
    # opposite-edge test may run, the polygon (a valid body by construction)
    ends, [(tx, ty)], V, den = _scale_to_ints(
        [p for s in result.maximal_segments for p in (s.a, s.b)],
        [target],
        polygon.vertices if alpha == 1 and polygon is not None else (),
    )
    checked = flagged = 0
    max_err = 0.0
    violations: list[str] = []
    flags: list[str] = []

    for k, ((ax, ay), (bx, by)) in enumerate(zip(ends[::2], ends[1::2])):
        wx, wy = (tx, ty) if alpha == 1 else (tx - ax, ty - ay)
        dx, dy = bx - ax, by - ay
        cr = dx * wy - dy * wx
        if cr == 0:
            checked += 1
        elif V and _opposite_edge_coincidence((ax, ay), (bx, by), (tx, ty), V):
            flagged += 1
            flags.append("opposite-edge coincidence")
        else:
            checked += 1
            # integer true division rounds correctly, however large den is
            size = abs(cr) / (den * den) / (math.hypot(dx / den, dy / den) * ref)
            max_err = max(max_err, size)
            violations.append(f"segment {k}: " + miss.format(size))

    return ConcurrenceReport(
        ok=not violations,
        checked=checked,
        flagged=flagged,
        max_point_error=0.0 if alpha == 1 else max_err,
        max_angle_error=max_err if alpha == 1 else 0.0,
        violations=tuple(violations),
        flags=tuple(flags),
    )


# a sampled |g| at or below this, at a local minimum, is a tangential touch
_TANGENT_TOL = 1e-9
# the scan samples a full turn at the angles i * _STEP, about 1e-4 apart
_SAMPLES = math.ceil(2 * math.pi / 1e-4)
_STEP = 2 * math.pi / _SAMPLES


@dataclass(frozen=True)
class RootScan:
    """The strictly-convex scan's roots: how many, their angles, which are tangencies."""

    count: int
    thetas: tuple[float, ...]
    tangent: tuple[bool, ...]


@lru_cache(maxsize=4)
def _boundary_grid(body) -> np.ndarray:
    """Read-only (_SAMPLES, 2) boundary samples at the angles ``i * _STEP``."""
    grid = boundary_points(body, np.arange(_SAMPLES) * _STEP)
    grid.setflags(write=False)
    return grid


def _bisection_gap(body, alpha: float, x0: float, x1: float):
    """``theta -> gauge((boundary(theta) - x)/alpha) - 1`` for a disc or
    p-ball, as the same float expression ``boundary_point`` then ``gauge``
    evaluate, without their per-call type dispatch and argument conversion."""
    f = _scalar_gauge(body)

    def gap(theta: float) -> float:
        c, s = math.cos(theta), math.sin(theta)
        gb = f(c, s)
        return f((c / gb - x0) / alpha, (s / gb - x1) / alpha) - 1.0
    return gap


def strictly_convex_intersection_count(body, alpha: float, x) -> RootScan:
    """Find the points of G intersect (alpha*G + x) for a strictly convex body.

    Scans g(theta) = gauge((boundary(theta) - x)/alpha) - 1 on a fixed grid of
    ``_SAMPLES`` = ceil(2pi/1e-4) = 62,832 angles over a full turn, refines
    each sign change by bisection, and counts each run of zero samples and
    each tangential minimum with |g| <= 1e-9 once.  Roots closer than 1.5 grid
    steps merge.  Returns a ``RootScan``: the count, one angle per root and
    whether the root is a tangency.

    The sampled boundary depends only on the body, so it is computed once per
    body and cached: up to four grids of about 1 MB each stay resident.
    """
    if not isinstance(body, (Disc, PBall)):
        raise ValueError("strict-convexity scan needs a disc or p-ball body")
    x0, x1 = _checked_scale_shift(alpha, x)
    if x0 == 0 and x1 == 0:
        raise ValueError("translation must be nonzero")

    n, step = _SAMPLES, _STEP
    grid = _boundary_grid(body)
    # (grid - x) / alpha, a column at a time: broadcasting the (n, 2) grid
    # against x would run a length-2 inner loop n times
    d = np.empty((n, 2))
    np.subtract(grid[:, 0], x0, out=d[:, 0])
    np.subtract(grid[:, 1], x1, out=d[:, 1])
    d /= alpha
    g = gauge_many(body, d)
    g -= 1.0
    sign = np.sign(g)

    roots: list[tuple[float, bool]] = []
    zero = sign == 0
    if zero.all():
        raise ValueError("degenerate scan: the curves coincide at every sample")
    if zero.any():
        # cyclic runs of zero samples, from where the mask switches on and off;
        # a run through index 0 has the last start and the first end
        starts = np.flatnonzero(zero & ~np.roll(zero, 1)).tolist()
        ends = np.flatnonzero(zero & ~np.roll(zero, -1)).tolist()
        if ends[0] < starts[0]:
            ends.append(ends.pop(0))
        for a, b in zip(starts, ends):
            middle = (a + ((b - a) % n + 1) // 2) % n
            roots.append((middle * step, sign[a - 1] == sign[(b + 1) % n]))

    # strict sign changes between neighbours, the pair (n-1, 0) included
    crossings = np.flatnonzero(sign[:-1] * sign[1:] < 0).tolist()
    if sign[-1] * sign[0] < 0:
        crossings.append(n - 1)
    gap = _bisection_gap(body, alpha, x0, x1)
    used = set()
    for i in crossings:
        lo = i * step
        hi, flo = lo + step, float(g[i])
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:  # neighbouring doubles: no further halving
                break
            fm = gap(mid)
            if fm == 0.0:
                lo = hi = mid
            elif (fm > 0) == (flo > 0):
                lo, flo = mid, fm
            else:
                hi = mid
        roots.append((0.5 * (lo + hi), False))
        used.update((i, (i + 1) % n))

    # a tangency is a local minimum of |g| within the tolerance that g does not
    # cross, away from the crossings found above (its neighbours are nonzero)
    absg = np.abs(g)
    cand = np.flatnonzero(absg <= _TANGENT_TOL)
    h, j, s, a = (cand - 1) % n, (cand + 1) % n, sign[cand], absg[cand]
    dip = (s != 0) & (sign[h] == s) & (sign[j] == s) & (a <= absg[h]) & (a <= absg[j])
    for i in cand[dip].tolist():
        if used.isdisjoint(((i - 1) % n, i, (i + 1) % n)):
            roots.append((i * step, True))

    # cyclic dedupe of roots closer than 1.5 times the grid step
    roots.sort()
    clusters: list[list[tuple[float, bool]]] = []
    for r in roots:
        if clusters and r[0] - clusters[-1][-1][0] <= 1.5 * step:
            clusters[-1].append(r)
        else:
            clusters.append([r])
    if len(clusters) > 1 and roots[0][0] + 2 * math.pi - clusters[-1][-1][0] <= 1.5 * step:
        clusters[0] = clusters.pop() + clusters[0]
    thetas = tuple(c[0][0] for c in clusters)
    tangent = tuple(any(t for _, t in c) for c in clusters)
    return RootScan(len(clusters), thetas, tangent)


def convex_hull(points) -> list:
    """Counterclockwise convex hull (monotone chain, strict turns).

    Collinear input returns the two-point degenerate chain; a single distinct
    point returns itself.  No collinear triples survive on a proper hull.
    """
    pts = sorted({(float(p[0]), float(p[1])) for p in points})
    if len(pts) <= 2:
        return list(pts)

    def turn(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list = []
    for p in pts:
        while len(lower) >= 2 and turn(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list = []
    for p in reversed(pts):
        while len(upper) >= 2 and turn(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        return [pts[0], pts[-1]]
    return hull


_GRID_BITS = 16  # random polygon vertices lie on the dyadic grid 2**-16
_MAX_ATTEMPTS = 64


def random_symmetric_polygon(n_half_vertices: int, seed: int) -> SymmetricPolygon:
    """Random valid origin-symmetric polygon, deterministic per seed.

    Draws n points in the annulus 0.5 <= |p| <= 1.5 (rejection sampling, no
    transcendentals), snaps them to the dyadic grid 2**-16 so downstream
    rational arithmetic stays cheap, and takes the hull of the points and their
    negations.  A draw whose hull is not a valid body (construction raises
    ``InvalidBodyError``) retries with a derived seed, up to 64 draws.
    """
    if n_half_vertices < 2:
        raise ValueError("need at least 2 half-turn vertices")
    for attempt in range(_MAX_ATTEMPTS):
        rng = Xorshift64Star(derive_seed(seed, attempt))
        pts = []
        while len(pts) < n_half_vertices:
            px = rng.uniform(-1.5, 1.5)
            py = rng.uniform(-1.5, 1.5)
            rho = px * px + py * py
            if not (0.25 <= rho <= 2.25):
                continue
            qx, qy = quantize(px, _GRID_BITS), quantize(py, _GRID_BITS)
            if qx == 0.0 and qy == 0.0:
                continue
            pts.append((qx, qy))
        sym = pts + [(-a, -b) for a, b in pts]
        try:
            return SymmetricPolygon(convex_hull(sym))
        except InvalidBodyError:
            continue
    raise RuntimeError(
        f"no valid symmetric polygon after {_MAX_ATTEMPTS} attempts (seed {seed})"
    )
