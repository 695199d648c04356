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
lemma by one distance law for every segment and every a: the supporting line
of a segment is a times as far from u as from 0.  The segment lies on an edge
e of G and on an edge a e' + u of the homothet, e' an edge of G parallel to e;
G is origin-symmetric, so e' is as far from 0 as e, and a e' + u is a times as
far from u.  With 0 and u on one side of the line, it passes through u/(1-a)
(is parallel to u for a == 1); with the line between them, as where a
homothet's anti-parallel edges meet, it passes through u/(1+a).

Overlap-versus-crossing classification is discontinuous, so the polygon code
is exact: coordinates convert to rationals (doubles convert losslessly) and
are scaled to integers, points stay integer triples until the result is
built, and no tolerance enters the polygon checks.  A lemma trial checks a
polygon against its dyadic homothet in one integer frame per trial
(``_homothet_check``).  A homothety keeps edge directions, so only edges i
and i + n of the homothet, the two of that direction, can share a segment
with edge i, and the pair decides the segment: (i, i) obeys the law by
construction, and (i, i + n), an external contact and the only overlap, is
tested against u/(1+a).  Only the root scan for strictly convex bodies
works in floating point; it reads its first pass from a per-body table.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

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
    max_euclid_radius,
)
from .prng import Xorshift64Star, derive_seed, quantize

__all__ = [
    "ConcurrenceReport",
    "IntersectionResult",
    "RootScan",
    "Segment",
    "boundary_intersection",
    "concurrence_check",
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


def _checked_homothety(alpha, u) -> tuple[float, float]:
    """As ``_checked_scale_shift``; besides, u must be nonzero when alpha is 1."""
    ux, uy = _checked_scale_shift(alpha, u)
    if alpha == 1 and ux == 0 and uy == 0:
        raise ValueError("alpha == 1 requires a nonzero translation")
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


def _intersect_ints(A, B, partners) -> tuple[set, list]:
    """The intersection of the closed polylines A and B, simple strictly convex
    integer vertex lists in one frame, over the pairs of edge i of A with each
    edge j of B in ``partners(i)``: ``(isolated, overlaps)``, the isolated
    points as reduced triples (x, y, d) for (x/d, y/d) and the maximal
    segments as (i, j, p, q), edges i = A[i] -> A[i + 1] and j of B carrying pq."""
    m1, m2 = len(A), len(B)
    point_pool: set = set()
    overlaps: list = []

    for i in range(m1):
        ax, ay = A[i]
        bx, by = A[(i + 1) % m1]
        rx, ry = bx - ax, by - ay
        for j in partners(i):
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
                overlaps.append((i, j, p_lo, _point(ax * rr + hi * rx, ay * rr + hi * ry, rr)))
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
    return point_pool.difference(e for *_, p, q in overlaps for e in (p, q)), overlaps


def _fraction_point(p, den: int) -> tuple:
    """The triple p of a frame scaled by den as a pair of ``Fraction``s."""
    return (Fraction(p[0], p[2] * den), Fraction(p[1], p[2] * den))


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
    # the set difference in _intersect_ints relies on both boundaries being simple
    for V, boundary in ((A, boundary1), (B, boundary2)):
        if isinstance(boundary, SymmetricPolygon):
            continue
        _, viol = _convexity(V)
        if viol:
            raise ValueError("boundary is not a simple convex polygon: " + "; ".join(viol))
    every_edge = range(len(B))
    isolated, overlaps = _intersect_ints(A, B, lambda i: every_edge)
    points = sorted(_fraction_point(p, den) for p in isolated)
    segments = [Segment(*sorted((_fraction_point(p, den), _fraction_point(q, den))))
                for *_, p, q in overlaps]
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
    """The ``violations`` among the segments, the largest one's size, and how the segments
    split: ``checked`` have 0 and u on one side of their line and are tested against
    u/(1 - alpha), ``flagged`` have a line between 0 and u, as a homothet's anti-parallel
    edges do, and are tested against u/(1 + alpha)."""

    checked: int
    flagged: int
    max_error: float
    violations: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def flags(self) -> tuple[str, ...]:
        return ("opposite-edge coincidence",) * self.flagged


def concurrence_check(result: IntersectionResult, alpha: float, u) -> ConcurrenceReport:
    """Check the concurrence law on every maximal segment, exactly.

    One distance law serves every segment and every alpha: the segment ab passes
    when its line is alpha times as far from u as from 0, |cu| == alpha |c0| for
    cu = cross(b - a, u - a) and c0 = cross(b - a, a), decided in integers.  With 0
    and u on one side of the line (cu c0 <= 0) that is cross(b - a, u - (1 - alpha) a)
    == 0: the line passes through u/(1-alpha), or is parallel to u for alpha == 1.
    With the line between them (cu c0 > 0, counted in ``flagged``) it is
    cross(b - a, u - (1 + alpha) a) == 0: the line passes through u/(1+alpha).  A
    violation's float size, the largest in ``max_error``, is the miss
    ||cu| - alpha |c0|| / (|b - a| max(|u|, |1 - alpha|)), continuous in u: on one
    side, the distance of u/(1-alpha) from the line relative to max(|u/(1-alpha)|, 1)
    (labelled "(rel)" when |u| >= |1 - alpha| and "(abs)", a distance, otherwise),
    and the sine of the angle to u for alpha == 1.  alpha and u are read exactly as
    given, so the double 0.3 is not 3/10: state a non-dyadic homothety in
    ``Fraction``s.
    """
    ux, uy = _checked_homothety(alpha, u)
    an, ad = Fraction(alpha).as_integer_ratio()
    ends, [(Ux, Uy)], den = _scale_to_ints(
        [p for s in result.maximal_segments for p in (s.a, s.b)], [u]
    )
    norm_u, norm_s = math.hypot(ux, uy), abs(ad - an) / ad  # |u|, |1 - alpha|
    ref = max(norm_u, norm_s)
    miss = "line's distance from u misses alpha times its distance from 0 by {:.3e} " + (
        "(rel)" if norm_u >= norm_s else "(abs)")
    flagged = 0
    max_err = 0.0
    violations: list[str] = []

    for k, ((ax, ay), (bx, by)) in enumerate(zip(ends[::2], ends[1::2])):
        dx, dy = bx - ax, by - ay
        cu = dx * (Uy - ay) - dy * (Ux - ax)  # den^2 cross(b - a, u - a)
        c0 = dx * ay - dy * ax  # den^2 cross(b - a, a)
        flagged += cu * c0 > 0
        cr = ad * abs(cu) - an * abs(c0)
        if cr != 0:
            # integer true division rounds correctly, however large den is
            size = abs(cr) / (ad * den * den) / (math.hypot(dx / den, dy / den) * ref)
            max_err = max(max_err, size)
            violations.append(f"segment {k}: " + miss.format(size))

    return ConcurrenceReport(len(ends) // 2 - flagged, flagged, max_err, tuple(violations))


def _homothet_frame(poly: SymmetricPolygon, alpha: float, u) -> tuple[list, list, int]:
    """``(A, B, D)``: poly and alpha * poly + u in one integer frame, each point p
    as D * p, where D = ad * den for alpha = an/ad and den the lcm of the
    denominators of poly and u, so that B = (an * A + ad * U) / ad is exact."""
    an, ad = float(alpha).as_integer_ratio()
    V, [(ux, uy)], den = _scale_to_ints(poly.vertices, [u])
    A = [(ad * x, ad * y) for x, y in V]
    B = [(an * x + ad * ux, an * y + ad * uy) for x, y in V]
    return A, B, ad * den


def _homothet_check(poly: SymmetricPolygon, alpha: float, u) -> tuple[int, ConcurrenceReport]:
    """``(classes, report)`` for G = poly and alpha * G + u, equal to
    ``direction_line_classes`` and ``concurrence_check`` of
    ``boundary_intersection(poly, transform_polygon(poly, alpha, u))`` whenever
    every alpha * v + u is a double, as on the dyadic grids of the lemma trials.

    One integer frame (``_homothet_frame``) serves the whole check, and
    alpha * G + u is convex because G is, so neither boundary is checked.  A
    homothety with alpha > 0 keeps edge directions, so a segment on edge i of
    G (each on its own line: ``classes`` counts them) lies on edge i or i + n
    of alpha * G + u, and that pair decides it.  On (i, i) the outward normals
    agree, so 0, inside G, and u, inside alpha * G + u, lie on one side of the
    line, and B_i - A_i = u - (1 - alpha) A_i for the image B_i of A_i: the
    line passes through u/(1 - alpha), or is parallel to u, by construction.
    On (i, i + n) the normals are opposite, so the bodies, and 0 and u with
    them, lie on opposite sides of the line, and the segment is the only
    overlap: ``concurrence_check`` tests it against u/(1 + alpha).
    """
    _checked_homothety(alpha, u)
    A, B, D = _homothet_frame(poly, alpha, u)
    n = len(A) // 2
    _, overlaps = _intersect_ints(A, B, lambda i: (i, (i + n) % (2 * n)))
    if all(i == j for i, j, *_ in overlaps):
        return len(overlaps), ConcurrenceReport(len(overlaps), 0, 0.0)
    [(_, _, p, q)] = overlaps
    seg = Segment(_fraction_point(p, D), _fraction_point(q, D))
    return 1, concurrence_check(IntersectionResult((), (seg,)), alpha, u)


_SAMPLES = math.ceil(2 * math.pi / 1e-4)  # the scan's grid: a full turn at the angles i * _STEP
_STEP = 2 * math.pi / _SAMPLES
_STRIDE = 16  # the first pass takes every 16th grid angle: 62,832 = 16 * 3,927
_BUDGET = 15_000  # halving evaluations per scan; 6,000 strict trials needed at most 5,139


@dataclass(frozen=True)
class RootScan:
    """One bracket (lo, hi) per pair of consecutive certain samples of g of opposite sign, at
    their angles (hi < lo across angle 0), so ``count`` is a lower bound.  Resolved: all else
    was shown root-free (a tangency never is)."""

    count: int
    brackets: tuple[tuple[float, float], ...]
    unresolved: bool


def _scan_bounds(body, alpha: float, x_norm: float) -> tuple[float, float]:
    """(L, eps): |dg/dtheta| <= L, and |computed g - g| <= eps at a double theta, for g(theta) =
    phi((b(theta) - x)/alpha) - 1, phi the gauge and b the boundary point in direction theta.
    R = ``max_euclid_radius`` and r (the radius, times 2^(1/2 - 1/p) for a p-ball with p < 2)
    bound |b|, R/r <= sqrt 2, and Q = (R + |x|)/(alpha r).

    L = R^2/(alpha r^2) min(1, f), f = 3 (p - 1) |x|/r for p >= 2 (a disc is p = 2), else 1.
    phi is 1/r-Lipschitz (sublinear, symmetric, <= |y|/r) and |b'| = rho^2/h <= R^2/r, as
    |b x b'| = rho^2 = h |b'|, h >= r the distance from 0 to the tangent.  If f < 1, |x| < r/3;
    grad phi is 0-homogeneous and normal to b' at b, and on [b - x, b] phi > 2/3 and the
    Hessian (p - 1)/(r^2 phi) (diag(|z_i|/(r phi))^(p-2) - v v^T), v = r grad phi, both terms
    of norm <= 1, has norm < 1.5 (p - 1)/r^2, so |g'| = |(grad phi(b - x) - grad phi(b)) . b'|
    /alpha <= L f/2 (the factor 2 covers the rounding of f).

    eps, in u = 2^-53, holds for the numpy first pass and the scalar gap (the same operations) if
    +-*/ round correctly and cos, sin, hypot and pow are within 4 ulp, 8u.  (cos, sin) points
    within 8u of theta; its gauge is off by 19u (18.2u for the norm and / r, 0.35u for the
    exponent fl(1/p)); so b is within 20.1u R + 8u R^2/r <= 31.5u R of b(theta).  (b - x)/alpha
    rounds twice per entry: the outer gauge's argument is off by 33.6u (R + |x|)/alpha and its
    value by 33.6u Q.  That gauge adds 18.2u Q, plus, for a p-ball, u Q (|ln r| + max(0, ln Q))
    + u/e: fl(1/p) = (1 + d)/p, |d| <= u, scales the root by exp(d ln(r phi)).  "- 1" adds
    u (1 + Q).  The sum, u (1.4 + 52.9 Q + Q |ln r| + Q max(0, ln Q)), spares 62u + 11u Q of
    each eps: room for rounding R, r, L, the tests and each angle (6.3u, so 9u Q in L * width).
    This covers the plain p-ball formula only, not the rescaled one the gauge takes where
    |x|^p + |y|^p is not a normal double (``_scalar_gauge``).
    """
    R = max_euclid_radius(body)
    p = body.p if isinstance(body, PBall) else 2.0
    r = body.radius * min(1.0, 2.0 ** (0.5 - 1.0 / p))
    q = (R + x_norm) / (alpha * r)
    eps = 2.0**-53 * (64 + q * (64 + abs(math.log(body.radius)) + max(0.0, math.log(q))))
    return R * R / (alpha * r * r) * min(1.0, 3 * (p - 1) * x_norm / r if p >= 2 else 1.0), eps


@functools.lru_cache(maxsize=8)
def _first_pass_points(body) -> np.ndarray:
    """The body's boundary points at the first-pass angles, read-only: one
    table per body (equal bodies share it) for the few bodies kept."""
    pts = boundary_points(body, np.arange(0, _SAMPLES, _STRIDE) * _STEP)
    pts.setflags(write=False)
    return pts


def strictly_convex_intersection_count(body, alpha: float, x) -> RootScan:
    """G intersect (alpha*G + x), G strictly convex: the roots of g = gauge((b - x)/alpha) - 1.

    A sample is certain when |g| > eps (``_scan_bounds``); the first pass takes every 16th grid
    angle i * ``_STEP``, whose boundary points depend only on the body: they come from a table
    kept for the last few bodies scanned (``_first_pass_points``).  A stretch [a, b] of certain
    ends of one sign is root-free if |g(a)| + |g(b)| - 2 eps > L (b - a).  Any other is halved:
    at grid angles while an end is certain, then at midpoints while the ends are certain and of
    one sign.  Round the turn, consecutive certain samples of opposite sign bracket a root; two
    of one sign with samples between, no certain sample at all, or a spent budget or running
    out of doubles leave the scan unresolved.
    """
    if not isinstance(body, (Disc, PBall)):
        raise ValueError("strict-convexity scan needs a disc or p-ball body")
    x0, x1 = _checked_scale_shift(alpha, x)
    if x0 == 0 and x1 == 0:
        raise ValueError("translation must be nonzero")
    lip, eps = _scan_bounds(body, alpha, math.hypot(x0, x1))
    n, step, k = _SAMPLES, _STEP, _STRIDE
    pts = _first_pass_points(body) - (x0, x1)
    pts /= alpha
    g = gauge_many(body, pts)
    g -= 1
    g = np.append(g, g[0])  # grid index n is index 0 again
    absg = np.abs(g)
    free = (g[:-1] * g[1:] > 0) & (np.minimum(absg[:-1], absg[1:]) > eps)
    free &= absg[:-1] + absg[1:] - 2 * eps > lip * k * step
    f = _scalar_gauge(body)

    def gap(theta: float) -> float:  # as boundary_point then gauge, without their dispatch
        c, s = math.cos(theta), math.sin(theta)
        gb = f(c, s)
        return f((c / gb - x0) / alpha, (s / gb - x1) / alpha) - 1.0

    seen = []  # (angle / step, g) of the samples outside cleared stretches, in turn order
    budget, unresolved = _BUDGET, False
    for c in np.flatnonzero(~free).tolist():
        seen.append((c * k, float(g[c])))
        todo = [(c * k, float(g[c]), c * k + k, float(g[c + 1]))]
        while todo:  # stretches [i, j] in grid steps, leftmost last
            i, gi, j, gj = todo.pop()
            si, sj, wide = abs(gi) > eps, abs(gj) > eps, j - i > 1
            cross = si and sj and (gi > 0) != (gj > 0)
            clear = si and sj and not cross and abs(gi) + abs(gj) - 2 * eps > lip * (j - i) * step
            if not clear and (wide and (si or sj) or si and sj and not cross):
                m = (i + j) // 2 if wide else 0.5 * (i + j)
                if cross or (budget > 0 and i < m < j):  # a sign change is always located
                    budget -= 1
                    gm = gap(m * step)
                    todo += [(m, gm, j, gj), (i, gi, m, gm)]
                    continue
                unresolved = True
            seen.append((j % n, gj))

    sure = [t for t, (_, v) in enumerate(seen) if abs(v) > eps]  # positions of certain samples
    unresolved |= bool(seen) and not sure
    brackets = []
    for a, b in zip(sure, sure[1:] + sure[:1]):  # consecutive round the turn
        (i, gi), (j, gj) = seen[a], seen[b]
        if (gi > 0) != (gj > 0):
            brackets.append((i * step, j * step))
        elif (b - a - 1) % len(seen):  # uncertain samples lie between
            unresolved = True
    brackets.sort()
    return RootScan(len(brackets), tuple(brackets), unresolved)


def _chain(pts) -> list:
    """The monotone chain of pts in their order: strict left turns only."""
    chain: list = []
    for p in pts:
        while len(chain) >= 2 and ((chain[-1][0] - chain[-2][0]) * (p[1] - chain[-2][1])
                                   - (chain[-1][1] - chain[-2][1]) * (p[0] - chain[-2][0])) <= 0:
            chain.pop()
        chain.append(p)
    return chain


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
            pts.append((quantize(px, _GRID_BITS), quantize(py, _GRID_BITS)))
        sym = pts + [(-a, -b) for a, b in pts]
        try:  # the upper hull of a symmetric set is its lower hull negated
            return SymmetricPolygon.from_half(_chain(sorted(set(sym)))[:-1])
        except InvalidBodyError:
            continue
    raise RuntimeError(
        f"no valid symmetric polygon after {_MAX_ATTEMPTS} attempts (seed {seed})"
    )
