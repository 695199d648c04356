"""Gauge distance sets and the annulus/cone counting apparatus.

The distance set of A under a body K collects every pairwise gauge distance,
including the zero from coincident pairs.  One kernel builds it from difference
vectors with pair counts, every pair once or a grid's closed-form multiset.
Floating mode merges the sorted gauge values with one greedy routine into
clusters of spread <= tol (distinctness at double precision needs a tolerance);
exact mode groups integer vectors by an exact key for polygon bodies (rational
gauge) and the disc (squared length), so lattice counts are tolerance-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import Optional, Sequence

import numpy as np

from .convex_body import (
    ConvexBody,
    Disc,
    SymmetricPolygon,
    _ensure_valid,
    gauge_exact,
    gauge_many,
    max_chebyshev_radius,
)
from .geometry_kernel import _scale_to_ints
from .point_sets import PointSet

__all__ = [
    "Annulus",
    "Cone",
    "DistanceSet",
    "MoserRow",
    "annulus_cone_points",
    "distance_lists_from_two_points",
    "distance_set",
    "grid_distance_set",
    "min_gap",
    "moser_count_check",
]


@dataclass(frozen=True)
class DistanceSet:
    """Sorted distinct distance values with pair multiplicities.

    values never decrease and consecutive values differ by more than tol, except
    that distinct exact disc distances rounding to one double stay separate equal
    values; the zero distance is always present (pairs x == y count), with
    multiplicity n.
    """

    values: tuple
    multiplicities: tuple[int, ...]
    tol: float

    def __len__(self) -> int:
        return len(self.values)


def _cluster(sorted_vals: np.ndarray, tol: float, weights=None) -> tuple[list, list[int]]:
    """Greedy clusters (value - first <= tol) of sorted values: firsts and sizes.

    Rounded subtraction is monotone, so a gap > tol always starts a cluster and
    a run of smaller gaps spanning <= tol is one; only wider runs are walked.
    Sizes are summed weights when weights are given; sorted_vals is non-empty.
    """
    n = len(sorted_vals)
    runs = np.concatenate(([0], np.flatnonzero(np.diff(sorted_vals) > tol) + 1, [n]))
    starts = runs[:-1]
    split = []
    for r in np.flatnonzero(sorted_vals[runs[1:] - 1] - sorted_vals[starts] > tol).tolist():
        lo, hi = runs[r], runs[r + 1]
        first = sorted_vals[lo]
        for j, v in enumerate(sorted_vals[lo + 1 : hi].tolist(), lo + 1):
            if v - first > tol:
                split.append(j)
                first = v
    if split:
        starts = np.sort(np.concatenate((starts, split)))
    if weights is None:
        counts = np.diff(np.append(starts, n))
    else:
        counts = np.add.reduceat(weights, starts)
    return sorted_vals[starts].tolist(), counts.tolist()


def _as_points(source) -> np.ndarray:
    if isinstance(source, PointSet):
        return source.points
    pts = np.asarray(source, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must have shape (n, 2)")
    return pts


def _fraction_sqrt(q: Fraction) -> float:
    return math.sqrt(q.numerator) / math.sqrt(q.denominator)


def _exact_distance_set(body: ConvexBody, n: int, vectors, scale: Fraction) -> DistanceSet:
    """Distance set of n points from (integer vector, pair count) items.

    The items cover the pairs of distinct points, whose differences are
    ``scale`` times the vectors.  Vectors are grouped by an exact key, the
    polygon gauge or the disc's squared length, which fixes the distance.
    """
    if isinstance(body, SymmetricPolygon):
        key, value = (lambda v: gauge_exact(body, v)), (lambda k: k * scale)
    elif isinstance(body, Disc):
        q = scale * scale / Fraction(body.radius) ** 2
        key, value = (lambda v: v[0] * v[0] + v[1] * v[1]), (lambda k: _fraction_sqrt(k * q))
    else:
        raise ValueError("exact distance sets need a polygon or disc body")
    acc = {0: n}  # the coincident pairs; 0 equals the zero key of either body
    for v, c in vectors:
        k = key(v)
        acc[k] = acc.get(k, 0) + c
    # ties in value (disc roots rounding to one double) stay apart, ordered by key
    items = sorted((value(k), k, c) for k, c in acc.items())
    return DistanceSet(tuple(v for v, _, _ in items), tuple(c for _, _, c in items), 0.0)


def _float_distance_set(n: int, vals: np.ndarray, tol, weights=None) -> DistanceSet:
    """Distance set of n points from gauge values (sorted here in place) whose
    first is the 0.0 of one coincident pair; ``weights`` are their pair counts."""
    if weights is None:
        vals.sort()
    else:
        order = np.argsort(vals, kind="stable")
        vals, weights = vals[order], weights[order]
    if tol is None:
        tol = 1e-9 * float(vals[-1])
    reps, counts = _cluster(vals, tol, weights)
    counts[0] += n - 1  # the other coincident pairs land in the zero cluster
    return DistanceSet(tuple(reps), tuple(counts), float(tol))


def distance_set(
    body: ConvexBody,
    points,
    tol: Optional[float] = None,
    exact: bool = False,
) -> DistanceSet:
    """All pairwise gauge distances of the point collection, clustered.

    Floating mode defaults tol to 1e-9 times the largest distance.  Exact mode
    (tol = 0) supports polygon bodies for any rational points and the disc via
    exact squared distances; the p-ball has no exact evaluator.
    """
    _ensure_valid(body)
    pts = _as_points(points)
    n = len(pts)
    if n == 0:
        raise ValueError("distance set of an empty point collection")
    if exact:
        ints, den = _scale_to_ints(pts)
        diffs = (
            (x2 - x1, y2 - y1) for i, (x1, y1) in enumerate(ints) for x2, y2 in ints[i + 1 :]
        )
        return _exact_distance_set(body, n, zip(diffs, repeat(1)), Fraction(1, den))
    vals = np.zeros(1 + n * (n - 1) // 2)
    pos = 1
    for i in range(n - 1):
        vals[pos : pos + n - 1 - i] = gauge_many(body, pts[i + 1 :] - pts[i])
        pos += n - 1 - i
    return _float_distance_set(n, vals, tol)


def grid_distance_set(
    body: ConvexBody,
    n_cols: int,
    n_rows: int,
    spacing: float = 1.0,
    tol: Optional[float] = None,
    exact: bool = True,
) -> DistanceSet:
    """Distance set of a full n_cols x n_rows rectangular grid.

    Uses the difference multiset: the grid has only O(n_cols * n_rows)
    distinct difference vectors, each with a closed-form pair count, so this
    avoids the quadratic pair loop entirely.  Semantics match
    :func:`distance_set` on the same grid.
    """
    _ensure_valid(body)
    if n_cols < 1 or n_rows < 1:
        raise ValueError("grid must have at least one point per side")
    total = n_cols * n_rows
    # representatives of +-(dx, dy): dx > 0 with any dy, or dx == 0 with dy > 0
    reps = [(0, dy) for dy in range(1, n_rows)]
    reps.extend(
        (dx, dy) for dx in range(1, n_cols) for dy in range(-(n_rows - 1), n_rows)
    )
    mult = [(n_cols - abs(dx)) * (n_rows - abs(dy)) for dx, dy in reps]
    if exact:
        return _exact_distance_set(body, total, zip(reps, mult), Fraction(spacing))
    diffs = np.array(reps, dtype=float).reshape(-1, 2) * spacing
    vals = np.concatenate(([0.0], gauge_many(body, diffs)))
    return _float_distance_set(total, vals, tol, np.array([1] + mult))


def min_gap(ds: DistanceSet):
    """Smallest difference between consecutive values (0.0 for equal exact
    disc values); None if < 2 values."""
    if len(ds.values) < 2:
        return None
    return min(b - a for a, b in zip(ds.values, ds.values[1:]))


@dataclass(frozen=True)
class Annulus:
    """Gauge annulus: points with gauge distance from center in (width*N, width*(N+1))."""

    N: int
    width: float = 10.0
    center: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if self.N < 0:
            raise ValueError("annulus index must be >= 0")
        if not (self.width > 0):
            raise ValueError("annulus width must be positive")

    @property
    def inner(self) -> float:
        return self.width * self.N

    @property
    def outer(self) -> float:
        return self.width * (self.N + 1)


@dataclass(frozen=True)
class Cone:
    """Open cone with apex at the origin: polar angle strictly between theta1 and theta2."""

    theta1: float
    theta2: float

    def __post_init__(self):
        span = self.theta2 - self.theta1
        if not (0 < span <= 2 * math.pi):
            raise ValueError("cone must satisfy 0 < theta2 - theta1 <= 2*pi")

    def contains(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        ang = np.arctan2(pts[:, 1], pts[:, 0])
        d = np.mod(ang - self.theta1, 2 * math.pi)
        return (d > 0) & (d < self.theta2 - self.theta1)


def annulus_cone_points(
    ps: PointSet,
    body: ConvexBody,
    N: int,
    cone: Cone,
    width: float = 10.0,
) -> PointSet:
    """Points of S strictly inside the gauge annulus (width*N, width*(N+1)) and the open cone."""
    _ensure_valid(body)
    ann = Annulus(N, width)
    if len(ps) == 0:
        return ps
    g = gauge_many(body, ps.points)
    mask = (g > ann.inner) & (g < ann.outer) & cone.contains(ps.points)
    return PointSet(ps.points[mask], ps.R)


def distance_lists_from_two_points(
    P,
    Q,
    subset: PointSet,
    body: ConvexBody,
    tol: Optional[float] = None,
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Distinct (tol-clustered) gauge distances from P and from Q to every subset point."""
    _ensure_valid(body)
    out = []
    for base in (P, Q):
        if len(subset) == 0:
            out.append(())
            continue
        vals = np.sort(gauge_many(body, subset.points - np.asarray(base, dtype=float)))
        t = 1e-9 * float(vals[-1]) if tol is None else tol
        reps, _ = _cluster(vals, t)
        out.append(tuple(reps))
    return out[0], out[1]


@dataclass(frozen=True)
class MoserRow:
    N: int
    count: int
    bound: float
    met: bool
    truncated: bool


def moser_count_check(
    ps: PointSet,
    body: ConvexBody,
    cone: Cone,
    inner_cone: Cone,
    N_range: Sequence[int],
    width: float = 10.0,
) -> list[MoserRow]:
    """Per-annulus counts in the inner cone against the N*(angle span) bound.

    Rows whose annulus is not fully contained in the window are flagged
    truncated and should be excluded from pass/fail judgments.  The caller is
    responsible for S actually being well-distributed.
    """
    if not (
        cone.theta1 < inner_cone.theta1
        and inner_cone.theta2 < cone.theta2
    ):
        raise ValueError("inner cone must be strictly inside the outer cone")
    span = inner_cone.theta2 - inner_cone.theta1
    reach = max_chebyshev_radius(body)
    rows = []
    for N in N_range:
        subset = annulus_cone_points(ps, body, N, inner_cone, width)
        count = len(subset)
        bound = N * span
        truncated = width * (N + 1) * reach > ps.R + 1e-9
        rows.append(MoserRow(int(N), count, bound, count >= bound, truncated))
    return rows
