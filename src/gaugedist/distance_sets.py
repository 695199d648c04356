"""Gauge distance sets and the annulus/cone counting apparatus.

The distance set of A under a body K collects every pairwise gauge distance,
including the zero from coincident pairs.  One builder, :func:`_distance_set`,
makes it from the values of difference vectors, every pair once by one walk
or a grid's closed-form multiset with pair counts, and one routine,
:func:`_cluster`, sorts and groups the values of every distance set and
distance list.  Floating mode
groups gauge values greedily into clusters of spread <= tol (distinctness at
double precision needs a tolerance); exact mode takes integer vectors and a
rational scale, and groups them at tol 0 by an integer key, q * gauge in the
polygon's integer form or the disc's squared length, so lattice counts are
tolerance-free.  Integers are int64 when a bound rules out overflow and Python
ints otherwise (:func:`_int_dtype`).  A :class:`DistanceSet` holds numpy arrays
(float clusters, polygon keys or rounded disc roots, with counts) and builds
Python values only when a caller reads them.  Every request is checked by
:func:`_check_request` before any work: an exact set needs a polygon or disc
body and takes no tolerance, and a float tolerance must be finite and >= 0.

The annulus/cone counts of :func:`moser_count_check` take one pass over the
point set: the gauges and the inner-cone mask are computed once, and every
annulus count is two binary searches in the sorted gauges of the cone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from typing import Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .convex_body import (
    _MIN_NORMAL,
    ConvexBody,
    Disc,
    SymmetricPolygon,
    _scale_to_ints,
    gauge_many,
    max_chebyshev_radius,
)
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

# pairs per evaluator call in the pair walk: large enough that numpy's
# per-call overhead is small, small enough that the buffers stay in cache
_PAIR_BLOCK = 2**14


@dataclass(frozen=True, eq=False)
class DistanceSet:
    """Sorted distinct distances with their int64 pair counts.

    ``keys`` never decrease: float64 distances, or an exact polygon set's integer
    keys of the distances ``key * unit``.  Consecutive floats differ by more than
    tol, except that distinct exact disc distances rounding to one double stay
    separate equal values; an exact set has tol 0.0.  The zero distance is
    always present (pairs x == y count), with multiplicity n.  ``values``
    (``Fraction``s for a polygon) and ``multiplicities`` are tuples built on
    first access, and equality compares them and tol.
    """

    keys: np.ndarray
    counts: np.ndarray
    tol: float
    unit: Optional[Fraction] = None

    def __post_init__(self):
        # read-only, as the tuples built from them are cached
        self.keys.flags.writeable = self.counts.flags.writeable = False

    def __len__(self) -> int:
        return len(self.counts)

    @cached_property
    def values(self) -> tuple:
        if self.unit is None:
            return tuple(self.keys.tolist())
        num, den = self.unit.numerator, self.unit.denominator
        return tuple(Fraction(k * num, den) for k in self.keys.tolist())

    @cached_property
    def multiplicities(self) -> tuple[int, ...]:
        return tuple(self.counts.tolist())

    def __eq__(self, other):
        if not isinstance(other, DistanceSet):
            return NotImplemented
        return (self.values, self.multiplicities, self.tol) == (
            other.values, other.multiplicities, other.tol
        )


def _cluster(vals: np.ndarray, tol: Optional[float], weights=None) -> tuple:
    """Greedy clusters (value - first <= tol) of non-empty values, in increasing
    order: (firsts, sizes, the tol used).

    Unweighted values are sorted in place; weights (pair counts) are summed per
    cluster.  tol is finite and >= 0 (:func:`_check_request`), or None for 1e-9
    times the largest value.  At every tol the largest float must be finite: an
    overflowed distance raises ``ValueError`` rather than widen tol to inf or
    be counted as a distance.  At tol 0 the clusters are the distinct values,
    int64 or Python ints.  Rounded subtraction is monotone, so a gap > tol
    always starts a cluster and a run of smaller gaps spanning <= tol is one;
    only wider runs are walked.  One mask marks the first value of every
    cluster: set at each gap > tol, then at each split of a walked run.
    """
    if weights is None:
        vals.sort()
    else:
        order = np.argsort(vals)
        vals, weights = vals[order], np.asarray(weights)[order]
    # nan sorts last and inf is largest, so the last value shows both
    if vals.dtype.kind == "f" and not math.isfinite(vals[-1]):
        raise ValueError(f"largest distance {vals[-1]} is not finite")
    if tol is None:
        tol = 1e-9 * float(vals[-1])
    # brk[j]: vals[j] starts a cluster; first the runs split by gaps > tol
    brk = np.empty(len(vals), dtype=bool)
    brk[0] = True
    np.greater(np.diff(vals), tol, out=brk[1:])
    starts, sizes = _runs(brk)
    # a run of one value spans 0 and a run of two its one gap, <= tol, so
    # only longer runs can be wider than tol
    longer = np.flatnonzero(sizes > 2)
    lo, hi = starts[longer], starts[longer] + sizes[longer]
    wide = vals[hi - 1] - vals[lo] > tol
    for a, b in zip(lo[wide].tolist(), hi[wide].tolist()):
        first = vals[a]
        for j, v in enumerate(vals[a + 1 : b].tolist(), a + 1):
            if v - first > tol:
                brk[j] = True
                first = v
    if wide.any():
        starts, sizes = _runs(brk)
    counts = sizes if weights is None else np.add.reduceat(weights, starts)
    return vals[starts], counts, float(tol)


def _runs(brk: np.ndarray) -> tuple:
    """Starts and int64 sizes of the runs that begin where the mask is set
    (``brk[0]`` is)."""
    starts = np.flatnonzero(brk)
    sizes = np.empty(len(starts), dtype=np.int64)
    np.subtract(starts[1:], starts[:-1], out=sizes[:-1])
    sizes[-1] = len(brk) - starts[-1]
    return starts, sizes


def _has_exact_keys(body: ConvexBody) -> bool:
    """Whether exact distance sets serve the body: a polygon or a disc."""
    return isinstance(body, (SymmetricPolygon, Disc))


def _check_request(body: ConvexBody, tol: Optional[float], exact: bool) -> None:
    """Raise ``ValueError`` unless the request can be served: an exact set needs
    a polygon or disc body and takes no tol, and a float tol is None or finite
    and >= 0.  Every distance set and list checks this before any work."""
    if exact:
        if not _has_exact_keys(body):
            raise ValueError("exact distance sets need a polygon or disc body")
        if tol is not None:
            raise ValueError(f"exact distance sets take no clustering tolerance, got {tol}")
    elif tol is not None and not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"clustering tolerance {tol} must be finite and >= 0")


def _int_dtype(bound: int):
    """np.int64 if ``bound``, a bound on the absolute value of every integer the
    caller forms, is below 2**63; object (Python ints, the same arithmetic)
    otherwise."""
    return np.int64 if bound < 2**63 else object


def _as_points(source) -> np.ndarray:
    if isinstance(source, PointSet):
        return source.points
    pts = np.asarray(source, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must have shape (n, 2)")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points contain non-finite coordinates")
    return pts


def _exact_keys(body: ConvexBody, V: np.ndarray) -> np.ndarray:
    """Exact integer keys of the integer vectors V, shape (m, 2): q * gauge =
    max_i |<coef_i, v>| over a polygon's n integer rows, or a disc's squared length.

    The keys are int64 when a bound rules out overflow and Python ints (object
    dtype) otherwise (:func:`_int_dtype`).
    """
    vmax = int(np.abs(V).max()) if len(V) else 0
    if not isinstance(body, SymmetricPolygon):
        x, y = V.astype(_int_dtype(2 * vmax * vmax)).T
        return x * x + y * y
    coef, _ = body._integer_form
    # max(vmax, 1): the coefficients themselves must fit as well
    x, y = V.astype(_int_dtype(max(vmax, 1) * max(abs(a) + abs(b) for a, b in coef))).T
    # one row at a time, as gauge_many; elementwise, as matmul has no object path
    out = None
    for a, b in coef.tolist():
        v = x * a
        v += y * b
        np.abs(v, out=v)
        out = v if out is None else np.maximum(out, v, out=out)
    return out


def _disc_roots(keys: np.ndarray, c: Fraction) -> np.ndarray:
    """sqrt(k * c) of nonnegative integer keys k, each rounded once as
    sqrt(numerator) / sqrt(denominator) of k * c in lowest terms.

    A denominator beyond the double range (a tiny c) is met by dividing every
    numerator and denominator by one power of four, 4**s: their roots shrink
    by exactly 2**s, so each quotient is the double the formula gives with
    unbounded exponents.  A numerator beyond the double range raises
    ``ValueError``, and so does a scaled term or a nonzero root below the
    normal range, where that would no longer hold."""
    if not keys.size:
        return np.zeros(0)
    num, den = c.numerator, c.denominator
    # max(..., 1): num itself must fit as well
    k = keys.astype(_int_dtype(max(max(int(keys.max()), 1) * num, den)))
    g = np.gcd(k, den)
    a, b = k // g * num, den // g
    # s is the least power that brings the largest denominator below 2**1023,
    # 0 when it fits; Python's int / int rounds once, as int-to-float does
    s = max(0, (int(b.max()).bit_length() - 1022) // 2)
    try:
        if s:
            a, b = a / 4**s, b / 4**s
        a, b = a.astype(float), b.astype(float)
    except OverflowError:
        raise ValueError("exact disc distance overflows a double") from None
    if s:
        nonzero = k != 0
        b[~nonzero] = 1.0  # a zero key's root is 0 whatever its denominator
    roots = np.sqrt(a) / np.sqrt(b)
    # below the normal range a scaled term, or the quotient, rounds differently
    # (never at s = 0, where the terms are integers below 2**1023)
    if s and min(a[nonzero].min(initial=math.inf), b.min(),
                 roots[nonzero].min(initial=math.inf)) < _MIN_NORMAL:
        raise ValueError("exact disc distance is below the normal double range")
    return roots


def _distance_set(body, n: int, vals, weights, tol, scale=None) -> DistanceSet:
    """Distance set of n points from the values of their difference vectors,
    ``vals[0] = 0`` standing for the coincident pairs.  Without weights each
    value is one pair, and the other n - 1 coincident pairs join the zero
    cluster; weights (pair counts) start with n.  Values are clustered within
    tol.  With a scale, vals are exact keys (:func:`_exact_keys`), at tol 0, of
    vectors ``scale`` times the differences, and each distinct key is valued
    once: ``key * scale / q`` for a polygon, or the disc's root
    ``sqrt(key) * scale / radius`` (:func:`_disc_roots`)."""
    reps, counts, tol = _cluster(vals, tol, weights)
    if weights is None:
        counts[0] += n - 1
    if scale is None:
        return DistanceSet(reps, counts, tol)
    if isinstance(body, SymmetricPolygon):
        return DistanceSet(reps, counts, tol, scale / body._integer_form[1])
    values = _disc_roots(reps, scale * scale / Fraction(body.radius) ** 2)
    # rounded roots need not follow their keys; order by (value, key), so
    # distinct keys whose roots round to one double stay separate equal values
    order = np.argsort(values, kind="stable")
    return DistanceSet(values[order], counts[order], tol)


def distance_set(
    body: ConvexBody,
    points,
    tol: Optional[float] = None,
    exact: bool = False,
) -> DistanceSet:
    """All pairwise gauge distances of the point collection, clustered.

    Floating mode defaults tol to 1e-9 times the largest distance, and a tol
    that is not finite and >= 0 raises ``ValueError``.  Exact mode groups by
    integer key, so it takes no tol (one raises ``ValueError``) and reports tol
    0.0; it supports polygon bodies for any rational points and the disc via
    exact squared distances, and the p-ball, which has no exact evaluator,
    raises ``ValueError``.  Both are checked before any pair is built.  A
    non-finite coordinate raises ``ValueError`` in either mode.

    Both modes walk the pairs by cyclic shift, (i, (i + s) mod n), in blocks
    of about ``_PAIR_BLOCK`` pairs per call of :func:`gauge_many` (floats) or
    :func:`_exact_keys` (the scaled integers).  A pair that wraps is evaluated
    at p_i - p_j, and fl(a - b) = -fl(b - a), so its difference is the exact
    negation of p_j - p_i; every body is symmetric, so the value is the same.
    """
    _check_request(body, tol, exact)
    pts = _as_points(points)
    n = len(pts)
    if n == 0:
        raise ValueError("distance set of an empty point collection")
    if exact:
        ints, den = _scale_to_ints(pts)
        # differences of the scaled points reach twice their largest coordinate
        cols = np.array(ints, dtype=_int_dtype(2 * max(max(abs(x), abs(y)) for x, y in ints))).T
        # all keys take the widest difference's key dtype; narrower blocks widen
        vmax = max(max(c) - min(c) for c in zip(*ints))
        dtype = _exact_keys(body, np.array([[vmax, 0]], dtype=object)).dtype
        evaluate, tol, scale = partial(_exact_keys, body), 0, Fraction(1, den)
    else:
        cols, dtype, evaluate, scale = pts.T, float, partial(gauge_many, body), None
    vals = np.zeros(1 + n * (n - 1) // 2, dtype=dtype)
    # blocks (s, k, w): pairs (i, (i + s + t) mod n) for t < k and i < w, each
    # pair once: k whole shifts up to (n - 1) // 2 (one when n passes
    # _PAIR_BLOCK), then, for even n, the half shift n / 2 for i < n / 2.  They
    # are subtracted from windows on the doubled columns into one column-major
    # buffer, which the evaluator reads a column at a time
    shifts = [sliding_window_view(np.concatenate((c, c)), n) for c in cols]
    per = max(1, _PAIR_BLOCK // n)
    stop = (n + 1) // 2
    blocks = [(s, min(per, stop - s), n) for s in range(1, stop, per)]
    blocks += [(n // 2, 1, n // 2)] if n % 2 == 0 else []
    buf = np.empty((per * n, 2), dtype=cols.dtype, order="F")
    pos = 1
    # an overflowed difference is left to _cluster, which raises on it, so
    # numpy's warnings are silenced
    with np.errstate(over="ignore", invalid="ignore"):
        for s, k, w in blocks:
            for c, win in enumerate(shifts):
                np.subtract(win[s : s + k, :w], win[0, :w], out=buf[: k * w, c].reshape(k, w))
            vals[pos : pos + k * w] = evaluate(buf[: k * w])
            pos += k * w
    return _distance_set(body, n, vals, None, tol, scale)


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
    :func:`distance_set` on the same grid, the request rules included: exact
    mode (the default) needs a polygon or disc body and takes no tol.  In
    floating mode each difference is rounded once, as (k1 - k2) * spacing, so
    at a spacing that is not dyadic the values can differ in their last bits
    from the pair loop's, which rounds k1 * spacing - k2 * spacing.
    """
    _check_request(body, tol, exact)
    if n_cols < 1 or n_rows < 1:
        raise ValueError("grid must have at least one point per side")
    if not (math.isfinite(spacing) and spacing > 0):
        raise ValueError(f"grid spacing {spacing} must be positive and finite")
    total = n_cols * n_rows
    # representatives of +-(dx, dy): dx == 0 with dy >= 0 (zero first), then dx > 0
    dys = np.arange(-(n_rows - 1), n_rows, dtype=np.int64)
    dxs = np.arange(1, n_cols, dtype=np.int64)
    dx = np.concatenate((np.zeros(n_rows, np.int64), np.repeat(dxs, len(dys))))
    dy = np.concatenate((dys[n_rows - 1 :], np.tile(dys, n_cols - 1)))
    mult = (n_cols - dx) * (n_rows - np.abs(dy))
    reps = np.stack((dx, dy), axis=1)
    if exact:
        return _distance_set(body, total, _exact_keys(body, reps), mult, 0, Fraction(spacing))
    with np.errstate(over="ignore", invalid="ignore"):  # _cluster raises on overflow
        vals = gauge_many(body, reps * spacing)
    return _distance_set(body, total, vals, mult, tol)


def min_gap(ds: DistanceSet):
    """Smallest difference between consecutive values, None if < 2 values: a
    Fraction for exact polygon sets, else a float (0.0 for equal disc values)."""
    if len(ds) < 2:
        return None
    gap = np.diff(ds.keys).min()
    if ds.unit is None:
        return float(gap)
    return Fraction(int(gap) * ds.unit.numerator, ds.unit.denominator)


@dataclass(frozen=True)
class Annulus:
    """Gauge annulus: points with gauge distance from the origin in (width*N, width*(N+1))."""

    N: int
    width: float = 10.0

    def __post_init__(self):
        if self.N < 0:
            raise ValueError("annulus index must be >= 0")
        if not (math.isfinite(self.width) and self.width > 0):
            raise ValueError(f"annulus width {self.width} must be positive and finite")

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
    _check_request(body, tol, exact=False)
    out = []
    for base in (P, Q):
        if len(subset) == 0:
            out.append(())
            continue
        with np.errstate(over="ignore", invalid="ignore"):  # _cluster raises on overflow
            vals = gauge_many(body, subset.points - np.asarray(base, dtype=float))
        reps, _, _ = _cluster(vals, tol)
        out.append(tuple(reps.tolist()))
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

    One pass: the gauges of S and the inner-cone mask are computed once, the
    gauges inside the cone are sorted, and each count #(inner < g < outer) is
    #(g < outer) - #(g <= inner) by binary search, the same float comparisons
    as :func:`annulus_cone_points`.  Rows whose annulus is not fully contained
    in the window (width * (N + 1) * reach > R, compared as rationals) are
    flagged truncated and should be excluded from pass/fail judgments.  The
    caller is responsible for S actually being well-distributed.
    """
    if not (
        cone.theta1 < inner_cone.theta1
        and inner_cone.theta2 < cone.theta2
    ):
        raise ValueError("inner cone must be strictly inside the outer cone")
    span = inner_cone.theta2 - inner_cone.theta1
    reach = max_chebyshev_radius(body)
    g = gauge_many(body, ps.points)
    g = np.sort(g[inner_cone.contains(ps.points)])
    rows = []
    for N in N_range:
        ann = Annulus(N, width)
        count = int(np.searchsorted(g, ann.outer, "left") - np.searchsorted(g, ann.inner, "right"))
        bound = N * span
        truncated = Fraction(width) * (int(N) + 1) * Fraction(reach) > Fraction(ps.R)
        rows.append(MoserRow(int(N), count, bound, count >= bound, truncated))
    return rows
