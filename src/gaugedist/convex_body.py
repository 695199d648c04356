"""Origin-symmetric convex bodies and their Minkowski gauge.

A body K here is a polygon, a Euclidean disc, or a p-ball; each induces the
gauge ``||x||_K = inf {t > 0 : x in t*K}``, a norm whose unit ball is K.  The
polygon gauge is evaluated through the half-plane normal form (a max of linear
functionals, O(edges) per point); a ray-casting evaluator lives in the test
suite as an independent oracle.  Polygon vertices are doubles, hence dyadic
rationals, so each polygon also has an integer form: integer rows coef_i and an
integer q with q * gauge(x) = max_i |<coef_i, x>|.  At integer points the gauge
is therefore an integer over q, which lets lattice experiments count distinct
distances by integer equality, without any clustering tolerance; the exact
evaluator returns the same value as a ``Fraction``.  Both forms keep n rows:
edge i + n of a polygon with 2n vertices is edge i negated.

Bodies are valid by construction: each constructor runs :func:`validate` once
and raises :class:`InvalidBodyError` listing every violated invariant, so the
operations below never re-check their body.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import Union

import numpy as np

__all__ = [
    "ConvexBody",
    "Disc",
    "InvalidBodyError",
    "PBall",
    "SymmetricPolygon",
    "body_from_spec",
    "boundary_point",
    "boundary_points",
    "diamond",
    "gauge",
    "gauge_exact",
    "gauge_many",
    "load_body",
    "max_chebyshev_radius",
    "max_euclid_radius",
    "square",
    "validate",
]


class InvalidBodyError(ValueError):
    """A body failed its invariants at construction (the message joins every
    violation with "; "), or an operation got a body type it does not support."""


def _as_vertex_tuple(vertices) -> tuple[tuple[float, float], ...]:
    return tuple((float(x), float(y)) for x, y in vertices)


@dataclass(frozen=True)
class SymmetricPolygon:
    """Strictly convex polygon, counterclockwise, with ``vertices[i+n] == -vertices[i]``.

    Coordinates are doubles.  Antipodal vertex pairs must be exact negations
    (floats negate exactly, so this costs nothing); use
    :func:`SymmetricPolygon.from_half` to build a body from one half-turn of
    vertices.  Construction raises :class:`InvalidBodyError` unless every
    invariant holds.

    Each polygon keeps one integer frame ``_frame = (V, den)`` of all 2n
    vertices, equal to ``_scale_to_ints(vertices)``: ``den * vertices[i] ==
    V[i]``, den the lcm of the denominators.  :func:`validate` computes it
    once at construction, unless the private constructor
    ``_from_half_frame`` filled it, and checks the body on it; the integer
    form and the lemma trials' homothet frame read it.  It takes no part in
    equality, hashing or repr.
    """

    vertices: tuple[tuple[float, float], ...]
    _frame: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "vertices", _as_vertex_tuple(self.vertices))
        validate(self)

    @classmethod
    def from_half(cls, half_vertices) -> "SymmetricPolygon":
        half = _as_vertex_tuple(half_vertices)
        return cls(half + tuple((-x, -y) for x, y in half))

    @classmethod
    def _from_half_frame(cls, half, H, den: int) -> "SymmetricPolygon":
        """``from_half(half)`` for a half-turn of doubles already in integers,
        ``H[i] == den * half[i]``: the frame is H reduced to lowest terms and
        completed by negation, not a second conversion, and :func:`validate`
        then runs every check on it, raising as the public constructor does."""
        g = math.gcd(den, *(c for p in H for c in p))
        V = [(x // g, y // g) for x, y in H]
        poly = object.__new__(cls)
        object.__setattr__(poly, "vertices", tuple(half) + tuple((-x, -y) for x, y in half))
        object.__setattr__(poly, "_frame", (V + [(-x, -y) for x, y in V], den // g))
        validate(poly)
        return poly

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @cached_property
    def _half_rows(self) -> tuple[tuple[float, float, float], ...]:
        # unit normal and offset <v_i, n_i> of the first n of the 2n edges; edge
        # i + n is edge i negated, so its normal is exactly minus normal i with
        # offset h_i, and the max of the two values is |<x, n_i> / h_i|
        n = len(self.vertices) // 2
        verts = np.asarray(self.vertices[: n + 1], dtype=float)
        ex, ey = np.diff(verts, axis=0).T
        length = np.hypot(ey, ex)
        nx, ny = ey / length, -ex / length
        h = verts[:n, 0] * nx + verts[:n, 1] * ny
        # near the ends of the double range a normal component can underflow
        # (its edge component is not 0), or an offset round to <= 0 or overflow
        good = ((abs(nx) >= _MIN_NORMAL) | (ey == 0)) & ((abs(ny) >= _MIN_NORMAL) | (ex == 0))
        good &= (h >= _MIN_NORMAL) & (h < math.inf)
        if not good.all():
            i = int(np.argmin(good))
            raise ValueError(f"polygon edge {i} has normal ({nx[i]}, {ny[i]}) and offset {h[i]}, "
                             "not normal doubles; only exact evaluation serves this body")
        return tuple(zip(nx.tolist(), ny.tolist(), h.tolist()))

    @cached_property
    def _integer_form(self) -> tuple[np.ndarray, int]:
        # gauge(x) = max_i |<x, n_i>| / h_i over the first n edges v_i -> w_i,
        # n_i = (ey, -ex) and h_i = <v_i, n_i> > 0.  In validate's integer frame
        # V = den * v, n_i / h_i = den * (Ey, -Ex) / cross(V_i, V_i+1) = (a, b) / H;
        # q, the lcm of H / gcd(a, b, H), makes the rows q * (a, b) / H integers
        # (Python ints in an (n, 2) object array); edge i + n has the same H.
        V, den = self._frame
        n = len(V) // 2
        rows = [(den * (y1 - y0), den * (x0 - x1), x0 * y1 - y0 * x1)
                for (x0, y0), (x1, y1) in zip(V[:n], V[1 : n + 1])]
        q = math.lcm(*(h // math.gcd(a, b, h) for a, b, h in rows))
        coef = np.array([(a * q // h, b * q // h) for a, b, h in rows], dtype=object)
        coef.setflags(write=False)
        return coef, q


@dataclass(frozen=True)
class Disc:
    """Euclidean disc; the radius must be finite and positive."""

    radius: float

    def __post_init__(self):
        validate(self)


@dataclass(frozen=True)
class PBall:
    """Unit ball of the l^p norm scaled by ``radius``; p > 1 keeps it strictly convex."""

    p: float
    radius: float

    def __post_init__(self):
        validate(self)


ConvexBody = Union[SymmetricPolygon, Disc, PBall]

_MIN_NORMAL = sys.float_info.min  # the smallest normal double


def square(half_width: float = 1.0) -> SymmetricPolygon:
    """The square [-c, c]^2; its gauge is the scaled max-coordinate norm."""
    c = float(half_width)
    return SymmetricPolygon(((c, c), (-c, c), (-c, -c), (c, -c)))


def diamond(radius: float = 1.0) -> SymmetricPolygon:
    """The l^1 ball of the given radius; its gauge is the scaled taxicab norm."""
    r = float(radius)
    return SymmetricPolygon(((r, 0.0), (0.0, r), (-r, 0.0), (0.0, -r)))


def _ratio(x) -> tuple[int, int]:
    # numpy integers have no as_integer_ratio; Fraction takes any rational
    return (x if hasattr(x, "as_integer_ratio") else Fraction(x)).as_integer_ratio()


def _scale_to_ints(*point_lists):
    """``(*lists, den)``: each point p as ``den * p``, den the lcm of all denominators."""
    ratios = [[(_ratio(x), _ratio(y)) for x, y in pts] for pts in point_lists]
    den = math.lcm(*(d for pts in ratios for (_, dx), (_, dy) in pts for d in (dx, dy)))
    return (*([(a * (den // b), c * (den // d)) for (a, b), (c, d) in pts] for pts in ratios), den)


def _convexity(V) -> tuple[int, list[str]]:
    """Orientation (sign of the signed area, +1 counterclockwise) and violations
    of the closed polygon with integer vertices V.  None is listed exactly when
    V is simple and strictly convex: no vertex repeats its successor, every turn
    has the orientation's sign, and the edge direction leaves the upper
    half-plane once (a star polygon or a boundary listed twice winds more)."""
    m = len(V)
    dup = [i for i in range(m) if V[i] == V[(i + 1) % m]]
    if dup:
        return 0, [f"repeated consecutive vertices at {dup}"]
    W = V[1:] + V[:1]
    area = sum(x0 * y1 - y0 * x1 for (x0, y0), (x1, y1) in zip(V, W))
    orient = (area > 0) - (area < 0)
    E = [(x1 - x0, y1 - y0) for (x0, y0), (x1, y1) in zip(V, W)]
    bad = [i for i, ((ex, ey), (fx, fy)) in enumerate(zip(E, E[1:] + E[:1]))
           if orient * (ex * fy - ey * fx) <= 0]
    up = [dy > 0 or (dy == 0 and dx > 0) for dx, dy in E]
    winds = sum(a and not b for a, b in zip(up, up[1:] + up[:1]))
    viol = [f"non-strict convex turn sign at vertices {bad}"] if bad else []
    if winds != 1:
        viol.append(f"boundary winds {winds} times around, not once")
    return orient, viol


def _polygon_violations(poly: SymmetricPolygon) -> list[str]:
    v = poly.vertices
    m = len(v)
    if m == 0:
        return ["polygon has no vertices"]
    if not all(math.isfinite(x) and math.isfinite(y) for x, y in v):
        return ["non-finite vertex coordinate"]
    viol = []
    if m % 2 == 1 or m < 4:
        viol.append(
            f"symmetry pairing impossible: vertex count {m} (need an even count >= 4)"
        )
    else:
        n = m // 2
        bad = [i for i in range(n) if v[i + n] != (-v[i][0], -v[i][1])]
        if bad:
            viol.append(f"symmetry pairing fails: vertices {bad} not negated at +n")
    if poly._frame is None:
        object.__setattr__(poly, "_frame", _scale_to_ints(v))
    V, _ = poly._frame
    orient, shape = _convexity(V)
    viol += shape
    outside = [i for i, ((x0, y0), (x1, y1)) in enumerate(zip(V, V[1:] + V[:1]))
               if x0 * y1 - y0 * x1 <= 0]
    if orient < 0:
        viol.append("non-strict convex turn sign: vertices run clockwise")
    elif orient and outside:
        viol.append(f"origin not strictly inside: edges {outside}")
    return viol


def validate(body: ConvexBody) -> None:
    """Check every invariant of the body; raise :class:`InvalidBodyError`
    listing every violation, joined by "; ", if any fails.

    Each body constructor runs this once, so a constructed body always passes
    and operations never re-check it; any other object fails as an
    unsupported type.

    Polygon shape checks are exact, on the polygon's integer frame
    (``SymmetricPolygon._frame``), which this computes once for finite
    vertices unless a private constructor filled it.  Besides pairing, strict
    counterclockwise turns and the origin inside, the boundary must wind once:
    the {8/3} octagram turns left at every vertex but winds three times."""
    if isinstance(body, SymmetricPolygon):
        viol = _polygon_violations(body)
    elif isinstance(body, Disc):
        ok = math.isfinite(body.radius) and body.radius > 0
        viol = [] if ok else [f"disc radius {body.radius} not positive"]
    elif isinstance(body, PBall):
        viol = []
        if not (math.isfinite(body.p) and body.p > 1):
            viol.append(f"p-ball exponent {body.p} not in (1, inf)")
        if not (math.isfinite(body.radius) and body.radius > 0):
            viol.append(f"p-ball radius {body.radius} not positive")
    else:
        viol = [f"unsupported body type {type(body).__name__}"]
    if viol:
        raise InvalidBodyError("; ".join(viol))


def gauge(body: ConvexBody, x) -> float:
    """Minkowski gauge of x with respect to the body; 0 iff x == 0.  ``ValueError``
    for a non-finite point, or a polygon whose float normals or offsets leave
    the normal doubles (:func:`gauge_exact` serves it)."""
    px, py = float(x[0]), float(x[1])
    if not (math.isfinite(px) and math.isfinite(py)):
        raise ValueError("gauge of a non-finite point")
    return _scalar_gauge(body)(px, py)


def _scalar_gauge(body: ConvexBody):
    """``(px, py) -> gauge`` for finite floats, without :func:`gauge`'s
    conversion, check and type dispatch; the one scalar formula per body.
    A polygon's is :func:`gauge_many`'s rule in the same operation order, so
    the two agree bit for bit; for the disc and p-ball :func:`gauge_many`
    keeps numpy's hypot and pow, which can differ in the last bit.

    A p-ball gauge is (|x|^p + |y|^p)^(1/p) / r, except where that sum is not a
    normal double (large p over- or underflows it): there it is
    m ((|x|/m)^p + (|y|/m)^p)^(1/p) / r with m = max(|x|, |y|)."""
    if isinstance(body, SymmetricPolygon):
        rows = body._half_rows
        return lambda px, py: max(abs((px * nx + py * ny) / h) for nx, ny, h in rows)
    r = body.radius
    if isinstance(body, Disc):
        return lambda px, py: math.hypot(px, py) / r
    p, inv = body.p, 1.0 / body.p

    def pball(px, py):
        ax, ay = abs(px), abs(py)
        try:
            s = ax**p + ay**p
        except OverflowError:
            s = math.inf
        if _MIN_NORMAL <= s < math.inf:
            return s**inv / r
        m = max(ax, ay)
        if m == 0:
            return 0.0
        return m * ((ax / m) ** p + (ay / m) ** p) ** inv / r

    return pball


def gauge_many(body: ConvexBody, points) -> np.ndarray:
    """Vectorized gauge over an (n, 2) array of points.

    Columns are read one at a time, so a column-major (Fortran-order) array
    is read contiguously; the values do not depend on the layout.  A polygon
    without a float gauge raises ``ValueError``, as in :func:`gauge`."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must have shape (n, 2)")
    x, y = pts[:, 0], pts[:, 1]
    if isinstance(body, SymmetricPolygon):
        # one column at a time over half the edges (_half_rows), elementwise
        # rather than matmul: no (n, edges) temporaries, independent of BLAS
        # threading, and bit-identical to the scalar path
        out = None
        for nx, ny, h in body._half_rows:
            v = x * nx
            v += y * ny
            v /= h
            np.abs(v, out=v)
            out = v if out is None else np.maximum(out, v, out=out)
        return out
    r = body.radius
    if isinstance(body, Disc):
        return np.hypot(x, y) / r
    p = body.p
    with np.errstate(over="ignore"):
        s = np.abs(x) ** p + np.abs(y) ** p
    # two reductions keep the check cheap; rows whose sum is not a normal
    # double are rescaled as in _scalar_gauge
    redo = None
    if len(s) and not _MIN_NORMAL <= s.min() <= s.max() < np.inf:
        redo = np.flatnonzero((s < _MIN_NORMAL) | (s == np.inf))
    out = s ** (1.0 / p)
    if redo is not None:
        a = np.abs(pts[redo])
        m = a.max(axis=1)
        keep = (m > 0) & (m < np.inf)  # zero rows stay 0, non-finite rows as computed
        redo, a, m = redo[keep], a[keep], m[keep]
        a /= m[:, None]
        a **= p
        out[redo] = m * (a[:, 0] + a[:, 1]) ** (1.0 / p)
    return out / r


def gauge_exact(poly: SymmetricPolygon, x) -> Fraction:
    """Exact gauge of a rational point with respect to a polygon.

    Doubles are dyadic rationals, so any float input is converted losslessly.
    The point is scaled by the lcm d of its denominators to integers X, and
    the gauge is max_i |<coef_i, X>| / (q * d) over the n rows of the
    polygon's integer form.
    """
    if not isinstance(poly, SymmetricPolygon):
        raise InvalidBodyError("gauge_exact is defined for polygon bodies")
    [(X, Y)], d = _scale_to_ints([x])
    coef, q = poly._integer_form
    return Fraction(max(abs(a * X + b * Y) for a, b in coef), q * d)


def boundary_point(body: ConvexBody, theta: float) -> tuple[float, float]:
    """The boundary point of the body in direction theta (gauge exactly ~1)."""
    d = (math.cos(theta), math.sin(theta))
    g = gauge(body, d)
    return (d[0] / g, d[1] / g)


def boundary_points(body: ConvexBody, thetas) -> np.ndarray:
    th = np.asarray(thetas, dtype=float)
    dirs = np.stack([np.cos(th), np.sin(th)], axis=1)
    g = gauge_many(body, dirs)
    return dirs / g[:, None]


def max_euclid_radius(body: ConvexBody) -> float:
    """Largest Euclidean norm on the gauge-unit boundary (for window sizing)."""
    if isinstance(body, SymmetricPolygon):
        return max(math.hypot(x, y) for x, y in body.vertices)
    if isinstance(body, Disc):
        return body.radius
    return body.radius * max(1.0, 2.0 ** (0.5 - 1.0 / body.p))


def max_chebyshev_radius(body: ConvexBody) -> float:
    """Largest max-coordinate norm on the gauge-unit boundary.

    The gauge ball of radius G fits inside the square window [-R, R]^2 exactly
    when G times this value is at most R.
    """
    if isinstance(body, SymmetricPolygon):
        return max(max(abs(x), abs(y)) for x, y in body.vertices)
    return body.radius  # disc and p-ball peak on the axes


def _spec_field(spec: dict, name: str, convert):
    if name not in spec:
        raise ValueError(f"body spec has no {name!r} field")
    try:
        return convert(spec[name])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"body spec field {name!r}: {exc}") from None


def _json_number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{value!r} is not a JSON number")
    return float(value)


def _json_vertices(value) -> tuple[tuple[float, float], ...]:
    if not isinstance(value, list) or not all(isinstance(v, list) and len(v) == 2 for v in value):
        raise TypeError(f"{value!r} is not a JSON array of [x, y] pairs")
    return tuple((_json_number(x), _json_number(y)) for x, y in value)


def _json_bool(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"{value!r} is not a JSON boolean")
    return value


def body_from_spec(spec: dict) -> ConvexBody:
    """Build a body from its JSON description.

    ``{"type": "polygon", "vertices": [[x, y], ...], "symmetric_completion": bool}``
    or ``{"type": "disc", "radius": r}`` or ``{"type": "pball", "p": p, "radius": r}``,
    with x, y, r and p JSON numbers and the completion a JSON boolean, false when absent.
    A malformed description raises ``ValueError`` naming the bad field, and an
    invalid body :class:`InvalidBodyError`.
    """
    if not isinstance(spec, dict):
        raise ValueError(f"body spec must be a JSON object, not {type(spec).__name__}")
    kind = spec.get("type")
    if kind == "polygon":
        verts = _spec_field(spec, "vertices", _json_vertices)
        complete = "symmetric_completion" in spec
        if complete and _spec_field(spec, "symmetric_completion", _json_bool):
            return SymmetricPolygon.from_half(verts)
        return SymmetricPolygon(verts)
    if kind == "disc":
        return Disc(_spec_field(spec, "radius", _json_number))
    if kind == "pball":
        return PBall(_spec_field(spec, "p", _json_number), _spec_field(spec, "radius", _json_number))
    raise ValueError(f"unknown body type {kind!r}")


_NAMED_BODIES = {
    "square": square,
    "diamond": diamond,
    "disc": lambda: Disc(1.0),
}


def load_body(source) -> ConvexBody:
    """Load a body from a dict, a builtin name (square/diamond/disc), or a JSON file."""
    if isinstance(source, dict):
        return body_from_spec(source)
    if isinstance(source, (SymmetricPolygon, Disc, PBall)):
        return source
    name = str(source)
    if name in _NAMED_BODIES:
        return _NAMED_BODIES[name]()
    with open(Path(name), "r", encoding="utf-8") as fh:
        return body_from_spec(json.load(fh))
