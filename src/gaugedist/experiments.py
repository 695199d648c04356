"""Experiment drivers: distance-set sweeps, lattice counts, and lemma-check batches.

Everything here is deterministic under a fixed seed.  Trial batches derive one
child seed per trial (see :mod:`gaugedist.prng`), so runs are reproducible and
order-independent; report writers emit byte-identical output unless the
optional timestamp header is enabled.

The translation vectors used in the polygon trial batches are constructed, not
blind draws: a uniformly random translate of a scaled polygon almost never
shares a boundary segment with the original, so segment events would have
measure zero.  Each trial picks one of several constructions (align one edge's
supporting line, scale about a vertex, carry an edge onto its opposite, or a
fully random translate) with dyadic coordinates, keeping every case exact.
"""

from __future__ import annotations

import csv
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .convex_body import (
    ConvexBody,
    Disc,
    PBall,
    SymmetricPolygon,
    gauge,
    load_body,
    max_chebyshev_radius,
)
from .distance_sets import (
    Annulus,
    Cone,
    _has_exact_keys,
    distance_set,
    grid_distance_set,
    min_gap,
    moser_count_check,
    MoserRow,
)
from .geometry_kernel import (
    ConcurrenceReport,
    _homothet_check,
    random_symmetric_polygon,
    strictly_convex_intersection_count,
)
from .point_sets import GeneratorSpec, _lattice_indices, alpha_dimension_estimate, generate
from .prng import Xorshift64Star, derive_seed, quantize

__all__ = [
    "ExperimentRow",
    "LemmaBatch",
    "erdos_bound",
    "run_lemma_checks",
    "run_moser",
    "run_sweep",
    "taxicab_count",
    "write_jsonl",
    "write_moser_csv",
    "write_sweep_csv",
]


@dataclass(frozen=True)
class ExperimentRow:
    R: float
    n_points: int
    n_distances: int
    min_gap: Union[float, Fraction, None]  # a Fraction for exact polygon sweeps
    alpha_hat: Optional[float]


def run_sweep(
    body: ConvexBody,
    genspec: GeneratorSpec,
    R_list: Sequence[float],
    tol: Optional[float] = None,
    exact: bool = False,
) -> list[ExperimentRow]:
    """One distance-set row per window radius.

    Every lattice window, float or exact, goes through the grid closed form
    (:func:`grid_distance_set`), so no lattice sweep runs the pair loop; other
    point sets are generated and go through :func:`distance_set`.  A file
    point set is the same set at every radius, so it takes one radius.
    """
    radii = sorted(map(float, R_list))
    for a, b in zip(radii, radii[1:]):
        if a == b:
            raise ValueError(f"window radius {a!r} is given twice")
    if genspec.kind == "file" and len(radii) > 1:
        raise ValueError(f"a file point set takes one window radius, not {len(radii)}")
    rows = []
    for R in radii:
        spec = replace(genspec, R=R)
        if spec.kind == "lattice":
            side = len(_lattice_indices(spec.R, spec.spacing))
            ds = grid_distance_set(body, side, side, spec.spacing, tol=tol, exact=exact)
            n_points = side * side
        else:
            ps = generate(spec)
            n_points = len(ps)
            ds = distance_set(body, ps, tol=tol, exact=exact)
        rows.append(ExperimentRow(R, n_points, len(ds), min_gap(ds), alpha_hat=None))
    if len(rows) >= 3:
        alpha = alpha_dimension_estimate([(r.R, r.n_points) for r in rows]).alpha
        rows = [replace(r, alpha_hat=alpha) for r in rows]
    return rows


def taxicab_count(n: int, body_name: str = "square") -> dict:
    """Distinct gauge distances of the (n+1) x (n+1) corner lattice, exactly, for a
    polygon or disc body given as :func:`load_body` takes it."""
    if n < 1:
        raise ValueError("lattice size must be >= 1")
    ds = grid_distance_set(load_body(body_name), n + 1, n + 1, 1.0, exact=True)
    n_points = (n + 1) ** 2
    return {
        "body": body_name,
        "n": n,
        "n_points": n_points,
        "n_distances": len(ds),
        "ratio_to_sqrt_n_points": len(ds) / math.sqrt(n_points),
    }


def erdos_bound(body: ConvexBody, N: int, seed: int = 0) -> dict:
    """Distinct-distance counts for N random points and the ceil(sqrt(N))^2 lattice.

    The counts come with their ratio to sqrt(N); a ratio below 0.5 is flagged
    (it never is, for any body: the lower bound holds universally).
    """
    if N < 4:
        raise ValueError("need N >= 4")
    n = int(math.ceil(math.sqrt(N)))
    rng = Xorshift64Star(seed)
    pts = np.array([[rng.uniform(0.0, n), rng.uniform(0.0, n)] for _ in range(N)])
    random_ds = distance_set(body, pts, tol=1e-12 * n)
    # exact where the body allows it; only a float set takes a tolerance
    exact = _has_exact_keys(body)
    lattice_ds = grid_distance_set(body, n, n, 1.0, tol=None if exact else 1e-12 * n, exact=exact)
    out = {"N": N, "seed": seed, "witnesses": {}}
    flagged = False
    for name, ds, count in (
        ("random", random_ds, N),
        ("lattice", lattice_ds, n * n),
    ):
        ratio = len(ds) / math.sqrt(N)
        flag = ratio < 0.5
        flagged = flagged or flag
        out["witnesses"][name] = {
            "n_points": count,
            "n_distances": len(ds),
            "ratio_to_sqrt_N": ratio,
            "below_half": flag,
        }
    out["flagged"] = flagged
    return out


@dataclass(frozen=True)
class LemmaBatch:
    which: str
    trials: int
    seed: int
    rows: tuple[dict, ...]
    violations: int
    segments_checked: int
    segments_flagged: int
    max_classes: int
    max_count: int


_ALPHAS_13 = (0.5, 1.0, 2.0, 3.0)
_ALPHAS_14 = (0.5, 2.0, 3.0, 1.0)
_STRICT_BODIES = (Disc(1.0), PBall(1.5, 1.0), PBall(3.0, 1.0))


def _choose_u(rng: Xorshift64Star, poly: SymmetricPolygon, alpha: float):
    """Dyadic translation for one trial; see the module docstring for the kinds."""
    verts = poly.vertices
    m = len(verts)
    roll = rng.below(3)
    i = rng.below(m)
    vx, vy = verts[i]
    wx, wy = verts[(i + 1) % m]
    ex, ey = wx - vx, wy - vy
    if roll == 0:
        # place alpha*edge + u on the edge's own supporting line, overlapping it
        beta = quantize(-alpha + (1.0 + alpha) * (0.0625 + 0.875 * rng.random()), 12)
        u = ((1.0 - alpha) * vx + beta * ex, (1.0 - alpha) * vy + beta * ey)
    elif roll == 1:
        if alpha == 1.0:
            # carry the opposite edge onto this one
            s = quantize(-0.875 + 1.75 * rng.random(), 12)
            u = (vx + wx + s * ex, vy + wy + s * ey)
        else:
            # scaling about the shared vertex aligns both incident edges
            u = ((1.0 - alpha) * wx, (1.0 - alpha) * wy)
    else:
        u = (quantize(rng.uniform(-2.5, 2.5), 16), quantize(rng.uniform(-2.5, 2.5), 16))
    if u == (0.0, 0.0):
        u = (2.0 ** -12, 0.0)
    return u


def _polygon_trial(k: int, seed: int, alpha: float) -> tuple[dict, ConcurrenceReport]:
    rng = Xorshift64Star(derive_seed(seed, k))
    poly = random_symmetric_polygon(2 + rng.below(7), rng.next_u64())
    u = _choose_u(rng, poly, alpha)
    rep = _homothet_check(poly, alpha, u)
    row = {
        "trial": k,
        "alpha": alpha,
        "u": [u[0], u[1]],
        "classes": rep.checked + rep.flagged,  # each maximal segment has its own line
        "max_concurrence_error": rep.max_error,
        "flags": list(rep.flags),
    }
    return row, rep


def _strict_trial(k: int, seed: int) -> dict:
    rng = Xorshift64Star(derive_seed(seed, k))
    body = _STRICT_BODIES[k % 3]
    alpha = 0.5 + 1.5 * rng.random()
    while True:
        dx, dy = rng.in_disc()
        if dx * dx + dy * dy >= 0.01:
            break
    gd = gauge(body, (dx, dy))
    lo, hi = abs(1.0 - alpha), 1.0 + alpha
    regime = rng.below(10)
    if regime < 7:
        rho = lo + (hi - lo) * (0.05 + 0.9 * rng.random())  # two crossings
    elif regime < 9:
        rho = hi + 0.1 + rng.random()  # disjoint
    else:
        rho = lo + (hi - lo) * 0.002  # barely past internal tangency
    x = (rho * dx / gd, rho * dy / gd)
    scan = strictly_convex_intersection_count(body, alpha, x)
    flags = ["unresolved"] if scan.unresolved else []
    return {"trial": k, "alpha": alpha, "u": [x[0], x[1]], "count": scan.count, "flags": flags}


def run_lemma_checks(which: str, trials: int, seed: int) -> LemmaBatch:
    """Run a seeded trial batch and sum its summary from the trials.

    which "13": bound on distinct supporting-line classes (must stay <= 2).
    which "14": the concurrence law on every segment line: through u/(1-alpha)
    (parallel to u at alpha == 1), or, for a flagged external contact, through
    u/(1+alpha); every fourth trial runs at alpha == 1.
    which "strict": intersection counts for strictly convex bodies (<= 2), from
    the certified root scan, whose count is a lower bound; a row whose scan is
    unresolved (not all the rest shown root-free) carries the flag "unresolved".

    ``violations`` counts rows with classes > 2 ("13"), reports not ok ("14")
    or rows with count > 2 ("strict"); ``segments_checked``/``_flagged`` sum
    the reports' ``checked``/``flagged``; ``max_classes`` and ``max_count``
    are maxima over the rows, 0 where the batch has no such column.
    """
    which = str(which)
    if trials < 1:
        raise ValueError("need at least one trial")
    reps: tuple[ConcurrenceReport, ...] = ()
    if which == "strict":
        rows = tuple(_strict_trial(k, seed) for k in range(trials))
        bad = [r["count"] > 2 for r in rows]
    elif which in ("13", "14"):
        alphas = _ALPHAS_13 if which == "13" else _ALPHAS_14
        rows, reps = zip(*(_polygon_trial(k, seed, alphas[k % 4]) for k in range(trials)))
        bad = [r["classes"] > 2 for r in rows] if which == "13" else [not r.ok for r in reps]
    else:
        raise ValueError("which must be one of 13, 14, strict")
    return LemmaBatch(
        which=which,
        trials=trials,
        seed=seed,
        rows=rows,
        violations=sum(bad),
        segments_checked=sum(r.checked for r in reps),
        segments_flagged=sum(r.flagged for r in reps),
        max_classes=max(r.get("classes", 0) for r in rows),
        max_count=max(r.get("count", 0) for r in rows),
    )


def run_moser(
    body: ConvexBody,
    cone: Cone,
    inner_cone: Cone,
    N_range: Sequence[int],
    spacing: float = 1.0,
    width: float = 10.0,
) -> list[MoserRow]:
    """Annulus/cone counts on the unit-spacing lattice, window sized to fit N_max.

    An empty ``N_range`` gives no rows, as in :func:`moser_count_check`.  A
    window of 2**53 spacings or more raises ``ValueError`` naming the inputs
    it is derived from.
    """
    N_max, reach = max(N_range, default=0), max_chebyshev_radius(body)
    R = Annulus(N_max, width).outer * reach + spacing
    if 0 < spacing < math.inf and not R / spacing < 2**53:
        raise ValueError(f"moser window radius {R!r}, from width {width!r} * (N_range maximum "
                         f"{N_max} + 1) * body reach {reach!r} + spacing, over spacing "
                         f"{spacing!r} must be below 2**53")
    ps = generate(GeneratorSpec(kind="lattice", R=R, spacing=spacing))
    return moser_count_check(ps, body, cone, inner_cone, N_range, width)


def _generated() -> str:
    return datetime.now(timezone.utc).isoformat()


@contextmanager
def _open_report(path, header: Optional[str]):
    """Open a report for writing with LF line ends, starting with ``header`` if given."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if header is not None:
            fh.write(header + "\n")
        yield fh


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, Fraction):
        v = float(v)
    return repr(float(v))


def _write_csv(rows, columns: tuple[str, ...], path, timestamp: bool) -> None:
    with _open_report(path, f"# generated {_generated()}" if timestamp else None) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_fmt(getattr(r, c)) for c in columns] for r in rows)


def write_sweep_csv(rows: Sequence[ExperimentRow], path, timestamp: bool = True) -> None:
    _write_csv(rows, ("R", "n_points", "n_distances", "min_gap", "alpha_hat"), path, timestamp)


def write_moser_csv(rows: Sequence[MoserRow], path, timestamp: bool = True) -> None:
    _write_csv(rows, ("N", "count", "bound", "met", "truncated"), path, timestamp)


def write_jsonl(rows: Sequence[dict], path, timestamp: bool = True) -> None:
    header = json.dumps({"meta": {"generated": _generated()}}) if timestamp else None
    with _open_report(path, header) as fh:
        for row in rows:
            fh.write(json.dumps(row, separators=(",", ":")) + "\n")
