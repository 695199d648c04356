"""Finite planar point sets: generators, separation, and density predicates.

Point sets live in a declared square window [-R, R]^2.  Generators are fully
deterministic: the perturbed lattice derives its offsets from the package PRNG
(see :mod:`gaugedist.prng`) in row-major lattice order, with offsets sampled
inside the jitter disc by rejection so Euclidean displacement never exceeds
the jitter and separation stays >= spacing - 2*jitter.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np
from scipy.spatial import cKDTree

from .convex_body import _json_number
from .prng import Xorshift64Star

__all__ = [
    "AlphaEstimate",
    "GeneratorSpec",
    "PointSet",
    "WellDistributedReport",
    "alpha_dimension_estimate",
    "generate",
    "load_point_set",
    "save_point_set",
    "separation_constant",
    "well_distributed_check",
]


@dataclass(frozen=True)
class PointSet:
    """Finite set of planar points, all inside the closed window [-R, R]^2."""

    points: np.ndarray
    R: float

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.size == 0:
            pts = pts.reshape(0, 2)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError("points must have shape (n, 2)")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points contain non-finite coordinates")
        R = float(self.R)
        if not (math.isfinite(R) and R > 0):
            raise ValueError(f"window radius {R} must be positive")
        if pts.size and np.max(np.abs(pts)) > R:
            raise ValueError("points fall outside the declared window")
        pts = np.ascontiguousarray(pts)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "R", R)

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for a deterministic point set.

    kind is "lattice", "perturbed_lattice", or "file"; spacing applies only to
    the lattices, and jitter and seed only to the perturbed lattice, where the
    jitter must stay below spacing/2 so separation is preserved.
    """

    kind: str
    R: float
    spacing: float = 1.0
    jitter: float = 0.0
    seed: int = 0
    path: Optional[str] = None

    def __post_init__(self):
        if self.kind not in ("lattice", "perturbed_lattice", "file"):
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.jitter != 0 and self.kind != "perturbed_lattice":
            raise ValueError(f"jitter applies only to the perturbed lattice, not {self.kind!r}")
        if self.seed != 0 and self.kind != "perturbed_lattice":
            raise ValueError(f"seed applies only to the perturbed lattice, not {self.kind!r}")
        if self.spacing != 1.0 and self.kind == "file":
            raise ValueError("spacing applies only to the lattices, not 'file'")
        if not (math.isfinite(self.spacing) and self.spacing > 0):
            raise ValueError(f"spacing {self.spacing} must be positive and finite")
        if not (0 <= self.jitter < self.spacing / 2):
            raise ValueError("jitter must lie in [0, spacing/2)")
        if not (math.isfinite(self.R) and self.R > 0):
            raise ValueError(f"window radius {self.R} must be positive and finite")
        # below 2**53 steps _lattice_indices settles the largest index in a few
        # steps; beyond, k * spacing is one double for many consecutive k
        if self.kind != "file" and not self.R / self.spacing < 2**53:
            raise ValueError(f"window radius {self.R} over spacing {self.spacing} "
                             "must be below 2**53")
        if self.kind == "file" and not self.path:
            raise ValueError("file generator needs a path")


def _lattice_indices(extent: float, spacing: float) -> np.ndarray:
    """-k..k for the largest k with k * spacing <= extent as computed (none for
    extent < 0), so no lattice coordinate rounds past the extent."""
    kmax = math.floor(extent / spacing)
    while kmax * spacing > extent:
        kmax -= 1
    while (kmax + 1) * spacing <= extent:
        kmax += 1
    return np.arange(-kmax, kmax + 1)


def generate(spec: GeneratorSpec) -> PointSet:
    """Materialize the described point set (deterministic per seed)."""
    if spec.kind == "file":
        return load_point_set(spec.path, R=spec.R)
    if spec.kind == "lattice":
        ks = _lattice_indices(spec.R, spec.spacing) * spec.spacing
        xs, ys = np.meshgrid(ks, ks, indexing="ij")
        pts = np.column_stack([xs.ravel(), ys.ravel()])
        return PointSet(pts, spec.R)
    # perturbed lattice: base points shrink by the jitter so every displaced
    # point stays inside the window
    ks = _lattice_indices(spec.R - spec.jitter, spec.spacing) * spec.spacing
    rng = Xorshift64Star(spec.seed)
    pts = [(x + spec.jitter * ox, y + spec.jitter * oy)
           for x in ks for y in ks for ox, oy in [rng.in_disc()]]
    return PointSet(pts, spec.R)


def separation_constant(ps: PointSet) -> float:
    """Minimum pairwise Euclidean distance (needs at least two points)."""
    if len(ps) < 2:
        raise ValueError("separation needs at least 2 points")
    tree = cKDTree(ps.points)
    dist, _ = tree.query(ps.points, k=2)
    return float(np.min(dist[:, 1]))


@dataclass(frozen=True)
class WellDistributedReport:
    """Grid-verified density check: a scan, not a proof.

    Only squares with corners on the stride grid are examined; an ok verdict
    means no scanned square of the given side was empty.
    """

    ok: bool
    cube_side: float
    stride: float
    witnesses: tuple[tuple[float, float], ...] = ()
    cubes_scanned: int = 0


def well_distributed_check(
    ps: PointSet, C: float, stride: Optional[float] = None
) -> WellDistributedReport:
    """Scan axis-aligned squares of side C inside the window for empty ones.

    Corners run over the stride grid anchored at -R; membership uses the open
    square, so a point sitting exactly on a square's edge does not count.
    Witnesses are the lower-left corners of empty squares.  A square wider
    than the window (C > 2R beyond a rounding slack of 1e-9 strides) raises
    ``ValueError``: nothing could be scanned.
    """
    stride = C / 4 if stride is None else stride
    if not (math.isfinite(C) and C > 0 and 0 < stride <= C / 2):
        raise ValueError(f"need C finite and positive and 0 < stride <= C/2, not {C=}, {stride=}")
    R = ps.R
    n_steps = int(math.floor((2 * R - C) / stride + 1e-9))
    if n_steps < 0:
        raise ValueError(f"no square of side C={C} fits in the window of half-width R={R}")
    corners_1d = -R + stride * np.arange(n_steps + 1)
    cx, cy = np.meshgrid(corners_1d, corners_1d, indexing="ij")
    corners = np.column_stack([cx.ravel(), cy.ravel()])
    centers = corners + C / 2
    if len(ps) == 0:
        return WellDistributedReport(
            False, C, stride, tuple(map(tuple, corners)), len(corners)
        )
    tree = cKDTree(ps.points)
    dist, _ = tree.query(centers, k=1, p=np.inf)
    empty = dist >= C / 2
    witnesses = tuple((float(x), float(y)) for x, y in corners[empty])
    return WellDistributedReport(not witnesses, C, stride, witnesses, len(corners))


@dataclass(frozen=True)
class AlphaEstimate:
    alpha: float
    residual: float


def alpha_dimension_estimate(samples: Sequence[tuple[float, int]]) -> AlphaEstimate:
    """Fit count ~ R^alpha by least squares on log-log samples.

    samples are (R, count) pairs with R positive, finite and strictly increasing
    and counts >= 1; residual is the max absolute deviation in log space.
    """
    if len(samples) < 3:
        raise ValueError("alpha fit needs at least 3 samples")
    Rs = np.array([float(r) for r, _ in samples])
    counts = np.array([int(c) for _, c in samples])
    if np.any(counts < 1):
        raise ValueError("counts must be >= 1")
    if not np.all(np.isfinite(Rs) & (Rs > 0)):
        raise ValueError("R values must be positive and finite")
    if np.any(np.diff(Rs) <= 0):
        raise ValueError("R values must be strictly increasing")
    x = np.log(Rs)
    y = np.log(counts.astype(float))
    slope, intercept = np.polyfit(x, y, 1)
    residual = float(np.max(np.abs(y - (slope * x + intercept))))
    return AlphaEstimate(float(slope), residual)


def save_point_set(ps: PointSet, path) -> None:
    """Write "x,y" CSV plus a JSON sidecar <path>.json carrying the window radius."""
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["x", "y"])
        for x, y in ps.points:
            writer.writerow([repr(float(x)), repr(float(y))])
    with open(path.with_name(path.name + ".json"), "w", encoding="utf-8") as fh:
        json.dump({"R": ps.R}, fh)
        fh.write("\n")


def load_point_set(path, R: Optional[float] = None) -> PointSet:
    """Read an "x,y" CSV; the window radius comes from R or the JSON sidecar."""
    path = Path(path)
    pts = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip() for c in header] != ["x", "y"]:
            raise ValueError(f"{path}: expected header 'x,y'")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                x, y = map(float, row)  # exactly two fields
                pts.append((x, y))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: malformed row {row!r}") from exc
    if R is None:
        sidecar = path.with_name(path.name + ".json")
        if sidecar.exists():
            with open(sidecar, "r", encoding="utf-8") as fh:
                spec = json.load(fh)
            try:
                R = _json_number(spec["R"])
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"{sidecar}: expected a JSON object with a numeric 'R'") from exc
        else:
            raise ValueError("window radius R missing: pass R or provide the sidecar")
    return PointSet(np.array(pts, dtype=float).reshape(-1, 2), R)
