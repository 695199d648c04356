"""Boundary intersections of a polygon with its scaled translates.

Write G for the boundary of a convex body.  The intersection of G with
alpha*G + u splits into isolated points and maximal segments, and the
segments are rigidly constrained:

* their supporting lines form at most 2 distinct classes;
* each supporting line is alpha times as far from u as from 0.  With 0 and u
  on one side of it, the line passes through u / (1 - alpha), or is parallel
  to u when alpha == 1.  Where the boundaries touch from outside along two
  anti-parallel edges the line lies between 0 and u and passes through
  u / (1 + alpha): the square and 2 * square + (3, 0) share x = 1, |y| <= 1,
  through u / 3 = (1, 0).

Strictly convex boundaries contain no segments at all, so there the
intersection has at most 2 points.  This script shows each case concretely.
"""

from gaugedist import (
    Disc,
    boundary_intersection,
    concurrence_check,
    direction_line_classes,
    random_symmetric_polygon,
    run_lemma_checks,
    square,
    strictly_convex_intersection_count,
    transform_polygon,
)

sq = square()

# Scaling by 2 and shifting by (1, 0) leaves exactly one shared edge piece,
# on the line x = -1, which passes through u/(1-alpha) = (-1, 0).
moved = transform_polygon(sq, 2.0, (1.0, 0.0))
res = boundary_intersection(sq, moved)
print("alpha=2, u=(1,0):")
for seg in res.maximal_segments:
    print(f"  segment {tuple(map(float, seg.a))} -- {tuple(map(float, seg.b))}")
rep = concurrence_check(res, 2.0, (1.0, 0.0))
print(f"  concurrence through u/(1-alpha): ok={rep.ok}, error={rep.max_error}")

# Scaling about a vertex aligns both incident edges: two supporting lines,
# both through the vertex.
alpha = 0.5
u = ((1 - alpha) * 1.0, (1 - alpha) * 1.0)  # homothety about the vertex (1, 1)
res = boundary_intersection(sq, transform_polygon(sq, alpha, u))
print(f"\nhomothety about (1,1), alpha={alpha}: "
      f"{len(res.maximal_segments)} segments, "
      f"{direction_line_classes(res)} line classes (never more than 2)")

# The translate u=(2,0) maps the square's left edge onto its right edge: a
# shared segment perpendicular to u, between 0 and u, through u/2 = (1, 0).
# Such segments are flagged and tested against u/(1+alpha).
res = boundary_intersection(sq, transform_polygon(sq, 1.0, (2.0, 0.0)))
rep = concurrence_check(res, 1.0, (2.0, 0.0))
print(f"\nalpha=1, u=(2,0): flags={list(rep.flags)}, ok={rep.ok}")

# The same external contact at alpha = 2: 2 * square + (3, 0) touches the
# square along x = 1, which passes through u/(1+alpha) = (1, 0).
res = boundary_intersection(sq, transform_polygon(sq, 2.0, (3.0, 0.0)))
rep = concurrence_check(res, 2.0, (3.0, 0.0))
print(f"alpha=2, u=(3,0): {rep.flagged} flagged, ok={rep.ok}, error={rep.max_error}")

# Strictly convex: two unit circles at center distance 1 cross twice; at
# distance 3 they are disjoint.  At distance 2 they touch in one point, but a
# touching point is never a certain sign change of the float gauge gap: floats
# cannot tell a tangency from a near miss, so that scan reports "unresolved".
print("\ncircle intersections (count, unresolved):")
for d in (1.0, 2.0, 3.0):
    scan = strictly_convex_intersection_count(Disc(1.0), 1.0, (d, 0.0))
    print(f"  centers {d} apart: {scan.count}, {scan.unresolved}")

# Randomized batches drive the same checks across many polygons and scales.
batch = run_lemma_checks("13", 200, seed=1)
print(
    f"\n200 seeded trials: max line classes {batch.max_classes}, "
    f"{batch.violations} violations, {batch.segments_checked} segments checked"
)
poly = random_symmetric_polygon(6, seed=4)
print("(the trial polygons look like:", poly.vertices[:3], "...)")
