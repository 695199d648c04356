"""Boundary intersections of a polygon with its scaled translates.

Write G for the boundary of a convex body.  The intersection of G with
alpha*G + u splits into isolated points and maximal segments, and the
segments are rigidly constrained:

* their supporting lines form at most 2 distinct classes;
* for alpha != 1 every supporting line passes through u / (1 - alpha), except
  where the boundaries touch from outside along two anti-parallel edges: the
  square and 2 * square + (3, 0) share x = 1, |y| <= 1, whose line misses
  u / (1 - alpha) = (-3, 0), and the checks report that as a violation;
* for alpha == 1 every segment is parallel to u, except when u carries one of
  two anti-parallel edges exactly onto the other.

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
rep = concurrence_check(res, 2.0, (1.0, 0.0), polygon=sq)
print(f"  concurrence through u/(1-alpha): ok={rep.ok}, error={rep.max_point_error}")

# Scaling about a vertex aligns both incident edges: two supporting lines,
# both through the vertex.
alpha = 0.5
u = ((1 - alpha) * 1.0, (1 - alpha) * 1.0)  # homothety about the vertex (1, 1)
res = boundary_intersection(sq, transform_polygon(sq, alpha, u))
print(f"\nhomothety about (1,1), alpha={alpha}: "
      f"{len(res.maximal_segments)} segments, "
      f"{direction_line_classes(res)} line classes (never more than 2)")

# The translate u=(2,0) maps the square's left edge onto its right edge: a
# shared segment perpendicular to u.  That is the one sanctioned exception for
# alpha == 1, and it is flagged, not failed.
res = boundary_intersection(sq, transform_polygon(sq, 1.0, (2.0, 0.0)))
rep = concurrence_check(res, 1.0, (2.0, 0.0), polygon=sq)
print(f"\nalpha=1, u=(2,0): flags={list(rep.flags)}, ok={rep.ok}")

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
