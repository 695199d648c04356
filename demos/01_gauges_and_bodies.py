"""Gauges of symmetric convex bodies.

A bounded, origin-symmetric convex body K defines a norm: the gauge
||x||_K = inf {t > 0 : x in t*K}.  The unit ball of that norm is K itself.
This script walks through the three body families and what their gauges
look like.
"""

import math

from gaugedist import (
    Disc,
    InvalidBodyError,
    PBall,
    SymmetricPolygon,
    boundary_point,
    diamond,
    gauge,
    gauge_exact,
    square,
)

# The square [-1,1]^2 induces the max-coordinate norm.
sq = square()
print("square gauge of (3, 4):", gauge(sq, (3, 4)))          # -> 4.0

# The diamond (l^1 unit ball) induces the taxicab norm.
print("diamond gauge of (3, 4):", gauge(diamond(), (3, 4)))  # -> 7.0 (up to fp)
print("  ... exactly:", gauge_exact(diamond(), (3, 4)))      # -> Fraction(7, 1)

# The disc gives the Euclidean norm, p-balls everything in between and beyond.
print("disc gauge of (3, 4):", gauge(Disc(1.0), (3, 4)))     # -> 5.0
print("3-ball gauge of (3, 4):", gauge(PBall(3.0, 1.0), (3, 4)))

# Polygon gauges are evaluated through the half-plane normal form: K is the
# intersection of half-planes <y, n_i> <= h_i, and the gauge is the largest
# of the ratios <x, n_i> / h_i.  Edge i + n is edge i negated, so the body
# keeps only the first n rows and takes max_i |<x, n_i>| / h_i.
print("\nsquare normal form, first half of the edges:")
for nx, ny, h in sq._half_rows:
    print(f"  normal ({nx:+.0f}, {ny:+.0f})  offset {h:.0f}")

# boundary_point walks the unit sphere of the gauge: the returned point always
# has gauge 1.
for theta in (0.0, math.pi / 4, math.pi / 2):
    p = boundary_point(sq, theta)
    print(f"square boundary at theta={theta:.3f}: ({p[0]:+.3f}, {p[1]:+.3f}), gauge {gauge(sq, p):.12f}")

# Bodies are valid by construction: the constructor checks every invariant
# once and raises InvalidBodyError listing all the violated ones.
print("\nbowtie vertex order is rejected:")
try:
    SymmetricPolygon([(1, 1), (-1, 1), (1, -1), (-1, -1)])
except InvalidBodyError as exc:
    for v in str(exc).split("; "):
        print("  -", v)
