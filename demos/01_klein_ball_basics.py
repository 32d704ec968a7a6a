"""Points, planes and isometries of hyperbolic 3-space in the Klein ball.

The library keeps polyhedron vertices in Klein coordinates, where geodesics
and planes look Euclidean, and lifts them to the Minkowski hyperboloid when
metric quantities are needed.
"""

import numpy as np

from stokerlab import lorentz

# A Klein point is any vector of norm < 1.  Its lift lands on the unit
# future hyperboloid of R^{3,1}.
p = np.array([0.6, 0.0, 0.0])
lift = lorentz.klein_lift(p)
print("lift of (0.6, 0, 0):", lift)
print("Minkowski square of the lift:", lorentz.minkowski_inner(lift, lift))

# Hyperbolic distance grows much faster than the Euclidean chord as points
# approach the boundary sphere.
origin = np.zeros(3)
for radius in (0.3, 0.6, 0.9, 0.99):
    q = np.array([radius, 0.0, 0.0])
    print(f"radius {radius:4}: chord {radius:.2f}  hyperbolic "
          f"{lorentz.hyperbolic_distance(origin, q):.4f}")

# A plane is its unit spacelike normal, a 4-vector.  Three points fix the
# plane and their order fixes its side: the normal points to where
# p1 -> p2 -> p3 is seen counterclockwise.  These run counterclockwise seen
# from above.
normal = lorentz.plane_through([0.3, 0.0, 0.0], [0.0, 0.3, 0.0], [-0.2, -0.2, 0.0])
print("normal of the z=0 plane, upward:", normal)
print("a point above pairs positively:",
      lorentz.minkowski_inner(normal, lorentz.klein_lift([0.0, 0.0, 0.4])) > 0)
flipped = lorentz.plane_through([0.3, 0.0, 0.0], [-0.2, -0.2, 0.0], [0.0, 0.3, 0.0])
print("reversed order flips the normal:", flipped)

# The reflection in that plane is a Lorentz involution.
refl = lorentz.reflect(normal)
print("reflection squared deviates from identity by",
      np.max(np.abs(refl @ refl - np.eye(4))))

# The product of the reflections in two planes through a geodesic is the
# elliptic rotation about it by twice the angle between the planes.  The
# planes through the z axis containing (1, 0, 0) and (cos t, sin t, 0) meet
# at angle t, so t = pi/6 gives the rotation by pi/3.
top = [0.0, 0.0, 0.5]
xz = lorentz.plane_through(origin, top, [0.3, 0.0, 0.0])
t = np.pi / 6
tilted = lorentz.plane_through(origin, top, [0.3 * np.cos(t), 0.3 * np.sin(t), 0.0])
rot = lorentz.reflect(tilted) @ lorentz.reflect(xz)
print("rotation trace (should be 2 + 2cos(pi/3) = 3):", np.trace(rot))
print("it fixes the axis point (0, 0, 0.5):", lorentz.apply_isometry(rot, top))

# Every isometry lifts to SL(2,C), two-valued; the chosen branch has
# nonnegative real trace, and an elliptic with rotation angle t has lift
# trace 2cos(t/2).
s = lorentz.sl2c_lift(rot)
print("SL(2,C) lift trace:", np.trace(s), "expected", 2 * np.cos(np.pi / 6))

# The lift respects composition up to the double-cover sign; here with a
# rotation about the geodesic through (0.1, 0.2, 0) and (0, 0, 0.3).
a, b = [0.1, 0.2, 0.0], [0.0, 0.0, 0.3]
rot2 = (lorentz.reflect(lorentz.plane_through(a, b, [0.4, 0.0, 0.0]))
        @ lorentz.reflect(lorentz.plane_through(a, b, [0.0, 0.4, 0.2])))
lhs = lorentz.sl2c_lift(rot @ rot2)
rhs = lorentz.sl2c_lift(rot) @ lorentz.sl2c_lift(rot2)
print("composition defect (up to sign):",
      min(np.linalg.norm(lhs - rhs), np.linalg.norm(lhs + rhs)))
