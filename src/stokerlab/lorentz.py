"""Minkowski-model primitives for hyperbolic 3-space.

Points of H^3 live on the unit future hyperboloid in R^{3,1} with signature
(+,+,+,-); the fourth coordinate is timelike.  Polyhedron vertices are kept
in Klein coordinates (the open unit ball, where geodesics and planes are
Euclidean) and lifted to the hyperboloid on demand.  Isometries are 4x4
future-preserving Lorentz matrices of determinant one; their two-valued
SL(2,C) lifts use the Hermitian-matrix model of R^{3,1}.

Conventions
-----------
* Planes are stored by a unit spacelike Minkowski normal oriented so the
  designated interior side pairs negatively with it, i.e. the normal points
  away from the interior.
* ``sl2c_lift`` fixes its branch so the lifted trace has nonnegative real
  part whenever possible; for an elliptic isometry with rotation angle
  theta in [0, pi] this gives trace 2*cos(theta/2).  Callers comparing
  traces should use absolute values to absorb the double-cover sign.
* All angles are in radians.

All operations are pure functions on immutable values.
"""

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import (
    AmbiguousOrientation,
    BallBoundary,
    DegenerateAxis,
    DegenerateFace,
    LiftFailure,
)

# Minkowski bilinear form, (+,+,+,-).
J = np.diag([1.0, 1.0, 1.0, -1.0])

_I2 = np.eye(2, dtype=complex)


def minkowski_inner(u, v):
    """Signature (+,+,+,-) inner product of two 4-vectors (a float), or of
    matching rows of two (..., 4) arrays."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    out = (u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1] + u[..., 2] * v[..., 2]
           - u[..., 3] * v[..., 3])
    return float(out) if out.ndim == 0 else out


def causal_character(v, tol: Tolerances = DEFAULT):
    """Classify a 4-vector as ``"timelike"``, ``"spacelike"`` or ``"lightlike"``."""
    q = minkowski_inner(v, v)
    if abs(q) <= tol.light:
        return "lightlike"
    return "timelike" if q < 0 else "spacelike"


def klein_lift(p, tol: Tolerances = DEFAULT):
    """Lift a Klein point to the unit future hyperboloid.

    Returns (p, 1)/sqrt(1 - |p|^2), which satisfies <v,v> = -1 and v4 > 0.
    Raises ``BallBoundary`` if |p| >= 1 - tol.ball.
    """
    p = np.asarray(p, dtype=float)
    n2 = float(p @ p)
    if n2 >= (1.0 - tol.ball) ** 2:
        raise BallBoundary(f"point with |p| = {np.sqrt(n2):.17g} is not strictly inside the ball")
    s = np.sqrt(1.0 - n2)
    return np.array([p[0] / s, p[1] / s, p[2] / s, 1.0 / s])


def klein_project(v):
    """Project a hyperboloid point back to Klein coordinates: (x1,x2,x3)/x4."""
    v = np.asarray(v, dtype=float)
    return v[:3] / v[3]


def hyperbolic_distance(p, q, tol: Tolerances = DEFAULT):
    """Distance between two Klein points: arccosh(-<P,Q>) of their lifts.

    Evaluated as 2*arcsinh of the half-chord, which is exact at p = q and
    accurate for nearby points where the arccosh form cancels.
    """
    diff = klein_lift(p, tol) - klein_lift(q, tol)
    h = max(minkowski_inner(diff, diff), 0.0)  # equals 2(cosh d - 1)
    return float(2.0 * np.arcsinh(0.5 * np.sqrt(h)))


class Plane:
    """Hyperbolic plane stored as a unit spacelike normal.

    The normal is oriented away from the interior: <normal, lift(x)> < 0 for
    interior points x.
    """

    __slots__ = ("normal",)

    def __init__(self, normal):
        self.normal = np.asarray(normal, dtype=float)

    def side(self, p, tol: Tolerances = DEFAULT):
        """Signed pairing <normal, lift(p)>; negative on the interior side."""
        return minkowski_inner(self.normal, klein_lift(p, tol))

    def __repr__(self):
        return f"Plane(normal={self.normal!r})"


def plane_through(p1, p2, p3, interior_witness, tol: Tolerances = DEFAULT):
    """Hyperbolic plane through three Klein points, oriented by a witness.

    The returned normal n satisfies <n, lift(p_i)> = 0 and
    <n, lift(interior_witness)> < 0.  Raises ``DegenerateFace`` when the
    three lifts are linearly dependent and ``AmbiguousOrientation`` when the
    witness lies on the plane.
    """
    lifts = np.stack([klein_lift(p1, tol), klein_lift(p2, tol), klein_lift(p3, tol)])
    m = lifts @ J
    _, sing, vh = np.linalg.svd(m)
    if sing[2] <= tol.rank_rel * sing[0]:
        raise DegenerateFace("three points do not span a plane")
    n = vh[3]
    q = minkowski_inner(n, n)
    if q <= tol.rank_rel:
        raise DegenerateFace("normal direction is not spacelike")
    n = n / np.sqrt(q)
    w = minkowski_inner(n, klein_lift(interior_witness, tol))
    if abs(w) <= tol.witness:
        raise AmbiguousOrientation("interior witness lies on the plane")
    if w > 0:
        n = -n
    return Plane(n)


def reflect(plane: Plane):
    """Lorentz reflection x -> x - 2<x,n>n in the given plane."""
    n = plane.normal
    return np.eye(4) - 2.0 * np.outer(n, J @ n)


def isometry_defect(mat):
    """Max-norm violation of L^T J L = J."""
    mat = np.asarray(mat, dtype=float)
    return float(np.max(np.abs(mat.T @ J @ mat - J)))


def is_isometry(mat, tol: Tolerances = DEFAULT):
    """Whether ``mat`` is a future-preserving Lorentz matrix with det 1."""
    mat = np.asarray(mat, dtype=float)
    if mat.shape != (4, 4):
        return False
    if isometry_defect(mat) >= tol.iso:
        return False
    if abs(np.linalg.det(mat) - 1.0) >= 100 * tol.iso:
        return False
    return mat[3, 3] > 0


def apply_isometry(mat, points, tol: Tolerances = DEFAULT):
    """Apply a Lorentz matrix to one Klein point or an (n,3) array of them."""
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    lifted = np.stack([klein_lift(p, tol) for p in pts])
    moved = lifted @ np.asarray(mat, dtype=float).T
    out = moved[:, :3] / moved[:, 3:4]
    return out[0] if single else out


def pure_boost(v):
    """The unique symmetric Lorentz boost sending e4 to the unit timelike v."""
    v = np.asarray(v, dtype=float)
    spatial = v[:3]
    gamma = v[3]
    out = np.eye(4)
    out[:3, :3] += np.outer(spatial, spatial) / (1.0 + gamma)
    out[:3, 3] = spatial
    out[3, :3] = spatial
    out[3, 3] = gamma
    return out


def translation_to_origin(p, tol: Tolerances = DEFAULT):
    """Hyperbolic translation (pure boost) carrying the Klein point p to 0."""
    b = pure_boost(klein_lift(p, tol))
    return J @ b @ J


def rotation_about_edge(a, b, theta, tol: Tolerances = DEFAULT):
    """Elliptic isometry fixing the geodesic through Klein points a, b.

    Rotates by ``theta`` around the axis; the 4x4 trace is 2 + 2cos(theta).
    Raises ``DegenerateAxis`` when a and b are too close to span a geodesic.
    """
    if hyperbolic_distance(a, b, tol) < tol.axis:
        raise DegenerateAxis("axis endpoints nearly coincide")
    av = klein_lift(a, tol)
    bv = klein_lift(b, tol)
    u = bv + minkowski_inner(bv, av) * av
    u = u / np.sqrt(minkowski_inner(u, u))
    frame = _complete_frame(av, u)
    c, s = np.cos(theta), np.sin(theta)
    block = np.eye(4)
    block[0, 0] = c
    block[0, 1] = -s
    block[1, 0] = s
    block[1, 1] = c
    frame_inv = J @ frame.T @ J
    return frame @ block @ frame_inv


def _complete_frame(timelike, tangent):
    """Columns [E1, E2, tangent, timelike] forming a Lorentz-orthonormal frame."""
    basis = [timelike, tangent]
    spacelike = []
    for k in range(4):
        w = np.zeros(4)
        w[k] = 1.0
        w = w + minkowski_inner(w, timelike) * timelike - minkowski_inner(w, tangent) * tangent
        for e in spacelike:
            w = w - minkowski_inner(w, e) * e
        q = minkowski_inner(w, w)
        if q > 1e-8:
            spacelike.append(w / np.sqrt(q))
        if len(spacelike) == 2:
            break
    return np.column_stack([spacelike[0], spacelike[1], basis[1], basis[0]])


def so31_basis():
    """Basis of the isometry Lie algebra: 3 rotations then 3 boosts.

    Each generator A satisfies A^T J + J A = 0 exactly.
    """
    gens = []
    for i, j in ((0, 1), (0, 2), (1, 2)):
        a = np.zeros((4, 4))
        a[i, j] = -1.0
        a[j, i] = 1.0
        gens.append(a)
    for i in range(3):
        a = np.zeros((4, 4))
        a[i, 3] = 1.0
        a[3, i] = 1.0
        gens.append(a)
    return gens


# --- SL(2,C) double cover -------------------------------------------------
#
# R^{3,1} is identified with 2x2 Hermitian matrices via
#   (x1,x2,x3,x4)  ->  [[x4+x3, x1-i x2], [x1+i x2, x4-x3]],
# on which S in SL(2,C) acts by X -> S X S*; the induced map on vectors is
# the corresponding Lorentz transformation.


def hermitian_from_vec(x):
    x = np.asarray(x, dtype=float)
    return np.array(
        [
            [x[3] + x[2], x[0] - 1j * x[1]],
            [x[0] + 1j * x[1], x[3] - x[2]],
        ],
        dtype=complex,
    )


def vec_from_hermitian(h):
    return np.array(
        [
            h[1, 0].real,
            h[1, 0].imag,
            0.5 * (h[0, 0] - h[1, 1]).real,
            0.5 * (h[0, 0] + h[1, 1]).real,
        ]
    )


def sl2c_to_so31(s):
    """Covering map: the Lorentz matrix induced by S acting on Hermitian forms."""
    s = np.asarray(s, dtype=complex)
    cols = []
    for a in range(4):
        e = np.zeros(4)
        e[a] = 1.0
        cols.append(vec_from_hermitian(s @ hermitian_from_vec(e) @ s.conj().T))
    return np.column_stack(cols)


def _su2_from_rotation(q):
    """SU(2) element covering a 3x3 rotation matrix, via its quaternion."""
    t = q[0, 0] + q[1, 1] + q[2, 2]
    if t > 0:
        r = np.sqrt(1.0 + t)
        s = 0.5 / r
        w = 0.5 * r
        x = (q[2, 1] - q[1, 2]) * s
        y = (q[0, 2] - q[2, 0]) * s
        z = (q[1, 0] - q[0, 1]) * s
    elif q[0, 0] >= q[1, 1] and q[0, 0] >= q[2, 2]:
        r = np.sqrt(1.0 + q[0, 0] - q[1, 1] - q[2, 2])
        s = 0.5 / r
        x = 0.5 * r
        w = (q[2, 1] - q[1, 2]) * s
        y = (q[0, 1] + q[1, 0]) * s
        z = (q[0, 2] + q[2, 0]) * s
    elif q[1, 1] >= q[2, 2]:
        r = np.sqrt(1.0 - q[0, 0] + q[1, 1] - q[2, 2])
        s = 0.5 / r
        y = 0.5 * r
        w = (q[0, 2] - q[2, 0]) * s
        x = (q[0, 1] + q[1, 0]) * s
        z = (q[1, 2] + q[2, 1]) * s
    else:
        r = np.sqrt(1.0 - q[0, 0] - q[1, 1] + q[2, 2])
        s = 0.5 / r
        z = 0.5 * r
        w = (q[1, 0] - q[0, 1]) * s
        x = (q[0, 2] + q[2, 0]) * s
        y = (q[1, 2] + q[2, 1]) * s
    # w I - i(x s1 + y s2 + z s3) covers the right-handed rotation (w; x,y,z).
    return np.array(
        [
            [w - 1j * z, -y - 1j * x],
            [y - 1j * x, w + 1j * z],
        ],
        dtype=complex,
    )


def _canonical_sign(s):
    """Pick the branch: nonnegative real trace, with deterministic tie-breaks."""
    t = np.trace(s)
    if abs(t.real) > 1e-12:
        return s if t.real > 0 else -s
    if abs(t.imag) > 1e-12:
        return s if t.imag > 0 else -s
    for entry in s.flat:
        if abs(entry) > 1e-8:
            if abs(entry.real) > 1e-12:
                return s if entry.real > 0 else -s
            return s if entry.imag >= 0 else -s
    return s


def sl2c_lift(mat, tol: Tolerances = DEFAULT):
    """One branch of the SL(2,C) lift of a Lorentz isometry.

    The decomposition L = (boost) * (rotation about e4) is lifted factor by
    factor: the boost to the positive-definite Hermitian square root, the
    rotation through its quaternion.  The sign is then fixed by
    ``_canonical_sign``; the other branch is the negative.
    """
    mat = np.asarray(mat, dtype=float)
    if not is_isometry(mat, tol):
        raise LiftFailure("matrix violates the Lorentz isometry invariants")
    v = mat[:, 3]
    xv = hermitian_from_vec(v)
    boost_lift = (xv + _I2) / np.sqrt(2.0 + xv.trace().real)
    rot = (J @ pure_boost(v) @ J) @ mat
    rot_lift = _su2_from_rotation(rot[:3, :3])
    return _canonical_sign(boost_lift @ rot_lift)


def sl2_inverse(m):
    """Inverse of a determinant-one 2x2 matrix, or of every matrix in a stack
    (the last two axes), via the adjugate."""
    m = np.asarray(m, dtype=complex)
    out = np.empty_like(m)
    out[..., 0, 0] = m[..., 1, 1]
    out[..., 0, 1] = -m[..., 0, 1]
    out[..., 1, 0] = -m[..., 1, 0]
    out[..., 1, 1] = m[..., 0, 0]
    return out
