"""Minkowski-model primitives for hyperbolic 3-space.

Points of H^3 live on the unit future hyperboloid in R^{3,1} with signature
(+,+,+,-); the fourth coordinate is timelike.  Polyhedron vertices are kept
in Klein coordinates (the open unit ball, where geodesics and planes are
Euclidean) and lifted to the hyperboloid on demand.  Isometries are 4x4
future-preserving Lorentz matrices of determinant one; their two-valued
SL(2,C) lifts use the Hermitian-matrix model of R^{3,1}.

Conventions
-----------
* A plane is its unit spacelike Minkowski normal n, a (4,) array, and a
  stack of planes is a (..., 4) array; there is no plane type.  The plane
  is {x : <x, n> = 0}.  A plane through three points is oriented by their
  order: the normal points to the side from which p1 -> p2 -> p3 runs
  counterclockwise, so a face stored counterclockwise from outside gets a
  normal pointing away from the interior, which pairs negatively with it.
* The mirror in the plane of a unit normal n acts on Hermitian forms as
  X -> N adj(X) N, N the form of n (det N = -<n, n> = -1), so R_f R_g
  lifts to N_f adj(N_g).  ``repvar`` forms its meridians so; ``reflect``,
  ``is_isometry`` and ``sl2c_lift`` serve callers holding 4x4 matrices.
* ``_canonical_sign`` fixes a lift's branch so its trace has nonnegative
  real part whenever possible; for an elliptic isometry with rotation angle
  theta in [0, pi] this gives trace 2*cos(theta/2).  Callers comparing
  traces should use absolute values to absorb the double-cover sign.
* All angles are in radians.

All operations are pure functions on immutable values.
"""

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import BallBoundary, DegenerateFace, LiftFailure

# Minkowski bilinear form, (+,+,+,-).
J = np.diag([1.0, 1.0, 1.0, -1.0])
_SPATIAL_IDENTITY = np.diag([1.0, 1.0, 1.0, 0.0])

def minkowski_inner(u, v):
    """Signature (+,+,+,-) inner product of two 4-vectors (a float), or of
    matching rows of two (..., 4) arrays."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    out = (u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1] + u[..., 2] * v[..., 2]
           - u[..., 3] * v[..., 3])
    return float(out) if out.ndim == 0 else out


def _row_dot(a, b):
    """Dot products of matching last-axis rows of two arrays.

    Each row pair goes through the same BLAS dot as ``a_row @ b_row``, so a
    stack rounds exactly like its rows taken one at a time.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _dot3(x, y):
    """Row-wise dot product of two broadcastable (..., 3) arrays: one array of
    products, summed in the fixed order (x0 y0 + x1 y1) + x2 y2."""
    prod = x * y
    return prod[..., 0] + prod[..., 1] + prod[..., 2]


def _cross(x, y):
    """Row-wise cross product of broadcastable (..., 3) arrays, bit-equal to
    ``np.cross``: the same products and differences, without its per-call
    overhead; the output shape is read off the first component."""
    x0, x1, x2 = x[..., 0], x[..., 1], x[..., 2]
    y0, y1, y2 = y[..., 0], y[..., 1], y[..., 2]
    first = x1 * y2 - x2 * y1
    out = np.empty(first.shape + (3,))
    out[..., 0] = first
    out[..., 1] = x2 * y0 - x0 * y2
    out[..., 2] = x0 * y1 - x1 * y0
    return out


def inside_ball(radius2, tol: Tolerances):
    """The one in-ball test, of a largest squared Klein radius; NaN fails."""
    return radius2 < (1.0 - tol.ball) ** 2


def _require_in_ball(radii2, tol: Tolerances):
    """Raise ``BallBoundary`` unless every squared Klein radius is ``inside_ball``."""
    largest = radii2.max(initial=0.0)
    if not inside_ball(largest, tol):
        raise BallBoundary(
            f"point with |p| = {np.sqrt(largest):.17g} is not strictly inside the ball"
        )


def klein_lift(p, tol: Tolerances = DEFAULT):
    """Lift a Klein point (3,), or a stack (..., 3), to the unit future hyperboloid.

    Returns (p, 1)/sqrt(1 - |p|^2), which satisfies <v,v> = -1 and v4 > 0.
    Raises ``BallBoundary`` unless every point is ``inside_ball``; |p|^2 is
    summed by ``_dot3``, as ``validate_embedding`` and the face kernel sum
    it, so the lift refuses exactly the points they refuse.
    """
    p = np.asarray(p, dtype=float)
    n2 = _dot3(p, p)
    _require_in_ball(n2, tol)
    s = np.sqrt(1.0 - n2)[..., None]
    return np.concatenate([p / s, 1.0 / s], axis=-1)


def hyperbolic_distance(p, q, tol: Tolerances = DEFAULT):
    """Distance between two Klein points: arccosh(-<P,Q>) of their lifts.

    Evaluated as 2*arcsinh of the half-chord, which is exact at p = q and
    accurate for nearby points where the arccosh form cancels.
    """
    diff = klein_lift(p, tol) - klein_lift(q, tol)
    h = max(minkowski_inner(diff, diff), 0.0)  # equals 2(cosh d - 1)
    return float(2.0 * np.arcsinh(0.5 * np.sqrt(h)))


def _unit_normals(anchors, cross, tol: Tolerances):
    """Unit Minkowski normals of planes through point triples, and the norms
    they were scaled by: the library's one plane construction.

    ``anchors`` (k, 3, 3) holds triples p1, p2, p3 and ``cross`` (k, 3) their
    a = (p2 - p1) x (p3 - p1), which the face kernel already holds.  The
    plane is a . x = b for b = a . p1, so n = (a, b) is Minkowski-orthogonal
    to every (x, 1) on it and points to the side from which p1 -> p2 -> p3
    runs counterclockwise.  Raises ``BallBoundary`` for a point outside the
    ball and ``DegenerateFace`` when the triple's (p, 1) span less than
    ``tol.rank_rel`` of their Hadamard bound, the product of the three
    1 + |p_i|^2 taken left to right, or n is not spacelike.  The normals are
    divided by their norms straight into one (k, 4) array.
    """
    radii2 = _dot3(anchors, anchors)
    _require_in_ball(radii2, tol)
    b = _dot3(cross, anchors[:, 0])
    aa = _dot3(cross, cross)
    bb = b * b
    span = aa + bb               # squared volume spanned by the three (p_i, 1)
    h = 1.0 + radii2
    if (span <= tol.rank_rel ** 2 * ((h[:, 0] * h[:, 1]) * h[:, 2])).any():
        raise DegenerateFace("three points do not span a plane")
    q = aa - bb
    if (q <= tol.rank_rel * span).any():
        raise DegenerateFace("normal direction is not spacelike")
    root = np.sqrt(q)
    out = np.empty((len(b), 4))
    np.divide(cross, root[:, None], out=out[:, :3])
    np.divide(b, root, out=out[:, 3])
    return out, root


def plane_through(p1, p2, p3, tol: Tolerances = DEFAULT):
    """Unit normal (4,) of the hyperbolic plane through three Klein points,
    oriented by their order.

    The one-triple case of ``_unit_normals``: the normal n satisfies
    <n, lift(p_i)> = 0 and points to the side from which p1 -> p2 -> p3 runs
    counterclockwise.  Raises ``BallBoundary`` or ``DegenerateFace`` as
    ``_unit_normals`` does.
    """
    anchors = np.array([p1, p2, p3], dtype=float)[None]
    cross = _cross(anchors[:, 1] - anchors[:, 0], anchors[:, 2] - anchors[:, 0])
    return _unit_normals(anchors, cross, tol)[0][0]


def reflect(n):
    """Lorentz reflection x -> x - 2<x,n>n in the plane of the unit normal
    n (4,), or the stack (..., 4, 4) of them for a stack (..., 4) of normals.
    """
    n = np.asarray(n, dtype=float)
    return np.eye(4) - 2.0 * (n[..., :, None] * (n @ J)[..., None, :])


def isometry_defect(mat):
    """Max-norm violation of L^T J L = J: a float for one matrix, an array
    with one entry per matrix for a stack (..., 4, 4)."""
    mat = np.asarray(mat, dtype=float)
    out = np.max(np.abs(np.swapaxes(mat, -1, -2) @ J @ mat - J), axis=(-2, -1))
    return float(out) if out.ndim == 0 else out


def is_isometry(mat, tol: Tolerances = DEFAULT):
    """Whether ``mat``, or every matrix of a stack (..., 4, 4), is a
    future-preserving Lorentz matrix with det 1."""
    mat = np.asarray(mat, dtype=float)
    if mat.ndim < 2 or mat.shape[-2:] != (4, 4):
        return False
    return bool(np.all((isometry_defect(mat) < tol.iso)
                       & (np.abs(np.linalg.det(mat) - 1.0) < 100 * tol.iso)
                       & (mat[..., 3, 3] > 0)))


def apply_isometry(mat, points, tol: Tolerances = DEFAULT):
    """Apply a Lorentz matrix to one Klein point or an (n,3) array of them."""
    pts = np.asarray(points, dtype=float)
    moved = klein_lift(np.atleast_2d(pts), tol) @ np.asarray(mat, dtype=float).T
    out = moved[:, :3] / moved[:, 3:4]
    return out[0] if pts.ndim == 1 else out


def pure_boost(v):
    """The unique symmetric Lorentz boost sending e4 to the unit timelike v,
    or the stack (..., 4, 4) of them for a stack (..., 4) of vectors.

    With v = (s, gamma) it is [[I + s s^T / (1 + gamma), s], [s^T, gamma]]:
    the outer product v v^T over 1 + gamma plus diag(1, 1, 1, 0), with the
    last row and column then overwritten by v.
    """
    v = np.asarray(v, dtype=float)
    out = v[..., :, None] * v[..., None, :]
    out /= (1.0 + v[..., 3:])[..., None]
    out += _SPATIAL_IDENTITY
    out[..., 3, :] = v
    out[..., :3, 3] = v[..., :3]
    return out


def translation_to_origin(p, tol: Tolerances = DEFAULT):
    """Hyperbolic translation (pure boost) carrying the Klein point p to 0,
    or the stack of them for a stack (..., 3) of points.

    It is the boost sending e4 to the lift of -p: J B J for the boost B to
    the lift of p, bit for bit, without the two matrix products (J only
    negates B's last row and column off the corner).  The point is negated
    as 0 - p, so a zero coordinate gives +0 entries, as those products do.
    """
    return pure_boost(klein_lift(np.subtract(0.0, p), tol))


def so31_basis():
    """Basis of the isometry Lie algebra as one (6, 4, 4) stack: 3 rotations
    then 3 boosts.

    Each generator A satisfies A^T J + J A = 0 exactly.
    """
    gens = np.zeros((6, 4, 4))
    for k, (i, j) in enumerate(((0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3))):
        gens[k, i, j] = 1.0 if j == 3 else -1.0     # a boost is symmetric
        gens[k, j, i] = 1.0
    return gens


# The rotation generators' 3 x 3 blocks, transposed to act on row vectors,
# and the boost directions e_k, shaped for ``klein_velocities``.
_ROTATION_ROWS = np.swapaxes(so31_basis()[:3, :3, :3], -1, -2)
_BOOST_UNITS = np.eye(3)[:, None, :]


def klein_velocities(points):
    """(6, n, 3) velocities of the Klein ``points`` (n, 3) under the six
    ``so31_basis`` generators, in closed form, with no lift.

    For a generator A, the derivative at t = 0 of the Klein projection of
    exp(t A) applied to the lift of p is the 3 x 3 block of A applied to p
    for a rotation (w x p, for w = e3, -e2, e1 in basis order) and
    e_k - p_k p for the boost along e_k.
    """
    p = np.asarray(points, dtype=float)
    vel = np.empty((6,) + p.shape)
    np.matmul(p, _ROTATION_ROWS, out=vel[:3])
    np.multiply(p.T[:, :, None], p, out=vel[3:])
    np.subtract(_BOOST_UNITS, vel[3:], out=vel[3:])
    return vel


# --- SL(2,C) double cover -------------------------------------------------
#
# R^{3,1} is identified with 2x2 Hermitian matrices via
#   (x1,x2,x3,x4)  ->  [[x4+x3, x1-i x2], [x1+i x2, x4-x3]],
# on which S in SL(2,C) acts by X -> S X S*; the induced map on vectors is
# the corresponding Lorentz transformation.


# The Hermitian forms of e1, e2, e3, e4.
_HERMITIAN = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]],
                       [[1, 0], [0, -1]], [[1, 0], [0, 1]]])


# E_a P_c E_b for the Hermitian forms E_a of e1..e4 and P_c over I, s1, s2,
# s3 (the same four matrices, reordered), indexed (a, b, c, row, column,
# real/imaginary part).  Every entry is 0 or +-1.
_SANDWICH = np.einsum("aij,cjk,bkl->abcil", _HERMITIAN, _HERMITIAN[[3, 0, 1, 2]],
                      _HERMITIAN).view(float).reshape(4, 4, 4, 2, 2, 2)


def _canonical_sign(s, tol: Tolerances = DEFAULT):
    """Pick the branch of each matrix in a stack (..., 2, 2), independently:
    nonnegative real trace, with deterministic tie-breaks.

    A trace whose real part is within ``tol.branch_tie`` of zero is decided
    by its imaginary part, and when that ties too, by the first entry (row
    major) of modulus above ``tol.branch_entry``: its real part, or its
    imaginary part when the real part ties.  Moduli are ``np.hypot`` of the
    parts, as Python's ``abs`` computes them.
    """
    tie = tol.branch_tie
    t = s[..., 0, 0] + s[..., 1, 1]
    keep = t.real > 0
    tied = np.abs(t.real) <= tie
    if np.any(tied):
        flat = s.reshape(-1, 4)
        large = np.hypot(flat.real, flat.imag) > tol.branch_entry
        lead = flat[np.arange(len(flat)), np.argmax(large, axis=1)].reshape(t.shape)
        by_entry = np.where(np.abs(lead.real) > tie, lead.real > 0, lead.imag >= 0)
        by_entry |= ~np.any(large, axis=1).reshape(t.shape)
        keep = np.where(tied, np.where(np.abs(t.imag) > tie, t.imag > 0, by_entry), keep)
    return np.where(keep[..., None, None], s, -s)


def sl2c_lift(mat, tol: Tolerances = DEFAULT):
    """One branch of the SL(2,C) lift of a Lorentz isometry, or of every
    matrix in a stack (..., 4, 4); the result has shape (..., 2, 2).

    With E_a the Hermitian forms of e1..e4 and P_c over I, s1, s2, s3
    (Pauli matrices), S E_b S* = sum_a L_ab E_a and sum_b E_b B E_b =
    2 tr(B) I give M_c = sum_ab L_ab E_a P_c E_b = 2 tr(S* P_c) S for a lift
    S of L.  The M_c of largest Frobenius norm (first on a tie) is never
    zero, since max_c |tr(S* P_c)| >= |S|_F / sqrt(2); it is divided by a
    square root of its determinant, and the sign is then fixed by
    ``_canonical_sign``; the other branch is the negative.
    Every matrix is lifted as it would be alone, and ``LiftFailure`` is
    raised if any one of them fails the isometry invariants.
    """
    mat = np.asarray(mat, dtype=float)
    if not is_isometry(mat, tol):
        raise LiftFailure("matrix violates the Lorentz isometry invariants")
    # the four M_c of every matrix, each flattened to 8 parts
    parts = np.einsum("...ab,abcijk->...cijk", mat, _SANDWICH).reshape(-1, 4, 8)
    best = np.argmax(np.sum(parts * parts, axis=-1), axis=-1)
    m = parts[np.arange(len(parts)), best].reshape(mat.shape[:-2] + (2, 2, 2))
    m = m[..., 0] + 1j * m[..., 1]
    det = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    return _canonical_sign(m / np.sqrt(det)[..., None, None], tol)


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
