"""Shared oracles for the test suite, independent of the library paths they check."""

import json
from itertools import chain

import mpmath
import numpy as np
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import expm, lapack, subspace_angles
from scipy.spatial import ConvexHull

from stokerlab import lorentz, repvar
from stokerlab.config import DEFAULT
from stokerlab.errors import (
    BallBoundary,
    DegenerateFace,
    DimensionMismatch,
    InvalidCombinatorics,
    NoConvergence,
)
from stokerlab.formats import format_float
from stokerlab.polyhedron import (
    CombinatorialType,
    CombinatoricsReport,
    EdgeGraph,
    EmbeddedPolyhedron,
    FaceGeometry,
    embed_euclidean,
)
from stokerlab.rigidity import (
    RigidityReport,
    angle_jacobian,
    isometry_directions,
    numerical_rank,
    tangent_space,
)


def random_isometry(rng, scale=0.5):
    gens = lorentz.so31_basis()
    coeffs = rng.uniform(-scale, scale, 6)
    return expm(sum(c * g for c, g in zip(coeffs, gens)))


def rotation(axis, angle):
    """Rotation about a unit 3-vector, as a Lorentz matrix fixing e4."""
    k = np.array([[0.0, -axis[2], axis[1]], [axis[2], 0.0, -axis[0]], [-axis[1], axis[0], 0.0]])
    out = np.eye(4)
    out[:3, :3] = expm(angle * k)
    return out


def elliptic(p, axis, angle):
    """Rotation by ``angle`` about a geodesic through the Klein point p: the
    coordinate rotation about the unit 3-vector ``axis`` conjugated by the
    pure boost taking the origin to p."""
    move = lorentz.pure_boost(lorentz.klein_lift(p))
    return move @ rotation(axis, angle) @ lorentz.J @ move @ lorentz.J


def same_bits(a, b):
    """Whether two float arrays have the same shape and the same bytes,
    signs of zeros included: a stricter test than ``np.array_equal``."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def pure_boost_reference(v):
    """The boost of ``lorentz.pure_boost`` assembled block by block:
    I + s s^T / (1 + gamma), s in the last column and row, gamma in the
    corner, for v = (s, gamma) or a stack of them."""
    v = np.asarray(v, dtype=float)
    spatial, gamma = v[..., :3], v[..., 3]
    out = np.empty(v.shape + (4,))
    out[..., :3, :3] = np.eye(3) + (spatial[..., :, None] * spatial[..., None, :]
                                    / (1.0 + gamma)[..., None, None])
    out[..., :3, 3] = spatial
    out[..., 3, :3] = spatial
    out[..., 3, 3] = gamma
    return out


def translation_to_origin_reference(p):
    """J B J for the boost B = ``pure_boost_reference`` to the lift of p:
    the reference for ``lorentz.translation_to_origin``, two 4 x 4 matrix
    products per point."""
    return lorentz.J @ pure_boost_reference(lorentz.klein_lift(p)) @ lorentz.J


def gauge_fix_reference(poly):
    """Positions of ``deform.gauge_fix`` by the reference translation,
    ``np.linalg.norm`` and ``np.cross``."""
    pos = lorentz.apply_isometry(translation_to_origin_reference(poly.positions[0]),
                                 poly.positions)
    p1, p2 = pos[1], pos[2]
    e1 = p1 / np.linalg.norm(p1)
    w = p2 - (p2 @ e1) * e1
    e2 = w / np.linalg.norm(w)
    return pos @ np.array([e1, e2, np.cross(e1, e2)]).T


def dot3_reference(x, y):
    """Row-wise dot product of (..., 3) arrays, one coordinate product at a
    time, summed (x0 y0 + x1 y1) + x2 y2: the reference for ``lorentz._dot3``."""
    return x[..., 0] * y[..., 0] + x[..., 1] * y[..., 1] + x[..., 2] * y[..., 2]


def unit_normals_reference(anchors, cross, tol=DEFAULT):
    """``lorentz._unit_normals`` through ``np.prod`` and ``np.column_stack``
    and one division, with the same checks."""
    radii2 = dot3_reference(anchors, anchors)
    if not np.all(radii2 < (1.0 - tol.ball) ** 2):
        raise BallBoundary("point outside the ball")
    b = dot3_reference(cross, anchors[:, 0])
    aa = dot3_reference(cross, cross)
    span = aa + b * b
    if np.any(span <= tol.rank_rel ** 2 * np.prod(1.0 + radii2, axis=1)):
        raise DegenerateFace("three points do not span a plane")
    q = aa - b * b
    if np.any(q <= tol.rank_rel * span):
        raise DegenerateFace("normal direction is not spacelike")
    root = np.sqrt(q)
    return np.column_stack([cross, b]) / root[:, None], root


def constraint_blocks_reference(geom):
    """(P, 4, 3) planarity gradients of a ``FaceGeometry`` from each pair's
    gathered anchors, two cross products and the face's stored u x w."""
    f, v = geom.combinatorics.planarity_pairs.T
    p = geom.anchors[f]
    u, w, x = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0], geom.positions[v] - p[:, 0]
    gu, gw, gx = np.cross(w, x), np.cross(x, u), geom.cross[f]
    return np.stack([-(gu + gw + gx), gu, gw, gx], axis=1)


def klein_project(v):
    """Klein coordinates (x1, x2, x3) / x4 of a hyperboloid point; the
    inverse of ``lorentz.klein_lift``."""
    v = np.asarray(v, dtype=float)
    return v[:3] / v[3]


def hermitian_from_vec(x):
    """Hermitian form [[x4 + x3, x1 - i x2], [x1 + i x2, x4 - x3]] of a
    4-vector (x1, x2, x3, x4) of R^{3,1}."""
    x1, x2, x3, x4 = x
    return np.array([[x4 + x3, x1 - 1j * x2], [x1 + 1j * x2, x4 - x3]])


def vec_from_hermitian(h):
    """The 4-vector of a Hermitian form; the inverse of ``hermitian_from_vec``."""
    return np.array([h[1, 0].real, h[1, 0].imag,
                     0.5 * (h[0, 0] - h[1, 1]).real, 0.5 * (h[0, 0] + h[1, 1]).real])


def sl2c_to_so31(s):
    """Covering map SL(2,C) -> SO+(3,1): column a is the vector of S E_a S*,
    with E_a the Hermitian form of the basis vector e_a.  The reference that
    ``lorentz.sl2c_lift`` inverts, written from the forms themselves rather
    than the library's basis table."""
    s = np.asarray(s, dtype=complex)
    return np.column_stack([vec_from_hermitian(s @ hermitian_from_vec(e) @ s.conj().T)
                            for e in np.eye(4)])


REFERENCE_DIGITS = 40


def _mp_lift(p):
    """Hyperboloid lift of a Klein point in mpmath, the float coordinates
    taken exactly; call under ``mpmath.workdps``."""
    p = [mpmath.mpf(float(c)) for c in p]
    s = mpmath.sqrt(1 - mpmath.fsum(c * c for c in p))
    return [c / s for c in p] + [1 / s]


def _mp_inner(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2] - u[3] * v[3]


def mp_plane_normal(p1, p2, p3, witness):
    """Unit normal of the plane through three Klein points, oriented away
    from an interior witness, as four mpmath numbers of ``REFERENCE_DIGITS``
    digits.

    The reference for the library's closed-form plane kernel: the normal is
    the null vector of the three lifts, the last column of a full
    Householder QR of their Minkowski duals, all in mpmath, so its error is
    far below the float bounds it checks.  Its sign comes from the witness,
    not from the order of the points.
    """
    with mpmath.workdps(REFERENCE_DIGITS):
        duals = [[x, y, z, -t] for x, y, z, t in map(_mp_lift, (p1, p2, p3))]
        q, r = mpmath.qr(mpmath.matrix(duals).T, mode="full")
        assert abs(r[2, 2]) > 1e-10 * abs(r[0, 0]), "three points do not span a plane"
        n = [q[k, 3] for k in range(4)]
        norm2 = _mp_inner(n, n)
        assert norm2 > 1e-10, "normal direction is not spacelike"
        n = [c / mpmath.sqrt(norm2) for c in n]
        w = _mp_inner(n, _mp_lift(witness))
        assert abs(w) > 1e-12, "witness lies on the plane"
        return [-c for c in n] if w > 0 else n


def mp_dihedral_angle(n_a, n_b):
    """Interior angle pi - arccos(<n_a, n_b>) between two ``mp_plane_normal``
    planes, evaluated in mpmath and rounded once to a float."""
    with mpmath.workdps(REFERENCE_DIGITS):
        return float(mpmath.pi - mpmath.acos(max(-1, min(1, _mp_inner(n_a, n_b)))))


def klein_metric_inner(x, u, v):
    """Riemannian metric of the ball model in which chords are geodesics."""
    r2 = float(x @ x)
    return ((1.0 - r2) * float(u @ v) + float(x @ u) * float(x @ v)) / (1.0 - r2) ** 2


def segment_length(p, q):
    """Quadrature of the metric along the straight segment from p to q."""
    d = q - p

    def speed(t):
        return np.sqrt(klein_metric_inner(p + t * d, d, d))

    value, err = quad(speed, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13, limit=200)
    assert err < 1e-10
    return value


def intrinsic_dihedral_angle(poly, edge):
    """Angle between the faces at an edge midpoint, measured in the Klein
    metric between in-face directions orthogonal to the edge.

    Independent of the plane-normal route used by the library.
    """
    comb = poly.combinatorics
    pos = poly.positions
    fa, fb = comb.edge_face_pairs[comb.edge_index[edge]]
    mid = 0.5 * (pos[edge[0]] + pos[edge[1]])
    tang = pos[edge[1]] - pos[edge[0]]
    tt = klein_metric_inner(mid, tang, tang)

    def into_face(fi):
        face = comb.faces[fi]
        w = next(v for v in face if v not in edge)
        d = pos[w] - mid
        return d - (klein_metric_inner(mid, d, tang) / tt) * tang

    d1 = into_face(fa)
    d2 = into_face(fb)
    c = klein_metric_inner(mid, d1, d2) / np.sqrt(
        klein_metric_inner(mid, d1, d1) * klein_metric_inner(mid, d2, d2)
    )
    return float(np.arccos(np.clip(c, -1.0, 1.0)))


def global_meridian(poly, edge):
    """Meridian isometry of an edge (a, b), a < b, in the global frame: the
    product R_f R_g of the reflections in its two face planes (f, g) =
    ``edge_face_pairs``, from the unmoved normals.  Its rounding grows with
    the edge's distance from the origin; the library forms no such product."""
    comb = poly.combinatorics
    f, g = lorentz.reflect(FaceGeometry(poly).normals[comb.edge_face_pairs[comb.edge_index[edge]]])
    return f @ g


def corner_tetrahedron(leg=0.4):
    """Tetrahedron with three mutually orthogonal edges at the origin; the
    three coordinate-plane faces meet pairwise at exactly pi/2."""
    positions = np.array(
        [[0.0, 0.0, 0.0], [leg, 0.0, 0.0], [0.0, leg, 0.0], [0.0, 0.0, leg]]
    )
    faces = [[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]]
    return EmbeddedPolyhedron(CombinatorialType(4, faces), positions)


def collapsed_corner_tetrahedron():
    """``corner_tetrahedron`` with vertex 2 moved to the midpoint of edge
    0-1: the anchors of faces 0 and 3 are collinear, so the face kernel
    raises ``DegenerateFace``, and ``validate_embedding`` fails convexity."""
    poly = corner_tetrahedron()
    pos = poly.positions.copy()
    pos[2] = 0.5 * (pos[0] + pos[1])
    return poly.with_positions(pos)


def capped_cube(height):
    """Cube of scale 0.3 whose top face is replaced by a pyramid of the
    given height: the four edges at the apex are nearly flat, with
    pi - angle of order ``height``.  |V|, |E|, |F| = 9, 16, 9."""
    corners = [[x, y, z] for x in (-1.0, 1.0) for y in (-1.0, 1.0) for z in (-1.0, 1.0)]
    faces = [[4, 6, 7, 5], [0, 1, 3, 2], [2, 3, 7, 6], [0, 4, 5, 1], [0, 2, 6, 4],
             [1, 5, 8], [5, 7, 8], [7, 3, 8], [3, 1, 8]]
    verts = np.array(corners + [[0.0, 0.0, 1.0 + height]])
    return embed_euclidean(CombinatorialType(9, faces), verts, 0.3 / np.sqrt(3.0))


def min_norm_step(jac, rhs, rcond):
    """Minimum-norm least-squares solution by the SVD pseudoinverse, with
    singular values below ``rcond`` times the largest one treated as zero."""
    return np.linalg.pinv(jac, rcond) @ rhs


def reference_step(jac, rhs, tol):
    """The Gauss-Newton step computed out of place: J^T = QR factored from a
    copy, so ``jac`` is left as it was, and the square R used both for the
    condition estimate and for the solve R^T y = rhs.  The reference for
    ``deform._gauss_newton_step``, with the same rank-loss messages."""
    m, n = jac.shape
    if m > n:
        raise NoConvergence(f"Jacobian lost rank: {m} rows exceed its {n} columns")
    qr, tau, _, _ = lapack.dgeqrf(jac.T, lwork=int(lapack.dgeqrf_lwork(n, m)[0]))
    r = qr[:m]
    rcond, _ = lapack.dtrcon(r)
    if not rcond > tol.rank_svd:
        raise NoConvergence(f"Jacobian lost rank: reciprocal condition estimate "
                            f"{rcond:.1e} at or below the cut {tol.rank_svd:.1e}")
    padded = np.zeros((n, 1))
    padded[:m, 0] = lapack.dtrtrs(r, rhs, trans=1)[0]
    return lapack.dormqr("L", "N", qr, tau, padded, 1)[0][:, 0]


def margin_table_reference(geom):
    """The F x V convexity determinants of a ``FaceGeometry``: ``_dot3`` of
    each face's anchor cross product with x - a0, broadcast over (F, V, 3)."""
    return lorentz._dot3(geom.cross[:, None], geom.positions[None] - geom.anchors[:, None, 0])


def svd_nullspace(matrix, rel_threshold):
    """Orthonormal basis (columns) of the numerical nullspace by a full SVD:
    the right singular vectors past the rank at ``rel_threshold`` times the
    largest singular value.  The reference for ``rigidity.nullspace``."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    cols = matrix.shape[1]
    if matrix.shape[0] == 0:
        return np.eye(cols)
    _, sing, vh = np.linalg.svd(matrix)
    return vh[numerical_rank(sing, rel_threshold):].T


def rigidity_report_reference(poly, tol=DEFAULT):
    """The certificate by the explicit route: the tangent basis T, the full
    SVD of the restricted angle Jacobian A T for its rank and kernel, and
    ``scipy.linalg.subspace_angles`` between that kernel and the isometry
    directions projected onto T.  The reference for
    ``rigidity.rigidity_report``; raises and notes in the same order."""
    edge_count = poly.combinatorics.edge_count
    try:
        tangent = tangent_space(poly, tol)
    except DimensionMismatch as exc:
        return RigidityReport(edge_count, -1, -1, -1, np.inf, np.array([]), False, [str(exc)])
    _, sing, vh = np.linalg.svd(angle_jacobian(poly, tol) @ tangent)
    rank = numerical_rank(sing, tol.rank_svd)
    kernel = tangent @ vh[rank:].T
    iso = isometry_directions(poly, tol)
    residual = float(np.max(subspace_angles(kernel, tangent @ (tangent.T @ iso))))
    notes = []
    if rank != edge_count:
        notes.append(f"angle rank {rank} != |E| = {edge_count}")
    if kernel.shape[1] != 6:
        notes.append(f"kernel dimension {kernel.shape[1]} != 6")
    if not residual < tol.principal_angle:
        notes.append(f"kernel/isometry principal angle {residual:.3e} too large")
    return RigidityReport(edge_count, tangent.shape[1], rank, kernel.shape[1], residual,
                          sing, not notes, notes)


def matrix_from_coords(coords, algebra="sl2"):
    """The traceless 2x2 matrix with the given real coordinates over the
    algebra's basis; the inverse of ``repvar.coords_from_matrix``."""
    return sum(float(c) * b for c, b in zip(coords, repvar.algebra_basis(algebra)))


def cocycle_from_vector(vec, generator_count, algebra="sl2"):
    """Generator values, an (n, 2, 2) stack, of a cocycle vector in the
    column order of the relator and trace matrices."""
    dim = len(repvar.algebra_basis(algebra))
    rows = np.asarray(vec, dtype=float).reshape(generator_count, dim)
    return np.array([matrix_from_coords(row, algebra) for row in rows])


def coboundary(v, rep):
    """Generator values of the cocycle g |-> v - Ad(rho(g)) v induced by
    conjugation along v."""
    v = np.asarray(v, dtype=complex)
    return np.array([v - m @ v @ lorentz.sl2_inverse(m) for m in rep.images])


def cocycle_walk(values, rep, word):
    """Value on a word of the cocycle with generator values ``values``, by
    twisted additivity one letter at a time: u(g h) = u(g) + Ad(rho(g)) u(h),
    with u(g^-1) = -Ad(rho(g)^-1) u(g).  The reference for the Fox-calculus
    assembly: it carries the prefix and its inverse along the word instead
    of one conjugator per letter."""
    acc = np.zeros((2, 2), dtype=complex)
    prefix = prefix_inv = np.eye(2, dtype=complex)
    for letter in word:
        idx = abs(letter) - 1
        g = rep.images[idx]
        if letter > 0:
            val, step = values[idx], g
        else:
            ginv = lorentz.sl2_inverse(g)
            val, step = -(ginv @ values[idx] @ g), ginv
        acc = acc + prefix @ val @ prefix_inv
        prefix = prefix @ step
        prefix_inv = lorentz.sl2_inverse(step) @ prefix_inv
    return acc


def trace_differential(rep, values, word):
    """Derivative of the trace of a word along a deformation direction,
    tr(u(word) rho(word)), with u(word) from ``cocycle_walk``."""
    return complex(np.trace(cocycle_walk(values, rep, word) @ repvar.evaluate_word(rep, word)))


def trace_rank_reference(rep, pres, loops, unitary):
    """The trace rank on H^1 by SVDs alone: the trace rows times an
    orthonormal basis of a complement of B^1 in Z^1, with Z^1 from
    ``svd_nullspace`` of the relator matrix.  Returns (z1, b1, h1, rank,
    gap_ratio), the singular values and the 2-norm of the trace rows."""
    algebra = "su2" if unitary else "sl2"
    relator, traces, _ = repvar._fox_matrices(rep, pres.relators, loops, algebra)
    parts = (traces.real,) if unitary else (traces.real, traces.imag)
    rows = np.stack(parts, axis=1).reshape(-1, traces.shape[1])
    z = svd_nullspace(relator, DEFAULT.rank_svd)
    b = repvar.coboundary_space(rep, algebra)
    u, sing, _ = np.linalg.svd(z - b @ (b.T @ z), full_matrices=False)
    h = u[:, :numerical_rank(sing, DEFAULT.rank_svd)]
    sing = np.linalg.svd(rows @ h, compute_uv=False)
    rank = numerical_rank(sing, DEFAULT.rank_svd)
    gap = sing[rank - 1] / sing[rank] if 0 < rank < len(sing) and sing[rank] > 0 else np.inf
    dims = (z.shape[1], b.shape[1], h.shape[1], rank, gap)
    return dims, sing, np.linalg.norm(rows, 2)


def finite_difference_jacobian(func, x0, step=1e-6):
    """Central differences of a vector function of a flat vector."""
    x0 = np.asarray(x0, dtype=float)
    base = np.asarray(func(x0))
    jac = np.zeros((base.size, x0.size))
    for c in range(x0.size):
        dx = np.zeros_like(x0)
        dx[c] = step
        jac[:, c] = (np.asarray(func(x0 + dx)) - np.asarray(func(x0 - dx))) / (2 * step)
    return jac


HULL_RADIUS = 0.5        # Klein radius of the outermost random-polytope vertex
MIN_EXTERIOR = 3e-3      # least angle between adjacent hull facet normals


def _spread_sphere_points(rng, n, steps=200):
    """Seeded points on the unit sphere, spread by Coulomb repulsion."""
    pts = rng.normal(size=(n, 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    step = 0.1 * np.sqrt(4.0 * np.pi / n)
    for _ in range(steps):
        diff = pts[:, None, :] - pts[None, :, :]
        dist = np.linalg.norm(diff, axis=2)
        np.fill_diagonal(dist, np.inf)
        force = (diff / dist[:, :, None] ** 3).sum(axis=1)
        force -= (force * pts).sum(axis=1)[:, None] * pts
        pts += step * force / np.linalg.norm(force, axis=1).max()
        pts /= np.linalg.norm(pts, axis=1)[:, None]
    return pts


def _spread_hull(rng, n):
    """Hull of spread sphere points with no nearly flat edge.

    A point set whose adjacent facet normals meet at less than
    ``MIN_EXTERIOR`` is drawn again, since its dihedral angles near pi are
    ill-conditioned.  The facet normals come from scipy, not the library.
    """
    while True:
        pts = _spread_sphere_points(rng, n)
        hull = ConvexHull(pts)
        normals = hull.equations[:, :3]
        cosines = np.einsum("fi,fki->fk", normals, normals[hull.neighbors])
        if np.arccos(np.clip(cosines.max(), -1.0, 1.0)) >= MIN_EXTERIOR:
            return pts, hull


def random_simplicial_hull(seed, n):
    """Seeded simplicial polytope: the hull of n spread sphere points, faces
    counterclockwise from outside, scaled into the Klein ball."""
    pts, hull = _spread_hull(np.random.default_rng(seed), n)
    faces = []
    for (a, b, c), eq in zip(hull.simplices, hull.equations):
        if np.cross(pts[b] - pts[a], pts[c] - pts[a]) @ eq[:3] < 0:
            b, c = c, b
        faces.append([int(a), int(b), int(c)])
    return EmbeddedPolyhedron(CombinatorialType(n, faces), HULL_RADIUS * pts)


def random_polar_dual(seed, n):
    """Polar dual of a seeded n-point hull: a simple polytope with one face
    per hull vertex, its vertices sorted counterclockwise around that
    vertex's outward direction."""
    pts, hull = _spread_hull(np.random.default_rng(seed), n)
    verts = hull.equations[:, :3] / -hull.equations[:, 3:]
    faces = []
    for v in range(n):
        ring = [k for k, simplex in enumerate(hull.simplices) if v in simplex]
        e1 = np.cross(pts[v], [1.0, 0.0, 0.0] if abs(pts[v][0]) < 0.9 else [0.0, 1.0, 0.0])
        e2 = np.cross(pts[v], e1)
        offsets = verts[ring] - pts[v]
        order = np.argsort(np.arctan2(offsets @ e2, offsets @ e1))
        faces.append([ring[k] for k in order])
    scale = HULL_RADIUS / np.linalg.norm(verts, axis=1).max()
    return EmbeddedPolyhedron(CombinatorialType(len(verts), faces), scale * verts)


def prism_faces(n):
    """The n-prism: bottom ring 0..n-1, top ring n..2n-1, counterclockwise
    from outside."""
    sides = [[i, (i + 1) % n, n + (i + 1) % n, n + i] for i in range(n)]
    return [list(range(n - 1, -1, -1)), list(range(n, 2 * n))] + sides


def prism(n):
    """The regular n-prism of ``prism_faces`` whose half-height equals its
    circumradius, scaled to Klein radius ``HULL_RADIUS``."""
    ring = 2.0 * np.pi * np.arange(n) / n
    verts = [[np.cos(t), np.sin(t), z] for z in (-1.0, 1.0) for t in ring]
    comb = CombinatorialType(2 * n, prism_faces(n))
    return embed_euclidean(comb, verts, HULL_RADIUS / np.sqrt(2.0))


def random_polyhedra(max_points):
    """Hypothesis strategy: a seeded simplicial hull of 10 to ``max_points``
    spread sphere points, or the polar dual of one."""
    return st.builds(
        lambda seed, n, dual: (random_polar_dual if dual else random_simplicial_hull)(seed, n),
        st.integers(0, 2 ** 32 - 1),
        st.integers(10, max_points),
        st.booleans(),
    )


def to_json_reference(obj, indent=0):
    """Report text by one recursive call per value, each judged by
    ``isinstance``: the reference for ``formats.to_json``."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{inner}"{k}": {to_json_reference(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        scalars = (bool, np.bool_, int, float, np.integer, np.floating)
        flat = all(isinstance(v, scalars) for v in seq)
        if flat and len(seq) <= 16:
            return "[" + ", ".join(to_json_reference(v) for v in seq) + "]"
        items = [f"{inner}{to_json_reference(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if not np.isfinite(obj):
            return f'"{float(obj)}"'
        return format_float(obj)
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def _cyclic_pairs(face):
    for i, a in enumerate(face):
        yield a, face[(i + 1) % len(face)]


class WalkedCombinatorics:
    """The reference for ``CombinatorialType``: a dict of directed edges,
    one Python walk per vertex star and per-face comprehensions for the
    index arrays, with the same names and values."""

    def __init__(self, vertex_count, faces):
        self.vertex_count = int(vertex_count)
        self.faces = tuple(tuple(int(v) for v in f) for f in faces)
        self.directed = {}
        for fi, f in enumerate(self.faces):
            for a, b in _cyclic_pairs(f):
                self.directed.setdefault((a, b), fi)
        self.edges = tuple(sorted({(min(a, b), max(a, b)) for a, b in self.directed}))
        self.edge_index = {e: k for k, e in enumerate(self.edges)}
        self.edge_count = len(self.edges)
        self.face_count = len(self.faces)

    def vertex_faces(self):
        """Faces containing each vertex, in increasing face order."""
        incident = {}
        for fi, f in enumerate(self.faces):
            for v in dict.fromkeys(f):
                incident.setdefault(v, []).append(fi)
        return incident

    def vertex_star(self, v):
        """Cyclic star at v, walked face to face from its lowest face:
        (edges, faces) with edge k between faces k-1 and k."""
        incident = self.vertex_faces()[v]
        start = min(incident)
        faces = [start]
        edges = []
        current = start
        for _ in range(len(incident)):
            f = self.faces[current]
            b = f[(f.index(v) + 1) % len(f)]
            edges.append((min(v, b), max(v, b)))
            current = self.directed[(b, v)]
            if current == start:
                break
            faces.append(current)
        if len(faces) != len(incident) or len(edges) != len(incident):
            raise InvalidCombinatorics(f"vertex {v} has a disconnected or pinched star")
        edges = edges[-1:] + edges[:-1]
        return tuple(edges), tuple(faces)

    def star_slots(self):
        stars = [self.vertex_star(v) for v in range(self.vertex_count)]
        sizes = [len(edges) for edges, _ in stars]
        edges = [self.edge_index[e] for star_edges, _ in stars for e in star_edges]
        pairs = [(faces[k - 1], faces[k]) for _, faces in stars for k in range(len(faces))]
        return (np.cumsum([0] + sizes, dtype=np.intp), np.repeat(np.arange(len(sizes)), sizes),
                np.array(edges, dtype=np.intp), np.array(pairs, dtype=np.intp).reshape(-1, 2))

    def edge_graph(self):
        n = self.vertex_count
        adjacent = [set() for _ in range(n)]
        for a, b in self.edges:
            if 0 <= a and b < n:
                adjacent[a].add(b)
                adjacent[b].add(a)
        neighbours = tuple(tuple(sorted(s)) for s in adjacent)
        parent = np.full(n, -1, dtype=np.intp)
        order = [0] if n else []
        for u in order:
            for w in neighbours[u]:
                if w and parent[w] < 0:
                    parent[w] = u
                    order.append(w)
        return EdgeGraph(neighbours, parent)

    def face_anchors(self):
        return np.array([f[:3] for f in self.faces], dtype=np.intp).reshape(-1, 3)

    def edge_face_pairs(self):
        return np.array([(self.directed[(a, b)], self.directed[(b, a)]) for a, b in self.edges],
                        dtype=np.intp).reshape(-1, 2)

    def planarity_pairs(self):
        return np.array([(fi, v) for fi, f in enumerate(self.faces) for v in f[3:]],
                        dtype=np.intp).reshape(-1, 2)

    def convexity_mask(self):
        sizes = [len(f) for f in self.faces]
        mask = np.ones((self.face_count, self.vertex_count), dtype=bool)
        mask[np.repeat(np.arange(self.face_count), sizes),
             np.fromiter(chain.from_iterable(self.faces), np.intp, sum(sizes))] = False
        return mask

    def jacobian_rows(self):
        """Vertices of every row of the stacked Jacobian [constraint; angle]:
        a planarity row's face anchors, then its vertex; an edge's two face
        anchor triples."""
        anchors = self.face_anchors().tolist()
        return ([anchors[f] + [v] for f, v in self.planarity_pairs().tolist()]
                + [anchors[f] + anchors[g] for f, g in self.edge_face_pairs().tolist()])

    def jacobian_cells(self):
        width = 3 * self.vertex_count
        return np.array([r * width + 3 * v + k for r, row in enumerate(self.jacobian_rows())
                         for v in row for k in range(3)], dtype=np.intp)


def jacobian_reference(geom):
    """The stacked Jacobian [constraint; angle] of a ``FaceGeometry``,
    scattered row by row with ``np.add.at``: its gradient blocks placed at
    the vertices of ``WalkedCombinatorics.jacobian_rows``."""
    comb = geom.combinatorics
    rows = WalkedCombinatorics(comb.vertex_count, comb.faces).jacobian_rows()
    blocks = np.concatenate([geom._constraint_blocks().reshape(-1, 3),
                             geom._angle_blocks().reshape(-1, 3)])
    jac = np.zeros((len(rows), 3 * comb.vertex_count))
    first = 0
    for r, vertices in enumerate(rows):
        cols = 3 * np.array(vertices)[:, None] + np.arange(3)
        np.add.at(jac[r], cols.ravel(), blocks[first:first + len(vertices)].ravel())
        first += len(vertices)
    return jac


def validate_combinatorics_reference(comb: WalkedCombinatorics) -> CombinatoricsReport:
    """The reference for ``validate_combinatorics``: every check by a loop
    over faces, edges and vertices, issues in the order found."""
    issues = []
    n = comb.vertex_count
    directed = {}
    for fi, f in enumerate(comb.faces):
        if len(f) < 3:
            issues.append(f"face {fi} has fewer than 3 vertices")
            continue
        if len(set(f)) != len(f):
            issues.append(f"face {fi} repeats a vertex")
        for v in f:
            if not 0 <= v < n:
                issues.append(f"face {fi} references vertex {v} outside 0..{n - 1}")
        for a, b in _cyclic_pairs(f):
            if (a, b) in directed:
                issues.append(
                    f"directed edge {a}->{b} appears in faces {directed[(a, b)]} and {fi}"
                )
            directed[(a, b)] = fi
    for a, b in comb.edges:
        if (a, b) not in directed or (b, a) not in directed:
            issues.append(f"edge {a}-{b} is not shared by two faces with opposite directions")

    euler = n + comb.face_count - comb.edge_count
    if euler != 2:
        issues.append(f"Euler characteristic {euler} != 2")

    graph = comb.edge_graph()
    for v, neighbours in enumerate(graph.neighbours):
        if len(neighbours) < 3:
            issues.append(f"vertex {v} has valence {len(neighbours)} < 3")
    if n and not issues:
        if not graph.connected:
            issues.append("edge graph is not connected")
        for v in range(n):
            try:
                comb.vertex_star(v)
            except InvalidCombinatorics as exc:
                issues.append(str(exc))
    return CombinatoricsReport(n, comb.edge_count, comb.face_count, euler, issues)
