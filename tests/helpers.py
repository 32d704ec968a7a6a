"""Shared oracles for the test suite, independent of the library paths they check."""

import numpy as np
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import expm
from scipy.spatial import ConvexHull

from stokerlab import lorentz, repvar
from stokerlab.config import DEFAULT
from stokerlab.polyhedron import CombinatorialType, EmbeddedPolyhedron, embed_euclidean
from stokerlab.rigidity import numerical_rank


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


def svd_plane_normal(p1, p2, p3, witness):
    """Unit normal of the plane through three Klein points, oriented away
    from an interior witness.

    The reference for the library's closed-form plane kernel: the normal is
    the null vector of the three lifts by SVD, and its sign comes from the
    witness, not from the order of the points.
    """
    lifts = np.stack([lorentz.klein_lift(p1), lorentz.klein_lift(p2), lorentz.klein_lift(p3)])
    _, sing, vh = np.linalg.svd(lifts @ lorentz.J)
    assert sing[2] > 1e-10 * sing[0], "three points do not span a plane"
    n = vh[3]
    q = lorentz.minkowski_inner(n, n)
    assert q > 1e-10, "normal direction is not spacelike"
    n = n / np.sqrt(q)
    w = lorentz.minkowski_inner(n, lorentz.klein_lift(witness))
    assert abs(w) > 1e-12, "witness lies on the plane"
    return -n if w > 0 else n


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
    fa, fb = comb.edge_faces(edge)
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


def corner_tetrahedron(leg=0.4):
    """Tetrahedron with three mutually orthogonal edges at the origin; the
    three coordinate-plane faces meet pairwise at exactly pi/2."""
    positions = np.array(
        [[0.0, 0.0, 0.0], [leg, 0.0, 0.0], [0.0, leg, 0.0], [0.0, 0.0, leg]]
    )
    faces = [[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]]
    return EmbeddedPolyhedron(CombinatorialType(4, faces), positions)


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
    traces = repvar._trace_matrix(rep, loops, algebra)
    parts = (traces.real,) if unitary else (traces.real, traces.imag)
    rows = np.stack(parts, axis=1).reshape(-1, traces.shape[1])
    z = svd_nullspace(repvar._relator_matrix(rep, pres, algebra), DEFAULT.rank_svd)
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


def random_polyhedra(max_points):
    """Hypothesis strategy: a seeded simplicial hull of 10 to ``max_points``
    spread sphere points, or the polar dual of one."""
    return st.builds(
        lambda seed, n, dual: (random_polar_dual if dual else random_simplicial_hull)(seed, n),
        st.integers(0, 2 ** 32 - 1),
        st.integers(10, max_points),
        st.booleans(),
    )
