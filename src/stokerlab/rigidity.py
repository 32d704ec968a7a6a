"""Jacobians of the constraint and angle maps and the rigidity certificate.

The planarity constraints cut a submanifold of vertex-position space whose
tangent space has dimension |E| + 6 for a convex embedding; restricted to
that tangent space the dihedral-angle Jacobian must have rank |E| with a
6-dimensional kernel spanned exactly by the ambient isometry directions.
``rigidity_report`` certifies all of this numerically at one relative
threshold, ``Tolerances.rank_svd``: the tangent space is a nullspace from a
column-pivoted QR (see ``nullspace``), and the restricted angle Jacobian's
rank and kernel come from its SVD.  A failed certificate is a note in the
report; input that is not a valid embedding raises the geometry's own error.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack, subspace_angles

from . import lorentz
from .config import DEFAULT, Tolerances
from .errors import DimensionMismatch, RankDeficiency
from .polyhedron import EmbeddedPolyhedron, FaceGeometry


def numerical_rank(magnitudes, rel_threshold):
    """Count of the nonincreasing ``magnitudes`` (singular values, or the
    |r_kk| of a column-pivoted QR) above ``rel_threshold`` times the first."""
    if len(magnitudes) == 0 or magnitudes[0] == 0.0:
        return 0
    return int(np.sum(magnitudes > rel_threshold * magnitudes[0]))


def _null_components(matrix, rel_threshold, block):
    """Components of the columns of ``block`` along an orthonormal basis of
    the numerical nullspace of ``matrix``, one row per basis vector.

    One column-pivoted Householder QR, ``matrix.T P = Q R`` (LAPACK
    ``geqp3``; Businger and Golub, Numer. Math. 7, 1965), decides the rank:
    the count of |r_kk| above ``rel_threshold`` times |r_00|.  The first
    rank columns of Q span the row space of ``matrix`` and the rest its
    nullspace, so the components are the rows of Q^T ``block`` past the
    rank, applied through the stored reflectors (``ormqr``) without forming
    Q or any singular vector.
    """
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    block = np.asarray(block, dtype=float)
    if not np.isfinite(matrix).all():
        raise np.linalg.LinAlgError("nullspace of a non-finite matrix")
    if 0 in matrix.shape:
        return block
    # LAPACK workspace queries (lwork = -1) before each call; a query writes
    # nothing, so only the real geqp3 copies the caller's matrix.
    lwork = int(lapack.dgeqp3(matrix.T, lwork=-1, overwrite_a=1)[3][0])
    qr, _, tau, _, _ = lapack.dgeqp3(matrix.T, lwork=lwork)
    rank = numerical_rank(np.abs(np.diagonal(qr)), rel_threshold)
    reflectors = qr[:, :tau.size]        # min(m, n) of them: fewer when matrix is tall
    lwork = int(lapack.dormqr("L", "T", reflectors, tau, block, -1, overwrite_c=1)[1][0])
    return lapack.dormqr("L", "T", reflectors, tau, block, lwork)[0][rank:]


def nullspace(matrix, rel_threshold):
    """Orthonormal basis (columns) of the numerical nullspace: the trailing
    columns of Q in the column-pivoted QR of ``matrix.T``, past the rank
    that ``_null_components`` decides."""
    cols = np.atleast_2d(np.asarray(matrix)).shape[1]
    return _null_components(matrix, rel_threshold, np.eye(cols)).T


def constraint_jacobian(poly: EmbeddedPolyhedron):
    """Derivative of every planarity determinant w.r.t. all vertex coordinates.

    Shape (sum_f (d_f - 3)) x 3|V|; rows are independent for convex input.
    """
    return FaceGeometry(poly).constraint_jacobian()


def angle_jacobian(poly: EmbeddedPolyhedron, tol: Tolerances = DEFAULT):
    """Derivative of the dihedral angles w.r.t. all vertex coordinates.

    Shape |E| x 3|V|.  Each face plane is anchored on its first three stored
    vertices, so only anchor vertices receive nonzero entries; restricted to
    the planarity tangent space this is the differential of the angle map on
    the constraint manifold.
    """
    return FaceGeometry(poly, tol).angle_jacobian()


def tangent_space(poly: EmbeddedPolyhedron, tol: Tolerances = DEFAULT):
    """Orthonormal basis (columns) of the planarity-constraint tangent space.

    Raises ``DimensionMismatch`` when the numerical nullity differs from the
    predicted |E| + 6.
    """
    return _tangent_basis(FaceGeometry(poly), tol)


def _tangent_basis(geometry: FaceGeometry, tol: Tolerances):
    basis = nullspace(geometry.constraint_jacobian(), tol.rank_svd)
    expected = geometry.combinatorics.edge_count + 6
    if basis.shape[1] != expected:
        raise DimensionMismatch(
            f"constraint nullity {basis.shape[1]} != |E| + 6 = {expected}"
        )
    return basis


def isometry_directions(poly: EmbeddedPolyhedron, tol: Tolerances = DEFAULT):
    """Vertex velocities induced by the six ambient isometry generators.

    Column j holds, for every vertex, the derivative at t = 0 of the Klein
    projection of exp(t A_j) applied to the lifted vertex.  Raises
    ``RankDeficiency`` if the columns do not have rank 6.
    """
    x = lorentz.klein_lift(poly.positions, tol)              # (V, 4)
    ydot = x @ np.swapaxes(lorentz.so31_basis(), -1, -2)      # (6, V, 4): A_j x_i
    w = x[:, 3:]
    velocity = ydot[..., :3] / w - (x[:, :3] / w) * (ydot[..., 3:] / w)
    cols = np.ascontiguousarray(np.moveaxis(velocity, 0, -1).reshape(-1, 6))
    sing = np.linalg.svd(cols, compute_uv=False)
    if numerical_rank(sing, tol.rank_svd) < 6:
        raise RankDeficiency("isometry directions do not span six dimensions")
    return cols


@dataclass
class RigidityReport:
    """Certified dimensions of the constraint/angle system at an embedding."""

    edge_count: int
    tangent_dim: int
    angle_rank: int
    kernel_dim: int
    isometry_containment_residual: float
    singular_values: np.ndarray
    certified: bool
    notes: list

    @property
    def spectral_gap(self):
        """sigma_|E| / sigma_1 of the restricted angle Jacobian, 0 when it has
        fewer than |E| singular values.  That Jacobian is |E| x (|E| + 6), so
        there is no sigma_|E|+1: the kernel is checked against the isometry
        directions by principal angles instead."""
        s = self.singular_values
        if len(s) < self.edge_count or s[0] == 0.0:
            return 0.0
        return float(s[self.edge_count - 1] / s[0])


def rigidity_report(poly: EmbeddedPolyhedron, tol: Tolerances = DEFAULT) -> RigidityReport:
    """Certify that the dihedral angles locally parameterize the embedding.

    Restricts the angle Jacobian to the constraint tangent space, reports its
    rank and kernel via SVD, and compares the kernel with the isometry
    directions by principal angles.  Certified means: tangent dimension
    |E| + 6, angle rank |E|, kernel dimension 6, and kernel/isometry
    principal angles below ``tol.principal_angle``.  A failed certificate is
    recorded in ``notes``; a constraint nullity other than |E| + 6
    (``DimensionMismatch``) is one, and ends the report there.  Invalid input
    geometry raises, as it does from ``dihedral_angles``: ``DegenerateFace``
    and ``BallBoundary`` from the face kernel and the lift,
    ``RankDeficiency`` from ``isometry_directions``.
    """
    geometry = FaceGeometry(poly, tol)
    notes = []
    edge_count = poly.combinatorics.edge_count
    try:
        tangent = _tangent_basis(geometry, tol)
    except DimensionMismatch as exc:
        notes.append(str(exc))
        return RigidityReport(edge_count, -1, -1, -1, np.inf, np.array([]), False, notes)

    _, sing, vh = np.linalg.svd(geometry.angle_jacobian() @ tangent)
    rank = numerical_rank(sing, tol.rank_svd)
    kernel = tangent @ vh[rank:].T
    kernel_dim = kernel.shape[1]

    iso = isometry_directions(poly, tol)
    iso_in_tangent = tangent @ (tangent.T @ iso)
    residual = float(np.max(subspace_angles(kernel, iso_in_tangent)))

    if rank != edge_count:
        notes.append(f"angle rank {rank} != |E| = {edge_count}")
    if kernel_dim != 6:
        notes.append(f"kernel dimension {kernel_dim} != 6")
    if not residual < tol.principal_angle:
        notes.append(f"kernel/isometry principal angle {residual:.3e} too large")
    certified = not notes
    return RigidityReport(
        edge_count, tangent.shape[1], rank, kernel_dim, residual, sing, certified, notes
    )
