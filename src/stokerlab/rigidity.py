"""Jacobians of the constraint and angle maps and the rigidity certificate.

The planarity constraints cut a submanifold of vertex-position space whose
tangent space has dimension |E| + 6 for a convex embedding; restricted to
that tangent space the dihedral-angle Jacobian must have rank |E| with a
6-dimensional kernel spanned exactly by the ambient isometry directions.
``rigidity_report`` certifies all of this numerically at one relative
threshold, ``Tolerances.rank_svd``: the tangent space is a nullspace from a
column-pivoted QR (see ``nullspace``); the restricted angle Jacobian's
singular values are those of the R of its unpivoted QR, and its kernel is
Q's trailing columns.  A failed certificate is a note in the report; input
that is not a valid embedding raises the geometry's own error.

Every factorization is a bare LAPACK call (``scipy.linalg.lapack``), with
no ``np.linalg`` wrapper in between; ``_singular_values`` is the one route
to singular values without vectors, and rounds as ``np.linalg.svd`` does.
LAPACK is imported inside the functions that call it, so importing the
library, and every CLI command that computes no rank, loads no scipy.
"""

from dataclasses import dataclass

import numpy as np

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


def _singular_values(matrix):
    """Nonincreasing singular values of a 2-d ``matrix``, bit for bit those
    of ``np.linalg.svd(matrix, compute_uv=False)``: one LAPACK ``dgesdd``
    without vectors on a Fortran-ordered copy, with the workspace that
    ``dgesdd_lwork`` queries, as NumPy's own call does.  (The transpose,
    or the wrapper's default workspace, can round differently.)  An empty
    matrix has no values; a non-finite one, or no convergence, raises
    ``LinAlgError``, as ``np.linalg.svd`` does."""
    from scipy.linalg import lapack
    if 0 in matrix.shape:
        return np.zeros(0)
    if not np.isfinite(matrix).all():
        raise np.linalg.LinAlgError("SVD of a non-finite matrix")
    lwork = int(lapack.dgesdd_lwork(*matrix.shape, compute_uv=0)[0])
    _, sing, _, info = lapack.dgesdd(matrix, compute_uv=0, lwork=lwork)
    if info:
        raise np.linalg.LinAlgError("SVD did not converge")
    return sing


def _pivoted_qr(matrix, rel_threshold):
    """(reflectors, tau, rank) of one column-pivoted Householder QR
    ``matrix.T P = Q R`` (LAPACK ``geqp3``; Businger and Golub, Numer. Math.
    7, 1965): the rank counts the |r_kk| above ``rel_threshold`` times
    |r_00|.  An empty matrix gives (None, None, 0)."""
    from scipy.linalg import lapack
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    if not np.isfinite(matrix).all():
        raise np.linalg.LinAlgError("nullspace of a non-finite matrix")
    if 0 in matrix.shape:
        return None, None, 0
    # LAPACK workspace queries (lwork = -1) before each call; a query writes
    # nothing, so only the real geqp3 copies the caller's matrix.
    lwork = int(lapack.dgeqp3(matrix.T, lwork=-1, overwrite_a=1)[3][0])
    qr, _, tau, _, _ = lapack.dgeqp3(matrix.T, lwork=lwork)
    rank = numerical_rank(np.abs(np.diagonal(qr)), rel_threshold)
    return qr[:, :tau.size], tau, rank     # min(m, n) reflectors: fewer when matrix is tall


def _null_components(factor, block):
    """Components of the columns of ``block`` along the numerical nullspace
    of a matrix factored by ``_pivoted_qr``: Q's columns past the rank span
    it, so these are the rows of Q^T ``block`` past the rank, applied
    through the stored reflectors (``ormqr``) without forming Q."""
    from scipy.linalg import lapack
    reflectors, tau, rank = factor
    block = np.asarray(block, dtype=float)
    if reflectors is None:
        return block
    lwork = int(lapack.dormqr("L", "T", reflectors, tau, block, -1, overwrite_c=1)[1][0])
    return lapack.dormqr("L", "T", reflectors, tau, block, lwork)[0][rank:]


def nullspace(matrix, rel_threshold):
    """Orthonormal basis (columns) of the numerical nullspace: the columns of
    Q in the pivoted QR of ``matrix.T`` past the rank of ``_pivoted_qr``."""
    cols = np.atleast_2d(np.asarray(matrix)).shape[1]
    return _null_components(_pivoted_qr(matrix, rel_threshold), np.eye(cols)).T


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
    factor = _constraint_factor(FaceGeometry(poly), tol)
    return _null_components(factor, np.eye(3 * poly.combinatorics.vertex_count)).T


def _constraint_factor(geometry: FaceGeometry, tol: Tolerances):
    """``_pivoted_qr`` of the constraint Jacobian, which reads no normals;
    raises ``DimensionMismatch`` when its nullity is not |E| + 6."""
    factor = _pivoted_qr(geometry.constraint_jacobian(), tol.rank_svd)
    nullity = 3 * geometry.combinatorics.vertex_count - factor[2]
    expected = geometry.combinatorics.edge_count + 6
    if nullity != expected:
        raise DimensionMismatch(f"constraint nullity {nullity} != |E| + 6 = {expected}")
    return factor


def isometry_directions(poly: EmbeddedPolyhedron, tol: Tolerances = DEFAULT):
    """Vertex velocities induced by the six ambient isometry generators.

    Column j holds ``lorentz.klein_velocities`` of every vertex under
    generator j, the rows of the solver's bordered Jacobian transposed.
    Raises ``RankDeficiency`` if the columns do not have rank 6.
    """
    cols = np.ascontiguousarray(lorentz.klein_velocities(poly.positions).reshape(6, -1).T)
    if numerical_rank(_singular_values(cols), tol.rank_svd) < 6:
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

    Certified means: tangent dimension |E| + 6, angle rank |E|, kernel
    dimension 6, and kernel/isometry principal angles below
    ``tol.principal_angle``.  The constraint QR's reflectors carry the angle
    Jacobian A and the isometry directions into tangent coordinates, as
    M^T = (A T)^T and Y = T^T iso, with no basis T formed.  One unpivoted QR
    [M^T | Q_Y] = Q R, Q_Y an orthonormal basis of Y, gives the rest.  The
    singular values are those of R's leading |E| x |E| block, and the rank
    counts them; the kernel K is Q's columns past the rank, so rank plus
    kernel dimension is the tangent dimension.  The largest principal angle
    is the arcsin of the norm of (I - K K^T) Q_Y: R's last columns above row
    rank.

    A failed certificate is recorded in ``notes``; a constraint nullity
    other than |E| + 6 (``DimensionMismatch``) is one, and ends the report
    there, before any face normal is read.  Invalid input geometry raises,
    as it does from ``dihedral_angles``: ``DegenerateFace`` and
    ``BallBoundary`` from the face kernel, ``RankDeficiency`` from
    ``isometry_directions``.
    """
    geometry = FaceGeometry(poly, tol)
    edge_count = poly.combinatorics.edge_count
    try:
        factor = _constraint_factor(geometry, tol)
    except DimensionMismatch as exc:
        return RigidityReport(edge_count, -1, -1, -1, np.inf, np.array([]), False, [str(exc)])

    from scipy.linalg import lapack
    block = np.concatenate([geometry.angle_jacobian(), isometry_directions(poly, tol).T]).T
    tangent = _null_components(factor, block)
    # Q_Y: six columns are below LAPACK's blocking crossover, so the default
    # workspaces give np.linalg.qr's Q bit for bit.
    tangent[:, edge_count:] = lapack.dorgqr(*lapack.dgeqrf(tangent[:, edge_count:])[:2])[0]
    r = lapack.dgeqrf(tangent, overwrite_a=1)[0]
    sing = _singular_values(np.triu(r[:edge_count, :edge_count]))
    rank = numerical_rank(sing, tol.rank_svd)
    kernel_dim = r.shape[0] - rank
    largest = np.max(_singular_values(r[:rank, edge_count:]), initial=0.0)    # the 2-norm
    residual = float(np.arcsin(min(largest, 1.0)))

    notes = []
    if rank != edge_count:
        notes.append(f"angle rank {rank} != |E| = {edge_count}")
    if kernel_dim != 6:
        notes.append(f"kernel dimension {kernel_dim} != 6")
    if not residual < tol.principal_angle:
        notes.append(f"kernel/isometry principal angle {residual:.3e} too large")
    return RigidityReport(edge_count, r.shape[0], rank, kernel_dim, residual, sing,
                          not notes, notes)
