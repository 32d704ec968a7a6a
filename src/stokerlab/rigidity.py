"""Jacobians of the constraint and angle maps and the rigidity certificate.

The planarity constraints cut a submanifold of vertex-position space whose
tangent space has dimension |E| + 6 for a convex embedding; restricted to
that tangent space the dihedral-angle Jacobian must have rank |E| with a
6-dimensional kernel spanned exactly by the ambient isometry directions.
``rigidity_report`` certifies all of this numerically via SVD with a
relative singular-value threshold.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import subspace_angles

from . import lorentz
from .config import DEFAULT, Tolerances
from .errors import DimensionMismatch, RankDeficiency, StokerlabError
from .polyhedron import EmbeddedPolyhedron, FaceGeometry


def numerical_rank(singular_values, rel_threshold):
    if len(singular_values) == 0 or singular_values[0] == 0.0:
        return 0
    return int(np.sum(singular_values > rel_threshold * singular_values[0]))


def nullspace(matrix, rel_threshold):
    """Orthonormal basis of the numerical nullspace (columns)."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    cols = matrix.shape[1]
    if matrix.shape[0] == 0:
        return np.eye(cols)
    _, sing, vh = np.linalg.svd(matrix)
    rank = numerical_rank(sing, rel_threshold)
    return vh[rank:].T


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
    basis = nullspace(constraint_jacobian(poly), tol.rank_svd)
    expected = poly.combinatorics.edge_count + 6
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
        """(sigma_|E| / sigma_1, sigma_|E|+1 / sigma_1); second is 0 when absent."""
        s = self.singular_values
        if len(s) < self.edge_count or s[0] == 0.0:
            return 0.0, np.inf
        lead = float(s[self.edge_count - 1] / s[0])
        trail = float(s[self.edge_count] / s[0]) if len(s) > self.edge_count else 0.0
        return lead, trail


def rigidity_report(poly: EmbeddedPolyhedron, tol: Tolerances = DEFAULT) -> RigidityReport:
    """Certify that the dihedral angles locally parameterize the embedding.

    Restricts the angle Jacobian to the constraint tangent space, reports its
    rank and kernel via SVD, and compares the kernel with the isometry
    directions by principal angles.  Certified means: tangent dimension
    |E| + 6, angle rank |E|, kernel dimension 6, and kernel/isometry
    principal angles below ``tol.principal_angle``.  Failures are recorded in
    ``notes`` instead of raising.
    """
    comb = poly.combinatorics
    notes = []
    edge_count = comb.edge_count
    try:
        tangent = tangent_space(poly, tol)
    except StokerlabError as exc:
        notes.append(str(exc))
        return RigidityReport(edge_count, -1, -1, -1, np.inf, np.array([]), False, notes)

    try:
        restricted = angle_jacobian(poly, tol) @ tangent
    except StokerlabError as exc:
        notes.append(str(exc))
        return RigidityReport(edge_count, tangent.shape[1], -1, -1, np.inf,
                              np.array([]), False, notes)
    _, sing, vh = np.linalg.svd(restricted)
    rank = numerical_rank(sing, tol.rank_svd)
    kernel = tangent @ vh[rank:].T
    kernel_dim = kernel.shape[1]

    try:
        iso = isometry_directions(poly, tol)
    except RankDeficiency as exc:
        notes.append(str(exc))
        return RigidityReport(edge_count, tangent.shape[1], rank, kernel_dim,
                              np.inf, sing, False, notes)
    iso_in_tangent = tangent @ (tangent.T @ iso)
    if kernel_dim and iso_in_tangent.size:
        residual = float(np.max(subspace_angles(kernel, iso_in_tangent)))
    else:
        residual = np.inf

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
