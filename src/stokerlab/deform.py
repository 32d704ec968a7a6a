"""Constructive angle realization: deform an embedding to target angles.

The solver runs Gauss-Newton on the stacked residual

    [planarity determinants; dihedral angles - target]

over all vertex coordinates.  Each step is the minimum-norm least-squares
solution, which never moves along the 6-dimensional isometry kernel of the
Jacobian; the remaining gauge freedom is removed afterwards by a canonical
frame (vertex 0 at the origin, vertex 1 on the positive x-axis, vertex 2 in
the upper half of the xy-plane).

The step comes from a complete orthogonal factorization of the Jacobian
(LAPACK ``gelsy``: QR with column pivoting, then an RZ step).  Its rank is
the size of the largest leading triangle of the pivoted QR whose estimated
condition number stays below 1 / ``Tolerances.rank_svd``.  At a convex
embedding the Jacobian has full row rank, so no rank is cut and the step is
the SVD's minimum-norm step, found without singular vectors.  The normal
equations square cond(J) and lost 2e-7 of the step on a 160-point dual; an
unpivoted QR makes no rank decision, so a nearly singular Jacobian would not
be truncated.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import lorentz
from .config import DEFAULT, Tolerances
from .errors import BallExit, ConvexityLost, DegenerateFrame, NoConvergence
from .polyhedron import (
    EmbeddedPolyhedron,
    FaceGeometry,
    dihedral_angles,
    validate_angle_vector,
)


@dataclass(frozen=True)
class DeformOptions:
    max_iterations: int = 50
    residual_tol: float = 1e-11
    trust_radius: float = 0.1      # sup-norm bound on a vertex-coordinate step

    def __post_init__(self):
        if self.max_iterations <= 0:
            raise ValueError("max_iterations must be positive")
        if self.residual_tol < 1e-14:
            raise ValueError("residual_tol must be at least 1e-14")
        if self.trust_radius <= 0.0:
            raise ValueError("trust_radius must be positive")


@dataclass
class DeformResult:
    final: EmbeddedPolyhedron
    iterations_used: int
    residual_history: list = field(default_factory=list)
    planarity_history: list = field(default_factory=list)
    achieved_angles: np.ndarray = None
    gauge: str = ""


def gauge_fix(poly: EmbeddedPolyhedron, tol: Tolerances = DEFAULT) -> EmbeddedPolyhedron:
    """Canonical representative of the orientation-preserving isometry orbit.

    Moves vertex 0 to the origin by a hyperbolic translation, then rotates
    by the orthonormal frame e1 = p1 / |p1|, e2 = the normalized part of p2
    orthogonal to e1, e1 x e2 (p1, p2 the moved vertices 1 and 2), which
    puts vertex 1 on the positive x-axis and vertex 2 in the open upper half
    of the xy-plane.  Raises ``DegenerateFrame`` when the first two vertices
    coincide or the first three are collinear.
    """
    pos = lorentz.apply_isometry(
        lorentz.translation_to_origin(poly.positions[0], tol), poly.positions, tol
    )
    p1, p2 = pos[1], pos[2]
    r1 = np.linalg.norm(p1)
    if r1 < tol.frame:
        raise DegenerateFrame("first two vertices coincide")
    e1 = p1 / r1
    w = p2 - (p2 @ e1) * e1
    rho = np.linalg.norm(w)
    if rho < tol.frame:
        raise DegenerateFrame("first three vertices are collinear")
    e2 = w / rho
    return poly.with_positions(pos @ np.array([e1, e2, np.cross(e1, e2)]).T)


def _stacked_residual(geom: FaceGeometry, target):
    return np.concatenate([geom.planarity_residuals(), geom.angles - target])


def _gauss_newton_step(jac, rhs, tol: Tolerances):
    """Minimum-norm least-squares solution of ``jac @ step = rhs`` by a
    complete orthogonal factorization, with the rank cut at ``tol.rank_svd``."""
    step, *_ = scipy.linalg.lstsq(jac, rhs, cond=tol.rank_svd, lapack_driver="gelsy")
    return step


def realize_angles(poly: EmbeddedPolyhedron, target, opts: DeformOptions = DeformOptions(),
                   tol: Tolerances = DEFAULT) -> DeformResult:
    """Deform an embedding until its dihedral angles match ``target``.

    Parameters
    ----------
    poly : valid convex embedding used as the starting point
    target : per-edge angles in (0, pi), in lexicographic edge order; must be
        close enough to the current angles for local convergence (use
        :func:`continuation_path` for larger moves)
    opts : iteration budget, residual tolerance and trust radius

    Returns a ``DeformResult`` whose ``final`` embedding is gauge-fixed and
    achieves the target within ``opts.residual_tol`` in sup norm.  Raises
    ``NoConvergence``, ``ConvexityLost`` or ``BallExit``; the first suggests
    more continuation steps, the second that the target leaves the convex
    cell.  Raises ``ValueError`` when the starting residual is not finite.
    """
    comb = poly.combinatorics
    target = validate_angle_vector(target, comb.edge_count)
    current = poly
    geom = FaceGeometry(current, tol)   # one evaluation per iterate, shared
    residual = _stacked_residual(geom, target)
    history = [float(np.max(np.abs(residual)))]
    if not np.isfinite(history[0]):
        raise ValueError(f"initial residual {history[0]} is not finite")
    n_planar = len(comb.planarity_pairs)
    planar_history = [float(np.max(np.abs(residual[:n_planar]), initial=0.0))]

    iterations = 0
    while history[-1] > opts.residual_tol:
        if iterations >= opts.max_iterations:
            raise NoConvergence(
                f"residual {history[-1]:.3e} after {iterations} iterations"
            )
        jac = np.vstack([geom.constraint_jacobian(), geom.angle_jacobian()])
        step = _gauss_newton_step(jac, -residual, tol)
        damping = 1.0
        while damping * np.max(np.abs(step)) > opts.trust_radius:
            damping *= 0.5
            if damping < tol.damping_floor:
                raise NoConvergence("trust-radius damping underflow")
        new_pos = current.positions + damping * step.reshape(-1, 3)
        if np.max(np.linalg.norm(new_pos, axis=1)) >= 1.0 - tol.ball:
            raise BallExit("a vertex left the unit ball")
        candidate = current.with_positions(new_pos)
        geom = FaceGeometry(candidate, tol)
        margins = geom.convexity_margins()
        if margins.size and margins.min() <= 0.0:
            raise ConvexityLost(
                f"convexity margin {margins.min():.3e} crossed zero"
            )
        current = candidate
        residual = _stacked_residual(geom, target)
        history.append(float(np.max(np.abs(residual))))
        planar_history.append(float(np.max(np.abs(residual[:n_planar]), initial=0.0)))
        iterations += 1

    # Dihedral angles are isometry invariants, so the converged iterate's
    # angles are those of its gauge-fixed image up to rounding.
    return DeformResult(
        final=gauge_fix(current, tol),
        iterations_used=iterations,
        residual_history=history,
        planarity_history=planar_history,
        achieved_angles=geom.angles,
        gauge="vertex0 at origin, vertex1 on +x, vertex2 in upper xy half-plane",
    )


def continuation_path(poly: EmbeddedPolyhedron, target, n_steps=1,
                      opts: DeformOptions = DeformOptions(),
                      tol: Tolerances = DEFAULT):
    """Chain ``realize_angles`` along a straight segment in angle space.

    Interpolates linearly from the current angles to ``target`` in
    ``n_steps`` waypoints, seeding each solve with the previous result.
    Returns the list of per-waypoint results.  Raises ``ValueError`` when
    ``n_steps`` is below 1.  Solver errors are re-raised with ``waypoint``
    set to the failing index and ``results`` holding the completed prefix.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be at least 1, got {n_steps}")
    comb = poly.combinatorics
    target = validate_angle_vector(target, comb.edge_count)
    start = dihedral_angles(poly, tol)
    results = []
    current = poly
    for k in range(1, n_steps + 1):
        waypoint = start + (k / n_steps) * (target - start)
        try:
            result = realize_angles(current, waypoint, opts, tol)
        except (NoConvergence, ConvexityLost, BallExit) as exc:
            exc.waypoint = k - 1
            exc.results = results
            raise
        results.append(result)
        current = result.final
    return results
