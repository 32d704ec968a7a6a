"""Constructive angle realization: deform an embedding to target angles.

The solver runs Gauss-Newton on the stacked residual

    [planarity determinants; dihedral angles - target]

over all vertex coordinates, its Jacobian J scattered once per iterate
(``FaceGeometry.bordered_jacobian``).  Each step is the minimum-norm
least-squares solution wherever the faces are planar, which never moves
along the 6-dimensional isometry kernel of J; the remaining gauge freedom
is removed afterwards by a canonical frame (vertex 0 at the origin, vertex
1 on the positive x-axis, vertex 2 in the upper half of the xy-plane).

At a convex embedding the stacked Jacobian J has full row rank 3|V| - 6 (the
angles locally parameterize the polyhedron), and its kernel is spanned by
the velocities K of the six infinitesimal isometries: the angles are
isometry invariants, and so is the planarity of a face.  So the square
system B x = [rhs; 0], B = [J; K^T], has one solution: J x = rhs with x
orthogonal to the kernel, which is the minimum-norm step.  It is solved by
one LU factorization with partial pivoting (LAPACK ``getrf``), backward
stable in practice with an error bound of order cond(B) eps (Higham,
*Accuracy and Stability of Numerical Algorithms*, 2nd ed., SIAM 2002,
ch. 9), at half the flops of a QR of J^T.  Off the planar set, J K is of the
order of the planarity residuals, and x is the Newton step J x = rhs with
no component along K.  The normal equations square cond(J) and lost 2e-7
of the step on a 160-point dual.  Where B has lost its rank (see
``_gauss_newton_step``), the iterate has left the regime where the angles
parameterize the polyhedron: the solver stops with ``NoConvergence``
instead of cutting the rank.

The loop stops once the residual's sup norm is at most ``residual_tol``,
so a NaN residual runs on into a non-finite system (``ValueError``).  A
step is scaled into ``trust_radius`` by the power of two that halving from 1
reaches.  A trial point stops the solve with ``BallExit`` or
``ConvexityLost`` unless it passes the embedding judge's own predicates,
``lorentz.inside_ball`` and ``polyhedron.strictly_convex``.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import lorentz
from .config import DEFAULT, Tolerances
from .errors import BallExit, ConvexityLost, DegenerateFrame, NoConvergence, SolverError
from .polyhedron import (
    EmbeddedPolyhedron,
    FaceGeometry,
    dihedral_angles,
    strictly_convex,
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
    r1 = math.sqrt(p1 @ p1)
    if r1 < tol.frame:
        raise DegenerateFrame("first two vertices coincide")
    e1 = p1 / r1
    w = p2 - (p2 @ e1) * e1
    rho = math.sqrt(w @ w)
    if rho < tol.frame:
        raise DegenerateFrame("first three vertices are collinear")
    e2 = w / rho
    return poly.with_positions(pos @ np.array([e1, e2, lorentz._cross(e1, e2)]).T)


def _stacked_residual(geom: FaceGeometry, target):
    return np.concatenate([geom.planarity_residuals(), geom.angles - target])


def _gauss_newton_step(system, rhs, tol: Tolerances):
    """The solution x of B x = [rhs; 0], B = [J; K^T] = ``system`` the
    Jacobian bordered by the six isometry rows, by one LU factorization.

    Consumes ``system``: LAPACK ``dgetrf`` factors B^T = P L U in place, on
    the Fortran-ordered transpose of a C-ordered B, so pass a copy to keep
    B.  The 1-norm of B^T (``dlange``) is read before, for the condition
    estimate (``dgecon``) after; ``dgetrs`` then solves (B^T)^T x = [rhs; 0]
    through the same factor.  There is no copy of B and no |B| temporary.
    Where the faces are planar, J annihilates K, so x is J's minimum-norm
    solution (the module docstring); elsewhere it is the Newton step J x =
    rhs with no component along K.

    Raises ``NoConvergence`` when J has lost its full row rank: more than
    3|V| - 6 rows, or B estimated no better conditioned than 1 /
    ``tol.rank_svd``.  Raises ``ValueError`` on a non-finite system, or
    one not bordered to a square.
    """
    from scipy.linalg import lapack
    if not (np.isfinite(system).all() and np.isfinite(rhs).all()):
        raise ValueError("Gauss-Newton system is not finite")
    m, n = len(rhs), system.shape[1]
    if m > n - 6:
        raise NoConvergence(f"Jacobian lost rank: {m} rows exceed 3|V| - 6 = {n - 6}")
    if system.shape != (n, n):
        raise ValueError(f"Gauss-Newton system of shape {system.shape} is not square")
    anorm = lapack.dlange("1", system.T)
    lu, piv, _ = lapack.dgetrf(system.T, overwrite_a=1)
    rcond, _ = lapack.dgecon(lu, anorm)
    if not rcond > tol.rank_svd:
        raise NoConvergence(f"Jacobian lost rank: reciprocal condition estimate "
                            f"{rcond:.1e} at or below the cut {tol.rank_svd:.1e}")
    padded = np.zeros((n, 1))
    padded[:m, 0] = rhs
    step, _ = lapack.dgetrs(lu, piv, padded, trans=1, overwrite_b=1)
    return step[:, 0]


def _trust_damping(largest, trust_radius):
    """2^-k for the least k >= 0 with 2^-k largest <= trust_radius, from the exponents."""
    if not math.isfinite(largest):
        raise ValueError(f"Gauss-Newton step is not finite (sup norm {largest})")
    (m, e), (m_trust, e_trust) = math.frexp(largest), math.frexp(trust_radius)
    return 1.0 if largest <= trust_radius else math.ldexp(1.0, e_trust - e - (m > m_trust))


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
    ``NoConvergence`` (more continuation steps may help, or, as its message
    says, the Jacobian lost rank), ``ConvexityLost`` (the target leaves the
    convex cell) or ``BallExit`` by the stop rules of the module docstring,
    and ``ValueError`` when a Gauss-Newton system or step is not finite.
    """
    comb = poly.combinatorics
    target = validate_angle_vector(target, comb.edge_count)
    n_planar = len(comb.planarity_pairs)
    current = poly
    geom = FaceGeometry(current, tol)   # one evaluation per iterate, shared
    history, planar_history = [], []
    while True:
        residual = _stacked_residual(geom, target)
        magnitude = abs(residual)
        history.append(float(magnitude.max()))
        planar_history.append(float(magnitude[:n_planar].max(initial=0.0)))
        iterations = len(history) - 1
        if history[-1] <= opts.residual_tol:    # the passing condition, so NaN runs on
            break
        if iterations >= opts.max_iterations:
            raise NoConvergence(f"residual {history[-1]:.3e} after {iterations} iterations")
        # B is consumed and freed by the step: held until the next B exists,
        # it faulted its pages in anew on most iterates.
        step = _gauss_newton_step(geom.bordered_jacobian(), -residual, tol)
        damping = _trust_damping(abs(step).max(), opts.trust_radius)
        new_pos = current.positions + damping * step.reshape(-1, 3)
        if not lorentz.inside_ball(lorentz._dot3(new_pos, new_pos).max(), tol):
            raise BallExit("a vertex left the unit ball")
        current = current.with_positions(new_pos)   # a stop below ends the solve
        geom = FaceGeometry(current, tol)
        margin = geom.min_convexity_margin()
        if not strictly_convex(margin, tol):
            raise ConvexityLost(f"convexity margin {margin:.3e} crossed zero")

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
    target = validate_angle_vector(target, poly.combinatorics.edge_count)
    start = dihedral_angles(poly, tol)
    results = []
    current = poly
    for k in range(1, n_steps + 1):
        waypoint = start + (k / n_steps) * (target - start)
        try:
            result = realize_angles(current, waypoint, opts, tol)
        except SolverError as exc:
            exc.waypoint = k - 1
            exc.results = results
            raise
        results.append(result)
        current = result.final
    return results
