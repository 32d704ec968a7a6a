"""Constructive angle realization: deform an embedding to target angles.

The solver runs Gauss-Newton on the stacked residual

    [planarity determinants; dihedral angles - target]

over all vertex coordinates, its Jacobian J scattered once per iterate
(``FaceGeometry.jacobian``).  Each step is the minimum-norm least-squares
solution, which never moves along the 6-dimensional isometry kernel of J;
the remaining gauge freedom is removed afterwards by a canonical frame
(vertex 0 at the origin, vertex 1 on the positive x-axis, vertex 2 in the
upper half of the xy-plane).

At a convex embedding the stacked Jacobian J has full row rank 3|V| - 6 (the
angles locally parameterize the polyhedron).  The step is then the
minimum-norm solution Q [R^-T rhs; 0] of one Householder QR J^T = QR (LAPACK
``geqrf``), with an error bound of order cond(J) eps (Demmel & Higham, SIAM
J. Matrix Anal. Appl. 14, 1993); the normal equations square cond(J) and
lost 2e-7 of the step on a 160-point dual.  Where J has lost that rank (see
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
from scipy.linalg import lapack

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


def _gauss_newton_step(jac, rhs, tol: Tolerances):
    """Minimum-norm solution Q R^-T rhs of ``jac @ step = rhs``, J^T = QR.

    Consumes ``jac``: the factor overwrites a C-ordered J (whose transpose
    is Fortran-ordered), so pass a copy to keep J.  ``dtrtrs`` reads R in
    the tall factor; ``dtrcon`` gets a square copy of R, since its wrapper
    strides by the column count and would misread the factor.  The copy is
    made afresh each step: one buffer held across a solve faulted about
    three times as many pages over the benchmark's realize ladder, as a
    long-lived block moves where the allocator trims the heap.

    Raises ``NoConvergence`` when J has lost its full row rank: more rows
    than columns, or R estimated no better conditioned than 1 /
    ``tol.rank_svd``.  Raises ``ValueError`` on a non-finite system.
    """
    if not (np.isfinite(jac).all() and np.isfinite(rhs).all()):
        raise ValueError("Gauss-Newton system is not finite")
    m, n = jac.shape
    if m > n:
        raise NoConvergence(f"Jacobian lost rank: {m} rows exceed its {n} columns")
    lwork = int(lapack.dgeqrf_lwork(n, m)[0])
    qr, tau, _, _ = lapack.dgeqrf(jac.T, lwork=lwork, overwrite_a=1)
    rcond, _ = lapack.dtrcon(np.asfortranarray(qr[:m]))
    if not rcond > tol.rank_svd:
        raise NoConvergence(f"Jacobian lost rank: reciprocal condition estimate "
                            f"{rcond:.1e} at or below the cut {tol.rank_svd:.1e}")
    y, _ = lapack.dtrtrs(qr, rhs, trans=1)
    padded = np.zeros((n, 1))
    padded[:m, 0] = y
    # lwork 1: the unblocked sweep, cheaper than block reflectors for one column.
    step, _, _ = lapack.dormqr("L", "N", qr, tau, padded, 1, overwrite_c=1)
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
        # Consumed by the step; held until the next J exists, as pages freed re-fault.
        jac = geom.jacobian()
        step = _gauss_newton_step(jac, -residual, tol)
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
