import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm, subspace_angles

from helpers import (
    collapsed_corner_tetrahedron,
    finite_difference_jacobian,
    random_isometry,
    random_polar_dual,
    random_polyhedra,
    random_simplicial_hull,
    rigidity_report_reference,
    svd_nullspace,
)
from stokerlab import fixtures, lorentz
from stokerlab.config import DEFAULT
from stokerlab.errors import DegenerateFace, DimensionMismatch, RankDeficiency
from stokerlab.polyhedron import EmbeddedPolyhedron, dihedral_angles, planarity_residuals
from stokerlab.rigidity import (
    angle_jacobian,
    constraint_jacobian,
    isometry_directions,
    nullspace,
    numerical_rank,
    rigidity_report,
    tangent_space,
)

SCALES = (0.1, 0.3, 0.5)


def reshape_positions(poly, flat):
    return poly.with_positions(np.asarray(flat).reshape(-1, 3))


class TestConstraintJacobian:
    def test_tetrahedron_is_empty(self):
        jac = constraint_jacobian(fixtures.tetrahedron())
        assert jac.shape == (0, 12)

    def test_cube_shape_and_rank(self):
        jac = constraint_jacobian(fixtures.cube(0.3))
        assert jac.shape == (6, 24)
        sing = np.linalg.svd(jac, compute_uv=False)
        assert numerical_rank(sing, 1e-9) == 6

    @pytest.mark.parametrize("name", sorted(fixtures.STANDARD))
    def test_matches_finite_differences(self, name):
        poly = fixtures.STANDARD[name](0.3)
        analytic = constraint_jacobian(poly)
        if analytic.shape[0] == 0:
            return  # fully triangulated: nothing to differentiate
        fd = finite_difference_jacobian(
            lambda x: planarity_residuals(reshape_positions(poly, x)),
            poly.positions.ravel(),
        )
        assert np.max(np.abs(analytic - fd)) < 1e-6


class TestAngleJacobian:
    @pytest.mark.parametrize("name", sorted(fixtures.STANDARD))
    def test_matches_finite_differences(self, name):
        poly = fixtures.STANDARD[name](0.3)
        fd = finite_difference_jacobian(
            lambda x: dihedral_angles(reshape_positions(poly, x)),
            poly.positions.ravel(),
        )
        assert np.max(np.abs(angle_jacobian(poly) - fd)) < 1e-6

    def test_regular_tetrahedron_row_norms_equal(self):
        jac = angle_jacobian(fixtures.tetrahedron(0.3))
        norms = np.linalg.norm(jac, axis=1)
        assert np.ptp(norms) < 1e-10

    def test_relabeling_equivariance(self):
        poly = fixtures.tetrahedron(0.3)
        comb = poly.combinatorics
        perm = np.array([1, 2, 3, 0])
        new_faces = [[int(perm[v]) for v in f] for f in comb.faces]
        new_pos = np.empty_like(poly.positions)
        for old, new in enumerate(perm):
            new_pos[new] = poly.positions[old]
        relabeled = EmbeddedPolyhedron(
            poly.combinatorics.__class__(4, new_faces), new_pos
        )
        jac = angle_jacobian(poly)
        jac2 = angle_jacobian(relabeled)
        comb2 = relabeled.combinatorics
        for k, (a, b) in enumerate(comb.edges):
            image = (min(perm[a], perm[b]), max(perm[a], perm[b]))
            row2 = jac2[comb2.edge_index[image]]
            for old in range(4):
                new = perm[old]
                assert np.max(
                    np.abs(jac[k, 3 * old:3 * old + 3] - row2[3 * new:3 * new + 3])
                ) < 1e-12


class TestTangentSpace:
    @pytest.mark.parametrize(
        "name,expected",
        [("tetrahedron", 12), ("cube", 18), ("triangular_prism", 15),
         ("pentagonal_pyramid", 16)],
    )
    def test_dimension_is_edges_plus_six(self, name, expected):
        poly = fixtures.STANDARD[name](0.3)
        basis = tangent_space(poly)
        assert basis.shape[1] == expected == poly.combinatorics.edge_count + 6
        assert np.max(np.abs(basis.T @ basis - np.eye(expected))) < 1e-12

    def test_degenerate_embedding_rejected(self):
        poly = fixtures.cube(0.3)
        flat = poly.with_positions(poly.positions * np.array([1.0, 1.0, 0.0]))
        with pytest.raises(DimensionMismatch):
            tangent_space(flat)


EPS = np.finfo(float).eps
REL = DEFAULT.rank_svd
# Bounds for an m x n planted matrix of norm 1, fixed from eps before any
# run.  Householder reflectors are orthonormal to a small multiple of n eps
# (worst seen 1.7 n eps).  Under column pivoting the multipliers
# R11^-1 R12 stay of order 1, so the trailing block of the QR, which is
# ``matrix @ basis``, is at most about (n + 1) times the largest dropped
# singular value plus rounding (worst seen 0.9 times that sum, Frobenius).
# A basis with residual delta makes a sine of at most
# (delta + sigma_{r+1}) / sigma_r with the true nullspace, and the SVD
# reference makes less; twice the residual bound covers both.
ORTHONORMAL_C = 8
RESIDUAL_C = 4


@st.composite
def planted_rank_matrices(draw):
    """U S V^T with Haar-random U, V and a planted spectrum, 10x away from
    the ``rank_svd`` cutoff on both sides: r kept values log-uniform in
    [10 REL, 1] with the first at 1, and the rest either exactly 0 or
    log-uniform in [1e-3 REL, REL / 10].  Shapes run over wide and tall,
    zero rows (m = 0), rank 0 (the zero matrix) and full rank."""
    m, n = draw(st.integers(0, 12)), draw(st.integers(1, 12))
    k = min(m, n)
    r = draw(st.integers(0, k))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kept = np.sort(10.0 ** rng.uniform(np.log10(10 * REL), 0.0, r))[::-1]
    kept[:1] = 1.0
    dropped = np.zeros(k - r)
    if r and draw(st.booleans()):
        dropped = 10.0 ** rng.uniform(np.log10(1e-3 * REL), np.log10(REL / 10), k - r)
    u = np.linalg.qr(rng.normal(size=(m, m)))[0][:, :k]
    v = np.linalg.qr(rng.normal(size=(n, n)))[0][:, :k]
    return (u * np.concatenate([kept, dropped])) @ v.T, kept, dropped


class TestNullspace:
    """The column-pivoted QR nullspace against the full-SVD reference."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(planted_rank_matrices())
    def test_matches_svd_reference(self, case):
        matrix, kept, dropped = case
        n = matrix.shape[1]
        basis = nullspace(matrix, REL)
        reference = svd_nullspace(matrix, REL)
        assert basis.shape == reference.shape == (n, n - len(kept))
        width = basis.shape[1]
        assert np.max(np.abs(basis.T @ basis - np.eye(width)), initial=0.0) \
            <= ORTHONORMAL_C * n * EPS
        residual = RESIDUAL_C * ((n + 1) * np.max(dropped, initial=0.0) + n * EPS)
        assert np.linalg.norm(matrix @ basis) <= residual
        if width and len(kept):
            sines = np.sin(subspace_angles(basis, reference))
            assert np.max(sines) <= 2 * residual / kept[-1]

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(planted_rank_matrices())
    def test_leaves_its_input_unchanged(self, case):
        """The workspace query takes the operand without a copy; the
        factorization still copies, so the caller's matrix survives."""
        matrix = case[0]
        before = matrix.copy()
        nullspace(matrix, REL)
        assert np.array_equal(matrix, before)

    def test_non_finite_matrix_raises(self):
        with pytest.raises(np.linalg.LinAlgError, match="nullspace of a non-finite matrix"):
            nullspace(np.array([[np.nan, 1.0]]), 1e-9)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(random_polyhedra(24))
    def test_tangent_width_matches_svd_reference(self, poly):
        width = svd_nullspace(constraint_jacobian(poly), REL).shape[1]
        assert tangent_space(poly).shape[1] == width == poly.combinatorics.edge_count + 6


class TestIsometryDirections:
    def test_rank_six(self):
        cols = isometry_directions(fixtures.tetrahedron(0.3))
        assert cols.shape == (12, 6)
        assert np.linalg.matrix_rank(cols) == 6

    @pytest.mark.parametrize("name", sorted(fixtures.STANDARD))
    def test_annihilated_by_both_jacobians(self, name):
        poly = fixtures.STANDARD[name](0.3)
        cols = isometry_directions(poly)
        constraints = constraint_jacobian(poly)
        if constraints.size:
            assert np.max(np.abs(constraints @ cols)) < 1e-9
        assert np.max(np.abs(angle_jacobian(poly) @ cols)) < 1e-8

    @pytest.mark.parametrize("poly", [
        fixtures.cube(0.3), random_simplicial_hull(3, 12), random_polar_dual(5, 10),
    ], ids=["cube", "hull12", "dual10"])
    def test_columns_match_finite_differences(self, poly):
        cols = isometry_directions(poly)
        lifts = np.array([lorentz.klein_lift(p) for p in poly.positions])

        def moved(gen, t):
            y = lifts @ expm(t * gen).T
            return (y[:, :3] / y[:, 3:]).ravel()

        step = 1e-6
        for j, gen in enumerate(lorentz.so31_basis()):
            fd = (moved(gen, step) - moved(gen, -step)) / (2 * step)
            assert np.max(np.abs(cols[:, j] - fd)) < 1e-6

    def test_collinear_vertices_are_rank_deficient(self):
        # every rotation about the common line fixes all four vertices
        tetra = fixtures.tetrahedron(0.3)
        line = np.outer(np.linspace(-0.3, 0.3, 4), [1.0, 2.0, 2.0]) / 3.0
        with pytest.raises(RankDeficiency):
            isometry_directions(tetra.with_positions(line))


class TestRigidityReport:
    @pytest.mark.parametrize("name", sorted(fixtures.STANDARD))
    @pytest.mark.parametrize("scale", SCALES)
    def test_certified_with_spectral_gap(self, name, scale):
        poly = fixtures.STANDARD[name](scale)
        report = rigidity_report(poly)
        e = poly.combinatorics.edge_count
        assert report.certified, report.notes
        assert report.tangent_dim == e + 6
        assert report.angle_rank == e
        assert report.kernel_dim == 6
        assert report.isometry_containment_residual < 1e-6
        assert report.spectral_gap > 1e-6

    @pytest.mark.parametrize("name, dims", [
        ("tetrahedron", (12, 5, 7)), ("triangular_prism", (15, 8, 7)),
        ("cube", (18, 10, 8)), ("pentagonal_pyramid", (16, 9, 7)),
    ])
    def test_loose_rank_cut_keeps_rank_and_kernel_consistent(self, name, dims):
        """Near-flat fixtures with every threshold scaled by 1e5 lose angle
        rank.  The rank counts the singular values of the QR's R factor and
        the kernel is the trailing columns of its Q, so they add up to the
        tangent dimension."""
        poly = fixtures.STANDARD[name](0.02)
        tol = DEFAULT.scaled(1e5)
        report = rigidity_report(poly, tol)
        e = poly.combinatorics.edge_count
        assert not report.certified
        assert (report.tangent_dim, report.angle_rank, report.kernel_dim) == dims
        assert report.angle_rank + report.kernel_dim == report.tangent_dim
        assert f"angle rank {report.angle_rank} != |E| = {e}" in report.notes
        assert f"kernel dimension {report.kernel_dim} != 6" in report.notes

    def test_coplanar_input_not_certified(self):
        poly = fixtures.cube(0.3)
        flat = poly.with_positions(poly.positions * np.array([1.0, 1.0, 0.0]))
        report = rigidity_report(flat)
        assert not report.certified
        assert any("nullity" in note for note in report.notes)

    def test_flat_cube_report_ends_at_the_nullity(self):
        """A constraint nullity other than |E| + 6 ends the report before the
        angle Jacobian is read: no dimensions, no singular values, no
        principal angle."""
        poly = fixtures.cube(0.3)
        flat = poly.with_positions(poly.positions * np.array([1.0, 1.0, 0.0]))
        report = rigidity_report(flat)
        assert (report.tangent_dim, report.angle_rank, report.kernel_dim) == (-1, -1, -1)
        assert report.notes == ["constraint nullity 22 != |E| + 6 = 18"]
        assert report.spectral_gap == 0.0
        assert report.isometry_containment_residual == np.inf
        assert report.singular_values.size == 0

    def test_principal_angle_note(self):
        """With a zero principal-angle threshold the cube's kernel, which
        matches the isometries to rounding, fails on that note alone."""
        tol = dataclasses.replace(DEFAULT, principal_angle=0.0)
        report = rigidity_report(fixtures.cube(0.3), tol)
        residual = report.isometry_containment_residual
        assert not report.certified
        assert (report.angle_rank, report.kernel_dim) == (12, 6)
        assert report.notes == [f"kernel/isometry principal angle {residual:.3e} too large"]
        assert 0.0 <= residual < DEFAULT.principal_angle

    def test_degenerate_face_raises(self):
        """Invalid input geometry raises, as from ``dihedral_angles``; only a
        failed certificate, such as the flat cube's nullity above, is a note."""
        with pytest.raises(DegenerateFace, match="three points do not span a plane"):
            rigidity_report(collapsed_corner_tetrahedron())

    def test_invariant_under_isometries_and_rescaling(self):
        poly = fixtures.triangular_prism(0.2)
        base = rigidity_report(poly)
        rng = np.random.default_rng(3)
        for _ in range(3):
            iso = random_isometry(rng, scale=0.3)
            moved = poly.with_positions(lorentz.apply_isometry(iso, poly.positions))
            report = rigidity_report(moved)
            assert (report.tangent_dim, report.angle_rank, report.kernel_dim) == (
                base.tangent_dim, base.angle_rank, base.kernel_dim,
            )
            assert report.certified
        for scale in SCALES:
            report = rigidity_report(fixtures.triangular_prism(scale))
            assert (report.tangent_dim, report.angle_rank, report.kernel_dim) == (
                base.tangent_dim, base.angle_rank, base.kernel_dim,
            )


# Bounds of the QR route against the full-SVD reference, fixed before any
# run: singular values within about 450 eps of sigma_1, and the largest
# principal angle within 1e-11 absolute (both routes are backward stable,
# and the angle is amplified by at most the conditioning sigma_1 / sigma_|E|).
SIGMA_BOUND = 1e-13
RESIDUAL_BOUND = 1e-11


def assert_matches_reference(poly, tol=DEFAULT):
    report, reference = rigidity_report(poly, tol), rigidity_report_reference(poly, tol)
    for field in ("tangent_dim", "angle_rank", "kernel_dim", "certified", "notes"):
        assert getattr(report, field) == getattr(reference, field), field
    sing, ref = report.singular_values, reference.singular_values
    assert sing.shape == ref.shape
    assert np.max(np.abs(sing - ref), initial=0.0) <= SIGMA_BOUND * ref[0]
    assert abs(report.isometry_containment_residual
               - reference.isometry_containment_residual) <= RESIDUAL_BOUND


class TestRigidityReportReference:
    """``rigidity_report`` against the explicit tangent basis, full SVD and
    ``subspace_angles`` of ``rigidity_report_reference``."""

    @pytest.mark.parametrize("name", sorted(fixtures.STANDARD))
    @pytest.mark.parametrize("scale", (0.02, 0.3, 0.9))
    def test_fixtures(self, name, scale):
        assert_matches_reference(fixtures.STANDARD[name](scale))

    @pytest.mark.parametrize("name", sorted(fixtures.STANDARD))
    def test_fixtures_at_the_loose_rank_cut(self, name):
        assert_matches_reference(fixtures.STANDARD[name](0.02), DEFAULT.scaled(1e5))

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(random_polyhedra(20))
    def test_random_polyhedra(self, poly):
        assert_matches_reference(poly)
