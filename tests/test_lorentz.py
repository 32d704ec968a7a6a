import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from helpers import (
    collapsed_corner_tetrahedron,
    dot3_reference,
    elliptic,
    klein_project,
    pure_boost_reference,
    random_isometry,
    random_polyhedra,
    rotation,
    same_bits,
    segment_length,
    sl2c_to_so31,
    translation_to_origin_reference,
    unit_normals_reference,
)
from stokerlab import fixtures, lorentz
from stokerlab.config import DEFAULT, Tolerances
from stokerlab.errors import BallBoundary, DegenerateFace, LiftFailure
from stokerlab.polyhedron import FaceGeometry

E1 = np.array([1.0, 0.0, 0.0, 0.0])
E4 = np.array([0.0, 0.0, 0.0, 1.0])


class TestMinkowskiInner:
    def test_signature(self):
        assert lorentz.minkowski_inner(E4, E4) == -1.0
        assert lorentz.minkowski_inner(E1, E1) == 1.0

    def test_matches_componentwise_sum(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            u = rng.normal(size=4)
            v = rng.normal(size=4)
            expected = sum(u[i] * v[i] for i in range(3)) - u[3] * v[3]
            assert lorentz.minkowski_inner(u, v) == pytest.approx(expected, abs=1e-15)


class TestKleinLift:
    def test_origin(self):
        assert np.allclose(lorentz.klein_lift([0.0, 0.0, 0.0]), E4)

    def test_exact_radial_point(self):
        # 1/sqrt(1 - 0.36) = 1.25 exactly
        assert np.allclose(lorentz.klein_lift([0.6, 0.0, 0.0]), [0.75, 0.0, 0.0, 1.25])

    def test_lift_lands_on_hyperboloid(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            p = rng.normal(size=3)
            p *= 0.9 / np.linalg.norm(p)
            v = lorentz.klein_lift(p)
            assert abs(lorentz.minkowski_inner(v, v) + 1.0) < 1e-12
            assert v[3] > 0

    def test_boundary_rejected(self):
        with pytest.raises(BallBoundary):
            lorentz.klein_lift([1.0, 0.0, 0.0])
        with pytest.raises(BallBoundary):
            lorentz.klein_lift([0.9999999999, 0.0, 0.0])

    def test_nan_rejected(self):
        p = np.array([0.1, np.nan, 0.0])
        with pytest.raises(BallBoundary):
            lorentz.klein_lift(p)
        with pytest.raises(BallBoundary):
            lorentz.plane_through(p, np.array([0.2, 0.0, 0.0]), np.array([0.0, 0.0, 0.3]))

    def test_project_inverts_lift(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            p = rng.uniform(-0.55, 0.55, 3)
            assert np.max(np.abs(klein_project(lorentz.klein_lift(p)) - p)) < 1e-13


class TestHyperbolicDistance:
    def test_coincident(self):
        p = np.array([0.1, -0.2, 0.3])
        assert lorentz.hyperbolic_distance(p, p) == 0.0

    def test_radial_parameterization(self):
        assert lorentz.hyperbolic_distance([0.0, 0.0, 0.0], [np.tanh(1.0), 0.0, 0.0]) == pytest.approx(
            1.0, abs=1e-14
        )

    def test_matches_quadrature(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            p = rng.uniform(-0.5, 0.5, 3)
            q = rng.uniform(-0.5, 0.5, 3)
            assert lorentz.hyperbolic_distance(p, q) == pytest.approx(
                segment_length(p, q), abs=1e-8
            )

    def test_symmetry(self):
        p = np.array([0.3, 0.1, -0.2])
        q = np.array([-0.4, 0.2, 0.1])
        assert lorentz.hyperbolic_distance(p, q) == pytest.approx(
            lorentz.hyperbolic_distance(q, p), abs=1e-15
        )


class TestPlaneThrough:
    def test_coordinate_plane_oriented_by_point_order(self):
        # counterclockwise seen from above, so the normal points up
        pts = [np.array([0.2, 0.0, 0.0]), np.array([0.0, 0.3, 0.0]), np.array([-0.1, -0.2, 0.0])]
        normal = lorentz.plane_through(*pts)
        assert normal.shape == (4,)
        assert np.allclose(normal, [0.0, 0.0, 1.0, 0.0], atol=1e-14)
        assert lorentz.minkowski_inner(normal, lorentz.klein_lift(np.array([0.0, 0.0, 0.5]))) > 0
        flipped = lorentz.plane_through(pts[0], pts[2], pts[1])
        assert np.array_equal(flipped, -normal)

    def test_collinear_points_rejected(self):
        pts = [np.array([0.1, 0.0, 0.0]), np.array([0.2, 0.0, 0.0]), np.array([0.3, 0.0, 0.0])]
        with pytest.raises(DegenerateFace):
            lorentz.plane_through(*pts)

    def test_timelike_normal_rejected(self):
        """Three points on the plane x = 0.92: its normal (a, b) has
        q / span = (|a|^2 - b^2) / (|a|^2 + b^2) = (1 - 0.92^2) / (1 + 0.92^2),
        about 0.083, below rank_rel = 0.1.  No ``DEFAULT.scaled(k)`` reaches
        this branch: for points inside radius 1 - ball, q / span is above
        about ``ball``, which stays 10 times ``rank_rel`` under any scaling,
        so the record here sets rank_rel alone."""
        pts = [0.92, 0.3, 0.0], [0.92, -0.15, 0.26], [0.92, -0.15, -0.26]
        with pytest.raises(DegenerateFace, match="normal direction is not spacelike"):
            lorentz.plane_through(*pts, Tolerances(rank_rel=0.1))

    def test_contains_its_points(self):
        rng = np.random.default_rng(5)
        checked = 0
        for _ in range(10):
            pts = [rng.uniform(-0.5, 0.5, 3) for _ in range(3)]
            try:
                normal = lorentz.plane_through(*pts)
            except DegenerateFace:
                continue
            assert abs(lorentz.minkowski_inner(normal, normal) - 1.0) < 1e-12
            for p in pts:
                assert abs(lorentz.minkowski_inner(normal, lorentz.klein_lift(p))) < 1e-12
            # seen from a point on the normal's side, p1 -> p2 -> p3 turns
            # counterclockwise: the triple product with that point is positive
            probe = rng.uniform(-0.5, 0.5, 3)
            side = lorentz.minkowski_inner(normal, lorentz.klein_lift(probe))
            if abs(side) > 1e-9:
                u, w, x = pts[1] - pts[0], pts[2] - pts[0], probe - pts[0]
                assert np.sign(np.linalg.det(np.column_stack([u, w, x]))) == np.sign(side)
                checked += 1
        assert checked >= 8


class TestReflect:
    def _random_normal(self, rng):
        while True:
            pts = [rng.uniform(-0.5, 0.5, 3) for _ in range(3)]
            try:
                return lorentz.plane_through(*pts)
            except DegenerateFace:
                continue

    def test_coordinate_plane(self):
        assert np.allclose(lorentz.reflect([0.0, 0.0, 1.0, 0.0]), np.diag([1.0, 1.0, -1.0, 1.0]))

    def test_involution(self):
        rng = np.random.default_rng(6)
        r = lorentz.reflect(self._random_normal(rng))
        assert np.max(np.abs(r @ r - np.eye(4))) < 1e-13

    def test_preserves_form(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            r = lorentz.reflect(self._random_normal(rng))
            assert lorentz.isometry_defect(r) < 1e-12


class TestSo31Basis:
    def test_lie_algebra_condition_exact(self):
        for gen in lorentz.so31_basis():
            assert np.all(gen.T @ lorentz.J + lorentz.J @ gen == 0.0)

    def test_gram_rank_six(self):
        gens = lorentz.so31_basis()
        gram = np.array([[np.sum(a * b) for b in gens] for a in gens])
        assert np.linalg.matrix_rank(gram) == 6

    def test_exponentials_are_isometries(self):
        for gen in lorentz.so31_basis():
            mat = expm(0.1 * gen)
            assert lorentz.isometry_defect(mat) < 1e-12
            assert lorentz.is_isometry(mat)

    def test_non_4x4_is_not_an_isometry(self):
        assert not lorentz.is_isometry(np.eye(3))


class TestSl2cLift:
    def test_identity(self):
        s = lorentz.sl2c_lift(np.eye(4))
        assert np.allclose(s, np.eye(2))

    def test_half_turn_has_zero_trace(self):
        rng = np.random.default_rng(10)
        p = rng.uniform(-0.3, 0.3, 3)
        axis = rng.normal(size=3)
        s = lorentz.sl2c_lift(elliptic(p, axis / np.linalg.norm(axis), np.pi))
        assert abs(np.trace(s)) < 1e-10

    def test_elliptic_trace(self):
        rng = np.random.default_rng(11)
        p = rng.uniform(-0.3, 0.3, 3)
        axis = rng.normal(size=3)
        s = lorentz.sl2c_lift(elliptic(p, axis / np.linalg.norm(axis), 1.0))
        assert abs(np.trace(s)) == pytest.approx(2.0 * np.cos(0.5), abs=1e-10)

    def test_two_reflection_product_trace(self):
        """The product of the reflections in two planes through a geodesic
        meeting at angle t is the rotation by 2t, with lift trace 2cos(t)."""
        rng = np.random.default_rng(16)
        for _ in range(10):
            a, b, c, d = rng.uniform(-0.4, 0.4, (4, 3))
            first, second = lorentz.plane_through(a, b, c), lorentz.plane_through(a, b, d)
            t = np.arccos(abs(lorentz.minkowski_inner(first, second)))
            s = lorentz.sl2c_lift(lorentz.reflect(first) @ lorentz.reflect(second))
            assert abs(np.trace(s)) == pytest.approx(2.0 * np.cos(t), abs=1e-10)

    def test_covers_input(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            mat = random_isometry(rng)
            s = lorentz.sl2c_lift(mat)
            assert abs(np.linalg.det(s) - 1.0) < 1e-10
            assert np.max(np.abs(sl2c_to_so31(s) - mat)) < 1e-10

    def test_composition_up_to_sign(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            m1 = random_isometry(rng)
            m2 = random_isometry(rng)
            s12 = lorentz.sl2c_lift(m1 @ m2)
            prod = lorentz.sl2c_lift(m1) @ lorentz.sl2c_lift(m2)
            dist = min(np.linalg.norm(s12 - prod), np.linalg.norm(s12 + prod))
            assert dist < 1e-8

    def test_rejects_non_isometry(self):
        with pytest.raises(LiftFailure):
            lorentz.sl2c_lift(np.diag([2.0, 1.0, 1.0, 1.0]))


class TestIsometryProducts:
    def test_products_stay_isometries(self):
        rng = np.random.default_rng(14)
        mat = np.eye(4)
        for _ in range(20):
            mat = mat @ random_isometry(rng, scale=0.3)
            assert lorentz.isometry_defect(mat) < 1e-10

    def test_apply_isometry_preserves_distance(self):
        rng = np.random.default_rng(15)
        mat = random_isometry(rng)
        p = rng.uniform(-0.3, 0.3, 3)
        q = rng.uniform(-0.3, 0.3, 3)
        moved = lorentz.apply_isometry(mat, np.stack([p, q]))
        assert lorentz.hyperbolic_distance(moved[0], moved[1]) == pytest.approx(
            lorentz.hyperbolic_distance(p, q), abs=1e-12
        )


# --- stacks of isometries ---------------------------------------------------

AXES = np.eye(3)


def boost(rapidities):
    return expm(sum(c * g for c, g in zip(rapidities, lorentz.so31_basis()[3:])))


def isometry_stack(seed, size):
    """Boosted rotations that cover the four choices of P_c in ``sl2c_lift``
    (rotations by less than 2 pick I; by 2.2 to pi about an axis near x, y
    or z they mostly pick s1, s2 or s3), exact half-turns about the axes and
    about random geodesics (zero lift trace, so the sign falls to the entry
    tie-breaks), and random isometries."""
    rng = np.random.default_rng(seed)
    mats = []
    for k in range(size):
        kind = k % 6
        if kind < 4:
            if kind == 0:
                axis, angle = rng.normal(size=3), rng.uniform(0.0, 2.0)
            else:
                axis, angle = AXES[kind - 1] + 0.3 * rng.normal(size=3), rng.uniform(2.2, np.pi)
            axis /= np.linalg.norm(axis)
            mats.append(boost(rng.uniform(-0.8, 0.8, 3)) @ rotation(axis, angle))
        elif kind == 4:
            half_turns = [np.diag(d) for d in ([1.0, -1, -1, 1], [-1.0, 1, -1, 1], [-1.0, -1, 1, 1])]
            p, axis = rng.uniform(-0.3, 0.3, 3), rng.normal(size=3)
            half_turns.append(elliptic(p, axis / np.linalg.norm(axis), np.pi))
            mats.append(half_turns[rng.integers(4)])
        else:
            mats.append(random_isometry(rng, 0.8))
    return np.array(mats)


PAULI = np.array([np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def pauli_choice(lift):
    """Index c of the P_c (I, s1, s2, s3) that maximizes |tr(S* P_c)| for a
    lift S: the matrix ``sl2c_lift`` normalizes, since sum_ab L_ab E_a P_c E_b
    = 2 tr(S* P_c) S."""
    return int(np.argmax([abs(np.trace(lift.conj().T @ p)) for p in PAULI]))


stacks = settings(max_examples=25, deadline=None, derandomize=True)


class TestSl2cLiftStacks:
    def test_fixture_covers_every_branch_and_tie(self):
        mats = isometry_stack(0, 60)
        lifts = lorentz.sl2c_lift(mats)
        assert {pauli_choice(s) for s in lifts} == {0, 1, 2, 3}
        traces = np.trace(lifts, axis1=1, axis2=2)
        assert np.sum(np.abs(traces.real) <= DEFAULT.branch_tie) >= 5

    @stacks
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 13))
    def test_stack_equals_matrices_one_at_a_time(self, seed, size):
        mats = isometry_stack(seed, size)
        lifts = lorentz.sl2c_lift(mats)
        assert lifts.shape == (size, 2, 2)
        for mat, lift in zip(mats, lifts):
            single = lorentz.sl2c_lift(mat)
            assert single.shape == (2, 2)
            assert np.array_equal(single, lift)

    @stacks
    @given(st.integers(0, 2 ** 32 - 1))
    def test_lifts_cover_their_matrices(self, seed):
        mats = isometry_stack(seed, 12)
        lifts = lorentz.sl2c_lift(mats)
        for mat, lift in zip(mats, lifts):
            assert abs(np.linalg.det(lift) - 1.0) < 1e-10
            assert np.max(np.abs(sl2c_to_so31(lift) - mat)) < 1e-10
            tr = np.trace(lift)
            if abs(tr.real) > DEFAULT.branch_tie:
                assert tr.real > 0

    @stacks
    @given(st.integers(0, 2 ** 32 - 1), st.integers(0, 11), st.sampled_from(["form", "det", "time"]))
    def test_one_bad_matrix_fails_the_stack(self, seed, index, defect):
        mats = isometry_stack(seed, 12)
        if defect == "form":
            mats[index, 0, 1] += 1e-6
        elif defect == "det":
            mats[index] = mats[index] @ np.diag([-1.0, 1.0, 1.0, 1.0])
        else:
            mats[index] = -mats[index]
        with pytest.raises(LiftFailure):
            lorentz.sl2c_lift(mats)

    def test_round_trip_error_scales_with_the_matrix(self):
        # M_c has norm at least sqrt(2)|S|_F^2 >= sqrt(2)|L| and its parts are
        # sums of at most six +-L_ab, so S carries O(eps) relative error and
        # S E S* returns L to O(eps |L|), plus the input's own distance from
        # the group (expm rounds to an isometry defect near eps |L|^2).
        rng = np.random.default_rng(0)
        mats = np.array([random_isometry(rng, 1.5) for _ in range(400)])
        lifts = lorentz.sl2c_lift(mats)
        eps = np.finfo(float).eps
        norms = np.linalg.norm(mats, 2, axis=(1, 2))
        round_trip = [np.max(np.abs(sl2c_to_so31(s) - m)) for s, m in zip(lifts, mats)]
        assert np.all(round_trip <= 16 * eps * norms ** 2)
        assert np.all(np.abs(np.linalg.det(lifts) - 1.0) <= 8 * eps * norms)

    def test_empty_stack(self):
        assert lorentz.sl2c_lift(np.zeros((0, 4, 4))).shape == (0, 2, 2)

    def test_imaginary_trace_decides_a_real_tie(self):
        # a half-turn composed with a boost along its axis: trace 1.5i, while
        # the leading entry alone would pick the other sign
        s = np.diag([-0.5j, 2j])
        for sign in (1, -1):
            lift = lorentz.sl2c_lift(sl2c_to_so31(sign * s))
            assert np.max(np.abs(lift - s)) < 1e-12

    def test_sign_tie_reads_the_tolerance(self):
        # trace -2e-10: negative by default, a tie once branch_tie exceeds it,
        # and then the leading entry's imaginary part keeps the sign
        s = np.array([[-1e-10 + 1j, 0.0], [0.0, -1e-10 - 1j]])
        assert np.array_equal(lorentz._canonical_sign(s), -s)
        assert np.array_equal(lorentz._canonical_sign(s, DEFAULT.scaled(1e3)), s)


class TestStackedPrimitives:
    def test_match_single_evaluations(self):
        rng = np.random.default_rng(16)
        points = rng.uniform(-0.5, 0.5, (7, 3))
        lifts = lorentz.klein_lift(points)
        normals = rng.normal(size=(7, 4))
        for k, p in enumerate(points):
            assert np.array_equal(lifts[k], lorentz.klein_lift(p))
            assert np.array_equal(lorentz.pure_boost(lifts)[k], lorentz.pure_boost(lifts[k]))
            assert np.array_equal(lorentz.translation_to_origin(points)[k],
                                  lorentz.translation_to_origin(p))
            assert np.array_equal(lorentz.reflect(normals)[k], lorentz.reflect(normals[k]))

    def test_stack_boundary_rejected(self):
        with pytest.raises(BallBoundary):
            lorentz.klein_lift([[0.1, 0.0, 0.0], [1.0, 0.0, 0.0]])


def signed_zero_sprinkled(rng, shape):
    """Normal samples with about a quarter of the entries set to +0 or -0."""
    x = rng.normal(size=shape)
    zero = rng.random(shape) < 0.25
    x[zero] = np.where(rng.random(shape) < 0.5, 0.0, -0.0)[zero]
    return x


class TestKernelPrimitives:
    """The face kernel's primitives against the NumPy routines and block
    constructions they replace, bit for bit, signs of zeros included."""

    # every shape pair the library passes to _cross, and zero rows of each
    CROSS_SHAPES = [((6, 3), (6, 3)), ((156, 3), (156, 3)), ((3,), (3,)),
                    ((12, 2, 3, 3), (12, 2, 1, 3)), ((8, 3, 3), (8, 3, 3)),
                    ((0, 3), (0, 3)), ((0, 2, 3, 3), (0, 2, 1, 3)), ((0, 3, 3), (0, 3, 3))]

    @pytest.mark.parametrize("x_shape, y_shape", CROSS_SHAPES)
    def test_cross_equals_numpy(self, x_shape, y_shape):
        rng = np.random.default_rng(30)
        for _ in range(5):
            x, y = signed_zero_sprinkled(rng, x_shape), signed_zero_sprinkled(rng, y_shape)
            assert same_bits(lorentz._cross(x, y), np.cross(x, y))

    @pytest.mark.parametrize("name", sorted(fixtures.STANDARD))
    def test_cross_equals_numpy_on_the_kernel_inputs(self, name):
        """The anchor edges of every face, and the (E, 2, 3, 3) x (E, 2, 1, 3)
        broadcast of ``FaceGeometry._angle_blocks``."""
        geom = FaceGeometry(fixtures.STANDARD[name](0.3))
        a = geom.anchors
        assert same_bits(lorentz._cross(a[:, 1] - a[:, 0], a[:, 2] - a[:, 0]),
                         np.cross(a[:, 1] - a[:, 0], a[:, 2] - a[:, 0]))
        turns = a[:, [1, 2, 0]] - a[:, [2, 0, 1]]
        faces = geom.combinatorics.edge_face_pairs
        m = geom._edge_normals[0][:, :, None, :3]
        assert same_bits(lorentz._cross(turns[faces], m), np.cross(turns[faces], m))

    @pytest.mark.parametrize("shape", [(6, 3, 3), (156, 3), (0, 3), (3,)])
    def test_dot3_sums_in_the_fixed_order(self, shape):
        rng = np.random.default_rng(31)
        x, y = signed_zero_sprinkled(rng, shape), signed_zero_sprinkled(rng, shape)
        assert same_bits(lorentz._dot3(x, y), dot3_reference(x, y))

    def test_pure_boost_equals_the_block_construction(self):
        rng = np.random.default_rng(32)
        points = np.vstack([rng.uniform(-0.5, 0.5, (20, 3)), np.zeros((1, 3)),
                            [[0.0, -0.0, 0.3], [0.9999, 0.0, 0.0], [-0.0, 0.2, -0.6]]])
        lifts = lorentz.klein_lift(points)
        assert same_bits(lorentz.pure_boost(lifts), pure_boost_reference(lifts))
        for v in lifts:
            assert same_bits(lorentz.pure_boost(v), pure_boost_reference(v))
        stacked = lifts[:20].reshape(4, 5, 4)
        assert same_bits(lorentz.pure_boost(stacked), pure_boost_reference(stacked))

    def test_translation_to_origin_equals_j_b_j(self):
        """One point, and its row of a stacked call, equal J B J for the boost
        B to the point's lift, including the +0 entries the products with J
        leave where a coordinate is +0 or -0."""
        rng = np.random.default_rng(33)
        points = np.vstack([signed_zero_sprinkled(rng, (40, 3)) * 0.3, np.zeros((1, 3)),
                            [[-0.0, -0.0, -0.0], [0.9999, 0.0, 0.0], [0.0, -0.0, 0.5]]])
        stacked = lorentz.translation_to_origin(points)
        assert same_bits(stacked, translation_to_origin_reference(points))
        for k, p in enumerate(points):
            one = lorentz.translation_to_origin(p)
            assert same_bits(one, translation_to_origin_reference(p))
            assert same_bits(one, stacked[k])
        assert same_bits(lorentz.translation_to_origin(list(points[0])), stacked[0])

    def test_translation_to_origin_rejects_a_point_outside_the_ball(self):
        with pytest.raises(BallBoundary, match=r"\|p\| = 1\.5 "):
            lorentz.translation_to_origin([0.0, 1.5, 0.0])

    def check_unit_normals(self, poly):
        geom = FaceGeometry(poly)
        normals, roots = lorentz._unit_normals(geom.anchors, geom.cross, DEFAULT)
        ref_normals, ref_roots = unit_normals_reference(geom.anchors, geom.cross)
        assert same_bits(normals, ref_normals)
        assert same_bits(roots, ref_roots)

    @pytest.mark.parametrize("scale", [0.02, 0.3, 0.9])
    @pytest.mark.parametrize("name", sorted(fixtures.STANDARD))
    def test_unit_normals_equal_the_reference(self, name, scale):
        self.check_unit_normals(fixtures.STANDARD[name](scale))

    @stacks
    @given(random_polyhedra(30))
    def test_unit_normals_equal_the_reference_on_hulls_and_duals(self, poly):
        self.check_unit_normals(poly)

    def test_unit_normals_degenerate_face_raises_as_the_reference(self):
        geom = FaceGeometry(collapsed_corner_tetrahedron())
        with pytest.raises(DegenerateFace, match="three points do not span a plane"):
            unit_normals_reference(geom.anchors, geom.cross)
        with pytest.raises(DegenerateFace, match="three points do not span a plane"):
            lorentz._unit_normals(geom.anchors, geom.cross, DEFAULT)
