import pathlib
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from helpers import (
    capped_cube,
    coboundary,
    corner_tetrahedron,
    elliptic,
    global_meridian,
    irreducibility_loop_reference,
    link_normal_pairs,
    matrix_from_coords,
    meridian_lift_reference,
    random_polar_dual,
    random_polyhedra,
    random_simplicial_hull,
    reflection_products,
    same_bits,
    sign_gap,
    sl2c_to_so31,
    trace_differential,
    trace_rank_reference,
)
from stokerlab import fixtures, formats, repvar
from stokerlab.config import DEFAULT
from stokerlab.errors import ConvexityViolation, EigenFailure, InvalidCombinatorics
from stokerlab.polyhedron import CombinatorialType, EmbeddedPolyhedron, dihedral_angles
from stokerlab.repvar import (
    _cyclic_relation_residuals,
    _irreducibility,
    _padded,
    Presentation,
    Representation,
    algebra_basis,
    coboundary_space,
    cocycle_extend,
    cocycle_space,
    cohomology_basis,
    evaluate_word,
    irreducibility_check,
    link_certificate,
    link_representation,
    meridian_holonomy,
    polyhedron_holonomy,
    representation_report,
    surface_group_fixture,
    trace_rank,
)
from stokerlab import lorentz

I2 = np.eye(2, dtype=complex)


def random_sl2(rng, scale=0.8):
    x = rng.normal(size=6) * scale
    return expm(matrix_from_coords(x, "sl2"))


def random_representation(rng, n, scale=0.8):
    return Representation([random_sl2(rng, scale) for _ in range(n)])


def random_cocycle_values(rng, n, scale=0.5):
    return np.array([matrix_from_coords(rng.normal(size=6) * scale, "sl2") for _ in range(n)])


def random_word(rng, n, length):
    letters = rng.integers(1, n + 1, size=length)
    signs = rng.choice([-1, 1], size=length)
    return tuple(int(l * s) for l, s in zip(letters, signs))


def numeric_cocycle_extension(u, rep, word, step=1e-5):
    """Central-difference derivative of t -> rho_t(word) rho(word)^-1."""

    def shifted(t):
        return Representation([expm(t * v) @ m for v, m in zip(u, rep.images)])

    plus = evaluate_word(shifted(step), word)
    minus = evaluate_word(shifted(-step), word)
    base_inv = lorentz.sl2_inverse(evaluate_word(rep, word))
    return (plus - minus) @ base_inv / (2 * step)


class TestEvaluateWord:
    @pytest.mark.parametrize("images, shape", [
        (random_representation(np.random.default_rng(0), 2).images, (2, 2, 2)),
        ([], (0, 2, 2)),
        (np.zeros((4, 3, 3)), None),
    ], ids=["two_generators", "no_generators", "four_3x3"])
    def test_empty_word(self, images, shape):
        """Generator images are one (n, 2, 2) stack, the empty one included,
        and the empty word is the identity on it; four 3x3 matrices are
        refused, not read as nine 2x2 ones."""
        if shape is None:
            with pytest.raises(ValueError, match="cannot reshape"):
                Representation(images)
            return
        rep = Representation(images)
        assert rep.images.shape == shape
        assert np.array_equal(evaluate_word(rep, ()), I2)

    def test_cancellation(self):
        rep = random_representation(np.random.default_rng(1), 1)
        assert np.max(np.abs(evaluate_word(rep, (1, -1)) - I2)) < 1e-13

    def test_matches_left_fold(self):
        rng = np.random.default_rng(2)
        rep = random_representation(rng, 3)
        word = random_word(rng, 3, 20)
        factors = [
            rep.images[abs(l) - 1] if l > 0 else lorentz.sl2_inverse(rep.images[abs(l) - 1])
            for l in word
        ]
        assert np.array_equal(evaluate_word(rep, word), reduce(np.matmul, factors))


class TestCocycleExtend:
    def test_single_generator(self):
        rng = np.random.default_rng(3)
        rep = random_representation(rng, 2)
        u = random_cocycle_values(rng, 2)
        assert np.array_equal(cocycle_extend(u, rep, (1,)), u[0])

    def test_cancellation(self):
        rng = np.random.default_rng(4)
        rep = random_representation(rng, 1)
        u = random_cocycle_values(rng, 1)
        assert np.max(np.abs(cocycle_extend(u, rep, (1, -1)))) < 1e-12

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            rep = random_representation(rng, 3)
            u = random_cocycle_values(rng, 3)
            word = random_word(rng, 3, 6)
            numeric = numeric_cocycle_extension(u, rep, word)
            assert np.max(np.abs(cocycle_extend(u, rep, word) - numeric)) < 1e-6


class TestCoboundary:
    def test_zero_vector(self):
        rep = random_representation(np.random.default_rng(6), 2)
        cob = coboundary(np.zeros((2, 2), dtype=complex), rep)
        assert all(np.max(np.abs(v)) == 0.0 for v in cob)

    def test_trivial_representation(self):
        rep = Representation([I2, I2])
        v = matrix_from_coords(np.arange(1, 7, dtype=float), "sl2")
        cob = coboundary(v, rep)
        assert all(np.max(np.abs(val)) < 1e-15 for val in cob)

    def test_satisfies_relators(self):
        rng = np.random.default_rng(7)
        poly = fixtures.tetrahedron(0.3)
        link = link_representation(poly, 0)
        rep = link.representation()
        for _ in range(10):
            v = matrix_from_coords(rng.normal(size=6), "sl2")
            cob = coboundary(v, rep)
            for relator in link.presentation.relators:
                assert np.max(np.abs(cocycle_extend(cob, rep, relator))) < 1e-10


class TestCocycleSpaces:
    def test_free_group_dimension(self):
        rng = np.random.default_rng(8)
        for n in (1, 2, 3):
            rep = random_representation(rng, n)
            basis = cocycle_space(rep, Presentation(n))
            assert basis.shape == (6 * n, 6 * n)

    @pytest.mark.parametrize(
        "builder,vertex,valence",
        [(fixtures.tetrahedron, 0, 3), (fixtures.square_pyramid, 4, 4),
         (fixtures.pentagonal_pyramid, 5, 5)],
    )
    def test_link_dimensions(self, builder, vertex, valence):
        link = link_representation(builder(0.3), vertex)
        rep = link.representation()
        z = cocycle_space(rep, link.presentation)
        b = coboundary_space(rep)
        assert z.shape[1] == 6 * (valence - 1)
        assert b.shape[1] == 6
        assert z.shape[1] - b.shape[1] == 6 * valence - 12

    def test_unknown_algebra_rejected(self):
        with pytest.raises(ValueError, match="unknown algebra 'so3'"):
            algebra_basis("so3")

    def test_coboundary_space_of_central_rep(self):
        rep = Representation([I2, -I2])
        assert coboundary_space(rep).shape[1] == 0

    def test_coboundary_space_of_diagonal_rep(self):
        diag = np.diag([2.0 + 0j, 0.5 + 0j])
        diag2 = np.diag([1.5 + 0j, 1.0 / 1.5 + 0j])
        rep = Representation([diag, diag2])
        dim = coboundary_space(rep).shape[1]
        assert dim <= 4

    def test_cohomology_complements_coboundaries(self):
        link = link_representation(fixtures.cube(0.3), 0)
        rep = link.representation()
        z = cocycle_space(rep, link.presentation)
        b = coboundary_space(rep)
        h = cohomology_basis(rep, link.presentation)
        assert h.shape[1] == z.shape[1] - b.shape[1]
        assert np.max(np.abs(b.T @ h)) < 1e-9


class TestTraceDifferential:
    def test_zero_cocycle(self):
        rng = np.random.default_rng(9)
        rep = random_representation(rng, 2)
        u = np.zeros((2, 2, 2), dtype=complex)
        assert trace_differential(rep, u, (1, 2)) == 0

    def test_vanishes_on_coboundaries(self):
        rng = np.random.default_rng(10)
        rep = random_representation(rng, 3)
        for _ in range(20):
            v = matrix_from_coords(rng.normal(size=6), "sl2")
            cob = coboundary(v, rep)
            word = random_word(rng, 3, 8)
            assert abs(trace_differential(rep, cob, word)) < 1e-10

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            rep = random_representation(rng, 2)
            u = random_cocycle_values(rng, 2)
            word = random_word(rng, 2, 6)
            step = 1e-5

            def trace_at(t):
                shifted = Representation(
                    [expm(t * v) @ m for v, m in zip(u, rep.images)]
                )
                return np.trace(evaluate_word(shifted, word))

            numeric = (trace_at(step) - trace_at(-step)) / (2 * step)
            assert abs(trace_differential(rep, u, word) - numeric) < 1e-6


class TestTraceRank:
    @pytest.mark.parametrize(
        "builder,vertex,valence",
        [(fixtures.tetrahedron, 0, 3), (fixtures.square_pyramid, 4, 4),
         (fixtures.pentagonal_pyramid, 5, 5)],
    )
    def test_meridian_ranks(self, builder, vertex, valence):
        link = link_representation(builder(0.3), vertex)
        rep = link.representation()
        loops = [(k,) for k in range(1, valence + 1)]
        unitary = trace_rank(rep, link.presentation, loops, restrict_to_unitary=True)
        assert unitary.h1_dim == 3 * valence - 6
        assert unitary.rank == valence
        assert unitary.gap_ratio > 1e3
        full = trace_rank(rep, link.presentation, loops, restrict_to_unitary=False)
        assert full.h1_dim == 6 * valence - 12
        assert full.rank == 2 * valence
        assert full.gap_ratio > 1e3


class TestMeridianHolonomy:
    def test_right_angle_edge_has_traceless_lift(self):
        poly = corner_tetrahedron()
        lift = meridian_holonomy(poly, (0, 1))
        assert abs(np.trace(lift)) < 1e-10

    def test_trace_identity_regular_tetrahedron(self):
        poly = fixtures.tetrahedron(0.3)
        angles = dihedral_angles(poly)
        comb = poly.combinatorics
        for k, e in enumerate(comb.edges):
            lift = meridian_holonomy(poly, e)
            assert abs(np.trace(lift)) == pytest.approx(
                2.0 * abs(np.cos(angles[k])), abs=1e-10
            )

    def test_fixes_edge_endpoints(self):
        """The meridian is based at the edge's lower end a, so it fixes the
        endpoints moved by the translation T_a taking a to the origin."""
        poly = fixtures.cube(0.3)
        e = poly.combinatorics.edges[0]
        iso = sl2c_to_so31(meridian_holonomy(poly, e))
        angle = dihedral_angles(poly)[0]       # a rotation by 2 angle about the edge
        assert np.trace(iso) == pytest.approx(2.0 + 2.0 * np.cos(2.0 * angle), abs=1e-12)
        move = lorentz.translation_to_origin(poly.positions[e[0]])
        for v in e:
            lift = move @ lorentz.klein_lift(poly.positions[v])
            assert np.max(np.abs(iso @ lift - lift)) < 1e-11

    def test_either_orientation_reads_the_edge_face_pairs(self):
        poly = fixtures.cube(0.3)
        for a, b in poly.combinatorics.edges:
            lift = meridian_holonomy(poly, (a, b))
            assert np.array_equal(lift, meridian_holonomy(poly, (b, a)))

    @pytest.mark.parametrize("scale", [0.02, 0.3, 0.999999])
    @pytest.mark.parametrize("name", sorted(fixtures.STANDARD))
    def test_equals_the_end_a_link_slot(self, name, scale):
        poly = fixtures.STANDARD[name](scale)
        comb = poly.combinatorics
        hol = polyhedron_holonomy(poly)
        for e, edge in enumerate(comb.edges):
            lift = meridian_holonomy(poly, edge)
            assert np.array_equal(lift, hol.link_meridians[comb.edge_slots[e, 0]])

    @pytest.mark.parametrize("edge, message", [
        ((0, 6), "0->6"), ((6, 0), "0->6"), ((2, 2), "2->2"), ((1, 99), "1->99"), ((-1, 3), "-1->3"),
    ])
    def test_non_edge_rejected(self, edge, message):
        with pytest.raises(InvalidCombinatorics, match=f"^no face contains directed edge {message}$"):
            meridian_holonomy(fixtures.cube(0.3), edge)


class TestLinkRepresentation:
    @pytest.mark.parametrize("name", sorted(fixtures.STANDARD))
    def test_relation_residuals(self, name):
        poly = fixtures.STANDARD[name](0.3)
        for v in range(poly.combinatorics.vertex_count):
            link = link_representation(poly, v)
            _, [(_, residual)] = representation_report(link.representation(),
                                                       link.presentation)
            assert residual < 1e-10

    @pytest.mark.parametrize("vertex", [-1, 4])
    def test_vertex_out_of_range_belongs_to_no_face(self, vertex):
        """A link is a range of the star-slot table, where -1 would wrap."""
        with pytest.raises(InvalidCombinatorics, match=f"vertex {vertex} belongs to no face"):
            link_representation(fixtures.tetrahedron(0.3), vertex)

    def test_square_pyramid_apex_symmetry(self):
        link = link_representation(fixtures.square_pyramid(0.3), 4)
        traces = [abs(np.trace(m)) for m in link.meridians]
        assert len(traces) == 4
        assert np.ptp(traces) < 1e-12

    def test_cone_angles_below_full_turn(self):
        for name, build in fixtures.STANDARD.items():
            poly = build(0.4)
            for v in range(poly.combinatorics.vertex_count):
                link = link_representation(poly, v)
                assert np.all(link.cone_angles > 0)
                assert np.all(link.cone_angles < 2 * np.pi)

    def test_meridians_are_numerically_unitary(self):
        link = link_representation(fixtures.pentagonal_pyramid(0.3), 5)
        for m in link.meridians:
            assert np.max(np.abs(m @ m.conj().T - I2)) < 1e-12

    def test_trace_matches_cone_angle(self):
        link = link_representation(fixtures.tetrahedron(0.3), 2)
        for m, cone in zip(link.meridians, link.cone_angles):
            assert abs(np.trace(m)) == pytest.approx(
                2.0 * abs(np.cos(cone / 2.0)), abs=1e-9
            )


class TestIrreducibility:
    def test_links_are_irreducible(self):
        for name, build in fixtures.STANDARD.items():
            poly = build(0.3)
            for v in range(poly.combinatorics.vertex_count):
                report = irreducibility_check(link_representation(poly, v).representation())
                assert report.irreducible

    def test_diagonal_representation_reducible(self):
        rep = Representation([np.diag([2.0 + 0j, 0.5]), np.diag([3.0 + 0j, 1.0 / 3.0])])
        report = irreducibility_check(rep)
        assert not report.irreducible
        assert np.max(np.abs(np.abs(report.witness) - np.array([1.0, 0.0]))) < 1e-12

    def test_distinct_elliptic_axes_irreducible(self):
        a = lorentz.sl2c_lift(elliptic([0.0, 0.0, 0.0], [0.0, 0.0, 1.0], 1.0))
        b = lorentz.sl2c_lift(elliptic([0.1, 0.0, 0.0], [0.0, 1.0, 0.0], 0.7))
        report = irreducibility_check(Representation([a, b]))
        assert report.irreducible

    def test_reducible_with_full_coboundary_dimension(self):
        """A shared eigenline but a trivial centralizer: reducible, yet the
        coboundaries span all 6 dimensions of sl(2,C)."""
        rep = Representation([np.array([[2.0, 1.0], [0.0, 0.5]]), np.diag([3.0, 1.0 / 3.0])])
        assert not irreducibility_check(rep).irreducible
        assert coboundary_space(rep).shape[1] == 6


DEMO_PRESENTATION = (pathlib.Path(__file__).parent.parent
                     / "demos" / "output" / "k4_surface_presentation.txt")

SURFACE_CASES = {
    "cube": lambda: fixtures.cube(0.3),
    "triangular_prism": lambda: fixtures.triangular_prism(0.3),
    "hull10": lambda: random_simplicial_hull(3, 10),
    "hull16": lambda: random_simplicial_hull(17, 16),
    "dual10": lambda: random_polar_dual(3, 10),
    "dual12": lambda: random_polar_dual(17, 12),
}
# Near-flat edges: the four apex edges of a capped cube have pi - angle ~ height.
SURFACE_CASES.update({f"capped_cube_{h:.0e}": (lambda h=h: capped_cube(h))
                      for h in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7)})


class TestSurfaceGroupFixture:
    def test_genus_three_counts(self):
        fx = surface_group_fixture(fixtures.tetrahedron(0.3))
        assert fx.genus == 3
        assert fx.euler_characteristic == -4
        assert fx.presentation.generator_count == 12
        assert len(fx.presentation.relators) == 7

    def test_relators_hold_up_to_sign(self):
        fx = surface_group_fixture(fixtures.tetrahedron(0.3))
        det_defect, relator_data = representation_report(fx.representation, fx.presentation)
        assert det_defect < 1e-10
        assert all(residual < 1e-8 for _, residual in relator_data)

    def test_dimension_counts(self):
        fx = surface_group_fixture(fixtures.tetrahedron(0.3))
        z = cocycle_space(fx.representation, fx.presentation)
        b = coboundary_space(fx.representation)
        assert z.shape[1] - b.shape[1] == 24  # 12g - 12 at genus 3
        assert b.shape[1] == 6

    def test_meridian_traces_have_half_rank(self):
        fx = surface_group_fixture(fixtures.tetrahedron(0.3))
        report = trace_rank(fx.representation, fx.presentation, fx.meridian_loops())
        assert report.h1_dim == 24
        assert report.rank == 12
        assert irreducibility_check(fx.representation).irreducible

    def test_meridian_traces_match_dihedral_angles(self):
        poly = fixtures.tetrahedron(0.3)
        fx = surface_group_fixture(poly)
        angles = dihedral_angles(poly)
        comb = poly.combinatorics
        for k, e in enumerate(comb.edges):
            word = fx.meridian_words[e]
            tr = np.trace(evaluate_word(fx.representation, word))
            assert abs(tr.imag) < 1e-10
            assert abs(tr.real) == pytest.approx(2.0 * abs(np.cos(angles[k])), abs=1e-9)

    def test_twists_rotate_by_dihedral_angles(self):
        """A twist is the rotation about its cross edge by the edge's
        dihedral angle, so its lift has |tr| = 2|cos(angle / 2)|."""
        poly = SURFACE_CASES["hull16"]()
        fx = surface_group_fixture(poly)
        angles = dihedral_angles(poly)
        comb = poly.combinatorics
        twists = [(k, name) for k, name in enumerate(fx.generator_names) if name[0] == "t"]
        assert twists
        for k, name in twists:
            edge = tuple(int(v) for v in name[1:].split("_"))
            expected = 2.0 * abs(np.cos(angles[comb.edge_index[edge]] / 2.0))
            assert abs(np.trace(fx.representation.images[k])) == pytest.approx(expected, abs=1e-12)

    def test_tetrahedron_presentation_matches_tracked_demo_output(self):
        fx = surface_group_fixture(fixtures.tetrahedron(0.3))
        text = formats.dump_presentation(fx.presentation, fx.meridian_loops())
        assert text.encode() == DEMO_PRESENTATION.read_bytes()

    def test_cube_generator_order(self):
        # BFS tree from vertex 0: 0-1, 0-2, 0-4, 1-3, 1-5, 2-6, 3-7
        fx = surface_group_fixture(fixtures.cube(0.3))
        assert fx.generator_names == [
            "m0_1", "m0_2", "m0_4", "m1_3", "m1_5", "m2_3a", "m2_3b", "m2_6", "m3_7",
            "m4_5a", "m4_5b", "m4_6a", "m4_6b", "m5_7a", "m5_7b", "m6_7a", "m6_7b",
            "t2_3", "t4_5", "t4_6", "t5_7", "t6_7",
        ]
        assert fx.meridian_words == {
            (0, 1): (1,), (0, 2): (2,), (0, 4): (3,), (1, 3): (4,), (1, 5): (5,),
            (2, 3): (6,), (2, 6): (8,), (3, 7): (9,), (4, 5): (10,), (4, 6): (12,),
            (5, 7): (14,), (6, 7): (16,),
        }

    @pytest.mark.parametrize("name", sorted(SURFACE_CASES))
    def test_relators_hold_and_twists_fix_their_edges(self, name):
        """Each twist is the rotation by the dihedral angle about its cross
        edge, fixing both ends, so it commutes with the edge's meridian
        copies."""
        poly = SURFACE_CASES[name]()
        fx = surface_group_fixture(poly)
        _, relator_data = representation_report(fx.representation, fx.presentation)
        assert max(residual for _, residual in relator_data) < DEFAULT.relator
        angles = dihedral_angles(poly)
        # the images are based at the vertex mean, moved to the origin
        move = lorentz.translation_to_origin(poly.positions.mean(axis=0))
        for image, generator in zip(fx.representation.images, fx.generator_names):
            if generator[0] == "t":
                edge = tuple(int(v) for v in generator[1:].split("_"))
                twist = sl2c_to_so31(image)
                angle = angles[poly.combinatorics.edge_index[edge]]
                assert np.trace(twist) == pytest.approx(2.0 + 2.0 * np.cos(angle), abs=1e-12)
                for v in edge:
                    lift = move @ lorentz.klein_lift(poly.positions[v])
                    assert np.max(np.abs(twist @ lift - lift)) < 1e-12

    def test_flat_cross_edge_rejected(self):
        """With the apex on the cube's top face its four edges are flat, and
        no plane lies halfway between their faces."""
        poly = capped_cube(1e-3)
        pos = poly.positions.copy()
        pos[8, 2] = pos[7, 2]
        with pytest.raises(ConvexityViolation, match=r"edge \(\d, 8\) is flat"):
            surface_group_fixture(poly.with_positions(pos))

    def test_disconnected_edge_graph_rejected(self):
        """Two disjoint tetrahedra: the breadth-first tree spans only the
        first one, so every edge of the second counts as a cross edge and the
        presentation's Euler characteristic misses 2 - 2g."""
        tetra = fixtures.tetrahedron(0.2)
        faces = [list(f) for f in tetra.combinatorics.faces]
        comb = CombinatorialType(8, faces + [[v + 4 for v in f] for f in faces])
        pos = np.concatenate([tetra.positions - [0.4, 0, 0], tetra.positions + [0.4, 0, 0]])
        with pytest.raises(InvalidCombinatorics,
                           match=r"^presentation Euler characteristic -12 != -8$"):
            surface_group_fixture(EmbeddedPolyhedron(comb, pos))

    @pytest.mark.parametrize("name", sorted(SURFACE_CASES))
    def test_surface_dimension_and_meridian_rank(self, name):
        poly = SURFACE_CASES[name]()
        fx = surface_group_fixture(poly)
        report = trace_rank(fx.representation, fx.presentation, fx.meridian_loops())
        assert report.h1_dim == 12 * fx.genus - 12
        assert report.rank == 2 * poly.combinatorics.edge_count


def boosted(poly, r):
    """The polyhedron moved by the boost taking the origin to (r, 0, 0)."""
    boost = lorentz.pure_boost(lorentz.klein_lift([r, 0.0, 0.0]))
    return poly.with_positions(lorentz.apply_isometry(boost, poly.positions))


# Scale-0.9 fixtures boosted so near the sphere that the moved normals'
# unit defect (about 1e-10) pushed the 4x4 route's products past ``tol.iso``:
# ``lorentz.sl2c_lift`` raised ``LiftFailure`` on each, though ``validate``
# accepts them.
NEAR_SPHERE_CASES = [("cube", 0.99999), ("tetrahedron", 0.999995), ("triangular_prism", 0.999995)]
FAR_CASES = ([pytest.param(name, 0.3, r, id=f"{name}-{r}")
              for r in (0.99, 0.999, 0.9999) for name in sorted(fixtures.STANDARD)]
             + [pytest.param(name, 0.9, r, id=f"{name}@0.9-{r}") for name, r in NEAR_SPHERE_CASES])


class TestFarFromOrigin:
    """The surface fixture and the edge meridians are isometry invariants up
    to conjugation, so moving P toward the sphere changes none of their
    frame-free values.  Both pair face normals moved into P, so their
    rounding stays small where the global-frame products lost the lift or
    the relators."""

    @pytest.mark.parametrize("name, scale, r", FAR_CASES)
    def test_surface_group_fixture(self, name, scale, r):
        poly = boosted(fixtures.STANDARD[name](scale), r)
        fx = surface_group_fixture(poly)
        _, relator_data = representation_report(fx.representation, fx.presentation)
        assert max(residual for _, residual in relator_data) < 1e-10
        report = trace_rank(fx.representation, fx.presentation, fx.meridian_loops())
        assert report.h1_dim == 12 * fx.genus - 12
        assert report.rank == 2 * poly.combinatorics.edge_count

    @pytest.mark.parametrize("r", [0.99, 0.999, 0.9999])
    @pytest.mark.parametrize("name", sorted(fixtures.STANDARD))
    def test_meridian_holonomy(self, name, r):
        poly = boosted(fixtures.STANDARD[name](0.3), r)
        angles = dihedral_angles(poly)
        for k, edge in enumerate(poly.combinatorics.edges):
            lift = meridian_holonomy(poly, edge)
            assert abs(np.trace(lift)) == pytest.approx(2.0 * abs(np.cos(angles[k])), abs=1e-10)
            assert np.max(np.abs(lift @ lift.conj().T - I2)) < 1e-11

    @pytest.mark.parametrize("name, r", NEAR_SPHERE_CASES)
    def test_near_sphere_link_trace_ranks(self, name, r):
        poly = boosted(fixtures.STANDARD[name](0.9), r)
        for v in range(poly.combinatorics.vertex_count):
            link = link_representation(poly, v)
            rep = link.representation()
            _, [(_, residual)] = representation_report(rep, link.presentation)
            assert residual < 1e-10
            d = len(link.edges)
            loops = [(k,) for k in range(1, d + 1)]
            unitary = trace_rank(rep, link.presentation, loops, restrict_to_unitary=True)
            assert (unitary.h1_dim, unitary.rank) == (3 * d - 6, d)
            full = trace_rank(rep, link.presentation, loops)
            assert (full.h1_dim, full.rank) == (6 * d - 12, 2 * d)


# The closed form against the 4x4 route, bounds fixed before the first run.
# Near the origin both round at a few eps.  Near the sphere the moved
# normals miss unit length by up to about eps |L|^2 for the boost L, and
# the two routes absorb that defect differently: sl2c_lift reads a product
# that is not quite Lorentz, N_f adj(N_g) is divided by the root of its own
# determinant.
LIFT_GAP, COVER_GAP = 1e-14, 1e-13
NEAR_SPHERE_LIFT_GAP, NEAR_SPHERE_COVER_GAP = 1e-11, 1e-10


class TestMeridianLifts:
    """``repvar._meridian_lifts`` against ``helpers.meridian_lift_reference``:
    equal up to the double-cover sign, on the canonical branch, and covering
    R_f R_g of the same normals."""

    def check(self, lifts, pairs, lift_gap, cover_gap):
        """``lift_gap`` None skips the reference lift, and ``cover_gap`` None
        bounds the covering gap by the products' own isometry defect."""
        assert lifts.shape == (len(pairs), 2, 2)
        if lift_gap is not None:
            gaps = sign_gap(lifts, meridian_lift_reference(pairs))
            assert np.max(gaps, initial=0.0) <= lift_gap
        assert same_bits(lorentz._canonical_sign(lifts).view(float), lifts.view(float))
        products = reflection_products(pairs)
        if cover_gap is None:
            cover_gap = np.max(lorentz.isometry_defect(products))
        covered = np.array([sl2c_to_so31(lift) for lift in lifts]).reshape(-1, 4, 4)
        assert np.max(np.abs(covered - products), initial=0.0) <= cover_gap

    def check_links(self, poly, lift_gap=LIFT_GAP, cover_gap=COVER_GAP):
        """The link meridians of ``polyhedron_holonomy``, against pairs moved
        by the oracle's own M n."""
        lifts = polyhedron_holonomy(poly).link_meridians
        self.check(lifts, link_normal_pairs(poly), lift_gap, cover_gap)

    def check_surface(self, poly, monkeypatch, lift_gap=LIFT_GAP, cover_gap=COVER_GAP):
        """The slot and twist generators of ``surface_group_fixture``: the
        pairs it passes, normals at the vertex mean and halfway normals."""
        calls = []
        original = repvar._meridian_lifts

        def spy(pairs, tol):
            calls.append((pairs, original(pairs, tol)))
            return calls[-1][1]

        monkeypatch.setattr(repvar, "_meridian_lifts", spy)
        fx = surface_group_fixture(poly)
        [(pairs, images)] = calls
        assert np.array_equal(images, fx.representation.images)
        self.check(images, pairs, lift_gap, cover_gap)

    @pytest.mark.parametrize("scale", [0.02, 0.3, 0.9])
    @pytest.mark.parametrize("name", sorted(fixtures.STANDARD))
    def test_fixtures(self, name, scale, monkeypatch):
        poly = fixtures.STANDARD[name](scale)
        self.check_links(poly)
        self.check_surface(poly, monkeypatch)

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(random_polyhedra(20))
    def test_random_hulls_and_duals(self, poly):
        self.check_links(poly)
        with pytest.MonkeyPatch.context() as monkeypatch:
            self.check_surface(poly, monkeypatch)

    @pytest.mark.parametrize("name", sorted(fixtures.STANDARD))
    def test_far_from_origin(self, name, monkeypatch):
        poly = boosted(fixtures.STANDARD[name](0.3), 0.9999)
        self.check_links(poly, NEAR_SPHERE_LIFT_GAP, NEAR_SPHERE_COVER_GAP)
        self.check_surface(poly, monkeypatch, NEAR_SPHERE_LIFT_GAP, NEAR_SPHERE_COVER_GAP)

    @pytest.mark.parametrize("name, r", NEAR_SPHERE_CASES)
    def test_near_the_sphere_covers_the_products(self, name, r, monkeypatch):
        """Here the products R_f R_g miss the Lorentz invariants by more
        than ``tol.iso`` (up to 5.4e-10), which is why ``sl2c_lift`` refuses
        them; the isometries the lifts cover lie within that defect of them."""
        poly = boosted(fixtures.STANDARD[name](0.9), r)
        self.check_links(poly, None, None)
        self.check_surface(poly, monkeypatch, None, None)

    def test_right_angles_and_empty(self):
        """The corner tetrahedron's traceless lifts, where the branch is a
        tie broken by the entries, and no pairs at all."""
        self.check_links(corner_tetrahedron())
        empty = repvar._meridian_lifts(np.zeros((0, 2, 4)), DEFAULT)
        assert empty.shape == (0, 2, 2)


EPS = np.finfo(float).eps
# The two routes' singular values agree to SV_C * eps times the 2-norm of
# the trace rows, floored at 1: a row entry sums terms of size about 1 or
# more, and a loop whose terms cancel leaves rows of rounding noise.  Worst
# seen: 13 eps on the trace-ladder surfaces and links, 33 eps on 3000
# random punctured-sphere representations.
SV_C = 128


def assert_trace_rank_matches_reference(rep, pres, loops, unitary):
    """``trace_rank`` on Z^1 against the all-SVD reference route: equal
    dimensions, rank and gap ratio (finite gaps divide by a rounding-level
    value, so there only finiteness is compared), and singular values
    within the eps bound."""
    report = trace_rank(rep, pres, loops, restrict_to_unitary=unitary)
    (z1, b1, h1, rank, gap), sing, row_norm = trace_rank_reference(rep, pres, loops, unitary)
    assert (report.z1_dim, report.b1_dim, report.h1_dim, report.rank) == (z1, b1, h1, rank)
    assert report.gap_ratio == gap or (np.isfinite(report.gap_ratio) and np.isfinite(gap))
    assert len(report.singular_values) == len(sing)
    worst = np.max(np.abs(report.singular_values - sing), initial=0.0)
    assert worst <= SV_C * EPS * max(row_norm, 1.0)
    return report


TRACE_LADDER_SURFACES = {name: (lambda name=name: fixtures.STANDARD[name](0.3))
                         for name in fixtures.STANDARD}
TRACE_LADDER_SURFACES.update(SURFACE_CASES)
FIXTURE_LINKS = [(name, v) for name in sorted(fixtures.STANDARD)
                 for v in range(fixtures.STANDARD[name]().combinatorics.vertex_count)]


@st.composite
def punctured_sphere_cases(draw):
    """A representation of <g_1 .. g_d | g_1 ... g_d> for d = 3..5: random
    images of moderate norm, the last one closing the relator, and loops
    that start with (1,) so that some trace varies.  su(2) cases take
    unitary images."""
    d = draw(st.integers(3, 5))
    unitary = draw(st.booleans())
    algebra = "su2" if unitary else "sl2"
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = rng.uniform(0.1, 0.6)
    images = [expm(matrix_from_coords(rng.normal(size=6 if algebra == "sl2" else 3) * scale,
                                      algebra)) for _ in range(d - 1)]
    images.append(lorentz.sl2_inverse(reduce(np.matmul, images)))
    letter = st.integers(1, d).flatmap(lambda g: st.sampled_from((g, -g)))
    loops = draw(st.lists(st.lists(letter, min_size=1, max_size=4).map(tuple),
                          min_size=0, max_size=3 * d))
    return Representation(images), Presentation.punctured_sphere(d), [(1,)] + loops, unitary


class TestTraceRankOnCocycles:
    """``trace_rank`` keeps the first h^1 singular values of the trace rows
    on Z^1; the complement-of-B^1 route is the reference."""

    @pytest.mark.parametrize("name", sorted(TRACE_LADDER_SURFACES))
    def test_surfaces(self, name):
        fx = surface_group_fixture(TRACE_LADDER_SURFACES[name]())
        report = assert_trace_rank_matches_reference(
            fx.representation, fx.presentation, fx.meridian_loops(), False)
        assert report.gap_ratio == np.inf

    @pytest.mark.parametrize("unitary", [True, False])
    @pytest.mark.parametrize("name,vertex", FIXTURE_LINKS)
    def test_fixture_links(self, name, vertex, unitary):
        link = link_representation(fixtures.STANDARD[name](0.3), vertex)
        loops = [(k,) for k in range(1, len(link.edges) + 1)]
        report = assert_trace_rank_matches_reference(
            link.representation(), link.presentation, loops, unitary)
        assert report.gap_ratio == np.inf

    @pytest.mark.parametrize("unitary,rows,h1", [(True, 7, 3), (False, 14, 6)])
    def test_more_rows_than_h1(self, unitary, rows, h1):
        """The Z^1 product has z^1 singular values, b^1 of them rounding
        zeros: only the cut to h^1 keeps them out of the rank and the gap."""
        link = link_representation(fixtures.tetrahedron(0.3), 0)
        loops = [(1,), (2,), (3,), (1, 2), (2, 3), (1, 3), (1, -2)]
        report = assert_trace_rank_matches_reference(
            link.representation(), link.presentation, loops, unitary)
        assert (report.loop_count * (1 if unitary else 2), report.h1_dim) == (rows, h1)
        assert report.z1_dim - report.b1_dim == h1 < rows
        assert len(report.singular_values) == report.rank == h1
        assert report.gap_ratio == np.inf

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(punctured_sphere_cases())
    def test_random_representations(self, case):
        assert_trace_rank_matches_reference(*case)

    @pytest.mark.parametrize("unitary", [True, False])
    def test_leaves_its_inputs_unchanged(self, unitary):
        fx = surface_group_fixture(fixtures.cube(0.3))
        images = fx.representation.images.copy()
        trace_rank(fx.representation, fx.presentation, fx.meridian_loops(),
                   restrict_to_unitary=unitary)
        assert np.array_equal(fx.representation.images, images)

    def test_failing_relator_floors_h1(self):
        """Off a representation B^1 need not lie in Z^1.  With g_1 of order
        4 and a relator g_2 that fails, z^1 = 4 < b^1 = 6: h^1 is 0 and no
        singular value is kept."""
        g1 = np.array([[0, 1], [-1, 0]], dtype=complex)
        rep = Representation([g1, expm(matrix_from_coords(np.arange(1.0, 7.0) / 10, "sl2"))])
        pres = Presentation(2, ((1, 1), (2,)))
        assert representation_report(rep, pres)[1][1][1] > 1.0
        report = trace_rank(rep, pres, [(1,), (2,), (1, 2)])
        assert (report.z1_dim, report.b1_dim, report.h1_dim, report.rank) == (4, 6, 0, 0)
        assert report.singular_values.size == 0


class TestOneWordWalk:
    """Relator values and words are the left-to-right product of the
    letters' images, bit for bit."""

    @staticmethod
    def explicit_product(rep, word):
        out = I2
        for l in word:
            m = rep.images[abs(l) - 1]
            out = out @ (m if l > 0 else lorentz.sl2_inverse(m))
        return out

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4),
           st.lists(st.integers(0, 12), min_size=1, max_size=5))
    def test_bit_equal_to_explicit_product(self, seed, n, lengths):
        rng = np.random.default_rng(seed)
        rep = random_representation(rng, n)
        words = [random_word(rng, n, length) for length in lengths]
        words.append(())
        pres = Presentation(n, [w for w in words if w])
        _, relator_data = representation_report(rep, pres)
        expected = []
        for word in pres.relators:
            value = self.explicit_product(rep, word)
            plus, minus = np.linalg.norm(value - I2), np.linalg.norm(value + I2)
            expected.append((1, plus) if plus <= minus else (-1, minus))
        assert relator_data == expected
        for word in words:
            assert np.array_equal(evaluate_word(rep, word), self.explicit_product(rep, word))

    @pytest.mark.parametrize("name,vertex,sign", [("cube", 0, -1), ("pentagonal_pyramid", 5, 1)])
    def test_link_relator_sign(self, name, vertex, sign):
        """A link relator holds at -I or at +I: the nearer one gives the sign
        and the residual, in the report and in the batched link relations."""
        link = link_representation(fixtures.STANDARD[name](0.3), vertex)
        rep = link.representation()
        [(found, residual)] = representation_report(rep, link.presentation)[1]
        value = self.explicit_product(rep, link.presentation.relators[0])
        assert found == sign
        assert residual == np.linalg.norm(value - sign * I2) < DEFAULT.relator
        offsets = np.array([0, len(rep.images)])
        assert _cyclic_relation_residuals(_padded(rep.images, offsets))[0] == residual


def link_rows(hol, v):
    """The rows of vertex v's link in the stacks of ``hol``."""
    return slice(hol.link_offsets[v], hol.link_offsets[v + 1])


def assert_links_equal(hol, poly, v):
    """The batched link of v, its rows of the stacks, is
    ``link_representation(poly, v)`` bit for bit, on the star of v."""
    link = link_representation(poly, v)
    assert np.array_equal(hol.link_meridians[link_rows(hol, v)], link.meridians)
    comb = poly.combinatorics
    star_edges, _ = comb.vertex_star(v)
    assert (link.vertex, link.edges) == (v, star_edges)
    edges = [comb.edge_index[e] for e in star_edges]
    assert np.array_equal(link.cone_angles, 2.0 * hol.angles[edges])


class TestPolyhedronHolonomy:
    def check(self, poly):
        comb = poly.combinatorics
        hol = polyhedron_holonomy(poly)
        slots = 2 * comb.edge_count
        assert hol.link_offsets.shape == (comb.vertex_count + 1,)
        assert (hol.link_offsets[0], hol.link_offsets[-1]) == (0, slots)
        assert hol.link_meridians.shape == (slots, 2, 2)
        for v in range(comb.vertex_count):
            assert_links_equal(hol, poly, v)
        slot_edges = comb.star_slots[2]
        traces = np.abs(np.trace(hol.link_meridians, axis1=1, axis2=2))
        defect = np.abs(traces - 2.0 * np.abs(np.cos(dihedral_angles(poly)[slot_edges])))
        assert np.max(defect) < DEFAULT.trace_identity

    @pytest.mark.parametrize("name", sorted(fixtures.STANDARD))
    def test_fixtures(self, name):
        self.check(fixtures.STANDARD[name](0.3))

    def test_right_angles(self):
        self.check(corner_tetrahedron())

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(random_polyhedra(20))
    def test_random_hulls_and_duals(self, poly):
        self.check(poly)

    @pytest.mark.parametrize("scale", [0.3, 0.99, 0.9999, 0.999999])
    @pytest.mark.parametrize("name", sorted(fixtures.STANDARD))
    def test_link_meridians_near_the_sphere(self, name, scale):
        """Link meridians pair normals moved to the vertex, so the isometries
        they cover keep their rounding near eps for a vertex near the
        sphere.  Conjugating the global-frame product by the vertex's boost
        instead scales it by the boost's entries: 9.3e-10 at scale 0.999999."""
        hol = polyhedron_holonomy(fixtures.STANDARD[name](scale))
        covered = [sl2c_to_so31(lift) for lift in hol.link_meridians]
        assert np.max(lorentz.isometry_defect(covered)) <= 1e-12


class TestEdgeSlots:
    """Each edge's two link slots, through the covering map, against its
    global-frame meridian."""

    def check(self, poly):
        comb = poly.combinatorics
        _, owners, slot_edges, _ = comb.star_slots
        slots = comb.edge_slots
        assert slots.shape == (comb.edge_count, 2)
        assert np.array_equal(np.sort(slots, axis=None), np.arange(2 * comb.edge_count))
        assert np.array_equal(slot_edges[slots], np.arange(comb.edge_count)[:, None].repeat(2, 1))
        assert np.array_equal(owners[slots], np.array(comb.edges).reshape(-1, 2))
        hol = polyhedron_holonomy(poly)
        for e, (a, b) in enumerate(comb.edges):
            iso = global_meridian(poly, (a, b))
            for end, v in enumerate((a, b)):
                # T_v M_e T_v^-1 at end a, its inverse at end b; J L^T J inverts a Lorentz L
                move = lorentz.translation_to_origin(poly.positions[v])
                seen = move @ iso @ lorentz.J @ move.T @ lorentz.J
                if end:
                    seen = lorentz.J @ seen.T @ lorentz.J
                covered = sl2c_to_so31(hol.link_meridians[slots[e, end]])
                assert np.max(np.abs(covered - seen)) <= 1e-13

    @pytest.mark.parametrize("scale", [0.02, 0.3, 0.9])
    @pytest.mark.parametrize("name", sorted(fixtures.STANDARD))
    def test_fixtures(self, name, scale):
        self.check(fixtures.STANDARD[name](scale))

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(random_polyhedra(20))
    def test_random_hulls_and_duals(self, poly):
        self.check(poly)


def assert_group_results(images, offsets, reports):
    """One batched call over the groups gives each group's own
    ``irreducibility_check`` report, witness included."""
    irreducible, residual, witness = _irreducibility(_padded(images, offsets), DEFAULT)
    for g, report in enumerate(reports):
        assert irreducible[g] == report.irreducible
        assert residual[g] == report.residual
        if report.witness is not None:
            assert np.array_equal(witness[g], report.witness)


def scan_groups(rng, sizes, kinds):
    """Groups of random SL(2,C) images, one per size: a "reducible" group
    shares the eigenvector (1, 0) (upper triangular images), a "central"
    group holds only +-I, and an "irreducible" one is left as drawn."""
    groups = []
    for size, kind in zip(sizes, kinds):
        images = random_representation(rng, size).images
        if kind == "reducible":
            images = np.triu(images) / np.sqrt(images[:, :1, :1] * images[:, 1:, 1:])
        elif kind == "central":
            images = np.where(rng.random(size)[:, None, None] < 0.5, I2, -I2)
        groups.append(images)
    return groups


class TestIrreducibilityScan:
    """The batched scan of both eigenvectors against the loop over them,
    ``helpers.irreducibility_loop_reference``: verdicts, residuals and
    witnesses bit for bit."""

    @staticmethod
    def assert_same(padded):
        ours, ref = _irreducibility(padded, DEFAULT), irreducibility_loop_reference(padded)
        assert np.array_equal(ours[0], ref[0])
        assert same_bits(ours[1], ref[1])
        assert same_bits(ours[2].view(float), ref[2].view(float))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(0, 2 ** 32 - 1),
           st.lists(st.tuples(st.integers(1, 6),
                              st.sampled_from(["irreducible", "reducible", "central"])),
                    min_size=1, max_size=8))
    def test_ragged_groups_equal_the_loop(self, seed, spec):
        sizes, kinds = zip(*spec)
        groups = scan_groups(np.random.default_rng(seed), sizes, kinds)
        self.assert_same(_padded(np.concatenate(groups), np.cumsum((0,) + sizes)))

    @pytest.mark.parametrize("name", sorted(fixtures.STANDARD))
    @pytest.mark.parametrize("scale", [0.02, 0.3, 0.9])
    def test_vertex_links_equal_the_loop(self, name, scale):
        hol = polyhedron_holonomy(fixtures.STANDARD[name](scale))
        self.assert_same(_padded(hol.link_meridians, hol.link_offsets))

    @pytest.mark.parametrize("corrupt", [None, 0, 1])
    @pytest.mark.parametrize("kinds", [("good",), ("good", "singular"), ("singular", "good"),
                                       ("good", "unreliable"), ("unreliable", "singular")])
    def test_failures_raise_as_the_loop_does(self, monkeypatch, corrupt, kinds):
        """The loop's first ``EigenFailure``, with eigenvector ``corrupt`` of
        every probe swapped for a unit vector that is no eigenvector: an
        image that annihilates eigenvector 0 is named before an untrusted
        eigenvector 1."""
        shear = np.array([[1.0, 1e6], [1e6, 1.0 + 1e12]], dtype=complex)
        cases = {
            "good": list(link_representation(fixtures.tetrahedron(0.3), 0).meridians),
            "unreliable": [shear @ np.array([[2.0, 1.0], [0.0, 0.5]]) @ lorentz.sl2_inverse(shear),
                           np.array([[0.0, 1j], [1j, 0.0]])],
            "singular": [np.diag([2.0 + 0j, 0.5]), np.zeros((2, 2), dtype=complex)],
        }
        if corrupt is not None:
            eig = np.linalg.eig

            def corrupted(a):
                w, v = eig(a)
                v[..., corrupt] = [0.6, 0.8]
                return w, v

            monkeypatch.setattr(np.linalg, "eig", corrupted)
        groups = [cases[kind] for kind in kinds]
        padded = _padded(np.array(sum(groups, [])), np.cumsum([0] + [len(g) for g in groups]))
        try:
            irreducibility_loop_reference(padded)
        except EigenFailure as exc:
            with pytest.raises(EigenFailure, match=str(exc)):
                _irreducibility(padded, DEFAULT)
        else:
            assert kinds == ("good",) and corrupt is None
            self.assert_same(padded)


class TestLinkCertificate:
    """The batched link checks against the per-link calls."""

    def check(self, poly):
        hol = polyhedron_holonomy(poly)
        cert = link_certificate(hol)
        assert np.array_equal(hol.angles, dihedral_angles(poly))
        assert len(cert.relation_residuals) == poly.combinatorics.vertex_count
        for v in range(poly.combinatorics.vertex_count):
            rep = Representation(hol.link_meridians[link_rows(hol, v)])
            pres = Presentation.punctured_sphere(rep.generator_count)
            _, [(_, residual)] = representation_report(rep, pres)
            report = irreducibility_check(rep)
            assert cert.relation_residuals[v] == residual
            assert cert.irreducible[v] == report.irreducible
            assert cert.irreducibility_residuals[v] == report.residual
        assert cert.irreducible.all()
        assert np.max(cert.relation_residuals) < DEFAULT.relator

    @pytest.mark.parametrize("name", sorted(fixtures.STANDARD))
    def test_fixtures(self, name):
        self.check(fixtures.STANDARD[name](0.3))

    def test_right_angles(self):
        self.check(corner_tetrahedron())

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(random_polyhedra(20))
    def test_random_hulls_and_duals(self, poly):
        self.check(poly)

    def test_central_reducible_and_irreducible_groups(self):
        central = [I2, -I2]
        diagonal = [np.diag([2.0 + 0j, 0.5]), np.diag([3.0 + 0j, 1.0 / 3.0])]
        link = list(link_representation(fixtures.cube(0.3), 5).meridians)
        groups = [central, diagonal, link, diagonal[::-1]]
        reports = [irreducibility_check(Representation(g)) for g in groups]
        assert [r.irreducible for r in reports] == [False, False, True, False]
        assert np.array_equal(reports[0].witness, [1.0, 0.0])
        images = np.array(sum(groups, []))
        offsets = np.cumsum([0] + [len(g) for g in groups])
        assert_group_results(images, offsets, reports)
        relations = _cyclic_relation_residuals(_padded(images, offsets))
        for g, images in enumerate(groups):
            rep = Representation(images)
            _, [(_, residual)] = representation_report(
                rep, Presentation.punctured_sphere(len(images)))
            assert relations[g] == residual

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.integers(0, 2 ** 32 - 1), st.lists(st.integers(0, 5), min_size=1, max_size=6))
    def test_random_ragged_groups(self, seed, sizes):
        rng = np.random.default_rng(seed)
        groups = [random_representation(rng, n).images for n in sizes]
        groups[0] = np.triu(groups[0]) / np.sqrt(groups[0][:, :1, :1] * groups[0][:, 1:, 1:])
        offsets = np.cumsum([0] + sizes)
        images = np.concatenate(groups)
        assert_group_results(images, offsets,
                             [irreducibility_check(Representation(g)) for g in groups])

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.integers(0, 2 ** 32 - 1), st.lists(st.integers(0, 5), min_size=1, max_size=6))
    def test_padded_stack(self, seed, sizes):
        """Each group's images in place and in order, then exact identities."""
        rng = np.random.default_rng(seed)
        images = random_representation(rng, sum(sizes)).images
        offsets = np.cumsum([0] + sizes)
        padded = _padded(images, offsets)
        assert padded.shape == (len(sizes), max(sizes), 2, 2)
        for g, (a, b) in enumerate(zip(offsets, offsets[1:])):
            assert np.array_equal(padded[g, :b - a], images[a:b])
            assert (padded[g, b - a:] == I2).all()

    def test_unreliable_probe_raises(self):
        """A diagonalizable matrix sheared into entries near 1e18, where
        ``eig`` cannot return eigenvectors to the trusted residual."""
        shear = np.array([[1.0, 1e6], [1e6, 1.0 + 1e12]], dtype=complex)
        probe = shear @ np.array([[2.0, 1.0], [0.0, 0.5]]) @ lorentz.sl2_inverse(shear)
        rep = Representation([probe, np.array([[0.0, 1j], [1j, 0.0]])])
        with pytest.raises(EigenFailure, match="unreliable eigenvector"):
            irreducibility_check(rep)
        good = link_representation(fixtures.tetrahedron(0.3), 0).meridians
        with pytest.raises(EigenFailure, match="unreliable eigenvector"):
            _irreducibility(_padded(np.concatenate([good, rep.images]), np.array([0, 3, 5])),
                            DEFAULT)

    def test_singular_image_raises(self):
        rep = Representation([np.diag([2.0, 0.5]), np.zeros((2, 2))])
        with pytest.raises(EigenFailure, match="nearly singular"):
            irreducibility_check(rep)


class TestIrreducibilityReference:
    """The batched check against the per-image loop it replaced."""

    @staticmethod
    def reference(rep):
        probe = next((m for m in rep.images
                      if min(np.linalg.norm(m - I2), np.linalg.norm(m + I2)) > DEFAULT.central),
                     None)
        if probe is None:
            return False, 0.0
        eigvals, eigvecs = np.linalg.eig(probe)
        best = np.inf
        for i in range(2):
            xi = eigvecs[:, i] / np.linalg.norm(eigvecs[:, i])
            worst = 0.0
            for m in rep.images:
                mxi = m @ xi
                worst = max(worst, float(abs(mxi[0] * xi[1] - mxi[1] * xi[0]) / np.linalg.norm(mxi)))
            best = min(best, worst)
        return best >= DEFAULT.irreducible, best

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.booleans())
    def test_matches_loop(self, seed, n, diagonal):
        rng = np.random.default_rng(seed)
        rep = random_representation(rng, n)
        if diagonal:
            rep = Representation([np.diag(np.diag(m)) / np.sqrt(np.prod(np.diag(m)))
                                  for m in rep.images])
        report = irreducibility_check(rep)
        assert (report.irreducible, report.residual) == self.reference(rep)

    def test_central(self):
        report = irreducibility_check(Representation([I2, -I2]))
        assert not report.irreducible and report.residual == 0.0
