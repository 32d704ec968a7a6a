import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings

from helpers import (
    collapsed_corner_tetrahedron,
    corner_tetrahedron,
    intrinsic_dihedral_angle,
    random_isometry,
    random_polar_dual,
    random_polyhedra,
)
from stokerlab import cli, fixtures, formats, lorentz
from stokerlab.config import Tolerances
from stokerlab.errors import (
    BallBoundary,
    ConvexityViolation,
    DegenerateFace,
    InvalidCombinatorics,
    PlanarityViolation,
)
from stokerlab.polyhedron import (
    CombinatorialType,
    EmbeddedPolyhedron,
    convexity_margins,
    dihedral_angles,
    embed_euclidean,
    face_planes,
    planarity_residuals,
    validate_combinatorics,
    validate_embedding,
)
from stokerlab.repvar import Presentation

EUCLIDEAN_TETRA_ANGLE = np.arccos(1.0 / 3.0)
CUBE_CORNERS = np.array([[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)],
                        dtype=float)
# cyclic rotations of the cube's faces keep them counterclockwise but make
# vertex 7 a non-anchor everywhere, so no face plane moves with it
CYCLED_CUBE_FACES = [
    [5, 4, 6, 7],
    [0, 1, 3, 2],
    [6, 2, 3, 7],
    [0, 4, 5, 1],
    [3, 1, 5, 7],
    [0, 2, 6, 4],
]


def cube_outside_ball():
    return EmbeddedPolyhedron(fixtures.cube().combinatorics, CUBE_CORNERS)


def cube_nonplanar_quad():
    verts = 0.3 * CUBE_CORNERS
    verts[7] += np.array([0.05, 0.0, 0.0])
    return EmbeddedPolyhedron(fixtures.cube().combinatorics, verts)


def pyramid_apex_below_base():
    poly = fixtures.square_pyramid(0.3)
    pos = poly.positions.copy()
    pos[4] = np.array([0.0, 0.0, pos[0][2] - 0.01])
    return poly.with_positions(pos)


def mirrored_tetrahedron():
    poly = fixtures.tetrahedron(0.3)
    return poly.with_positions(-poly.positions)


def cube_vertex_past_wall():
    """Vertex 7 moved past the x = -s wall (face 1), y and z unchanged."""
    pos = fixtures.cube(0.3).positions.copy()
    pos[7, 0] = pos[0, 0] - 0.02
    return EmbeddedPolyhedron(CombinatorialType(8, CYCLED_CUBE_FACES), pos)


# each failing embedding with the error of its first failing check
FAILING_EMBEDDINGS = {
    "cube_outside_ball": (cube_outside_ball, BallBoundary),
    "cube_nonplanar_quad": (cube_nonplanar_quad, PlanarityViolation),
    "pyramid_apex_below_base": (pyramid_apex_below_base, ConvexityViolation),
    "mirrored_tetrahedron": (mirrored_tetrahedron, ConvexityViolation),
    "cube_vertex_past_wall": (cube_vertex_past_wall, PlanarityViolation),
    "collapsed_corner_tetrahedron": (collapsed_corner_tetrahedron, ConvexityViolation),
}


def torus_and_tetrahedron():
    """The 7-vertex triangulated torus, faces (i, i+1, i+3) and
    (i, i+3, i+2) mod 7, and a tetrahedron on vertices 7-10."""
    faces = [f for i in range(7)
             for f in ([i, (i + 1) % 7, (i + 3) % 7], [i, (i + 3) % 7, (i + 2) % 7])]
    faces += [[8, 10, 9], [7, 9, 10], [7, 10, 8], [7, 8, 9]]
    return CombinatorialType(11, faces)


class TestCombinatorics:
    def test_tetrahedron_counts(self):
        comb = fixtures.tetrahedron().combinatorics
        report = validate_combinatorics(comb)
        assert report.valid
        assert (report.vertex_count, report.edge_count, report.face_count) == (4, 6, 4)

    def test_cube_counts_and_euler(self):
        comb = fixtures.cube().combinatorics
        report = validate_combinatorics(comb)
        assert report.valid
        assert (report.vertex_count, report.edge_count, report.face_count) == (8, 12, 6)
        assert report.euler_characteristic == 2

    def test_inconsistent_shared_edges_reported(self):
        # two quads traverse the shared edges 0->1 and 2->3 in the same direction
        comb = CombinatorialType(6, [[0, 1, 2, 3], [0, 1, 4, 5], [2, 3, 4, 5]])
        report = validate_combinatorics(comb)
        assert not report.valid
        assert any("directed edge" in issue for issue in report.issues)

    @pytest.mark.parametrize("bad", [7, -1])
    def test_out_of_range_index_reported(self, bad):
        # the tetrahedron with its third face [0, 3, 1] pointing past vertex 3
        comb = CombinatorialType(4, [[1, 3, 2], [0, 2, 3], [0, 3, bad], [0, 1, 2]])
        report = validate_combinatorics(comb)
        assert not report.valid
        assert f"face 2 references vertex {bad} outside 0..3" in report.issues
        assert all(0 <= w < 4 for ws in comb.edge_graph.neighbours for w in ws)

    def test_disconnected_edge_graph_reported(self, tmp_path, capsys):
        """The 7-vertex torus beside a tetrahedron: Euler characteristic
        0 + 2, every valence at least 3, and two components."""
        comb = torus_and_tetrahedron()
        report = validate_combinatorics(comb)
        assert report.euler_characteristic == 2
        assert report.issues == ["edge graph is not connected"]
        with pytest.raises(InvalidCombinatorics, match="^edge graph is not connected$"):
            embed_euclidean(comb, np.zeros((11, 3)))
        path = tmp_path / "disconnected.json"
        path.write_text(json.dumps({"vertices": np.zeros((11, 3)).tolist(),
                                    "faces": [list(f) for f in comb.faces]}))
        assert cli.main(["validate", str(path)]) == 1
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["combinatorics_issues"] == ["edge graph is not connected"]

    def test_edge_graph_walk(self):
        graph = fixtures.cube().combinatorics.edge_graph
        assert graph.neighbours == ((1, 2, 4), (0, 3, 5), (0, 3, 6), (1, 2, 7),
                                    (0, 5, 6), (1, 4, 7), (2, 4, 7), (3, 5, 6))
        # breadth first from 0, neighbours in sorted order: 1, 2, 4, then 3, 5, 6, 7
        assert graph.parent.tolist() == [-1, 0, 0, 1, 0, 1, 2, 3]
        assert graph.connected

    def test_disconnected_edge_graph(self):
        faces = [[1, 3, 2], [0, 2, 3], [0, 3, 1], [0, 1, 2]]
        comb = CombinatorialType(8, faces + [[v + 4 for v in f] for f in faces])
        graph = comb.edge_graph
        assert not graph.connected
        assert graph.parent.tolist() == [-1, 0, 0, 0, -1, -1, -1, -1]

    def test_all_fixture_stars_close(self):
        for build in fixtures.STANDARD.values():
            comb = build().combinatorics
            for v in range(comb.vertex_count):
                edges, faces = comb.vertex_star(v)
                assert len(edges) == len(faces) >= 3
                # edge k is shared by faces k-1 and k
                for k, e in enumerate(edges):
                    fa = set(comb.faces[faces[k - 1]])
                    fb = set(comb.faces[faces[k]])
                    assert set(e) <= fa and set(e) <= fb

    def test_vertex_faces_match_a_scan(self):
        """The faces of a vertex's star, sorted, are those a scan of every
        face finds, and the star starts at the lowest.  A vertex outside
        0..n-1 belongs to no face; a vertex in range that no face lists
        makes the type invalid, and its star raises the joined issues."""
        for build in fixtures.STANDARD.values():
            comb = build().combinatorics
            for v in range(comb.vertex_count):
                faces = comb.vertex_star(v)[1]
                assert sorted(faces) == [fi for fi, f in enumerate(comb.faces) if v in f]
                assert faces[0] == min(faces)
        comb = CombinatorialType(5, fixtures.tetrahedron().combinatorics.faces)
        for v in (-1, 5, 9):
            with pytest.raises(InvalidCombinatorics, match=f"^vertex {v} belongs to no face$"):
                comb.vertex_star(v)
        for v in range(5):
            with pytest.raises(InvalidCombinatorics, match="^Euler characteristic 3 != 2; "
                                                           "vertex 4 has valence 0 < 3$"):
                comb.vertex_star(v)

    @staticmethod
    def assert_star_slots_match_walks(comb):
        """The slot table is the ``vertex_star`` walks laid end to end."""
        table = comb.star_slots
        offsets, owners, edges, pairs = [0], [], [], []
        for v in range(comb.vertex_count):
            star_edges, star_faces = comb.vertex_star(v)
            offsets.append(offsets[-1] + len(star_edges))
            owners += [v] * len(star_edges)
            edges += [comb.edge_index[e] for e in star_edges]
            pairs += [(star_faces[k - 1], star_faces[k]) for k in range(len(star_faces))]
        assert [a.dtype for a in table] == [np.intp] * 4
        assert table[0].tolist() == offsets
        assert table[1].tolist() == owners
        assert table[2].tolist() == edges
        assert table[3].shape == (len(pairs), 2)
        assert [tuple(p) for p in table[3].tolist()] == pairs

    @pytest.mark.parametrize("name", sorted(fixtures.STANDARD))
    def test_star_slots_match_walks(self, name):
        self.assert_star_slots_match_walks(fixtures.STANDARD[name](0.3).combinatorics)

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(random_polyhedra(20))
    def test_star_slots_match_walks_on_random_hulls_and_duals(self, poly):
        self.assert_star_slots_match_walks(poly.combinatorics)

    def test_star_slots_reject_valence_below_three(self):
        comb = CombinatorialType(3, [[0, 1, 2], [0, 2, 1]])
        with pytest.raises(InvalidCombinatorics, match="^vertex 0 has valence 2 < 3; "
                                                       "vertex 1 has valence 2 < 3; "
                                                       "vertex 2 has valence 2 < 3$"):
            comb.star_slots

    def test_residual_count_identity(self):
        for build in fixtures.STANDARD.values():
            poly = build()
            comb = poly.combinatorics
            expected = sum(len(f) - 3 for f in comb.faces)
            assert expected == 2 * comb.edge_count - 3 * comb.face_count
            assert planarity_residuals(poly).size == expected


class TestPlanarity:
    def test_tetrahedron_has_no_residuals(self):
        assert planarity_residuals(fixtures.tetrahedron()).size == 0

    def test_cube_residuals_vanish(self):
        residuals = planarity_residuals(fixtures.cube(0.4))
        assert residuals.size == 6
        assert np.max(np.abs(residuals)) < 1e-14

    def test_displacement_along_normal_scales_by_anchor_area(self):
        poly = fixtures.cube(0.3)
        comb = poly.combinatorics
        fi = 0
        face = comb.faces[fi]
        pos = poly.positions.copy()
        base, u, w = pos[face[0]], pos[face[1]] - pos[face[0]], pos[face[2]] - pos[face[0]]
        normal = np.cross(u, w)
        doubled_area = np.linalg.norm(normal)
        delta = 1e-3
        moved = face[3]
        pos[moved] += delta * normal / doubled_area
        perturbed = EmbeddedPolyhedron(comb, pos)
        residuals = planarity_residuals(perturbed)
        index = comb.planarity_pairs
        for k, (f, v) in enumerate(index):
            if (f, v) == (fi, moved):
                assert residuals[k] == pytest.approx(delta * doubled_area, abs=1e-10)
            else:
                assert abs(residuals[k]) < 1e-10


class TestConvexity:
    def test_fixture_margins_positive(self):
        margins = convexity_margins(fixtures.tetrahedron(0.3))
        assert margins.size == 4
        assert margins.min() > 0

    def test_reflection_flips_all_margins(self):
        assert convexity_margins(mirrored_tetrahedron()).max() < 0

    def test_vertex_pulled_past_opposite_face_plane(self):
        comb = CombinatorialType(8, CYCLED_CUBE_FACES)
        poly = EmbeddedPolyhedron(comb, fixtures.cube(0.3).positions)
        assert convexity_margins(poly).min() > 0
        crossing_face = 1  # the x = -s wall, which does not contain vertex 7
        margins = convexity_margins(cube_vertex_past_wall())
        for k, (f, v) in enumerate(np.argwhere(comb.convexity_mask)):
            if (f, v) == (crossing_face, 7):
                assert margins[k] < 0
            else:
                assert margins[k] > 0


class TestEmbedEuclidean:
    def test_tetrahedron_seed(self):
        comb = CombinatorialType(4, [[1, 3, 2], [0, 2, 3], [0, 3, 1], [0, 1, 2]])
        verts = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float)
        poly = embed_euclidean(comb, verts, 0.2)
        assert validate_embedding(poly).valid

    def test_cube_scales(self):
        comb = fixtures.cube().combinatorics
        verts = 0.5 * CUBE_CORNERS
        assert validate_embedding(embed_euclidean(comb, verts, 0.4)).valid
        with pytest.raises(BallBoundary):
            embed_euclidean(comb, verts, 2.0)

    def test_nonplanar_quad_rejected(self):
        poly = cube_nonplanar_quad()
        with pytest.raises(PlanarityViolation):
            embed_euclidean(poly.combinatorics, poly.positions, 1.0)

    def test_nonconvex_rejected(self):
        poly = pyramid_apex_below_base()
        with pytest.raises(ConvexityViolation):
            embed_euclidean(poly.combinatorics, poly.positions, 1.0)


GEOMETRY_COMMANDS = ["angles", "rigidity", "holonomy", "deform", "tracerank"]


def geometry_argv(command, path, tmp_path):
    """Arguments running ``command`` on the polyhedron file ``path``;
    ``tracerank`` reads the link of the last vertex."""
    if command == "deform":
        return ["deform", str(path), "--perturb", "1e-4"]
    if command == "tracerank":
        pres = tmp_path / "pres.txt"
        pres.write_text(formats.dump_presentation(Presentation.punctured_sphere(3)))
        last = formats.load_polyhedron(str(path)).combinatorics.vertex_count - 1
        return ["tracerank", str(pres), "--fixture-vertex", f"{path}:{last}"]
    return [command, str(path)]


class TestEmbeddingJudge:
    """``validate_embedding`` decides ball, planarity and convexity; the
    other paths read its report."""

    @pytest.mark.parametrize("name", sorted(FAILING_EMBEDDINGS))
    def test_embed_raises_the_first_failing_check(self, name):
        build, error = FAILING_EMBEDDINGS[name]
        poly = build()
        report = validate_embedding(poly)
        with pytest.raises(error) as info:
            embed_euclidean(poly.combinatorics, poly.positions)
        assert str(info.value) == report.issues[0]

    @pytest.mark.parametrize("name", sorted(FAILING_EMBEDDINGS))
    def test_cli_verdicts_read_the_report(self, name, tmp_path, capsys):
        poly = FAILING_EMBEDDINGS[name][0]()
        path = tmp_path / "poly.json"
        path.write_text(formats.dump_polyhedron(poly))
        report = validate_embedding(formats.load_polyhedron(str(path)))
        assert not report.valid
        assert cli.main(["validate", str(path)]) == 1
        verdicts = {v["name"]: v["pass"] for v in json.loads(capsys.readouterr().out)["verdicts"]}
        assert verdicts == {
            "combinatorics_valid": True,
            "embedding_planar": report.planar,
            "embedding_convex": report.convex,
            "embedding_in_ball": report.in_ball,
        }

    @pytest.mark.parametrize("command", GEOMETRY_COMMANDS)
    @pytest.mark.parametrize("name", sorted(FAILING_EMBEDDINGS))
    def test_geometry_commands_reject_the_embedding(self, name, command, tmp_path, capsys):
        """The geometry commands judge the embedding before computing, so
        each gives the exit-2 ``ParseError`` report with the judge's first
        issue, also where the face kernel would raise (a vertex outside the
        ball, a degenerate face)."""
        poly = FAILING_EMBEDDINGS[name][0]()
        path = tmp_path / "poly.json"
        path.write_text(formats.dump_polyhedron(poly))
        issue = validate_embedding(formats.load_polyhedron(str(path))).issues[0]
        code = cli.main(geometry_argv(command, path, tmp_path))
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert captured.err == ""
        assert report["command"] == command
        assert (code, report["error"]) == (2, "ParseError")
        assert report["message"] == f"{path}: invalid embedding: {issue}"

    @pytest.mark.parametrize("command", GEOMETRY_COMMANDS)
    def test_scaled_cube_vertex_rejected(self, command, tmp_path, capsys):
        """Vertex 7 of ``cube(0.3)`` pulled in by 0.2 bends three faces:
        ``validate`` fails planarity, and so must the geometry commands."""
        poly = fixtures.cube(0.3)
        pos = poly.positions.copy()
        pos[7] *= 0.2
        path = tmp_path / "poly.json"
        path.write_text(formats.dump_polyhedron(poly.with_positions(pos)))
        assert cli.main(["validate", str(path)]) == 1
        capsys.readouterr()
        assert cli.main(geometry_argv(command, path, tmp_path)) == 2
        captured = capsys.readouterr()
        assert captured.err == ""
        report = json.loads(captured.out)
        assert report["error"] == "ParseError"
        assert "invalid embedding: max planarity residual" in report["message"]

    def test_ball_verdict_is_the_face_kernel_test(self):
        """Under ball = 1e-8 this vertex's |p|^2 is one ulp below
        (1 - ball)^2 while |p| rounds to 1 - ball itself.  Vertex 0 anchors
        three faces, so the face kernel tests it too: the judge and the
        kernel read one predicate and agree that it is inside."""
        tol = Tolerances(ball=1e-8)
        pos = fixtures.cube(0.3).positions.copy()
        pos[0] = [0.9999999899999998, 7.462311557788945e-09, 0.0]
        poly = EmbeddedPolyhedron(CombinatorialType(8, CYCLED_CUBE_FACES), pos)
        face_planes(poly, tol)
        assert validate_embedding(poly, tol).in_ball

    @pytest.mark.parametrize("vertex", [0, 7])
    def test_nan_fails_every_check(self, vertex):
        # vertex 0 anchors three faces, vertex 7 none
        pos = fixtures.cube(0.3).positions.copy()
        pos[vertex, 1] = np.nan
        poly = EmbeddedPolyhedron(CombinatorialType(8, CYCLED_CUBE_FACES), pos)
        report = validate_embedding(poly)
        assert not (report.in_ball or report.planar or report.convex)
        assert len(report.issues) == 3 and not report.valid
        with pytest.raises(BallBoundary):
            embed_euclidean(poly.combinatorics, pos)

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    @pytest.mark.parametrize("vertex", [0, 7])
    def test_infinite_coordinate_fails(self, vertex, value):
        pos = fixtures.cube(0.3).positions.copy()
        pos[vertex, 2] = value
        poly = EmbeddedPolyhedron(CombinatorialType(8, CYCLED_CUBE_FACES), pos)
        report = validate_embedding(poly)
        assert not report.valid and not report.in_ball
        with pytest.raises(BallBoundary):
            embed_euclidean(poly.combinatorics, pos)


class TestDihedralAngles:
    def test_orthogonal_faces_give_right_angle(self):
        poly = corner_tetrahedron()
        comb = poly.combinatorics
        angles = dihedral_angles(poly)
        for e in [(0, 1), (0, 2), (0, 3)]:
            assert angles[comb.edge_index[e]] == pytest.approx(np.pi / 2, abs=1e-12)

    def test_regular_tetrahedron_angles_equal_and_below_euclidean_limit(self):
        for scale in (0.1, 0.3, 0.5):
            angles = dihedral_angles(fixtures.tetrahedron(scale))
            assert np.ptp(angles) < 1e-12
            assert angles[0] < EUCLIDEAN_TETRA_ANGLE

    def test_angles_match_intrinsic_metric_oracle(self):
        poly = fixtures.tetrahedron(0.4)
        comb = poly.combinatorics
        angles = dihedral_angles(poly)
        for k, e in enumerate(comb.edges):
            assert angles[k] == pytest.approx(intrinsic_dihedral_angle(poly, e), abs=1e-12)

    def test_euclidean_limit(self):
        # the common angle approaches arccos(1/3) from below, quadratically in scale
        err_coarse = EUCLIDEAN_TETRA_ANGLE - dihedral_angles(fixtures.tetrahedron(0.02))[0]
        err_fine = EUCLIDEAN_TETRA_ANGLE - dihedral_angles(fixtures.tetrahedron(0.01))[0]
        assert 0 < err_fine < err_coarse < 1e-3
        assert err_fine == pytest.approx(err_coarse / 4.0, rel=0.05)

    def test_cube_symmetry(self):
        for scale in (0.2, 0.45):
            angles = dihedral_angles(fixtures.cube(scale))
            assert angles.size == 12
            assert np.ptp(angles) < 1e-12

    def test_isometry_invariance(self):
        poly = fixtures.tetrahedron(0.15)
        base = dihedral_angles(poly)
        rng = np.random.default_rng(42)
        for _ in range(50):
            iso = random_isometry(rng, scale=0.5)
            moved = poly.with_positions(lorentz.apply_isometry(iso, poly.positions))
            assert np.max(np.linalg.norm(moved.positions, axis=1)) < 1.0
            assert np.max(np.abs(dihedral_angles(moved) - base)) < 1e-9

    def test_ultraparallel_face_planes_name_their_edge(self):
        """A 5e-3 jitter of ``random_polar_dual(3122421145, 24)`` (criterion
        6's probe) leaves the face planes of edge (5, 14) ultraparallel:
        the angles raise ``DegenerateFace`` naming the edge and its faces,
        with no square root of a negative number on the way."""
        poly = random_polar_dual(3122421145, 24)
        jitter = np.random.default_rng(3122421145).normal(0.0, 5e-3, poly.positions.shape)
        probe = poly.with_positions(poly.positions + jitter)
        message = "faces 21 and 8 of edge (5, 14) lie in ultraparallel planes"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DegenerateFace, match=re.escape(message)):
                dihedral_angles(probe)

    def test_relabeling_permutes_angles(self):
        poly = fixtures.tetrahedron(0.3)
        comb = poly.combinatorics
        perm = np.array([2, 0, 3, 1])  # image of each old label
        new_faces = [[int(perm[v]) for v in f] for f in comb.faces]
        new_pos = np.empty_like(poly.positions)
        for old, new in enumerate(perm):
            new_pos[new] = poly.positions[old]
        relabeled = EmbeddedPolyhedron(CombinatorialType(4, new_faces), new_pos)
        old_angles = dihedral_angles(poly)
        new_angles = dihedral_angles(relabeled)
        new_comb = relabeled.combinatorics
        for k, (a, b) in enumerate(comb.edges):
            image = (min(perm[a], perm[b]), max(perm[a], perm[b]))
            assert new_angles[new_comb.edge_index[image]] == pytest.approx(
                old_angles[k], abs=1e-13
            )


class TestRelabelingInvariance:
    def test_margin_and_residual_multisets_preserved(self):
        # rotating the base of the pyramid by one step is an automorphism
        poly = fixtures.pentagonal_pyramid(0.3)
        comb = poly.combinatorics
        perm = np.array([1, 2, 3, 4, 0, 5])
        new_faces = [[int(perm[v]) for v in f] for f in comb.faces]
        new_pos = np.empty_like(poly.positions)
        for old, new in enumerate(perm):
            new_pos[new] = poly.positions[old]
        relabeled = EmbeddedPolyhedron(CombinatorialType(6, new_faces), new_pos)
        assert np.allclose(
            np.sort(convexity_margins(poly)), np.sort(convexity_margins(relabeled)),
            atol=1e-14,
        )
        assert np.allclose(
            np.sort(np.abs(planarity_residuals(poly))),
            np.sort(np.abs(planarity_residuals(relabeled))),
            atol=1e-14,
        )


class TestTriangulatedEmbeddings:
    def test_positive_margins_suffice(self):
        rng = np.random.default_rng(11)
        poly = fixtures.tetrahedron(0.35)
        for _ in range(10):
            jitter = rng.uniform(-0.03, 0.03, poly.positions.shape)
            candidate = poly.with_positions(poly.positions + jitter)
            margins = convexity_margins(candidate)
            if margins.min() > 0:
                report = validate_embedding(candidate)
                assert report.valid
                assert planarity_residuals(candidate).size == 0
