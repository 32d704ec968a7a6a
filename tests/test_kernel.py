"""Closed-form face-plane kernel against independent references on random
simplicial hulls and their polar duals.

References: ``helpers.mp_plane_normal`` (a 40-digit mpmath null vector,
witness orientation) and ``helpers.mp_dihedral_angle`` for normals and
angles, a loop of ``np.linalg.det`` for the determinants, central
differences for both Jacobians, a per-face incidence loop for the
convexity mask, and ``helpers.jacobian_reference`` (a row-by-row
``np.add.at`` scatter) for the stacked Jacobian's placement.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from helpers import (
    capped_cube,
    collapsed_corner_tetrahedron,
    constraint_blocks_reference,
    dot3_reference,
    finite_difference_jacobian,
    jacobian_reference,
    margin_table_reference,
    mp_dihedral_angle,
    mp_plane_normal,
    prism,
    random_polyhedra,
    same_bits,
)
from stokerlab import fixtures, lorentz
from stokerlab.errors import DegenerateFace
from stokerlab.polyhedron import (
    FaceGeometry,
    convexity_margins,
    dihedral_angles,
    face_planes,
    planarity_residuals,
    validate_embedding,
)
from stokerlab.repvar import link_representation
from stokerlab.rigidity import angle_jacobian, constraint_jacobian

EPS = np.finfo(float).eps
REFERENCE_TOL = 1e-13    # normals and angles against the mpmath route
NEAR_PI_TOL = 4 * EPS    # angles near pi against the mpmath route
FD_TOL = 1e-6            # same bound as the fixture oracles

examples = settings(max_examples=20, deadline=None, derandomize=True)


def reference_normals(poly):
    """``mp_plane_normal`` of every face, witnessed by the vertex centroid."""
    witness = poly.positions.mean(axis=0)
    return [mp_plane_normal(*poly.positions[list(f[:3])], witness)
            for f in poly.combinatorics.faces]


def det_reference(poly, index, convex):
    """Loop-of-det values and their rounding bounds 64 eps |u| |w| |x|."""
    pos = poly.positions
    values, bounds = [], []
    for fi, v in index:
        f = poly.combinatorics.faces[fi]
        u, w, x = pos[f[1]] - pos[f[0]], pos[f[2]] - pos[f[0]], pos[v] - pos[f[0]]
        cols = [w, u, x] if convex else [u, w, x]
        values.append(np.linalg.det(np.column_stack(cols)))
        bounds.append(64 * EPS * np.linalg.norm(u) * np.linalg.norm(w) * np.linalg.norm(x))
    return np.array(values), np.array(bounds)


def convexity_pairs_reference(comb):
    """(face, vertex) rows of every vertex off each face, face-major, from
    one incidence row per face."""
    incident = np.zeros((comb.face_count, comb.vertex_count), dtype=bool)
    for fi, f in enumerate(comb.faces):
        incident[fi, list(f)] = True
    return np.argwhere(~incident)


@examples
@given(random_polyhedra(24))
def test_normals_match_plane_through(poly):
    ref = np.array(reference_normals(poly), dtype=float)
    assert np.max(np.abs(FaceGeometry(poly).normals - ref)) <= REFERENCE_TOL
    assert np.max(np.abs(face_planes(poly) - ref)) <= REFERENCE_TOL
    through = np.array([lorentz.plane_through(*poly.positions[list(f[:3])])
                        for f in poly.combinatorics.faces])
    assert np.max(np.abs(through - ref)) <= REFERENCE_TOL


@examples
@given(random_polyhedra(24))
def test_angles_match_minkowski_inner(poly):
    ref = reference_normals(poly)
    expected = np.array([mp_dihedral_angle(ref[fa], ref[fb])
                         for fa, fb in poly.combinatorics.edge_face_pairs.tolist()])
    assert np.max(np.abs(dihedral_angles(poly) - expected)) <= REFERENCE_TOL


@pytest.mark.parametrize("height", [1e-3, 1e-5, 1e-7])
def test_angles_near_pi_match_minkowski_inner(height):
    """The apex edges of ``capped_cube`` are within about 1.4 height of pi.
    The half-angle form keeps every angle within a few eps of the reference
    there, while arccos of the inner product amplifies its rounding by
    1 / sin(angle)."""
    poly = capped_cube(height)
    ref = reference_normals(poly)
    expected = np.array([mp_dihedral_angle(ref[fa], ref[fb])
                         for fa, fb in poly.combinatorics.edge_face_pairs.tolist()])
    assert np.pi - expected.max() < 2 * height
    assert np.max(np.abs(dihedral_angles(poly) - expected)) <= NEAR_PI_TOL


def test_flat_edges_have_zero_angle_rows():
    """With the apex of ``capped_cube`` on the top face, its four edges are
    flat (n_f = n_g): each angle is pi and has no derivative there, and its
    angle Jacobian rows are 0, with no division by zero."""
    poly = capped_cube(1e-3)
    pos = poly.positions.copy()
    pos[8, 2] = pos[7, 2]
    geom = FaceGeometry(poly.with_positions(pos))
    flat = geom.angles == np.pi
    assert np.count_nonzero(flat) == 4
    jac = geom.angle_jacobian()
    assert np.all(np.isfinite(jac)) and not np.any(jac[flat])


FIXTURES = {**{name: build(0.3) for name, build in fixtures.STANDARD.items()},
            "square_pyramid": fixtures.square_pyramid(0.3), "capped_cube": capped_cube(1e-3)}


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_convexity_pairs_match_face_loop(name):
    comb = FIXTURES[name].combinatorics
    assert np.array_equal(np.argwhere(comb.convexity_mask), convexity_pairs_reference(comb))


@examples
@given(random_polyhedra(24))
def test_convexity_pairs_match_face_loop(poly):
    comb = poly.combinatorics
    assert np.array_equal(np.argwhere(comb.convexity_mask), convexity_pairs_reference(comb))


@examples
@given(random_polyhedra(24))
def test_convexity_margins_equal_gathered_pairs(poly):
    """The masked F x V table holds the same products, in the same order, as
    the determinants gathered at each (face, vertex) pair: equal bit for bit."""
    geom = FaceGeometry(poly)
    f, v = np.argwhere(poly.combinatorics.convexity_mask).T
    gathered = -lorentz._dot3(geom.cross[f], geom.positions[v] - geom.anchors[f, 0])
    assert np.array_equal(geom.convexity_margins(), gathered)


@examples
@given(random_polyhedra(24))
def test_determinants_match_det_loop(poly):
    comb = poly.combinatorics
    values, bounds = det_reference(poly, comb.planarity_pairs, convex=False)
    assert np.all(np.abs(planarity_residuals(poly) - values) <= bounds)
    values, bounds = det_reference(poly, np.argwhere(comb.convexity_mask), convex=True)
    margins = convexity_margins(poly)
    assert np.all(np.abs(margins - values) <= bounds)
    assert margins.min() > 0


@examples
@given(random_polyhedra(24))
def test_jacobians_match_finite_differences(poly):
    flat = poly.positions.ravel()

    def moved(x):
        return poly.with_positions(x.reshape(-1, 3))

    fd = finite_difference_jacobian(lambda x: dihedral_angles(moved(x)), flat)
    assert np.max(np.abs(angle_jacobian(poly) - fd)) < FD_TOL
    analytic = constraint_jacobian(poly)
    fd = finite_difference_jacobian(lambda x: planarity_residuals(moved(x)), flat)
    assert analytic.shape == fd.shape
    if analytic.size:
        assert np.max(np.abs(analytic - fd)) < FD_TOL


def assert_stacked_jacobian_exact(poly):
    """``jacobian`` equals its two row ranges stacked, and the row-by-row
    reference scatter of the same blocks, bit for bit."""
    geom = FaceGeometry(poly)
    jac = geom.jacobian()
    assert np.array_equal(jac, np.vstack([geom.constraint_jacobian(), geom.angle_jacobian()]))
    assert np.array_equal(jac, jacobian_reference(geom))


STACKED = {**{f"{name}@{scale}": (build, scale) for name, build in fixtures.STANDARD.items()
              for scale in (0.02, 0.3)},
           **{f"prism{n}": (prism, n) for n in (3, 5, 8)}}


@pytest.mark.parametrize("name", sorted(STACKED))
def test_stacked_jacobian_is_exact(name):
    build, arg = STACKED[name]
    assert_stacked_jacobian_exact(build(arg))


@examples
@given(random_polyhedra(24))
def test_stacked_jacobian_is_exact_on_hulls_and_duals(poly):
    assert_stacked_jacobian_exact(poly)


def assert_planarity_kernel_exact(poly):
    """The planarity residuals and their gradient blocks, read from one
    gather of each pair's four points, equal the per-pair gathers, two
    cross products and the stored u x w, bit for bit; a polyhedron without
    planarity pairs gets empty (0,) and (0, 4, 3) arrays."""
    geom = FaceGeometry(poly)
    f, v = poly.combinatorics.planarity_pairs.T
    residuals = dot3_reference(geom.cross[f], geom.positions[v] - geom.anchors[f, 0])
    assert same_bits(geom.planarity_residuals(), residuals)
    assert same_bits(geom._constraint_blocks(), constraint_blocks_reference(geom))


@pytest.mark.parametrize("name", sorted(STACKED))
def test_planarity_kernel_is_exact(name):
    build, arg = STACKED[name]
    assert_planarity_kernel_exact(build(arg))


@examples
@given(random_polyhedra(24))
def test_planarity_kernel_is_exact_on_hulls_and_duals(poly):
    assert_planarity_kernel_exact(poly)


def test_only_the_normals_raise_on_a_degenerate_face():
    """Collinear anchors: the determinants and their Jacobian read no
    normals and return; the stacked Jacobian reads them and raises."""
    geom = FaceGeometry(collapsed_corner_tetrahedron())
    assert geom.constraint_jacobian().shape == (0, 12)
    assert geom.planarity_residuals().shape == (0,)
    assert geom.convexity_margins().shape == (4,)
    with pytest.raises(DegenerateFace):
        geom.jacobian()


def assert_margins_exact(poly):
    """``convexity_margins`` is the (F, V, 3) reference table read through
    the mask, and ``min_convexity_margin`` its least entry, bit for bit."""
    geom = FaceGeometry(poly)
    margins = geom.convexity_margins()
    reference = -margin_table_reference(geom)[poly.combinatorics.convexity_mask]
    assert np.array_equal(margins, reference)
    assert np.float64(geom.min_convexity_margin()).tobytes() == margins.min().tobytes()


@pytest.mark.parametrize("name", sorted(STACKED))
def test_margins_are_exact(name):
    build, arg = STACKED[name]
    assert_margins_exact(build(arg))


@examples
@given(random_polyhedra(24))
def test_margins_are_exact_on_hulls_and_duals(poly):
    assert_margins_exact(poly)


def test_a_nan_vertex_gives_a_nan_margin():
    poly = fixtures.cube(0.3)
    pos = poly.positions.copy()
    pos[1, 2] = np.nan
    poly = poly.with_positions(pos)
    geom = FaceGeometry(poly)
    assert np.isnan(geom.convexity_margins().min())
    assert np.isnan(geom.min_convexity_margin())
    assert not validate_embedding(poly).convex


def test_margins_return_on_a_degenerate_face():
    """Collinear anchors: the margins read no normals, so both return."""
    assert_margins_exact(collapsed_corner_tetrahedron())


@examples
@given(random_polyhedra(24))
def test_face_subsets_match_full_evaluation(poly):
    """A one-vertex holonomy call reads its cone angles from the same
    kernel as the full evaluation: twice the dihedral angles of its star
    edges, bit for bit."""
    comb = poly.combinatorics
    geom = FaceGeometry(poly)
    for v in (0, comb.vertex_count - 1):
        star_edges, _ = comb.vertex_star(v)
        link = link_representation(poly, v)
        edges = [comb.edge_index[e] for e in star_edges]
        assert np.array_equal(link.cone_angles, 2.0 * geom.angles[edges])
