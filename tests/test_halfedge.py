"""The half-edge ``CombinatorialType`` against the dict-and-walk reference.

``helpers.WalkedCombinatorics`` and ``validate_combinatorics_reference``
build every structure with Python dicts, one walk per vertex star and
per-face comprehensions.  On valid types every structure must equal the
reference's in value, order and dtype.  On invalid ones the issue list
must equal the reference's string for string, and each structure must
either equal the reference's or raise ``InvalidCombinatorics`` with those
issues joined by "; ".
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    WalkedCombinatorics,
    prism_faces,
    random_polyhedra,
    validate_combinatorics_reference,
)
from stokerlab import fixtures
from stokerlab.errors import InvalidCombinatorics
from stokerlab.polyhedron import CombinatorialType, validate_combinatorics

examples = settings(max_examples=40, deadline=None, derandomize=True)
TETRA = [[1, 3, 2], [0, 2, 3], [0, 3, 1], [0, 1, 2]]


def assert_same(got, want):
    if isinstance(want, tuple) and want and isinstance(want[0], np.ndarray):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert_same(a, b)
    elif isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
    else:
        assert got == want


def assert_built_or_raises(build, reference, issues):
    """``build()`` equals ``reference()``, or raises the joined ``issues``
    of an invalid type."""
    try:
        got = build()
    except InvalidCombinatorics as exc:
        assert issues and str(exc) == "; ".join(issues)
    else:
        assert_same(got, reference())


def assert_matches_reference(vertex_count, faces):
    comb = CombinatorialType(vertex_count, faces)
    ref = WalkedCombinatorics(vertex_count, faces)
    report, expected = validate_combinatorics(comb), validate_combinatorics_reference(ref)
    assert report == expected
    assert comb.faces == ref.faces
    assert comb.edges == ref.edges
    assert comb.edge_index == ref.edge_index
    assert (comb.edge_count, comb.face_count) == (ref.edge_count, ref.face_count)
    graph, want = comb.edge_graph, ref.edge_graph()
    assert graph.neighbours == want.neighbours
    assert_same(graph.parent, want.parent)
    for build, reference in [(lambda: comb.edge_face_pairs, ref.edge_face_pairs),
                             (lambda: comb.face_anchors, ref.face_anchors),
                             (lambda: comb.star_slots, ref.star_slots),
                             (lambda: comb.jacobian_cells, ref.jacobian_cells)]:
        assert_built_or_raises(build, reference, report.issues)
    for v in range(vertex_count):
        assert_built_or_raises(lambda: comb.vertex_star(v), lambda: ref.vertex_star(v),
                               report.issues)
    if report.valid:
        assert_same(comb.planarity_pairs, ref.planarity_pairs())
        assert_same(comb.convexity_mask, ref.convexity_mask())
    return report


@pytest.mark.parametrize("name", sorted(fixtures.STANDARD))
def test_fixtures_match_reference(name):
    comb = fixtures.STANDARD[name]().combinatorics
    assert assert_matches_reference(comb.vertex_count, comb.faces).valid


@pytest.mark.parametrize("n", [3, 4, 5, 8, 16, 33])
def test_prisms_match_reference(n):
    assert assert_matches_reference(2 * n, prism_faces(n)).valid


@examples
@given(random_polyhedra(40))
def test_random_hulls_and_duals_match_reference(poly):
    comb = poly.combinatorics
    assert assert_matches_reference(comb.vertex_count, comb.faces).valid


def glued_tetrahedra():
    """Two tetrahedra sharing vertex 0: its star is two cycles."""
    other = {0: 0, 1: 4, 2: 5, 3: 6}
    return 7, TETRA + [[other[v] for v in f] for f in TETRA]


def octahedra_glued_at_both_poles():
    """Two octahedra sharing their poles 0 and 1: V - E + F = 10 - 24 + 16
    = 2 and every edge has its two faces, so only the star walk finds that
    each pole's star is two cycles."""
    faces = []
    for ring in ([2, 3, 4, 5], [6, 7, 8, 9]):
        for a, b in zip(ring, ring[1:] + ring[:1]):
            faces += [[0, a, b], [1, b, a]]
    return 10, faces


INVALID = {
    "reversed_face": (4, [TETRA[0][::-1]] + TETRA[1:]),
    "dropped_face": (4, TETRA[1:]),
    "repeated_vertex": (4, [[1, 3, 1, 2]] + TETRA[1:]),
    "out_of_range_index": (4, TETRA[:2] + [[0, 3, 7]] + TETRA[3:]),
    "negative_index": (4, TETRA[:2] + [[0, 3, -1]] + TETRA[3:]),
    "two_gon": (4, TETRA + [[0, 1]]),
    "two_gons_only": (2, [[0, 1], [1, 0]]),
    "one_gon_and_empty_face": (4, TETRA + [[2], []]),
    "pinched_star": glued_tetrahedra(),
    "pinched_poles": octahedra_glued_at_both_poles(),
    "two_disjoint_tetrahedra": (8, TETRA + [[v + 4 for v in f] for f in TETRA]),
    "vertex_in_no_face": (5, TETRA),
    "duplicated_face": (4, TETRA + [TETRA[0]]),
    "same_direction_quads": (6, [[0, 1, 2, 3], [0, 1, 4, 5], [2, 3, 4, 5]]),
    "valence_two": (3, [[0, 1, 2], [0, 2, 1]]),
    "issues_of_two_faces": (4, TETRA + [TETRA[1], [0, 2, 0, 3]]),
    "single_triangle": (3, [[0, 1, 2]]),
    "open_disk": (4, [[0, 1, 2], [0, 2, 3]]),
    "no_faces": (3, []),
    "empty": (0, []),
}


@pytest.mark.parametrize("name", sorted(INVALID))
def test_invalid_types_match_reference(name):
    vertex_count, faces = INVALID[name]
    assert not assert_matches_reference(vertex_count, faces).valid


def test_pinched_poles_are_found_by_the_walk():
    comb = CombinatorialType(*octahedra_glued_at_both_poles())
    assert validate_combinatorics(comb).issues == [
        "vertex 0 has a disconnected or pinched star",
        "vertex 1 has a disconnected or pinched star",
    ]
    with pytest.raises(InvalidCombinatorics) as raised:
        comb.star_slots
    assert str(raised.value) == "; ".join(validate_combinatorics(comb).issues)


MUTATIONS = ("reverse", "drop", "duplicate", "reindex", "rotate_pair", "swap", "truncate",
             "repeat_first")


@examples
@given(random_polyhedra(16), st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=3),
       st.integers(0, 10 ** 6))
def test_mutated_hulls_and_duals_match_reference(poly, mutations, seed):
    """One to three random defects in a valid type: issue lists, edges,
    graph and the raising structures all equal the reference's."""
    rng = np.random.default_rng(seed)
    n = poly.combinatorics.vertex_count
    faces = [list(f) for f in poly.combinatorics.faces]
    for mutation in mutations:
        k = int(rng.integers(len(faces)))
        face = faces[k]
        if mutation == "reverse":
            face.reverse()
        elif mutation == "drop" and len(faces) > 1:
            del faces[k]
        elif mutation == "duplicate":
            faces.append(list(face))
        elif mutation == "reindex" and face:
            face[int(rng.integers(len(face)))] = int(rng.integers(-2, n + 2))
        elif mutation == "rotate_pair":
            j = int(rng.integers(len(faces)))
            faces[k], faces[j] = face[1:] + face[:1], faces[j][::-1]
        elif mutation == "swap" and len(face) > 1:
            i, j = rng.choice(len(face), 2, replace=False)
            face[i], face[j] = face[j], face[i]
        elif mutation == "truncate":
            del face[int(rng.integers(3)):]
        elif mutation == "repeat_first" and face:
            face.append(face[0])
    assert_matches_reference(n, faces)
