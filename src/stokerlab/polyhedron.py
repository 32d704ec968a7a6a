"""Convex polyhedra in the Klein ball and their dihedral-angle map.

A combinatorial type is a closed face-vertex incidence structure; an
embedding supplies Klein coordinates for every vertex.  Because Klein planes
are Euclidean planes, planarity and convexity of an embedding are expressed
by 3x3 determinants in the vertex coordinates:

* planarity: for each face, every vertex beyond the first three anchors is
  coplanar with them (determinant zero);
* convexity: every vertex not on a face lies strictly inside its supporting
  half-space (oriented determinant positive).

Faces are stored counterclockwise as seen from outside, so the cross product
of the first two anchor edges points outward; the convexity determinant
below is oriented to make interior vertices positive.  ``FaceGeometry``
evaluates all of it, with closed-form plane normals, angles and Jacobians,
in batches over index arrays cached on the combinatorial type.
"""

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

from . import lorentz
from .config import DEFAULT, Tolerances
from .errors import (
    BallBoundary,
    ConvexityViolation,
    InvalidCombinatorics,
    PlanarityViolation,
)
from .lorentz import _cross, _dot3, _unit_normals


class CombinatorialType:
    """Face-vertex incidence structure of a closed convex polyhedron.

    Parameters
    ----------
    vertex_count : number of vertices, indexed 0..n-1
    faces : iterable of cyclic vertex-index lists, counterclockwise viewed
        from outside

    Derived data (edges, directed-edge owners, vertex stars) is computed on
    construction; use :func:`validate_combinatorics` for a full diagnostic.
    """

    def __init__(self, vertex_count, faces):
        self.vertex_count = int(vertex_count)
        self.faces = tuple(tuple(int(v) for v in f) for f in faces)
        self._directed = {}
        for fi, f in enumerate(self.faces):
            for a, b in _cyclic_pairs(f):
                self._directed.setdefault((a, b), fi)
        self.edges = tuple(sorted({(min(a, b), max(a, b)) for a, b in self._directed}))
        self.edge_index = {e: k for k, e in enumerate(self.edges)}
        self._stars = {}

    @property
    def edge_count(self):
        return len(self.edges)

    @property
    def face_count(self):
        return len(self.faces)

    def face_of_directed(self, a, b):
        """Index of the face containing the directed edge a -> b."""
        try:
            return self._directed[(a, b)]
        except KeyError:
            raise InvalidCombinatorics(f"no face contains directed edge {a}->{b}") from None

    def edge_faces(self, edge):
        """The two faces adjacent to an undirected edge (a, b) with a < b."""
        a, b = edge
        return self.face_of_directed(a, b), self.face_of_directed(b, a)

    def vertex_star(self, v):
        """Cyclic star at v: (edges, faces) with edge k between faces k-1, k.

        Edges are returned as sorted index pairs and faces as face indices;
        the walk crosses edges using the stored face orientations, so the two
        stars at the ends of an edge traverse its faces in opposite order.
        """
        if v not in self._stars:
            self._stars[v] = self._walk_star(v)
        return self._stars[v]

    @cached_property
    def vertex_faces(self):
        """Faces containing each vertex, in increasing face order, keyed by
        every vertex that some face lists (in range or not)."""
        incident = {}
        for fi, f in enumerate(self.faces):
            for v in dict.fromkeys(f):
                incident.setdefault(v, []).append(fi)
        return incident

    def _walk_star(self, v):
        incident = self.vertex_faces.get(v, ())
        if not incident:
            raise InvalidCombinatorics(f"vertex {v} belongs to no face")
        start = min(incident)
        faces = [start]
        edges = []
        current = start
        for _ in range(len(incident)):
            f = self.faces[current]
            b = f[(f.index(v) + 1) % len(f)]
            edges.append((min(v, b), max(v, b)))
            current = self.face_of_directed(b, v)
            if current == start:
                break
            faces.append(current)
        if len(faces) != len(incident) or len(edges) != len(incident):
            raise InvalidCombinatorics(f"vertex {v} has a disconnected or pinched star")
        # rotate so the star is recorded as: edge k shared by faces[k-1], faces[k]
        edges = edges[-1:] + edges[:-1]
        return tuple(edges), tuple(faces)

    def vertex_valence(self, v):
        return len(self.vertex_star(v)[0])

    @cached_property
    def star_slots(self):
        """The ``vertex_star`` walks of all vertices as one table of arrays:
        slot offsets (v owns slots ``offsets[v]:offsets[v + 1]``), then per
        slot its owner vertex, edge index and (face before, face after).
        Raises ``InvalidCombinatorics`` for a valence below 3."""
        stars = [self.vertex_star(v) for v in range(self.vertex_count)]
        sizes = [len(edges) for edges, _ in stars]
        for v, d in enumerate(sizes):
            if d < 3:
                raise InvalidCombinatorics(f"vertex {v} has valence {d} < 3")
        edges = [self.edge_index[e] for star_edges, _ in stars for e in star_edges]
        pairs = [(faces[k - 1], faces[k]) for _, faces in stars for k in range(len(faces))]
        return (np.cumsum([0] + sizes, dtype=np.intp), np.repeat(np.arange(len(sizes)), sizes),
                np.array(edges, dtype=np.intp), np.array(pairs, dtype=np.intp).reshape(-1, 2))

    @cached_property
    def edge_graph(self):
        """The one walk of the edge graph: sorted neighbours per vertex and
        the breadth-first parent of every vertex from vertex 0, visiting
        neighbours in sorted order.  Edges with an end outside 0..n-1 are
        skipped, so the walk never raises on an invalid type."""
        n = self.vertex_count
        adjacent = [set() for _ in range(n)]
        for a, b in self.edges:
            if 0 <= a and b < n:            # a <= b in a stored edge
                adjacent[a].add(b)
                adjacent[b].add(a)
        neighbours = tuple(tuple(sorted(s)) for s in adjacent)
        parent = np.full(n, -1, dtype=np.intp)
        order = [0] if n else []
        for u in order:                     # grows while it is walked
            for w in neighbours[u]:
                if w and parent[w] < 0:
                    parent[w] = u
                    order.append(w)
        return EdgeGraph(neighbours, parent)

    # Index arrays of the batched face-plane kernel (``FaceGeometry``),
    # built on first use because an invalid type may lack some of them.

    @cached_property
    def face_anchors(self):
        """(F, 3) first three stored vertices of every face."""
        return np.array([f[:3] for f in self.faces], dtype=np.intp).reshape(-1, 3)

    @cached_property
    def edge_face_pairs(self):
        """(E, 2) the faces of ``edge_faces`` for every edge, in edge order."""
        return np.array([self.edge_faces(e) for e in self.edges], dtype=np.intp).reshape(-1, 2)

    @cached_property
    def planarity_pairs(self):
        """(P, 2) (face, vertex) rows: every face vertex beyond the anchors."""
        return np.array([(fi, v) for fi, f in enumerate(self.faces) for v in f[3:]],
                        dtype=np.intp).reshape(-1, 2)

    @cached_property
    def convexity_mask(self):
        """(F, V) bool: True where the vertex is not on the face."""
        sizes = [len(f) for f in self.faces]
        mask = np.ones((self.face_count, self.vertex_count), dtype=bool)
        mask[np.repeat(np.arange(self.face_count), sizes),
             np.fromiter(chain.from_iterable(self.faces), np.intp, sum(sizes))] = False
        return mask


def _cyclic_pairs(face):
    for i, a in enumerate(face):
        yield a, face[(i + 1) % len(face)]


@dataclass(frozen=True)
class EdgeGraph:
    """Adjacency and breadth-first spanning tree of an edge graph.

    ``neighbours[v]`` is the sorted tuple of v's neighbours; ``parent[v]``
    is v's parent in the breadth-first tree from vertex 0, and -1 at vertex
    0 and at every vertex the walk did not reach.
    """

    neighbours: tuple
    parent: np.ndarray

    @property
    def connected(self):
        return int(np.count_nonzero(self.parent >= 0)) == len(self.parent) - 1


@dataclass
class CombinatoricsReport:
    """Outcome of the combinatorial validation; ``issues`` is empty when valid."""

    vertex_count: int
    edge_count: int
    face_count: int
    euler_characteristic: int
    issues: list = field(default_factory=list)

    @property
    def valid(self):
        return not self.issues


def validate_combinatorics(comb: CombinatorialType) -> CombinatoricsReport:
    """Check every incidence invariant and itemize violations.

    Verified: index ranges, faces of size >= 3 without repeats, each edge in
    exactly two faces with opposite traversal directions, Euler
    characteristic 2, vertex valences >= 3, single-cycle vertex stars and a
    connected edge graph.  Never raises; failures are listed in the report.
    """
    issues = []
    n = comb.vertex_count
    directed = {}
    for fi, f in enumerate(comb.faces):
        if len(f) < 3:
            issues.append(f"face {fi} has fewer than 3 vertices")
            continue
        if len(set(f)) != len(f):
            issues.append(f"face {fi} repeats a vertex")
        for v in f:
            if not 0 <= v < n:
                issues.append(f"face {fi} references vertex {v} outside 0..{n - 1}")
        for a, b in _cyclic_pairs(f):
            if (a, b) in directed:
                issues.append(
                    f"directed edge {a}->{b} appears in faces {directed[(a, b)]} and {fi}"
                )
            directed[(a, b)] = fi
    for a, b in comb.edges:
        if (a, b) not in directed or (b, a) not in directed:
            issues.append(f"edge {a}-{b} is not shared by two faces with opposite directions")

    euler = n + comb.face_count - comb.edge_count
    if euler != 2:
        issues.append(f"Euler characteristic {euler} != 2")

    graph = comb.edge_graph
    for v, neighbours in enumerate(graph.neighbours):
        if len(neighbours) < 3:
            issues.append(f"vertex {v} has valence {len(neighbours)} < 3")
    if n and not issues:
        if not graph.connected:
            issues.append("edge graph is not connected")
        for v in range(n):
            try:
                comb.vertex_star(v)
            except InvalidCombinatorics as exc:
                issues.append(str(exc))
    return CombinatoricsReport(n, comb.edge_count, comb.face_count, euler, issues)


class EmbeddedPolyhedron:
    """A combinatorial type together with Klein coordinates for each vertex."""

    def __init__(self, combinatorics: CombinatorialType, positions):
        self.combinatorics = combinatorics
        self.positions = np.asarray(positions, dtype=float).reshape(combinatorics.vertex_count, 3)

    def with_positions(self, positions):
        return EmbeddedPolyhedron(self.combinatorics, positions)


def _scatter(vertex_count, vertices, blocks):
    """Dense rows from per-vertex gradient blocks.

    ``vertices`` (R, k) and ``blocks`` (R, k, 3) give, for row r, the
    gradient block of each of its k vertices; blocks of a vertex repeated in
    a row are summed.  Returns the (R, 3 * vertex_count) matrix.
    """
    rows = vertices.shape[0]
    width = 3 * vertex_count
    cols = 3 * vertices[..., None] + np.arange(3)
    flat = (np.arange(rows)[:, None, None] * width + cols).ravel()
    return np.bincount(flat, weights=blocks.ravel(), minlength=rows * width).reshape(rows, width)


def angles_between(normals_a, normals_b):
    """Interior dihedral angles pi - arccos(<n, n'>) for rows of away-from-
    interior unit normals of the two faces at each edge."""
    return np.pi - np.arccos(np.clip(lorentz.minkowski_inner(normals_a, normals_b), -1.0, 1.0))


class FaceGeometry:
    """All face-plane quantities of one embedding, evaluated in batches.

    Built once per vertex configuration and driven by the index arrays
    cached on the combinatorial type.  Planarity and convexity are the
    anchored determinants (u x w) . (x - p1) with u, w the anchor edges;
    normals, angles and both Jacobians are closed-form (see
    ``lorentz._unit_normals`` and ``angle_jacobian``).  Normals are computed
    on first use, so the determinants never raise.
    """

    def __init__(self, poly: EmbeddedPolyhedron, tol: Tolerances = DEFAULT):
        self.combinatorics = poly.combinatorics
        self.positions = poly.positions
        self.tol = tol
        self.anchors = self.positions[self.combinatorics.face_anchors]
        p1 = self.anchors[:, 0]
        self.cross = _cross(self.anchors[:, 1] - p1, self.anchors[:, 2] - p1)

    def planarity_residuals(self):
        pairs = self.combinatorics.planarity_pairs
        f, v = pairs[:, 0], pairs[:, 1]
        return _dot3(self.cross[f], self.positions[v] - self.anchors[f, 0])

    def convexity_margins(self):
        """Margins of every (face, vertex off the face), face-major: the
        determinants of the whole F x V table, read through the mask."""
        table = _dot3(self.cross[:, None], self.positions[None] - self.anchors[:, None, 0])
        return -table[self.combinatorics.convexity_mask]

    @cached_property
    def _normals(self):
        return _unit_normals(self.anchors, self.tol)

    @property
    def normals(self):
        """(F, 4) unit normals pointing away from the interior."""
        return self._normals[0]

    @cached_property
    def angles(self):
        """Interior dihedral angle of every edge, in lexicographic edge order."""
        pairs = self.combinatorics.edge_face_pairs
        return angles_between(self.normals[pairs[:, 0]], self.normals[pairs[:, 1]])

    def constraint_jacobian(self):
        """Gradient of det(u, w, x): d/du = w x x, d/dw = x x u, d/dx = u x w,
        and the first anchor gets minus their sum."""
        comb = self.combinatorics
        pairs = comb.planarity_pairs
        f = pairs[:, 0]
        p = self.anchors[f]
        u = p[:, 1] - p[:, 0]
        w = p[:, 2] - p[:, 0]
        x = self.positions[pairs[:, 1]] - p[:, 0]
        gu, gw, gx = _cross(w, x), _cross(x, u), self.cross[f]
        blocks = np.stack([-(gu + gw + gx), gu, gw, gx], axis=1)
        vertices = np.column_stack([comb.face_anchors[f], pairs[:, 1]])
        return _scatter(comb.vertex_count, vertices, blocks)

    def angle_jacobian(self):
        """Chain rule through the unnormalized normals n = (a, b).

        With N = n / sqrt(q) and c = <N_f, N_g>, d theta = dc / sqrt(1 - c^2)
        and dc = <dn_f, m_f> + <dn_g, m_g> for m_f = (N_g - c N_f) / sqrt(q_f).
        For a fixed m = (m_s, m_t), <n, m> = a . m_s - b m_t has gradient
        (p2 - p3) x m_s - m_t (p2 x p3) in p1, and cyclically in p2, p3.
        """
        comb = self.combinatorics
        normals, root = self._normals
        faces = comb.edge_face_pairs                       # (E, 2)
        nf, ng = normals[faces[:, 0]], normals[faces[:, 1]]
        c = lorentz.minkowski_inner(nf, ng)[:, None]
        scale = 1.0 / np.sqrt(np.maximum(1.0 - c * c, 1e-300))
        m = np.stack([(ng - c * nf) * (scale / root[faces[:, 0], None]),
                      (nf - c * ng) * (scale / root[faces[:, 1], None])], axis=1)
        p = self.anchors[faces]                            # (E, 2, 3, 3)
        after = np.roll(p, -1, axis=2)
        later = np.roll(p, -2, axis=2)
        blocks = (_cross(after - later, m[:, :, None, :3])
                  - m[:, :, None, 3:] * _cross(after, later))
        vertices = comb.face_anchors[faces].reshape(len(faces), 6)
        return _scatter(comb.vertex_count, vertices, blocks.reshape(len(faces), 6, 3))


def planarity_residuals(poly: EmbeddedPolyhedron):
    """One anchored determinant per face vertex beyond the first three.

    The residual for (face f, vertex v) is det(a2-a1, a3-a1, x_v-a1) with
    anchors a1, a2, a3 the first three vertices of f in stored order; it
    vanishes exactly when the face is planar.
    """
    return FaceGeometry(poly).planarity_residuals()


def convexity_margins(poly: EmbeddedPolyhedron):
    """Signed determinants separating each vertex from each non-incident face.

    With faces stored counterclockwise from outside, the anchor cross product
    points outward, so the determinant is oriented (anchors taken against the
    stored traversal) to make vertices on the interior side positive.  All
    entries positive means a strictly convex embedding; the minimum entry is
    the convexity margin.
    """
    return FaceGeometry(poly).convexity_margins()


def embed_euclidean(comb: CombinatorialType, euclidean_positions, scale=1.0,
                    tol: Tolerances = DEFAULT) -> EmbeddedPolyhedron:
    """Scale a Euclidean realization into the ball and validate it.

    Klein planes are Euclidean planes, so planarity and convexity of the
    scaled coordinates transfer verbatim to the hyperbolic polyhedron.
    Raises the error of the first ``validate_embedding`` check that fails:
    ``BallBoundary``, ``PlanarityViolation`` or ``ConvexityViolation``, with
    its issue as the message.
    """
    report = validate_combinatorics(comb)
    if not report.valid:
        raise InvalidCombinatorics("; ".join(report.issues))
    poly = EmbeddedPolyhedron(comb, scale * np.asarray(euclidean_positions, dtype=float))
    emb = validate_embedding(poly, tol)
    if not emb.valid:
        error = (BallBoundary if not emb.in_ball else
                 PlanarityViolation if not emb.planar else ConvexityViolation)
        raise error(emb.issues[0])
    return poly


@dataclass
class EmbeddingReport:
    """Embedding diagnostics: ball containment, planarity, convexity.

    ``in_ball``, ``planar`` and ``convex`` are the three verdicts; a NaN
    value fails its check.  ``issues`` holds one line per failed check, in
    that order, and is empty when the embedding is valid.
    """

    max_radius: float
    max_planarity_residual: float
    min_convexity_margin: float
    in_ball: bool
    planar: bool
    convex: bool
    issues: list = field(default_factory=list)

    @property
    def valid(self):
        return not self.issues


def validate_embedding(poly: EmbeddedPolyhedron, tol: Tolerances = DEFAULT) -> EmbeddingReport:
    """Non-raising judge of the embedding invariants, the library's only one.

    Each check is written as the condition that passes, so a NaN value
    fails it; the invalid-value warnings of non-finite input are silenced
    for that reason.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        geom = FaceGeometry(poly, tol)
        radii = np.linalg.norm(poly.positions, axis=1)
        max_radius = float(radii.max()) if radii.size else 0.0
        residuals = geom.planarity_residuals()
        max_res = float(np.max(np.abs(residuals))) if residuals.size else 0.0
        margins = geom.convexity_margins()
        min_margin = float(margins.min()) if margins.size else np.inf
    in_ball = max_radius < 1.0 - tol.ball
    planar = max_res <= tol.planar
    convex = min_margin > tol.convex
    issues = []
    if not in_ball:
        issues.append(f"vertex radius {max_radius:.17g} reaches the unit sphere")
    if not planar:
        issues.append(f"max planarity residual {max_res:.3e} exceeds {tol.planar:.1e}")
    if not convex:
        issues.append(f"minimum convexity margin {min_margin:.3e} is not positive")
    return EmbeddingReport(max_radius, max_res, min_margin, in_ball, planar, convex, issues)


def face_planes(poly: EmbeddedPolyhedron, tol: Tolerances = DEFAULT):
    """Away-from-interior hyperbolic plane of every face (anchored on the
    first three stored vertices).

    The counterclockwise face orientation fixes the side, as in
    ``lorentz.plane_through``; degenerate anchor triples raise
    ``DegenerateFace``.
    """
    return [lorentz.Plane(n) for n in FaceGeometry(poly, tol).normals]


def dihedral_angles(poly: EmbeddedPolyhedron, tol: Tolerances = DEFAULT):
    """Interior dihedral angle of every edge, in lexicographic edge order.

    For an edge between faces with away-from-interior unit normals n, n' the
    angle is pi - arccos(<n, n'>); convex embeddings give values in (0, pi).
    """
    return FaceGeometry(poly, tol).angles


def validate_angle_vector(angles, edge_count):
    """Check a target angle vector: right length, every entry in (0, pi).
    NaN and infinite entries are rejected."""
    angles = np.asarray(angles, dtype=float)
    if angles.shape != (edge_count,):
        raise ValueError(f"expected {edge_count} angles, got shape {angles.shape}")
    if not np.all((angles > 0.0) & (angles < np.pi)):
        raise ValueError("angle entries must lie strictly between 0 and pi")
    return angles
