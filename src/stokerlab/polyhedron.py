"""Convex polyhedra in the Klein ball and their dihedral-angle map.

A combinatorial type is a closed face-vertex incidence structure, held as
one half-edge table (``CombinatorialType``): every face slot is a directed
edge with its successor in the face and its twin, the slot running the
other way, found by one sort of the directed keys.  Vertex stars are the
cycles of sigma = next o twin, walked for all vertices at once; every index
array below is read from that table, and where an invalid type lacks one it
raises the issues of ``validate_combinatorics``.  An embedding supplies
Klein coordinates for every vertex.  Klein planes are Euclidean planes, so
planarity and convexity of an embedding are conditions on 3x3 determinants:

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
    DegenerateFace,
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

    The structure is one half-edge table.  Slot h of the flattened faces is
    the directed edge from its vertex to the next vertex of its face, which
    sits in slot ``next[h]``.  Directed edges are keyed a*n + b and sorted
    once, stably, so the first face of a directed edge, and the twin of a
    slot (the first slot running the opposite way), are binary searches in
    that sort.  Edges are the distinct keys min(a, b)*n + max(a, b), so
    edge ids run in lexicographic order.  Where some index lies outside
    0..n-1 (an invalid type), the digits a, b are ranks among the distinct
    indices, which keeps every key distinct.

    Around a vertex v, sigma = next o twin takes v's slot in one face to
    v's slot in the next face of its star, so a star is a cycle of sigma
    from v's slot in its lowest face; the stars of all vertices advance
    together, at most max-valence times.  Everything else is read from the
    table and cached on first use: ``star_slots`` (the stars laid end to
    end, which ``vertex_star`` slices and ``edge_slots`` indexes by edge),
    ``edge_graph`` (adjacency and breadth-first tree), and the index arrays
    of ``FaceGeometry``: ``face_anchors``, ``edge_face_pairs``,
    ``planarity_pairs`` with their ``planarity_quads``, ``convexity_mask``
    and the stacked Jacobian's cells ``jacobian_cells``.
    Where an invalid type lacks one, it raises ``InvalidCombinatorics``
    with the issues of :func:`validate_combinatorics`.
    """

    def __init__(self, vertex_count, faces):
        self.vertex_count = n = int(vertex_count)
        self.faces = tuple(tuple(map(int, f)) for f in faces)
        self._sizes = sizes = np.fromiter(map(len, self.faces), np.intp, len(self.faces))
        ends = sizes.cumsum()
        self._starts = ends - sizes
        count = int(ends[-1]) if len(ends) else 0
        try:
            self._tail = tail = np.fromiter(chain.from_iterable(self.faces), np.intp, count)
        except OverflowError:
            raise InvalidCombinatorics("a face index does not fit a machine integer") from None
        self._face = np.arange(len(sizes)).repeat(sizes)
        self._next = nxt = np.arange(1, count + 1)
        closing = sizes.nonzero()[0]
        if len(closing) < len(sizes):       # an empty face closes nothing
            ends, sizes = ends[closing], sizes[closing]
        nxt[ends - 1] -= sizes
        if count and 0 <= np.minimum.reduce(tail) and np.maximum.reduce(tail) < n:
            self._labels, self._base, digits = None, n, tail
        else:
            self._labels, digits = np.unique(tail, return_inverse=True)
            self._base = len(self._labels)
        self._digits, head = digits, digits[nxt]
        self._key = key = digits * self._base
        key += head
        reverse = head * self._base
        reverse += digits
        self._order = key.argsort(kind="stable")
        self._sorted_keys = key[self._order]
        self._twin = self._first_slots(reverse)
        self._canonical = np.minimum(key, reverse)
        self._edge_keys = np.unique(self._canonical)

    def _first_slots(self, keys):
        """First slot, in face order, of each directed key; -1 for a key
        that no face contains."""
        if not len(self._order):
            return np.full(len(keys), -1)
        slots = self._order.take(self._sorted_keys.searchsorted(keys), mode="clip")
        slots[self._key[slots] != keys] = -1
        return slots

    def _invalid(self):
        """The error of an invalid type: its issues, joined by "; "."""
        return InvalidCombinatorics("; ".join(validate_combinatorics(self).issues))

    @property
    def edge_count(self):
        return len(self._edge_keys)

    @property
    def face_count(self):
        return len(self.faces)

    @cached_property
    def _edge_ends(self):
        """(E, 2) vertex indices (a, b), a <= b, of every edge."""
        ends = np.empty((self.edge_count, 2), dtype=np.intp)
        ends[:, 0], ends[:, 1] = np.divmod(self._edge_keys, max(self._base, 1))
        return ends if self._labels is None else self._labels[ends]

    @cached_property
    def edges(self):
        """Vertex pairs (a, b), a <= b, in lexicographic order."""
        return tuple(map(tuple, self._edge_ends.tolist()))

    @cached_property
    def edge_index(self):
        return dict(zip(self.edges, range(self.edge_count)))

    def vertex_star(self, v):
        """Cyclic star at v: (edges, faces) with edge k between faces k-1, k.

        Edges are returned as sorted index pairs and faces as face indices;
        the star crosses edges using the stored face orientations, so the
        two stars at the ends of an edge traverse its faces in opposite
        order.  It is a slice of ``star_slots`` and raises the joined issues
        as that does; a v outside 0..n-1 belongs to no face."""
        if not 0 <= v < self.vertex_count:
            raise InvalidCombinatorics(f"vertex {v} belongs to no face")
        offsets, _, edges, pairs = self.star_slots
        star = slice(offsets[v], offsets[v + 1])
        return tuple(self.edges[k] for k in edges[star].tolist()), tuple(pairs[star, 1].tolist())

    def vertex_valence(self, v):
        return len(self.vertex_star(v)[0])

    @cached_property
    def _star_cycles(self):
        """The sigma cycles of all vertices, (offsets, owners, slots,
        unclosed), or None for no faces or an index outside 0..n-1.

        ``slots`` lays the cycles end to end, vertex v in entries
        ``offsets[v]:offsets[v + 1]`` (``owners`` holds v there): entry k
        of v is sigma^(k-1) of v's slot in its lowest face, so entry 0 is
        sigma^-1 of it.  ``unclosed`` lists, in order, every vertex (one in
        no face too) whose cycle does not close after its valence steps.
        """
        n, tail, count = self.vertex_count, self._tail, len(self._tail)
        if self._labels is not None:
            return None
        valence = np.bincount(tail, minlength=n)
        offsets = np.zeros(n + 1, dtype=np.intp)
        valence.cumsum(out=offsets[1:])
        owners = np.arange(n).repeat(valence)
        # a vertex of valence 0 gets some other slot here; it never closes
        start = tail.argsort(kind="stable").take(offsets[:-1], mode="clip")
        sigma = np.where(self._twin >= 0, self._next[self._twin], count)
        walk = np.empty((int(np.maximum.reduce(valence)) + 2, n), dtype=np.intp)
        walk[0] = start
        for j in range(1, len(walk)):       # past a missing twin the rows are never read
            sigma.take(walk[j - 1], out=walk[j], mode="clip")
        step = np.arange(count) - 1
        step -= offsets[owners]
        slots = walk[step % valence[owners], owners]
        # Since sigma keeps a slot's vertex, every cycle closes after exactly
        # its valence steps iff every vertex has a slot, the cycles cover
        # each slot once and each returns to its start at that step.
        returned = walk[valence, np.arange(n)] == start
        if np.count_nonzero(valence) == n == np.count_nonzero(returned) \
                and np.count_nonzero(np.bincount(slots, minlength=count + 1)[:count]) == count:
            return offsets, owners, slots, np.empty(0, dtype=np.intp)
        hit = walk[1:] == start
        hit |= walk[1:] == count
        first = hit.argmax(axis=0) + 1      # the step that returned or found no twin
        return offsets, owners, slots, ((first != valence) | ~returned).nonzero()[0]

    @cached_property
    def star_slots(self):
        """The stars of all vertices as one table of arrays: slot offsets
        (v owns slots ``offsets[v]:offsets[v + 1]``), then per slot its
        owner vertex, edge index and (face before, face after).  Slot k of
        v is the half-edge sigma^(k-1) of v's slot in its lowest face.
        A star that does not close or a valence below 3 raises the joined
        issues."""
        cycles = self._star_cycles
        if cycles is None or len(cycles[3]) or np.count_nonzero(np.diff(cycles[0]) < 3):
            raise self._invalid()
        offsets, owners, slots, _ = cycles
        pairs = np.empty((len(slots), 2), dtype=np.intp)
        pairs[:, 0] = self._face[slots]
        pairs[:, 1] = self._face[self._twin[slots]]
        return offsets, owners, self._edge_keys.searchsorted(self._canonical[slots]), pairs

    @cached_property
    def edge_slots(self):
        """(E, 2) ``star_slots`` rows of every edge (a, b): at a, then at b."""
        _, owners, edges, _ = self.star_slots
        slots = np.empty((self.edge_count, 2), dtype=np.intp)
        slots[edges, (owners == self._edge_ends[edges, 1]).astype(np.intp)] = np.arange(len(edges))
        return slots

    @cached_property
    def edge_graph(self):
        """The one walk of the edge graph: sorted neighbours per vertex and
        the breadth-first parent of every vertex from vertex 0, visiting
        neighbours in sorted order.  Edges with an end outside 0..n-1 are
        skipped, so the walk never raises on an invalid type."""
        n = self.vertex_count
        adjacent = [[] for _ in range(n)]
        for a, b in self.edges:     # lexicographic, so every list comes out sorted
            if 0 <= a and b < n:
                adjacent[a].append(b)
                if a != b:
                    adjacent[b].append(a)
        neighbours = tuple(map(tuple, adjacent))
        parent = [-1] * n
        order = [0] if n else []
        for u in order:                     # grows while it is walked
            for w in neighbours[u]:
                if w and parent[w] < 0:
                    parent[w] = u
                    order.append(w)
        return EdgeGraph(neighbours, np.array(parent, dtype=np.intp))

    # Index arrays of the batched face-plane kernel (``FaceGeometry``),
    # built on first use because an invalid type may lack some of them.

    @cached_property
    def face_anchors(self):
        """(F, 3) first three stored vertices of every face; a face of
        fewer raises the joined issues."""
        if np.count_nonzero(self._sizes < 3):
            raise self._invalid()
        return self._tail[self._starts[:, None] + _ANCHOR_OFFSETS]

    @cached_property
    def edge_face_pairs(self):
        """(E, 2) faces of every edge (a, b) in edge order: the first face
        containing a -> b, then the first containing b -> a.  An edge with
        a direction in no face raises the joined issues."""
        forward = self._first_slots(self._edge_keys)
        backward = self._twin[forward]
        if np.count_nonzero((forward < 0) | (backward < 0)):
            raise self._invalid()
        pairs = np.empty((len(forward), 2), dtype=np.intp)
        pairs[:, 0] = self._face[forward]
        pairs[:, 1] = self._face[backward]
        return pairs

    @cached_property
    def planarity_pairs(self):
        """(P, 2) (face, vertex) rows: every face vertex beyond the anchors."""
        beyond = (np.arange(len(self._tail)) - self._starts[self._face] >= 3).nonzero()[0]
        pairs = np.empty((len(beyond), 2), dtype=np.intp)
        pairs[:, 0] = self._face[beyond]
        pairs[:, 1] = self._tail[beyond]
        return pairs

    @cached_property
    def planarity_quads(self):
        """(P, 4) vertex rows: the anchors of ``planarity_pairs`` row p's
        face, then its vertex."""
        planar = self.planarity_pairs
        return np.column_stack([self.face_anchors[planar[:, 0]], planar[:, 1]])

    @cached_property
    def convexity_mask(self):
        """(F, V) bool: True where the vertex is not on the face."""
        mask = np.ones((self.face_count, self.vertex_count), dtype=bool)
        mask[self._face, self._tail] = False
        return mask

    @cached_property
    def jacobian_cells(self):
        """Flat indices of every gradient entry in the stacked (P + E) x 3V
        Jacobian [constraint; angle]: row p holds the anchors of
        ``planarity_pairs`` row p's face, then its vertex; row P + e the
        anchors of edge e's two faces; three columns per vertex, summed
        where a row repeats one.  An invalid type raises the joined issues."""
        planar, n = self.planarity_quads, self.vertex_count
        rows = np.arange(len(planar) + self.edge_count)[:, None] * n
        planar_rows = planar + rows[:len(planar)]
        edge_rows = self.face_anchors[self.edge_face_pairs].reshape(-1, 6) + rows[len(planar):]
        cells = 3 * np.concatenate([planar_rows.ravel(), edge_rows.ravel()])
        return (cells[:, None] + _ANCHOR_OFFSETS).ravel()


_ANCHOR_OFFSETS = np.arange(3)
_TURNS = np.array([[1, 2, 0], [2, 0, 1]])      # anchors i + 1, i + 2 (mod 3) of anchor i
_SIGNATURE = np.diag(lorentz.J)                 # (x * y) @ _SIGNATURE = <x, y>, row by row


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
    connected edge graph.  Never raises; failures are listed in the report,
    face by face (a face's repeat, then its indices out of range, then its
    directed edges met before, in stored order), then edge by edge, then
    vertex by vertex.  Faces with fewer than 3 vertices are judged no
    further and own no directed edge here.
    """
    n, m = comb.vertex_count, comb._base
    tail, face, key, order = comb._tail, comb._face, comb._key, comb._order
    small = (comb._sizes < 3).nonzero()[0].tolist()
    found = [(f, 0, 0, f"face {f} has fewer than 3 vertices") for f in small]
    judged = slice(None)                        # the slots of faces judged further
    if small:
        judged = comb._sizes[face] >= 3
        order = order[judged[order]]            # judged slots, sorted by key, stably
    sorted_keys = key[order]
    cells = face * m
    cells += comb._digits
    cells = np.sort(cells[judged])
    repeats = cells[1:] == cells[:-1]
    if np.count_nonzero(repeats):
        for f in np.unique(cells[1:][repeats] // m).tolist():
            found.append((f, 1, 0, f"face {f} repeats a vertex"))
    if comb._labels is not None:
        slots = np.arange(len(tail))[judged]
        for h in slots[(tail[slots] < 0) | (tail[slots] >= n)].tolist():
            found.append((face[h], 2, h,
                          f"face {face[h]} references vertex {tail[h]} outside 0..{n - 1}"))
    again = (sorted_keys[1:] == sorted_keys[:-1]).nonzero()[0]
    for before, h in zip(order[again].tolist(), order[again + 1].tolist()):
        found.append((face[h], 3, h, f"directed edge {tail[h]}->{tail[comb._next[h]]} "
                                     f"appears in faces {face[before]} and {face[h]}"))
    issues = [text for *_, text in sorted(found)]
    if small or np.count_nonzero(comb._twin < 0):   # else every edge has both directions
        a, b = np.divmod(comb._edge_keys, max(m, 1))
        wanted = np.concatenate([comb._edge_keys, b * m + a])
        bounded = np.append(sorted_keys, m * m)     # past every key
        shared = (bounded[bounded.searchsorted(wanted)] == wanted).reshape(2, -1).all(axis=0)
        for a, b in comb._edge_ends[~shared].tolist():
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
        issues += [f"vertex {v} has a disconnected or pinched star" for v in comb._star_cycles[3]]
    return CombinatoricsReport(n, comb.edge_count, comb.face_count, euler, issues)


class EmbeddedPolyhedron:
    """A combinatorial type together with Klein coordinates for each vertex."""

    def __init__(self, combinatorics: CombinatorialType, positions):
        self.combinatorics = combinatorics
        self.positions = np.asarray(positions, dtype=float).reshape(combinatorics.vertex_count, 3)

    def with_positions(self, positions):
        return EmbeddedPolyhedron(self.combinatorics, positions)


class FaceGeometry:
    """All face-plane quantities of one embedding, evaluated in batches.

    Built once per vertex configuration (one Gauss-Newton iterate) from the
    index arrays cached on the combinatorial type; each quantity is computed
    once.  Planarity and convexity are the determinants (u x w) . (x - p1),
    u, w the anchor edges; they read no normals, so they never raise.  The
    normals (from the same u x w), each edge's two normals and their two
    half-chords are cached on first use for ``angles`` and the angle Jacobian.
    ``jacobian`` scatters all closed-form blocks at once; the other two
    Jacobians are its row ranges.
    """

    def __init__(self, poly: EmbeddedPolyhedron, tol: Tolerances = DEFAULT):
        self.combinatorics = poly.combinatorics
        self.positions = poly.positions
        self.tol = tol
        self.anchors = self.positions[self.combinatorics.face_anchors]
        p1 = self.anchors[:, 0]
        self.cross = _cross(self.anchors[:, 1] - p1, self.anchors[:, 2] - p1)

    def planarity_residuals(self):
        """(u x w) . x for every planarity pair; none, and no work, without pairs."""
        pairs = self.combinatorics.planarity_pairs
        if not len(pairs):
            return np.zeros(0)
        return _dot3(self.cross[pairs[:, 0]], self._planarity_offsets[:, 2])

    def convexity_margins(self):
        """Margins of every (face, vertex off the face), face-major: the
        determinants of the whole F x V table, read through the mask."""
        return -self._margin_table()[self.combinatorics.convexity_mask]

    def min_convexity_margin(self):
        """Least of ``convexity_margins`` (inf when there are none), as the
        negated masked maximum of the table, with no masked copy; a NaN
        entry gives NaN."""
        mask = self.combinatorics.convexity_mask
        return float(-self._margin_table().max(where=mask, initial=-np.inf))

    def _margin_table(self):
        """F x V determinants c . d, d = x - a0, with c the face's anchor
        cross product and a0 its first anchor.  Summed (c0 d0 + c1 d1) + c2 d2
        as ``_dot3`` sums them, a coordinate at a time into one accumulator
        and one scratch array: no (F, V, 3) temporary."""
        c, a, x = self.cross.T[:, :, None], self.anchors[:, 0].T[:, :, None], self.positions.T
        table = x[0] - a[0]
        table *= c[0]
        term = x[1] - a[1]
        term *= c[1]
        table += term
        np.subtract(x[2], a[2], out=term)
        term *= c[2]
        table += term
        return table

    @cached_property
    def _normals(self):
        return _unit_normals(self.anchors, self.cross, self.tol)

    @property
    def normals(self):
        """(F, 4) unit normals pointing away from the interior."""
        return self._normals[0]

    @cached_property
    def _edge_normals(self):
        """The (E, 2, 4) normals n_f, n_g of every edge's faces and the half-chords
        |n_f - n_g| = 2 sin(phi/2) and |n_f + n_g| = 2 cos(phi/2), phi = pi - theta.
        Ultraparallel planes (a negative square) raise ``DegenerateFace``."""
        comb = self.combinatorics
        pairs = self.normals[comb.edge_face_pairs]
        minus, plus = pairs[:, 0] - pairs[:, 1], pairs[:, 0] + pairs[:, 1]
        minus2, plus2 = (minus * minus) @ _SIGNATURE, (plus * plus) @ _SIGNATURE
        least = np.minimum(minus2, plus2)
        if least.min(initial=0.0) < 0.0:
            e = int(least.argmin())
            (f, g), edge = comb.edge_face_pairs[e].tolist(), comb.edges[e]
            raise DegenerateFace(f"faces {f} and {g} of edge {edge} lie in ultraparallel "
                                 "planes: it has no dihedral angle")
        return pairs, np.sqrt(minus2), np.sqrt(plus2)

    @cached_property
    def angles(self):
        """Interior dihedral angle pi - 2 atan2(|n_f - n_g|, |n_f + n_g|) of every edge."""
        return np.pi - 2.0 * np.arctan2(*self._edge_normals[1:])

    def jacobian(self):
        """(P + E) x 3V Jacobian of [planarity residuals; angles], one
        ``np.bincount`` through ``CombinatorialType.jacobian_cells``.  It
        reads the normals, so a degenerate face raises ``DegenerateFace``."""
        parts = self._constraint_blocks(), self._angle_blocks()
        blocks = np.concatenate([part.ravel() for part in parts])
        return self._scatter(self.combinatorics.jacobian_cells, blocks, sum(map(len, parts)))

    def constraint_jacobian(self):
        """Rows 0..P of ``jacobian``; no normals are computed."""
        blocks = self._constraint_blocks()
        return self._scatter(self.combinatorics.jacobian_cells[:blocks.size], blocks, len(blocks))

    def angle_jacobian(self):
        """Rows P.. of ``jacobian``."""
        comb = self.combinatorics
        blocks, cells = self._angle_blocks(), comb.jacobian_cells
        offset = len(comb.planarity_pairs) * 3 * comb.vertex_count
        return self._scatter(cells[cells.size - blocks.size:] - offset, blocks, len(blocks))

    def _scatter(self, cells, blocks, rows):
        """Dense rows x 3V matrix of the gradient entries summed into cells."""
        width = 3 * self.combinatorics.vertex_count
        return np.bincount(cells, blocks.ravel(), rows * width).reshape(rows, width)

    @cached_property
    def _planarity_offsets(self):
        """(P, 3, 3) u, w, x of every planarity pair: the second and third
        anchors of its face and its vertex, less the first anchor."""
        points = self.positions[self.combinatorics.planarity_quads]
        return points[:, 1:] - points[:, :1]

    def _constraint_blocks(self):
        """(P, 4, 3) gradients of det(u, w, x): d/du = w x x, d/dw = x x u,
        d/dx = u x w (one cross product over the turns of u, w, x), and the
        first anchor gets minus their sum.  Without planarity pairs there
        are no blocks and nothing is computed."""
        if not len(self.combinatorics.planarity_pairs):
            return np.zeros((0, 4, 3))
        offsets = self._planarity_offsets
        grads = _cross(offsets[:, _TURNS[0]], offsets[:, _TURNS[1]])
        blocks = np.empty((len(grads), 4, 3))
        blocks[:, 1:] = grads
        blocks[:, 0] = -(grads[:, 0] + grads[:, 1] + grads[:, 2])
        return blocks

    def _angle_blocks(self):
        """(E, 6, 3) gradients of every angle at the anchors of its two faces.

        Chain rule through the unnormalized normals n = (a, b).  With
        N = n / sqrt(q), c = <N_f, N_g> and sin(phi) = |N_f - N_g| |N_f + N_g| / 2,
        d theta = dc / sin(phi), taken as 0 on a flat edge (N_f = N_g), and
        dc = <dn_f, m_f> + <dn_g, m_g> for m_f = (N_g - c N_f) / sqrt(q_f).
        For a fixed m = (m_s, m_t), <n, m> = a . m_s - b m_t has gradient
        (p2 - p3) x m_s - m_t (p2 x p3) in p1, and cyclically in p2, p3;
        those differences and cross products are taken once per face.  c is
        summed as ``lorentz.minkowski_inner`` sums it, from one array of the
        four coordinate products.
        """
        faces = self.combinatorics.edge_face_pairs            # (E, 2)
        pairs, minus, plus = self._edge_normals
        prod = pairs[:, 0] * pairs[:, 1]
        c = (prod[:, 0] + prod[:, 1] + prod[:, 2] - prod[:, 3])[:, None, None]
        scale = np.divide(2.0, minus * plus, out=np.zeros_like(minus), where=minus > 0)[:, None, None]
        m = (pairs[:, ::-1] - c * pairs) * (scale / self._normals[1][faces, None])
        after, later = self.anchors[:, _TURNS[0]], self.anchors[:, _TURNS[1]]
        blocks = (_cross((after - later)[faces], m[:, :, None, :3])
                  - m[:, :, None, 3:] * _cross(after, later)[faces])
        return blocks.reshape(len(faces), 6, 3)


def planarity_residuals(poly: EmbeddedPolyhedron):
    """One anchored determinant per face vertex beyond the first three.

    The residual for (face f, vertex v) is det(a2-a1, a3-a1, x_v-a1) with
    anchors a1, a2, a3 the first three vertices of f in stored order; it
    vanishes exactly when the face is planar.
    """
    return FaceGeometry(poly).planarity_residuals()


def convexity_margins(poly: EmbeddedPolyhedron):
    """Signed determinants separating each vertex from each non-incident face,
    positive on the interior side (see the module docstring); the least is
    the convexity margin, which ``strictly_convex`` judges."""
    return FaceGeometry(poly).convexity_margins()


def embed_euclidean(comb: CombinatorialType, euclidean_positions, scale=1.0,
                    tol: Tolerances = DEFAULT) -> EmbeddedPolyhedron:
    """Scale a Euclidean realization into the ball and validate it.

    Klein planes are Euclidean planes, so planarity and convexity of the
    scaled coordinates transfer verbatim to the hyperbolic polyhedron.
    An invalid type raises its joined issues (``InvalidCombinatorics``), a
    valid one the error of the first failing ``validate_embedding`` check,
    ``BallBoundary``, ``PlanarityViolation`` or ``ConvexityViolation``, with
    its issue.
    """
    if not validate_combinatorics(comb).valid:
        raise comb._invalid()
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


def strictly_convex(margin, tol: Tolerances = DEFAULT):
    """The one convexity test, of a least margin: above ``tol.convex``; NaN fails."""
    return margin > tol.convex


def validate_embedding(poly: EmbeddedPolyhedron, tol: Tolerances = DEFAULT) -> EmbeddingReport:
    """Non-raising judge of the embedding invariants, the library's only one.

    Each check is written as the condition that passes, so a NaN value
    fails it; the invalid-value warnings of non-finite input are silenced
    for that reason.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        geom = FaceGeometry(poly, tol)
        largest2 = float(_dot3(poly.positions, poly.positions).max(initial=0.0))
        max_radius = float(np.sqrt(largest2))
        max_res = float(abs(geom.planarity_residuals()).max(initial=0.0))
        min_margin = geom.min_convexity_margin()
    in_ball = lorentz.inside_ball(largest2, tol)
    planar = max_res <= tol.planar
    convex = strictly_convex(min_margin, tol)
    issues = []
    if not in_ball:
        issues.append(f"vertex radius {max_radius:.17g} reaches the unit sphere")
    if not planar:
        issues.append(f"max planarity residual {max_res:.3e} exceeds {tol.planar:.1e}")
    if not convex:
        issues.append(f"minimum convexity margin {min_margin:.3e} is not positive")
    return EmbeddingReport(max_radius, max_res, min_margin, in_ball, planar, convex, issues)


def face_planes(poly: EmbeddedPolyhedron, tol: Tolerances = DEFAULT):
    """(F, 4) away-from-interior unit normals of the face planes, anchored on
    the first three stored vertices of each face: ``FaceGeometry.normals``.

    The counterclockwise face orientation fixes the side, as in
    ``lorentz.plane_through``; degenerate anchor triples raise
    ``DegenerateFace``.
    """
    return FaceGeometry(poly, tol).normals


def dihedral_angles(poly: EmbeddedPolyhedron, tol: Tolerances = DEFAULT):
    """Interior dihedral angle of every edge, in lexicographic edge order.

    For an edge between faces with away-from-interior unit normals n, n', the
    angle pi - 2 atan2(|n - n'|, |n + n'|) lies in (0, pi) when P is convex.
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
