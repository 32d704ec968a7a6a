"""Holonomy, cocycles and trace coordinates for polyhedron link groups.

Meridians of polyhedron edges are realized as products of two face-plane
reflections, which makes the cyclic relation around every vertex telescope
exactly; their SL(2,C) lifts satisfy the relation up to the double-cover
sign.  First-order deformations of a representation are generator-indexed
traceless matrices obeying the twisted additivity rule

    u(g h) = u(g) + Ad(rho(g)) u(h),

computed here as real-linear algebra: cocycles are nullspaces of the relator
conditions, coboundaries the image of the conjugation map, and trace
differentials the pairing u, w |-> tr(u(w) rho(w)).  All three matrices are
assembled from the Fox derivatives of their words evaluated at rho (R. H. Fox,
Free differential calculus I, Ann. Math. 1953): by twisted additivity
u(word) = sum of sign * Ad(P) u(g) over the letters, with one conjugator P
per letter (see ``_fox_calculus``), in one walk (see ``_fox_matrices``).
"""

from dataclasses import dataclass, field

import numpy as np

from . import lorentz
from .config import DEFAULT, Tolerances
from .errors import ConvexityViolation, EigenFailure, IndexRange, InvalidCombinatorics
from .polyhedron import EmbeddedPolyhedron, FaceGeometry
from .rigidity import _null_components, _pivoted_qr, numerical_rank, nullspace

_I2 = np.eye(2, dtype=complex)

# Real bases of the coefficient algebras.  Cocycle vectors list, per
# generator, the real coefficients over the chosen basis.
SL2_BASIS = (
    np.array([[1, 0], [0, -1]], dtype=complex),
    np.array([[1j, 0], [0, -1j]], dtype=complex),
    np.array([[0, 1], [0, 0]], dtype=complex),
    np.array([[0, 1j], [0, 0]], dtype=complex),
    np.array([[0, 0], [1, 0]], dtype=complex),
    np.array([[0, 0], [1j, 0]], dtype=complex),
)
SU2_BASIS = (
    np.array([[0, 1j], [1j, 0]], dtype=complex),
    np.array([[0, 1], [-1, 0]], dtype=complex),
    np.array([[1j, 0], [0, -1j]], dtype=complex),
)


def algebra_basis(algebra):
    if algebra == "sl2":
        return SL2_BASIS
    if algebra == "su2":
        return SU2_BASIS
    raise ValueError(f"unknown algebra {algebra!r}")


def coords_from_matrix(m, algebra="sl2"):
    """Real coordinates over the algebra's basis of a traceless 2x2 matrix,
    or of every matrix in a stack (the last two axes)."""
    m = np.asarray(m)
    a, b, c = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0]
    if algebra == "sl2":
        return np.stack([a.real, a.imag, b.real, b.imag, c.real, c.imag], axis=-1)
    return np.stack([0.5 * (b + c).imag, 0.5 * (b - c).real, a.imag], axis=-1)


@dataclass(frozen=True)
class Presentation:
    """Finite presentation: ``relators`` are words in signed 1-based indices."""

    generator_count: int
    relators: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "relators",
                           tuple(tuple(int(l) for l in r) for r in self.relators))
        for r in self.relators:
            if len(r) == 0:
                raise ValueError("relators must be nonempty words")
            for letter in r:
                if letter == 0 or abs(letter) > self.generator_count:
                    raise IndexRange(f"letter {letter} outside 1..{self.generator_count}")

    @staticmethod
    def punctured_sphere(d):
        """<g_1, ..., g_d | g_1 ... g_d = 1>."""
        return Presentation(d, (tuple(range(1, d + 1)),))


@dataclass
class Representation:
    """Generator images in SL(2,C): one (n, 2, 2) stack of unit determinant
    complex matrices, from n images of four entries each (no images give
    shape (0, 2, 2)); images of any other size raise ``ValueError``."""

    images: np.ndarray

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=complex).reshape(len(self.images), 2, 2)

    @property
    def generator_count(self):
        return len(self.images)


def evaluate_word(rep: Representation, word):
    """Ordered product of generator images and inverses over the word: the
    one-word call of ``_fox_calculus``."""
    return _fox_calculus(rep, [word])[4][0]


def cocycle_extend(values, rep: Representation, word):
    """Value on a word of the cocycle with generator values ``values``, an
    (n, 2, 2) stack of traceless matrices: the one-word call of
    ``_fox_calculus``, u(word) = sum of sign * P u(g) P^-1 over the letters.

    The result is the derivative at t = 0 of t |-> rho_t(word) rho(word)^-1
    for any deformation with rho_t(g) = exp(t u(g)) rho(g).
    """
    _, gen, sign, conj, _ = _fox_calculus(rep, [word])
    terms = conj @ np.asarray(values, dtype=complex)[gen] @ lorentz.sl2_inverse(conj)
    return (sign[:, None, None] * terms).sum(axis=0)


def representation_report(rep: Representation, pres: Presentation):
    """Determinant defects and signed relator residuals.

    Returns (max |det - 1|, [(sign, residual)] per relator) where residual is
    the Frobenius distance of the relator value to sign * identity.  The
    relator values come from one ``_fox_calculus`` walk.
    """
    # one batched det; hypot rounds like the scalar complex modulus
    defects = np.linalg.det(rep.images) - 1.0
    det_defect = np.hypot(defects.real, defects.imag).max(initial=0.0)
    signs, residuals = _central_residuals(_fox_calculus(rep, pres.relators)[4])
    return float(det_defect), [(int(s), float(r)) for s, r in zip(signs, residuals)]


def _fox_calculus(rep: Representation, words):
    """Fox derivatives of several words at rho, walking each word once.

    Returns, per letter of every word, the word's index, the generator index,
    a sign and the conjugator P such that u(word) = sum sign * Ad(P) u(g) for
    every cocycle u: a letter g has P the prefix before it and sign +1, a
    letter g^-1 has P = prefix g^-1 (the prefix through it) and sign -1.
    Also returns rho(word) for every word, the left-to-right product of its
    letters' images.  Bad letters raise ``IndexRange``.
    """
    images = rep.images
    word_index, generators, signs, conjugators, values = [], [], [], [], []
    for wi, word in enumerate(words):
        prefix = _I2
        for letter in word:
            idx = abs(letter) - 1
            if letter == 0 or idx >= len(images):
                raise IndexRange(f"letter {letter} outside 1..{len(images)}")
            if letter > 0:
                conjugators.append(prefix)
                prefix = prefix @ images[idx]
            else:
                prefix = prefix @ lorentz.sl2_inverse(images[idx])
                conjugators.append(prefix)
            word_index.append(wi)
            generators.append(idx)
            signs.append(1.0 if letter > 0 else -1.0)
        values.append(prefix)
    return (np.array(word_index, dtype=int), np.array(generators, dtype=int),
            np.array(signs), np.array(conjugators, dtype=complex).reshape(-1, 2, 2),
            np.array(values, dtype=complex).reshape(-1, 2, 2))


def _fox_matrices(rep: Representation, relators, loops, algebra):
    """The relator, trace and coboundary matrices, from one ``_fox_calculus``
    walk over the relators and then the loops, and one batched product
    P B_j P^-1 over the letters' conjugators and then the generator images.

    Relator matrix: six sl(2,C) rows per relator, one column per generator
    and basis element; each letter's 6 x dim block sign * Ad(P) is scattered
    into its generator's columns.  Trace matrix (complex): one row per loop
    w, entries summing sign * tr(P B_j P^-1 rho(w)) over the letters of w.
    Coboundary matrix: the coboundaries of the basis elements as columns, in
    algebra coordinates, the blocks I - Ad(rho(g)) stacked over the
    generators.
    """
    n, r = rep.generator_count, len(relators)
    word, gen, sign, conj, values = _fox_calculus(rep, list(relators) + list(loops))
    p = np.concatenate([conj, rep.images])[:, None]
    conjugated = p @ np.array(algebra_basis(algebra)) @ lorentz.sl2_inverse(p)
    dim = conjugated.shape[1]
    split = np.searchsorted(word, r)        # relator letters first, then loop letters
    rel, loop = slice(None, split), slice(split, len(conj))

    blocks = coords_from_matrix(conjugated[rel], "sl2")
    relator = np.zeros((r, n, dim, 6))
    np.add.at(relator, (word[rel], gen[rel]), sign[rel, None, None] * blocks)

    traces = np.einsum("kjab,kba->kj", conjugated[loop], values[word[loop]])
    trace = np.zeros((len(loops), n, dim), dtype=complex)
    np.add.at(trace, (word[loop] - r, gen[loop]), sign[loop, None] * traces)

    blocks = coords_from_matrix(conjugated[len(conj):], algebra)
    coboundary = (np.eye(dim) - blocks.transpose(0, 2, 1)).reshape(-1, dim)
    return (relator.transpose(0, 3, 1, 2).reshape(6 * r, n * dim),
            trace.reshape(len(loops), n * dim), coboundary)


def cocycle_space(rep: Representation, pres: Presentation, algebra="sl2",
                  tol: Tolerances = DEFAULT):
    """Orthonormal basis (columns) of the first-order deformation space.

    The numerical nullspace (``rigidity.nullspace``: a column-pivoted QR,
    no SVD) of the linearized relator conditions over generator assignments
    with values in the chosen coefficient algebra; for a free group there
    are no conditions and the basis is the identity on all of them.
    ``trace_rank`` reads Z^1 from the same factorization without forming
    this basis.
    """
    return nullspace(_fox_matrices(rep, pres.relators, (), algebra)[0], tol.rank_svd)


def coboundary_space(rep: Representation, algebra="sl2", tol: Tolerances = DEFAULT):
    """Orthonormal basis (columns) of the conjugation-induced deformations.

    The real dimension is the algebra dimension minus that of the centralizer
    of the images.  Irreducible representations reach the full 6 over
    SL(2,C), and so do some reducible ones: two upper-triangular images
    with a trivial common centralizer share an eigenline and still give 6.
    """
    u, sing, _ = np.linalg.svd(_fox_matrices(rep, (), (), algebra)[2], full_matrices=False)
    rank = numerical_rank(sing, tol.rank_svd)
    return u[:, :rank]


def cohomology_basis(rep: Representation, pres: Presentation, algebra="sl2",
                     tol: Tolerances = DEFAULT):
    """Orthonormal basis of a complement of the coboundaries inside the
    cocycles; its width is the first-cohomology real dimension.  Kept as
    public API and as a name the benchmark tracer wraps; ``trace_rank``
    needs no such basis."""
    z = cocycle_space(rep, pres, algebra, tol)
    b = coboundary_space(rep, algebra, tol)
    u, sing, _ = np.linalg.svd(z - b @ (b.T @ z), full_matrices=False)
    return u[:, :numerical_rank(sing, tol.rank_svd)]


@dataclass
class TraceRankReport:
    """Rank of the trace coordinates on first cohomology."""

    algebra: str
    z1_dim: int
    b1_dim: int
    h1_dim: int
    loop_count: int
    rank: int
    singular_values: np.ndarray
    gap_ratio: float
    threshold: float


def trace_rank(rep: Representation, pres: Presentation, loops,
               restrict_to_unitary=False, tol: Tolerances = DEFAULT) -> TraceRankReport:
    """Rank of the real-linear map H^1 -> (traces of the loops).

    Full group: one (Re, Im) row pair per loop over sl(2,C)-valued cocycles.
    Unitary restriction: su(2)-valued cocycles, only the Re rows.  Rank is
    decided at ``tol.rank_svd`` relative threshold; ``gap_ratio`` is the jump
    across the cutoff (infinite when the map has full rank).

    One ``_fox_matrices`` call walks the relators and loops once.  The
    relator matrix is factored once by the column-pivoted QR of
    ``rigidity.nullspace``; its rank gives z^1 = columns - rank, and the
    trace rows are carried onto Z^1 through the stored reflectors, with no
    basis of Z^1 formed.  Traces are class functions, so the trace rows
    vanish on coboundaries.  The rows on Z^1 then have the singular values
    of the map on H^1 plus b^1 zeros, up to rounding, for any orthonormal
    basis of Z^1; the first h^1 = z^1 - b^1 of them are kept, with b^1 the
    rank of the coboundary matrix from its singular values.  This presumes
    B^1 inside Z^1, which holds when rho satisfies the relators (see
    ``representation_report``); off a representation the count means
    nothing and is floored at 0.
    """
    if not loops:
        raise ValueError("need at least one loop")
    algebra = "su2" if restrict_to_unitary else "sl2"
    relator, traces, coboundary = _fox_matrices(rep, pres.relators, loops, algebra)
    parts = (traces.real,) if restrict_to_unitary else (traces.real, traces.imag)
    rows = np.stack(parts, axis=1).reshape(-1, traces.shape[1])
    on_cocycles = _null_components(_pivoted_qr(relator, tol.rank_svd), rows.T)
    z1 = on_cocycles.shape[0]
    b1 = numerical_rank(np.linalg.svd(coboundary, compute_uv=False), tol.rank_svd)
    h1 = max(z1 - b1, 0)
    sing = np.linalg.svd(on_cocycles, compute_uv=False)[:h1]
    rank = numerical_rank(sing, tol.rank_svd)
    if 0 < rank < len(sing) and sing[rank] > 0:
        gap = float(sing[rank - 1] / sing[rank])
    else:
        gap = np.inf
    return TraceRankReport(
        algebra=algebra,
        z1_dim=z1,
        b1_dim=b1,
        h1_dim=h1,
        loop_count=len(loops),
        rank=rank,
        singular_values=sing,
        gap_ratio=gap,
        threshold=tol.rank_svd,
    )


# --- geometric holonomy ----------------------------------------------------


def _reflection_products(pairs):
    """Products R_a R_b of the reflections in the planes of (k, 2, 4) pairs
    (a, b) of unit normals.  Since M R_n M^-1 = R_(M n) for a Lorentz M,
    normals moved by M give the product conjugated by M.

    The product of the reflections in two planes through a geodesic is the
    rotation about it by twice the angle between them (Ratcliffe,
    *Foundations of Hyperbolic Manifolds*, section 6.5).  For adjacent face
    planes this is the edge meridian, rotating by twice the dihedral angle.
    """
    reflections = lorentz.reflect(pairs)
    return reflections[:, 0] @ reflections[:, 1]


@dataclass
class LinkRepresentation:
    """Spherical holonomy of a vertex link, based at the vertex.

    ``meridians`` (d, 2, 2) lift ``meridians_so31`` (d, 4, 4) to SL(2,C) in
    star order: reflections in face normals moved so the vertex sits at the
    hyperboloid basepoint (making them numerically unitary); the cyclic
    product is the identity up to the double-cover sign.
    """

    vertex: int
    edges: tuple
    meridians: np.ndarray
    meridians_so31: np.ndarray
    cone_angles: np.ndarray
    presentation: Presentation = field(init=False)

    def __post_init__(self):
        self.presentation = Presentation.punctured_sphere(len(self.meridians))

    def representation(self) -> Representation:
        return Representation(self.meridians)


@dataclass
class PolyhedronHolonomy:
    """Vertex links of a polyhedron, computed in one batch.

    ``link_meridians_so31`` (S, 4, 4) and ``link_meridians`` (S, 2, 2) are
    the edge meridians, from normals moved to the vertex, and their SL(2,C)
    lifts at the star slots of all vertices (``CombinatorialType.star_slots``);
    rows ``link_offsets[v]:link_offsets[v + 1]`` equal ``link_representation``
    of v.  Edge e = (a, b) sits at rows ``edge_slots[e]``, conjugate to its
    ``meridian_holonomy`` at a and to the inverse at b.  ``angles`` are the
    dihedral angles of the face kernel the reflections came from.
    """

    link_meridians_so31: np.ndarray
    link_meridians: np.ndarray
    link_offsets: np.ndarray
    angles: np.ndarray


def _holonomy(poly: EmbeddedPolyhedron, first, last, tol: Tolerances):
    """A ``PolyhedronHolonomy`` of vertices ``first:last``, lifted in one
    ``sl2c_lift`` call.

    The meridians of a vertex's star, in star order so their cyclic product
    telescopes to the identity, are reflections in normals moved by one
    translation taking the vertex to the origin, so their lifts lie in SU(2).
    No global-frame product, whose rounding grows with the boost, is formed.
    """
    geom = FaceGeometry(poly, tol)
    offsets, owners, _, slot_pairs = poly.combinatorics.star_slots
    slots = slice(offsets[first], offsets[last])
    # a pure boost is symmetric, so the row normals n^T M are the moved M n
    move = lorentz.translation_to_origin(poly.positions[first:last], tol)
    products = _reflection_products(geom.normals[slot_pairs[slots]] @ move[owners[slots] - first])
    return PolyhedronHolonomy(products, lorentz.sl2c_lift(products, tol),
                              offsets[first:last + 1] - slots.start, geom.angles)


def meridian_holonomy(poly: EmbeddedPolyhedron, edge, tol: Tolerances = DEFAULT):
    """Meridian isometry of an edge in the global frame and its SL(2,C) lift.

    The product of the reflections in the two adjacent face planes is an
    elliptic isometry about the edge geodesic rotating by twice the dihedral
    angle, so the lift trace satisfies |tr| = 2|cos(angle)|.  Raises
    ``InvalidCombinatorics`` when the edge is not an edge of the polyhedron.
    """
    comb = poly.combinatorics
    a, b = min(edge), max(edge)
    k = comb.edge_index.get((a, b))
    if k is None:
        raise InvalidCombinatorics(f"no face contains directed edge {a}->{b}")
    products = _reflection_products(FaceGeometry(poly, tol).normals[comb.edge_face_pairs[k:k + 1]])
    return products[0], lorentz.sl2c_lift(products, tol)[0]


def link_representation(poly: EmbeddedPolyhedron, vertex,
                        tol: Tolerances = DEFAULT) -> LinkRepresentation:
    """Meridian holonomy around every edge at a vertex, in star order.

    Each meridian is the product of the reflections in the two face planes
    adjacent to its edge, ordered along the star walk so the cyclic product
    telescopes to the identity; the planes are first moved by the
    translation taking the vertex to the origin, so the lifts live in
    SU(2).  The cone angles are twice the dihedral angles of the star edges.
    """
    comb = poly.combinatorics
    if not 0 <= vertex < comb.vertex_count:
        raise InvalidCombinatorics(f"vertex {vertex} belongs to no face")
    hol = _holonomy(poly, vertex, vertex + 1, tol)
    offsets, _, slot_edges, _ = comb.star_slots
    edges = slot_edges[offsets[vertex]:offsets[vertex + 1]]
    return LinkRepresentation(vertex, tuple(comb.edges[k] for k in edges), hol.link_meridians,
                              hol.link_meridians_so31, 2.0 * hol.angles[edges])


def polyhedron_holonomy(poly: EmbeddedPolyhedron, tol: Tolerances = DEFAULT) -> PolyhedronHolonomy:
    """Every vertex link of a whole polyhedron: one batch of reflection
    products and one ``sl2c_lift`` call.  An edge's meridian is read from
    its link slots (``CombinatorialType.edge_slots``)."""
    return _holonomy(poly, 0, poly.combinatorics.vertex_count, tol)


@dataclass
class LinkCertificate:
    """Cyclic relation and irreducibility of every vertex link, one entry
    per vertex in vertex order, all read from one identity-padded stack of
    the link meridians.  Link by link, ``relation_residuals`` equal the
    relator residual of ``representation_report``, and ``irreducible`` and
    ``irreducibility_residuals`` the fields of ``irreducibility_check``."""

    relation_residuals: np.ndarray
    irreducible: np.ndarray
    irreducibility_residuals: np.ndarray


def link_certificate(holonomy: PolyhedronHolonomy, tol: Tolerances = DEFAULT) -> LinkCertificate:
    """Check every vertex link of a polyhedron in one batched pass: the
    meridians around each vertex multiply to +-I, and each link is
    irreducible.  Raises ``EigenFailure`` as ``irreducibility_check`` does."""
    padded = _padded(holonomy.link_meridians, holonomy.link_offsets)
    irreducible, residuals, _ = _irreducibility(padded, tol)
    return LinkCertificate(_cyclic_relation_residuals(padded), irreducible, residuals)


# --- boundary-surface fixture ----------------------------------------------


@dataclass
class SurfaceGroupFixture:
    """Representation of the boundary surface of a tube around the edge graph.

    The surface is assembled from the vertex links: gluing along a spanning
    tree of the edge graph identifies each child meridian with the inverse of
    its parent copy (exact at the matrix level, since the two star walks
    traverse an edge's faces in opposite order), and every remaining edge
    contributes both meridian copies plus a twist generator commuting with
    them.  The resulting genus is |E| - |V| + 1.
    """

    presentation: Presentation
    representation: Representation
    meridian_words: dict     # edge (a, b) -> single-letter word for its meridian
    generator_names: list
    genus: int
    euler_characteristic: int

    def meridian_loops(self):
        """Loops of the edge meridians in lexicographic edge order."""
        return [self.meridian_words[e] for e in sorted(self.meridian_words)]


def surface_group_fixture(poly: EmbeddedPolyhedron, tol: Tolerances = DEFAULT) -> SurfaceGroupFixture:
    """Build the boundary-surface representation for an embedded polyhedron.

    All meridians and twists are taken in one global frame as products of
    two reflections in one batch, so no conjugation bookkeeping is needed;
    the construction is validated by the Euler characteristic of the
    presentation and exact inverse matching of the two copies of every
    meridian.  Raises ``ConvexityViolation`` for a flat cross edge.

    Generators are kept as one (E, 2) array of signed letters, one per edge
    end (``CombinatorialType.edge_slots``).  The spanning tree is the
    breadth-first tree of ``CombinatorialType.edge_graph``: a tree edge
    keeps the slot at its parent end and its child end reads the inverse
    letter; a cross edge keeps both slots and gets a twist.  Slot generators
    are numbered in edge order, then the twists.
    """
    comb = poly.combinatorics
    geom = FaceGeometry(poly, tol)
    offsets, _, slot_edges, slot_pairs = comb.star_slots
    ends = np.array(comb.edges, dtype=np.intp).reshape(-1, 2)
    parent = comb.edge_graph.parent
    child_first = parent[ends[:, 0]] == ends[:, 1]
    tree = child_first | (parent[ends[:, 1]] == ends[:, 0])
    cross = np.flatnonzero(~tree)
    # A cross edge's twist is R_f R_m, with m the plane through the edge
    # halfway between its faces f and g: the rotation about the edge by its
    # dihedral angle.  Its normal pair joins the slots' face normal pairs.
    f, g = comb.edge_face_pairs[cross].T
    halfway = geom.normals[f] - geom.normals[g]
    square = lorentz.minkowski_inner(halfway, halfway)
    if not np.all(square > 0):          # the faces share a plane
        raise ConvexityViolation(f"edge {comb.edges[cross[np.argmin(square > 0)]]} is flat")
    halfway /= np.sqrt(square)[:, None]
    twists = np.stack([geom.normals[f], halfway], axis=1)
    products = _reflection_products(np.concatenate([geom.normals[slot_pairs], twists]))

    rows = comb.edge_slots                  # slot row of every edge end
    mismatch = np.max(np.abs(products[rows[:, 0]] @ products[rows[:, 1]] - np.eye(4)), axis=(1, 2))
    for e, defect in zip(comb.edges, mismatch):
        if defect > tol.meridian_copy:
            raise InvalidCombinatorics(
                f"meridian copies of edge {e} are not inverse (defect {defect:.3e})")

    width = np.where(tree, 1, 2)            # slot generators per edge
    first = np.cumsum(width) - width + 1
    # tree edge: g at the parent end, g^-1 at the child end; cross edge: g, g + 1
    letters = np.column_stack([np.where(child_first, -first, first), first + 1])
    letters[tree, 1] = -letters[tree, 0]
    # Read row by row, the positive letters are 1, 2, ..., so their slot
    # rows list the slot generators in order; the twist generators follow.
    generator_rows = np.concatenate([rows[letters > 0], len(slot_edges) + np.arange(len(cross))])
    images = lorentz.sl2c_lift(products[generator_rows], tol)

    slot_letters = np.empty_like(slot_edges)
    slot_letters[rows] = letters
    twist = int(width.sum()) + 1 + np.arange(len(cross))
    relators = [slot_letters[a:b] for a, b in zip(offsets, offsets[1:])]
    relators += [(t, a, -t, b) for t, (a, b) in zip(twist, letters[cross])]
    names = [f"m{a}_{b}{end}" for (a, b), t in zip(comb.edges, tree)
             for end in (("",) if t else ("a", "b"))]
    names += [f"t{a}_{b}" for a, b in ends[cross]]

    genus = comb.edge_count - comb.vertex_count + 1
    euler = 1 - len(names) + len(relators)
    if euler != 2 - 2 * genus:
        raise InvalidCombinatorics(f"presentation Euler characteristic {euler} != {2 - 2 * genus}")

    return SurfaceGroupFixture(
        presentation=Presentation(len(names), relators),
        representation=Representation(images),
        # an edge's meridian is its first slot generator
        meridian_words={e: (int(m),) for e, m in zip(comb.edges, np.abs(letters[:, 0]))},
        generator_names=names,
        genus=genus,
        euler_characteristic=euler,
    )


def _norms(x):
    """Euclidean norms over the last axis of a complex stack, each summed as
    ``np.linalg.norm`` sums one vector: real parts, then imaginary parts."""
    return np.sqrt(lorentz._row_dot(x.real, x.real) + lorentz._row_dot(x.imag, x.imag))


def _central_residuals(products):
    """Sign of the nearer of +-I to every 2x2 matrix of a (..., 2, 2) stack,
    and its Frobenius distance to that matrix by ``_norms``, both shaped like
    the stack's leading axes: the residual of a relator that should hold up
    to the double-cover sign."""
    flat = np.reshape(products, products.shape[:-2] + (4,))
    plus = _norms(flat - _I2.reshape(4))
    minus = _norms(flat + _I2.reshape(4))
    nearer = plus <= minus
    return np.where(nearer, 1, -1), np.where(nearer, plus, minus)


def _complex_product(a, b):
    """Real and imaginary parts of a * b by the schoolbook formula, which
    rounds like a product of two complex scalars."""
    return a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real


@dataclass
class IrreducibilityReport:
    irreducible: bool
    residual: float
    witness: np.ndarray = None


def _padded(images, offsets):
    """A ragged stack whose group g holds rows ``offsets[g]:offsets[g + 1]``
    as one (G, L, 2, 2) array, L the largest group size: group g's images in
    order, then identities.  A pad is central and fixes every line, so it
    changes no product, no probe and no wedge."""
    sizes = np.diff(offsets)
    padded = np.tile(_I2, (len(sizes), sizes.max(initial=0), 1, 1))
    padded[np.arange(padded.shape[1]) < sizes[:, None]] = images
    return padded


def _cyclic_relation_residuals(padded):
    """Frobenius distance to the nearer of +-I of every group's ordered
    product g_1 ... g_d (the relator of ``Presentation.punctured_sphere``) of
    an identity-padded stack, rounded as ``representation_report`` rounds it:
    one left-to-right product over slot position k."""
    product = np.broadcast_to(_I2, padded.shape[:1] + (2, 2))
    for k in range(padded.shape[1]):
        product = product @ padded[:, k]
    return _central_residuals(product)[1]


def _irreducibility(padded, tol: Tolerances):
    """Irreducibility of every group of an identity-padded (G, L, 2, 2)
    stack of generator images, in one pass.

    A group is reducible exactly when all its images share a projective
    eigenvector.  The eigenvectors of each group's first non-central image
    (one stacked ``eig``) are scanned: the residual of an eigenvector is its
    worst normalized wedge against the group's images, and the group keeps
    the smaller of the two.  A pad's wedge is exactly 0, so it never sets
    the worst.  Returns per group the verdict, that residual and its
    eigenvector; a central group, where every line is invariant, gets
    residual 0 and witness (1, 0).  Raises ``EigenFailure`` when an
    eigenvector is too inaccurate to trust near the threshold.
    """
    noncentral = _central_residuals(padded)[1] > tol.central
    probed = noncentral.any(axis=1)
    residual = np.zeros(len(padded))
    witness = np.zeros((len(padded), 2), dtype=complex)
    witness[:, 0] = 1.0
    if probed.any():
        groups = padded[probed]
        probes = groups[np.arange(len(groups)), noncentral[probed].argmax(axis=1)]
        eigvals, eigvecs = np.linalg.eig(probes)
        best = np.full(len(probes), np.inf)
        best_vec = eigvecs[:, :, 0]
        for i in range(2):
            xi = eigvecs[:, :, i]
            norm = _norms(xi)
            error = _norms((probes @ xi[..., None])[..., 0] - eigvals[:, i, None] * xi)
            if np.any((norm < tol.degenerate) | (error > tol.eigen_residual * norm)):
                raise EigenFailure("unreliable eigenvector for a borderline generator")
            xi = xi / norm[:, None]
            mxi = (groups @ xi[:, None, :, None])[..., 0]
            denom = _norms(mxi)
            if np.any(denom < tol.degenerate):
                raise EigenFailure("generator image nearly singular")
            # |mxi_0 xi_1 - mxi_1 xi_0| / |mxi|, rounded like the scalar
            # complex products and modulus
            p_re, p_im = _complex_product(mxi[..., 0], xi[:, None, 1])
            q_re, q_im = _complex_product(mxi[..., 1], xi[:, None, 0])
            worst = (np.hypot(p_re - q_re, p_im - q_im) / denom).max(axis=1)
            better = worst < best
            best = np.where(better, worst, best)
            best_vec = np.where(better[:, None], xi, best_vec)
        residual[probed] = best
        witness[probed] = best_vec
    return ~(residual < tol.irreducible), residual, witness


def irreducibility_check(rep: Representation, tol: Tolerances = DEFAULT) -> IrreducibilityReport:
    """Decide whether all generator images share a projective eigenvector.

    Scans the eigenvectors of the first non-central generator: the
    representation is reducible exactly when one of them is (projectively)
    fixed by every generator, measured by the normalized wedge residual.
    Raises ``EigenFailure`` when the eigenvector extraction is too inaccurate
    to trust near the threshold.  The one-group case of the batched check
    that ``link_certificate`` runs over every vertex link.
    """
    irreducible, residual, witness = _irreducibility(rep.images[None], tol)
    return IrreducibilityReport(
        irreducible=bool(irreducible[0]),
        residual=float(residual[0]),
        witness=None if irreducible[0] else witness[0],
    )
