"""Deterministic inputs for the benchmark workloads.

Every input is a function of the workload seed alone, and the library only
ever sees the generated polyhedra, targets and files.  The size ladder goes
past the four bundled fixtures to n-prisms, random simplicial hulls and
their polar duals (simple polytopes, the only large inputs whose faces have
more than three vertices and so carry planarity rows).
"""

import os
from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull

from stokerlab import fixtures, formats
from stokerlab.deform import gauge_fix
from stokerlab.polyhedron import (
    CombinatorialType,
    dihedral_angles,
    embed_euclidean,
)

FIXTURES = ("tetrahedron", "triangular_prism", "cube", "pentagonal_pyramid")
RADIUS = 0.5             # Klein radius of the prism, hull and dual vertices
RELAX_STEPS = 200        # repulsion steps spreading the seeded sphere points
MIN_EXTERIOR = 3e-3      # least pi - theta over a seeded hull's edges


@dataclass
class Input:
    """One ladder entry and what its workload needs beside the polyhedron."""

    name: str
    poly: object
    target: np.ndarray = None      # realize: seeded target angles
    base: np.ndarray = None        # realize: original angles
    reference: np.ndarray = None   # realize: gauge_fix(original) positions
    path: str = None               # certify: polyhedron file
    vertex: int = None             # trace: link vertex, None for a surface


def prism(n, radius=RADIUS):
    """Right n-gonal prism with all vertices at Klein radius ``radius``."""
    t = 2.0 * np.pi * np.arange(n) / n
    ring = np.column_stack([np.cos(t), np.sin(t)])
    verts = np.vstack([np.column_stack([ring, -np.ones(n)]),
                       np.column_stack([ring, np.ones(n)])])
    faces = [list(range(n - 1, -1, -1)), list(range(n, 2 * n))]
    faces += [[k, (k + 1) % n, n + (k + 1) % n, n + k] for k in range(n)]
    return embed_euclidean(CombinatorialType(2 * n, faces), verts, radius / np.sqrt(2.0))


def sphere_points(rng, n):
    """n seeded points on the unit sphere, spread by Coulomb repulsion.

    Uniform points put nearly coplanar faces side by side (at 80 points the
    median smallest exterior angle pi - theta is about 1.5e-3), so a 1e-3
    target can leave (0, pi).  The repulsion steps make such edges rare but
    do not rule them out; ``_sphere_hull`` draws again when one is left.
    """
    pts = rng.normal(size=(n, 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    step = 0.1 * np.sqrt(4.0 * np.pi / n)
    for _ in range(RELAX_STEPS):
        diff = pts[:, None, :] - pts[None, :, :]
        dist = np.linalg.norm(diff, axis=2)
        np.fill_diagonal(dist, np.inf)
        force = (diff / dist[:, :, None] ** 3).sum(axis=1)
        force -= (force * pts).sum(axis=1)[:, None] * pts
        pts += step * force / np.linalg.norm(force, axis=1).max()
        pts /= np.linalg.norm(pts, axis=1)[:, None]
    return pts


def _sphere_hull(rng, n):
    """Seeded sphere points, their hull faces oriented counterclockwise from
    outside, and the outward face planes.

    A point set whose hull has an edge within ``MIN_EXTERIOR`` of flat is
    nearly degenerate, and the next one is drawn from the same generator.
    Such an edge is no valid place for a 1e-3 target; closer to flat (4e-7
    on one 80-point hull) the solver stalls near a 1e-9 residual.  In the
    polar dual it becomes an edge about 0.45 times as long, which a 1e-4
    target can collapse (ConvexityLost) or which the angles fix only to
    about 1e-7 (the round-trip check fails).  Every such failing dual seen,
    in a sweep of 100 seeds and in the 25 shortest-edged duals of 400 more,
    came from a hull with an edge within 8.1e-4 of flat.  About one 80-point
    hull in seven is drawn again.
    """
    while True:
        pts = sphere_points(rng, n)
        hull = ConvexHull(pts)
        faces = []
        for (a, b, c), eq in zip(hull.simplices, hull.equations):
            if np.cross(pts[b] - pts[a], pts[c] - pts[a]) @ eq[:3] < 0:
                b, c = c, b
            faces.append([int(a), int(b), int(c)])
        comb = CombinatorialType(n, faces)
        flattest = np.pi - dihedral_angles(embed_euclidean(comb, pts, RADIUS)).max()
        if flattest >= MIN_EXTERIOR:
            return pts, comb, hull.equations


def simplicial_hull(rng, n, radius=RADIUS):
    """Random simplicial polytope: the hull of n seeded points on the sphere."""
    pts, comb, _ = _sphere_hull(rng, n)
    return embed_euclidean(comb, pts, radius)


def polar_dual(rng, n, radius=RADIUS):
    """Polar dual of a seeded n-point hull: a simple polytope with 2n - 4
    vertices whose faces (one per hull vertex) follow that vertex's star."""
    pts, comb, planes = _sphere_hull(rng, n)
    verts = planes[:, :3] / -planes[:, 3:]   # outward plane n.x = h maps to n / h
    faces = []
    for v in range(n):
        face = list(comb.vertex_star(v)[1])
        if np.cross(verts[face[1]] - verts[face[0]], verts[face[2]] - verts[face[0]]) @ pts[v] < 0:
            face.reverse()
        faces.append(face)
    scale = radius / np.linalg.norm(verts, axis=1).max()
    return embed_euclidean(CombinatorialType(len(verts), faces), verts, scale)


def realize_ladder(seed):
    """The 17 ``realize`` inputs with their seeded angle targets.

    Fixtures, prisms and hulls get amplitude 1e-3; the duals 1e-4, because
    their short edges make the convexity margins small.  The odd count puts
    the nearest-rank p50 in the middle of one input's repeats rather than
    on the edge between two inputs (see ``run.percentile``).
    """
    spec = [(f"{name}@{scale}", lambda rng, name=name, scale=scale:
             fixtures.STANDARD[name](scale), 1e-3)
            for scale in (0.3, 0.6) for name in FIXTURES]
    spec += [(f"prism{n}", lambda rng, n=n: prism(n), 1e-3) for n in (8, 16, 24, 32)]
    spec += [(f"hull{n}", lambda rng, n=n: simplicial_hull(rng, n), 1e-3) for n in (20, 40, 80)]
    spec += [(f"dual{n}", lambda rng, n=n: polar_dual(rng, n), 1e-4) for n in (12, 20)]
    inputs = []
    for index, (name, build, amplitude) in enumerate(spec):
        rng = np.random.default_rng((seed, index))
        poly = build(rng)
        base = dihedral_angles(poly)
        target = base + amplitude * rng.uniform(-1.0, 1.0, base.size)
        inputs.append(Input(name, poly, target, base, gauge_fix(poly).positions))
    return inputs


def certify_ladder(seed, workdir):
    """The ``realize`` polyhedra, written to files under ``workdir``."""
    inputs = realize_ladder(seed)
    for item in inputs:
        item.path = os.path.join(workdir, item.name + ".json")
        with open(item.path, "w", encoding="utf-8") as fh:
            fh.write(formats.dump_polyhedron(item.poly))
    return inputs


def trace_ladder():
    """Boundary surfaces of the fixtures and the 6- and 10-prisms, then the
    link of every fixture vertex.  These inputs do not depend on the seed."""
    inputs = [Input(f"surface:{name}", fixtures.STANDARD[name](0.3)) for name in FIXTURES]
    inputs += [Input(f"surface:prism{n}", prism(n)) for n in (6, 10)]
    for name in FIXTURES:
        poly = fixtures.STANDARD[name](0.3)
        inputs += [Input(f"link:{name}:{v}", poly, vertex=v)
                   for v in range(poly.combinatorics.vertex_count)]
    return inputs


def build(workload, seed, workdir):
    """Generate the inputs of one workload.  Every polyhedron passes through
    ``embed_euclidean``, which validates it (ball, planarity, convexity)."""
    if workload == "realize":
        return realize_ladder(seed)
    if workload == "certify":
        return certify_ladder(seed, workdir)
    if workload == "trace":
        return trace_ladder()
    raise ValueError(f"unknown workload {workload!r}")
