"""Meridian holonomy and vertex-link representations.

Doubling a polyhedron across its faces produces a cone structure whose
singular edges carry cone angle twice the dihedral angle.  The meridian of
an edge is the product of the two adjacent face reflections: an elliptic
rotation about the edge whose SL(2,C) lift has |trace| = 2|cos(dihedral)|.
"""

import numpy as np

from stokerlab import fixtures
from stokerlab.polyhedron import dihedral_angles
from stokerlab.repvar import (
    irreducibility_check,
    link_representation,
    meridian_holonomy,
    representation_report,
)

poly = fixtures.tetrahedron(0.3)
comb = poly.combinatorics
angles = dihedral_angles(poly)

print("edge    dihedral    |tr lift|    2|cos(dihedral)|")
for k, e in enumerate(comb.edges):
    _, lift = meridian_holonomy(poly, e)
    print(f"{e}   {angles[k]:.6f}   {abs(np.trace(lift)):.10f}   "
          f"{2 * abs(np.cos(angles[k])):.10f}")

# Walking the faces around a vertex, consecutive meridians share a
# reflection, so the cyclic product telescopes to the identity: that is the
# defining relation of the link of the vertex, a cone sphere with one cone
# point per incident edge.
print("\nvertex   valence   relation residual   irreducible")
for v in range(comb.vertex_count):
    link = link_representation(poly, v)
    rep = link.representation()
    _, [(_, residual)] = representation_report(rep, link.presentation)
    irr = irreducibility_check(rep)
    print(f"{v:6}   {len(link.edges):7}   {residual:.3e}   "
          f"{irr.irreducible}")

# Cone angles of the double stay below a full turn exactly because the
# polyhedron is convex (dihedral angles below pi).
link = link_representation(fixtures.pentagonal_pyramid(0.3), 5)
print("\npentagonal-pyramid apex cone angles:", np.round(link.cone_angles, 6))
print("all below 2*pi:", bool(np.all(link.cone_angles < 2 * np.pi)))
