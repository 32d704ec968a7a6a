"""Certifying that dihedral angles locally parameterize a polyhedron.

The planarity constraints cut a manifold of dimension |E| + 6 in vertex
space; on its tangent space the angle Jacobian must reach rank |E| and its
kernel must be exactly the six directions induced by ambient isometries.
The certificate checks all of this with explicit singular-value gaps.
"""

import numpy as np

from stokerlab import fixtures
from stokerlab.rigidity import isometry_directions, rigidity_report, tangent_space

for name, build in fixtures.STANDARD.items():
    poly = build(0.3)
    e = poly.combinatorics.edge_count
    report = rigidity_report(poly)
    print(f"{name}:")
    print(f"  tangent dim {report.tangent_dim} (= |E|+6 = {e + 6})")
    print(f"  angle rank  {report.angle_rank} (= |E| = {e}), kernel {report.kernel_dim}")
    print(f"  kernel vs isometry principal angle: {report.isometry_containment_residual:.2e}")
    print(f"  singular-value gap: sigma_E/sigma_1 = {report.spectral_gap:.2e}")
    print(f"  certified: {report.certified}")

# The six isometry directions are tangent to the constraint set and
# annihilated by the angle Jacobian; they are the only angle-preserving
# first-order motions.
poly = fixtures.pentagonal_pyramid(0.3)
iso = isometry_directions(poly)
tangent = tangent_space(poly)
coords = tangent.T @ iso
print("\nisometry directions inside the tangent space:",
      np.max(np.abs(tangent @ coords - iso)))
