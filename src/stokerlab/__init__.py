"""Numerical laboratory for dihedral-angle rigidity of convex hyperbolic polyhedra.

The library certifies that a convex polyhedron in the Klein model of
hyperbolic 3-space is locally parameterized by its dihedral angles, realizes
nearby angle targets constructively, and verifies the companion holonomy,
cocycle and trace-coordinate dimension counts on the associated edge and
vertex-link representations.
"""

from .config import DEFAULT, Tolerances
from .deform import DeformOptions, DeformResult, continuation_path, gauge_fix, realize_angles
from .fixtures import (
    cube,
    pentagonal_pyramid,
    square_pyramid,
    tetrahedron,
    triangular_prism,
)
from .polyhedron import (
    CombinatorialType,
    EmbeddedPolyhedron,
    convexity_margins,
    dihedral_angles,
    embed_euclidean,
    planarity_residuals,
    validate_combinatorics,
    validate_embedding,
)
from .repvar import (
    Cocycle,
    LinkCertificate,
    LinkRepresentation,
    PolyhedronHolonomy,
    Presentation,
    Representation,
    cocycle_extend,
    cocycle_space,
    coboundary,
    coboundary_space,
    cohomology_basis,
    evaluate_word,
    irreducibility_check,
    link_certificate,
    link_representation,
    meridian_holonomy,
    polyhedron_holonomy,
    surface_group_fixture,
    trace_differential,
    trace_rank,
)
from .rigidity import (
    RigidityReport,
    angle_jacobian,
    constraint_jacobian,
    isometry_directions,
    rigidity_report,
    tangent_space,
)

__version__ = "0.1.0"
