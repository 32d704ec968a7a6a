"""Shared numerical tolerance policy.

Every threshold used by the library lives in one frozen record so a single
scale factor can stress-test all checks coherently (the CLI honors the
``STOKERLAB_TOL_SCALE`` environment variable for this purpose).
"""

import math
from dataclasses import dataclass, fields


@dataclass(frozen=True)
class Tolerances:
    ball: float = 1e-9            # Klein radii stay below 1 - ball (lorentz.inside_ball)
    iso: float = 1e-10            # Lorentz-invariance defect allowed for isometries
    rank_rel: float = 1e-10       # relative span cutoff for plane construction
    planar: float = 1e-9          # absolute bound on planarity determinants
    convex: float = 1e-10         # margins at or below it are not positive (strictly_convex)
    rank_svd: float = 1e-9        # relative rank cutoff: sigma_k, pivoted-QR |r_kk|, step QR rcond (rank loss)
    principal_angle: float = 1e-6 # kernel vs isometry-direction subspace agreement
    relator: float = 1e-8         # group-relation residual (up to overall sign)
    trace_identity: float = 1e-9  # meridian trace vs dihedral angle agreement
    irreducible: float = 1e-8     # projective residual separating reducible reps
    central: float = 1e-10        # Frobenius distance to +-I below which an image is central
    eigen_residual: float = 1e-6  # relative eigenpair residual of a trusted eigenvector
    degenerate: float = 1e-12     # norm below which an eigenvector or its image is zero
    frame: float = 1e-10          # collinearity threshold for gauge frames
    branch_tie: float = 1e-12     # |part| at or below which an SL(2,C) lift's sign test ties
    branch_entry: float = 1e-8    # modulus above which a lift entry can break a sign tie

    def scaled(self, factor: float) -> "Tolerances":
        """Return a copy with every threshold multiplied by ``factor``."""
        if not (math.isfinite(factor) and factor > 0):
            raise ValueError("tolerance scale factor must be finite and positive")
        return Tolerances(**{f.name: getattr(self, f.name) * factor for f in fields(self)})


DEFAULT = Tolerances()
