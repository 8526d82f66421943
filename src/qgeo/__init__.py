"""Chart-based numerical conformal submanifold geometry.

Jet (truncated Taylor) arithmetic, curvature of metrics given in
coordinates, extrinsic/intrinsic geometry of immersed submanifolds, the
scalar conformal invariants and extrinsic Q-curvatures built from them
(including the pointwise Pfaffian + defect + divergence split of the
critical Q-curvature), and conformal-change verification of all of these
at a point.
"""

from .conformal import (
    LinearizationReport,
    check_invariance,
    check_q_transformation,
    linear_independence_witness,
    linearize,
)
from .jets import BudgetError, Jets, jet_of

__all__ = [
    "BudgetError",
    "Jets",
    "LinearizationReport",
    "check_invariance",
    "check_q_transformation",
    "jet_of",
    "linear_independence_witness",
    "linearize",
]
