"""Dynamics of the degree-two quasiregular maps H(z) = h_{K,theta}(z)^2.

h_{K,theta} is the affine stretch by K in direction e^{i theta}; its square
H is quasiregular with constant complex dilatation mu.  The package covers
the induced circle dynamics, fixed-ray structure and bifurcation, the
Blaschke model on S^1, dilatation growth of the iterates via Mobius chains
in the hyperbolic disk, the escaping/attracted plane partition, and trace
obstructions to quasiconformal equivalence near infinity.
"""

from .core import (MapParams, make_params, params_of_mu, eval_H,
                   radial_stretch, circle_dist)
from .circle import (circle_map, orbit, classify_limit, backward_tree,
                     BackwardTree, LimitOutcome, LimitReport)
from .rays import (FixedRay, RegimeReport, Regime, Stability, fixed_rays,
                   theta_of_K, k_theta, interval_J)
from .mobius import (contraction_k, dilatation_on_ray, dilatation_chain,
                     dilatation_distance_series, growth_fit, GrowthFit)
from .blaschke import (BlaschkeMap, blaschke_of_params, blaschke_apply,
                       julia_classification, julia_sample, immediate_basin,
                       JuliaKind, BasinInterval)
from .plane import (PointClass, PointResult, classify_point,
                    radial_fixed_point, Window, PlaneGrid, render_grid,
                    write_ppm, write_stats, R_ESCAPE)
from .obstruct import (ObstructionVerdict, Verdict, Reason,
                       obstruction_report)
from .errors import (QrdynError, InvalidParameter, NumericalFailure,
                     ResourceLimit, NoBasin)

__version__ = "0.1.0"
