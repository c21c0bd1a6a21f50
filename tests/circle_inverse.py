"""The two preimages of an angle under the circle map, one at a time: the
reference the tests check `backward_tree` and `julia_sample` against.

The library writes this inverse out inline, on a whole level of angles in
`backward_tree` and one random branch a step in `julia_sample`.
"""

import math

from qrdyn.core import MapParams, normalize_angle, require_finite


def circle_preimages(p: MapParams, psi: float) -> tuple[float, float]:
    """The two angles phi, phi + pi with circle_map(phi) = psi."""
    require_finite("circle_preimages", "psi", psi)
    u = (psi - 2.0 * p.theta) / 2.0
    x = math.atan2(p.K * math.sin(u), math.cos(u))
    phi = normalize_angle(p.theta + x)
    return phi, normalize_angle(phi + math.pi)
