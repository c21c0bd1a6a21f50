"""Plain disk Mobius maps and the Poincare distance: the independent
construction the tests check `qrdyn.mobius`'s chain against.

A disk automorphism is stored as the normalized coefficient pair (a, b) for
w -> (a w + b)/(conj(b) w + conj(a)) with |a|^2 - |b|^2 = 1.  The library
folds unnormalized factors instead and measures d_h(0, mu_{H^n}) through
its inverse orbit; these are the objects that computation replaced.
"""

import cmath
import math
from dataclasses import dataclass

from qrdyn.circle import require_fixed_angle
from qrdyn.core import MapParams
from qrdyn.errors import InvalidParameter


@dataclass(frozen=True)
class DiskMobius:
    a: complex
    b: complex

    @staticmethod
    def from_coeffs(a: complex, b: complex) -> "DiskMobius":
        d = abs(a) ** 2 - abs(b) ** 2
        if d <= 0.0:
            raise InvalidParameter("need |a| > |b| for a disk automorphism")
        s = math.sqrt(d)
        return DiskMobius(a / s, b / s)


def mobius_apply(m: DiskMobius, w: complex) -> complex:
    return (m.a * w + m.b) / (m.b.conjugate() * w + m.a.conjugate())


def hyperbolic_dist(w1: complex, w2: complex) -> float:
    """Poincare distance on the unit disk."""
    if abs(w1) >= 1.0 or abs(w2) >= 1.0:
        raise InvalidParameter("hyperbolic_dist needs points inside the disk")
    den = abs(1.0 - w1.conjugate() * w2)
    rho = abs(w1 - w2) / den
    # 1 - rho^2 = (1-|w1|^2)(1-|w2|^2)/den^2, stable near the boundary
    log_one_minus_rho_sq = (math.log1p(-abs(w1) ** 2)
                            + math.log1p(-abs(w2) ** 2)
                            - 2.0 * math.log(den))
    return 2.0 * math.log1p(rho) - log_one_minus_rho_sq


def fixed_ray_mobius(p: MapParams, phi: float) -> DiskMobius:
    """The Mobius map pushing the dilatation forward along the fixed ray phi."""
    require_fixed_angle(p, phi)
    half = cmath.exp(-0.5j * phi)
    return DiskMobius.from_coeffs(half, p.mu / half)
