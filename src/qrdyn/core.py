"""The affine stretch h, the quadratic map H = h^2, and parameter conversions.

Parameters are the stretch factor K > 1 and the stretch direction theta,
normalized to (-pi/2, pi/2].  The equivalent description is the constant
complex dilatation mu = e^{2 i theta} (K-1)/(K+1) of h.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass

from .errors import InvalidParameter

TAU = 2.0 * math.pi


def normalize_angle(x: float) -> float:
    """Reduce an angle to (-pi, pi]."""
    a = x % TAU
    if a > math.pi:
        a -= TAU
    return a


def require_integer(fn: str, name: str, value) -> int:
    """A loop count as an int: InvalidParameter naming the value unless
    operator.index accepts it (Python and numpy integers, not floats)."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidParameter(f"{fn} needs an integer {name}, "
                               f"got {name}={value!r}") from None


def require_finite(fn: str, name: str, x: float) -> None:
    """Raise InvalidParameter naming x unless it is finite."""
    if not math.isfinite(x):
        raise InvalidParameter(f"{fn} needs a finite {name}, got {name}={x!r}")


def circle_dist(a: float, b: float) -> float:
    """Distance between two angles on the circle, always <= pi."""
    return abs(normalize_angle(a - b))


def normalize_theta(theta: float) -> float:
    """Reduce a direction angle to (-pi/2, pi/2] by adding multiples of pi."""
    t = theta % math.pi
    if t > math.pi / 2:
        t -= math.pi
    return t


@dataclass(frozen=True)
class MapParams:
    """The pair (K, theta) defining h and H, with the derived dilatation mu."""

    K: float
    theta: float
    mu: complex


def make_params(K: float, theta: float) -> MapParams:
    if not (math.isfinite(K) and math.isfinite(theta)):
        raise InvalidParameter("K and theta must be finite")
    if K <= 1.0:
        raise InvalidParameter(f"need K > 1, got K={K} (K=1 is the identity stretch)")
    t = normalize_theta(theta)
    mu = cmath.exp(2j * t) * (K - 1.0) / (K + 1.0)
    # from K of about 1.2e16 on, |mu| = 1 - 2/(K+1) rounds to 1: h is then
    # degenerate in floating point, and K^2 overflows from about 1.3e154 on
    if (K - 1.0) / (K + 1.0) >= 1.0 or abs(mu) >= 1.0:
        raise InvalidParameter(
            f"K={K!r} is too large: |mu| = (K-1)/(K+1) rounds to 1")
    return MapParams(K=float(K), theta=t, mu=mu)


def params_of_mu(mu: complex) -> MapParams:
    """Invert mu = e^{2 i theta}(K-1)/(K+1); requires 0 < |mu| < 1."""
    m = abs(mu)
    if m == 0.0:
        raise InvalidParameter("mu = 0 is the holomorphic case z^2, excluded")
    if m >= 1.0:
        raise InvalidParameter(f"|mu| must be < 1, got {m}")
    K = (1.0 + m) / (1.0 - m)
    theta = cmath.phase(mu) / 2.0
    return make_params(K, theta)


def eval_h(p: MapParams, z):
    """The affine stretch by K in direction e^{i theta}; z is a complex
    number or a complex numpy array."""
    return 0.5 * (p.K + 1.0) * (z + p.mu * z.conjugate())


def eval_H(p: MapParams, z):
    """The degree-two map H(z) = h(z)^2, on numbers or arrays."""
    w = eval_h(p, z)
    return w * w


def radial_stretch(p: MapParams, phi: float) -> float:
    """The factor alpha(phi) with |H(r e^{i phi})| = alpha r^2."""
    require_finite("radial_stretch", "phi", phi)
    c = math.cos(phi - p.theta)
    return 1.0 + (p.K * p.K - 1.0) * c * c


def arg_h(p: MapParams, phi: float) -> float:
    """Argument of h(r e^{i phi}) for any r > 0 (half the circle map)."""
    require_finite("arg_h", "phi", phi)
    x = phi - p.theta
    return p.theta + math.atan2(math.sin(x), p.K * math.cos(x))

