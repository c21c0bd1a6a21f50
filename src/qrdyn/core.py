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

from .errors import InvalidParameter, ResourceLimit

TAU = 2.0 * math.pi


def normalize_angle(x: float) -> float:
    """Reduce an angle to (-pi, pi]."""
    a = x % TAU
    if a > math.pi:
        a -= TAU
    return a


def require_count(fn: str, name: str, value, lo, limit=None) -> int:
    """A loop count or size as an int in [lo, limit], either end None for
    none: InvalidParameter naming fn, name and the value unless
    operator.index accepts it (Python and numpy integers, not floats) or
    when it is below lo, and ResourceLimit when it is above limit."""
    try:
        n = operator.index(value)
    except TypeError:
        raise InvalidParameter(f"{fn} needs an integer {name}, "
                               f"got {name}={value!r}") from None
    if lo is not None and n < lo:
        raise InvalidParameter(f"{fn} needs {name} >= {lo}, got {name}={n}")
    if limit is not None and n > limit:
        raise ResourceLimit(f"{fn} {name} {n} exceeds limit {limit}")
    return n


def require_finite(fn: str, name: str, x: float) -> None:
    """Raise InvalidParameter naming x unless it is finite."""
    if not math.isfinite(x):
        raise InvalidParameter(f"{fn} needs a finite {name}, got {name}={x!r}")


def modulus(z: complex) -> float:
    """|z|, inf where it passes the float range, in which case Python's
    abs raises OverflowError."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def circle_dist(a: float, b: float) -> float:
    """Distance between two angles on the circle, always <= pi;
    InvalidParameter naming a and b unless a - b is finite."""
    d = a - b
    if not math.isfinite(d):
        raise InvalidParameter(
            f"circle_dist needs angles with a finite difference, got a={a!r}, b={b!r}")
    return abs(normalize_angle(d))


def normalize_theta(theta: float) -> float:
    """Reduce a direction angle to (-pi/2, pi/2] by adding multiples of pi."""
    t = theta % math.pi
    if t > math.pi / 2:
        t -= math.pi
    return t


def _require_stretch(K: float, theta: float) -> None:
    """Raise InvalidParameter unless K and theta are finite, K > 1 and
    (K-1)/(K+1), the modulus of mu, rounds below 1."""
    if not (math.isfinite(K) and math.isfinite(theta)):
        raise InvalidParameter(
            f"need a finite K and theta, got K={K!r}, theta={theta!r}")
    if not K > 1.0:
        raise InvalidParameter(f"need K > 1, got K={K} (K=1 is the identity stretch)")
    # from K of about 1.2e16 on, |mu| = 1 - 2/(K+1) rounds to 1: h is then
    # degenerate in floating point, and K^2 overflows from about 1.3e154 on
    if (K - 1.0) / (K + 1.0) >= 1.0:
        raise InvalidParameter(
            f"K={K!r} is too large: |mu| = (K-1)/(K+1) rounds to 1")


@dataclass(frozen=True)
class MapParams:
    """The pair (K, theta) defining h and H, with the derived dilatation mu.

    Built directly, it is checked as make_params checks its arguments, and
    mu must have |mu| < 1; whether mu matches K and theta is not checked.
    """

    K: float
    theta: float
    mu: complex

    def __post_init__(self):
        _require_stretch(self.K, self.theta)
        if not modulus(self.mu) < 1.0:  # nan fails too
            raise InvalidParameter(f"MapParams needs |mu| < 1, got mu={self.mu!r}")


def make_params(K: float, theta: float) -> MapParams:
    """The map of stretch K > 1 in the direction theta, reduced to
    (-pi/2, pi/2]; InvalidParameter outside the domain MapParams checks."""
    _require_stretch(K, theta)  # before mu divides by K + 1
    t = normalize_theta(theta)
    mu = cmath.exp(2j * t) * (K - 1.0) / (K + 1.0)
    return MapParams(K=float(K), theta=t, mu=mu)


def params_of_mu(mu: complex) -> MapParams:
    """Invert mu = e^{2 i theta}(K-1)/(K+1); requires 0 < |mu| < 1."""
    m = modulus(mu)
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
    """The degree-two map H(z) = h(z)^2, on numbers or arrays.

    It checks no z: it is elementwise IEEE arithmetic, so a nan stays nan
    and a z past about 1e154 / K overflows to inf, entry by entry."""
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

