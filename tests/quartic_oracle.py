"""The fixed-ray regime from F = cos^2 theta (K+1)^3 (K-1) - (2K-1)^3,
evaluated in 60-digit decimal with cos and sin from their Taylor series.
F is taken as K (K-2)^3 - sin^2 theta (K+1)^3 (K-1), the same polynomial
(expand both), which keeps its sign as theta -> 0 where cos^2 theta rounds
to 1 even in 60 digits.

This is independent of `qrdyn.rays`, which evaluates F exactly on the float
cos^2 theta or 1 - sin^2 theta.  Both call a map at the bifurcation when
|F| <= 2 |cos theta sin theta| (K+1)^3 (K-1) 1e-12, the change in F when
theta moves by the residual `k_theta` allows; a cubic with no two critical
points (K <= 2) cannot have a double root there.
"""

import decimal
from decimal import Decimal


def cos_sin(theta: float) -> tuple[Decimal, Decimal]:
    """cos and sin of the float theta, |theta| <= pi/2, to 60 digits."""
    x = Decimal(theta)
    cs = [Decimal(0), Decimal(0)]
    term = Decimal(1)
    for k in range(60):  # x^k/k! < 1e-70 from k = 60 on, for |x| <= pi/2
        cs[k % 2] += term if k % 4 < 2 else -term
        term = term * x / (k + 1)
    return cs[0], cs[1]


def exact_regime(K: float, theta: float) -> str:
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        c, s = cos_sin(theta)
        k = Decimal(K)
        x = (k + 1) ** 3 * (k - 1)
        F = k * (k - 2) ** 3 - s * s * x
        if K > 2.0 and abs(F) <= 2 * abs(c * s) * x * Decimal("1e-12"):
            return "two_with_neutral"
        if F == 0:
            return "one_parabolic"
        return "three" if F > 0 else "one_repelling"
