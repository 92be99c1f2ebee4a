"""Closed forms of the alpha = 2 even wave and its lowest L1 eigenvalue.

The positive even wave of -phi'' + omega phi - phi^3 = 0 with period L is

    phi(x) = sqrt(2) B dn(B x | m),   omega = B^2 (2 - m),   L = 2 K(m) / B,

and with u = B x its L1 = -d_xx + omega - 3 phi^2 is the Lame operator of
order 2, B^2 (-d_uu + 6 m sn^2(u | m) - 4 - m).  Its lowest 2K-periodic
eigenvalue is -lambda0 with

    lambda0 = B^2 (2 - m + 2 sqrt(1 - m + m^2)),

so the band of transverse growth is (0, sqrt(lambda0)).  The parameter is
p = 1 - m, through ``scipy.special.ellipkm1(p)`` = K(1 - p), which keeps its
accuracy near the solitary limit p -> 0; p is the bracketed root of the
period constraint.  Nothing here goes through the package.
"""

import numpy as np
from scipy.optimize import brentq
from scipy.special import ellipkm1


def dn_wave(omega: float, period: float) -> tuple[float, float]:
    """(p, B), p = 1 - m, of the dn wave of frequency omega and period L:
    the root in (0, 1) of 2 K(1 - p) sqrt(1 + p) = L sqrt(omega), from
    omega = B^2 (1 + p) and L = 2 K / B.  A nonconstant wave needs
    L sqrt(omega) > pi sqrt(2), the value at p = 1."""

    def mismatch(p):
        return 2.0 * ellipkm1(p) * np.sqrt(1.0 + p) - period * np.sqrt(omega)

    p = brentq(mismatch, np.finfo(float).tiny, 1.0, xtol=1e-300, rtol=4.0 * np.finfo(float).eps)
    return p, float(np.sqrt(omega / (1.0 + p)))


def dn_lambda0(omega: float, period: float) -> float:
    """lambda0 = B^2 (2 - m + 2 sqrt(1 - m + m^2)) of the dn wave, written in
    p = 1 - m: B^2 (1 + p + 2 sqrt(1 - p + p^2))."""
    p, b = dn_wave(omega, period)
    return b**2 * (1.0 + p + 2.0 * np.sqrt(1.0 - p + p * p))
