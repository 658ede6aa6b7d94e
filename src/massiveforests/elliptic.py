"""Jacobi elliptic functions, complete integrals and the elliptic mass.

K and E come from the arithmetic-geometric mean; sn, cn, dn and am from
scipy's `ellipj`, and the mass term in closed form through Jacobi's zeta
function (DLMF 22.16).  Conventions follow DLMF 22.2 on the real axis.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

_AGM_TOL = 1e-16
_THETA_TOL = 1e-18


@dataclass(frozen=True)
class EllipticModulus:
    """Modulus k with its complete integrals and nome."""

    k: float
    kprime: float
    K: float
    E: float
    Kprime: float
    Eprime: float
    q: float

    def abstract_angle(self, theta_bar):
        """theta = 2 K theta_bar / pi."""
        return 2.0 * self.K * theta_bar / math.pi


def _agm_K_E(k):
    """Complete integrals by AGM: K = pi/(2 agm(1, k')), E via the c-sum."""
    kp = math.sqrt(max(0.0, 1.0 - k * k))
    a, b, c = 1.0, kp, k
    csum = 0.5 * c * c
    pow2 = 1.0
    for _ in range(60):
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        pow2 *= 2.0
        csum += 0.5 * pow2 * c * c
        if abs(c) < _AGM_TOL * a:
            break
    K = math.pi / (2.0 * a)
    E = K * (1.0 - csum)
    return K, E


def complete_integrals(k) -> EllipticModulus:
    if not 0.0 <= k < 1.0:
        raise ValueError("modulus k must lie in [0, 1)")
    kp = math.sqrt(1.0 - k * k)
    K, E = _agm_K_E(k)
    Kp, Ep = _agm_K_E(kp)
    q = math.exp(-math.pi * Kp / K) if k > 0 else 0.0
    return EllipticModulus(k=k, kprime=kp, K=K, E=E, Kprime=Kp, Eprime=Ep,
                           q=q)


def _theta_constants(q):
    """theta_2(0, q), theta_3(0, q)."""
    t2 = 0.0
    n = 0
    while True:
        term = q ** (n * (n + 1))  # q^{(n+1/2)^2} / q^{1/4}
        t2 += term
        if term < _THETA_TOL or n > 200:
            break
        n += 1
    t2 *= 2.0 * q ** 0.25
    t3 = 1.0
    n = 1
    while True:
        term = q ** (n * n)
        t3 += 2.0 * term
        if term < _THETA_TOL or n > 200:
            break
        n += 1
    return t2, t3


def modulus_from_nome(q) -> EllipticModulus:
    """k = theta_2^2 / theta_3^2 at the given nome."""
    if not 0.0 <= q < 1.0:
        raise ValueError("nome must lie in [0, 1)")
    if q == 0.0:
        return complete_integrals(0.0)
    t2, t3 = _theta_constants(q)
    k = (t2 / t3) ** 2
    return complete_integrals(min(k, 1.0 - 1e-16))


def _ellipj(u, modulus: EllipticModulus):
    """sn, cn, dn and am at real u (a float or an array)."""
    from scipy.special import ellipj

    return ellipj(u, modulus.k * modulus.k)


def _real(x):
    """A float for a 0-d result; arrays pass through."""
    return float(x) if np.ndim(x) == 0 else x


JacobiValues = namedtuple("JacobiValues", "sn cn dn sc")


def jacobi(u, modulus: EllipticModulus) -> JacobiValues:
    """sn, cn, dn and sc at real u."""
    sn, cn, dn_, _ = map(float, _ellipj(u, modulus))
    return JacobiValues(sn, cn, dn_,
                        math.copysign(math.inf, sn) if cn == 0.0 else sn / cn)


def sc(u, modulus):
    """sn/cn at real u below K in modulus, a float or an array."""
    sn, cn, _, _ = _ellipj(u, modulus)
    return _real(sn / cn)


def dn(u, modulus):
    return float(_ellipj(u, modulus)[2])


def mass_term(theta_bar, modulus: EllipticModulus):
    """Contribution of one incident edge to the squared mass, per entry
    of a float or an array of half-angles.

    (1/k') (int_0^theta dc^2 + ((E-K)/K) theta) - sc(theta|k) with theta
    the abstract angle of theta_bar.  Since int_0^theta dc^2 = theta -
    eps(theta) + sn dc (DLMF 22.16) and sn (dn - k')/cn = k^2 sn cn/(dn + k'),
    this is (k^2 sn cn/(dn + k') - Z(theta|k))/k' with Jacobi's zeta
    Z(theta|k) = eps(am theta|k) - (E/K) theta, and no digits are lost as
    cn -> 0.
    """
    from scipy.special import ellipeinc

    theta_bar = np.asarray(theta_bar, dtype=float)
    if not np.all((0.0 < theta_bar) & (theta_bar < math.pi / 2)):
        raise ValueError("half-angle must lie in (0, pi/2)")
    k, kp = modulus.k, modulus.kprime
    theta = modulus.abstract_angle(theta_bar)
    sn, cn, dn_, am = _ellipj(theta, modulus)
    zeta = ellipeinc(am, k * k) - modulus.E / modulus.K * theta
    return _real((k * k * sn * cn / (dn_ + kp) - zeta) / kp)


def mass_value(half_angles, modulus: EllipticModulus):
    """Squared mass m^2(x|k) of a vertex from its incident half-angles.

    One `mass_term` per distinct half-angle; the terms are summed in the
    order of `half_angles`.
    """
    half_angles = list(half_angles)
    terms = {tb: mass_term(tb, modulus) for tb in dict.fromkeys(half_angles)}
    return sum(terms[tb] for tb in half_angles)


def mass_value_via_exponential(half_angle_rays, modulus: EllipticModulus,
                               u_bar=0.0):
    """Cross-oracle: m^2(x) = sum_y sc(theta_xy)(e_(x,y) - 1).

    Rearranged massive harmonicity of the discrete exponential; must agree
    with `mass_value` for any real u_bar.  `half_angle_rays` is a list of
    (alpha_bar, beta_bar) per incident edge.
    """
    total = 0.0
    for a_bar, b_bar in half_angle_rays:
        tb = 0.5 * (b_bar - a_bar)
        factor = exponential_edge_factor(a_bar, b_bar, u_bar, modulus)
        total += sc(modulus.abstract_angle(tb), modulus) * (factor - 1.0)
    return total


def exponential_step_factor(gamma_bar, u_bar, modulus: EllipticModulus):
    """dn((u - gamma)/2 | k) / sqrt(k'), one lozenge-side step, per entry
    of a float or an array of angles gamma_bar."""
    u = modulus.abstract_angle(u_bar)
    gamma = modulus.abstract_angle(gamma_bar)
    dn_ = _ellipj(0.5 * (u - gamma), modulus)[2]
    return _real(dn_ / math.sqrt(modulus.kprime))


def exponential_edge_factor(alpha_bar, beta_bar, u_bar,
                            modulus: EllipticModulus):
    """Positive edge factor of the shifted discrete massive exponential."""
    return exponential_step_factor(alpha_bar, u_bar, modulus) * \
        exponential_step_factor(beta_bar, u_bar, modulus)


def near_critical_modulus(M, delta) -> EllipticModulus:
    """Modulus of the regime q = M*delta/2; M = 0 is the critical k = 0."""
    if M < 0:
        raise ValueError(f"mass parameter M = {M} must be nonnegative")
    return modulus_from_nome(0.5 * M * delta)


def verify_near_critical_asymptotics(M, deltas):
    """Residuals of the expansions of k^2, theta/theta_bar and sc, the
    latter two at theta_bar = pi/4.

    Returns rows (delta, k2_resid/d^3, angle_resid/d^3, sc_resid/d^2); each
    column should stay bounded as delta halves.
    """
    theta_bar = math.pi / 4
    rows = []
    for d in deltas:
        mod = near_critical_modulus(M, d)
        k2_pred = 8 * M * d - 32 * M**2 * d**2
        k2_res = abs(mod.k**2 - k2_pred) / d**3
        ratio_pred = 1 + 2 * M * d + (M * d) ** 2
        ratio_res = abs(2 * mod.K / math.pi - ratio_pred) / d**3
        theta = mod.abstract_angle(theta_bar)
        sc_pred = (1 + 2 * M * d) * math.tan(theta_bar)
        sc_res = abs(sc(theta, mod) - sc_pred) / d**2
        rows.append((d, k2_res, ratio_res, sc_res))
    return rows
