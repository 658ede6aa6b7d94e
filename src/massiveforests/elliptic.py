"""Jacobi elliptic functions and complete integrals.

K and E come from the arithmetic-geometric mean; sn, cn, dn from theta
series in the nome (2-3 terms in the near-critical regime where q = M*delta/2
is tiny), with one descending Landen step when the nome exceeds 1/2.
Conventions follow DLMF 22.2 on the real axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

_AGM_TOL = 1e-16
_THETA_TOL = 1e-18
_Q_SPLIT = 0.5
_SIMPSON_TOL = 1e-12
_SIMPSON_DEPTH = 40


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

    @cached_property
    def theta_constants(self):
        """theta_2, theta_3, theta_4 at 0 and nome q, computed on first use."""
        return _theta_constants(self.q)


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
    """theta_2(0, q), theta_3(0, q), theta_4(0, q)."""
    t2 = 0.0
    n = 0
    while True:
        term = q ** (n * (n + 1))  # q^{(n+1/2)^2} / q^{1/4}
        t2 += term
        if term < _THETA_TOL or n > 200:
            break
        n += 1
    t2 *= 2.0 * q ** 0.25
    t3, t4 = 1.0, 1.0
    n = 1
    while True:
        term = q ** (n * n)
        t3 += 2.0 * term
        t4 += 2.0 * (-1) ** n * term
        if term < _THETA_TOL or n > 200:
            break
        n += 1
    return t2, t3, t4


def modulus_from_nome(q) -> EllipticModulus:
    """k = theta_2^2 / theta_3^2 at the given nome."""
    if not 0.0 <= q < 1.0:
        raise ValueError("nome must lie in [0, 1)")
    if q == 0.0:
        return complete_integrals(0.0)
    t2, t3, _ = _theta_constants(q)
    k = (t2 / t3) ** 2
    return complete_integrals(min(k, 1.0 - 1e-16))


def _theta_series(zeta, q):
    """theta_1..theta_4 at argument zeta, nome q (real axis)."""
    t1 = t2 = 0.0
    n = 0
    while True:
        w = q ** (n * (n + 1))
        t1 += (-1) ** n * w * math.sin((2 * n + 1) * zeta)
        t2 += w * math.cos((2 * n + 1) * zeta)
        if w < _THETA_TOL or n > 200:
            break
        n += 1
    q14 = q ** 0.25
    t1 *= 2.0 * q14
    t2 *= 2.0 * q14
    t3, t4 = 1.0, 1.0
    n = 1
    while True:
        w = q ** (n * n)
        t3 += 2.0 * w * math.cos(2 * n * zeta)
        t4 += 2.0 * (-1) ** n * w * math.cos(2 * n * zeta)
        if w < _THETA_TOL or n > 200:
            break
        n += 1
    return t1, t2, t3, t4


class JacobiValues:
    __slots__ = ("sn", "cn", "dn", "sc", "dc")

    def __init__(self, sn, cn, dn):
        self.sn = sn
        self.cn = cn
        self.dn = dn
        if cn == 0.0:
            self.sc = math.copysign(math.inf, sn)
            self.dc = math.copysign(math.inf, dn)
        else:
            self.sc = sn / cn
            self.dc = dn / cn


def jacobi(u, modulus: EllipticModulus) -> JacobiValues:
    """sn, cn, dn (and sc, dc) at real u."""
    k = modulus.k
    if k < 1e-8:  # trig limit; error O(k^2)
        return JacobiValues(math.sin(u), math.cos(u), 1.0)
    q = modulus.q
    if q > _Q_SPLIT:
        # one descending Landen step: q -> q^2
        k1 = (1.0 - modulus.kprime) / (1.0 + modulus.kprime)
        sub = complete_integrals(k1)
        v = jacobi(u / (1.0 + k1), sub)
        den = 1.0 + k1 * v.sn * v.sn
        return JacobiValues((1.0 + k1) * v.sn / den,
                            v.cn * v.dn / den,
                            (1.0 - k1 * v.sn * v.sn) / den)
    zeta = math.pi * u / (2.0 * modulus.K)
    t1, t2, t3, t4 = _theta_series(zeta, q)
    z2, z3, z4 = modulus.theta_constants
    sn = (z3 / z2) * (t1 / t4)
    cn = (z4 / z2) * (t2 / t4)
    dn = (z4 / z3) * (t3 / t4)
    return JacobiValues(sn, cn, dn)


def sc(u, modulus):
    return jacobi(u, modulus).sc


def dn(u, modulus):
    return jacobi(u, modulus).dn


def dc(u, modulus):
    return jacobi(u, modulus).dc


def _adaptive_simpson(f, a, b):
    def simpson(fa, fm, fb, a_, b_):
        return (b_ - a_) / 6.0 * (fa + 4.0 * fm + fb)

    def rec(a_, b_, fa, fm, fb, whole, tol_, depth_):
        m = 0.5 * (a_ + b_)
        lm, rm = 0.5 * (a_ + m), 0.5 * (m + b_)
        flm, frm = f(lm), f(rm)
        left = simpson(fa, flm, fm, a_, m)
        right = simpson(fm, frm, fb, m, b_)
        if depth_ <= 0 or abs(left + right - whole) < 15.0 * tol_:
            return left + right + (left + right - whole) / 15.0
        return rec(a_, m, fa, flm, fm, left, tol_ / 2.0, depth_ - 1) + \
            rec(m, b_, fm, frm, fb, right, tol_ / 2.0, depth_ - 1)

    if a == b:
        return 0.0
    fa, fb, fm = f(a), f(b), f(0.5 * (a + b))
    whole = simpson(fa, fm, fb, a, b)
    return rec(a, b, fa, fm, fb, whole, _SIMPSON_TOL, _SIMPSON_DEPTH)


def mass_term(theta_bar, modulus: EllipticModulus):
    """Contribution of one incident edge to the squared mass.

    (1/k') (int_0^theta dc^2 + ((E-K)/K) theta) - sc(theta|k) with
    theta the abstract angle of theta_bar.
    """
    if not 0.0 < theta_bar < math.pi / 2:
        raise ValueError("half-angle must lie in (0, pi/2)")
    if modulus.k == 0.0:
        return 0.0
    theta = modulus.abstract_angle(theta_bar)
    integral = _adaptive_simpson(lambda v: dc(v, modulus) ** 2, 0.0, theta)
    bracket = (integral + (modulus.E - modulus.K) / modulus.K * theta) \
        / modulus.kprime
    return bracket - sc(theta, modulus)


def mass_value(half_angles, modulus: EllipticModulus):
    """Squared mass m^2(x|k) of a vertex from its incident half-angles.

    One quadrature per distinct half-angle; the terms are summed in the
    order of `half_angles`.
    """
    half_angles = list(half_angles)
    terms = {tb: mass_term(tb, modulus) for tb in dict.fromkeys(half_angles)}
    return sum(terms[tb] for tb in half_angles)


def mass_value_via_exponential(half_angle_rays, modulus: EllipticModulus,
                               u_bar=0.0):
    """Cross-oracle: m^2(x) = sum_y sc(theta_xy)(e_(x,y) - 1).

    Rearranged massive harmonicity of the discrete exponential; must agree
    with the quadrature for any real u_bar.  `half_angle_rays` is a list of
    (alpha_bar, beta_bar) per incident edge.
    """
    total = 0.0
    for a_bar, b_bar in half_angle_rays:
        tb = 0.5 * (b_bar - a_bar)
        factor = exponential_edge_factor(a_bar, b_bar, u_bar, modulus)
        total += sc(modulus.abstract_angle(tb), modulus) * (factor - 1.0)
    return total


def exponential_step_factor(gamma_bar, u_bar, modulus: EllipticModulus):
    """dn((u - gamma)/2 | k) / sqrt(k'), one lozenge-side step."""
    u = modulus.abstract_angle(u_bar)
    gamma = modulus.abstract_angle(gamma_bar)
    return dn(0.5 * (u - gamma), modulus) / math.sqrt(modulus.kprime)


def exponential_edge_factor(alpha_bar, beta_bar, u_bar,
                            modulus: EllipticModulus):
    """Positive edge factor of the shifted discrete massive exponential."""
    return exponential_step_factor(alpha_bar, u_bar, modulus) * \
        exponential_step_factor(beta_bar, u_bar, modulus)


def near_critical_modulus(M, delta) -> EllipticModulus:
    """Modulus of the regime q = M*delta/2."""
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
