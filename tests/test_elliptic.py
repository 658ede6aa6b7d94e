import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from massiveforests import elliptic
from massiveforests.elliptic import (
    complete_integrals,
    dn,
    exponential_edge_factor,
    exponential_step_factor,
    jacobi,
    mass_term,
    mass_value,
    mass_value_via_exponential,
    modulus_from_nome,
    near_critical_modulus,
    sc,
    verify_near_critical_asymptotics,
)


def series_K(k, n_terms=40):
    """Power series oracle: K = (pi/2) sum ((2n)!/(2^2n n!^2))^2 k^(2n)."""
    total = 0.0
    coeff = 1.0
    for n in range(n_terms):
        if n > 0:
            coeff *= (2 * n - 1) / (2 * n)
        total += coeff**2 * k ** (2 * n)
    return math.pi / 2 * total


class TestCompleteIntegrals:
    def test_k_zero(self):
        mod = complete_integrals(0.0)
        assert abs(mod.K - math.pi / 2) < 1e-15
        assert abs(mod.E - math.pi / 2) < 1e-15
        assert mod.q == 0.0

    def test_series_oracle(self):
        # 40 terms reach 1e-12 only once the tail is below it (k = 0.6);
        # at k = 0.8 the series needs more terms for the same accuracy
        mod = complete_integrals(0.6)
        assert abs(mod.K - series_K(0.6)) < 1e-12 * mod.K
        mod = complete_integrals(0.8)
        assert abs(mod.K - series_K(0.8, n_terms=200)) < 1e-12 * mod.K

    def test_legendre_relation(self):
        for k in np.arange(0.1, 0.95, 0.1):
            mod = complete_integrals(float(k))
            legendre = mod.E * mod.Kprime + mod.Eprime * mod.K \
                - mod.K * mod.Kprime
            assert abs(legendre - math.pi / 2) < 1e-12

    def test_rejects_k_ge_one(self):
        with pytest.raises(ValueError):
            complete_integrals(1.0)

    def test_scipy_cross_check(self):
        from scipy.special import ellipe, ellipk
        for k in (0.1, 0.5, 0.9):
            mod = complete_integrals(k)
            assert abs(mod.K - ellipk(k * k)) < 1e-13 * mod.K
            assert abs(mod.E - ellipe(k * k)) < 1e-13 * mod.E


class TestNome:
    def test_zero(self):
        assert modulus_from_nome(0.0).k == 0.0

    def test_round_trip(self):
        for q in (0.3, 0.05, 1e-3):
            mod = modulus_from_nome(q)
            assert abs(mod.q - q) < 1e-12

    def test_near_critical_k2_expansion(self):
        M = 1.0
        for d in (1e-2, 1e-3, 1e-4):
            mod = near_critical_modulus(M, d)
            gap = abs(mod.k**2 - (8 * M * d - 32 * M**2 * d**2))
            assert gap / d**3 < 200.0


class TestJacobi:
    def test_tan_degeneration(self):
        mod = complete_integrals(0.0)
        for tb in (0.3, 0.7, 1.2):
            assert abs(sc(tb, mod) - math.tan(tb)) < 1e-14

    def test_at_zero(self):
        mod = complete_integrals(0.6)
        v = jacobi(0.0, mod)
        assert v.sn == pytest.approx(0.0, abs=1e-15)
        assert v.dn == pytest.approx(1.0, abs=1e-15)
        assert v.cn == pytest.approx(1.0, abs=1e-15)

    @given(st.floats(-3.0, 3.0), st.floats(0.0, 0.95))
    @settings(max_examples=300, deadline=None)
    def test_pythagorean_identities(self, u, k):
        mod = complete_integrals(k)
        v = jacobi(u, mod)
        assert abs(v.sn**2 + v.cn**2 - 1.0) < 1e-12
        assert abs(v.dn**2 + k * k * v.sn**2 - 1.0) < 1e-12

    def test_scipy_cross_check(self):
        from scipy.special import ellipj
        rng = np.random.default_rng(1)
        for _ in range(100):
            u = float(rng.uniform(-4, 4))
            k = float(rng.uniform(0, 0.97))
            mod = complete_integrals(k)
            v = jacobi(u, mod)
            sn, cn, dnv, _ = ellipj(u, k * k)
            assert abs(v.sn - sn) < 1e-11
            assert abs(v.cn - cn) < 1e-11
            assert abs(v.dn - dnv) < 1e-11

    def test_pole_of_sc_flagged(self):
        mod = complete_integrals(0.5)
        v = jacobi(mod.K, mod)
        assert abs(v.cn) < 1e-12 or math.isinf(v.sc)

    def test_dn_positive_on_reals(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            u = float(rng.uniform(-20, 20))
            k = float(rng.uniform(0, 0.99))
            assert dn(u, complete_integrals(k)) > 0

    def test_landen_branch(self):
        # a nome above 1/2 needs k extremely close to 1
        mod = complete_integrals(1 - 1e-13)
        v = jacobi(0.3, mod)
        # at k ~ 1: sn ~ tanh, dn ~ sech
        assert abs(v.sn - math.tanh(0.3)) < 1e-6


class TestMass:
    def test_zero_at_critical(self):
        mod = complete_integrals(0.0)
        assert mass_value([math.pi / 4] * 4, mod) == 0.0

    def test_positive_for_positive_k(self):
        mod = complete_integrals(0.4)
        for tb in (0.2, math.pi / 4, 1.3):
            assert mass_value([tb], mod) > 0

    def test_angle_bounds(self):
        mod = complete_integrals(0.4)
        with pytest.raises(ValueError):
            mass_value([0.0], mod)
        with pytest.raises(ValueError):
            mass_value([math.pi / 2], mod)

    def test_one_quadrature_per_distinct_angle(self, monkeypatch):
        # the terms summed in list order: bit-equal to one term per entry
        mod = near_critical_modulus(1.0, 1 / 16)
        calls = []

        def counted(tb, modulus):
            calls.append(tb)
            return mass_term(tb, modulus)

        monkeypatch.setattr(elliptic, "mass_term", counted)
        for angles in ([math.pi / 4] * 4, [0.3, 0.7, 0.3, 1.1, 0.7, 0.3],
                       [1.2], [0.2, 0.9, 1.4]):
            calls.clear()
            total = sum(mass_term(tb, mod) for tb in angles)
            assert mass_value(angles, mod) == total
            assert sorted(calls) == sorted(set(angles))
            assert mass_value(iter(angles), mod) == total

    def test_cross_oracle_many_drifts(self):
        # mass_value == sc * (exponential factor - 1) for any drift
        mod = complete_integrals(0.35)
        rays = [(-math.pi / 4, math.pi / 4), (math.pi / 4, 3 * math.pi / 4),
                (3 * math.pi / 4, 5 * math.pi / 4),
                (-3 * math.pi / 4, -math.pi / 4)]
        quad = mass_value([0.5 * (b - a) for a, b in rays], mod)
        for u_bar in (0.0, 0.7, 1.9, 3.3, 5.1):
            via_exp = mass_value_via_exponential(rays, mod, u_bar)
            assert abs(quad - via_exp) < 1e-9

    def test_cross_oracle_rhombic(self):
        # a genuine vertex star: rays chain once around, 2*theta sums to 2pi
        mod = near_critical_modulus(1.0, 1e-2)
        gammas = [-0.6, 0.9, 2.2, 3.3, 4.0, 2 * math.pi - 0.6]
        rays = list(zip(gammas[:-1], gammas[1:]))
        assert all(0 < b - a < math.pi for a, b in rays)
        quad = mass_value([0.5 * (b - a) for a, b in rays], mod)
        for u_bar in (0.2, 2.5):
            assert abs(quad - mass_value_via_exponential(rays, mod, u_bar)) \
                < 1e-9


def mass_term_reference(theta_bar, k):
    """The defining integral of `mass_term` at 40 digits: (1/k') (int_0^theta
    dn^2/cn^2 + ((E - K)/K) theta) - sc(theta|k), theta = 2 K theta_bar/pi."""
    with mp.workdps(40):
        m = mp.mpf(k) ** 2
        K, E = mp.ellipk(m), mp.ellipe(m)
        theta = 2 * K * mp.mpf(theta_bar) / mp.pi
        integral = mp.quad(lambda v: mp.ellipfun("dc", v, m=m) ** 2,
                           [0, theta])
        return float((integral + (E - K) / K * theta) / mp.sqrt(1 - m)
                     - mp.ellipfun("sc", theta, m=m))


class TestMassClosedForm:
    @pytest.mark.parametrize("M", [1.0, 5.0])
    @pytest.mark.parametrize("delta", [1 / 16, 1 / 64, 1 / 96, 0.1])
    def test_against_40_digit_quadrature(self, M, delta):
        mod = near_critical_modulus(M, delta)
        angles = [0.05, 0.3, math.pi / 4, 1.2, 1.5]
        batch = mass_term(np.array(angles), mod)
        for tb, term in zip(angles, batch):
            assert mass_term(tb, mod) == term
            assert abs(term - mass_term_reference(tb, mod.k)) <= 3e-14


class TestNearCriticalRates:
    def test_ratios_bounded(self):
        rows = verify_near_critical_asymptotics(1.0, [1e-2, 1e-3, 1e-4])
        k2 = [r[1] for r in rows]
        ang = [r[2] for r in rows]
        scr = [r[3] for r in rows]
        for col in (k2, ang):
            for a, b in zip(col, col[1:]):
                # residual/delta^3 stays within a factor 4 across halvings
                assert b < 4 * max(a, 1e-6) + 1e-6 or abs(a - b) < 1.0
        for a, b in zip(scr, scr[1:]):
            assert b < 4 * max(a, 1e-6) + 1e-6

    def test_limit_ratios_one(self):
        mod = near_critical_modulus(1.0, 1e-8)
        assert abs(2 * mod.K / math.pi - 1) < 1e-6
        tb = math.pi / 4
        assert abs(sc(mod.abstract_angle(tb), mod) / math.tan(tb) - 1) < 1e-6

    def test_exponential_near_critical_form(self):
        # edge factor ~ exp(2M <e^{iu}, y-x>) with y-x = d(e^{ia}+e^{ib})
        M, d = 1.0, 1e-3
        mod = near_critical_modulus(M, d)
        a_bar, b_bar = -math.pi / 4, math.pi / 4
        u_bar = 0.9
        got = exponential_edge_factor(a_bar, b_bar, u_bar, mod)
        disp = d * (np.exp(1j * a_bar) + np.exp(1j * b_bar))
        target = math.exp(2 * M * (math.cos(u_bar) * disp.real
                                   + math.sin(u_bar) * disp.imag))
        assert abs(got - target) < 50 * d**2

    def test_step_factor_array_equals_scalar(self):
        # one array call per distinct angle gives each scalar call's float
        mod = near_critical_modulus(1.0, 0.05)
        angles = np.linspace(-2.0, 5.0, 29)
        got = exponential_step_factor(angles, 0.7, mod)
        assert got.tolist() == [exponential_step_factor(float(a), 0.7, mod)
                                for a in angles]
        assert isinstance(exponential_step_factor(0.3, 0.7, mod), float)
