"""Curvature-profile consistency tests.

Oracles: RK4 on the first-integral ODE (in second-order form u'' = P'(u)/2,
which sidesteps the sign ambiguity of u' = +-sqrt(P)), high-order finite
differences, and direct algebra on the root-coefficient relations.
"""

import math

import numpy as np
import pytest

from elastica import DomainError
from elastica import elliptic as el
from elastica import profiles as pr
from elastica.curves import PlanarElastica, Similarity, eval_k

import cubic_ode
from input_contracts import check_contract, contract_cases, finite, float_parameters, is_, mirrored, small


def fd4(f, x, h):
    # 4th-order central first derivative
    return (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)


def random_profile(rng, w_min=0.05, m_cap=0.97):
    w = rng.uniform(w_min, 1.0)
    m = rng.uniform(0.0, min(w, m_cap))
    A = rng.uniform(0.3, 2.5)
    s0 = rng.uniform(-2.0, 2.0)
    return pr.CurvatureProfile(m, w, A, s0)


class TestProfileType:
    def test_validation(self):
        with pytest.raises(DomainError):
            pr.CurvatureProfile(0.7, 0.5, 1.0)  # m > w
        with pytest.raises(DomainError):
            pr.CurvatureProfile(-0.1, 0.5, 1.0)
        with pytest.raises(DomainError):
            pr.CurvatureProfile(0.0, 0.0, 1.0)  # w = 0
        with pytest.raises(DomainError):
            pr.CurvatureProfile(0.2, 0.6, 0.0)  # A = 0
        with pytest.raises(DomainError):
            pr.CurvatureProfile(0.2, 1.2, 1.0)  # w > 1
        pr.CurvatureProfile(1.0, 1.0, 2.0)  # soliton corner is admissible

    @pytest.mark.parametrize("A", [1e60, 6e51, 1e-60, 1e-55])
    def test_amplitude_whose_sixth_power_leaves_the_floats(self, A):
        # A**6 overflows (a bare OverflowError from profile_c) or underflows
        # (a spatial profile read as planar, c = 0): both are input errors
        with pytest.raises(DomainError):
            pr.profile_c(pr.CurvatureProfile(0.3, 0.8, A))

    @pytest.mark.parametrize("w", [1e-200, 1e-160])
    def test_w_whose_square_is_not_a_normal_float(self, w):
        # w**2 underflows to 0 (a bare ZeroDivisionError from profile_c) or
        # to a subnormal (c off by 6e-7 relative): both are input errors
        with pytest.raises(DomainError):
            pr.profile_c(pr.CurvatureProfile(0.0, w, 1.0))

    @pytest.mark.parametrize("A", [2e51, 1e-51])
    def test_amplitude_inside_the_floats(self, A):
        p = pr.CurvatureProfile(0.3, 0.8, A)
        assert 0.0 < pr.profile_c(p) < math.inf
        assert pr.profile_c(p) / pr.kappa_sq(p, 0.0) > 0.0  # the torsion c / kappa^2


class TestLambdaAndC:
    @pytest.mark.parametrize("m", [0.2, 0.5, 0.826])
    def test_wavelike_multiplier(self, m):
        # unit frequency wavelike: (m, w, A) = (m, m, 2 sqrt(m))
        p = pr.CurvatureProfile(m, m, 2.0 * math.sqrt(m))
        assert pr.profile_lambda(p) == pytest.approx(2.0 * (2.0 * m - 1.0), abs=1e-14)

    def test_circular_multiplier(self):
        assert pr.profile_lambda(pr.CurvatureProfile(0.0, 1.0, 1.0)) == pytest.approx(1.0)

    def test_orbitlike_multiplier(self):
        p = pr.CurvatureProfile(0.3, 1.0, 2.0)
        assert pr.profile_lambda(p) == pytest.approx(2.0 * (2.0 - 0.3), abs=1e-14)
        assert pr.profile_lambda(p) == pytest.approx(3.4)

    def test_c_vanishes_planar(self):
        assert pr.profile_c(pr.CurvatureProfile(0.4, 1.0, 1.7)) == 0.0
        assert pr.profile_c(pr.CurvatureProfile(0.4, 0.4, 1.7)) == 0.0

    def test_c_spatial(self):
        m, w, A = 0.2, 0.6, 1.5
        expect = math.sqrt(A**6 * (1 - w) * (w - m) / (4 * w**2))
        assert pr.profile_c(pr.CurvatureProfile(m, w, A)) == pytest.approx(expect, rel=1e-15)

    def test_root_coefficient_relations(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            p = random_profile(rng)
            a1, a2, a3 = pr.cubic_roots(p)
            assert a1 <= 0.0 <= a2 <= a3
            lam, a, c_sq = pr.first_integral_coeffs(p)
            assert lam == pytest.approx(pr.profile_lambda(p), rel=1e-12, abs=1e-12)
            assert c_sq == pytest.approx(pr.profile_c(p) ** 2, rel=1e-12, abs=1e-14)


class TestKappaSq:
    def test_constant_when_m_zero(self):
        p = pr.CurvatureProfile(0.0, 0.7, 1.3)
        s = np.linspace(-5, 5, 11)
        assert np.allclose(pr.kappa_sq(p, s), 1.3**2, atol=0, rtol=0)

    def test_wavelike_reduction(self):
        m, A = 0.6, 1.4
        p = pr.CurvatureProfile(m, m, A, s0=0.3)
        s = np.linspace(0, 8, 50)
        arg = A / (2 * math.sqrt(m)) * s + 0.3
        assert np.allclose(pr.kappa_sq(p, s), A**2 * el.cn(arg, m) ** 2, atol=1e-12)

    def test_orbitlike_reduction(self):
        m, A = 0.45, 2.2
        p = pr.CurvatureProfile(m, 1.0, A, s0=-0.2)
        s = np.linspace(0, 8, 50)
        arg = A / 2 * s - 0.2
        assert np.allclose(pr.kappa_sq(p, s), A**2 * el.dn(arg, m) ** 2, atol=1e-12)

    def test_range_attained(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            p = random_profile(rng)
            if p.m == 0.0:
                continue
            a1, a2, a3 = pr.cubic_roots(p)
            s = np.linspace(0, pr.profile_period(p), 2001)
            u = pr.kappa_sq(p, s)
            assert np.all(u >= a2 - 1e-10) and np.all(u <= a3 + 1e-10)
            assert u.max() == pytest.approx(a3, abs=1e-5 * max(1, a3))
            assert u.min() == pytest.approx(a2, abs=1e-5 * max(1, a3))

    def test_matches_cubic_solution(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            p = random_profile(rng)
            if p.m == p.w:  # a2 == a3 handled by the constant branch
                continue
            u = cubic_ode.solve_cubic_ode(*pr.cubic_roots(p), s0=p.s0)
            s = rng.uniform(-10, 10, 40)
            assert np.allclose(u(s), pr.kappa_sq(p, s), atol=1e-11, rtol=1e-11)


class TestCubicODE:
    def test_ordering_rejected(self):
        with pytest.raises(DomainError):
            cubic_ode.solve_cubic_ode(0.5, 1.0, 2.0)  # a1 > 0
        with pytest.raises(DomainError):
            cubic_ode.solve_cubic_ode(-1.0, 1.0, 1.0)  # a2 == a3
        with pytest.raises(DomainError):
            cubic_ode.solve_cubic_ode(-1.0, 2.0, 1.0)

    def test_constant_branch(self):
        lo, hi = cubic_ode.cubic_constant_solutions(-1.0, 0.5, 2.0)

        def P(u):
            return (-1.0 - u) * (0.5 - u) * (2.0 - u)

        assert lo(3.3) == 0.5 and hi(0.0) == 2.0
        assert P(lo(0.0)) == pytest.approx(0.0, abs=1e-14)
        assert P(hi(0.0)) == pytest.approx(0.0, abs=1e-14)

    def test_against_rk4_oracle(self):
        # (u')^2 = P(u) from u(0) = a3: integrate u'' = P'(u)/2, u'(0) = 0
        u = cubic_ode.solve_cubic_ode(-1.0, 0.0, 1.0)

        def rhs(y):
            uu, v = y
            return np.array([v, 0.5 * (1.0 - 3.0 * uu * uu)])

        h = 1e-4
        y = np.array([1.0, 0.0])
        worst = 0.0
        for i in range(20000):
            k1 = rhs(y)
            k2 = rhs(y + 0.5 * h * k1)
            k3 = rhs(y + 0.5 * h * k2)
            k4 = rhs(y + h * k3)
            y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            if i % 200 == 0:
                worst = max(worst, abs(y[0] - u((i + 1) * h)))
        assert worst < 1e-8

    def test_residual_random_roots(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            a1 = -rng.uniform(0.2, 1.5)
            a2 = rng.uniform(0.0, 0.8)
            a3 = a2 + rng.uniform(0.3, 1.2)
            u = cubic_ode.solve_cubic_ode(a1, a2, a3, s0=rng.uniform(-1, 1))
            s = rng.uniform(-5, 5, 100)
            du = fd4(u, s, 1e-3)
            P = (a1 - u(s)) * (a2 - u(s)) * (a3 - u(s))
            assert np.max(np.abs(du**2 - P)) < 1e-10


class TestPlanarFamilies:
    # the signed planar curvature lives in curves; a similarity of scale
    # 1/alpha gives k = +-A cn/sech/dn(alpha s) with A the peak
    def test_linear(self):
        assert eval_k(PlanarElastica("linear"), 3.7) == 0.0

    def test_borderline_peak(self):
        assert eval_k(PlanarElastica("borderline"), 0.0) == pytest.approx(2.0)

    def test_orbitlike_peak(self):
        assert eval_k(PlanarElastica("orbitlike", m=0.5), 0.0) == pytest.approx(2.0)

    def test_wavelike_frequency_relation(self):
        m, alpha = 0.7, 1.3
        e = PlanarElastica("wavelike", m=m, similarity=Similarity(scale=1.0 / alpha))
        A = eval_k(e, 0.0)
        assert A**2 == pytest.approx(4 * alpha**2 * m, rel=1e-14)

    def test_sign_reflects(self):
        s = np.linspace(0, 3, 7)
        up = PlanarElastica("wavelike", m=0.4)
        dn_ = PlanarElastica("wavelike", m=0.4, similarity=Similarity(reflect=True))
        assert np.allclose(eval_k(up, s), -eval_k(dn_, s), atol=0)

    @pytest.mark.parametrize("family, m, w, A", [
        ("wavelike", 0.3, 0.3, 0.8),
        ("wavelike", 0.826, 0.826, 2.2),
        ("orbitlike", 0.5, 1.0, 1.7),
        ("borderline", 1.0, 1.0, 1.4),
        ("circular", 0.0, 1.0, 0.9),
    ])
    def test_square_is_the_unified_profile(self, family, m, w, A):
        # the planar corners (m, m, A), (m, 1, A), (1, 1, A), (0, 1, A) of
        # the unified profile square to the signed curvature of the family
        # at frequency alpha = A / (2 sqrt(w)), or A for the circle
        alpha = A if family == "circular" else A / (2.0 * math.sqrt(w))
        e = PlanarElastica(family, m=m if family in ("wavelike", "orbitlike") else None,
                           similarity=Similarity(scale=1.0 / alpha))
        s = np.linspace(-6.0, 9.0, 61)
        assert np.max(np.abs(eval_k(e, s) ** 2 - pr.kappa_sq(pr.CurvatureProfile(m, w, A), s))) < 1e-12


class TestResiduals:
    def test_wavelike(self):
        m = 0.7
        e = PlanarElastica("wavelike", m=m)  # A = 2 sqrt(m), unit frequency
        lam = 2 * (2 * m - 1)
        s = np.linspace(-3, 8, 60)
        res = pr.residual_planar(lambda x: eval_k(e, x), lam, s)
        assert np.max(np.abs(res)) < 1e-5

    def test_borderline(self):
        e = PlanarElastica("borderline")  # A = 2, unit frequency
        s = np.linspace(-4, 4, 40)
        res = pr.residual_planar(lambda x: eval_k(e, x), 2.0, s)
        assert np.max(np.abs(res)) < 1e-5

    def test_circular_exact(self):
        lam = 2.0
        res = pr.residual_planar(lambda s: np.sqrt(lam) * np.ones_like(np.asarray(s, float)), lam, 0.7)
        assert res == pytest.approx(0.0, abs=1e-12)

    def test_spatial_planar_limit(self):
        m = 0.4
        # peak A = 1.1 at frequency alpha = A / (2 sqrt(m))
        e = PlanarElastica("wavelike", m=m, similarity=Similarity(scale=2 * math.sqrt(m) / 1.1))
        lam = pr.profile_lambda(pr.CurvatureProfile(m, m, 1.1))
        k = lambda x: eval_k(e, x) + 3.0  # offset keeps k away from 0
        s = np.array([0.3, 1.1])
        # with c = 0 the spatial residual is identically the planar one
        assert np.allclose(
            pr.residual_spatial(k, lam, 0.0, s),
            pr.residual_planar(k, lam, s),
            atol=0,
        )

    def test_spatial_profile(self):
        p = pr.CurvatureProfile(0.2, 0.6, 1.5)
        lam, c = pr.profile_lambda(p), pr.profile_c(p)
        k = lambda s: np.sqrt(pr.kappa_sq(p, s))
        s = np.linspace(-5, 5, 80)
        res = pr.residual_spatial(k, lam, c, s)
        assert np.max(np.abs(res)) < 1e-5

    def test_spatial_constant_algebraic(self):
        p = pr.CurvatureProfile(0.0, 0.55, 1.2)
        lam, c = pr.profile_lambda(p), pr.profile_c(p)
        A = p.A
        res = A**3 - lam * A - 2 * c * c / A**3
        assert res == pytest.approx(0.0, abs=1e-12)

    def test_first_integral_random_profiles(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            p = random_profile(rng)
            s = rng.uniform(-10, 10, 20)
            res = pr.residual_first_integral(p, s)
            scale = max(1.0, p.A**6)
            assert np.max(np.abs(res)) < 1e-8 * scale


class TestUniqueness:
    def test_distinct_parameters_distinct_invariants(self):
        seen = set()
        count = 0
        for m_frac in (0.0, 0.3, 0.8):
            for w in (0.25, 0.6, 1.0):
                for A in (0.5, 1.0, 2.0):
                    p = pr.CurvatureProfile(m_frac * w, w, A)
                    key = (
                        round(pr.profile_lambda(p), 10),
                        round(pr.profile_c(p), 10),
                        round(max(pr.cubic_roots(p)), 10),
                    )
                    seen.add(key)
                    count += 1
        assert len(seen) == count


SPATIAL = pr.CurvatureProfile(0.3, 0.8, 1.5)
PLANAR = pr.CurvatureProfile(0.5, 1.0, 1.2)  # k = A dn(A s / 2, m)
CONSTANT = pr.CurvatureProfile(0.0, 0.8, 1.5)  # kappa_sq = A^2 without an sn call


def k_planar(s):
    return np.sqrt(pr.kappa_sq(PLANAR, s))


def k_spatial(s):
    return np.sqrt(pr.kappa_sq(SPATIAL, s))


def solution_at(s, expected):
    return lambda u, call: np.testing.assert_allclose(u(s), expected, rtol=1e-14)


def constants_are(a2, a3):
    return lambda us, call: np.testing.assert_allclose((us[0](0.3), us[1](0.3)), (a2, a3))


LAM_P, LAM_S, C_S = pr.profile_lambda(PLANAR), pr.profile_lambda(SPATIAL), pr.profile_c(SPATIAL)
# every float parameter of profiles.__all__ and of the cubic_ode helpers;
# u(0) = a3 when the phase is 0
FLOAT_CONTRACTS = {
    ("CurvatureProfile", "m"): (lambda v: pr.kappa_sq(pr.CurvatureProfile(v, 0.8, 1.5), 0.7),
                                {0.0: is_(2.25)}),
    ("CurvatureProfile", "w"): (lambda v: pr.CurvatureProfile(0.3, v, 1.5), {}),
    ("CurvatureProfile", "A"): (lambda v: pr.CurvatureProfile(0.3, 0.8, v), {}),
    ("CurvatureProfile", "s0"): (lambda v: pr.kappa_sq(pr.CurvatureProfile(0.3, 0.8, 1.5, v), 0.0), {
        0.0: is_(2.25), -1.0: is_(2.25 * (1.0 - 0.375 * el.sn(-1.0, 0.3) ** 2)),
    }),
    ("kappa_sq", "s"): (lambda v: pr.kappa_sq(CONSTANT, v), {0.0: is_(2.25), -1.0: is_(2.25)}),
    ("solve_cubic_ode", "a1"): (lambda v: cubic_ode.solve_cubic_ode(v, 0.5, 2.0),
                                {0.0: solution_at(0.0, 2.0), -1.0: solution_at(0.0, 2.0)}),
    ("solve_cubic_ode", "a2"): (lambda v: cubic_ode.solve_cubic_ode(-1.0, v, 2.0), {0.0: solution_at(0.0, 2.0)}),
    ("solve_cubic_ode", "a3"): (lambda v: cubic_ode.solve_cubic_ode(-1.0, 0.5, v), {}),
    ("solve_cubic_ode", "s0"): (lambda v: cubic_ode.solve_cubic_ode(-1.0, 0.5, 2.0, v), {
        0.0: solution_at(0.0, 2.0), -1.0: solution_at(0.0, 2.0 - 1.5 * el.sn(-1.0, 0.5) ** 2),
    }),
    ("cubic_constant_solutions", "a1"): (lambda v: cubic_ode.cubic_constant_solutions(v, 0.5, 2.0),
                                         {0.0: constants_are(0.5, 2.0), -1.0: constants_are(0.5, 2.0)}),
    ("cubic_constant_solutions", "a2"): (lambda v: cubic_ode.cubic_constant_solutions(-1.0, v, 2.0),
                                         {0.0: constants_are(0.0, 2.0)}),
    ("cubic_constant_solutions", "a3"): (lambda v: cubic_ode.cubic_constant_solutions(-1.0, 0.5, v), {}),
    # a wrong lambda gives a finite, nonzero residual
    ("residual_planar", "lam"): (lambda v: pr.residual_planar(k_planar, v, 0.3), {0.0: finite, -1.0: finite}),
    ("residual_planar", "s"): (lambda v: pr.residual_planar(k_planar, LAM_P, v),
                               {0.0: small(1e-6), -1.0: small(1e-6)}),
    ("residual_spatial", "lam"): (lambda v: pr.residual_spatial(k_spatial, v, C_S, 0.3),
                                  {0.0: finite, -1.0: finite}),
    # c enters squared; c = 0 is the planar residual
    ("residual_spatial", "c"): (lambda v: pr.residual_spatial(k_spatial, LAM_S, v, 0.3), {
        0.0: is_(pr.residual_planar(k_spatial, LAM_S, 0.3)), -1.0: mirrored(1),
    }),
    ("residual_spatial", "s"): (lambda v: pr.residual_spatial(k_spatial, LAM_S, C_S, v),
                                {0.0: small(1e-6), -1.0: small(1e-6)}),
    ("residual_first_integral", "s"): (lambda v: pr.residual_first_integral(SPATIAL, v),
                                       {0.0: small(1e-6), -1.0: small(1e-6)}),
}


class TestInputContracts:
    def test_table_covers_every_float_parameter(self):
        assert float_parameters(pr) | float_parameters(cubic_ode) == set(FLOAT_CONTRACTS)

    @contract_cases(FLOAT_CONTRACTS)
    def test_float_parameter(self, key, value):
        check_contract(FLOAT_CONTRACTS, key, value)
