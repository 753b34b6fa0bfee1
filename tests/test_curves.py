"""Planar families, figure-eight constants, leafed constructions, classifier."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import default_rng

import elastica.curves as curves
from elastica.curves import (
    ClassifyResult,
    Leaf,
    PlanarElastica,
    Similarity,
    build_leafed,
    canonical_leaf,
    classify_closed,
    eval_k,
    eval_planar,
    eval_theta,
    figure_eight_modulus,
    leaf_spread_angle,
    planar_state,
    reconstruct_spatial,
    sample_leafed,
    spherical_chain,
    varpi_star,
)
from elastica.discrete import (
    DiscreteCurve,
    bending_energy,
    curvature_data,
    detect_multiplicity,
    length,
    liyau_check,
    normalized_energy,
    total_curvature,
)
from elastica.elliptic import comp_E, comp_K
from elastica.errors import DomainError, InfeasibleError
from elastica.profiles import CurvatureProfile, kappa_sq, profile_c, profile_period

import curve_helpers
from arclength_resample import resample_arclength
from curve_helpers import build_leaf, check_closure
from input_contracts import check_contract, check_scalar, contract_cases, float_parameters, is_, mirrored

# oracle values (bisection + Newton on 2E-K; entire downstream chain hangs
# off these, so they are frozen here as well as recomputed)
M_STAR = 0.8261147659849704
VARPI = 28.109902435330344
PSI = 1.7205486934982916

ALL_FAMILIES = [
    PlanarElastica("linear"),
    PlanarElastica("wavelike", 0.7),
    PlanarElastica("borderline"),
    PlanarElastica("orbitlike", 0.4),
    PlanarElastica("circular"),
]


class TestFigureEightModulus:
    def test_defining_residual(self):
        m = figure_eight_modulus()
        assert abs(2 * comp_E(m) - comp_K(m)) < 1e-13

    def test_value(self):
        m = figure_eight_modulus()
        assert 0.82 < m < 0.83
        assert m == pytest.approx(M_STAR, abs=1e-12)

    def test_bracket_signs(self):
        assert 2 * comp_E(0.5) - comp_K(0.5) > 0
        assert 2 * comp_E(0.95) - comp_K(0.95) < 0

    def test_least_float_past_the_root(self):
        # the bisection runs until its bracket closes: m* is the least float
        # at which 2E - K <= 0, so one float lower 2E - K is still positive
        m = figure_eight_modulus()
        assert 2 * comp_E(m) - comp_K(m) <= 0
        below = float(np.nextafter(m, 0.0))
        assert 2 * comp_E(below) - comp_K(below) > 0

    def test_cached(self):
        assert figure_eight_modulus() is figure_eight_modulus()


class TestVarpiStar:
    def test_prints_as_28_109(self):
        # leading digits, not round-to-nearest: the value is 28.1099...
        assert f"{varpi_star():.4f}".startswith("28.109")
        assert varpi_star() == pytest.approx(VARPI, abs=1e-9)

    def test_composition(self):
        m = figure_eight_modulus()
        assert varpi_star() == 32.0 * (2.0 * m - 1.0) * comp_E(m) ** 2

    def test_leaf_energy_agrees(self):
        rep = normalized_energy(build_leaf(20000))
        assert rep.Bbar == pytest.approx(varpi_star(), rel=1e-4)


class TestLeafSpreadAngle:
    def test_value(self):
        psi = leaf_spread_angle()
        assert psi == pytest.approx(2 * math.pi - 4 * math.asin(math.sqrt(M_STAR)), rel=1e-15)
        assert psi == pytest.approx(PSI, abs=1e-12)

    def test_matches_sampled_tangents(self):
        c = build_leaf(8192).vertices
        t0 = (c[1] - c[0]) / np.linalg.norm(c[1] - c[0])
        t1 = (c[-1] - c[-2]) / np.linalg.norm(c[-1] - c[-2])
        assert math.acos(float(np.dot(t0, t1))) == pytest.approx(leaf_spread_angle(), abs=1e-6)

    def test_cos_identity(self):
        assert math.cos(leaf_spread_angle()) == pytest.approx(
            math.cos(4 * math.asin(math.sqrt(M_STAR))), rel=1e-15
        )

    def test_acute_crossing(self):
        assert math.degrees(math.pi - leaf_spread_angle()) == pytest.approx(81.42, abs=0.01)


class TestClosure:
    def test_wavelike_at_mstar(self):
        assert check_closure("wavelike", figure_eight_modulus())

    def test_wavelike_generic(self):
        assert not check_closure("wavelike", 0.5)

    def test_orbitlike_never(self):
        for m in np.arange(0.1, 0.95, 0.1):
            assert not check_closure("orbitlike", float(m))

    def test_domain(self):
        with pytest.raises(DomainError):
            check_closure("circular", 0.5)
        with pytest.raises(DomainError):
            check_closure("wavelike", 1.0)


class TestEvalPlanar:
    def test_borderline_origin(self):
        assert eval_planar(PlanarElastica("borderline"), 0.0) == pytest.approx((0.0, -2.0))

    @pytest.mark.parametrize("s", [800.0, -800.0])
    def test_borderline_past_cosh_overflow(self, s):
        # far from the loop the borderline curve is a straight line: sech -> 0
        # without a RuntimeWarning, where cosh(s) overflows
        sim = Similarity(rotation=0.3)
        e = PlanarElastica("borderline", similarity=sim)
        assert eval_k(e, s) == 0.0
        x, y = eval_planar(e, s)
        assert (x, y) == sim.apply(2.0 * math.tanh(s) - s, 0.0)
        gamma, d1, d2, d3 = planar_state(e, s)
        assert np.array_equal(gamma, [x, y])
        th = 0.3 + math.copysign(math.pi, s)
        assert np.allclose(d1, [math.cos(th), math.sin(th)], rtol=0, atol=1e-15)
        assert not np.any(d2) and not np.any(d3)

    def test_circular_quarter(self):
        assert eval_planar(PlanarElastica("circular"), math.pi / 2) == pytest.approx((1.0, 0.0))

    def test_wavelike_origin(self):
        m = 0.3
        x, y = eval_planar(PlanarElastica("wavelike", m), 0.0)
        assert (x, y) == pytest.approx((0.0, -2 * math.sqrt(m)), abs=1e-15)

    @pytest.mark.parametrize("m", [1e-300, 1e-20, 1e-12, 1e-8, 1e-4, 0.3, 0.7, 0.99])
    def test_orbitlike_against_mpmath(self, m):
        # the pose is (s - 2 int_0^s sn^2, 2 sn^2 / (1 + dn)), the paper's
        # (2 eps + (m - 2) s, -2 dn) / m moved by (0, 2/m); the reference
        # integrates sn^2 by quadrature at 25 digits, so no 1/m cancels there
        mpmath = pytest.importorskip("mpmath")
        s = np.linspace(0.0, 12.0, 49)
        ref = [(0.0, 0.0)]
        with mpmath.workdps(25):
            mm = mpmath.mpf(m)
            sn = lambda v: mpmath.ellipfun("sn", v, m=mm)
            area = mpmath.mpf(0)
            for a, b in zip(s[:-1], s[1:]):
                area += mpmath.quad(lambda v: sn(v) ** 2, [a, b], method="gauss-legendre")
                q, d = sn(b), mpmath.ellipfun("dn", b, m=mm)
                ref.append((float(b - 2 * area), float(2 * q * q / (1 + d))))
        ref = np.array(ref)
        diameter = np.max(np.linalg.norm(ref[:, None] - ref[None], axis=2))
        got = np.column_stack(eval_planar(PlanarElastica("orbitlike", m), s))
        assert np.max(np.abs(got - ref)) <= 1e-13 * diameter

    def test_orbitlike_state_at_tiny_m(self):
        # at m = 1e-300 the orbitlike curve is the circle of radius 1/2
        # (sin 2s / 2, sin^2 s) to 1e-15, and its state is finite
        s = 0.7
        gamma, d1, d2, d3 = planar_state(PlanarElastica("orbitlike", 1e-300), s)
        assert np.all(np.isfinite(np.concatenate([gamma, d1, d2, d3])))
        assert np.allclose(gamma, [math.sin(2 * s) / 2, math.sin(s) ** 2], rtol=0, atol=1e-15)
        assert np.allclose(d1, [math.cos(2 * s), math.sin(2 * s)], rtol=0, atol=1e-15)
        assert np.allclose(d2, 2.0 * np.array([-math.sin(2 * s), math.cos(2 * s)]), rtol=0,
                           atol=1e-15)

    def test_theta_borderline(self):
        e = PlanarElastica("borderline")
        assert eval_theta(e, 0.0) == 0.0
        assert eval_theta(e, 40.0) == pytest.approx(math.pi, abs=1e-9)
        assert eval_theta(e, -40.0) == pytest.approx(-math.pi, abs=1e-9)

    def test_theta_orbitlike_winding(self):
        m, s = 0.4, 0.3
        e = PlanarElastica("orbitlike", m)
        K = comp_K(m)
        assert eval_theta(e, s + 2 * K) == pytest.approx(eval_theta(e, s) + 2 * math.pi, rel=1e-12)

    def test_wavelike_curvature_zero_at_K(self):
        m = 0.77
        assert abs(eval_k(PlanarElastica("wavelike", m), comp_K(m))) < 1e-12

    def test_curvature_periodicity(self):
        m = 0.6
        K = comp_K(m)
        w = PlanarElastica("wavelike", m)
        o = PlanarElastica("orbitlike", m)
        for s in np.linspace(-3, 3, 11):
            assert eval_k(w, s + 2 * K) == pytest.approx(-eval_k(w, s), abs=1e-12)
            assert eval_k(o, s + 2 * K) == pytest.approx(eval_k(o, s), abs=1e-12)

    @pytest.mark.parametrize("family, m", [("wavelike", 0.6), ("orbitlike", 0.9), ("circular", None)])
    @pytest.mark.parametrize("sim", [Similarity(), Similarity(rotation=0.4, scale=2.7, reflect=True)])
    def test_period(self, family, m, sim):
        e = PlanarElastica(family, m, similarity=sim, s0=0.3)
        s = np.linspace(-4.0, 5.0, 37)
        k = eval_k(e, s)
        assert np.max(np.abs(eval_k(e, s + e.period) - k)) < 1e-12
        if family == "circular":  # constant curvature: the curve itself closes
            assert np.allclose(eval_planar(e, s + e.period), eval_planar(e, s), rtol=0, atol=1e-12)
        else:  # and half the period does not repeat it
            assert np.max(np.abs(eval_k(e, s + 0.5 * e.period) - k)) > 1e-3

    def test_aperiodic_families(self):
        assert PlanarElastica("linear").period == math.inf
        assert PlanarElastica("borderline", similarity=Similarity(scale=3.0)).period == math.inf

    def test_validation(self):
        with pytest.raises(DomainError):
            PlanarElastica("helical")
        with pytest.raises(DomainError):
            PlanarElastica("wavelike")  # needs m
        with pytest.raises(DomainError):
            PlanarElastica("circular", 0.5)  # takes no m
        with pytest.raises(DomainError):
            PlanarElastica("linear", similarity=Similarity(scale=-1.0))


class TestDerivativeConsistency:
    # d/ds gamma = (cos theta, sin theta) and d/ds theta = k, every family,
    # including a nontrivial similarity
    SIM = Similarity(rotation=0.6, translation=(1.0, -2.0), scale=1.7, reflect=True)

    @pytest.mark.parametrize("base", ALL_FAMILIES, ids=lambda e: e.family)
    def test_tangent_and_curvature(self, base):
        e = PlanarElastica(base.family, base.m, self.SIM, s0=0.2)
        h = 1e-5
        for s in np.linspace(-2.0, 2.0, 9):
            x0, y0 = eval_planar(e, s - h)
            x1, y1 = eval_planar(e, s + h)
            th = eval_theta(e, s)
            assert (x1 - x0) / (2 * h) == pytest.approx(math.cos(th), abs=1e-6)
            assert (y1 - y0) / (2 * h) == pytest.approx(math.sin(th), abs=1e-6)
            dth = (eval_theta(e, s + h) - eval_theta(e, s - h)) / (2 * h)
            assert dth == pytest.approx(eval_k(e, s), rel=1e-6, abs=1e-8)

    def test_planar_state_consistent(self):
        e = PlanarElastica("wavelike", 0.7, self.SIM, s0=-0.1)
        g, d1, d2, d3 = planar_state(e, 0.37)
        assert np.linalg.norm(d1) == pytest.approx(1.0, rel=1e-14)
        assert abs(float(np.dot(d1, d2))) < 1e-14
        assert np.linalg.norm(d2) == pytest.approx(abs(eval_k(e, 0.37)), rel=1e-12)
        h = 1e-5
        _, _, d2a, _ = planar_state(e, 0.37 - h)
        _, _, d2b, _ = planar_state(e, 0.37 + h)
        assert np.allclose((d2b - d2a) / (2 * h), d3, atol=1e-6)

    def test_planar_state_of_a_circle(self):
        # radius 2, turned by 0.3 and reflected: k = -1/2 and k' = 0, so
        # d3 = -k^2 d1 and the state starts the circle ODE
        e = PlanarElastica("circular", similarity=Similarity(0.3, (1.0, -1.0), 2.0, True), s0=0.2)
        s = 0.9
        g, d1, d2, d3 = planar_state(e, s)
        th = eval_theta(e, s)
        assert np.array_equal(g, eval_planar(e, s))
        assert np.array_equal(d1, [math.cos(th), math.sin(th)])
        assert np.array_equal(d2, -0.5 * np.array([-math.sin(th), math.cos(th)]))
        assert np.array_equal(d3, -0.25 * d1)
        assert np.allclose(np.linalg.norm(g - (1.0, -1.0)), 2.0, rtol=1e-15)

    def test_planar_state_of_a_line(self):
        e = PlanarElastica("linear", similarity=Similarity(rotation=0.5, scale=3.0))
        g, d1, d2, d3 = planar_state(e, 2.0)
        assert np.allclose(g, 2.0 * np.array([math.cos(0.5), math.sin(0.5)]), rtol=0, atol=1e-15)
        assert np.array_equal(d1, [math.cos(0.5), math.sin(0.5)])
        assert not np.any(d2) and not np.any(d3)


class TestQuasiPeriodicity:
    def test_wavelike(self):
        m = 0.65
        K, E = comp_K(m), comp_E(m)
        e = PlanarElastica("wavelike", m)
        shift = np.array([4 * (2 * E - K), 0.0])
        for s in np.linspace(-2, 2, 7):
            p0 = np.array(eval_planar(e, s))
            p1 = np.array(eval_planar(e, s + 4 * K))
            assert np.linalg.norm(p1 - p0 - shift) < 1e-10

    def test_orbitlike(self):
        m = 0.37
        K, E = comp_K(m), comp_E(m)
        e = PlanarElastica("orbitlike", m)
        shift = np.array([(2 / m) * (2 * E + (m - 2) * K), 0.0])
        for s in np.linspace(-2, 2, 7):
            p0 = np.array(eval_planar(e, s))
            p1 = np.array(eval_planar(e, s + 2 * K))
            assert np.linalg.norm(p1 - p0 - shift) < 1e-10


class TestLeaf:
    def test_endpoints_coincide(self):
        leaf = canonical_leaf()
        p0 = np.array(eval_planar(leaf.elastica, 0.0))
        p1 = np.array(eval_planar(leaf.elastica, leaf.length))
        assert np.linalg.norm(p1 - p0) < 1e-9
        assert np.linalg.norm(p0) < 1e-12  # junction sits at the origin

    def test_endpoint_curvature(self):
        leaf = canonical_leaf()
        assert abs(eval_k(leaf.elastica, 0.0)) < 1e-12
        assert abs(eval_k(leaf.elastica, leaf.length)) < 1e-12

    def test_peak_curvature(self):
        leaf = canonical_leaf()
        assert eval_k(leaf.elastica, leaf.K) == pytest.approx(2 * math.sqrt(M_STAR), rel=1e-13)

    def test_build_leaf(self):
        c = build_leaf(500)
        assert not c.closed and c.n_vertices == 501
        assert np.linalg.norm(c.vertices[-1] - c.vertices[0]) < 1e-9
        with pytest.raises(DomainError):
            build_leaf(1)

    def test_tangent_angles(self):
        leaf = canonical_leaf()
        a = 2 * math.asin(math.sqrt(M_STAR))
        assert eval_theta(leaf.elastica, 0.0) == pytest.approx(-a, rel=1e-12)
        assert eval_theta(leaf.elastica, leaf.length) == pytest.approx(a, rel=1e-12)


class TestSphericalChain:
    def test_pair(self):
        u = spherical_chain(2, 1.1)
        assert np.allclose(np.linalg.norm(u, axis=1), 1.0, atol=1e-14)
        assert math.acos(float(np.dot(u[0], u[1]))) == pytest.approx(1.1, rel=1e-12)

    def test_triple_closed_form(self):
        psi = leaf_spread_angle()
        u = spherical_chain(3, psi)
        for i in range(3):
            dot = float(np.dot(u[i], u[(i + 1) % 3]))
            assert math.acos(dot) == pytest.approx(psi, abs=1e-12)

    def test_triple_gram_boundary(self):
        # 1 + 2 cos psi >= 0 is the feasibility edge
        spherical_chain(3, 2 * math.pi / 3 - 1e-3)
        with pytest.raises(InfeasibleError):
            spherical_chain(3, 0.9 * math.pi)

    @pytest.mark.parametrize("r", [4, 5, 6, 7])
    def test_larger_chains(self, r):
        psi = leaf_spread_angle()
        u = spherical_chain(r, psi)
        assert u.shape == (r, 3)
        assert np.allclose(np.linalg.norm(u, axis=1), 1.0, atol=1e-12)
        for i in range(r):
            assert math.acos(float(np.dot(u[i], u[(i + 1) % r]))) == pytest.approx(
                psi, abs=1e-9
            )

    @pytest.mark.parametrize("r", range(3, 13))
    def test_cone_or_infeasible(self, r):
        # odd r has no closed chain above pi - pi/r; the cone covers the rest
        bound = math.pi - math.pi / r
        for psi in np.linspace(0.05, math.pi - 0.01, 97):
            if abs(psi - bound) < 1e-9:
                continue
            if r % 2 and psi > bound:
                with pytest.raises(InfeasibleError):
                    spherical_chain(r, psi)
                continue
            u = spherical_chain(r, psi)
            v = np.roll(u, -1, axis=0)
            assert u.shape == (r, 3)
            assert np.max(np.abs(np.linalg.norm(u, axis=1) - 1.0)) < 1e-15
            angle = np.arctan2(np.linalg.norm(np.cross(u, v), axis=1), np.einsum("ij,ij->i", u, v))
            assert np.max(np.abs(angle - psi)) < 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            spherical_chain(1, 1.0)
        with pytest.raises(DomainError):
            spherical_chain(3, 0.0)
        with pytest.raises(DomainError):
            spherical_chain(3, math.pi)


def junction_checks(le):
    leaf = canonical_leaf()
    a = 2 * math.asin(math.sqrt(figure_eight_modulus()))
    ts = np.array([math.cos(a), -math.sin(a), 0.0][: le.dim])
    te = np.array([math.cos(a), math.sin(a), 0.0][: le.dim])
    ends = []
    assert le.rotations.shape == (le.r, le.dim, le.dim)
    assert not le.rotations.flags.writeable and not le.chain.flags.writeable
    for i, R in enumerate(le.rotations):
        assert np.allclose(R.T @ R, np.eye(le.dim), atol=1e-12)
        for s in (0.0, leaf.length):
            p = np.array(eval_planar(leaf.elastica, s))
            if le.dim == 3:
                p = np.append(p, 0.0)
            assert np.linalg.norm(R @ p) < 1e-9  # C0: through the origin
        assert np.allclose(R @ ts, le.chain[i], atol=1e-9)  # start tangent
        ends.append(R @ te)
    for i in range(le.r):  # C1: end tangent meets the next start tangent
        assert np.allclose(ends[i], le.chain[(i + 1) % le.r], atol=1e-9)
    assert abs(eval_k(leaf.elastica, 0.0)) < 1e-9  # C2 compatibility at junctions


class TestBuildLeafed:
    def test_figure_eight(self):
        le = build_leafed(2, 2)
        junction_checks(le)
        rep = normalized_energy(sample_leafed(le, 4096))
        assert rep.L == pytest.approx(2 * canonical_leaf().length, rel=1e-6)  # chords: -7e-8
        assert rep.Bbar == pytest.approx(4 * varpi_star(), rel=1e-5)

    def test_planar_odd_infeasible(self):
        with pytest.raises(InfeasibleError):
            build_leafed(3, 2)
        with pytest.raises(InfeasibleError):
            build_leafed(5, 2)

    def test_propeller(self):
        le = build_leafed(3, 3)
        junction_checks(le)
        c = sample_leafed(le, 1024)
        rep = normalized_energy(c)
        assert rep.Bbar == pytest.approx(9 * varpi_star(), rel=5e-3)
        assert detect_multiplicity(c).r == 3

    @pytest.mark.parametrize("r,dim", [(4, 2), (2, 3), (4, 3), (5, 3)])
    def test_junctions_all_variants(self, r, dim):
        junction_checks(build_leafed(r, dim))

    def test_four_leaves_planar_is_double_eight(self):
        c = sample_leafed(build_leafed(4, 2), 1024)
        assert normalized_energy(c).Bbar == pytest.approx(16 * varpi_star(), rel=1e-4)
        assert detect_multiplicity(c).r == 4

    def test_figure_eight_total_curvature(self):
        c = sample_leafed(build_leafed(2, 2), 4096)
        assert total_curvature(c) == pytest.approx(
            8 * math.asin(math.sqrt(M_STAR)), abs=1e-3
        )
        assert total_curvature(c) > 2 * math.pi

    def test_multiplicity_at_origin(self):
        rep = detect_multiplicity(sample_leafed(build_leafed(2, 2), 2048))
        assert rep.r == 2
        assert np.linalg.norm(rep.point) < 5e-3

    def test_domain(self):
        with pytest.raises(DomainError):
            build_leafed(1, 2)
        with pytest.raises(DomainError):
            build_leafed(2, 4)
        with pytest.raises(DomainError):
            sample_leafed(build_leafed(2, 2), 2)


class TestClassify:
    @staticmethod
    def circle(n, folds, radius=1.0, rot=0.0, center=(0.0, 0.0)):
        th = rot + 2 * math.pi * folds * np.arange(n) / n
        v = np.column_stack([center[0] + radius * np.cos(th), center[1] + radius * np.sin(th)])
        return DiscreteCurve(v, closed=True)

    @pytest.mark.parametrize("mu", [1, 2, 3])
    def test_circles(self, mu):
        res = classify_closed(self.circle(4096, mu, radius=0.7, rot=0.3, center=(2, 1)))
        assert res == ClassifyResult("circle", mu, res.residual)
        assert res.residual < 1e-8

    def test_figure_eight(self):
        res = classify_closed(sample_leafed(build_leafed(2, 2), 2048))
        assert res.kind == "figure_eight" and res.fold == 1

    def test_double_figure_eight(self):
        res = classify_closed(sample_leafed(build_leafed(4, 2), 1024))
        assert res.kind == "figure_eight" and res.fold == 2

    def test_ellipse_rejected(self):
        t = 2 * math.pi * np.arange(2048) / 2048
        raw = DiscreteCurve(np.column_stack([2 * np.cos(t), np.sin(t)]), closed=True)
        res = classify_closed(resample_arclength(raw, 2048))
        assert res.kind == "not_elastica" and res.fold == 0

    @pytest.mark.parametrize("r", [18, 20])
    def test_fold_above_eight(self, r):
        # the covering count comes from the total curvature, so no cap on it
        res = classify_closed(sample_leafed(build_leafed(r, 2), 256))
        assert res.kind == "figure_eight" and res.fold == r // 2

    # (kind, fold) pairs for the invariance property below
    CASES = [("circle", mu) for mu in (1, 2, 3)] + [("figure_eight", mu) for mu in (1, 2, 3)]

    @settings(max_examples=40, deadline=None)
    @given(case=st.sampled_from(CASES), start=st.floats(0.0, 1.0, exclude_max=True),
           reverse=st.booleans(), angle=st.floats(0.0, 2 * math.pi), reflect=st.booleans(),
           scale=st.floats(1e-2, 1e2), shift=st.tuples(st.floats(-1e2, 1e2), st.floats(-1e2, 1e2)),
           per_leaf=st.one_of(st.none(), st.integers(256, 1024)))
    def test_invariant_kind_and_fold(self, case, start, reverse, angle, reflect, scale, shift,
                                     per_leaf):
        kind, mu = case
        if kind == "circle":
            v = self.circle(512 * mu, mu).vertices
        else:
            v = sample_leafed(build_leafed(2 * mu, 2), 512).vertices
        v = np.roll(v, -int(start * len(v)), axis=0)
        if reverse:
            v = v[::-1]
        c, s = math.cos(angle), math.sin(angle)
        R = np.array([[c, -s], [s, c]]) @ np.diag([1.0, -1.0 if reflect else 1.0])
        curve = DiscreteCurve(scale * v @ R.T + np.array(shift), closed=True)
        if per_leaf is not None:
            curve = resample_arclength(curve, per_leaf * (mu if kind == "circle" else 2 * mu))
        res = classify_closed(curve)
        assert (res.kind, res.fold) == (kind, mu)

    def test_classify_after_every_other_query(self):
        # classify reads the signed angles and arclengths the curve keeps
        for c in (sample_leafed(build_leafed(2, 2), 512), sample_leafed(build_leafed(4, 2), 256),
                  self.circle(1024, 2, radius=0.7, rot=0.3, center=(2, 1))):
            fresh = classify_closed(DiscreteCurve(c.vertices, True))
            for query in (normalized_energy, liyau_check, curvature_data,
                          lambda c: c.turning_angles, lambda c: c.vertex_arclengths):
                query(c)
            assert repr(classify_closed(c)) == repr(fresh)
            assert repr(classify_closed(c)) == repr(fresh)

    @pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, math.inf])
    def test_bad_tol_rejected(self, tol):
        # a bad tolerance must not read as "not an elastica"
        with pytest.raises(DomainError):
            classify_closed(sample_leafed(build_leafed(4, 2), 256), tol=tol)

    def test_domain(self):
        with pytest.raises(DomainError):
            classify_closed(build_leaf(64))  # open
        pts = np.column_stack([np.cos(np.arange(64)), np.sin(np.arange(64)), np.arange(64.0)])
        with pytest.raises(DomainError):
            classify_closed(DiscreteCurve(pts, closed=True))


class TestRigidMotion:
    def test_preserves_energy(self):
        # any stored leaf rotation is an isometry of the discrete energies
        le = build_leafed(3, 3)
        c = sample_leafed(le, 256)
        moved = DiscreteCurve(c.vertices @ le.rotations[1].T, closed=True)
        r0, r1 = normalized_energy(c), normalized_energy(moved)
        assert r1.L == pytest.approx(r0.L, rel=1e-12)
        assert r1.B == pytest.approx(r0.B, rel=1e-12)
        assert r1.TC == pytest.approx(r0.TC, rel=1e-12)


class TestReconstruct:
    F0 = np.eye(3)

    def test_unit_circle_closes(self):
        p = CurvatureProfile(m=0.0, w=1.0, A=1.0)  # k = 1, c = 0
        c = reconstruct_spatial(p, self.F0, (0.0, 2 * math.pi), 1e-3)
        assert np.linalg.norm(c.vertices[-1] - c.vertices[0]) < 1e-8
        assert np.max(np.abs(c.vertices[:, 2])) < 1e-12  # planar fallback

    def test_helix_radius_and_pitch(self):
        # m=0, w=1/2, A=1: k = 1, c = 1/2 so torsion t = 1/2
        p = CurvatureProfile(m=0.0, w=0.5, A=1.0)
        assert profile_c(p) == pytest.approx(0.5, rel=1e-15)
        k, t = 1.0, 0.5
        axis = (t * self.F0[0] + k * self.F0[2]) / math.sqrt(k * k + t * t)
        center = np.array([0.0, k / (k * k + t * t), 0.0])
        c = reconstruct_spatial(p, self.F0, (0.0, 25.0), 1e-3)
        rel = c.vertices - center
        radial = rel - np.outer(rel @ axis, axis)
        assert np.max(np.abs(np.linalg.norm(radial, axis=1) - k / (k * k + t * t))) < 1e-6
        # axial advance is linear with slope t/sqrt(k^2+t^2); at one full
        # turn (arclength 2 pi / sqrt(k^2+t^2)) it equals the pitch
        slope = t / math.sqrt(k * k + t * t)
        s = np.linspace(0.0, 25.0, c.n_vertices)
        advance = (c.vertices - c.vertices[0]) @ axis
        assert np.max(np.abs(advance - slope * s)) < 1e-6
        s_turn = 2 * math.pi / math.sqrt(k * k + t * t)
        assert slope * s_turn == pytest.approx(2 * math.pi * t / (k * k + t * t), rel=1e-15)

    def test_det_constant_along_reconstruction(self):
        p = CurvatureProfile(m=0.2, w=0.6, A=1.5)
        c_exp = profile_c(p)
        span = 2 * profile_period(p)
        cur = reconstruct_spatial(p, self.F0, (0.0, span), 1e-3)
        # fourth-order stencils on every 4th vertex, at the grid's own
        # spacing span/n: rounding of the positions reaches the third
        # derivative divided by H^3, 64x less than at spacing 1e-3
        x = cur.vertices[::4]
        H = 4 * span / (len(cur.vertices) - 1)

        def f(j):
            return x[3 + j : len(x) - 3 + j]

        d1 = (f(-2) - 8 * f(-1) + 8 * f(1) - f(2)) / (12 * H)
        d2 = (-f(-2) + 16 * f(-1) - 30 * f(0) + 16 * f(1) - f(2)) / (12 * H**2)
        d3 = (f(-3) - 8 * f(-2) + 13 * f(-1) - 13 * f(1) + 8 * f(2) - f(3)) / (8 * H**3)
        dets = np.linalg.det(np.stack([d1, d2, d3], axis=-1))
        # constant along the curve to the stencils' accuracy (3.6e-8)
        assert np.max(dets) - np.min(dets) < 3e-7
        assert np.mean(dets) == pytest.approx(c_exp, abs=1e-8)

    @pytest.mark.parametrize("m, w, A", [
        (0.2, 0.6, 1.5),  # spatial
        (0.0, 0.5, 1.0),  # helix
        (0.0, 1.0, 1.0),  # planar circle
        (0.7, 0.7, 2 * math.sqrt(0.7)),  # planar wavelike, k through zero
        (0.5, 0.9, 2.0),
    ])
    def test_matches_reference_loop(self, m, w, A):
        # the closed form is what the RK4 reference converges to: the gap
        # falls about 16x per halving of h, for both handednesses of frame0
        p = CurvatureProfile(m=m, w=w, A=A)
        F = np.linalg.qr(default_rng(7).normal(size=(3, 3)))[0].T
        for frame in (F, F * [[1.0], [1.0], [-1.0]]):
            if w == m:
                self.assert_signed_wavelike(p, frame)
                continue
            gaps = []
            for h in (8e-3, 4e-3, 2e-3, 1e-3):
                got = reconstruct_spatial(p, frame, (-1.0, 5.0), h).vertices
                want = reference_reconstruct(p, frame, (-1.0, 5.0), h)
                assert got.shape == want.shape
                gaps.append(np.max(np.abs(got - want)))
            ratios = np.divide(gaps[:-1], gaps[1:])
            assert np.all((12.0 <= ratios) & (ratios <= 20.0)), gaps
            assert gaps[2] <= 1e-9

    def test_blocks_join_smoothly(self):
        # 22000 steps are three evaluation blocks; each is pinned to the
        # closed form at its end, with no jump in the third differences
        p = CurvatureProfile(m=0.2, w=0.6, A=1.5)
        F = np.linalg.qr(default_rng(7).normal(size=(3, 3)))[0].T
        got = reconstruct_spatial(p, F, (-1.0, 21.0), 1e-3).vertices
        gap = got - reference_reconstruct(p, F, (-1.0, 21.0), 1e-3)
        assert np.max(np.abs(gap)) <= 1e-11
        assert np.max(np.abs(np.diff(gap, 3, axis=0))) <= 5e-14

    def test_coarse_steps_take_the_closed_form(self):
        # at A h = 0.6 summed Hermite increments would end 1e-6 off; every
        # vertex is the closed form, as the reference at a 400x finer step
        p = CurvatureProfile(m=0.2, w=0.6, A=1.5)
        F = np.linalg.qr(default_rng(7).normal(size=(3, 3)))[0].T
        got = reconstruct_spatial(p, F, (-1.0, 5.0), 0.4).vertices
        assert np.max(np.abs(got - reference_reconstruct(p, F, (-1.0, 5.0), 1e-3)[::400])) <= 1e-11

    @pytest.mark.parametrize("m", [5e-324, 1e-20, 1e-12, 1e-3, 0.3, 0.7])
    def test_orbitlike_as_m_vanishes(self, m):
        # the paper's orbitlike pose lies 2/m from its origin, so its
        # coordinates minus their start would lose 1e-16 / m; the canonical
        # pose of eval_planar has no 1/m
        p = CurvatureProfile(m=m, w=1.0, A=1.0)
        F = np.linalg.qr(default_rng(7).normal(size=(3, 3)))[0].T
        got = reconstruct_spatial(p, F, (-1.0, 5.0), 1e-3).vertices
        assert np.max(np.abs(got - reference_reconstruct(p, F, (-1.0, 5.0), 1e-3))) <= 1e-12

    @staticmethod
    def assert_signed_wavelike(p, frame):
        # the planar wavelike profile is the wavelike elastica (its curvature
        # changes sign; a Frenet curve of |k| would not be an elastica),
        # moved so that it starts at the origin with tangent T0, bending
        # towards N0: equal to eval_planar up to a rigid motion
        h = 1e-3
        got = reconstruct_spatial(p, frame, (-1.0, 5.0), h).vertices
        x, y = eval_planar(PlanarElastica("wavelike", p.m), np.linspace(-1.0, 5.0, len(got)))
        want = np.column_stack([x, y, np.zeros_like(x)])
        g, w = got - got.mean(axis=0), want - want.mean(axis=0)
        U, _, Vt = np.linalg.svd(w.T @ g)
        R = U @ np.diag([1.0, 1.0, np.linalg.det(U @ Vt)]) @ Vt
        assert np.max(np.abs(w @ R - g)) <= 1e-12
        assert np.all(got[0] == 0.0)
        assert np.max(np.abs((got[1] - got[0]) / h - frame[0])) <= h
        assert np.dot(got[2] - 2.0 * got[1] + got[0], frame[1]) > 0.0

    def test_domain(self):
        p = CurvatureProfile(m=0.0, w=1.0, A=1.0)
        with pytest.raises(DomainError):
            reconstruct_spatial(p, np.ones((3, 3)), (0.0, 1.0), 1e-3)
        with pytest.raises(DomainError):
            reconstruct_spatial(p, self.F0, (0.0, 1.0), 0.0)
        with pytest.raises(DomainError):
            reconstruct_spatial(p, self.F0, (1.0, 1.0), 1e-3)

    @pytest.mark.parametrize("s_range, h", [
        ((0.0, 1.0), 1e-300), ((0.0, 1.0), 1e-12), ((-1e300, 1e300), 1.0),
    ])
    def test_step_count_above_the_cap(self, s_range, h):
        # the k, t tables would not fit in memory: a DomainError before any
        # allocation, not NumPy's "maximum allowed size exceeded"
        with pytest.raises(DomainError, match="cap"):
            reconstruct_spatial(CurvatureProfile(0.3, 0.8, 1.5), self.F0, s_range, h)


def reference_reconstruct(p, F, s_range, h):
    """The per-step NumPy frame loop reconstruct_spatial is checked against."""
    s_min, s_max = s_range
    c = profile_c(p)

    def rates(svals):
        k = np.sqrt(np.maximum(kappa_sq(p, svals), 0.0))
        if c == 0.0:
            return k, np.zeros_like(k)
        return k, c / (k * k)

    n = max(1, int(round((s_max - s_min) / h)))
    h = (s_max - s_min) / n
    svals = s_min + h * np.arange(n + 1)
    k_all, t_all = rates(np.repeat(svals, 2)[: 2 * n + 1] + np.tile([0.0, 0.5 * h], n + 1)[: 2 * n + 1])

    def deriv(y, k, t):
        g, T, Nv, B = y
        return np.stack([T, k * Nv, -k * T + t * B, -t * Nv])

    y = np.stack([np.zeros(3), F[0], F[1], F[2]])
    out = np.empty((n + 1, 3))
    out[0] = y[0]
    for i in range(n):
        k0, t0 = k_all[2 * i], t_all[2 * i]
        km, tm = k_all[2 * i + 1], t_all[2 * i + 1]
        k1, t1 = k_all[2 * i + 2], t_all[2 * i + 2]
        a1 = deriv(y, k0, t0)
        a2 = deriv(y + 0.5 * h * a1, km, tm)
        a3 = deriv(y + 0.5 * h * a2, km, tm)
        a4 = deriv(y + h * a3, k1, t1)
        y = y + (h / 6.0) * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        T = y[1] / np.linalg.norm(y[1])
        Nv = y[2] - np.dot(y[2], T) * T
        Nv /= np.linalg.norm(Nv)
        B = y[3] - np.dot(y[3], T) * T - np.dot(y[3], Nv) * Nv
        B /= np.linalg.norm(B)
        y = np.stack([y[0], T, Nv, B])
        out[i + 1] = y[0]
    return out


def c1_h(curve: DiscreteCurve, s_total: float) -> float:
    return s_total / (curve.n_vertices - 1)


@pytest.mark.parametrize("fn", [eval_planar, eval_theta, eval_k, planar_state], ids=lambda f: f.__name__)
@pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf], ids=str)
@pytest.mark.parametrize("e", ALL_FAMILIES, ids=lambda e: e.family)
def test_non_finite_arclength(e, s, fn):
    with pytest.raises(DomainError):
        fn(e, s)


def test_arclength_overflowing_the_canonical_parameter():
    # s finite, s / scale + s0 not: no RuntimeWarning, a DomainError
    e = PlanarElastica("circular", similarity=Similarity(scale=1e-10))
    for fn in (eval_planar, eval_theta, eval_k, planar_state):
        with pytest.raises(DomainError):
            fn(e, 1e300)


@pytest.mark.parametrize("count", [16.5, 16.0, np.float64(16.0), "16"], ids=repr)
def test_counts_must_be_integers(count):
    with pytest.raises(DomainError):
        sample_leafed(build_leafed(2, 2), count)
    with pytest.raises(DomainError):
        build_leaf(count)
    with pytest.raises(DomainError):
        build_leafed(count, 3)
    with pytest.raises(DomainError):
        spherical_chain(count, 1.0)


@pytest.mark.parametrize("count", [10**13 + 1, np.int64(10**13 + 1)], ids=repr)
def test_counts_above_the_cap(count):
    # far above errors.MAX_COUNT: refused before anything is allocated or
    # looped over, not a MemoryError or a loop over every leaf
    with pytest.raises(DomainError, match="cap"):
        sample_leafed(build_leafed(2, 2), count)
    with pytest.raises(DomainError, match="cap"):
        build_leaf(count)
    for dim in (2, 3):
        with pytest.raises(DomainError, match="cap"):
            build_leafed(count, dim)
    with pytest.raises(DomainError, match="cap"):
        spherical_chain(count, 1.0)


WAVE = PlanarElastica("wavelike", 0.5)
K0 = 2.0 * math.sqrt(0.5)  # wavelike peak curvature 2 sqrt(m)
SPATIAL = CurvatureProfile(0.3, 0.8, 1.5)
# every float parameter of curves.__all__ and of the curve_helpers (Leaf,
# ClassifyResult and FenchelReport are records the modules return)
FLOAT_CONTRACTS = {
    ("check_closure", "m"): (lambda v: check_closure("wavelike", v), {}),
    ("Similarity", "rotation"): (lambda v: Similarity(rotation=v).apply(1.0, 0.0),
                                 {0.0: is_((1.0, 0.0)), -1.0: is_((math.cos(1.0), -math.sin(1.0)))}),
    ("Similarity", "translation"): (lambda v: Similarity(translation=(0.0, v)).apply(0.0, 0.0),
                                    {0.0: is_((0.0, 0.0)), -1.0: is_((0.0, -1.0))}),
    ("Similarity", "scale"): (lambda v: Similarity(scale=v), {}),
    ("PlanarElastica", "m"): (lambda v: PlanarElastica("wavelike", v), {}),
    ("PlanarElastica", "s0"): (lambda v: eval_k(PlanarElastica("wavelike", 0.5, s0=v), 0.0),
                               {0.0: is_(K0), -1.0: is_(eval_k(WAVE, -1.0))}),
    ("eval_planar", "s"): (lambda v: eval_planar(WAVE, v), {0.0: is_((0.0, -K0)), -1.0: mirrored(-1, 1)}),
    ("eval_theta", "s"): (lambda v: eval_theta(WAVE, v), {0.0: is_(0.0), -1.0: mirrored(-1)}),
    ("eval_k", "s"): (lambda v: eval_k(WAVE, v), {0.0: is_(K0), -1.0: mirrored(1)}),
    # (gamma, d1, d2, d3) at s = 0: k' = 0, so d3 = -k^2 d1
    ("planar_state", "s"): (lambda v: np.concatenate(planar_state(WAVE, v)), {
        0.0: is_((0.0, -K0, 1.0, 0.0, 0.0, K0, -K0 * K0, 0.0)),
        -1.0: mirrored(-1, 1, 1, -1, -1, 1, 1, -1),
    }),
    ("spherical_chain", "psi"): (lambda v: spherical_chain(3, v), {}),
    ("classify_closed", "tol"): (lambda v: classify_closed(sample_leafed(build_leafed(2, 2), 64), v), {}),
    ("reconstruct_spatial", "s_range"): (lambda v: reconstruct_spatial(SPATIAL, np.eye(3), (0.0, v), 0.1), {}),
    ("reconstruct_spatial", "h"): (lambda v: reconstruct_spatial(SPATIAL, np.eye(3), (0.0, 1.0), v), {}),
}


class TestInputContracts:
    def test_table_covers_every_float_parameter(self):
        assert float_parameters(curves, records=("Leaf", "ClassifyResult")) \
            | float_parameters(curve_helpers, records=("FenchelReport",)) == set(FLOAT_CONTRACTS)

    @contract_cases(FLOAT_CONTRACTS)
    def test_float_parameter(self, key, value):
        check_contract(FLOAT_CONTRACTS, key, value)

    def test_scalar_parameters(self):
        # apply's math.cos would refuse a string too: the check is in the constructor
        check_scalar(FLOAT_CONTRACTS, ("Similarity", "rotation"), lambda v: Similarity(rotation=v))
        check_scalar(FLOAT_CONTRACTS, ("PlanarElastica", "s0"))
