"""End-to-end verification gate: nine numbered checks over the whole stack.

Each check re-derives its expected values from independent routes (textbook
AGM, adaptive quadrature, Maclaurin series, closed-form parametrizations)
rather than trusting the code under test, asserts the stated tolerances, and
enforces a wall-clock budget.  On success each prints a single

    criterion N (<name>): PASS [<elapsed>s]

line; run with `pytest tests/test_acceptance.py -v -s` to see them.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy import integrate
from scipy.spatial import cKDTree

from elastica.curves import (
    PlanarElastica,
    build_leafed,
    classify_closed,
    figure_eight_modulus,
    planar_state,
    sample_leafed,
    varpi_star,
)
from elastica.discrete import (
    FOUR_PI_SQ,
    DiscreteCurve,
    curvature_data,
    detect_multiplicity,
    liyau_check,
    normalized_energy,
)
from elastica.elliptic import cn, comp_E, comp_K, dn, sn
from elastica.errors import InfeasibleError
from elastica.minimize import MinimizeOptions, PinnedProblem, minimize_pinned
from elastica.odeint import (
    ElasticaState,
    dimension_of_span,
    integrate_elastica,
    monitor_det,
    planarity_drift,
)
from elastica.profiles import (
    CurvatureProfile,
    first_integral_coeffs,
    kappa_sq,
    profile_c,
    profile_lambda,
    profile_period,
    residual_first_integral,
    residual_spatial,
)


@contextmanager
def criterion(number: int, name: str, budget_s: float):
    t0 = time.perf_counter()
    yield
    elapsed = time.perf_counter() - t0
    assert elapsed < budget_s, f"criterion {number} took {elapsed:.1f}s (budget {budget_s}s)"
    print(f"criterion {number} ({name}): PASS [{elapsed:.2f}s]")


# --- independent oracles -----------------------------------------------------

def agm_K(m: float) -> float:
    # textbook arithmetic-geometric mean, fixed iteration count
    a, b = 1.0, math.sqrt(1.0 - m)
    for _ in range(60):
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (2.0 * a)


def quad_K(m: float) -> float:
    v, err = integrate.quad(
        lambda t: 1.0 / math.sqrt(1.0 - m * math.sin(t) ** 2),
        0.0, 0.5 * math.pi, epsabs=1e-14, epsrel=1e-13, limit=400,
    )
    assert err < 1e-12
    return v


def quad_E(m: float) -> float:
    v, err = integrate.quad(
        lambda t: math.sqrt(1.0 - m * math.sin(t) ** 2),
        0.0, 0.5 * math.pi, epsabs=1e-14, epsrel=1e-13, limit=400,
    )
    assert err < 1e-12
    return v


def series_K(m: float, terms: int = 40) -> float:
    # K = (pi/2) sum_n ((2n-1)!!/(2n)!!)^2 m^n
    total, coef = 0.0, 1.0
    for n in range(terms):
        if n > 0:
            coef *= (2 * n - 1) / (2 * n)
        total += coef * coef * m**n
    return 0.5 * math.pi * total


# --- geometry helpers --------------------------------------------------------

def hausdorff(A: np.ndarray, B: np.ndarray) -> float:
    return max(cKDTree(A).query(B)[0].max(), cKDTree(B).query(A)[0].max())


def rotate_to_match(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    # rotation about the pinned origin aligning centroid directions; the
    # leaf's mirror symmetry makes reflections redundant
    a = math.atan2(*A.mean(axis=0)[::-1])
    b = math.atan2(*B.mean(axis=0)[::-1])
    t = a - b
    R = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
    return B @ R.T


def wavelike_state(m: float, dim: int = 2) -> ElasticaState:
    g, d1, d2, d3 = planar_state(PlanarElastica("wavelike", m), 0.0)
    if dim == 3:
        g, d1, d2, d3 = (np.append(v, 0.0) for v in (g, d1, d2, d3))
    return ElasticaState(g, d1, d2, d3)


def spatial_state(p: CurvatureProfile) -> ElasticaState:
    # at s = 0 the profile sits at its curvature peak: k = A, k' = 0
    k0 = p.A
    t0 = profile_c(p) / k0**2
    return ElasticaState([0, 0, 0], [1, 0, 0], [0, k0, 0], [-k0 * k0, 0.0, k0 * t0])


def circle_polygon(n: int, folds: int = 1) -> DiscreteCurve:
    th = 2.0 * math.pi * folds * np.arange(n) / n
    return DiscreteCurve(np.column_stack([np.cos(th), np.sin(th)]), closed=True)


# --- the nine checks ---------------------------------------------------------

def test_criterion_1_constants():
    with criterion(1, "constants", budget_s=1.0):
        m = figure_eight_modulus()
        assert abs(2.0 * comp_E(m) - comp_K(m)) < 1e-13
        assert f"{varpi_star():.6f}".startswith("28.109")


def test_criterion_2_elliptic_suite():
    with criterion(2, "elliptic suite", budget_s=10.0):
        # Jacobi identities on a 100 x 100 (x, m) grid
        x = np.linspace(-10.0, 10.0, 100)
        for m in np.linspace(0.0, 1.0 - 1e-9, 100):
            s, c, d = sn(x, m), cn(x, m), dn(x, m)
            assert np.max(np.abs(s * s + c * c - 1.0)) < 1e-12
            assert np.max(np.abs(d * d + m * s * s - 1.0)) < 1e-12
        # complete integrals against an independent AGM
        for m in np.linspace(0.0, 1.0 - 1e-9, 100):
            K = comp_K(m)
            assert abs(K - agm_K(m)) < 1e-12 * max(1.0, K)
        # and against adaptive quadrature
        for m in np.linspace(0.01, 0.99, 15):
            assert abs(comp_K(m) - quad_K(m)) < 1e-12 * max(1.0, comp_K(m))
            assert abs(comp_E(m) - quad_E(m)) < 1e-12
        # 40-term Maclaurin series for K on m <= 0.3
        for m in np.linspace(0.0, 0.3, 31):
            assert abs(comp_K(m) - series_K(m, 40)) < 1e-12


def test_criterion_3_curvature_formula_consistency():
    with criterion(3, "curvature formulas", budget_s=30.0):
        rng = np.random.default_rng(2026)
        for _ in range(50):
            w = rng.uniform(0.1, 1.0)
            m = rng.uniform(0.0, 0.9 * w)  # keeps kappa away from zero
            A = rng.uniform(0.3, 2.0)
            p = CurvatureProfile(m, w, A, s0=rng.uniform(-2.0, 2.0))
            s = rng.uniform(-10.0, 10.0, 20)
            res = residual_first_integral(p, s)
            assert np.max(np.abs(res)) < 1e-8 * max(1.0, A**6)
            k = lambda t: np.sqrt(kappa_sq(p, t))
            res = residual_spatial(k, profile_lambda(p), profile_c(p), s)
            assert np.max(np.abs(res)) < 1e-5


def test_criterion_4_ode_conservation():
    with criterion(4, "ODE conservation", budget_s=60.0):
        m = 0.7
        K = comp_K(m)

        def wavelike_err(h: float) -> float:
            tr = integrate_elastica(wavelike_state(m), 2.0 * (2.0 * m - 1.0), 4.0 * K, h)
            kmag = np.linalg.norm(tr.data[:, 2, :], axis=1)
            return float(np.max(np.abs(kmag - np.abs(2.0 * math.sqrt(m) * cn(tr.s, m)))))

        assert wavelike_err(4e-3) < 1e-5
        assert wavelike_err(4e-3) / wavelike_err(2e-3) >= 12.0

        p = CurvatureProfile(m=0.2, w=0.6, A=1.5)
        lam, _, _ = first_integral_coeffs(p)
        tr = integrate_elastica(spatial_state(p), lam, 5.0 * profile_period(p), 2e-3)
        assert np.max(np.abs(monitor_det(tr) - profile_c(p))) < 1e-6


def test_criterion_5_energy_floor():
    with criterion(5, "energy floor", budget_s=30.0):
        Bbar = normalized_energy(circle_polygon(4096)).Bbar
        assert FOUR_PI_SQ * 0.9999 <= Bbar <= FOUR_PI_SQ * 1.0001
        rng = np.random.default_rng(11)
        for i in range(200):
            n = int(rng.integers(8, 65))
            dim = 2 if i % 2 else 3
            rep = normalized_energy(DiscreteCurve(rng.normal(size=(n, dim)), closed=True))
            assert rep.B * rep.L >= rep.TC**2 * (1.0 - 1e-9)


def test_criterion_6_equality_cases():
    with criterion(6, "equality cases", budget_s=60.0):
        eight = normalized_energy(sample_leafed(build_leafed(2, dim=2), 4096))
        assert abs(eight.Bbar / (4.0 * varpi_star()) - 1.0) < 0.01

        prop = sample_leafed(build_leafed(3, dim=3), 4096)
        assert prop.n_vertices == 3 * 4096
        assert detect_multiplicity(prop).r == 3
        rep = liyau_check(prop)
        assert abs(rep.Bbar / (9.0 * varpi_star()) - 1.0) < 0.01

        with pytest.raises(InfeasibleError):
            build_leafed(3, dim=2)


def test_criterion_7_leaf_minimality():
    with criterion(7, "leaf minimality", budget_s=300.0):
        problem = PinnedProblem(np.zeros(2), np.zeros(2), 1.0, 200)
        results = [
            minimize_pinned(problem, MinimizeOptions(max_iters=3000, seed=seed))
            for seed in range(5)
        ]
        assert all(r.converged for r in results)
        best = min(results, key=lambda r: r.Bbar)
        assert abs(best.Bbar / varpi_star() - 1.0) < 0.01

        kappa, _, _ = curvature_data(best.curve, signed=True)
        assert max(abs(kappa[0]), abs(kappa[-1])) <= 5e-2 * np.max(np.abs(kappa))

        m = figure_eight_modulus()
        lam_unit_leaf = 2.0 * (2.0 * m - 1.0) * (2.0 * comp_K(m)) ** 2
        assert abs(best.lambda_est / lam_unit_leaf - 1.0) < 0.02

        # multi-seed congruence: every run lands on the same curve up to rotation
        V0 = results[0].curve.vertices
        for r in results[1:]:
            assert hausdorff(V0, rotate_to_match(V0, r.curve.vertices)) < 1e-2


def test_criterion_8_rigidity():
    with criterion(8, "rigidity", budget_s=10.0):
        m = 0.7
        st = wavelike_state(m, dim=3)
        assert dimension_of_span(st) == 2  # rank-2 initial data
        tr = integrate_elastica(st, 2.0 * (2.0 * m - 1.0), 20.0, 2e-3)
        assert planarity_drift(tr) < 1e-6


def test_criterion_9_classification():
    with criterion(9, "classification", budget_s=10.0):
        for mu, n in ((1, 256), (2, 256), (3, 384)):
            res = classify_closed(circle_polygon(n, folds=mu))
            assert res.kind == "circle"
            assert res.fold == mu
        res = classify_closed(sample_leafed(build_leafed(2, dim=2), 512))
        assert res.kind == "figure_eight"
        assert res.fold == 1
        th = 2.0 * math.pi * np.arange(256) / 256
        ellipse = DiscreteCurve(np.column_stack([np.cos(th), 0.6 * np.sin(th)]), closed=True)
        assert classify_closed(ellipse).kind == "not_elastica"
