"""Elliptic integrals/functions against independent oracles.

Oracle routes: adaptive quadrature of the defining integrands
(scipy.integrate.quad), a plain AGM loop written here, truncated power
series, central finite differences, scipy.special as a third-party
cross-check, and mpmath at 40 digits for the array amplitude/epsilon.
Frozen constants in this file were produced by those oracles.
"""

import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy import integrate, special

import elastica
from elastica import DomainError
from elastica import elliptic as el
from elastica.curves import PlanarElastica, eval_planar, figure_eight_modulus, reconstruct_spatial
from elastica.profiles import CurvatureProfile, profile_period

from input_contracts import check_contract, contract_cases, float_parameters, is_, mirrored

# frozen oracle values (quadrature / AGM, see module docstring)
K_HALF = 1.8540746773013719
E_HALF = 1.3506438810476755


def agm_K(m: float) -> float:
    # independent textbook AGM for K; fixed iteration count (quadratic
    # convergence stalls at ~1 ulp, so a while-loop on |a-b| can spin)
    a, b = 1.0, math.sqrt(1.0 - m)
    for _ in range(60):
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (2.0 * a)


def quad_F(x: float, m: float) -> float:
    v, err = integrate.quad(
        lambda t: 1.0 / math.sqrt(1.0 - m * math.sin(t) ** 2),
        0.0, x, epsabs=1e-14, epsrel=1e-13, limit=400,
    )
    assert err < 1e-12
    return v


def quad_E(x: float, m: float) -> float:
    v, err = integrate.quad(
        lambda t: math.sqrt(1.0 - m * math.sin(t) ** 2),
        0.0, x, epsabs=1e-14, epsrel=1e-13, limit=400,
    )
    assert err < 1e-12
    return v


def series_K(m: float, terms: int = 40) -> float:
    # K = (pi/2) sum ((2n-1)!!/(2n)!!)^2 m^n
    total, coef = 0.0, 1.0
    for n in range(terms):
        if n > 0:
            coef *= (2 * n - 1) / (2 * n)
        total += coef * coef * m**n
    return 0.5 * math.pi * total


def series_E(m: float, terms: int = 40) -> float:
    total, coef = 0.0, 1.0
    for n in range(terms):
        if n > 0:
            coef *= (2 * n - 1) / (2 * n)
        total += coef * coef * m**n / (1 - 2 * n)
    return 0.5 * math.pi * total


class TestComplete:
    def test_frozen_values(self):
        assert el.comp_K(0.5) == pytest.approx(K_HALF, abs=1e-13)
        assert el.comp_E(0.5) == pytest.approx(E_HALF, abs=1e-13)

    def test_endpoints(self):
        assert el.comp_K(0.0) == pytest.approx(math.pi / 2, abs=1e-15)
        assert el.comp_E(0.0) == pytest.approx(math.pi / 2, abs=1e-15)
        assert el.comp_E(1.0) == 1.0

    @pytest.mark.parametrize("m", [0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999999, el.M_MAX])
    def test_K_vs_agm_oracle(self, m):
        assert abs(el.comp_K(m) - agm_K(m)) < 1e-12

    @pytest.mark.parametrize("m", [0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99])
    def test_vs_quadrature(self, m):
        assert abs(el.comp_K(m) - quad_F(math.pi / 2, m)) < 1e-12
        assert abs(el.comp_E(m) - quad_E(math.pi / 2, m)) < 1e-12

    @pytest.mark.parametrize("m", [0.05, 0.1, 0.2, 0.3])
    def test_series_40_terms(self, m):
        assert abs(el.comp_K(m) - series_K(m)) < 1e-12
        assert abs(el.comp_E(m) - series_E(m)) < 1e-12

    def test_monotone_and_bounds(self):
        ms = np.linspace(0.0, 0.99, 34)
        K = np.array([el.comp_K(m) for m in ms])
        E = np.array([el.comp_E(m) for m in ms])
        assert np.all(K >= math.pi / 2 - 1e-15)
        assert np.all(np.diff(K) > 0)
        assert np.all((1.0 <= E) & (E <= math.pi / 2 + 1e-15))
        assert np.all(np.diff(E) < 0)
        assert np.all(K[1:] > E[1:])  # equality only at m=0

    def test_domain(self):
        for bad in (-0.1, 1.0, 1.5, 1.0 - 1e-10):
            with pytest.raises(DomainError):
                el.comp_K(bad)
        with pytest.raises(DomainError):
            el.comp_E(-1e-12)
        with pytest.raises(DomainError):
            el.comp_E(1.0 + 1e-12)


class TestAmplitude:
    def test_zero(self):
        assert el.am(0.0, 0.8) == 0.0

    def test_at_multiples_of_K(self):
        for m in (0.3, 0.5, 0.9):
            K = el.comp_K(m)
            for ell in (-3, -1, 1, 2, 5):
                assert el.am(ell * K, m) == pytest.approx(ell * math.pi / 2, abs=1e-12)

    def test_round_trip_frozen_example(self):
        a = el.am(1.3, 0.7)
        assert abs(special.ellipkinc(a, 0.7) - 1.3) < 1e-12

    def test_round_trip_grid(self):
        rng = np.random.default_rng(11)
        for m in [1e-8, 0.2, 0.5, 0.9, 0.99]:
            for x in rng.uniform(-100, 100, 60):
                x = float(x)
                assert abs(special.ellipkinc(el.am(x, m), m) - x) < 1e-12 * max(1.0, abs(x))

    def test_vs_scipy_amplitude(self):
        # includes extreme m, where the F round trip is ill-conditioned but
        # am itself stays accurate (|d am/dx| = dn <= 1)
        rng = np.random.default_rng(12)
        for m, tol in [(0.3, 1e-12), (0.97, 1e-12), (0.999999, 1e-12), (el.M_MAX, 5e-12)]:
            for x in rng.uniform(-100, 100, 60):
                ph = special.ellipj(float(x), m)[3]
                assert abs(el.am(float(x), m) - ph) < tol

    def test_quasi_periodicity(self):
        for m in (0.4, 0.9):
            twoK = 2 * el.comp_K(m)
            for x in (-5.0, 0.3, 12.7):
                assert el.am(x + twoK, m) == pytest.approx(el.am(x, m) + math.pi, abs=1e-12)

    def test_zero_parameter(self):
        assert el.am(2.9, 0.0) == 2.9

    def test_domain(self):
        with pytest.raises(DomainError):
            el.am(1.0, 1.0)


class TestJacobiFunctions:
    def test_identity_grid(self):
        # 1e4-point (x, m) grid, includes m = 1
        xs = np.linspace(-100, 100, 401)
        for m in list(np.linspace(0.0, 0.96, 21)) + [0.999, 0.999999, el.M_MAX, 1.0]:
            s, c, d = el.sncndn(xs, m)
            assert np.max(np.abs(s * s + c * c - 1.0)) < 1e-12
            assert np.max(np.abs(d * d + m * s * s - 1.0)) < 1e-12
            assert np.max(np.abs(d * d - m * c * c - (1.0 - m))) < 1e-12

    def test_hyperbolic_limit(self):
        x = 0.9
        assert el.sn(x, 1.0) == pytest.approx(math.tanh(x), abs=1e-15)
        assert el.cn(x, 1.0) == pytest.approx(1 / math.cosh(x), abs=1e-15)
        assert el.dn(x, 1.0) == pytest.approx(1 / math.cosh(x), abs=1e-15)

    @pytest.mark.parametrize("x", [800.0, -800.0])
    def test_hyperbolic_limit_past_cosh_overflow(self, x):
        # cosh(800) overflows; sech is 0 there, with no RuntimeWarning
        s, c, d = el.sncndn(np.array([x, 0.9]), 1.0)
        assert (s[0], c[0], d[0]) == (math.copysign(1.0, x), 0.0, 0.0)
        assert (s[1], c[1], d[1]) == (math.tanh(0.9), 1.0 / np.cosh(0.9), 1.0 / np.cosh(0.9))
        assert el.sncndn(x, 1.0) == (math.copysign(1.0, x), 0.0, 0.0)

    def test_trigonometric_limit(self):
        x = -3.2
        assert el.sn(x, 0.0) == math.sin(x)
        assert el.cn(x, 0.0) == math.cos(x)
        assert el.dn(x, 0.0) == 1.0

    @pytest.mark.parametrize("m", [0.3, 0.826, el.M_MAX])
    def test_tiny_arguments(self, m):
        # the descent starts from cot(x), which overflows below |x| ~ 1e-154;
        # a nan dn would run jacobi_epsilon's duplication to its step cap
        # (1 - x^2/2 and x - x^3 agree with 1 and x to within one ulp here)
        x = np.array([5e-324, -1e-300, 1e-160, 3e-9, -1e-8])
        ulp = np.spacing(1.0)
        s, c, d = el.sncndn(x, m)
        assert np.all(np.abs(s - x) <= ulp * np.abs(x))
        assert np.all(np.abs(c - 1.0) <= ulp) and np.all(np.abs(d - 1.0) <= ulp)
        assert np.all(np.abs(el.jacobi_epsilon(x, m) - x) <= ulp * np.abs(x))
        assert np.all(el.am(x, m) == s)

    def test_special_points(self):
        m = 0.3
        K = el.comp_K(m)
        assert el.cn(K, m) == pytest.approx(0.0, abs=1e-13)
        assert el.dn(K, m) == pytest.approx(math.sqrt(1 - m), abs=1e-13)
        assert el.sn(K, m) == pytest.approx(1.0, abs=1e-13)

    def test_vs_scipy(self):
        rng = np.random.default_rng(5)
        xs = rng.uniform(-100, 100, 250)
        for m in [0.05, 0.4, 0.8, 0.99, 0.999999, el.M_MAX]:
            s, c, d = el.sncndn(xs, m)
            ss, cc, dd, _ = special.ellipj(xs, m)
            assert np.max(np.abs(s - ss)) < 5e-12
            assert np.max(np.abs(c - cc)) < 5e-12
            assert np.max(np.abs(d - dd)) < 5e-12

    def test_consistent_with_amplitude(self):
        for m in (0.6, 0.95):
            for x in (0.4, -2.2, 9.9):
                a = el.am(x, m)
                assert el.sn(x, m) == pytest.approx(math.sin(a), abs=1e-12)
                assert el.cn(x, m) == pytest.approx(math.cos(a), abs=1e-12)

    def test_parity(self):
        xs = np.array([0.3, 1.7, 8.4])
        for m in (0.2, 0.9, 1.0):
            assert np.allclose(el.sn(-xs, m), -el.sn(xs, m), atol=1e-15, rtol=0)
            assert np.allclose(el.cn(-xs, m), el.cn(xs, m), atol=1e-15, rtol=0)
            assert np.allclose(el.dn(-xs, m), el.dn(xs, m), atol=1e-15, rtol=0)

    def test_periodicity(self):
        for m in (0.3, 0.85):
            twoK = 2 * el.comp_K(m)
            xs = np.array([-1.2, 0.0, 2.8, 5.5])
            assert np.allclose(el.sn(xs + twoK, m), -el.sn(xs, m), atol=1e-12, rtol=0)
            assert np.allclose(el.cn(xs + twoK, m), -el.cn(xs, m), atol=1e-12, rtol=0)
            assert np.allclose(el.dn(xs + twoK, m), el.dn(xs, m), atol=1e-12, rtol=0)

    def test_x_derivatives_fd(self):
        h = 1e-6
        for m in (0.25, 0.8):
            for x in (0.37, 1.9, -3.1):
                s, c, d = el.sncndn(x, m)
                ds = (el.sn(x + h, m) - el.sn(x - h, m)) / (2 * h)
                dc = (el.cn(x + h, m) - el.cn(x - h, m)) / (2 * h)
                dd = (el.dn(x + h, m) - el.dn(x - h, m)) / (2 * h)
                assert ds == pytest.approx(c * d, rel=1e-6, abs=1e-8)
                assert dc == pytest.approx(-s * d, rel=1e-6, abs=1e-8)
                assert dd == pytest.approx(-m * s * c, rel=1e-6, abs=1e-8)

    def test_scalar_type(self):
        out = el.sncndn(0.5, 0.5)
        assert all(isinstance(v, float) for v in out)

    def test_domain(self):
        with pytest.raises(DomainError):
            el.sn(0.5, 1.0 - 1e-10)  # inside the rejected sliver below m=1
        with pytest.raises(DomainError):
            el.sn(0.5, 1.2)


class TestEpsilonFunction:
    def test_against_dn_squared_quadrature(self):
        # d/dx E(am(x,m),m) = dn^2(x,m)
        for m in (0.3, 0.8):
            for x in (0.7, 2.4, -1.1):
                v, err = integrate.quad(
                    lambda t: el.dn(t, m) ** 2, 0.0, x, epsabs=1e-13, limit=300
                )
                assert err < 1e-10
                assert el.jacobi_epsilon(x, m) == pytest.approx(v, abs=1e-10)

    def test_quasi_periodicity(self):
        m = 0.5
        twoK, twoE = 2 * el.comp_K(m), 2 * el.comp_E(m)
        assert el.jacobi_epsilon(twoK, m) == pytest.approx(twoE, abs=1e-13)
        x = 0.9
        assert el.jacobi_epsilon(x + twoK, m) == pytest.approx(
            el.jacobi_epsilon(x, m) + twoE, abs=1e-13
        )

    @pytest.mark.parametrize("m", [1e-8, 0.5, figure_eight_modulus(), el.M_MAX])
    def test_is_the_orbitlike_path(self, m):
        # epsilon = x - m * integral_0^x sn^2: jacobi_epsilon takes R_J at
        # p = 1, _sn2_pi (the orbitlike family's route) at p = cn^2 + sn^2
        xs = np.linspace(-30.0, 30.0, 241)
        want = xs - m * el._sn2_pi(xs, 1.0, m)
        assert np.max(np.abs(el.jacobi_epsilon(xs, m) - want)) <= 1e-13


class TestCarlsonReference:
    """The loop control of the duplication in _rj: a scalar runs the steps of
    a one-element array, and a NaN stops at the step cap."""

    @pytest.mark.parametrize("seed", range(2))
    def test_scalar_path_is_the_one_element_array_path(self, seed):
        # a 0-d deviation skips the array reduction; a scalar must still take
        # the duplications of the same value alone in an array, bit for bit
        rng = np.random.default_rng(seed)
        x, y = 10.0 ** rng.uniform(-300.0, 2.0, (2, 24))
        x[::5] = 0.0
        z, p = 10.0 ** rng.uniform(-2.0, 2.0, (2, 24))
        for args in zip(x.tolist(), y.tolist(), z.tolist(), p.tolist()):
            one = [np.array([a]) for a in args]
            assert np.float64(el._rj(*args)).tobytes() == el._rj(*one).tobytes()

    @pytest.mark.parametrize("d", [0.0, -0.0, 1e-300, -2.5e-3, 3.0, -math.inf])
    def test_max_dev_scalar_equals_array(self, d):
        want = el._max_dev(np.array([d]))
        for v in (d, np.float64(d), np.array(d)):
            assert el._max_dev(v) == want == abs(d)
        assert el._max_dev(d, -2.0 * d) == el._max_dev(np.array([d]), np.array([-2.0 * d]))

    def test_max_dev_nan_propagates(self):
        for v in (math.nan, np.float64(math.nan), np.array(math.nan), np.array([0.1, math.nan])):
            assert math.isnan(el._max_dev(v))
        assert math.isnan(el._max_dev(math.nan, math.nan, math.nan))

    def test_nan_stops_at_the_step_cap(self):
        # a NaN never meets the duplication test: the loop stops after
        # _MAX_DUPLICATIONS steps with NaN there and the other elements
        # converged.  Run in a child process, so that a loop without the cap
        # fails by the timeout instead of hanging the suite
        script = (
            "import math\n"
            "import numpy as np\n"
            "from elastica import elliptic as el\n"
            "nan, a = math.nan, np.array\n"
            "rj = el._rj(a([nan, 0.5]), 1.0, 1.0, 1.0)\n"
            "assert math.isnan(rj[0]) and np.isclose(rj[1], el._rj(0.5, 1.0, 1.0, 1.0), rtol=1e-15)\n"
            "assert math.isnan(el._rj(0.5, 1.0, nan, 1.0))\n"
        )
        src = os.path.dirname(os.path.dirname(elastica.__file__))
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
        proc = subprocess.run([sys.executable, "-W", "error", "-c", script], capture_output=True,
                              text=True, timeout=60, env=env)
        assert proc.returncode == 0, proc.stderr


class TestArrayOracle:
    """Array am / jacobi_epsilon against mpmath at 40 digits.

    mpmath has no amplitude function: the reference phi solves
    ellipf(phi, m) = x by findroot (F is strictly increasing, so the root
    is unique), and the reference epsilon is ellipe(phi, m).
    """

    M_VALUES = (1e-8, 0.3, figure_eight_modulus(), 0.99, 1.0 - 1e-6, el.M_MAX)

    @staticmethod
    def grid(m: float) -> np.ndarray:
        K = el.comp_K(m)
        rng = np.random.default_rng(2024)
        return np.concatenate([rng.uniform(-100.0, 100.0, 24), [K, -K, 3.0 * K, 0.0]])

    @staticmethod
    def reference(x: float, m: float, guess: float) -> tuple[float, float]:
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            mm = mpmath.mpf(m)
            phi = mpmath.findroot(lambda p: mpmath.ellipf(p, mm) - x, mpmath.mpf(guess))
            return float(phi), float(mpmath.ellipe(phi, mm))

    @pytest.mark.parametrize("m", M_VALUES)
    def test_against_mpmath(self, m):
        xs = self.grid(m)
        a = el.am(xs, m)
        e = el.jacobi_epsilon(xs, m)
        for x, a_i, e_i in zip(xs, a, e):
            # Newton starts from the value under test: near m = 1 am is
            # step-like and pi x / (2K) is outside the basin; findroot still
            # verifies its own residual at 40 digits
            phi, eps = self.reference(float(x), m, float(a_i))
            assert abs(a_i - phi) <= 1e-12, (x, m)
            assert abs(e_i - eps) <= 1e-12, (x, m)

    @pytest.mark.parametrize("m", M_VALUES)
    def test_array_equals_scalar(self, m):
        # elementwise up to rounding: Carlson duplication on an array runs
        # until its slowest element converges, and extra steps only move the
        # last bits
        xs = self.grid(m)
        for fn in (el.am, el.jacobi_epsilon):
            scalar = [fn(float(x), m) for x in xs]
            np.testing.assert_allclose(fn(xs, m), scalar, rtol=0.0, atol=1e-14)

    def test_return_types(self):
        m = 0.7
        for fn in (el.am, el.jacobi_epsilon):
            assert type(fn(1.3, m)) is float
            assert type(fn(np.float64(1.3), m)) is float
            out = fn(np.linspace(-3.0, 3.0, 12).reshape(3, 4), m)
            assert isinstance(out, np.ndarray) and out.shape == (3, 4)
            assert fn(np.array([]), m).shape == (0,)
        assert type(el.am(1.3, 0.0)) is float
        assert isinstance(el.am(np.array([1.3, 2.0]), 0.0), np.ndarray)

    def test_domain(self):
        for fn in (el.am, el.jacobi_epsilon):
            with pytest.raises(DomainError):
                fn(np.array([0.0, math.nan]), 0.5)
            with pytest.raises(DomainError):
                fn(np.array([0.0, 1.0]), 1.0)


class TestCarlsonDomain:
    """R_J at the ends of its callers' domain against mpmath at 40 digits,
    with every warning an error: (x, y, 1, p) with x = cn^2 down to 0 and
    subnormal, y = dn^2 down to 1 - M_MAX and p = x + nc (1 - x), nc = 2^k
    with k from -60 to 120 in steps of 5.  TestCallerDomain holds the
    callers to this domain."""

    X = (0.0, 5e-324, 1e-300, 1e-20, 0.3, 1.0)
    Y = (1.0 - el.M_MAX, 1e-4, 0.5, 1.0)
    NC = np.ldexp(1.0, np.arange(-60, 121, 5))
    P_RANGE = (2.0**-60, 2.0**120)  # the p of x = 0, the widest

    @staticmethod
    def close(got, want) -> bool:
        want = float(want)
        return math.isfinite(got) and abs(got - want) <= 1e-14 * abs(want)

    @pytest.mark.parametrize("x", X)
    def test_rj_against_mpmath(self, x):
        """nc = 2^0 gives p = z = 1, where R_J is R_D(x, y, 1), the
        argument of jacobi_epsilon; the other nc are those of _sn2_pi."""
        mpmath = pytest.importorskip("mpmath")
        p = x + self.NC * (1.0 - x)
        with mpmath.workdps(40), warnings.catch_warnings():
            warnings.simplefilter("error")
            for y in self.Y:
                rj = el._rj(x, y, 1.0, p)  # an array, as _sn2_pi calls it
                for g, pk in zip(rj, p.tolist()):
                    assert self.close(g, mpmath.elliprj(x, y, 1.0, pk)), (x, y, pk)
                for pk in p[[0, -1]].tolist():
                    assert self.close(el._rj(x, y, 1.0, pk), mpmath.elliprj(x, y, 1.0, pk)), (x, y, pk)


class TestCallerDomain:
    """Every argument that jacobi_epsilon and _sn2_pi pass to _rj lies in the
    domain TestCarlsonDomain covers, at the ends of the parameters: a caller
    that leaves it fails here."""

    M_VALUES = (5e-324, 1e-8, 0.5, el.M_MAX)
    # (m, w, A): near-planar, near-circular, tiny and huge A, a torus-knot
    # candidate, w within ulps of m and of 1
    PROFILES = [(0.1, 0.9, 1.0), (0.8, 0.95, 1.0), (1e-300, 0.5, 1e-3), (0.5, 0.5 + 4e-16, 1e3),
                (0.686214, 0.902272, 1.0), (0.3, 1.0 - 4e-16, 2.0), (0.1, 1.0 - 1e-10, 1.0)]

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        def spy(*args, f=el._rj):
            seen.append([np.asarray(a, dtype=float) for a in np.broadcast_arrays(*args)])
            return f(*args)
        monkeypatch.setattr(el, "_rj", spy)
        return seen

    @staticmethod
    def check(seen):
        assert seen
        lo, hi = TestCarlsonDomain.P_RANGE
        for x, y, z, p in seen:
            assert (np.maximum(np.maximum(x, y), z) == 1.0).all()
            assert (y >= 1.0 - el.M_MAX).all()
            assert (x <= p).all() and (lo <= p).all() and (p <= hi).all()

    def test_jacobi_epsilon_and_orbitlike(self, calls):
        xs = np.linspace(-30.0, 30.0, 241)
        for m in self.M_VALUES:
            el.jacobi_epsilon(xs, m)
            eval_planar(PlanarElastica("orbitlike", m), xs)
        self.check(calls)

    @pytest.mark.parametrize("profile", PROFILES)
    def test_reconstruct_spatial(self, calls, profile):
        p = CurvatureProfile(*profile)
        period = profile_period(p)
        c = reconstruct_spatial(p, np.eye(3), (-period, 2.0 * period), period / 256)
        assert np.isfinite(c.vertices).all()
        self.check(calls)


class TestThirdKind:
    """Carlson R_J and the third-kind integral of the Jacobi argument against
    mpmath at 40 digits, to the layer's 1e-12 (relative above 1)."""

    @staticmethod
    def close(got: float, want) -> bool:
        return abs(got - float(want)) <= 1e-12 * max(1.0, abs(float(want)))

    def test_rj_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(11)
        args = [rng.uniform(0.0, 2.0, 4) ** 3 + [0.0, 0.0, 0.0, 1e-3] for _ in range(60)]
        args += [[0.0, 0.3, 1.0, 0.5], [0.2, 0.0, 1.0, 50.0], [0.5, 0.5, 0.5, 0.5],
                 [1.0, 2.0, 3.0, 1e-6], [1e-300, 1.0, 1.0, 1e6]]
        x, y, z, p = np.array(args).T
        got = el._rj(x, y, z, p)
        with mpmath.workdps(40):
            for g, a in zip(got, args):
                assert self.close(g, mpmath.elliprj(*a)), a

    def test_sn2_pi_broadcast_rule(self):
        # a scalar x gives a float, an array x its own shape; an array's
        # duplication runs to its slowest element, so a scalar may differ in
        # the last bits
        m = 0.6
        xs = np.linspace(-5.0, 9.0, 12)
        flat = el._sn2_pi(xs, 1.0, m)
        assert flat.shape == (12,)
        assert np.array_equal(el._sn2_pi(xs.reshape(3, 4), 1.0, m), flat.reshape(3, 4))
        for x in (1.3, np.float64(1.3), np.array(1.3)):
            assert type(el._sn2_pi(x, 1.0, m)) is float
        assert el._sn2_pi(float(xs[7]), 1.0, m) == pytest.approx(flat[7], rel=1e-15)
        rows = el._sn2_pi(xs, np.array([[1.0], [0.5]]), m)
        assert rows.shape == (2, 12) and np.allclose(rows[0], flat, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("m", [0.0, 0.5, 0.99])
    def test_pi_against_mpmath(self, m):
        # Pi(n; am x | m) = x + n * _sn2_pi(x, 1 - n, m), on the 2K branches
        # -3..3 of the Jacobi argument
        mpmath = pytest.importorskip("mpmath")
        K = el.comp_K(m)
        rng = np.random.default_rng(5)
        k = np.repeat(np.arange(-3, 4), 3)
        xs = rng.uniform(-K, K, len(k)) + 2.0 * K * k
        ns = np.array([-10.0, 0.0, 0.3, 0.9, 1.0 - 1e-6])
        rest = el._sn2_pi(xs, (1.0 - ns)[:, None], m)
        with mpmath.workdps(40):
            mm = mpmath.mpf(m)
            mK = mpmath.ellipk(mm)
            for x, r0, *rows in zip(xs, rest[1], *rest):
                kk = mpmath.floor(x / (2 * mK) + 0.5)
                phi = mpmath.asin(mpmath.ellipfun("sn", x - 2 * kk * mK, m=mm)) + kk * mpmath.pi
                for n, r in zip(ns, rows):
                    assert self.close(x + n * r, mpmath.ellippi(n, phi, mm)), (x, n, m)
                # at n = 0 the rest is the integral of sn^2
                sn2 = x / 2 - mpmath.sin(2 * x) / 4 if m == 0.0 else (x - mpmath.ellipe(phi, mm)) / mm
                assert self.close(r0, sn2), (x, m)


def landen_chain(m: float) -> list[tuple[float, float]]:
    # legs (a_n, b_n) of the AGM of 1 and sqrt(1 - m) up to the first with
    # |a - b| <= 1e-8 a, built on its own
    a, b = 1.0, math.sqrt(1.0 - m)
    legs = [(a, b)]
    while abs(a - b) > 1e-8 * a:
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        legs.append((a, b))
    return legs


def reference_sncndn(u: np.ndarray, m: float):
    # the descending Landen transformation on its own chain, step for step
    # as in sncndn, so the two must agree bit for bit
    legs = landen_chain(m)
    cmid = 0.5 * (legs[-1][0] + legs[-1][1])
    v = cmid * u
    s, c = np.sin(v), np.cos(v)
    d = np.ones_like(v)
    tiny = np.abs(u) < 1e-8
    a = c / np.where(tiny, 1.0, s)
    cc = cmid * a
    for ai, bi in reversed(legs):
        a = a * cc
        cc = cc * d
        d = (bi + a) / (ai + a)
        a = cc / ai
    amp = 1.0 / np.sqrt(cc * cc + 1.0)
    s_out = np.where(s >= 0.0, amp, -amp)
    return np.where(tiny, u, s_out), np.where(tiny, 1.0, cc * s_out), np.where(tiny, 1.0, d)


AGM_GRID = [5e-324, 1e-16, 1e-9, 0.1, 0.5, 0.8261, 0.99, 1 - 1e-6, el.M_MAX]


class TestOneAGM:
    @pytest.mark.parametrize("m", AGM_GRID)
    def test_descent_legs_are_a_prefix_of_the_agm(self, m):
        # sncndn descends through the AGM legs up to the first gap within
        # 1e-8; the AGM's own eps stop comes at most one leg later
        legs = el._agm(m)[2]
        chain = landen_chain(m)
        assert legs[: len(chain)] == chain
        assert len(legs) - len(chain) in (0, 1)

    @pytest.mark.parametrize("m", AGM_GRID)
    def test_sncndn_bit_for_bit(self, m):
        u = np.concatenate([[0.0, 1e-300, -1e-9, 1e-8], np.random.default_rng(5).uniform(-100, 100, 500)])
        for got, want in zip(el.sncndn(u, m), reference_sncndn(u, m)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("call", [
        lambda x, m: el.jacobi_epsilon(x, m), lambda x, m: el.am(x, m),
        lambda x, m: el._sn2_pi(x, 1.0, m),
        lambda x, m: el._sn2_pi(np.atleast_1d(x), np.array([[0.3], [2.0]]), m),
        lambda x, m: el.sncndn(x, m),
    ], ids=["jacobi_epsilon", "am", "sn2_pi", "sn2_pi_rows", "sncndn"])
    @pytest.mark.parametrize("m", [1e-9, 0.5, 0.8261, el.M_MAX])
    def test_one_agm_per_call(self, call, m, monkeypatch):
        # K, E/K and the descent's legs all come from one AGM of the call
        x = np.linspace(-30.0, 30.0, 256)
        agm, calls = el._agm, []
        monkeypatch.setattr(el, "_agm", lambda m: calls.append(m) or agm(m))
        for u in (x, 1.7):
            calls.clear()
            call(u, m)
            assert calls == [m]


M, X = 0.7, 0.6
# every float parameter of elliptic.__all__
FLOAT_CONTRACTS = {
    **{
        (f.__name__, "x"): (lambda v, f=f: f(v, M), {0.0: is_(zero), -1.0: mirrored(*signs)})
        for f, zero, signs in [
            (el.am, 0.0, (-1,)), (el.sn, 0.0, (-1,)), (el.cn, 1.0, (1,)), (el.dn, 1.0, (1,)),
            (el.sncndn, (0.0, 1.0, 1.0), (-1, 1, 1)), (el.jacobi_epsilon, 0.0, (-1,)),
        ]
    },
    **{
        (f.__name__, "m"): (lambda v, f=f: f(X, v), {0.0: is_(at_zero, rtol=1e-15)})
        for f, at_zero in [
            (el.am, X), (el.sn, math.sin(X)), (el.cn, math.cos(X)), (el.dn, 1.0),
            (el.sncndn, (math.sin(X), math.cos(X), 1.0)), (el.jacobi_epsilon, X),
        ]
    },
    ("comp_K", "m"): (el.comp_K, {0.0: is_(math.pi / 2)}),
    ("comp_E", "m"): (el.comp_E, {0.0: is_(math.pi / 2)}),
}


class TestInputContracts:
    def test_table_covers_every_float_parameter(self):
        assert float_parameters(el) == set(FLOAT_CONTRACTS)

    @contract_cases(FLOAT_CONTRACTS)
    def test_float_parameter(self, key, value):
        check_contract(FLOAT_CONTRACTS, key, value)
