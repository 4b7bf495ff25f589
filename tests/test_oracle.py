import math

import numpy as np
import pytest

import gausspack as gp
from gausspack import (
    HBAR,
    InvalidParameterError,
    MinPacketSpec,
    RealParams,
    ToleranceError,
)
from gausspack.oracle import minimize as minimize_module
from gausspack.oracle.minimize import _nelder_mead, minimize_free
from gausspack.oracle.moments import (
    expectation,
    integration_box,
    norm_integral,
    wigner_fourth_moment,
)
from gausspack.oracle.observables import (
    angular_momentum_op,
    momentum_monomial,
    oscillator_hamiltonian_op,
    position_monomial,
)
from gausspack.oracle import moments as moments_module
from gausspack.oracle import propagate as propagate_module
from gausspack.oracle.overlap import overlap_integral, overlap_integrals
from gausspack.packet import log_normalization
from gausspack.oracle.propagate import (
    propagate_free,
    propagate_magnetic,
    propagate_oscillator,
)
from gausspack.oracle import quadrature as quadrature_module
from gausspack.oracle.quadrature import (
    QuadratureSpec,
    gauss_legendre_1d,
    gauss_legendre_2d,
    integrate_adaptive,
)
from gausspack.verify import CHECKS


GENERIC = RealParams(mu=1.1, alpha=1.3, beta=0.4, gamma=0.9, chi_a=-0.5,
                     chi_c=0.7, rho=0.3, f1=0.6, f2=-0.3, g1=0.2, g2=0.8)


#: Strongly displaced and chirped: its moment integrands oscillate across a wide box.
DISPLACED = RealParams(mu=1.0, alpha=0.6, beta=-0.3, gamma=1.8, chi_a=1.2,
                       chi_c=-0.9, rho=0.8, f1=2.5, f2=1.7, g1=-1.9, g2=-1.4)


#: A minimal packet whose internal and centre motions rotate in opposite senses.
ANTI = MinPacketSpec(l_i_abs=0.6, l_c_abs=0.9, sign_i=1, sign_c=-1, u=0.5, v=2.0, omega=0.9)


def minimal_packet(l_i, u=0.0, l_c=0.0):
    return gp.build_min_packet(
        MinPacketSpec(l_i_abs=l_i, l_c_abs=l_c, sign_i=1, sign_c=1, u=u, v=0.0, omega=1.0)
    )


# The propagator kernels K(r, r'; t) written out whole (unit mass), as a
# reference for the per-target factors the oracle integrates with.
def full_free_kernel(t, x, y, xs, ys):
    pref = 1.0 / (2.0 * math.pi * 1j * HBAR * t)
    return pref * np.exp(1j / (2.0 * HBAR * t) * ((x - xs) ** 2 + (y - ys) ** 2))


def full_oscillator_kernel(t, omega, x, y, xs, ys):
    s, c = math.sin(omega * t), math.cos(omega * t)
    pref = omega / (2.0 * math.pi * 1j * HBAR * s)
    coef = 1j * omega / (2.0 * HBAR * s)
    return pref * np.exp(coef * (c * (x * x + y * y + xs**2 + ys**2) - 2.0 * (x * xs + y * ys)))


def full_magnetic_kernel(t, omega_l, x, y, xs, ys):
    s = math.sin(omega_l * t)
    cot = math.cos(omega_l * t) / s
    pref = omega_l / (2.0 * math.pi * 1j * HBAR * s)
    coef = 1j * omega_l / (2.0 * HBAR)
    sq = (x - xs) ** 2 + (y - ys) ** 2
    return pref * np.exp(coef * (cot * sq - 2.0 * (x * ys - y * xs)))


@pytest.fixture
def rule_passes(monkeypatch):
    """Boxes of every ``gauss_legendre_2d`` call the engine makes."""
    calls = []

    def counting(f, box, order):
        calls.append(box)
        return gauss_legendre_2d(f, box, order)

    monkeypatch.setattr(quadrature_module, "gauss_legendre_2d", counting)
    return calls


@pytest.fixture
def rule_passes_1d(monkeypatch):
    """Intervals of every ``gauss_legendre_1d`` call the engine makes."""
    calls = []

    def counting(f, interval, order):
        calls.append(interval)
        return gauss_legendre_1d(f, interval, order)

    monkeypatch.setattr(quadrature_module, "gauss_legendre_1d", counting)
    return calls


class TestQuadrature:
    def test_gaussian_integral(self):
        val = integrate_adaptive(
            lambda x, y: np.exp(-(x**2) - y**2), (-9.0, 9.0, -9.0, 9.0)
        )
        assert val.real == pytest.approx(math.pi, rel=1e-13)
        assert val.imag == 0.0

    def test_polynomial_exactness(self):
        val = gauss_legendre_2d(lambda x, y: x**4 * y**2, (0.0, 1.0, 0.0, 2.0), order=8)
        assert val.real == pytest.approx((1.0 / 5.0) * (8.0 / 3.0), rel=1e-14)

    def test_unresolvable_integrand_raises(self):
        spec = QuadratureSpec(order=2, refined_order=3, abs_tol=1e-15, max_splits=0)
        with pytest.raises(ToleranceError):
            integrate_adaptive(lambda x, y: np.cos(40.0 * x * y), (-3.0, 3.0, -3.0, 3.0), spec)

    def test_narrow_off_centre_gaussian(self):
        s, (a, b) = 0.05, (3.3, -6.1)
        val = integrate_adaptive(
            lambda x, y: np.exp(-((x - a) ** 2 + (y - b) ** 2) / s**2), (-10.0, 10.0, -10.0, 10.0)
        )
        assert abs(val - math.pi * s**2) <= 1e-13

    def test_unmet_budget_raises_after_every_split(self, rule_passes):
        spec = QuadratureSpec(order=2, refined_order=3, abs_tol=1e-15, max_splits=2)
        with pytest.raises(ToleranceError, match="exceeds budget"):
            integrate_adaptive(lambda x, y: np.cos(40.0 * x * y), (-3.0, 3.0, -3.0, 3.0), spec)
        # Two rules on each of the 1 + 4 + 16 panels down to max_splits.
        assert len(rule_passes) == 2 * 21

    def test_displaced_chirped_moment_takes_few_rule_passes(
        self, cold_cache, rule_passes, rule_passes_1d
    ):
        val = expectation(DISPLACED, angular_momentum_op())
        assert val.real == pytest.approx(HBAR * gp.angular_split(DISPLACED).total, abs=1e-10)
        assert rule_passes == []
        # Bisecting every panel above its area share of abs_tol took 850
        # 2-D passes.
        assert len(rule_passes_1d) <= 100
        # One axis integral, its first interval and one split: 66 2-D passes
        # when ⟨L⟩ had an integral of its own, 10 for the 2-D moment matrix.
        assert len(rule_passes_1d) == 6

    def test_displaced_angular_momentum_squared_takes_few_rule_passes(
        self, cold_cache, rule_passes, rule_passes_1d
    ):
        obs = angular_momentum_op().squared()
        val = expectation(DISPLACED, obs)
        # An absolute abs_tol on the whole value of about 687 took 826 2-D
        # passes, centred moments on the axis-aligned box 18, and the 2-D
        # moment matrix in the principal frame 10.
        assert rule_passes == []
        assert len(rule_passes_1d) <= 6
        assert abs(val - dense_grid_expectation(DISPLACED, obs)) <= frame_error_bound(
            DISPLACED, obs
        )

    def test_integrand_gets_read_only_views_of_the_node_axes(self):
        box, order = (-1.0, 3.0, 0.5, 2.0), 6
        t, _ = np.polynomial.legendre.leggauss(order)
        seen = []

        def f(x, y):
            seen.append((x, y))
            return np.ones(x.shape)

        assert gauss_legendre_2d(f, box, order) == pytest.approx(6.0, rel=1e-14)
        (x, y), = seen
        assert x.shape == y.shape == (order, order)
        assert np.array_equal(x[:, :1], (2.0 * t + 1.0)[:, None])
        assert np.array_equal(y[:1, :], (0.75 * t + 1.25)[None, :])
        assert np.array_equal(x, np.broadcast_to(x[:, :1], x.shape))
        assert np.array_equal(y, np.broadcast_to(y[:1, :], y.shape))
        for grid in (x, y):
            with pytest.raises(ValueError):
                grid[0, 0] = 0.0
            with pytest.raises(ValueError):
                grid *= 2.0

    @pytest.mark.parametrize("params, kernel", [
        (GENERIC, lambda x, y, xs, ys: full_free_kernel(0.9, x, y, xs, ys)),
        (gp.build_min_packet(ANTI), lambda x, y, xs, ys: full_oscillator_kernel(1.1, 0.9, x, y, xs, ys)),
        (GENERIC, lambda x, y, xs, ys: full_magnetic_kernel(0.8, -0.9, x, y, xs, ys)),
    ], ids=["free", "oscillator", "magnetic"])
    def test_stacked_integrand_matches_scalar_calls(self, rng, params, kernel):
        box = integration_box(params)
        pts = rng.uniform(-1.5, 1.5, size=(6, 2))

        def one(x, y, xs, ys):
            return kernel(x, y, xs, ys) * gp.wavefunction(params, xs, ys)

        stacked = integrate_adaptive(lambda xs, ys: np.stack([one(x, y, xs, ys) for x, y in pts]), box)
        assert stacked.shape == (6,)
        for k, (x, y) in enumerate(pts):
            scalar = integrate_adaptive(lambda xs, ys: one(x, y, xs, ys), box)
            assert abs(stacked[k] - scalar) <= 1e-14

    def test_one_component_over_budget_raises(self):
        spec = QuadratureSpec(order=2, refined_order=3, abs_tol=1e-12, max_splits=0)
        box = (-3.0, 3.0, -3.0, 3.0)
        # Both rules integrate these polynomials exactly.
        exact = integrate_adaptive(lambda x, y: np.stack([1.0 + x * y, 2.0 + x]), box, spec)
        assert exact == pytest.approx([36.0, 72.0], abs=1e-12)
        with pytest.raises(ToleranceError):
            integrate_adaptive(
                lambda x, y: np.stack([1.0 + x * y, np.cos(40.0 * x * y)]), box, spec
            )

    def test_empty_stack_gives_empty_array(self):
        val = integrate_adaptive(lambda x, y: np.empty((0,) + x.shape), (0.0, 1.0, 0.0, 1.0))
        assert isinstance(val, np.ndarray) and val.shape == (0,)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_integrand_raises(self, bad):
        spec = QuadratureSpec(max_splits=3)
        with pytest.raises(ToleranceError, match="not finite"):
            integrate_adaptive(lambda x, y: np.full(x.shape, bad), (-1.0, 1.0, -1.0, 1.0), spec)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_stacked_integrand_raises_without_warning(self, bad):
        spec = QuadratureSpec(max_splits=3)
        box = (-1.0, 1.0, -1.0, 1.0)
        # A stacked inf in both rules made the error estimate inf - inf, and
        # NumPy warned about it before the ToleranceError.
        with pytest.raises(ToleranceError, match="not finite"):
            integrate_adaptive(
                lambda x, y: np.stack([np.exp(-(x**2) - y**2), np.full(x.shape, bad)]), box, spec
            )
        # An inf and a -inf in one contraction: inf + -inf.
        with pytest.raises(ToleranceError, match="not finite"):
            integrate_adaptive(
                lambda x, y: np.stack([np.where(x < -0.5, -bad, bad)]), box, spec
            )

    def test_non_finite_node_raises(self):
        def f(x, y):
            return np.where(x > 0.5, math.nan, np.exp(-(x**2) - y**2))

        with pytest.raises(ToleranceError, match="not finite"):
            integrate_adaptive(f, (-3.0, 3.0, -3.0, 3.0))
        with pytest.raises(ToleranceError, match="not finite"):
            integrate_adaptive(lambda x, y: np.stack([np.exp(-(x**2) - y**2), f(x, y)]),
                               (-3.0, 3.0, -3.0, 3.0))

    def test_bad_box_rejected(self):
        with pytest.raises(InvalidParameterError):
            integrate_adaptive(lambda x, y: x, (1.0, 1.0, 0.0, 1.0))
        with pytest.raises(InvalidParameterError):
            integrate_adaptive(lambda x, y: x, (0.0, math.nan, 0.0, 1.0))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(order=8, refined_order=8)
        with pytest.raises(ValueError):
            QuadratureSpec(abs_tol=0.0)

    @pytest.mark.parametrize(
        "kwargs", [{"order": 1}, {"order": 8, "refined_order": 8}, {"abs_tol": math.nan}]
    )
    def test_spec_errors_are_invalid_parameter_errors(self, kwargs):
        with pytest.raises(InvalidParameterError):
            QuadratureSpec(**kwargs)

    @pytest.mark.parametrize(
        "field, value",
        [("order", 32.5), ("refined_order", 48.5), ("max_splits", 2.5),
         ("abs_tol", math.inf), ("half_width_sigmas", math.inf), ("order", "32"),
         ("max_splits", True)],
    )
    def test_spec_refuses_values_it_cannot_honour(self, field, value):
        with pytest.raises(InvalidParameterError, match=field):
            QuadratureSpec(**{field: value})

    def test_spec_takes_integer_valued_reals_as_integers(self):
        spec = QuadratureSpec(order=32.0, refined_order=np.float64(48.0), max_splits=np.int64(7))
        assert spec == QuadratureSpec()
        assert all(type(n) is int for n in (spec.order, spec.refined_order, spec.max_splits))
        box = (-3.0, 3.0, -3.0, 3.0)
        gauss = lambda x, y: np.exp(-(x**2) - y**2)  # noqa: E731
        assert integrate_adaptive(gauss, box, spec) == integrate_adaptive(gauss, box)

    def test_spec_defaults_are_unchanged(self):
        spec = QuadratureSpec()
        assert (spec.order, spec.refined_order, spec.abs_tol, spec.max_splits,
                spec.half_width_sigmas) == (32, 48, 1e-13, 7, 8.5)
        assert propagate_module._PROP_QUAD == QuadratureSpec(
            abs_tol=1e-12, max_splits=12, half_width_sigmas=10.5
        )


class TestQuadrature1D:
    """The engine on an interval: the same QAG loop, spec and errors as on a rectangle."""

    @pytest.mark.parametrize("order", [4, 8, 32])
    def test_rule_is_exact_to_degree_2n_minus_1(self, order):
        degrees = np.arange(2 * order)
        val = gauss_legendre_1d(lambda x: np.sum(x[None, :] ** degrees[:, None], axis=0),
                                (0.0, 1.0), order)
        assert val.real == pytest.approx(np.sum(1.0 / (degrees + 1.0)), rel=1e-14)
        assert val.imag == 0.0

    def test_rule_has_n_nodes(self):
        # Degree 2n is not integrated exactly: with 4 nodes, x^8 on [0, 2]
        # misses by 0.0116.
        val = gauss_legendre_1d(lambda x: x**8, (0.0, 2.0), 4)
        assert abs(val.real - 2.0**9 / 9.0) > 1e-2

    def test_gaussian_integral(self):
        val = integrate_adaptive(lambda x: np.exp(-(x**2)), (-9.0, 9.0))
        assert val.real == pytest.approx(math.sqrt(math.pi), rel=1e-14)

    def test_stacked_components_share_one_partition(self, rule_passes_1d):
        hard = lambda x: np.exp((-0.25 + 3j) * x**2 + 2j * x)  # noqa: E731
        easy = lambda x: (1.0 + x) * np.exp(-(x**2))  # noqa: E731
        interval = (-10.5, 10.5)
        alone = integrate_adaptive(hard, interval)
        hard_passes = sorted(rule_passes_1d)
        rule_passes_1d.clear()
        stacked = integrate_adaptive(lambda x: np.stack([hard(x), easy(x)]), interval)
        assert stacked.shape == (2,)
        # The smooth component rides on the oscillating one's partition.
        assert sorted(rule_passes_1d) == hard_passes
        assert len(hard_passes) > 2
        assert abs(stacked[0] - alone) <= 1e-14
        assert abs(stacked[1] - math.sqrt(math.pi)) <= QuadratureSpec().abs_tol

    def test_unmet_budget_raises_after_every_split(self, rule_passes_1d):
        spec = QuadratureSpec(order=2, refined_order=3, abs_tol=1e-15, max_splits=3)
        with pytest.raises(ToleranceError, match="exceeds budget"):
            integrate_adaptive(lambda x: np.cos(40.0 * x), (-3.0, 3.0), spec)
        # Two rules on each of the 1 + 2 + 4 + 8 intervals down to max_splits.
        assert len(rule_passes_1d) == 2 * 15

    def test_one_component_over_budget_raises(self):
        spec = QuadratureSpec(order=2, refined_order=3, abs_tol=1e-12, max_splits=0)
        # Both rules integrate these polynomials exactly.
        exact = integrate_adaptive(lambda x: np.stack([1.0 + x, 2.0 + x**2]), (-3.0, 3.0), spec)
        assert exact == pytest.approx([6.0, 30.0], abs=1e-12)
        with pytest.raises(ToleranceError):
            integrate_adaptive(
                lambda x: np.stack([1.0 + x, np.cos(40.0 * x)]), (-3.0, 3.0), spec
            )

    # No NumPy warning either: an inf in both rules once made the error
    # estimate inf - inf, and an inf and a -inf in one contraction inf + -inf.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_raises(self, bad):
        def f(x):
            return np.where(x > 0.5, bad, np.exp(-(x**2)))

        with pytest.raises(ToleranceError, match="not finite"):
            integrate_adaptive(f, (-3.0, 3.0))
        with pytest.raises(ToleranceError, match="not finite"):
            integrate_adaptive(lambda x: np.stack([np.exp(-(x**2)), f(x)]), (-3.0, 3.0))
        with pytest.raises(ToleranceError, match="not finite"):
            integrate_adaptive(lambda x: np.stack([np.where(x < -0.5, -bad, f(x))]), (-3.0, 3.0))

    def test_empty_stack_gives_empty_array(self):
        val = integrate_adaptive(lambda x: np.empty((0,) + x.shape), (0.0, 1.0))
        assert isinstance(val, np.ndarray) and val.shape == (0,)

    @pytest.mark.parametrize(
        "interval", [(1.0, 1.0), (2.0, 1.0), (0.0, math.nan), (math.nan, 1.0), (0.0, 1.0, 2.0)]
    )
    def test_bad_interval_rejected(self, interval):
        with pytest.raises(InvalidParameterError):
            integrate_adaptive(lambda x: x, interval)


class TestObservableAlgebra:
    def test_canonical_commutator(self):
        x = position_monomial(1, 0)
        px = momentum_monomial(1, 0)
        commutator = x * px - px * x
        assert commutator.terms == {(0, 0, 0, 0): 1j * HBAR}

    def test_cross_components_commute(self):
        x = position_monomial(1, 0)
        py = momentum_monomial(0, 1)
        assert (x * py - py * x).terms == {}

    def test_normal_ordering_of_product(self):
        # Px x^2 = x^2 Px - 2 i hbar x
        out = momentum_monomial(1, 0) * position_monomial(2, 0)
        assert out.terms == {(2, 0, 1, 0): 1.0, (1, 0, 0, 0): -2j * HBAR}

    def test_angular_momentum_squared_is_hermitian_polynomial(self):
        squared = angular_momentum_op().squared()
        # x^2Py^2 + y^2Px^2 - 2 xyPxPy + i hbar (xPx + yPy) term bookkeeping:
        # reordering yPx xPy produces the linear corrections.
        assert squared.terms[(2, 0, 0, 2)] == 1.0
        assert squared.terms[(0, 2, 2, 0)] == 1.0
        assert squared.terms[(1, 1, 1, 1)] == -2.0
        assert squared.degree == 4

    def test_scalar_multiplication(self):
        ham = oscillator_hamiltonian_op(mass=2.0, omega=3.0)
        doubled = 2.0 * ham
        assert doubled.terms[(0, 0, 2, 0)] == pytest.approx(0.5)
        assert doubled.terms[(2, 0, 0, 0)] == pytest.approx(18.0)


class TestExpectation:
    def test_norm_and_first_moments(self):
        assert norm_integral(GENERIC) == pytest.approx(1.0, abs=1e-11)
        x0, y0, px0, py0 = gp.first_moments(GENERIC)
        assert expectation(GENERIC, position_monomial(1, 0)).real == pytest.approx(x0, abs=1e-11)
        assert expectation(GENERIC, momentum_monomial(0, 1)).real == pytest.approx(py0, abs=1e-11)

    def test_second_moments_match_covariances(self):
        cov = gp.covariances(GENERIC)
        x0, y0, px0, py0 = gp.first_moments(GENERIC)
        xsq = expectation(GENERIC, position_monomial(2, 0)).real
        assert xsq - x0**2 == pytest.approx(cov[0, 0], abs=1e-11)
        xpy = expectation(GENERIC, position_monomial(1, 0) * momentum_monomial(0, 1)).real
        assert xpy - x0 * py0 == pytest.approx(cov[0, 3], abs=1e-11)

    def test_angular_momentum_expectation(self):
        val = expectation(GENERIC, angular_momentum_op())
        assert val.imag == pytest.approx(0.0, abs=1e-11)
        assert val.real == pytest.approx(HBAR * gp.angular_split(GENERIC).total, abs=1e-10)

    def test_integration_box_covers_displaced_packet(self):
        x0, x1, y0, y1 = integration_box(GENERIC)
        cx, cy, _, _ = gp.first_moments(GENERIC)
        assert x0 < cx < x1 and y0 < cy < y1


def dense_grid_expectation(params, obs):
    """``expectation`` as an independent reference: the polynomial summed
    monomial by monomial on dense copies of the node grids, one adaptive
    integral per observable."""
    poly = moments_module._observable_polynomial(params, obs)

    def integrand(x, y):
        x, y = np.array(x), np.array(y)
        out = np.zeros(x.shape, dtype=complex)
        for (i, j), c in poly.items():
            out += c * x**i * y**j
        return out * gp.density(params, x, y)

    return integrate_adaptive(integrand, integration_box(params))


def frame_coefficients(params, obs, frame):
    """``C''``: the observable's polynomial composed with the frame map
    ``x = cx + T00 xi + T01 eta``, ``y = cy + T10 xi + T11 eta``, expanded
    term by term by the multinomial theorem."""
    ((t00, t01), (t10, t11)), (cx, cy) = frame

    def linear_power(const, along_xi, along_eta, n):
        return {
            (a, b): math.factorial(n) // (math.factorial(a) * math.factorial(b)
                                          * math.factorial(n - a - b))
            * const ** (n - a - b) * along_xi**a * along_eta**b
            for a in range(n + 1) for b in range(n + 1 - a)
        }

    out = {}
    for (i, j), c in moments_module._observable_polynomial(params, obs).items():
        for (a1, b1), u in linear_power(cx, t00, t01, i).items():
            for (a2, b2), v in linear_power(cy, t10, t11, j).items():
                key = (a1 + a2, b1 + b2)
                out[key] = out.get(key, 0.0) + c * u * v
    return out


def frame_error_bound(params, obs, quad=None):
    """``10 abs_tol (1 + sum_ab |C''_ab|)``, with ``C''`` the observable's
    polynomial in the packet's principal frame and ``abs_tol`` that of
    ``quad`` (the default spec's by default).

    Each frame moment's summed error estimate is within ``10 abs_tol``, so
    this bounds ``expectation``'s error; the 1 covers the reference's own.
    """
    coeffs = frame_coefficients(params, obs, moments_module._principal_frame(params))
    abs_tol = (quad or QuadratureSpec()).abs_tol
    return 10.0 * abs_tol * (1.0 + sum(abs(c) for c in coeffs.values()))


def truncated_normal_moments(h, width):
    """``m_a = int xi^a exp(-xi^2 / 2) / sqrt(2 pi)`` over ``[-h, h]`` for
    ``a < width``, in closed form: ``m_0 = erf(h / sqrt 2)``, the odd ones
    vanish, and by parts ``m_a = (a - 1) m_{a-2} - 2 h^{a-1} phi(h)``."""
    phi = math.exp(-0.5 * h * h) / math.sqrt(2.0 * math.pi)
    m = [math.erf(h / math.sqrt(2.0)), 0.0]
    for a in range(2, width):
        m.append((a - 1) * m[a - 2] - (2.0 * h ** (a - 1) * phi if a % 2 == 0 else 0.0))
    return np.array(m[:width])


_X, _PX = position_monomial(1, 0), momentum_monomial(1, 0)
REFERENCE_OBSERVABLES = {
    "x": _X,
    "px": _PX,
    "x2": position_monomial(2, 0),
    "x_px_sym": 0.5 * (_X * _PX + _PX * _X),
    "L": angular_momentum_op(),
    "L2": angular_momentum_op().squared(),
}

_COORDS = (position_monomial(1, 0), position_monomial(0, 1),
           momentum_monomial(1, 0), momentum_monomial(0, 1))
#: The 4 first moments and the 10 symmetrised second moments.
MOMENT_OBSERVABLES = _COORDS + tuple(
    0.5 * (_COORDS[i] * _COORDS[j] + _COORDS[j] * _COORDS[i])
    for i in range(4) for j in range(i, 4)
)
#: The moments, then ⟨L⟩ and ⟨L²⟩; ``None`` stands for the norm.
ALL_INTEGRALS = MOMENT_OBSERVABLES + (
    None, angular_momentum_op(), angular_momentum_op().squared()
)


def integrals_in_order(params, indices):
    """``{index: value}`` of :data:`ALL_INTEGRALS`, computed in ``indices`` order."""
    out = {}
    for k in indices:
        obs = ALL_INTEGRALS[k]
        out[k] = norm_integral(params) if obs is None else expectation(params, obs)
    return out


def clear_moment_caches():
    for cache in (moments_module._axis_moments, moments_module._frame_powers,
                  moments_module._principal_frame):
        cache.cache_clear()


@pytest.fixture
def cold_cache():
    clear_moment_caches()
    yield
    clear_moment_caches()


@pytest.fixture
def integral_calls(monkeypatch, cold_cache):
    """Intervals of every adaptive integral the moments module starts."""
    calls = []

    def counting(f, box, spec=None):
        calls.append(box)
        return integrate_adaptive(f, box, spec)

    monkeypatch.setattr(moments_module, "integrate_adaptive", counting)
    return calls


class TestFrameMoments:
    """One axis integral per spec and width serves every packet's moments."""

    ALL = tuple(range(len(ALL_INTEGRALS)))

    @pytest.mark.parametrize(
        "params", [DISPLACED, GENERIC, gp.build_min_packet(ANTI)],
        ids=["displaced", "generic", "anti"],
    )
    @pytest.mark.parametrize("name", list(REFERENCE_OBSERVABLES))
    def test_within_error_bound_of_dense_reference(self, params, name):
        obs = REFERENCE_OBSERVABLES[name]
        error = abs(expectation(params, obs) - dense_grid_expectation(params, obs))
        assert error <= frame_error_bound(params, obs)

    @pytest.mark.parametrize("params", [DISPLACED, GENERIC], ids=["displaced", "generic"])
    def test_moments_match_closed_forms(self, params):
        values = integrals_in_order(params, range(len(MOMENT_OBSERVABLES) + 1))
        firsts = np.array([values[k].real for k in range(4)])
        assert firsts == pytest.approx(np.array(gp.first_moments(params)), abs=1e-11)
        cov = gp.covariances(params)
        k = 4
        for i in range(4):
            for j in range(i, 4):
                central = values[k].real - firsts[i] * firsts[j]
                assert central == pytest.approx(cov[i, j], abs=1e-11)
                k += 1
        assert values[k] == pytest.approx(1.0, abs=1e-11)

    @pytest.fixture(scope="class")
    def reference(self):
        """Every value computed from an empty cache."""
        out = {}
        for params in (DISPLACED, GENERIC):
            out[params] = {}
            for k in self.ALL:
                clear_moment_caches()
                out[params].update(integrals_in_order(params, [k]))
        clear_moment_caches()
        return out

    @pytest.mark.parametrize("params", [DISPLACED, GENERIC], ids=["displaced", "generic"])
    @pytest.mark.parametrize(
        "scenario", ["cold", "warm", "reversed", "interleaved", "equal_copy"]
    )
    def test_values_do_not_depend_on_history(self, reference, cold_cache, params, scenario):
        other = GENERIC if params is DISPLACED else DISPLACED
        if scenario == "warm":
            integrals_in_order(params, self.ALL)
        elif scenario == "interleaved":
            integrals_in_order(params, self.ALL)
            assert integrals_in_order(other, self.ALL) == reference[other]
        elif scenario == "equal_copy":
            integrals_in_order(params, self.ALL)
            params = gp.RealParams(**vars(params))
        # ``reversed`` starts with ⟨L²⟩, whose wider axis moments must not serve the rest.
        indices = self.ALL[::-1] if scenario == "reversed" else self.ALL
        # Bit for bit: no tolerance.
        assert integrals_in_order(params, indices) == reference[params]

    def test_one_integral_per_spec_and_width(self, integral_calls):
        integrals_in_order(DISPLACED, range(len(MOMENT_OBSERVABLES) + 2))
        assert len(integral_calls) == 1
        expectation(DISPLACED, angular_momentum_op().squared())
        assert len(integral_calls) == 2
        integrals_in_order(DISPLACED, self.ALL)
        assert len(integral_calls) == 2
        # A second packet reuses both.
        integrals_in_order(GENERIC, self.ALL)
        assert len(integral_calls) == 2

    def test_a_different_spec_gets_its_own_entry(self, integral_calls):
        coarse = QuadratureSpec(abs_tol=1e-12)
        x = expectation(GENERIC, _X)
        assert expectation(GENERIC, _X, quad=coarse) == pytest.approx(x, abs=1e-11)
        assert len(integral_calls) == 2
        assert expectation(GENERIC, _X, quad=QuadratureSpec()) == x
        assert len(integral_calls) == 2

    AXIS_SPECS = {
        "default": QuadratureSpec(),
        "narrow": QuadratureSpec(half_width_sigmas=4.0),
        "coarse": QuadratureSpec(order=8, refined_order=12, abs_tol=1e-11),
        "split": QuadratureSpec(order=4, refined_order=6, abs_tol=1e-12, max_splits=10),
    }

    @pytest.mark.parametrize("spec", list(AXIS_SPECS))
    @pytest.mark.parametrize("width", [3, 5])
    def test_axis_moments_meet_their_budget(self, cold_cache, width, spec):
        quad = self.AXIS_SPECS[spec]
        want = truncated_normal_moments(quad.half_width_sigmas, width)
        axis = moments_module._axis_moments(quad, width)
        assert axis.shape == (width,)
        # Each m_a's share: abs_tol / (2 (width - 2)!!), raised above 10 times.
        share = quad.abs_tol / (2.0 * math.prod(range(width - 2, 0, -2)))
        assert np.all(np.abs(axis - want) <= 10.0 * share)
        # Every moment an observable of this width reads meets abs_tol.
        matrix = moments_module._frame_moments(GENERIC, quad, width)
        read = np.add.outer(np.arange(width), np.arange(width)) < width
        assert np.all(np.abs(matrix - np.outer(want, want))[read] <= quad.abs_tol)

    @pytest.mark.parametrize("change", ["order", "half_width", "tolerance", "all"])
    def test_values_do_not_depend_on_the_spec(self, change, integral_calls):
        params = minimal_packet(100.0, u=0.7)
        fields = {
            "order": dict(order=24, refined_order=40),
            "half_width": dict(half_width_sigmas=10.0),
            "tolerance": dict(abs_tol=1e-12),
        }
        fields["all"] = {k: v for d in list(fields.values()) for k, v in d.items()}
        quad = QuadratureSpec(**fields[change])
        norm = norm_integral(params, quad)
        observables = [obs for obs in ALL_INTEGRALS if obs is not None]
        values = [expectation(params, obs, quad) for obs in observables]
        # One axis integral per width, over [-h, h] of this spec.
        assert len(integral_calls) == 2
        for interval in integral_calls:
            np.testing.assert_allclose(interval, [-quad.half_width_sigmas,
                                                  quad.half_width_sigmas], rtol=1e-15)
        assert norm == pytest.approx(norm_integral(params), abs=20.0 * quad.abs_tol)
        for obs, got in zip(observables, values):
            bound = frame_error_bound(params, obs, quad) + frame_error_bound(params, obs)
            assert abs(got - expectation(params, obs)) <= bound

    def test_moment_matrix_and_powers_are_read_only(self, cold_cache):
        moments = moments_module._frame_moments(GENERIC, QuadratureSpec(), 3)
        assert moments.shape == (3, 3)
        assert moments[0, 0] == pytest.approx(1.0, abs=1e-12)
        # The cached arrays are shared by every caller.
        axis = moments_module._axis_moments(QuadratureSpec(), 3)
        assert axis.shape == (3,)
        powers = moments_module._frame_powers(moments_module._principal_frame(GENERIC), 3)
        for array in (axis, powers):
            with pytest.raises(ValueError):
                array[0] = 0.0

    @pytest.mark.parametrize("width", [3, 5])
    def test_frame_powers_match_multinomial_expansion(self, width):
        frame = ((0.7, -1.3), (0.4, 2.1)), (1.5, -0.8)
        powers = moments_module._frame_powers(frame, width)
        assert powers.shape == (width,) * 4
        for i in range(width):
            for j in range(width):
                want = np.zeros((width, width), dtype=complex)
                if i + j < width:
                    for key, c in frame_coefficients(
                        DISPLACED, position_monomial(i, j), frame
                    ).items():
                        want[key] = c
                np.testing.assert_allclose(powers[i, j], want, rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize(
        "params", [DISPLACED, GENERIC, minimal_packet(1e6, u=0.7)],
        ids=["displaced", "generic", "long_tilted"],
    )
    def test_rule_sees_a_standard_normal_on_each_axis(self, params, monkeypatch, cold_cache):
        seen = []

        def capture(f, box, spec=None):
            seen.append((f, box))
            return integrate_adaptive(f, box, spec)

        monkeypatch.setattr(moments_module, "integrate_adaptive", capture)
        norm = norm_integral(params)
        (f, box), = seen
        np.testing.assert_allclose(box, [-8.5, 8.5], rtol=1e-15)
        # Each axis integrand is xi^a times the standard normal density.
        x = np.linspace(-8.5, 8.5, 13)
        normal = np.exp(-0.5 * x**2) / math.sqrt(2.0 * math.pi)
        np.testing.assert_allclose(f(x), [normal, x * normal, x**2 * normal], rtol=1e-15)
        # The density's own constant, log |det T| and log 2 pi cancel:
        # s = M[0, 0] / m_0^2 is 1.
        m0 = moments_module._axis_moments(QuadratureSpec(), 3)[0]
        assert norm / m0**2 == pytest.approx(1.0, abs=1e-14)


class TestPrincipalFrame:
    """Moments of long, tilted, wide and narrow packets, integrated in the
    packet's principal frame, where the density is a standard normal."""

    def test_long_packet_keeps_its_norm(self):
        # On the axis-aligned box, whose first panel's nodes straddled the
        # short axis, both rules read 0.0 and nothing was raised.
        assert norm_integral(minimal_packet(1e3)) == pytest.approx(1.0, abs=1e-13)

    def test_long_tilted_packet_meets_its_budget(self):
        # The axis-aligned box spent 43,690 rule passes and raised.
        assert norm_integral(minimal_packet(100.0, u=0.7)) == pytest.approx(1.0, abs=1e-13)

    def test_wide_packet_meets_its_budget(self):
        # Lab-frame second moments of about sigma^2 = 100 could not meet the
        # absolute budget: 1.66e-12 against 1e-13, raised.
        wide = RealParams(mu=1.0, alpha=0.005, beta=0.0, gamma=0.005)
        assert norm_integral(wide) == pytest.approx(1.0, abs=1e-13)
        xx = expectation(wide, position_monomial(2, 0)).real
        assert xx == pytest.approx(gp.covariances(wide)[0, 0], rel=1e-13)

    @pytest.mark.parametrize("u", [0.0, 0.7])
    @pytest.mark.parametrize("decade", range(-8, 7))
    def test_moments_agree_with_closed_forms_per_decade(
        self, decade, u, cold_cache, rule_passes, rule_passes_1d
    ):
        params = minimal_packet(10.0**decade, u=u)
        values = integrals_in_order(params, range(len(MOMENT_OBSERVABLES) + 1))
        # One width-3 axis integral: its first interval and one split.
        assert rule_passes == []
        assert len(rule_passes_1d) <= 6
        cov = gp.covariances(params)
        sigma = np.sqrt(np.diag(cov))
        firsts = np.array([values[k].real for k in range(4)])
        # Relative to each coordinate's standard deviation.
        assert np.all(np.abs(firsts - gp.first_moments(params)) <= 1e-13 * sigma)
        k = 4
        for i in range(4):
            for j in range(i, 4):
                central = values[k].real - firsts[i] * firsts[j]
                assert abs(central - cov[i, j]) <= 1e-13 * sigma[i] * sigma[j], (i, j)
                k += 1
        assert values[k] == pytest.approx(1.0, abs=1e-13)

class TestWignerFourthMoment:
    def test_matches_wick_pairing(self, rng):
        a = rng.normal(size=(4, 4))
        cov = a @ a.T + 0.5 * np.eye(4)
        for idx in [(0, 0, 0, 0), (0, 1, 2, 3), (1, 1, 3, 3), (0, 0, 1, 2)]:
            i, j, k, l = idx
            wick = cov[i, j] * cov[k, l] + cov[i, k] * cov[j, l] + cov[i, l] * cov[j, k]
            assert wigner_fourth_moment(cov, idx) == pytest.approx(wick, rel=1e-10)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            wigner_fourth_moment(np.eye(3), (0, 0, 0, 0))
        with pytest.raises(InvalidParameterError):
            wigner_fourth_moment(np.eye(4), (0, 0, 0))
        with pytest.raises(InvalidParameterError):
            wigner_fourth_moment(-np.eye(4), (0, 0, 0, 0))


class TestMinimizeFree:
    def test_quadratic_bowl(self):
        target = np.array([1.2, -0.7])

        def objective(p):
            d = p - target
            return float(d[0] ** 2 + 4.0 * d[1] ** 2 + 7.0)

        out = minimize_free(
            objective,
            lambda r: r.uniform(-3.0, 3.0, size=2),
            n_starts=6,
            seed=3,
        )
        assert out.best_value == pytest.approx(7.0, abs=1e-9)
        assert out.best_point == pytest.approx(target, abs=1e-5)
        assert out.n_starts == 6 and len(out.start_values) == 6
        assert max(out.start_values) == pytest.approx(7.0, abs=1e-8)
        assert out.n_evaluations > 0

    def test_deterministic_for_fixed_seed(self):
        def objective(p):
            return float(np.cos(3.0 * p[0]) + p[0] ** 2 / 10.0)

        runs = [
            minimize_free(objective, lambda r: r.uniform(-8.0, 8.0, size=1), n_starts=5, seed=42)
            for _ in range(2)
        ]
        assert runs[0].start_values == runs[1].start_values
        assert runs[0].best_point == pytest.approx(runs[1].best_point, abs=0.0)

    def test_infeasible_region_redraws_then_raises(self):
        with pytest.raises(InvalidParameterError):
            minimize_free(
                lambda p: math.inf,
                lambda r: r.uniform(-1.0, 1.0, size=1),
                n_starts=1,
            )
        with pytest.raises(InvalidParameterError):
            minimize_free(lambda p: 0.0, lambda r: np.zeros(1), n_starts=0)


def rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def scaled_quadratic(x):
    return float((x[0] - 1.0) ** 2 + 10.0 * (x[1] + 2.0) ** 2 + 100.0 * (x[2] - 0.5) ** 2)


def rastrigin(x):
    return float(10.0 * len(x) + sum(v * v - 10.0 * math.cos(2.0 * math.pi * v) for v in x))


def parabola(x):
    return float((x[0] - 3.0) ** 2)


def walled_bowl(wall):
    """A bowl with its minimum 0 at (1, 1), and ``wall`` wherever x > 2 or y > 3."""

    def objective(x):
        assert isinstance(x, np.ndarray) and x.dtype == float
        if x[0] > 2.0 or x[1] > 3.0:
            return wall
        return float((x[0] - 1.0) ** 2 + 2.0 * (x[1] - 1.0) ** 2)

    return objective


def scipy_search(objective, start, maxfev=minimize_module._MAX_EVALUATIONS):
    """SciPy's adaptive Nelder-Mead at the search's tolerances, as ``(fun, x, nfev)``.

    SciPy is a test dependency only, so it is imported here.
    """
    from scipy.optimize import minimize

    res = minimize(
        objective,
        np.array(start),
        method="Nelder-Mead",
        options={"fatol": minimize_module._FATOL, "xatol": minimize_module._XATOL,
                 "maxfev": maxfev, "adaptive": True},
    )
    return float(res.fun), res.x.tolist(), int(res.nfev)


class TestNelderMead:
    @pytest.mark.parametrize(
        "objective, start, nfev",
        [
            (rosenbrock, [-1.2, 1.0], 249),
            (rosenbrock, [1.3, 0.7, 0.8, 1.9, 1.2], 963),
            (scaled_quadratic, [0.0, 0.0, 0.0], 601),
            (rastrigin, [2.2, -1.7, 0.6], 325),  # takes shrink steps
            (parabola, [1.0], 42),
            (parabola, [0.0], 62),  # a zero coordinate steps by 0.00025
            (walled_bowl(math.inf), [1.95, 0.5], None),  # one start vertex is inf
        ],
        ids=["rosenbrock-2d", "rosenbrock-5d", "quadratic-3d", "rastrigin-3d", "parabola-1d",
             "parabola-1d-zero", "walled"],
    )
    def test_matches_scipy_adaptive_nelder_mead(self, objective, start, nfev):
        ours = _nelder_mead(objective, start)
        assert ours == scipy_search(objective, start)
        if nfev is not None:
            assert ours[2] == nfev

    @pytest.mark.parametrize("maxfev", [1, 2, 57])
    @pytest.mark.parametrize("start", [[-1.2, 1.0], [1.3, 0.7, 0.8, 1.9, 1.2]], ids=["2d", "5d"])
    def test_evaluation_budget_cuts_the_search(self, start, maxfev):
        ours = _nelder_mead(rosenbrock, start, maxfev)
        assert ours[2] == maxfev
        assert ours == scipy_search(rosenbrock, start, maxfev)

    def test_tied_inf_vertices_still_reach_the_minimum(self):
        # Both grown vertices of the start simplex hit the wall.
        value, point, _ = _nelder_mead(walled_bowl(math.inf), [1.95, 2.9])
        assert value == pytest.approx(0.0, abs=1e-15)
        assert point == pytest.approx([1.0, 1.0], abs=1e-6)

    def test_nan_counts_as_inf(self):
        for start in ([1.95, 0.5], [1.95, 2.9]):
            assert _nelder_mead(walled_bowl(math.nan), start) == _nelder_mead(
                walled_bowl(math.inf), start
            )


class TestOverlap:
    def test_self_overlap_is_unity(self):
        val = overlap_integral(GENERIC, lambda x, y: gp.wavefunction(GENERIC, x, y))
        assert val == pytest.approx(1.0, abs=1e-11)

    def test_ground_mode_equals_isotropic_packet(self):
        params = RealParams(mu=1.7, alpha=1.0, beta=0.0, gamma=1.0,
                            chi_a=0.0, chi_c=0.0, rho=0.0)
        mode = gp.LGMode(0, 0, 1.7)
        val = overlap_integral(params, mode, mode_extent=3.0 * mode.rms_radius)
        assert val == pytest.approx(1.0, abs=1e-11)

    def test_stacked_modes_match_one_integral_each(self):
        modes = [gp.LGMode(0, 0, GENERIC.mu), gp.LGMode(1, -2, GENERIC.mu),
                 gp.LGMode(2, 3, GENERIC.mu)]
        extent = max(3.5 * mode.rms_radius for mode in modes)
        stacked = overlap_integrals(GENERIC, modes, mode_extent=extent)
        assert stacked.shape == (3,)
        for mode, val in zip(modes, stacked):
            one = overlap_integral(GENERIC, mode, mode_extent=3.5 * mode.rms_radius)
            assert abs(val - one) <= 1e-12

    def test_distant_packet_barely_overlaps(self):
        far = gp.params_from_moments(GENERIC, 12.0, 0.0, 0.0, 0.0)
        mode = gp.LGMode(0, 0, GENERIC.mu)
        val = overlap_integral(far, mode, mode_extent=3.0 * mode.rms_radius)
        assert abs(val) < 1e-12


def constant_phase_ratio(numeric: np.ndarray, closed: np.ndarray) -> None:
    """Assert two wavefunction samples agree up to one global phase."""
    ratios = numeric / closed
    assert np.abs(ratios) == pytest.approx(np.ones(len(ratios)), abs=1e-8)
    assert np.max(np.abs(ratios - ratios[0])) < 1e-8


PROBES = [(0.0, 0.0), (0.6, 0.2), (-0.4, 0.9), (1.1, -0.7), (-0.8, -0.5)]


class TestPropagators:
    def test_free_kernel_matches_closed_form(self):
        t = 0.9
        numeric = propagate_free(GENERIC, t, PROBES)
        evolved = gp.evolve_free(GENERIC, t).params
        closed = gp.wavefunction(evolved, *np.array(PROBES).T)
        constant_phase_ratio(numeric, closed)

    def test_oscillator_kernel_matches_closed_form(self):
        spec = MinPacketSpec(l_i_abs=0.5, l_c_abs=0.8, sign_i=1, sign_c=-1,
                             u=0.4, v=1.0, omega=1.3)
        t = 0.7
        numeric = propagate_oscillator(gp.build_min_packet(spec), t, PROBES, omega=1.3)
        closed = gp.wavefunction(gp.build_min_packet(gp.evolve_oscillator(spec, t)),
                                 *np.array(PROBES).T)
        constant_phase_ratio(numeric, closed)

    def test_magnetic_kernel_keeps_corotating_packet_stationary(self):
        ctx = gp.EvolutionContext(kind="magnetic", omega_larmor=0.9)
        spec = MinPacketSpec(l_i_abs=0.7, l_c_abs=0.5, sign_i=1, sign_c=1,
                             u=0.3, v=0.8, omega=0.9)
        params = gp.build_min_packet(spec)
        numeric = propagate_magnetic(params, 0.8, PROBES, omega_larmor=0.9)
        closed = gp.wavefunction(
            gp.build_min_packet(gp.evolve_magnetic(spec, ctx, 0.8)), *np.array(PROBES).T
        )
        constant_phase_ratio(numeric, closed)

    def test_singular_times_guarded(self):
        with pytest.raises(InvalidParameterError):
            propagate_free(GENERIC, 0.0, PROBES)
        with pytest.raises(InvalidParameterError):
            propagate_oscillator(GENERIC, math.pi, PROBES, omega=1.0)
        with pytest.raises(InvalidParameterError):
            propagate_magnetic(GENERIC, 2.0 * math.pi, PROBES, omega_larmor=1.0)

    @pytest.mark.parametrize("bad", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, math.nan)])
    def test_non_finite_targets_rejected(self, bad):
        with pytest.raises(InvalidParameterError):
            propagate_free(GENERIC, 0.9, [bad])
        with pytest.raises(InvalidParameterError):
            propagate_oscillator(GENERIC, 0.7, [bad], omega=1.3)
        with pytest.raises(InvalidParameterError):
            propagate_magnetic(GENERIC, 0.8, [bad], omega_larmor=-0.9)

    def test_targets_must_be_pairs(self):
        with pytest.raises(InvalidParameterError):
            propagate_free(GENERIC, 0.9, [(0.0, 1.0, 2.0)])

    CALLS = [
        lambda pts: propagate_free(GENERIC, 0.9, pts),
        lambda pts: propagate_oscillator(GENERIC, 0.7, pts, omega=1.3),
        lambda pts: propagate_magnetic(GENERIC, 0.8, pts, omega_larmor=-0.9),
    ]

    @pytest.mark.parametrize("call", CALLS)
    def test_empty_target_list(self, call):
        out = call([])
        assert isinstance(out, np.ndarray) and out.shape == (0,)

    @pytest.mark.parametrize("call", CALLS)
    def test_one_target_gives_one_value(self, call):
        out = call(PROBES[1:2])
        assert isinstance(out, np.ndarray) and out.shape == (1,)
        assert out.dtype == complex

    @pytest.mark.parametrize("n_targets", [0, 1, 5, 25])
    def test_two_integrals_per_call(self, monkeypatch, n_targets):
        calls = []

        def counting(f, box, spec=None):
            calls.append(box)
            return integrate_adaptive(f, box, spec)

        monkeypatch.setattr(propagate_module, "integrate_adaptive", counting)
        pts = [(0.1 * k, -0.05 * k) for k in range(n_targets)]
        propagate_free(GENERIC, 0.9, pts)
        propagate_oscillator(GENERIC, 0.7, pts, omega=1.3)
        propagate_magnetic(GENERIC, 0.8, pts, omega_larmor=0.9)
        # One stacked 1-D integral per axis of the frame, for all targets.
        h = propagate_module._PROP_QUAD.half_width_sigmas
        assert calls == [(-h, h)] * 6

    @pytest.mark.parametrize("t", [0.05, 0.9, 20.0])
    def test_each_axis_gets_its_share_of_the_budget(self, monkeypatch, t):
        specs = []

        def capture(f, box, spec=None):
            specs.append(spec)
            return integrate_adaptive(f, box, spec)

        monkeypatch.setattr(propagate_module, "integrate_adaptive", capture)
        propagate_free(GENERIC, t, PROBES)
        # P = |pref| |det T| |psi(c)|, with |det T| = sqrt(det Sigma_xy).
        x0, y0, _, _ = gp.first_moments(GENERIC)
        size = (abs(1.0 / (2.0 * math.pi * HBAR * t))
                * math.sqrt(np.linalg.det(gp.covariances(GENERIC)[:2, :2]))
                * abs(gp.wavefunction(GENERIC, x0, y0)))
        quad = propagate_module._PROP_QUAD
        assert len(specs) == 2
        for spec in specs:
            assert spec.abs_tol == pytest.approx(quad.abs_tol / (2.0 * math.sqrt(4.0 * math.pi) * size),
                                                 rel=1e-12)
            assert spec == QuadratureSpec(**{**quad.to_dict(), "abs_tol": spec.abs_tol})


class TestPropagatorReach:
    """Long packets, whose propagator integrands oscillate hard along one axis."""

    @staticmethod
    def grid(evolved):
        x0, y0, _, _ = gp.first_moments(evolved)
        offsets = 0.5 * gp.ellipse(evolved).a_minus * np.arange(-2.0, 3.0)
        return [(x0 + dx, y0 + dy) for dx in offsets for dy in offsets]

    def test_long_tilted_packet_propagates(self):
        # On the axis-aligned box this raised ToleranceError after 17.6 s.
        params, t = minimal_packet(100.0, u=0.7), 0.3
        evolved = gp.evolve_free(params, t).params
        pts = self.grid(evolved)
        constant_phase_ratio(propagate_free(params, t, pts),
                             gp.wavefunction(evolved, *np.array(pts).T))

    def test_longer_packet_is_answered_or_refused(self):
        # On the axis-aligned box this returned about 1e-31 of the right
        # value and raised nothing.
        params, t = minimal_packet(1e3), 0.3
        evolved = gp.evolve_free(params, t).params
        pts = self.grid(evolved)
        try:
            numeric = propagate_free(params, t, pts)
        except ToleranceError:
            return
        constant_phase_ratio(numeric, gp.wavefunction(evolved, *np.array(pts).T))

    def test_free_check_rule_passes(self, rule_passes, rule_passes_1d):
        # 176 one-dimensional passes when this ceiling was set; the same four
        # packets took 728 two-dimensional passes on the axis-aligned box.
        assert CHECKS["free"]().passed
        assert rule_passes == []
        assert 0 < len(rule_passes_1d) <= 352


def wavefunction_extended(params, x, y):
    """``gp.wavefunction`` in extended precision, normalisation included."""
    ld = np.longdouble
    x, y = np.asarray(x, dtype=ld), np.asarray(y, dtype=ld)
    x0, y0, _, _ = gp.first_moments(params)
    mu, alpha, beta, gamma = (ld(v) for v in (params.mu, params.alpha, params.beta, params.gamma))
    quad0 = alpha * ld(x0) ** 2 + 2 * beta * ld(x0) * ld(y0) + gamma * ld(y0) ** 2
    log_n = (np.log(mu) + np.log(alpha * gamma - beta**2) / 2 - np.log(ld(np.pi)) - mu * quad0) / 2
    exponent = (
        -mu * (params.quad_a * x**2 + params.quad_b * x * y + params.quad_c * y**2)
        + params.lin_f * x + params.lin_g * y
    )
    return np.exp(exponent + log_n)


#: The 40-width-displaced centred packet, whose prefactor underflows.
FAR = gp.params_from_moments(
    RealParams(mu=1.0, alpha=1.0, beta=0.0, gamma=1.0, chi_a=0.0, chi_c=0.0, rho=0.0),
    40.0, 0.0, 0.0, 0.0,
)


class TestComplexPrincipalFrame:
    """``K psi |det T|`` equals the separated exponent the two 1-D integrals take."""

    # (name, call, kernel, |coefficient| bounding the kernel's exponent by
    # coefficient * (|r| + |r'|)^2)
    KERNELS = [
        ("free", lambda p, pts: propagate_free(p, 0.9, pts),
         lambda x, y, xs, ys: full_free_kernel(0.9, x, y, xs, ys), 1.0 / 1.8),
        ("oscillator", lambda p, pts: propagate_oscillator(p, 0.7, pts, omega=1.3),
         lambda x, y, xs, ys: full_oscillator_kernel(0.7, 1.3, x, y, xs, ys),
         1.3 / (2.0 * math.sin(0.91))),
        ("magnetic", lambda p, pts: propagate_magnetic(p, 0.8, pts, omega_larmor=-0.9),
         lambda x, y, xs, ys: full_magnetic_kernel(0.8, -0.9, x, y, xs, ys),
         0.45 * (1.0 + 1.0 / math.tan(0.72))),
    ]

    @pytest.mark.parametrize("name, call, kernel, coef", KERNELS, ids=[c[0] for c in KERNELS])
    @pytest.mark.parametrize("params", [GENERIC, gp.build_min_packet(ANTI), "stress", FAR],
                             ids=["generic", "anti", "stress", "far"])
    def test_separated_exponent_reproduces_kernel_times_psi(
        self, monkeypatch, rng, params, name, call, kernel, coef
    ):
        params = STRESS if params == "stress" else params
        seen = []

        def capture(p, pref, kappa, lam, const, quad):
            seen.append((pref, kappa, lam, const))
            return np.zeros(len(const), dtype=complex)

        monkeypatch.setattr(propagate_module, "_propagate", capture)
        c = np.array(gp.first_moments(params)[:2])
        pts = c + rng.uniform(-1.5, 1.5, size=(7, 2))
        call(params, [tuple(p) for p in pts])
        (kernel_terms,) = seen
        frame, centre, quad, lin, const, log_size = propagate_module._separate(
            params, *kernel_terms
        )
        # The real part of the quadratic is -|zeta|^2 / 4 and the linear part
        # is imaginary, so each |J_k| <= sqrt(4 pi); the constant's real part
        # is the budget's size, the same for every target.
        assert np.array_equal(quad.real, [-0.25, -0.25])
        assert np.all(lin.real == 0.0)
        assert np.all(const.real == log_size)
        # Lab points out to 6 density widths along the principal axes.
        rot, sigmas = moments_module._principal_axes(params)
        lab = c + rng.uniform(-6.0, 6.0, size=(40, 2)) * sigmas @ rot.T
        zeta = np.linalg.solve(frame, (lab - centre).T)
        got = np.exp(quad @ zeta**2 + lin @ zeta + const[:, None])
        ld = np.longdouble
        xs, ys = lab.T.astype(ld)
        want = (kernel(pts[:, 0, None].astype(ld), pts[:, 1, None].astype(ld), xs, ys)
                * wavefunction_extended(params, xs, ys) * abs(np.linalg.det(frame)))
        # 1e-13 relative, widened by the rounding of the lab-frame exponent,
        # which any double-precision route carries: the stress packet's
        # chirp terms reach 1e5 at its centroid, where they cancel.
        radius = np.hypot(*pts.T)[:, None] + np.hypot(*lab.T)
        size = psi_exponent_size(params, *lab.T) + coef * radius**2
        eps = np.finfo(float).eps
        assert np.all(np.abs(got - want.astype(complex)) <= (1e-13 + 4.0 * eps * size) * np.abs(got))


def stress_packet() -> RealParams:
    """Anisotropic, nearly degenerate, chirped and far displaced.

    Widths in the ratio 39:1, correlation ``beta / sqrt(alpha gamma) =
    0.995``, a phase curvature along the narrow axis 5 times the real one,
    and a centroid 20 standard deviations out along the wide axis.
    """
    alpha, gamma, corr, chirp = 3.0, 40.0, 0.995, 5.0
    beta = corr * math.sqrt(alpha * gamma)
    (l_wide, l_narrow), axes = np.linalg.eigh([[alpha, beta], [beta, gamma]])
    wide, narrow = axes[:, 0], axes[:, 1]
    c = chirp * l_narrow / 2.0
    base = RealParams(mu=1.0, alpha=alpha, beta=beta, gamma=gamma, chi_a=c * narrow[0] ** 2,
                      chi_c=c * narrow[1] ** 2, rho=2.0 * c * narrow[0] * narrow[1])
    x0, y0 = 20.0 / math.sqrt(2.0 * l_wide) * wide
    return gp.params_from_moments(base, x0, y0, 0.7, -0.4)


STRESS = stress_packet()


def psi_exponent_size(params, x, y):
    """Sum of the moduli of the terms of psi's exponent, ``-mu (a x^2 + b x y
    + c y^2) + f x + g y + log N``: its rounding is about eps times this."""
    mu = params.mu
    return (abs(mu * params.quad_a) * x**2 + abs(mu * params.quad_b) * abs(x * y)
            + abs(mu * params.quad_c) * y**2 + abs(params.lin_f) * abs(x)
            + abs(params.lin_g) * abs(y) + abs(log_normalization(params)))


class TestStressPackets:
    """Moments and propagators of a far, chirped, nearly degenerate packet,
    integrated without evaluating the packet pointwise."""

    def test_stress_packet_is_stressed(self):
        p = STRESS
        r = math.hypot(p.alpha - p.gamma, 2.0 * p.beta)
        l_min, l_max = 0.5 * (p.alpha + p.gamma - r), 0.5 * (p.alpha + p.gamma + r)
        assert math.sqrt(l_max / l_min) >= 20.0
        assert abs(p.beta) / math.sqrt(p.alpha * p.gamma) >= 0.99
        x0, y0, _, _ = gp.first_moments(p)
        # Mahalanobis distance of the centroid from the origin, in density sigmas.
        quad = p.alpha * x0**2 + 2.0 * p.beta * x0 * y0 + p.gamma * y0**2
        assert math.sqrt(2.0 * p.mu * quad) >= 20.0 - 1e-9
        chirp = np.linalg.eigvalsh([[p.chi_a, p.rho / 2.0], [p.rho / 2.0, p.chi_c]])
        assert np.max(np.abs(chirp)) >= 5.0 * l_max / 2.0 - 1e-9

    def test_moments_and_free_propagator_on_stress_packet(self):
        p = STRESS
        x0, y0, px0, py0 = gp.first_moments(p)
        cov = gp.covariances(p)
        assert norm_integral(p) == pytest.approx(1.0, abs=1e-12)
        first = [expectation(p, o) for o in _COORDS]
        assert np.all(np.isfinite(first))
        assert np.allclose(np.real(first), [x0, y0, px0, py0], rtol=0.0, atol=1e-9)
        var_x = expectation(p, position_monomial(2, 0)).real - x0**2
        var_px = expectation(p, momentum_monomial(2, 0)).real - px0**2
        assert var_x == pytest.approx(cov[0, 0], rel=1e-9)
        assert var_px == pytest.approx(cov[2, 2], rel=1e-9)
        L = expectation(p, angular_momentum_op())
        assert L.real == pytest.approx(HBAR * gp.angular_split(p).total, abs=1e-9)
        t = 0.3
        evolved = gp.evolve_free(p, t).params
        xe, ye, _, _ = gp.first_moments(evolved)
        offsets = 0.5 * gp.ellipse(evolved).a_minus * np.arange(-2.0, 3.0)
        pts = [(xe + dx, ye + dy) for dx in offsets for dy in offsets]
        numeric = propagate_free(p, t, pts)
        assert np.all(np.isfinite(numeric))
        constant_phase_ratio(numeric, gp.wavefunction(evolved, *np.array(pts).T))

    def test_packet_whose_prefactor_underflows_still_propagates(self):
        # Centred 40 widths out with no momentum: |N| = exp(-800) underflows
        # to 0, and the evolved packet is the centred one's, translated.
        centred = RealParams(mu=1.0, alpha=1.0, beta=0.0, gamma=1.0, chi_a=0.0, chi_c=0.0, rho=0.0)
        far = gp.params_from_moments(centred, 40.0, 0.0, 0.0, 0.0)
        assert gp.normalization(far) == 0.0
        got = propagate_free(far, 0.5, [(40.0 + x, y) for x, y in PROBES])
        want = propagate_free(centred, 0.5, PROBES)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0.0)

    def test_passes_evaluate_no_wavefunction_or_density(self, monkeypatch, cold_cache):
        def refuse(*args, **kwargs):
            raise AssertionError("a rule pass evaluated the packet pointwise")

        for module in (gp.packet, moments_module, propagate_module):
            for name in ("wavefunction", "density"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        assert norm_integral(GENERIC) == pytest.approx(1.0, abs=1e-12)
        expectation(DISPLACED, angular_momentum_op().squared())
        propagate_free(GENERIC, 0.9, PROBES)
        propagate_oscillator(GENERIC, 0.7, PROBES, omega=1.3)
        propagate_magnetic(GENERIC, 0.8, PROBES, omega_larmor=-0.9)
