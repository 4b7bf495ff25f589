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
from gausspack.oracle.minimize import minimize_free
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
from gausspack.oracle.overlap import overlap_integral
from gausspack.oracle.propagate import (
    fit_gaussian_exponent,
    propagate_free,
    propagate_magnetic,
    propagate_oscillator,
)
from gausspack.oracle.quadrature import QuadratureSpec, gauss_legendre_2d, integrate_adaptive


GENERIC = RealParams(mu=1.1, alpha=1.3, beta=0.4, gamma=0.9, chi_a=-0.5,
                     chi_c=0.7, rho=0.3, f1=0.6, f2=-0.3, g1=0.2, g2=0.8)


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

    def test_bad_box_rejected(self):
        with pytest.raises(ValueError):
            integrate_adaptive(lambda x, y: x, (1.0, 1.0, 0.0, 1.0))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(order=8, refined_order=8)
        with pytest.raises(ValueError):
            QuadratureSpec(abs_tol=0.0)


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


class TestExponentFit:
    def test_round_trip_on_analytic_packet(self):
        def sample(pts):
            arr = np.array(pts)
            return gp.wavefunction(GENERIC, arr[:, 0], arr[:, 1])

        fit = fit_gaussian_exponent(sample, center_guess=(0.0, 0.0),
                                    sigma_guess=0.8, mu=GENERIC.mu)
        assert fit.residual < 1e-10
        assert fit.params.to_dict() == pytest.approx(GENERIC.to_dict(), abs=1e-9)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            fit_gaussian_exponent(lambda pts: np.ones(len(pts)), (0.0, 0.0), -1.0, 1.0)
        with pytest.raises(ToleranceError):
            fit_gaussian_exponent(
                lambda pts: np.zeros(len(pts)), (0.0, 0.0), 1.0, 1.0
            )
