import math

import numpy as np
import pytest

import gausspack as gp
from gausspack import HBAR, ConsistencyError, EvolutionContext, InvalidParameterError, MinPacketSpec
from gausspack.fluctuations import (
    angular_momentum_matrix,
    oscillator_matrix,
    quadratic_stats,
)
from gausspack.oracle.moments import expectation
from gausspack.oracle.observables import (
    angular_momentum_op,
    magnetic_hamiltonian_op,
    oscillator_hamiltonian_op,
)
from gausspack.oracle.quadrature import QuadratureSpec
from gausspack.verify import random_params

# Squared Hamiltonians integrate fourth-degree polynomials against the
# density; give the estimator a budget matching the 1e-8 assertion scale.
QUARTIC_QUAD = QuadratureSpec(abs_tol=1e-11, max_splits=8)


class TestQuadraticStats:
    """The Weyl-symbol mean/variance machinery against the raw integrals."""

    def test_angular_momentum_against_quadrature(self, rng):
        op = angular_momentum_op()
        op_sq = op * op
        for _ in range(4):
            p = random_params(rng)
            mean, var = gp.angular_momentum_stats(gp.gaussian_state(p))
            mean_num = expectation(p, op).real
            second_num = expectation(p, op_sq).real
            assert mean == pytest.approx(HBAR * gp.angular_split(p).total, rel=1e-10)
            assert mean == pytest.approx(mean_num, rel=1e-9, abs=1e-9)
            assert var == pytest.approx(second_num - mean_num**2, rel=1e-9, abs=1e-9)

    def test_oscillator_energy_against_quadrature(self, rng):
        omega, mass = 1.3, 0.8
        ctx = EvolutionContext(kind="oscillator", omega=omega, mass=mass)
        op = oscillator_hamiltonian_op(mass, omega)
        op_sq = op * op
        for _ in range(3):
            p = random_params(rng)
            mean, var = gp.energy_stats(gp.gaussian_state(p), ctx)
            mean_num = expectation(p, op).real
            second_num = expectation(p, op_sq, quad=QUARTIC_QUAD).real
            assert mean == pytest.approx(mean_num, rel=1e-9)
            assert var == pytest.approx(second_num - mean_num**2, rel=1e-8, abs=1e-9)

    def test_magnetic_energy_against_quadrature(self, rng):
        mass, omega, omega_l = 1.0, 0.6, 0.8
        ctx = EvolutionContext(kind="magnetic", omega=omega, omega_larmor=omega_l, mass=mass)
        op = magnetic_hamiltonian_op(mass, omega, omega_l)
        op_sq = op * op
        p = random_params(rng)
        mean, var = gp.energy_stats(gp.gaussian_state(p), ctx)
        mean_num = expectation(p, op).real
        second_num = expectation(p, op_sq, quad=QUARTIC_QUAD).real
        assert mean == pytest.approx(mean_num, rel=1e-9)
        assert var == pytest.approx(second_num - mean_num**2, rel=1e-8, abs=1e-9)

    def test_free_energy_is_kinetic_only(self, rng):
        p = random_params(rng)
        ctx = EvolutionContext(kind="free", mass=1.2)
        mean, var = gp.energy_stats(gp.gaussian_state(p), ctx)
        ctx_osc = EvolutionContext(kind="oscillator", omega=1.0, mass=1.2)
        cov = gp.covariances(p)
        x0, y0, px0, py0 = gp.first_moments(p)
        kinetic = (cov[2, 2] + cov[3, 3] + px0**2 + py0**2) / (2 * 1.2)
        assert mean == pytest.approx(kinetic, rel=1e-12)
        assert var > 0

    @pytest.mark.parametrize(
        "entry, value",
        [((0, 0), math.inf), ((2, 2), -math.inf), ((1, 1), math.nan),
         ((0, 3), math.inf), ((1, 2), math.nan)],
    )
    def test_non_finite_matrix_is_refused(self, entry, value):
        # b[0, 0] = inf returned (inf, nan) with NumPy warnings.
        b = angular_momentum_matrix()
        i, j = entry
        b[i, j] = b[j, i] = value
        state = gp.gaussian_state(random_params(np.random.default_rng(3)))
        with pytest.raises(InvalidParameterError, match="finite"):
            quadratic_stats(b, state)

    @pytest.mark.parametrize("shift, accepted", [(4e-6, True), (1e-5, False)])
    def test_symmetry_keeps_allclose_tolerances(self, shift, accepted):
        # |B - B^T| <= 1e-8 + 1e-5 |B^T| entry by entry: at B[0, 3] = 0.5 the
        # bound is about 5.01e-6.
        b = angular_momentum_matrix()
        b[0, 3] += shift
        assert np.allclose(b, b.T) is accepted
        state = gp.gaussian_state(random_params(np.random.default_rng(3)))
        if accepted:
            mean, var = quadratic_stats(b, state)
            assert math.isfinite(mean) and math.isfinite(var)
        else:
            with pytest.raises(InvalidParameterError, match="symmetric"):
                quadratic_stats(b, state)

    @pytest.mark.parametrize("shape", [(3, 3), (4, 4, 1), (16,), (4, 5)])
    def test_wrong_shape_is_refused(self, shape):
        state = gp.gaussian_state(random_params(np.random.default_rng(3)))
        with pytest.raises(InvalidParameterError, match="4x4"):
            quadratic_stats(np.zeros(shape), state)

    def test_pure_quadratic_matrices(self):
        b_l = angular_momentum_matrix()
        np.testing.assert_allclose(b_l, b_l.T)
        b_h = oscillator_matrix(1.5, 2.0)
        assert b_h[0, 0] == pytest.approx(2.0 * 1.5**2 / 2.0)
        assert b_h[2, 2] == pytest.approx(1.0 / (2.0 * 2.0))


class TestSigmaL:
    def test_closed_form_values(self):
        # lc + 2 li (1 + li) + (1 + ss') lc (li - sqrt(li(1+li)) cos 2w)
        spec = MinPacketSpec(l_i_abs=0.125, l_c_abs=1.5, sign_i=1, sign_c=1, u=0.0, v=0.0)
        assert gp.sigma_l(spec) == pytest.approx(HBAR**2 * 33.0 / 32.0, rel=1e-13)
        anti = MinPacketSpec(l_i_abs=0.125, l_c_abs=1.5, sign_i=1, sign_c=-1)
        assert gp.sigma_l(anti) == pytest.approx(
            HBAR**2 * (1.5 + 2 * 0.125 * 1.125), rel=1e-13
        )

    def test_w_dependence_only_for_corotating(self):
        co_a = MinPacketSpec(l_i_abs=0.5, l_c_abs=1.0, sign_i=1, sign_c=1, u=0.0, v=0.0)
        co_b = MinPacketSpec(l_i_abs=0.5, l_c_abs=1.0, sign_i=1, sign_c=1, u=0.0, v=0.9)
        assert gp.sigma_l(co_a) != pytest.approx(gp.sigma_l(co_b), rel=1e-6)
        anti_a = MinPacketSpec(l_i_abs=0.5, l_c_abs=1.0, sign_i=1, sign_c=-1, v=0.0)
        anti_b = MinPacketSpec(l_i_abs=0.5, l_c_abs=1.0, sign_i=1, sign_c=-1, v=0.9)
        assert gp.sigma_l(anti_a) == pytest.approx(gp.sigma_l(anti_b), rel=1e-13)

    def test_mean_l_squared_consistent(self):
        spec = MinPacketSpec(l_i_abs=0.4, l_c_abs=0.8, sign_i=-1, sign_c=1, u=0.3, v=1.2)
        assert gp.mean_l_squared(spec) == pytest.approx(
            gp.sigma_l(spec) + (HBAR * spec.l_total) ** 2, rel=1e-12
        )


class TestSigmaE:
    def test_oscillator_scales_from_sigma_l(self):
        spec = MinPacketSpec(l_i_abs=0.7, l_c_abs=1.1, sign_i=1, sign_c=1,
                             u=0.4, v=1.0, omega=1.7)
        assert gp.sigma_e(spec) == pytest.approx(1.7**2 * gp.sigma_l(spec), rel=1e-12)

    def test_pure_field_degeneracy(self):
        ctx = EvolutionContext(kind="magnetic", omega=0.0, omega_larmor=1.1)
        spec = MinPacketSpec(l_i_abs=0.9, l_c_abs=1.7, sign_i=1, sign_c=1,
                             u=0.5, v=2.0, omega=1.1)
        assert gp.sigma_e(spec, ctx) == pytest.approx(0.0, abs=1e-12)

    def test_pure_field_counter_rotating_fluctuates(self):
        ctx = EvolutionContext(kind="magnetic", omega=0.0, omega_larmor=1.1)
        spec = MinPacketSpec(l_i_abs=0.9, l_c_abs=1.7, sign_i=-1, sign_c=-1,
                             u=0.5, v=2.0, omega=1.1)
        expected = (HBAR * 1.1) ** 2 * (
            2 * 2 * 2 * 1.7 * (0.9 - math.sqrt(0.9 * 1.9) * math.cos(2 * spec.w))
            + 2 * 1.7 * 2 + 4 * 0.9 * 1.9 * 2
        )
        assert gp.sigma_e(spec, ctx) == pytest.approx(expected, rel=1e-10)

    def test_trapped_field_matches_matrix_route(self):
        ctx = EvolutionContext(kind="magnetic", omega=0.8, omega_larmor=-0.5)
        spec = MinPacketSpec(l_i_abs=0.4, l_c_abs=0.9, sign_i=1, sign_c=-1,
                             u=1.1, v=0.2, omega=ctx.omega_effective)
        _, var = gp.energy_stats(gp.min_packet_state(spec), ctx)
        assert gp.sigma_e(spec, ctx) == pytest.approx(var, rel=1e-10)

    def test_context_spec_frequency_mismatch_rejected(self):
        ctx = EvolutionContext(kind="magnetic", omega=0.8, omega_larmor=-0.5)
        bad = MinPacketSpec(l_i_abs=0.4, l_c_abs=0.9, omega=0.8)
        with pytest.raises((gp.InvalidParameterError, ConsistencyError)):
            gp.sigma_e(bad, ctx)


class TestWick:
    def test_pairing_rule_simple_case(self):
        cov = np.diag([2.0, 3.0, 5.0, 7.0])
        # <x^4> for a centered Gaussian = 3 sigma_x^4
        assert gp.wick_fourth_moment(cov, (0, 0, 0, 0)) == pytest.approx(12.0)
        # <x^2 y^2> = sigma_x^2 sigma_y^2 for uncorrelated axes
        assert gp.wick_fourth_moment(cov, (0, 0, 1, 1)) == pytest.approx(6.0)


class TestSubPoisson:
    def test_exact_landmarks(self):
        opt = gp.subpoisson_optimum(0.125)
        assert opt.l_total == pytest.approx(13.0 / 8.0, abs=1e-14)
        assert opt.sigma_l == pytest.approx(HBAR**2 * 33.0 / 32.0, abs=1e-14)
        assert opt.eccentricity == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-14)
        opt = gp.subpoisson_optimum(1.0 / 3.0)
        assert opt.l_total == pytest.approx(19.0 / 3.0, rel=1e-14)
        assert opt.sigma_l == pytest.approx(HBAR**2 * 26.0 / 9.0, rel=1e-14)
        assert opt.eccentricity == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-14)

    def test_optimum_is_subpoissonian(self):
        opt = gp.subpoisson_optimum(0.125)
        assert opt.sigma_l < HBAR**2 * opt.l_total

    def test_report_flags(self):
        # The optimum operating point must be flagged; a lone coherent-like
        # orbit (sigma = lc = |L|) sits exactly at the Poissonian border.
        spec = MinPacketSpec(l_i_abs=0.125, l_c_abs=1.5, sign_i=1, sign_c=1, u=0.0, v=0.0)
        report = gp.variance_report(spec)
        assert report.subpoissonian
        assert report.mean_l == pytest.approx(1.625)
        assert report.sigma_l == pytest.approx(HBAR**2 * 33.0 / 32.0)
        assert report.mean_e == pytest.approx(HBAR * (1.0 + 0.125 + 1.5))
        lone = MinPacketSpec(l_i_abs=0.0, l_c_abs=2.0)
        lone_report = gp.variance_report(lone)
        assert not lone_report.subpoissonian


class TestNonFiniteArguments:
    @pytest.mark.parametrize("value", [math.nan, math.inf, np.float64(math.nan)])
    def test_subpoisson_optimum_refuses(self, value):
        with pytest.raises(InvalidParameterError, match="l_i_abs"):
            gp.subpoisson_optimum(value)

    @pytest.mark.parametrize("omega, mass", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0)])
    def test_oscillator_matrix_refuses(self, omega, mass):
        with pytest.raises(InvalidParameterError, match="omega|mass"):
            oscillator_matrix(omega, mass)
