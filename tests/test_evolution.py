import dataclasses
import itertools
import math
import re

import numpy as np
import pytest

import gausspack as gp
from gausspack import (
    HBAR,
    EvolutionContext,
    InvalidParameterError,
    MinPacketSpec,
    RealParams,
    evolve_free,
    evolve_magnetic,
    evolve_oscillator,
    free_asymptotics,
    magnetic_energy,
    shrink_analysis,
)


def symmetric_params(alpha=1.0, beta=0.4, chi=2.0, mu=1.0):
    return RealParams(mu=mu, alpha=alpha, beta=beta, gamma=alpha, chi_a=-chi, chi_c=chi, rho=0.0)


class TestContext:
    def test_kind_constraints(self):
        EvolutionContext(kind="oscillator", omega=1.0)
        EvolutionContext(kind="magnetic", omega_larmor=-0.5)
        EvolutionContext(kind="magnetic", omega=0.3, omega_larmor=0.5)
        EvolutionContext(kind="free")
        with pytest.raises(InvalidParameterError):
            EvolutionContext(kind="lattice")
        with pytest.raises(InvalidParameterError):
            EvolutionContext(kind="oscillator", omega=0.0)
        with pytest.raises(InvalidParameterError):
            EvolutionContext(kind="oscillator", omega=1.0, omega_larmor=0.2)
        with pytest.raises(InvalidParameterError):
            EvolutionContext(kind="magnetic", omega_larmor=0.0)
        with pytest.raises(InvalidParameterError):
            EvolutionContext(kind="magnetic", omega=-1.0, omega_larmor=0.5)
        with pytest.raises(InvalidParameterError):
            EvolutionContext(kind="free", omega=0.1)
        with pytest.raises(InvalidParameterError):
            EvolutionContext(kind="oscillator", omega=1.0, mass=0.0)
        with pytest.raises(InvalidParameterError):
            EvolutionContext(kind="oscillator", omega=math.nan)

    def test_effective_frequency(self):
        ctx = EvolutionContext(kind="magnetic", omega=3.0, omega_larmor=-4.0)
        assert ctx.omega_effective == pytest.approx(5.0)
        assert EvolutionContext(kind="free").omega_effective == 0.0

    def test_dict_round_trip(self):
        ctx = EvolutionContext(kind="magnetic", omega=0.4, omega_larmor=0.9, mass=1.3)
        data = ctx.to_dict()
        assert data == {"kind": "magnetic", "omega": 0.4, "omega_L": 0.9, "M": 1.3}
        assert EvolutionContext.from_dict(data) == ctx
        with pytest.raises(InvalidParameterError):
            EvolutionContext.from_dict({"omega": 1.0})
        with pytest.raises(InvalidParameterError, match="missing context fields: M, omega, omega_L"):
            EvolutionContext.from_dict({"kind": "free"})
        with pytest.raises(InvalidParameterError):
            EvolutionContext.from_dict({"kind": "free", "spin": 2})


class TestOscillator:
    def test_phase_rates(self):
        spec = MinPacketSpec(l_i_abs=0.8, l_c_abs=1.2, sign_i=-1, sign_c=1,
                             u=0.3, v=1.0, omega=1.7)
        out = evolve_oscillator(spec, 0.25)
        assert out.u == pytest.approx(0.3 - 2.0 * 1.7 * 0.25)
        assert out.v == pytest.approx(1.0 + 1.7 * 0.25)
        unchanged = ("l_i_abs", "l_c_abs", "sign_i", "sign_c", "omega", "mass")
        assert all(getattr(out, k) == getattr(spec, k) for k in unchanged)

    def test_composition(self):
        spec = MinPacketSpec(l_i_abs=0.8, l_c_abs=1.2, sign_i=1, sign_c=1, omega=1.7)
        once = evolve_oscillator(spec, 0.9)
        twice = evolve_oscillator(evolve_oscillator(spec, 0.4), 0.5)
        assert once.u == pytest.approx(twice.u)
        assert once.v == pytest.approx(twice.v)

    def test_conserved_quantities(self):
        spec = MinPacketSpec(l_i_abs=0.8, l_c_abs=1.2, sign_i=1, sign_c=-1,
                             u=0.4, v=0.9, omega=1.3)
        e0 = gp.mean_energy(spec).total
        s0 = gp.sigma_l(spec)
        for t in (0.17, 1.4, 9.2):
            out = evolve_oscillator(spec, t)
            assert gp.mean_energy(out).total == pytest.approx(e0, rel=1e-13)
            assert HBAR * out.l_total == pytest.approx(HBAR * spec.l_total, rel=1e-13)
            assert gp.sigma_l(out) == pytest.approx(s0, rel=1e-12)

    def test_orbit_traces_circle(self):
        spec = MinPacketSpec(l_i_abs=0.0, l_c_abs=2.0, sign_c=1, v=0.0, omega=2.0)
        radius = spec.orbit_radius
        for t in np.linspace(0.0, 3.0, 7):
            params = gp.build_min_packet(evolve_oscillator(spec, t))
            x0, y0, _, _ = gp.first_moments(params)
            assert math.hypot(x0, y0) == pytest.approx(radius, rel=1e-12)
            assert math.atan2(y0, x0) == pytest.approx(
                math.remainder(2.0 * t, 2.0 * math.pi), abs=1e-12
            )


class TestMagnetic:
    def test_phase_rates(self):
        ctx = EvolutionContext(kind="magnetic", omega=0.6, omega_larmor=0.8)
        spec = MinPacketSpec(l_i_abs=0.5, l_c_abs=0.7, sign_i=-1, sign_c=1,
                             u=0.2, v=0.9, omega=ctx.omega_effective)
        out = evolve_magnetic(spec, ctx, 0.3)
        assert out.u == pytest.approx(0.2 + 2.0 * (-1.0 - 0.8) * 0.3)
        assert out.v == pytest.approx(0.9 + (1.0 - 0.8) * 0.3)

    def test_corotating_packet_is_stationary_in_pure_field(self):
        ctx = EvolutionContext(kind="magnetic", omega_larmor=0.9)
        spec = MinPacketSpec(l_i_abs=1.1, l_c_abs=0.6, sign_i=1, sign_c=1,
                             u=0.4, v=1.5, omega=0.9)
        out = evolve_magnetic(spec, ctx, 7.3)
        assert out == spec

    def test_scale_mismatch_rejected(self):
        ctx = EvolutionContext(kind="magnetic", omega=0.6, omega_larmor=0.8)
        spec = MinPacketSpec(l_i_abs=0.5, l_c_abs=0.7, omega=0.6)
        with pytest.raises(InvalidParameterError):
            evolve_magnetic(spec, ctx, 0.1)
        with pytest.raises(InvalidParameterError):
            magnetic_energy(spec, ctx)
        free = EvolutionContext(kind="free")
        with pytest.raises(InvalidParameterError):
            evolve_magnetic(spec, free, 0.1)

    def test_energy_value_and_conservation(self):
        ctx = EvolutionContext(kind="magnetic", omega=0.6, omega_larmor=-0.8)
        spec = MinPacketSpec(l_i_abs=0.5, l_c_abs=0.7, sign_i=1, sign_c=-1,
                             u=0.2, v=0.9, omega=1.0)
        expected = HBAR * 1.0 * 2.2 - HBAR * (-0.8) * (0.5 - 0.7)
        assert magnetic_energy(spec, ctx) == pytest.approx(expected, rel=1e-13)
        for t in (0.7, 3.1):
            out = evolve_magnetic(spec, ctx, t)
            assert magnetic_energy(out, ctx) == pytest.approx(expected, rel=1e-13)

    def test_energy_matches_phase_space_mean(self):
        ctx = EvolutionContext(kind="magnetic", omega=0.5, omega_larmor=1.2)
        spec = MinPacketSpec(l_i_abs=0.9, l_c_abs=0.4, sign_i=-1, sign_c=-1,
                             u=1.1, v=0.3, omega=ctx.omega_effective)
        state = gp.gaussian_state(gp.build_min_packet(spec))
        mean, _ = gp.energy_stats(state, ctx)
        assert magnetic_energy(spec, ctx) == pytest.approx(mean, rel=1e-12)


class TestFree:
    def test_time_zero_is_identity(self):
        params = RealParams(mu=1.2, alpha=1.4, beta=0.5, gamma=0.9, chi_a=-0.6,
                            chi_c=0.8, rho=0.4, f1=0.7, f2=-0.2, g1=-0.4, g2=0.9)
        rec = evolve_free(params, 0.0)
        assert rec.tau == 0.0
        assert rec.f_tau == pytest.approx(1.0)
        assert rec.params.to_dict() == pytest.approx(params.to_dict(), rel=1e-13, abs=1e-14)

    def test_composition(self):
        params = RealParams(mu=0.8, alpha=1.1, beta=-0.3, gamma=1.6, chi_a=0.5,
                            chi_c=-0.2, rho=0.6, f1=0.4, f2=0.8, g1=1.0, g2=-0.5)
        direct = evolve_free(params, 0.7, mass=1.3).params
        stepped = evolve_free(evolve_free(params, 0.3, mass=1.3).params, 0.4, mass=1.3).params
        assert stepped.to_dict() == pytest.approx(direct.to_dict(), rel=1e-11, abs=1e-12)

    def test_ballistic_center_and_conserved_momenta(self):
        params = RealParams(mu=1.0, alpha=1.0, beta=0.2, gamma=1.3, chi_a=0.3,
                            chi_c=-0.4, rho=0.1, f1=0.5, f2=1.1, g1=-0.2, g2=0.6)
        x0, y0, px0, py0 = gp.first_moments(params)
        mass = 0.7
        rec = evolve_free(params, 2.5, mass=mass)
        x1, y1, px1, py1 = gp.first_moments(rec.params)
        assert (px1, py1) == pytest.approx((px0, py0), rel=1e-12)
        assert x1 == pytest.approx(x0 + px0 * 2.5 / mass, rel=1e-12)
        assert y1 == pytest.approx(y0 + py0 * 2.5 / mass, rel=1e-12)

    def test_discriminant_ratio_and_invariants(self):
        params = RealParams(mu=1.0, alpha=1.0, beta=0.2, gamma=1.3, chi_a=0.3,
                            chi_c=-0.4, rho=0.1, f1=0.5, f2=1.1, g1=-0.2, g2=0.6)
        delta0 = params.alpha * params.gamma - params.beta**2
        l0 = gp.angular_split(params).total
        inv0 = gp.universal_invariants(gp.covariances(params))
        rec = evolve_free(params, 1.8)
        p = rec.params
        assert rec.f_tau == pytest.approx(delta0 / (p.alpha * p.gamma - p.beta**2), rel=1e-12)
        assert gp.angular_split(p).total == pytest.approx(l0, rel=1e-12)
        inv1 = gp.universal_invariants(gp.covariances(p))
        assert inv1.d0 == pytest.approx(inv0.d0, rel=1e-11)
        assert inv1.d2 == pytest.approx(inv0.d2, rel=1e-11)

    def test_symmetric_form_gets_discriminants(self):
        rec = evolve_free(symmetric_params(), 0.5)
        assert rec.d_plus == pytest.approx((1.0 + 16.0 - 0.16) / 4.0)
        assert rec.d_minus == pytest.approx((1.0 - 16.0 + 0.16) / 4.0)
        skewed = evolve_free(
            RealParams(mu=1.0, alpha=1.0, beta=0.0, gamma=2.0, chi_a=0.0, chi_c=0.0, rho=0.0),
            0.5,
        )
        assert skewed.d_plus is None and skewed.d_minus is None

    @pytest.mark.parametrize("t", [1e160, 1e200])
    def test_overflowing_time_rejected(self, t):
        # tau^2 overflows a double; the evolution must refuse, not raise OverflowError.
        params = gp.build_min_packet(MinPacketSpec(l_i_abs=0.5, l_c_abs=1.0, u=0.5 * math.pi))
        with pytest.raises(InvalidParameterError):
            evolve_free(params, t)


    @pytest.mark.parametrize("t, mass, name", [(math.nan, 1.0, "t"), (1.0, math.nan, "mass"),
                                               (math.inf, 1.0, "t")])
    def test_non_finite_argument_is_named(self, t, mass, name):
        with pytest.raises(InvalidParameterError, match=f"^{name} ") as info:
            evolve_free(symmetric_params(), t, mass=mass)
        assert "overflows" not in str(info.value)


def two_step_min_packet(spec: MinPacketSpec) -> RealParams:
    """``build_min_packet`` as a shape packet that ``params_from_moments`` then displaces."""
    eta, lam = spec.eta, spec.sign_i
    cu, su = math.cos(spec.u), math.sin(spec.u)
    shape = RealParams(mu=spec.mu, alpha=1.0 + eta * cu, beta=eta * su, gamma=1.0 - eta * cu,
                       chi_a=-0.5 * lam * eta * su, chi_c=0.5 * lam * eta * su, rho=lam * eta * cu)
    x0 = spec.orbit_radius * math.cos(spec.v)
    y0 = spec.orbit_radius * math.sin(spec.v)
    p_t = spec.sign_c * spec.mass * spec.omega
    return gp.params_from_moments(shape, x0, y0, -p_t * y0, p_t * x0)


def two_step_free(params: RealParams, t: float) -> RealParams:
    """``evolve_free(params, t).params`` at unit mass, by way of a shape packet."""
    t = float(t)
    tau = 2.0 * HBAR * params.mu * t
    a, b, c = params.quad_a, params.quad_b, params.quad_c
    d = a * c - b * b / 4.0
    g = 1.0 + 1j * tau * (a + c) - tau**2 * d
    a_t, b_t, c_t = (a + 1j * tau * d) / g, b / g, (c + 1j * tau * d) / g
    shape = RealParams(mu=params.mu, alpha=2.0 * a_t.real, beta=b_t.real, gamma=2.0 * c_t.real,
                       chi_a=a_t.imag, chi_c=c_t.imag, rho=b_t.imag)
    x0, y0, px0, py0 = gp.first_moments(params)
    return gp.params_from_moments(shape, x0 + px0 * t, y0 + py0 * t, px0, py0)


SWEEP_SPECS = [
    MinPacketSpec(l_i_abs=l_i, l_c_abs=l_c, sign_i=s_i, sign_c=s_c, u=u, v=v, omega=omega)
    for l_i, l_c, (s_i, s_c), u, v, omega in itertools.product(
        (0.0, 0.5, 2.7, 1e4), (0.0, 1.3), ((1, 1), (-1, 1), (1, -1)), (0.0, 1.1), (-0.4, 2.9),
        (1.0, 2.5),
    )
]
SWEEP_TIMES = (0.0, 0.37, -1.1, np.float64(2.5), np.float64(100.0))


class TestDirectConstruction:
    """The closed forms build each packet once; the numbers equal the two-step route."""

    def test_min_packets_equal_the_two_step_construction(self):
        for spec in SWEEP_SPECS:
            assert gp.build_min_packet(spec) == two_step_min_packet(spec)

    def test_free_evolution_equals_the_two_step_construction(self):
        refused = 0
        for spec, t in itertools.product(SWEEP_SPECS[::4], SWEEP_TIMES):
            params = gp.build_min_packet(spec)
            try:
                expected = two_step_free(params, t)
            except InvalidParameterError as exc:
                # Too spread for the discriminant floor: refused the same way.
                with pytest.raises(InvalidParameterError, match=f"^{re.escape(str(exc))}$"):
                    evolve_free(params, t)
                refused += 1
                continue
            evolved = evolve_free(params, t).params
            assert evolved == expected
            assert all(type(value) is float for value in evolved.to_dict().values())
        assert 0 < refused < len(SWEEP_SPECS[::4]) * len(SWEEP_TIMES) // 2

    def test_phase_laws_equal_dataclass_replace(self):
        for spec, t in itertools.product(SWEEP_SPECS, SWEEP_TIMES):
            moved = evolve_oscillator(spec, t)
            assert moved == dataclasses.replace(
                spec,
                u=spec.u + 2.0 * spec.sign_i * spec.omega * t,
                v=spec.v + spec.sign_c * spec.omega * t,
            )
            assert type(moved.u) is float and type(moved.v) is float
            context = EvolutionContext(kind="magnetic", omega=0.6 * spec.omega,
                                       omega_larmor=0.8 * spec.omega)
            at_field = dataclasses.replace(spec, omega=context.omega_effective)
            du = 2.0 * (spec.sign_i * context.omega_effective - context.omega_larmor)
            dv = spec.sign_c * context.omega_effective - context.omega_larmor
            assert evolve_magnetic(at_field, context, t) == dataclasses.replace(
                at_field, u=at_field.u + du * t, v=at_field.v + dv * t
            )

    def test_spread_packet_still_refused_as_degenerate(self):
        # The absolute discriminant floor still refuses P at t = 1e3; the
        # direct construction must keep that refusal, and its message.
        params = gp.build_min_packet(MinPacketSpec(l_i_abs=0.5, l_c_abs=1.0, u=0.5 * math.pi))
        with pytest.raises(InvalidParameterError, match="quadratic form is degenerate"):
            evolve_free(params, 1e3)


class TestShrink:
    def test_requires_symmetric_form(self):
        bad = RealParams(mu=1.0, alpha=1.0, beta=0.0, gamma=2.0, chi_a=0.0, chi_c=0.0, rho=0.0)
        with pytest.raises(InvalidParameterError):
            shrink_analysis(bad)
        with pytest.raises(InvalidParameterError):
            free_asymptotics(bad)

    def test_phase_curvature_controls_shrinking(self):
        focusing = shrink_analysis(symmetric_params(chi=2.0, beta=0.4))
        assert focusing.shrinks
        inert = shrink_analysis(symmetric_params(chi=0.3, beta=0.4))
        assert not inert.shrinks
        assert inert.tau_min is None and inert.f_min is None

    def test_minimum_and_recovery_landmarks(self):
        params = symmetric_params(alpha=1.0, beta=0.3, chi=1.5)
        report = shrink_analysis(params)
        assert report.shrinks
        # The area factor bottoms out at f_min, and passes through 1 again
        # at sqrt(2) times the minimum's dimensionless time.
        t_min = report.tau_min / 2.0  # tau = 2 t for mu = mass = hbar = 1
        assert evolve_free(params, t_min).f_tau == pytest.approx(report.f_min, rel=1e-12)
        assert evolve_free(params, math.sqrt(2.0) * t_min).f_tau == pytest.approx(1.0, rel=1e-12)
        probe = evolve_free(params, 1.1 * t_min).f_tau
        assert probe > report.f_min

    def test_axis_alignment_time(self):
        params = symmetric_params(alpha=1.2, beta=0.5, chi=1.8)
        report = shrink_analysis(params)
        at_axis = evolve_free(params, report.tau_axis / 2.0).params
        assert at_axis.beta == pytest.approx(0.0, abs=1e-12)
        ecc = gp.ellipse(at_axis).eccentricity
        assert ecc == pytest.approx(report.eps_at_alignment, rel=1e-12)

    def test_late_time_geometry(self):
        params = symmetric_params(alpha=1.2, beta=0.5, chi=1.8)
        limits = free_asymptotics(params)
        geo0 = gp.ellipse(params)
        assert limits.eps_limit == pytest.approx(geo0.eccentricity, rel=1e-12)
        assert limits.theta_limit == pytest.approx(-geo0.theta, rel=1e-12)
        tau = 400.0
        late = evolve_free(params, tau / 2.0)
        geo = gp.ellipse(late.params)
        assert geo.eccentricity == pytest.approx(limits.eps_limit, rel=1e-4)
        assert geo.theta == pytest.approx(limits.theta_limit, abs=1e-2)
        # Semi-axes grow linearly at the closed-form rate, and the peak
        # density correspondingly falls like 1 / (d_plus tau^2).
        assert geo.a_plus / tau == pytest.approx(
            geo0.a_plus * limits.growth_rate, rel=1e-4
        )
        assert 1.0 / math.sqrt(late.f_tau) == pytest.approx(
            1.0 / (report_d_plus(params) * tau**2), rel=1e-4
        )

    def test_negative_mass_rejected(self):
        with pytest.raises(InvalidParameterError):
            evolve_free(symmetric_params(), 1.0, mass=-1.0)


def report_d_plus(params: RealParams) -> float:
    return shrink_analysis(params).d_plus
