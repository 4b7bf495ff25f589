import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import eval_genlaguerre

import gausspack as gp
from gausspack import HBAR, InvalidParameterError, LGMode, MinPacketSpec, ToleranceError
from gausspack.fock import (
    FockCoefficients,
    antirotating_coeffs,
    coherent_coeffs,
    corotating_coeffs,
    fock_coefficients,
    generating_derivatives,
    generating_function,
    lg_mode_eval,
    pk_asymptotic,
    squeezed_coeffs,
)
from gausspack.oracle.overlap import overlap_integral
from gausspack.oracle.quadrature import QuadratureSpec, integrate_adaptive
from gausspack.special import log_factorial
from reference import hermite_zero_log


class TestModes:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            LGMode(n_r=-1, m=0, mu=1.0)
        with pytest.raises(InvalidParameterError):
            LGMode(n_r=0, m=0, mu=-1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_r": 0, "m": 0, "mu": math.nan},
            {"n_r": 0, "m": 0, "mu": "1"},
            {"n_r": 0, "m": math.inf, "mu": 1.0},
            {"n_r": True, "m": 0, "mu": 1.0},
            {"n_r": 0.5, "m": 0, "mu": 1.0},
        ],
    )
    def test_rejects_non_finite_non_real_and_non_integer(self, kwargs):
        with pytest.raises(InvalidParameterError):
            LGMode(**kwargs)
        with pytest.raises(InvalidParameterError):
            lg_mode_eval(kwargs["n_r"], kwargs["m"], kwargs["mu"], 0.3, -0.2)

    def test_integer_valued_indices_are_stored_as_int(self):
        mode = LGMode(n_r=1.0, m=np.float64(-2.0), mu=1)
        assert type(mode.n_r) is int and type(mode.m) is int and type(mode.mu) is float
        assert mode(0.4, 0.7) == lg_mode_eval(1, -2, 1.0, 0.4, 0.7)

    def test_energy_ladder(self):
        assert LGMode(0, 0, 1.0).energy(2.0) == pytest.approx(2.0 * HBAR)
        assert LGMode(1, -3, 1.0).energy(2.0) == pytest.approx(2.0 * HBAR * 6)

    def test_orthonormality(self):
        quad = QuadratureSpec()
        pairs = [((0, 0), (0, 0)), ((1, 2), (1, 2)), ((1, 2), (0, 2)), ((2, -1), (2, -1))]
        for (n1, m1), (n2, m2) in pairs:
            r = 3.5 * LGMode(max(n1, n2), m1, 1.0).rms_radius + 2.0
            val = integrate_adaptive(
                lambda xs, ys: np.conj(lg_mode_eval(n1, m1, 1.0, xs, ys))
                * lg_mode_eval(n2, m2, 1.0, xs, ys),
                (-r, r, -r, r),
                quad,
            )
            expected = 1.0 if (n1, m1) == (n2, m2) else 0.0
            assert val.real == pytest.approx(expected, abs=1e-10)
            assert val.imag == pytest.approx(0.0, abs=1e-10)

    def test_winding_phase(self):
        # One counterclockwise loop advances the phase by 2 pi m.
        angles = np.linspace(0.0, 2.0 * math.pi, 7, endpoint=False)
        vals = lg_mode_eval(0, 3, 1.0, 0.8 * np.cos(angles), 0.8 * np.sin(angles))
        dphase = np.angle(vals[1] / vals[0])
        assert dphase == pytest.approx(3 * angles[1], rel=1e-12)

    @pytest.mark.parametrize("n_r", [0, 2])
    @pytest.mark.parametrize("m", range(-6, 7))
    def test_phase_matches_polar_angle(self, n_r, m):
        mu = 1.3
        x, y = np.meshgrid(np.linspace(-2.0, 2.0, 9), np.linspace(-1.5, 1.5, 7), indexing="ij")
        assert np.any((x == 0.0) & (y == 0.0))
        arg = mu * (x**2 + y**2)
        norm = math.sqrt(mu / math.pi * math.factorial(n_r) / math.factorial(n_r + abs(m)))
        radial = norm * arg ** (abs(m) / 2) * np.exp(-arg / 2) * eval_genlaguerre(n_r, abs(m), arg)
        want = radial * np.exp(1j * m * np.arctan2(y, x))
        got = lg_mode_eval(n_r, m, mu, x, y)
        assert got.dtype == complex
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)

    def test_large_quantum_numbers_stay_finite(self):
        vals = lg_mode_eval(150, 140, 1.0, np.linspace(-20, 20, 41), np.zeros(41))
        assert np.all(np.isfinite(vals))
        assert np.max(np.abs(vals)) < 1.0


def overlap_check(spec: MinPacketSpec, keys, tol=1e-9):
    packet = gp.build_min_packet(spec)
    coeffs = fock_coefficients(spec, tail=1e-13)
    for key in keys:
        mode = LGMode(n_r=key[0], m=key[1], mu=spec.mu)
        numeric = overlap_integral(packet, mode)
        assert abs(numeric - coeffs[key]) < tol, key


class TestCoefficientFamilies:
    def test_coherent_against_overlaps(self):
        spec = MinPacketSpec(l_i_abs=0.0, l_c_abs=1.2, sign_c=-1, v=0.7)
        overlap_check(spec, [(0, 0), (0, -1), (0, -3)])

    def test_coherent_probabilities_are_poissonian(self):
        fc = coherent_coeffs(1.2, sign_c=1, v=0.3)
        for k in range(5):
            expected = math.exp(-1.2) * 1.2**k / math.factorial(k)
            assert abs(fc[(0, k)]) ** 2 == pytest.approx(expected, rel=1e-12)

    def test_squeezed_against_overlaps(self):
        spec = MinPacketSpec(l_i_abs=0.8, l_c_abs=0.0, sign_i=1, u=1.1)
        overlap_check(spec, [(0, 0), (0, 2), (0, 6)])

    def test_squeezed_only_even_windings(self):
        fc = squeezed_coeffs(0.8, sign_i=1, u=0.4)
        assert all(m % 2 == 0 and n == 0 for (n, m) in fc.coeffs)

    @pytest.mark.parametrize("sign_i", [1, -1])
    def test_squeezed_coefficients_follow_the_closed_form(self, sign_i):
        l_i, u = 0.8, 0.4
        eta = math.sqrt(l_i / (1.0 + l_i))
        fc = squeezed_coeffs(l_i, sign_i=sign_i, u=u)
        for k in range(6):
            expected = (
                (-1) ** k * (1.0 - eta**2) ** 0.25 * eta**k
                * math.sqrt(math.factorial(2 * k)) / (2**k * math.factorial(k))
                * cmath.exp(-1j * k * sign_i * u)
            )
            assert abs(fc[(0, 2 * k * sign_i)] - expected) <= 1e-14 * abs(expected), k

    def test_corotating_against_overlaps(self):
        spec = MinPacketSpec(l_i_abs=0.5, l_c_abs=0.9, sign_i=1, sign_c=1, u=0.8, v=1.9)
        overlap_check(spec, [(0, 0), (0, 1), (0, 2), (0, 4)])

    def test_corotating_single_radial_ladder(self):
        spec = MinPacketSpec(l_i_abs=0.5, l_c_abs=0.9, sign_i=-1, sign_c=-1, u=0.2, v=0.5)
        fc = corotating_coeffs(spec)
        assert all(n == 0 for (n, _) in fc.coeffs)
        assert all(m <= 0 for (_, m) in fc.coeffs)

    def test_antirotating_against_overlaps(self):
        spec = MinPacketSpec(l_i_abs=0.5, l_c_abs=0.9, sign_i=1, sign_c=-1, u=0.8, v=1.9)
        overlap_check(spec, [(0, 0), (0, 1), (1, 0), (1, -2), (2, 2)])

    def test_antirotating_spreads_both_quantum_numbers(self):
        spec = MinPacketSpec(l_i_abs=0.5, l_c_abs=0.9, sign_i=1, sign_c=-1)
        fc = antirotating_coeffs(spec)
        assert any(n > 0 and abs(c) > 1e-8 for (n, _), c in fc.items())
        assert any(m != 0 and abs(c) > 1e-8 for (_, m), c in fc.items())

    def test_dispatch(self):
        assert fock_coefficients(MinPacketSpec(l_i_abs=0.0, l_c_abs=0.0)).coeffs == {
            (0, 0): 1.0 + 0.0j
        }
        assert fock_coefficients(MinPacketSpec(l_i_abs=0.0, l_c_abs=1.0)).kind == "coherent"
        assert fock_coefficients(MinPacketSpec(l_i_abs=1.0, l_c_abs=0.0)).kind == "squeezed"
        assert (
            fock_coefficients(MinPacketSpec(l_i_abs=1.0, l_c_abs=1.0, sign_i=1, sign_c=1)).kind
            == "corotating"
        )
        assert (
            fock_coefficients(MinPacketSpec(l_i_abs=1.0, l_c_abs=1.0, sign_i=1, sign_c=-1)).kind
            == "antirotating"
        )

    def test_wrong_sense_rejected(self):
        spec = MinPacketSpec(l_i_abs=0.5, l_c_abs=0.9, sign_i=1, sign_c=1)
        with pytest.raises(InvalidParameterError):
            antirotating_coeffs(spec)
        anti = MinPacketSpec(l_i_abs=0.5, l_c_abs=0.9, sign_i=1, sign_c=-1)
        with pytest.raises(InvalidParameterError):
            corotating_coeffs(anti)

    @pytest.mark.parametrize("family", [coherent_coeffs, squeezed_coeffs])
    @pytest.mark.parametrize("value", [math.nan, math.inf, np.float64(math.nan)])
    def test_centered_and_circular_ladders_refuse_non_finite(self, family, value):
        with pytest.raises(InvalidParameterError, match="_abs"):
            family(value)

    def test_corotating_budget_caps_stored_terms(self):
        # The ladder needs 48 coefficients at tail 1e-12 and 3 at tail 0.2; a
        # smaller cap raises rather than returning the first max_terms of them.
        spec = MinPacketSpec(l_i_abs=0.5, l_c_abs=1.0, sign_i=1, sign_c=1)
        for max_terms in (1, 4, 10):
            with pytest.raises(ToleranceError, match=rf"max_terms={max_terms}\b"):
                corotating_coeffs(spec, max_terms=max_terms)
        assert len(corotating_coeffs(spec, tail=0.2, max_terms=3).coeffs) == 3
        with pytest.raises(ToleranceError, match=r"needs 3 coefficients .* max_terms=2$"):
            corotating_coeffs(spec, tail=0.2, max_terms=2)

    @pytest.mark.parametrize("l_i, l_c", [(0.01, 400.0), (0.5, 800.0), (0.5, 2000.0)])
    def test_wide_corotating_ladders_converge(self, l_i, l_c):
        # H_k(B)/sqrt(2^k k!) alone overflows on these ladders (at k = 427,
        # 530 and 340), long before the prefactor brings the terms back.
        spec = MinPacketSpec(l_i_abs=l_i, l_c_abs=l_c, sign_i=1, sign_c=1, u=0.4, v=1.3)
        fc = fock_coefficients(spec)
        assert fc.kind == "corotating" and fc.residual < 1e-12
        mean_l, _ = fc.angular_momentum_stats()
        d1, _ = generating_derivatives(spec)
        assert mean_l == pytest.approx(HBAR * d1, rel=1e-9)

    def test_truncation_validation(self):
        spec = MinPacketSpec(l_i_abs=0.5, l_c_abs=0.9, sign_i=1, sign_c=1)
        with pytest.raises(InvalidParameterError):
            fock_coefficients(spec, tail=0.0)
        with pytest.raises(InvalidParameterError):
            fock_coefficients(spec, max_terms=0)


class TestStatistics:
    def test_norm_mean_and_variance(self):
        spec = MinPacketSpec(l_i_abs=0.6, l_c_abs=1.1, sign_i=1, sign_c=1, u=0.5, v=1.3)
        fc = fock_coefficients(spec, tail=1e-14)
        assert fc.total_probability == pytest.approx(1.0, abs=1e-12)
        mean_l, var_l = fc.angular_momentum_stats()
        assert mean_l == pytest.approx(HBAR * spec.l_total, abs=1e-11)
        assert var_l == pytest.approx(gp.sigma_l(spec), abs=1e-10)

    def test_energy_from_ladder(self):
        spec = MinPacketSpec(l_i_abs=0.6, l_c_abs=1.1, sign_i=1, sign_c=-1,
                             u=0.5, v=1.3, omega=1.4)
        fc = fock_coefficients(spec, tail=1e-14)
        mean_e, var_e = fc.energy_stats(omega=1.4)
        assert mean_e == pytest.approx(gp.mean_energy(spec).total, abs=1e-10)
        assert var_e == pytest.approx(gp.sigma_e(spec), abs=1e-9)


class TestOneRowLadders:
    """Coherent (l_i = 0), squeezed (l_c = 0) and vacuum ladders are single rows."""

    def test_wide_coherent_ladder_is_complete(self):
        l_c = 2000.0
        fc = fock_coefficients(MinPacketSpec(l_i_abs=0.0, l_c_abs=l_c), tail=1e-12)
        assert fc.residual < 1e-12
        mean_l, _ = fc.angular_momentum_stats()
        assert mean_l == pytest.approx(HBAR * l_c, abs=1e-8)
        for k in (1900, 2000, 2100):
            log_poisson = -l_c + k * math.log(l_c) - math.lgamma(k + 1)
            assert math.log(abs(fc[(0, k)]) ** 2) == pytest.approx(log_poisson, abs=1e-10)

    def test_wide_squeezed_ladder_is_complete(self):
        fc = fock_coefficients(MinPacketSpec(l_i_abs=300.0, l_c_abs=0.0), tail=1e-12)
        assert fc.residual < 1e-12

    @pytest.mark.parametrize(
        "spec, kind, family",
        [
            (MinPacketSpec(l_i_abs=0.0, l_c_abs=1.3, sign_c=-1, v=0.4), "coherent",
             lambda s, **kw: coherent_coeffs(s.l_c_abs, s.sign_c, s.v, **kw)),
            (MinPacketSpec(l_i_abs=0.7, l_c_abs=0.0, sign_i=-1, u=1.9), "squeezed",
             lambda s, **kw: squeezed_coeffs(s.l_i_abs, s.sign_i, s.u, **kw)),
            (MinPacketSpec(l_i_abs=0.0, l_c_abs=0.0), "coherent",
             lambda s, **kw: coherent_coeffs(s.l_c_abs, s.sign_c, s.v, **kw)),
            (MinPacketSpec(l_i_abs=0.0, l_c_abs=0.0), "squeezed",
             lambda s, **kw: squeezed_coeffs(s.l_i_abs, s.sign_i, s.u, **kw)),
        ],
    )
    @pytest.mark.parametrize("tail, max_terms", [(1e-14, 10_000), (1e-12, 20)])
    def test_families_are_lattice_rows(self, spec, kind, family, tail, max_terms):
        # Each family is the n_r = 0 row of the (n_r, m) mode lattice, the row
        # antirotating_coeffs gives for the same spec.  max_terms caps its
        # stored coefficients: the squeezed row needs 29 at tail 1e-12, so a
        # cap of 20 raises in every family.
        calls = (antirotating_coeffs, fock_coefficients, family)
        need = len(antirotating_coeffs(spec, tail=tail).coeffs)
        if need > max_terms:
            for call in calls:
                with pytest.raises(ToleranceError, match=rf"max_terms={max_terms}\b"):
                    call(spec, tail=tail, max_terms=max_terms)
        else:
            row, *others = (call(spec, tail=tail, max_terms=max_terms) for call in calls)
            assert all(n == 0 for n, _ in row.coeffs) and row.residual < tail
            for fc in others:
                assert fc.coeffs == row.coeffs and fc.residual == row.residual
        assert family(spec).kind == kind

    def test_corotating_limits_keep_their_label(self):
        for spec in (MinPacketSpec(l_i_abs=0.0, l_c_abs=1.3, sign_c=-1, v=0.4),
                     MinPacketSpec(l_i_abs=0.7, l_c_abs=0.0, sign_i=-1, u=1.9)):
            fc = corotating_coeffs(spec)
            assert fc.kind == "corotating"
            assert fc.coeffs == antirotating_coeffs(spec).coeffs


#: Angular momenta drawn log-uniformly over [1e-6, 5], and angles in [0, 2 pi).
LOG_UNIFORM_L = st.floats(math.log(1e-6), math.log(5.0)).map(math.exp)
ANGLE = st.floats(0.0, 2.0 * math.pi, exclude_max=True)


class TestLadderProperties:
    @settings(deadline=None)
    @given(l_i=LOG_UNIFORM_L, l_c=LOG_UNIFORM_L, sign_i=st.sampled_from([1, -1]),
           sign_c=st.sampled_from([1, -1]), u=ANGLE, v=ANGLE)
    def test_ladder_is_complete_with_closed_form_mean_and_variance(
        self, l_i, l_c, sign_i, sign_c, u, v
    ):
        spec = MinPacketSpec(l_i_abs=l_i, l_c_abs=l_c, sign_i=sign_i, sign_c=sign_c, u=u, v=v)
        fc = fock_coefficients(spec)
        assert fc.residual < 1e-12
        mean_l, var_l = fc.angular_momentum_stats()
        assert abs(mean_l - HBAR * spec.l_total) <= 1e-9 * max(1.0, abs(spec.l_total))
        sigma = gp.sigma_l(spec)
        assert abs(var_l - sigma) <= 1e-8 * max(1.0, sigma)


def fsum_statistics(fc, omega: float) -> tuple[float, ...]:
    """The ladder statistics summed term by term with :func:`math.fsum`."""
    probs = [((n, m), abs(c) ** 2) for (n, m), c in fc.items()]
    total = math.fsum(p for _, p in probs)
    mean_l = math.fsum(m * p for (_, m), p in probs)
    var_l = math.fsum(m * m * p for (_, m), p in probs) - mean_l**2
    levels = [(1 + abs(m) + 2 * n, p) for (n, m), p in probs]
    mean_e = math.fsum(e * p for e, p in levels)
    var_e = math.fsum(e * e * p for e, p in levels) - mean_e**2
    scale = HBAR * omega
    return total, HBAR * mean_l, HBAR**2 * var_l, scale * mean_e, scale**2 * var_e


class TestLadderStatistics:
    @pytest.mark.parametrize(
        "spec",
        [
            MinPacketSpec(l_i_abs=2.0, l_c_abs=0.5, sign_i=1, sign_c=-1, u=0.7, v=2.1),
            MinPacketSpec(l_i_abs=0.6, l_c_abs=1.1, sign_i=-1, sign_c=-1, u=0.5, v=1.3),
            MinPacketSpec(l_i_abs=0.0, l_c_abs=40.0, sign_c=-1, v=0.3),
            MinPacketSpec(l_i_abs=0.0, l_c_abs=0.0),
        ],
    )
    def test_array_sums_match_term_by_term_fsum(self, spec):
        fc = fock_coefficients(spec, tail=1e-14)
        got = (fc.total_probability, *fc.angular_momentum_stats(), *fc.energy_stats(1.3))
        for value, expected in zip(got, fsum_statistics(fc, 1.3)):
            assert abs(value - expected) <= 1e-15 * abs(expected)

    def test_empty_ladder(self):
        fc = FockCoefficients(kind="coherent", coeffs={}, residual=1.0)
        assert fc.total_probability == 0.0
        assert fc.angular_momentum_stats() == (0.0, 0.0)


class TestGeneratingFunction:
    def test_matches_ladder_sum(self):
        spec = MinPacketSpec(l_i_abs=0.4, l_c_abs=0.9, sign_i=1, sign_c=1, u=0.3, v=1.0)
        fc = corotating_coeffs(spec, tail=1e-14)
        for z in (0.0, 0.35, 0.8, 1.0):
            ladder = sum(abs(c) ** 2 * z ** m for (_, m), c in fc.items())
            assert generating_function(spec, z) == pytest.approx(ladder, abs=1e-12)

    def test_derivatives_by_finite_differences(self):
        spec = MinPacketSpec(l_i_abs=0.4, l_c_abs=0.9, sign_i=1, sign_c=1, u=0.3, v=1.0)
        d1, d2 = generating_derivatives(spec)
        h = 1e-5
        g = lambda z: generating_function(spec, z)  # noqa: E731
        d1_num = (g(1 + h) - g(1 - h)) / (2 * h)
        d2_num = (g(1 + h) - 2 * g(1.0) + g(1 - h)) / h**2
        assert d1 == pytest.approx(d1_num, rel=1e-8)
        assert d2 == pytest.approx(d2_num, rel=1e-5)

    def test_mean_and_variance_from_derivatives(self):
        spec = MinPacketSpec(l_i_abs=0.4, l_c_abs=0.9, sign_i=-1, sign_c=-1, u=0.3, v=1.0)
        d1, d2 = generating_derivatives(spec)
        assert HBAR * d1 == pytest.approx(abs(spec.l_total), rel=1e-12)
        var = HBAR**2 * (d2 + d1 - d1 * d1)
        assert var == pytest.approx(gp.sigma_l(spec), rel=1e-12)

    def test_domain(self):
        spec = MinPacketSpec(l_i_abs=2.0, l_c_abs=0.5, sign_i=1, sign_c=1)
        with pytest.raises(InvalidParameterError):
            generating_function(spec, 1.0 / spec.eta + 0.1)
        anti = MinPacketSpec(l_i_abs=0.4, l_c_abs=0.9, sign_i=1, sign_c=-1)
        with pytest.raises(InvalidParameterError):
            generating_function(anti, 0.5)


class TestAsymptotics:
    def test_pk_asymptotic_tracks_winding_tail(self):
        # The closed form is a joint large-angular-momentum limit: it is only
        # claimed to land within ~20% of the exact probabilities when the
        # internal part dominates the orbital part, both are large, and k is
        # of the order of their sum.  Window-average to wash out the fringes.
        l_i, l_c = 60.0, 6.0
        spec = MinPacketSpec(l_i_abs=l_i, l_c_abs=l_c, sign_i=1, sign_c=1, u=0.0, v=0.0)
        fc = corotating_coeffs(spec, tail=1e-12)
        probs = {m: abs(c) ** 2 for (_, m), c in fc.items()}
        k0 = int(l_i + l_c)
        window = range(k0 - 3, k0 + 4)
        exact = sum(probs.get(k, 0.0) for k in window) / len(window)
        approx = sum(pk_asymptotic(l_i, l_c, k) for k in window) / len(window)
        assert approx == pytest.approx(exact, rel=0.2)

    def test_pk_asymptotic_validation(self):
        with pytest.raises(InvalidParameterError):
            pk_asymptotic(0.0, 0.0, 5)
        with pytest.raises(InvalidParameterError):
            pk_asymptotic(1.0, 1.0, -1)


def reference_antirotating(spec: MinPacketSpec, n: int, winding: int) -> complex:
    """The antirotating coefficient at ``(n, winding)``, one element at a time.

    The scalar form of the closed formula in ``antirotating_coeffs``: log
    factorials, ``log |H_k(0)|`` and the phase, with zero where the formula
    vanishes.  It covers the centered and circular limits as well.
    """
    lam = spec.sign_i if spec.l_i_abs > 0 else -spec.sign_c
    eta = spec.eta
    l_c = spec.l_c_abs
    w = lam * (spec.v - 0.5 * spec.u)
    phi = 0.5 * l_c * eta * math.sin(2.0 * w)
    log_quart = 0.25 * math.log(1.0 - eta**2)
    log_b1 = 0.5 * (math.log(l_c * eta / 2.0)) if l_c * eta > 0 else -math.inf
    m = lam * winding
    if m >= 0:
        sign_h, log_h = hermite_zero_log(m + n)
        if sign_h == 0 or (eta == 0.0 and m > 0):
            return 0.0
        log_mag = (
            log_quart
            - 0.5 * l_c
            + (n * log_b1 if n else 0.0)
            - 0.5 * (log_factorial(n) + log_factorial(n + m))
            + (0.5 * m * math.log(eta / 2.0) if m else 0.0)
            + log_h
        )
        phase = phi + n * (math.pi + w) - 0.5 * lam * spec.u * m
    else:
        sign_h, log_h = hermite_zero_log(n)
        if sign_h == 0 or l_c == 0.0:
            return 0.0
        m_abs = -m
        log_mag = (
            log_quart
            - 0.5 * l_c
            + (n * log_b1 if n else 0.0)
            - 0.5 * (log_factorial(n) + log_factorial(n + m_abs))
            + 0.5 * m_abs * math.log(l_c)
            + log_h
        )
        phase = phi + n * (math.pi + w) + lam * m_abs * spec.v
    if log_mag == -math.inf:
        return 0.0
    return sign_h * math.exp(log_mag) * cmath.exp(1j * phase)


def anti_spec(l_i, l_c, sign_i=1, u=0.7, v=2.1):
    return MinPacketSpec(l_i_abs=l_i, l_c_abs=l_c, sign_i=sign_i, sign_c=-sign_i, u=u, v=v)


#: (l_i, l_c, u, v, sign_i) of the five closed-forms benchmark strata.
BENCH_STRATA = (
    (1.0, 1.5, 0.3, 1.1, 1),
    (0.125, 1.5, 2.2, 0.4, -1),
    (1.3, 2.0, 4.0, 2.9, -1),
    (0.4, 0.8, 1.5, 5.2, 1),
    (0.9, 0.5, 5.5, 3.3, 1),
)

EPS = np.finfo(float).eps


class TestAntirotatingEngine:
    """The product of two rows reproduces the per-element formula cell for cell."""

    @staticmethod
    def assert_same_ladder(spec, tail=1e-12, max_terms=10_000):
        """Every stored cell matches the closed form, and the ladder is complete.

        The rows' recurrence and the reference's log factorials each round
        once per quantum, so a cell with ``n_+ + n_- = 2n + |winding|``
        quanta may deviate by ``8 eps`` per quantum, relative.  Both sides
        also exponentiate a log-magnitude (``-l_c/2`` and beyond), whose
        rounding is relative to its size, so ``|log |c||`` counts as quanta.
        """
        fc = antirotating_coeffs(spec, tail=tail, max_terms=max_terms)
        assert fc.residual < tail
        for (n, winding), c in fc.coeffs.items():
            ref = reference_antirotating(spec, n, winding)
            quanta = 2 * n + abs(winding) + 1 + abs(math.log(abs(ref)))
            assert abs(c - ref) <= 8 * EPS * quanta * abs(ref), (n, winding)
        return fc

    @pytest.mark.parametrize("l_i, l_c, u, v, sign_i", BENCH_STRATA)
    def test_benchmark_strata(self, l_i, l_c, u, v, sign_i):
        self.assert_same_ladder(anti_spec(l_i, l_c, sign_i, u, v), tail=1e-14)

    @pytest.mark.parametrize("l_i", [0.21, 0.69])
    @pytest.mark.parametrize("sign_i", [1, -1])
    def test_both_senses(self, l_i, sign_i):
        fc = self.assert_same_ladder(anti_spec(l_i, 1.5, sign_i), tail=1e-14)
        mean_l, _ = fc.angular_momentum_stats()
        assert mean_l == pytest.approx(HBAR * sign_i * (l_i - 1.5), abs=1e-11)

    @pytest.mark.parametrize("l_i", [2.0, 3.0])
    def test_ladders_the_grid_capped_are_complete(self, l_i):
        # A doubling (n_r, m) grid stopped these at 16,641 cells with
        # residuals 4.1e-13 and 1.0e-9 and returned them without raising.
        fc = self.assert_same_ladder(anti_spec(l_i, 0.5), tail=1e-14)
        assert len(fc.coeffs) < 10_000

    def test_wide_ladders(self):
        self.assert_same_ladder(anti_spec(0.01, 400.0))
        with pytest.raises(ToleranceError, match=r"needs \d+ coefficients .* max_terms=10000$"):
            antirotating_coeffs(anti_spec(20.0, 20.0))
        self.assert_same_ladder(anti_spec(20.0, 20.0), max_terms=40_000)

    def test_underflowing_cells_are_not_stored(self):
        # The coherent row starts at exp(-725), a subnormal; its products with
        # the small squeezed amplitudes round to zero and are dropped, while
        # the tiny nonzero ones are kept.
        spec, tail = anti_spec(1.0, 1450.0), 1e-12
        fc = antirotating_coeffs(spec, tail=tail, max_terms=100_000)
        rows = (squeezed_coeffs(1.0, tail=tail / 2), coherent_coeffs(1450.0, -1, tail=tail / 2))
        assert len(fc.coeffs) < len(rows[0].coeffs) * len(rows[1].coeffs)
        assert all(c != 0.0 for c in fc.coeffs.values())
        assert min(abs(c) for c in fc.coeffs.values()) < 1e-300
        assert fc.residual < tail

    @pytest.mark.parametrize(
        "spec",
        [
            MinPacketSpec(l_i_abs=0.0, l_c_abs=1.3, sign_c=-1, v=0.4),
            MinPacketSpec(l_i_abs=0.0, l_c_abs=1.3, sign_c=1, v=0.4),
            MinPacketSpec(l_i_abs=0.7, l_c_abs=0.0, sign_i=-1, u=1.9),
            MinPacketSpec(l_i_abs=0.0, l_c_abs=0.0),
        ],
    )
    def test_unrotated_and_centered_limits(self, spec):
        self.assert_same_ladder(spec, tail=1e-14)

    @pytest.mark.parametrize(
        "spec, top",
        [
            pytest.param(MinPacketSpec(l_i_abs=0.0, l_c_abs=1.3, sign_c=-1, v=0.4), 17, id="spec0"),
            pytest.param(MinPacketSpec(l_i_abs=0.7, l_c_abs=0.0, sign_i=-1, u=1.9), None,
                         id="spec1"),
        ],
    )
    def test_one_row_budget_counts_computed_cells(self, spec, top):
        # A row computes at most 2 max_terms + 1 = 41 cells (a squeezed row
        # stores every other one): the coherent row holds its probability in
        # 18, the squeezed row needs 67 and raises at index 40.
        if top is None:
            with pytest.raises(ToleranceError, match="at index 40;"):
                antirotating_coeffs(spec, tail=1e-14, max_terms=20)
        else:
            fc = self.assert_same_ladder(spec, tail=1e-14, max_terms=20)
            assert max(abs(m) for _, m in fc.coeffs) == top

    def test_budget_is_checked_before_the_product(self):
        spec = anti_spec(0.6, 1.1)
        squeezed = squeezed_coeffs(0.6, tail=5e-13)
        coherent = coherent_coeffs(1.1, -1, tail=5e-13)
        need = len(squeezed.coeffs) * len(coherent.coeffs)
        message = rf"needs {need} coefficients .* max_terms={need - 1}$"
        with pytest.raises(ToleranceError, match=message):
            antirotating_coeffs(spec, max_terms=need - 1)
        assert len(self.assert_same_ladder(spec, max_terms=need).coeffs) <= need
        with pytest.raises(ToleranceError, match=r"max_terms=1\b"):
            antirotating_coeffs(spec, max_terms=1)
