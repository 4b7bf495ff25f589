import cmath
import math

import numpy as np
import pytest
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
from gausspack.special import hermite_zero_log, log_factorial


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
        numeric = overlap_integral(packet, mode, mode_extent=3.5 * mode.rms_radius)
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
        spec = MinPacketSpec(l_i_abs=0.5, l_c_abs=1.0, sign_i=1, sign_c=1)
        for max_terms in (1, 4, 10):
            fc = corotating_coeffs(spec, max_terms=max_terms)
            assert len(fc.coeffs) == max_terms
            assert fc.residual > 0.0

    def test_corotating_overflow_raises(self):
        # |B| = 49 sends H_k(B)/sqrt(2^k k!) past the float range at k = 427,
        # long before the ladder holds its probability.
        spec = MinPacketSpec(l_i_abs=0.01, l_c_abs=400.0, sign_i=1, sign_c=1)
        with pytest.raises(ToleranceError, match="index 427"):
            fock_coefficients(spec)

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
    """Coherent (l_i = 0), squeezed (l_c = 0) and vacuum ladders are lattice rows."""

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
        lattice = antirotating_coeffs(spec, tail=tail, max_terms=max_terms)
        for fc in (fock_coefficients(spec, tail=tail, max_terms=max_terms),
                   family(spec, tail=tail, max_terms=max_terms)):
            assert list(fc.coeffs.items()) == list(lattice.coeffs.items())
            assert fc.residual == lattice.residual
        assert family(spec).kind == kind

    def test_corotating_limits_keep_their_label(self):
        for spec in (MinPacketSpec(l_i_abs=0.0, l_c_abs=1.3, sign_c=-1, v=0.4),
                     MinPacketSpec(l_i_abs=0.7, l_c_abs=0.0, sign_i=-1, u=1.9)):
            fc = corotating_coeffs(spec)
            assert fc.kind == "corotating"
            assert fc.coeffs == antirotating_coeffs(spec).coeffs


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


def reference_antirotating(spec: MinPacketSpec, tail: float = 1e-12,
                           max_terms: int = 10_000) -> tuple[dict, float]:
    """The antirotating ladder computed one element at a time.

    The scalar form of the formula in ``antirotating_coeffs``, with the same
    grid doubling and stopping rule, whose budget counts the cells the
    engine computes: ``(coeffs, residual)``.
    """
    lam = spec.sign_i if spec.l_i_abs > 0 else -spec.sign_c
    eta = spec.eta
    l_c = spec.l_c_abs
    w = lam * (spec.v - 0.5 * spec.u)
    phi = 0.5 * l_c * eta * math.sin(2.0 * w)
    log_quart = 0.25 * math.log(1.0 - eta**2)
    log_b1 = 0.5 * (math.log(l_c * eta / 2.0)) if l_c * eta > 0 else -math.inf

    def coefficient(n: int, m: int) -> complex:
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
            if sign_h == 0 or (l_c == 0.0 and m < 0):
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

    n_max, m_span = 16, 16
    while True:
        coeffs = {}
        for n in range(n_max + 1):
            for m in range(-m_span, m_span + 1):
                c = coefficient(n, m)
                if c != 0.0:
                    coeffs[(n, lam * m)] = c
        total = math.fsum(abs(c) ** 2 for c in coeffs.values())
        rows = n_max + 1 if l_c * eta > 0 else 1
        width = 1 + (m_span if eta > 0 else 0) + (m_span if l_c > 0 else 0)
        if 1.0 - total < tail or rows * width >= max_terms:
            return coeffs, 1.0 - total
        n_max *= 2
        m_span *= 2


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


class TestAntirotatingEngine:
    """The array engine reproduces the per-element formula cell for cell."""

    @staticmethod
    def assert_same_ladder(spec, tail=1e-12, max_terms=10_000):
        fc = antirotating_coeffs(spec, tail=tail, max_terms=max_terms)
        ref, ref_residual = reference_antirotating(spec, tail, max_terms)
        assert list(fc.coeffs) == list(ref)
        for key, c in fc.coeffs.items():
            assert abs(c - ref[key]) <= 1e-15 * abs(ref[key]), key
        assert abs(fc.residual - ref_residual) <= 4.4e-16
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

    def test_capped_ladder_keeps_its_residual(self):
        # The 10,000-cell cap stops this ladder short of the tail; the
        # shortfall is reported in the residual, not raised.
        fc = self.assert_same_ladder(anti_spec(2.0, 0.5), tail=1e-14)
        assert fc.residual > 1e-14
        assert len(fc.coeffs) == 16_641

    def test_wide_ladders(self):
        self.assert_same_ladder(anti_spec(0.01, 400.0), max_terms=40_000)
        self.assert_same_ladder(anti_spec(20.0, 20.0))

    def test_underflowing_cells_are_not_stored(self):
        # With l_c = 1e-8 the factor l_c^(n/2) sends most of the 128-row grid
        # below the smallest double, down to subnormal magnitudes.
        fc = self.assert_same_ladder(anti_spec(1.0, 1e-8), tail=1e-14)
        assert len(fc.coeffs) < 16_641 // 2
        assert min(abs(c) for c in fc.coeffs.values()) < 1e-300

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
        fc = self.assert_same_ladder(spec, tail=1e-14)
        assert fc.residual < 1e-14

    @pytest.mark.parametrize(
        "spec",
        [
            MinPacketSpec(l_i_abs=0.0, l_c_abs=1.3, sign_c=-1, v=0.4),
            MinPacketSpec(l_i_abs=0.7, l_c_abs=0.0, sign_i=-1, u=1.9),
        ],
    )
    def test_one_row_budget_counts_computed_cells(self, spec):
        # The row holds 17 cells at m_span = 16, under a budget of 20, and
        # 33 at m_span = 32, which stops it.
        fc = self.assert_same_ladder(spec, tail=1e-14, max_terms=20)
        assert max(abs(m) for _, m in fc.coeffs) == 32

    def test_single_cell_budget_stops_after_the_first_grid(self):
        fc = self.assert_same_ladder(anti_spec(0.6, 1.1), max_terms=1)
        assert max(n for n, _ in fc.coeffs) == 16
