import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gausspack as gp
from gausspack import (
    HBAR,
    EvolutionContext,
    InvalidParameterError,
    LGMode,
    MinPacketSpec,
    RealParams,
)
from gausspack._record import real
from gausspack.verify import random_params


def sample_params() -> RealParams:
    return RealParams(
        mu=1.3, alpha=1.1, beta=-0.4, gamma=0.8, chi_a=0.5, chi_c=-0.7,
        rho=0.3, f1=0.2, f2=-0.1, g1=0.4, g2=0.6,
    )


class TestRealParams:
    def test_requires_positive_definite_quadratic(self):
        with pytest.raises(InvalidParameterError):
            RealParams(mu=1.0, alpha=1.0, beta=1.0, gamma=1.0, chi_a=0, chi_c=0, rho=0)
        with pytest.raises(InvalidParameterError):
            RealParams(mu=1.0, alpha=-1.0, beta=0.0, gamma=1.0, chi_a=0, chi_c=0, rho=0)
        with pytest.raises(InvalidParameterError):
            RealParams(mu=0.0, alpha=1.0, beta=0.0, gamma=1.0, chi_a=0, chi_c=0, rho=0)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidParameterError):
            RealParams(mu=1.0, alpha=math.nan, beta=0.0, gamma=1.0, chi_a=0, chi_c=0, rho=0)

    def test_accepts_numpy_scalars(self):
        p = RealParams(
            mu=np.float64(1.0), alpha=np.float64(1.0), beta=np.float64(0.0),
            gamma=np.float64(1.0), chi_a=np.float64(0.0), chi_c=np.float64(0.0),
            rho=np.float64(0.0),
        )
        assert isinstance(p.alpha, float)

    def test_dict_round_trip(self):
        p = sample_params()
        q = RealParams.from_dict(p.to_dict())
        assert p == q

    def test_from_dict_rejects_missing_and_extra(self):
        data = sample_params().to_dict()
        extra = dict(data, bogus=1.0)
        with pytest.raises(InvalidParameterError):
            RealParams.from_dict(extra)
        del data["rho"]
        with pytest.raises(InvalidParameterError):
            RealParams.from_dict(data)

    def test_complex_views(self):
        p = sample_params()
        assert p.quad_a == pytest.approx(p.alpha / 2 + 1j * p.chi_a)
        assert p.quad_b == pytest.approx(p.beta + 1j * p.rho)
        assert p.quad_c == pytest.approx(p.gamma / 2 + 1j * p.chi_c)
        assert p.lin_f == pytest.approx(p.f1 + 1j * p.f2)
        assert p.lin_g == pytest.approx(p.g1 + 1j * p.g2)


class TestReal:
    """The one real-number rule behind every record field."""

    @pytest.mark.parametrize("value", [np.float64(0.25), np.float32(0.25), 0.25, 1, np.int64(1)])
    def test_stores_exactly_a_float(self, value):
        number = real(value, "x")
        assert type(number) is float and number == float(value)

    @pytest.mark.parametrize("bad", [np.float64(np.nan), np.float64(np.inf), np.float64(-np.inf),
                                     True, np.bool_(True), "0.5", None, 1j, 10**400])
    def test_refuses(self, bad):
        with pytest.raises(InvalidParameterError, match="^x must be"):
            real(bad, "x")


# Each record has an integer-valued float field, so NumPy ints are tried too.
RECORDS = [
    dataclasses.replace(sample_params(), mu=2.0),
    MinPacketSpec(l_i_abs=0.3, l_c_abs=1.1, sign_i=-1, sign_c=1, u=0.2, v=0.9, omega=2.0, mass=0.5),
    EvolutionContext(kind="magnetic", omega=0.4, omega_larmor=-0.9, mass=2.0),
    LGMode(n_r=2, m=-3, mu=2.0),
]


def numeric_fields(record):
    return [f.name for f in dataclasses.fields(record) if f.type in ("float", "int")]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: r.record_name)
class TestRecordPolicy:
    """One validation and JSON rule for packets, specs, contexts and modes."""

    @pytest.mark.parametrize("bad", [True, "1.0", None, math.nan, math.inf, -math.inf])
    def test_rejects_non_real_field_values(self, record, bad):
        for name in numeric_fields(record):
            with pytest.raises(InvalidParameterError, match=name):
                dataclasses.replace(record, **{name: bad})

    def test_accepts_numpy_scalars(self, record):
        for name in numeric_fields(record):
            value = getattr(record, name)
            scalars = [np.float64(value)]
            if float(value).is_integer():
                scalars.append(np.int64(value))
            for scalar in scalars:
                again = dataclasses.replace(record, **{name: scalar})
                assert again == record
                assert type(getattr(again, name)) is type(value)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_numpy_floats(self, record, bad):
        for name in numeric_fields(record):
            with pytest.raises(InvalidParameterError, match=name):
                dataclasses.replace(record, **{name: np.float64(bad)})

    def test_json_round_trip(self, record):
        text = json.dumps(record.to_dict(), allow_nan=False)
        assert type(record).from_dict(json.loads(text)) == record

    def test_from_dict_needs_exactly_the_keys_of_a_mapping(self, record):
        cls, data = type(record), record.to_dict()
        for key in data:
            partial = {k: v for k, v in data.items() if k != key}
            with pytest.raises(InvalidParameterError, match=f"missing {record.record_name} fields"):
                cls.from_dict(partial)
        with pytest.raises(InvalidParameterError, match=f"unknown {record.record_name} fields"):
            cls.from_dict(dict(data, bogus=1.0))
        for not_a_mapping in (list(data.items()), "{}", None, 3.0):
            with pytest.raises(InvalidParameterError, match=f"{record.record_name} must be"):
                cls.from_dict(not_a_mapping)


@st.composite
def moments_strategy(draw):
    f = st.floats(-3.0, 3.0, allow_nan=False)
    return tuple(draw(f) for _ in range(4))


class TestMoments:
    @settings(max_examples=40, deadline=None)
    @given(moments_strategy())
    def test_params_from_moments_inverts_first_moments(self, target):
        base = sample_params()
        x0, y0, px0, py0 = target
        shifted = gp.params_from_moments(base, x0, y0, px0, py0)
        got = gp.first_moments(shifted)
        assert got.x0 == pytest.approx(x0, abs=1e-12)
        assert got.y0 == pytest.approx(y0, abs=1e-12)
        assert got.px0 == pytest.approx(px0, abs=1e-12)
        assert got.py0 == pytest.approx(py0, abs=1e-12)

    def test_covariance_matrix_structure(self, rng):
        for _ in range(5):
            p = random_params(rng)
            cov = gp.covariances(p)
            assert cov.shape == (4, 4)
            np.testing.assert_allclose(cov, cov.T, atol=1e-15)
            # Position block must be positive definite.
            assert np.all(np.linalg.eigvalsh(cov[:2, :2]) > 0)

    def test_displacement_does_not_change_covariances(self, rng):
        p = random_params(rng)
        q = gp.params_from_moments(p, 2.0, -1.0, 0.7, 0.3)
        np.testing.assert_allclose(gp.covariances(p), gp.covariances(q), atol=1e-12)

    def test_uncertainty_product_is_minimal_for_pure_gaussian(self, rng):
        # det(cov) = hbar^4/16 for every pure Gaussian, displaced or not.
        for _ in range(5):
            cov = gp.covariances(random_params(rng))
            assert np.linalg.det(cov) == pytest.approx(HBAR**4 / 16.0, rel=1e-10)

    def test_gaussian_state_collects_everything(self):
        p = sample_params()
        state = gp.gaussian_state(p)
        m = gp.first_moments(p)
        np.testing.assert_allclose(state.mean, np.array(m))
        np.testing.assert_allclose(state.cov, gp.covariances(p))


class TestAngularMomentum:
    def test_split_center_plus_intrinsic(self):
        p = sample_params()
        split = gp.angular_split(p)
        x0, y0, px0, py0 = gp.first_moments(p)
        assert split.center == pytest.approx((x0 * py0 - y0 * px0) / HBAR)
        assert split.total == pytest.approx(split.center + split.intrinsic)

    def test_centered_packet_has_no_center_part(self):
        p = RealParams(mu=1.0, alpha=1.0, beta=0.2, gamma=1.3, chi_a=0.4, chi_c=-0.1, rho=0.6)
        split = gp.angular_split(p)
        assert split.center == 0.0
        assert split.intrinsic != 0.0

    def test_isotropic_packet_carries_nothing(self):
        p = RealParams(mu=1.0, alpha=1.0, beta=0.0, gamma=1.0, chi_a=0.0, chi_c=0.0, rho=0.0)
        split = gp.angular_split(p)
        assert split.intrinsic == 0.0


class TestWavefunction:
    def test_density_matches_wavefunction(self, rng):
        p = random_params(rng)
        xs = rng.uniform(-2, 2, 10)
        ys = rng.uniform(-2, 2, 10)
        np.testing.assert_allclose(
            gp.density(p, xs, ys), np.abs(gp.wavefunction(p, xs, ys)) ** 2, rtol=1e-12
        )

    def test_normalization_is_value_at_origin(self, rng):
        # With the real-positive prefactor convention, psi(0, 0) is exactly
        # the normalization modulus.
        for _ in range(5):
            p = random_params(rng)
            val = complex(gp.wavefunction(p, 0.0, 0.0))
            assert val.imag == 0.0
            assert val.real == pytest.approx(gp.normalization(p), rel=1e-13)

    @pytest.mark.parametrize("l_c", [1e3, 1e6, 1e8])
    def test_far_displaced_packet_is_finite_at_its_centre(self, l_c):
        # The prefactor underflows to 0 and the bare exponential overflows
        # there, so their product was 0 * inf = NaN.
        spec = MinPacketSpec(l_i_abs=0.5, l_c_abs=l_c, sign_i=1, sign_c=1, u=0.3, v=0.0, omega=1.0)
        p = gp.build_min_packet(spec)
        x0, y0, _, _ = gp.first_moments(p)
        assert gp.normalization(p) == 0.0
        value = complex(gp.wavefunction(p, x0, y0))
        assert abs(value) ** 2 == pytest.approx(gp.density(p, x0, y0), rel=1e-6)

    def test_centered_normalization_closed_form(self):
        p = RealParams(mu=1.4, alpha=1.1, beta=-0.3, gamma=0.9, chi_a=0.5, chi_c=0.2, rho=-0.6)
        expected = math.sqrt(p.mu * math.sqrt(p.delta) / math.pi)
        assert gp.normalization(p) == pytest.approx(expected, rel=1e-14)

    def test_probability_current_vanishes_for_real_wavefunction(self):
        p = RealParams(mu=1.0, alpha=1.0, beta=0.1, gamma=1.2, chi_a=0.0, chi_c=0.0, rho=0.0)
        jx, jy = gp.probability_current(p, np.array([0.3, -0.5]), np.array([0.2, 0.7]))
        np.testing.assert_allclose(jx, 0.0, atol=1e-15)
        np.testing.assert_allclose(jy, 0.0, atol=1e-15)

    def test_probability_current_matches_gradient_definition(self, rng):
        p = random_params(rng)
        x, y = 0.4, -0.3
        h = 1e-6
        psi = gp.wavefunction(p, x, y)
        dpsi_dx = (gp.wavefunction(p, x + h, y) - gp.wavefunction(p, x - h, y)) / (2 * h)
        dpsi_dy = (gp.wavefunction(p, x, y + h) - gp.wavefunction(p, x, y - h)) / (2 * h)
        jx_ref = (HBAR / 1.0) * float(np.imag(np.conj(psi) * dpsi_dx))
        jy_ref = (HBAR / 1.0) * float(np.imag(np.conj(psi) * dpsi_dy))
        jx, jy = gp.probability_current(p, x, y)
        assert float(jx) == pytest.approx(jx_ref, rel=1e-6, abs=1e-9)
        assert float(jy) == pytest.approx(jy_ref, rel=1e-6, abs=1e-9)


class TestEllipse:
    def test_isotropic_circle(self):
        p = RealParams(mu=2.0, alpha=1.5, beta=0.0, gamma=1.5, chi_a=0, chi_c=0, rho=0)
        e = gp.ellipse(p)
        assert e.eccentricity == 0.0
        assert e.a_plus == pytest.approx(e.a_minus)
        assert e.theta == 0.0

    def test_area_consistent_with_axes(self, rng):
        for _ in range(5):
            p = random_params(rng)
            e = gp.ellipse(p, nu=1.7)
            assert e.area == pytest.approx(math.pi * e.a_plus * e.a_minus, rel=1e-12)

    def test_major_axis_angle_diagonalizes_quadratic(self, rng):
        for _ in range(8):
            p = random_params(rng)
            e = gp.ellipse(p)
            c, s = math.cos(e.theta), math.sin(e.theta)
            # Rotate the quadratic form by -theta; the cross term must vanish
            # and the major axis (smaller coefficient) must land on x.
            a, b, g = p.alpha, p.beta, p.gamma
            cross = 2 * (g - a) * s * c + 2 * b * (c * c - s * s)
            coef_x = a * c * c + 2 * b * s * c + g * s * s
            coef_y = a * s * s - 2 * b * s * c + g * c * c
            assert cross == pytest.approx(0.0, abs=1e-12)
            assert coef_x <= coef_y + 1e-12
            assert -math.pi / 2 < e.theta <= math.pi / 2

    def test_nu_must_be_positive(self):
        with pytest.raises(InvalidParameterError):
            gp.ellipse(sample_params(), nu=0.0)

    @pytest.mark.parametrize("nu", [math.nan, math.inf, "1.0", True])
    def test_nu_must_be_a_finite_real(self, nu):
        with pytest.raises(InvalidParameterError, match="nu"):
            gp.ellipse(sample_params(), nu=nu)
