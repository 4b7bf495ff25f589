import math

import numpy as np
import pytest

import gausspack as gp
from gausspack import HBAR, InvalidParameterError, MinPacketSpec
from gausspack import verify as verify_module


def spec_grid():
    for l_i in (0.0, 0.4, 1.7):
        for l_c in (0.0, 0.9):
            for signs in ((1, 1), (1, -1), (-1, 1)):
                yield MinPacketSpec(
                    l_i_abs=l_i, l_c_abs=l_c, sign_i=signs[0], sign_c=signs[1],
                    u=0.8, v=2.1, omega=1.4, mass=0.7,
                )


class TestMinPacketSpec:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            MinPacketSpec(l_i_abs=-0.1)
        with pytest.raises(InvalidParameterError):
            MinPacketSpec(l_i_abs=0.5, sign_i=2)
        with pytest.raises(InvalidParameterError):
            MinPacketSpec(l_i_abs=0.5, omega=0.0)

    def test_dict_round_trip(self):
        spec = MinPacketSpec(l_i_abs=0.3, l_c_abs=1.1, sign_i=-1, sign_c=1,
                             u=0.2, v=0.9, omega=2.0, mass=0.5)
        again = MinPacketSpec.from_dict(spec.to_dict())
        assert spec == again

    def test_derived_quantities(self):
        spec = MinPacketSpec(l_i_abs=1.0, l_c_abs=2.0, sign_i=-1, sign_c=1,
                             u=0.6, v=1.0, omega=2.0, mass=3.0)
        assert spec.eta == pytest.approx(math.sqrt(0.5))
        assert spec.mu == pytest.approx(3.0 * 2.0 / HBAR)
        assert spec.l_total == pytest.approx(-1.0 + 2.0)
        assert spec.orbit_radius == pytest.approx(math.sqrt(2.0 / spec.mu))
        assert spec.w == pytest.approx(-(1.0 - 0.3))


class TestConstruction:
    def test_angular_momenta_and_energy(self):
        for spec in spec_grid():
            packet = gp.build_min_packet(spec)
            split = gp.angular_split(packet)
            assert split.intrinsic == pytest.approx(spec.l_intrinsic, abs=1e-12)
            assert split.center == pytest.approx(spec.l_center, abs=1e-12)
            energy = gp.mean_energy(spec)
            assert energy.internal == pytest.approx(
                HBAR * spec.omega * (1.0 + spec.l_i_abs), rel=1e-12
            )
            assert energy.center == pytest.approx(
                HBAR * spec.omega * spec.l_c_abs, abs=1e-12
            )

    def test_closed_covariances_match_parameter_route(self):
        for spec in spec_grid():
            direct = gp.min_packet_covariances(spec)
            via_params = gp.covariances(gp.build_min_packet(spec))
            np.testing.assert_allclose(direct, via_params, atol=1e-12)

    def test_internal_energy_closed_form_on_shape(self):
        spec = MinPacketSpec(l_i_abs=0.9, sign_i=1, u=0.5, omega=1.3)
        packet = gp.build_min_packet(spec)
        value = gp.internal_energy(
            packet.alpha, packet.beta, packet.gamma,
            packet.chi_a, packet.chi_c, packet.rho, omega=1.3,
        )
        assert value == pytest.approx(HBAR * 1.3 * 1.9, rel=1e-12)

    def test_energy_split_from_state(self):
        spec = MinPacketSpec(l_i_abs=0.6, l_c_abs=1.4, sign_i=1, sign_c=-1, u=1.0, v=0.4)
        split = gp.energy_split(gp.min_packet_state(spec), omega=spec.omega, mass=spec.mass)
        ref = gp.mean_energy(spec)
        assert split.internal == pytest.approx(ref.internal, rel=1e-12)
        assert split.center == pytest.approx(ref.center, rel=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, "1.0", True])
    def test_internal_energy_rejects_non_real_arguments(self, bad):
        with pytest.raises(InvalidParameterError, match="rho"):
            gp.internal_energy(1.0, 0.0, 1.0, 0.0, 0.0, bad)
        with pytest.raises(InvalidParameterError, match="omega"):
            gp.internal_energy(1.0, 0.0, 1.0, 0.0, 0.0, 0.0, omega=bad)

    def test_energy_split_rejects_non_finite_frequency_and_returns_floats(self):
        spec = MinPacketSpec(l_i_abs=0.6, l_c_abs=1.4, sign_i=1, sign_c=-1, u=1.0, v=0.4)
        state = gp.min_packet_state(spec)
        for bad in (math.nan, math.inf):
            with pytest.raises(InvalidParameterError, match="omega"):
                gp.energy_split(state, omega=bad)
            with pytest.raises(InvalidParameterError, match="mass"):
                gp.energy_split(state, omega=1.0, mass=bad)
        split = gp.energy_split(state, omega=spec.omega, mass=spec.mass)
        assert type(split.center) is float and type(split.internal) is float

    def test_vacuum_energy(self):
        spec = MinPacketSpec(l_i_abs=0.0, omega=2.5)
        assert gp.mean_energy(spec).total == pytest.approx(HBAR * 2.5)


class TestSqueezing:
    def test_factors_match_prediction(self):
        for spec in spec_grid():
            s_x, s_y = gp.squeezing_factors(
                gp.min_packet_covariances(spec), spec.omega, spec.mass
            )
            target = gp.min_packet_squeezing(spec)
            assert s_x == pytest.approx(target, abs=1e-12)
            assert s_y == pytest.approx(target, abs=1e-12)

    def test_never_below_half(self):
        for l_i in (0.1, 1.0, 50.0, 5000.0):
            spec = MinPacketSpec(l_i_abs=l_i)
            assert gp.min_packet_squeezing(spec) > 0.5

    def test_coherent_state_is_unsqueezed(self):
        spec = MinPacketSpec(l_i_abs=0.0, l_c_abs=2.0, v=0.7)
        s_x, s_y = gp.squeezing_factors(
            gp.min_packet_covariances(spec), spec.omega, spec.mass
        )
        assert s_x == pytest.approx(1.0, abs=1e-12)
        assert s_y == pytest.approx(1.0, abs=1e-12)


class TestInvariants:
    def test_pure_state_values(self):
        for spec in spec_grid():
            inv = gp.universal_invariants(gp.min_packet_covariances(spec))
            assert inv.d0 == pytest.approx(HBAR**4 / 16.0, abs=1e-13)
            assert inv.d2 == pytest.approx(-(HBAR**4) / 2.0, abs=1e-13)
            assert inv.kappas[0] == pytest.approx(0.5, abs=1e-12)
            assert inv.kappas[1] == pytest.approx(0.5, abs=1e-12)

    def test_mixed_state_detected(self):
        # Doubling the covariance matrix mimics a thermal-like state: the
        # symplectic eigenvalues double and both invariants move.
        spec = MinPacketSpec(l_i_abs=0.5, l_c_abs=0.5)
        inv = gp.universal_invariants(2.0 * gp.min_packet_covariances(spec))
        assert inv.d0 == pytest.approx(HBAR**4, rel=1e-10)
        assert inv.kappas[0] == pytest.approx(1.0, abs=1e-10)


class TestMinimumSearch:
    def test_internal_bound_confirmed_quickly(self):
        report = gp.verify_minimum(0.7, omega=1.1, n_starts=8, seed=11, tolerance=1e-6)
        assert report.passed
        assert report.attained and report.bounded_below
        assert report.best_value == pytest.approx(HBAR * 1.1 * 1.7, abs=1e-7)
        assert report.n_evaluations > 0

    def test_center_bound_confirmed(self):
        report = gp.verify_center_minimum(1.3, omega=0.9, n_starts=8, seed=5)
        assert report.passed
        assert report.predicted == pytest.approx(HBAR * 0.9 * 1.3)

    def test_rejects_bad_arguments(self):
        with pytest.raises(InvalidParameterError):
            gp.verify_minimum(-1.0)
        with pytest.raises(InvalidParameterError):
            gp.verify_minimum(1.0, omega=-2.0)

    def test_rejects_non_finite_arguments_before_searching(self):
        with pytest.raises(InvalidParameterError, match="l_i_abs"):
            gp.verify_minimum(math.nan)
        with pytest.raises(InvalidParameterError, match="omega"):
            gp.verify_minimum(1.0, omega=math.nan)

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"l_c_abs": "1"}, "l_c_abs"),
            ({"l_c_abs": True}, "l_c_abs"),
            ({"l_c_abs": math.nan}, "l_c_abs"),
            ({"l_c_abs": math.inf}, "l_c_abs"),
            ({"l_c_abs": -1.0}, "l_c_abs"),
            ({"l_c_abs": 1.0, "omega": math.nan}, "omega"),
            ({"l_c_abs": 1.0, "omega": math.inf}, "omega"),
            ({"l_c_abs": 1.0, "omega": 0.0}, "omega"),
            ({"l_c_abs": 1.0, "mass": math.nan}, "mass"),
            ({"l_c_abs": 1.0, "mass": -math.inf}, "mass"),
            ({"l_c_abs": 1.0, "mass": -2.0}, "mass"),
        ],
    )
    def test_center_search_rejects_bad_arguments_before_searching(self, monkeypatch, kwargs, name):
        def no_search(*_args, **_kwargs):
            raise AssertionError("the search ran")

        monkeypatch.setattr(verify_module, "minimize_free", no_search)
        with pytest.raises(InvalidParameterError, match=name):
            gp.verify_center_minimum(**kwargs)
