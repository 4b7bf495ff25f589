import csv
import io
import json
import math

import numpy as np
import pytest

import gausspack as gp
from gausspack import cli, verify
from gausspack.cli import main
from gausspack.packet import log_normalization


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv, expect_code=0):
    code, out, _ = run_cli(capsys, *argv)
    assert code == expect_code
    return json.loads(out)


@pytest.fixture
def params_file(tmp_path):
    payload = {"mu": 1.1, "alpha": 1.3, "beta": 0.4, "gamma": 0.9, "chi_a": -0.5,
               "chi_c": 0.7, "rho": 0.3, "F1": 0.6, "F2": -0.3, "G1": 0.2, "G2": 0.8}
    path = tmp_path / "packet.json"
    path.write_text(json.dumps(payload))
    return str(path)


class TestDescribe:
    def test_reports_moments_and_invariants(self, capsys, params_file):
        doc = run_json(capsys, "describe", "--params", params_file)
        assert doc["schema_version"] == "1"
        params = gp.RealParams.from_dict(doc["packet"])
        x0, y0, px0, py0 = gp.first_moments(params)
        assert doc["center"]["x0"] == pytest.approx(x0, rel=1e-15)
        assert doc["center"]["py0"] == pytest.approx(py0, rel=1e-15)
        assert doc["norm_prefactor"] == pytest.approx(gp.normalization(params), rel=1e-15)
        assert doc["invariants"]["D0"] == pytest.approx(gp.HBAR**4 / 16.0, rel=1e-12)
        assert len(doc["covariance"]) == 4

    def test_accepts_wrapped_packet_object(self, capsys, tmp_path, params_file):
        inner = json.loads(open(params_file).read())
        wrapped = tmp_path / "wrapped.json"
        wrapped.write_text(json.dumps({"packet": inner, "note": "ignored"}))
        doc = run_json(capsys, "describe", "--params", str(wrapped))
        assert doc["packet"]["alpha"] == pytest.approx(1.3)

    def test_round_trips_its_own_output(self, capsys, tmp_path, params_file):
        first = run_json(capsys, "describe", "--params", params_file)
        echo = tmp_path / "echo.json"
        echo.write_text(json.dumps(first))
        second = run_json(capsys, "describe", "--params", str(echo))
        assert second["packet"] == first["packet"]

    def test_missing_file_fails_cleanly(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "describe", "--params", str(tmp_path / "nope.json"))
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_malformed_json_fails_cleanly(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(capsys, "describe", "--params", str(bad))
        assert code == 1 and "error:" in err

    def test_invalid_packet_fails_cleanly(self, capsys, tmp_path):
        bad = tmp_path / "degenerate.json"
        bad.write_text(json.dumps({"mu": 1.0, "alpha": 1.0, "beta": 1.0, "gamma": 1.0,
                                   "chi_a": 0, "chi_c": 0, "rho": 0,
                                   "F1": 0, "F2": 0, "G1": 0, "G2": 0}))
        code, _, err = run_cli(capsys, "describe", "--params", str(bad))
        assert code == 1 and "error:" in err

    def test_builds_packet_from_inline_spec(self, capsys):
        doc = run_json(capsys, "describe", "--Li", "0.125", "--Lc", "1.5",
                       "--co", "--w", "0")
        assert doc["angular_momentum"]["total"] == pytest.approx(13.0 / 8.0, rel=1e-12)

    def test_far_displaced_packet_reports_its_log_prefactor(self, capsys):
        # At l_c = 2000 the prefactor underflows: norm_prefactor reads 0.0.
        doc = run_json(capsys, "describe", "--Li", "0.5", "--Lc", "2000", "--co")
        params = gp.RealParams.from_dict(doc["packet"])
        assert math.isfinite(doc["log_norm_prefactor"])
        assert doc["log_norm_prefactor"] == log_normalization(params)

    def test_log_prefactor_is_the_log_of_the_prefactor(self, capsys):
        doc = run_json(capsys, "describe", "--Li", "0.5", "--Lc", "2.0", "--co")
        assert doc["norm_prefactor"] > 0.0
        assert doc["log_norm_prefactor"] == pytest.approx(
            math.log(doc["norm_prefactor"]), rel=1e-14, abs=1e-14
        )

    def test_spec_flag_accepts_either_file_format(self, capsys, tmp_path, params_file):
        built = run_json(capsys, "minimize", "--Li", "0.5", "--Lc", "2.0", "--co")
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"spec": built["spec"]}))
        doc = run_json(capsys, "describe", "--spec", str(spec_path))
        assert doc["packet"] == pytest.approx(built["packet"])
        again = run_json(capsys, "describe", "--spec", params_file)
        assert again["packet"]["alpha"] == pytest.approx(1.3)

    def test_needs_some_input(self, capsys):
        code, _, err = run_cli(capsys, "describe")
        assert code == 1 and "error:" in err


class TestMinimize:
    def test_known_operating_point(self, capsys):
        doc = run_json(capsys, "minimize", "--Li", "0.125", "--Lc", "1.5",
                       "--co", "--w", "0")
        assert doc["sigma_L"] == pytest.approx(33.0 / 32.0, rel=1e-12)
        assert doc["energy"]["total"] == pytest.approx(2.625, rel=1e-12)
        assert doc["angular_momentum"]["total"] == pytest.approx(1.625, rel=1e-12)
        assert doc["squeezing"]["predicted"] == pytest.approx(0.75, rel=1e-12)
        assert doc["squeezing"]["S_x"] == pytest.approx(0.75, rel=1e-12)
        assert doc["eta"] == pytest.approx(1.0 / 3.0, rel=1e-14)
        assert doc["invariants"]["D0"] == pytest.approx(gp.HBAR**4 / 16.0, rel=1e-12)
        assert doc["invariants"]["D2"] == pytest.approx(-gp.HBAR**4 / 2.0, rel=1e-12)

    def test_check_mode_confirms_bound(self, capsys):
        doc = run_json(capsys, "minimize", "--Li", "0.5", "--check",
                       "--starts", "6", "--seed", "7")
        assert doc["verification"]["passed"] is True
        assert abs(doc["verification"]["gap"]) < 1e-6

    def test_spec_file_round_trip(self, capsys, tmp_path):
        doc = run_json(capsys, "minimize", "--Li", "0.3", "--Lc", "0.8",
                       "--anti", "--u", "0.4", "--v", "1.2")
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"spec": doc["spec"]}))
        again = run_json(capsys, "minimize", "--spec", str(spec_path))
        assert again["packet"] == doc["packet"]

    @pytest.mark.parametrize("field, value", [("lambda", True), ("L_i_abs", "0.3"), ("omega", None)])
    def test_spec_file_values_must_be_real_numbers(self, capsys, tmp_path, field, value):
        doc = run_json(capsys, "minimize", "--Li", "0.3", "--Lc", "0.8")
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"spec": dict(doc["spec"], **{field: value})}))
        for command in (["minimize"], ["describe"], ["evolve", "--kind", "free", "--t", "1"]):
            code, out, err = run_cli(capsys, *command, "--spec", str(spec_path))
            assert code == 1 and out == ""
            assert "must be a real number" in err

    def test_describe_agrees_with_minimize(self, capsys, tmp_path):
        doc = run_json(capsys, "minimize", "--Li", "0.7", "--Lc", "0.2", "--co")
        packet = tmp_path / "packet.json"
        packet.write_text(json.dumps({"packet": doc["packet"]}))
        described = run_json(capsys, "describe", "--params", str(packet))
        assert described["angular_momentum"]["total"] == pytest.approx(
            doc["angular_momentum"]["total"], rel=1e-10
        )

    def test_li_required(self, capsys):
        code, _, err = run_cli(capsys, "minimize", "--Lc", "1.0")
        assert code == 1 and "error:" in err


class TestFluct:
    def test_subpoisson_optimum_landmark(self, capsys):
        doc = run_json(capsys, "fluct", "--optimum", "--Li", "0.125")
        assert doc["L_total"] == pytest.approx(13.0 / 8.0, rel=1e-12)
        assert doc["sigma_L"] == pytest.approx(33.0 / 32.0, rel=1e-12)
        assert doc["eccentricity"] == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)

    def test_pure_field_energy_is_sharp(self, capsys):
        doc = run_json(capsys, "fluct", "--kind", "magnetic", "--omega", "0",
                       "--omega-L", "0.9", "--Li", "0.4", "--Lc", "0.6", "--co")
        assert doc["sigma_E"] == pytest.approx(0.0, abs=1e-12)
        assert doc["mean_E"] == pytest.approx(0.9, rel=1e-12)
        assert doc["context"]["omega_L"] == pytest.approx(0.9)

    def test_oscillator_variances(self, capsys):
        doc = run_json(capsys, "fluct", "--Li", "0.125", "--Lc", "1.5",
                       "--co", "--w", "0", "--omega", "1.0")
        assert doc["sigma_L"] == pytest.approx(33.0 / 32.0, rel=1e-12)
        assert doc["sigma_E"] == pytest.approx(33.0 / 32.0, rel=1e-12)
        assert doc["subpoissonian"] is True

    def test_optimum_needs_li(self, capsys):
        code, _, err = run_cli(capsys, "fluct", "--optimum")
        assert code == 1 and "error:" in err

    def test_magnetic_shorthand_flags(self, capsys):
        spelled = run_json(capsys, "fluct", "--kind", "magnetic", "--omega", "0",
                           "--omega-L", "0.9", "--Li", "0.5", "--Lc", "0.7", "--co")
        short = run_json(capsys, "fluct", "--magnetic", "--omegaL", "0.9", "--omega", "0",
                         "--Li", "0.5", "--Lc", "0.7", "--co")
        assert short == spelled


class TestExpand:
    def test_json_coefficients_are_ranked_and_normalized(self, capsys):
        doc = run_json(capsys, "expand", "--Li", "0.5", "--Lc", "0.9", "--co",
                       "--u", "0.3", "--v", "1.1")
        assert doc["kind"] == "corotating"
        assert doc["total_probability"] == pytest.approx(1.0, abs=1e-10)
        probs = [row["probability"] for row in doc["coefficients"]]
        assert probs == sorted(probs, reverse=True)
        assert doc["mean_L"] == pytest.approx(1.4, rel=1e-10)

    def test_limit_truncates_output_only(self, capsys):
        doc = run_json(capsys, "expand", "--Li", "0.5", "--Lc", "0.9", "--co",
                       "--limit", "3")
        assert len(doc["coefficients"]) == 3
        assert doc["n_coefficients"] > 3
        assert doc["total_probability"] == pytest.approx(1.0, abs=1e-10)

    def test_wide_coherent_ladder_is_complete(self, capsys):
        doc = run_json(capsys, "expand", "--Li", "0", "--Lc", "2000")
        assert doc["kind"] == "coherent"
        assert doc["residual"] < 1e-12
        assert doc["mean_L"] == pytest.approx(2000.0, abs=1e-8)
        probs = {row["m"]: row["probability"] for row in doc["coefficients"]}
        for k in (1900, 2000, 2100):
            log_poisson = -2000.0 + k * math.log(2000.0) - math.lgamma(k + 1)
            assert math.log(probs[k]) == pytest.approx(log_poisson, abs=1e-10)

    @pytest.mark.parametrize("argv, residual, budget", [
        (["--Li", "0", "--Lc", "1e5"], "residual 1 ", "max_terms=10000 "),
        (["--Li", "1e4"], "residual 0.157", "max_terms=10000 "),
        (["--Li", "0.5", "--Lc", "0.9", "--co", "--max-terms", "3"], "residual 0.012",
         "max_terms=3 "),
    ], ids=["coherent-underflow", "squeezed-budget", "corotating-budget"])
    def test_unconverged_ladder_exits_1(self, capsys, tmp_path, argv, residual, budget):
        target = tmp_path / "ladder.json"
        code, out, err = run_cli(capsys, "expand", *argv, "--out", str(target))
        assert code == 1 and out == "" and not target.exists()
        assert "error:" in err and "not converged" in err and residual in err and budget in err

    def test_ladder_meeting_its_tail_exits_0(self, capsys):
        doc = run_json(capsys, "expand", "--Li", "0.5", "--Lc", "0.9", "--co",
                       "--max-terms", "3", "--tail", "0.09")
        assert doc["n_coefficients"] == 3 and doc["residual"] < 0.09

    def test_wide_corotating_ladders_exit_0(self, capsys):
        # H_k(B)/sqrt(2^k k!) alone overflows on these ladders before they
        # hold their probability.
        for l_i, l_c in ((0.01, 400.0), (0.5, 800.0), (0.5, 2000.0)):
            doc = run_json(capsys, "expand", "--Li", str(l_i), "--Lc", str(l_c), "--co")
            assert doc["kind"] == "corotating" and doc["residual"] < 1e-12
            d1, _ = gp.generating_derivatives(gp.MinPacketSpec(l_i_abs=l_i, l_c_abs=l_c))
            assert doc["mean_L"] == pytest.approx(gp.HBAR * d1, rel=1e-9)

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "--Li", "0", "--Lc", "0.8",
                               "--format", "csv", "--limit", "4")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["n_r", "m", "re", "im", "probability"]
        assert len(rows) == 5
        top = rows[1]
        assert (top[0], top[1]) == ("0", "0")
        assert float(top[4]) == pytest.approx(math.exp(-0.8), rel=1e-12)

    def test_coherent_expansion_kind(self, capsys):
        doc = run_json(capsys, "expand", "--Li", "0", "--Lc", "0")
        assert doc["kind"] == "coherent"
        assert doc["coefficients"] == [
            {"n_r": 0, "m": 0, "re": 1.0, "im": 0.0, "probability": 1.0}
        ]


class TestEvolve:
    def test_oscillator_csv_conserves_invariants(self, capsys):
        code, out, _ = run_cli(capsys, "evolve", "--kind", "oscillator", "--Li", "0.8",
                               "--Lc", "1.3", "--co", "--omega", "1.3",
                               "--times", "0:6:7", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 7
        energies = {row["energy"] for row in rows}
        assert len(energies) == 1
        d0s = [float(row["D0"]) for row in rows]
        assert all(v == pytest.approx(gp.HBAR**4 / 16.0, rel=1e-10) for v in d0s)
        u0, u1 = float(rows[0]["u"]), float(rows[1]["u"])
        assert u1 - u0 == pytest.approx(2.0 * 1.3 * 1.0, rel=1e-12)

    def test_magnetic_stationary_packet(self, capsys):
        doc = run_json(capsys, "evolve", "--kind", "magnetic", "--omega", "0",
                       "--omega-L", "0.9", "--Li", "0.5", "--Lc", "0.4", "--co",
                       "--times", "0:5:3")
        us = [row["u"] for row in doc["rows"]]
        assert us[0] == us[1] == us[2]
        assert doc["context"]["kind"] == "magnetic"

    def test_free_single_time(self, capsys, params_file):
        doc = run_json(capsys, "evolve", "--kind", "free", "--params", params_file,
                       "--t", "0.8")
        assert doc["kind"] == "free"
        row = doc["rows"][0]
        params = gp.RealParams.from_dict(doc["packet"])
        record = gp.evolve_free(params, 0.8)
        assert row["f_tau"] == pytest.approx(record.f_tau, rel=1e-12)
        assert row["tau"] == pytest.approx(record.tau, rel=1e-12)
        assert "shrink" not in doc  # generic packet, no symmetric-form analysis

    def test_free_symmetric_reports_shrink_block(self, capsys, tmp_path):
        path = tmp_path / "sym.json"
        path.write_text(json.dumps({"mu": 1.0, "alpha": 1.0, "beta": 0.3, "gamma": 1.0,
                                    "chi_a": -1.5, "chi_c": 1.5, "rho": 0.0,
                                    "F1": 0.0, "F2": 0.0, "G1": 0.0, "G2": 0.0}))
        doc = run_json(capsys, "evolve", "--kind", "free", "--params", str(path),
                       "--times", "0.1:2:4")
        assert doc["shrink"]["shrinks"] is True
        assert doc["asymptotics"]["theta_limit"] == pytest.approx(math.pi / 4.0)
        assert len(doc["rows"]) == 4

    def test_time_arguments_are_exclusive(self, capsys, params_file):
        code, _, err = run_cli(capsys, "evolve", "--kind", "free", "--params", params_file,
                               "--t", "1.0", "--times", "0:1:2")
        assert code == 1 and "error:" in err
        code, _, err = run_cli(capsys, "evolve", "--kind", "free", "--params", params_file,
                               "--times", "0:1:2", "--t0", "0", "--t1", "1")
        assert code == 1 and "error:" in err
        code, _, err = run_cli(capsys, "evolve", "--Li", "0.5", "--t1", "1.0")
        assert code == 1 and "error:" in err  # --t0 and --t1 come together

    def test_default_grid_covers_one_shape_period(self, capsys):
        code, out, _ = run_cli(capsys, "evolve", "--system", "osc", "--Li", "0.5",
                               "--omega", "2.0", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 200
        assert float(rows[0]["t"]) == 0.0
        assert float(rows[-1]["t"]) == pytest.approx(math.pi / 2.0, rel=1e-15)

    def test_default_grid_spans_the_free_rebound(self, capsys, tmp_path):
        path = tmp_path / "sym.json"
        path.write_text(json.dumps({"mu": 1.0, "alpha": 1.0, "beta": 0.3, "gamma": 1.0,
                                    "chi_a": -1.5, "chi_c": 1.5, "rho": 0.0,
                                    "F1": 0.0, "F2": 0.0, "G1": 0.0, "G2": 0.0}))
        doc = run_json(capsys, "evolve", "--system", "free", "--params", str(path))
        assert len(doc["rows"]) == 200
        assert doc["rows"][-1]["tau"] == pytest.approx(4.0 * doc["shrink"]["tau_min"],
                                                       rel=1e-12)

    def test_explicit_span_matches_times_syntax(self, capsys):
        base = ("--Li", "0.8", "--Lc", "1.3", "--co", "--omega", "1.3", "--format", "csv")
        _, by_span, _ = run_cli(capsys, "evolve", "--t0", "0", "--t1", "6",
                                "--steps", "7", *base)
        _, by_times, _ = run_cli(capsys, "evolve", "--times", "0:6:7", *base)
        assert by_span == by_times

    def test_system_conflicts_with_kind(self, capsys, params_file):
        code, _, err = run_cli(capsys, "evolve", "--kind", "free", "--system", "osc",
                               "--params", params_file, "--t", "1.0")
        assert code == 1 and "error:" in err

    def test_free_requires_params(self, capsys):
        code, _, err = run_cli(capsys, "evolve", "--kind", "free", "--t", "1.0")
        assert code == 1 and "error:" in err

    def test_free_overflowing_time_fails_cleanly(self, capsys, tmp_path):
        params = gp.build_min_packet(gp.MinPacketSpec(l_i_abs=0.5, l_c_abs=1.0, u=0.5 * math.pi))
        path = tmp_path / "packet.json"
        path.write_text(json.dumps(params.to_dict()))
        code, out, err = run_cli(capsys, "evolve", "--kind", "free", "--params", str(path),
                                 "--t", "1e200")
        assert code == 1
        assert out == ""
        assert err.startswith("error:")


class TestVerify:
    def test_checks_are_registered_named_and_timed(self):
        assert list(verify.CHECKS) == [
            "minimum", "moments", "invariants", "drift", "subpoisson", "fock",
            "magnetic", "free", "propagators", "squeezing", "identities",
        ]
        result = verify.CHECKS["invariants"]()
        assert result.name == "invariants" and result.passed
        assert result.duration > 0.0
        assert result.line.startswith("PASS invariants:")

    def test_single_check_passes(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--checks", "subpoisson")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert [r["name"] for r in doc["results"]] == ["subpoisson"]
        assert err.splitlines()[0].startswith("PASS subpoisson:")

    def test_unknown_check_rejected(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--checks", "nonsense")
        assert code == 1 and "error:" in err

    def test_suite_selects_check_group(self, capsys, monkeypatch, tmp_path):
        # The real minimum search runs in test_acceptance.py; selection needs only its slot.
        seeds = []

        def minimum(seed):
            seeds.append(seed)
            return verify.CheckResult(name="minimum", passed=True, duration=0.0, summary="stub")

        monkeypatch.setitem(verify.CHECKS, "minimum", minimum)
        target = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "verify", "--suite", "min",
                               "--report", str(target))
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text())
        assert doc["passed"] is True
        assert [r["name"] for r in doc["results"]] == ["minimum", "subpoisson",
                                                       "squeezing"]
        assert seeds == [gp.DEFAULT_SEED]

    def test_suite_and_checks_are_exclusive(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--suite", "min", "--checks", "fock")
        assert code == 1 and "error:" in err

    def test_check_error_fails_that_check_only(self, capsys, monkeypatch, tmp_path):
        def broken(seed):
            raise gp.ToleranceError("quadrature budget missed")

        monkeypatch.setitem(verify.CHECKS, "subpoisson", broken)
        target = tmp_path / "report.json"
        code, out, err = run_cli(capsys, "verify", "--checks", "subpoisson,squeezing",
                                 "--report", str(target))
        assert code == 1
        assert out == ""
        doc = json.loads(target.read_text())
        assert doc["passed"] is False
        failed, ran = doc["results"]
        assert failed["name"] == "subpoisson" and failed["passed"] is False
        assert failed["summary"] == "error: quadrature budget missed"
        assert failed["duration"] >= 0.0
        assert ran["name"] == "squeezing" and ran["passed"] is True
        lines = err.splitlines()
        assert lines[0].startswith("FAIL subpoisson: error: quadrature budget missed")
        assert lines[1].startswith("PASS squeezing:")


class TestPlumbing:
    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "result.json"
        code, out, _ = run_cli(capsys, "minimize", "--Li", "0.125", "--Lc", "1.5",
                               "--co", "--w", "0", "--out", str(target))
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text())
        assert doc["sigma_L"] == pytest.approx(33.0 / 32.0, rel=1e-12)

    def test_stdin_params(self, capsys, monkeypatch, params_file):
        monkeypatch.setattr("sys.stdin", io.StringIO(open(params_file).read()))
        doc = run_json(capsys, "describe", "--params", "-")
        assert doc["packet"]["mu"] == pytest.approx(1.1)

    def test_usage_errors_exit_two(self, capsys):
        for argv in (["frobnicate"], [], ["expand", "--format", "yaml"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            capsys.readouterr()

    def test_floats_survive_json_round_trip(self, capsys, params_file):
        doc = run_json(capsys, "describe", "--params", params_file)
        params = gp.RealParams.from_dict(doc["packet"])
        assert params.alpha == 1.3 and params.mu == 1.1


class TestJsonWriter:
    def test_numpy_and_complex_values(self, capsys):
        cli._emit_json({
            "complex": complex(1.5, -2.0),
            "numpy_complex": np.complex128(0.25j),
            "matrix": np.array([[1.0, 2.5], [3.0, 4.0]]),
            "flag": np.bool_(True),
            "count": np.int64(7),
            "single": np.float32(0.5),
            "pair": (np.float64(0.1), 3),
        }, None)
        out = capsys.readouterr().out
        assert out.endswith("}\n")
        assert json.loads(out) == {
            "complex": {"re": 1.5, "im": -2.0},
            "numpy_complex": {"re": 0.0, "im": 0.25},
            "matrix": [[1.0, 2.5], [3.0, 4.0]],
            "flag": True,
            "count": 7,
            "single": 0.5,
            "pair": [0.1, 3],
        }
        assert '"flag": true' in out and '"count": 7' in out

    def test_floats_round_trip_bit_for_bit(self, capsys):
        values = [0.1, 1.0 / 3.0, -2.5e-308, 1.7976931348623157e308, np.float64(math.pi)]
        cli._emit_json({"values": values}, None)
        parsed = json.loads(capsys.readouterr().out)["values"]
        assert [v.hex() for v in parsed] == [float(v).hex() for v in values]

    @pytest.mark.parametrize("bad", [
        math.nan,
        math.inf,
        np.float64(-np.inf),
        np.float32(np.nan),
        [1.0, math.inf],
        complex(1.0, math.nan),
        np.array([0.0, np.inf]),
    ])
    def test_non_finite_values_are_refused(self, capsys, bad):
        with pytest.raises(gp.InvalidParameterError):
            cli._emit_json({"nested": {"value": bad}}, None)
        assert capsys.readouterr().out == ""

    def test_same_bytes_as_json_dumps(self, capsys, tmp_path, monkeypatch):
        documents = []
        emit = cli._emit_json
        monkeypatch.setattr(cli, "_emit_json", lambda doc, out: (documents.append(doc), emit(doc, out)))
        out = tmp_path / "evolve.json"
        assert main(["evolve", "--kind", "oscillator", "--Li", "0.5", "--Lc", "1", "--co",
                     "--t0", "0", "--t1", "6", "--steps", "300", "--out", str(out)]) == 0
        (document,) = documents
        document["extras"] = {"complex": complex(1.5, -2.0), "matrix": np.eye(2),
                              "flag": np.bool_(False), "count": np.int64(3), "empty": [],
                              "text": "\u00e9\n", "single": np.float32(0.1)}
        want = json.dumps(document, indent=2, allow_nan=False, default=cli._json_default) + "\n"
        emit(document, str(out))
        assert out.read_text(encoding="utf-8") == want
        capsys.readouterr()
        emit(document, None)
        assert capsys.readouterr().out == want

    def test_non_finite_value_writes_no_file(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        rows = [{"t": float(k), "value": 1.0 / (k - 1999) if k < 1999 else math.nan}
                for k in range(2000)]
        with pytest.raises(gp.InvalidParameterError, match="cannot serialize"):
            cli._emit_json({"rows": rows}, str(out))
        assert not out.exists()
        with pytest.raises(gp.InvalidParameterError):
            cli._emit_json({"rows": rows}, None)
        assert capsys.readouterr().out == ""

    def test_unknown_types_are_refused(self):
        with pytest.raises(gp.InvalidParameterError):
            cli._emit_json({"value": object()}, None)

    def test_non_finite_output_exits_one(self, capsys, monkeypatch):
        broken = gp.SubPoissonOptimum(l_total=1.0, sigma_l=math.nan, eccentricity=0.5)
        monkeypatch.setattr(cli, "subpoisson_optimum", lambda l_i: broken)
        code, out, err = run_cli(capsys, "fluct", "--Li", "0.125", "--optimum")
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
