"""End-to-end acceptance battery.

Each test runs one named check from :mod:`gausspack.verify` at its stated
tolerance and prints the check's own PASS/FAIL line, so a full ``pytest``
run shows one verdict per criterion.  The slowest checks also carry
wall-clock budgets.
"""

from gausspack.verify import CHECKS


def run(name: str, budget: float | None = None):
    result = CHECKS[name]()
    print(result.line)
    assert result.passed, result.line
    if budget is not None:
        assert result.duration <= budget, (
            f"{name} took {result.duration:.1f}s, budget {budget:g}s"
        )
    return result


def test_minimal_energy_bound_is_attained():
    run("minimum", budget=10.0)


def test_closed_form_moments_match_quadrature():
    run("moments", budget=0.25)


def test_covariance_invariants_are_universal_constants():
    run("invariants")


def test_invariants_and_angular_momentum_survive_evolution():
    run("drift")


def test_subpoissonian_optimum_landmark_values():
    run("subpoisson")


def test_mode_coefficients_agree_three_ways():
    run("fock", budget=2.5)


def test_field_aligned_packets_have_sharp_energy():
    run("magnetic")


def test_free_packets_shrink_on_schedule():
    run("free", budget=0.5)


def test_oscillator_and_field_propagators_match_evolution_laws():
    run("propagators", budget=0.5)


def test_squeezing_never_passes_one_half():
    run("squeezing")


def test_special_function_identities_hold():
    run("identities")
