from dataclasses import replace

import numpy as np
import pytest

from spingate import (
    CalibrationError,
    Generator,
    PulseSpec,
    SearchSpec,
    calibrate_pi_duration,
    cn_matrix,
    gate_fidelity,
    pure_cn_objective,
    tomography,
    tune_pure_cn,
)
from spingate import calibrate
from spingate.config import PARAMS24_DURATION


class TestCalibratePiDuration:
    def test_decoupled_optimum_is_exactly_pi_over_a2(self, params12):
        template = PulseSpec(carrier=95.0, a1=0.0, a2=0.1, duration=0.0)
        tau = calibrate_pi_duration(params12, template)
        assert abs(tau * 0.1 / np.pi - 1.0) < 1e-6

    def test_benchmark_optimum_near_nominal(self, params12, tau12):
        # indirect excitation through the detuned spin barely moves the
        # optimum: measured offset from pi/a2 is below 1e-5
        assert abs(tau12 - np.pi / 0.1) < 1e-4

    def test_benchmark_transfer_is_nearly_complete(self, params12, pulse12, tau12):
        from spingate import build_generator, digital_state

        gen = build_generator(params12, pulse12)
        final = gen.gate(tau12) @ digital_state("11").amps
        assert abs(final[2]) ** 2 >= 0.999

    def test_zero_a2_rejected(self, params12):
        template = PulseSpec(carrier=95.0, a1=0.5, a2=0.0, duration=0.0)
        with pytest.raises(ValueError, match="a2"):
            calibrate_pi_duration(params12, template)

    def test_diagonalizes_once(self, params12, eigh_calls):
        template = PulseSpec(carrier=95.0, a1=0.5, a2=0.1, duration=0.0)
        calibrate_pi_duration(params12, template)
        assert len(eigh_calls) == 1

    def test_no_interior_maximum_reports_endpoints(self, params12):
        # a1 = 100 dresses the 10/11 pair so strongly that the transfer peaks
        # at the lower end of [0.8, 1.2] * pi/a2 (0.19666 against 0.19640 at
        # the best interior point): no pi condition inside the bracket
        template = PulseSpec(carrier=95.0, a1=100.0, a2=0.1, duration=0.0)
        with pytest.raises(CalibrationError, match="endpoint") as excinfo:
            calibrate_pi_duration(params12, template)
        # every reported number prints as a plain float
        assert "np.float64" not in str(excinfo.value)
        assert "at 25.14" in str(excinfo.value)

    def test_no_inversion_rejected(self):
        # omega1 = omega2 (D1 = 0): a1 drives 11 <-> 01 on resonance as well, and the
        # interior maximum of the transfer to 10, at tau = 30.81, is only 0.038
        with pytest.raises(CalibrationError, match="no population inversion") as excinfo:
            Generator(100.0, 100.0, 5.0, 95.0, 0.5, 0.1).pi_duration()
        message = str(excinfo.value)
        assert "best transfer 0.0379" in message
        assert "at 30.81" in message
        assert "np.float64" not in message


class TestPureCnObjective:
    def test_benchmark_pulse_is_far_from_pure(self, params12, pulse12):
        # raw-frame phases are misaligned at the plain pi-pulse point
        assert pure_cn_objective(params12, pulse12) > 0.25

    def test_tuned_parameter_set_is_pure(self, params24, pulse24_template):
        # regression for the shipped pure-CN point: raw-frame gate aligns
        # with i*CN at the stored duration
        pulse = PulseSpec(
            carrier=95.0,
            a1=pulse24_template.a1,
            a2=pulse24_template.a2,
            duration=PARAMS24_DURATION,
        )
        objective = pure_cn_objective(params24, pulse)
        assert objective <= 1e-3
        assert objective == pytest.approx(5.56e-6, abs=2e-6)

    def test_transfer_maximum_is_not_phase_aligned(self, params24, pulse24_template):
        # the population-transfer optimum and the phase-alignment point are
        # distinct durations; at the former the gate is far from i*CN
        tau_transfer = calibrate_pi_duration(params24, pulse24_template)
        pulse = PulseSpec(
            carrier=95.0,
            a1=pulse24_template.a1,
            a2=pulse24_template.a2,
            duration=tau_transfer,
        )
        objective = pure_cn_objective(params24, pulse)
        assert objective == pytest.approx(0.16625, abs=2e-3)

    def test_diagonalizes_once(self, params12, pulse12, eigh_calls):
        pure_cn_objective(params12, pulse12)
        assert len(eigh_calls) == 1

    def test_matches_fidelity_definition(self, params12, pulse12):
        objective = pure_cn_objective(params12, pulse12)
        fid = gate_fidelity(tomography(params12, pulse12, frame="raw"), 1j * cn_matrix())
        assert objective == pytest.approx(1.0 - fid, abs=1e-15)


class TestSearchSpec:
    def test_free_order_normalized(self):
        spec = SearchSpec(free=("duration", "omega1"))
        assert spec.free == ("omega1", "duration")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="unknown free"):
            SearchSpec(free=("omega3",))

    def test_empty_free_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            SearchSpec(free=())

    def test_nonpositive_window_rejected(self):
        with pytest.raises(ValueError, match="window"):
            SearchSpec(free=("a2",), rel_window=0.0)

    @pytest.mark.parametrize("window", [np.nan, np.inf, -0.01])
    def test_nonfinite_window_rejected(self, window):
        with pytest.raises(ValueError, match="window for a2 must be positive and finite"):
            SearchSpec(free=("a2",), rel_window=window)
        with pytest.raises(ValueError, match="window for omega1, a2 must be positive and finite"):
            SearchSpec(free=("omega1", "a2"), rel_window=window)

    @pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1e-6])
    def test_bad_objective_tol_rejected(self, tol):
        # nan used to burn the whole budget, inf to report convergence at once
        with pytest.raises(ValueError, match="objective_tol must be positive and finite"):
            SearchSpec(free=("a2",), objective_tol=tol)

    @pytest.mark.parametrize("budget", [0, np.nan, np.inf, 2.5])
    def test_bad_budget_rejected(self, budget):
        with pytest.raises(ValueError, match="max_evaluations must be an integer >= 1"):
            SearchSpec(free=("a2",), max_evaluations=budget)

    @pytest.mark.parametrize("free", [("duration",), ("omega1", "a2", "duration")])
    def test_recalibrating_a_free_duration_rejected(self, free):
        # a searched duration would be overwritten by the pi timing at every point
        with pytest.raises(ValueError, match="recalibrate_duration needs 'duration' left out"):
            SearchSpec(free=free, recalibrate_duration=True)


class TestTunePureCn:
    def test_three_parameter_search_finds_pure_point(self, params12, pulse12):
        spec = SearchSpec(free=("omega1", "a2", "duration"), tie_a1=True)
        result = tune_pure_cn(params12, pulse12, spec)
        assert result.converged
        assert result.objective <= 1e-3
        # stays inside the declared +/-0.5% box
        assert abs(result.params.omega1 - 500.0) <= 0.005 * 500.0
        assert abs(result.pulse.a2 - 0.1) <= 0.005 * 0.1
        assert abs(result.pulse.duration - pulse12.duration) <= 0.005 * pulse12.duration
        # tie respected
        expected_a1 = result.pulse.a2 * result.params.omega1 / 100.0
        assert result.pulse.a1 == pytest.approx(expected_a1, abs=1e-15)

    def test_repeatability_bit_identical(self, params12, pulse12):
        spec = SearchSpec(free=("omega1", "a2", "duration"), tie_a1=True)
        first = tune_pure_cn(params12, pulse12, spec)
        second = tune_pure_cn(params12, pulse12, spec)
        assert first.params == second.params
        assert first.pulse == second.pulse
        assert first.objective == second.objective
        assert first.evaluations == second.evaluations

    def test_recalibrated_duration_search(self, params12, pulse12):
        spec = SearchSpec(free=("omega1", "a2"), tie_a1=True, recalibrate_duration=True)
        result = tune_pure_cn(params12, pulse12, spec)
        assert result.converged
        assert result.objective <= spec.objective_tol
        template = replace(result.pulse, duration=0.0)
        assert result.pulse.duration == calibrate_pi_duration(result.params, template)
        assert tune_pure_cn(params12, pulse12, spec) == result

    def test_amplitude_only_search_cannot_converge(self, params12, pulse12):
        result = tune_pure_cn(params12, pulse12, SearchSpec(free=("a2",)))
        assert not result.converged
        assert result.objective > 0.25
        assert abs(result.pulse.a2 - 0.1) <= 0.005 * 0.1

    def test_duration_only_search_recovers_stored_constant(
        self, params24, pulse24_template
    ):
        tau_transfer = calibrate_pi_duration(params24, pulse24_template)
        start = PulseSpec(
            carrier=95.0,
            a1=pulse24_template.a1,
            a2=pulse24_template.a2,
            duration=tau_transfer,
        )
        spec = SearchSpec(free=("duration",), objective_tol=1e-5)
        result = tune_pure_cn(params24, start, spec)
        assert result.converged
        assert result.pulse.duration == pytest.approx(PARAMS24_DURATION, abs=1e-5)

    def test_start_at_optimum_returns_quickly(self, params12, pulse12):
        spec = SearchSpec(free=("omega1", "a2", "duration"), tie_a1=True)
        tuned = tune_pure_cn(params12, pulse12, spec)
        again = tune_pure_cn(tuned.params, tuned.pulse, spec)
        assert again.converged
        assert again.objective <= tuned.objective + 1e-9
        assert again.evaluations <= 60

    def test_budget_exhaustion_flags_not_converged(self, params12, pulse12):
        spec = SearchSpec(free=("omega1",), max_evaluations=10, objective_tol=1e-12)
        result = tune_pure_cn(params12, pulse12, spec)
        assert not result.converged
        assert result.evaluations <= 12  # simplex evaluation granularity

    def test_zero_duration_start_rejected_when_duration_free(self, params12):
        pulse = PulseSpec(carrier=95.0, a1=0.5, a2=0.1, duration=0.0)
        with pytest.raises(ValueError, match="duration"):
            tune_pure_cn(params12, pulse, SearchSpec(free=("duration",)))


#: search kind -> (start, SearchSpec fields, evaluations the search takes, eigh
#: calls it makes); the simplex follows the last bit of every objective value, so
#: a change in any count means the arithmetic of an evaluation changed, not only
#: its speed.  A search diagonalizes each distinct point once: a point the simplex
#: revisits counts as an evaluation but is not scored again.
SEARCHES = {
    "tie_a1": ("params12", dict(free=("omega1", "a2", "duration"), tie_a1=True), 74, 74),
    "a2_only": ("params12", dict(free=("a2",)), 921, 654),
    "untied": ("params12", dict(free=("omega1", "a2", "duration")), 74, 74),
    "duration_only": ("params24", dict(free=("duration",), objective_tol=1e-5), 183, 140),
    "recalibrate": (
        "params12",
        dict(free=("omega1", "a2"), tie_a1=True, recalibrate_duration=True),
        61,
        61,
    ),
}


@pytest.fixture(params=list(SEARCHES))
def search(request):
    """(params, start pulse, spec, expected evaluations, expected eigh calls) of one search kind."""
    start, fields, evaluations, eighs = SEARCHES[request.param]
    if start == "params12":
        params, pulse = request.getfixturevalue("params12"), request.getfixturevalue("pulse12")
    else:
        params = request.getfixturevalue("params24")
        template = request.getfixturevalue("pulse24_template")
        pulse = replace(template, duration=calibrate_pi_duration(params, template))
    return params, pulse, SearchSpec(**fields), evaluations, eighs


class TestLeanSearchEvaluation:
    def test_objective_equals_public_objective_exactly(self, search):
        params, pulse, spec, _, _ = search
        result = tune_pure_cn(params, pulse, spec)
        assert result.objective == pure_cn_objective(result.params, result.pulse)

    def test_evaluation_count_unchanged(self, search):
        params, pulse, spec, evaluations, _ = search
        assert tune_pure_cn(params, pulse, spec).evaluations == evaluations

    def test_one_eigh_per_evaluation(self, search, eigh_calls):
        # one per distinct point, so at most one per evaluation
        params, pulse, spec, _, eighs = search
        result = tune_pure_cn(params, pulse, spec)
        assert len(eigh_calls) == eighs
        assert len(eigh_calls) <= result.evaluations

    def test_no_point_is_diagonalized_twice(self, search, monkeypatch):
        params, pulse, spec, _, eighs = search
        points = []

        class Recording(calibrate.Generator):
            def __init__(self, *point):
                super().__init__(*point)
                self.point = point

            def objective(self, tau):
                points.append((*self.point, tau))
                return super().objective(tau)

        monkeypatch.setattr(calibrate, "Generator", Recording)
        tune_pure_cn(params, pulse, spec)
        assert len(points) == eighs
        assert len(set(points)) == len(points)

    def test_scored_points_are_kept_per_search(self, params12, pulse12, eigh_calls):
        spec = SearchSpec(free=("a2",))
        first = tune_pure_cn(params12, pulse12, spec)
        assert len(eigh_calls) == 654
        eigh_calls.clear()
        assert tune_pure_cn(params12, pulse12, spec) == first
        assert len(eigh_calls) == 654

    def test_point_outside_field_ranges_raises_constructor_error(self, params12, pulse12):
        # a window of 2 reaches a2 = 0.1 - 2 * 0.1 = -0.1
        with pytest.raises(ValueError, match=r"^a2 must be >= 0, got -0\.1$"):
            tune_pure_cn(params12, pulse12, SearchSpec(free=("a2",), rel_window=2))

    def test_recalibrating_without_drive_raises_pi_timing_error(self, params12, pulse12):
        undriven = replace(pulse12, a2=0.0)
        spec = SearchSpec(free=("omega1",), recalibrate_duration=True)
        with pytest.raises(ValueError, match="pi-pulse calibration requires a2 > 0"):
            tune_pure_cn(params12, undriven, spec)


@pytest.fixture
def a2_only_budgets(params12, pulse12, monkeypatch):
    """Budgets that end the params12 a2-only search inside each of its stages.

    The stages are found from the unlimited search: the evaluations made
    before each Nelder-Mead run (its calls of the objective, plus the
    65-point grid once the first run is over) give where the first run
    ends, the grid follows it, and the reseeds start after the grid.
    Evaluations are counted, not eigendecompositions, since a revisited
    point costs an evaluation but no `eigh`.
    """
    evaluations, starts = [0], []
    nelder_mead = calibrate._nelder_mead

    def recorded(f, simplex, done):
        def counted(z):
            evaluations[0] += 1
            return f(z)

        starts.append(evaluations[0] + (65 if starts else 0))
        return nelder_mead(counted, simplex, done)

    with monkeypatch.context() as patch:
        patch.setattr(calibrate, "_nelder_mead", recorded)
        tune_pure_cn(params12, pulse12, SearchSpec(free=("a2",)))
    assert starts[:3] == [0, 169, 270]
    first_run_end, reseed, next_reseed = starts[1] - 65, starts[1], starts[2]
    budgets = {
        "initial_simplex_1": 1,
        "initial_simplex_2": 2,
        "first_run": first_run_end // 2,
        "grid": first_run_end + 65 // 2,
        "reseed": (reseed + next_reseed) // 2,
    }
    assert 2 < budgets["first_run"] < first_run_end < budgets["grid"] < reseed
    assert reseed < budgets["reseed"] < next_reseed
    return budgets


class TestBudget:
    """`max_evaluations` counts every evaluation, whichever stage spends it."""

    @pytest.mark.parametrize(
        "stage", ["initial_simplex_1", "initial_simplex_2", "first_run", "grid", "reseed"]
    )
    def test_budget_ends_search_in_every_stage(self, params12, pulse12, a2_only_budgets, stage):
        budget = a2_only_budgets[stage]
        spec = SearchSpec(free=("a2",), max_evaluations=budget)
        result = tune_pure_cn(params12, pulse12, spec)
        assert result.evaluations == budget
        assert result.converged is False
        assert result.objective == pure_cn_objective(result.params, result.pulse)
