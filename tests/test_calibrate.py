from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spingate import (
    CalibrationError,
    Generator,
    PulseSpec,
    SearchSpec,
    calibrate_pi_duration,
    cn_matrix,
    SystemParams,
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

    @pytest.mark.parametrize("free", ["a2", "omega1", "duration", ""])
    def test_bare_string_rejected(self, free):
        # a str is not read as its characters ('2', 'a'), but named for what it is
        message = f"free must be a tuple of names from {calibrate._FREE_ORDER}, got {free!r}"
        with pytest.raises(ValueError) as excinfo:
            SearchSpec(free=free)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "free, repeated",
        [(("omega1", "omega1"), "['omega1']"), (("a2", "duration", "a2", "duration"),
                                                "['a2', 'duration']")],
    )
    def test_repeated_name_rejected(self, free, repeated):
        # it would search one coordinate while the CLI line named two
        with pytest.raises(ValueError) as excinfo:
            SearchSpec(free=free)
        assert str(excinfo.value) == f"free parameters {repeated} are named more than once"

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

    @pytest.mark.parametrize(
        "field, message",
        [("max_evaluations", "max_evaluations must be an integer >= 1"),
         ("objective_tol", "objective_tol must be positive and finite"),
         ("rel_window", "search window for a2 must be positive and finite")],
    )
    def test_numpy_scalar_setting_prints_plain(self, field, message):
        with pytest.raises(ValueError) as excinfo:
            SearchSpec(free=("a2",), **{field: np.float64(np.nan)})
        assert str(excinfo.value) == f"{message}, got nan"

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
        # the start already meets the tolerance: scoring it is the whole search
        assert again.evaluations == 1
        assert again == replace(tuned, evaluations=1)

    def test_budget_exhaustion_flags_not_converged(self, params12, pulse12):
        spec = SearchSpec(free=("omega1",), max_evaluations=10, objective_tol=1e-12)
        result = tune_pure_cn(params12, pulse12, spec)
        assert not result.converged
        assert result.evaluations == 10  # every scored point counts, one at a time

    def test_flat_start_ends_without_a_step(self, params12):
        # at tau = 0 the gate is the identity at every omega1: the objective is flat at 1/2,
        # so each run stops at its first step, which does not move
        pulse = PulseSpec(carrier=95.0, a1=0.5, a2=0.1, duration=0.0)
        result = tune_pure_cn(params12, pulse, SearchSpec(free=("omega1",)))
        assert not result.converged
        assert result.objective == pytest.approx(0.5, abs=1e-15)
        assert result.evaluations == 65  # the start, then the grid's 64 other points

    def test_zero_duration_start_rejected_when_duration_free(self, params12):
        pulse = PulseSpec(carrier=95.0, a1=0.5, a2=0.1, duration=0.0)
        with pytest.raises(ValueError, match="duration"):
            tune_pure_cn(params12, pulse, SearchSpec(free=("duration",)))


#: search kind -> (start, SearchSpec fields, evaluations the search takes, eigh
#: calls it makes, objective it must reach); a change in a count means the
#: arithmetic of a step changed, not only its speed.  Consecutive points with the
#: same omega1, a1 and a2 share one Generator, so the duration-only search
#: diagonalizes once.  The objectives are those the Nelder-Mead search that this
#: search replaced reached (6.99e-7, 6.81e-7, 6.69e-6, 5.68e-7), and for the
#: a2-only search that search's 0.2894839332849036 plus 1e-9.
SEARCHES = {
    "tie_a1": ("params12", dict(free=("omega1", "a2", "duration"), tie_a1=True), 6, 6, 6.99e-7),
    "a2_only": ("params12", dict(free=("a2",)), 74, 74, 0.2894839332849036 + 1e-9),
    "untied": ("params12", dict(free=("omega1", "a2", "duration")), 6, 6, 6.81e-7),
    "duration_only": (
        "params24", dict(free=("duration",), objective_tol=1e-5), 77, 1, 6.69e-6
    ),
    "recalibrate": (
        "params12",
        dict(free=("omega1", "a2"), tie_a1=True, recalibrate_duration=True),
        6,
        6,
        5.68e-7,
    ),
}


@pytest.fixture(params=list(SEARCHES))
def search(request):
    """(params, start pulse, spec, evaluations, eigh calls, objective ceiling) of one kind."""
    start, fields, evaluations, eighs, ceiling = SEARCHES[request.param]
    if start == "params12":
        params, pulse = request.getfixturevalue("params12"), request.getfixturevalue("pulse12")
    else:
        params = request.getfixturevalue("params24")
        template = request.getfixturevalue("pulse24_template")
        pulse = replace(template, duration=calibrate_pi_duration(params, template))
    return params, pulse, SearchSpec(**fields), evaluations, eighs, ceiling


class TestLeanSearchEvaluation:
    def test_objective_equals_public_objective_exactly(self, search):
        params, pulse, spec, *_ = search
        result = tune_pure_cn(params, pulse, spec)
        assert result.objective == pure_cn_objective(result.params, result.pulse)

    def test_evaluation_count_unchanged(self, search):
        params, pulse, spec, evaluations, *_ = search
        assert tune_pure_cn(params, pulse, spec).evaluations == evaluations

    def test_objective_no_worse_than_pinned(self, search):
        params, pulse, spec, *_, ceiling = search
        result = tune_pure_cn(params, pulse, spec)
        assert result.objective <= ceiling, f"objective {result.objective!r} above {ceiling!r}"

    def test_one_eigh_per_evaluation(self, search, eigh_calls):
        # one per change of omega1, a1 or a2, so at most one per evaluation
        params, pulse, spec, _, eighs, _ = search
        result = tune_pure_cn(params, pulse, spec)
        assert len(eigh_calls) == eighs
        assert len(eigh_calls) <= result.evaluations

    def test_new_generator_iff_drive_moves(self, search, monkeypatch):
        params, pulse, spec, evaluations, eighs, _ = search
        scored = []  # the Generator and duration of every evaluation, in order

        class Recording(calibrate.Generator):
            def __init__(self, omega1, omega2, coupling_j, carrier, a1, a2):
                super().__init__(omega1, omega2, coupling_j, carrier, a1, a2)
                self.drive = (omega1, a1, a2)

            def objective(self, tau):
                scored.append((self, tau))
                return super().objective(tau)

        monkeypatch.setattr(calibrate, "Generator", Recording)
        tune_pure_cn(params, pulse, spec)
        assert len(scored) == evaluations
        assert len({id(gen) for gen, _ in scored}) == eighs
        for (before, _), (after, _) in zip(scored, scored[1:]):
            assert (after is before) == (after.drive == before.drive)
        # no point is scored twice, in a row or apart
        assert len({(gen.drive, tau) for gen, tau in scored}) == evaluations

    def test_generator_is_kept_per_search(self, params12, pulse12, eigh_calls):
        # a duration-only search scores every point on one Generator, built anew per search
        spec = SearchSpec(free=("duration",), max_evaluations=40)
        first = tune_pure_cn(params12, pulse12, spec)
        assert first.evaluations == 40
        assert len(eigh_calls) == 1
        eigh_calls.clear()
        assert tune_pure_cn(params12, pulse12, spec) == first
        assert len(eigh_calls) == 1

    def test_point_outside_field_ranges_raises_constructor_error(self, params12, pulse12):
        # a window of 2 reaches a2 = 0.1 - 2 * 0.1 = -0.1
        with pytest.raises(ValueError, match=r"^a2 must be >= 0, got -0\.1$"):
            tune_pure_cn(params12, pulse12, SearchSpec(free=("a2",), rel_window=2))

    def test_recalibrating_without_drive_raises_pi_timing_error(self, params12, pulse12):
        undriven = replace(pulse12, a2=0.0)
        spec = SearchSpec(free=("omega1",), recalibrate_duration=True)
        with pytest.raises(ValueError, match="pi-pulse calibration requires a2 > 0"):
            tune_pure_cn(params12, undriven, spec)


@pytest.mark.parametrize("d2", range(-2, 3))
@pytest.mark.parametrize("d1", range(-2, 3))
def test_tied_search_converges_around_params12(d1, d2):
    # the 25 start offsets (omega1, a2) x 1e-4 relative that the benchmark draws from
    omega1, a2 = 500.0 * (1.0 + 1e-4 * d1), 0.1 * (1.0 + 1e-4 * d2)
    system = SystemParams(omega1, 100.0, 5.0)
    template = PulseSpec(carrier=95.0, a1=a2 * omega1 / 100.0, a2=a2, duration=0.0)
    pulse = replace(template, duration=calibrate_pi_duration(system, template))
    spec = SearchSpec(free=("omega1", "a2", "duration"), tie_a1=True)
    result = tune_pure_cn(system, pulse, spec)
    assert result.converged, result
    assert result.evaluations <= 6, result
    assert result.objective == pure_cn_objective(result.params, result.pulse)


@settings(max_examples=65, deadline=None)
@given(d1=st.floats(-2e-4, 2e-4), d2=st.floats(-2e-4, 2e-4))
@example(d1=1.6e-4, d2=-2e-4)
def test_recalibrated_tied_search_converges_around_params12(d1, d2):
    # any start in the benchmark's box, (omega1, a2) within 2e-4 relative of params12.  Over
    # 1,941 starts (a 21 x 21 grid and 1,500 uniform) it took 2-6 evaluations, and 7 at the 9
    # starts near (1.6e-4, -1.8e-4): every step accepted, from an objective of 0.82 (0.29 at
    # params12), the sixth ends at 1.04e-6, just above the tolerance
    omega1, a2 = 500.0 * (1.0 + d1), 0.1 * (1.0 + d2)
    system = SystemParams(omega1, 100.0, 5.0)
    template = PulseSpec(carrier=95.0, a1=a2 * omega1 / 100.0, a2=a2, duration=0.0)
    pulse = replace(template, duration=calibrate_pi_duration(system, template))
    spec = SearchSpec(free=("omega1", "a2"), tie_a1=True, recalibrate_duration=True)
    result = tune_pure_cn(system, pulse, spec)
    assert result.converged, result
    assert result.evaluations <= 7, result
    assert result.objective == pure_cn_objective(result.params, result.pulse)


def _scored_omega1_and_a2(spec: SearchSpec, params, pulse, monkeypatch) -> list:
    """(omega1, a2) of every point the search scores from (params, pulse), in order."""
    scored = []

    class Recording(calibrate.Generator):
        def __init__(self, omega1, omega2, coupling_j, carrier, a1, a2):
            super().__init__(omega1, omega2, coupling_j, carrier, a1, a2)
            self.drive = (omega1, a2)

        def objective(self, tau):
            scored.append(self.drive)
            return super().objective(tau)

    with monkeypatch.context() as patch:
        patch.setattr(calibrate, "Generator", Recording)
        tune_pure_cn(params, pulse, spec)
    return scored


def _grid_without_centre(start: float) -> list:
    """The 64 points of the one-parameter grid around `start`, its centre (the start) left out."""
    window = SearchSpec.rel_window * start
    axis = np.linspace(-1.0, 1.0, 65).tolist()
    return [start + z * window for z in axis[:32] + axis[33:]]


@pytest.fixture
def omega1_only_budgets(params12, pulse12, monkeypatch):
    """Budgets that end the params12 omega1-only search inside each of its stages.

    The stages are found from the omega1 of every point the unlimited search
    scores: the grid is the one run of the grid's 64 omega1 values besides its
    centre, which is the start and is not scored again; the first
    Levenberg-Marquardt run comes before it and the second, reseeded at the
    grid's best point, after it.
    """
    spec = SearchSpec(free=("omega1",))
    scored = [omega1 for omega1, _ in _scored_omega1_and_a2(spec, params12, pulse12, monkeypatch)]
    grid = _grid_without_centre(params12.omega1)
    first_run_end = next(k for k in range(len(scored)) if scored[k:k + 64] == grid)
    reseed = first_run_end + 64
    budgets = {
        "start": 1,
        "first_run": first_run_end // 2,
        "grid": first_run_end + 64 // 2,
        "reseed": (reseed + len(scored)) // 2,
    }
    assert 1 < budgets["first_run"] < first_run_end < budgets["grid"] < reseed
    assert reseed < budgets["reseed"] < len(scored)
    return budgets


class TestBudget:
    """`max_evaluations` counts every evaluation, whichever stage spends it."""

    @pytest.mark.parametrize("stage", ["start", "first_run", "grid", "reseed"])
    def test_budget_ends_search_in_every_stage(
        self, params12, pulse12, omega1_only_budgets, stage
    ):
        budget = omega1_only_budgets[stage]
        spec = SearchSpec(free=("omega1",), max_evaluations=budget)
        result = tune_pure_cn(params12, pulse12, spec)
        assert result.evaluations == budget
        assert result.converged is False
        assert result.objective == pure_cn_objective(result.params, result.pulse)

    def test_a2_only_search_ends_with_the_grid(self, params12, pulse12, monkeypatch):
        # the grid's best a2 is its centre, the start: no second run follows
        scored = _scored_omega1_and_a2(SearchSpec(free=("a2",)), params12, pulse12, monkeypatch)
        assert [a2 for _, a2 in scored[-64:]] == _grid_without_centre(pulse12.a2)


_EPS = float(np.finfo(float).eps)


def _central_difference(f, x: float, h: float) -> np.ndarray:
    """(f(x+h) - f(x-h)) over the step actually taken between the two rounded arguments."""
    lo, hi = x - h, x + h
    return (f(hi) - f(lo)) / (hi - lo)


class TestGateDerivatives:
    """`calibrate._linearize`, the residual and its derivatives, against `Generator.gate`.

    B is affine in each coordinate, B(x + s) = B(x) + s E, so the n-th
    derivative of U = exp(i B tau/2) along it has norm at most (tau |E|_2 / 2)^n,
    and |dU/dtau^n| at most (max|lam| / 2)^n.  A central difference with step h
    then errs by at most h^2/6 M^3 (M the first-order rate) plus eps_U / h,
    where eps_U = 16 eps max|lam| tau/2 bounds a gate's rounding (the bound of
    `TestSpectralKernel`) plus, for omega1 and a2, tau/2 times 8 eps max|B|
    for rounding B itself.  h minimizes that sum, capped at half the
    coordinate; the eigenbasis result's own rounding is far below it.
    """

    @settings(max_examples=150, deadline=None)
    @given(
        omega1=st.floats(300.0, 700.0),
        # down to 1e-6, where the 10/11 pair is near-degenerate
        log_a2=st.floats(-6.0, -0.3),
        a1=st.floats(0.0, 1.0),
        tau=st.floats(1.0, 40.0),
        tied=st.booleans(),
    )
    def test_matches_central_differences(self, omega1, log_a2, a1, tau, tied):
        a2 = 10.0**log_a2
        da1 = (a2 / 100.0, omega1 / 100.0) if tied else (0.0, 0.0)

        def gen_at(w1, x2):
            return Generator(w1, 100.0, 5.0, 95.0, x2 * w1 / 100.0 if tied else a1, x2)

        gen = gen_at(omega1, a2)
        _, derivatives = calibrate._linearize(gen, tau, da1)
        lam_max = float(np.max(np.abs(gen.lam)))
        eps_gate = 16.0 * _EPS * lam_max * tau / 2.0
        eps_b = tau / 2.0 * 8.0 * _EPS * float(np.max(np.abs(gen.matrix_b)))
        cases = {
            # name: (rate M, gate rounding, f, x)
            "omega1": (tau * (2.0 + da1[0]) / 2.0, eps_gate + eps_b,
                       lambda w: gen_at(w, a2).gate(tau), omega1),
            "a2": (tau * (1.0 + da1[1]) / 2.0, eps_gate + eps_b,
                   lambda x: gen_at(omega1, x).gate(tau), a2),
            "tau": (lam_max / 2.0, eps_gate, gen.gate, tau),
        }
        for (name, (rate, eps_u, f, x)), eigen in zip(cases.items(), derivatives):
            h = min((3.0 * eps_u / rate**3) ** (1.0 / 3.0), x / 2.0)
            bound = h * h / 6.0 * rate**3 + eps_u / h
            error = float(np.max(np.abs(gen.v @ eigen @ gen.v.T - _central_difference(f, x, h))))
            assert error <= bound, f"dU/d{name}: measured {error:.3e} against bound {bound:.3e}"

    @settings(max_examples=100, deadline=None)
    @given(
        omega1=st.floats(450.0, 550.0),
        a2=st.floats(0.05, 0.2),
        a1=st.floats(0.0, 1.0),
        tied=st.booleans(),
    )
    def test_recalibrated_duration_slope_is_approximate(self, omega1, a2, a1, tied):
        # with `recalibrated`, dU/d a2 gains dU/d tau times d tau*/d a2, taken from
        # tau* ~ pi / hypot(a2, delta): -tau a2 / (a2^2 + delta^2), here delta = 0.  The pi
        # timing also moves with the a1 dressing, whose ripple on the transfer grows like
        # a1^2; over this box the slope was measured within 0.71 (0.01 + 0.1 a1^2) of
        # central differences (h = 1e-3 a2) of the pi timing itself
        def gen_at(x2):
            return Generator(omega1, 100.0, 5.0, 95.0, x2 * omega1 / 100.0 if tied else a1, x2)

        gen = gen_at(a2)
        tau = gen.pi_duration()
        _, plain = calibrate._linearize(gen, tau)
        _, chained = calibrate._linearize(gen, tau, recalibrated=True)
        assert all(np.array_equal(chained[k], plain[k]) for k in (0, 2, 3))
        k = int(np.argmax(np.abs(np.diag(plain[2]))))  # dU/d tau is diagonal
        slope = complex((chained[1] - plain[1])[k, k] / plain[2][k, k]).real
        assert slope == pytest.approx(-tau / a2, rel=1e-12)
        measured = _central_difference(lambda x: gen_at(x).pi_duration(), a2, 1e-3 * a2)
        a1_here = a2 * omega1 / 100.0 if tied else a1
        error, bound = abs(slope / measured - 1.0), 0.01 + 0.1 * a1_here**2
        assert error <= bound, f"d tau*/d a2: relative error {error:.3e} against bound {bound:.3e}"

    @settings(max_examples=200, deadline=None)
    @given(
        omega1=st.floats(300.0, 700.0),
        log_a2=st.floats(-6.0, -0.3),
        a1=st.floats(0.0, 1.0),
        tau=st.floats(0.0, 60.0),
    )
    def test_least_residual_is_eight_objectives(self, omega1, log_a2, a1, tau):
        # min over phi of |U - e^{i phi} i CN|^2 = 8 - 2 |tr((i CN)^dag U)| = 8 objective.
        # Both sides are rounded sums of unit-size terms that use V^T V = I: measured
        # apart by up to 9.8e-15 (not 1e-15), so the bound is 64 eps = 1.4e-14
        gen = Generator(omega1, 100.0, 5.0, 95.0, a1, 10.0**log_a2)
        residual, (*_, d_phi) = calibrate._linearize(gen, tau)
        objective = gen.objective(tau)
        least = float(np.sum(np.abs(residual) ** 2))
        error = abs(least - 8.0 * objective)
        assert error <= 64 * _EPS, f"|R|^2 - 8 objective: {error:.3e} against {64 * _EPS:.3e}"
        # back in the lab basis it is U - c i CN at c = tr/|tr|, and turning c raises |R|^2
        u = gen.gate(tau)
        target = 1j * cn_matrix()
        trace = np.trace(target.conj().T @ u)
        c = trace / abs(trace)
        lab = gen.v @ residual @ gen.v.T
        # c's direction carries the trace's rounding divided by |tr| (measured below 3.6e-15)
        assert np.max(np.abs(lab - (u - c * target))) * abs(trace) / 4 <= 1e-14
        # and dR/dphi = -i c i CN
        lab_d_phi = gen.v @ d_phi @ gen.v.T
        assert np.max(np.abs(lab_d_phi - -1j * c * target)) * abs(trace) / 4 <= 1e-14
        for phi in (-1e-3, 1e-3):
            turned = u - np.exp(1j * phi) * c * target
            assert float(np.sum(np.abs(turned) ** 2)) >= least - 64 * _EPS
