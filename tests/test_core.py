from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spingate import (
    PulseSpec,
    QState,
    SystemParams,
    digital_state,
    superposition_state,
)
from spingate.config import EQ21_AMPS
from spingate.core import BASIS_LABELS, TimeSeries, wrap_angle


class TestSystemParams:
    def test_valid(self):
        p = SystemParams(500.0, 100.0, 5.0)
        assert p.resonant_carrier == 95.0

    @pytest.mark.parametrize("kw", [
        dict(omega1=0.0, omega2=100.0, coupling_j=5.0),
        dict(omega1=-1.0, omega2=100.0, coupling_j=5.0),
        dict(omega1=500.0, omega2=0.0, coupling_j=5.0),
        dict(omega1=500.0, omega2=100.0, coupling_j=float("nan")),
        dict(omega1=float("inf"), omega2=100.0, coupling_j=5.0),
    ])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            SystemParams(**kw)


class TestPulseSpec:
    def test_valid(self):
        PulseSpec(carrier=95.0, a1=0.5, a2=0.1, duration=31.4)
        PulseSpec(carrier=95.0, a1=0.0, a2=0.0, duration=0.0)

    @pytest.mark.parametrize("kw", [
        dict(carrier=0.0, a1=0.5, a2=0.1, duration=1.0),
        dict(carrier=95.0, a1=-0.1, a2=0.1, duration=1.0),
        dict(carrier=95.0, a1=0.5, a2=-0.1, duration=1.0),
        dict(carrier=95.0, a1=0.5, a2=0.1, duration=-1.0),
    ])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            PulseSpec(**kw)


class TestDigitalState:
    @pytest.mark.parametrize("label,expected", [
        ("11", (0, 0, 0, 1)),
        ("00", (1, 0, 0, 0)),
        ("01", (0, 1, 0, 0)),
        ("10", (0, 0, 1, 0)),
    ])
    def test_unit_vectors(self, label, expected):
        assert np.array_equal(digital_state(label).amps, np.array(expected, dtype=complex))

    def test_invalid_label_names_valid_ones(self):
        with pytest.raises(ValueError, match="00, 01, 10, 11"):
            digital_state("02")

    def test_basis_round_trip(self):
        for label in BASIS_LABELS:
            idx = int(np.argmax(np.abs(digital_state(label).amps)))
            assert BASIS_LABELS[idx] == label


_unit4 = st.lists(
    st.complex_numbers(min_magnitude=0, max_magnitude=1, allow_nan=False, allow_infinity=False),
    min_size=4, max_size=4,
).filter(lambda amps: sum(abs(a) ** 2 for a in amps) > 1e-6)


class TestSuperpositionState:
    def test_benchmark_superposition_accepted(self):
        state = superposition_state(EQ21_AMPS)
        assert abs(state.norm_squared() - 1.0) < 1e-15

    def test_benchmark_weights_sum_to_one_exactly(self):
        # 3/10 + 1/5 + 1/3 + 1/6 == 1 in exact arithmetic
        total = Fraction(3, 10) + Fraction(1, 5) + Fraction(1, 3) + Fraction(1, 6)
        assert total == 1

    def test_digital_is_valid_superposition(self):
        state = superposition_state([1, 0, 0, 0])
        assert np.array_equal(state.amps, digital_state("00").amps)

    def test_normalization_requested(self):
        state = superposition_state([2, 0, 0, 0], normalize=True)
        assert np.allclose(state.amps, [1, 0, 0, 0])

    @pytest.mark.parametrize(
        "amps, expected",
        [([1e-200, 0, 0, 0], [1, 0, 0, 0]),
         ([3e-170, 4e-170, 0, 0], [0.6, 0.8, 0, 0]),
         ([1e200, 0, 0, 0], [1, 0, 0, 0])],
        ids=["tiny", "tiny-pair", "huge"],
    )
    def test_normalization_of_tiny_and_huge_vectors(self, amps, expected):
        # |a|^2 underflows to 0 or overflows to inf unless a is scaled first
        state = superposition_state(amps, normalize=True)
        assert np.max(np.abs(state.amps - expected)) <= 1e-15

    @given(amps=_unit4, exponent=st.floats(-300.0, 300.0))
    def test_normalization_is_scale_free(self, amps, exponent):
        direction = np.array(amps, dtype=complex)
        reference = direction / np.linalg.norm(direction)
        state = superposition_state(direction * 10.0**exponent, normalize=True)
        assert np.max(np.abs(state.amps - reference)) <= 1e-15

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero vector"):
            superposition_state([0, 0, 0, 0])

    def test_norm_violation_reports_norm(self):
        with pytest.raises(ValueError, match="2.0"):
            superposition_state([np.sqrt(2), 0, 0, 0], normalize=False)

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            superposition_state([1, 0, 0])


class TestQState:
    @given(_unit4)
    def test_normalized_states_revalidate(self, amps):
        state = superposition_state(amps, normalize=True)
        QState(state.amps)  # re-validation accepts

    def test_amps_read_only(self):
        state = digital_state("00")
        with pytest.raises(ValueError):
            state.amps[0] = 0.0

    @pytest.mark.parametrize(
        "amps, message",
        [([1, 0, 0], r"^need exactly 4 amplitudes, got shape \(3,\)$"),
         ([np.nan, 0, 0, 0], "^amplitudes must be finite$")],
    )
    def test_malformed_amplitudes_rejected(self, amps, message):
        with pytest.raises(ValueError, match=message):
            QState(amps)

    def test_component_accessors(self):
        state = superposition_state(EQ21_AMPS)
        assert state.c00 == complex(EQ21_AMPS[0])
        assert state.c11 == complex(EQ21_AMPS[3])


class TestWrapAngle:
    @given(st.floats(min_value=-50, max_value=50))
    def test_range_and_identity(self, phi):
        wrapped = wrap_angle(phi)
        assert -np.pi < wrapped <= np.pi
        assert abs(np.exp(1j * wrapped) - np.exp(1j * phi)) < 1e-9

    def test_pi_maps_to_pi(self):
        assert wrap_angle(np.pi) == pytest.approx(np.pi)
        assert wrap_angle(-np.pi) == pytest.approx(np.pi)


class TestTimeSeries:
    def test_norm_column_derived_from_amplitudes(self):
        t = np.array([0.0, 1.0])
        amps = np.array([[1, 0, 0, 0], [0.6, 0.8j, 0, 0.5]], dtype=complex)
        series = TimeSeries(t=t, amps=amps)
        assert np.array_equal(series.norm, np.sum(np.abs(amps) ** 2, axis=1))

    def test_nan_rows_rejected(self):
        t = np.array([0.0, 1.0])
        amps = np.full((2, 4), np.nan, dtype=complex)
        with pytest.raises(ValueError, match="times and amplitudes must be finite"):
            TimeSeries(t=t, amps=amps)

    def test_nan_times_rejected(self):
        # a nan time passes the ordering check: nan <= 0 is False
        t = np.array([0.0, np.nan])
        amps = np.tile([1, 0, 0, 0], (2, 1)).astype(complex)
        with pytest.raises(ValueError, match="times and amplitudes must be finite"):
            TimeSeries(t=t, amps=amps)

    def test_row_count_must_match_times(self):
        with pytest.raises(ValueError, match="^inconsistent row shapes$"):
            TimeSeries([0.0, 1.0], np.zeros((3, 4)))

    def test_strictly_increasing_required(self):
        t = np.array([0.0, 1.0, 1.0])
        amps = np.tile([1, 0, 0, 0], (3, 1)).astype(complex)
        with pytest.raises(ValueError, match="strictly increasing"):
            TimeSeries(t=t, amps=amps)

    def test_zero_duration_pair_rejected(self):
        # a zero-length pulse is sampled as the one row t = 0, so no pair is exempt
        t = np.zeros(2)
        amps = np.tile([1, 0, 0, 0], (2, 1)).astype(complex)
        with pytest.raises(ValueError, match="^times must be strictly increasing$"):
            TimeSeries(t=t, amps=amps)
