import numpy as np
import pytest

from spingate import ConfigError, parse_config
from spingate.config import (
    EQ21_AMPS,
    PARAMS24_DURATION,
    PRESETS,
    build_run_config,
    emit_config,
    initial_state,
    parse_config_lines,
)

GOOD = """\
# benchmark parameters
omega1 = 500
omega2 = 100
coupling_j = 5
carrier = auto
a1 = 0.5
a2 = 0.1
duration = auto
initial = digital:11
frame = primed
sample_dt = 0.05
out = run.csv
"""


class TestParseConfig:
    def test_valid_document(self):
        config = parse_config(GOOD)
        assert config.system.omega1 == 500.0
        assert config.carrier == 95.0  # auto resolved to omega2 - J
        assert config.duration is None  # auto
        assert config.initial == "digital:11"
        assert config.frame == "primed"
        assert config.sample_dt == 0.05
        assert config.out == "run.csv"

    def test_unknown_key_with_line_number(self):
        text = "omega1 = 500\nomega2 = 100\nomega3 = 7\n"
        with pytest.raises(ConfigError, match="line 3.*unknown key"):
            parse_config(text)

    def test_unparseable_number_with_line_number(self):
        with pytest.raises(ConfigError, match="line 2.*cannot parse"):
            parse_config("omega1 = 500\nomega2 = fast\n")

    def test_missing_equals_sign(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("omega1 500\n")

    def test_missing_required_keys_named(self):
        with pytest.raises(ConfigError, match="coupling_j"):
            parse_config("omega1 = 500\nomega2 = 100\na1 = 0.5\na2 = 0.1\n")

    def test_later_assignment_wins(self):
        config = parse_config(GOOD + "a2 = 0.2\n")
        assert config.a2 == 0.2

    def test_norm_violating_initial_rejected_with_line(self):
        text = GOOD.replace("initial = digital:11", "initial = 1, 1, 0, 0")
        with pytest.raises(ConfigError, match="line 9"):
            parse_config(text)

    def test_bad_digital_label(self):
        text = GOOD.replace("initial = digital:11", "initial = digital:21")
        with pytest.raises(ConfigError, match="line 9.*valid labels"):
            parse_config(text)

    def test_bad_frame(self):
        with pytest.raises(ConfigError, match="frame"):
            parse_config(GOOD.replace("frame = primed", "frame = lab"))

    def test_negative_sample_dt(self):
        with pytest.raises(ConfigError, match="sample_dt"):
            parse_config(GOOD.replace("sample_dt = 0.05", "sample_dt = -1"))

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_nonfinite_sample_dt_rejected(self, value):
        with pytest.raises(ConfigError, match="sample_dt must be positive and finite"):
            parse_config(GOOD.replace("sample_dt = 0.05", f"sample_dt = {value}"))

    @pytest.mark.parametrize("value", ["-1", "inf", "nan"])
    def test_bad_duration_rejected(self, value):
        with pytest.raises(ConfigError, match="duration must be finite and >= 0"):
            parse_config(GOOD.replace("duration = auto", f"duration = {value}"))

    def test_duration_is_number_or_auto(self):
        config = parse_config(GOOD.replace("duration = auto", "duration = 0"))
        assert config.duration == 0.0 and config.carrier == 95.0
        with pytest.raises(ConfigError, match="line 8.*as a number or 'auto'"):
            parse_config(GOOD.replace("duration = auto", "duration = soon"))

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ConfigError, match="a1"):
            parse_config(GOOD.replace("a1 = 0.5", "a1 = -0.5"))


class TestInitialState:
    def test_digital(self):
        config = parse_config(GOOD)
        state = initial_state(config)
        assert np.array_equal(state.amps, [0, 0, 0, 1])

    def test_eq21_preset(self):
        config = parse_config(GOOD.replace("initial = digital:11", "initial = eq21"))
        state = initial_state(config)
        assert np.allclose(state.amps, EQ21_AMPS)

    def test_explicit_amplitudes(self):
        amps = "0.5477225575051661, 0.4472135954999579, 0.5773502691896258, 0.408248290463863"
        config = parse_config(GOOD.replace("initial = digital:11", f"initial = {amps}"))
        state = initial_state(config)
        assert np.allclose(state.amps, EQ21_AMPS)

    def test_complex_amplitudes(self):
        spec = "0.7071067811865476, 0+0.7071067811865476j, 0, 0"
        config = parse_config(GOOD.replace("initial = digital:11", f"initial = {spec}"))
        state = initial_state(config)
        assert abs(state.c01 - 0.7071067811865476j) < 1e-15

    def test_none_when_unset(self):
        config = parse_config("\n".join(GOOD.splitlines()[:8]))
        assert initial_state(config) is None


class TestPresets:
    def test_params12_expansion(self):
        config = build_run_config(PRESETS["params12"])
        assert config.system.omega1 == 500.0
        assert config.system.omega2 == 100.0
        assert config.system.coupling_j == 5.0
        assert config.carrier == 95.0
        assert config.a1 == 0.5 and config.a2 == 0.1
        assert config.duration is None

    def test_params24_expansion(self):
        config = build_run_config(PRESETS["params24"])
        assert config.system.omega1 == 500.06
        assert config.a2 == 0.10016
        assert config.a1 == pytest.approx(0.10016 * 500.06 / 100.0, abs=1e-15)
        assert config.duration == PARAMS24_DURATION

    def test_preset_overridable(self):
        values = dict(PRESETS["params12"])
        values.update(parse_config_lines("a2 = 0.11\nframe = raw"))
        config = build_run_config(values)
        assert config.a2 == 0.11
        assert config.frame == "raw"


class TestRoundTrip:
    def test_emit_and_reparse_is_identity(self):
        config = parse_config(GOOD)
        assert parse_config(emit_config(config)) == config

    def test_round_trip_with_explicit_duration(self):
        config = parse_config(GOOD.replace("duration = auto", "duration = 31.4159"))
        assert parse_config(emit_config(config)) == config

    def test_round_trip_preserves_full_precision(self):
        values = dict(PRESETS["params24"])
        config = build_run_config(values)
        again = parse_config(emit_config(config))
        assert again.duration == config.duration
        assert again.a1 == config.a1

    def test_round_trip_minimal(self):
        config = parse_config("omega1=500\nomega2=100\ncoupling_j=5\na1=0.5\na2=0.1\n")
        assert parse_config(emit_config(config)) == config
