import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spingate import ConfigError, parse_config
from spingate.config import (
    EQ21_AMPS,
    PARAMS24_DURATION,
    PRESETS,
    RunConfig,
    emit_config,
    initial_state,
    load_config,
)

README = Path(__file__).resolve().parents[1] / "README.md"

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
        assert config.omega1 == 500.0
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
            parse_config("omega1 = 500\nomega2 = fast\ncoupling_j = 5\na1 = 0.5\na2 = 0.1\n")

    def test_missing_equals_sign(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("omega1 500\n")

    def test_missing_required_keys_named(self):
        with pytest.raises(ConfigError, match="coupling_j"):
            parse_config("omega1 = 500\nomega2 = 100\na1 = 0.5\na2 = 0.1\n")
        # every missing key in one message, tied to no line; the first is the error's key
        with pytest.raises(ConfigError, match=r"^missing required key\(s\): omega2, a1$") as info:
            parse_config("omega1 = 500\ncoupling_j = 5\na2 = 0.1\n")
        assert info.value.key == "omega2" and info.value.line is None

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

    @pytest.mark.parametrize(
        "good, bad, message",
        [("a1 = 0.5", "a1 = -0.5", "line 6: a1 must be >= 0, got -0.5"),
         ("a2 = 0.1", "a2 = inf", "line 7: a2 must be >= 0, got inf"),
         ("duration = auto", "duration = -1", "line 8: duration must be finite and >= 0"),
         ("frame = primed", "frame = lab", "line 10: frame must be 'raw' or 'primed'"),
         ("sample_dt = 0.05", "sample_dt = 0", "line 11: sample_dt must be positive"),
         # 'auto' is a value only for carrier and duration; for any other key it is bad text
         ("omega1 = 500", "omega1 = auto", "line 2: cannot parse 'auto' for key 'omega1' as a "
          "number$"),
         ("sample_dt = 0.05", "sample_dt = auto", "line 11: cannot parse 'auto' for key "
          "'sample_dt' as a number$"),
         ("a1 = 0.5", "a1 =", "line 6: empty value for key 'a1'$"),
         ("initial = digital:11", "initial = 1,2,x,4", "line 9: cannot parse complex "
          "amplitudes in '1,2,x,4'$")],
    )
    def test_range_error_names_its_line(self, good, bad, message):
        with pytest.raises(ConfigError, match=f"^{message}") as info:
            parse_config(GOOD.replace(good, bad))
        assert info.value.line == int(message.split()[1].rstrip(":"))

    def test_range_error_names_last_assignment(self):
        with pytest.raises(ConfigError, match="^line 13: a2 must be >= 0"):
            parse_config(GOOD + "a2 = -1\n")
        # an out-of-range value that a later line replaces is no error
        assert parse_config(GOOD.replace("a2 = 0.1", "a2 = -1") + "a2 = 0.2\n").a2 == 0.2

    def test_replaced_value_is_validated(self):
        with pytest.raises(ConfigError, match=r"^a1 must be >= 0, got -1\.0$") as info:
            replace(parse_config(GOOD), a1=-1.0)
        assert info.value.key == "a1" and info.value.line is None

    def test_computed_carrier_error_names_no_line(self):
        # carrier = auto resolves to omega2 - J = -1, which no single line set
        with pytest.raises(ConfigError, match="^carrier must be positive") as info:
            parse_config(GOOD.replace("omega2 = 100", "omega2 = 4"))
        assert info.value.line is None


class TestOnePath:
    """RunConfig alone converts and checks a value, wherever the value comes from."""

    @pytest.mark.parametrize(
        "key, value, message",
        [("a1", "x", "cannot parse 'x' for key 'a1' as a number"),
         ("frame", "lab", "frame must be 'raw' or 'primed', got 'lab'"),
         ("sample_dt", "-1", "sample_dt must be positive and finite, got -1.0")],
        ids=["unparseable", "bad-frame", "out-of-range"],
    )
    def test_same_message_from_line_flag_and_direct_call(self, tmp_path, key, value, message):
        path = tmp_path / "run.cfg"
        path.write_text(f"# one bad value\n{key} = {value}\n")
        routes = (
            lambda: load_config("params12", str(path), {}),
            lambda: load_config("params12", None, {key: value}),
            lambda: RunConfig(**{**PRESETS["params12"], key: value}),
        )
        messages = []
        for route in routes:
            with pytest.raises(ConfigError) as info:
                route()
            assert info.value.key == key
            messages.append(str(info.value))
        assert messages == [f"line 2: {message}", message, message]

    def test_text_and_auto_reach_the_record_unconverted(self):
        text = {key: str(value) for key, value in PRESETS["params24"].items() if value is not None}
        config = RunConfig(**text, carrier="auto", initial="eq21", sample_dt="0.5")
        assert config == RunConfig(**PRESETS["params24"], initial="eq21", sample_dt=0.5)
        assert config.carrier == 95.0 and config.sample_dt == 0.5

    @pytest.mark.parametrize(
        "args, missing",
        [
            ((None, 100.0, 5.0, None, 0.5, 0.1), "omega1"),
            ((500.0, None, 5.0, None, 0.5, 0.1), "omega2"),
            ((None, 100.0, 5.0, None, "fast", None), "omega1, a2"),
        ],
        ids=["omega1", "omega2_before_carrier", "all_named_before_any_value_check"],
    )
    def test_none_for_required_key_rejected(self, args, missing):
        message = rf"^missing required key\(s\): {missing}$"
        with pytest.raises(ConfigError, match=message) as excinfo:
            RunConfig(*args)
        assert excinfo.value.key == missing.split(",")[0]

    def test_none_frame_rejected(self):
        # emit_config drops a None value, so an unchecked None frame would not reload
        message = r"^frame must be 'raw' or 'primed', got None$"
        with pytest.raises(ConfigError, match=message) as excinfo:
            RunConfig(500.0, 100.0, 5.0, None, 0.5, 0.1, frame=None)
        assert excinfo.value.key == "frame"


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

    def test_parsed_once(self):
        config = parse_config(GOOD)
        assert initial_state(config) is initial_state(config)

    def test_none_when_unset(self):
        config = parse_config("\n".join(GOOD.splitlines()[:8]))
        assert initial_state(config) is None


class TestPresets:
    def test_params12_expansion(self):
        config = RunConfig(**PRESETS["params12"])
        assert config.omega1 == 500.0
        assert config.omega2 == 100.0
        assert config.coupling_j == 5.0
        assert config.carrier == 95.0
        assert config.a1 == 0.5 and config.a2 == 0.1
        assert config.duration is None

    def test_params24_expansion(self):
        config = RunConfig(**PRESETS["params24"])
        assert config.omega1 == 500.06
        assert config.a2 == 0.10016
        assert config.a1 == pytest.approx(0.10016 * 500.06 / 100.0, abs=1e-15)
        assert config.duration == PARAMS24_DURATION

    def test_preset_overridable(self):
        preset = emit_config(RunConfig(**PRESETS["params12"]))
        config = parse_config(preset + "a2 = 0.11\nframe = raw\n")
        assert config.a2 == 0.11
        assert config.frame == "raw"


class TestLoadConfig:
    def test_flag_over_file_over_preset(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("a2 = 0.2\nframe = raw\nsample_dt = 0.5\n")
        config = load_config("params12", str(path), {"frame": "primed", "sample_dt": None})
        assert (config.a1, config.a2) == (0.5, 0.2)
        assert config.frame == "primed" and config.sample_dt == 0.5

    def test_unknown_preset(self):
        message = r"^unknown preset 'nope'; available: params12, params24$"
        with pytest.raises(ConfigError, match=message):
            load_config("nope", None, {})

    def test_no_source(self):
        with pytest.raises(ConfigError, match=r"^provide --preset and/or --config$"):
            load_config(None, None, {"frame": "raw"})

    def test_file_error_names_line_and_flag_error_none(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# pulse\nsample_dt = -1\n")
        with pytest.raises(ConfigError, match=r"^line 2: sample_dt must be positive"):
            load_config("params12", str(path), {})
        with pytest.raises(ConfigError, match=r"^sample_dt must be positive"):
            load_config("params12", None, {"sample_dt": -1.0})


class TestRoundTrip:
    def test_emit_and_reparse_is_identity(self):
        config = parse_config(GOOD)
        assert parse_config(emit_config(config)) == config

    def test_round_trip_with_explicit_duration(self):
        config = parse_config(GOOD.replace("duration = auto", "duration = 31.4159"))
        assert parse_config(emit_config(config)) == config

    def test_round_trip_preserves_full_precision(self):
        values = dict(PRESETS["params24"])
        config = RunConfig(**values)
        again = parse_config(emit_config(config))
        assert again.duration == config.duration
        assert again.a1 == config.a1

    def test_integer_values_emitted_as_floats(self):
        values = {"omega1": 500, "omega2": 100, "coupling_j": 5, "a1": 1, "a2": 0, "duration": 31}
        text = emit_config(RunConfig(carrier=None, **values))
        assert text.splitlines()[:7] == [
            "omega1 = 500.0", "omega2 = 100.0", "coupling_j = 5.0", "carrier = 95.0",
            "a1 = 1.0", "a2 = 0.0", "duration = 31.0",
        ]

    def test_round_trip_minimal(self):
        config = parse_config("omega1=500\nomega2=100\ncoupling_j=5\na1=0.5\na2=0.1\n")
        assert parse_config(emit_config(config)) == config

    @given(
        omega1=st.floats(1e-2, 1e4),
        omega2=st.floats(1e-2, 1e4),
        coupling_j=st.floats(-2e4, 2e4),
        # any positive finite carrier, on the conditional line omega2 - J or off it
        carrier=st.floats(0.0, exclude_min=True, allow_infinity=False),
        a1=st.floats(0.0, 1e3),
        a2=st.floats(0.0, 1e3),
        duration=st.none() | st.floats(0.0, 1e4),
        # any text, '#', line breaks and edge whitespace included
        out=st.none() | st.text(),
    )
    @settings(max_examples=200, deadline=None)
    def test_round_trip_near_resonance(self, omega1, omega2, coupling_j, carrier, a1, a2,
                                       duration, out):
        try:
            config = RunConfig(omega1, omega2, coupling_j, carrier, a1, a2, duration, out=out)
        except ConfigError as exc:
            # the numbers are all in range: only an out value no config line can hold is refused
            assert exc.key == "out"
            return
        assert config.carrier == carrier
        assert parse_config(emit_config(config)) == config

    def test_readme_config_example(self):
        blocks = re.findall(r"```\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
        examples = [block for block in blocks if block.startswith("omega1 = ")]
        assert len(examples) == 1
        config = parse_config(examples[0])
        assert (config.carrier, config.duration, config.initial) == (95.0, None, "digital:11")
        assert parse_config(emit_config(config)) == config
