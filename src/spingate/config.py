"""Run configuration: flat key-value files, named presets, round-trip output.

The configuration grammar is deliberately small: UTF-8 text, one
`key = value` per line, `#` starts a comment, later assignments override
earlier ones.  Keys:

    omega1, omega2, coupling_j   system (angular frequencies)
    carrier                      drive frequency, or 'auto' for omega2 - J
    a1, a2                       drive amplitudes
    duration                     pulse length, or 'auto' to calibrate a
                                 pi-pulse at run time
    initial                      'digital:<ik>', 'eq21', or four
                                 comma-separated complex amplitudes
    frame                        'raw' or 'primed'
    sample_dt                    sampling step for time series
    out                          output path

Tuned-parameter reports are written in the same grammar, so any report can
be fed back in as a config.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .core import QState, SystemParams, PulseSpec, digital_state, superposition_state

__all__ = [
    "ConfigError",
    "RunConfig",
    "parse_config",
    "parse_config_lines",
    "build_run_config",
    "emit_config",
    "initial_state",
    "PRESETS",
    "EQ21_AMPS",
    "PARAMS24_DURATION",
]

_NUMERIC_KEYS = ("omega1", "omega2", "coupling_j", "a1", "a2", "sample_dt")
_AUTO_KEYS = ("carrier", "duration")  # a number, or 'auto' (stored as None)
_ALL_KEYS = _NUMERIC_KEYS + _AUTO_KEYS + ("initial", "frame", "out")
_REQUIRED_KEYS = ("omega1", "omega2", "coupling_j", "a1", "a2")

#: the benchmark superposition state (amplitudes sum of squares is exactly 1)
EQ21_AMPS = (
    np.sqrt(3.0 / 10.0),
    1.0 / np.sqrt(5.0),
    1.0 / np.sqrt(3.0),
    1.0 / np.sqrt(6.0),
)

#: pure-CN pulse length for the `params24` preset: the duration at which the
#: raw-frame gate of that parameter set aligns with i * CN (found by the
#: duration-only pure-CN search; regression-tested in the suite)
PARAMS24_DURATION = 31.415126695028267


class ConfigError(ValueError):
    """Configuration text that cannot be parsed or validated.

    `line` is the 1-based source line when the error is tied to one.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class RunConfig:
    """Validated scenario description.

    `duration=None` means 'calibrate a pi-pulse when the scenario runs';
    `initial` keeps the original spelling ('digital:11', 'eq21', or the
    amplitude list) so emitted configs reload to an equal RunConfig.
    """

    system: SystemParams
    carrier: float
    a1: float
    a2: float
    duration: float | None
    initial: str | None = None
    frame: str = "primed"
    sample_dt: float | None = None
    out: str | None = None

    def pulse(self, duration: float | None = None) -> PulseSpec:
        """Concrete pulse; `duration` overrides when the config says 'auto'."""
        if duration is None:
            duration = self.duration
        if duration is None:
            raise ValueError("duration is 'auto'; calibrate it before building the pulse")
        return PulseSpec(carrier=self.carrier, a1=self.a1, a2=self.a2, duration=duration)


def parse_config_lines(text: str) -> dict:
    """Parse config text into a key -> typed-value mapping.

    Unknown keys, malformed lines and unparseable numbers are rejected with
    the offending line number.  Later assignments override earlier ones.
    """
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {raw.strip()!r}", lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _ALL_KEYS:
            raise ConfigError(
                f"unknown key {key!r}; valid keys are {', '.join(_ALL_KEYS)}", lineno
            )
        if not value:
            raise ConfigError(f"empty value for key {key!r}", lineno)
        if key in _AUTO_KEYS and value == "auto":
            values[key] = None
        elif key in _NUMERIC_KEYS + _AUTO_KEYS:
            try:
                values[key] = float(value)
            except ValueError:
                kind = "a number or 'auto'" if key in _AUTO_KEYS else "a number"
                raise ConfigError(f"cannot parse {value!r} for key {key!r} as {kind}", lineno)
        elif key == "initial":
            _parse_initial(value, lineno)  # validate eagerly, keep the spelling
            values[key] = value
        else:
            values[key] = value
    return values


def build_run_config(values: Mapping) -> RunConfig:
    """Assemble and validate a RunConfig from a parsed mapping."""
    missing = [key for key in _REQUIRED_KEYS if key not in values]
    if missing:
        raise ConfigError(f"missing required key(s): {', '.join(missing)}")
    try:
        system = SystemParams(values["omega1"], values["omega2"], values["coupling_j"])
    except ValueError as exc:
        raise ConfigError(str(exc))
    carrier = values.get("carrier")
    if carrier is None:
        carrier = system.resonant_carrier
    frame = values.get("frame", "primed")
    if frame not in ("raw", "primed"):
        raise ConfigError(f"frame must be 'raw' or 'primed', got {frame!r}")
    sample_dt = values.get("sample_dt")
    if sample_dt is not None and not 0.0 < sample_dt < np.inf:
        raise ConfigError(f"sample_dt must be positive and finite, got {sample_dt!r}")
    config = RunConfig(
        system=system,
        carrier=float(carrier),
        a1=float(values["a1"]),
        a2=float(values["a2"]),
        duration=values.get("duration"),
        initial=values.get("initial"),
        frame=frame,
        sample_dt=sample_dt,
        out=values.get("out"),
    )
    # surface pulse-field validation errors (signs, finiteness) at parse time
    try:
        config.pulse(0.0 if config.duration is None else config.duration)
    except ValueError as exc:
        raise ConfigError(str(exc))
    return config


def parse_config(text: str) -> RunConfig:
    """Parse one config document into a validated RunConfig."""
    return build_run_config(parse_config_lines(text))


def _parse_initial(spec: str, lineno: int | None = None) -> QState:
    if spec.startswith("digital:"):
        label = spec.split(":", 1)[1]
        try:
            return digital_state(label)
        except ValueError as exc:
            raise ConfigError(str(exc), lineno)
    if spec == "eq21":
        return superposition_state(EQ21_AMPS)
    parts = [p.strip() for p in spec.split(",")]
    if len(parts) != 4:
        raise ConfigError(
            f"initial state must be 'digital:<ik>', 'eq21', or 4 comma-separated "
            f"complex amplitudes; got {spec!r}",
            lineno,
        )
    try:
        amps = [complex(p.replace(" ", "")) for p in parts]
    except ValueError:
        raise ConfigError(f"cannot parse complex amplitudes in {spec!r}", lineno)
    try:
        return superposition_state(amps)
    except ValueError as exc:
        raise ConfigError(f"invalid initial state {spec!r}: {exc}", lineno)


def initial_state(config: RunConfig) -> QState | None:
    """Resolve the configured initial state, or None when unset."""
    if config.initial is None:
        return None
    return _parse_initial(config.initial)


def _fmt(x: float) -> str:
    return repr(float(x))


def emit_config(config: RunConfig) -> str:
    """Serialize a RunConfig back to config text (reloads to an equal value)."""
    lines = [
        f"omega1 = {_fmt(config.system.omega1)}",
        f"omega2 = {_fmt(config.system.omega2)}",
        f"coupling_j = {_fmt(config.system.coupling_j)}",
        f"carrier = {_fmt(config.carrier)}",
        f"a1 = {_fmt(config.a1)}",
        f"a2 = {_fmt(config.a2)}",
        f"duration = {'auto' if config.duration is None else _fmt(config.duration)}",
    ]
    if config.initial is not None:
        lines.append(f"initial = {config.initial}")
    lines.append(f"frame = {config.frame}")
    if config.sample_dt is not None:
        lines.append(f"sample_dt = {_fmt(config.sample_dt)}")
    if config.out is not None:
        lines.append(f"out = {config.out}")
    return "\n".join(lines) + "\n"


def _preset_params24() -> dict:
    omega1, omega2 = 500.06, 100.0
    a2 = 0.10016
    return {
        "omega1": omega1,
        "omega2": omega2,
        "coupling_j": 5.0,
        "carrier": None,
        "a1": a2 * omega1 / omega2,
        "a2": a2,
        "duration": PARAMS24_DURATION,
    }


#: named parameter sets; values merge under any config file and flag overrides
PRESETS: dict[str, dict] = {
    "params12": {
        "omega1": 500.0,
        "omega2": 100.0,
        "coupling_j": 5.0,
        "carrier": None,
        "a1": 0.5,
        "a2": 0.1,
        "duration": None,
    },
    "params24": _preset_params24(),
}
