"""Run configuration: flat key-value files, named presets, round-trip output.

The configuration grammar is deliberately small: UTF-8 text, one
`key = value` per line, `#` starts a comment, later assignments override
earlier ones.  Keys:

    omega1, omega2, coupling_j   system (angular frequencies)
    carrier                      drive frequency, or 'auto' for omega2 - J
                                 (the conditional resonance)
    a1, a2                       drive amplitudes
    duration                     pulse length, or 'auto' to calibrate a
                                 pi-pulse at run time
    initial                      'digital:<ik>', 'eq21', or four
                                 comma-separated complex amplitudes
    frame                        'raw' or 'primed'
    sample_dt                    sampling step for time series
    out                          output path

Text, presets and CLI flags only supply values: `RunConfig` construction
alone converts and checks them and resolves 'auto', so one bad value gets
one message wherever it came from (plus its line, when a config line set
it).

Tuned-parameter reports are written in the same grammar, so any report can
be fed back in as a config.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Mapping

import numpy as np

from .core import QState, check_param, digital_state, superposition_state

__all__ = [
    "ConfigError",
    "RunConfig",
    "parse_config",
    "load_config",
    "emit_config",
    "initial_state",
    "PRESETS",
    "EQ21_AMPS",
    "PARAMS24_DURATION",
]

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

    `line` is the 1-based source line when the error is tied to one, and
    `key` the config key whose value is at fault, when there is one.
    """

    def __init__(self, message: str, line: int | None = None, key: str | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
        self.key = key


@dataclass(frozen=True)
class RunConfig:
    """Validated scenario description: one field per config key.

    Construction is the only place a value is converted and checked, so a
    config line, a preset, a flag and a direct call agree: numbers may come
    as text, 'auto' (or None) sets `carrier` to omega2 - J and leaves
    `duration` None (pi-timed when the scenario runs), the five required
    keys may not be None, and every set key meets `core.check_param`.  A
    failure raises `ConfigError` naming the key.  `initial` keeps its
    spelling ('digital:11', 'eq21', or the amplitude list) so emitted
    configs reload to an equal RunConfig; it is parsed once, here, and
    `initial_state` returns the state.
    """

    omega1: float
    omega2: float
    coupling_j: float
    carrier: float | None
    a1: float
    a2: float
    duration: float | None = None
    initial: str | None = None
    frame: str = "primed"
    sample_dt: float | None = None
    out: str | None = None
    _state: QState | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        # all of them named at once, before carrier is derived from omega2 and coupling_j
        missing = [key for key in _REQUIRED_KEYS if getattr(self, key) is None]
        if missing:
            raise ConfigError(f"missing required key(s): {', '.join(missing)}", key=missing[0])
        for key in _ALL_KEYS:
            value = getattr(self, key)
            if key in _AUTO_KEYS and value == "auto":
                value = None
            if key == "carrier" and value is None:
                value = self.omega2 - self.coupling_j
            if value is not None:
                try:
                    value = self._checked(key, value)
                except ValueError as exc:
                    raise ConfigError(str(exc), key=key) from None
            object.__setattr__(self, key, value)

    def _checked(self, key: str, value):
        """`value` converted for `key` and checked against its rules."""
        if key == "initial":
            object.__setattr__(self, "_state", _parse_initial(value))
            return value
        if key in _NUMERIC_KEYS:
            try:
                value = float(value)
            except (TypeError, ValueError):
                kind = "a number or 'auto'" if key in _AUTO_KEYS else "a number"
                raise ValueError(f"cannot parse {value!r} for key {key!r} as {kind}") from None
        check_param(key, value)
        return value


_ALL_KEYS = tuple(f.name for f in fields(RunConfig) if f.init)
_NUMERIC_KEYS = ("omega1", "omega2", "coupling_j", "carrier", "a1", "a2", "duration", "sample_dt")
_AUTO_KEYS = ("carrier", "duration")  # a number, or 'auto' (stored as None)
_REQUIRED_KEYS = ("omega1", "omega2", "coupling_j", "a1", "a2")


def _assignment(key: str, value):
    """`value` unchanged, once its key is known and it is not empty; RunConfig converts it."""
    if key not in _ALL_KEYS:
        raise ConfigError(f"unknown key {key!r}; valid keys are {', '.join(_ALL_KEYS)}")
    if value == "":
        raise ConfigError(f"empty value for key {key!r}")
    return value


def parse_config(text: str) -> RunConfig:
    """Parse one config document into a validated RunConfig."""
    return _load({}, text, {})


def load_config(preset: str | None, path: str | None, flags: Mapping[str, object]) -> RunConfig:
    """A named preset, then a config file over it, then flag values over both."""
    if preset is None and path is None:
        raise ConfigError("provide --preset and/or --config")
    if preset is not None and preset not in PRESETS:
        raise ConfigError(f"unknown preset {preset!r}; available: {', '.join(sorted(PRESETS))}")
    text = "" if path is None else Path(path).read_text(encoding="utf-8")
    return _load(PRESETS.get(preset, {}), text, flags)


def _load(base: Mapping, text: str, flags: Mapping[str, object]) -> RunConfig:
    """`base` values, then the assignments of `text` over them, then flags over both.

    Unknown keys and malformed lines are rejected with the offending line
    number; the values themselves are converted and checked by `RunConfig`,
    and an error there names the line that last assigned the key at fault.
    A flag value of None means the flag was not given; a flag value is
    checked like a config value but names no line in its errors, and
    neither does a carrier or duration whose value was 'auto'.
    """
    values = dict(base)
    lines: dict[str, int] = {}  # the line of each key's last assignment in the text
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {raw.strip()!r}", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        try:
            values[key] = _assignment(key, value.strip())
        except ConfigError as exc:
            raise ConfigError(str(exc), lineno, key) from None
        lines[key] = lineno
    for key, override in flags.items():
        if override is not None:
            values[key] = _assignment(key, override)
            lines.pop(key, None)
    try:
        return RunConfig(**{**dict.fromkeys(_REQUIRED_KEYS), "carrier": None, **values})
    except ConfigError as exc:
        if exc.key not in lines or (exc.key in _AUTO_KEYS and values[exc.key] == "auto"):
            raise
        raise ConfigError(str(exc), lines[exc.key], exc.key) from None


def _parse_initial(spec: str) -> QState:
    """The state an `initial` value names; a `ValueError` says what is wrong with it."""
    if spec.startswith("digital:"):
        return digital_state(spec.split(":", 1)[1])
    if spec == "eq21":
        return superposition_state(EQ21_AMPS)
    parts = spec.split(",")
    if len(parts) != 4:
        raise ValueError(
            f"initial state must be 'digital:<ik>', 'eq21', or 4 comma-separated "
            f"complex amplitudes; got {spec!r}"
        )
    try:
        amps = [complex(p.replace(" ", "")) for p in parts]
    except ValueError:
        raise ValueError(f"cannot parse complex amplitudes in {spec!r}") from None
    try:
        return superposition_state(amps)
    except ValueError as exc:
        raise ValueError(f"invalid initial state {spec!r}: {exc}") from None


def initial_state(config: RunConfig) -> QState | None:
    """The configured initial state, parsed when the config was built, or None when unset."""
    return config._state


def emit_config(config: RunConfig) -> str:
    """Serialize a RunConfig back to config text (reloads to an equal value)."""
    lines = []
    for key in _ALL_KEYS:
        value = getattr(config, key)
        if value is not None:
            lines.append(f"{key} = {value!r}" if key in _NUMERIC_KEYS else f"{key} = {value}")
        elif key in _AUTO_KEYS:
            lines.append(f"{key} = auto")
    return "\n".join(lines) + "\n"


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
    "params24": {
        "omega1": 500.06,
        "omega2": 100.0,
        "coupling_j": 5.0,
        "carrier": None,
        "a1": 0.10016 * 500.06 / 100.0,
        "a2": 0.10016,
        "duration": PARAMS24_DURATION,
    },
}
