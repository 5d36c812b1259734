"""Golden outputs of the README commands and three more CLI paths.

Each case runs `spingate.cli.main` in a temporary directory and compares its
exit status, stdout, stderr and output file with the fixtures under
`tests/golden/`: `<out>` holds the output file, `<out>.log` the rest.  Text
must match exactly and integers (exit status, evaluation counts, indices)
too; every other number must agree to 1e-12 relative, or 1e-15 absolute
for rounding-level zeros such as the imaginary parts of real amplitudes.

Regenerate fixtures from the current tree, all of them or only those named, with

    PYTHONPATH=src python tests/test_golden.py [NAME ...]

and list, one a line, those whose bytes differ while every number stays
within the bounds above (last-digit drift), with

    PYTHONPATH=src python tests/test_golden.py --check [NAME ...]

which writes nothing; a fixture outside the bounds is reported on stderr and
makes it exit 1.
"""

import argparse
import contextlib
import io
import math
import os
import re
import sys
import tempfile
from pathlib import Path

import pytest

from spingate.cli import main

GOLDEN = Path(__file__).with_name("golden")

#: output file -> command line (each case adds `--out <output file>`)
CASES = {
    "swap.csv": "simulate --preset params12 --initial digital:11 --frame primed --sample-dt 0.05",
    "gate.txt": "tomography --preset params12 --frame primed",
    "gate24.txt": "tomography --preset params24 --frame raw",
    "tuned.cfg": "calibrate --preset params12 --pi-duration",
    "pure.cfg": "calibrate --preset params12 --pure-cn --tie-a1 --free omega1,a2,duration",
    "a2only.cfg": "calibrate --preset params12 --pure-cn --free a2",
    "sweep.csv": "sweep --preset params24 --param duration --min 31.4148 --max 31.4155 --steps 15",
    # params12 has duration = auto: every point calibrates its own pi-pulse
    "sweep_a1.csv": "sweep --preset params12 --param a1 --min 0.45 --max 0.55 --steps 5",
    "sweep_omega1.csv": "sweep --preset params12 --param omega1 --min 499.9 --max 500.1 --steps 5",
    "recal.cfg": (
        "calibrate --preset params12 --pure-cn --tie-a1 --free omega1,a2 --recalibrate-duration"
    ),
}

_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


def run_case(name: str, workdir: Path) -> tuple[str, str]:
    """Run one case in `workdir`; return its transcript and output file text."""
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)  # relative --out, so the transcript holds no temporary path
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(CASES[name].split() + ["--out", name])
    finally:
        os.chdir(cwd)
    log = f"exit {code}\n--- stdout\n{stdout.getvalue()}--- stderr\n{stderr.getvalue()}"
    return log, (workdir / name).read_text(encoding="utf-8")


def assert_matches(actual: str, expected: str, where: str) -> None:
    actual_lines, expected_lines = actual.splitlines(), expected.splitlines()
    assert len(actual_lines) == len(expected_lines), f"{where}: line count differs"
    for lineno, (a, e) in enumerate(zip(actual_lines, expected_lines), start=1):
        assert _NUMBER.split(a) == _NUMBER.split(e), f"{where}:{lineno}: {a!r} != {e!r}"
        for x, y in zip(_NUMBER.findall(a), _NUMBER.findall(e)):
            if re.fullmatch(r"[-+]?\d+", y):
                assert x == y, f"{where}:{lineno}: integer {x} != {y}"
            else:
                assert math.isclose(float(x), float(y), rel_tol=1e-12, abs_tol=1e-15), (
                    f"{where}:{lineno}: {x} != {y} (relative difference "
                    f"{abs(float(x) - float(y)) / max(abs(float(y)), 1e-300):.3e})"
                )


@pytest.mark.parametrize("name", list(CASES))
def test_cli_output_matches_golden(tmp_path, name):
    log, out = run_case(name, tmp_path)
    assert_matches(log, (GOLDEN / f"{name}.log").read_text(encoding="utf-8"), f"{name}.log")
    assert_matches(out, (GOLDEN / name).read_text(encoding="utf-8"), name)


def test_comparison_is_strict():
    assert_matches("x = 1.0000000000001e+00", "x = 1.0e+00", "near")
    for actual in ("x = 1.00000000001e+00", "y = 1.0e+00", "x = 1.0e+00 z"):
        with pytest.raises(AssertionError):
            assert_matches(actual, "x = 1.0e+00", "far")
    with pytest.raises(AssertionError, match="integer"):
        assert_matches("after 75 evaluations", "after 74 evaluations", "count")


def regenerate(argv: list[str]) -> int:
    """Rewrite the named fixtures, or with --check only list those that drifted."""
    parser = argparse.ArgumentParser(description="Regenerate or check the golden fixtures.")
    parser.add_argument("names", nargs="*", metavar="NAME", help=f"any of {', '.join(CASES)}")
    parser.add_argument("--check", action="store_true", help="list drifted fixtures only")
    args = parser.parse_args(argv)
    unknown = [name for name in args.names if name not in CASES]
    if unknown:
        parser.error(f"unknown fixtures: {', '.join(unknown)}")
    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name in args.names or list(CASES):
            log, out = run_case(name, Path(tmp))
            if not args.check:
                (GOLDEN / f"{name}.log").write_text(log, encoding="utf-8")
                (GOLDEN / name).write_text(out, encoding="utf-8")
                print(f"{name}: {log.splitlines()[0]}", file=sys.stderr)
                continue
            expected_log = (GOLDEN / f"{name}.log").read_text(encoding="utf-8")
            expected = (GOLDEN / name).read_text(encoding="utf-8")
            if (log, out) == (expected_log, expected):
                continue
            try:
                assert_matches(log, expected_log, f"{name}.log")
                assert_matches(out, expected, name)
            except AssertionError as exc:
                print(f"out of bounds: {exc}", file=sys.stderr)
                status = 1
            else:
                print(name)
    return status


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    sys.exit(regenerate(sys.argv[1:]))
