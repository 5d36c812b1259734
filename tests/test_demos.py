"""The demos and the README quick start run, each on one `eigh` per parameter point.

The demos import the public names the README documents, so this guards
them against renames and removals.  Demos write their CSV output relative
to the working directory, which is a temporary directory here.
"""

import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

#: eigh calls per demo: one per parameter point; demo 04 adds its two
#: searches, 74 (a2 only) and 6 (omega1, a2, duration) eigh, less the two
#: builds that repeat the point built just before them and reuse its eigensystem
EIGH_PER_DEMO = {
    "01_resonant_pi_pulse": 1,
    "02_superposition_transfer": 1,
    "03_gate_tomography": 1,
    "04_pure_cn_search": 3 + 74 + 6 - 2,
}


def test_all_four_demos_found():
    assert len(DEMOS) == 4, [demo.name for demo in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_cleanly(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    output = proc.stdout + proc.stderr
    assert proc.returncode == 0, output
    assert "Traceback" not in output, output


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_diagonalizes_once_per_point(demo, tmp_path, monkeypatch, eigh_calls):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(demo), run_name="__main__")
    assert len(eigh_calls) == EIGH_PER_DEMO[demo.stem]


def test_readme_quick_start_runs(capsys, eigh_calls):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {"__name__": "__main__"})
    assert len(eigh_calls) == 1
    c10 = complex(capsys.readouterr().out.splitlines()[0])
    assert abs(c10 - 1j) < 1e-2
