import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from spingate import (
    Generator,
    PulseSpec,
    SystemParams,
    calibrate_pi_duration,
    superposition_state,
)
from spingate.cli import CSV_HEADER, main, write_timeseries_csv
from spingate.config import PARAMS24_DURATION, parse_config
from spingate.core import TimeSeries


def run_cli(*argv) -> int:
    return main(list(argv))


def read_timeseries_csv(path: str) -> TimeSeries:
    """Load a CSV written by `spingate.cli.write_timeseries_csv` back into a TimeSeries."""
    lines = [line for line in Path(path).read_text(encoding="utf-8").splitlines() if line]
    assert lines[0] == CSV_HEADER, f"unexpected CSV header {lines[0]!r}"
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    amps = data[:, 1:9:2] + 1j * data[:, 2:9:2]
    # the norm column is the row's sum of |c|^2, as written
    assert np.max(np.abs(data[:, 9] - np.sum(np.abs(amps) ** 2, axis=1))) <= 1e-12
    return TimeSeries(t=data[:, 0], amps=amps)


def read_report(path):
    """Parse a tomography/calibrate report: comment values and CSV rows."""
    values = {}
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("#") and "=" in line:
            key, _, value = line[1:].partition("=")
            values[key.strip()] = value.strip()
        elif line and not line.startswith("#"):
            rows.append(line)
    return values, rows


def pi_duration_of(config) -> float:
    """The library's pi timing at the point of a config."""
    system = SystemParams(config.omega1, config.omega2, config.coupling_j)
    return calibrate_pi_duration(system, PulseSpec(config.carrier, config.a1, config.a2, 0.0))


class TestSimulate:
    def test_benchmark_swap_csv(self, tmp_path):
        out = tmp_path / "run.csv"
        code = run_cli(
            "simulate", "--preset", "params12", "--initial", "digital:11",
            "--frame", "primed", "--sample-dt", "0.05", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        final = [float(x) for x in lines[-1].split(",")]
        header = CSV_HEADER.split(",")
        assert abs(final[header.index("im_c10")] - 1.0) < 1e-2
        assert abs(final[header.index("re_c11")]) < 1e-2
        # >= 12 significant digits in every number
        assert all(len(field.split("e")[0].replace("-", "").replace(".", "")) >= 12
                   for field in lines[1].split(","))

    def test_superposition_endpoints(self, tmp_path):
        out = tmp_path / "eq21.csv"
        code = run_cli(
            "simulate", "--preset", "params12", "--initial", "eq21",
            "--frame", "primed", "--sample-dt", "0.05", "--out", str(out),
        )
        assert code == 0
        series = read_timeseries_csv(str(out))
        final = series.amps[-1]
        assert abs(final[3] - 1j / np.sqrt(3)) < 1e-2   # c'11(tau) = i c'10(0)
        assert abs(final[2] - 1j / np.sqrt(6)) < 1e-2   # c'10(tau) = i c'11(0)
        assert abs(final[0] - np.sqrt(3 / 10)) < 1e-2   # nonresonant, roughly kept
        assert abs(final[1] - 1 / np.sqrt(5)) < 1e-2

    def test_csv_round_trips_into_valid_timeseries(self, tmp_path):
        out = tmp_path / "run.csv"
        run_cli(
            "simulate", "--preset", "params12", "--initial", "digital:10",
            "--frame", "raw", "--sample-dt", "1.0", "--out", str(out),
        )
        series = read_timeseries_csv(str(out))
        assert series.t[-1] > series.t[0]
        assert np.max(np.abs(series.norm - 1.0)) < 1e-12

    def test_zero_duration_one_row(self, tmp_path):
        config = tmp_path / "zero.cfg"
        config.write_text("duration = 0\n")
        out = tmp_path / "zero.csv"
        code = run_cli(
            "simulate", "--preset", "params12", "--config", str(config),
            "--initial", "digital:11", "--sample-dt", "0.1", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        # t = 0, then the initial state |11> and norm 1, to the rounding of V V^T
        row = np.array([float(x) for x in lines[1].split(",")])
        assert row[0] == 0.0
        assert np.max(np.abs(row - [0, 0, 0, 0, 0, 0, 0, 1, 0, 1])) <= 1e-15

    def test_missing_initial_fails(self, tmp_path):
        code = run_cli(
            "simulate", "--preset", "params12", "--sample-dt", "0.1",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1

    def test_spaced_negative_initial_matches_attached_form(self, tmp_path):
        # argparse alone reads a spaced "-0.5,..." as an option and exits 2
        amps = "-0.5,0.5,0.5,0.5"
        spaced, attached = tmp_path / "spaced.csv", tmp_path / "attached.csv"
        common = ("simulate", "--preset", "params12", "--sample-dt", "1")
        assert run_cli(*common, "--initial", amps, "--out", str(spaced)) == 0
        assert run_cli(*common, f"--initial={amps}", "--out", str(attached)) == 0
        assert spaced.read_bytes() == attached.read_bytes()

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--frame", "lab", "frame must be 'raw' or 'primed', got 'lab'"),
         ("--sample-dt", "fast", "cannot parse 'fast' for key 'sample_dt' as a number"),
         ("--frame", "", "empty value for key 'frame'"),
         # a config line ends at '#', so an emitted `out = x#1.csv` would reload as `out = x`
         ("--out", "x#1.csv",
          "out must be one line with no '#' and no surrounding whitespace, got 'x#1.csv'")],
    )
    def test_bad_config_flag_exits_1_without_usage(self, tmp_path, monkeypatch, capsys, flag,
                                                   value, message):
        # a config-key flag is checked like its config line: exit 1, not argparse's exit 2
        monkeypatch.chdir(tmp_path)
        argv = {"--initial": "digital:11", "--sample-dt": "0.05", "--out": "x.csv", flag: value}
        code = run_cli("simulate", "--preset", "params12", *(t for kv in argv.items() for t in kv))
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("sample_dt", ["inf", "nan", "-inf"])
    def test_nonfinite_sample_dt_fails(self, tmp_path, capsys, sample_dt):
        out = tmp_path / "x.csv"
        code = run_cli(
            "simulate", "--preset", "params12", "--initial", "digital:11",
            "--sample-dt", sample_dt, "--out", str(out),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: sample_dt must be positive and finite")
        assert "Traceback" not in err
        assert not out.exists()

    def test_memory_error_fails_cleanly(self, tmp_path, capsys, monkeypatch):
        # as numpy raises when a tiny --sample-dt asks for a grid too large to allocate
        def unallocatable(*args, **kwargs):
            raise MemoryError("Unable to allocate 234. GiB")

        monkeypatch.setattr(Generator, "timeseries", unallocatable)
        out = tmp_path / "x.csv"
        code = run_cli("simulate", "--preset", "params12", "--initial", "digital:11",
                       "--sample-dt", "1e-9", "--out", str(out))
        assert code == 1
        assert capsys.readouterr().err == "error: Unable to allocate 234. GiB\n"
        assert not out.exists()

    def test_unknown_preset_fails(self, tmp_path):
        code = run_cli(
            "simulate", "--preset", "nope", "--initial", "digital:11",
            "--sample-dt", "0.1", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1

    def test_auto_duration_diagonalizes_once(self, tmp_path, eigh_calls):
        # pi timing and the time series read the same eigensystem
        code = run_cli("simulate", "--preset", "params12", "--initial", "digital:11",
                       "--sample-dt", "0.05", "--out", str(tmp_path / "run.csv"))
        assert code == 0
        assert len(eigh_calls) == 1


class TestWriteTimeseriesCsv:
    @staticmethod
    def reference_text(series: TimeSeries) -> str:
        # one f-string per field, 17 significant digits
        lines = [CSV_HEADER]
        for t, amps, norm in zip(series.t, series.amps, series.norm):
            fields = [t] + [part for c in amps for part in (c.real, c.imag)] + [norm]
            lines.append(",".join(f"{x:.16e}" for x in fields))
        return "\n".join(lines) + "\n"

    @staticmethod
    def pi_pulse_series(a2: float, frame: str) -> TimeSeries:
        gen = Generator(500.0, 100.0, 5.0, 95.0, 0.5, a2)
        initial = superposition_state([0.3, -0.5j, 0.6 + 0.2j, 0.4], normalize=True)
        return gen.timeseries(initial, gen.pi_duration(), 0.01, frame)

    @pytest.mark.parametrize("frame", ["raw", "primed"])
    @pytest.mark.parametrize("a2", [0.08, 0.025])
    def test_bytes_match_per_field_reference(self, tmp_path, a2, frame):
        series = self.pi_pulse_series(a2, frame)
        # raw-frame amplitudes are a transposed view, not row-contiguous
        assert series.amps.flags.c_contiguous == (frame == "primed")
        out = tmp_path / "series.csv"
        write_timeseries_csv(series, str(out))
        assert out.read_bytes() == self.reference_text(series).encode("utf-8")

    @pytest.mark.parametrize("frame", ["raw", "primed"])
    @pytest.mark.parametrize("rows", [1, 2, 255, 256, 257, 513])
    def test_bytes_match_at_block_edges(self, tmp_path, rows, frame):
        # the writer formats 256 rows per block: one short block, one full, and one past it
        full = self.pi_pulse_series(0.08, frame)
        series = TimeSeries(t=full.t[:rows], amps=full.amps[:rows])
        # the rows keep the layout of the full series: a transposed view in the raw frame
        assert series.amps.strides == full.amps.strides
        out = tmp_path / "series.csv"
        write_timeseries_csv(series, str(out))
        assert out.read_bytes() == self.reference_text(series).encode("utf-8")

    @pytest.mark.parametrize("frame", ["raw", "primed"])
    def test_memory_bounded_by_blocks(self, tmp_path, frame):
        series = self.pi_pulse_series(0.025, frame)
        assert len(series) == 12568
        tracemalloc.start()
        try:
            write_timeseries_csv(series, str(tmp_path / "series.csv"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the table itself is 1.0 MB; one % over all of it peaks at 8.95 MB
        assert peak < 2.5e6, f"writer peak {peak / 1e6:.2f} MB, bound 2.5 MB"

    def test_gz_suffix_is_written_as_plain_text(self, tmp_path):
        series = TimeSeries(t=np.array([0.0]), amps=np.array([[1, 0, 0, 0]]))
        out = tmp_path / "series.csv.gz"
        write_timeseries_csv(series, str(out))
        assert out.read_bytes() == self.reference_text(series).encode("utf-8")


class TestTomography:
    def test_benchmark_phases_and_fidelity(self, tmp_path):
        out = tmp_path / "gate.txt"
        code = run_cli("tomography", "--preset", "params12", "--frame", "primed",
                       "--out", str(out))
        assert code == 0
        values, rows = read_report(out)
        assert float(values["dphi00"]) == 0.0
        assert abs(float(values["dphi01"])) < 0.02
        assert abs(float(values["dphi10"]) - np.pi / 2) < 0.02
        assert abs(float(values["dphi11"]) - np.pi / 2) < 0.02
        assert float(values["fidelity_vs_cn"]) == pytest.approx(1 / np.sqrt(2), abs=2e-2)
        # 16 gate entries under a header line
        assert rows[0] == "row,col,re,im"
        assert len(rows) == 17

    def test_tuned_preset_reaches_pure_cn(self, tmp_path):
        out = tmp_path / "gate24.txt"
        code = run_cli("tomography", "--preset", "params24", "--frame", "raw",
                       "--out", str(out))
        assert code == 0
        values, _ = read_report(out)
        assert float(values["fidelity_vs_icn"]) >= 0.999

    def test_zero_duration_pattern_violation(self, tmp_path, capsys):
        config = tmp_path / "zero.cfg"
        config.write_text("duration = 0\n")
        out = tmp_path / "gate0.txt"
        code = run_cli("tomography", "--preset", "params12", "--config", str(config),
                       "--out", str(out))
        assert code == 1
        assert "not a conditional NOT" in capsys.readouterr().err
        values, _ = read_report(out)
        assert "gcn_pattern_violation" in values

    def test_auto_duration_diagonalizes_once(self, tmp_path, eigh_calls):
        # pi timing and the gate read the same eigensystem
        code = run_cli("tomography", "--preset", "params12", "--out", str(tmp_path / "g.txt"))
        assert code == 0
        assert len(eigh_calls) == 1


class TestDetunedCarrier:
    """A carrier 0.03 off omega2 - J runs like any other: its detuning enters B."""

    @pytest.fixture
    def config(self, tmp_path):
        path = tmp_path / "detuned.cfg"
        path.write_text("carrier = 95.03\n")
        return str(path)

    def test_pi_duration_report(self, tmp_path, config):
        out = tmp_path / "tuned.cfg"
        code = run_cli("calibrate", "--preset", "params12", "--config", config,
                       "--pi-duration", "--out", str(out))
        assert code == 0
        values, _ = read_report(out)
        gen = Generator(500.0, 100.0, 5.0, 95.03, 0.5, 0.1)
        assert float(values["pi_duration"]) == gen.pi_duration()
        assert parse_config(out.read_text()).carrier == 95.03

    def test_tomography_gate(self, tmp_path, config, capsys):
        out = tmp_path / "gate.txt"
        code = run_cli("tomography", "--preset", "params12", "--config", config,
                       "--out", str(out))
        # the pulse transfers a2^2 / (a2^2 + delta^2) = 0.917 of |11>, which leaves
        # the gate outside the phased-CN pattern: reported, and the exit status is 1
        assert code == 1
        assert "not a conditional NOT" in capsys.readouterr().err
        _, rows = read_report(out)
        gate = np.array([complex(float(r), float(i)) for r, i in
                         (row.split(",")[2:] for row in rows[1:])]).reshape(4, 4)
        gen = Generator(500.0, 100.0, 5.0, 95.03, 0.5, 0.1)
        assert np.array_equal(gate, gen.gate(gen.pi_duration(), "primed"))


class TestCalibrate:
    def test_pi_duration_report_reloads(self, tmp_path):
        out = tmp_path / "tuned.cfg"
        code = run_cli("calibrate", "--preset", "params12", "--pi-duration",
                       "--out", str(out))
        assert code == 0
        tuned = parse_config(out.read_text())
        assert tuned.duration == pytest.approx(np.pi / 0.1, abs=1e-3)
        values, _ = read_report(out)
        assert float(values["transfer_at_pi_duration"]) >= 0.999

    def test_pi_duration_report_without_out_goes_to_stdout(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_cli("calibrate", "--preset", "params12", "--pi-duration") == 0
        status, report = capsys.readouterr().out.split("\n", 1)
        assert status.startswith("calibrate: pi-pulse duration = ")
        assert report.splitlines()[-1].startswith("# transfer_at_pi_duration = ")
        assert parse_config(report).duration == pytest.approx(np.pi / 0.1, abs=1e-3)
        assert list(tmp_path.iterdir()) == []

    def test_pure_cn_three_parameter_search(self, tmp_path):
        out = tmp_path / "pure.cfg"
        code = run_cli(
            "calibrate", "--preset", "params12", "--pure-cn", "--tie-a1",
            "--free", "omega1,a2,duration", "--out", str(out),
        )
        assert code == 0
        values, _ = read_report(out)
        assert values["converged"] == "true"
        assert float(values["objective"]) <= 1e-3
        tuned = parse_config(out.read_text())
        assert tuned.omega1 > 500.0
        assert tuned.a2 > 0.1

    def test_amplitude_only_search_not_converged(self, tmp_path):
        out = tmp_path / "a2only.cfg"
        code = run_cli(
            "calibrate", "--preset", "params12", "--pure-cn",
            "--free", "a2", "--out", str(out),
        )
        assert code == 1
        values, _ = read_report(out)
        assert values["converged"] == "false"
        assert float(values["objective"]) > 1e-3

    def test_amplitude_only_search_diagonalizes_each_point_once(self, tmp_path, eigh_calls):
        out = tmp_path / "a2only.cfg"
        code = run_cli(
            "calibrate", "--preset", "params12", "--pure-cn",
            "--free", "a2", "--out", str(out),
        )
        assert code == 1
        values, _ = read_report(out)
        assert values["evaluations"] == "74"
        # each point moves a2, and one more for the pi timing of the 'auto' duration
        assert len(eigh_calls) == 75

    def test_recalibrated_duration_search(self, tmp_path):
        out = tmp_path / "recal.cfg"
        code = run_cli(
            "calibrate", "--preset", "params12", "--pure-cn", "--free", "omega1,a2",
            "--tie-a1", "--recalibrate-duration", "--out", str(out),
        )
        assert code == 0
        values, _ = read_report(out)
        assert values["converged"] == "true"
        tuned = parse_config(out.read_text())
        assert tuned.duration == pi_duration_of(tuned)

    @pytest.mark.parametrize(
        "flags, message",
        [(("--tol", "nan"), "objective_tol must be positive and finite"),
         (("--tol", "inf"), "objective_tol must be positive and finite"),
         (("--window", "nan"), "search window for a2 must be positive and finite"),
         (("--window", "inf"), "search window for a2 must be positive and finite"),
         (("--tol", "-inf"), "objective_tol must be positive and finite"),
         (("--window", "-nan"), "search window for a2 must be positive and finite"),
         # not a non-finite value, but also a setting the search cannot honour: a free
         # duration is searched, so re-timing it at every point would do nothing
         (("--free", "omega1,a2,duration", "--recalibrate-duration"),
          "recalibrate_duration needs 'duration' left out of free")],
        ids=["--tol-nan-objective_tol", "--tol-inf-objective_tol",
             "--window-nan-search window for a2", "--window-inf-search window for a2",
             "--tol--inf-objective_tol", "--window--nan-search window for a2",
             "recalibrate-free-duration"],
    )
    def test_nonfinite_search_settings_fail_cleanly(self, tmp_path, capsys, flags, message):
        out = tmp_path / "bad.cfg"
        code = run_cli(
            "calibrate", "--preset", "params12", "--pure-cn", "--free", "a2",
            "--max-evals", "30", *flags, "--out", str(out),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert err.count("\n") == 1
        assert "Traceback" not in err
        assert not out.exists()

    def test_duplicate_free_name_fails_cleanly(self, tmp_path, capsys):
        out = tmp_path / "bad.cfg"
        code = run_cli("calibrate", "--preset", "params12", "--pure-cn",
                       "--free", "omega1,omega1", "--out", str(out))
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == "error: free parameters ['omega1'] are named more than once\n"
        assert captured.out == ""
        assert not out.exists()

    def test_search_line_names_the_searched_coordinates(self, tmp_path, capsys):
        # in the order the search takes them, whatever order --free gives
        out = tmp_path / "tuned.cfg"
        run_cli("calibrate", "--preset", "params12", "--pure-cn", "--free", "a2,omega1",
                "--max-evals", "2", "--out", str(out))
        assert "calibrate: pure-cn search over omega1, a2: " in capsys.readouterr().out

    def test_no_interior_maximum_fails_cleanly(self, tmp_path, capsys):
        config = tmp_path / "strong.cfg"
        config.write_text("a1 = 100\n")
        out = tmp_path / "tuned.cfg"
        code = run_cli("calibrate", "--preset", "params12", "--config", str(config),
                       "--pi-duration", "--out", str(out))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: no interior transfer maximum")
        assert "np.float64" not in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_pi_duration_recalibrates_configured_duration(self, tmp_path, eigh_calls):
        # params24 sets its pure-CN duration; --pi-duration reports the pi timing instead
        out = tmp_path / "tuned.cfg"
        code = run_cli("calibrate", "--preset", "params24", "--pi-duration", "--out", str(out))
        assert code == 0
        assert len(eigh_calls) == 1
        tuned = parse_config(out.read_text())
        expected = pi_duration_of(tuned)
        assert expected != PARAMS24_DURATION
        values, _ = read_report(out)
        assert float(values["pi_duration"]) == tuned.duration == expected

    def test_pi_duration_starts_the_search(self, tmp_path):
        out = tmp_path / "tuned.cfg"
        code = run_cli("calibrate", "--preset", "params24", "--pi-duration", "--pure-cn",
                       "--free", "duration", "--max-evals", "1", "--out", str(out))
        assert code == 1  # one evaluation cannot converge
        # the one evaluation is the search's start point: the pi duration, not the preset's
        tuned = parse_config(out.read_text())
        assert tuned.duration == pi_duration_of(tuned)

    def test_no_inversion_fails_cleanly(self, tmp_path, capsys):
        config = tmp_path / "degenerate.cfg"
        config.write_text("omega1 = 100\n")
        out = tmp_path / "tuned.cfg"
        code = run_cli("calibrate", "--preset", "params12", "--config", str(config),
                       "--pi-duration", "--out", str(out))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: no population inversion")
        assert "best transfer 0.0379" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_requires_a_task_flag(self, tmp_path):
        code = run_cli("calibrate", "--preset", "params12")
        assert code == 1

    def test_pi_duration_report_diagonalizes_once(self, tmp_path, eigh_calls):
        code = run_cli("calibrate", "--preset", "params12", "--pi-duration",
                       "--out", str(tmp_path / "tuned.cfg"))
        assert code == 0
        assert len(eigh_calls) == 1

    def test_recalibrated_search_diagonalizes_once_per_evaluation(self, tmp_path, eigh_calls):
        out = tmp_path / "recal.cfg"
        code = run_cli(
            "calibrate", "--preset", "params12", "--pure-cn", "--free", "omega1,a2",
            "--tie-a1", "--recalibrate-duration", "--out", str(out),
        )
        assert code == 0
        values, _ = read_report(out)
        # one more for the pi timing of the 'auto' starting duration
        assert len(eigh_calls) == int(values["evaluations"]) + 1


class TestSweep:
    def test_grid_rows_ordered(self, tmp_path):
        config = tmp_path / "fixed.cfg"
        config.write_text(f"duration = {np.pi / 0.1!r}\n")
        out = tmp_path / "sweep.csv"
        code = run_cli(
            "sweep", "--preset", "params12", "--config", str(config),
            "--param", "a2", "--min", "0.0995", "--max", "0.1005",
            "--steps", "5", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "index,a2,objective"
        assert len(lines) == 6
        indices = [int(line.split(",")[0]) for line in lines[1:]]
        assert indices == [0, 1, 2, 3, 4]
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert values == sorted(values)
        objectives = [float(line.split(",")[2]) for line in lines[1:]]
        assert all(0.0 <= obj <= 1.0 for obj in objectives)

    def test_duration_sweep_touches_pure_point(self, tmp_path):
        out = tmp_path / "tausweep.csv"
        code = run_cli(
            "sweep", "--preset", "params24", "--param", "duration",
            "--min", str(PARAMS24_DURATION - 1e-4), "--max", str(PARAMS24_DURATION + 1e-4),
            "--steps", "3", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        objectives = [float(line.split(",")[2]) for line in lines[1:]]
        assert min(objectives) < 1e-3

    @pytest.mark.parametrize(
        "line, message",
        [("duration = -1", "duration must be finite and >= 0"),
         ("duration = nan", "duration must be finite and >= 0"),
         ("sample_dt = inf", "sample_dt must be positive and finite"),
         ("sample_dt = nan", "sample_dt must be positive and finite")],
    )
    def test_bad_config_value_fails_cleanly(self, tmp_path, capsys, line, message):
        # a duration sweep reads neither value, so only load-time checks catch them
        config = tmp_path / "bad.cfg"
        config.write_text(line + "\n")
        out = tmp_path / "sweep.csv"
        code = run_cli(
            "sweep", "--preset", "params24", "--config", str(config), "--param", "duration",
            "--min", "31.41", "--max", "31.42", "--steps", "2", "--out", str(out),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: line 1: {message}")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "bounds, message",
        # a swept duration skips the config's checks: the gate rejects a negative one,
        # and an infinite bound is rejected before the grid is built
        [(("-1", "1"), "duration must be finite and >= 0, got -1.0"),
         (("0", "inf"), "--max must be finite, got inf")],
        ids=["negative", "infinite"],
    )
    def test_impossible_duration_fails_cleanly(self, tmp_path, capsys, bounds, message):
        out = tmp_path / "sweep.csv"
        code = run_cli(
            "sweep", "--preset", "params24", "--param", "duration",
            "--min", bounds[0], "--max", bounds[1], "--steps", "3", "--out", str(out),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: {message}\n" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "grid", [("--min", "1", "--max", "1"), ("--min", "0", "--max", "1", "--steps", "1")],
        ids=["empty-range", "one-step"],
    )
    def test_degenerate_grid_fails_cleanly(self, tmp_path, capsys, grid):
        out = tmp_path / "sweep.csv"
        code = run_cli("sweep", "--preset", "params12", "--param", "a1", *grid, "--out", str(out))
        assert code == 1
        assert capsys.readouterr().err == "error: sweep needs --min < --max and --steps >= 2\n"
        assert not out.exists()

    def test_overflowing_duration_fails_cleanly(self, tmp_path, capsys):
        # the gate's phases overflow to nan, which its unitarity guard rejects
        out = tmp_path / "sweep.csv"
        code = run_cli(
            "sweep", "--preset", "params24", "--param", "duration",
            "--min", "0", "--max", "1e308", "--steps", "2", "--out", str(out),
        )
        assert code == 1
        assert capsys.readouterr().err == "error: gate at tau=1e+308 is not unitary (defect nan)\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "limits, message",
        # the = forms, then the spaced forms argparse alone would read as options and exit 2
        [(("--min=0", "--max=inf"), "--max must be finite, got inf"),
         (("--min=-inf", "--max=1"), "--min must be finite, got -inf"),
         (("--min=nan", "--max=1"), "--min must be finite, got nan"),
         (("--min", "-inf", "--max", "1"), "--min must be finite, got -inf"),
         (("--min", "0", "--max", "-inf"), "--max must be finite, got -inf"),
         (("--min", "-nan", "--max", "1"), "--min must be finite, got nan"),
         (("--mi", "-inf", "--max", "1"), "--min must be finite, got -inf")],
        ids=["max-inf", "min-minus-inf", "min-nan", "spaced-min-minus-inf",
             "spaced-max-minus-inf", "spaced-min-minus-nan", "abbreviated-min-minus-inf"],
    )
    def test_nonfinite_bounds_fail_cleanly(self, tmp_path, capsys, limits, message):
        # np.linspace would warn and hand the checks a nan the user never typed
        out = tmp_path / "sweep.csv"
        code = run_cli(
            "sweep", "--preset", "params12", "--param", "a1",
            *limits, "--steps", "3", "--out", str(out),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"
        assert "RuntimeWarning" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "limits",
        [("--min", "--max", "1"), ("--min", "-x", "--max", "1"), ("--min", "0", "--max")],
        ids=["min-missing", "min-not-a-number", "max-missing"],
    )
    def test_missing_bound_is_a_usage_error(self, tmp_path, capsys, limits):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("sweep", "--preset", "params12", "--param", "a1", *limits,
                    "--out", str(tmp_path / "sweep.csv"))
        assert excinfo.value.code == 2
        assert "usage: spingate sweep" in capsys.readouterr().err

    def test_frame_is_a_usage_error(self, tmp_path, capsys):
        # the objective is the raw-frame one whatever the frame, so sweep takes no --frame
        with pytest.raises(SystemExit) as excinfo:
            run_cli("sweep", "--preset", "params12", "--param", "a1", "--min", "0.45",
                    "--max", "0.55", "--frame", "raw", "--out", str(tmp_path / "sweep.csv"))
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --frame raw" in capsys.readouterr().err

    def test_auto_duration_sweep_diagonalizes_once_per_point(self, tmp_path, eigh_calls):
        code = run_cli(
            "sweep", "--preset", "params12", "--param", "a1", "--min", "0.45",
            "--max", "0.55", "--steps", "5", "--out", str(tmp_path / "sweep.csv"),
        )
        assert code == 0
        assert len(eigh_calls) == 5

    def test_resonance_moving_parameter_rejected(self, tmp_path):
        # the config fixes an 'auto' carrier when it is built, so sweeping omega2 would
        # silently detune the pulse from omega2 - J
        code = run_cli(
            "sweep", "--preset", "params12", "--param", "omega2",
            "--min", "99", "--max", "101", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1


@pytest.mark.parametrize(
    "argv, message",
    [(("tomography",), "gate at tau=1e+308 is not unitary (defect nan)"),
     (("tomography", "--frame", "raw"), "gate at tau=1e+308 is not unitary (defect nan)"),
     (("simulate", "--initial", "digital:11"), "times and amplitudes must be finite"),
     (("simulate", "--initial", "digital:11", "--frame", "raw"),
      "times and amplitudes must be finite")],
    ids=["tomography-primed", "tomography-raw", "simulate-primed", "simulate-raw"],
)
def test_overflowing_phases_print_one_error_line(tmp_path, capsys, argv, message):
    # the phases overflow; numpy must not warn before the error line (the suite turns a
    # warning into an exception, so one would fail this test before the assertions)
    config = tmp_path / "big.cfg"
    config.write_text("duration = 1e308\nsample_dt = 2e307\n")
    out = tmp_path / "out.txt"
    code = run_cli(*argv, "--preset", "params12", "--config", str(config), "--out", str(out))
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


class TestConfigErrorLines:
    CONFIG = "omega1 = 500\nomega2 = 100\ncoupling_j = 5\na1 = 0.5\na2 = 0.1\n"

    def test_range_error_names_config_line(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("# pulse\n" + self.CONFIG + "duration = -1\n")
        code = run_cli("tomography", "--config", str(config), "--out", str(tmp_path / "g.txt"))
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: line 7: duration must be finite and >= 0, got -1.0\n"

    def test_flag_range_error_names_no_line(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(self.CONFIG + "sample_dt = 0.05\ninitial = digital:11\n")
        code = run_cli("simulate", "--config", str(config), "--sample-dt", "-1",
                       "--out", str(tmp_path / "x.csv"))
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: sample_dt must be positive and finite, got -1.0\n"

    @pytest.mark.parametrize(
        "initial, message",
        [("digital:99", "invalid basis label '99'"),
         ("1,2", "initial state must be 'digital:<ik>', 'eq21', or 4 comma-separated")],
    )
    def test_bad_initial_flag_names_no_line(self, tmp_path, capsys, initial, message):
        out = tmp_path / "x.csv"
        code = run_cli("simulate", "--preset", "params12", "--initial", initial,
                       "--sample-dt", "0.05", "--out", str(out))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert "line 1:" not in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_bad_initial_in_config_names_its_line(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(self.CONFIG + "sample_dt = 0.05\ninitial = digital:99\n")
        code = run_cli("simulate", "--config", str(config), "--out", str(tmp_path / "x.csv"))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: line 7: invalid basis label '99'")
        assert "Traceback" not in err

    def test_flag_overrides_bad_config_value(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(self.CONFIG + "sample_dt = -1\ninitial = digital:11\n")
        out = tmp_path / "x.csv"
        code = run_cli("simulate", "--config", str(config), "--sample-dt", "0.5",
                       "--out", str(out))
        assert code == 0
        assert out.exists()
