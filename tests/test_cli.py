import csv
import json
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from strategies import CONFIGS, RUNNABLE_CONFIGS

import rumorsim
from rumorsim import ConfigurationError, FinalSizeHorizonWarning, SweepSpec, load_reference, run_sweep
from rumorsim.cli import main
from rumorsim.config import load_config
from rumorsim.integrator import IntegratorConfig


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def run_cli_process(*argv, timeout, cwd=None):
    """The CLI in a process of its own, so that numpy's floating-point
    warnings reach stderr as they do for a user."""
    return run_python("-m", "rumorsim.cli", *argv, timeout=timeout, cwd=cwd)


def run_python(*args, timeout, cwd=None):
    """A fresh interpreter that imports this package and shows every warning."""
    src = str(Path(rumorsim.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env["PYTHONWARNINGS"] = "default"
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=timeout, cwd=cwd,
    )


def read_column(path, column):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    idx = header.index(column)
    return np.array([float(line.split(",")[idx]) for line in lines[1:]])


class TestSimulate:
    def test_rumor_free_zero_noise_is_constant(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "model": {"noise": {c: 0.0 for c in ("s", "e", "i", "r", "ig", "f")}},
                "initial": {"s": 1.0, "i": 0.0},
                "integrator": {"horizon": 20.0},
                "output": {"directory": str(tmp_path / "out")},
            },
        )
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 0, err
        s_col = read_column(tmp_path / "out" / "trajectory.csv", "S")
        i_col = read_column(tmp_path / "out" / "trajectory.csv", "I")
        assert np.all(s_col == 1.0)
        assert np.all(i_col == 0.0)

    def test_default_outbreak_has_unique_interior_peak(self, tmp_path, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--out", str(tmp_path / "out")
        )
        assert code == 0, err
        i_col = read_column(tmp_path / "out" / "trajectory.csv", "I")
        peak_idx = int(i_col.argmax())
        assert 0 < peak_idx < i_col.size - 1
        assert np.count_nonzero(i_col == i_col[peak_idx]) == 1

    def test_written_files_listed_on_stdout(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code, out, err = run_cli(
            capsys, "simulate", "--out", str(out_dir), "--format", "both",
            "--config", str(write_config(tmp_path, {"integrator": {"horizon": 20.0}})),
        )
        assert code == 0
        listed = out.strip().splitlines()
        assert listed == [
            str(out_dir / "effective_config.json"),
            str(out_dir / "trajectory.csv"),
            str(out_dir / "trajectory.svg"),
        ]
        for path in listed:
            assert Path(path).exists()

    def test_malformed_config_names_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"model": {"beta": -0.3}})
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 2
        assert "error: model.beta" in err
        assert out == ""

    def test_horizon_shorter_than_one_step_is_one_more_error_line(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {"model": {"beta": "x"}, "integrator": {"step_size": 1.0, "horizon": 1e-12}}
        )
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert code == 2 and out == ""
        assert err.splitlines() == [
            "error: model.beta: must be a number",
            "error: integrator.horizon: must cover at least one step of size 1, got 1e-12",
        ]

    def test_control_characters_stay_on_the_error_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"model": {"be\nta\r": 0.3}})
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 2
        assert err == "error: model.be\\nta\\r: unknown field\n"


class TestEnsemble:
    @pytest.mark.filterwarnings("ignore::rumorsim.ensemble.FinalSizeHorizonWarning")
    def test_single_run_draws_no_band(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"ensemble": {"run_count": 1}, "integrator": {"horizon": 20.0}})
        code, out, err = run_cli(
            capsys, "ensemble", "--config", str(cfg), "--out", str(tmp_path / "out"), "--format", "svg"
        )
        assert code == 0, err
        figure = (tmp_path / "out" / "spreader_band.svg").read_text()
        assert "<polyline" in figure and "<polygon" not in figure


class TestMemoryGuard:
    """Sizes that cannot fit end in a typed error before any seed is
    derived or any array allocated."""

    @pytest.mark.parametrize(
        "integrator", [{"step_size": 1e-300}, {"step_size": 1e-300, "horizon": 1e300}]
    )
    def test_step_count_beyond_memory(self, tmp_path, capsys, integrator):
        cfg = write_config(tmp_path, {"integrator": integrator})
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert code == 2
        assert err.startswith("error: ") and ("GiB" in err or "than can be counted" in err)

    @pytest.mark.parametrize("command", ["ensemble", "stability", "ablate"])
    def test_run_count_beyond_memory(self, tmp_path, capsys, monkeypatch, command):
        def refuse(*_):
            raise AssertionError("seeds derived before the memory check")

        for module in ("ensemble", "stability", "ablation"):
            monkeypatch.setattr(f"rumorsim.{module}.derive_seed", refuse)
        code, out, err = run_cli(
            capsys, command, "--runs", "10000000000000", "--out", str(tmp_path / "out")
        )
        assert code == 2
        assert err.startswith("error: ") and "GiB of physical memory" in err

    @pytest.mark.filterwarnings("ignore::rumorsim.ensemble.FinalSizeHorizonWarning")
    @pytest.mark.parametrize("command, components", [("ensemble", 6), ("stability", 2)])
    def test_statistics_need_no_copy_of_the_paths(
        self, tmp_path, capsys, monkeypatch, command, components
    ):
        # the ensemble's statistics and the stability lab's second moment
        # are reduced per block of rows: memory that holds only half of
        # the recorded paths suffices
        runs, cfg = 400, IntegratorConfig()
        paths = runs * cfg.recorded_count * components * 8
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": paths // 2 // 4096}
        sysconf = os.sysconf
        monkeypatch.setattr(os, "sysconf", lambda name: pages.get(name) or sysconf(name))
        out_dir = tmp_path / "out"
        code, out, err = run_cli(capsys, command, "--runs", str(runs), "--out", str(out_dir))
        assert code == 0, err
        listed = out.split()
        assert len(listed) >= 3 and all(Path(path).stat().st_size > 0 for path in listed)

        # the kernel's own buffers for a far larger batch still do not fit
        def refuse(*_):
            raise AssertionError("seeds derived before the memory check")

        monkeypatch.setattr(f"rumorsim.{command}.derive_seed", refuse)
        code, out, err = run_cli(capsys, command, "--runs", str(10**6), "--out", str(out_dir))
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "GiB of physical memory" in err


class TestWorkBound:
    """A batch of more than ``integrator._MAX_PATH_STEPS`` path-steps ends
    in a typed error before any seed is derived."""

    def test_endless_sweep_ends_in_an_error_line(self, tmp_path):
        # 2e302 steps of one zero delay: the sweep holds nothing per step,
        # so no memory estimate stops it; only the work bound does
        cfg = write_config(tmp_path, {"integrator": {"step_size": 1e-300}, "sweep": {"taus": [0.0]}})
        done = run_cli_process("ablate", "--config", str(cfg), "--out", str(tmp_path / "out"), timeout=60)
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
        assert "path-steps, more than the bound of 1e+10;" in done.stderr

    # 20 steps of 3 runs; the sweep runs its 18 cells in one batch
    @pytest.mark.filterwarnings("ignore::rumorsim.ensemble.FinalSizeHorizonWarning")
    @pytest.mark.parametrize(
        "command, path_steps",
        [("simulate", 20), ("ensemble", 60), ("stability", 60), ("ablate", 18 * 60)],
    )
    def test_bound_counts_every_run_of_the_batch(self, tmp_path, capsys, monkeypatch, command, path_steps):
        cfg = write_config(tmp_path, {"integrator": {"horizon": 2.0}})
        argv = [command, "--runs", "3", "--config", str(cfg), "--out", str(tmp_path / "out")]
        monkeypatch.setattr("rumorsim.integrator._MAX_PATH_STEPS", path_steps)
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err

        def refuse(*_):
            raise AssertionError("seeds derived or paths integrated before the work bound")

        for module in ("ensemble", "stability", "ablation"):
            monkeypatch.setattr(f"rumorsim.{module}.derive_seed", refuse)
        monkeypatch.setattr("rumorsim.integrator.stream_model", refuse)
        monkeypatch.setattr("rumorsim.integrator._MAX_PATH_STEPS", path_steps - 1)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"would take {path_steps:.3g} path-steps" in err


class TestNumericFailure:
    @pytest.mark.parametrize("e0, i0", [(0.0, 1e-300), (1e200, 0.0)], ids=["underflow", "overflow"])
    def test_initial_second_moment_beyond_the_float_range(self, tmp_path, capsys, e0, i0):
        # the decay verdict divides by it
        cfg = write_config(tmp_path, {"stability": {"e0": e0, "i0": i0}, "integrator": {"horizon": 2.0}})
        code, out, err = run_cli(capsys, "stability", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert code == 3
        assert err.startswith("error: numeric: initial second moment ") and err.count("\n") == 1

    def test_second_moment_of_finite_states_beyond_the_float_range(self, tmp_path, capsys):
        # each step multiplies E by 1 - 5e4: the states stay finite for a
        # while after their squares overflow
        cfg = write_config(
            tmp_path,
            {"model": {"beta": 0.0, "sigma_act": 1e6}, "integrator": {"horizon": 2.0, "step_size": 0.05}},
        )
        code, out, err = run_cli(capsys, "stability", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert code == 3
        assert err == "error: numeric: linearized second moment overflowed at t=1.7; shorten the horizon\n"

    def test_nonfinite_run_prints_only_the_error_line(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"model": {"noise": {"i": 1e200}}, "output": {"directory": str(tmp_path / "out")}},
        )
        done = run_cli_process("ensemble", "--runs", "3", "--config", str(cfg), timeout=300)
        assert done.returncode == 3
        assert done.stderr.startswith("error: numeric: non-finite state at step ")
        assert done.stderr.count("\n") == 1 and done.stderr.endswith(")\n")


class TestHugeStates:
    """States far above the population but finite keep a finite spread."""

    @pytest.mark.filterwarnings("ignore::rumorsim.ensemble.FinalSizeHorizonWarning")
    def test_sweep_spread_of_huge_states_is_finite(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"integrator": {"horizon": 0.5}, "sweep": {"taus": [0.0], "r0_values": [1e200]}})
        code, out, err = run_cli(capsys, "ablate", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert code == 0, err
        lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        row = dict(zip(*(line.split(",") for line in lines if not line.startswith("#"))))
        for column in ("peak_mean", "peak_std", "final_std"):
            assert 1e180 < float(row[column]) < np.inf, column

    @pytest.mark.filterwarnings("ignore::rumorsim.ensemble.FinalSizeHorizonWarning")
    def test_ensemble_spread_of_huge_states_is_finite(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"integrator": {"horizon": 0.5}, "model": {"beta": 1e200}})
        code, out, err = run_cli(capsys, "ensemble", "--runs", "20", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert code == 0, err
        summary = (tmp_path / "out" / "summary.csv").read_text()
        assert "inf" not in summary and "nan" not in summary
        assert "inf" not in (tmp_path / "out" / "aggregate.csv").read_text()


class TestWarnings:
    @pytest.mark.filterwarnings("always::rumorsim.ensemble.FinalSizeHorizonWarning")
    def test_each_horizon_warning_is_one_line(self, tmp_path, capsys):
        showwarning = warnings.showwarning
        code, out, err = run_cli(capsys, "ablate", "--runs", "10", "--out", str(tmp_path / "out"))
        assert code == 0
        assert warnings.showwarning is showwarning
        # the library warns once per unconverged cell, with the class
        cfg = load_config(tmp_path / "out" / "effective_config.json")
        spec = SweepSpec(
            taus=cfg.sweep.taus, r0_values=cfg.sweep.r0_values, run_count=cfg.sweep.run_count,
            base_seed=cfg.sweep.seed, template=cfg.model, integrator=cfg.integrator,
            initial_state=cfg.initial,
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_sweep(spec)
        assert caught and all(issubclass(w.category, FinalSizeHorizonWarning) for w in caught)
        assert err.splitlines() == [f"warning: {w.message}" for w in caught]
        assert all(line.startswith("warning: sweep cell (tau=") for line in err.splitlines())

    @pytest.mark.filterwarnings("ignore::rumorsim.ensemble.FinalSizeHorizonWarning")
    def test_filters_still_silence_them(self, tmp_path, capsys):
        code, out, err = run_cli(capsys, "ablate", "--runs", "10", "--out", str(tmp_path / "out"))
        assert code == 0 and err == ""


class TestStability:
    def test_report_contains_margin(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "model": {
                    "beta": 0.075,
                    "noise": {"s": 0.0, "e": 0.0, "i": 0.0, "r": 0.0, "ig": 0.0, "f": 0.0},
                },
                "integrator": {"horizon": 100.0},
                "stability": {"run_count": 4},
                "output": {"directory": str(tmp_path / "out")},
            },
        )
        code, out, err = run_cli(capsys, "stability", "--config", str(cfg))
        assert code == 0, err
        threshold = (tmp_path / "out" / "threshold.csv").read_text()
        assert "0.5" in threshold.splitlines()[1]
        decay = (tmp_path / "out" / "decay.csv").read_text()
        assert decay.startswith("# margin=0.5\n")
        # the default config's margin is negative
        code, out, err = run_cli(capsys, "stability", "--out", str(tmp_path / "default"))
        assert code == 0, err
        for out_dir, sign in ((tmp_path / "out", 1), (tmp_path / "default", -1)):
            margin = (out_dir / "decay.csv").read_text().splitlines()[0].removeprefix("# margin=")
            _, cell, holds = (out_dir / "threshold.csv").read_text().splitlines()[1].split(",")
            assert cell == margin and sign * float(margin) > 0
            assert holds == ("1" if float(margin) > 0 else "0")

    def test_spreader_noise_beyond_the_float_square_prints_minus_inf(self, tmp_path, capsys):
        # one step from no spreaders keeps the lab finite; n_I^2 overflows
        cfg = write_config(
            tmp_path,
            {
                "model": {"noise": {"i": 1e200}},
                "integrator": {"horizon": 0.1},
                "stability": {"run_count": 3, "e0": 0.01, "i0": 0.0},
                "output": {"directory": str(tmp_path / "out")},
            },
        )
        code, out, err = run_cli(capsys, "stability", "--config", str(cfg))
        assert code == 0, err
        assert (tmp_path / "out" / "threshold.csv").read_text().splitlines()[1] == "2,-inf,0"


class TestAblate:
    def test_full_grid_has_18_rows_and_deviation(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "sweep": {"run_count": 2},
                "output": {"directory": str(tmp_path / "out")},
            },
        )
        code, out, err = run_cli(capsys, "ablate", "--config", str(cfg))
        assert code == 0, err
        sweep_lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        data_rows = [l for l in sweep_lines if l and not l.startswith("#") and not l.startswith("tau")]
        assert len(data_rows) == 18
        assert (tmp_path / "out" / "deviation.csv").exists()

    def test_off_reference_grid_skips_deviation(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "sweep": {"taus": [0.0], "r0_values": [0.7], "run_count": 2},
                "integrator": {"horizon": 50.0},
                "output": {"directory": str(tmp_path / "out")},
            },
        )
        code, out, err = run_cli(capsys, "ablate", "--config", str(cfg))
        assert code == 0
        assert not (tmp_path / "out" / "deviation.csv").exists()
        assert "deviation report skipped" in err

    @pytest.mark.parametrize(
        "sweep", [{"taus": [0.0, 0.0]}, {"r0_values": [2.0, 1.0, 2.0 + 1e-12]}], ids=["tau", "r0"]
    )
    def test_repeated_cell_is_a_configuration_error(self, tmp_path, capsys, sweep):
        cfg = write_config(tmp_path, {"sweep": sweep, "output": {"formats": ["svg"]}})
        code, out, err = run_cli(capsys, "ablate", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert code == 2 and out == ""
        assert err == "error: sweep grid repeats a cell: taus and R0 values must each be distinct to 9 decimals\n"

    @pytest.mark.parametrize("command", ["simulate", "ensemble", "stability", "ablate"])
    def test_a_bad_sweep_grid_fails_every_subcommand_before_writing(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, {"sweep": {"taus": [0.05, 0.05]}})
        argv = [command, "--config", str(cfg), "--runs", "2", "--out", str(tmp_path / "out")]
        code, out, err = run_cli(capsys, *argv)
        off_grid = "tau (0.05) must be an integer multiple of the step size (0.1); got ratio 0.5"
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            "error: sweep grid repeats a cell: taus and R0 values must each be distinct to 9 decimals",
            f"error: sweep.taus[0]: {off_grid}",
            f"error: sweep.taus[1]: {off_grid}",
        ]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["simulate", "ensemble", "stability", "ablate"])
    def test_default_delays_off_the_step_grid_fail_only_ablate(self, tmp_path, capsys, command):
        # a step of 2 misses the default sweep delay 5, which only ablate runs
        cfg = write_config(tmp_path, {"integrator": {"step_size": 2.0}})
        argv = [command, "--config", str(cfg), "--runs", "2", "--out", str(tmp_path / "out")]
        code, out, err = run_cli(capsys, *argv)
        if command != "ablate":
            assert code == 0, err
        else:
            assert (code, out) == (2, "")
            off_grid = "tau (5) must be an integer multiple of the step size (2); got ratio 2.5"
            assert err == f"error: sweep.taus[1]: {off_grid}\n"

    @pytest.mark.filterwarnings("ignore::rumorsim.ensemble.FinalSizeHorizonWarning")
    def test_delays_alike_to_six_digits_keep_distinct_labels(self, tmp_path, capsys):
        # both delays print as 1e+06 to 6 significant digits
        cfg = write_config(
            tmp_path,
            {
                "integrator": {"step_size": 1.0, "horizon": 2.0},
                "sweep": {"taus": [1e6, 1e6 + 1], "r0_values": [2.0], "run_count": 2},
                "output": {"formats": ["svg"]},
            },
        )
        code, out, err = run_cli(capsys, "ablate", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert code == 0, err
        svg = (tmp_path / "out" / "sweep_peak.svg").read_text()
        assert "tau=1000000.0" in svg and "tau=1000001.0" in svg


    def test_a_derived_beta_beyond_the_float_range_names_its_cell(self, tmp_path, capsys):
        # beta = R0 (gamma + rho) / N overflows to inf at N = 1e-300
        cfg = write_config(
            tmp_path,
            {
                "model": {"population": 1e-300},
                "initial": {"s": 1e-300, "i": 0.0},
                "sweep": {"taus": [0.0], "r0_values": [1e10]},
                "integrator": {"horizon": 1.0},
            },
        )
        code, out, err = run_cli(capsys, "ablate", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert code in (2, 3) and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "sweep cell (tau=0, R0=1e+10): " in err


class TestCompare:
    def test_compare_against_bundled_reference(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "sweep": {"taus": [0.0], "r0_values": [0.5, 2.0], "run_count": 3},
                "output": {"directory": str(tmp_path / "ablate_out")},
            },
        )
        code, _, err = run_cli(capsys, "ablate", "--config", str(cfg))
        assert code == 0, err
        code, out, err = run_cli(
            capsys,
            "compare",
            "--result", str(tmp_path / "ablate_out" / "sweep.csv"),
            "--out", str(tmp_path / "cmp_out"),
        )
        assert code == 0, err
        lines = (tmp_path / "cmp_out" / "deviation.csv").read_text().splitlines()
        assert len(lines) == 2 + 2  # metadata + header + two cells

    def test_compare_differs_from_ablate_only_by_the_printed_means(self, tmp_path, capsys):
        # compare reads the sweep's means as sweep.csv prints them, to 9
        # significant digits, so its relative deviations may differ from
        # ablate's by that rounding; every other field is the same
        code, _, err = run_cli(capsys, "ablate", "--runs", "2", "--out", str(tmp_path / "a"))
        assert code == 0, err
        argv = ["compare", "--result", str(tmp_path / "a" / "sweep.csv"), "--out", str(tmp_path / "c")]
        code, _, err = run_cli(capsys, *argv)
        assert code == 0, err
        ablate, compare = (
            list(csv.DictReader(line for line in (tmp_path / d / "deviation.csv").read_text().splitlines()
                                if not line.startswith("#")))
            for d in "ac"
        )
        assert len(ablate) == len(compare) == 18
        devs = ("peak_dev_rel", "final_dev_rel")
        half, eps = 0.5e-8, np.finfo(float).eps  # half a unit of the 9th digit, relative
        for a, c in zip(ablate, compare):
            assert {k: v for k, v in a.items() if k not in devs} == {k: v for k, v in c.items() if k not in devs}
            for stat in ("peak", "final"):
                ratio = abs(float(a[f"{stat}_mean"]) / float(a[f"ref_{stat}_mean"]))
                x, y = float(a[f"{stat}_dev_rel"]), float(c[f"{stat}_dev_rel"])
                # the mean's rounding moves (mean - ref) / ref by at most
                # half * ratio, and printing each deviation by half * |dev|;
                # the few roundings of the division add eps * (ratio + 1)
                assert abs(x - y) <= half * (ratio + abs(x) + abs(y)) + 4 * eps * (ratio + 1)

    def test_missing_result_file(self, tmp_path, capsys):
        code, out, err = run_cli(
            capsys, "compare", "--result", str(tmp_path / "nope.csv"),
            "--out", str(tmp_path / "out"),
        )
        assert code == 2
        assert err.startswith("error: ")

    @pytest.mark.parametrize("repeated", ["--result", "--reference"])
    def test_repeated_cell_is_rejected(self, tmp_path, capsys, repeated):
        table = "tau,R0,beta,peak_mean,peak_std,final_mean,final_std\n0,0.5,0.075,0.1,0,0.2,0\n"
        tables = {"--result": "# run_count=3\n" + table, "--reference": table}
        tables[repeated] += "0.0,0.5000000001,0.075,9,0,0.2,0\n"
        argv = ["compare", "--out", str(tmp_path / "out")]
        for flag, content in tables.items():
            (tmp_path / flag[2:]).write_text(content)
            argv += [flag, str(tmp_path / flag[2:])]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {tmp_path / repeated[2:]}: lists a (tau, R0) cell more than once, to 9 decimals\n"

    @pytest.mark.parametrize("std", ["nan", "-0.01", "inf"])
    def test_reference_cells_must_be_finite_and_nonnegative(self, tmp_path, capsys, std):
        header = "tau,R0,beta,peak_mean,peak_std,final_mean,final_std\n"
        result, reference = tmp_path / "result.csv", tmp_path / "reference.csv"
        result.write_text("# run_count=3\n" + header + "0,0.5,0.075,0.1,0,0.2,0\n")
        reference.write_text(header + f"0,0.5,0.075,0.1,{std},0.2,0\n")
        argv = ["compare", "--result", str(result), "--reference", str(reference), "--out", str(tmp_path / "out")]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
        assert err.startswith(f"error: {reference}: cell (tau=0, R0=0.5).peak_std: must be ")
        assert len(load_reference()) == 18  # the bundled table holds


class TestConfigurationErrors:
    def test_each_violation_raised_in_a_subcommand_prints_on_its_own_line(self, tmp_path, capsys, monkeypatch):
        def fail(cfg, output, args):
            raise ConfigurationError(["a", "b"])

        monkeypatch.setitem(rumorsim.cli._COMMANDS, "simulate", fail)
        code, out, err = run_cli(capsys, "simulate", "--out", str(tmp_path / "out"))
        assert (code, out, err) == (2, "", "error: a\nerror: b\n")


class TestParser:
    def test_import_builds_no_parser(self):
        proc = run_python("-c", "import rumorsim.cli as c; print(c.build_parser.cache_info())", timeout=60)
        assert proc.returncode == 0 and "currsize=0" in proc.stdout

    def test_one_parser_serves_calls_like_fresh_processes(self, tmp_path, capsys, monkeypatch):
        # one parser per process: a call after a rejected command line
        # lists and writes what the same call does in a fresh process
        config = write_config(tmp_path, {"integrator": {"horizon": 20.0}, "stability": {"run_count": 4}})
        both = ["--config", str(config), "--format", "both"]
        calls = [
            ["simulate", *both, "--out", "out/simulate"],
            ["ensemble", "--runs", "many"],
            ["ensemble", *both, "--runs", "3", "--out", "out/ensemble"],
            ["stability", *both, "--out", "out/stability"],
        ]
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage line to the terminal
        one, fresh = tmp_path / "one", tmp_path / "fresh"
        one.mkdir(), fresh.mkdir()
        monkeypatch.chdir(one)
        results = []
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        assert [code for code, _, _ in results] == [0, 2, 0, 0]
        for argv, result in zip(calls, results):
            proc = run_cli_process(*argv, timeout=120, cwd=fresh)
            assert (proc.returncode, proc.stdout, proc.stderr) == result
        files = sorted(path.relative_to(one) for path in one.rglob("*") if path.is_file())
        assert len(files) == 3 + 6 + 4
        assert files == sorted(path.relative_to(fresh) for path in fresh.rglob("*") if path.is_file())
        for name in files:
            assert (one / name).read_bytes() == (fresh / name).read_bytes(), name


class TestOutputDirectory:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--out", ""], "--out: must be a non-empty string"),
            (["--out", "a\0b"], "--out: must be a path without NUL characters, got a\\x00b"),
            (["--config", "config.json"], "output.directory: must be a path without NUL characters, got a\\x00b"),
        ],
        ids=["empty-flag", "nul-flag", "nul-config"],
    )
    def test_a_directory_no_path_can_name_exits_2_before_writing(self, tmp_path, capsys, monkeypatch, argv, message):
        # an empty directory would be echoed into effective_config.json,
        # which a re-run then rejects; a NUL byte cannot name any file
        monkeypatch.chdir(tmp_path)
        write_config(tmp_path, {"output": {"directory": "a\u0000b"}})
        code, out, err = run_cli(capsys, "simulate", *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert [path.name for path in tmp_path.iterdir()] == ["config.json"]


class TestNulPaths:
    @pytest.mark.parametrize(
        "flag, message",
        [
            ("--result", "cannot read a\\x00b: embedded null byte"),
            ("--reference", "cannot read a\\x00b: embedded null byte"),
            ("--config", "config: cannot read a\\x00b: embedded null byte"),
        ],
    )
    def test_a_path_with_a_nul_byte_cannot_be_read(self, tmp_path, capsys, flag, message):
        # a shell cannot pass a NUL byte in argv: library callers can
        result = tmp_path / "result.csv"
        result.write_text("# run_count=3\ntau,R0,beta,peak_mean,peak_std,final_mean,final_std\n0,0.5,0.075,0.1,0,0.2,0\n")
        paths = {"--result": str(result), "--out": str(tmp_path / "out"), flag: "a\0b"}
        code, out, err = run_cli(capsys, "compare", *(part for item in paths.items() for part in item))
        assert (code, out, err) == (2, "", f"error: {message}\n")


def _fresh_json(code):
    """The JSON that ``code`` prints in a fresh interpreter, whose modules
    no earlier test has loaded; ``loaded()`` there lists the package's."""
    prelude = (
        "import json, sys\n"
        "def loaded():\n"
        "    return sorted(m.partition('.')[2] for m in sys.modules if m.split('.')[0] == 'rumorsim')\n"
    )
    proc = run_python("-c", prelude + textwrap.dedent(code), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


# the modules every CLI process loads, whichever subcommand it runs; the
# package itself lists as ""
CLI_MODULES = {"", "cli", "config", "ensemble", "errors", "integrator", "model", "numtext", "rng", "svg"}
# the model's theory: the margin, the well-posedness bounds and their verifiers, the envelope
THEORY = (
    "BoundCheckReport", "_check_sampled_bound", "_sample_nonnegative_ball", "generator_growth_constant",
    "growth_bound_constant", "lipschitz_constant", "second_moment_envelope", "stochastic_margin",
    "verify_growth_bound", "verify_lipschitz_bound",
)


class TestLazyImports:
    def test_cli_import_loads_neither_the_sweep_nor_the_lab(self):
        assert _fresh_json("import rumorsim.cli\nprint(json.dumps(loaded()))") == sorted(CLI_MODULES)

    def test_the_theory_is_defined_beside_the_lab_alone(self):
        seen = _fresh_json(
            f"""
            def homes():
                return sorted({{
                    m for m, module in list(sys.modules.items()) if m.split(".")[0] == "rumorsim"
                    for name in {THEORY!r} if name in vars(module)
                }})
            import rumorsim.cli
            cli = homes()
            import rumorsim, rumorsim.stability
            lab = homes()
            exported = [name for name in rumorsim.__all__ if name in {THEORY!r}]
            same = all(getattr(rumorsim, name) is getattr(rumorsim.stability, name) for name in exported)
            print(json.dumps([cli, lab, len(exported), same]))
            """
        )
        assert seen == [[], ["rumorsim.stability"], 7, True]

    @pytest.mark.parametrize(
        "command, extra",
        # ablate reads the reference table bundled in rumorsim.data
        [("simulate", set()), ("ensemble", set()), ("stability", {"stability"}), ("ablate", {"ablation", "data"})],
    )
    def test_a_subcommand_loads_only_the_analysis_it_runs(self, tmp_path, command, extra):
        argv = [command, "--runs", "2", "--format", "both", "--out", str(tmp_path)]
        seen = _fresh_json(
            f"""
            import contextlib, io
            from rumorsim.cli import main
            with contextlib.redirect_stdout(io.StringIO()):
                code = main({argv!r})
            print(json.dumps([code, loaded()]))
            """
        )
        assert seen == [0, sorted(CLI_MODULES | extra)]

    def test_package_import_loads_no_module_and_resolves_each_name_from_its_own(self):
        seen = _fresh_json(
            """
            import importlib, pkgutil
            import rumorsim
            before = loaded()
            modules = [importlib.import_module(f"rumorsim.{m.name}") for m in pkgutil.iter_modules(rumorsim.__path__)]
            homes = {name: [m for m in modules if name in getattr(m, "__all__", ())] for name in rumorsim.__all__}
            print(json.dumps({
                "before": before,
                "homes": sorted({len(found) for found in homes.values()}),
                "same": all(getattr(rumorsim, name) is getattr(found[0], name) for name, found in homes.items()),
                "dir": set(rumorsim.__all__) <= set(dir(rumorsim)),
            }))
            """
        )
        assert seen == {"before": [""], "homes": [1], "same": True, "dir": True}

    def test_a_submodule_still_imports_by_name_and_an_unknown_name_raises(self):
        seen = _fresh_json(
            """
            from rumorsim import config, numtext
            import rumorsim
            try:
                rumorsim.no_such_name
            except AttributeError as exc:
                error = str(exc)
            try:
                from rumorsim import no_such_module
            except ImportError:
                missing = True
            print(json.dumps([numtext.__name__, config.__name__, error, missing]))
            """
        )
        assert seen == [
            "rumorsim.numtext", "rumorsim.config", "module 'rumorsim' has no attribute 'no_such_name'", True,
        ]


class TestListItems:
    def test_every_bad_item_prints_its_own_error_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"sweep": {"taus": [-1, "x", -2]}})
        code, out, err = run_cli(capsys, "ablate", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            "error: sweep.taus[0]: must be >= 0, got -1",
            "error: sweep.taus[1]: must be a number",
            "error: sweep.taus[2]: must be >= 0, got -2",
        ]
        assert not (tmp_path / "out").exists()

    def test_a_repeated_format_reruns_from_the_echo_byte_for_byte(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cfg = write_config(
            tmp_path,
            {"ensemble": {"run_count": 3}, "integrator": {"horizon": 20.0}, "output": {"formats": ["csv", "csv"]}},
        )
        code, _, err = run_cli(capsys, "ensemble", "--config", str(cfg), "--out", str(out1))
        assert code == 0, err
        echoed = out1 / "effective_config.json"
        assert json.loads(echoed.read_text())["output"]["formats"] == ["csv", "csv"]
        code, _, err = run_cli(capsys, "ensemble", "--config", str(echoed), "--out", str(out2))
        assert code == 0, err
        names = sorted(path.name for path in out1.iterdir())
        assert names == ["aggregate.csv", "effective_config.json", "metrics.csv", "summary.csv"]
        assert names == sorted(path.name for path in out2.iterdir())
        for name in ("aggregate.csv", "metrics.csv", "summary.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


class TestDeterminism:
    def test_rerun_from_echo_is_byte_identical(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cfg = write_config(
            tmp_path,
            {
                "ensemble": {"run_count": 5},
                "integrator": {"horizon": 30.0},
            },
        )
        code, _, _ = run_cli(
            capsys, "ensemble", "--config", str(cfg), "--out", str(out1), "--format", "both"
        )
        assert code == 0
        echoed = out1 / "effective_config.json"
        # the echoed config pins the output directory; retarget via --out
        code, _, _ = run_cli(
            capsys, "ensemble", "--config", str(echoed), "--out", str(out2)
        )
        assert code == 0
        for name in ("summary.csv", "metrics.csv", "aggregate.csv", "spreader_band.svg"):
            a, b = out1 / name, out2 / name
            assert a.read_bytes() == b.read_bytes(), name


class TestFuzz:
    """Any JSON config and any ``--runs`` and ``--seed`` end in results or
    in ``error:`` lines with exit 2 or 3, never in an exception."""

    _FLAG = st.none() | st.integers(-3, 12) | st.sampled_from([10**6, 2**64, 10**30, -(10**30)])

    @pytest.mark.filterwarnings("ignore::rumorsim.ensemble.FinalSizeHorizonWarning")
    @settings(
        max_examples=100,
        derandomize=True,
        deadline=None,
        database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
    )
    @given(
        data=CONFIGS | RUNNABLE_CONFIGS,
        command=st.sampled_from(["simulate", "ensemble", "stability", "ablate"]),
        runs=_FLAG,
        seed=_FLAG,
    )
    def test_every_input_ends(self, tmp_path, capsys, monkeypatch, data, command, runs, seed):
        # a low work bound ends every example within a fraction of a second
        monkeypatch.setattr("rumorsim.integrator._MAX_PATH_STEPS", 20_000)
        argv = [command, "--config", str(write_config(tmp_path, data)), "--out", str(tmp_path / "out")]
        for flag, value in (("--runs", runs), ("--seed", seed)):
            if value is not None:
                argv += [flag, str(value)]
        code = main(argv)
        out, err = capsys.readouterr()
        assert code in (0, 2, 3)
        if code == 0:
            assert all(Path(path).is_file() for path in out.split())
            assert all(line.startswith("note: ") for line in err.splitlines())
        else:
            assert out == ""
            assert err and all(line.startswith("error: ") for line in err.splitlines())

    # sweep tables, mostly well formed, with values that reach every branch
    # of the comparison: zeros, infinities, NaN, overflow and bad counts
    _NUMBER = st.sampled_from(["0", "-0.0", "0.5", "2", "1e-320", "1e308", "-1e308", "inf", "nan", "x", ""])
    _ROW = st.tuples(
        st.sampled_from(["0", "5", "10", "nan"]), st.sampled_from(["0.5", "2", "inf"]), *[_NUMBER] * 5
    ).map(",".join)
    _META = st.sampled_from(
        ["# run_count=3", "# run_count=0", "# run_count=-2", "# run_count=1" + "0" * 400, "# base_seed=x"]
    )
    _TABLE = st.tuples(
        st.lists(_META, max_size=2),
        st.sampled_from(["tau,R0,beta,peak_mean,peak_std,final_mean,final_std", "tau,R0,beta"]),
        st.lists(_ROW, max_size=3),
    ).map(lambda parts: "\n".join([*parts[0], parts[1], *parts[2]]) + "\n")
    _FILES = _TABLE | st.text(max_size=40) | st.binary(max_size=40)
    _HEADER = "tau,R0,beta,peak_mean,peak_std,final_mean,final_std\n"

    @settings(
        max_examples=100,
        derandomize=True,
        deadline=None,
        database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
    )
    @given(result=_FILES, reference=st.none() | _FILES)
    @example(result=b"\xff\xfe# run_count=3\n", reference=None)  # not UTF-8
    @example(result="# run_count=3\n" + _HEADER, reference=b"\xff" + _HEADER.encode())
    @example(result="# run_count=0\n" + _HEADER + "0,0.5,0.075,0.1,0,0.2,0\n", reference=None)
    @example(result="# run_count=-2\n" + _HEADER + "0,0.5,0.075,0.1,0,0.2,0\n", reference=None)
    @example(result="# run_count=1" + "0" * 400 + "\n" + _HEADER + "0,0.5,0.075,0.1,0,0.2,0\n", reference=None)
    @example(  # a zero reference mean
        result="# run_count=3\n" + _HEADER + "0,0.5,0.075,0.1,0,0.2,0\n5,0.5,0.075,0,0,-0.2,0\n",
        reference=_HEADER + "0,0.5,0.075,0,0,0,0\n5,0.5,0.075,0,0,0,0\n",
    )
    @example(  # a reference that lists a cell twice
        result="# run_count=3\n" + _HEADER + "0,0.5,0.075,0.1,0,0.2,0\n",
        reference=_HEADER + "0,0.5,0.075,0.1,0,0.2,0\n0,0.5,0.075,9,0,0.2,0\n",
    )
    @example(  # a result that lists a cell twice, alike to 9 decimals
        result="# run_count=3\n" + _HEADER + "0,0.5,0.075,0.1,0,0.2,0\n1e-10,0.5,0.075,0.1,0,0.2,0\n",
        reference=None,
    )
    def test_every_compare_input_ends(self, tmp_path, capsys, result, reference):
        argv = ["compare", "--out", str(tmp_path / "out")]
        for flag, content in (("--result", result), ("--reference", reference)):
            if content is not None:
                path = tmp_path / flag[2:]
                path.write_bytes(content if isinstance(content, bytes) else content.encode())
                argv += [flag, str(path)]
        code = main(argv)
        out, err = capsys.readouterr()
        assert code in (0, 2)
        if code == 0:
            assert all(Path(path).is_file() for path in out.split())
            assert err == ""
        else:
            assert out == ""
            assert err and all(line.startswith("error: ") for line in err.splitlines())
