import dataclasses
import itertools
import warnings
from pathlib import Path

import numpy as np
import pytest

from oracles import final_size_exact, weak_noise_ratios
from rumorsim import (
    ConfigurationError,
    FinalSizeHorizonWarning,
    GridMismatchError,
    HistoryFunction,
    IntegratorConfig,
    NoiseIntensities,
    NumericsError,
    SweepCell,
    SweepResult,
    SweepSpec,
    compare_to_reference,
    default_initial_state,
    default_params,
    filter_reference,
    integrate,
    load_reference,
    run_ensemble,
    run_sweep,
    simulate_paths,
)
from rumorsim.ablation import DeviationReport, read_sweep_csv, write_deviation_csv, write_sweep_csv
from rumorsim.config import default_config, load_config
from rumorsim.rng import derive_seed

CALIBRATION = Path(__file__).resolve().parents[1] / "configs" / "reference_calibration.json"


def small_spec(taus=(0.0, 10.0), r0s=(0.5, 2.0), runs=12, seed=5):
    return SweepSpec(
        taus=taus,
        r0_values=r0s,
        run_count=runs,
        base_seed=seed,
        template=default_params(),
        integrator=IntegratorConfig(0.1, 200.0),
    )


def result_from_reference(reference, run_count=100, base_seed=0):
    cells = tuple(
        SweepCell(
            tau=c.tau, r0=c.r0, beta=c.beta,
            peak_mean=c.peak_mean, peak_std=c.peak_std,
            final_mean=c.final_mean, final_std=c.final_std,
        )
        for c in reference
    )
    return SweepResult(cells=cells, run_count=run_count, base_seed=base_seed)


class TestReferenceTable:
    def test_full_grid_loads(self):
        ref = load_reference()
        assert len(ref) == 18
        taus = sorted({c.tau for c in ref})
        r0s = sorted({c.r0 for c in ref})
        assert taus == [0.0, 5.0, 10.0]
        assert r0s == [0.5, 0.8, 1.0, 1.2, 1.5, 2.0]

    def test_spot_values(self):
        ref = {(c.tau, c.r0): c for c in load_reference()}
        first = ref[(0.0, 0.5)]
        assert (first.peak_mean, first.peak_std) == (0.00527, 0.00006)
        assert (first.final_mean, first.final_std) == (0.0194, 0.0020)
        last = ref[(10.0, 2.0)]
        assert (last.peak_mean, last.final_mean) == (0.05448, 0.7429)

    def test_beta_column_consistent_with_r0(self):
        for cell in load_reference():
            assert cell.beta == pytest.approx(0.15 * cell.r0, rel=1e-12)

    def test_filter_subsets(self):
        ref = load_reference()
        subset = filter_reference(ref, (0.0,), (0.5, 2.0))
        assert {(c.tau, c.r0) for c in subset} == {(0.0, 0.5), (0.0, 2.0)}


class TestRunSweep:
    def test_cell_count_and_order(self):
        result = run_sweep(small_spec())
        assert len(result.cells) == 4
        assert [(c.tau, c.r0) for c in result.cells] == [
            (0.0, 0.5), (0.0, 2.0), (10.0, 0.5), (10.0, 2.0),
        ]

    def test_beta_rule(self):
        result = run_sweep(small_spec())
        for cell in result.cells:
            assert cell.beta == pytest.approx(0.15 * cell.r0)

    def test_deterministic_given_spec(self):
        a = run_sweep(small_spec())
        b = run_sweep(small_spec())
        assert a == b

    def test_peak_ordering_in_r0(self):
        result = run_sweep(small_spec())
        assert result.cell(0.0, 2.0).peak_mean > result.cell(0.0, 0.5).peak_mean

    def test_cells_statistically_independent(self):
        # same R0 at different delays must not reuse the same stream
        result = run_sweep(small_spec())
        assert result.cell(0.0, 0.5).final_mean != result.cell(10.0, 0.5).final_mean

    @pytest.mark.filterwarnings("ignore::rumorsim.ensemble.FinalSizeHorizonWarning")
    def test_weak_noise_order_of_the_final_mean(self, seed_shift):
        # as for the ensemble's terminal mean: each cell's final_mean is a
        # polynomial in the noise level for its fixed draws, on 1,000 runs
        # per cell (the config's default seed)
        template = default_params(r0=2.0)
        cfg = IntegratorConfig(0.1, 50.0, projection_enabled=False, record_stride=500)

        def final_means(level):
            noisy = dataclasses.replace(template, noise=NoiseIntensities.uniform(level))
            spec = SweepSpec(
                taus=(0.0, 5.0), r0_values=(2.0,), run_count=1000, base_seed=777 + seed_shift, template=noisy, integrator=cfg,
            )
            return [cell.final_mean for cell in run_sweep(spec).cells]

        coarse, fine = weak_noise_ratios(final_means, 0.0025)
        assert np.all(np.abs(fine - 4.0) < 0.1), fine
        assert np.all(np.abs(np.log2(coarse * fine) / 2 - 2.0) < 0.5), (coarse, fine)  # the order of all five levels

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            small_spec(taus=())
        with pytest.raises(ValueError):
            small_spec(r0s=(0.5, 0.0))
        with pytest.raises(ValueError):
            small_spec(runs=0)

    def test_an_off_grid_delay_is_named_by_its_index(self):
        with pytest.raises(ConfigurationError) as failed:
            small_spec(taus=(0.05,))
        assert failed.value.violations == [
            "sweep.taus[0]: tau (0.05) must be an integer multiple of the step size (0.1); got ratio 0.5"
        ]


class TestBatchedSweep:
    # the cells of one delay run as one batch; each must still equal the
    # ensemble of its own cell seed bit for bit
    @pytest.mark.parametrize("stride", [1, 5])
    def test_cells_equal_per_cell_ensembles(self, stride):
        spec = dataclasses.replace(
            small_spec(taus=(0.0, 2.5), r0s=(0.5, 0.8, 2.0), runs=8, seed=3),
            integrator=IntegratorConfig(0.1, 150.0, record_stride=stride),
        )
        with warnings.catch_warnings(record=True) as swept:
            warnings.simplefilter("always")
            result = run_sweep(spec)
        expected_warnings = 0
        for i, tau in enumerate(spec.taus):
            for j, r0 in enumerate(spec.r0_values):
                params = dataclasses.replace(spec.template, tau=tau, beta=spec.beta_for(r0))
                history = HistoryFunction.constant(default_initial_state(params))
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    m = run_ensemble(
                        params, history, spec.integrator, spec.run_count,
                        derive_seed(spec.base_seed, i, j),
                    ).metrics
                expected_warnings += sum(
                    issubclass(w.category, FinalSizeHorizonWarning) for w in caught
                )
                assert result.cell(tau, r0) == SweepCell(
                    tau=tau, r0=r0, beta=params.beta,
                    peak_mean=m.peak_mean, peak_std=m.peak_std,
                    final_mean=m.final_size_mean, final_std=m.final_size_std,
                )
        horizon = [w for w in swept if issubclass(w.category, FinalSizeHorizonWarning)]
        assert 0 < expected_warnings < len(result.cells)
        assert len(horizon) == expected_warnings

    def test_horizon_warnings_name_their_cells(self):
        spec = dataclasses.replace(
            small_spec(taus=(0.0, 2.5), r0s=(0.5, 0.8, 2.0), runs=8, seed=3),
            integrator=IntegratorConfig(0.1, 150.0),
        )
        with warnings.catch_warnings(record=True) as swept:
            warnings.simplefilter("always")
            run_sweep(spec)
        named = [
            str(w.message).split(": ")[0] for w in swept if issubclass(w.category, FinalSizeHorizonWarning)
        ]
        unconverged = []
        for i, tau in enumerate(spec.taus):
            for j, r0 in enumerate(spec.r0_values):
                params = dataclasses.replace(spec.template, tau=tau, beta=spec.beta_for(r0))
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    run_ensemble(
                        params, HistoryFunction.constant(default_initial_state(params)),
                        spec.integrator, spec.run_count, derive_seed(spec.base_seed, i, j),
                    )
                if any(issubclass(w.category, FinalSizeHorizonWarning) for w in caught):
                    unconverged.append(f"sweep cell (tau={tau:g}, R0={r0:g})")
        assert 0 < len(unconverged) < len(spec.taus) * len(spec.r0_values)
        assert named == unconverged

    @pytest.mark.parametrize(
        "taus, r0s, runs, cell",
        [
            ((0.0, 1.0), (1.0, 1e155), 3, (0, 1)),
            # one run: the float stepper's error is renamed as the batch's is
            ((0.0,), (1e155,), 1, (0, 0)),
        ],
    )
    def test_nonfinite_state_names_cell_run_and_seed(self, taus, r0s, runs, cell):
        cfg = IntegratorConfig(0.1, 10.0, projection_enabled=False)
        spec = dataclasses.replace(
            small_spec(taus=taus, r0s=r0s, runs=runs, seed=11), integrator=cfg
        )
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericsError) as failed:
                run_sweep(spec)
            message = str(failed.value)
            assert message.startswith("sweep cell (tau=0, R0=1e+155): non-finite state at step ")
            run = int(message.split(" in run ")[1].split()[0])
            seed = derive_seed(derive_seed(spec.base_seed, *cell), run)
            assert message.endswith(f" in run {run} (seed {seed})")
            # the named seed reproduces the failure at the same step on its own
            params = dataclasses.replace(spec.template, beta=spec.beta_for(1e155))
            history = HistoryFunction.constant(default_initial_state(params))
            with pytest.raises(NumericsError) as single:
                integrate(params, history, cfg, seed)
        assert single.value.step == failed.value.step


class TestExactFinalSize:
    def test_zero_noise_cells_converge_to_the_final_size_relation_at_first_order(self):
        # Euler's global error is O(h), so halving h halves each cell's gap
        # to the exact outbreak size; T = 3000 lets every class but S, R
        # and F empty
        taus, r0s, hs = (0.0, 5.0, 10.0), (0.5, 1.2, 2.0), (0.2, 0.1, 0.05)
        template = default_params(noise_level=0.0)
        start = default_initial_state(template)
        gaps, sizes = {}, {}
        for h in hs:
            cfg = IntegratorConfig(h, 3000.0, record_stride=100)
            for c in run_sweep(SweepSpec(taus, r0s, 2, 0, template, cfg)).cells:
                p = dataclasses.replace(template, beta=c.beta, tau=c.tau)
                sizes[c.tau, c.r0] = final_size_exact(p, start)
                gaps.setdefault((c.tau, c.r0), []).append(abs(c.final_mean - sizes[c.tau, c.r0]))
        assert len(gaps) == 9
        for cell, gap in gaps.items():
            order = np.polyfit(np.log(hs), np.log(gap), 1)[0]
            assert 0.9 <= order <= 1.1, (cell, gap)
            assert gap[-1] < 1e-3 * sizes[cell], (cell, gap)


class TestReferenceCalibration:
    """The seeding ``(0.99, 0.005, 0.005, 0, 0, 0)`` and ``sigma_act = 0.2``
    of ``configs/reference_calibration.json``, recovered from the reference
    table: in a subcritical cell the noise barely moves the statistics, the
    final size follows the final-size relation, which fixes the seeding,
    and the peak of I then fixes ``sigma_act``."""

    @pytest.mark.parametrize("calibrated", [True, False])
    def test_zero_noise_subcritical_cells_lie_in_the_reference_band(self, calibrated):
        # one zero-noise path per R0 < 1 cell, read as a sweep of the
        # config's run count reads its means: the calibration puts every
        # peak and final inside the band, the defaults every peak outside
        cfg = load_config(CALIBRATION) if calibrated else default_config()
        taus, r0s = cfg.sweep.taus, [r0 for r0 in cfg.sweep.r0_values if r0 < 1.0]
        template = dataclasses.replace(cfg.model, noise=NoiseIntensities.zero())
        spec = SweepSpec(taus, r0s, cfg.sweep.run_count, 0, template, cfg.integrator, cfg.initial)
        cells = []
        for tau, r0 in itertools.product(taus, r0s):
            p = dataclasses.replace(template, tau=tau, beta=spec.beta_for(r0))
            _, paths, _ = simulate_paths(p, HistoryFunction.constant(cfg.initial), cfg.integrator, [0])
            peak, final = float(paths[0, :, 2].max()), float(paths[0, -1, 3] + paths[0, -1, 5])
            cells.append(SweepCell(tau, r0, p.beta, peak, 0.0, final, 0.0))
        result = SweepResult(tuple(cells), cfg.sweep.run_count, 0)
        report = compare_to_reference(result, filter_reference(load_reference(), taus, r0s))
        assert cfg.integrator.horizon == 200.0 and len(report.rows) == 6
        if calibrated:
            assert not report.flagged_rows, [row.note for row in report.flagged_rows]
        else:
            assert all(row.peak_flag for row in report.rows)

    @pytest.mark.filterwarnings("ignore::rumorsim.ensemble.FinalSizeHorizonWarning")
    @pytest.mark.parametrize("seed", [777, 1])
    def test_sweeps_under_the_calibration_flag_no_cell(self, seed):
        cfg = load_config(CALIBRATION)
        s = cfg.sweep
        spec = SweepSpec(s.taus, s.r0_values, s.run_count, seed, cfg.model, cfg.integrator, cfg.initial)
        report = compare_to_reference(run_sweep(spec), load_reference())
        assert len(report.rows) == 18
        assert not report.flagged_rows, [row.note for row in report.flagged_rows]


class TestCompare:
    def test_identical_result_has_zero_deviations(self):
        ref = load_reference()
        report = compare_to_reference(result_from_reference(ref), ref)
        assert len(report.rows) == 18
        for row in report.rows:
            assert row.peak_dev_rel == 0.0
            assert row.final_dev_rel == 0.0
            assert not row.flagged
            assert row.note == ""

    def test_single_perturbed_cell_is_flagged(self):
        ref = load_reference()
        result = result_from_reference(ref)
        cells = list(result.cells)
        idx = 7
        bumped = dataclasses.replace(
            cells[idx], peak_mean=cells[idx].peak_mean + 10 * cells[idx].peak_std
        )
        cells[idx] = bumped
        report = compare_to_reference(
            SweepResult(cells=tuple(cells), run_count=100, base_seed=0), ref
        )
        flagged = [(r.tau, r.r0) for r in report.flagged_rows]
        assert flagged == [(cells[idx].tau, cells[idx].r0)]
        assert "peak mean off reference" in report.flagged_rows[0].note

    def test_band_formula(self):
        # |mean - ref| just above 3*std/sqrt(n) + std flags, just below passes
        ref = load_reference()[:1]
        base = result_from_reference(ref, run_count=100)
        std = ref[0].peak_std
        band = 3 * std / 10 + std
        above = dataclasses.replace(
            base.cells[0], peak_mean=ref[0].peak_mean + band * 1.01
        )
        below = dataclasses.replace(
            base.cells[0], peak_mean=ref[0].peak_mean + band * 0.99
        )
        assert compare_to_reference(
            SweepResult((above,), 100, 0), ref
        ).rows[0].peak_flag
        assert not compare_to_reference(
            SweepResult((below,), 100, 0), ref
        ).rows[0].peak_flag

    def test_grid_mismatch_raises(self):
        ref = load_reference()
        partial = result_from_reference(ref[:4])
        with pytest.raises(GridMismatchError):
            compare_to_reference(partial, ref)
        with pytest.raises(GridMismatchError):
            compare_to_reference(result_from_reference(ref), ref[:4])


class TestMalformedInputs:
    def test_reference_with_missing_columns(self, tmp_path):
        from rumorsim import RumorSimError
        from rumorsim.ablation import load_reference as load

        path = tmp_path / "bad.csv"
        path.write_text("tau,R0,wrong\n0,0.5,1\n")
        with pytest.raises(RumorSimError, match="expected columns"):
            load(path)

    def test_sweep_csv_requires_run_count(self, tmp_path):
        from rumorsim import RumorSimError

        path = tmp_path / "sweep.csv"
        path.write_text("tau,R0,beta,peak_mean,peak_std,final_mean,final_std\n")
        with pytest.raises(RumorSimError, match="run_count"):
            read_sweep_csv(path)

    def test_sweep_csv_rejects_malformed_run_count(self, tmp_path):
        from rumorsim import RumorSimError

        path = tmp_path / "sweep.csv"
        path.write_text("# run_count=many\ntau,R0,beta,peak_mean,peak_std,final_mean,final_std\n")
        with pytest.raises(RumorSimError, match="malformed"):
            read_sweep_csv(path)

    @pytest.mark.parametrize(
        "lookup, message",
        [
            (lambda: SweepResult(cells=(), run_count=1, base_seed=0).cell(5.0, 0.5),
             "no sweep cell at tau=5.0, R0=0.5"),
            (lambda: DeviationReport(rows=(), run_count=1).row(5.0, 0.5), "no deviation row at tau=5.0, R0=0.5"),
        ],
        ids=["sweep-cell", "deviation-row"],
    )
    def test_a_cell_off_the_grid_raises_key_error(self, lookup, message):
        with pytest.raises(KeyError) as raised:
            lookup()
        assert raised.value.args == (message,)


class TestCsvRoundTrip:
    def test_sweep_csv(self, tmp_path):
        result = run_sweep(small_spec(runs=4))
        path = tmp_path / "sweep.csv"
        write_sweep_csv(result, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# run_count=4"
        assert lines[2] == "tau,R0,beta,peak_mean,peak_std,final_mean,final_std"
        parsed = read_sweep_csv(path)
        assert parsed.run_count == 4
        assert len(parsed.cells) == len(result.cells)
        for a, b in zip(parsed.cells, result.cells):
            assert a.tau == b.tau and a.r0 == b.r0
            assert a.peak_mean == pytest.approx(b.peak_mean, rel=1e-8)

    def test_deviation_csv(self, tmp_path):
        ref = load_reference()
        report = compare_to_reference(result_from_reference(ref), ref)
        path = tmp_path / "deviation.csv"
        write_deviation_csv(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# run_count=100"
        header = lines[1].split(",")
        for needed in ("ref_peak_mean", "ref_final_std", "peak_dev_rel", "final_dev_rel", "flag", "note"):
            assert needed in header
        assert len(lines) == 2 + 18
