from dataclasses import replace

import numpy as np
import pytest
from scipy.special import ndtri

import rumorsim.ensemble

from oracles import quantile_band, sample_std, weak_noise_ratios
from rumorsim import (
    FinalSizeHorizonWarning,
    HistoryFunction,
    InsufficientDataError,
    IntegratorConfig,
    ModelParams,
    NoiseIntensities,
    StateVector,
    confidence_band,
    default_initial_state,
    default_params,
    derive_seed,
    run_ensemble,
    simulate_linearized,
    simulate_paths,
)
from rumorsim.ensemble import (
    CI_METHODS,
    OutbreakMetrics,
    _sample_std,
    write_aggregate_csv,
    write_metrics_csv,
    write_summary_csv,
)
from rumorsim.integrator import block_rows, euler_maruyama


def quiet_ensemble(run_count=5, noise=0.0, r0=2.0, horizon=200.0, seed=42, **kwargs):
    p = default_params(r0=r0, noise_level=noise)
    hist = HistoryFunction.constant(default_initial_state(p))
    cfg = IntegratorConfig(0.1, horizon)
    return run_ensemble(p, hist, cfg, run_count, seed, **kwargs)


class TestConfidenceBand:
    def test_degenerate_sample_collapses(self):
        lo, hi = confidence_band([3.25] * 10, 0.95)
        assert lo == hi == 3.25

    def test_quantile_band_matches_order_statistic_oracle(self):
        values = list(range(1, 101))
        lo, hi = confidence_band(values, 0.95)
        olo, ohi = quantile_band(values, 0.95)
        assert lo == pytest.approx(olo, abs=1e-12)
        assert hi == pytest.approx(ohi, abs=1e-12)
        assert (lo, hi) == (pytest.approx(3.475), pytest.approx(97.525))

    def test_normal_band_is_mean_plus_minus_z_std(self):
        values = np.arange(1.0, 101.0)
        lo, hi = confidence_band(values, 0.95, method="normal")
        z = 1.959963984540054
        sd = values.std(ddof=1)
        assert lo == pytest.approx(50.5 - z * sd)
        assert hi == pytest.approx(50.5 + z * sd)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            confidence_band([1.0], 0.95)

    def test_level_validation(self):
        with pytest.raises(ValueError):
            confidence_band([1.0, 2.0], 1.5)
        with pytest.raises(ValueError):
            confidence_band([1.0, 2.0], 0.95, method="bogus")

    @pytest.mark.parametrize("values", [3.25, np.float64(3.25), np.array(3.25)], ids=["float", "numpy-scalar", "0-d"])
    def test_a_scalar_sample_raises(self, values):
        with pytest.raises(ValueError, match="^values must be at least one-dimensional$"):
            confidence_band(values, 0.95)


class TestDeterministicCollapse:
    def test_zero_noise_runs_are_identical(self):
        result = quiet_ensemble(run_count=5, noise=0.0, horizon=50.0)
        s = result.summary
        assert np.array_equal(s.std, np.zeros_like(s.std))
        assert np.array_equal(s.upper - s.lower, np.zeros_like(s.std))
        assert result.metrics.peak_std == 0.0
        assert result.metrics.final_size_std == 0.0


class TestReproducibility:
    def test_identical_inputs_identical_summaries(self):
        a = quiet_ensemble(run_count=8, noise=0.01, horizon=50.0)
        b = quiet_ensemble(run_count=8, noise=0.01, horizon=50.0)
        assert np.array_equal(a.summary.mean, b.summary.mean)
        assert np.array_equal(a.summary.upper, b.summary.upper)
        assert np.array_equal(a.metrics.peak_values, b.metrics.peak_values)

    def test_metrics_aggregates_order_independent(self):
        result = quiet_ensemble(run_count=16, noise=0.01, horizon=50.0)
        peaks = result.metrics.peak_values
        rng = np.random.default_rng(0)
        shuffled = peaks[rng.permutation(peaks.size)]
        assert np.isclose(shuffled.mean(), result.metrics.peak_mean, rtol=1e-12)
        assert np.isclose(shuffled.std(ddof=1), result.metrics.peak_std, rtol=1e-12)


class TestBands:
    def test_wider_level_contains_narrower(self):
        p = default_params(r0=2.0, noise_level=0.02)
        hist = HistoryFunction.constant(default_initial_state(p))
        cfg = IntegratorConfig(0.1, 100.0)
        narrow = run_ensemble(p, hist, cfg, 40, 7, ci_level=0.95)
        wide = run_ensemble(p, hist, cfg, 40, 7, ci_level=0.99)
        assert np.all(wide.summary.lower <= narrow.summary.lower + 1e-15)
        assert np.all(wide.summary.upper >= narrow.summary.upper - 1e-15)

    def test_band_brackets_mean_at_default_config(self):
        result = quiet_ensemble(run_count=64, noise=0.01)
        s = result.summary
        assert np.all(s.lower <= s.mean + 1e-12)
        assert np.all(s.mean <= s.upper + 1e-12)

    def test_normal_method_selectable(self):
        result = quiet_ensemble(run_count=16, noise=0.01, horizon=50.0, ci_method="normal")
        s = result.summary
        np.testing.assert_allclose(
            s.upper - s.mean, s.mean - s.lower, rtol=1e-9, atol=1e-15
        )


class TestNoiseScaling:
    def test_std_at_peak_grows_with_noise(self):
        p0 = default_params(r0=2.0, noise_level=0.0)
        hist = HistoryFunction.constant(default_initial_state(p0))
        cfg = IntegratorConfig(0.1, 120.0)
        base = run_ensemble(p0, hist, cfg, 4, 11)
        peak_idx = int(base.summary.mean[:, 2].argmax())
        stds = []
        for level in (0.0, 0.025, 0.05, 0.1):
            p = default_params(r0=2.0, noise_level=level)
            result = run_ensemble(p, hist, cfg, 100, 11)
            stds.append(float(result.summary.std[peak_idx, 2]))
        assert stds[0] == 0.0
        assert all(a < b for a, b in zip(stds, stds[1:]))

    def test_spreader_variability_peaks_near_the_peak(self):
        # variability concentrates around the outbreak peak: the argmax of
        # the pointwise std lands within 20% of the horizon of the mean peak
        result = quiet_ensemble(run_count=100, noise=0.01, horizon=200.0, seed=3)
        s = result.summary
        t_peak_mean = s.times[int(s.mean[:, 2].argmax())]
        t_peak_std = s.times[int(s.std[:, 2].argmax())]
        assert abs(t_peak_std - t_peak_mean) <= 0.2 * s.times[-1]

    @pytest.mark.filterwarnings("ignore::rumorsim.ensemble.FinalSizeHorizonWarning")
    def test_weak_noise_order_of_the_terminal_mean(self, seed_shift):
        # common seeds across the noise levels and no projection make each
        # run a polynomial in the level; the ratio's O(eps) coefficient is a
        # sample quantity, small at 1,000 runs (the config's default seed)
        p = default_params(tau=5.0, r0=2.0)
        hist = HistoryFunction.constant(default_initial_state(p))
        cfg = IntegratorConfig(0.1, 50.0, projection_enabled=False, record_stride=500)

        def terminal_mean(level):
            noisy = replace(p, noise=NoiseIntensities.uniform(level))
            return run_ensemble(noisy, hist, cfg, 1000, 12345 + seed_shift).summary.mean[-1]

        coarse, fine = weak_noise_ratios(terminal_mean, 0.0025)
        assert np.all(np.abs(fine - 4.0) < 0.1), fine
        assert np.all(np.abs(np.log2(coarse * fine) / 2 - 2.0) < 0.5), (coarse, fine)  # the order of all five levels


class TestMetrics:
    def test_peak_includes_initial_point(self):
        # sub-threshold, zero noise: the spreader column only decays, so
        # the peak is exactly the initial level at t = 0
        result = quiet_ensemble(run_count=3, noise=0.0, r0=0.5)
        m = result.metrics
        assert np.all(m.peak_values == 0.005)
        assert np.all(m.peak_times == 0.0)

    def test_outbreak_metrics_reasonable_at_r0_2(self):
        result = quiet_ensemble(run_count=32, noise=0.01)
        m = result.metrics
        assert 0.05 < m.peak_mean < 0.15
        assert 0.6 < m.final_size_mean < 0.95
        assert np.all(m.peak_values >= 0.005)
        assert np.all(m.final_sizes >= 0.0)

    def test_single_run_has_nan_dispersion(self):
        result = quiet_ensemble(run_count=1, noise=0.01, horizon=20.0)
        assert np.isnan(result.metrics.peak_std)
        assert np.all(np.isnan(result.summary.std))


class TestHugeSpread:
    """Squared deviations that overflow do not make a finite spread
    infinite, and ordinary lanes keep numpy's bits."""

    SCALE = 2.0**900  # squares of values this large overflow

    def sample(self, shape=(40, 3, 6)):
        return np.random.default_rng(5).lognormal(-3.0, 1.0, size=shape)

    def test_normal_band_of_huge_values_is_the_scaled_band(self):
        x = self.sample()
        for level in (0.5, 0.9):
            lo, hi = confidence_band(x, level, method="normal")
            huge_lo, huge_hi = confidence_band(x * self.SCALE, level, method="normal")
            assert np.array_equal(huge_lo, lo * self.SCALE)
            assert np.array_equal(huge_hi, hi * self.SCALE)
            assert np.all(np.isfinite(huge_hi))

    def test_only_overflowing_lanes_are_recomputed(self):
        x = self.sample()
        mixed = x.copy()
        mixed[:, 1, 2] *= self.SCALE
        mixed[3, 2, 0], mixed[7, 2, 4] = np.nan, np.inf
        lo, hi = confidence_band(mixed, 0.9, method="normal")
        z = ndtri(0.95)
        mean = mixed.mean(axis=0)
        with np.errstate(over="ignore", invalid="ignore"):
            want = np.std(mixed, axis=0, ddof=1)  # numpy's bits, inf in one lane
        want[1, 2] = np.std(x, axis=0, ddof=1)[1, 2] * self.SCALE  # the same sum order
        assert np.array_equal(lo, mean - z * want, equal_nan=True)
        assert np.array_equal(hi, mean + z * want, equal_nan=True)
        assert np.isnan(hi[2, 0]) and np.isnan(hi[2, 4])

    def test_outbreak_metrics_of_huge_values(self):
        peaks, finals = self.sample((2, 100))
        huge = OutbreakMetrics(peaks * self.SCALE, np.zeros(100), finals * self.SCALE)
        assert huge.peak_std == np.std(peaks, ddof=1) * self.SCALE
        assert huge.final_size_std == np.std(finals, ddof=1) * self.SCALE

    @pytest.mark.filterwarnings("ignore::rumorsim.ensemble.FinalSizeHorizonWarning")
    @pytest.mark.parametrize("ci_method", CI_METHODS)
    def test_streamed_spread_of_huge_states_is_finite(self, ci_method):
        # transmission at 1e200 lifts the exposed mass to about 1e196 in a step
        p = default_params(noise_level=0.05)
        p = ModelParams(**{**p.__dict__, "beta": 1e200})
        hist = HistoryFunction.constant(default_initial_state(p))
        result = run_ensemble(p, hist, IntegratorConfig(0.1, 0.5), 20, 9, ci_method=ci_method)
        assert np.nanmax(result.summary.mean) > 1e190
        assert np.all(np.isfinite(result.summary.std))
        assert np.all(np.isfinite(result.summary.upper))
        assert np.isfinite(result.metrics.peak_std) and np.isfinite(result.metrics.final_size_std)


class TestSampleStd:
    """The ddof=1 std from the mean in hand has numpy's bits, and the
    rescaled bits where the squared deviations overflow."""

    SCALE = 2.0**900

    @pytest.mark.parametrize("runs", [2, 3, 100, 300])
    def test_equals_numpy_std(self, runs):
        rng = np.random.default_rng(runs)
        x = rng.lognormal(-3.0, 1.0, size=(runs, 4, 6)) * rng.choice([-1.0, 1.0], size=(runs, 4, 6))
        values = x.copy()
        values[:, 0, 0] = 1.5  # all values agree
        values[runs // 2, 0, 1] = np.nan
        values[0, 0, 2] = np.inf
        values[:, 0, 3] = -np.inf
        values[[0, -1], 0, 4] = [np.inf, -np.inf]
        values[:, 1, :3] *= self.SCALE  # squared deviations overflow
        values[:, 1, 3] = np.linspace(1.5e308, 1.7e308, runs)  # and their sum too
        values[-1, 1, 4] = 1e300  # one huge value among small ones
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(np.std(values, axis=0, ddof=1)[1, :5]).any()
        want = self.rescaled_numpy_std(values)
        assert np.isfinite(want[1, :5]).all() and np.isfinite(want[2:]).all()
        assert np.isnan(want[0, 1:5]).all()
        runs_last = np.moveaxis(values, 0, -1).copy()
        with np.errstate(over="ignore", invalid="ignore"):
            mean = values.mean(axis=0)
            # the squares in a new array, or over the values, with the
            # rescale read from the same sample laid out runs last
            assert _sample_std(values, mean).tobytes() == want.tobytes()
            got = _sample_std(values.copy(), mean, np.moveaxis(runs_last, -1, 0))
            assert got.tobytes() == want.tobytes()
            for lane in [(0, 5), (2, 0), (1, 1), (1, 3)]:  # 1-D samples
                column = values[(slice(None), *lane)]
                want = self.rescaled_numpy_std(column)
                assert _sample_std(column, column.mean()).tobytes() == want.tobytes()

    @staticmethod
    def rescaled_numpy_std(values):
        """``np.std(values, axis=0, ddof=1)``, and where it is not finite,
        the same on the values scaled by a power of two, scaled back."""
        with np.errstate(over="ignore", invalid="ignore"):
            std = np.std(values, axis=0, ddof=1)
            lost = ~np.isfinite(std)
            exponent = np.where(lost, np.frexp(np.abs(values).max(axis=0))[1], 0)
            rescaled = np.ldexp(np.std(np.ldexp(values, -exponent), axis=0, ddof=1), exponent)
        return np.where(lost, rescaled, std)


class TestHorizonWarning:
    def test_unconverged_final_size_warns(self):
        with pytest.warns(FinalSizeHorizonWarning):
            quiet_ensemble(run_count=4, noise=0.0, horizon=50.0)

    def test_converged_final_size_is_silent(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", FinalSizeHorizonWarning)
            quiet_ensemble(run_count=4, noise=0.0, horizon=200.0)


class TestCsvExports:
    def test_summary_header_and_shape(self, tmp_path):
        result = quiet_ensemble(run_count=4, noise=0.01, horizon=20.0)
        path = tmp_path / "summary.csv"
        write_summary_csv(result.summary, path)
        lines = path.read_text().splitlines()
        expected_header = "t," + ",".join(
            f"{c}_{k}" for c in ("S", "E", "I", "R", "Ig", "F") for k in ("mean", "std", "lo", "hi")
        )
        assert lines[0] == expected_header
        assert len(lines) == 1 + result.summary.times.size

    def test_metrics_and_aggregate(self, tmp_path):
        result = quiet_ensemble(run_count=6, noise=0.01, horizon=20.0)
        mpath = tmp_path / "metrics.csv"
        apath = tmp_path / "aggregate.csv"
        write_metrics_csv(result.metrics, mpath)
        write_aggregate_csv(result.metrics, apath)
        mlines = mpath.read_text().splitlines()
        assert mlines[0] == "run,peak_I,peak_t,final_size"
        assert len(mlines) == 7
        alines = apath.read_text().splitlines()
        assert alines[0] == "run_count,peak_mean,peak_std,final_mean,final_std"
        assert len(alines) == 2
        assert alines[1].startswith("6,")


class TestInputValidation:
    def test_run_count_positive(self, params, initial_history, short_cfg):
        with pytest.raises(ValueError):
            run_ensemble(params, initial_history, short_cfg, 0, 1)

    def test_ci_level_range(self, params, initial_history, short_cfg):
        with pytest.raises(ValueError):
            run_ensemble(params, initial_history, short_cfg, 2, 1, ci_level=1.0)


def set_block(monkeypatch, rows, values_per_row):
    """Make the statistics blocks ``rows`` recorded rows long."""
    monkeypatch.setattr("rumorsim.integrator._STATS_BLOCK_VALUES", rows * values_per_row)


# run_ensemble's stepper fills a block of six values per run and row
ENSEMBLE_VALUES_PER_RUN = 6


def ensemble_blocks(monkeypatch):
    """The block sizes ``block_rows`` gives from now on, one per call: a
    run takes two, the memory check's and the stepper's."""
    sizes = []

    def spy(cfg, values_per_row):
        sizes.append(block_rows(cfg, values_per_row))
        return sizes[-1]

    monkeypatch.setattr("rumorsim.integrator.block_rows", spy)
    return sizes


def whole_array_reference(p, hist, cfg, run_count, seed, ci_level, ci_method):
    """The ensemble statistics over every recorded path at once."""
    seeds = [derive_seed(seed, k) for k in range(run_count)]
    times, paths, _ = simulate_paths(p, hist, cfg, seeds)
    nan = np.full((times.size, 6), np.nan)
    std, lower, upper = nan, nan, nan
    if run_count >= 2:
        std = sample_std(paths)
        lower, upper = confidence_band(paths, ci_level, ci_method)
    spreader = paths[:, :, 2]
    return {
        "times": times,
        "mean": paths.mean(axis=0),
        "std": std,
        "lower": lower,
        "upper": upper,
        "peak_values": spreader.max(axis=1),
        "peak_times": times[spreader.argmax(axis=1)],
        "final_sizes": paths[:, -1, 3] + paths[:, -1, 5],
        "paths": paths,
    }


def assert_matches_reference(result, ref):
    s, m = result.summary, result.metrics
    for name, streamed in [
        ("times", s.times), ("mean", s.mean), ("std", s.std), ("lower", s.lower),
        ("upper", s.upper), ("peak_values", m.peak_values), ("peak_times", m.peak_times),
        ("final_sizes", m.final_sizes),
    ]:
        assert streamed.shape == ref[name].shape, name
        assert np.array_equal(streamed, ref[name], equal_nan=True), name


@pytest.mark.filterwarnings("ignore::rumorsim.ensemble.FinalSizeHorizonWarning")
class TestBlockwiseStatistics:
    """Statistics reduced per block of recorded rows equal, bit for bit,
    the same statistics over the whole paths array."""

    # 201 and 21 recorded rows: blocks of 3 rows divide both, blocks of 4
    # leave a one-row partial block, and None gives one block of all rows
    @pytest.mark.parametrize("block", [None, 3, 4])
    @pytest.mark.parametrize("stride", [1, 10])
    @pytest.mark.parametrize("ci_method", ["quantile", "normal"])
    @pytest.mark.parametrize("run_count", [1, 2, 7])
    def test_equals_whole_array_reference(self, monkeypatch, block, stride, ci_method, run_count):
        p = default_params(tau=2.0, r0=2.0, noise_level=0.05)
        hist = HistoryFunction.constant(default_initial_state(p))
        cfg = IntegratorConfig(0.1, 20.0, record_stride=stride)
        if block is not None:
            set_block(monkeypatch, block, run_count * ENSEMBLE_VALUES_PER_RUN)
        ref = whole_array_reference(p, hist, cfg, run_count, 9, 0.9, ci_method)
        sizes = ensemble_blocks(monkeypatch)
        result = run_ensemble(p, hist, cfg, run_count, 9, ci_level=0.9, ci_method=ci_method)
        assert sizes == [block or cfg.recorded_count] * 2
        assert_matches_reference(result, ref)

    def test_peak_tie_across_blocks_keeps_the_first_row(self, monkeypatch):
        # no transmission and a vanishing outflow: I rises until its
        # increments fall below half an ulp, then repeats its maximum
        # bit for bit through every later block
        p = ModelParams(
            beta=0.0, sigma_act=1.0, gamma=1e-300, rho=1e-300, theta=0.1, tau=0.0,
            noise=NoiseIntensities.uniform(0.0), population=1.0,
        )
        hist = HistoryFunction.constant(StateVector(s=0.98, e=0.01, i=0.01, r=0.0, ig=0.0, f=0.0))
        cfg = IntegratorConfig(0.1, 60.0)
        set_block(monkeypatch, 50, 2 * ENSEMBLE_VALUES_PER_RUN)
        ref = whole_array_reference(p, hist, cfg, 2, 1, 0.95, "quantile")
        spreader = ref["paths"][0, :, 2]
        tied = np.flatnonzero(spreader == spreader.max())
        assert tied[0] > 50 and tied[-1] // 50 > tied[0] // 50  # several blocks
        sizes = ensemble_blocks(monkeypatch)
        result = run_ensemble(p, hist, cfg, 2, 1)
        assert sizes == [50] * 2
        assert_matches_reference(result, ref)
        assert np.all(result.metrics.peak_times == result.summary.times[tied[0]])

    @pytest.mark.parametrize("ci_method", CI_METHODS)
    @pytest.mark.parametrize("stride", [1, 10])
    @pytest.mark.parametrize("run_count", [1, 2, 7])
    def test_outputs_never_read_a_staged_block_after_its_reduce(self, monkeypatch, ci_method, stride, run_count):
        # the band sorts the handed rows in place, which is sound only if
        # neither stepper reads a row once it is handed over
        p = default_params(tau=2.0, r0=2.0, noise_level=0.05)
        hist = HistoryFunction.constant(default_initial_state(p))
        cfg = IntegratorConfig(0.1, 20.0, record_stride=stride)
        set_block(monkeypatch, 4, run_count * ENSEMBLE_VALUES_PER_RUN)
        clean = run_ensemble(p, hist, cfg, run_count, 9, ci_method=ci_method)
        real, poisoned = rumorsim.ensemble.stream_model, []

        def spy(p, history, cfg, seeds, reduce, *args):
            def reduce_then_poison(first, recorded):
                reduce(first, recorded)
                recorded[...] = np.nan
                poisoned.append(len(recorded))

            return real(p, history, cfg, seeds, reduce_then_poison, *args)

        monkeypatch.setattr("rumorsim.ensemble.stream_model", spy)
        result = run_ensemble(p, hist, cfg, run_count, 9, ci_method=ci_method)
        assert sum(poisoned) == cfg.recorded_count
        for got, want in [(result.summary, clean.summary), (result.metrics, clean.metrics)]:
            for name, value in vars(want).items():
                if isinstance(value, np.ndarray):
                    assert getattr(got, name).tobytes() == value.tobytes(), name

    @pytest.mark.parametrize("block", [None, 7, 20])
    def test_linearized_estimate_equals_whole_array_reference(self, monkeypatch, block):
        # every row the kernel records, seen in its block before the reduce
        recorded = []

        def spy(*args):
            *head, reduce = args

            def seen(first, rows):
                recorded.extend(rows.copy())
                reduce(first, rows)

            return euler_maruyama(*head, seen)

        monkeypatch.setattr("rumorsim.stability.euler_maruyama", spy)
        runs, cfg = 5, IntegratorConfig(0.1, 20.0)
        if block is not None:
            set_block(monkeypatch, block, 2 * runs)
        p = default_params(tau=2.0, r0=2.0, noise_level=0.3)
        report = simulate_linearized(p, 0.01, 0.02, cfg, runs, 4)
        reference = np.square(np.stack(recorded)).sum(1).mean(1)
        assert len(recorded) == cfg.recorded_count
        assert np.array_equal(report.ms_estimate, reference)


RUN_COUNTS = [2, 3, 7, 20, 41, 100, 2000]
LEVELS = [0.95, 0.9, 0.5, 0.99]


def numpy_band(sample, level):
    alpha = (1.0 - level) / 2.0
    return np.quantile(sample, [alpha, 1.0 - alpha], axis=0, method="linear")


def assert_same_band(got, want, sample):
    """``got == want`` with NaN where ``want`` is NaN, and the sign of every
    zero equal, except in lanes that hold zeros of both signs: they compare
    equal, so the order in which a sort or np.quantile's partition leaves
    them, and with it the sign their band takes, is unspecified."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.all((got == want) | nan)
    zero = sample == 0.0
    mixed = (zero & np.signbit(sample)).any(axis=0) & (zero & ~np.signbit(sample)).any(axis=0)
    assert np.all((np.signbit(got) == np.signbit(want)) | mixed | nan)


def band_samples(n):
    """``(n, 5, 6)`` samples: continuous values, ties, signed zeros, and
    infinities and NaNs in some lanes."""
    rng = np.random.default_rng(n)
    continuous = rng.lognormal(-3.0, 1.0, size=(n, 5, 6)) * rng.choice([-1.0, 1.0], size=(n, 5, 6))
    tied = np.round(4.0 * continuous) / 4.0  # few distinct values, -0.0 among them
    zeros = np.stack(
        [
            rng.choice(values, size=(n, 6))
            for values in ([-0.0, 0.0], [-0.0, 1.0], [0.0, -1.0], [-0.0], [-0.0, 0.0, 2.0])
        ],
        axis=1,
    )
    special = continuous.copy()
    special[0, 0] = np.nan  # a NaN in every lane of one row
    special[n // 2, 1, :3] = np.nan
    special[-1, 2] = np.inf
    special[0, 3] = -np.inf
    special[:, 4, :2] = np.inf  # whole lanes of one infinity
    special[:, 4, 2:4] = [np.inf, -np.inf]  # and of both
    return {"continuous": continuous, "tied": tied, "zeros": zeros, "special": special}


class TestExactBandOracle:
    """The quantile band equals numpy's "linear" quantile bit for bit."""

    def test_run_counts_take_both_interpolation_branches(self):
        # numpy's _lerp interpolates from the lower value for weights
        # below 1/2 and from the upper one from 1/2 on
        weights = set()
        for n in RUN_COUNTS:
            for level in LEVELS:
                alpha = (1.0 - level) / 2.0
                for q in (alpha, 1.0 - alpha):
                    position = (n - 1) * q
                    weights.add(position - np.floor(position))
        assert any(w < 0.5 for w in weights) and any(w >= 0.5 for w in weights)
        assert 0.0 in weights  # an order statistic exactly

    @pytest.mark.parametrize("n", RUN_COUNTS)
    def test_confidence_band_equals_numpy_quantile(self, n):
        for kind, sample in band_samples(n).items():
            before = sample.copy()
            for level in LEVELS:
                with np.errstate(invalid="ignore"):  # inf - inf in both
                    want = numpy_band(sample, level)
                    got = confidence_band(sample, level)
                    assert_same_band(got[0], want[0], sample)
                    assert_same_band(got[1], want[1], sample)
                    for lane in [(0, 0), (1, 0), (2, 5), (4, 3)]:  # 1-D samples
                        column = sample[(slice(None), *lane)]
                        lo, hi = confidence_band(column, level)
                        assert isinstance(lo, float) and isinstance(hi, float)
                        want = numpy_band(column, level)
                        assert_same_band(lo, want[0], column)
                        assert_same_band(hi, want[1], column)
            assert np.array_equal(sample, before, equal_nan=True), kind  # sorted a copy

    def test_band_of_the_last_order_statistic(self):
        # level 1 - 2**-53 puts the upper quantile at 1.0 exactly, where
        # numpy reads the last value with the weight taken from index -1
        level = 1.0 - 2.0**-53
        assert 1.0 - (1.0 - level) / 2.0 == 1.0
        for sample in band_samples(7).values():
            with np.errstate(invalid="ignore"):
                got, want = confidence_band(sample, level), numpy_band(sample, level)
            assert_same_band(got[1], want[1], sample)
            assert_same_band(got[0], want[0], sample)

    @pytest.mark.parametrize("n", RUN_COUNTS)
    def test_normal_band_is_mean_and_zero_spread_std(self, n):
        z = ndtri(0.5 + 0.9 / 2.0)
        for sample in band_samples(n).values():
            with np.errstate(invalid="ignore"):
                lo, hi = confidence_band(sample, 0.9, method="normal")
                mean, std = sample.mean(axis=0), sample_std(sample)
            assert np.array_equal(lo, mean - z * std, equal_nan=True)
            assert np.array_equal(hi, mean + z * std, equal_nan=True)

    @pytest.mark.filterwarnings("ignore::rumorsim.ensemble.FinalSizeHorizonWarning")
    @pytest.mark.parametrize("block", [21, 4])
    @pytest.mark.parametrize("run_count", RUN_COUNTS)
    def test_streamed_band_equals_numpy_quantile(self, monkeypatch, block, run_count):
        # 21 recorded rows: one block, or five of 4 rows and a 1-row one
        # strong noise: projection clamps some runs to zero, which ties
        # the lowest values of a row without tying all of them
        p = default_params(tau=1.0, r0=2.0, noise_level=1.0)
        hist = HistoryFunction.constant(default_initial_state(p))
        cfg = IntegratorConfig(0.1, 20.0, record_stride=10)
        set_block(monkeypatch, block, run_count * ENSEMBLE_VALUES_PER_RUN)
        _, paths, _ = simulate_paths(p, hist, cfg, [derive_seed(5, k) for k in range(run_count)])
        sizes = ensemble_blocks(monkeypatch)
        result = run_ensemble(p, hist, cfg, run_count, 5, ci_level=0.9)
        assert sizes == [block] * 2
        want = numpy_band(paths, 0.9)
        assert_same_band(result.summary.lower, want[0], paths)
        assert_same_band(result.summary.upper, want[1], paths)
        assert np.array_equal(result.summary.std, sample_std(paths))
