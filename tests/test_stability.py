import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import linear_cascade, linearized_second_moment, recorder, rk4_path
from rumorsim import (
    ConfigurationError,
    DecayVerdict,
    EquilibriumClass,
    FinalSizeHorizonWarning,
    HistoryFunction,
    IntegratorConfig,
    ModelParams,
    NoiseIntensities,
    NumericsError,
    StateVector,
    classify_equilibrium,
    crossing_probability,
    default_initial_state,
    default_params,
    final_size,
    integrate,
    run_ensemble,
    simulate_linearized,
    stochastic_margin,
)
from rumorsim.integrator import delay_steps, euler_maruyama, stream_model
from rumorsim.rng import derive_seed, increment_chunks, seed_array
from rumorsim.stability import _linearized_drift, write_decay_csv


def linear_params(r0, noise_i=0.0, noise_e=0.0, tau=0.0):
    return ModelParams(
        beta=0.15 * r0, sigma_act=0.25, gamma=0.10, rho=0.05, theta=0.10, tau=tau,
        noise=NoiseIntensities(s=0, e=noise_e, i=noise_i, r=0, ig=0, f=0),
    )


def lab_paths(p, start, cfg, runs, increments):
    """The lab's recorded ``(rows, 2, runs)`` (E, I) paths from ``start``
    and a constant history, its kernel stepped on ``increments``."""
    rows, keep = recorder(cfg, 2, runs)
    early = np.full(delay_steps(p.tau, cfg), start[1])
    euler_maruyama(
        functools.partial(_linearized_drift, p), start, [(runs, early)], 1, np.array([p.noise.e, p.noise.i]),
        increments, cfg, keep, False,
    )
    return rows


class TestClassifyEquilibrium:
    def test_rumor_free_point(self, params):
        report = classify_equilibrium(StateVector(1.0, 0, 0, 0, 0, 0), params)
        assert report.classification is EquilibriumClass.RUMOR_FREE
        assert report.drift_residual == 0.0
        assert report.conservation_residual == 0.0

    def test_family_member_gets_family_label(self, params):
        report = classify_equilibrium(StateVector(0.4, 0, 0, 0.5, 0, 0.1), params)
        assert report.classification is EquilibriumClass.RUMOR_FREE_FAMILY
        assert report.drift_residual == 0.0

    def test_active_spreaders_never_stationary(self, params):
        report = classify_equilibrium(StateVector(0.9, 0, 0.1, 0, 0, 0), params)
        assert report.classification is EquilibriumClass.NOT_EQUILIBRIUM
        assert report.drift_residual > 0.0

    def test_residual_is_exactly_zero_on_family(self, params):
        rng = np.random.default_rng(0)
        for _ in range(50):
            split = rng.dirichlet((1.0, 1.0, 1.0))
            x = StateVector(split[0], 0.0, 0.0, split[1], 0.0, split[2])
            report = classify_equilibrium(x, params)
            assert report.classification in (
                EquilibriumClass.RUMOR_FREE_FAMILY, EquilibriumClass.RUMOR_FREE
            )
            assert report.drift_residual == 0.0

    def test_no_endemic_state(self, params):
        # any state carrying spreaders is rejected, however the rest splits
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = rng.dirichlet(np.ones(6))
            x[2] = max(x[2], 2e-3)
            report = classify_equilibrium(StateVector(*x), params, tol=1e-3 * 0.999)
            assert report.classification is EquilibriumClass.NOT_EQUILIBRIUM

    def test_tolerance_positive(self, params):
        with pytest.raises(ValueError):
            classify_equilibrium(StateVector(1, 0, 0, 0, 0, 0), params, tol=0.0)


class TestLinearizedSimulation:
    def test_matches_closed_form_cascade_when_decoupled(self):
        # beta = 0, no noise: E and I decouple into a solvable cascade
        p = linear_params(r0=0.0)
        e0, i0, horizon = 0.004, 0.003, 50.0
        report = simulate_linearized(p, e0, i0, IntegratorConfig(0.01, horizon), 1, 5)
        e_t, i_t = linear_cascade(e0, i0, p.sigma_act, p.removal_rate, horizon)
        expected = e_t**2 + i_t**2
        assert report.ms_estimate[-1] == pytest.approx(expected, rel=2e-2)
        assert report.verdict is DecayVerdict.DECAY

    def test_positive_margin_decays_with_delay(self):
        p = linear_params(r0=0.5, noise_i=0.05, noise_e=0.05, tau=5.0)
        assert stochastic_margin(p) > 0
        report = simulate_linearized(p, 0.005, 0.005, IntegratorConfig(0.1, 400.0), 100, 17)
        assert report.verdict is DecayVerdict.DECAY
        assert report.terminal_estimate <= 1e-2 * report.initial_estimate

    def test_supercritical_deterministic_grows(self):
        report = simulate_linearized(
            linear_params(r0=2.0), 0.005, 0.005, IntegratorConfig(0.1, 400.0), 4, 3
        )
        assert report.verdict is DecayVerdict.GROWTH
        assert report.fitted_rate > 0.0

    def test_threshold_sharpness_without_noise(self):
        cfg = IntegratorConfig(0.1, 400.0)
        below = simulate_linearized(linear_params(r0=0.9), 0.005, 0.005, cfg, 2, 1)
        above = simulate_linearized(linear_params(r0=1.1), 0.005, 0.005, cfg, 2, 1)
        assert below.verdict is DecayVerdict.DECAY
        assert above.verdict is DecayVerdict.GROWTH

    def test_near_threshold_is_inconclusive(self):
        report = simulate_linearized(
            linear_params(r0=1.0), 0.005, 0.005, IntegratorConfig(0.1, 100.0), 2, 1
        )
        assert report.verdict is DecayVerdict.INCONCLUSIVE

    def test_fitted_rate_matches_slow_eigenvalue(self):
        # deterministic subcritical pair: the late-time second moment
        # decays at twice the slow eigenvalue of the 2x2 drift matrix
        r0 = 0.9
        p = linear_params(r0=r0)
        a = np.array([[-p.sigma_act, p.beta], [p.sigma_act, -p.removal_rate]])
        lam = np.linalg.eigvals(a).real.max()
        report = simulate_linearized(p, 0.005, 0.005, IntegratorConfig(0.1, 400.0), 2, 1)
        assert report.fitted_rate == pytest.approx(2 * lam, rel=0.15)

    def test_decay_over_margin_grid(self):
        # empirical sweep: every positive-margin set decays for each delay
        for r0, noise in ((0.3, 0.05), (0.6, 0.1)):
            for tau in (0.0, 5.0, 10.0):
                p = linear_params(r0=r0, noise_i=noise, noise_e=noise, tau=tau)
                assert stochastic_margin(p) > 0
                report = simulate_linearized(
                    p, 0.005, 0.005, IntegratorConfig(0.1, 400.0), 50, 23
                )
                assert report.verdict is DecayVerdict.DECAY, (r0, noise, tau)

    def test_overflow_names_step_and_advice(self):
        p = linear_params(r0=1e150, tau=1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            advice = r"overflowed at step \d+ \(t=.*\); shorten the horizon"
            with pytest.raises(NumericsError, match=advice) as failed:
                simulate_linearized(p, 0.005, 0.005, IntegratorConfig(0.1, 50.0), 3, 1)
        run = failed.value.run
        assert f") in run {run} (seed {derive_seed(1, run)}); " in str(failed.value)

    def test_squares_beyond_the_float_range_need_no_caller_errstate(self, monkeypatch):
        # every block reaches the lab's reduce only after the kernel has
        # returned, outside its errstate: states that stay finite while
        # their squares overflow still end in the lab's own error
        def deferred(*args):
            *head, reduce, project = args
            handed = []
            terminal = euler_maruyama(*head, lambda first, rows: handed.append((first, rows.copy())), project)
            for first, rows in handed:
                reduce(first, rows)
            return terminal

        monkeypatch.setattr("rumorsim.stability.euler_maruyama", deferred)
        p = dataclasses.replace(default_params(), beta=0.0, sigma_act=1e6)
        with pytest.raises(NumericsError, match=r"^linearized second moment overflowed at t=1\.7; shorten the horizon$"):
            simulate_linearized(p, 0.005, 0.005, IntegratorConfig(0.05, 2.0), 200, 1)

    @pytest.mark.parametrize(
        "population, horizon, verdict", [(1, 20.0, DecayVerdict.DECAY), (2**64, 0.5, DecayVerdict.GROWTH)]
    )
    def test_integer_rates_give_the_bits_of_their_floats(self, population, horizon, verdict):
        # the second case's beta * N, 2**64, lies beyond the int64 range
        noise = NoiseIntensities(s=0, e=0.5, i=0.5, r=0, ig=0, f=0)
        ints = ModelParams(beta=1, sigma_act=2, gamma=1, rho=2, theta=1, tau=1, population=population, noise=noise)
        floats = ModelParams(
            beta=1.0, sigma_act=2.0, gamma=1.0, rho=2.0, theta=1.0, tau=1.0, population=float(population),
            noise=noise,
        )
        cfg = IntegratorConfig(0.1, horizon)
        a, b = (simulate_linearized(p, 0.005, 0.005, cfg, 5, 3) for p in (ints, floats))
        assert a.ms_estimate.tobytes() == b.ms_estimate.tobytes()
        assert a.verdict is b.verdict is verdict

    @pytest.mark.parametrize("stride", [1, 4])
    @pytest.mark.parametrize("k", [0, 3])
    def test_second_moment_is_the_exact_recursion(self, k, stride):
        # tau = 0 reads the state's own spreader row, tau = 3h a ring of them
        cfg = IntegratorConfig(0.1, 20.0, record_stride=stride)
        p = linear_params(r0=1.5, noise_i=0.4, noise_e=0.3, tau=k * cfg.step_size)
        report = simulate_linearized(p, 0.004, 0.006, cfg, 13, 2024)
        seeds = [derive_seed(2024, j) for j in range(13)]
        exact = linearized_second_moment(p, 0.004, 0.006, cfg.step_size, cfg.step_count, k, stride, seeds)
        assert report.ms_estimate.tobytes() == exact.tobytes()

    def test_input_validation(self, short_cfg):
        p = linear_params(r0=0.5)
        with pytest.raises(ValueError):
            simulate_linearized(p, 0.0, 0.0, short_cfg, 2, 1)
        with pytest.raises(ValueError):
            simulate_linearized(p, 0.005, 0.005, short_cfg, 0, 1)


_RATES = st.sampled_from([1e-300, 0.05, 0.25, 1.0, 3.0, 1e200, 1e300])
_STATES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-300, 1e200, -1e200, 1e308, -1e308, np.inf, -np.inf]) | st.floats()


class TestLinearizedDrift:
    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(
        rates=st.tuples(st.just(0.0) | _RATES, _RATES, _RATES, _RATES, _RATES),
        data=st.data(),
        run_count=st.integers(1, 5),
    )
    def test_equals_the_four_call_order(self, rates, data, run_count):
        # (bN * D - sigma * E, sigma * E - (gamma + rho) * I), as the
        # linear drift was once written: activation and removal in one
        # broadcast multiply, then three calls
        beta, sigma, gamma, rho, population = rates
        p = ModelParams(
            beta=beta, sigma_act=sigma, gamma=gamma, rho=rho, theta=0.1, tau=0.0,
            noise=NoiseIntensities.zero(), population=population,
        )
        states = st.lists(_STATES, min_size=run_count, max_size=run_count)
        x = np.array([data.draw(states), data.draw(states)])
        delayed = np.array(data.draw(states))
        out = np.empty_like(x)
        step = _linearized_drift(p, x, out)
        with np.errstate(over="ignore", invalid="ignore"):
            step(delayed)
            want = np.empty_like(x)
            d_e, d_i = want
            transmission = np.empty(run_count)
            np.multiply(np.array([[sigma], [gamma + rho]]), x, want)
            np.subtract(d_e, d_i, d_i)
            np.multiply(np.array(beta * population), delayed, transmission)
            np.subtract(transmission, d_e, d_e)
            formula = np.array([beta * population * delayed - sigma * x[0], sigma * x[0] - (gamma + rho) * x[1]])
        assert out.view(np.uint64).tolist() == want.view(np.uint64).tolist()
        assert out.view(np.uint64).tolist() == formula.view(np.uint64).tolist()


class TestFinalSize:
    def test_rumor_free_stays_put(self):
        p = ModelParams(beta=0.0, sigma_act=0.25, gamma=0.1, rho=0.05, theta=0.1,
                        noise=NoiseIntensities.zero())
        hist = HistoryFunction.constant(StateVector(1.0, 0, 0, 0, 0, 0))
        traj = integrate(p, hist, IntegratorConfig(0.1, 50.0), 1)
        report = final_size(traj, p)
        assert (report.s_inf, report.r_inf, report.f_inf) == (1.0, 0.0, 0.0)
        assert report.outbreak_size == 0.0
        assert report.extinguished

    def test_deterministic_final_size_matches_long_rk4(self):
        p = default_params(r0=2.0, noise_level=0.0)
        x0 = default_initial_state(p)
        traj = integrate(p, HistoryFunction.constant(x0), IntegratorConfig(0.1, 200.0), 1)
        report = final_size(traj, p)
        oracle = rk4_path(x0.as_array(), 0.1, 2000.0, p.beta, p.sigma_act, p.gamma, p.rho, p.theta)
        oracle_size = oracle[-1, 3] + oracle[-1, 5]
        assert abs(report.outbreak_size - oracle_size) <= 1e-3 * p.population
        assert report.conservation_residual < 1e-3

    def test_ensemble_summary_terminal_mean(self):
        p = default_params(r0=2.0, noise_level=0.01)
        hist = HistoryFunction.constant(default_initial_state(p))
        result = run_ensemble(p, hist, IntegratorConfig(0.1, 200.0), 32, 9)
        report = final_size(result.summary, p)
        assert 0.6 < report.outbreak_size < 0.95

    def test_warns_when_not_extinguished(self):
        p = default_params(r0=2.0, noise_level=0.0)
        hist = HistoryFunction.constant(default_initial_state(p))
        traj = integrate(p, hist, IntegratorConfig(0.1, 50.0), 1)
        with pytest.warns(FinalSizeHorizonWarning):
            report = final_size(traj, p)
        assert not report.extinguished

    def test_rejects_unknown_source(self, params):
        with pytest.raises(TypeError):
            final_size(np.zeros(6), params)


class TestDecayCsv:
    def test_header_lines_and_rows(self, tmp_path):
        report = simulate_linearized(
            linear_params(r0=0.5), 0.005, 0.005, IntegratorConfig(0.1, 50.0), 4, 2
        )
        path = tmp_path / "decay.csv"
        write_decay_csv(report, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# margin=")
        assert lines[1] == f"# verdict={report.verdict.value}"
        assert lines[2].startswith("# fitted_rate=")
        assert lines[4] == "t,ms_estimate"
        assert len(lines) == 5 + report.times.size


class TestSNoiseGap:
    def test_s_noise_alone_turns_the_mean_square_to_growth(self):
        # the certificate and the lab freeze S at N; with n_S > 0 the
        # rumor-free S wanders, R0 S / N crosses 1 on some paths, and the
        # sample mean of E^2 + I^2 grows where the frozen-S model decays
        p = default_params(tau=5.0, r0=0.8)
        cfg = IntegratorConfig(0.1, 800.0, projection_enabled=False, record_stride=8000)
        eps, runs = 1e-8, 1000
        history = HistoryFunction.constant(StateVector(p.population - 2 * eps, eps, eps, 0, 0, 0))
        cells = [(s_noise_only(p, 0.01), runs), (s_noise_only(p, 0.0), 1)]
        rows, keep = recorder(cfg, 6, runs + 1)
        seeds = [derive_seed(777, k) for k in range(runs + 1)]
        stream_model(cells, history, cfg, seeds, keep)
        squares = rows[:, 1] ** 2 + rows[:, 2] ** 2
        noisy, quiet = squares[:, :runs].mean(axis=1), squares[:, runs]
        assert noisy[1] / noisy[0] > 1.0
        assert quiet[1] / quiet[0] < 1e-9


class TestLinearizationOracle:
    @pytest.mark.parametrize("tau, r0", [(0.0, 0.8), (10.0, 0.5)])
    def test_the_model_near_the_rumor_free_point_is_the_lab(self, tau, r0):
        # without noise, the model from (N - 2 eps, eps, eps, 0, 0, 0) follows
        # eps times the lab's path from e0 = i0 = 1 up to O(eps^2), so the
        # relative gap of (E^2 + I^2) / eps^2 to the lab's estimate is O(eps)
        # and halves with eps
        p = default_params(tau=tau, r0=r0, noise_level=0.0)
        cfg = IntegratorConfig(0.1, 200.0, projection_enabled=False, record_stride=10)
        lab = simulate_linearized(p, 1.0, 1.0, cfg, 1, 0).ms_estimate
        gaps = []
        for eps in (1e-4, 5e-5, 2.5e-5, 1.25e-5):
            start = StateVector(p.population - 2.0 * eps, eps, eps, 0.0, 0.0, 0.0)
            states = integrate(p, HistoryFunction.constant(start), cfg, 0).states
            scaled = (states[:, 1] ** 2 + states[:, 2] ** 2) / eps**2
            gaps.append(np.max(np.abs(scaled - lab) / lab))
        ratios = np.array(gaps[:-1]) / np.array(gaps[1:])
        assert np.all((1.9 <= ratios) & (ratios <= 2.1)), (gaps, ratios)

    def noisy_gaps(self, n_s):
        # the lab from e0 = i0 = 1 on the model's own E and I draws (stream
        # components 1 and 2), against the model from (N - 2 eps, eps, eps):
        # the largest relative gap, over runs and rows, of each run's
        # (E^2 + I^2) / eps^2 to the lab's E^2 + I^2 of the same seed
        p = dataclasses.replace(
            default_params(tau=5.0, r0=0.8), noise=NoiseIntensities(s=n_s, e=0.05, i=0.05, r=0, ig=0, f=0)
        )
        cfg = IntegratorConfig(0.1, 100.0, projection_enabled=False, record_stride=10)
        seeds = seed_array(range(200))
        draws = increment_chunks(seeds, 6, cfg.step_count, cfg.step_size)
        lab = lab_paths(p, (1.0, 1.0), cfg, seeds.size, [np.ascontiguousarray(chunk[:, 1:3]) for chunk in draws])
        lab_squares = lab[:, 0] ** 2 + lab[:, 1] ** 2
        gaps = []
        for eps in (1e-4, 5e-5, 2.5e-5, 1.25e-5):
            history = HistoryFunction.constant(StateVector(p.population - 2.0 * eps, eps, eps, 0.0, 0.0, 0.0))
            rows, keep = recorder(cfg, 6, seeds.size)
            stream_model([(p, seeds.size)], history, cfg, seeds, keep)
            scaled = (rows[:, 1] ** 2 + rows[:, 2] ** 2) / eps**2
            gaps.append(np.max(np.abs(scaled / lab_squares - 1.0)))
        return np.array(gaps)

    def test_with_noise_the_model_is_the_lab_run_by_run(self):
        # with S frozen (n_S = 0) the two differ only through S = N - O(eps)
        # in the transmission term, so the gap is O(eps) and halves with eps
        gaps = self.noisy_gaps(0.0)
        ratios = gaps[:-1] / gaps[1:]
        assert np.all((1.8 <= ratios) & (ratios <= 2.2)), (gaps, ratios)

    def test_s_noise_keeps_the_gap_open_at_every_eps(self):
        # with n_S > 0 each path's S wanders off N whatever eps is: the gap
        # TestSNoiseGap shows in the mean, path by path
        gaps = self.noisy_gaps(0.01)
        assert np.all(gaps > 1.0), gaps


class TestLabMean:
    def test_the_sample_mean_follows_the_zero_noise_path(self, seed_shift):
        # with zero-mean multiplicative noise independent of the state it
        # scales, E[X(n + 1)] = E[X(n)] + (A E[X(n)] + B E[X(n - k)]) h: the
        # Euler mean obeys the noise-free recursion exactly, so each recorded
        # row's sample mean lies within a few standard errors of the one
        # zero-noise path
        p = linear_params(r0=2.0, noise_i=0.3, noise_e=0.3, tau=5.0)
        cfg = IntegratorConfig(0.1, 50.0, record_stride=10)
        runs, start = 2000, (0.01, 0.01)
        seeds = seed_array([derive_seed(seed_shift, j) for j in range(runs)])
        noisy = lab_paths(p, start, cfg, runs, increment_chunks(seeds, 2, cfg.step_count, cfg.step_size))
        quiet = lab_paths(dataclasses.replace(p, noise=NoiseIntensities.zero()), start, cfg, 1, ())[..., 0]
        assert np.all(noisy[0] == 0.01)
        mean, se = noisy[1:].mean(axis=2), noisy[1:].std(axis=2, ddof=1) / math.sqrt(runs)
        z = (mean - quiet[1:]) / se
        assert np.all(np.abs(z) <= 5.0), np.abs(z).max()


def s_noise_only(p, n_s):
    return dataclasses.replace(p, noise=NoiseIntensities(s=n_s, e=0, i=0, r=0, ig=0, f=0))


class TestCrossingProbability:
    @pytest.mark.parametrize(
        "horizon, runs, cases",
        [(200.0, 4000, [(0.05, 0.8), (0.01, 0.95), (0.01, 0.8)]), (800.0, 2000, [(0.01, 0.8)])],
    )
    def test_the_kernel_crosses_as_often_as_the_formula_says(self, horizon, runs, cases, seed_shift):
        # with E = I = 0 and S0 = N each Euler-Maruyama S path is N times a
        # product of (1 + n_S sqrt(h) Z), and R0 enters only the threshold
        # R0 max S / N >= 1; a path watched once a step crosses as the
        # continuous one does with its barrier raised by 0.5826 n_S sqrt(h)
        # (Broadie, Glasserman & Kou 1997), that is, with R0 scaled by
        # exp(-0.5826 n_S sqrt(h))
        p = default_params(noise_level=0.0)
        levels = sorted({n_s for n_s, _ in cases})
        cells = [(s_noise_only(p, n_s), runs) for n_s in levels]
        cfg = IntegratorConfig(0.1, horizon)
        peak = np.full(runs * len(cells), -np.inf)

        def reduce(first, recorded):  # each run's largest S, as run_sweep tracks I
            np.maximum(peak, recorded[:, 0].max(axis=0), out=peak)

        history = HistoryFunction.constant(StateVector(p.population, 0, 0, 0, 0, 0))
        seeds = [derive_seed(31 + seed_shift, j) for j in range(runs * len(cells))]
        stream_model(cells, history, cfg, seeds, reduce)
        peaks = dict(zip(levels, peak.reshape(len(cells), runs) / p.population))
        for n_s, r0 in cases:
            crossed = np.mean(r0 * peaks[n_s] >= 1.0)
            expected = crossing_probability(r0 * math.exp(-0.5826 * n_s * math.sqrt(cfg.step_size)), n_s, horizon)
            assert abs(crossed - expected) <= 4.0 * math.sqrt(expected * (1.0 - expected) / runs), (n_s, r0, crossed)

    @pytest.mark.parametrize(
        "r0, n_s, horizon, expected",
        [(0.8, 0.01, 200.0, 0.102), (0.8, 0.01, 800.0, 0.383), (0.95, 0.01, 200.0, 0.698), (0.8, 0.05, 200.0, 0.664)],
    )
    def test_the_readme_values(self, r0, n_s, horizon, expected):
        assert crossing_probability(r0, n_s, horizon) == pytest.approx(expected, abs=5e-4)

    @pytest.mark.parametrize("r0", [0.3, 0.8, 0.95])
    def test_tends_to_r0_as_the_horizon_grows(self, r0):
        values = [crossing_probability(r0, 0.01, horizon) for horizon in (1e2, 1e4, 1e6, 1e8)]
        assert values == sorted(values) and values[0] < values[-1]
        assert values[-1] == pytest.approx(r0, rel=1e-12)

    def test_is_one_from_the_threshold_on(self):
        assert crossing_probability(1.0, 0.01, 200.0) == 1.0
        assert crossing_probability(2.0, 0.0, 200.0) == 1.0
        # and the formula reaches it continuously from below
        assert crossing_probability(1.0 - 1e-9, 0.01, 200.0) == pytest.approx(1.0, abs=1e-6)

    def test_tends_to_zero_with_the_noise(self):
        values = [crossing_probability(0.8, n_s, 200.0) for n_s in (0.01, 0.005, 0.002, 0.001)]
        assert values == sorted(values, reverse=True) and values[-1] < 1e-50
        assert crossing_probability(0.8, 0.0, 200.0) == 0.0

    @pytest.mark.parametrize(
        "args, message",
        [
            ((0.0, 0.01, 200.0), "crossing.r0: must be > 0, got 0"),
            ((0.8, -0.01, 200.0), "crossing.n_s: must be >= 0, got -0.01"),
            ((0.8, 0.01, float("nan")), "crossing.horizon: must be finite"),
            ((True, 0.01, 200.0), "crossing.r0: must be a number"),
        ],
    )
    def test_bad_inputs_raise_typed_errors(self, args, message):
        with pytest.raises(ConfigurationError, match=message):
            crossing_probability(*args)
