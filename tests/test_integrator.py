import tracemalloc

import numpy as np
import pytest

from oracles import compartment_rhs, rk4_path
from rumorsim import (
    ConfigurationError,
    HistoryFunction,
    IntegratorConfig,
    ModelParams,
    NoiseIntensities,
    NumericsError,
    StateVector,
    default_initial_state,
    default_params,
    integrate,
    second_moment_envelope,
    simulate_paths,
)
from rumorsim.integrator import _NOISE_CHUNK_DRAWS, write_trajectory_csv
from rumorsim.rng import normal_block


def zero_noise(tau=0.0, r0=2.0):
    return default_params(tau=tau, r0=r0, noise_level=0.0)


class TestConfigValidation:
    def test_horizon_must_be_whole_steps(self):
        with pytest.raises(ConfigurationError, match="integer multiple"):
            IntegratorConfig(step_size=0.3, horizon=1.0)

    def test_delay_must_land_on_grid(self, initial_history):
        p = default_params(tau=0.25)
        cfg = IntegratorConfig(step_size=0.1, horizon=10.0)
        with pytest.raises(ConfigurationError, match="tau"):
            integrate(p, initial_history, cfg, 1)

    def test_record_stride_must_divide_steps(self):
        with pytest.raises(ConfigurationError, match="record_stride"):
            IntegratorConfig(step_size=0.1, horizon=1.0, record_stride=3)

    def test_positive_step_and_horizon(self):
        with pytest.raises(ConfigurationError):
            IntegratorConfig(step_size=0.0, horizon=1.0)
        with pytest.raises(ConfigurationError):
            IntegratorConfig(step_size=0.1, horizon=-1.0)


class TestDeterministicMode:
    def test_rumor_free_start_stays_fixed(self):
        p = zero_noise()
        rfe = StateVector(1.0, 0, 0, 0, 0, 0)
        traj = integrate(p, HistoryFunction.constant(rfe), IntegratorConfig(0.1, 20.0), 3)
        assert np.array_equal(traj.states, np.tile(rfe.as_array(), (201, 1)))

    def test_conservation_at_every_point(self):
        p = zero_noise()
        hist = HistoryFunction.constant(default_initial_state(p))
        traj = integrate(p, hist, IntegratorConfig(0.1, 200.0), 5)
        sums = traj.states.sum(axis=1)
        assert np.max(np.abs(sums - p.population)) <= 1e-9 * p.population
        assert traj.projection_event_count == 0

    def test_matches_rk4_oracle(self):
        p = zero_noise()
        x0 = default_initial_state(p)
        h = 0.05
        traj = integrate(p, HistoryFunction.constant(x0), IntegratorConfig(h, 50.0), 9)
        oracle = rk4_path(x0.as_array(), h, 50.0, p.beta, p.sigma_act, p.gamma, p.rho, p.theta)
        gap = np.max(np.abs(traj.states - oracle))
        assert gap <= 5e-3 * p.population

    def test_first_order_convergence(self):
        p = zero_noise()
        x0 = default_initial_state(p)
        gaps = []
        for h, stride in ((0.1, 1), (0.05, 2)):
            traj = integrate(
                p, HistoryFunction.constant(x0),
                IntegratorConfig(h, 50.0, record_stride=stride), 1,
            )
            oracle = rk4_path(x0.as_array(), 0.01, 50.0, p.beta, p.sigma_act, p.gamma, p.rho, p.theta)
            gaps.append(np.max(np.abs(traj.states - oracle[:: round(h / 0.01) * stride])))
        ratio = gaps[1] / gaps[0]
        assert 0.375 <= ratio <= 0.625  # halving h halves the error, +/- 25%


class TestDeterminismContract:
    def test_identical_inputs_identical_output(self, params, initial_history, short_cfg):
        a = integrate(params, initial_history, short_cfg, 1234)
        b = integrate(params, initial_history, short_cfg, 1234)
        assert np.array_equal(a.states, b.states)
        assert a.projection_event_count == b.projection_event_count

    def test_batch_rows_equal_single_runs(self, params, initial_history, short_cfg):
        times, paths, counts = simulate_paths(params, initial_history, short_cfg, [11, 22, 33])
        for idx, seed in enumerate((11, 22, 33)):
            single = integrate(params, initial_history, short_cfg, seed)
            assert np.array_equal(paths[idx], single.states)
            assert counts[idx] == single.projection_event_count

    def test_different_seeds_differ(self, params, initial_history, short_cfg):
        a = integrate(params, initial_history, short_cfg, 1)
        b = integrate(params, initial_history, short_cfg, 2)
        assert not np.array_equal(a.states, b.states)


class TestDelayHandling:
    def test_delay_buffer_matches_independent_recursion(self):
        # re-simulate the Euler recursion in plain Python, reading the
        # stored path at n - k and the history before that
        p = default_params(tau=2.0, r0=2.0, noise_level=0.02)
        x0 = default_initial_state(p)
        hist = HistoryFunction.constant(x0)
        h, horizon, seed = 0.5, 30.0, 321
        traj = integrate(p, hist, IntegratorConfig(h, horizon), seed)

        n = round(horizon / h)
        k = round(p.tau / h)
        increments = normal_block(seed, n, 6) * np.sqrt(h)
        noise = p.noise.as_array()
        path = [x0.as_array()]
        for step in range(n):
            x = path[step]
            i_tau = path[step - k][2] if step >= k else x0.i
            d = compartment_rhs(x, p.beta, p.sigma_act, p.gamma, p.rho, p.theta)
            d[0] = -p.beta * x[0] * i_tau
            d[1] = p.beta * x[0] * i_tau - p.sigma_act * x[1]
            nxt = x + d * h + noise * x * increments[step]
            path.append(np.maximum(nxt, 0.0))
        np.testing.assert_allclose(traj.states, np.array(path), rtol=0, atol=1e-14)

    def test_sampled_history_feeds_early_steps(self):
        # ramp history: known delayed spreader values before t reaches tau
        p = default_params(tau=1.0, r0=2.0, noise_level=0.0)
        early = StateVector(0.995, 0, 0.005, 0, 0, 0)
        late = StateVector(0.985, 0, 0.015, 0, 0, 0)
        hist = HistoryFunction.sampled([early, late], span=1.0)
        h = 0.5
        traj = integrate(p, hist, IntegratorConfig(h, 1.0), 0)
        # first step uses I(-1.0) = 0.005 from the ramp start
        expected_s1 = 0.985 - p.beta * 0.985 * 0.005 * h
        assert traj.states[1, 0] == pytest.approx(expected_s1, rel=1e-12)
        # second step uses I(-0.5), the ramp midpoint 0.010
        expected_s2 = traj.states[1, 0] - p.beta * traj.states[1, 0] * 0.010 * h
        assert traj.states[2, 0] == pytest.approx(expected_s2, rel=1e-12)

    def test_zero_delay_uses_current_state(self):
        p = zero_noise(tau=0.0)
        x0 = default_initial_state(p)
        traj = integrate(p, HistoryFunction.constant(x0), IntegratorConfig(0.1, 0.1), 0)
        d = compartment_rhs(x0.as_array(), p.beta, p.sigma_act, p.gamma, p.rho, p.theta)
        np.testing.assert_allclose(traj.states[1], x0.as_array() + 0.1 * d, rtol=1e-15)


class TestProjection:
    # a single Euler step crosses zero only when sigma * sqrt(h) * |Z|
    # beats the remaining mass, so these need strong noise to exercise
    # the clamp; beta = 0 keeps the strong-noise dynamics linear
    @staticmethod
    def _rough_params():
        return ModelParams(
            beta=0.0, sigma_act=0.25, gamma=0.1, rho=0.05, theta=0.1,
            noise=NoiseIntensities.uniform(2.0),
        )

    @staticmethod
    def _spread_start():
        return HistoryFunction.constant(StateVector(0.4, 0.2, 0.1, 0.1, 0.1, 0.1))

    def test_projection_keeps_states_nonnegative(self):
        traj = integrate(
            self._rough_params(), self._spread_start(), IntegratorConfig(0.1, 20.0), 8
        )
        assert np.min(traj.states) >= 0.0
        assert traj.projection_event_count > 0

    def test_disabled_projection_counts_nothing(self):
        cfg = IntegratorConfig(0.1, 20.0, projection_enabled=False)
        traj = integrate(self._rough_params(), self._spread_start(), cfg, 8)
        assert traj.projection_event_count == 0
        assert np.min(traj.states) < 0.0  # this noise level does push below zero


class TestRecording:
    def test_stride_grid_includes_endpoints(self, params, initial_history):
        cfg = IntegratorConfig(0.1, 50.0, record_stride=5)
        traj = integrate(params, initial_history, cfg, 2)
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(50.0)
        assert traj.times.size == cfg.recorded_count
        np.testing.assert_allclose(np.diff(traj.times), 0.5, rtol=1e-12)

    def test_stride_subsamples_full_resolution(self, params, initial_history):
        full = integrate(params, initial_history, IntegratorConfig(0.1, 50.0), 2)
        coarse = integrate(
            params, initial_history, IntegratorConfig(0.1, 50.0, record_stride=5), 2
        )
        assert np.array_equal(coarse.states, full.states[::5])


class TestNumericGuards:
    def test_nonfinite_state_raises(self):
        p = ModelParams(beta=1e155, sigma_act=0.25, gamma=0.1, rho=0.05, theta=0.1,
                        noise=NoiseIntensities.zero(), population=1.005)
        hist = HistoryFunction.constant(StateVector(1.0, 0, 0.005, 0, 0, 0))
        cfg = IntegratorConfig(0.1, 10.0, projection_enabled=False)
        with np.errstate(over="ignore"), pytest.raises(NumericsError, match="non-finite"):
            integrate(p, hist, cfg, 1)


class TestMemory:
    def test_peak_scales_with_recorded_rows(self):
        # no full-horizon state or increment array: the peak stays within
        # twice the recorded paths plus the delay ring and one noise chunk
        p = default_params(tau=5.0, r0=2.0)
        hist = HistoryFunction.constant(default_initial_state(p))
        cfg = IntegratorConfig(0.1, 200.0, record_stride=10)
        runs, k = 500, 50
        recorded = runs * cfg.recorded_count * 6 * 8
        ring = (k + 1) * runs * 8
        chunk = _NOISE_CHUNK_DRAWS * 8
        tracemalloc.start()
        try:
            _, paths, _ = simulate_paths(p, hist, cfg, range(runs))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert paths.nbytes == recorded
        assert peak < 2 * (recorded + ring + chunk)


class TestMomentEnvelope:
    def test_envelope_dominates_ensemble_second_moment(self):
        p = default_params(tau=0.0, r0=2.0)
        hist = HistoryFunction.constant(default_initial_state(p))
        times, paths, _ = simulate_paths(p, hist, IntegratorConfig(0.1, 50.0), range(30))
        mean_sq = (paths**2).sum(axis=2).mean(axis=0)
        v0 = float((hist(0.0) ** 2).sum())
        envelope = second_moment_envelope(p, v0, times)
        assert np.all(np.isfinite(mean_sq))
        # equality holds exactly at t = 0, strict dominance after
        assert np.all(mean_sq <= envelope)
        assert np.all(mean_sq[1:] < envelope[1:])

    def test_envelope_saturates_instead_of_overflowing(self, params):
        env = second_moment_envelope(params, 1.0, np.array([0.0, 1e6]))
        assert np.all(np.isfinite(env))


class TestTrajectoryCsv:
    def test_header_and_round_trip(self, tmp_path, params, initial_history):
        traj = integrate(params, initial_history, IntegratorConfig(0.1, 5.0), 6)
        out = tmp_path / "traj.csv"
        write_trajectory_csv(traj, out)
        text = out.read_text()
        lines = text.splitlines()
        assert lines[0] == "t,S,E,I,R,Ig,F"
        assert len(lines) == 1 + traj.times.size
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        np.testing.assert_allclose(data[:, 0], traj.times, rtol=1e-8)
        np.testing.assert_allclose(data[:, 1:], traj.states, rtol=1e-8)

    def test_nine_significant_digits(self, tmp_path, params, initial_history):
        traj = integrate(params, initial_history, IntegratorConfig(0.1, 1.0), 6)
        out = tmp_path / "traj.csv"
        write_trajectory_csv(traj, out)
        row = out.read_text().splitlines()[2].split(",")
        assert row[1] == "%.9g" % traj.states[1, 0]
