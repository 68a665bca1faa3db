import csv
import dataclasses
import functools
import io
import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import compartment_rhs, recorder, rk4_path, weak_noise_ratios
from strategies import RUNNABLE_CONFIGS
from rumorsim import (
    ConfigurationError,
    HistoryFunction,
    IntegratorConfig,
    ModelParams,
    NoiseIntensities,
    NumericsError,
    StateVector,
    SweepSpec,
    default_initial_state,
    default_params,
    derive_seed,
    integrate,
    run_ensemble,
    run_sweep,
    second_moment_envelope,
    simulate_linearized,
    simulate_paths,
)
from rumorsim.config import from_dict
from rumorsim.integrator import (
    _INF_BITS,
    Trajectory,
    _stream_one,
    block_rows,
    check_memory,
    delay_steps,
    euler_maruyama,
    stream_model,
    write_table,
    write_trajectory_csv,
)
from rumorsim.model import _drift_with_delayed_i
from rumorsim.rng import _NOISE_CHUNK_DRAWS, increment_chunks, normal_block, seed_array
from rumorsim.stability import _linearized_drift


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


def one_run_and_batch_row(p, history, cfg, seed):
    """``integrate(seed)`` and row 0 of the batch ``[seed, seed]``, each as
    the bytes of its states and its clamp count, or as the text, step and
    run of the :class:`NumericsError` it raised."""

    def outcome(call):
        try:
            states, count = call()
        except NumericsError as exc:
            return str(exc), exc.step, exc.run
        return states.tobytes(), int(count)

    def one():
        traj = integrate(p, history, cfg, seed)
        return traj.states, traj.projection_event_count

    def row():
        _, paths, counts = simulate_paths(p, history, cfg, [seed, seed])
        return paths[0], counts[0]

    return outcome(one), outcome(row)


def _rough(tau=0.0, **noise):
    # strong noise; beta = 0 keeps it linear and finite while it clamps
    return ModelParams(
        beta=0.0, sigma_act=0.25, gamma=0.1, rho=0.05, theta=0.1, tau=tau,
        noise=dataclasses.replace(NoiseIntensities.uniform(2.0), **noise),
    )


_SPREAD = StateVector(0.4, 0.2, 0.1, 0.1, 0.1, 0.1)
_RAMP = [StateVector(1.0 - i, 0.0, i, 0.0, 0.0, 0.0) for i in (0.002, 0.01, 0.02)]
_ONE_RUN_CASES = {
    # name: (params, history, integrator config, clamps expected)
    "tau_zero": (default_params(tau=0.0, noise_level=0.5), None, IntegratorConfig(0.1, 20.0), None),
    "tau_on_grid": (default_params(tau=2.5, noise_level=0.5), None, IntegratorConfig(0.1, 20.0), None),
    "tau_beyond_horizon": (default_params(tau=50.0, noise_level=0.5), None, IntegratorConfig(0.1, 20.0), None),
    "sampled_history": (
        default_params(tau=1.5, noise_level=0.5), HistoryFunction.sampled(_RAMP, span=2.0),
        IntegratorConfig(0.1, 20.0), None,
    ),
    "record_stride_5": (default_params(tau=2.0), None, IntegratorConfig(0.1, 20.0, record_stride=5), None),
    "zero_noise": (default_params(tau=2.0, noise_level=0.0), None, IntegratorConfig(0.1, 20.0), False),
    # the noise term reaches F, of intensity 0: at -0.0, with seed 8's
    # negative draw in step 1 and no clamp, it makes F +0.0
    "one_zero_intensity": (
        _rough(tau=1.0, f=0.0), HistoryFunction.constant(StateVector(0.5, 0.2, 0.1, 0.2, -0.0, -0.0)),
        IntegratorConfig(0.1, 20.0), True,
    ),
    "projection_off": (
        _rough(), HistoryFunction.constant(_SPREAD), IntegratorConfig(0.1, 20.0, projection_enabled=False), False,
    ),
    "clamped_strong_noise": (_rough(tau=0.5), HistoryFunction.constant(_SPREAD), IntegratorConfig(0.1, 20.0), True),
    # with seed 8, R stays -0.0 in step 1, which clamps F: the clamp
    # makes R +0.0
    "negative_zero_clamped": (
        _rough(), HistoryFunction.constant(StateVector(0.5, 0.2, -0.0, -0.0, 0.2, 0.1)),
        IntegratorConfig(0.1, 20.0), True,
    ),
    "non_finite": (
        ModelParams(beta=1e155, sigma_act=0.25, gamma=0.1, rho=0.05, theta=0.1, noise=NoiseIntensities.uniform(0.1),
                    population=1.005),
        HistoryFunction.constant(StateVector(1.0, 0, 0.005, 0, 0, 0)),
        IntegratorConfig(0.1, 10.0, projection_enabled=False), None,
    ),
    # Python ints, one beyond the int64 and uint64 ranges, as the config
    # file's rules let them through
    "integer_rates": (
        ModelParams(beta=1, sigma_act=1, gamma=1, rho=1, theta=2**64, population=1,
                    noise=NoiseIntensities.uniform(0.5)),
        None, IntegratorConfig(0.1, 2.0), None,
    ),
}


class TestOneRunPath:
    """One seed is stepped in Python floats and a batch in the numpy
    kernel; both give the same bits, clamp counts and errors."""

    @pytest.mark.parametrize("case", list(_ONE_RUN_CASES))
    def test_one_run_is_a_batch_row(self, case):
        p, history, cfg, clamps = _ONE_RUN_CASES[case]
        history = history or HistoryFunction.constant(default_initial_state(p))
        one, row = one_run_and_batch_row(p, history, cfg, 8)
        assert one == row
        if clamps is not None:
            assert (one[1] > 0) == clamps
        if case == "non_finite":
            assert one[0].startswith("non-finite state at step")
        else:
            assert len(one[0]) == cfg.recorded_count * 6 * 8

    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(data=RUNNABLE_CONFIGS, seed=st.integers(-(2**64), 2**65))
    def test_any_runnable_config(self, data, seed):
        try:
            cfg = from_dict({block: data[block] for block in ("model", "integrator") if block in data})
        except ConfigurationError:
            assume(False)
        history = HistoryFunction.constant(cfg.initial)
        one, row = one_run_and_batch_row(cfg.model, history, cfg.integrator, seed)
        assert one == row

    @pytest.mark.filterwarnings("ignore::rumorsim.ensemble.FinalSizeHorizonWarning")
    @pytest.mark.parametrize("entry", ["ensemble", "sweep"])
    def test_one_run_entries_take_the_float_stepper(self, entry, monkeypatch):
        # a one-run ensemble or sweep never reaches the batch kernel, and
        # its statistics read the bits of row 0 of the batch [s, s]
        p = default_params(tau=2.5, r0=2.0, noise_level=0.5)
        hist = HistoryFunction.constant(default_initial_state(p))
        cfg = IntegratorConfig(0.1, 20.0)
        spec = SweepSpec(
            taus=(p.tau,), r0_values=(1.5,), run_count=1, base_seed=7, template=p, integrator=cfg
        )
        if entry == "sweep":
            p = dataclasses.replace(p, beta=spec.beta_for(1.5))
            s = derive_seed(derive_seed(spec.base_seed, 0, 0), 0)
        else:
            s = derive_seed(7, 0)
        times, paths, _ = simulate_paths(p, hist, cfg, [s, s])
        row = paths[0]
        peak, final = row[:, 2].max(keepdims=True), row[-1, 3:4] + row[-1, 5:6]

        def batch_kernel(*args):
            raise AssertionError("the batch kernel stepped a single run")

        monkeypatch.setattr("rumorsim.integrator.euler_maruyama", batch_kernel)
        if entry == "sweep":
            (cell,) = run_sweep(spec).cells
            assert (cell.peak_mean, cell.final_mean) == (float(peak[0]), float(final[0]))
            return
        result = run_ensemble(p, hist, cfg, 1, 7)
        assert result.summary.mean.tobytes() == row.tobytes()
        m = result.metrics
        assert m.peak_values.tobytes() == peak.tobytes()
        assert m.peak_times.tobytes() == times[[np.argmax(row[:, 2])]].tobytes()
        assert m.final_sizes.tobytes() == final.tobytes()

    def test_rows_pack_in_place_into_blocks_of_six_contiguous_doubles(self, monkeypatch):
        # every block size hands over the bits of one whole block, in order,
        # each row six contiguous doubles of a (rows, 6, 1) view
        p = default_params(tau=0.0, r0=2.0, noise_level=0.3)
        hist = HistoryFunction.constant(default_initial_state(p))
        cfg = IntegratorConfig(0.1, 5.0, record_stride=5)

        def run(block):
            monkeypatch.setattr("rumorsim.integrator._STATS_BLOCK_VALUES", block * 6)
            rows = []

            def keep(first, recorded):
                assert recorded.shape == (len(recorded), 6, 1) and recorded.flags.c_contiguous
                assert first == sum(map(len, rows)) and 0 < len(recorded) <= block
                rows.append(recorded.copy())

            terminal, _ = stream_model([(p, 1)], hist, cfg, [9], keep)
            return terminal, np.concatenate(rows)

        terminal, whole = run(cfg.recorded_count)
        assert terminal.shape == (6, 1) and terminal.tobytes() == whole[-1].tobytes()
        assert whole.shape == (cfg.recorded_count, 6, 1)
        for block in (1, 2, 3, 4, cfg.recorded_count - 1):
            assert run(block)[1].tobytes() == whole.tobytes(), block

    def test_memory_is_rows_ring_and_one_chunk(self):
        # 20,000 steps: no per-step state or increment is held
        p = default_params(tau=5.0, r0=2.0)
        hist = HistoryFunction.constant(default_initial_state(p))
        cfg = IntegratorConfig(0.1, 2000.0, record_stride=10)
        k = 50
        recorded = cfg.recorded_count * 6 * 8
        ring = (k + 1) * 8
        chunk = _NOISE_CHUNK_DRAWS * 8
        tracemalloc.start()
        try:
            traj = integrate(p, hist, cfg, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cfg.step_count == 20_000 and traj.states.nbytes == recorded
        assert peak < 2 * (recorded + ring + chunk)


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

    @pytest.mark.parametrize("seeds", [[2], [2, 3, 4]])
    def test_paths_do_not_depend_on_the_block_size(self, monkeypatch, params, initial_history, seeds):
        # the paths are copied block by block from either stepper: blocks
        # of 1, 4 and 7 of the 101 rows give the bytes of one whole block
        cfg = IntegratorConfig(0.1, 50.0, record_stride=5)
        whole = simulate_paths(params, initial_history, cfg, seeds)
        assert block_rows(cfg, 6 * len(seeds)) == cfg.recorded_count == 101
        for rows in (1, 4, 7):
            monkeypatch.setattr("rumorsim.integrator._STATS_BLOCK_VALUES", rows * 6 * len(seeds))
            assert block_rows(cfg, 6 * len(seeds)) == rows
            for got, want in zip(simulate_paths(params, initial_history, cfg, seeds), whole):
                assert got.tobytes() == want.tobytes(), rows


class TestNumericGuards:
    def test_nonfinite_state_raises(self):
        p = ModelParams(beta=1e155, sigma_act=0.25, gamma=0.1, rho=0.05, theta=0.1,
                        noise=NoiseIntensities.zero(), population=1.005)
        hist = HistoryFunction.constant(StateVector(1.0, 0, 0.005, 0, 0, 0))
        cfg = IntegratorConfig(0.1, 10.0, projection_enabled=False)
        with np.errstate(over="ignore"), pytest.raises(NumericsError, match="non-finite"):
            integrate(p, hist, cfg, 1)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: Trajectory(np.zeros(3), np.zeros((3, 5)), 0), r"states must be \(len\(times\), 6\)"),
            (lambda: Trajectory(np.zeros(3), np.zeros((2, 6)), 0), r"states must be \(len\(times\), 6\)"),
            (lambda: simulate_paths(zero_noise(), HistoryFunction.constant(default_initial_state(zero_noise())),
                                    IntegratorConfig(0.1, 1.0), []), "at least one seed is required"),
        ],
        ids=["trajectory-width", "trajectory-rows", "no-seeds"],
    )
    def test_malformed_inputs_raise(self, build, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build()


class TestKernel:
    def test_mixed_delay_batch_equals_per_delay_batches(self, monkeypatch):
        # groups of (tau, runs) in one batch, read from a sampled history:
        # k = 0, 25 and a delay capped at the horizon; delays out of order
        # with k = 0 between two rings; groups of one run; every group
        # repeats the same seeds
        p = default_params(r0=2.5, noise_level=1.0)
        history = HistoryFunction.sampled(
            [[1.0 - i, 0.0, i, 0.0, 0.0, 0.0] for i in np.linspace(0.002, 0.02, 6)], span=50.0
        )
        cfg = IntegratorConfig(0.1, 10.0, record_stride=2)
        assert [delay_steps(tau, cfg) for tau in (0.0, 2.5, 5.0, 10.0, 50.0)] == [0, 25, 50, 100, cfg.step_count]

        def run(cells, seeds):
            rows, keep = recorder(cfg, 6, len(seeds))
            monkeypatch.setattr("rumorsim.integrator._STATS_BLOCK_VALUES", 3 * 6 * len(seeds))
            terminal, counts = stream_model(cells, history, cfg, seeds, keep)
            return rows, terminal, counts

        layouts = [
            [(0.0, 4), (2.5, 4), (50.0, 4)],
            [(10.0, 3), (0.0, 2), (5.0, 3)],
            [(2.5, 1), (50.0, 2), (0.0, 1), (1.0, 3)],
        ]
        clamped = False
        for delays in layouts:
            seeds = [seed for _, n in delays for seed in range(n)]
            mixed = run([(dataclasses.replace(p, tau=tau), n) for tau, n in delays], seeds)
            clamped |= mixed[2].any()
            first = 0
            for tau, n in delays:
                alone = run([(dataclasses.replace(p, tau=tau), n)], range(n))
                cols = slice(first, first + n)
                assert np.array_equal(mixed[0][..., cols], alone[0]), (delays, tau)
                assert np.array_equal(mixed[1][:, cols], alone[1]), (delays, tau)
                assert np.array_equal(mixed[2][cols], alone[2]), (delays, tau)
                first += n
            # the first run of every group has seed 0, and each delay its own path
            starts = np.cumsum([0] + [n for _, n in delays[:-1]])
            assert len({mixed[1][:, j].tobytes() for j in starts}) == len(delays)
        assert clamped  # some steps were clamped

    @pytest.mark.parametrize("runs", [[3], [1, 2], [2, 3]])
    def test_cells_must_hold_one_run_per_seed(self, runs):
        cfg = IntegratorConfig(0.1, 1.0)
        p = default_params()
        cells = [(dataclasses.replace(p, tau=0.5 * j), n) for j, n in enumerate(runs)]
        history = HistoryFunction.constant(default_initial_state(p))
        with pytest.raises(ValueError, match=f"the cells hold {sum(runs)} runs for 4 seeds"):
            stream_model(cells, history, cfg, [1, 2, 3, 4], lambda first, rows: None)

    def test_weak_noise_order_with_common_random_numbers(self, seed_shift):
        # with projection off each run is a polynomial in the noise level
        # eps for fixed draws, so 2 m(eps) - 3 m(2 eps) + m(4 eps) of the
        # terminal means cancels the zero-noise path and the O(eps) term
        # exactly, leaving 6 eps^2 B + O(eps^3): its ratio at eps and eps / 2
        # tends to 4 at order eps.  The O(eps) coefficient is a sample
        # quantity, so the five levels run as cells of one batch of 1,000
        # runs each
        p = default_params(tau=5.0, r0=2.0)
        history = HistoryFunction.constant(default_initial_state(p))
        cfg = IntegratorConfig(0.1, 50.0, projection_enabled=False, record_stride=10)
        seeds, eps = range(1000 * seed_shift, 1000 * seed_shift + 1000), 0.0025
        levels = [eps * 2.0**k for k in range(-1, 4)]  # the levels weak_noise_ratios reads
        cells = [(dataclasses.replace(p, noise=NoiseIntensities.uniform(level)), len(seeds)) for level in levels]
        rows, keep = recorder(cfg, 6, len(cells) * len(seeds))
        stream_model(cells, history, cfg, list(seeds) * len(cells), keep)
        for c, cell in enumerate(cells):
            alone, keep = recorder(cfg, 6, len(seeds))
            stream_model([cell], history, cfg, seeds, keep)
            assert np.array_equal(rows[..., c * len(seeds) : (c + 1) * len(seeds)], alone), cell
        means = dict(zip(levels, rows[-1].reshape(6, len(cells), len(seeds)).mean(axis=2).T))
        coarse, fine = weak_noise_ratios(means.__getitem__, eps)
        assert np.all(np.abs(fine - 4.0) < 0.1), fine
        assert np.all(np.abs(np.log2(coarse * fine) / 2 - 2.0) < 0.5), (coarse, fine)  # the order of all five levels

    @staticmethod
    def _model_steppers(project, monkeypatch):
        """A run of each model stepper on hand-made increments in uneven
        chunks, and no seed, with a delay ring and noise strong enough that
        projected steps clamp: ``run(stepper, poison)`` returns the rows it
        was handed, in blocks of 4, the terminal state and the clamp count;
        with ``poison`` its ``reduce`` fills the rows with NaN once it has
        copied them."""
        monkeypatch.setattr("rumorsim.integrator._STATS_BLOCK_VALUES", 4 * 6)
        p = default_params(tau=0.5, r0=2.5, noise_level=1.5)
        cfg = IntegratorConfig(0.1, 30.0, projection_enabled=project, record_stride=3)
        rates = [p.beta, p.gamma, p.rho, p.sigma_act, p.theta]
        start = default_initial_state(p).as_array()
        early = np.linspace(0.001, 0.02, delay_steps(p.tau, cfg))
        draws = np.random.default_rng(5).standard_normal((cfg.step_count, 6, 1)) * math.sqrt(cfg.step_size)
        chunks = np.array_split(draws, 7)
        operands = {
            _stream_one: (rates, start, early),
            euler_maruyama: (functools.partial(_drift_with_delayed_i, rates), start, [(1, early)], 2),
        }

        def run(stepper, poison=False):
            rows = []

            def keep(first, recorded):
                rows.append(recorded.copy())
                if poison:
                    recorded[...] = np.nan

            terminal, counts = stepper(*operands[stepper], p.noise.as_array(), chunks, cfg, keep, project)
            return np.concatenate(rows), terminal, counts

        return cfg, run

    @pytest.mark.parametrize("project", [True, False])
    def test_both_model_steppers_take_the_same_steps_on_the_same_increments(self, project, monkeypatch):
        # the float stepper and a one-run kernel on the model's drift give
        # the same bits, recorded rows and clamp count
        cfg, run = self._model_steppers(project, monkeypatch)
        one, batch = run(_stream_one), run(euler_maruyama)
        assert one[0].shape == (cfg.recorded_count, 6, 1)
        for got, want in zip(one, batch):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert bool(one[2][0] > 0) == project

    @pytest.mark.parametrize("project", [True, False])
    @pytest.mark.parametrize("stepper", [_stream_one, euler_maruyama])
    def test_a_reduce_may_overwrite_the_rows_it_is_handed(self, stepper, project, monkeypatch):
        # neither stepper reads a row again once it is handed over, so
        # overwriting every row changes no row, terminal bit or clamp count
        _, run = self._model_steppers(project, monkeypatch)
        for got, want in zip(run(stepper, poison=True), run(stepper)):
            assert not np.isnan(got).any() and got.tobytes() == want.tobytes()

    def test_a_batch_error_names_the_failing_runs_seed(self):
        # the steppers name the step and the run index; stream_model adds
        # the run's seed, reduced to uint64, on the one-run and batch paths
        bad = ModelParams(beta=1e155, sigma_act=0.25, gamma=0.1, rho=0.05, theta=0.1,
                          noise=NoiseIntensities.zero(), population=1.005)
        hist = HistoryFunction.constant(StateVector(1.0, 0, 0.005, 0, 0, 0))
        cfg = IntegratorConfig(0.1, 10.0, projection_enabled=False)

        def failure(cells, seeds):
            with np.errstate(over="ignore"), pytest.raises(NumericsError) as failed:
                stream_model(cells, hist, cfg, seeds, lambda first, rows: None)
            return failed.value

        alone = failure([(bad, 1)], [2**64 + 13])
        batch = failure([(dataclasses.replace(bad, beta=0.25), 2), (bad, 2)], [11, 12, 2**64 + 13, 14])
        where = f"non-finite state at step {alone.step} (t={alone.step * cfg.step_size:g})"
        assert (alone.run, str(alone)) == (0, f"{where} in run index 0 (seed 13)")
        assert (batch.step, batch.run, str(batch)) == (alone.step, 2, f"{where} in run index 2 (seed 13)")

    @pytest.mark.parametrize("empty_first", [True, False])
    def test_a_cell_of_no_runs_changes_no_run(self, empty_first):
        # the one-run path takes its delay and rates from the cell that holds the run
        p = default_params(tau=0.0, r0=2.0, noise_level=0.3)
        q = dataclasses.replace(p, tau=5.0, beta=1.5 * p.beta)
        history = HistoryFunction.constant(default_initial_state(p))
        cfg = IntegratorConfig(0.1, 20.0)

        def rows(cells):
            recorded, keep = recorder(cfg, 6, 1)
            stream_model(cells, history, cfg, [7], keep)
            return recorded.tobytes()

        assert rows([(p, 0), (q, 1)] if empty_first else [(q, 1), (p, 0)]) == rows([(q, 1)])

    def test_probe_reports_the_failure_an_exact_scan_finds_first(self):
        self._assert_probe_matches_scan(project=False, k=0)

    @pytest.mark.parametrize("project, k", [(True, 0), (False, 3), (True, 3)])
    def test_probe_reports_it_with_or_without_a_ring_or_projection(self, project, k):
        # k = 0 reads the state's own row as the delayed one, k = 3 a ring
        self._assert_probe_matches_scan(project, k)

    @staticmethod
    def _assert_probe_matches_scan(project, k):
        # each run grows by the factor 1 + rate per step, so the runs
        # overflow at different steps; the later runs overflow first
        rates = np.array([0.0, 3e3, 0.0, 1e6, 1e6])

        def drift(x, out):
            def step(delayed):
                for xc, oc in zip(x, out):
                    np.multiply(rates, xc, out=oc)

            return step

        cfg = IntegratorConfig(1.0, 200.0, projection_enabled=False)
        first_step = []
        for rate in rates.tolist():  # exact scan, one run at a time in Python floats
            x, step = 1.0, None
            for n in range(1, cfg.step_count + 1):
                x = rate * x * 1.0 + x
                if not np.isfinite(x):
                    step = n
                    break
            first_step.append(step or np.inf)
        step = min(first_step)
        assert step < max(s for s in first_step if s < np.inf)
        with pytest.raises(NumericsError) as failed:
            euler_maruyama(
                drift, (1.0, 1.0), [(rates.size, [1.0] * k)], 0, np.zeros(2), (),
                cfg, lambda first, rows: None, project,
            )
        assert failed.value.step == step
        assert failed.value.run == first_step.index(step)
        assert str(failed.value).endswith(f" (t={step:g}) in run index {failed.value.run}")

    def test_finite_states_whose_sum_overflows_do_not_fail(self):
        def drift(x, out):
            def step(delayed):
                for oc in out:
                    oc[...] = 0.0

            return step

        terminal, _ = euler_maruyama(
            drift, (1e308, 1e308), [(3, [])], 0, np.zeros(2), (),
            IntegratorConfig(1.0, 5.0), lambda first, rows: None, True,
        )
        assert np.all(terminal == 1e308)

    # start -> {projection: terminal second component, or (step, run) of
    # the error}; the first component is 1.0, the three runs alike
    _SCREENED = {
        "+0.0": (0.0, {True: 0.0, False: 0.0}),
        "-0.0": (-0.0, {True: -0.0, False: -0.0}),
        "-1e-300": (-1e-300, {True: 0.0, False: -1e-300}),
        "+inf": (np.inf, {True: (1, 0), False: (1, 0)}),
        "-inf": (-np.inf, {True: 0.0, False: (1, 0)}),
        "nan": (np.nan, {True: (1, 0), False: (1, 0)}),
        "-nan": (-np.nan, {True: (1, 0), False: (1, 0)}),
    }

    @pytest.mark.parametrize("project", [True, False])
    @pytest.mark.parametrize("start", [*_SCREENED, "sum_overflow"])
    def test_every_check_runs_on_states_the_screen_rejects(self, start, project):
        # a zero drift that keeps each entry's sign, so -0.0 stays -0.0;
        # the expected outcomes are those of the min, clamp and sum checks
        def drift(x, out):
            def step(delayed):
                for xc, oc in zip(x, out):
                    np.copysign(0.0, xc, out=oc)

            return step

        if start == "sum_overflow":
            first, (value, outcomes) = 1e308, (1e308, {True: 1e308, False: 1e308})
        else:
            first, (value, outcomes) = 1.0, self._SCREENED[start]
        expected = outcomes[project]
        try:
            terminal, counts = euler_maruyama(
                drift, (first, value), [(3, [])], 0, np.zeros(2), (),
                IntegratorConfig(1.0, 3.0), lambda first, rows: None, project,
            )
        except NumericsError as exc:
            assert (exc.step, exc.run) == expected
            return
        assert terminal.tobytes() == np.array([[first] * 3, [expected] * 3]).tobytes()
        clamped = project and np.signbit(value) and value != 0.0
        assert counts.tolist() == [int(clamped)] * 3


class TestStrongOrder:
    """Euler-Maruyama converges at strong order 1/2 (Buckwar 2000, J.
    Comput. Appl. Math. 125; Higham 2001, SIAM Rev. 43): the kernel steps
    one set of paths at ``h = m h_ref``, each coarse increment the sum of
    ``m`` consecutive fine ones of each seed's counter stream, and the
    error ``E|X_h(T) - X_ref(T)|`` against the path at ``h_ref`` falls
    with a fitted log-log slope near 1/2.  The delay lies on every grid."""

    H_REF, MS, HORIZON, TAU, RUNS = 0.0125, (8, 16, 32, 64), 8.0, 1.6, 1000

    def seeds(self, shift):
        """The runs' seeds at seed shift ``shift``, each shift a disjoint set."""
        return range(self.RUNS * shift, self.RUNS * (shift + 1))

    def slope(self, drift, start, delayed_column, noise, seeds):
        fine_steps = round(self.HORIZON / self.H_REF)
        fine = np.concatenate(list(increment_chunks(seed_array(seeds), len(start), fine_steps, self.H_REF)))

        def terminal(m):
            cfg = IntegratorConfig(m * self.H_REF, self.HORIZON, projection_enabled=False)
            coarse = fine.reshape(fine_steps // m, m, *fine.shape[1:]).sum(axis=1)
            early = np.full(delay_steps(self.TAU, cfg), start[delayed_column])
            x, _ = euler_maruyama(
                drift, start, [(self.RUNS, early)], delayed_column, noise, [coarse], cfg, lambda first, rows: None, False,
            )
            return x

        reference = terminal(1)
        errors = [np.linalg.norm(terminal(m) - reference, axis=0).mean() for m in self.MS]
        return np.polyfit(np.log(np.array(self.MS) * self.H_REF), np.log(errors), 1)[0], reference

    def test_linearized_pair(self, seed_shift):
        # the lab's kernel: (E, I)' = (bN I(t - tau) - sigma E, sigma E - (gamma + rho) I)
        p = default_params(tau=self.TAU, r0=2.0)
        drift, seeds = functools.partial(_linearized_drift, p), self.seeds(seed_shift)
        slope, _ = self.slope(drift, (0.01, 0.01), 1, np.array([0.4, 0.4]), seeds)
        assert 0.4 <= slope <= 0.6, slope

    def test_full_model_without_projection(self, seed_shift):
        p = default_params(tau=self.TAU, r0=2.0, noise_level=0.3)
        rates = [p.beta, p.gamma, p.rho, p.sigma_act, p.theta]
        start = default_initial_state(p).as_array()
        drift, seeds = functools.partial(_drift_with_delayed_i, rates), self.seeds(seed_shift)
        slope, reference = self.slope(drift, start, 2, p.noise.as_array(), seeds)
        assert 0.4 <= slope <= 0.6, slope
        # the fine increments are the ones stream_model draws for these seeds
        cfg = IntegratorConfig(self.H_REF, self.HORIZON, projection_enabled=False)
        history = HistoryFunction.constant(default_initial_state(p))
        terminal, _ = stream_model([(p, self.RUNS)], history, cfg, seeds, lambda first, rows: None)
        assert terminal.tobytes() == reference.tobytes()


def _bits_of(*values):
    return np.array(values, dtype=float).view(np.uint64).tolist()


# +-0.0, +-inf, NaNs with either sign bit (quiet and signalling), the
# smallest and largest subnormals, and finite values near 1e200
_SPECIAL_BITS = [
    *_bits_of(0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324, 1e200, -1e200, 3e200),
    0x7FF0000000000001, 0xFFF0000000000001, 0x000FFFFFFFFFFFFF, 0x800FFFFFFFFFFFFF,
    0x7FEFFFFFFFFFFFFF, 0x7FF8000000000001,
]
_SCREEN_WIDTHS = [1, 2, 400, 600, 12_000]


class TestStepScreens:
    """The projected step's ``argmax`` screen decides as the largest entry
    read unsigned does, and the finiteness screen's dot product is
    non-finite whenever an entry is."""

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(
        width=st.sampled_from(_SCREEN_WIDTHS),
        seed=st.integers(0, 2**32 - 1),
        fill=st.sampled_from(["any", "finite", "positive", "special"]),
        placed=st.lists(
            st.tuples(st.integers(0, 2**64 - 1) | st.sampled_from(_SPECIAL_BITS), st.floats(0.0, 1.0)),
            max_size=4,
        ),
    )
    def test_screens_decide_as_the_exact_checks(self, width, seed, fill, placed):
        rng = np.random.default_rng(seed)
        if fill == "any":  # any of the 2**64 patterns
            bits = rng.integers(0, 2**64, size=width, dtype=np.uint64)
        elif fill == "special":
            bits = rng.choice(np.array(_SPECIAL_BITS, dtype=np.uint64), size=width)
        else:  # finite values near 1e200, of both signs or positive only
            values = rng.uniform(-3e200 if fill == "finite" else 0.0, 3e200, size=width)
            bits = values.view(np.uint64)
        for pattern, where in placed:
            bits[min(int(where * width), width - 1)] = pattern
        flat = bits.view(np.float64)
        passed = bool(bits[bits.argmax()] < _INF_BITS)
        assert passed == bool(np.maximum.reduce(bits) < _INF_BITS)
        assert passed == bool(np.isfinite(flat).all() and not np.signbit(flat).any())
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isfinite(flat).all() or not math.isfinite(flat.dot(flat))

    @pytest.mark.parametrize("width", _SCREEN_WIDTHS)
    def test_unprojected_states_whose_squares_overflow_do_not_fail(self, width):
        # the dot product overflows at every step, so each step falls
        # through to the exact scan, which finds every entry finite
        def drift(x, out):
            def step(delayed):
                out[...] = 0.0

            return step

        start = (1e200, -3e200) if width % 2 == 0 else (1e200,)
        runs = width // len(start)
        terminal, counts = euler_maruyama(
            drift, start, [(runs, [])], 0, np.zeros(len(start)), (),
            IntegratorConfig(1.0, 3.0), lambda first, rows: None, False,
        )
        assert terminal.tobytes() == np.repeat(np.reshape(start, (-1, 1)), runs, axis=1).tobytes()
        assert not counts.any()


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

    @pytest.mark.filterwarnings("ignore::rumorsim.ensemble.FinalSizeHorizonWarning")
    def test_ensemble_holds_one_block_not_the_paths(self):
        # the statistics are reduced per block of recorded rows: the peak
        # stays within twice the outputs, one block, the delay ring and one
        # noise chunk, far below the 19.3 MB of recorded paths
        p = default_params(tau=5.0, r0=2.0)
        hist = HistoryFunction.constant(default_initial_state(p))
        cfg = IntegratorConfig(0.1, 200.0, record_stride=10)
        runs, k, rows = 2000, 50, cfg.recorded_count
        outputs = rows * 6 * 4 * 8
        block = runs * block_rows(cfg, runs * 6) * 6 * 8
        ring = (k + 1) * runs * 8
        chunk = _NOISE_CHUNK_DRAWS * 8
        tracemalloc.start()
        try:
            run_ensemble(p, hist, cfg, runs, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * (outputs + block + ring + chunk) < runs * rows * 6 * 8 / 4

    def test_stability_lab_holds_one_block_not_the_paths(self):
        p = default_params(tau=2.0, r0=2.0)
        cfg = IntegratorConfig(0.1, 100.0)
        runs, k, rows = 1000, 20, cfg.recorded_count
        outputs = rows * 2 * 8  # the estimate and its times
        block = runs * block_rows(cfg, runs * 2) * 2 * 8
        ring = (k + 1) * runs * 8
        chunk = _NOISE_CHUNK_DRAWS * 8
        tracemalloc.start()
        try:
            simulate_linearized(p, 0.01, 0.01, cfg, runs, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * (outputs + block + ring + chunk) < runs * rows * 2 * 8 / 4

    @staticmethod
    def _two_delay_sweep(runs):
        # a k = 0 group and a k = 1000 group of ``runs`` runs each
        spec = SweepSpec(
            taus=(0.0, 100.0), r0_values=(2.0,), run_count=runs, base_seed=3,
            template=default_params(), integrator=IntegratorConfig(0.1, 100.0),
        )
        return spec, 1000

    @pytest.mark.filterwarnings("ignore::rumorsim.ensemble.FinalSizeHorizonWarning")
    def test_sweep_keeps_one_ring_per_delay_group(self):
        # the k = 0 runs keep no ring: the whole sweep peaks below what one
        # ring of k + 1 rows for every run would hold alone
        spec, k = self._two_delay_sweep(400)
        shared = (k + 1) * 2 * spec.run_count * 8
        tracemalloc.start()
        try:
            run_sweep(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < shared

    @pytest.mark.filterwarnings("ignore::rumorsim.ensemble.FinalSizeHorizonWarning")
    def test_guard_counts_each_delay_group_its_own_ring(self, monkeypatch):
        # physical memory faked at exactly what one ring of k + 1 rows for
        # every run would take: the groups' own rings fit under it
        cfg, runs = IntegratorConfig(0.1, 100.0), 10**6
        cells = [(default_params(tau=0.0), runs), (default_params(tau=100.0), runs)]
        shared = 1001 * 2 * runs * 8
        monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 8, "SC_PHYS_PAGES": shared // 8}.get)
        check_memory(cfg, cells, 6, 0)
        with pytest.raises(ConfigurationError, match="GiB of physical memory"):
            check_memory(cfg, [(default_params(tau=100.0), 2 * runs)], 6, 0)
        # and the sweep counts its groups so, with no rows to spare for a shared ring
        spec, k = self._two_delay_sweep(400)
        shared = (k + 1) * 2 * spec.run_count * 8
        monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 8, "SC_PHYS_PAGES": shared // 8}.get)
        run_sweep(spec)

    def test_delay_beyond_horizon_reads_only_the_history(self):
        # every step of the horizon reads the history, whatever the delay
        cfg = IntegratorConfig(0.1, 20.0)
        runs = {}
        for tau in (20.0, 1e300):
            p = default_params(tau=tau, r0=2.0)
            runs[tau] = integrate(p, HistoryFunction.constant(default_initial_state(p)), cfg, 4)
        assert np.array_equal(runs[1e300].states, runs[20.0].states)

    def test_delay_buffer_is_capped_at_the_horizon(self):
        p = default_params(tau=1e4, r0=2.0)
        hist = HistoryFunction.constant(default_initial_state(p))
        tracemalloc.start()
        try:
            integrate(p, hist, IntegratorConfig(0.1, 1.0), 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_guard_rejects_batches_beyond_physical_memory(self):
        # each call holds the recorded rows, as simulate_paths does
        cfg = IntegratorConfig(0.1, 200.0)
        p = default_params(tau=5.0)
        check_memory(cfg, [(p, 2000)], 6, 2000 * cfg.recorded_count * 6)
        with pytest.raises(ConfigurationError, match="GiB of physical memory"):
            check_memory(cfg, [(p, 10**13)], 6, 10**13 * cfg.recorded_count * 6)
        tiny_steps = IntegratorConfig(1e-300, 200.0)
        with pytest.raises(ConfigurationError, match="GiB"):
            check_memory(tiny_steps, [(default_params(), 1)], 6, tiny_steps.recorded_count * 6)

    # with the second cell's 3 runs the batches hold 5,461 and 5,462 runs,
    # either side of 32,768 / 6, and 16,384 and 16,385, at and past 32,768 / 2
    @pytest.mark.parametrize("runs", [1, 5_458, 5_459, 16_381, 16_382, 100_000])
    @pytest.mark.parametrize("components", [2, 6])
    def test_estimate_is_the_buffers_rings_and_two_noise_chunks(self, monkeypatch, components, runs):
        # the estimate, to the byte: the held values, the kernel's 3 * components
        # + 9 rows per run, each cell's ring of k + 1 rows, two arrays of
        # max(components * runs, 32,768) draws and the record block of about
        # 65,536 values with one copy; the batch fits a machine of exactly
        # that many bytes and not one of a byte less
        cfg = IntegratorConfig(0.1, 10.0)
        cells = [(default_params(tau=0.0), runs), (default_params(tau=0.5), 3)]
        total = runs + 3
        block = max(1, min(cfg.recorded_count, 65_536 // (components * total)))
        held = 8 * (7 + total * (3 * components + 9) + (runs + 6 * 3) + 2 * max(components * total, 32_768))
        held += 8 * 2 * block * components * total
        monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": held}.get)
        check_memory(cfg, cells, components, 7)
        monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": held - 1}.get)
        with pytest.raises(ConfigurationError, match="GiB of physical memory"):
            check_memory(cfg, cells, components, 7)

    def test_work_bound_holds_where_memory_is_unknown(self, monkeypatch):
        def unknown(name):
            raise ValueError(name)

        monkeypatch.setattr(os, "sysconf", unknown)
        with pytest.raises(ConfigurationError, match="more than the bound of 1e"):
            check_memory(IntegratorConfig(1e-300, 200.0), [(default_params(), 1)], 6, 0)
        monkeypatch.setattr("rumorsim.integrator._MAX_PATH_STEPS", 30)
        bounded = IntegratorConfig(0.1, 1.0)  # 10 steps
        check_memory(bounded, [(default_params(), 3)], 6, 0)
        with pytest.raises(ConfigurationError, match=r"4 runs of 10 steps would take 40 path-steps"):
            check_memory(bounded, [(default_params(), 4)], 6, 0)


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

    def test_intensity_whose_square_overflows_keeps_v0_then_saturates(self):
        # C = inf: C t is NaN at t = 0, where the envelope is V0
        p = dataclasses.replace(default_params(), noise=NoiseIntensities(i=1e200))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            env = second_moment_envelope(p, 1.0, [0.0, 1.0])
        assert env.tolist() == [1.0, math.exp(709.0)]


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


class TestWriteTable:
    def test_text_is_quoted_like_the_csv_module(self, tmp_path):
        notes = ["plain", "a,b", 'say "x"', "two\nlines", "cr\rhere", "", "50% off"]
        flags = [True, False, True, False, True, False, True]
        values = [0.5, float("nan"), float("inf"), -1e-300, 1 / 3, 2.0, -0.0]
        out = tmp_path / "table.csv"
        write_table(out, ["k", "v", "flag", "note"], [range(7), values, flags, notes], meta={"n": 7})
        expected = io.StringIO()
        expected.write("# n=7\n")
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(["k", "v", "flag", "note"])
        for row in zip(range(7), values, flags, notes):
            writer.writerow([row[0], "%.9g" % row[1], int(row[2]), row[3]])
        with open(out, newline="") as fh:
            assert fh.read() == expected.getvalue()

    def test_memory_follows_the_chunk_not_the_table(self, tmp_path):
        rng = np.random.default_rng(0)
        columns = list(rng.uniform(0.0, 1.0, (25, 20_001)))
        tracemalloc.start()
        try:
            write_table(tmp_path / "wide.csv", [f"c{j}" for j in range(25)], columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the table's text alone is 5 MB, and one list of its cells as Python floats 12 MB
        assert peak < 8e6

    def test_meta_floats_use_the_csv_float_format(self, tmp_path):
        out = tmp_path / "meta.csv"
        write_table(out, ["t"], [[0.1]], meta={"rate": 1 / 3, "verdict": "decay", "runs": 5})
        assert out.read_text() == "# rate=0.333333333\n# verdict=decay\n# runs=5\nt\n0.1\n"
