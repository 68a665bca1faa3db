import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rumorsim import (
    ConfigurationError,
    HistoryFunction,
    IntegratorConfig,
    ModelParams,
    NoiseIntensities,
    NumericsError,
    StateVector,
    classify_equilibrium,
    default_initial_state,
    default_params,
    diffusion,
    drift,
    growth_bound_constant,
    integrate,
    lipschitz_constant,
    reproduction_number,
    run_ensemble,
    run_sweep,
    second_moment_envelope,
    simulate_linearized,
    simulate_paths,
    stochastic_margin,
    verify_growth_bound,
    verify_lipschitz_bound,
)

DENSITY = st.floats(min_value=0.0, max_value=10.0, allow_nan=False, allow_infinity=False)


def state(*vals):
    return StateVector(*vals)


class TestDrift:
    def test_rumor_free_equilibrium_is_fixed_point(self, params):
        x = state(1.0, 0, 0, 0, 0, 0)
        assert np.array_equal(drift(x, x, params), np.zeros(6))
        # stays fixed whatever the delayed state, as long as it carries
        # no spreaders
        delayed = state(0.2, 0.5, 0.0, 0.1, 0.1, 0.1)
        assert np.array_equal(drift(x, delayed, params), np.zeros(6))

    def test_frozen_hand_computed_example(self):
        p = ModelParams(beta=0.300, sigma_act=0.25, gamma=0.10, rho=0.05, theta=0.10)
        x = state(0.9, 0.05, 0.005, 0.03, 0.01, 0.005)
        expected = np.array([-0.00135, -0.01115, 0.01175, 0.0005, -0.00075, 0.001])
        np.testing.assert_allclose(drift(x, x, p), expected, rtol=0, atol=1e-18)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(values=st.lists(DENSITY, min_size=12, max_size=12))
    def test_components_sum_to_zero(self, values):
        p = default_params()
        x = np.array(values[:6])
        y = np.array(values[6:])
        d = drift(x, y, p)
        scale = max(1e-30, float(np.max(np.abs(d))))
        assert abs(d.sum()) <= 1e-12 * scale

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(s=DENSITY, r=DENSITY, f=DENSITY)
    def test_fixed_point_family_is_exact(self, s, r, f):
        # any split over (s, r, f) with the rumor classes empty is stationary
        p = default_params()
        x = np.array([s, 0.0, 0.0, r, 0.0, f])
        assert np.array_equal(drift(x, x, p), np.zeros(6))

    def test_delayed_spreader_drives_transmission(self, params):
        x = state(0.9, 0.0, 0.0, 0.1, 0.0, 0.0)
        delayed = state(0.0, 0.0, 0.2, 0.8, 0.0, 0.0)
        d = drift(x, delayed, params)
        assert d[0] == pytest.approx(-params.beta * 0.9 * 0.2)
        assert d[1] == pytest.approx(params.beta * 0.9 * 0.2)

    def test_batch_shape_broadcast(self, params):
        x = np.random.default_rng(0).random((50, 6))
        d = drift(x, x, params)
        assert d.shape == (50, 6)
        np.testing.assert_array_equal(d[7], drift(x[7], x[7], params))


class TestDiffusion:
    def test_vanishes_at_origin(self, params):
        assert np.array_equal(diffusion(np.zeros(6), params), np.zeros(6))

    def test_zero_intensities_zero_everywhere(self):
        p = default_params(noise_level=0.0)
        x = np.random.default_rng(1).random(6)
        assert np.array_equal(diffusion(x, p), np.zeros(6))

    def test_componentwise_product(self):
        p = ModelParams(
            beta=0.3, sigma_act=0.25, gamma=0.1, rho=0.05, theta=0.1,
            noise=NoiseIntensities.uniform(0.1),
        )
        x = state(0.5, 0.1, 0.2, 0.1, 0.05, 0.05)
        np.testing.assert_allclose(
            diffusion(x, p), [0.05, 0.01, 0.02, 0.01, 0.005, 0.005], rtol=1e-15
        )

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(idx=st.integers(min_value=0, max_value=5), values=st.lists(DENSITY, min_size=6, max_size=6))
    def test_zero_component_gives_zero_coefficient(self, idx, values):
        p = default_params()
        x = np.array(values)
        x[idx] = 0.0
        assert diffusion(x, p)[idx] == 0.0


class TestThresholds:
    def test_reference_regime_values(self):
        assert reproduction_number(default_params(r0=2.0)) == pytest.approx(2.0)
        assert reproduction_number(default_params(r0=1.0)) == pytest.approx(1.0)

    def test_no_transmission_gives_zero(self):
        p = ModelParams(beta=0.0, sigma_act=0.25, gamma=0.1, rho=0.05, theta=0.1)
        assert reproduction_number(p) == 0.0

    def test_margin_reduces_to_one_minus_r0_without_noise(self):
        p = default_params(r0=0.5, noise_level=0.0)
        assert stochastic_margin(p) == pytest.approx(0.5)
        p = default_params(r0=2.0, noise_level=0.0)
        assert stochastic_margin(p) == pytest.approx(-1.0)

    def test_margin_frozen_example(self):
        p = ModelParams(
            beta=0.8 * 0.15, sigma_act=0.25, gamma=0.1, rho=0.05, theta=0.1,
            noise=NoiseIntensities(s=0, e=0, i=0.1, r=0, ig=0, f=0),
        )
        assert stochastic_margin(p) == pytest.approx(0.16666666666666663)

    def test_margin_strictly_decreasing_in_beta_and_noise(self):
        betas = np.linspace(0.0, 0.5, 11)
        margins = [
            stochastic_margin(
                ModelParams(beta=b, sigma_act=0.25, gamma=0.1, rho=0.05, theta=0.1)
            )
            for b in betas
        ]
        assert all(a > b for a, b in zip(margins, margins[1:]))
        intensities = np.linspace(0.01, 0.5, 11)
        margins = [
            stochastic_margin(
                ModelParams(
                    beta=0.15, sigma_act=0.25, gamma=0.1, rho=0.05, theta=0.1,
                    noise=NoiseIntensities(0, 0, v, 0, 0, 0),
                )
            )
            for v in intensities
        ]
        assert all(a > b for a, b in zip(margins, margins[1:]))

    def test_r0_linear_in_beta(self):
        p1 = ModelParams(beta=0.1, sigma_act=0.25, gamma=0.1, rho=0.05, theta=0.1)
        p2 = ModelParams(beta=0.2, sigma_act=0.25, gamma=0.1, rho=0.05, theta=0.1)
        assert reproduction_number(p2) == pytest.approx(2 * reproduction_number(p1))


_RATE = st.floats(min_value=0.01, max_value=2.0)
_INTENSITY = st.floats(min_value=0.0, max_value=1.5)


def _params(beta, sigma_act, gamma, rho, n_e, n_i):
    return ModelParams(
        beta=beta, sigma_act=sigma_act, gamma=gamma, rho=rho, theta=0.1,
        noise=NoiseIntensities(0.01, n_e, n_i, 0.01, 0.01, 0.01),
    )


def _second_moment_generator(p):
    # d vec(C)/dt for C = E[x x^T] of the linearized (E, I) pair at tau = 0:
    # A C + C A^T plus the noise terms n_E^2 C_EE and n_I^2 C_II
    a = np.array([[-p.sigma_act, p.beta * p.population], [p.sigma_act, -p.removal_rate]])
    generator = np.kron(a, np.eye(2)) + np.kron(np.eye(2), a)
    generator[0, 0] += p.noise.e**2
    generator[3, 3] += p.noise.i**2
    return generator


class TestCertifiedMargin:
    """The margin of ``(1 - n_E^2 / (2 sigma)) (1 - n_I^2 / (2 (gamma +
    rho))) > R0``, printed as the ``n_E``-free margin where that is <= 0."""

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(beta=_RATE, sigma_act=_RATE, gamma=_RATE, rho=_RATE, n_i=_INTENSITY)
    def test_without_exposed_noise_it_has_the_bits_of_the_old_margin(self, beta, sigma_act, gamma, rho, n_i):
        p = _params(beta, sigma_act, gamma, rho, 0.0, n_i)
        old = 1.0 - n_i**2 / (2.0 * (gamma + rho)) - beta * 1.0 / (gamma + rho)
        assert stochastic_margin(p) == old

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(beta=_RATE, sigma_act=_RATE, gamma=_RATE, rho=_RATE)
    def test_without_noise_it_holds_exactly_below_r0_one(self, beta, sigma_act, gamma, rho):
        p = replace(_params(beta, sigma_act, gamma, rho, 0.0, 0.0), noise=NoiseIntensities.zero())
        assert (stochastic_margin(p) > 0) == (reproduction_number(p) < 1)
        at_one = replace(p, beta=(gamma + rho) / p.population)
        assert stochastic_margin(at_one) == 1.0 - reproduction_number(at_one) <= 0

    def test_exposed_noise_counterexample_gets_a_negative_margin(self):
        # the n_E-free margin reads +0.7 here, yet the E^2 self-term of the
        # second moment's generator, n_E^2 - 2 sigma_act, is exactly +0.5
        p = replace(default_params(r0=0.3), noise=NoiseIntensities(0, 1.0, 0, 0, 0, 0))
        assert 1.0 - reproduction_number(p) == pytest.approx(0.7)
        assert stochastic_margin(p) == pytest.approx(-1.3)
        generator = _second_moment_generator(p)
        assert generator[0, 0] == 0.5
        # the generator is Metzler, so its top eigenvalue is at least each diagonal entry
        assert np.linalg.eigvals(generator).real.max() >= 0.5

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(beta=_RATE, sigma_act=_RATE, gamma=_RATE, rho=_RATE, n_e=_INTENSITY, n_i=_INTENSITY)
    def test_a_positive_margin_gives_mean_square_decay_at_zero_delay(self, beta, sigma_act, gamma, rho, n_e, n_i):
        # the exact oracle at tau = 0: every eigenvalue of the generator of
        # E[x x^T] has a negative real part
        p = _params(beta, sigma_act, gamma, rho, n_e, n_i)
        if stochastic_margin(p) > 0:
            assert np.linalg.eigvals(_second_moment_generator(p)).real.max() < 0


class TestBoundChecks:
    def test_growth_bound_passes_at_reference_params(self, params):
        report = verify_growth_bound(params, 20_000, 10.0, rng_seed=31)
        assert report.passed
        assert report.max_ratio <= report.bound

    def test_growth_ratio_bounded_by_operator_norm_when_linear(self):
        # with beta = 0 the drift is linear, b = A x; the sampled ratio
        # can never exceed the squared spectral norm plus the noise term
        p = ModelParams(beta=0.0, sigma_act=0.25, gamma=0.1, rho=0.05, theta=0.1)
        a = np.zeros((6, 6))
        a[1, 1] = -p.sigma_act
        a[2, 1] = p.sigma_act
        a[2, 2] = -(p.gamma + p.rho)
        a[3, 2] = p.gamma
        a[4, 2] = p.rho
        a[4, 4] = -p.theta
        a[5, 4] = p.theta
        spectral = np.linalg.svd(a, compute_uv=False)[0]
        report = verify_growth_bound(p, 50_000, 10.0, rng_seed=5)
        assert report.max_ratio <= spectral**2 + p.noise.max_intensity**2 + 1e-12
        assert report.passed

    def test_lipschitz_bound_passes_both_radii(self, params):
        for radius in (1.0, 10.0):
            report = verify_lipschitz_bound(params, 20_000, radius, rng_seed=77)
            assert report.passed, f"radius {radius}"

    def test_direct_lipschitz_inequality_on_random_pairs(self, params):
        rng = np.random.default_rng(123)
        radius = 5.0
        bound = lipschitz_constant(params, radius)
        for _ in range(200):
            x, x2, y, y2 = (radius / 3.0) * rng.random((4, 6))
            lhs = np.linalg.norm(drift(x, y, params) - drift(x2, y2, params))
            rhs = bound * (np.linalg.norm(x - x2) + np.linalg.norm(y - y2))
            assert lhs <= rhs + 1e-15

    def test_bound_constants_grow_with_radius(self, params):
        assert growth_bound_constant(params, 20.0) > growth_bound_constant(params, 10.0)
        assert lipschitz_constant(params, 20.0) >= lipschitz_constant(params, 10.0)

    def test_invalid_arguments(self, params):
        with pytest.raises(ValueError):
            verify_growth_bound(params, 0, 1.0, 1)
        with pytest.raises(ValueError):
            growth_bound_constant(params, 0.0)


class TestValidation:
    def test_rates_must_be_positive(self):
        with pytest.raises(ValueError, match="gamma"):
            ModelParams(beta=0.3, sigma_act=0.25, gamma=0.0, rho=0.05, theta=0.1)
        with pytest.raises(ValueError, match="beta"):
            ModelParams(beta=-0.1, sigma_act=0.25, gamma=0.1, rho=0.05, theta=0.1)
        with pytest.raises(ValueError, match="tau"):
            ModelParams(beta=0.3, sigma_act=0.25, gamma=0.1, rho=0.05, theta=0.1, tau=-1)
        with pytest.raises(ValueError, match="population"):
            ModelParams(beta=0.3, sigma_act=0.25, gamma=0.1, rho=0.05, theta=0.1, population=0)

    def test_zero_beta_is_allowed(self):
        ModelParams(beta=0.0, sigma_act=0.25, gamma=0.1, rho=0.05, theta=0.1)

    def test_noise_nonnegative(self):
        with pytest.raises(ValueError, match="noise.i"):
            NoiseIntensities(i=-0.05)

    def test_state_nonnegative(self):
        with pytest.raises(ValueError, match=">= 0"):
            StateVector(1.0, 0.0, -0.1, 0.0, 0.0, 0.0)

    def test_default_initial_state_sums_to_population(self):
        p = default_params()
        x = default_initial_state(p)
        assert x.total == pytest.approx(p.population)
        assert x.i == pytest.approx(0.005)


class TestIntegerFields:
    """Numeric fields hold floats, so an integer computes as the float it
    stands for, past the float range's integers too."""

    def test_integers_past_the_float_integers_give_the_float_results(self):
        outcomes = []
        for beta, population in ((10**200, 10**200), (1e200, 1e200)):
            p = replace(default_params(), beta=beta, population=population)
            assert isinstance(p.beta, float) and isinstance(p.population, float)
            try:
                simulate_linearized(p, 0.01, 0.01, IntegratorConfig(0.1, 1.0), 3, 1)
                error = None
            except NumericsError as exc:
                error = str(exc)
            outcomes.append((reproduction_number(p), stochastic_margin(p), error))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][:2] == (np.inf, -np.inf)
        assert outcomes[0][2].startswith("linearized second moment overflowed at step 1")

    def test_integer_rates_noise_and_state_give_the_float_paths(self):
        runs = []
        for kind in (int, float):
            p = ModelParams(
                beta=kind(1), sigma_act=kind(1), gamma=kind(1), rho=kind(2), theta=kind(3),
                noise=NoiseIntensities(kind(1), 0, 0, 0, 0, kind(2)), population=kind(4),
            )
            start = StateVector(kind(3), 0, kind(1), 0, 0, 0)
            assert {type(v) for v in (*vars(p.noise).values(), *vars(start).values())} == {float}
            _, paths, counts = simulate_paths(p, HistoryFunction.constant(start), IntegratorConfig(0.1, 2.0), [5, 6])
            runs.append((paths.tobytes(), counts.tobytes()))
        assert runs[0] == runs[1]

    @pytest.mark.filterwarnings("ignore::rumorsim.ensemble.FinalSizeHorizonWarning")
    def test_integer_step_and_horizon_give_float_times(self):
        cfg = IntegratorConfig(step_size=1, horizon=10)
        assert type(cfg.step_size) is float and type(cfg.horizon) is float
        p = default_params()
        hist = HistoryFunction.constant(default_initial_state(p))
        result = run_ensemble(p, hist, cfg, 3, 1)
        for times in (integrate(p, hist, cfg, 1).times, result.summary.times, result.metrics.peak_times):
            assert times.dtype == np.float64

    @pytest.mark.filterwarnings("ignore::rumorsim.ensemble.FinalSizeHorizonWarning")
    def test_sweep_lists_are_stored_as_tuples_of_floats(self):
        result = run_sweep(
            taus=[0, 5], r0_values=[1, 2.5], run_count=1, base_seed=0, template=default_params(),
            integrator=IntegratorConfig(0.1, 1.0),
        )
        assert [(c.tau, c.r0) for c in result.cells] == [(0.0, 1.0), (0.0, 2.5), (5.0, 1.0), (5.0, 2.5)]
        assert {type(v) for c in result.cells for v in (c.tau, c.r0)} == {float}


_ORIGIN = StateVector(1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
# each helper called with one argument set to ``v``, giving the numbers that must be finite
_HELPERS = {
    "growth_bound_constant": growth_bound_constant,
    "lipschitz_constant": lipschitz_constant,
    "verify_growth_bound": lambda p, v: verify_growth_bound(p, v, 1.0, 0).max_ratio,
    "second_moment_envelope": lambda p, v: second_moment_envelope(p, v, [0.0, 1.0]),
    "classify_equilibrium": lambda p, v: classify_equilibrium(_ORIGIN, p, tol=v).tolerance,
    "HistoryFunction.sampled": lambda p, v: HistoryFunction.sampled([_ORIGIN, _ORIGIN], v).span,
}


class TestArgumentChecks:
    """The helpers read their radius, sample count, initial norm, tolerance
    or span by the rules a config file is read by."""

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(
        helper=st.sampled_from(sorted(_HELPERS)),
        value=st.sampled_from([math.nan, math.inf, -1, 0, 2.5, 1e200, True, "x"]),
    )
    def test_any_argument_gives_a_finite_result_or_a_value_error(self, helper, value):
        try:
            result = _HELPERS[helper](default_params(), value)
        except ValueError:
            return
        # a constant whose square leaves the float range is +inf
        overflowed = helper.endswith("_constant") and result == math.inf
        assert overflowed or np.all(np.isfinite(result)), (helper, value, result)

    @pytest.mark.parametrize("radius, beta", [(1e200, 0.3), (1.0, 1e200)])
    def test_verifiers_beyond_the_float_range_raise_a_configuration_error(self, radius, beta):
        # the squared transmission term overflows: the growth constant is
        # +inf, and samples whose drift overflows judge nothing
        p = replace(default_params(), beta=beta)
        assert growth_bound_constant(p, radius) == math.inf
        assert math.isfinite(lipschitz_constant(p, radius))
        for verify in (verify_growth_bound, verify_lipschitz_bound):
            with pytest.raises(ConfigurationError, match="overflows the float range"):
                verify(p, 1000, radius, 0)


class TestHistoryFunction:
    def test_constant_history_everywhere(self):
        # the one-point grid: every lag reads the state bit for bit
        x = StateVector(0.5, 0.2, -0.0, 0.1, 0.1, 0.1)
        h = HistoryFunction.constant(x)
        tau = 7.25
        for lag in (0.0, -123.0, -tau, -1e300):
            assert h(lag).tobytes() == x.as_array().tobytes()
        assert h(np.array([0.0, -tau, -1e300])).tobytes() == np.tile(x.as_array(), (3, 1)).tobytes()
        assert h.is_constant
        assert h.span == math.inf
        for delay in (0.0, tau, 1e300):
            h.validate_for(replace(default_params(), tau=delay))
        with pytest.raises(ValueError, match=r"^history defined on \[-inf, 0\], evaluated outside$"):
            h(0.5)

    def test_sampled_history_interpolates_linearly(self):
        a = StateVector(1.0, 0, 0.0, 0, 0, 0)
        b = StateVector(0.8, 0, 0.2, 0, 0, 0)
        h = HistoryFunction.sampled([a, b], span=4.0)
        mid = h(-2.0)
        assert mid[0] == pytest.approx(0.9)
        assert mid[2] == pytest.approx(0.1)
        quarter = h(-1.0)
        assert quarter[2] == pytest.approx(0.15)

    def test_sampled_history_rejects_out_of_span(self):
        a = StateVector(1.0, 0, 0, 0, 0, 0)
        h = HistoryFunction.sampled([a, a], span=2.0)
        with pytest.raises(ValueError, match="defined on"):
            h(-3.0)
        with pytest.raises(ValueError, match="defined on"):
            h(0.5)

    def test_negative_samples_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            HistoryFunction(np.array([-1.0, 0.0]), np.array([[1, 0, 0, 0, 0, -0.1], [1, 0, 0, 0, 0, 0]]))

    def test_validate_for_checks_population_sum(self):
        p = default_params()
        bad = HistoryFunction.constant(StateVector(0.9, 0, 0.005, 0, 0, 0))
        with pytest.raises(ValueError, match="sum to the population"):
            bad.validate_for(p)

    def test_validate_for_checks_span_covers_delay(self):
        p = default_params(tau=10.0)
        a = StateVector(0.995, 0, 0.005, 0, 0, 0)
        short = HistoryFunction.sampled([a, a], span=5.0)
        with pytest.raises(ValueError, match="does not cover the delay"):
            short.validate_for(p)
        # a constant history extends to any delay
        HistoryFunction.constant(a).validate_for(p)

    def test_history_keeps_copies_of_its_inputs(self):
        grid, samples = np.array([-2.0, 0.0]), np.array([[0.9, 0, 0.1, 0, 0, 0], [0.8, 0, 0.2, 0, 0, 0]])
        state = np.array([0.995, 0, 0.005, 0, 0, 0])
        sampled, constant = HistoryFunction(grid, samples), HistoryFunction.constant(state)
        lags = np.array([0.0, -0.5, -2.0])
        before = sampled(lags), constant(lags)
        grid[0], samples[:, 2], state[2] = -1.0, np.nan, np.nan
        np.testing.assert_array_equal(sampled(lags), before[0])
        np.testing.assert_array_equal(constant(lags), before[1])
        assert sampled.span == 2.0
        sampled.validate_for(default_params(tau=2.0))
        constant.validate_for(default_params())


_ONE = [1.0, 0, 0, 0, 0, 0]


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: ModelParams(0.3, 0.25, 0.1, 0.05, 0.1, noise=0.01), TypeError,
         "noise must be a NoiseIntensities instance"),
        (lambda: drift(np.ones(5), np.ones(5), default_params()), ValueError,
         r"state arrays must have 6 trailing components, got shape \(5,\)"),
        (lambda: HistoryFunction(np.array([-1.0, 0.0]), np.ones((3, 6))), ValueError,
         r"history samples must be an \(m, 6\) array aligned with the grid"),
        (lambda: HistoryFunction(np.array([[0.0]]), np.ones((1, 6))), ValueError,
         r"history samples must be an \(m, 6\) array aligned with the grid"),
        (lambda: HistoryFunction(np.array([]), np.empty((0, 6))), ValueError,
         "history grid must hold at least one point"),
        (lambda: HistoryFunction(np.array([-1.0, -0.5]), np.array([_ONE, _ONE])), ValueError,
         "history grid must end at 0"),
        (lambda: HistoryFunction(np.array([-1.0, -1.0, 0.0]), np.array([_ONE] * 3)), ValueError,
         "history grid must be strictly increasing"),
        (lambda: HistoryFunction(np.array([-1.0, 0.0]), np.array([_ONE, [np.nan, 0, 0, 0, 0, 0]])), ValueError,
         "history samples must be finite"),
        (lambda: HistoryFunction.constant(np.array([_ONE, _ONE])), ValueError,
         "constant history takes a single state"),
        (lambda: HistoryFunction.sampled([_ONE], span=1.0), ValueError, "sampled history needs at least two states"),
    ],
    ids=["noise-type", "state-width", "grid-vs-samples", "grid-not-1d", "grid-empty", "grid-end", "grid-order",
         "finite", "constant-one-state", "sampled-two-states"],
)
def test_malformed_model_inputs_raise(build, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        build()
