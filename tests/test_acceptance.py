"""Acceptance suite: one test per release criterion, each printing a
single PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s``).

Criteria 5 and 6 share one full-grid sweep (100 runs per cell at the
documented defaults); its wall time is charged to both runtime budgets.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from oracles import rk4_path
from rumorsim import (
    DecayVerdict,
    EquilibriumClass,
    HistoryFunction,
    IntegratorConfig,
    ModelParams,
    NoiseIntensities,
    StateVector,
    classify_equilibrium,
    compare_to_reference,
    default_initial_state,
    default_params,
    drift,
    integrate,
    load_reference,
    run_sweep,
    second_moment_envelope,
    simulate_linearized,
    simulate_paths,
    stochastic_margin,
    verify_growth_bound,
    verify_lipschitz_bound,
)
from rumorsim.cli import main as cli_main


@contextmanager
def criterion(number, description, limit_seconds, extra_seconds=0.0):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start + extra_seconds
    assert elapsed < limit_seconds, (
        f"criterion {number} exceeded its runtime budget: {elapsed:.1f}s >= {limit_seconds}s"
    )
    print(f"ACCEPTANCE {number}: PASS - {description} [{elapsed:.1f}s < {limit_seconds}s]")


@pytest.fixture(scope="module")
def table_sweep():
    """Full 18-cell sweep at the documented defaults, 100 runs per cell."""
    reference = load_reference()
    start = time.perf_counter()
    with pytest.warns(Warning):  # slow cells legitimately warn about the horizon
        result = run_sweep(
            taus=(0.0, 5.0, 10.0),
            r0_values=(0.5, 0.8, 1.0, 1.2, 1.5, 2.0),
            run_count=100,
            base_seed=20260810,
            template=default_params(),
            integrator=IntegratorConfig(0.1, 200.0),
        )
    elapsed = time.perf_counter() - start
    deviation = compare_to_reference(result, reference)
    return result, deviation, reference, elapsed


def test_criterion_1_drift_conservation():
    rng = np.random.default_rng(1001)
    with criterion(1, "drift components sum to zero over 1e5 random triples", 5.0):
        checked = 0
        for _ in range(100):
            params = ModelParams(
                beta=float(rng.uniform(0.0, 1.0)),
                sigma_act=float(rng.uniform(0.01, 1.0)),
                gamma=float(rng.uniform(0.01, 1.0)),
                rho=float(rng.uniform(0.01, 1.0)),
                theta=float(rng.uniform(0.01, 1.0)),
                noise=NoiseIntensities.uniform(float(rng.uniform(0.0, 0.2))),
            )
            x = rng.uniform(0.0, 10.0, size=(1000, 6))
            y = rng.uniform(0.0, 10.0, size=(1000, 6))
            d = drift(x, y, params)
            residual = np.abs(d.sum(axis=1))
            scale = np.abs(d).max(axis=1)
            assert np.all(residual <= 1e-12 * scale)
            checked += x.shape[0]
        assert checked == 100_000


def test_criterion_2_equilibrium_family():
    p = default_params()
    rng = np.random.default_rng(1002)
    with criterion(2, "equilibrium family accepted exactly, spreader states rejected", 1.0):
        for _ in range(100):
            s, r, f = rng.dirichlet((1.0, 1.0, 1.0)) * p.population
            report = classify_equilibrium(StateVector(s, 0.0, 0.0, r, 0.0, f), p)
            assert report.classification in (
                EquilibriumClass.RUMOR_FREE,
                EquilibriumClass.RUMOR_FREE_FAMILY,
            )
            assert report.drift_residual == 0.0
        for _ in range(100):
            state = rng.dirichlet(np.ones(6)) * p.population
            state[2] = float(rng.uniform(1.1e-3, 0.5))
            report = classify_equilibrium(StateVector(*state), p)
            assert report.classification is EquilibriumClass.NOT_EQUILIBRIUM


def test_criterion_3_deterministic_oracle_equivalence():
    p = default_params(tau=0.0, r0=2.0, noise_level=0.0)
    x0 = default_initial_state(p)
    history = HistoryFunction.constant(x0)
    with criterion(3, "zero-noise integration matches RK4 and converges at first order", 10.0):
        gaps = {}
        for h in (0.05, 0.025):
            traj = integrate(p, history, IntegratorConfig(h, 200.0), 7)
            oracle = rk4_path(
                x0.as_array(), h, 200.0, p.beta, p.sigma_act, p.gamma, p.rho, p.theta
            )
            gaps[h] = float(np.max(np.abs(traj.states - oracle)))
        assert gaps[0.05] <= 5e-3 * p.population
        ratio = gaps[0.025] / gaps[0.05]
        assert 0.375 <= ratio <= 0.625


def test_criterion_4_mean_square_stability_verdicts():
    decay_sets = [
        (0.2, 0.05), (0.35, 0.10), (0.5, 0.05), (0.6, 0.10), (0.7, 0.05), (0.8, 0.08),
    ]
    cfg = IntegratorConfig(0.1, 400.0)
    with criterion(4, "positive-margin sets decay for every delay; R0=2 grows", 120.0):
        for r0, noise_i in decay_sets:
            for tau in (0.0, 5.0, 10.0):
                p = ModelParams(
                    beta=0.15 * r0, sigma_act=0.25, gamma=0.10, rho=0.05, theta=0.10,
                    tau=tau,
                    noise=NoiseIntensities(s=0, e=noise_i, i=noise_i, r=0, ig=0, f=0),
                )
                assert stochastic_margin(p) > 0
                report = simulate_linearized(p, 0.005, 0.005, cfg, 200, 2026)
                assert report.verdict is DecayVerdict.DECAY, (r0, noise_i, tau)
                assert report.terminal_estimate <= 1e-2 * report.initial_estimate
        growth = ModelParams(
            beta=0.30, sigma_act=0.25, gamma=0.10, rho=0.05, theta=0.10,
            noise=NoiseIntensities.zero(),
        )
        report = simulate_linearized(growth, 0.005, 0.005, cfg, 200, 2026)
        assert report.verdict is DecayVerdict.GROWTH


def test_criterion_5_reference_corner_cells(table_sweep):
    result, deviation, reference, sweep_seconds = table_sweep
    ref = {(c.tau, c.r0): c for c in reference}
    corners = [(0.0, 0.5), (0.0, 2.0), (10.0, 2.0)]
    with criterion(
        5,
        "corner cells inside the compatibility bands or explicitly flagged",
        180.0,
        extra_seconds=sweep_seconds,
    ):
        for tau, r0 in corners:
            cell = result.cell(tau, r0)
            target = ref[(tau, r0)]
            row = deviation.row(tau, r0)

            final_band = max(0.05, 2.0 * target.final_std)
            final_ok = abs(cell.final_mean - target.final_mean) <= final_band
            peak_band = 2.0 * target.peak_std
            peak_ok = abs(cell.peak_mean - target.peak_mean) <= peak_band

            if not final_ok:
                assert row.final_flag and row.note, (
                    f"cell {(tau, r0)} misses the final-size band without a flag"
                )
            if not peak_ok:
                assert row.peak_flag and row.note, (
                    f"cell {(tau, r0)} misses the peak band without a flag"
                )
            status = []
            status.append("final in band" if final_ok else "final flagged")
            status.append("peak in band" if peak_ok else "peak flagged")
            print(
                f"  cell tau={tau:g} R0={r0}: {', '.join(status)} "
                f"(final {cell.final_mean:.4f} vs {target.final_mean}, "
                f"peak {cell.peak_mean:.5f} vs {target.peak_mean})"
            )


def test_criterion_6_structural_sweep_properties(table_sweep):
    result, _, _, sweep_seconds = table_sweep
    taus = (0.0, 5.0, 10.0)
    r0s = (0.5, 0.8, 1.0, 1.2, 1.5, 2.0)
    i0 = 0.005
    with criterion(
        6,
        "R0-monotonicity, sub-threshold quiescence, delay damping of the peak",
        300.0,
        extra_seconds=sweep_seconds,
    ):
        for tau in taus:
            cells = [result.cell(tau, r0) for r0 in r0s]
            for stat in ("peak", "final"):
                means = [getattr(c, f"{stat}_mean") for c in cells]
                stds = [getattr(c, f"{stat}_std") for c in cells]
                for j in range(len(r0s) - 1):
                    slack = (
                        stds[j] / np.sqrt(result.run_count)
                        if min(r0s[j], r0s[j + 1]) <= 1.0
                        else 0.0
                    )
                    assert means[j + 1] >= means[j] - slack, (
                        f"{stat} not nondecreasing at tau={tau}: "
                        f"R0 {r0s[j]} -> {r0s[j + 1]} gives {means[j]} -> {means[j + 1]}"
                    )
            for r0 in (0.5, 0.8):
                assert result.cell(tau, r0).peak_mean <= 1.5 * i0, (
                    f"sub-threshold cell (tau={tau}, R0={r0}) not quiescent"
                )
        assert result.cell(10.0, 2.0).peak_mean < result.cell(0.0, 2.0).peak_mean


def test_criterion_7_regularity_bound_checks():
    p = default_params(tau=0.0, r0=2.0)
    with criterion(7, "sampled growth and Lipschitz bounds hold with derived constants", 10.0):
        growth = verify_growth_bound(p, 100_000, 10.0, rng_seed=7001)
        assert growth.passed, (growth.max_ratio, growth.bound)
        for radius in (1.0, 10.0):
            lip = verify_lipschitz_bound(p, 100_000, radius, rng_seed=7002)
            assert lip.passed, (radius, lip.max_ratio, lip.bound)


def test_criterion_8_non_explosion():
    p = default_params(tau=10.0, r0=2.0)
    history = HistoryFunction.constant(default_initial_state(p))
    cfg = IntegratorConfig(0.1, 200.0)
    with criterion(8, "second moment finite and under the Gronwall envelope", 60.0):
        times, paths, _ = simulate_paths(p, history, cfg, range(100))
        assert np.all(np.isfinite(paths)), "non-finite states encountered"
        mean_sq = (paths**2).sum(axis=2).mean(axis=0)
        v0 = float((history(0.0) ** 2).sum())
        envelope = second_moment_envelope(p, v0, times)
        assert np.all(mean_sq <= envelope)


def test_criterion_9_cli_determinism(tmp_path, capsys):
    import json

    def run(*argv):
        code = cli_main(list(argv))
        capsys.readouterr()
        assert code == 0
        return code

    def config(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    small_int = {"horizon": 30.0}
    commands = {
        "simulate": config("sim.json", {"integrator": small_int}),
        "ensemble": config("ens.json", {"integrator": small_int, "ensemble": {"run_count": 4}}),
        "stability": config("stab.json", {"integrator": small_int, "stability": {"run_count": 4}}),
        "ablate": config(
            "abl.json",
            {
                "integrator": {"horizon": 50.0},
                "sweep": {"taus": [0.0, 10.0], "r0_values": [0.5, 2.0], "run_count": 2},
            },
        ),
    }
    with criterion(9, "every subcommand re-run from its echoed config is byte-identical", 120.0):
        for command, cfg_path in commands.items():
            first = tmp_path / f"{command}_a"
            second = tmp_path / f"{command}_b"
            run(command, "--config", cfg_path, "--out", str(first), "--format", "both")
            echoed = first / "effective_config.json"
            run(command, "--config", str(echoed), "--out", str(second))
            names = sorted(
                p.name for p in first.iterdir() if p.suffix in (".csv", ".svg")
            )
            assert names, command
            for name in names:
                assert (first / name).read_bytes() == (second / name).read_bytes(), (
                    f"{command}/{name} differs between runs"
                )
        # compare consumes the ablate output; run it twice as well
        sweep_csv = str(tmp_path / "ablate_a" / "sweep.csv")
        for out in ("cmp_a", "cmp_b"):
            run("compare", "--result", sweep_csv, "--out", str(tmp_path / out))
        assert (tmp_path / "cmp_a" / "deviation.csv").read_bytes() == (
            tmp_path / "cmp_b" / "deviation.csv"
        ).read_bytes()
