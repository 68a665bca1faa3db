"""Tests of the benchmark harness itself, on small inputs.

Run with ``python3 -m pytest perfbench/tests``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import rumorsim.cli
import tracing
import workloads
import worker
from conftest import BENCH

SHORT = {"integrator": {"step_size": 0.1, "horizon": 5.0}}
STEPS = 50
# R0 = 2 grows by the factor 100 that decides the verdict only after t ~ 30
STABLE = {"integrator": {"step_size": 0.1, "horizon": 40.0}}
STABLE_STEPS = 400


def small_calls(work):
    """One call of every subcommand the workloads use, on short horizons."""
    return [
        workloads.make_call(work, "s", "simulate", SHORT, steps=STEPS),
        workloads.make_call(
            work, "e", "ensemble", {**SHORT, "ensemble": {"run_count": 4}}, runs=4, steps=STEPS
        ),
        workloads.make_call(
            work, "st", "stability", {**STABLE, "stability": {"run_count": 3}}, runs=3, steps=STABLE_STEPS
        ),
        workloads.make_call(
            work,
            "a",
            "ablate",
            {**SHORT, "sweep": {"taus": [0.0], "r0_values": [0.5, 2.0], "run_count": 2}},
            runs=2,
            steps=STEPS,
        ),
    ]


def package_functions():
    return {
        f"{mod.__name__}.{name}": value
        for mod in tracing._package_modules()
        for name, value in vars(mod).items()
        if callable(value)
    }


def test_small_calls_pass_every_check(tmp_path):
    calls = small_calls(tmp_path)
    p = worker.run_pass(rumorsim.cli, calls, None)
    assert (p.attempted, p.failed, p.problems) == (4, 0, [])
    assert p.path_steps == STEPS * (1 + 4 + 2 * 2) + STABLE_STEPS * 3
    assert "a/sweep.csv" in p.digests and "st/decay.svg" in p.digests


def test_invalid_config_counts_as_failed_call(tmp_path):
    bad = workloads.make_call(tmp_path, "bad", "simulate", {"model": {"beta": -1.0}})
    good = workloads.make_call(tmp_path, "good", "simulate", SHORT, steps=STEPS)
    summary = worker.measure(rumorsim.cli, [bad, good], 0.0, False, None)
    assert (summary["attempted"], summary["failed"]) == (2, 1)
    assert summary["problems"][0].startswith("bad: exit 2: error: model.beta")
    assert summary["metrics"]["path_steps_per_s"] > 0


def test_wrong_outputs_count_as_failed_calls(tmp_path):
    call = workloads.make_call(tmp_path, "s", "simulate", SHORT, steps=STEPS)
    seconds, code, out, err = worker.run_call(rumorsim.cli, call)
    assert workloads.check_call(call, code, out, err)[0] == []

    table = call.out_dir / "trajectory.csv"
    table.write_text("\n".join(table.read_text().splitlines()[:-1]) + "\n")
    problems, _ = workloads.check_call(call, code, out, err)
    assert problems == [f"s/trajectory.csv: {STEPS} rows, expected {STEPS + 1}"]

    problems, _ = workloads.check_call(call, code, "\n".join(out.splitlines()[:-1]), err)
    assert problems and "expected" in problems[0]

    reference = {"s/trajectory.csv": "0" * 64, "s/trajectory.svg": "0" * 64}
    p = worker.run_pass(rumorsim.cli, [call], reference)
    assert p.failed == 1
    assert p.problems == [
        f"s/{name}: SHA-256 differs from the recorded one"
        for name in ("trajectory.csv", "trajectory.svg")
    ]


def test_stability_verdict_must_match_margin_sign(tmp_path):
    call = workloads.make_call(tmp_path, "st", "stability", STABLE, runs=200, steps=STABLE_STEPS)
    worker.run_call(rumorsim.cli, call)
    assert workloads.check_verdict(call) == []  # default R0 = 2: negative margin, growth
    decay = call.out_dir / "decay.csv"
    decay.write_text(decay.read_text().replace("# verdict=growth", "# verdict=decay"))
    assert workloads.check_verdict(call) == ["st: verdict decay with margin -1.00033"]


def test_self_times_add_up_to_traced_wall_minus_untraced(tmp_path):
    calls = small_calls(tmp_path)
    with tracing.Tracer() as tracer:
        p = worker.run_pass(rumorsim.cli, calls, None)
    m = tracing.layer_metrics(tracer, p.wall_s)
    total_self = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert m["trace.untraced_s"] >= 0
    assert total_self == pytest.approx(p.wall_s - m["trace.untraced_s"], rel=1e-9)
    assert all(m[f"{layer}.self_s"] > 0 for layer in tracing.LAYERS)
    assert all(m[f"{layer}.errors"] == 0 for layer in tracing.LAYERS)
    # every integration is counted once, including each sweep cell
    assert m["integrator.path_steps"] == STEPS * (1 + 4 + 2 * 2)
    assert m["stability.path_steps"] == STABLE_STEPS * 3
    assert m["rng.draws"] == STEPS * 6 * (1 + 4 + 2 * 2) + STABLE_STEPS * 2 * 3
    assert m["ablation.cells"] == 2
    assert m["ensemble.summaries_written_ratio"] == pytest.approx(1 / 3)
    assert m["csv.calls"] == 7 and m["svg.calls"] == 6
    assert m["csv.bytes"] > 0 and m["svg.bytes"] > 0


def test_errors_passing_through_a_span_are_counted(tmp_path):
    bad = workloads.make_call(tmp_path, "bad", "simulate", {"integrator": {"horizon": 0.05}})
    with tracing.Tracer() as tracer:
        p = worker.run_pass(rumorsim.cli, [bad], None)
    assert p.failed == 1
    assert tracing.layer_metrics(tracer, p.wall_s)["cli.errors"] == 0  # main returns 2
    with tracing.Tracer() as tracer:
        with pytest.raises(ValueError):
            rumorsim.integrator.simulate_paths(None, None, None, [])
    assert tracing.layer_metrics(tracer, 0.0)["integrator.errors"] == 1


def test_tracer_wraps_every_import_site_and_restores_them(tmp_path):
    before = package_functions()
    with tracing.Tracer():
        wrapped = set(tracing.wrapped_names())
    assert {
        "rumorsim.integrator.normal_block",
        "rumorsim.stability.normal_block",
        "rumorsim.ensemble.simulate_paths",
        "rumorsim.ablation.run_ensemble",
        "rumorsim.cli.run_ensemble",
        "rumorsim.cli.main",
        "rumorsim.cli.write_summary_csv",
        "rumorsim.cli.write_svg",
    } <= wrapped
    assert tracing.wrapped_names() == []
    assert package_functions() == before


def test_untraced_run_leaves_functions_unwrapped(tmp_path):
    before = package_functions()
    seen = []
    original_main = rumorsim.cli.main

    class Spy:
        @staticmethod
        def main(argv):
            seen.append(tracing.wrapped_names())
            return original_main(argv)

    worker.measure(Spy, small_calls(tmp_path), 0.0, False, None)
    assert seen == [[]] * 4
    assert package_functions() == before
    summary = worker.measure(rumorsim.cli, small_calls(tmp_path), 0.0, True, None)
    assert summary["failed"] == 0 and summary["passes"] == 3
    assert package_functions() == before


def test_generator_derives_inputs_from_the_seed_only(tmp_path):
    def configs(seed, work):
        workloads.build("reports", seed, work)
        return {p.name: p.read_text() for p in (work / "configs").iterdir()}

    first = configs(7, tmp_path / "a")
    assert first == configs(7, tmp_path / "b")
    assert first != configs(8, tmp_path / "c")
    assert len(first) == 18
    assert {p.name for p in tmp_path.iterdir()} == {"a", "b", "c"}
    for name in workloads.WORKLOADS:
        calls = workloads.build(name, 7, tmp_path / name)
        assert all(str(c.out_dir).startswith(str(tmp_path / name)) for c in calls)


def test_workload_sizes(tmp_path):
    sizes = {
        name: sum(c.path_steps for c in workloads.build(name, 0, tmp_path / name))
        for name in workloads.WORKLOADS
    }
    assert sizes == {"sweep": 3_600_000, "wide_ensemble": 4_000_000, "reports": 3_612_000}


def test_run_outside_a_checkout_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "error:" in proc.stderr


def test_benchmark_spec_matches_reported_metrics(tmp_path):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    calls = small_calls(tmp_path)
    traced = worker.measure(rumorsim.cli, calls, 0.0, True, None)["metrics"]
    assert sorted(traced) == sorted(m["name"] for m in spec["per_layer"])
    untraced = worker.measure(rumorsim.cli, calls, 0.0, False, None)["metrics"]
    assert {m["name"] for m in spec["end_to_end"]} <= {*untraced, "setup_s"}


def test_rescaled_metrics_divide_out_the_speed_samples(tmp_path):
    summary = worker.measure(rumorsim.cli, small_calls(tmp_path), 1.0, False, None)
    m = summary["metrics"]
    assert summary["samples"] >= 5  # about ten a second
    assert summary["loop_s"] > 0
    assert m["wall_s"] == pytest.approx(sum(summary["walls"]) / len(summary["walls"]))
    # rescaling divides the wall time by the sampled loop time; the two
    # metrics stay consistent with each other and with the raw ones
    ratio = m["wall_ref_s"] / m["wall_s"]
    assert 0.2 < ratio * summary["loop_s"] / worker.REFERENCE_LOOP_S < 5
    assert m["path_steps_per_ref_s"] * m["wall_ref_s"] == pytest.approx(
        m["path_steps_per_s"] * m["wall_s"], rel=0.2
    )


def test_sampler_shares_the_pinned_cpu_and_the_pin_is_undone():
    before = os.sched_getaffinity(0)
    with worker.SpeedSampler() as sampler:
        pinned = os.sched_getaffinity(0)
        assert len(pinned) == 1
        assert os.sched_getaffinity(sampler._proc.pid) == pinned
    assert os.sched_getaffinity(0) == before
    assert sampler.samples
