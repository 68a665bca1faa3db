"""Command-line entry point.

Subcommands: ``simulate`` (one realization), ``ensemble`` (Monte Carlo
summary and outbreak metrics), ``stability`` (threshold margin plus an
empirical mean-square decay report), ``ablate`` (delay x R0 sweep), and
``compare`` (sweep result vs a reference table).  Every file written is
listed on standard output, one path per line; configuration and numeric
failures print machine-parsable ``error: ...`` lines on standard error
and exit nonzero (2 for configuration problems, 3 for numeric ones).

The effective configuration, with every default resolved, is echoed into
the output directory before anything is computed; re-running any
subcommand from the echoed file reproduces the outputs byte for byte.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .ablation import (
    SweepSpec,
    compare_to_reference,
    filter_reference,
    load_reference,
    read_sweep_csv,
    run_sweep,
    write_deviation_csv,
    write_sweep_csv,
)
from .config import (
    RunConfig,
    apply_overrides,
    default_config,
    load_config,
    write_effective_config,
)
from .ensemble import run_ensemble, write_aggregate_csv, write_metrics_csv, write_summary_csv
from .errors import ConfigFileError, GridMismatchError, NumericsError, RumorSimError
from .integrator import integrate, write_table, write_trajectory_csv
from .model import CSV_COMPARTMENTS, HistoryFunction, reproduction_number, stochastic_margin
from .stability import simulate_linearized, write_decay_csv
from .svg import Series, write_svg

__all__ = ["main"]

_FORMAT_CHOICES = {"csv": ("csv",), "svg": ("svg",), "both": ("csv", "svg")}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rumorsim",
        description="Stochastic delayed rumor-propagation simulations and analyses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("simulate", "integrate one realization and export the trajectory"),
        ("ensemble", "run a Monte Carlo ensemble and export summary and metrics"),
        ("stability", "threshold margin and empirical mean-square decay report"),
        ("ablate", "sweep the delay x reproduction-number grid"),
        ("compare", "compare a sweep result CSV against a reference table"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", metavar="PATH", help="JSON configuration file")
        cmd.add_argument("--out", metavar="DIR", help="output directory (overrides config)")
        cmd.add_argument("--seed", type=int, metavar="INT", help="base seed (overrides config)")
        cmd.add_argument("--runs", type=int, metavar="INT", help="run count (overrides config)")
        cmd.add_argument(
            "--format",
            choices=sorted(_FORMAT_CHOICES),
            help="output formats (overrides config)",
        )
        if name == "compare":
            cmd.add_argument("--result", metavar="PATH", required=True, help="sweep result CSV")
            cmd.add_argument(
                "--reference",
                metavar="PATH",
                help="reference table CSV (defaults to the bundled one)",
            )
    return parser


def _resolve_config(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else default_config()
    return apply_overrides(
        cfg,
        seed=args.seed,
        runs=args.runs,
        out_dir=args.out,
        formats=_FORMAT_CHOICES[args.format] if args.format else None,
    )


def _prepare_out(cfg: RunConfig) -> tuple[Path, list[Path]]:
    out_dir = Path(cfg.output.directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    echo = out_dir / "effective_config.json"
    write_effective_config(cfg, echo)
    return out_dir, [echo]


def _cmd_simulate(cfg: RunConfig) -> list[Path]:
    out_dir, written = _prepare_out(cfg)
    history = HistoryFunction.constant(cfg.initial)
    trajectory = integrate(cfg.model, history, cfg.integrator, cfg.ensemble.seed)
    if cfg.output.wants_csv:
        path = out_dir / "trajectory.csv"
        write_trajectory_csv(trajectory, path)
        written.append(path)
    if cfg.output.wants_svg:
        series = [
            Series(label=name, times=trajectory.times, values=trajectory.states[:, idx])
            for idx, name in enumerate(CSV_COMPARTMENTS)
        ]
        path = out_dir / "trajectory.svg"
        write_svg(series, path, title="Compartment trajectories", y_label="density")
        written.append(path)
    return written


def _cmd_ensemble(cfg: RunConfig) -> list[Path]:
    out_dir, written = _prepare_out(cfg)
    history = HistoryFunction.constant(cfg.initial)
    result = run_ensemble(
        cfg.model,
        history,
        cfg.integrator,
        cfg.ensemble.run_count,
        cfg.ensemble.seed,
        ci_level=cfg.ensemble.ci_level,
        ci_method=cfg.ensemble.ci_method,
    )
    summary = result.summary
    if cfg.output.wants_csv:
        for name, writer, payload in (
            ("summary.csv", write_summary_csv, summary),
            ("metrics.csv", write_metrics_csv, result.metrics),
            ("aggregate.csv", write_aggregate_csv, result.metrics),
        ):
            path = out_dir / name
            writer(payload, path)
            written.append(path)
    if cfg.output.wants_svg:
        i_col = CSV_COMPARTMENTS.index("I")
        band_path = out_dir / "spreader_band.svg"
        write_svg(
            [
                Series(
                    label="I mean",
                    times=summary.times,
                    values=summary.mean[:, i_col],
                    # one run has no band: its edges are NaN
                    band=(summary.lower[:, i_col], summary.upper[:, i_col])
                    if summary.run_count >= 2
                    else None,
                )
            ],
            band_path,
            title=(
                f"Spreader density, {summary.run_count} runs, "
                f"{100 * summary.ci_level:g}% band"
            ),
            y_label="density",
        )
        written.append(band_path)
        means_path = out_dir / "compartment_means.svg"
        write_svg(
            [
                Series(label=name, times=summary.times, values=summary.mean[:, idx])
                for idx, name in enumerate(CSV_COMPARTMENTS)
            ],
            means_path,
            title=f"Compartment means, {summary.run_count} runs",
            y_label="density",
        )
        written.append(means_path)
    return written


def _cmd_stability(cfg: RunConfig) -> list[Path]:
    out_dir, written = _prepare_out(cfg)
    report = simulate_linearized(
        cfg.model,
        cfg.stability.e0,
        cfg.stability.i0,
        cfg.integrator,
        cfg.stability.run_count,
        cfg.ensemble.seed,
    )
    if cfg.output.wants_csv:
        threshold_path = out_dir / "threshold.csv"
        margin = stochastic_margin(cfg.model)
        write_table(
            threshold_path,
            ["R0", "stochastic_margin", "ms_condition_holds"],
            [[reproduction_number(cfg.model)], [margin], [margin > 0]],
        )
        written.append(threshold_path)
        decay_path = out_dir / "decay.csv"
        write_decay_csv(report, decay_path)
        written.append(decay_path)
    if cfg.output.wants_svg:
        path = out_dir / "decay.svg"
        write_svg(
            [Series(label="E[E^2+I^2]", times=report.times, values=report.ms_estimate)],
            path,
            title=f"Second-moment estimate ({report.verdict.value})",
            y_label="second moment",
        )
        written.append(path)
    return written


def _sweep_spec(cfg: RunConfig) -> SweepSpec:
    return SweepSpec(
        taus=cfg.sweep.taus,
        r0_values=cfg.sweep.r0_values,
        run_count=cfg.sweep.run_count,
        base_seed=cfg.sweep.seed,
        template=cfg.model,
        integrator=cfg.integrator,
        initial_state=cfg.initial,
    )


def _cmd_ablate(cfg: RunConfig) -> list[Path]:
    out_dir, written = _prepare_out(cfg)
    result = run_sweep(_sweep_spec(cfg))
    if cfg.output.wants_csv:
        sweep_path = out_dir / "sweep.csv"
        write_sweep_csv(result, sweep_path)
        written.append(sweep_path)
        reference = filter_reference(load_reference(), cfg.sweep.taus, cfg.sweep.r0_values)
        try:
            report = compare_to_reference(result, reference)
        except GridMismatchError:
            print(
                "note: sweep grid not covered by the bundled reference; deviation report skipped",
                file=sys.stderr,
            )
        else:
            deviation_path = out_dir / "deviation.csv"
            write_deviation_csv(report, deviation_path)
            written.append(deviation_path)
    if cfg.output.wants_svg:
        labels = [f"tau={tau:g}" for tau in cfg.sweep.taus]
        if len(set(labels)) < len(labels):  # delays alike to 6 significant digits
            labels = [f"tau={tau!r}" for tau in cfg.sweep.taus]
        for stat, fname, label in (
            ("final_mean", "sweep_final.svg", "mean final size R+F"),
            ("peak_mean", "sweep_peak.svg", "mean peak spreader density"),
        ):
            series = []
            for tau, tau_label in zip(cfg.sweep.taus, labels):
                cells = [result.cell(tau, r0) for r0 in cfg.sweep.r0_values]
                series.append(
                    Series(
                        label=tau_label,
                        times=list(cfg.sweep.r0_values),
                        values=[getattr(c, stat) for c in cells],
                    )
                )
            path = out_dir / fname
            write_svg(series, path, title=label, x_label="R0", y_label=label)
            written.append(path)
    return written


def _cmd_compare(cfg: RunConfig, result_path: str, reference_path: str | None) -> list[Path]:
    out_dir, written = _prepare_out(cfg)
    result = read_sweep_csv(result_path)
    reference = load_reference(reference_path)
    if reference_path is None:
        reference = filter_reference(
            reference,
            {c.tau for c in result.cells},
            {c.r0 for c in result.cells},
        )
    report = compare_to_reference(result, reference)
    path = out_dir / "deviation.csv"
    write_deviation_csv(report, path)
    written.append(path)
    return written


def _one_line(message) -> str:
    """``message`` with every character that could break or hide a line
    escaped, so that each error prints as one line."""
    return "".join(c if c.isprintable() else repr(c)[1:-1] for c in str(message))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
        if args.command == "simulate":
            written = _cmd_simulate(cfg)
        elif args.command == "ensemble":
            written = _cmd_ensemble(cfg)
        elif args.command == "stability":
            written = _cmd_stability(cfg)
        elif args.command == "ablate":
            written = _cmd_ablate(cfg)
        else:
            written = _cmd_compare(cfg, args.result, args.reference)
    except ConfigFileError as exc:
        for violation in exc.violations:
            print(f"error: {_one_line(violation)}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"error: numeric: {_one_line(exc)}", file=sys.stderr)
        return 3
    except (RumorSimError, OSError) as exc:
        print(f"error: {_one_line(exc)}", file=sys.stderr)
        return 2
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
