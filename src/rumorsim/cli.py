"""Command-line entry point.

Subcommands: ``simulate`` (one realization), ``ensemble`` (Monte Carlo
summary and outbreak metrics), ``stability`` (threshold margin plus an
empirical mean-square decay report), ``ablate`` (delay x R0 sweep), and
``compare`` (sweep result vs a reference table).  Every file written is
listed on standard output, one path per line; configuration and numeric
failures print machine-parsable ``error: ...`` lines on standard error
and exit nonzero (2 for configuration problems, 3 for numeric ones).
Each warning that the active filters let through prints as one
``warning: ...`` line.

The effective configuration, with every default resolved, is echoed into
the output directory before anything is computed; re-running any
subcommand from the echoed file reproduces the outputs byte for byte.

The argument parser is built once per process, on the first call of
:func:`main`, and serves every later call; importing the module builds none.
The sweep (:mod:`rumorsim.ablation`) and the stability lab
(:mod:`rumorsim.stability`) are imported by the subcommands that run them,
so no other subcommand loads them.
"""

from __future__ import annotations

import argparse
import functools
import sys
import warnings
from pathlib import Path

from .config import (
    RunConfig,
    apply_overrides,
    default_config,
    load_config,
    write_effective_config,
)
from .ensemble import run_ensemble, write_aggregate_csv, write_metrics_csv, write_summary_csv
from .errors import ConfigurationError, GridMismatchError, NumericsError, RumorSimError
from .integrator import integrate, write_table, write_trajectory_csv
from .model import CSV_COMPARTMENTS, HistoryFunction, reproduction_number
from .svg import Series, write_svg

__all__ = ["main"]

_FORMAT_CHOICES = {"csv": ("csv",), "svg": ("svg",), "both": ("csv", "svg")}


@functools.cache  # parsing leaves the parser as it was, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rumorsim",
        description="Stochastic delayed rumor-propagation simulations and analyses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        cmd = sub.add_parser(name, help=command.__doc__)
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


def _outputs(cfg: RunConfig):
    """Echo the effective configuration into the output directory.  Returns
    ``output(name)``, which gives the path of a file there and lists it, and
    the list of every path it gave."""
    out_dir = Path(cfg.output.directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []

    def output(name: str) -> Path:
        written.append(out_dir / name)
        return written[-1]

    write_effective_config(cfg, output("effective_config.json"))
    return output, written


def _write_compartments(times, table, path, title: str) -> None:
    """Chart each compartment column of ``table`` against ``times``."""
    series = [Series(name, times, table[:, idx]) for idx, name in enumerate(CSV_COMPARTMENTS)]
    write_svg(series, path, title=title, y_label="density")


def _cmd_simulate(cfg: RunConfig, output, args) -> None:
    """integrate one realization and export the trajectory"""
    trajectory = integrate(cfg.model, HistoryFunction.constant(cfg.initial), cfg.integrator, cfg.ensemble.seed)
    if cfg.output.wants_csv:
        write_trajectory_csv(trajectory, output("trajectory.csv"))
    if cfg.output.wants_svg:
        path, title = output("trajectory.svg"), "Compartment trajectories"
        _write_compartments(trajectory.times, trajectory.states, path, title)


def _cmd_ensemble(cfg: RunConfig, output, args) -> None:
    """run a Monte Carlo ensemble and export summary and metrics"""
    result = run_ensemble(
        cfg.model,
        HistoryFunction.constant(cfg.initial),
        cfg.integrator,
        cfg.ensemble.run_count,
        cfg.ensemble.seed,
        ci_level=cfg.ensemble.ci_level,
        ci_method=cfg.ensemble.ci_method,
    )
    summary = result.summary
    if cfg.output.wants_csv:
        write_summary_csv(summary, output("summary.csv"))
        write_metrics_csv(result.metrics, output("metrics.csv"))
        write_aggregate_csv(result.metrics, output("aggregate.csv"))
    if cfg.output.wants_svg:
        i_col = CSV_COMPARTMENTS.index("I")
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
            output("spreader_band.svg"),
            title=(
                f"Spreader density, {summary.run_count} runs, "
                f"{100 * summary.ci_level:g}% band"
            ),
            y_label="density",
        )
        title = f"Compartment means, {summary.run_count} runs"
        _write_compartments(summary.times, summary.mean, output("compartment_means.svg"), title)


def _cmd_stability(cfg: RunConfig, output, args) -> None:
    """threshold margin and empirical mean-square decay report"""
    from .stability import simulate_linearized, write_decay_csv

    report = simulate_linearized(
        cfg.model,
        cfg.stability.e0,
        cfg.stability.i0,
        cfg.integrator,
        cfg.stability.run_count,
        cfg.ensemble.seed,
    )
    if cfg.output.wants_csv:
        write_table(
            output("threshold.csv"),
            ["R0", "stochastic_margin", "ms_condition_holds"],
            [[reproduction_number(cfg.model)], [report.margin], [report.margin > 0]],
        )
        write_decay_csv(report, output("decay.csv"))
    if cfg.output.wants_svg:
        write_svg(
            [Series(label="E[E^2+I^2]", times=report.times, values=report.ms_estimate)],
            output("decay.svg"),
            title=f"Second-moment estimate ({report.verdict.value})",
            y_label="second moment",
        )


def _cmd_ablate(cfg: RunConfig, output, args) -> None:
    """sweep the delay x reproduction-number grid"""
    from .ablation import SweepSpec, run_sweep, write_sweep_csv

    sweep = cfg.sweep
    result = run_sweep(
        SweepSpec(
            taus=sweep.taus,
            r0_values=sweep.r0_values,
            run_count=sweep.run_count,
            base_seed=sweep.seed,
            template=cfg.model,
            integrator=cfg.integrator,
            initial_state=cfg.initial,
        )
    )
    if cfg.output.wants_csv:
        write_sweep_csv(result, output("sweep.csv"))
        try:
            _write_deviation(result, None, output)
        except GridMismatchError:
            print(
                "note: sweep grid not covered by the bundled reference; deviation report skipped",
                file=sys.stderr,
            )
    if cfg.output.wants_svg:
        labels = [f"tau={tau:g}" for tau in sweep.taus]
        if len(set(labels)) < len(labels):  # delays alike to 6 significant digits
            labels = [f"tau={tau!r}" for tau in sweep.taus]
        n = len(sweep.r0_values)  # the cells run in grid order, R0 fastest
        for stat, fname, label in (
            ("final_mean", "sweep_final.svg", "mean final size R+F"),
            ("peak_mean", "sweep_peak.svg", "mean peak spreader density"),
        ):
            series = [
                Series(
                    label=tau_label,
                    times=list(sweep.r0_values),
                    values=[getattr(c, stat) for c in result.cells[i * n : (i + 1) * n]],
                )
                for i, tau_label in enumerate(labels)
            ]
            write_svg(series, output(fname), title=label, x_label="R0", y_label=label)


def _cmd_compare(cfg: RunConfig, output, args) -> None:
    """compare a sweep result CSV against a reference table"""
    from .ablation import read_sweep_csv

    _write_deviation(read_sweep_csv(args.result), args.reference, output)


def _write_deviation(result, reference_path, output) -> None:
    """Compare ``result`` with the table at ``reference_path``, or with the
    bundled one cut to the result's cells, and write ``deviation.csv``."""
    from .ablation import compare_to_reference, filter_reference, load_reference, write_deviation_csv

    reference = load_reference(reference_path)
    if reference_path is None:
        reference = filter_reference(reference, {c.tau for c in result.cells}, {c.r0 for c in result.cells})
    write_deviation_csv(compare_to_reference(result, reference), output("deviation.csv"))


# Every subcommand takes ``(cfg, output, args)`` and writes its files through
# ``output``; its docstring is its help line, so a deferred import follows it.
_COMMANDS = {
    "simulate": _cmd_simulate,
    "ensemble": _cmd_ensemble,
    "stability": _cmd_stability,
    "ablate": _cmd_ablate,
    "compare": _cmd_compare,
}


def _one_line(message) -> str:
    """``message`` with every character that could break or hide a line
    escaped, so that each error prints as one line."""
    return "".join(c if c.isprintable() else repr(c)[1:-1] for c in str(message))


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {_one_line(message)}", file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # each warning the filters let through prints as one line
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            cfg = _resolve_config(args)
            output, written = _outputs(cfg)
            _COMMANDS[args.command](cfg, output, args)
    except ConfigurationError as exc:
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
