"""Command-line surface: metrics, bound, sweep, verify.

Exit-code contract (total, nothing else is returned):

    0  success
    1  usage error or I/O failure
    2  failure-model assumption violated (e.g. no false negatives)
    3  bound out of regime (the theorem is inapplicable; a finding, not
       an error)
    4  verification failure (an oracle value met or exceeded its bound)
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import Callable, Mapping, NamedTuple

from .bounds import BoundResult
from .confusion import counts_from_json, false_omission_rate, records_from_csv
from .errors import AssumptionViolationError, SdpFeasError
from .report import ScenarioConfig, build_report, indented_json, run_sweep, sweep_to_csv

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ASSUMPTION = 2
EXIT_OUT_OF_REGIME = 3
EXIT_VERIFICATION = 4


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _read_text(path: str) -> str:
    try:
        return sys.stdin.read() if path == "-" else Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise SdpFeasError(f"cannot read {path}: {exc}") from exc


def _write_output(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text)
    except OSError as exc:
        raise SdpFeasError(f"cannot write {out}: {exc}") from exc


def _load_config(args) -> ScenarioConfig:
    """The scenario file with the command-line flags applied, checked alike."""
    config = ScenarioConfig.from_json(_read_text(args.config))
    flags = {"seed": args.seed, "mc_trials": args.trials, "corrected": args.corrected, "epsilon": args.epsilon}
    return dataclasses.replace(config, **{name: value for name, value in flags.items() if value is not None})


def cmd_metrics(args) -> int:
    """Print the false omission rate and full confusion summary as JSON."""
    if args.counts is not None:
        matrix = counts_from_json(_read_text(args.counts))
    else:
        matrix = records_from_csv(_read_text(args.records))
    p = false_omission_rate(matrix)
    payload = {"p": p.p, "fraction": p.fraction, "confusion": matrix.to_dict()}
    _write_output(indented_json(payload) + "\n", args.out)
    return EXIT_OK


def cmd_bound(args) -> int:
    """Compute a single bound at one time point."""
    config = _load_config(args)
    if len(config.grid) != 1 or len(config.kinds) != 1:
        print("error: 'bound' needs a single-point time grid and exactly one kind", file=sys.stderr)
        return EXIT_USAGE
    entry = run_sweep(config)[0]
    _write_output(indented_json(entry.to_dict()) + "\n", args.out)
    return EXIT_OK if isinstance(entry, BoundResult) else EXIT_OUT_OF_REGIME


def cmd_sweep(args) -> int:
    """Evaluate the configured bounds over the time grid."""
    config = _load_config(args)
    entries = run_sweep(config)
    if args.format == "json":
        text = indented_json([e.to_dict() for e in entries]) + "\n"
    else:
        text = sweep_to_csv(entries)
    _write_output(text, args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    """Run the sweep plus oracle verification and emit a feasibility report."""
    config = _load_config(args)
    report = build_report(config)
    _write_output(report.to_json() + "\n", args.out)
    return EXIT_OK if report.all_hold else EXIT_VERIFICATION


def _add_metrics_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--counts", help="path to counts JSON ('-' for stdin)")
    group.add_argument("--records", help="path to records CSV ('-' for stdin)")
    parser.add_argument("--out", help="output path (default stdout)")


def _add_scenario_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="path to scenario JSON ('-' for stdin)")
    parser.add_argument("--out", help="output path (default stdout)")
    parser.add_argument("--seed", type=int, help="RNG seed (overrides config and SDPFEAS_SEED)")
    parser.add_argument("--trials", type=int, help="Monte-Carlo trial count override")
    parser.add_argument("--epsilon", type=float, help="feasibility cutoff override")
    sign = parser.add_mutually_exclusive_group()
    sign.add_argument("--corrected", dest="corrected", action="store_true", default=None)
    sign.add_argument("--as-published", dest="corrected", action="store_false", default=None)


def _add_sweep_args(parser: argparse.ArgumentParser) -> None:
    _add_scenario_args(parser)
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


class Command(NamedTuple):
    help: str
    run: Callable[[argparse.Namespace], int]
    add_arguments: Callable[[argparse.ArgumentParser], None]


#: every subcommand, in the order the top-level help lists them
COMMANDS = {
    "metrics": Command("false omission rate from counts or records", cmd_metrics, _add_metrics_args),
    "bound": Command("single bound at one time point", cmd_bound, _add_scenario_args),
    "sweep": Command("bounds over a time grid", cmd_sweep, _add_sweep_args),
    "verify": Command("sweep plus oracle verification report", cmd_verify, _add_scenario_args),
}


def build_parser(commands: Mapping[str, Command] = COMMANDS) -> argparse.ArgumentParser:
    """The parser with a subparser for each of ``commands``.

    The metavar names all of COMMANDS, so the usage line reads the same
    whichever subparsers are built.
    """
    parser = _Parser(prog="sdpfeas", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, metavar="{" + ",".join(COMMANDS) + "}")
    for name, command in commands.items():
        command.add_arguments(sub.add_parser(name, help=command.help))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a call names its command first; only help and usage errors need the rest
    commands = {argv[0]: COMMANDS[argv[0]]} if argv and argv[0] in COMMANDS else COMMANDS
    parser = build_parser(commands)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return COMMANDS[args.command].run(args)
    except AssumptionViolationError as exc:
        print(
            f"error: assumption {exc.assumption} violated "
            f"(at least one false negative and one true negative required): {exc}",
            file=sys.stderr,
        )
        return EXIT_ASSUMPTION
    except SdpFeasError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
