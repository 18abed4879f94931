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
import os
import sys

# only what metrics needs: bound, sweep and verify import report, bounds and
# dataclasses in their own bodies, and files are read and written with open,
# not pathlib, so that metrics never loads them
from .confusion import counts_from_json, false_omission_rate, records_from_csv
from .errors import AssumptionViolationError, InvalidInputError, ParseError, SdpFeasError, indented_json
from .errors import read_integer_text, read_number_text

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ASSUMPTION = 2
EXIT_OUT_OF_REGIME = 3
EXIT_VERIFICATION = 4
SEED_ENV_VAR = "SDPFEAS_SEED"


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract wants 1, with the
    usage and an ``error:`` line."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path) as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SdpFeasError(f"cannot read {path}: {exc}") from exc


def _write_output(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as handle:
            handle.write(text)
    except OSError as exc:
        raise SdpFeasError(f"cannot write {out}: {exc}") from exc


def _load_config(args):
    """The scenario file, with SDPFEAS_SEED where it gives no seed (read and checked even under --seed) and the
    flags over both; the config is built again, once, only where one of them changes a field."""
    import dataclasses

    from .oracle import read_seed
    from .report import ScenarioConfig

    config = ScenarioConfig.from_json(_read_text(args.config))
    flags = {"seed": args.seed, "mc_trials": args.trials, "corrected": args.corrected, "epsilon": args.epsilon}
    changes = {name: value for name, value in flags.items() if value is not None}
    text = os.environ.get(SEED_ENV_VAR)
    if config.seed is None and text is not None:
        try:
            seed = read_integer_text(text)
        except ValueError:
            raise ParseError(f"{SEED_ENV_VAR} must be an integer, got {text!r}") from None
        changes.setdefault("seed", read_seed(seed, "seed"))
    return dataclasses.replace(config, **changes) if changes else config


def cmd_metrics(args) -> int:
    """Print the false omission rate and full confusion summary as JSON."""
    if args.counts is not None:
        matrix = counts_from_json(_read_text(args.counts))
    else:
        matrix = records_from_csv(_read_text(args.records))
    p = false_omission_rate(matrix)
    payload = {"p": float(p), "fraction": str(p), "confusion": matrix.to_dict()}
    _write_output(indented_json(payload) + "\n", args.out)
    return EXIT_OK


def cmd_bound(args) -> int:
    """Compute a single bound at one time point."""
    from .bounds import Regime
    from .report import run_sweep

    config = _load_config(args)
    if len(config.grid) != 1 or len(config.kinds) != 1:
        raise InvalidInputError("'bound' needs a single-point time grid and exactly one kind")
    [[entry]] = run_sweep(config)
    _write_output(indented_json(entry.to_dict()) + "\n", args.out)
    return EXIT_OUT_OF_REGIME if entry.regime is Regime.OUT_OF_REGIME else EXIT_OK


def cmd_sweep(args) -> int:
    """Evaluate the configured bounds over the time grid."""
    from .report import run_sweep, sweep_to_csv

    config = _load_config(args)
    if args.format == "json":
        text = indented_json([e.to_dict() for block in run_sweep(config) for e in block]) + "\n"
    else:
        text = sweep_to_csv(config)
    _write_output(text, args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    """Run the sweep plus oracle verification and emit a feasibility report."""
    from .report import FeasibilityReport

    config = _load_config(args)
    report = FeasibilityReport(config)
    _write_output(report.to_json() + "\n", args.out)
    return EXIT_OK if report.all_hold else EXIT_VERIFICATION


def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, each subparser carrying its command as
    ``run``; the top-level help lists them in this order."""
    parser = _Parser(prog="sdpfeas", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    # the usage line and the missing-command error name the commands by this metavar
    sub = parser.add_subparsers(required=True, metavar="{metrics,bound,sweep,verify}")
    metrics = sub.add_parser("metrics", help="false omission rate from counts or records")
    metrics.set_defaults(run=cmd_metrics)
    group = metrics.add_mutually_exclusive_group(required=True)
    group.add_argument("--counts", help="path to counts JSON ('-' for stdin)")
    group.add_argument("--records", help="path to records CSV ('-' for stdin)")
    metrics.add_argument("--out", help="output path (default stdout)")
    for name, run, summary in (
        ("bound", cmd_bound, "single bound at one time point"),
        ("sweep", cmd_sweep, "bounds over a time grid"),
        ("verify", cmd_verify, "sweep plus oracle verification report"),
    ):
        command = sub.add_parser(name, help=summary)
        command.set_defaults(run=run)
        command.add_argument("--config", required=True, help="path to scenario JSON ('-' for stdin)")
        command.add_argument("--out", help="output path (default stdout)")
        command.add_argument("--seed", type=read_integer_text, help="RNG seed (overrides config and SDPFEAS_SEED)")
        command.add_argument("--trials", type=read_integer_text, help="Monte-Carlo trial count override")
        command.add_argument("--epsilon", type=read_number_text, help="feasibility cutoff override")
        sign = command.add_mutually_exclusive_group()
        sign.add_argument("--corrected", dest="corrected", action="store_true", default=None)
        sign.add_argument("--as-published", dest="corrected", action="store_false", default=None)
        if name == "sweep":
            command.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


#: built once per process; parse_args leaves it unchanged
PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = PARSER.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return args.run(args)
    except SdpFeasError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ASSUMPTION if isinstance(exc, AssumptionViolationError) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
