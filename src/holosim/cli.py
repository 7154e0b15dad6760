"""Command-line entry point.

    holosim <experiment> --config <file.json> [--out <path>] [--seed <u64>]
            [--samples <N>]

The experiments, their CSV columns and the config knobs the flags set
come from experiments.REGISTRY (see `holosim --help`). Each run writes a
CSV table and a JSON metadata file (resolved config, tool version,
elapsed ms, hard checks) next to it; the exit code is 0 iff every hard
check passed, and failed checks are listed on standard error. Flag
overrides win over the config file and are recorded in the echoed
config. Bad input exits 2: an unreadable config, a ConfigError (an invalid
field, or a flag the experiment has no knob for), a DegenerateInputError (it
names where) or an --out path that cannot be written.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import __version__
from .experiments import EXPERIMENTS, REGISTRY, run_experiment
from .report import ConfigError, DegenerateInputError


def _knobs(flag: str) -> str:
    knobs = ((name, e.knob(flag)) for name, e in REGISTRY.items())
    return "; ".join(f"{name}: {knob}" for name, knob in knobs if knob)


@functools.cache  # one parser per process: it depends on REGISTRY alone
def build_parser() -> argparse.ArgumentParser:
    schema_lines = "\n".join(f"  {n}: {', '.join(e.columns)}" for n, e in REGISTRY.items())
    parser = argparse.ArgumentParser(
        prog="holosim",
        description=(
            "Geometric-phase and holonomy experiments with oracle cross-checks. "
            "Reports are CSV tables (schema fixed per experiment, see "
            "docs/formats.md) plus JSON metadata."
        ),
        epilog="CSV columns per experiment:\n" + schema_lines,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"holosim {__version__}")
    parser.add_argument(
        "experiment",
        choices=EXPERIMENTS,
        help="which experiment to run",
    )
    parser.add_argument(
        "--config",
        type=Path,
        help="JSON config file; missing fields fall back to built-in defaults",
    )
    parser.add_argument(
        "--out",
        type=Path,
        help="output CSV path (metadata goes to the same stem with .json); "
        "default <experiment>.csv in the working directory",
    )
    parser.add_argument(
        "--seed",
        type=int,
        help=f"override the noise seed ({_knobs('seed')}; recorded in the "
        "config echo; other experiments exit 2)",
    )
    parser.add_argument(
        "--samples",
        type=int,
        help="override the experiment's main resolution knob: "
        f"{_knobs('samples')}; other experiments exit 2",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    user_config = None
    if args.config is not None:
        try:
            user_config = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError) as exc:
            print(f"error: cannot read config {args.config}: {exc}", file=sys.stderr)
            return 2
        except json.JSONDecodeError as exc:
            print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
            return 2
    try:
        report = run_experiment(
            args.experiment, user_config, seed=args.seed, samples=args.samples
        )
    except (ConfigError, DegenerateInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out = args.out if args.out is not None else Path(f"{args.experiment}.csv")
    if out.suffix != ".csv":
        out = out.with_suffix(".csv")
    try:
        csv_path, meta_path = report.write(out)
    except OSError as exc:
        print(f"error: cannot write report {out}: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {csv_path} and {meta_path}")

    failed = report.failed_checks()
    for check in report.checks:
        status = "pass" if check.passed else "FAIL"
        print(f"  [{status}] {check.name}: value={check.value!r} bound {check.bound}")
    if failed:
        names = ", ".join(c.name for c in failed)
        print(f"{len(failed)} hard check(s) failed: {names}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
