"""Command line entry point.

One subcommand per scenario plus ``presets`` for catalogue inspection::

    coesolve check-condition --preset example-4.3-condition --out results/
    coesolve solve-parabolic --config run.json --seed 7
    coesolve presets --dump example-4.4

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 admissibility check failed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .config import SCENARIOS, parse_run
from .errors import (
    AdmissibilityError,
    ConditionNotCheckedError,
    ConfigError,
    DegenerateSampleError,
    InvalidArgumentError,
)
from .output import to_json_text
from .presets import get_preset, preset_names
from .runner import run_scenario

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_ADMISSIBILITY = 4


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="coesolve",
        description="Spectral solver and verification toolkit for "
        "convolution operator equations on the line.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for scenario in SCENARIOS:
        p = sub.add_parser(scenario, help=f"run the {scenario} scenario")
        p.add_argument("--config", help="path to a JSON config document")
        p.add_argument("--preset", help="name of a built-in preset config")
        p.add_argument("--out", help="directory for result files")
        p.add_argument("--seed", type=int, help="override the config seed")
    p = sub.add_parser("presets", help="list or dump built-in presets")
    p.add_argument("--dump", metavar="NAME", help="print one preset as JSON")
    return parser


def _load_config(args) -> tuple:
    if args.config and args.preset:
        raise ConfigError("give either --config or --preset, not both")
    if args.preset:
        try:
            return get_preset(args.preset), args.preset
        except InvalidArgumentError as exc:
            raise ConfigError(str(exc))
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                return json.load(fh), None
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config!r}: {exc.strerror}")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config {args.config!r} is not UTF-8 text: {exc}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {args.config!r} is not valid JSON: {exc}")
        except RecursionError:
            raise ConfigError(f"config {args.config!r} nests too deeply to read")
    raise ConfigError("a config is required (--config PATH or --preset NAME)")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "presets":
        if args.dump:
            try:
                print(to_json_text(get_preset(args.dump)))
            except InvalidArgumentError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return EXIT_CONFIG
        else:
            for name in preset_names():
                print(f"{name:24s} {get_preset(name)['scenario']}")
        return EXIT_OK

    try:
        config, preset_name = _load_config(args)
        parse_run(config)  # for the subcommand check; run_scenario builds the problem
        if config["scenario"] != args.command:
            raise ConfigError(
                f"config is for scenario {config['scenario']!r}, "
                f"but the {args.command!r} subcommand was invoked",
                "scenario",
            )
        result = run_scenario(
            config, out_dir=args.out, seed=args.seed, preset_name=preset_name
        )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AdmissibilityError as exc:
        print(f"admissibility check failed: {exc}", file=sys.stderr)
        return EXIT_ADMISSIBILITY
    except (
        ArithmeticError,  # also BlowUpError, DegenerateSymbolError, SingularResolventError
        ConditionNotCheckedError,
        DegenerateSampleError,
        InvalidArgumentError,
        MemoryError,
        np.linalg.LinAlgError,
    ) as exc:
        print(f"numerical failure: {exc} ({type(exc).__name__} in {args.command})",
              file=sys.stderr)
        return EXIT_NUMERICAL

    print(to_json_text(result.summary))
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
