"""Command line entry point: `debatekd run <experiment> [flags]`."""

from __future__ import annotations

import argparse
import sys

from .harness import EXIT_CONFIG_ERROR, EXPERIMENTS, ConfigError, RunConfig, run


class Parser(argparse.ArgumentParser):
    """The CLI's and the scripts' parser: a usage error is a config error,
    one `config error: ...` line and exit 1, since 2 means numeric abort."""

    def error(self, message):
        self.exit(EXIT_CONFIG_ERROR, f"config error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = Parser(
        prog="debatekd",
        description="Desk-scale debate-distillation experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # An absent flag leaves no attribute, so the parsed flags are the overrides.
    runp = sub.add_parser("run", help="execute one named experiment",
                          argument_default=argparse.SUPPRESS)
    runp.add_argument("experiment", choices=EXPERIMENTS)
    runp.add_argument("--config", help="JSON config file (flags override it)")
    runp.add_argument("--seed", type=int, help="master seed")
    runp.add_argument("--kind", help="divergence: fwd | rev | jsd:<beta>")
    runp.add_argument("--out", dest="out_dir", metavar="OUT", help="output directory")
    runp.add_argument("--fixture", help="mock scenario for opad / debate-demo")
    runp.add_argument("--iterations", type=int, help="training iterations / probe trials")
    return parser


def main(argv: list[str] | None = None) -> int:
    overrides = vars(build_parser().parse_args(argv))
    del overrides["command"]
    path = overrides.pop("config", None)
    try:
        config = RunConfig.from_file(path, overrides) if path else RunConfig.from_dict(overrides)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
