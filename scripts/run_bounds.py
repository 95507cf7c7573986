#!/usr/bin/env python3
"""Run the divergence bound probes and print the observed extremes."""

import json
import sys
from pathlib import Path

from debatekd.cli import Parser
from debatekd.harness import EXIT_CONFIG_ERROR, ConfigError, RunConfig, run


def main() -> int:
    ap = Parser(description=__doc__)
    ap.add_argument("--out", default="runs/bounds")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trials", type=int, default=20000)
    args = ap.parse_args()

    try:
        config = RunConfig(
            experiment="bounds", seed=args.seed, iterations=args.trials, out_dir=args.out
        )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    status = run(config)
    if status == 0:
        report = json.loads(Path(args.out, "bounds_report.json").read_text())
        print(f"max JSD loss      : {report['max_loss']:.12f} (bound {report['loss_bound']:.12f})")
        print(f"max JSD grad inf  : {report['max_inf_norm']:.6f} "
              f"(tight bound {report['grad_bound_tight']:.6f}, headline {report['grad_bound_headline']})")
        print(f"max fwd grad inf  : {report['max_fwd_inf_norm']:.6f} (bound 1)")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
