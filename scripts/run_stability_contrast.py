#!/usr/bin/env python3
"""Identical-seed reverse-KL vs JSD training runs on the privileged-gap
fixture; the spike-ratio comparison is computed from the two metrics.csv
files alone."""

import csv
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np

from debatekd.cli import Parser
from debatekd.divergence import parse_kind
from debatekd.harness import EXIT_CONFIG_ERROR, ConfigError, RunConfig, run


def per_step_losses(metrics_path: Path) -> np.ndarray:
    groups = defaultdict(list)
    with open(metrics_path, newline="") as fh:
        for row in csv.DictReader(fh):
            groups[(row["iter"], row["step"])].append(float(row["loss"]))
    return np.array([np.mean(v) for v in groups.values()])


def main() -> int:
    ap = Parser(description=__doc__)
    ap.add_argument("--out", default="runs/stability")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--iterations", type=int, default=500)
    args = ap.parse_args()

    try:
        configs = {
            kind: RunConfig(
                experiment="opad",
                kind=parse_kind(kind),
                fixture="privileged-gap",
                num_teachers=1,
                rounds=1,
                seed=args.seed,
                iterations=args.iterations,
                out_dir=str(Path(args.out) / kind.replace(":", "=")),
            )
            for kind in ("rev", "jsd:0.5")
        }
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    ratios = {}
    for kind, config in configs.items():
        status = run(config)
        if status != 0:
            return status
        steps = per_step_losses(Path(config.out_dir) / "metrics.csv")
        ratios[kind] = steps.max() / np.median(steps)
        print(f"{kind:8s}: max {steps.max():10.4f}  median {np.median(steps):10.6f}  "
              f"spike ratio {ratios[kind]:10.2f}")
    print(f"reverse-KL spike ratio is {ratios['rev'] / ratios['jsd:0.5']:.1f}x the JSD ratio")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
