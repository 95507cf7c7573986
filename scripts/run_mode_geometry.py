#!/usr/bin/env python3
"""Sweep the (alpha, separation) grid and print the secondary-mode mass
ordering for the three divergences.

A cell passes criterion c07 when the secondary-mode mass is strictly
ordered rev < jsd < fwd and reverse KL leaves less than 0.05 on it; the
script exits 1 if any cell misses, or with a `config error: ...` line if its
arguments do not parse or a mixture cannot be built from the grid."""

import sys

import numpy as np

from debatekd.cli import Parser
from debatekd.harness import EXIT_CONFIG_ERROR
from debatekd.modes import BinnedMixture, coverage_ordering


def main() -> int:
    ap = Parser(description=__doc__)
    ap.add_argument("--alphas", type=float, nargs="+", default=[0.55, 0.6, 0.7])
    ap.add_argument("--separations", type=float, nargs="+", default=[6.0, 8.0, 12.0])
    args = ap.parse_args()
    cells = []
    for alpha in args.alphas:
        for sep in args.separations:
            try:
                cells.append((alpha, sep, BinnedMixture.two_mode(alpha=alpha, separation=sep)))
            except ValueError as exc:
                print(f"config error: alpha {alpha}, separation {sep}: {exc}", file=sys.stderr)
                return EXIT_CONFIG_ERROR

    print(f"{'alpha':>6} {'sep':>5} | {'rev mu2':>10} {'jsd mu2':>10} {'fwd mu2':>10} "
          f"| {'rev cost':>9} {'-log a':>8} c07")
    all_ok = True
    for alpha, sep, teacher in cells:
        results = coverage_ordering(teacher)
        mu2 = {k: r.mode_masses[1] for k, r in results.items()}
        passed = mu2["rev"] < mu2["jsd:0.5"] < mu2["fwd"] and mu2["rev"] < 0.05
        all_ok &= passed
        print(f"{alpha:6.2f} {sep:5.1f} | {mu2['rev']:10.2e} {mu2['jsd:0.5']:10.4f} "
              f"{mu2['fwd']:10.4f} | {results['rev'].terminal_cost:9.4f} "
              f"{-np.log(alpha):8.4f} {'yes' if passed else 'NO'}")
    verdict = "holds on every cell" if all_ok else "VIOLATED"
    print(f"rev < jsd < fwd with rev < 0.05 {verdict}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
