#!/usr/bin/env python3
"""Rank growth of banded commutation matrices.

Sweeps every pattern of a given bandwidth over GF(p) (or a single
user-supplied pattern) and tabulates how the form rank grows with the
truncation size.  Every nonzero pattern has unbounded rank: with M its
last nonzero separation, a kernel vector is fixed by its first M
coordinates, so d(n) <= M and rank(n) >= n - M.  The flag printed here
is the heuristic of `spinlab grow` (the rank rose over the last two
rows), which can say "stalled" for such a pattern.
"""

import argparse
import itertools

from spinlab import structure_report, toeplitz_matrix


def run_pattern(args: argparse.Namespace, pattern: tuple[int, ...]) -> None:
    mat = toeplitz_matrix(args.p, pattern, args.n_max)
    report = structure_report(mat)
    flag = "growing" if report.infinite_rank_conjectured else "stalled"
    ranks = " ".join(f"{r:>2}" for r in report.prefix_ranks)
    print(f"pattern {' '.join(map(str, pattern)):<12} ranks {ranks}  [{flag}]")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-p", type=int, default=2, help="prime modulus")
    parser.add_argument("--bandwidth", type=int, default=3)
    parser.add_argument("--n-max", type=int, default=12)
    parser.add_argument(
        "--pattern", type=int, nargs="+", default=None,
        help="single pattern to examine instead of sweeping",
    )
    args = parser.parse_args()
    if args.pattern:
        run_pattern(args, tuple(args.pattern))
        return
    print(f"# all bandwidth-{args.bandwidth} patterns over GF({args.p}), "
          f"prefixes up to n = {args.n_max}")
    for pattern in itertools.product(range(args.p), repeat=args.bandwidth):
        if not any(pattern):
            continue
        run_pattern(args, pattern)


if __name__ == "__main__":
    main()
