#!/usr/bin/env python3
"""Census of random spin systems over GF(2).

Samples seeded random alternating matrices, tabulates the kernel
dimension (hence the number 2^d of equivalence classes of irreducible
systems), and reports how often the generated algebra is simple.
Optionally cross-checks each sample by building the irreducible
representation and confirming commutant dimension 1.
"""

import argparse
from collections import Counter

from spinlab import commutant_dim, count_classes, form_kernel, irreducible_rep, random_alternating


def run(args: argparse.Namespace) -> None:
    kernel_dims = Counter()
    for i in range(args.samples):
        mat = random_alternating(2, args.n, seed=args.seed + i)
        d = len(form_kernel(mat))
        kernel_dims[d] += 1
        if args.check_reps:
            if commutant_dim(irreducible_rep(mat)) != 1:
                raise SystemExit(f"sample {i} (seed {args.seed + i}) is not irreducible")
    print(f"# {args.samples} random alternating {args.n}x{args.n} matrices over GF(2)")
    print("  d  classes  count  frequency")
    for d in sorted(kernel_dims):
        count = kernel_dims[d]
        print(f"{d:>3}  {count_classes(d, 2):>7}  {count:>5}  {count / args.samples:>9.3f}")
    simple = kernel_dims.get(0, 0)
    print(f"simple (nondegenerate) fraction: {simple / args.samples:.3f}")
    if args.check_reps:
        print("all sampled irreducible representations verified (commutant = 1)")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-n", type=int, default=8, help="matrix size")
    parser.add_argument("--samples", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--check-reps", action="store_true",
        help="also build each irreducible representation and verify it",
    )
    args = parser.parse_args()
    run(args)


if __name__ == "__main__":
    main()
