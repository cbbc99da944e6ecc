#!/usr/bin/env python3
"""Survey random polymatroids: exchange classes, hull consistency,
sortability, fiber connectivity and Gorenstein rates.

Every instance is drawn from seeded mixtures of monotone submodular
pieces, so a rerun with the same arguments reproduces the same table.

Run: python scripts/random_survey.py [--count N] [--seed S] [--max-n N] [--max-rank D]
"""

import argparse
import time
from collections import Counter
from random import Random

from polymat import (
    ExchangeMode,
    base_ring_gorenstein,
    base_set,
    ehrhart_generators,
    exchange_property,
    hull_consistency,
    is_gorenstein_hstar,
    is_sortable,
    random_polymatroid,
    rank_function,
    unit,
    validate_rank_function,
    white_check,
)
from polymat.polymatroid import _exchange_failure


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-n", type=int, default=5)
    parser.add_argument("--max-rank", type=int, default=5)
    args = parser.parse_args()

    started = time.perf_counter()
    tally: Counter = Counter()
    sizes = []
    for k in range(args.count):
        rng = Random(args.seed + k)
        rho, P = random_polymatroid(rng, max_n=args.max_n, max_rank=args.max_rank)
        B = P.base_set
        sizes.append(len(B))

        assert hull_consistency(P), f"hull failure at seed {args.seed + k}"
        assert validate_rank_function(rank_function(B))
        # the scan on a fresh copy tests the symmetric exchange theorem, which
        # the library takes as given for P's bases
        symmetric = _exchange_failure(base_set(B.vectors), "symmetric")
        assert symmetric, f"exchange failure at seed {args.seed + k}"

        weak = bool(exchange_property(B, ExchangeMode.WEAK))
        strong = bool(exchange_property(B, ExchangeMode.STRONG))
        tally["weak"] += weak
        tally["strong"] += strong
        if strong:
            assert is_sortable(B)
            tally["sortable"] += 1
            if white_check(B, 2, max_base_size=256):
                tally["white-2"] += 1
        if all(unit(P.n, i) in P.points for i in range(1, P.n + 1)):
            tally["units-inside"] += 1
            if is_gorenstein_hstar(ehrhart_generators(P)):
                tally["point-ring-gorenstein"] += 1
        if base_ring_gorenstein(B):
            tally["base-ring-gorenstein"] += 1

    elapsed = time.perf_counter() - started
    print(f"{args.count} instances (max n {args.max_n}, max rank {args.max_rank}) in {elapsed:.1f}s")
    print(f"base-set sizes: min {min(sizes)}, mean {sum(sizes) / len(sizes):.1f}, max {max(sizes)}")
    print("hull consistency, rank validity and two-sided exchange held on every instance")
    for key in (
        "weak",
        "strong",
        "sortable",
        "white-2",
        "units-inside",
        "point-ring-gorenstein",
        "base-ring-gorenstein",
    ):
        print(f"  {key:22s} {tally[key]:4d} / {args.count}")


if __name__ == "__main__":
    main()
