#!/usr/bin/env python3
"""Reduce a random planar set to the long simplex and print the trace.

Each compression step preserves cardinality and never increases doubling,
so the printed |2A| column is non-increasing down to the simplex value
3|A| - 3.
"""

import argparse

from sumsetlab import random_full_dim_set, reduce_to_simplex, sumset_size


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--size", type=int, default=9)
    parser.add_argument("--box", type=int, default=6, help="coordinates drawn from [-box, box]")
    args = parser.parse_args()

    A = random_full_dim_set(2, args.size, (-args.box, args.box), args.seed)
    print(f"initial set ({args.size} points, seed {args.seed}):")
    print(" ", sorted(tuple(p) for p in A.points))

    final, trace = reduce_to_simplex(A)
    print(f"\n{'step':>4} {'|2A|':>6}  compression")
    stages = trace.intermediates()
    print(f"{0:>4} {sumset_size({stages[0]: 2}):>6}  (translated start)")
    for i, (spec, stage) in enumerate(zip(trace.steps, stages[1:]), start=1):
        axis = spec.axis_index()
        label = f"axis {axis}" if axis else f"normal {spec.normal}, direction {spec.direction}"
        print(f"{i:>4} {sumset_size({stage: 2}):>6}  {label}")

    print(f"\nfinal ({len(trace.steps)} steps):")
    print(" ", sorted(tuple(p) for p in final.points))
    assert trace.replay() == final


if __name__ == "__main__":
    main()
