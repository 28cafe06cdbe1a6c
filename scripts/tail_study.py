"""Compare exact tail probabilities against the closed-form bounds.

Sweeps a grid of contraction parameters for a two-state chain with +/-1
observables and writes one CSV row per (lambda, u) pair, so the slack of
each bound can be plotted directly.

Usage:
    python3 scripts/tail_study.py --n 20 --lambdas 0:0.9:0.3 --out tails.csv
"""

import argparse
import csv
import sys

from mchoeffding import sign_family, two_state_chain
from mchoeffding.bounds import evaluate_tail_bounds
from mchoeffding.cli import parse_grid
from mchoeffding.oracle import lattice_distribution


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=20, help="number of chain steps")
    ap.add_argument("--lambdas", default="0:0.9:0.3", help="lambda grid start:stop:step")
    ap.add_argument("--u-grid", default="0.5:8:0.5", help="deviation grid start:stop:step")
    ap.add_argument("--out", default="-", help="output CSV path (default stdout)")
    args = ap.parse_args(argv)

    funcs = sign_family(args.n)
    u_grid = parse_grid(args.u_grid)
    names = sorted(evaluate_tail_bounds([], 0.0))
    rows = [["lambda", "u", "exact_tail"] + names]
    for lam in parse_grid(args.lambdas).tolist():
        tails = lattice_distribution(two_state_chain(lam), funcs).tail(u_grid * funcs.a_l2)
        cols = evaluate_tail_bounds(u_grid, lam)
        bound_rows = zip(*(cols[name].tolist() for name in names))
        for u, tail, bound_row in zip(u_grid.tolist(), tails.tolist(), bound_rows):
            rows.append([lam, u, tail, *bound_row])

    handle = sys.stdout if args.out == "-" else open(args.out, "w", newline="")
    csv.writer(handle).writerows(rows)
    if handle is not sys.stdout:
        handle.close()
        print(f"wrote {len(rows) - 1} rows to {args.out}")


if __name__ == "__main__":
    main()
