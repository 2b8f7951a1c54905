#!/usr/bin/env python3
"""Sweep the reduction bounds over the identity-hash query budget.

Prints, for growing qH1 (with proportional extraction/sign/verify budgets),
how much solver advantage survives the reduction and what the solver's
runtime becomes under the reference unit costs.  The 2/(qH1*(qH1-1)) guessing
factor dominates: advantage decays quadratically in qH1.
"""

import argparse
from fractions import Fraction

from dvbsig.analysis import (
    REFERENCE_COSTS,
    QueryBudget,
    unforgeability_bound,
    unverifiability_bound,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--eps", default="1/2", help="adversary advantage")
    parser.add_argument("--q", type=int, default=2**159 + 2**17 + 1, help="group order")
    parser.add_argument("--t", default="1000", help="adversary runtime (ms)")
    args = parser.parse_args()

    eps = Fraction(args.eps)
    print(f"adversary advantage {eps}, runtime {args.t} ms, |G| = {args.q}")
    header = f"{'qH1':>8} {'qE=qS=qV':>9} {'bdh advantage':>16} {'bdh time ms':>14} {'dbdh time ms':>14}"
    print(header)
    print("-" * len(header))
    for exponent in range(1, 11):
        qh1 = 2**exponent
        side = max(qh1 // 4, 1)
        budget = QueryBudget(
            h1_queries=qh1,
            extract_queries=side,
            sign_queries=side,
            verify_queries=side,
            advantage=eps,
            runtime=Fraction(args.t),
        )
        forge = unforgeability_bound(budget, REFERENCE_COSTS, args.q)
        dver = unverifiability_bound(budget, REFERENCE_COSTS, args.q)
        print(
            f"{qh1:>8} {side:>9} {float(forge.advantage):>16.3e}"
            f" {float(forge.runtime):>14.2f} {float(dver.runtime):>14.2f}"
        )


if __name__ == "__main__":
    main()
