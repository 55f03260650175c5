"""How far a join walk can drift from its part, and when it cannot at all.

Inside the left block of a join, every Laplacian walk entry is the part
entry plus one m- and n-dependent correction, so the magnitude deviation
is capped by 2/m. Some joins attain the cap; on a lattice of special
times the correction vanishes entirely and the join mimics its part.

Run: python3 demos/bounds_and_mimicry.py
"""

import numpy as np

from qwjoin import disjoint_union, family
from qwjoin.bounds import bound_sweep, equality_condition, mimicry_sweep


def main():
    x = disjoint_union(family("C", 4), family("O", 2))
    y = family("O", 2)
    rep = bound_sweep(x, y, 0, 2, t_max=4 * np.pi)
    print(f"(C4 u O2) v O2, pair (0, 2), bound 2/m = {rep.bound:.6f}")
    print(f"  largest deviation seen: {rep.max_abs_deviation:.9f}")
    print(f"  at time {rep.argmax_time:.6f} (pi/2 = {np.pi / 2:.6f})")
    print(f"  equality possible: {rep.equality_possible}")

    cond = equality_condition(x, y)
    if cond["achievable"]:
        print(
            f"  bound attained: |correction| = {cond['witness_value']:.6f} "
            f"at odd multiples of {cond['base_time']:.6f}"
        )

    # a join whose parts disagree dyadically can never reach the cap
    cond = equality_condition(family("C", 4), family("O", 2))
    print(f"C4 v O2 equality achievable: {cond['achievable']}")

    print()
    # mimicry: on the lattice times the correction is exactly zero
    summary = mimicry_sweep(family("O", 2), family("O", 2))
    print("O2 v O2 mimicry sweep:")
    print(f"  lattice spacing: {summary.lattice_times[1] - summary.lattice_times[0]:.6f}")
    print(f"  worst deviation anywhere: {np.max(summary.max_deviation):.6f}")


if __name__ == "__main__":
    main()
